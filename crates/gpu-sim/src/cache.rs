//! Set-associative cache simulator (texture / read-only data cache).
//!
//! The paper places the input vector `x` in texture memory ("which in
//! general improves memory access... also employed by cuSPARSE and CUSP",
//! §IV). This small LRU cache model decides which `x` gathers hit on-chip
//! and which fall through to DRAM — the locality difference between
//! skewed (Zipf-popular columns) and uniform access is exactly what makes
//! the texture path worthwhile.

/// Set-associative LRU cache over line ids (`byte address >>
/// log2(line_bytes)`).
///
/// The probe path is the hottest loop of texture-bound kernels (one
/// probe per distinct line per warp gather). Callers probe by line id,
/// and the set index uses an exact multiply-shift remainder
/// (`SetAssocCache::set_of`) in place of the hardware division a plain
/// `line % sets` would issue — bit-identical, only faster.
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    line_bytes: u64,
    sets: usize,
    /// `floor(2^64 / sets) + 1`: division-free remainder magic, exact
    /// for every line id below 2^48 (see `SetAssocCache::set_of`).
    sets_magic: u64,
    ways: usize,
    /// `sets * ways` tags; `u64::MAX` = invalid.
    tags: Vec<u64>,
    /// Per-line last-touch stamps for LRU.
    stamps: Vec<u64>,
    tick: u64,
}

impl SetAssocCache {
    /// Build a cache of `capacity_bytes` with `line_bytes` lines and
    /// `ways`-way associativity. Set count is rounded down to a power of
    /// two (at least 1).
    pub fn new(capacity_bytes: usize, line_bytes: usize, ways: usize) -> SetAssocCache {
        assert!(line_bytes.is_power_of_two(), "line size must be 2^k");
        let ways = ways.max(1);
        let lines = (capacity_bytes / line_bytes).max(1);
        // Exact set count with modulo indexing, so capacity is preserved
        // even when (say) 48 KiB / 8-way / 32 B gives 192 sets.
        let sets = (lines / ways).max(1);
        let sets_magic = if sets > 1 {
            (((1u128 << 64) / sets as u128) + 1) as u64
        } else {
            0
        };
        SetAssocCache {
            line_bytes: line_bytes as u64,
            sets,
            sets_magic,
            ways,
            tags: vec![u64::MAX; sets * ways],
            stamps: vec![0; sets * ways],
            tick: 0,
        }
    }

    /// Cache line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * self.line_bytes as usize
    }

    /// `line % sets` without a division. With `m = floor(2^64/d) + 1`,
    /// `q = floor(line * m / 2^64)` equals `floor(line / d)` exactly
    /// whenever `line < 2^48` and `1 < d < 2^16` (the rounding error is
    /// below `2^-16` and the fractional part of `line/d` is at most
    /// `1 - 1/d`, so they can never straddle an integer). Device
    /// addresses are far below 2^48; anything larger falls back to `%`.
    #[inline]
    fn set_of(&self, line: u64) -> usize {
        let d = self.sets as u64;
        if d == 1 {
            return 0;
        }
        if line < (1 << 48) && d < (1 << 16) {
            let q = ((line as u128 * self.sets_magic as u128) >> 64) as u64;
            (line - q * d) as usize
        } else {
            (line % d) as usize
        }
    }

    /// Access line `line`; returns `true` on hit. Misses fill the line
    /// (LRU eviction). Dispatches to a fixed-width probe for the common
    /// associativities so the way loops fully unroll and vectorize (this
    /// is the innermost loop of texture-bound kernels).
    #[inline]
    pub fn access_line(&mut self, line: u64) -> bool {
        self.tick += 1;
        let base = self.set_of(line) * self.ways;
        match self.ways {
            4 => self.access_set::<4>(line, base),
            8 => self.access_set::<8>(line, base),
            w => self.access_set_dyn(line, base, w),
        }
    }

    /// Probe one set of `W` ways starting at flat index `base`.
    #[inline]
    fn access_set<const W: usize>(&mut self, line: u64, base: usize) -> bool {
        debug_assert_eq!(W, self.ways);
        debug_assert!(base + W <= self.tags.len());
        // SAFETY: `base = set * ways` with `set < sets`, and both vectors
        // hold exactly `sets * ways` elements, so the `W`-element set
        // views are in bounds and disjoint from each other.
        let tags: &mut [u64; W] =
            unsafe { &mut *(self.tags.as_mut_ptr().add(base) as *mut [u64; W]) };
        let stamps: &mut [u64; W] =
            unsafe { &mut *(self.stamps.as_mut_ptr().add(base) as *mut [u64; W]) };
        // Tags within a set are distinct (a line is only inserted when
        // absent), so a hit-mask scan finds the unique hit way. The OR
        // accumulations are independent (no loop-carried compare chain),
        // so this compiles to a SIMD compare + movemask.
        let mut hm = 0u32;
        for (w, &tag) in tags.iter().enumerate() {
            hm |= u32::from(tag == line) << w;
        }
        // Victim on a miss: the first way with the minimum stamp. Valid
        // stamps are distinct positive ticks and invalid ways carry stamp
        // 0 (`flush`/`new` zero them; every touch stamps tick ≥ 1), so
        // this argmin IS "first invalid way, else least recently used".
        // Pack `(stamp << log2 W) | way` and tournament-reduce: the min
        // packed value has the min stamp, and among equal stamps (only
        // the zero-stamped invalid ways) the smallest way index — the
        // same "first argmin" a sequential scan picks, computed in
        // log2(W) dependent steps instead of W.
        let wb = W.trailing_zeros();
        let mut p = [0u64; W];
        for w in 0..W {
            p[w] = (stamps[w] << wb) | w as u64;
        }
        let mut stride = W / 2;
        while stride > 0 {
            for w in 0..stride {
                p[w] = p[w].min(p[w + stride]);
            }
            stride /= 2;
        }
        // Branchless refill (hit/miss outcomes interleave unpredictably,
        // so a data-dependent branch here mispredicts constantly): on a
        // hit, "refilling" the hit way stores the tag value it already
        // holds and the stamp the hit path would store — identical state
        // to the classic two-branch update.
        let hit = hm != 0;
        let way = if hit {
            hm.trailing_zeros() as usize
        } else {
            (p[0] & ((1 << wb) - 1)) as usize
        };
        tags[way] = line;
        stamps[way] = self.tick;
        hit
    }

    /// Fallback probe for unusual associativities; same algorithm as
    /// [`SetAssocCache::access_set`] with a runtime way count.
    fn access_set_dyn(&mut self, line: u64, base: usize, ways: usize) -> bool {
        let tags = &mut self.tags[base..base + ways];
        let stamps = &mut self.stamps[base..base + ways];
        let mut hit = usize::MAX;
        for (w, &t) in tags.iter().enumerate() {
            if t == line {
                hit = w;
            }
        }
        if hit != usize::MAX {
            stamps[hit] = self.tick;
            return true;
        }
        let mut victim = 0;
        let mut oldest = stamps[0];
        for (w, &s) in stamps.iter().enumerate().skip(1) {
            if s < oldest {
                oldest = s;
                victim = w;
            }
        }
        tags[victim] = line;
        stamps[victim] = self.tick;
        false
    }

    /// Drop all contents (kernel boundary). Keeps the allocation, so a
    /// flushed cache is observationally identical to a new one — the
    /// launch arena relies on this to reuse caches across launches.
    pub fn flush(&mut self) {
        self.tags.fill(u64::MAX);
        self.stamps.fill(0);
        self.tick = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Line id of byte address `addr` in a 32-byte-line cache.
    fn line(addr: u64) -> u64 {
        addr / 32
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = SetAssocCache::new(1024, 32, 4);
        assert!(!c.access_line(line(0)));
        assert!(c.access_line(line(0)));
        assert!(c.access_line(line(31))); // same line
        assert!(!c.access_line(line(32))); // next line
    }

    #[test]
    fn capacity_bound_causes_eviction() {
        let mut c = SetAssocCache::new(128, 32, 4); // 4 lines, single set
        for i in 0..5u64 {
            c.access_line(line(i * 32));
        }
        // line 0 was LRU and evicted by the 5th distinct line
        assert!(!c.access_line(line(0)));
    }

    #[test]
    fn lru_keeps_recently_used() {
        let mut c = SetAssocCache::new(128, 32, 4); // one set of 4 ways
        for i in 0..4u64 {
            c.access_line(line(i * 32));
        }
        c.access_line(line(0)); // refresh line 0
        c.access_line(line(4 * 32)); // evicts LRU = line 1
        assert!(c.access_line(line(0)), "line 0 must survive");
        assert!(!c.access_line(line(32)), "line 1 must be gone");
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = SetAssocCache::new(1024, 32, 4);
        c.access_line(line(64));
        c.flush();
        assert!(!c.access_line(line(64)));
    }

    #[test]
    fn working_set_within_capacity_all_hits_after_warmup() {
        let mut c = SetAssocCache::new(48 * 1024, 32, 8);
        let lines = 48 * 1024 / 32;
        // Sequential addresses map round-robin over sets: fits exactly.
        for i in 0..lines as u64 {
            c.access_line(line(i * 32));
        }
        let hits = (0..lines as u64)
            .filter(|&i| c.access_line(line(i * 32)))
            .count();
        assert_eq!(hits, lines);
    }

    #[test]
    fn streaming_scan_never_hits() {
        let mut c = SetAssocCache::new(1024, 32, 4);
        let hits = (0..10_000u64)
            .filter(|&i| c.access_line(line(i * 32)))
            .count();
        assert_eq!(hits, 0);
    }
}
