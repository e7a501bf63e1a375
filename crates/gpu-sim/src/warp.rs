//! Warp execution context — the API simulated kernels are written against.
//!
//! A kernel observes the machine the way CUDA device code does, one warp
//! at a time: 32 lanes executing in lockstep under an active mask. Every
//! method both *performs* the operation on host data (functional
//! correctness) and *charges* the timing model (issue slots, DRAM
//! transactions after coalescing, texture probes, critical-path latency).
//!
//! The key SIMT property the model preserves: **cost is per warp
//! instruction, not per active lane**. A warp with one active lane pays
//! the same issue slot as a full warp — that waste is precisely the
//! divergence ACSR's binning removes.
//!
//! Every memory op has one coalescing model, and it works in *index
//! space*: the active lanes' element indices are compacted, scanned once
//! for sortedness and segment boundaries (sorted and rescanned only when
//! they arrive out of order), and a segment is an index shifted right by
//! `log2(granule / element size)` (see `idx_shift`). That equals counting
//! byte addresses because three preconditions hold, each enforced where
//! it originates: element sizes are powers of two up to 32 bytes (a
//! compile-time assertion on [`DevCopy::SIZE`]), DRAM transactions and
//! texture lines are powers of two from 32 bytes to a page
//! ([`crate::Device::new`]), and buffer bases are page-aligned (the
//! allocator in [`crate::buffer`]).
//!
//! All model mutations go to the warp's `ShardState` — the per-SM slice
//! of the launch this warp's block belongs to — so warps of blocks on
//! different SMs can execute on different host threads without sharing
//! any mutable state (see the engine module's sharding docs). Buffer
//! writes go through `&DeviceBuffer` interior mutability under the kernel
//! data contract; cross-shard read-modify-write races are prevented by
//! serializing [`WarpCtx::atomic_rmw`] under a process-wide lock.

use crate::buffer::{DevCopy, DeviceBuffer};
use crate::config::DeviceConfig;
use crate::engine::ShardState;
use std::sync::Mutex;

/// Lanes per warp (fixed at 32 on every NVIDIA GPU the paper uses).
pub const WARP: usize = 32;

/// All 32 lanes active.
pub const FULL_MASK: u32 = u32::MAX;

/// Serializes atomic read-modify-write sequences across host workers,
/// mirroring the L2 atomic unit. Counter and timing charges stay
/// shard-local; only the memory update itself is serialized, so the
/// final value is *some* association order of the contributions —
/// exactly the guarantee CUDA atomics give.
static ATOMIC_LOCK: Mutex<()> = Mutex::new(());

/// Mask with the first `n` lanes active (`n ≥ 32` ⇒ full mask).
#[inline]
pub fn lane_mask(n: usize) -> u32 {
    if n >= WARP {
        FULL_MASK
    } else {
        (1u32 << n) - 1
    }
}

/// The shuffle-tree pairing of [`WarpCtx::segmented_reduce_sum`] as a
/// pure function, for host code that must reproduce a warp reduction
/// bit for bit. Within each independent segment of `width` lanes
/// (`width` a power of two ≤ 32), round `delta = width/2, …, 1` sets
/// lane `i ← i + (i + delta)` for the segment's first `width - delta`
/// lanes, so each segment's first lane ends holding its sum.
pub fn tree_reduce_sum<T: Copy + std::ops::Add<Output = T>>(
    vals: &[T; WARP],
    width: usize,
) -> [T; WARP] {
    assert!(
        width.is_power_of_two() && width <= WARP,
        "segment width must be a power of two ≤ 32"
    );
    let mut cur = *vals;
    let mut delta = width / 2;
    while delta > 0 {
        // Every combining lane reads `lane + delta`, a lane written
        // *later* in ascending order — so all reads of a round see the
        // round's input values, and the round is a pure map over the
        // snapshot `prev`. Working from an explicit snapshot computes
        // exactly what the shuffle-copy + masked add pair did, and frees
        // the compiler from the in-place aliasing (the round
        // vectorizes).
        let prev = cur;
        for seg in (0..WARP).step_by(width) {
            for lane in seg..seg + width - delta {
                cur[lane] = prev[lane] + prev[lane + delta];
            }
        }
        delta /= 2;
    }
    cur
}

/// Execution context of one warp inside one block.
pub struct WarpCtx<'r, 'd, 'k> {
    pub(crate) shard: &'r mut ShardState,
    /// Child grids queued for the launch's next wave (see the engine
    /// module's sharding docs).
    pub(crate) pending: &'r mut Vec<crate::engine::PendingChild<'k>>,
    pub(crate) cfg: &'d DeviceConfig,
    pub(crate) block_idx: usize,
    pub(crate) warp_in_block: usize,
    pub(crate) block_dim: usize,
    pub(crate) sm: usize,
    /// Local issue-slot count, flushed to the SM on drop.
    pub(crate) instr: u64,
    /// Local critical-path cycles, flushed (max) to the SM on drop.
    pub(crate) crit: u64,
    /// Local active-lane count (`lane_ops`), flushed on drop.
    pub(crate) lanes: u64,
    /// `ceil(mem_latency_cycles / mlp)`, precomputed by the engine so
    /// per-access charges never divide.
    pub(crate) mem_lat: u64,
    /// `ceil(tex_hit_latency_cycles / mlp)`, precomputed likewise.
    pub(crate) tex_hit_lat: u64,
}

impl<'r, 'd, 'k> WarpCtx<'r, 'd, 'k> {
    /// Index of this warp within its block.
    pub fn warp_in_block(&self) -> usize {
        self.warp_in_block
    }

    /// Block index in the grid.
    pub fn block_idx(&self) -> usize {
        self.block_idx
    }

    /// Global warp id (`block_idx * warps_per_block + warp_in_block`).
    pub fn global_warp_id(&self) -> usize {
        self.block_idx * self.block_dim.div_ceil(WARP) + self.warp_in_block
    }

    /// Global thread id of lane 0.
    pub fn first_thread(&self) -> usize {
        self.block_idx * self.block_dim + self.warp_in_block * WARP
    }

    /// Number of threads of this warp that exist in the block (the last
    /// warp of a non-multiple-of-32 block is partial).
    pub fn live_lanes(&self) -> usize {
        (self.block_dim - (self.warp_in_block * WARP).min(self.block_dim)).min(WARP)
    }

    /// Charge `n` ALU/control warp instructions. Modeled as uniform
    /// (full-warp) work: every lane counts active. Divergent arithmetic
    /// should go through [`WarpCtx::charge_fma`] instead so the wasted
    /// lanes show up in the profiler's warp execution efficiency.
    #[inline]
    pub fn charge_alu(&mut self, n: u64) {
        self.instr += n;
        self.crit += n;
        self.lanes += n * WARP as u64;
    }

    /// Charge one fused-multiply-add warp instruction executing under
    /// `mask`: one issue slot (identical timing to `charge_alu(1)`),
    /// `2 × active lanes` useful flops, and the active-lane histogram /
    /// `lane_ops` accounting the profiler derives divergence from.
    #[inline]
    pub fn charge_fma(&mut self, mask: u32) {
        self.instr += 1;
        self.crit += 1;
        let n_active = u64::from(mask.count_ones());
        self.lanes += n_active;
        self.shard.counters.flops += 2 * n_active;
        self.note_lanes(n_active);
    }

    /// Charge `n` useful floating-point operations (counter-only: no
    /// issue slots, no time — pair with [`WarpCtx::charge_alu`] for the
    /// instructions that perform them).
    #[inline]
    pub fn charge_flops(&mut self, n: u64) {
        self.shard.counters.flops += n;
    }

    /// Bump the active-lane divergence histogram for a masked warp
    /// operation with `n_active` lanes (no-op for an all-inactive mask).
    #[inline]
    fn note_lanes(&mut self, n_active: u64) {
        if n_active > 0 {
            self.shard.counters.lane_hist[crate::counters::lane_hist_bin(n_active)] += 1;
        }
    }

    /// Gather `buf[idx[i]]` for every active lane. One warp instruction;
    /// DRAM transactions per distinct segment touched. Inactive lanes
    /// return `T::default()` and their `idx` entries are ignored.
    #[inline]
    pub fn gather<T: DevCopy>(
        &mut self,
        buf: &DeviceBuffer<T>,
        idx: &[usize; WARP],
        mask: u32,
    ) -> [T; WARP] {
        let txn = self.cfg.dram_transaction_bytes as u64;
        let elem = T::SIZE as u64;
        let sa = idx_shift(elem, txn);
        let mut lanes = [0usize; WARP];
        let (run, scan) = active_run(idx, mask, &mut lanes, sa, sa);
        // SAFETY: `run` is `active_run`'s sorted active indices.
        let out = unsafe { load_lanes(buf, idx, mask, run) };
        let ideal = ideal_from_distinct(run.len(), scan.distinct, elem, txn);
        self.charge_mem_read(run.len() as u64, scan.segs_a, ideal, txn);
        out
    }

    /// Gather where each *group* of `1 << g_shift` consecutive lanes
    /// reads the same buffer index: lane `l` reads
    /// `group_idx[l >> g_shift]` (the row-bounds fetch of every
    /// group-per-row kernel). Values, counters, and timing are
    /// bit-identical to [`WarpCtx::gather`] with the expanded per-lane
    /// index array; the grouped form skips the 32-lane coalescing scan —
    /// duplicating each element of a run `1 << g_shift` times changes
    /// neither its sortedness nor which granularity boundaries it
    /// crosses, so the expanded run's segment counts equal the group
    /// run's, and each buffer element is loaded once and broadcast.
    #[inline]
    pub fn gather_grouped<T: DevCopy>(
        &mut self,
        buf: &DeviceBuffer<T>,
        group_idx: &[usize],
        g_shift: usize,
        mask: u32,
    ) -> [T; WARP] {
        debug_assert_eq!(group_idx.len() << g_shift, WARP);
        let txn = self.cfg.dram_transaction_bytes as u64;
        let elem = T::SIZE as u64;
        // The grouped form needs the active lanes to be a prefix of whole
        // groups (so the compacted run is the first `n_groups` group
        // indices expanded), and that prefix sorted.
        let n_active = mask.count_ones() as usize;
        let n_groups = n_active >> g_shift;
        if mask == lane_mask(n_active) && n_groups << g_shift == n_active {
            let sa = idx_shift(elem, txn);
            let groups = &group_idx[..n_groups];
            let scan = scan_run(groups, sa, sa);
            if scan.sorted {
                let mut out = [T::default(); WARP];
                if let Some(&max) = groups.last() {
                    assert!(
                        max < buf.len(),
                        "gather index {max} out of bounds (len {})",
                        buf.len()
                    );
                    for (g, &i) in groups.iter().enumerate() {
                        // SAFETY: `i ≤ max < buf.len()` (sorted run).
                        let v = unsafe { buf.get_unchecked(i) };
                        out[g << g_shift..(g + 1) << g_shift].fill(v);
                    }
                }
                // Each expanded element duplicates its group's index,
                // so boundaries (and the distinct count) are exactly
                // the group run's.
                let ideal = ideal_from_distinct(n_active, scan.distinct, elem, txn);
                self.charge_mem_read(n_active as u64, scan.segs_a, ideal, txn);
                return out;
            }
        }
        // General shape: expand and take the ordinary gather path.
        let mut idx = [0usize; WARP];
        for (lane, slot) in idx.iter_mut().enumerate() {
            *slot = group_idx[lane >> g_shift];
        }
        self.gather(buf, &idx, mask)
    }

    /// Fused gather of two buffers at the *same* indices — the common
    /// "col_indices + values at position k" pattern of every CSR-style
    /// kernel. Counters and timing are bit-identical to
    /// `(self.gather(buf_a, idx, mask), self.gather(buf_b, idx, mask))`;
    /// fusing merely shares the index compaction and coalescing scan
    /// between the two warp instructions.
    #[inline]
    pub fn gather2<A: DevCopy, B: DevCopy>(
        &mut self,
        buf_a: &DeviceBuffer<A>,
        buf_b: &DeviceBuffer<B>,
        idx: &[usize; WARP],
        mask: u32,
    ) -> ([A; WARP], [B; WARP]) {
        let txn = self.cfg.dram_transaction_bytes as u64;
        let (ea, eb) = (A::SIZE as u64, B::SIZE as u64);
        let mut lanes = [0usize; WARP];
        let (run, scan) = active_run(
            idx,
            mask,
            &mut lanes,
            idx_shift(ea, txn),
            idx_shift(eb, txn),
        );
        // SAFETY: `run` is `active_run`'s sorted active indices.
        let out = unsafe {
            (
                load_lanes(buf_a, idx, mask, run),
                load_lanes(buf_b, idx, mask, run),
            )
        };
        let n = run.len();
        let ideal_a = ideal_from_distinct(n, scan.distinct, ea, txn);
        self.charge_mem_read(n as u64, scan.segs_a, ideal_a, txn);
        let ideal_b = ideal_from_distinct(n, scan.distinct, eb, txn);
        self.charge_mem_read(n as u64, scan.segs_b, ideal_b, txn);
        out
    }

    /// Gather through the texture / read-only cache path (the paper binds
    /// `x` to texture memory). Hits stay on chip; misses pay DRAM at
    /// cache-line granularity.
    #[inline]
    pub fn gather_tex<T: DevCopy>(
        &mut self,
        buf: &DeviceBuffer<T>,
        idx: &[usize; WARP],
        mask: u32,
    ) -> [T; WARP] {
        let line = self.cfg.tex_line_bytes as u64;
        let ls = idx_shift(T::SIZE as u64, line);
        let mut lanes = [0usize; WARP];
        let (run, _) = active_run(idx, mask, &mut lanes, ls, ls);
        // SAFETY: `run` is `active_run`'s sorted active indices.
        let out = unsafe { load_lanes(buf, idx, mask, run) };
        let (mut hits, mut misses) = (0u64, 0u64);
        if !run.is_empty() {
            let cache = self.shard.cache_mut(self.cfg);
            // Probe each distinct line once, in ascending line order. The
            // base is line-aligned, so index-space line `li` is the byte
            // address line `(base >> log2 line) + li`.
            let base_line = buf.base_addr() >> line.trailing_zeros();
            let mut prev_line = usize::MAX;
            for &i in run {
                let li = i >> ls;
                if li == prev_line {
                    continue;
                }
                prev_line = li;
                if cache.access_line(base_line + li as u64) {
                    hits += 1;
                } else {
                    misses += 1;
                }
            }
        }
        let n_active = run.len() as u64;
        self.instr += 1;
        self.lanes += n_active;
        self.note_lanes(n_active);
        self.shard.counters.tex_hits += hits;
        self.shard.counters.tex_misses += misses;
        self.shard.counters.dram_read_bytes += misses * line;
        self.shard.counters.transactions += misses;
        self.crit += if misses > 0 {
            self.mem_lat
        } else {
            self.tex_hit_lat
        };
        out
    }

    /// Lane `i` reads `buf[base + i]` (the canonical coalesced pattern).
    pub fn read_coalesced<T: DevCopy>(
        &mut self,
        buf: &DeviceBuffer<T>,
        base: usize,
        mask: u32,
    ) -> [T; WARP] {
        // Full-mask fast path: `base..base+32` is a sorted run of 32
        // distinct consecutive indices, so the coalescing scan a `gather`
        // would run collapses to closed forms — consecutive indices have
        // consecutive segment ids, so the segment count is just the id
        // span, and "distinct elements" is exactly 32.
        if mask == FULL_MASK {
            let txn = self.cfg.dram_transaction_bytes as u64;
            let elem = T::SIZE as u64;
            let sa = idx_shift(elem, txn);
            let max = base + WARP - 1;
            assert!(
                max < buf.len(),
                "gather index {max} out of bounds (len {})",
                buf.len()
            );
            let mut out = [T::default(); WARP];
            // SAFETY: every index read is ≤ `max`, checked above.
            unsafe {
                for (lane, slot) in out.iter_mut().enumerate() {
                    *slot = buf.get_unchecked(base + lane);
                }
            }
            let segs = ((max >> sa) - (base >> sa) + 1) as u64;
            let ideal = ideal_from_distinct(WARP, WARP as u64, elem, txn);
            self.charge_mem_read(WARP as u64, segs, ideal, txn);
            return out;
        }
        let mut idx = [0usize; WARP];
        for (lane, slot) in idx.iter_mut().enumerate() {
            if mask >> lane & 1 == 1 {
                *slot = base + lane;
            }
        }
        self.gather(buf, &idx, mask)
    }

    /// Lane `i` writes `vals[i]` to `buf[base + i]`.
    pub fn write_coalesced<T: DevCopy>(
        &mut self,
        buf: &DeviceBuffer<T>,
        base: usize,
        vals: &[T; WARP],
        mask: u32,
    ) {
        let mut idx = [0usize; WARP];
        for (lane, slot) in idx.iter_mut().enumerate() {
            if mask >> lane & 1 == 1 {
                *slot = base + lane;
            }
        }
        self.scatter(buf, &idx, vals, mask);
    }

    /// Scatter `vals[i]` to `buf[idx[i]]` for active lanes. Conflicting
    /// lanes (same index) resolve to the highest active lane, matching
    /// CUDA's undefined-but-last-writer-wins behaviour in practice.
    #[inline]
    pub fn scatter<T: DevCopy>(
        &mut self,
        buf: &DeviceBuffer<T>,
        idx: &[usize; WARP],
        vals: &[T; WARP],
        mask: u32,
    ) {
        let txn = self.cfg.dram_transaction_bytes as u64;
        let elem = T::SIZE as u64;
        let sa = idx_shift(elem, txn);
        let mut lanes = [0usize; WARP];
        let (run, scan) = active_run(idx, mask, &mut lanes, sa, sa);
        if let Some(&max) = run.last() {
            assert!(
                max < buf.len(),
                "scatter index {max} out of bounds (len {})",
                buf.len()
            );
            // SAFETY: every active index is ≤ `max`, checked above.
            // Writes run in ascending lane order, preserving the
            // last-writer-wins conflict resolution.
            unsafe {
                if mask == FULL_MASK {
                    for lane in 0..WARP {
                        buf.set_unchecked(idx[lane], vals[lane]);
                    }
                } else {
                    let mut m = mask;
                    while m != 0 {
                        let lane = m.trailing_zeros() as usize;
                        m &= m - 1;
                        buf.set_unchecked(idx[lane], vals[lane]);
                    }
                }
            }
        }
        let ideal = ideal_from_distinct(run.len(), scan.distinct, elem, txn);
        self.charge_mem_write(run.len() as u64, scan.segs_a, ideal, txn);
    }

    /// Atomic read-modify-write: `buf[idx[i]] = op(buf[idx[i]], vals[i])`.
    /// Lanes hitting the same address serialize (charged as extra passes),
    /// and the result is the correct full combination. Across host
    /// workers, the whole warp-level sequence holds a process-wide lock,
    /// so concurrent shards never tear an update — their application
    /// *order* is unspecified, as on hardware.
    pub fn atomic_rmw<T: DevCopy>(
        &mut self,
        buf: &DeviceBuffer<T>,
        idx: &[usize; WARP],
        vals: &[T; WARP],
        mask: u32,
        op: impl Fn(T, T) -> T,
    ) {
        let mut seen: [(usize, u32); WARP] = [(usize::MAX, 0); WARP];
        let mut n_distinct = 0usize;
        let mut n_active = 0u64;
        {
            let _serialize = ATOMIC_LOCK.lock().unwrap_or_else(|p| p.into_inner());
            for lane in 0..WARP {
                if mask >> lane & 1 == 1 {
                    n_active += 1;
                    let cur = buf.get(idx[lane]);
                    buf.set(idx[lane], op(cur, vals[lane]));
                    match seen[..n_distinct].iter_mut().find(|(a, _)| *a == idx[lane]) {
                        Some((_, c)) => *c += 1,
                        None => {
                            seen[n_distinct] = (idx[lane], 1);
                            n_distinct += 1;
                        }
                    }
                }
            }
        }
        if n_active == 0 {
            return;
        }
        let max_mult = seen[..n_distinct]
            .iter()
            .map(|&(_, c)| c)
            .max()
            .unwrap_or(1) as u64;
        self.instr += max_mult;
        self.lanes += n_active;
        self.note_lanes(n_active);
        self.shard.counters.atomic_ops += n_active;
        self.shard.counters.atomic_conflicts += (max_mult - 1) * n_distinct as u64;
        // atomics resolve in L2 at 32B granularity
        self.shard.counters.transactions += n_distinct as u64;
        self.shard.counters.dram_read_bytes += n_distinct as u64 * 32;
        self.shard.counters.dram_write_bytes += n_distinct as u64 * 32;
        self.crit += max_mult * self.cfg.atomic_serialize_cycles + self.mem_lat;
    }

    /// `__shfl_down_sync`: lane `i` receives lane `i + delta`'s value
    /// (its own when the source lane is out of range), one instruction.
    pub fn shfl_down<T: DevCopy>(&mut self, vals: &[T; WARP], delta: usize) -> [T; WARP] {
        self.charge_alu(1);
        let mut out = *vals;
        for lane in 0..WARP {
            if lane + delta < WARP {
                out[lane] = vals[lane + delta];
            }
        }
        out
    }

    /// Tree-reduce (+) within independent segments of `width` lanes
    /// (`width` must be a power of two ≤ 32) with the pairing of
    /// [`tree_reduce_sum`]. After the call, the first lane of each
    /// segment holds that segment's sum. Charges `log2(width)` shuffle
    /// instructions plus the adds — the intra-warp reduction of the
    /// paper's Algorithm 2.
    pub fn segmented_reduce_sum<T: DevCopy + std::ops::Add<Output = T>>(
        &mut self,
        vals: &[T; WARP],
        width: usize,
    ) -> [T; WARP] {
        let cur = tree_reduce_sum(vals, width);
        // One shuffle + one add warp instruction per round, charged in a
        // single call (charge_alu(2) per round sums to the same counters).
        self.charge_alu(2 * u64::from(width.trailing_zeros()));
        cur
    }

    /// `__ballot_sync`: mask of lanes whose predicate is true.
    pub fn ballot(&mut self, preds: &[bool; WARP], mask: u32) -> u32 {
        self.charge_alu(1);
        let mut out = 0u32;
        for (lane, &p) in preds.iter().enumerate() {
            if mask >> lane & 1 == 1 && p {
                out |= 1 << lane;
            }
        }
        out
    }

    /// Launch a child grid from this warp (dynamic parallelism,
    /// Algorithm 3). Panics on devices below compute capability 3.5,
    /// matching the hardware constraint the paper works around on the
    /// GTX 580 and K10.
    ///
    /// The child grid is queued and executes after the parent grid's
    /// blocks drain, mirroring the CUDA rule that a child grid is only
    /// guaranteed complete once the parent synchronizes. Its blocks are
    /// attributed round-robin across SMs starting at the shard's private
    /// launch sequence, and each runs on the shard of its attributed SM —
    /// see the engine module's sharding docs.
    pub fn launch_child<F>(&mut self, grid_blocks: usize, block_dim: usize, kernel: F)
    where
        F: for<'x, 'y> Fn(&mut crate::engine::BlockCtx<'x, 'y, 'k>) + Send + Sync + 'k,
    {
        assert!(
            self.cfg.has_dynamic_parallelism(),
            "device '{}' (cc {}.{}) does not support dynamic parallelism",
            self.cfg.name,
            self.cfg.compute_capability.0,
            self.cfg.compute_capability.1
        );
        assert!(
            block_dim > 0 && block_dim <= 1024,
            "block_dim {block_dim} out of range"
        );
        self.charge_alu(2); // launch setup on the parent thread
        self.shard.counters.child_launches += 1;
        self.shard.child_seq += 1;
        self.pending.push(crate::engine::PendingChild {
            seq: self.shard.child_seq,
            grid_blocks,
            block_dim,
            kernel: Box::new(kernel),
        });
    }

    fn charge_mem_read(&mut self, n_active: u64, segments: u64, ideal: u64, txn_bytes: u64) {
        self.instr += 1;
        self.lanes += n_active;
        self.note_lanes(n_active);
        self.shard.counters.mem_requests += 1;
        self.shard.counters.mem_transactions += segments;
        self.shard.counters.min_transactions += ideal;
        self.shard.counters.transactions += segments;
        self.shard.counters.dram_read_bytes += segments * txn_bytes;
        self.crit += self.mem_lat;
    }

    fn charge_mem_write(&mut self, n_active: u64, segments: u64, ideal: u64, txn_bytes: u64) {
        self.instr += 1;
        self.lanes += n_active;
        self.note_lanes(n_active);
        self.shard.counters.mem_requests += 1;
        self.shard.counters.mem_transactions += segments;
        self.shard.counters.min_transactions += ideal;
        self.shard.counters.transactions += segments;
        self.shard.counters.dram_write_bytes += segments * txn_bytes;
        // writes retire through the store queue; they cost issue + a small
        // fraction of latency on the critical path
        self.crit += 4;
    }
}

impl Drop for WarpCtx<'_, '_, '_> {
    fn drop(&mut self) {
        self.shard.sm_instr[self.sm] += self.instr;
        if self.crit > self.shard.sm_crit[self.sm] {
            self.shard.sm_crit[self.sm] = self.crit;
        }
        self.shard.counters.warp_instructions += self.instr;
        self.shard.counters.lane_ops += self.lanes;
        self.shard.counters.warps += 1;
    }
}

/// Counts of one warp access run (see [`scan_run`]).
struct LaneScan {
    /// Indices came out non-decreasing (the common coalesced and
    /// row-major case).
    sorted: bool,
    /// Distinct segments at granularity `1 << shift_a` — valid only when
    /// `sorted`.
    segs_a: u64,
    /// Distinct segments at granularity `1 << shift_b` — valid only when
    /// `sorted`.
    segs_b: u64,
    /// Distinct indices — valid only when `sorted`.
    distinct: u64,
}

/// Scan an index run for sortedness and — valid only when it is sorted —
/// its distinct-segment counts at two granularities plus its distinct
/// indices. Shifting is monotonic, so the segment ids of a sorted run are
/// sorted too and each distinct id shows up as one boundary between
/// neighbours: counting boundaries is exactly a dedup count, with no sort
/// and no second pass. The loop carries only independent accumulators
/// (no data-dependent control flow), so it vectorizes.
#[inline]
fn scan_run(run: &[usize], shift_a: u32, shift_b: u32) -> LaneScan {
    let one = u64::from(!run.is_empty());
    let (mut sorted, mut segs_a, mut segs_b, mut distinct) = (true, one, one, one);
    for w in run.windows(2) {
        let (p, a) = (w[0], w[1]);
        sorted &= a >= p;
        segs_a += u64::from(a >> shift_a != p >> shift_a);
        segs_b += u64::from(a >> shift_b != p >> shift_b);
        distinct += u64::from(a != p);
    }
    LaneScan {
        sorted,
        segs_a,
        segs_b,
        distinct,
    }
}

/// The active lanes of one warp access, in index space: their indices
/// in ascending order, with the run's counts at segment shifts `shift_a`
/// and `shift_b`. The run is `idx` itself when every lane is active and
/// the indices arrive sorted (the common coalesced case copies nothing);
/// otherwise it is the active indices compacted into `lanes`, sorted
/// and rescanned when they arrive unsorted. Either way its last element
/// is the largest active index, so one bounds check covers the access.
#[inline]
fn active_run<'a>(
    idx: &'a [usize; WARP],
    mask: u32,
    lanes: &'a mut [usize; WARP],
    shift_a: u32,
    shift_b: u32,
) -> (&'a [usize], LaneScan) {
    let full = mask == FULL_MASK;
    let n = if full {
        WARP
    } else {
        compact_idx(idx, mask, lanes)
    };
    let scan = scan_run(if full { idx } else { &lanes[..n] }, shift_a, shift_b);
    if scan.sorted && full {
        return (idx, scan);
    }
    if full {
        *lanes = *idx;
    }
    let run = &mut lanes[..n];
    if scan.sorted {
        return (run, scan);
    }
    sort_run(run);
    let scan = scan_run(run, shift_a, shift_b);
    (run, scan)
}

/// `buf[idx[lane]]` for every active lane and `T::default()` for the
/// rest, behind one bounds check on the largest active index.
///
/// # Safety
/// `run` must be the active lanes' indices of `idx` under `mask` in
/// ascending order (as [`active_run`] returns them), so that its last
/// element is at least every active index.
#[inline]
unsafe fn load_lanes<T: DevCopy>(
    buf: &DeviceBuffer<T>,
    idx: &[usize; WARP],
    mask: u32,
    run: &[usize],
) -> [T; WARP] {
    let mut out = [T::default(); WARP];
    let Some(&max) = run.last() else {
        return out;
    };
    assert!(
        max < buf.len(),
        "gather index {max} out of bounds (len {})",
        buf.len()
    );
    // SAFETY: every active index is ≤ `max` (the caller's contract), and
    // `max < len` is checked above; inactive lanes read index 0 (in
    // bounds: len > max ≥ 0) and discard it — a branchless select, not a
    // branch per lane, so the loop vectorizes to a masked gather.
    unsafe {
        if mask == FULL_MASK {
            for lane in 0..WARP {
                out[lane] = buf.get_unchecked(idx[lane]);
            }
        } else {
            for lane in 0..WARP {
                let active = mask >> lane & 1 == 1;
                let v = buf.get_unchecked(if active { idx[lane] } else { 0 });
                out[lane] = if active { v } else { T::default() };
            }
        }
    }
    out
}

/// Compact the active lanes' indices into the front of `lanes` (lane
/// order preserved); returns the active count.
#[inline]
fn compact_idx(idx: &[usize; WARP], mask: u32, lanes: &mut [usize; WARP]) -> usize {
    // Unconditional store + masked advance: no data-dependent branches
    // (active masks are irregular, so a bit-iteration loop mispredicts),
    // and the fixed 32-iteration shape is the compress-store idiom
    // vector backends recognize.
    let mut n = 0usize;
    for (lane, &i) in idx.iter().enumerate() {
        lanes[n] = i;
        n += (mask >> lane & 1) as usize;
    }
    n
}

/// In index space, the shift mapping an element index to its
/// granularity-`granule` segment id. Element sizes are powers of two up
/// to 32 bytes (asserted where [`DevCopy::SIZE`] is defined), granules
/// are powers of two from 32 bytes to a page (checked by
/// [`crate::Device::new`]), and buffer bases are page-aligned (the
/// allocator), so `(base + i*elem) >> k == (base >> k) + (i >> (k -
/// log2 elem))`: the base contributes a constant, and the segment
/// boundaries (and sortedness) of an index run are exactly those of its
/// byte addresses.
#[inline]
fn idx_shift(elem: u64, granule: u64) -> u32 {
    debug_assert!(elem.is_power_of_two() && granule.is_power_of_two() && elem <= granule);
    granule.trailing_zeros() - elem.trailing_zeros()
}

/// Sort up to 32 run elements. Insertion sort: warp-sized inputs are
/// typically nearly sorted (ascending per-group runs), where it does
/// O(n + inversions) work.
#[inline]
fn sort_run(run: &mut [usize]) {
    for i in 1..run.len() {
        let v = run[i];
        let mut j = i;
        while j > 0 && run[j - 1] > v {
            run[j] = run[j - 1];
            j -= 1;
        }
        run[j] = v;
    }
}

/// Minimum DRAM transactions a request could have needed: the *distinct*
/// elements (duplicates coalesce for free — a broadcast is perfectly
/// efficient), densely packed into `txn_bytes`-sized transactions.
/// Always ≤ the distinct segments the access actually touched, so
/// coalescing efficiency stays in (0, 1].
#[inline]
fn ideal_from_distinct(n_active: usize, distinct_elems: u64, elem: u64, txn_bytes: u64) -> u64 {
    if n_active == 0 {
        0
    } else {
        (distinct_elems * elem).div_ceil(txn_bytes).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementation of segment counting: compact `addrs` to
    /// the distinct `granularity`-sized segment ids it touches; returns
    /// the count. `granularity` must be a power of two.
    fn distinct_segments(addrs: &mut [usize], granularity: usize) -> usize {
        debug_assert!(granularity.is_power_of_two());
        if addrs.is_empty() {
            return 0;
        }
        let shift = granularity.trailing_zeros();
        for a in addrs.iter_mut() {
            *a >>= shift;
        }
        addrs.sort_unstable();
        let mut n = 1;
        for i in 1..addrs.len() {
            if addrs[i] != addrs[i - 1] {
                addrs[n] = addrs[i];
                n += 1;
            }
        }
        n
    }

    #[test]
    fn lane_mask_edges() {
        assert_eq!(lane_mask(0), 0);
        assert_eq!(lane_mask(1), 1);
        assert_eq!(lane_mask(5), 0b11111);
        assert_eq!(lane_mask(32), FULL_MASK);
        assert_eq!(lane_mask(100), FULL_MASK);
    }

    #[test]
    fn distinct_segments_counts_unique_blocks() {
        let mut a = [0usize, 64, 127, 128, 129, 4096];
        assert_eq!(distinct_segments(&mut a, 128), 3); // {0,1,32}
        let mut b: [usize; 0] = [];
        assert_eq!(distinct_segments(&mut b, 128), 0);
        let mut c = [5usize, 5, 5];
        assert_eq!(distinct_segments(&mut c, 32), 1);
    }

    #[test]
    fn distinct_segments_fully_scattered() {
        let mut a: Vec<usize> = (0..32).map(|i| i * 1024).collect();
        assert_eq!(distinct_segments(&mut a, 128), 32);
    }

    /// On a sorted run, the one-pass boundary counts of `scan_run` equal
    /// the reference dedup at both granularities and at single elements.
    #[test]
    fn scan_run_matches_reference_dedup() {
        let cases: &[&[usize]] = &[
            &[],
            &[5],
            &[0, 64, 127, 128, 129, 4096],
            &[7, 7, 7, 7],
            &[1024, 0, 4096, 32, 33, 4095],
            &[8, 16, 24, 32, 40, 48, 56, 64],
        ];
        for case in cases {
            for (ga, gb) in [(32usize, 8usize), (128, 4), (32, 32)] {
                let mut sorted = case.to_vec();
                sorted.sort_unstable();
                let scan = scan_run(&sorted, ga.trailing_zeros(), gb.trailing_zeros());
                assert!(scan.sorted, "{case:?}");
                let mut ra = case.to_vec();
                let mut rb = case.to_vec();
                let mut r1 = case.to_vec();
                assert_eq!(
                    scan.segs_a as usize,
                    distinct_segments(&mut ra, ga),
                    "{case:?} g={ga}"
                );
                assert_eq!(
                    scan.segs_b as usize,
                    distinct_segments(&mut rb, gb),
                    "{case:?} g={gb}"
                );
                assert_eq!(
                    scan.distinct as usize,
                    distinct_segments(&mut r1, 1),
                    "{case:?} distinct"
                );
            }
        }
    }

    #[test]
    fn sort_run_sorts() {
        let mut a = [9usize, 3, 7, 3, 1];
        sort_run(&mut a);
        assert_eq!(a, [1, 3, 3, 7, 9]);
    }

    #[test]
    fn scan_run_flags_sortedness() {
        let runs: &[&[usize]] = &[
            &[],
            &[5],
            &[7, 7, 7],
            &[0, 8, 16, 24, 32, 64, 64, 120],
            &[0, 31, 32, 33, 4096],
        ];
        for run in runs {
            assert!(scan_run(run, 5, 3).sorted, "{run:?}");
        }
        // Unsorted input must be flagged so callers sort and rescan.
        assert!(!scan_run(&[64, 0, 32], 5, 3).sorted);
    }

    /// Every mask and index shape yields the sorted active indices, with
    /// the counts of that sorted run.
    #[test]
    fn active_run_is_the_sorted_active_indices() {
        let shapes: [[usize; WARP]; 3] = [
            std::array::from_fn(|l| l * 3),
            std::array::from_fn(|l| (l * 37) % 101),
            std::array::from_fn(|l| (l % 4) * 64),
        ];
        for idx in &shapes {
            for mask in [FULL_MASK, 0, 1 << 31, 0x5555_5555, 0xF0F0_0F0F] {
                let mut want: Vec<usize> = (0..WARP)
                    .filter(|l| mask >> l & 1 == 1)
                    .map(|l| idx[l])
                    .collect();
                want.sort_unstable();
                let mut lanes = [0usize; WARP];
                let (run, scan) = active_run(idx, mask, &mut lanes, 2, 5);
                assert_eq!(run, &want[..], "mask {mask:#x}");
                let expect = scan_run(&want, 2, 5);
                assert!(scan.sorted);
                assert_eq!(
                    (scan.segs_a, scan.segs_b, scan.distinct),
                    (expect.segs_a, expect.segs_b, expect.distinct),
                    "mask {mask:#x}"
                );
            }
        }
    }
}
