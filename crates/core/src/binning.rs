//! Row binning — Algorithm 1's preprocessing step.
//!
//! One scan over the row lengths places each row in bin
//! `i ⇔ nnz ∈ [2^(i-1)+1 .. 2^i]` (bin 1 holds 1–2, bin 0 empty rows).
//! The scan is the *entire* preprocessing of ACSR — "very inexpensive and
//! does not require any movement and restructuring of the matrix data" —
//! and its cost is what Figure 4 compares against the other formats'
//! transformations.

use crate::config::AcsrConfig;
use sparse_formats::stats::bin_index;
use sparse_formats::PreprocessCost;

/// The result of binning: per-bin row lists plus the G1/G2 split.
#[derive(Clone, Debug, PartialEq)]
pub struct Binning {
    /// `bins[i]` = rows whose length falls in bin `i`. (Bin 0 — empty
    /// rows — is tracked but never launched; CSR semantics still zero
    /// those outputs via the dedicated fill pass when needed.)
    bins: Vec<Vec<u32>>,
    /// Rows handed to row-specific grids (group G1), in row order.
    g1_rows: Vec<u32>,
    /// Bin indices served by bin-specific thread groups (group G2,
    /// non-empty bins only, ascending).
    g2_bins: Vec<usize>,
    /// Rows that belong to G1 bins but overflowed `RowMax` and fall back
    /// to the widest bin kernel.
    overflow_rows: Vec<u32>,
    /// Number of rows with at least one non-zero.
    nonempty_rows: usize,
}

/// Counters for the paper's Table V (BS = bin-specific segments, RS =
/// row-specific grids).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BinStats {
    /// Bin-specific segments per SpMV (Table V's "BS"): the non-empty G2
    /// bins, plus one for the `RowMax` overflow rows. A binning
    /// statistic, not a launch count: the G2 bins share one grid.
    pub bin_grids: usize,
    /// Row-specific grids launched per SpMV (Table V's "RS").
    pub row_grids: usize,
    /// Largest non-empty bin index (`n` in Algorithm 1).
    pub max_bin: usize,
    /// Rows that overflowed `RowMax`.
    pub overflow_rows: usize,
}

/// One row whose length class changed after an update: it leaves bin
/// `from` and joins bin `to`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RowMove {
    pub row: u32,
    pub from: usize,
    pub to: usize,
}

impl Binning {
    /// Bin the rows described by `row_len` under `cfg`. Returns the
    /// binning plus its (tiny) preprocessing cost.
    pub fn build(
        row_len: impl ExactSizeIterator<Item = usize>,
        cfg: &AcsrConfig,
    ) -> (Binning, PreprocessCost) {
        let n_rows = row_len.len();
        let mut bins: Vec<Vec<u32>> = Vec::new();
        let mut nonempty_rows = 0usize;
        for (r, len) in row_len.enumerate() {
            let b = bin_index(len);
            if b >= bins.len() {
                bins.resize_with(b + 1, Vec::new);
            }
            bins[b].push(r as u32);
            if len > 0 {
                nonempty_rows += 1;
            }
        }
        let (g1_rows, g2_bins, overflow_rows) = Self::split_groups(&bins, cfg);
        // scan reads the offsets array; writes one u32 per row
        let cost = PreprocessCost {
            bytes_read: (n_rows as u64 + 1) * 4,
            bytes_written: n_rows as u64 * 4,
            ..PreprocessCost::default()
        };
        let binning = Binning {
            bins,
            g1_rows,
            g2_bins,
            overflow_rows,
            nonempty_rows,
        };
        (binning, cost)
    }

    /// The G1/G2 split over a set of bins (shared between the full scan
    /// and the incremental patch so both produce identical groupings).
    fn split_groups(bins: &[Vec<u32>], cfg: &AcsrConfig) -> (Vec<u32>, Vec<usize>, Vec<u32>) {
        let bin_max = cfg.effective_bin_max();
        let mut g1_rows: Vec<u32> = Vec::new();
        let mut overflow_rows: Vec<u32> = Vec::new();
        let mut g2_bins: Vec<usize> = Vec::new();
        for (i, rows) in bins.iter().enumerate() {
            if rows.is_empty() || i == 0 {
                continue;
            }
            if i > bin_max {
                for &r in rows {
                    // RowMax bounds the number of dynamically launched
                    // grids (the pending-launch limit, §III-B)
                    if g1_rows.len() < cfg.row_max {
                        g1_rows.push(r);
                    } else {
                        overflow_rows.push(r);
                    }
                }
            } else {
                g2_bins.push(i);
            }
        }
        (g1_rows, g2_bins, overflow_rows)
    }

    /// Patch the binning after a batch of per-row bin changes instead of
    /// re-scanning every row. Equivalent to a full [`Binning::build`]
    /// over the post-update lengths (tests pin the equality), but the
    /// cost is proportional to the moved rows and the dirty bins'
    /// membership lists, not to the matrix — the amortization that turns
    /// re-binning from a global scan into per-bin bookkeeping.
    pub fn apply_moves(&mut self, moves: &[RowMove], cfg: &AcsrConfig) -> PreprocessCost {
        let mut dirty_len = 0u64;
        for mv in moves {
            debug_assert_ne!(mv.from, mv.to, "a move must change the bin");
            if mv.to >= self.bins.len() {
                self.bins.resize_with(mv.to + 1, Vec::new);
            }
            let from = &mut self.bins[mv.from];
            let at = from
                .binary_search(&mv.row)
                .expect("moved row must be in its source bin");
            from.remove(at);
            let to = &mut self.bins[mv.to];
            let at = to
                .binary_search(&mv.row)
                .expect_err("moved row cannot already be in its target bin");
            to.insert(at, mv.row);
            if mv.from == 0 {
                self.nonempty_rows += 1;
            }
            if mv.to == 0 {
                self.nonempty_rows -= 1;
            }
            dirty_len += (self.bins[mv.from].len() + self.bins[mv.to].len()) as u64;
        }
        // a full build never materializes bins past the largest
        // occupied one; trim so the patched binning stays canonical
        while self.bins.last().is_some_and(|b| b.is_empty()) {
            self.bins.pop();
        }
        let (g1_rows, g2_bins, overflow_rows) = Self::split_groups(&self.bins, cfg);
        self.g1_rows = g1_rows;
        self.g2_bins = g2_bins;
        self.overflow_rows = overflow_rows;
        // reads the moved rows' (old, new) length pair; rewrites the
        // dirty bins' membership lists
        PreprocessCost {
            bytes_read: moves.len() as u64 * 8,
            bytes_written: dirty_len * 4,
            ..PreprocessCost::default()
        }
    }

    /// Rows of bin `i` (empty past the largest occupied bin, and for
    /// every bin of a zero-row matrix).
    pub fn bin_rows(&self, i: usize) -> &[u32] {
        self.bins.get(i).map_or(&[], Vec::as_slice)
    }

    /// Number of bins (including empty ones up to the max index).
    pub fn n_bins(&self) -> usize {
        self.bins.len()
    }

    /// Bin indices served by bin-specific thread groups (G2), ascending:
    /// the segments, in order, of the engine's one `acsr_bins` grid.
    pub fn g2_bins(&self) -> &[usize] {
        &self.g2_bins
    }

    /// Rows served by row-specific dynamic grids (G1), `RowMax`-capped.
    pub fn g1_rows(&self) -> &[u32] {
        &self.g1_rows
    }

    /// G1-bin rows that overflowed `RowMax` (fall back to the widest bin
    /// kernel).
    pub fn overflow_rows(&self) -> &[u32] {
        &self.overflow_rows
    }

    /// Rows with at least one stored entry.
    pub fn nonempty_rows(&self) -> usize {
        self.nonempty_rows
    }

    /// Table V statistics.
    pub fn stats(&self) -> BinStats {
        BinStats {
            bin_grids: self.g2_bins.len() + usize::from(!self.overflow_rows.is_empty()),
            row_grids: self.g1_rows.len(),
            max_bin: self.bins.iter().rposition(|b| !b.is_empty()).unwrap_or(0),
            overflow_rows: self.overflow_rows.len(),
        }
    }

    /// The thread-group width for bin `i`'s kernel: `2^(i-1)` capped at a
    /// warp (Algorithm 2: "2^{N-1} threads work on each row ... if a bin
    /// contains rows in [33..64], then 32 cooperating threads").
    pub fn group_for_bin(i: usize) -> usize {
        debug_assert!(i >= 1);
        1usize << (i - 1).min(5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AcsrMode;
    use gpu_sim::presets;

    fn titan_cfg() -> AcsrConfig {
        AcsrConfig::for_device(&presets::gtx_titan())
    }

    #[test]
    fn rows_land_in_correct_bins() {
        let lens = [0usize, 1, 2, 3, 4, 5, 8, 9, 1024, 1025, 5000];
        let (b, _) = Binning::build(lens.iter().copied(), &titan_cfg());
        assert_eq!(b.bin_rows(0), &[0]);
        assert_eq!(b.bin_rows(1), &[1, 2]);
        assert_eq!(b.bin_rows(2), &[3, 4]);
        assert_eq!(b.bin_rows(3), &[5, 6]);
        assert_eq!(b.bin_rows(4), &[7]);
        assert_eq!(b.bin_rows(10), &[8]);
        assert_eq!(b.bin_rows(11), &[9]);
        assert_eq!(b.bin_rows(13), &[10]);
    }

    #[test]
    fn g1_g2_split_respects_bin_max() {
        let lens = [2usize, 100, 2000, 4000, 3];
        let cfg = titan_cfg(); // bin_max = 10 → rows > 1024 nnz go to G1
        let (b, _) = Binning::build(lens.iter().copied(), &cfg);
        assert_eq!(b.g1_rows(), &[2, 3]);
        assert!(b.g2_bins().contains(&1)); // lens 2 and 3
        assert!(b.g2_bins().contains(&7)); // len 100
        assert!(b.overflow_rows().is_empty());
    }

    #[test]
    fn binning_only_mode_has_empty_g1() {
        let lens = [2usize, 100, 2000, 50_000];
        let cfg = AcsrConfig::for_device(&presets::gtx_580());
        assert_eq!(cfg.mode, AcsrMode::BinningOnly);
        let (b, _) = Binning::build(lens.iter().copied(), &cfg);
        assert!(b.g1_rows().is_empty());
        assert_eq!(b.g2_bins().len(), 4);
    }

    #[test]
    fn row_max_caps_dynamic_grids() {
        let lens: Vec<usize> = (0..100).map(|_| 5000usize).collect();
        let mut cfg = titan_cfg();
        cfg.row_max = 10;
        let (b, _) = Binning::build(lens.iter().copied(), &cfg);
        assert_eq!(b.g1_rows().len(), 10);
        assert_eq!(b.overflow_rows().len(), 90);
        let stats = b.stats();
        assert_eq!(stats.row_grids, 10);
        assert_eq!(stats.overflow_rows, 90);
        // overflow rows imply one extra (fallback) bin grid
        assert_eq!(stats.bin_grids, 1);
    }

    #[test]
    fn stats_count_grids_like_table_v() {
        let lens = [1usize, 3, 9, 40, 2000, 2, 3000];
        let (b, _) = Binning::build(lens.iter().copied(), &titan_cfg());
        let s = b.stats();
        assert_eq!(s.bin_grids, 4); // bins 1, 2, 4, 6
        assert_eq!(s.row_grids, 2); // the two >1024 rows
        assert_eq!(s.max_bin, 12);
    }

    #[test]
    fn group_widths_match_paper_examples() {
        assert_eq!(Binning::group_for_bin(1), 1); // rows of 1-2 nnz
        assert_eq!(Binning::group_for_bin(2), 2); // 3-4
        assert_eq!(Binning::group_for_bin(3), 4); // 5-8
        assert_eq!(Binning::group_for_bin(6), 32); // 33-64
        assert_eq!(Binning::group_for_bin(12), 32); // capped at a warp
    }

    #[test]
    fn preprocessing_cost_is_one_scan() {
        let lens: Vec<usize> = (0..10_000).map(|i| i % 50).collect();
        let (_, cost) = Binning::build(lens.iter().copied(), &titan_cfg());
        // strictly linear in rows, no sort, no data movement
        assert_eq!(cost.sorted_elements, 0);
        assert_eq!(cost.bytes_read, 10_001 * 4);
        assert_eq!(cost.bytes_written, 10_000 * 4);
    }

    #[test]
    fn apply_moves_matches_full_rebuild() {
        let mut lens: Vec<usize> = (0..4000).map(|i| (i * 37) % 1500).collect();
        let cfg = titan_cfg();
        let (mut b, _) = Binning::build(lens.iter().copied(), &cfg);
        let mut moves = Vec::new();
        for r in (0..lens.len()).step_by(17) {
            let new_len = (lens[r] * 3 + 5) % 2600;
            let (from, to) = (bin_index(lens[r]), bin_index(new_len));
            lens[r] = new_len;
            if from != to {
                moves.push(RowMove {
                    row: r as u32,
                    from,
                    to,
                });
            }
        }
        assert!(!moves.is_empty());
        let cost = b.apply_moves(&moves, &cfg);
        let (want, full_cost) = Binning::build(lens.iter().copied(), &cfg);
        assert_eq!(b, want);
        // amortized: the patch reads/writes less than the global scan
        assert!(cost.bytes_read < full_cost.bytes_read);
    }

    #[test]
    fn empty_move_set_is_identity() {
        let lens = [1usize, 3, 9, 40, 2000, 0];
        let cfg = titan_cfg();
        let (mut b, _) = Binning::build(lens.iter().copied(), &cfg);
        let want = b.clone();
        b.apply_moves(&[], &cfg);
        assert_eq!(b, want);
    }

    #[test]
    fn moves_through_bin_zero_track_nonempty_rows() {
        let lens = [2usize, 0, 5];
        let cfg = titan_cfg();
        let (mut b, _) = Binning::build(lens.iter().copied(), &cfg);
        assert_eq!(b.nonempty_rows(), 2);
        b.apply_moves(
            &[
                RowMove {
                    row: 0,
                    from: 1,
                    to: 0,
                },
                RowMove {
                    row: 1,
                    from: 0,
                    to: 2,
                },
            ],
            &cfg,
        );
        assert_eq!(b.nonempty_rows(), 2);
        let (want, _) = Binning::build([0usize, 3, 5].iter().copied(), &cfg);
        assert_eq!(b, want);
    }

    #[test]
    fn every_row_is_binned_exactly_once() {
        let lens: Vec<usize> = (0..5000).map(|i| (i * 7919) % 3000).collect();
        let (b, _) = Binning::build(lens.iter().copied(), &titan_cfg());
        let mut seen = vec![false; lens.len()];
        for i in 0..b.n_bins() {
            for &r in b.bin_rows(i) {
                assert!(!seen[r as usize]);
                seen[r as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
