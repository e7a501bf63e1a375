//! Auto-tuners for the comparator formats — the preprocessing whose cost
//! is the paper's Figure 4 headline.
//!
//! * **BCCOO**: the yaSpMV configuration space has "more than 300
//!   different settings" and "every matrix achieves its best performance
//!   with different settings" (§V). The tuner converts and trial-runs each
//!   configuration, charging *all* of that to preprocessing, like the
//!   paper does ("for BCCOO it is the time for auto-tuning").
//! * **TCOO**: "we performed an exhaustive search to find the best number
//!   of tiles" — a dozen-candidate sweep, likewise charged.
//!
//! For wall-clock tractability the BCCOO tuner may run its trials on a
//! row-truncated sample of the matrix and extrapolate the charged cost to
//! full size by the nnz ratio (documented in DESIGN.md §1); pass
//! `sample_rows = usize::MAX` to tune at full size.
//!
//! Both sweeps take an optional [`SweepBound`]: a selector that already
//! holds a cheaper candidate stops the sweep after the first trial whose
//! charge so far prices strictly above that incumbent. Without a bound
//! the sweep is exhaustive and charges exactly the full space.

use crate::bccoo_kernel::BccooKernel;
use crate::tcoo_kernel::TcooKernel;
use crate::{DevBccoo, DevTcoo, GpuSpmv};
use gpu_sim::Device;
use sparse_formats::{
    BccooConfig, BccooMatrix, CsrMatrix, HostModel, PreprocessCost, Scalar, SparseError, TcooMatrix,
};

/// Outcome of a tuning run.
pub struct Tuned<M> {
    /// The matrix converted with the winning configuration.
    pub matrix: M,
    /// Winning configuration's modeled single-SpMV time, seconds.
    pub best_spmv_s: f64,
    /// Total preprocessing cost, including every trial.
    pub cost: PreprocessCost,
}

/// The best candidate a format selection holds so far.
#[derive(Clone, Copy, Debug)]
pub struct Incumbent {
    /// Its registry name.
    pub format: &'static str,
    /// Its modeled total seconds, the selection's ranking key.
    pub total_s: f64,
}

/// When a tuning sweep can stop: its charge so far, priced as the
/// adaptive selector prices a plan's preprocessing
/// (`charge.scaled(probe_scale).modeled_host_seconds(&host)`), is a
/// lower bound on the format's total. Once it is strictly above the
/// incumbent's total the format cannot win, so the sweep stops with
/// [`SparseError::Pruned`].
#[derive(Clone, Copy, Debug)]
pub struct SweepBound {
    /// The candidate to beat.
    pub incumbent: Incumbent,
    /// Host model the charge is priced with.
    pub host: HostModel,
    /// Projection factor applied to the charge before pricing.
    pub probe_scale: u64,
}

impl SweepBound {
    /// `Err(Pruned)` when `charge`, the sweep's charge after its latest
    /// trial, prices strictly above the incumbent. A tie never prunes:
    /// the selection breaks it by name, which the tuned format may win.
    fn check(
        &self,
        format: &'static str,
        charge: &PreprocessCost,
        space: usize,
    ) -> Result<(), SparseError> {
        let lower_bound_s = charge
            .scaled(self.probe_scale)
            .modeled_host_seconds(&self.host);
        if lower_bound_s > self.incumbent.total_s {
            return Err(SparseError::Pruned {
                format,
                trials: charge.autotune_trials,
                space,
                lower_bound_s,
                incumbent: self.incumbent.format,
                incumbent_total_s: self.incumbent.total_s,
            });
        }
        Ok(())
    }
}

/// Truncate `m` to its first `rows` rows (tuning sample).
fn head_rows<T: Scalar>(m: &CsrMatrix<T>, rows: usize) -> CsrMatrix<T> {
    let rows = rows.min(m.rows());
    let nnz_end = m.row_offsets()[rows] as usize;
    CsrMatrix::from_raw_parts(
        rows,
        m.cols(),
        m.row_offsets()[..=rows].to_vec(),
        m.col_indices()[..nnz_end].to_vec(),
        m.values()[..nnz_end].to_vec(),
    )
    .expect("prefix of a valid CSR is valid")
}

/// A sample's charge projected to the full matrix: streamed and sorted
/// work grow by the nnz ratio `scale_up` (trial device time is already
/// charged scaled).
fn extrapolated(sample: &PreprocessCost, scale_up: f64) -> PreprocessCost {
    PreprocessCost {
        bytes_read: (sample.bytes_read as f64 * scale_up) as u64,
        bytes_written: (sample.bytes_written as f64 * scale_up) as u64,
        sorted_elements: (sample.sorted_elements as f64 * scale_up) as u64,
        ..*sample
    }
}

/// Exhaustively tune BCCOO over its full configuration space.
///
/// `sample_rows` caps the trial matrix size; the charged cost is scaled
/// back up by the nnz ratio so the reported preprocessing represents
/// tuning on the full matrix. With a `bound`, the sweep stops after the
/// first trial whose extrapolated charge prices above the incumbent.
pub fn autotune_bccoo<T: Scalar>(
    dev: &Device,
    m: &CsrMatrix<T>,
    sample_rows: usize,
    max_bytes: usize,
    bound: Option<&SweepBound>,
) -> Result<Tuned<BccooMatrix<T>>, SparseError> {
    let mut sample = if sample_rows < m.rows() {
        head_rows(m, sample_rows)
    } else {
        m.clone()
    };
    // A head whose rows are all empty (leading empty rows are common in
    // crawl graphs) carries zero nnz: the nnz-ratio extrapolation would
    // then charge `m.nnz()`× the near-free empty-sample trials — a
    // meaningless, arbitrarily inflated cost. Fall back to full-size
    // trials; for a genuinely empty matrix the ratio is pinned to 1.
    if sample.nnz() == 0 && m.nnz() > 0 {
        sample = m.clone();
    }
    let scale_up = if sample.nnz() == 0 {
        1.0
    } else {
        m.nnz() as f64 / sample.nnz() as f64
    };
    let x: Vec<T> = (0..sample.cols())
        .map(|i| T::from_f64(1.0 + (i % 7) as f64 * 0.1))
        .collect();
    let xd = dev.alloc(x);

    let space = BccooConfig::search_space();
    let space_len = space.len();
    let mut total = PreprocessCost::default();
    let mut best: Option<(BccooConfig, f64)> = None;
    for cfg in space {
        let (mat, conv_cost) = match BccooMatrix::from_csr(&sample, cfg, max_bytes) {
            Ok(v) => v,
            Err(_) => continue, // config over budget: skipped, not charged
        };
        total.merge(&conv_cost);
        let eng = BccooKernel::new(DevBccoo::upload(dev, &mat));
        let yd = dev.alloc_zeroed::<T>(sample.rows());
        let report = eng.spmv(dev, &xd, &yd);
        total.autotune_trials += 1;
        total.autotune_device_seconds += report.time_s * scale_up;
        match best {
            Some((_, t)) if t <= report.time_s => {}
            _ => best = Some((cfg, report.time_s)),
        }
        if let Some(b) = bound {
            b.check("BCCOO", &extrapolated(&total, scale_up), space_len)?;
        }
    }
    let (best_cfg, best_sample_s) = best.ok_or_else(|| SparseError::CapacityExceeded {
        format: "BCCOO",
        detail: "no configuration fits the memory budget".into(),
    })?;
    // Scale streamed/sorted work up to represent full-size tuning.
    let mut cost = extrapolated(&total, scale_up);

    // Final conversion of the full matrix with the winner.
    let (matrix, final_cost) = BccooMatrix::from_csr(m, best_cfg, max_bytes)?;
    cost.merge(&final_cost);
    Ok(Tuned {
        matrix,
        best_spmv_s: best_sample_s * scale_up,
        cost,
    })
}

/// Exhaustively search the TCOO tile count on the device's texture cache
/// size (full-size trials — the space is small). Tile counts whose
/// storage exceeds `max_bytes` are skipped without a charge; the search
/// fails only when none fits. With a `bound`, it stops after the first
/// trial whose charge prices above the incumbent.
pub fn tune_tcoo<T: Scalar>(
    dev: &Device,
    m: &CsrMatrix<T>,
    max_bytes: usize,
    bound: Option<&SweepBound>,
) -> Result<Tuned<TcooMatrix<T>>, SparseError> {
    let x: Vec<T> = (0..m.cols())
        .map(|i| T::from_f64(1.0 + (i % 7) as f64 * 0.1))
        .collect();
    let xd = dev.alloc(x);
    let space = TcooMatrix::<T>::tile_search_space(m.cols(), dev.config().tex_cache_bytes);
    let space_len = space.len();
    let mut total = PreprocessCost::default();
    let mut best: Option<(usize, f64)> = None;
    let mut first_err: Option<SparseError> = None;
    for tiles in space {
        let (mat, conv_cost) = match TcooMatrix::from_csr(m, tiles, max_bytes) {
            Ok(v) => v,
            Err(e) => {
                // tile count over budget: skipped, not charged
                first_err.get_or_insert(e);
                continue;
            }
        };
        total.merge(&conv_cost);
        let eng = TcooKernel::new(DevTcoo::upload(dev, &mat));
        let yd = dev.alloc_zeroed::<T>(m.rows());
        let report = eng.spmv(dev, &xd, &yd);
        total.autotune_trials += 1;
        total.autotune_device_seconds += report.time_s;
        match best {
            Some((_, t)) if t <= report.time_s => {}
            _ => best = Some((tiles, report.time_s)),
        }
        if let Some(b) = bound {
            b.check("TCOO", &total, space_len)?;
        }
    }
    let (best_tiles, best_s) =
        best.ok_or_else(|| first_err.expect("tile search space is never empty"))?;
    let (matrix, final_cost) = TcooMatrix::from_csr(m, best_tiles, max_bytes)?;
    total.merge(&final_cost);
    Ok(Tuned {
        matrix,
        best_spmv_s: best_s,
        cost: total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::test_matrix;
    use gpu_sim::presets;
    use sparse_formats::SpFormat;

    #[test]
    fn bccoo_tuner_charges_full_space() {
        let m = test_matrix(600, 71);
        let dev = Device::new(presets::gtx_titan());
        let tuned = autotune_bccoo(&dev, &m, usize::MAX, usize::MAX, None).unwrap();
        assert_eq!(
            tuned.cost.autotune_trials as usize,
            BccooConfig::search_space().len()
        );
        assert!(tuned.cost.autotune_device_seconds > 0.0);
        assert!(tuned.best_spmv_s > 0.0);
        assert_eq!(tuned.matrix.nnz(), m.nnz());
    }

    #[test]
    fn bccoo_sampled_tuning_extrapolates_cost() {
        let m = test_matrix(2000, 72);
        let dev = Device::new(presets::gtx_titan());
        let full = autotune_bccoo(&dev, &m, usize::MAX, usize::MAX, None).unwrap();
        let sampled = autotune_bccoo(&dev, &m, 500, usize::MAX, None).unwrap();
        // extrapolated charge must be the same order of magnitude
        let ratio = sampled.cost.autotune_device_seconds / full.cost.autotune_device_seconds;
        assert!((0.2..5.0).contains(&ratio), "extrapolation ratio {ratio}");
        // and the final matrix is full size either way
        assert_eq!(sampled.matrix.nnz(), m.nnz());
    }

    #[test]
    fn empty_matrix_tunes_with_finite_cost() {
        // Regression: zero-nnz matrices must not produce NaN/inf charges.
        let m = CsrMatrix::<f64>::zeros(64, 64);
        let dev = Device::new(presets::gtx_titan());
        let tuned = autotune_bccoo(&dev, &m, usize::MAX, usize::MAX, None).unwrap();
        assert!(tuned.cost.autotune_device_seconds.is_finite());
        assert!(tuned.best_spmv_s.is_finite());
        assert!(tuned
            .cost
            .modeled_host_seconds(&Default::default())
            .is_finite());
        assert_eq!(tuned.matrix.nnz(), 0);
        let t = tune_tcoo(&dev, &m, usize::MAX, None).unwrap();
        assert!(t.cost.autotune_device_seconds.is_finite());
        assert_eq!(t.matrix.nnz(), 0);
    }

    #[test]
    fn head_truncated_to_empty_sample_is_not_extrapolated() {
        // Regression: a matrix whose leading rows are all empty used to
        // tune on a zero-nnz sample and extrapolate the charge by
        // nnz/max(1) = full nnz — orders of magnitude off. The guard
        // falls back to full-size trials instead.
        let dense = test_matrix(400, 74);
        // 50 leading empty rows, then the dense block (its own offsets
        // already start at 0): 450 rows, 451 offsets.
        let mut offsets = vec![0u32; 50];
        offsets.extend(dense.row_offsets().iter().copied());
        let m = CsrMatrix::from_raw_parts(
            450,
            dense.cols(),
            offsets,
            dense.col_indices().to_vec(),
            dense.values().to_vec(),
        )
        .unwrap();
        let dev = Device::new(presets::gtx_titan());
        let full = autotune_bccoo(&dev, &m, usize::MAX, usize::MAX, None).unwrap();
        // sample of 50 rows: all empty → guard kicks in
        let sampled = autotune_bccoo(&dev, &m, 50, usize::MAX, None).unwrap();
        assert!(sampled.cost.autotune_device_seconds.is_finite());
        let ratio = sampled.cost.autotune_device_seconds / full.cost.autotune_device_seconds;
        assert!(
            (0.5..2.0).contains(&ratio),
            "empty-sample fallback must charge ~full-tune cost, ratio {ratio}"
        );
    }

    #[test]
    fn tcoo_tuner_finds_a_tiling() {
        let m = test_matrix(800, 73);
        let dev = Device::new(presets::gtx_titan());
        let tuned = tune_tcoo(&dev, &m, usize::MAX, None).unwrap();
        assert!(tuned.cost.autotune_trials >= 1);
        assert_eq!(tuned.matrix.nnz(), m.nnz());
    }
    /// A bound that prices the charge at face value (probe scale 1).
    fn bound(total_s: f64) -> SweepBound {
        SweepBound {
            incumbent: Incumbent {
                format: "HYB",
                total_s,
            },
            host: HostModel::default(),
            probe_scale: 1,
        }
    }

    /// Every modeled field of a charge (all but the measured wall time),
    /// floats as bits.
    fn modeled(c: &PreprocessCost) -> (u64, u64, u64, u64, u32, u64) {
        (
            c.bytes_read,
            c.bytes_written,
            c.sorted_elements,
            c.largest_sort,
            c.autotune_trials,
            c.autotune_device_seconds.to_bits(),
        )
    }

    #[test]
    fn bccoo_bound_below_first_trial_stops_after_one_trial() {
        let m = test_matrix(2000, 75);
        let dev = Device::new(presets::gtx_titan());
        let err = autotune_bccoo(&dev, &m, 500, usize::MAX, Some(&bound(0.0)))
            .err()
            .expect("a zero-second incumbent prunes the sweep");
        assert!(
            err.to_string()
                .starts_with("BCCOO pruned after 1 of 320 tuning trials"),
            "{err}"
        );
        let SparseError::Pruned {
            format,
            trials,
            space,
            lower_bound_s,
            incumbent,
            incumbent_total_s,
        } = err
        else {
            panic!("expected Pruned, got {err}");
        };
        assert_eq!((format, trials), ("BCCOO", 1));
        assert_eq!(space, BccooConfig::search_space().len());
        assert!(lower_bound_s > 0.0);
        assert_eq!((incumbent, incumbent_total_s), ("HYB", 0.0));

        // A tie is not strictly above the incumbent: trial 1 survives it,
        // and trial 2's charge (strictly larger) is what stops the sweep.
        match autotune_bccoo(&dev, &m, 500, usize::MAX, Some(&bound(lower_bound_s))) {
            Err(SparseError::Pruned { trials, .. }) => assert_eq!(trials, 2),
            other => panic!("expected pruning at trial 2, got {:?}", other.err()),
        }
    }

    #[test]
    fn bccoo_unreachable_bound_matches_unbounded_sweep() {
        let m = test_matrix(2000, 76);
        let dev = Device::new(presets::gtx_titan());
        let free = autotune_bccoo(&dev, &m, 500, usize::MAX, None).unwrap();
        let bounded = autotune_bccoo(&dev, &m, 500, usize::MAX, Some(&bound(f64::MAX))).unwrap();
        assert_eq!(bounded.matrix, free.matrix);
        assert_eq!(bounded.matrix.config(), free.matrix.config());
        assert_eq!(bounded.best_spmv_s.to_bits(), free.best_spmv_s.to_bits());
        assert_eq!(modeled(&bounded.cost), modeled(&free.cost));
        assert_eq!(
            free.cost.autotune_trials as usize,
            BccooConfig::search_space().len()
        );
    }

    #[test]
    fn tcoo_bound_below_first_trial_stops_after_one_trial() {
        let m = test_matrix(800, 77);
        let dev = Device::new(presets::gtx_titan());
        let space = TcooMatrix::<f64>::tile_search_space(m.cols(), dev.config().tex_cache_bytes);
        assert!(space.len() > 1, "{space:?}");
        match tune_tcoo(&dev, &m, usize::MAX, Some(&bound(0.0))) {
            Err(SparseError::Pruned {
                format,
                trials,
                space: n,
                lower_bound_s,
                ..
            }) => {
                assert_eq!((format, trials, n), ("TCOO", 1, space.len()));
                assert!(lower_bound_s > 0.0);
            }
            other => panic!("expected Pruned, got {:?}", other.err()),
        }
    }

    #[test]
    fn tcoo_unreachable_bound_matches_unbounded_search() {
        let m = test_matrix(800, 78);
        let dev = Device::new(presets::gtx_titan());
        let free = tune_tcoo(&dev, &m, usize::MAX, None).unwrap();
        let bounded = tune_tcoo(&dev, &m, usize::MAX, Some(&bound(f64::MAX))).unwrap();
        assert_eq!(bounded.matrix.tiles().len(), free.matrix.tiles().len());
        assert_eq!(bounded.matrix.col_indices(), free.matrix.col_indices());
        assert_eq!(bounded.best_spmv_s.to_bits(), free.best_spmv_s.to_bits());
        assert_eq!(modeled(&bounded.cost), modeled(&free.cost));
    }

    #[test]
    fn tcoo_skips_tile_counts_over_the_byte_budget() {
        // Regression: the first over-budget tile count used to abort the
        // whole search even though a smaller count fits. Here exactly one
        // tile fits: 16 B per f64 entry plus one tile descriptor.
        let m = test_matrix(800, 79);
        let dev = Device::new(presets::gtx_titan());
        let space = TcooMatrix::<f64>::tile_search_space(m.cols(), dev.config().tex_cache_bytes);
        assert_eq!(&space[..2], &[1, 2], "{space:?}");
        let one_tile = m.nnz() * 16 + std::mem::size_of::<sparse_formats::tcoo::TcooTile>();
        let tuned = tune_tcoo(&dev, &m, one_tile, None).unwrap();
        assert_eq!(tuned.matrix.tiles().len(), 1);
        assert_eq!(
            tuned.cost.autotune_trials, 1,
            "skipped counts are not charged"
        );
        // When no tile count fits, the search fails with the smallest
        // count's capacity error.
        match tune_tcoo(&dev, &m, one_tile - 1, None) {
            Err(SparseError::CapacityExceeded { format, .. }) => assert_eq!(format, "TCOO"),
            other => panic!("expected CapacityExceeded, got {:?}", other.err()),
        }
    }
}
