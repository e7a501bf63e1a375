//! Shared format-comparison engine behind Table III, Figure 4 and
//! Table IV: for every suite matrix, the preprocessing cost and
//! single-SpMV time of ACSR and each comparator format (BCCOO incl. its
//! auto-tuning, BRC, TCOO incl. its tile search, HYB), all on the
//! simulated GTX Titan in single precision — matching the paper's setup
//! ("since BCCOO and TCOO are only available for single precision, data
//! in Figure 4 and Tables III and IV are only for single precision...
//! performed on a GTX Titan").
//!
//! **Full-scale projection.** The analogs are generated `scale` times
//! smaller than the paper's matrices, but preprocessing/SpMV *ratios*
//! only match the paper's regime at full size (at toy sizes, fixed launch
//! overheads and `n log n` sort terms are distorted). Costs measured at
//! the generated size are therefore projected to full scale: linear terms
//! (bytes streamed, trial SpMVs, kernel memory/compute/latency time)
//! multiply by `scale`; comparison sorts become `n·scale·log2(n·scale)`;
//! per-launch overheads stay fixed. The projection is exact for the
//! bandwidth-bound quantities that dominate every entry.

use crate::common::{selected_specs, Options};
use gpu_sim::{presets, Device};
use serde::Serialize;
use sparse_formats::{CsrMatrix, HostModel};
use spmv_kernels::GpuSpmv;
use spmv_pipeline::selector::projected_spmv_seconds;
use spmv_pipeline::{FormatRegistry, PlanBudget};

/// Row cap for the BCCOO tuning sample (cost extrapolated to full size;
/// DESIGN.md §1).
pub const BCCOO_TUNE_SAMPLE_ROWS: usize = 8192;

/// Cost profile of one format on one matrix.
#[derive(Clone, Debug, Serialize)]
pub struct FormatCost {
    /// Format name.
    pub format: String,
    /// Modeled preprocessing seconds (host transformation + any
    /// auto-tuning trials' device time).
    pub preprocess_seconds: f64,
    /// Modeled seconds for one SpMV.
    pub spmv_seconds: f64,
    /// Whether the format fits device memory *at full (paper) matrix
    /// scale* — `false` reproduces the paper's ∅ cells.
    pub feasible: bool,
}

impl FormatCost {
    /// Preprocessing expressed in SpMVs (Figure 4's y-axis).
    pub fn preprocess_over_spmv(&self) -> f64 {
        self.preprocess_seconds / self.spmv_seconds
    }
}

/// All formats' costs on one matrix.
#[derive(Clone, Debug, Serialize)]
pub struct FormatComparison {
    pub abbrev: String,
    pub nnz: usize,
    /// ACSR's profile.
    pub acsr: FormatCost,
    /// BCCOO, BRC, TCOO, HYB (paper order).
    pub others: Vec<FormatCost>,
}

impl FormatComparison {
    /// Table III's cell: ACSR speedup for a single cold SpMV
    /// (preprocessing + one SpMV), against `other`.
    pub fn single_spmv_speedup(&self, other: &FormatCost) -> f64 {
        if !other.feasible {
            return f64::INFINITY;
        }
        (other.preprocess_seconds + other.spmv_seconds)
            / (self.acsr.preprocess_seconds + self.acsr.spmv_seconds)
    }

    /// Table IV's cell: iterations needed for `other` to overtake ACSR
    /// (Eq. 4). `None` encodes the paper's ∞ (ACSR wins at any n);
    /// infeasible formats return `None` too (the caller distinguishes via
    /// `feasible`).
    pub fn break_even_n(&self, other: &FormatCost) -> Option<u64> {
        if !other.feasible || other.spmv_seconds >= self.acsr.spmv_seconds {
            return None;
        }
        let num = other.preprocess_seconds - self.acsr.preprocess_seconds;
        let den = self.acsr.spmv_seconds - other.spmv_seconds;
        Some((num / den).ceil().max(1.0) as u64)
    }
}

/// `true` when `bytes_at_this_scale * scale` fits the device memory —
/// the full-size feasibility test behind the ∅ cells.
fn fits_full_scale(dev: &Device, bytes: u64, scale: usize) -> bool {
    bytes.saturating_mul(scale as u64) <= dev.config().memory_bytes() as u64
}

/// Compare ACSR against every comparator format on one matrix.
pub fn compare_matrix(
    abbrev: &str,
    m: &CsrMatrix<f32>,
    scale: usize,
    host: &HostModel,
) -> FormatComparison {
    let dev = Device::new(presets::gtx_titan());
    let x: Vec<f32> = (0..m.cols()).map(|i| 1.0 + (i % 7) as f32 * 0.1).collect();
    let xd = dev.alloc(x);

    let reg = FormatRegistry::<f32>::with_all();
    let mut budget = PlanBudget::for_device(dev.config());
    budget.bccoo_sample_rows = BCCOO_TUNE_SAMPLE_ROWS;
    let cost_of = |name: &'static str| -> FormatCost {
        match reg.plan(name, &dev, m, &budget) {
            Ok(plan) => {
                let yd = dev.alloc_zeroed::<f32>(m.rows());
                FormatCost {
                    format: name.into(),
                    preprocess_seconds: plan
                        .preprocess_cost()
                        .scaled(scale as u64)
                        .modeled_host_seconds(host),
                    spmv_seconds: projected_spmv_seconds(&plan.spmv(&dev, &xd, &yd), scale),
                    feasible: fits_full_scale(&dev, plan.device_bytes(), scale),
                }
            }
            Err(_) => infeasible(name),
        }
    };

    let acsr = cost_of("ACSR");
    let others: Vec<FormatCost> = ["BCCOO", "BRC", "TCOO", "HYB"]
        .into_iter()
        .map(cost_of)
        .collect();

    FormatComparison {
        abbrev: abbrev.to_string(),
        nnz: m.nnz(),
        acsr,
        others,
    }
}

fn infeasible(name: &str) -> FormatCost {
    FormatCost {
        format: name.into(),
        preprocess_seconds: f64::INFINITY,
        spmv_seconds: f64::INFINITY,
        feasible: false,
    }
}

/// Run the comparison over the selected suite.
pub fn run(opts: &Options) -> Vec<FormatComparison> {
    let host = HostModel::default();
    selected_specs(opts)
        .into_iter()
        .map(|spec| {
            let m = spec.generate::<f32>(opts.scale, opts.seed);
            compare_matrix(spec.abbrev, &m.csr, opts.scale, &host)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_comparison() -> FormatComparison {
        let opts = Options {
            scale: 512,
            matrices: vec!["ENR".into()],
            ..Default::default()
        };
        run(&opts).pop().unwrap()
    }

    #[test]
    fn acsr_preprocessing_is_cheapest() {
        let c = small_comparison();
        for other in &c.others {
            if other.feasible {
                assert!(
                    c.acsr.preprocess_seconds < other.preprocess_seconds,
                    "{}: {} vs acsr {}",
                    other.format,
                    other.preprocess_seconds,
                    c.acsr.preprocess_seconds
                );
            }
        }
    }

    #[test]
    fn bccoo_preprocessing_dominates_all() {
        let c = small_comparison();
        let bccoo = &c.others[0];
        assert_eq!(bccoo.format, "BCCOO");
        // auto-tuning makes BCCOO by far the most expensive to prepare
        for other in &c.others[1..] {
            assert!(bccoo.preprocess_seconds > other.preprocess_seconds);
        }
        // and its preprocess/spmv ratio is orders of magnitude above ACSR's
        assert!(bccoo.preprocess_over_spmv() > 100.0 * c.acsr.preprocess_over_spmv());
    }

    #[test]
    fn single_spmv_speedups_favor_acsr() {
        let c = small_comparison();
        for other in &c.others {
            assert!(
                c.single_spmv_speedup(other) > 1.0,
                "{} speedup {}",
                other.format,
                c.single_spmv_speedup(other)
            );
        }
    }

    #[test]
    fn break_even_is_none_or_large() {
        let c = small_comparison();
        for other in &c.others {
            if let Some(n) = c.break_even_n(other) {
                assert!(n > 1, "{}: n = {n}", other.format);
            }
        }
    }
}
