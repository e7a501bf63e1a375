//! # graph-apps — the paper's §VI/§VII graph-mining applications
//!
//! Three link-analysis algorithms whose run time is dominated by
//! repeated SpMV, evaluated over any [`spmv_kernels::GpuSpmv`] engine
//! (CSR, HYB, ACSR, ...):
//!
//! * [`pagerank`] — Algorithm 5 (damping d = 0.85, Euclidean ε = 1e-6);
//! * [`hits`] — the combined 2n x 2n coupling formulation of Eq. 7;
//! * [`rwr`] — Random Walk with Restart, Eq. 8;
//! * [`dynamic`] — the §VII dynamic-graph epoch driver comparing ACSR's
//!   incremental device-side updates against full re-upload (CSR) and
//!   re-upload + re-transformation (HYB);
//! * [`ops`] — the small elementwise device kernels (scale-add, L1/L2
//!   norms) the iterations need, so every byte the applications move is
//!   accounted by the simulator.

pub mod dynamic;
pub mod hits;
pub mod ops;
pub mod pagerank;
pub mod rwr;

use gpu_sim::{Device, RunReport};
use serde::{Deserialize, Serialize};
use sparse_formats::Scalar;
use spmv_kernels::{Affine, GpuSpmv};
use spmv_pipeline::SpmvPlan;

/// Outcome of one iterative solve.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SolveResult<T> {
    /// Converged score vector.
    pub scores: Vec<T>,
    /// Iterations (== SpMV invocations) to convergence.
    pub iterations: usize,
    /// Merged device report across all iterations (SpMV + elementwise).
    pub report: RunReport,
}

impl<T> SolveResult<T> {
    /// Modeled device seconds for the whole solve.
    pub fn seconds(&self) -> f64 {
        self.report.time_s
    }
}

/// Shared iteration limits.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct IterParams {
    /// Convergence threshold on the Euclidean distance of successive
    /// iterates (paper: 1e-6).
    pub epsilon: f64,
    /// Hard iteration cap.
    pub max_iters: usize,
}

impl Default for IterParams {
    fn default() -> Self {
        IterParams {
            epsilon: 1e-6,
            max_iters: 1000,
        }
    }
}

/// The loop behind the affine solvers ([`pagerank::pagerank_gpu`],
/// [`rwr::rwr_gpu`]): from `x0`, one [`GpuSpmv::spmm_affine`] wave per
/// iteration — the SpMV and the update in one launch group on ACSR, two
/// launches on every other format — then one readback of the wave's
/// convergence partials, summed on the host ([`rwr::sum_partials`]).
/// Stops once `‖next − x‖₂ < ε` or at the iteration cap, and reads the
/// scores back. `app` prefixes the two readbacks' names.
pub(crate) fn solve_affine<T: Scalar>(
    dev: &Device,
    plan: &SpmvPlan<T>,
    x0: Vec<T>,
    affine: &Affine<'_, T>,
    params: &IterParams,
    app: &str,
) -> SolveResult<T> {
    let n = plan.rows();
    assert_eq!(x0.len(), n, "initial iterate length mismatch");
    let mut x = dev.alloc(x0);
    let mut report = RunReport::default();
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        let wave = plan.spmm_affine(dev, &[&x], affine, true);
        let partials = wave.partials.expect("the wave was asked for partials");
        let dist2 = rwr::sum_partials(partials.query(0));
        let readback = dev.record_dtoh(&format!("{app}_partials_d2h"), partials.buf.bytes());
        report = report.then(&wave.report).then(&readback);
        x = wave.outs.into_iter().next().expect("one iterate per query");
        if dist2.sqrt() < params.epsilon || iterations >= params.max_iters {
            break;
        }
    }
    let bytes = (n * std::mem::size_of::<T>()) as u64;
    report = report.then(&dev.record_dtoh(&format!("{app}_scores_d2h"), bytes));
    SolveResult {
        scores: x.into_vec(),
        iterations,
        report,
    }
}
