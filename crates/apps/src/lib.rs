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
//!   norms) that HITS and [`dynamic`]'s power PageRank run around each
//!   SpMV, so every byte those iterations move is accounted by the
//!   simulator. PageRank and RWR need none: their update and
//!   convergence partials are part of each `spmm_affine` wave.

pub mod dynamic;
pub mod hits;
pub mod ops;
pub mod pagerank;
pub mod rwr;

use gpu_sim::{Device, DeviceBuffer, RunReport};
use serde::{Deserialize, Serialize};
use sparse_formats::Scalar;
use spmv_kernels::{Affine, GpuSpmv};
use spmv_pipeline::SpmvPlan;

/// Outcome of one iterative solve.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SolveResult<T> {
    /// Converged score vector.
    pub scores: Vec<T>,
    /// Iterations to convergence: the iterates the solve computed and
    /// checked, not counting a wave it discarded.
    pub iterations: usize,
    /// Busy accounting: the sequence-merge of every launch and transfer
    /// of the solve, a discarded wave included, in the order they were
    /// issued — what a trace ledger of the solve totals.
    pub report: RunReport,
    /// Modeled wall time: from the first launch until the host holds
    /// the scores and the device is idle. PageRank and RWR overlap each
    /// wave with the previous wave's partials readback, so theirs is
    /// below `report.time_s`; the other solvers are serial, and theirs
    /// equals it. A trace ledger lays every span end to end, so a
    /// traced PageRank or RWR solve shows each partials readback
    /// between two waves and ends at `report.time_s`, not here.
    pub wall_s: f64,
}

impl<T> SolveResult<T> {
    /// Modeled seconds for the whole solve: [`Self::wall_s`].
    pub fn seconds(&self) -> f64 {
        self.wall_s
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
/// launches on every other format — and one readback of each wave's
/// convergence partials, summed on the host ([`rwr::sum_partials`]).
/// Wave k + 1 reads only wave k's iterate, which is already on the
/// device, so it is launched before the host reads wave k's partials,
/// and the copy engine reads them back while it runs ([`Engines`]).
/// Stops once `‖next − x‖₂ < ε` or at the iteration cap and reads the
/// scores back; the wave already launched past the last iterate is
/// discarded but charged. `app` prefixes the two readbacks' names.
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
    let launch = |x: &DeviceBuffer<T>| plan.spmm_affine(dev, &[x], affine, true);
    let mut wave = launch(&dev.alloc(x0));
    let mut report = wave.report.clone();
    let mut engines = Engines::default();
    engines.wave(wave.report.time_s);
    let mut iterations = 0usize;
    let x = loop {
        iterations += 1;
        let x = wave.outs.into_iter().next().expect("one iterate per query");
        // The cap is known in advance, so no wave runs past it.
        let next = (iterations < params.max_iters).then(|| launch(&x));
        if let Some(next) = &next {
            report = report.then(&next.report);
            engines.wave(next.report.time_s);
        }
        let partials = wave.partials.expect("the wave was asked for partials");
        let dist2 = rwr::sum_partials(partials.query(0));
        let readback = dev.record_dtoh(&format!("{app}_partials_d2h"), partials.buf.bytes());
        report = report.then(&readback);
        engines.partials(readback.time_s);
        let converged = dist2.sqrt() < params.epsilon;
        match next {
            Some(next) if !converged => wave = next,
            _ => break x,
        }
    };
    let bytes = (n * std::mem::size_of::<T>()) as u64;
    let readback = dev.record_dtoh(&format!("{app}_scores_d2h"), bytes);
    SolveResult {
        scores: x.into_vec(),
        iterations,
        report: report.then(&readback),
        wall_s: engines.scores(readback.time_s),
    }
}

/// A device's D2H copy engine on the model clock: it runs its copies
/// first in, first out, each once its data is ready, beside the compute
/// engine. [`pagerank::pagerank_gpu`], [`rwr::rwr_gpu`] and the serving
/// scheduler overlap their readbacks with the next wave on it.
#[derive(Clone, Copy, Debug, Default)]
pub struct CopyEngine {
    end_s: f64,
}

impl CopyEngine {
    /// Queue a copy of `seconds` whose data is ready at `ready_s`: it
    /// starts at max(`ready_s`, the end of the previous copy). Returns
    /// its end.
    pub fn copy(&mut self, ready_s: f64, seconds: f64) -> f64 {
        self.end_s = ready_s.max(self.end_s) + seconds;
        self.end_s
    }

    /// End of the last copy (0 before the first).
    pub fn end_s(&self) -> f64 {
        self.end_s
    }
}

/// The two engines of [`solve_affine`] on the model clock: the compute
/// engine runs the waves in launch order, and the [`CopyEngine`] runs
/// the readbacks. The host launches wave k only once it holds wave
/// k − 2's partials, the last readback before that launch, so
/// start(w_k) = max(end(w_{k−1}), end(r_{k−2})) and
/// start(r_k) = max(end(w_k), end(r_{k−1})).
#[derive(Default)]
struct Engines {
    /// End of each wave, in launch order.
    waves: Vec<f64>,
    /// Partials readbacks so far; the next reads `waves[read]`'s.
    read: usize,
    copy: CopyEngine,
}

impl Engines {
    fn wave(&mut self, seconds: f64) {
        let last = self.waves.last().copied().unwrap_or(0.0);
        self.waves.push(last.max(self.copy.end_s()) + seconds);
    }

    /// The partials readback of the oldest wave not read back yet.
    fn partials(&mut self, seconds: f64) {
        self.copy.copy(self.waves[self.read], seconds);
        self.read += 1;
    }

    /// The scores readback, issued once the last partials are read.
    /// Returns the wall time: the later of its end and the last wave's.
    fn scores(mut self, seconds: f64) -> f64 {
        let end = self.copy.copy(self.copy.end_s(), seconds);
        self.waves.last().copied().unwrap_or(0.0).max(end)
    }
}
