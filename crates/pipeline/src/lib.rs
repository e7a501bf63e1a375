//! # spmv-pipeline — the `analyze → plan → execute` SpMV lifecycle
//!
//! The paper's argument (Fig. 4, Tables III/IV) is that format choice is
//! a *preprocessing-cost vs. per-SpMV-speed* tradeoff: ACSR wins on graph
//! apps because its analysis phase is cheap enough to amortize within a
//! run, while BCCOO's auto-tuning needs thousands of iterations to pay
//! for itself. This crate turns that offline comparison into the
//! system's online dispatch layer:
//!
//! 1. **analyze** — [`sparse_formats::RowLengthStats`] from the CSR
//!    operator (cheap, one pass over `row_offsets`);
//! 2. **plan** — a [`SpmvPlanner`] folds conversion, auto-tuning and
//!    upload into one [`SpmvPlan`] handle carrying the
//!    [`PreprocessCost`], device bytes and a boxed
//!    [`GpuSpmv`] engine. The [`FormatRegistry`] enumerates every
//!    planner (CSR-scalar, CSR-vector, COO, ELL, HYB, BRC, BCCOO, TCOO,
//!    ACSR) behind one trait;
//! 3. **execute** — the plan *is* a [`GpuSpmv`] (batched or not), so
//!    every consumer (apps, serving, multi-GPU, `repro`) runs against
//!    the handle without knowing the concrete format.
//!
//! On top of the registry sit the [`AdaptiveSelector`] — which ranks the
//! candidate formats by `preprocess + upload + horizon × spmv`,
//! reproducing the paper's break-even analysis (Eq. 4) as a runtime
//! decision — and the structure-keyed [`PlanCache`], which lets
//! iterative apps and `acsr-serve` reuse a plan across iterations,
//! queries and dynamic-graph deltas (replanning only when the sparsity
//! structure actually changed).
//!
//! The crate keeps no metrics of its own: a [`Selection`] carries its
//! ranked evidence and a [`PlanCache`] its hit/miss/invalidation counts,
//! and the caller that publishes them reads those records directly.

pub mod cache;
pub mod planners;
pub mod selector;

pub use cache::{DriftKey, DriftOutcome, DriftTolerance, PlanCache, PlanKey, StructureKey};
pub use planners::{
    AcsrPlanner, BccooPlanner, BrcPlanner, CooPlanner, CsrScalarPlanner, CsrVectorPlanner,
    EllPlanner, HybPlanner, TcooPlanner,
};
pub use selector::{AdaptiveSelector, CandidateReport, Selection};

use gpu_sim::{Device, DeviceBuffer, DeviceConfig, RunReport};
use serde::{Deserialize, Serialize};
use sparse_formats::{CsrMatrix, HostModel, PreprocessCost, Scalar, SparseError};
use spmv_kernels::tuning::{Incumbent, SweepBound};
use spmv_kernels::{Affine, AffineWave, GpuSpmv};

/// How a format's preprocessing behaves — the rows of the paper's
/// Table III, as a machine-readable class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PreprocessClass {
    /// No host-side transformation: the CSR arrays are uploaded as-is
    /// (CSR-scalar, CSR-vector).
    Upload,
    /// A cheap linear scan over the structure (ACSR's binning — the
    /// paper's "analysis phase").
    Scan,
    /// A full format conversion: new arrays are materialized, possibly
    /// with sorting or padding (COO, ELL, HYB, BRC).
    Transform,
    /// Conversion *plus* an auto-tuning sweep whose trials are charged
    /// to preprocessing (BCCOO's >300 configurations, TCOO's tile
    /// search — the paper's Figure 4 headline costs).
    Autotune,
}

impl PreprocessClass {
    /// Short human label for registry listings.
    pub fn label(self) -> &'static str {
        match self {
            PreprocessClass::Upload => "upload",
            PreprocessClass::Scan => "scan",
            PreprocessClass::Transform => "transform",
            PreprocessClass::Autotune => "autotune",
        }
    }
}

/// Resource and amortization budget handed to [`SpmvPlanner::plan`].
#[derive(Clone, Debug)]
pub struct PlanBudget {
    /// Hard cap on the plan's device footprint, bytes. Plans that would
    /// exceed it fail with [`SparseError::CapacityExceeded`] — the ∅
    /// cells of the paper's tables.
    pub max_device_bytes: u64,
    /// The best candidate the [`AdaptiveSelector`] holds when it plans an
    /// auto-tuned format: the tuning sweep stops once it can no longer
    /// beat it ([`SweepBound`]). Set only by the selector and read only
    /// by the auto-tune planners; `None` (the default) runs the full
    /// sweep.
    pub(crate) incumbent: Option<Incumbent>,
    /// Expected number of SpMV applications of the plan (the pagerank
    /// iteration count, the serve query volume, ...). The selector uses
    /// it as the amortization horizon of Eq. 4.
    pub expected_iterations: u64,
    /// Host cost model used to convert [`PreprocessCost`] into seconds.
    pub host: HostModel,
    /// Row-sample cap for the BCCOO tuner (`usize::MAX` = full-size
    /// trials; the default keeps planning tractable on big operators).
    pub bccoo_sample_rows: usize,
    /// Full-scale projection factor for the selector's probes: the
    /// bench suite's analog matrices are generated `scale` times
    /// smaller than the paper's, so probe measurements are projected to
    /// full size the same way the format-comparison experiments do
    /// (throughput terms and streamed bytes grow linearly, launch
    /// overheads and critical-path latency stay fixed). `1` (the
    /// default) means the operator is full-size already: measurements
    /// are taken at face value.
    pub probe_scale: usize,
}

impl Default for PlanBudget {
    fn default() -> Self {
        PlanBudget {
            max_device_bytes: u64::MAX,
            incumbent: None,
            expected_iterations: 1,
            host: HostModel::default(),
            bccoo_sample_rows: 8192,
            probe_scale: 1,
        }
    }
}

impl PlanBudget {
    /// Budget capped at the device's physical memory.
    pub fn for_device(cfg: &DeviceConfig) -> Self {
        PlanBudget {
            max_device_bytes: cfg.memory_bytes() as u64,
            ..Default::default()
        }
    }

    /// Same budget with a different amortization horizon.
    pub fn with_iterations(mut self, n: u64) -> Self {
        self.expected_iterations = n;
        self
    }

    /// Same budget with a different probe projection factor.
    pub fn with_probe_scale(mut self, scale: usize) -> Self {
        self.probe_scale = scale.max(1);
        self
    }

    /// The device-bytes cap as a `usize` for format converters.
    pub(crate) fn max_bytes_usize(&self) -> usize {
        usize::try_from(self.max_device_bytes).unwrap_or(usize::MAX)
    }

    /// The auto-tune planners' early-exit bound: the incumbent, with the
    /// charge priced as the selector prices a plan's preprocessing.
    pub(crate) fn sweep_bound(&self) -> Option<SweepBound> {
        self.incumbent.map(|incumbent| SweepBound {
            incumbent,
            host: self.host,
            probe_scale: self.probe_scale.max(1) as u64,
        })
    }
}

/// The product of planning: a device-resident, executable SpMV handle.
///
/// A plan owns the uploaded engine and remembers what it cost to build
/// (conversion + tuning in [`PreprocessCost`]; upload size in
/// `device_bytes`). It implements [`GpuSpmv`] by delegation (fused
/// `spmv_multi` and `spmm_affine` included), so anything that ran
/// against a concrete engine runs against a plan unchanged.
pub struct SpmvPlan<T: Scalar> {
    format: &'static str,
    class: PreprocessClass,
    engine: Box<dyn GpuSpmv<T>>,
    preprocess: PreprocessCost,
    device_bytes: u64,
    upload_bytes: u64,
}

impl<T: Scalar> SpmvPlan<T> {
    /// Assemble a plan (called by planners).
    pub fn new(
        format: &'static str,
        class: PreprocessClass,
        engine: Box<dyn GpuSpmv<T>>,
        preprocess: PreprocessCost,
    ) -> Self {
        let device_bytes = engine.device_bytes();
        SpmvPlan {
            format,
            class,
            engine,
            preprocess,
            device_bytes,
            upload_bytes: device_bytes,
        }
    }

    /// Override the bytes that actually cross PCIe when the upload is
    /// smaller than the device footprint (ACSR reserves per-row slack
    /// slots on the device without staging them through the bus).
    pub fn with_upload_bytes(mut self, bytes: u64) -> Self {
        self.upload_bytes = bytes.min(self.device_bytes);
        self
    }

    /// Bytes copied host→device to materialize the plan (≤
    /// [`GpuSpmv::device_bytes`]).
    pub fn upload_bytes(&self) -> u64 {
        self.upload_bytes
    }

    /// The format this plan executes ("ACSR", "HYB", ...).
    pub fn format(&self) -> &'static str {
        self.format
    }

    /// Preprocessing class of the producing planner.
    pub fn class(&self) -> PreprocessClass {
        self.class
    }

    /// The executable engine (also reachable via the [`GpuSpmv`] impl).
    pub fn engine(&self) -> &dyn GpuSpmv<T> {
        self.engine.as_ref()
    }

    /// What building this plan cost (conversion, sorting, tuning).
    pub fn preprocess_cost(&self) -> &PreprocessCost {
        &self.preprocess
    }

    /// Modeled host-side preprocessing seconds under `host`.
    pub fn preprocess_seconds(&self, host: &HostModel) -> f64 {
        self.preprocess.modeled_host_seconds(host)
    }
}

impl<T: Scalar> GpuSpmv<T> for SpmvPlan<T> {
    fn name(&self) -> &'static str {
        self.format
    }
    fn spmv(&self, dev: &Device, x: &DeviceBuffer<T>, y: &DeviceBuffer<T>) -> RunReport {
        self.engine.spmv(dev, x, y)
    }
    fn rows(&self) -> usize {
        self.engine.rows()
    }
    fn cols(&self) -> usize {
        self.engine.cols()
    }
    fn nnz(&self) -> usize {
        self.engine.nnz()
    }
    fn device_bytes(&self) -> u64 {
        self.device_bytes
    }
    fn spmv_multi(
        &self,
        dev: &Device,
        xs: &[&DeviceBuffer<T>],
        ys: &[&DeviceBuffer<T>],
    ) -> RunReport {
        self.engine.spmv_multi(dev, xs, ys)
    }
    fn spmm_affine(
        &self,
        dev: &Device,
        xs: &[&DeviceBuffer<T>],
        affine: &Affine<'_, T>,
        partials: bool,
    ) -> AffineWave<T> {
        self.engine.spmm_affine(dev, xs, affine, partials)
    }
}

/// One format's entry point into the pipeline: fold conversion, tuning
/// and upload into a [`SpmvPlan`] under a [`PlanBudget`].
pub trait SpmvPlanner<T: Scalar> {
    /// Registry name ("ACSR", "CSR-vector", ...).
    fn name(&self) -> &'static str;
    /// Preprocessing class (Table III row).
    fn class(&self) -> PreprocessClass;
    /// Whether the engine has a *fused* multi-vector path (reads the
    /// matrix once per wave); `false` means the k-sequential-launch
    /// fallback.
    fn supports_multi_fused(&self) -> bool {
        false
    }
    /// Build the plan. Fails with [`SparseError::CapacityExceeded`]
    /// when the format cannot represent `m` within the budget.
    fn plan(
        &self,
        dev: &Device,
        m: &CsrMatrix<T>,
        budget: &PlanBudget,
    ) -> Result<SpmvPlan<T>, SparseError>;
}

/// One row of [`FormatRegistry::descriptors`] — what `repro formats`
/// prints.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FormatDescriptor {
    /// Registry name.
    pub name: &'static str,
    /// Preprocessing class.
    pub class: PreprocessClass,
    /// Fused multi-vector support (vs. the sequential fallback).
    pub multi_fused: bool,
}

/// The set of registered planners — the pipeline's dispatch table.
pub struct FormatRegistry<T: Scalar> {
    planners: Vec<Box<dyn SpmvPlanner<T>>>,
}

impl<T: Scalar> Default for FormatRegistry<T> {
    fn default() -> Self {
        Self::with_all()
    }
}

impl<T: Scalar> FormatRegistry<T> {
    /// An empty registry (for tests or custom line-ups).
    pub fn empty() -> Self {
        FormatRegistry {
            planners: Vec::new(),
        }
    }

    /// Every format the repo implements, in the paper's comparison
    /// order: the two CSR baselines, the classic conversions, the two
    /// auto-tuned comparators, then ACSR.
    pub fn with_all() -> Self {
        let mut r = Self::empty();
        r.register(Box::new(CsrScalarPlanner));
        r.register(Box::new(CsrVectorPlanner));
        r.register(Box::new(CooPlanner));
        r.register(Box::new(EllPlanner));
        r.register(Box::new(HybPlanner));
        r.register(Box::new(BrcPlanner));
        r.register(Box::new(BccooPlanner));
        r.register(Box::new(TcooPlanner));
        r.register(Box::new(AcsrPlanner::default()));
        r
    }

    /// Add a planner, replacing any existing one with the same name
    /// (lets callers override e.g. the ACSR config).
    pub fn register(&mut self, planner: Box<dyn SpmvPlanner<T>>) {
        if let Some(slot) = self
            .planners
            .iter_mut()
            .find(|p| p.name() == planner.name())
        {
            *slot = planner;
        } else {
            self.planners.push(planner);
        }
    }

    /// Look up a planner by registry name.
    pub fn get(&self, name: &str) -> Option<&dyn SpmvPlanner<T>> {
        self.planners
            .iter()
            .find(|p| p.name() == name)
            .map(|p| p.as_ref())
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.planners.iter().map(|p| p.name()).collect()
    }

    /// Iterate the planners in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn SpmvPlanner<T>> {
        self.planners.iter().map(|p| p.as_ref())
    }

    /// Descriptor rows for listings (`repro formats`).
    pub fn descriptors(&self) -> Vec<FormatDescriptor> {
        self.planners
            .iter()
            .map(|p| FormatDescriptor {
                name: p.name(),
                class: p.class(),
                multi_fused: p.supports_multi_fused(),
            })
            .collect()
    }

    /// Plan `m` with the named format.
    pub fn plan(
        &self,
        name: &str,
        dev: &Device,
        m: &CsrMatrix<T>,
        budget: &PlanBudget,
    ) -> Result<SpmvPlan<T>, SparseError> {
        let planner = self.get(name).ok_or(SparseError::CapacityExceeded {
            format: "registry",
            detail: format!("no planner registered under '{name}'"),
        })?;
        planner.plan(dev, m, budget)
    }
}

/// Eq. 4 of the paper: the iteration count at which format `a`'s total
/// time overtakes format `b`'s, given per-format preprocessing (incl.
/// upload) and per-SpMV seconds. `None` when `a` never catches up (it
/// is slower per SpMV *and* costlier up front, or equal speed).
pub fn break_even_iterations(pre_a: f64, spmv_a: f64, pre_b: f64, spmv_b: f64) -> Option<f64> {
    let d_spmv = spmv_b - spmv_a;
    let d_pre = pre_a - pre_b;
    if d_spmv <= 0.0 {
        // `a` is not faster per SpMV: it only "wins" if it is also
        // cheaper to build, i.e. wins at n = 0.
        return if d_pre < 0.0 { Some(0.0) } else { None };
    }
    Some((d_pre / d_spmv).max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::presets;
    use graphgen::{generate_power_law, PowerLawConfig};

    fn tiny(rows: usize, seed: u64) -> CsrMatrix<f64> {
        generate_power_law(&PowerLawConfig {
            rows,
            cols: rows,
            mean_degree: 6.0,
            max_degree: (rows / 4).max(8),
            pinned_max_rows: 1,
            col_skew: 0.5,
            seed,
            ..Default::default()
        })
    }

    #[test]
    fn registry_lists_all_nine_formats() {
        let reg = FormatRegistry::<f64>::with_all();
        let names = reg.names();
        assert_eq!(names.len(), 9, "{names:?}");
        for want in [
            "CSR-scalar",
            "CSR-vector",
            "COO",
            "ELL",
            "HYB",
            "BRC",
            "BCCOO",
            "TCOO",
            "ACSR",
        ] {
            assert!(names.contains(&want), "missing {want} in {names:?}");
        }
        // Only ACSR has the fused multi-vector path.
        for d in reg.descriptors() {
            assert_eq!(d.multi_fused, d.name == "ACSR", "{}", d.name);
        }
    }

    #[test]
    fn every_plan_computes_the_same_product() {
        let m = tiny(300, 9);
        let dev = Device::new(presets::gtx_titan());
        let reg = FormatRegistry::<f64>::with_all();
        let budget = PlanBudget::default();
        let x: Vec<f64> = (0..m.cols())
            .map(|i| 0.5 + (i % 13) as f64 * 0.25)
            .collect();
        let xd = dev.alloc(x.clone());
        let mut reference: Option<Vec<f64>> = None;
        for name in reg.names() {
            let plan = reg.plan(name, &dev, &m, &budget).unwrap();
            assert_eq!(plan.rows(), m.rows());
            assert_eq!(plan.nnz(), m.nnz());
            assert!(plan.device_bytes() > 0);
            let yd = dev.alloc_zeroed::<f64>(m.rows());
            plan.spmv(&dev, &xd, &yd);
            let y = yd.into_vec();
            match &reference {
                None => reference = Some(y),
                Some(want) => {
                    let d = sparse_formats::scalar::rel_l2_distance(&y, want);
                    assert!(d < 1e-10, "{name}: rel L2 {d}");
                }
            }
        }
    }

    #[test]
    fn budget_cap_rejects_oversized_plans() {
        let m = tiny(400, 11);
        let dev = Device::new(presets::gtx_titan());
        let reg = FormatRegistry::<f64>::with_all();
        let budget = PlanBudget {
            max_device_bytes: 64, // nothing fits in 64 bytes
            ..Default::default()
        };
        for name in reg.names() {
            let res = reg.plan(name, &dev, &m, &budget);
            assert!(res.is_err(), "{name} accepted a 64-byte budget");
        }
    }

    #[test]
    fn direct_plans_run_the_full_tuning_sweep() {
        // Only the selector bounds a sweep: a plan requested by name
        // charges every trial of the search space.
        let m = tiny(300, 13);
        let dev = Device::new(presets::gtx_titan());
        let reg = FormatRegistry::<f64>::with_all();
        let budget = PlanBudget::for_device(dev.config()).with_iterations(1_000);
        assert!(budget.incumbent.is_none());
        let trials = |name| {
            reg.plan(name, &dev, &m, &budget)
                .unwrap()
                .preprocess_cost()
                .autotune_trials as usize
        };
        assert_eq!(
            trials("BCCOO"),
            sparse_formats::BccooConfig::search_space().len()
        );
        let tiles = sparse_formats::TcooMatrix::<f64>::tile_search_space(
            m.cols(),
            dev.config().tex_cache_bytes,
        );
        assert_eq!(trials("TCOO"), tiles.len());
    }

    #[test]
    fn register_replaces_by_name() {
        let mut reg = FormatRegistry::<f64>::with_all();
        let n = reg.names().len();
        reg.register(Box::new(AcsrPlanner::with_config(
            acsr::AcsrConfig::static_long_tail(),
        )));
        assert_eq!(
            reg.names().len(),
            n,
            "replacement must not grow the registry"
        );
    }

    #[test]
    fn break_even_matches_eq4() {
        // a: costly pre, fast spmv; b: cheap pre, slow spmv.
        // a overtakes b at n = (pre_a - pre_b) / (spmv_b - spmv_a).
        let n = break_even_iterations(10.0, 0.1, 1.0, 1.0).unwrap();
        assert!((n - 10.0).abs() < 1e-12, "{n}");
        // never catches up: slower per-SpMV and costlier up front
        assert!(break_even_iterations(10.0, 1.0, 1.0, 0.5).is_none());
        // dominates outright: wins from iteration 0
        assert_eq!(break_even_iterations(1.0, 0.5, 10.0, 0.5), Some(0.0));
    }
}
