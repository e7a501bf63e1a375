//! One [`SpmvPlanner`] per format: the glue that folds each format's
//! conversion, tuning and upload path into the uniform plan interface.
//!
//! Each planner charges exactly what the bench experiments used to
//! charge ad hoc: the converter's [`PreprocessCost`] (nothing for the
//! raw-CSR uploads, the full tuning sweep for BCCOO/TCOO) plus the
//! device upload, with the budget's byte cap threaded through to the
//! converter so infeasible formats fail with `CapacityExceeded` — the
//! paper's ∅ table cells. The two auto-tune planners also pass on the
//! selector's incumbent, if any, so their sweeps stop with `Pruned` once
//! they cannot win.

use crate::{PlanBudget, PreprocessClass, SpmvPlan, SpmvPlanner};
use acsr::{AcsrConfig, AcsrEngine};
use gpu_sim::Device;
use sparse_formats::{
    BrcMatrix, CooMatrix, CsrMatrix, EllMatrix, HybMatrix, PreprocessCost, Scalar, SparseError,
};
use spmv_kernels::{
    bccoo_kernel::BccooKernel, brc_kernel::BrcKernel, coo_kernel::CooKernel, csr_scalar::CsrScalar,
    csr_vector::CsrVector, ell_kernel::EllKernel, hyb_kernel::HybKernel, tcoo_kernel::TcooKernel,
    tuning, DevBccoo, DevBrc, DevCoo, DevCsr, DevEll, DevHyb, DevTcoo, GpuSpmv,
};

/// Enforce the budget's byte cap on an assembled plan. Converters
/// already reject oversized *host* layouts; this catches formats whose
/// converter is infallible (COO) or whose device mirror adds index
/// arrays beyond the host footprint.
fn check_budget<T: Scalar>(
    plan: SpmvPlan<T>,
    budget: &PlanBudget,
) -> Result<SpmvPlan<T>, SparseError> {
    if plan.device_bytes() > budget.max_device_bytes {
        return Err(SparseError::CapacityExceeded {
            format: plan.format(),
            detail: format!(
                "plan needs {} device bytes > budget {}",
                plan.device_bytes(),
                budget.max_device_bytes
            ),
        });
    }
    Ok(plan)
}

/// CSR with one thread per row (Bell & Garland scalar kernel).
pub struct CsrScalarPlanner;

impl<T: Scalar> SpmvPlanner<T> for CsrScalarPlanner {
    fn name(&self) -> &'static str {
        "CSR-scalar"
    }
    fn class(&self) -> PreprocessClass {
        PreprocessClass::Upload
    }
    fn plan(
        &self,
        dev: &Device,
        m: &CsrMatrix<T>,
        budget: &PlanBudget,
    ) -> Result<SpmvPlan<T>, SparseError> {
        let engine: Box<dyn GpuSpmv<T>> = Box::new(CsrScalar::new(DevCsr::upload(dev, m)));
        check_budget(
            SpmvPlan::new(
                "CSR-scalar",
                PreprocessClass::Upload,
                engine,
                PreprocessCost::default(),
            ),
            budget,
        )
    }
}

/// CSR with one warp per row and segmented reduction (cuSPARSE `csrmv`).
pub struct CsrVectorPlanner;

impl<T: Scalar> SpmvPlanner<T> for CsrVectorPlanner {
    fn name(&self) -> &'static str {
        "CSR-vector"
    }
    fn class(&self) -> PreprocessClass {
        PreprocessClass::Upload
    }
    fn plan(
        &self,
        dev: &Device,
        m: &CsrMatrix<T>,
        budget: &PlanBudget,
    ) -> Result<SpmvPlan<T>, SparseError> {
        let engine: Box<dyn GpuSpmv<T>> = Box::new(CsrVector::new(DevCsr::upload(dev, m)));
        check_budget(
            SpmvPlan::new(
                "CSR-vector",
                PreprocessClass::Upload,
                engine,
                PreprocessCost::default(),
            ),
            budget,
        )
    }
}

/// COO with segmented reduction (CUSP `coomv`).
pub struct CooPlanner;

impl<T: Scalar> SpmvPlanner<T> for CooPlanner {
    fn name(&self) -> &'static str {
        "COO"
    }
    fn class(&self) -> PreprocessClass {
        PreprocessClass::Transform
    }
    fn plan(
        &self,
        dev: &Device,
        m: &CsrMatrix<T>,
        budget: &PlanBudget,
    ) -> Result<SpmvPlan<T>, SparseError> {
        let (coo, cost) = CooMatrix::from_csr(m);
        let engine: Box<dyn GpuSpmv<T>> = Box::new(CooKernel::new(DevCoo::upload(dev, &coo)));
        check_budget(
            SpmvPlan::new("COO", PreprocessClass::Transform, engine, cost),
            budget,
        )
    }
}

/// ELL padded to the max row length (CUSP `ellmv`).
pub struct EllPlanner;

impl<T: Scalar> SpmvPlanner<T> for EllPlanner {
    fn name(&self) -> &'static str {
        "ELL"
    }
    fn class(&self) -> PreprocessClass {
        PreprocessClass::Transform
    }
    fn plan(
        &self,
        dev: &Device,
        m: &CsrMatrix<T>,
        budget: &PlanBudget,
    ) -> Result<SpmvPlan<T>, SparseError> {
        let (ell, cost) = EllMatrix::from_csr(m, budget.max_bytes_usize())?;
        let engine: Box<dyn GpuSpmv<T>> = Box::new(EllKernel::new(DevEll::upload(dev, &ell)));
        check_budget(
            SpmvPlan::new("ELL", PreprocessClass::Transform, engine, cost),
            budget,
        )
    }
}

/// HYB = ELL head (heuristic width) + COO tail (cuSPARSE `hybmv`).
pub struct HybPlanner;

impl<T: Scalar> SpmvPlanner<T> for HybPlanner {
    fn name(&self) -> &'static str {
        "HYB"
    }
    fn class(&self) -> PreprocessClass {
        PreprocessClass::Transform
    }
    fn plan(
        &self,
        dev: &Device,
        m: &CsrMatrix<T>,
        budget: &PlanBudget,
    ) -> Result<SpmvPlan<T>, SparseError> {
        let (hyb, cost) = HybMatrix::from_csr(m, budget.max_bytes_usize())?;
        let engine: Box<dyn GpuSpmv<T>> = Box::new(HybKernel::new(DevHyb::upload(dev, &hyb)));
        check_budget(
            SpmvPlan::new("HYB", PreprocessClass::Transform, engine, cost),
            budget,
        )
    }
}

/// Blocked row-column with length-sorted chunks (Ashari et al.).
pub struct BrcPlanner;

impl<T: Scalar> SpmvPlanner<T> for BrcPlanner {
    fn name(&self) -> &'static str {
        "BRC"
    }
    fn class(&self) -> PreprocessClass {
        PreprocessClass::Transform
    }
    fn plan(
        &self,
        dev: &Device,
        m: &CsrMatrix<T>,
        budget: &PlanBudget,
    ) -> Result<SpmvPlan<T>, SparseError> {
        let (brc, cost) = BrcMatrix::from_csr(m, budget.max_bytes_usize())?;
        let engine: Box<dyn GpuSpmv<T>> = Box::new(BrcKernel::new(DevBrc::upload(dev, &brc)));
        check_budget(
            SpmvPlan::new("BRC", PreprocessClass::Transform, engine, cost),
            budget,
        )
    }
}

/// BCCOO with the full yaSpMV configuration sweep charged to
/// preprocessing (Yan et al.).
pub struct BccooPlanner;

impl<T: Scalar> SpmvPlanner<T> for BccooPlanner {
    fn name(&self) -> &'static str {
        "BCCOO"
    }
    fn class(&self) -> PreprocessClass {
        PreprocessClass::Autotune
    }
    fn plan(
        &self,
        dev: &Device,
        m: &CsrMatrix<T>,
        budget: &PlanBudget,
    ) -> Result<SpmvPlan<T>, SparseError> {
        let tuned = tuning::autotune_bccoo(
            dev,
            m,
            budget.bccoo_sample_rows,
            budget.max_bytes_usize(),
            budget.sweep_bound().as_ref(),
        )?;
        let engine: Box<dyn GpuSpmv<T>> =
            Box::new(BccooKernel::new(DevBccoo::upload(dev, &tuned.matrix)));
        check_budget(
            SpmvPlan::new("BCCOO", PreprocessClass::Autotune, engine, tuned.cost),
            budget,
        )
    }
}

/// Column-tiled COO with exhaustive tile search (Yang et al.).
pub struct TcooPlanner;

impl<T: Scalar> SpmvPlanner<T> for TcooPlanner {
    fn name(&self) -> &'static str {
        "TCOO"
    }
    fn class(&self) -> PreprocessClass {
        PreprocessClass::Autotune
    }
    fn plan(
        &self,
        dev: &Device,
        m: &CsrMatrix<T>,
        budget: &PlanBudget,
    ) -> Result<SpmvPlan<T>, SparseError> {
        let tuned = tuning::tune_tcoo(
            dev,
            m,
            budget.max_bytes_usize(),
            budget.sweep_bound().as_ref(),
        )?;
        let engine: Box<dyn GpuSpmv<T>> =
            Box::new(TcooKernel::new(DevTcoo::upload(dev, &tuned.matrix)));
        check_budget(
            SpmvPlan::new("TCOO", PreprocessClass::Autotune, engine, tuned.cost),
            budget,
        )
    }
}

/// ACSR: the paper's contribution. Cheap binning analysis, bin-specific
/// kernels, fused multi-vector path.
#[derive(Default)]
pub struct AcsrPlanner {
    /// `None` = pick per device ([`AcsrConfig::for_device`], i.e. dynamic
    /// parallelism on Titan, binning-only on Fermi-class parts).
    cfg: Option<AcsrConfig>,
}

impl AcsrPlanner {
    /// Pin the ACSR configuration instead of deriving it per device
    /// (e.g. [`AcsrConfig::static_long_tail`] for width-stable runs).
    pub fn with_config(cfg: AcsrConfig) -> Self {
        AcsrPlanner { cfg: Some(cfg) }
    }
}

impl<T: Scalar> SpmvPlanner<T> for AcsrPlanner {
    fn name(&self) -> &'static str {
        "ACSR"
    }
    fn class(&self) -> PreprocessClass {
        PreprocessClass::Scan
    }
    fn supports_multi_fused(&self) -> bool {
        true
    }
    fn plan(
        &self,
        dev: &Device,
        m: &CsrMatrix<T>,
        budget: &PlanBudget,
    ) -> Result<SpmvPlan<T>, SparseError> {
        let cfg = self
            .cfg
            .unwrap_or_else(|| AcsrConfig::for_device(dev.config()));
        let engine = AcsrEngine::from_csr(dev, m, cfg);
        let cost = *engine.preprocess_cost();
        let staged = engine.matrix().upload_bytes();
        let boxed: Box<dyn GpuSpmv<T>> = Box::new(engine);
        check_budget(
            SpmvPlan::new("ACSR", PreprocessClass::Scan, boxed, cost).with_upload_bytes(staged),
            budget,
        )
    }
}
