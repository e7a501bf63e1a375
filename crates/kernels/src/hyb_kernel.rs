//! HYB SpMV: the ELL kernel followed by the COO tail kernel, as in
//! cuSPARSE's `hybmv` — the paper's strongest library baseline.

use crate::coo_kernel::CooKernel;
use crate::ell_kernel::EllKernel;
use crate::{DevHyb, GpuSpmv};
use gpu_sim::{Device, DeviceBuffer, RunReport};
use sparse_formats::Scalar;

/// HYB engine (ELL head + COO tail).
pub struct HybKernel<T> {
    ell: EllKernel<T>,
    coo: CooKernel<T>,
    k: usize,
}

impl<T: Scalar> HybKernel<T> {
    /// Wrap an uploaded HYB matrix.
    pub fn new(mat: DevHyb<T>) -> Self {
        let DevHyb { ell, coo, k } = mat;
        HybKernel {
            ell: EllKernel::new(ell),
            coo: CooKernel::new(coo),
            k,
        }
    }

    /// The ELL width in use.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl<T: Scalar> GpuSpmv<T> for HybKernel<T> {
    fn name(&self) -> &'static str {
        "HYB"
    }

    fn rows(&self) -> usize {
        self.ell.rows()
    }
    fn cols(&self) -> usize {
        self.ell.cols()
    }
    fn nnz(&self) -> usize {
        self.ell.nnz() + self.coo.nnz()
    }
    fn device_bytes(&self) -> u64 {
        self.ell.device_bytes() + self.coo.device_bytes()
    }

    fn spmv(&self, dev: &Device, x: &DeviceBuffer<T>, y: &DeviceBuffer<T>) -> RunReport {
        // ELL writes every row (y = ell_part * x), the COO tail then
        // accumulates — no explicit memset needed.
        let r_ell = self.ell.spmv(dev, x, y);
        let r_coo = self.coo.spmv_accumulate(dev, x, y);
        r_ell.then(&r_coo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_close, test_matrix, test_x};
    use gpu_sim::presets;
    use sparse_formats::{HybMatrix, SpFormat};

    #[test]
    fn matches_reference_with_heuristic_k() {
        let m = test_matrix(6000, 23);
        let (hyb, _) = HybMatrix::from_csr(&m, usize::MAX).unwrap();
        assert!(hyb.k() > 0, "suite matrix must get an ELL part");
        assert!(hyb.coo().nnz() > 0, "skewed matrix must spill a tail");
        let dev = Device::new(presets::gtx_titan());
        let eng = HybKernel::new(DevHyb::upload(&dev, &hyb));
        let x = test_x::<f64>(m.cols());
        let xd = dev.alloc(x.clone());
        let yd = dev.alloc(vec![-1.0f64; m.rows()]);
        let r = eng.spmv(&dev, &xd, &yd);
        assert_close(yd.as_slice(), &m.spmv(&x), 1e-12, "hyb");
        assert!(r.launches >= 2);
    }

    #[test]
    fn pure_coo_k_zero_still_correct() {
        let m = test_matrix(500, 24);
        let (hyb, _) = HybMatrix::from_csr_with_k(&m, 0, usize::MAX).unwrap();
        let dev = Device::new(presets::gtx_titan());
        let eng = HybKernel::new(DevHyb::upload(&dev, &hyb));
        let x = test_x::<f64>(m.cols());
        let xd = dev.alloc(x.clone());
        let yd = dev.alloc(vec![3.0f64; m.rows()]);
        eng.spmv(&dev, &xd, &yd);
        assert_close(yd.as_slice(), &m.spmv(&x), 1e-12, "hyb k=0");
    }

    #[test]
    fn pure_ell_no_tail_still_correct() {
        let m = test_matrix(5000, 25);
        let max = m.row_stats().max_row;
        let (hyb, _) = HybMatrix::from_csr_with_k(&m, max, usize::MAX).unwrap();
        assert_eq!(hyb.coo().nnz(), 0);
        let dev = Device::new(presets::gtx_titan());
        let eng = HybKernel::new(DevHyb::upload(&dev, &hyb));
        let x = test_x::<f64>(m.cols());
        let xd = dev.alloc(x.clone());
        let yd = dev.alloc_zeroed::<f64>(m.rows());
        eng.spmv(&dev, &xd, &yd);
        assert_close(yd.as_slice(), &m.spmv(&x), 1e-12, "hyb pure ell");
    }
}
