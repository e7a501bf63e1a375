//! COO SpMV with warp-level segmented reduction (paper §II).
//!
//! One lane per non-zero, grid-strided. Each warp's 32 products are
//! combined with a shuffle-based *segmented* reduction (lanes belonging
//! to the same row merge), then one lane per row segment issues an
//! `atomicAdd` into `y` — "the overhead is alleviated to some extent by
//! use of efficient segmented reduction". `y` must be zeroed first; the
//! engine launches a memset kernel exactly like `cusparse<t>coomv`.

use crate::{fill_kernel, DevCoo, GpuSpmv};
use gpu_sim::{Device, DeviceBuffer, RunReport, WARP};
use sparse_formats::Scalar;

/// COO segmented-reduction engine. Reads `x` through the texture
/// cache, as the paper's library baselines do (§IV).
pub struct CooKernel<T> {
    mat: DevCoo<T>,
}

impl<T: Scalar> CooKernel<T> {
    /// Wrap an uploaded COO matrix.
    pub fn new(mat: DevCoo<T>) -> Self {
        CooKernel { mat }
    }

    /// Run the product+reduce kernel, *accumulating* into `y` (assumed
    /// pre-zeroed or holding the ELL partial sums when used inside HYB).
    pub fn spmv_accumulate(
        &self,
        dev: &Device,
        x: &DeviceBuffer<T>,
        y: &DeviceBuffer<T>,
    ) -> RunReport {
        assert_eq!(x.len(), self.mat.cols, "x length mismatch");
        assert_eq!(y.len(), self.mat.rows, "y length mismatch");
        let nnz = self.mat.nnz();
        if nnz == 0 {
            // nothing to launch — zero-entry tails are common in HYB
            return RunReport::default();
        }
        let mat = &self.mat;
        let block = 256;
        let grid = nnz.div_ceil(block).max(1);
        dev.launch("coo_segred", grid, block, &|blk| {
            blk.for_each_warp(&mut |warp| {
                let base = warp.first_thread();
                if base >= nnz {
                    return;
                }
                let live = (nnz - base).min(WARP);
                let mask = gpu_sim::lane_mask(live);
                let rows_v = warp.read_coalesced(&mat.row_indices, base, mask);
                let cols_v = warp.read_coalesced(&mat.col_indices, base, mask);
                let vals_v = warp.read_coalesced(&mat.values, base, mask);
                let xi: [usize; WARP] = std::array::from_fn(|i| cols_v[i] as usize);
                let xs = warp.gather_tex(x, &xi, mask);
                let mut prod = [T::ZERO; WARP];
                for lane in 0..live {
                    prod[lane] = vals_v[lane] * xs[lane];
                }
                warp.charge_fma(mask);

                // Segmented reduction: log-step shuffle, adding only when
                // the source lane belongs to the same row.
                let mut delta = 1usize;
                while delta < WARP {
                    let shifted = warp.shfl_down(&prod, delta);
                    for lane in 0..live {
                        if lane + delta < live && rows_v[lane + delta] == rows_v[lane] {
                            prod[lane] += shifted[lane];
                        }
                    }
                    warp.charge_alu(1);
                    delta *= 2;
                }

                // Segment heads (first lane of each row run) atomically
                // publish their sums.
                let mut head_mask = 0u32;
                let mut idx = [0usize; WARP];
                for lane in 0..live {
                    if lane == 0 || rows_v[lane] != rows_v[lane - 1] {
                        head_mask |= 1 << lane;
                        idx[lane] = rows_v[lane] as usize;
                    }
                }
                warp.atomic_rmw(y, &idx, &prod, head_mask, |a, b| a + b);
            });
        })
    }
}

impl<T: Scalar> GpuSpmv<T> for CooKernel<T> {
    fn name(&self) -> &'static str {
        "COO"
    }

    fn rows(&self) -> usize {
        self.mat.rows
    }
    fn cols(&self) -> usize {
        self.mat.cols
    }
    fn nnz(&self) -> usize {
        self.mat.nnz()
    }
    fn device_bytes(&self) -> u64 {
        self.mat.device_bytes()
    }

    fn spmv(&self, dev: &Device, x: &DeviceBuffer<T>, y: &DeviceBuffer<T>) -> RunReport {
        let zero = fill_kernel(dev, y, T::ZERO);
        let main = self.spmv_accumulate(dev, x, y);
        zero.then(&main)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_close, test_matrix, test_x};
    use gpu_sim::presets;
    use sparse_formats::CooMatrix;

    #[test]
    fn matches_reference() {
        let m = test_matrix(800, 17);
        let (coo, _) = CooMatrix::from_csr(&m);
        let dev = Device::new(presets::gtx_titan());
        let eng = CooKernel::new(DevCoo::upload(&dev, &coo));
        let x = test_x::<f64>(m.cols());
        let xd = dev.alloc(x.clone());
        let yd = dev.alloc(vec![99.0f64; m.rows()]); // must be overwritten
        let r = eng.spmv(&dev, &xd, &yd);
        assert_close(yd.as_slice(), &m.spmv(&x), 1e-12, "coo");
        assert_eq!(r.launches, 2, "memset + main kernel");
        assert!(r.counters.atomic_ops > 0);
    }

    #[test]
    fn segmented_reduction_reduces_atomics() {
        // With sorted rows and short rows, most lanes merge before the
        // atomic: atomics must be well below nnz.
        let m = test_matrix(3000, 18);
        let (coo, _) = CooMatrix::from_csr(&m);
        let dev = Device::new(presets::gtx_titan());
        let eng = CooKernel::new(DevCoo::upload(&dev, &coo));
        let x = test_x::<f64>(m.cols());
        let xd = dev.alloc(x.clone());
        let yd = dev.alloc_zeroed::<f64>(m.rows());
        let r = eng.spmv(&dev, &xd, &yd);
        assert!(
            (r.counters.atomic_ops as usize) < m.nnz(),
            "atomics {} vs nnz {}",
            r.counters.atomic_ops,
            m.nnz()
        );
    }

    #[test]
    fn empty_matrix_is_fine() {
        let m = sparse_formats::CsrMatrix::<f64>::zeros(10, 10);
        let (coo, _) = CooMatrix::from_csr(&m);
        let dev = Device::new(presets::gtx_titan());
        let eng = CooKernel::new(DevCoo::upload(&dev, &coo));
        let xd = dev.alloc(vec![1.0f64; 10]);
        let yd = dev.alloc(vec![5.0f64; 10]);
        eng.spmv(&dev, &xd, &yd);
        assert!(yd.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn accumulate_does_not_zero_y() {
        let m = test_matrix(200, 19);
        let (coo, _) = CooMatrix::from_csr(&m);
        let dev = Device::new(presets::gtx_titan());
        let eng = CooKernel::new(DevCoo::upload(&dev, &coo));
        let x = test_x::<f64>(m.cols());
        let xd = dev.alloc(x.clone());
        let yd = dev.alloc(vec![2.0f64; m.rows()]);
        eng.spmv_accumulate(&dev, &xd, &yd);
        let want: Vec<f64> = m.spmv(&x).iter().map(|v| v + 2.0).collect();
        assert_close(yd.as_slice(), &want, 1e-12, "coo accumulate");
    }
}
