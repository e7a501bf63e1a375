//! BRC SpMV: one warp per 32-chunk block of length-sorted row chunks \[1\].
//!
//! Lane `i` owns chunk `i` of its block; each iteration reads one slot of
//! every chunk — consecutive addresses in the block's column-major
//! storage, so accesses coalesce — and because blocks group
//! similar-length chunks (bounded at `BRC_MAX_WIDTH`), divergence is
//! small by construction and no warp serializes behind a monster row.
//! Chunks of the same row land in different blocks, so partial sums are
//! accumulated atomically into a zeroed `y`.

use crate::{fill_kernel, DevBrc, GpuSpmv};
use gpu_sim::{lane_mask, Device, DeviceBuffer, RunReport, WARP};
use sparse_formats::ell::ELL_PAD;
use sparse_formats::Scalar;

/// BRC engine. Reads `x` through the texture cache, as the paper's
/// library baselines do (§IV).
pub struct BrcKernel<T> {
    mat: DevBrc<T>,
}

impl<T: Scalar> BrcKernel<T> {
    /// Wrap an uploaded BRC matrix.
    pub fn new(mat: DevBrc<T>) -> Self {
        BrcKernel { mat }
    }
}

impl<T: Scalar> GpuSpmv<T> for BrcKernel<T> {
    fn name(&self) -> &'static str {
        "BRC"
    }

    fn rows(&self) -> usize {
        self.mat.rows
    }
    fn cols(&self) -> usize {
        self.mat.cols
    }
    fn nnz(&self) -> usize {
        self.mat.nnz
    }
    fn device_bytes(&self) -> u64 {
        self.mat.device_bytes()
    }

    fn spmv(&self, dev: &Device, x: &DeviceBuffer<T>, y: &DeviceBuffer<T>) -> RunReport {
        assert_eq!(x.len(), self.mat.cols, "x length mismatch");
        assert_eq!(y.len(), self.mat.rows, "y length mismatch");
        let zero = fill_kernel(dev, y, T::ZERO);
        let mat = &self.mat;
        let n_blocks = mat.blocks.len();
        if n_blocks == 0 {
            return zero;
        }
        // one warp per BRC block; 8 warps per thread block
        let block_dim = 256;
        let warps_per_tb = block_dim / WARP;
        let grid = n_blocks.div_ceil(warps_per_tb);
        let main = dev.launch("brc", grid, block_dim, &|blk| {
            blk.for_each_warp(&mut |warp| {
                let bid = warp.global_warp_id();
                if bid >= n_blocks {
                    return;
                }
                let b = &mat.blocks[bid];
                let mask = lane_mask(b.height);
                let mut acc = [T::ZERO; WARP];
                for slot in 0..b.width {
                    let base = b.data_start + slot * b.height;
                    let cols = warp.read_coalesced(&mat.col_indices, base, mask);
                    let mut pad_mask = 0u32;
                    for lane in 0..b.height {
                        if cols[lane] != ELL_PAD {
                            pad_mask |= 1 << lane;
                        }
                    }
                    warp.charge_alu(1);
                    if pad_mask == 0 {
                        continue;
                    }
                    let vals = warp.read_coalesced(&mat.values, base, mask);
                    let xi: [usize; WARP] = std::array::from_fn(|i| {
                        if pad_mask >> i & 1 == 1 {
                            cols[i] as usize
                        } else {
                            0
                        }
                    });
                    let xs = warp.gather_tex(x, &xi, pad_mask);
                    for lane in 0..b.height {
                        if pad_mask >> lane & 1 == 1 {
                            acc[lane] = vals[lane].mul_add(xs[lane], acc[lane]);
                        }
                    }
                    warp.charge_fma(pad_mask);
                }
                // accumulate chunk partials into their global rows
                let list_idx: [usize; WARP] = std::array::from_fn(|i| {
                    (b.row_start + i).min(mat.chunk_rows.len().saturating_sub(1))
                });
                let rows_orig = warp.gather(&mat.chunk_rows, &list_idx, mask);
                let w_idx: [usize; WARP] = std::array::from_fn(|i| rows_orig[i] as usize);
                warp.atomic_rmw(y, &w_idx, &acc, mask, |a, b| a + b);
            });
        });
        zero.then(&main)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_close, test_matrix, test_x};
    use gpu_sim::presets;
    use sparse_formats::BrcMatrix;

    #[test]
    fn matches_reference() {
        let m = test_matrix(1500, 31);
        let (brc, _) = BrcMatrix::from_csr(&m, usize::MAX).unwrap();
        let dev = Device::new(presets::gtx_titan());
        let eng = BrcKernel::new(DevBrc::upload(&dev, &brc));
        let x = test_x::<f64>(m.cols());
        let xd = dev.alloc(x.clone());
        let yd = dev.alloc(vec![-9.0f64; m.rows()]);
        eng.spmv(&dev, &xd, &yd);
        assert_close(yd.as_slice(), &m.spmv(&x), 1e-12, "brc");
    }

    #[test]
    fn partial_last_block_is_handled() {
        // rows not a multiple of 32
        let m = test_matrix(1000 + 13, 32);
        let (brc, _) = BrcMatrix::from_csr(&m, usize::MAX).unwrap();
        let dev = Device::new(presets::gtx_titan());
        let eng = BrcKernel::new(DevBrc::upload(&dev, &brc));
        let x = test_x::<f64>(m.cols());
        let xd = dev.alloc(x.clone());
        let yd = dev.alloc_zeroed::<f64>(m.rows());
        eng.spmv(&dev, &xd, &yd);
        assert_close(yd.as_slice(), &m.spmv(&x), 1e-12, "brc partial block");
    }

    #[test]
    fn sorting_reduces_issue_waste_versus_scalar() {
        use crate::csr_scalar::CsrScalar;
        use crate::DevCsr;
        let m = test_matrix(4096, 33);
        let dev = Device::new(presets::gtx_titan());
        let x = test_x::<f64>(m.cols());
        let (brc, _) = BrcMatrix::from_csr(&m, usize::MAX).unwrap();
        let brc_eng = BrcKernel::new(DevBrc::upload(&dev, &brc));
        let sc_eng = CsrScalar::new(DevCsr::upload(&dev, &m));
        let xd = dev.alloc(x.clone());
        let yd = dev.alloc_zeroed::<f64>(m.rows());
        let r_brc = brc_eng.spmv(&dev, &xd, &yd);
        let r_sc = sc_eng.spmv(&dev, &xd, &yd);
        assert!(
            r_brc.counters.warp_instructions < r_sc.counters.warp_instructions,
            "brc {} vs scalar {}",
            r_brc.counters.warp_instructions,
            r_sc.counters.warp_instructions
        );
    }
}
