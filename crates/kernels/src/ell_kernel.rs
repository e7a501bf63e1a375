//! ELL SpMV: one thread per row over column-major padded storage.
//!
//! Perfectly coalesced (lane `i` reads `values[slot * rows + row_i]`,
//! consecutive addresses) and divergence-free — every thread runs exactly
//! `width` iterations. The price was paid at conversion time: padding
//! bandwidth. This kernel is the ELL half of HYB.

use crate::{DevEll, GpuSpmv};
use gpu_sim::{lane_mask, Device, DeviceBuffer, RunReport, WARP};
use sparse_formats::ell::ELL_PAD;
use sparse_formats::Scalar;

/// ELL engine. Reads `x` through the texture cache, as the paper's
/// library baselines do (§IV).
pub struct EllKernel<T> {
    mat: DevEll<T>,
}

impl<T: Scalar> EllKernel<T> {
    /// Wrap an uploaded ELL matrix.
    pub fn new(mat: DevEll<T>) -> Self {
        EllKernel { mat }
    }
}

impl<T: Scalar> GpuSpmv<T> for EllKernel<T> {
    fn name(&self) -> &'static str {
        "ELL"
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
        let rows = self.mat.rows;
        let width = self.mat.width;
        let mat = &self.mat;
        let block = 256;
        let grid = rows.div_ceil(block).max(1);
        dev.launch("ell", grid, block, &|blk| {
            blk.for_each_warp(&mut |warp| {
                let base_row = warp.first_thread();
                if base_row >= rows {
                    return;
                }
                let live = (rows - base_row).min(WARP);
                let mask = lane_mask(live);
                let mut acc = [T::ZERO; WARP];
                for slot in 0..width {
                    // column-major: consecutive lanes -> consecutive addrs
                    let base = slot * rows + base_row;
                    let cols = warp.read_coalesced(&mat.col_indices, base, mask);
                    // lanes whose slot is real (not padding)
                    let mut pad_mask = 0u32;
                    for lane in 0..live {
                        if cols[lane] != ELL_PAD {
                            pad_mask |= 1 << lane;
                        }
                    }
                    warp.charge_alu(1); // pad test
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
                    for lane in 0..live {
                        if pad_mask >> lane & 1 == 1 {
                            acc[lane] = vals[lane].mul_add(xs[lane], acc[lane]);
                        }
                    }
                    warp.charge_fma(pad_mask);
                }
                warp.write_coalesced(y, base_row, &acc, mask);
            });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_close, test_x};
    use gpu_sim::presets;
    use sparse_formats::{CsrMatrix, EllMatrix, TripletMatrix};

    fn bounded_matrix(rows: usize, width: usize) -> CsrMatrix<f64> {
        let mut t = TripletMatrix::new(rows, rows);
        for r in 0..rows {
            for j in 0..(1 + r % width) {
                t.push(r, (r * 13 + j * 101) % rows, (r + j) as f64 * 0.5 + 1.0)
                    .unwrap();
            }
        }
        t.to_csr()
    }

    #[test]
    fn matches_reference() {
        let m = bounded_matrix(600, 10);
        let (ell, _) = EllMatrix::from_csr(&m, usize::MAX).unwrap();
        let dev = Device::new(presets::gtx_titan());
        let eng = EllKernel::new(DevEll::upload(&dev, &ell));
        let x = test_x::<f64>(m.cols());
        let xd = dev.alloc(x.clone());
        let yd = dev.alloc_zeroed::<f64>(m.rows());
        eng.spmv(&dev, &xd, &yd);
        assert_close(yd.as_slice(), &m.spmv(&x), 1e-12, "ell");
    }

    #[test]
    fn ell_reads_are_coalesced() {
        // transactions per nnz must be near the ideal (~ >= 1/16 per value
        // read for f64 at 128B transactions, plus cols & x)
        let m = bounded_matrix(4096, 8);
        let (ell, _) = EllMatrix::from_csr(&m, usize::MAX).unwrap();
        let dev = Device::new(presets::gtx_titan());
        let eng = EllKernel::new(DevEll::upload(&dev, &ell));
        let x = test_x::<f64>(m.cols());
        let xd = dev.alloc(x.clone());
        let yd = dev.alloc_zeroed::<f64>(m.rows());
        let r = eng.spmv(&dev, &xd, &yd);
        let padded = ell.width() * m.rows();
        // reads: cols (4B) + vals (8B) over padded slots, coalesced =>
        // about padded*12 bytes + x; allow 2.5x slack
        assert!(
            r.counters.dram_read_bytes < (padded as u64) * 12 * 5 / 2 + (m.cols() as u64) * 8 * 3,
            "bytes {}",
            r.counters.dram_read_bytes
        );
    }

    #[test]
    fn padding_costs_bandwidth() {
        // a skewed ELL (one wide row) reads far more than its nnz needs
        let mut t = TripletMatrix::<f64>::new(1024, 1024);
        for r in 0..1024usize {
            t.push(r, r, 1.0).unwrap();
        }
        for c in 0..512usize {
            t.push(0, (c * 2 + 1) % 1024, 1.0).unwrap();
        }
        let m = t.to_csr();
        let (ell, _) = EllMatrix::from_csr(&m, usize::MAX).unwrap();
        assert!(ell.padding_fraction() > 0.9);
        let dev = Device::new(presets::gtx_titan());
        let eng = EllKernel::new(DevEll::upload(&dev, &ell));
        let x = test_x::<f64>(1024);
        let xd = dev.alloc(x.clone());
        let yd = dev.alloc_zeroed::<f64>(1024);
        let r = eng.spmv(&dev, &xd, &yd);
        assert_close(yd.as_slice(), &m.spmv(&x), 1e-12, "padded ell");
        // reading the col array alone over all padded slots: 4B * width * rows
        assert!(r.counters.dram_read_bytes as f64 > 0.5 * (ell.width() * 1024 * 4) as f64);
    }
}
