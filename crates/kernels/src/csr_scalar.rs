//! CSR-scalar SpMV: one thread per row (paper §II).
//!
//! The textbook kernel whose two pathologies motivate everything else:
//! * **thread divergence** — a warp runs until its *longest* row finishes,
//!   so 31 lanes idle behind one wide row;
//! * **uncoalesced access** — adjacent lanes read different rows' data,
//!   scattering transactions.

use crate::{DevCsr, GpuSpmv};
use gpu_sim::{lane_mask, Device, DeviceBuffer, RunReport, WARP};
use sparse_formats::Scalar;

/// CSR-scalar engine. Reads `x` through the texture cache, as the
/// paper's library baselines do (§IV).
pub struct CsrScalar<T> {
    mat: DevCsr<T>,
}

impl<T: Scalar> CsrScalar<T> {
    /// Wrap an uploaded CSR matrix.
    pub fn new(mat: DevCsr<T>) -> Self {
        CsrScalar { mat }
    }
}

impl<T: Scalar> GpuSpmv<T> for CsrScalar<T> {
    fn name(&self) -> &'static str {
        "CSR-scalar"
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
        assert_eq!(x.len(), self.mat.cols, "x length mismatch");
        assert_eq!(y.len(), self.mat.rows, "y length mismatch");
        let rows = self.mat.rows;
        let mat = &self.mat;
        let block = 256;
        let grid = rows.div_ceil(block).max(1);
        dev.launch("csr_scalar", grid, block, &|blk| {
            blk.for_each_warp(&mut |warp| {
                let base_row = warp.first_thread();
                if base_row >= rows {
                    return;
                }
                let live = (rows - base_row).min(WARP);
                let mask = lane_mask(live);

                // Row bounds: lane i handles row base_row + i.
                let off_idx: [usize; WARP] = std::array::from_fn(|i| (base_row + i).min(rows));
                let starts = warp.gather(&mat.row_offsets, &off_idx, mask);
                let ends_idx: [usize; WARP] = std::array::from_fn(|i| (base_row + i + 1).min(rows));
                let ends = warp.gather(&mat.row_offsets, &ends_idx, mask);

                let mut lens = [0usize; WARP];
                let mut max_len = 0usize;
                for lane in 0..live {
                    lens[lane] = (ends[lane] - starts[lane]) as usize;
                    max_len = max_len.max(lens[lane]);
                }

                let mut acc = [T::ZERO; WARP];
                // SIMT lockstep: the warp iterates to the LONGEST row.
                for it in 0..max_len {
                    let mut it_mask = 0u32;
                    let mut idx = [0usize; WARP];
                    for lane in 0..live {
                        if it < lens[lane] {
                            it_mask |= 1 << lane;
                            idx[lane] = starts[lane] as usize + it;
                        }
                    }
                    let cols = warp.gather(&mat.col_indices, &idx, it_mask);
                    let vals = warp.gather(&mat.values, &idx, it_mask);
                    let xi: [usize; WARP] = std::array::from_fn(|i| cols[i] as usize);
                    let xs = warp.gather_tex(x, &xi, it_mask);
                    for lane in 0..live {
                        if it_mask >> lane & 1 == 1 {
                            acc[lane] = vals[lane].mul_add(xs[lane], acc[lane]);
                        }
                    }
                    warp.charge_fma(it_mask); // the FMA issues once per warp
                }
                warp.write_coalesced(y, base_row, &acc, mask);
            });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_close, test_matrix, test_x};
    use gpu_sim::presets;

    #[test]
    fn matches_reference_spmv() {
        let m = test_matrix(700, 1);
        let dev = Device::new(presets::gtx_titan());
        let eng = CsrScalar::new(DevCsr::upload(&dev, &m));
        let x = test_x::<f64>(m.cols());
        let xd = dev.alloc(x.clone());
        let yd = dev.alloc_zeroed::<f64>(m.rows());
        let report = eng.spmv(&dev, &xd, &yd);
        assert_close(yd.as_slice(), &m.spmv(&x), 1e-12, "csr-scalar");
        assert!(report.time_s > 0.0);
        assert!(report.counters.warp_instructions > 0);
    }

    #[test]
    fn skewed_rows_cause_divergence_waste() {
        // Same nnz, uniform vs skewed: skewed must cost more issue slots.
        use graphgen::{generate_power_law, generate_uniform, PowerLawConfig};
        let dev = Device::new(presets::gtx_titan());
        let uni: sparse_formats::CsrMatrix<f64> = generate_uniform(4096, 4096, 8.0, 5);
        let skw: sparse_formats::CsrMatrix<f64> = generate_power_law(&PowerLawConfig {
            rows: 4096,
            cols: 4096,
            mean_degree: 8.0,
            max_degree: 1024,
            pinned_max_rows: 4,
            col_skew: 0.3,
            seed: 5,
            ..Default::default()
        });
        let x = test_x::<f64>(4096);
        let run = |m: &sparse_formats::CsrMatrix<f64>| {
            let eng = CsrScalar::new(DevCsr::upload(&dev, m));
            let xd = dev.alloc(x.clone());
            let yd = dev.alloc_zeroed::<f64>(m.rows());
            let r = eng.spmv(&dev, &xd, &yd);
            (
                r.counters.warp_instructions as f64 / m.nnz() as f64,
                r.time_s,
            )
        };
        let (ipe_uni, _) = run(&uni);
        let (ipe_skw, _) = run(&skw);
        assert!(
            ipe_skw > 1.5 * ipe_uni,
            "instr/nnz skewed {ipe_skw:.2} vs uniform {ipe_uni:.2}"
        );
    }

    #[test]
    fn works_in_f32() {
        let m64 = test_matrix(300, 2);
        // rebuild in f32
        let mut t = sparse_formats::TripletMatrix::<f32>::new(m64.rows(), m64.cols());
        for (r, c, v) in m64.iter() {
            t.push(r, c, v as f32).unwrap();
        }
        let m = t.to_csr();
        let dev = Device::new(presets::gtx_580());
        let eng = CsrScalar::new(DevCsr::upload(&dev, &m));
        let x = test_x::<f32>(m.cols());
        let xd = dev.alloc(x.clone());
        let yd = dev.alloc_zeroed::<f32>(m.rows());
        eng.spmv(&dev, &xd, &yd);
        assert_close(yd.as_slice(), &m.spmv(&x), 1e-5, "csr-scalar f32");
    }
}
