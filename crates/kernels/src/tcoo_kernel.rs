//! TCOO SpMV \[28\]: one pass per column tile so each tile's slice of `x`
//! stays resident in the texture cache — the cache-blocking idea of Yang
//! et al.'s graph-mining SpMV.

use crate::{fill_kernel, DevTcoo, GpuSpmv};
use gpu_sim::{Device, DeviceBuffer, RunReport, WARP};
use sparse_formats::Scalar;

/// TCOO engine. Reads `x` through the texture cache (the format's
/// raison d'être).
pub struct TcooKernel<T> {
    mat: DevTcoo<T>,
}

impl<T: Scalar> TcooKernel<T> {
    /// Wrap an uploaded TCOO matrix.
    pub fn new(mat: DevTcoo<T>) -> Self {
        TcooKernel { mat }
    }

    /// Number of column tiles.
    pub fn n_tiles(&self) -> usize {
        self.mat.tiles.len()
    }
}

impl<T: Scalar> GpuSpmv<T> for TcooKernel<T> {
    fn name(&self) -> &'static str {
        "TCOO"
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
        let mut report = fill_kernel(dev, y, T::ZERO);
        let mat = &self.mat;
        // one kernel per tile: the tile's x-slice warms the cache and is
        // reused by every entry of the tile
        for (ti, tile) in mat.tiles.iter().enumerate() {
            let n = tile.entry_count;
            if n == 0 {
                continue;
            }
            let start = tile.entry_start;
            let block = 256;
            let grid = n.div_ceil(block).max(1);
            let r = dev.launch(&format!("tcoo_tile{ti}"), grid, block, &|blk| {
                blk.for_each_warp(&mut |warp| {
                    let base = warp.first_thread();
                    if base >= n {
                        return;
                    }
                    let live = (n - base).min(WARP);
                    let mask = gpu_sim::lane_mask(live);
                    let e = start + base;
                    let rows_v = warp.read_coalesced(&mat.row_indices, e, mask);
                    let cols_v = warp.read_coalesced(&mat.col_indices, e, mask);
                    let vals_v = warp.read_coalesced(&mat.values, e, mask);
                    let xi: [usize; WARP] = std::array::from_fn(|i| cols_v[i] as usize);
                    let xs = warp.gather_tex(x, &xi, mask);
                    let mut prod = [T::ZERO; WARP];
                    for lane in 0..live {
                        prod[lane] = vals_v[lane] * xs[lane];
                    }
                    warp.charge_fma(mask);
                    // segmented pre-reduction on sorted rows (as COO)
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
            });
            report = report.then(&r);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_close, test_matrix, test_x};
    use gpu_sim::presets;
    use sparse_formats::TcooMatrix;

    #[test]
    fn matches_reference_for_various_tilings() {
        let m = test_matrix(700, 51);
        let dev = Device::new(presets::gtx_titan());
        let x = test_x::<f64>(m.cols());
        let want = m.spmv(&x);
        for tiles in [1, 3, 16] {
            let (tc, _) = TcooMatrix::from_csr(&m, tiles, usize::MAX).unwrap();
            let eng = TcooKernel::new(DevTcoo::upload(&dev, &tc));
            let xd = dev.alloc(x.clone());
            let yd = dev.alloc(vec![7.0f64; m.rows()]);
            eng.spmv(&dev, &xd, &yd);
            assert_close(yd.as_slice(), &want, 1e-12, &format!("tiles {tiles}"));
        }
    }

    #[test]
    fn launch_count_tracks_tiles() {
        let m = test_matrix(500, 52);
        let dev = Device::new(presets::gtx_titan());
        let (tc, _) = TcooMatrix::from_csr(&m, 8, usize::MAX).unwrap();
        let nonempty = tc.tiles().iter().filter(|t| t.entry_count > 0).count();
        let eng = TcooKernel::new(DevTcoo::upload(&dev, &tc));
        let x = test_x::<f64>(m.cols());
        let xd = dev.alloc(x.clone());
        let yd = dev.alloc_zeroed::<f64>(m.rows());
        let r = eng.spmv(&dev, &xd, &yd);
        assert_eq!(
            r.launches as usize,
            1 + nonempty,
            "memset + per-tile kernels"
        );
    }

    #[test]
    fn tiling_improves_texture_hit_rate_on_wide_x() {
        // x larger than the cache: tiled passes should hit more often
        use graphgen::{generate_power_law, PowerLawConfig};
        let m: sparse_formats::CsrMatrix<f32> = generate_power_law(&PowerLawConfig {
            rows: 4000,
            cols: 200_000,
            mean_degree: 24.0,
            max_degree: 512,
            pinned_max_rows: 0,
            col_skew: 0.0, // uniform columns: worst case for caching
            seed: 53,
            ..Default::default()
        });
        let dev = Device::new(presets::gtx_titan());
        let x = test_x::<f32>(m.cols());
        let rate = |tiles: usize| {
            let (tc, _) = TcooMatrix::from_csr(&m, tiles, usize::MAX).unwrap();
            let eng = TcooKernel::new(DevTcoo::upload(&dev, &tc));
            let xd = dev.alloc(x.clone());
            let yd = dev.alloc_zeroed::<f32>(m.rows());
            let r = eng.spmv(&dev, &xd, &yd);
            r.counters.tex_hit_rate().expect("texture reads occurred")
        };
        let flat = rate(1);
        let tiled = rate(32);
        assert!(
            tiled > flat,
            "tiled hit rate {tiled:.3} must beat flat {flat:.3}"
        );
    }
}
