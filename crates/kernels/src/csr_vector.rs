//! CSR-vector SpMV: a thread *group* per row (paper §II).
//!
//! The cuSPARSE/CUSP production kernel: lanes are partitioned into
//! power-of-two groups, each group strides one row cooperatively and
//! reduces with shuffles. The group width is chosen from the matrix's
//! mean row length, per the libraries' heuristic ("threads of a warp span
//! multiple rows when the average number of non-zeros per row is small").
//!
//! This is the paper's "CSR" baseline in Figures 5 and 6. Its weakness on
//! power-law inputs: μ is small so the group is narrow, and the rare huge
//! row serializes through one narrow group — the long-tail latency ACSR's
//! dynamic parallelism removes.

use crate::{DevCsr, GpuSpmv};
use gpu_sim::{Device, DeviceBuffer, RunReport, WARP};
use sparse_formats::Scalar;

/// Pick the CSR-vector group width for a mean row length: the smallest
/// power of two ≥ μ, clamped to [2, 32] (the CUSP heuristic).
pub fn group_for_mean(mu: f64) -> usize {
    let mut g = 2usize;
    while (g as f64) < mu && g < WARP {
        g *= 2;
    }
    g
}

/// CSR-vector engine. Reads `x` through the texture cache, as the
/// paper's library baselines do (§IV).
pub struct CsrVector<T> {
    mat: DevCsr<T>,
    /// Lanes cooperating per row (power of two, ≤ 32).
    pub group: usize,
}

impl<T: Scalar> CsrVector<T> {
    /// Wrap an uploaded CSR matrix, choosing the group width from the
    /// matrix's mean row length.
    pub fn new(mat: DevCsr<T>) -> Self {
        let mu = mat.nnz() as f64 / mat.rows.max(1) as f64;
        Self::with_group(mat, group_for_mean(mu))
    }

    /// Wrap with an explicit group width.
    pub fn with_group(mat: DevCsr<T>, group: usize) -> Self {
        assert!(
            group.is_power_of_two() && (1..=WARP).contains(&group),
            "group must be a power of two in [1, 32]"
        );
        CsrVector { mat, group }
    }
}

impl<T: Scalar> GpuSpmv<T> for CsrVector<T> {
    fn name(&self) -> &'static str {
        "CSR-vector"
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
        let group = self.group;
        let groups_per_warp = WARP / group;
        let warps_needed = rows.div_ceil(groups_per_warp).max(1);
        let block = 256;
        let warps_per_block = block / WARP;
        let grid = warps_needed.div_ceil(warps_per_block);
        let mat = &self.mat;
        dev.launch("csr_vector", grid, block, &|blk| {
            blk.for_each_warp(&mut |warp| {
                let warp_id = warp.global_warp_id();
                let base_row = warp_id * groups_per_warp;
                if base_row >= rows {
                    return;
                }
                let live_groups = (rows - base_row).min(groups_per_warp);
                // group is a power of two: shift/mask instead of div/mod
                // in the per-lane loops below.
                let g_shift = group.trailing_zeros() as usize;
                let g_mask = group - 1;
                // lanes belonging to a live group (groups are contiguous
                // from lane 0)
                let mask = gpu_sim::lane_mask(live_groups << g_shift);
                // Row bounds per lane (lane's group's row), fetched in
                // grouped form: lanes of one group share the row index.
                let mut start_gidx = [0usize; WARP];
                let mut end_gidx = [0usize; WARP];
                for g in 0..groups_per_warp {
                    start_gidx[g] = (base_row + g).min(rows);
                    end_gidx[g] = (base_row + g + 1).min(rows);
                }
                let starts = warp.gather_grouped(
                    &mat.row_offsets,
                    &start_gidx[..groups_per_warp],
                    g_shift,
                    mask,
                );
                let ends = warp.gather_grouped(
                    &mat.row_offsets,
                    &end_gidx[..groups_per_warp],
                    g_shift,
                    mask,
                );

                let mut iters = 0usize;
                for g in 0..live_groups {
                    let lane0 = g << g_shift;
                    let len = (ends[lane0] - starts[lane0]) as usize;
                    iters = iters.max(len.div_ceil(group));
                }

                let live_lanes = live_groups << g_shift;
                let mut acc = [T::ZERO; WARP];
                for it in 0..iters {
                    let base_k = it << g_shift;
                    let mut it_mask = 0u32;
                    let mut idx = [0usize; WARP];
                    // Unconditional k store + predicate mask (no per-lane
                    // branch, so the loop vectorizes). Inactive lanes'
                    // idx entries are never read: every gather/scatter
                    // consumer filters through `it_mask`.
                    for (lane, slot) in idx.iter_mut().enumerate().take(live_lanes) {
                        let k = starts[lane] as usize + base_k + (lane & g_mask);
                        it_mask |= u32::from(k < ends[lane] as usize) << lane;
                        *slot = k;
                    }
                    if it_mask == 0 {
                        continue;
                    }
                    let (cols, vals) = warp.gather2(&mat.col_indices, &mat.values, &idx, it_mask);
                    let xi: [usize; WARP] = std::array::from_fn(|i| cols[i] as usize);
                    let xs = warp.gather_tex(x, &xi, it_mask);
                    // Branchless select: inactive lanes keep their old
                    // acc (the fma result for them uses the gathers'
                    // T::default() lanes — computed, then discarded).
                    for lane in 0..WARP {
                        let upd = vals[lane].mul_add(xs[lane], acc[lane]);
                        if it_mask >> lane & 1 == 1 {
                            acc[lane] = upd;
                        }
                    }
                    warp.charge_fma(it_mask);
                }

                // Intra-group shuffle reduction; group-leader lanes write y.
                let reduced = warp.segmented_reduce_sum(&acc, group);
                let mut w_mask = 0u32;
                let mut w_idx = [0usize; WARP];
                let mut w_vals = [T::ZERO; WARP];
                for g in 0..live_groups {
                    let lane0 = g << g_shift;
                    w_mask |= 1 << lane0;
                    w_idx[lane0] = base_row + g;
                    w_vals[lane0] = reduced[lane0];
                }
                warp.scatter(y, &w_idx, &w_vals, w_mask);
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
    fn group_heuristic_matches_cusp() {
        assert_eq!(group_for_mean(1.0), 2);
        assert_eq!(group_for_mean(2.0), 2);
        assert_eq!(group_for_mean(3.0), 4);
        assert_eq!(group_for_mean(7.5), 8);
        assert_eq!(group_for_mean(12.0), 16);
        assert_eq!(group_for_mean(100.0), 32);
    }

    #[test]
    fn matches_reference_for_all_groups() {
        let m = test_matrix(513, 11);
        let dev = Device::new(presets::gtx_titan());
        let x = test_x::<f64>(m.cols());
        let want = m.spmv(&x);
        for group in [1, 2, 4, 8, 16, 32] {
            let eng = CsrVector::with_group(DevCsr::upload(&dev, &m), group);
            let xd = dev.alloc(x.clone());
            let yd = dev.alloc_zeroed::<f64>(m.rows());
            eng.spmv(&dev, &xd, &yd);
            assert_close(yd.as_slice(), &want, 1e-12, &format!("group {group}"));
        }
    }

    #[test]
    fn wide_group_reads_rows_coalesced() {
        // For long rows, group=32 must use far fewer transactions per nnz
        // than scalar-style group=1.
        use graphgen::{generate_power_law, PowerLawConfig};
        let m: sparse_formats::CsrMatrix<f64> = generate_power_law(&PowerLawConfig {
            rows: 256,
            cols: 4096,
            mean_degree: 200.0,
            max_degree: 512,
            pinned_max_rows: 0,
            col_skew: 0.0,
            seed: 8,
            ..Default::default()
        });
        let dev = Device::new(presets::gtx_titan());
        let x = test_x::<f64>(m.cols());
        let run = |group| {
            let eng = CsrVector::with_group(DevCsr::upload(&dev, &m), group);
            let xd = dev.alloc(x.clone());
            let yd = dev.alloc_zeroed::<f64>(m.rows());
            let r = eng.spmv(&dev, &xd, &yd);
            r.counters.transactions
        };
        let t32 = run(32);
        let t1 = run(1);
        assert!(t1 > 2 * t32, "group1 {t1} txns vs group32 {t32}");
    }

    #[test]
    fn default_group_derives_from_mean() {
        let m = test_matrix(1000, 3); // mean ≈ 9
        let dev = Device::new(presets::gtx_titan());
        let eng = CsrVector::new(DevCsr::upload(&dev, &m));
        assert!(eng.group >= 8 && eng.group <= 16, "group {}", eng.group);
    }

    #[test]
    fn single_huge_row_dominates_critical_path() {
        use graphgen::{generate_power_law, PowerLawConfig};
        let m: sparse_formats::CsrMatrix<f64> = generate_power_law(&PowerLawConfig {
            rows: 20_000,
            cols: 20_000,
            mean_degree: 4.0,
            max_degree: 8192,
            pinned_max_rows: 1,
            col_skew: 0.3,
            seed: 21,
            ..Default::default()
        });
        let dev = Device::new(presets::gtx_titan());
        let eng = CsrVector::new(DevCsr::upload(&dev, &m));
        let x = test_x::<f64>(m.cols());
        let xd = dev.alloc(x.clone());
        let yd = dev.alloc_zeroed::<f64>(m.rows());
        let r = eng.spmv(&dev, &xd, &yd);
        assert_close(yd.as_slice(), &m.spmv(&x), 1e-12, "huge row");
        // The tail must make the kernel latency-bound, not bandwidth-bound.
        assert!(
            r.breakdown.latency_s > r.breakdown.memory_s,
            "latency {} vs memory {}",
            r.breakdown.latency_s,
            r.breakdown.memory_s
        );
    }
}
