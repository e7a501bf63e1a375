//! Dynamic-parallelism path — Algorithms 3 and 4.
//!
//! A *parent* grid holds one control thread per long-tail (G1) row. Each
//! parent thread reads its row's bounds and launches a *row-specific
//! child grid* of `ceil(nnz / ThreadLoad)` worker threads on its own
//! stream. Children stride the row coalesced, reduce within warps via
//! shuffles, and finish with an inter-warp reduction (atomics into the
//! pre-zeroed output) — Algorithm 4's two-level reduction. Parent threads
//! "are only used for control purposes and do not perform any actual
//! computations".
//!
//! Like the bin kernels, the pair is batched: one child grid per G1 row
//! serves all k vectors of the batch (its shape does not depend on k, so
//! a batch amortizes the device-side launch overhead k-fold), and
//! single-vector SpMV is the k = 1 case.
//!
//! A fused wave (`AcsrEngine::spmm_affine`) cannot finalize a G1 row in
//! the parent block that launched its children, since those children
//! finish after it. `dp_finalize_kernel` does it instead, one more
//! kernel of the launch group on a stream that waits on an event
//! recorded after the parent: a DP parent grid completes only once its
//! child grids have, so every G1 row's sum is complete by then.

use crate::kernels::{accumulate, atomic_row_partials, for_each_warp_with_partials, Epilogue};
use crate::matrix::AcsrMatrix;
use gpu_sim::engine::ConcurrentGroup;
use gpu_sim::{lane_mask, DeviceBuffer, WARP};
use sparse_formats::Scalar;

/// Launch the DP parent kernel over the G1 row list. `ys` rows for G1
/// must be pre-zeroed (the engine's zero-scatter pass does this).
#[allow(clippy::too_many_arguments)]
pub(crate) fn dp_parent_kernel<T: Scalar>(
    group: &mut ConcurrentGroup,
    mat: &AcsrMatrix<T>,
    g1_rows: &DeviceBuffer<u32>,
    thread_load: usize,
    texture_x: bool,
    xs: &[&DeviceBuffer<T>],
    ys: &[&DeviceBuffer<T>],
) {
    let n = g1_rows.len();
    if n == 0 {
        return;
    }
    let thread_load = thread_load.max(1);
    let block = 256;
    let grid = n.div_ceil(block).max(1);
    group.add("acsr_dp_parent", grid, block, &|blk| {
        blk.for_each_warp(&mut |warp| {
            let base = warp.first_thread();
            if base >= n {
                return;
            }
            let live = (n - base).min(WARP);
            let mask = gpu_sim::lane_mask(live);
            let rows = warp.read_coalesced(g1_rows, base, mask);
            let ridx: [usize; WARP] = std::array::from_fn(|i| rows[i] as usize);
            let starts = warp.gather(&mat.row_start, &ridx, mask);
            let lens = warp.gather(&mat.row_len, &ridx, mask);
            // Each parent thread (lane) launches its row's child grid.
            for lane in 0..live {
                let row = rows[lane] as usize;
                let start = starts[lane] as usize;
                let len = lens[lane] as usize;
                if len == 0 {
                    continue;
                }
                let b_size = len.div_ceil(thread_load);
                let child_blocks = b_size.div_ceil(256).max(1);
                let total_threads = child_blocks * 256;
                warp.launch_child(child_blocks, 256, move |child| {
                    row_child_body(
                        child,
                        mat,
                        row,
                        start,
                        len,
                        total_threads,
                        texture_x,
                        xs,
                        ys,
                    );
                });
            }
        });
    });
}

/// Blocks of a [`dp_finalize_kernel`] launch over `n` G1 rows.
pub(crate) fn dp_finalize_grid(n: usize) -> usize {
    n.div_ceil(256)
}

/// Finalize the G1 rows of a fused DP wave, after `acsr_dp_parent` and
/// its child grids: one lane per G1 list entry reads the row's SpMV sum
/// from each `ys[v]`, writes `epi.affine.apply(v, row, sum)` in place,
/// and deposits the row's convergence term into its block's partials
/// (one per 256 entries). Every charge depends only on the list, so
/// the report is the same at any host width, whatever order the
/// children's atomics landed in. Returns the grid size.
pub(crate) fn dp_finalize_kernel<T: Scalar>(
    group: &mut ConcurrentGroup,
    g1_rows: &DeviceBuffer<u32>,
    ys: &[&DeviceBuffer<T>],
    epi: &Epilogue<T>,
) -> usize {
    let n = g1_rows.len();
    let grid = dp_finalize_grid(n);
    group.add("acsr_dp_finalize", grid, 256, &|blk| {
        for_each_warp_with_partials(blk, Some(epi), |warp, mut partials| {
            let base = warp.first_thread();
            if base >= n {
                return;
            }
            let mask = lane_mask(n - base);
            let rows = warp.read_coalesced(g1_rows, base, mask);
            let idx: [usize; WARP] = std::array::from_fn(|i| rows[i] as usize);
            for (v, y) in ys.iter().enumerate() {
                let mut vals = warp.gather(y, &idx, mask);
                epi.apply(warp, v, &idx, &mut vals, mask);
                warp.scatter(y, &idx, &vals, mask);
                if let Some(p) = partials.as_deref_mut() {
                    let d2 = epi.convergence(warp, v, &idx, &vals, mask);
                    p.deposit(warp, v, &d2);
                }
            }
        });
    });
    grid
}

/// Algorithm 4: the row-specific worker grid body. Threads stride the row
/// (`element = iter * total_threads + tid`), so consecutive lanes always
/// read consecutive addresses.
#[allow(clippy::too_many_arguments)]
fn row_child_body<T: Scalar>(
    child: &mut gpu_sim::BlockCtx,
    mat: &AcsrMatrix<T>,
    row: usize,
    start: usize,
    len: usize,
    total_threads: usize,
    texture_x: bool,
    xs: &[&DeviceBuffer<T>],
    ys: &[&DeviceBuffer<T>],
) {
    let block_off = child.thread_offset();
    child.for_each_warp(&mut |warp| {
        let warp_off = block_off + warp.warp_in_block() * WARP;
        let mut accs = vec![[T::ZERO; WARP]; xs.len()];
        let mut iter = 0usize;
        loop {
            let base = iter * total_threads + warp_off;
            if base >= len {
                break;
            }
            let mut m = 0u32;
            let mut idx = [0usize; WARP];
            for (lane, slot) in idx.iter_mut().enumerate() {
                if base + lane < len {
                    m |= 1 << lane;
                    *slot = start + base + lane;
                }
            }
            accumulate(warp, mat, &idx, m, texture_x, xs, &mut accs);
            iter += 1;
        }
        // Intra-warp reduction, then the inter-warp reduction via one
        // atomic per warp.
        atomic_row_partials(warp, row, &accs, ys);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AcsrConfig;
    use gpu_sim::{presets, Device, RunReport};
    use graphgen::{generate_power_law, PowerLawConfig};

    /// Test helper: run the parent kernel as its own group.
    #[allow(clippy::too_many_arguments)]
    fn run_dp(
        dev: &Device,
        mat: &AcsrMatrix<f64>,
        list: &DeviceBuffer<u32>,
        thread_load: usize,
        x: &DeviceBuffer<f64>,
        y: &DeviceBuffer<f64>,
    ) -> RunReport {
        let mut group = dev.launch_group("dp_test");
        dp_parent_kernel(&mut group, mat, list, thread_load, true, &[x], &[y]);
        group.finish()
    }

    fn long_tail_matrix() -> sparse_formats::CsrMatrix<f64> {
        generate_power_law(&PowerLawConfig {
            rows: 3000,
            cols: 3000,
            mean_degree: 5.0,
            max_degree: 1400,
            pinned_max_rows: 3,
            col_skew: 0.3,
            seed: 97,
            ..Default::default()
        })
    }

    #[test]
    fn children_compute_their_rows_exactly() {
        let m = long_tail_matrix();
        let dev = Device::new(presets::gtx_titan());
        let cfg = AcsrConfig::for_device(dev.config());
        let a = AcsrMatrix::from_csr(&dev, &m, &cfg);
        let big: Vec<u32> = (0..m.rows() as u32)
            .filter(|&r| m.row_nnz(r as usize) > 1024)
            .collect();
        assert_eq!(big.len(), 3);
        let x: Vec<f64> = (0..m.cols()).map(|i| 1.0 + (i % 4) as f64 * 0.5).collect();
        let xd = dev.alloc(x.clone());
        let want = m.spmv(&x);
        let list = dev.alloc(big.clone());
        let y = dev.alloc_zeroed::<f64>(m.rows());
        let r = run_dp(&dev, &a, &list, 4, &xd, &y);
        assert_eq!(r.counters.child_launches, 3);
        for &row in &big {
            let got = y.as_slice()[row as usize];
            let w = want[row as usize];
            assert!((got - w).abs() / w.abs().max(1.0) < 1e-9, "row {row}");
        }
        // a row outside the G1 list stays untouched (zero)
        let small = (0..m.rows() as u32)
            .find(|r| !big.contains(r))
            .expect("some row is small");
        assert_eq!(y.as_slice()[small as usize], 0.0);
    }

    #[test]
    fn thread_load_trades_children_size_for_count() {
        let m = long_tail_matrix();
        let dev = Device::new(presets::gtx_titan());
        let cfg = AcsrConfig::for_device(dev.config());
        let a = AcsrMatrix::from_csr(&dev, &m, &cfg);
        let big: Vec<u32> = (0..m.rows() as u32)
            .filter(|&r| m.row_nnz(r as usize) > 1024)
            .collect();
        let x: Vec<f64> = (0..m.cols()).map(|_| 1.0).collect();
        let xd = dev.alloc(x);
        let list = dev.alloc(big);
        let run = |tl: usize| {
            let y = dev.alloc_zeroed::<f64>(m.rows());
            run_dp(&dev, &a, &list, tl, &xd, &y)
        };
        let r1 = run(1);
        let r8 = run(8);
        // same children count, but far fewer worker warps with coarsening
        assert_eq!(r1.counters.child_launches, r8.counters.child_launches);
        assert!(r1.counters.warps > r8.counters.warps);
    }

    #[test]
    fn empty_g1_list_is_a_noop() {
        let m = long_tail_matrix();
        let dev = Device::new(presets::gtx_titan());
        let cfg = AcsrConfig::for_device(dev.config());
        let a = AcsrMatrix::from_csr(&dev, &m, &cfg);
        let xd = dev.alloc(vec![1.0f64; m.cols()]);
        let list = dev.alloc(Vec::<u32>::new());
        let y = dev.alloc_zeroed::<f64>(m.rows());
        let r = run_dp(&dev, &a, &list, 4, &xd, &y);
        assert_eq!(r.counters.child_launches, 0);
    }
}
