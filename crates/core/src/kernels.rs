//! Bin-specific SpMV kernels (Algorithm 2) and the §VIII static
//! long-tail kernel.
//!
//! Each bin's kernel gives every row a thread group of
//! `2^(bin-1)` lanes (capped at one warp), so rows run at most two
//! strided iterations — the divergence-free execution binning buys.
//!
//! Every kernel here is batched: it computes `ys[v] = A * xs[v]` for a
//! batch of k vectors, gathering row lists, row bounds, columns and
//! values once and reusing them for all k. Single-vector SpMV is the
//! k = 1 case. Per vector, each kernel performs the same float-op
//! sequence at any k (same `mul_add` order, same segmented reduction,
//! same scatter or atomic), so a vector's result does not depend on the
//! batch it rides in.

use crate::matrix::AcsrMatrix;
use gpu_sim::engine::ConcurrentGroup;
use gpu_sim::{DeviceBuffer, WarpCtx, WARP};
use sparse_formats::Scalar;

/// Scatter zeros into every `ys[v]` at the listed rows (covers empty
/// rows and pre-zeroes rows that will be accumulated atomically). The
/// listed rows are read once per warp.
pub(crate) fn zero_rows_kernel<T: Scalar>(
    group: &mut ConcurrentGroup,
    rows_list: &DeviceBuffer<u32>,
    ys: &[&DeviceBuffer<T>],
    name: &str,
) {
    let n = rows_list.len();
    let block = 256;
    let grid = n.div_ceil(block).max(1);
    group.add(name, grid, block, &|blk| {
        blk.for_each_warp(&mut |warp| {
            let base = warp.first_thread();
            if base >= n {
                return;
            }
            let live = (n - base).min(WARP);
            let mask = gpu_sim::lane_mask(live);
            let rows = warp.read_coalesced(rows_list, base, mask);
            let idx: [usize; WARP] = std::array::from_fn(|i| rows[i] as usize);
            let zeros = [T::ZERO; WARP];
            for y in ys {
                warp.scatter(y, &idx, &zeros, mask);
            }
        });
    });
}

/// Shared inner body: one warp processes `groups_per_warp` rows from
/// `rows_list` starting at list position `list_base`, `group` lanes per
/// row, writing each row's result into every `ys[v]`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn warp_rows_body<T: Scalar>(
    warp: &mut WarpCtx,
    mat: &AcsrMatrix<T>,
    rows_list: &DeviceBuffer<u32>,
    list_base: usize,
    group: usize,
    texture_x: bool,
    xs: &[&DeviceBuffer<T>],
    ys: &[&DeviceBuffer<T>],
) {
    let n = rows_list.len();
    if list_base >= n {
        return;
    }
    let groups_per_warp = WARP / group;
    let live_groups = (n - list_base).min(groups_per_warp);
    let mut mask = 0u32;
    for lane in 0..WARP {
        if lane / group < live_groups {
            mask |= 1 << lane;
        }
    }
    // Every lane of a group reads its group's list slot (one transaction).
    let lidx: [usize; WARP] =
        std::array::from_fn(|l| (list_base + (l / group).min(live_groups - 1)).min(n - 1));
    let rows = warp.gather(rows_list, &lidx, mask);
    let ridx: [usize; WARP] = std::array::from_fn(|l| rows[l] as usize);
    let starts = warp.gather(&mat.row_start, &ridx, mask);
    let lens = warp.gather(&mat.row_len, &ridx, mask);

    let mut iters = 0usize;
    for g in 0..live_groups {
        iters = iters.max((lens[g * group] as usize).div_ceil(group));
    }
    let mut accs = vec![[T::ZERO; WARP]; xs.len()];
    for it in 0..iters {
        let mut it_mask = 0u32;
        let mut idx = [0usize; WARP];
        for lane in 0..WARP {
            if mask >> lane & 1 == 0 {
                continue;
            }
            let o = it * group + lane % group;
            if o < lens[lane] as usize {
                it_mask |= 1 << lane;
                idx[lane] = starts[lane] as usize + o;
            }
        }
        if it_mask == 0 {
            continue;
        }
        accumulate(warp, mat, &idx, it_mask, texture_x, xs, &mut accs);
    }

    // Intra-group shuffle reduction (Algorithm 2's reduction step);
    // group leaders write their row's result.
    for (y, acc) in ys.iter().zip(&accs) {
        let reduced = warp.segmented_reduce_sum(acc, group);
        let mut w_mask = 0u32;
        let mut w_idx = [0usize; WARP];
        let mut w_vals = [T::ZERO; WARP];
        for g in 0..live_groups {
            let lane0 = g * group;
            w_mask |= 1 << lane0;
            w_idx[lane0] = rows[lane0] as usize;
            w_vals[lane0] = reduced[lane0];
        }
        warp.scatter(y, &w_idx, &w_vals, w_mask);
    }
}

/// One strided step shared by every ACSR kernel: gather the matrix
/// entries at `idx` once, then for each vector of the batch gather
/// `x[col]` (through the texture path when `texture_x`) and fold
/// `value * x[col]` into that vector's per-lane accumulator.
pub(crate) fn accumulate<T: Scalar>(
    warp: &mut WarpCtx,
    mat: &AcsrMatrix<T>,
    idx: &[usize; WARP],
    mask: u32,
    texture_x: bool,
    xs: &[&DeviceBuffer<T>],
    accs: &mut [[T; WARP]],
) {
    let cols = warp.gather(&mat.col_indices, idx, mask);
    let vals = warp.gather(&mat.values, idx, mask);
    let xi: [usize; WARP] = std::array::from_fn(|i| cols[i] as usize);
    for (x, acc) in xs.iter().zip(accs) {
        let xv = if texture_x {
            warp.gather_tex(x, &xi, mask)
        } else {
            warp.gather(x, &xi, mask)
        };
        for lane in 0..WARP {
            if mask >> lane & 1 == 1 {
                acc[lane] = vals[lane].mul_add(xv[lane], acc[lane]);
            }
        }
        warp.charge_fma(mask);
    }
}

/// Finish a warp's share of one long row: reduce each vector's
/// accumulator across the warp, then the warp leader atomically adds the
/// partial into `ys[v][row]` (the inter-warp reduction; the row must be
/// pre-zeroed).
pub(crate) fn atomic_row_partials<T: Scalar>(
    warp: &mut WarpCtx,
    row: usize,
    accs: &[[T; WARP]],
    ys: &[&DeviceBuffer<T>],
) {
    let idx = [row; WARP];
    for (y, acc) in ys.iter().zip(accs) {
        let reduced = warp.segmented_reduce_sum(acc, WARP);
        warp.atomic_rmw(y, &idx, &reduced, 1, |a, b| a + b);
    }
}

/// Launch the bin-specific kernel for one bin (Algorithm 2). The batch
/// dimension rides inside each warp's body, so the grid shape does not
/// depend on k.
#[allow(clippy::too_many_arguments)]
pub(crate) fn bin_kernel<T: Scalar>(
    launch_group: &mut ConcurrentGroup,
    mat: &AcsrMatrix<T>,
    rows_list: &DeviceBuffer<u32>,
    group: usize,
    texture_x: bool,
    xs: &[&DeviceBuffer<T>],
    ys: &[&DeviceBuffer<T>],
    name: &str,
) {
    assert!(group.is_power_of_two() && group <= WARP);
    let n = rows_list.len();
    let groups_per_warp = WARP / group;
    let warps = n.div_ceil(groups_per_warp).max(1);
    let block = 256;
    let grid = (warps * WARP).div_ceil(block).max(1);
    launch_group.add(name, grid, block, &|blk| {
        blk.for_each_warp(&mut |warp| {
            let list_base = warp.global_warp_id() * groups_per_warp;
            warp_rows_body(warp, mat, rows_list, list_base, group, texture_x, xs, ys);
        });
    });
}

/// §VIII static long-tail kernel: one 256-thread block per listed row,
/// all 8 warps striding the row; per-warp partial sums are atomically
/// accumulated into the (pre-zeroed) outputs — "static/hard-coded
/// parallelism" in place of dynamic launches. For a fixed vector every
/// warp contributes its partial in the same warp order at any k, and all
/// of a row's atomics stay within its one block (hence one simulator
/// shard), so the accumulated value is bit-stable at any
/// `ACSR_SIM_THREADS` width.
pub(crate) fn static_long_tail_kernel<T: Scalar>(
    group: &mut ConcurrentGroup,
    mat: &AcsrMatrix<T>,
    rows_list: &DeviceBuffer<u32>,
    texture_x: bool,
    xs: &[&DeviceBuffer<T>],
    ys: &[&DeviceBuffer<T>],
) {
    let n = rows_list.len();
    if n == 0 {
        return;
    }
    let block = 256;
    let warps_per_block = block / WARP;
    group.add("acsr_static_tail", n, block, &|blk| {
        let row_slot = blk.block_idx();
        blk.for_each_warp(&mut |warp| {
            // all lanes read the same list slot / row descriptor
            let lidx = [row_slot; WARP];
            let rows = warp.gather(rows_list, &lidx, gpu_sim::FULL_MASK);
            let row = rows[0] as usize;
            let starts = warp.gather(&mat.row_start, &[row; WARP], 1);
            let lens = warp.gather(&mat.row_len, &[row; WARP], 1);
            let start = starts[0] as usize;
            let len = lens[0] as usize;
            let w = warp.warp_in_block();
            let stride = warps_per_block * WARP;
            let mut accs = vec![[T::ZERO; WARP]; xs.len()];
            let mut off = w * WARP;
            while off < len {
                let mut m = 0u32;
                let mut idx = [0usize; WARP];
                for (lane, slot) in idx.iter_mut().enumerate() {
                    if off + lane < len {
                        m |= 1 << lane;
                        *slot = start + off + lane;
                    }
                }
                accumulate(warp, mat, &idx, m, texture_x, xs, &mut accs);
                off += stride;
            }
            atomic_row_partials(warp, row, &accs, ys);
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binning::Binning;
    use crate::config::AcsrConfig;
    use gpu_sim::{presets, Device};
    use graphgen::{generate_power_law, PowerLawConfig};
    use sparse_formats::CsrMatrix;

    fn matrix(rows: usize, max: usize, seed: u64) -> CsrMatrix<f64> {
        generate_power_law(&PowerLawConfig {
            rows,
            cols: rows,
            mean_degree: 8.0,
            max_degree: max,
            pinned_max_rows: 2,
            col_skew: 0.4,
            seed,
            ..Default::default()
        })
    }

    #[test]
    fn zero_rows_kernel_zeroes_only_listed_rows() {
        let dev = Device::new(presets::gtx_titan());
        let list = dev.alloc(vec![1u32, 3]);
        let y = dev.alloc(vec![9.0f64; 5]);
        let mut g = dev.launch_group("t");
        zero_rows_kernel(&mut g, &list, &[&y], "zero");
        g.finish();
        assert_eq!(y.as_slice(), &[9.0, 0.0, 9.0, 0.0, 9.0]);
    }

    #[test]
    fn bin_kernel_computes_its_rows() {
        let m = matrix(600, 64, 91);
        let dev = Device::new(presets::gtx_titan());
        let cfg = AcsrConfig::for_device(dev.config());
        let a = AcsrMatrix::from_csr(&dev, &m, &cfg);
        let (binning, _) = Binning::build((0..m.rows()).map(|r| m.row_nnz(r)), &cfg);
        let x: Vec<f64> = (0..m.cols()).map(|i| 1.0 + (i % 5) as f64).collect();
        let xd = dev.alloc(x.clone());
        let want = m.spmv(&x);
        for &bin in binning.g2_bins() {
            let rows = binning.bin_rows(bin).to_vec();
            let list = dev.alloc(rows.clone());
            let y = dev.alloc(vec![-1.0f64; m.rows()]);
            let mut g = dev.launch_group("t");
            bin_kernel(
                &mut g,
                &a,
                &list,
                Binning::group_for_bin(bin),
                true,
                &[&xd],
                &[&y],
                "bin",
            );
            g.finish();
            for &r in &rows {
                let got = y.as_slice()[r as usize];
                assert!(
                    (got - want[r as usize]).abs() < 1e-9,
                    "bin {bin} row {r}: {got} vs {}",
                    want[r as usize]
                );
            }
        }
    }

    #[test]
    fn static_tail_kernel_handles_huge_rows() {
        let m = matrix(2000, 1500, 92);
        let dev = Device::new(presets::gtx_titan());
        let cfg = AcsrConfig::for_device(dev.config());
        let a = AcsrMatrix::from_csr(&dev, &m, &cfg);
        let big: Vec<u32> = (0..m.rows() as u32)
            .filter(|&r| m.row_nnz(r as usize) > 1024)
            .collect();
        assert!(!big.is_empty());
        let x: Vec<f64> = (0..m.cols()).map(|i| 0.5 + (i % 3) as f64).collect();
        let xd = dev.alloc(x.clone());
        let want = m.spmv(&x);
        let list = dev.alloc(big.clone());
        let y = dev.alloc_zeroed::<f64>(m.rows());
        let mut g = dev.launch_group("t");
        static_long_tail_kernel(&mut g, &a, &list, true, &[&xd], &[&y]);
        g.finish();
        for &r in &big {
            let got = y.as_slice()[r as usize];
            let w = want[r as usize];
            assert!(
                (got - w).abs() / w.abs().max(1.0) < 1e-9,
                "row {r}: {got} vs {w}"
            );
        }
    }
}
