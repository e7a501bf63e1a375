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
//!
//! With an `Epilogue` (a fused PageRank or RWR wave), each kernel writes
//! `affine.apply(v, row, y)` instead of `y` for the rows it finalizes —
//! the zero-scatter its empty rows, a bin kernel its rows, the static
//! tail its row once the row's atomics have landed (in DP mode the G1
//! rows are finalized by `crate::dynpar`'s finalize kernel) — and each
//! block writes one convergence partial per query.

use crate::matrix::AcsrMatrix;
use gpu_sim::engine::ConcurrentGroup;
use gpu_sim::{BlockCtx, DeviceBuffer, WarpCtx, WARP};
use sparse_formats::Scalar;
use spmv_kernels::epilogue::{squared_diffs, Affine};

/// The affine epilogue of a fused wave (`AcsrEngine::spmm_affine`), as
/// one kernel of the launch group sees it.
#[derive(Clone, Copy)]
pub(crate) struct Epilogue<'a, T> {
    pub affine: &'a Affine<'a, T>,
    /// Each query's current iterate: the SpMM input, read again at the
    /// finalized rows for the convergence terms.
    pub prev: &'a [&'a DeviceBuffer<T>],
    /// Whether `prev` is read through the texture path, like `x`.
    pub texture_x: bool,
    /// `k × per_query` convergence partials, query-major, if requested.
    pub partials: Option<&'a DeviceBuffer<f64>>,
    pub per_query: usize,
    /// This kernel's block 0 writes slot `first_slot` of each query.
    pub first_slot: usize,
}

impl<T: Scalar> Epilogue<'_, T> {
    /// Replace the SpMV values `vals` of the rows under `mask` with query
    /// `v`'s next iterate — the `rwr_update` kernel's arithmetic and
    /// charges.
    pub(crate) fn apply(
        &self,
        warp: &mut WarpCtx,
        v: usize,
        rows: &[usize; WARP],
        vals: &mut [T; WARP],
        mask: u32,
    ) {
        for lane in 0..WARP {
            if mask >> lane & 1 == 1 {
                vals[lane] = self.affine.apply(v, rows[lane], vals[lane]);
            }
        }
        warp.charge_alu(2);
        warp.charge_flops(2 * u64::from(mask.count_ones()));
    }

    /// Read query `v`'s current iterate at the rows under `mask` and
    /// return `(next − r)²` per lane (0 outside `mask`), charged as the
    /// `rwr_update` kernel charges its convergence terms.
    pub(crate) fn convergence(
        &self,
        warp: &mut WarpCtx,
        v: usize,
        rows: &[usize; WARP],
        next: &[T; WARP],
        mask: u32,
    ) -> [f64; WARP] {
        let prev = gather_x(warp, self.prev[v], rows, mask, self.texture_x);
        warp.charge_alu(2);
        warp.charge_flops(2 * u64::from(mask.count_ones()));
        squared_diffs(next, &prev, mask)
    }

    /// The partials slot of query `v` for block `block` of this kernel.
    fn slot(&self, v: usize, block: usize) -> usize {
        v * self.per_query + self.first_slot + block
    }
}

/// One block's convergence partials under construction, as the block
/// holds them in shared memory: each warp deposits the warp tree sum of
/// `(next − r)²` over the rows it finalized, and after the block's
/// barrier the last warp tree-sums the warp sums into the block's one
/// partial per query.
pub(crate) struct BlockPartials {
    /// `sums[v][w]`: warp `w`'s sum for query `v` (0.0 if it finalized
    /// no row).
    sums: Vec<[f64; WARP]>,
}

impl BlockPartials {
    pub(crate) fn deposit(&mut self, warp: &mut WarpCtx, v: usize, d2: &[f64; WARP]) {
        let red = warp.segmented_reduce_sum(d2, WARP);
        warp.charge_alu(1); // the shared-memory store
        self.sums[v][warp.warp_in_block()] = red[0];
    }

    fn write<T: Scalar>(&self, warp: &mut WarpCtx, epi: &Epilogue<T>, warps: usize) {
        let partials = epi
            .partials
            .expect("block partials imply a partials buffer");
        warp.charge_alu(1); // the barrier and the shared-memory loads
        for (v, sums) in self.sums.iter().enumerate() {
            let red = warp.segmented_reduce_sum(sums, warps.next_power_of_two());
            warp.write_coalesced(partials, epi.slot(v, warp.block_idx()), &red, 1);
        }
    }
}

/// Run `body` for every warp of `blk`; when the epilogue writes
/// partials, `body` gets the block's [`BlockPartials`] to deposit into,
/// and the block's last warp writes them.
pub(crate) fn for_each_warp_with_partials<'d, 'k, T: Scalar>(
    blk: &mut BlockCtx<'_, 'd, 'k>,
    epi: Option<&Epilogue<T>>,
    mut body: impl FnMut(&mut WarpCtx<'_, 'd, 'k>, Option<&mut BlockPartials>),
) {
    let warps = blk.warp_count();
    let mut block = epi.filter(|e| e.partials.is_some()).map(|e| BlockPartials {
        sums: vec![[0.0; WARP]; e.prev.len()],
    });
    blk.for_each_warp(&mut |warp| {
        body(warp, block.as_mut());
        if let (Some(e), Some(b)) = (epi, &block) {
            if warp.warp_in_block() + 1 == warps {
                b.write(warp, e, warps);
            }
        }
    });
}

/// Blocks of a [`zero_rows_kernel`] launch over `n` listed rows.
pub(crate) fn zero_rows_grid(n: usize) -> usize {
    n.div_ceil(256).max(1)
}

/// Scatter zeros into every `ys[v]` at the listed rows (covers empty
/// rows and pre-zeroes rows that will be accumulated atomically). The
/// listed rows are read once per warp. With `epi`, the first `empty`
/// entries of the list are empty rows, and they are finalized: they get
/// the epilogue's value of a zero SpMV row. Returns the grid size.
pub(crate) fn zero_rows_kernel<T: Scalar>(
    group: &mut ConcurrentGroup,
    rows_list: &DeviceBuffer<u32>,
    empty: usize,
    ys: &[&DeviceBuffer<T>],
    epi: Option<&Epilogue<T>>,
    name: &str,
) -> usize {
    let n = rows_list.len();
    let block = 256;
    let grid = zero_rows_grid(n);
    group.add(name, grid, block, &|blk| {
        for_each_warp_with_partials(blk, epi, |warp, mut partials| {
            let base = warp.first_thread();
            if base >= n {
                return;
            }
            let live = (n - base).min(WARP);
            let mask = gpu_sim::lane_mask(live);
            let rows = warp.read_coalesced(rows_list, base, mask);
            let idx: [usize; WARP] = std::array::from_fn(|i| rows[i] as usize);
            let finalized = mask & gpu_sim::lane_mask(empty.saturating_sub(base));
            let epi = epi.filter(|_| finalized != 0);
            for (v, y) in ys.iter().enumerate() {
                let mut vals = [T::ZERO; WARP];
                if let Some(e) = epi {
                    e.apply(warp, v, &idx, &mut vals, finalized);
                }
                warp.scatter(y, &idx, &vals, mask);
                if let (Some(e), Some(p)) = (epi, partials.as_deref_mut()) {
                    let d2 = e.convergence(warp, v, &idx, &vals, finalized);
                    p.deposit(warp, v, &d2);
                }
            }
        });
    });
    grid
}

/// Shared inner body: one warp processes `groups_per_warp` rows from
/// `rows_list` starting at list position `list_base`, `group` lanes per
/// row, writing each row's result into every `ys[v]` (with `epi`, the
/// row's next iterate, and its convergence term into `partials`).
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
    epi: Option<&Epilogue<T>>,
    mut partials: Option<&mut BlockPartials>,
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
    for (v, (y, acc)) in ys.iter().zip(&accs).enumerate() {
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
        if let Some(e) = epi {
            e.apply(warp, v, &w_idx, &mut w_vals, w_mask);
        }
        warp.scatter(y, &w_idx, &w_vals, w_mask);
        if let (Some(e), Some(p)) = (epi, partials.as_deref_mut()) {
            let d2 = e.convergence(warp, v, &w_idx, &w_vals, w_mask);
            p.deposit(warp, v, &d2);
        }
    }
}

/// Gather `x[idx]` for the lanes under `mask`, through the texture path
/// when `texture_x` — how every ACSR kernel reads an input vector.
fn gather_x<T: Scalar>(
    warp: &mut WarpCtx,
    x: &DeviceBuffer<T>,
    idx: &[usize; WARP],
    mask: u32,
    texture_x: bool,
) -> [T; WARP] {
    if texture_x {
        warp.gather_tex(x, idx, mask)
    } else {
        warp.gather(x, idx, mask)
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
        let xv = gather_x(warp, x, &xi, mask, texture_x);
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

/// Blocks of a [`bin_kernel`] launch over `n` listed rows, `group`
/// lanes per row.
pub(crate) fn bin_grid(n: usize, group: usize) -> usize {
    let warps = n.div_ceil(WARP / group).max(1);
    (warps * WARP).div_ceil(256).max(1)
}

/// Launch the bin-specific kernel for one bin (Algorithm 2). The batch
/// dimension rides inside each warp's body, so the grid shape does not
/// depend on k. Returns the grid size.
#[allow(clippy::too_many_arguments)]
pub(crate) fn bin_kernel<T: Scalar>(
    launch_group: &mut ConcurrentGroup,
    mat: &AcsrMatrix<T>,
    rows_list: &DeviceBuffer<u32>,
    group: usize,
    texture_x: bool,
    xs: &[&DeviceBuffer<T>],
    ys: &[&DeviceBuffer<T>],
    epi: Option<&Epilogue<T>>,
    name: &str,
) -> usize {
    assert!(group.is_power_of_two() && group <= WARP);
    let groups_per_warp = WARP / group;
    let block = 256;
    let grid = bin_grid(rows_list.len(), group);
    launch_group.add(name, grid, block, &|blk| {
        for_each_warp_with_partials(blk, epi, |warp, partials| {
            let list_base = warp.global_warp_id() * groups_per_warp;
            warp_rows_body(
                warp, mat, rows_list, list_base, group, texture_x, xs, ys, epi, partials,
            );
        });
    });
    grid
}

/// §VIII static long-tail kernel: one 256-thread block per listed row,
/// all 8 warps striding the row; per-warp partial sums are atomically
/// accumulated into the (pre-zeroed) outputs — "static/hard-coded
/// parallelism" in place of dynamic launches. For a fixed vector every
/// warp contributes its partial in the same warp order at any k, and all
/// of a row's atomics stay within its one block (hence one simulator
/// shard), so the accumulated value is bit-stable at any
/// `ACSR_SIM_THREADS` width. With `epi`, the block's last warp then
/// finalizes the row (after the barrier that makes the row's atomics
/// visible): it reads the sum back, writes the next iterate, and writes
/// the row's convergence term as the block's partial. Returns the grid
/// size.
pub(crate) fn static_long_tail_kernel<T: Scalar>(
    group: &mut ConcurrentGroup,
    mat: &AcsrMatrix<T>,
    rows_list: &DeviceBuffer<u32>,
    texture_x: bool,
    xs: &[&DeviceBuffer<T>],
    ys: &[&DeviceBuffer<T>],
    epi: Option<&Epilogue<T>>,
) -> usize {
    let n = rows_list.len();
    if n == 0 {
        return 0;
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
            if let Some(e) = epi.filter(|_| w + 1 == warps_per_block) {
                warp.charge_alu(1); // the barrier
                let rows = [row; WARP];
                for (v, y) in ys.iter().enumerate() {
                    let mut vals = warp.gather(y, &rows, 1);
                    e.apply(warp, v, &rows, &mut vals, 1);
                    warp.scatter(y, &rows, &vals, 1);
                    if let Some(partials) = e.partials {
                        let d2 = e.convergence(warp, v, &rows, &vals, 1);
                        warp.write_coalesced(partials, e.slot(v, row_slot), &d2, 1);
                    }
                }
            }
        });
    });
    n
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
        zero_rows_kernel(&mut g, &list, 0, &[&y], None, "zero");
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
                None,
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
        static_long_tail_kernel(&mut g, &a, &list, true, &[&xd], &[&y], None);
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
