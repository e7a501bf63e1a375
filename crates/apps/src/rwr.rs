//! Random Walk with Restart (Eq. 8).
//!
//! `r^(k+1) = c·(W × r^(k)) + (1-c)·e_i` with `W` the column-normalized
//! adjacency, restart probability `c`, and `e_i` the seed indicator.
//! Converges to the relevance of every node to seed `i`.

use crate::ops::l2_distance_sq;
use crate::{IterParams, SolveResult};
use gpu_sim::{lane_mask, tree_reduce_sum, Device, DeviceBuffer, RunReport, WARP};
use sparse_formats::{CsrMatrix, Scalar};
use spmv_kernels::GpuSpmv;
use spmv_pipeline::SpmvPlan;

/// Build the RWR operator `W` (column-normalized adjacency).
pub fn rwr_operator<T: Scalar>(adjacency: &CsrMatrix<T>) -> CsrMatrix<T> {
    assert_eq!(
        adjacency.rows(),
        adjacency.cols(),
        "adjacency must be square"
    );
    adjacency.column_normalize()
}

/// The optional convergence output of [`rwr_update_multi`]: the update
/// also reads each query's current iterate and writes one
/// `‖next − r‖²` partial per warp, so a caller that keeps its iterates
/// on the device reads back only `k × ⌈n/32⌉` partials per iteration.
pub struct Convergence<'a, T> {
    /// Each query's current iterate `r`, parallel to the update's
    /// `outs` (which receive the next iterate).
    pub prev: &'a [&'a DeviceBuffer<T>],
    /// `k × ⌈n/32⌉` partials, query-major: `partials[v·⌈n/32⌉ + b]` is
    /// the warp tree sum of `(next − r)²` (in `f64`) over rows
    /// `32b .. 32b + 32` of query `v`. [`convergence_partials`] computes
    /// the same values on the host.
    pub partials: &'a DeviceBuffer<f64>,
}

/// The RWR update kernel, batched: one launch applies `outs[v] = c[v] *
/// xs[v] + restart[v] * e_seed[v]` for every query of the batch (a
/// single query is the k = 1 case). `seeds[v]` is the seed's index in
/// these vectors, or `None` when the vectors are a device-local row
/// slice that does not contain the seed (multi-device serving). Each
/// vector's arithmetic is the same at any k, so a query's trajectory is
/// independent of the batch it rides in. With `conv`, the same launch
/// also writes the convergence partials; without it, the launch reads
/// and writes only `xs` and `outs`.
pub fn rwr_update_multi<T: Scalar>(
    dev: &Device,
    xs: &[&DeviceBuffer<T>],
    c: &[T],
    restart: &[T],
    seeds: &[Option<usize>],
    outs: &[&DeviceBuffer<T>],
    conv: Option<&Convergence<'_, T>>,
) -> RunReport {
    let k = xs.len();
    assert!(
        k == c.len() && k == restart.len() && k == seeds.len() && k == outs.len(),
        "batch slice length mismatch"
    );
    if k == 0 {
        return RunReport::default();
    }
    let n = xs[0].len();
    let blocks = n.div_ceil(WARP);
    if let Some(conv) = conv {
        assert_eq!(conv.prev.len(), k, "one previous iterate per query");
        assert_eq!(conv.partials.len(), k * blocks, "k × ⌈n/32⌉ partials");
    }
    let block = 256;
    let grid = n.div_ceil(block).max(1);
    dev.launch("rwr_update", grid, block, &|blk| {
        blk.for_each_warp(&mut |warp| {
            let base = warp.first_thread();
            if base >= n {
                return;
            }
            let mask = lane_mask(n - base);
            for v in 0..k {
                let xv = warp.read_coalesced(xs[v], base, mask);
                let mut vals = [T::ZERO; WARP];
                for lane in 0..WARP {
                    if mask >> lane & 1 == 1 {
                        vals[lane] = c[v] * xv[lane];
                        if Some(base + lane) == seeds[v] {
                            vals[lane] += restart[v];
                        }
                    }
                }
                warp.charge_alu(2);
                warp.charge_flops(2 * u64::from(mask.count_ones()));
                warp.write_coalesced(outs[v], base, &vals, mask);
                if let Some(conv) = conv {
                    let rv = warp.read_coalesced(conv.prev[v], base, mask);
                    let d2 = squared_diffs(&vals, &rv, mask);
                    warp.charge_alu(2);
                    warp.charge_flops(2 * u64::from(mask.count_ones()));
                    let red = warp.segmented_reduce_sum(&d2, WARP);
                    warp.write_coalesced(conv.partials, v * blocks + base / WARP, &red, 1);
                }
            }
        });
    })
}

/// Lane-wise `(next − prev)²` in `f64`; lanes outside `mask` are 0.
fn squared_diffs<T: Scalar>(next: &[T; WARP], prev: &[T; WARP], mask: u32) -> [f64; WARP] {
    let mut d2 = [0.0f64; WARP];
    for lane in 0..WARP {
        if mask >> lane & 1 == 1 {
            let d = next[lane].to_f64() - prev[lane].to_f64();
            d2[lane] = d * d;
        }
    }
    d2
}

/// The convergence partials of one query computed on the host, bit for
/// bit what [`rwr_update_multi`]'s [`Convergence`] output writes: per
/// 32-row block, the warp tree sum ([`tree_reduce_sum`]) of
/// `(next − prev)²`. Callers whose iterate is split across devices
/// gather it and compute the partials here.
pub fn convergence_partials<T: Scalar>(next: &[T], prev: &[T]) -> Vec<f64> {
    assert_eq!(next.len(), prev.len(), "iterate length mismatch");
    next.chunks(WARP)
        .zip(prev.chunks(WARP))
        .map(|(a, b)| {
            let (mut next, mut prev) = ([T::ZERO; WARP], [T::ZERO; WARP]);
            next[..a.len()].copy_from_slice(a);
            prev[..b.len()].copy_from_slice(b);
            tree_reduce_sum(&squared_diffs(&next, &prev, lane_mask(a.len())), WARP)[0]
        })
        .collect()
}

/// `‖next − r‖²` from one query's convergence partials, added in
/// ascending block order — the one summation order every serving path
/// uses, so convergence does not depend on where the partials came from.
pub fn sum_partials(partials: &[f64]) -> f64 {
    partials.iter().fold(0.0, |acc, &p| acc + p)
}

/// Restart initialization, batched: one launch writes `r⁰ = e_seeds[v]`
/// into `outs[v]` for every query of the batch. The seeds are kernel
/// arguments, so no vector crosses PCIe.
pub fn rwr_init_multi<T: Scalar>(
    dev: &Device,
    seeds: &[usize],
    outs: &[&DeviceBuffer<T>],
) -> RunReport {
    let k = outs.len();
    assert_eq!(seeds.len(), k, "one seed per output");
    if k == 0 {
        return RunReport::default();
    }
    let n = outs[0].len();
    let block = 256;
    let grid = n.div_ceil(block).max(1);
    dev.launch("rwr_init", grid, block, &|blk| {
        blk.for_each_warp(&mut |warp| {
            let base = warp.first_thread();
            if base >= n {
                return;
            }
            let mask = lane_mask(n - base);
            for v in 0..k {
                let mut vals = [T::ZERO; WARP];
                if let Some(lane) = seeds[v].checked_sub(base).filter(|&l| l < WARP) {
                    vals[lane] = T::ONE;
                }
                warp.charge_alu(1);
                warp.write_coalesced(outs[v], base, &vals, mask);
            }
        });
    })
}

/// Run RWR from `seed` on a planned `W` (any registry format).
pub fn rwr_gpu<T: Scalar>(
    dev: &Device,
    plan: &SpmvPlan<T>,
    seed: usize,
    restart_c: f64,
    params: &IterParams,
) -> SolveResult<T> {
    let engine: &dyn GpuSpmv<T> = plan;
    let n = engine.rows();
    assert_eq!(engine.cols(), n, "RWR operator must be square");
    assert!(seed < n, "seed out of range");
    let c = T::from_f64(restart_c);
    let restart = T::from_f64(1.0 - restart_c);

    // r⁰ = e_seed
    let mut r0 = vec![T::ZERO; n];
    r0[seed] = T::ONE;
    let mut r = dev.alloc(r0);
    let tmp = dev.alloc_zeroed::<T>(n);
    let mut next = dev.alloc_zeroed::<T>(n);
    let mut report = RunReport::default();
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        report = report.then(&engine.spmv(dev, &r, &tmp));
        report = report.then(&rwr_update_multi(
            dev,
            &[&tmp],
            &[c],
            &[restart],
            &[Some(seed)],
            &[&next],
            None,
        ));
        let (dist2, dr) = l2_distance_sq(dev, &next, &r);
        report = report.then(&dr);
        std::mem::swap(&mut r, &mut next);
        if dist2.sqrt() < params.epsilon || iterations >= params.max_iters {
            break;
        }
    }
    // final relevance vector is copied back to the host
    report = report.then(&dev.record_dtoh("rwr_scores_d2h", (n * std::mem::size_of::<T>()) as u64));
    SolveResult {
        scores: r.into_vec(),
        iterations,
        report,
    }
}

/// CPU reference RWR.
pub fn rwr_cpu<T: Scalar>(
    w: &CsrMatrix<T>,
    seed: usize,
    restart_c: f64,
    params: &IterParams,
) -> (Vec<T>, usize) {
    let n = w.rows();
    let c = T::from_f64(restart_c);
    let restart = T::from_f64(1.0 - restart_c);
    let mut r = vec![T::ZERO; n];
    r[seed] = T::ONE;
    let mut tmp = vec![T::ZERO; n];
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        w.spmv_into(&r, &mut tmp);
        let mut dist2 = 0.0f64;
        for j in 0..n {
            let mut next = c * tmp[j];
            if j == seed {
                next += restart;
            }
            let d = next.to_f64() - r[j].to_f64();
            dist2 += d * d;
            r[j] = next;
        }
        if dist2.sqrt() < params.epsilon || iterations >= params.max_iters {
            return (r, iterations);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::presets;
    use graphgen::{generate_power_law, PowerLawConfig};
    use spmv_pipeline::{FormatRegistry, PlanBudget};

    fn plan_for(dev: &Device, m: &CsrMatrix<f64>) -> SpmvPlan<f64> {
        FormatRegistry::<f64>::with_all()
            .plan("ACSR", dev, m, &PlanBudget::default())
            .unwrap()
    }

    fn graph(rows: usize, seed: u64) -> CsrMatrix<f64> {
        generate_power_law(&PowerLawConfig {
            rows,
            cols: rows,
            mean_degree: 6.0,
            max_degree: 250,
            pinned_max_rows: 1,
            col_skew: 0.4,
            seed,
            ..Default::default()
        })
    }

    #[test]
    fn gpu_rwr_matches_cpu_reference() {
        let g = graph(500, 151);
        let w = rwr_operator(&g);
        let dev = Device::new(presets::gtx_titan());
        let engine = plan_for(&dev, &w);
        let params = IterParams::default();
        let gpu = rwr_gpu(&dev, &engine, 3, 0.85, &params);
        let (cpu, cpu_iters) = rwr_cpu(&w, 3, 0.85, &params);
        assert_eq!(gpu.iterations, cpu_iters);
        let d = sparse_formats::scalar::rel_l2_distance(&gpu.scores, &cpu);
        assert!(d < 1e-10, "rel distance {d}");
    }

    #[test]
    fn seed_has_highest_relevance() {
        let g = graph(300, 152);
        let w = rwr_operator(&g);
        let (r, _) = rwr_cpu(&w, 42, 0.85, &IterParams::default());
        let max = r.iter().cloned().fold(f64::MIN, f64::max);
        assert_eq!(r[42], max);
        assert!(r[42] > 0.0);
    }

    #[test]
    fn relevance_mass_is_bounded() {
        let g = graph(300, 153);
        let w = rwr_operator(&g);
        let (r, _) = rwr_cpu(&w, 0, 0.85, &IterParams::default());
        let total: f64 = r.iter().sum();
        assert!(total <= 1.0 + 1e-9 && total > 0.1, "total {total}");
    }

    #[test]
    fn batched_update_matches_single_bitwise() {
        let dev = Device::new(presets::gtx_titan());
        let n = 300usize;
        let k = 3usize;
        let xs_host: Vec<Vec<f64>> = (0..k)
            .map(|v| (0..n).map(|i| 0.5 + ((i + v) % 11) as f64 * 0.3).collect())
            .collect();
        let xs: Vec<_> = xs_host.iter().map(|x| dev.alloc(x.clone())).collect();
        let c = [0.85, 0.5, 0.99].map(f64::from_f64);
        let restart = [0.15, 0.5, 0.01].map(f64::from_f64);
        let seeds = [Some(0usize), Some(299), None];
        let singles: Vec<_> = (0..k)
            .map(|v| {
                let out = dev.alloc_zeroed::<f64>(n);
                rwr_update_multi(
                    &dev,
                    &[&xs[v]],
                    &[c[v]],
                    &[restart[v]],
                    &[seeds[v]],
                    &[&out],
                    None,
                );
                out
            })
            .collect();
        let outs: Vec<_> = (0..k).map(|_| dev.alloc_zeroed::<f64>(n)).collect();
        let xr: Vec<_> = xs.iter().collect();
        let or: Vec<_> = outs.iter().collect();
        let r = rwr_update_multi(&dev, &xr, &c, &restart, &seeds, &or, None);
        assert_eq!(r.launches, 1);
        for v in 0..k {
            for (a, b) in singles[v].as_slice().iter().zip(outs[v].as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "vector {v}");
            }
        }
    }

    /// The fused update's per-warp partials equal the host helper's bit
    /// for bit, and its next iterates equal a launch without the
    /// convergence output, at every block-boundary shape.
    #[test]
    fn fused_convergence_partials_match_host_helper_bitwise() {
        let dev = Device::new(presets::gtx_titan());
        for n in [0usize, 1, 31, 32, 33, 1000] {
            for k in [1usize, 3] {
                let vec = |salt: usize| -> Vec<f64> {
                    (0..n)
                        .map(|i| ((i * 7 + salt * 13) % 17) as f64 / 7.0 - 0.9)
                        .collect()
                };
                let xs: Vec<_> = (0..k).map(|v| dev.alloc(vec(v))).collect();
                let prevs: Vec<_> = (0..k).map(|v| dev.alloc(vec(v + 5))).collect();
                let c = vec![0.85; k];
                let restart = vec![0.15; k];
                let seeds: Vec<Option<usize>> = (0..k).map(|v| (n > 0).then(|| v % n)).collect();
                let plain: Vec<_> = (0..k).map(|_| dev.alloc_zeroed::<f64>(n)).collect();
                let fused: Vec<_> = (0..k).map(|_| dev.alloc(vec![f64::NAN; n])).collect();
                let blocks = n.div_ceil(WARP);
                let partials = dev.alloc(vec![f64::NAN; k * blocks]);
                let xr: Vec<_> = xs.iter().collect();
                let pr: Vec<_> = prevs.iter().collect();
                let plain_r: Vec<_> = plain.iter().collect();
                let fused_r: Vec<_> = fused.iter().collect();
                rwr_update_multi(&dev, &xr, &c, &restart, &seeds, &plain_r, None);
                let conv = Convergence {
                    prev: &pr,
                    partials: &partials,
                };
                let r = rwr_update_multi(&dev, &xr, &c, &restart, &seeds, &fused_r, Some(&conv));
                assert_eq!(r.launches, 1);
                for v in 0..k {
                    let (a, b) = (plain[v].as_slice(), fused[v].as_slice());
                    assert!(
                        a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
                        "n {n} k {k} vector {v}: next iterates differ"
                    );
                    let host = convergence_partials(b, prevs[v].as_slice());
                    let dev_p = &partials.as_slice()[v * blocks..(v + 1) * blocks];
                    assert_eq!(host.len(), blocks);
                    assert!(
                        host.iter()
                            .zip(dev_p)
                            .all(|(x, y)| x.to_bits() == y.to_bits()),
                        "n {n} k {k} vector {v}: partials {host:?} vs {dev_p:?}"
                    );
                    let seq: f64 = b
                        .iter()
                        .zip(prevs[v].as_slice())
                        .map(|(x, y)| (x - y) * (x - y))
                        .sum();
                    let tree = sum_partials(dev_p);
                    assert!(
                        (tree - seq).abs() <= 1e-12 * seq.max(1.0),
                        "n {n}: {tree} vs {seq}"
                    );
                }
            }
        }
    }

    /// The convergence output adds to the launch only its own traffic:
    /// one more iterate read and one partial written per warp.
    #[test]
    fn convergence_output_reads_prev_and_writes_one_partial_per_warp() {
        let dev = Device::new(presets::gtx_titan());
        let n = 1000;
        let x = dev.alloc(vec![0.5f64; n]);
        let prev = dev.alloc(vec![0.25f64; n]);
        let out = dev.alloc_zeroed::<f64>(n);
        let partials = dev.alloc_zeroed::<f64>(n.div_ceil(WARP));
        let args = (&[0.85], &[0.15], &[Some(3)]);
        let plain = rwr_update_multi(&dev, &[&x], args.0, args.1, args.2, &[&out], None);
        let conv = Convergence {
            prev: &[&prev],
            partials: &partials,
        };
        let fused = rwr_update_multi(&dev, &[&x], args.0, args.1, args.2, &[&out], Some(&conv));
        let (p, f) = (plain.counters, fused.counters);
        assert!(f.dram_read_bytes >= p.dram_read_bytes + (n * 8) as u64);
        assert!(f.dram_write_bytes > p.dram_write_bytes);
        assert!(f.warp_instructions > p.warp_instructions);
        assert_eq!(fused.launches, plain.launches);
    }

    #[test]
    fn init_writes_the_seed_indicator_over_garbage() {
        let dev = Device::new(presets::gtx_titan());
        for n in [1usize, 31, 33, 300] {
            let outs: Vec<_> = (0..3).map(|_| dev.alloc(vec![f64::NAN; n])).collect();
            let or: Vec<_> = outs.iter().collect();
            let seeds = [0, n - 1, n / 2];
            let r = rwr_init_multi(&dev, &seeds, &or);
            assert_eq!(r.launches, 1);
            for (out, &seed) in outs.iter().zip(&seeds) {
                for (i, &val) in out.as_slice().iter().enumerate() {
                    assert_eq!(val, if i == seed { 1.0 } else { 0.0 }, "n {n} row {i}");
                }
            }
        }
        assert_eq!(rwr_init_multi::<f64>(&dev, &[], &[]).launches, 0);
    }

    #[test]
    #[should_panic(expected = "seed out of range")]
    fn seed_bounds_are_checked() {
        let g = graph(100, 154);
        let w = rwr_operator(&g);
        let dev = Device::new(presets::gtx_titan());
        let engine = plan_for(&dev, &w);
        let _ = rwr_gpu(&dev, &engine, 100, 0.85, &IterParams::default());
    }
}
