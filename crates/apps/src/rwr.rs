//! Random Walk with Restart (Eq. 8).
//!
//! `r^(k+1) = c·(W × r^(k)) + (1-c)·e_i` with `W` the column-normalized
//! adjacency, restart probability `c`, and `e_i` the seed indicator.
//! Converges to the relevance of every node to seed `i`.

use crate::{solve_affine, IterParams, SolveResult};
use gpu_sim::{lane_mask, Device, DeviceBuffer, RunReport, WARP};
use sparse_formats::{CsrMatrix, Scalar};
use spmv_kernels::{Affine, GpuSpmv, Restart};
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

/// Run RWR from `seed` on a planned `W` (any registry format): one
/// [`GpuSpmv::spmm_affine`] wave per iteration whose epilogue is Eq. 8's
/// `c·y`, plus `1 − c` at the seed ([`Restart::Seed`]), and the readback
/// of its convergence partials, which runs beside the next wave
/// ([`SolveResult::wall_s`]).
pub fn rwr_gpu<T: Scalar>(
    dev: &Device,
    plan: &SpmvPlan<T>,
    seed: usize,
    restart_c: f64,
    params: &IterParams,
) -> SolveResult<T> {
    let n = plan.rows();
    assert_eq!(plan.cols(), n, "RWR operator must be square");
    assert!(seed < n, "seed out of range");
    let c = [T::from_f64(restart_c)];
    let restart = [Restart::Seed {
        row: seed,
        mass: T::from_f64(1.0 - restart_c),
    }];
    let affine = Affine {
        c: &c,
        restart: &restart,
    };
    // r⁰ = e_seed
    let mut r0 = vec![T::ZERO; n];
    r0[seed] = T::ONE;
    solve_affine(dev, plan, r0, &affine, params, "rwr")
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
