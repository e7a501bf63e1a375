//! PageRank — Algorithm 5.
//!
//! `PR^(k+1) = (1-d)·PR^(0) + d·(Aᵀ_norm × PR^(k))`, iterated until the
//! Euclidean distance of successive iterates falls below ε. The operator
//! is the transpose of the row-normalized adjacency matrix; helper
//! [`pagerank_operator`] builds it from a raw adjacency.

use crate::{solve_affine, IterParams, SolveResult};
use gpu_sim::Device;
use sparse_formats::{CsrMatrix, Scalar};
use spmv_kernels::{Affine, GpuSpmv, Restart};
use spmv_pipeline::SpmvPlan;

/// Build the PageRank operator `M = (row-normalized A)ᵀ` so that
/// `M × PR` distributes each page's rank over its out-links.
pub fn pagerank_operator<T: Scalar>(adjacency: &CsrMatrix<T>) -> CsrMatrix<T> {
    assert_eq!(
        adjacency.rows(),
        adjacency.cols(),
        "adjacency must be square"
    );
    let mut a = adjacency.clone();
    a.row_normalize();
    a.transpose()
}

/// Run PageRank on a planned operator (any registry format).
///
/// `damping` is the paper's d = 0.85; iteration stops when
/// `‖PR^(k+1) − PR^(k)‖₂ < params.epsilon`. Each iteration is one
/// [`GpuSpmv::spmm_affine`] wave whose epilogue is the teleport update
/// `d·y + (1−d)/n` ([`Restart::Uniform`]), plus the readback of its
/// convergence partials, which runs beside the next wave
/// ([`SolveResult::wall_s`]). The plan's preprocessing was paid once at
/// [`spmv_pipeline::SpmvPlanner::plan`] time; the iterations here add
/// none (pinned by the plan-cache tests).
pub fn pagerank_gpu<T: Scalar>(
    dev: &Device,
    plan: &SpmvPlan<T>,
    damping: f64,
    params: &IterParams,
) -> SolveResult<T> {
    let n = plan.rows();
    assert_eq!(plan.cols(), n, "PageRank operator must be square");
    let c = [T::from_f64(damping)];
    let restart = [Restart::Uniform(T::from_f64((1.0 - damping) / n as f64))];
    let affine = Affine {
        c: &c,
        restart: &restart,
    };
    let pr = vec![T::from_f64(1.0 / n as f64); n];
    solve_affine(dev, plan, pr, &affine, params, "pagerank")
}

/// CPU reference PageRank over an arbitrary SpMV closure (used by tests
/// and acsr-bench's answer checks). `spmv(x, y)` must compute `y = M x`.
pub fn pagerank_cpu<T: Scalar>(
    n: usize,
    damping: f64,
    params: &IterParams,
    mut spmv: impl FnMut(&[T], &mut [T]),
) -> (Vec<T>, usize) {
    let teleport = T::from_f64((1.0 - damping) / n as f64);
    let d = T::from_f64(damping);
    let mut pr = vec![T::from_f64(1.0 / n as f64); n];
    let mut tmp = vec![T::ZERO; n];
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        spmv(&pr, &mut tmp);
        let mut dist2 = 0.0f64;
        for i in 0..n {
            let next = d.mul_add(tmp[i], teleport);
            let delta = next.to_f64() - pr[i].to_f64();
            dist2 += delta * delta;
            pr[i] = next;
        }
        if dist2.sqrt() < params.epsilon || iterations >= params.max_iters {
            return (pr, iterations);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::presets;
    use graphgen::{generate_power_law, PowerLawConfig};
    use spmv_pipeline::{FormatRegistry, PlanBudget};

    fn plan_for(dev: &Device, m: &CsrMatrix<f64>, format: &str) -> SpmvPlan<f64> {
        FormatRegistry::<f64>::with_all()
            .plan(format, dev, m, &PlanBudget::default())
            .unwrap()
    }

    fn graph(rows: usize, seed: u64) -> CsrMatrix<f64> {
        generate_power_law(&PowerLawConfig {
            rows,
            cols: rows,
            mean_degree: 6.0,
            max_degree: 300,
            pinned_max_rows: 1,
            col_skew: 0.4,
            seed,
            ..Default::default()
        })
    }

    #[test]
    fn operator_columns_are_stochastic() {
        let g = graph(400, 131);
        let m = pagerank_operator(&g);
        // column c of M sums to 1 whenever row c of A is non-empty
        let mt = m.transpose();
        for r in 0..g.rows() {
            if g.row_nnz(r) > 0 {
                let (_, vals) = mt.row(r);
                let s: f64 = vals.iter().sum();
                assert!((s - 1.0).abs() < 1e-9, "column {r} sums to {s}");
            }
        }
    }

    #[test]
    fn gpu_pagerank_matches_cpu_reference() {
        let g = graph(800, 132);
        let m = pagerank_operator(&g);
        let dev = Device::new(presets::gtx_titan());
        let engine = plan_for(&dev, &m, "ACSR");
        let params = IterParams::default();
        let gpu = pagerank_gpu(&dev, &engine, 0.85, &params);
        let (cpu, cpu_iters) = pagerank_cpu(m.rows(), 0.85, &params, |x, y| m.spmv_into(x, y));
        assert_eq!(gpu.iterations, cpu_iters);
        let d = sparse_formats::scalar::rel_l2_distance(&gpu.scores, &cpu);
        assert!(d < 1e-10, "rel distance {d}");
    }

    #[test]
    fn ranks_sum_to_approximately_one() {
        let g = graph(600, 133);
        let m = pagerank_operator(&g);
        let dev = Device::new(presets::gtx_titan());
        let engine = plan_for(&dev, &m, "ACSR");
        let res = pagerank_gpu(&dev, &engine, 0.85, &IterParams::default());
        let total: f64 = res.scores.iter().sum();
        // dangling rows leak a little mass; bulk must be preserved
        assert!(total > 0.5 && total <= 1.0 + 1e-9, "total {total}");
    }

    #[test]
    fn different_engines_agree_on_scores() {
        let g = graph(700, 134);
        let m = pagerank_operator(&g);
        let dev = Device::new(presets::gtx_titan());
        let params = IterParams::default();
        let acsr_plan = plan_for(&dev, &m, "ACSR");
        let csr_plan = plan_for(&dev, &m, "CSR-vector");
        let a = pagerank_gpu(&dev, &acsr_plan, 0.85, &params);
        let b = pagerank_gpu(&dev, &csr_plan, 0.85, &params);
        assert_eq!(a.iterations, b.iterations);
        let d = sparse_formats::scalar::rel_l2_distance(&a.scores, &b.scores);
        assert!(d < 1e-10);
    }

    #[test]
    fn iteration_cap_is_respected() {
        let g = graph(300, 135);
        let m = pagerank_operator(&g);
        let dev = Device::new(presets::gtx_titan());
        let engine = plan_for(&dev, &m, "ACSR");
        let res = pagerank_gpu(
            &dev,
            &engine,
            0.85,
            &IterParams {
                epsilon: 0.0, // unreachable: must stop at the cap
                max_iters: 7,
            },
        );
        assert_eq!(res.iterations, 7);
    }
}
