//! HITS — hubs and authorities via the combined coupling matrix (Eq. 7).
//!
//! "As in \[28\], we combine the computations into a single SpMV:
//! `[a; h]^(k+1) = [[0, Aᵀ], [A, 0]] × [a; h]^(k)`". The authority and
//! hub halves are L2-normalized *independently* every iteration — the
//! coupling operator is bipartite (eigenvalues come in ±σ pairs), so
//! jointly-normalized power iteration oscillates with period two, while
//! per-half normalization converges to the singular-vector fixed point.
//! Convergence is the Euclidean distance of successive normalized
//! vectors (ε = 1e-6).

use crate::ops::{l2_distance_sq, l2_norm_halves, scale_halves};
use crate::{IterParams, SolveResult};
use gpu_sim::{Device, RunReport};
use sparse_formats::{CsrMatrix, Scalar};
use spmv_kernels::GpuSpmv;
use spmv_pipeline::SpmvPlan;

/// Hub/authority scores extracted from a converged coupling vector.
#[derive(Clone, Debug)]
pub struct HitsScores<T> {
    /// Authority score per vertex.
    pub authority: Vec<T>,
    /// Hub score per vertex.
    pub hub: Vec<T>,
}

/// Build the 2n x 2n HITS coupling operator from an adjacency matrix.
pub fn hits_operator<T: Scalar>(adjacency: &CsrMatrix<T>) -> CsrMatrix<T> {
    adjacency.hits_coupling()
}

/// Run HITS on a planned coupling operator (2n x 2n, any registry
/// format).
pub fn hits_gpu<T: Scalar>(
    dev: &Device,
    plan: &SpmvPlan<T>,
    params: &IterParams,
) -> SolveResult<T> {
    let engine: &dyn GpuSpmv<T> = plan;
    let n2 = engine.rows();
    assert_eq!(engine.cols(), n2, "coupling operator must be square");
    assert_eq!(n2 % 2, 0, "coupling operator must be 2n x 2n");
    let init = T::from_f64(1.0 / (n2 / 2) as f64);
    let mut v = dev.alloc(vec![init; n2]);
    let mut next = dev.alloc_zeroed::<T>(n2);
    let mut report = RunReport::default();
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        report = report.then(&engine.spmv(dev, &v, &next));
        // Independent L2 normalization of the authority and hub halves.
        let (na, nh, r1) = l2_norm_halves(dev, &next);
        report = report.then(&r1);
        report = report.then(&scale_halves(
            dev,
            &next,
            T::from_f64(1.0 / na.max(1e-300)),
            T::from_f64(1.0 / nh.max(1e-300)),
        ));
        let (dist2, r2) = l2_distance_sq(dev, &next, &v);
        report = report.then(&r2);
        std::mem::swap(&mut v, &mut next);
        if dist2.sqrt() < params.epsilon || iterations >= params.max_iters {
            break;
        }
    }
    // final hub/authority vector is copied back to the host
    report =
        report.then(&dev.record_dtoh("hits_scores_d2h", (n2 * std::mem::size_of::<T>()) as u64));
    // Serial: every launch waits for a norm the host reads back, so
    // the wall time is the busy time.
    SolveResult {
        scores: v.into_vec(),
        iterations,
        wall_s: report.time_s,
        report,
    }
}

/// Split a converged coupling vector into authority/hub halves.
pub fn split_scores<T: Scalar>(combined: &[T]) -> HitsScores<T> {
    let n = combined.len() / 2;
    HitsScores {
        authority: combined[..n].to_vec(),
        hub: combined[n..].to_vec(),
    }
}

/// CPU reference (tests): power-iterate the coupling matrix.
pub fn hits_cpu<T: Scalar>(coupling: &CsrMatrix<T>, params: &IterParams) -> (Vec<T>, usize) {
    let n2 = coupling.rows();
    let init = T::from_f64(1.0 / (n2 / 2) as f64);
    let mut v = vec![init; n2];
    let mut next = vec![T::ZERO; n2];
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        coupling.spmv_into(&v, &mut next);
        let half = n2 / 2;
        let norm_of = |xs: &[T]| {
            xs.iter()
                .map(|x| x.to_f64() * x.to_f64())
                .sum::<f64>()
                .sqrt()
                .max(1e-300)
        };
        let sa = T::from_f64(1.0 / norm_of(&next[..half]));
        let sh = T::from_f64(1.0 / norm_of(&next[half..]));
        for (j, x) in next.iter_mut().enumerate() {
            *x *= if j < half { sa } else { sh };
        }
        let dist2: f64 = v
            .iter()
            .zip(next.iter())
            .map(|(a, b)| {
                let d = a.to_f64() - b.to_f64();
                d * d
            })
            .sum();
        std::mem::swap(&mut v, &mut next);
        if dist2.sqrt() < params.epsilon || iterations >= params.max_iters {
            return (v, iterations);
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
            mean_degree: 5.0,
            max_degree: 200,
            pinned_max_rows: 1,
            col_skew: 0.4,
            seed,
            ..Default::default()
        })
    }

    #[test]
    fn gpu_hits_matches_cpu_reference() {
        let g = graph(400, 141);
        let coupling = hits_operator(&g);
        let dev = Device::new(presets::gtx_titan());
        let engine = plan_for(&dev, &coupling);
        let params = IterParams::default();
        let gpu = hits_gpu(&dev, &engine, &params);
        let (cpu, cpu_iters) = hits_cpu(&coupling, &params);
        assert_eq!(gpu.iterations, cpu_iters);
        let d = sparse_formats::scalar::rel_l2_distance(&gpu.scores, &cpu);
        assert!(d < 1e-8, "rel distance {d}");
    }

    #[test]
    fn scores_are_nonnegative_and_normalized() {
        let g = graph(300, 142);
        let coupling = hits_operator(&g);
        let dev = Device::new(presets::gtx_titan());
        let engine = plan_for(&dev, &coupling);
        let res = hits_gpu(&dev, &engine, &IterParams::default());
        assert!(res.scores.iter().all(|&s| s >= 0.0));
        let half = res.scores.len() / 2;
        for part in [&res.scores[..half], &res.scores[half..]] {
            let norm: f64 = part.iter().map(|s| s * s).sum::<f64>().sqrt();
            assert!((norm - 1.0).abs() < 1e-6, "norm {norm}");
        }
    }

    #[test]
    fn split_scores_partitions_halves() {
        let combined = vec![1.0f64, 2.0, 3.0, 4.0];
        let s = split_scores(&combined);
        assert_eq!(s.authority, vec![1.0, 2.0]);
        assert_eq!(s.hub, vec![3.0, 4.0]);
    }

    #[test]
    fn high_in_degree_vertex_gets_high_authority() {
        // star graph: everyone links to vertex 0
        let mut t = sparse_formats::TripletMatrix::<f64>::new(50, 50);
        for i in 1..50 {
            t.push(i, 0, 1.0).unwrap();
        }
        let g = t.to_csr();
        let coupling = hits_operator(&g);
        let (v, _) = hits_cpu(&coupling, &IterParams::default());
        let s = split_scores(&v);
        let max_auth = s.authority.iter().cloned().fold(f64::MIN, f64::max);
        assert_eq!(s.authority[0], max_auth);
        // per-half normalization: the sole authority carries the whole
        // authority norm
        assert!(s.authority[0] > 0.99, "authority {}", s.authority[0]);
        assert!(s.authority[1..].iter().all(|&a| a < 1e-6));
    }
}
