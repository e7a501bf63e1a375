//! PageRank and RWR iterate through `GpuSpmv::spmm_affine`: on a
//! dynamic-parallelism ACSR plan with G1 rows, each iteration is one
//! `acsr_spmm` launch group (its last kernel finalizing the G1 rows) and
//! one readback of the wave's convergence partials, with no update or
//! norm kernel of its own; on a HYB plan the update still runs as the
//! `rwr_update` kernel. Either way, every iterate is bit-identical at
//! host width 1 (where DP's atomic order is pinned) to a two-launch loop
//! (`spmv`, then `scale_add` or `rwr_update_multi`, then `l2_distance`),
//! and the iteration count is the CPU reference's.

use gpu_sim::trace::{Span, SpanKind};
use gpu_sim::{presets, set_sim_threads, Device, DeviceBuffer};
use graph_apps::ops::{l2_distance_sq, scale_add};
use graph_apps::pagerank::{pagerank_cpu, pagerank_gpu, pagerank_operator};
use graph_apps::rwr::{rwr_cpu, rwr_gpu, rwr_operator};
use graph_apps::{IterParams, SolveResult};
use graphgen::{generate_power_law, PowerLawConfig};
use sparse_formats::CsrMatrix;
use spmv_kernels::epilogue::rwr_update_multi;
use spmv_kernels::{Affine, GpuSpmv, Restart};
use spmv_pipeline::{FormatRegistry, PlanBudget, SpmvPlan};

const DAMPING: f64 = 0.85;
const SEED: usize = 7;

/// A power-law graph whose rows 0..3 have 1500 non-zeros: G1 rows of the
/// RWR operator, and (through the transpose) of the PageRank operator.
fn graph() -> CsrMatrix<f64> {
    generate_power_law(&PowerLawConfig {
        rows: 2000,
        cols: 2000,
        mean_degree: 6.0,
        max_degree: 1500,
        pinned_max_rows: 3,
        col_skew: 0.4,
        seed: 181,
        ..Default::default()
    })
}

fn plan(dev: &Device, op: &CsrMatrix<f64>, format: &str) -> SpmvPlan<f64> {
    FormatRegistry::<f64>::with_all()
        .plan(format, dev, op, &PlanBudget::default())
        .unwrap()
}

/// The two-launch loop: `spmv` into a temporary, the update kernel
/// `update` (tmp → next), then `l2_distance` between the iterates.
/// Returns every iterate.
fn two_launch_iterates(
    dev: &Device,
    plan: &SpmvPlan<f64>,
    x0: Vec<f64>,
    params: &IterParams,
    update: impl Fn(&DeviceBuffer<f64>, &DeviceBuffer<f64>),
) -> Vec<Vec<f64>> {
    let n = plan.rows();
    let mut x = dev.alloc(x0);
    let tmp = dev.alloc_zeroed::<f64>(n);
    let mut next = dev.alloc_zeroed::<f64>(n);
    let mut iterates = Vec::new();
    loop {
        plan.spmv(dev, &x, &tmp);
        update(&tmp, &next);
        let (dist2, _) = l2_distance_sq(dev, &next, &x);
        std::mem::swap(&mut x, &mut next);
        iterates.push(x.as_slice().to_vec());
        if dist2.sqrt() < params.epsilon || iterates.len() >= params.max_iters {
            return iterates;
        }
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Spans of `kind` named `name`.
fn count(spans: &[Span], kind: SpanKind, name: &str) -> usize {
    spans
        .iter()
        .filter(|s| s.kind == kind && s.name == name)
        .count()
}

/// Trace `solve` on a `format` plan and check its spans: on ACSR one
/// `acsr_spmm` group per iteration and no update kernel, elsewhere one
/// `rwr_update` per iteration; then check that the solve capped at
/// every iteration count reproduces `want`'s iterate.
fn check_solver(
    op: &CsrMatrix<f64>,
    format: &str,
    app: &str,
    want: impl Fn(&Device, &SpmvPlan<f64>) -> Vec<Vec<f64>>,
    solve: impl Fn(&Device, &SpmvPlan<f64>, &IterParams) -> SolveResult<f64>,
    cpu_iterations: usize,
) {
    let mut dev = Device::new(presets::gtx_titan());
    let plan = plan(&dev, op, format);
    let iterates = want(&dev, &plan);
    let ledger = dev.enable_tracing();
    let full = solve(&dev, &plan, &IterParams::default());
    let spans = ledger.spans();
    let it = full.iterations;
    let what = format!("{app} on {format}");
    assert_eq!(it, cpu_iterations, "{what}: iterations");
    assert_eq!(
        it,
        iterates.len(),
        "{what}: the two-launch loop's iterations"
    );
    let readback = format!("{app}_partials_d2h");
    assert_eq!(count(&spans, SpanKind::Transfer, &readback), it, "{what}");
    assert_eq!(count(&spans, SpanKind::Launch, "l2_distance"), 0, "{what}");
    assert_eq!(count(&spans, SpanKind::Launch, "scale_add"), 0, "{what}");
    if format == "ACSR" {
        assert_eq!(count(&spans, SpanKind::Launch, "acsr_spmm"), it, "{what}");
        assert_eq!(
            count(&spans, SpanKind::Stream, "acsr_dp_finalize"),
            it,
            "{what}"
        );
        assert_eq!(count(&spans, SpanKind::Launch, "rwr_update"), 0, "{what}");
        assert!(full.report.counters.child_launches > 0, "{what}: G1 rows");
        let launches = spans.iter().filter(|s| s.kind == SpanKind::Launch).count();
        assert_eq!(launches, it, "{what}: one launch group per iteration");
    } else {
        assert_eq!(count(&spans, SpanKind::Launch, "rwr_update"), it, "{what}");
    }
    for (m, want) in iterates.iter().enumerate() {
        let capped = IterParams {
            epsilon: 0.0,
            max_iters: m + 1,
        };
        let got = solve(&dev, &plan, &capped);
        assert_eq!(got.iterations, m + 1);
        assert_eq!(bits(&got.scores), bits(want), "{what}: iterate {}", m + 1);
    }
}

#[test]
fn affine_solvers_fuse_on_dp_acsr_and_keep_the_two_launch_iterates() {
    set_sim_threads(1);
    let g = graph();
    let params = IterParams::default();

    let pr_op = pagerank_operator(&g.transpose());
    let n = pr_op.rows();
    let (_, pr_cpu) = pagerank_cpu(n, DAMPING, &params, |x, y| pr_op.spmv_into(x, y));
    let pr_want = |dev: &Device, plan: &SpmvPlan<f64>| {
        let teleport = (1.0 - DAMPING) / n as f64;
        two_launch_iterates(dev, plan, vec![1.0 / n as f64; n], &params, |tmp, next| {
            scale_add(dev, tmp, DAMPING, teleport, next);
        })
    };
    let pr_solve =
        |dev: &Device, plan: &SpmvPlan<f64>, p: &IterParams| pagerank_gpu(dev, plan, DAMPING, p);

    let rwr_op = rwr_operator(&g);
    let (_, rwr_cpu_iters) = rwr_cpu(&rwr_op, SEED, DAMPING, &params);
    let rwr_want = |dev: &Device, plan: &SpmvPlan<f64>| {
        let mut r0 = vec![0.0; n];
        r0[SEED] = 1.0;
        let restart = [Restart::Seed {
            row: SEED,
            mass: 1.0 - DAMPING,
        }];
        let affine = Affine {
            c: &[DAMPING],
            restart: &restart,
        };
        two_launch_iterates(dev, plan, r0, &params, |tmp, next| {
            rwr_update_multi(dev, &[tmp], &affine, &[next], None);
        })
    };
    let rwr_solve =
        |dev: &Device, plan: &SpmvPlan<f64>, p: &IterParams| rwr_gpu(dev, plan, SEED, DAMPING, p);

    for format in ["ACSR", "HYB"] {
        check_solver(&pr_op, format, "pagerank", pr_want, pr_solve, pr_cpu);
        check_solver(&rwr_op, format, "rwr", rwr_want, rwr_solve, rwr_cpu_iters);
    }
    set_sim_threads(0);
}
