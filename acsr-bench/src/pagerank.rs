//! `pagerank`: the paper's PageRank (d = 0.85, ε = 1e-6) on the ACSR
//! plans of four Table I analogs — AMZ as the low-skew control, then
//! IN2, WIK and LJ2 — on a simulated GTX Titan in f64.
//!
//! A read-only iterative SpMV: nearly all host time is gpu-sim
//! interpretation of the core ACSR kernels and the apps update/norm
//! kernels. The selector, serve, multigpu and stream layers do no work.
//!
//! The op is one PageRank iteration. How many iterations a solve takes
//! to reach ε depends on the generated graph (23 to 56 on LJ2 across
//! seeds), so rates and times are per iteration, each matrix weighted
//! equally: the metrics follow the cost of an iteration, not the seed's
//! convergence luck. Every solve still runs to ε and is checked.

use crate::bench::{percentile, Ctx, Rep};
use gpu_sim::{presets, Device};
use graph_apps::pagerank::{pagerank_cpu, pagerank_gpu, pagerank_operator};
use graph_apps::{IterParams, SolveResult};
use graphgen::MatrixSpec;
use sparse_formats::scalar::rel_l2_distance;
use sparse_formats::{CsrMatrix, HostModel};
use spmv_kernels::GpuSpmv;
use spmv_pipeline::{FormatRegistry, PlanBudget, SpmvPlan};

const MATRICES: [&str; 4] = ["AMZ", "IN2", "WIK", "LJ2"];
/// Suite scale divisor (`--quick`: every analog at its 2048-row floor).
const SCALE: usize = 64;
const QUICK_SCALE: usize = 4096;
const DAMPING: f64 = 0.85;

/// Per-layer metrics of layers this workload never calls (reported 0).
pub const BYPASSED: &[&str] = &[
    "serve.",
    "multigpu.",
    "stream.",
    "pipeline.select_host_s",
    "pipeline.candidates",
    "pipeline.plan_cache_hit_ratio",
];

struct Input {
    abbrev: &'static str,
    op: CsrMatrix<f64>,
    plan: SpmvPlan<f64>,
}

/// One PageRank solve per matrix. The repetition's ops are iterations
/// at an equal mix: the iterations the solves' host seconds would buy
/// if every matrix ran as many iterations as every other.
fn solve_all(cx: &Ctx, dev: &Device, inputs: &[Input], id: u64) -> (Vec<SolveResult<f64>>, Rep) {
    let params = IterParams::default();
    let (mut busy_s, mut sweep_s) = (0.0, 0.0);
    let results = inputs
        .iter()
        .map(|inp| {
            let (res, s) = cx.host.time("apps", "pagerank_gpu", id, || {
                pagerank_gpu(dev, &inp.plan, DAMPING, &params)
            });
            busy_s += s;
            sweep_s += s / res.iterations as f64;
            res
        })
        .collect();
    let ops = inputs.len() as f64 * busy_s / sweep_s;
    (results, Rep { ops, busy_s })
}

pub fn run(cx: &mut Ctx) -> Result<(), String> {
    let scale = if cx.quick { QUICK_SCALE } else { SCALE };
    let seed = cx.seed;
    let mut dev = Device::new(presets::gtx_titan());
    let inputs = cx.setup(|host| {
        MATRICES
            .iter()
            .map(|&abbrev| {
                let spec = MatrixSpec::by_abbrev(abbrev).expect("Table I abbreviation");
                let (g, _) = host.time("graphgen", "generate", 0, || {
                    spec.generate::<f64>(scale, seed).csr
                });
                let (op, _) = host.time("sparse", "pagerank_operator", 0, || pagerank_operator(&g));
                let (plan, _) = host.time("pipeline", "plan_acsr", 0, || {
                    FormatRegistry::<f64>::with_all().plan(
                        "ACSR",
                        &dev,
                        &op,
                        &PlanBudget::for_device(dev.config()),
                    )
                });
                let plan = plan.map_err(|e| format!("{abbrev}: ACSR plan: {e}"))?;
                Ok(Input { abbrev, op, plan })
            })
            .collect::<Result<Vec<_>, String>>()
    })?;

    let params = IterParams::default();
    let (reference, _) = cx.host.time("check", "pagerank_cpu", 0, || {
        inputs
            .iter()
            .map(|inp| {
                pagerank_cpu(inp.op.rows(), DAMPING, &params, |x, y| {
                    inp.op.spmv_into(x, y)
                })
            })
            .collect::<Vec<_>>()
    });
    let check = |cx: &mut Ctx, results: &[SolveResult<f64>]| {
        for ((inp, res), (want, want_iters)) in inputs.iter().zip(results).zip(&reference) {
            let dist = rel_l2_distance(&res.scores, want);
            cx.checks
                .check(res.iterations == *want_iters && dist < 1e-10, || {
                    format!(
                        "pagerank {}: {} iterations (cpu {want_iters}), rel-L2 {dist:e}",
                        inp.abbrev, res.iterations
                    )
                });
        }
    };

    let mut first: Option<Vec<SolveResult<f64>>> = None;
    let reps = cx.timed_reps(|cx, id| {
        let (results, rep) = solve_all(cx, &dev, &inputs, id);
        check(cx, &results);
        first.get_or_insert(results);
        Ok(rep)
    })?;
    let rep_s = cx.record_host_rate(&reps);
    let results = first.expect("at least one repetition");

    // Modeled: one iteration per matrix, its latency per matrix, and
    // single-SpMV GFLOP/s.
    let mut iteration_s: Vec<f64> = results
        .iter()
        .map(|r| r.seconds() / r.iterations as f64)
        .collect();
    cx.model_metric("model_work_ms", "ms", iteration_s.iter().sum::<f64>() * 1e3);
    cx.model_metric(
        "model_p50_ms",
        "ms",
        percentile(&mut iteration_s, 0.50) * 1e3,
    );
    cx.model_metric(
        "model_p99_ms",
        "ms",
        percentile(&mut iteration_s, 0.99) * 1e3,
    );
    let (mut flops, mut spmv_s) = (0.0f64, 0.0f64);
    for inp in &inputs {
        let x = dev.alloc(vec![1.0f64 / inp.op.cols() as f64; inp.op.cols()]);
        let y = dev.alloc_zeroed::<f64>(inp.op.rows());
        let (rep, _) = cx
            .host
            .time("pipeline", "spmv", 0, || inp.plan.spmv(&dev, &x, &y));
        flops += 2.0 * inp.op.nnz() as f64;
        spmv_s += rep.time_s;
    }
    cx.model_metric("model_gflops", "GFLOP/s", flops / spmv_s / 1e9);
    cx.model_metric(
        "apps.iterations",
        "count",
        results.iter().map(|r| r.iterations as f64).sum(),
    );
    let host_model = HostModel::default();
    let preprocess_s = inputs
        .iter()
        .map(|inp| inp.plan.preprocess_seconds(&host_model))
        .sum();
    cx.model_metric("pipeline.preprocess_model_s", "s", preprocess_s);

    if cx.trace {
        let ledger = dev.enable_tracing();
        let (traced, rep) = solve_all(cx, &dev, &inputs, reps.len() as u64);
        check(cx, &traced);
        crate::device::record(cx, &[ledger], &[presets::gtx_titan()], rep_s, rep.busy_s);
    }
    Ok(())
}
