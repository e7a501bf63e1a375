//! `serve`: open-loop RWR serving on the WIK analog at scale 512
//! (2539 rows, ~87k nnz) through `ServeEngine` (ACSR, `max_batch` 16,
//! queue 64) on one simulated GTX Titan.
//!
//! 1024 Poisson queries arrive at a fixed absolute 4000 q/s — about
//! 0.62 of the engine's modeled capacity when this benchmark was defined
//! — and latency counts from each query's scheduled arrival. The rate
//! and the 3 ms limit are constants: they are never recalibrated to the
//! engine under test, so a faster server scores better. A saturated
//! closed-loop run of the first 256 queries measures the drain rate.
//!
//! Both runs happen once, for the modeled metrics. The host rate comes
//! from timed repetitions that each serve the first 128 queries of the
//! same trace open-loop: a whole-trace run takes about 12 s of host time
//! on a 2-core shared host, so a median over it would be a median of one.
//! The drain uses 256 queries, not all 1024, so that a run stays within
//! 30 s there.
//!
//! The graph and the arrival times are frozen; `--seed` draws each
//! query's target node. The percentiles then follow the server rather
//! than one graph instance's size or one Poisson draw's burstiness.
//!
//! The scheduler, the batched SpMM and the per-wave update launches do
//! the work on a small graph whose waves sit near the launch floor.
//! Selector, fleet and stream are bypassed. The op is a completed query.

use crate::bench::{Ctx, Rep};
use acsr_serve::{
    generate_queries, ArrivalPattern, Query, ServeConfig, ServeEngine, ServeReport, SloPolicy,
};
use gpu_sim::presets;
use graph_apps::rwr::{rwr_cpu, rwr_operator};
use graph_apps::IterParams;
use graphgen::MatrixSpec;
use sparse_formats::scalar::rel_l2_distance;
use sparse_formats::CsrMatrix;

const MATRIX: &str = "WIK";
const SCALE: usize = 512;
const QUICK_SCALE: usize = 4096;
const QUERIES: usize = 1024;
const QUICK_QUERIES: usize = 128;
/// Queries one timed repetition serves: the head of the trace.
pub const REP_QUERIES: usize = 128;
/// Queries of the saturated drain: the head of the trace, 16 full-width
/// generations of waves.
const SATURATED_QUERIES: usize = 256;
/// Offered load, queries per second (frozen).
const RATE_QPS: f64 = 4000.0;
/// Latency limit the attainment is scored against, seconds (frozen).
const LIMIT_S: f64 = 3e-3;
const MAX_BATCH: usize = 16;
const QUEUE_CAPACITY: usize = 64;
const RESTART_C: f64 = 0.85;
/// Seed of the frozen serving graph.
const GRAPH_SEED: u64 = 1;
/// Seed of the frozen arrival trace.
const ARRIVAL_SEED: u64 = 0x5E4E_2014;

/// Per-layer metrics of layers this workload never calls, or whose work
/// happens where the benchmark cannot see it (reported 0).
pub const BYPASSED: &[&str] = &["multigpu.", "stream.", "pipeline."];

struct Input {
    g: CsrMatrix<f64>,
    engine: ServeEngine<f64>,
    queries: Vec<Query>,
}

/// `n` Poisson queries at `rate_qps` on the [`ARRIVAL_SEED`] trace,
/// targeting nodes drawn from `seed`.
pub fn frozen_arrivals(rate_qps: f64, n: usize, nodes: usize, seed: u64) -> Vec<Query> {
    let pattern = ArrivalPattern::Poisson { rate_qps };
    let targets = generate_queries(pattern, n, nodes, RESTART_C, seed);
    generate_queries(pattern, n, nodes, RESTART_C, ARRIVAL_SEED)
        .into_iter()
        .zip(targets)
        .map(|(q, t)| Query { seed: t.seed, ..q })
        .collect()
}

/// `rwr_cpu`'s scores and iteration count for one seed node.
type Reference = (Vec<f64>, usize);

/// `rwr_cpu` for every distinct seed node of `queries`, computed on the
/// machine's cores: `refs[node] = Some(reference)`.
fn references(w: &CsrMatrix<f64>, queries: &[Query]) -> Vec<Option<Reference>> {
    let mut seeds: Vec<usize> = queries.iter().map(|q| q.seed).collect();
    seeds.sort_unstable();
    seeds.dedup();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let params = IterParams::default();
    let chunks: Vec<Vec<(usize, Reference)>> = std::thread::scope(|s| {
        let handles: Vec<_> = seeds
            .chunks(seeds.len().div_ceil(threads).max(1))
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|&seed| (seed, rwr_cpu(w, seed, RESTART_C, &params)))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    let mut refs = vec![None; w.rows()];
    for (seed, r) in chunks.into_iter().flatten() {
        refs[seed] = Some(r);
    }
    refs
}

/// Every offered query must complete with scores matching `rwr_cpu`;
/// sheds count as failed.
fn check(cx: &mut Ctx, label: &str, report: &ServeReport<f64>, refs: &[Option<Reference>]) {
    for o in &report.outcomes {
        let (want, want_iters) = refs[o.seed].as_ref().expect("reference for every seed");
        let dist = o
            .scores
            .as_ref()
            .map_or(f64::INFINITY, |s| rel_l2_distance(s, want));
        cx.checks
            .check(o.iterations == *want_iters && dist < 1e-10, || {
                format!(
                    "{label} query {} (seed {}): {} iterations (cpu {want_iters}), rel-L2 {dist:e}",
                    o.id, o.seed, o.iterations
                )
            });
    }
    for id in report.rejected.iter().chain(&report.deadline_shed) {
        cx.checks
            .check(false, || format!("{label} query {id} was shed"));
    }
}

pub fn run(cx: &mut Ctx) -> Result<(), String> {
    let (scale, n_queries) = if cx.quick {
        (QUICK_SCALE, QUICK_QUERIES)
    } else {
        (SCALE, QUERIES)
    };
    let seed = cx.seed;
    let mut input = cx.setup(|host| {
        let spec = MatrixSpec::by_abbrev(MATRIX).expect("Table I abbreviation");
        let (g, _) = host.time("graphgen", "generate", 0, || {
            spec.generate::<f64>(scale, GRAPH_SEED).csr
        });
        let config = ServeConfig {
            max_batch: MAX_BATCH,
            queue_capacity: QUEUE_CAPACITY,
            keep_scores: true,
            ..ServeConfig::default()
        };
        let (engine, _) = host.time("serve", "engine_new", 0, || ServeEngine::new(&g, config));
        let (queries, _) = host.time("serve", "generate_queries", 0, || {
            frozen_arrivals(RATE_QPS, n_queries, g.rows(), seed)
        });
        Ok(Input { g, engine, queries })
    })?;
    let (refs, _) = cx.host.time("check", "rwr_cpu", 0, || {
        references(&rwr_operator(&input.g), &input.queries)
    });

    let open_loop = SloPolicy::open_loop(f64::INFINITY, MAX_BATCH, QUEUE_CAPACITY);
    // The whole trace, open-loop: the modeled latency and wave metrics.
    let (report, _) = cx.host.time("serve", "serve_slo_full", 0, || {
        input.engine.serve_slo(&input.queries, &open_loop)
    });
    check(cx, "open-loop", &report, &refs);

    let head = &input.queries[..REP_QUERIES.min(n_queries)];
    let serve_head = |cx: &Ctx, engine: &ServeEngine<f64>, id| {
        let (report, busy_s) = cx.host.time("serve", "serve_slo", id, || {
            engine.serve_slo(head, &open_loop)
        });
        let ops = report.outcomes.len() as f64;
        (report, Rep { ops, busy_s })
    };
    let mut head_waves = 0;
    let reps = cx.timed_reps(|cx, id| {
        let (report, rep) = serve_head(cx, &input.engine, id);
        check(cx, "timed", &report, &refs);
        head_waves = report.waves;
        Ok(rep)
    })?;
    let rep_s = cx.record_host_rate(&reps);

    // Saturated closed loop: the trace's first queries, all due at
    // t = 0, every one admitted, drained at full width.
    let saturated: Vec<Query> = input
        .queries
        .iter()
        .take(SATURATED_QUERIES)
        .map(|q| Query {
            arrival_s: 0.0,
            ..*q
        })
        .collect();
    let (sat, _) = cx.host.time("serve", "serve_saturated", 0, || {
        input.engine.serve_slo(
            &saturated,
            &SloPolicy::closed_loop(MAX_BATCH, saturated.len()),
        )
    });
    check(cx, "saturated", &sat, &refs);

    let lat = report.latency_stats();
    cx.model_metric("model_work_ms", "ms", sat.makespan_s * 1e3);
    cx.model_metric("model_gflops", "GFLOP/s", sat.gflops());
    cx.model_metric("model_p50_ms", "ms", lat.p50_s * 1e3);
    cx.model_metric("model_p99_ms", "ms", lat.p99_s * 1e3);
    let wait = report.queue_wait_stats();
    cx.model_metric("serve.capacity_qps", "q/s", sat.throughput_qps());
    cx.model_metric("serve.attainment", "fraction", report.attainment(LIMIT_S));
    cx.model_metric("serve.waves", "count", report.waves as f64);
    cx.model_metric("serve.mean_wave_width", "queries", report.mean_wave_width());
    cx.model_metric("serve.queue_wait_p50_ms", "ms", wait.p50_s * 1e3);
    cx.model_metric("serve.queue_wait_p99_ms", "ms", wait.p99_s * 1e3);
    cx.model_metric(
        "serve.shed",
        "count",
        (report.rejected.len() + report.deadline_shed.len()) as f64,
    );
    cx.host_metric(
        "serve.host_ms_per_wave",
        "ms",
        rep_s * 1e3 / head_waves as f64,
    );
    cx.model_metric("apps.iterations", "count", report.total_iterations() as f64);

    if cx.trace {
        let ledger = input.engine.enable_tracing();
        let (traced, rep) = serve_head(cx, &input.engine, reps.len() as u64);
        check(cx, "traced", &traced, &refs);
        crate::device::record(cx, &[ledger], &[presets::gtx_titan()], rep_s, rep.busy_s);
    }
    Ok(())
}
