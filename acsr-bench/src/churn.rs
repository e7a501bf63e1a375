//! `churn`: writes beside reads, on one simulated GTX Titan.
//!
//! * Maintenance: a `StreamEngine` over an RMAT scale-15, edge-factor-16
//!   graph (32768 rows, ~468k nnz) absorbs 40 batches of ~1000 edge
//!   updates (200k updates/s in 5 ms batches). After each batch it must
//!   be bit-identical — elements and bin occupancy — to a fresh
//!   `StreamEngine::build` of the same logical matrix.
//! * Serving under contention: `serve_with_churn` serves 1024 Poisson
//!   RWR queries on an RMAT scale-12 graph while a 40k updates/s edge
//!   stream lands on the same device. Latency counts from each query's
//!   scheduled arrival; the arrival times are a frozen trace, and
//!   `--seed` draws the graphs, the edge streams and the query targets.
//!
//! A change to the shared ACSR layout that speeds reads in `pagerank`
//! but slows maintenance, or slows serving under contention, shows here.
//! The op is a completed query. As in `serve`, the whole trace is served
//! once for the modeled metrics and the timed repetitions serve its
//! first 128 queries, from a fresh build of the served graph each time.

use crate::bench::{median, Ctx, Rep};
use crate::serve::{frozen_arrivals, REP_QUERIES};
use acsr::AcsrConfig;
use acsr_serve::{serve_with_churn, ChurnServeConfig, Query};
use acsr_stream::{ChurnedStream, StreamEngine};
use gpu_sim::{presets, Device};
use graphgen::{generate_edge_stream, generate_rmat, ChurnConfig, RmatConfig, TimedBatch};
use sparse_formats::CsrMatrix;
use spmv_kernels::GpuSpmv;
use spmv_pipeline::{DriftKey, DriftTolerance, PlanCache};

/// Maintained graph: RMAT scale and edge factor (`--quick`: 11 / 8).
const SCALE: (u32, usize) = (15, 16);
const QUICK_SCALE: (u32, usize) = (11, 8);
const UPDATES_PER_S: f64 = 200_000.0;
const BATCH_INTERVAL_S: f64 = 0.005;
const BATCHES: usize = 40;
const QUICK_BATCHES: usize = 8;
/// Served graph: RMAT scale and edge factor (`--quick`: 10 / 8).
const SERVE_SCALE: (u32, usize) = (12, 8);
const QUICK_SERVE_SCALE: (u32, usize) = (10, 8);
const SERVE_UPDATES_PER_S: f64 = 40_000.0;
const QUERIES: usize = 1024;
const QUICK_QUERIES: usize = 128;
/// Offered load on the served graph, queries per second (frozen).
const RATE_QPS: f64 = 20_000.0;

/// Per-layer metrics of layers this workload never calls, or that the
/// churn serving loop does not report (reported 0).
pub const BYPASSED: &[&str] = &[
    "multigpu.",
    "pipeline.select_host_s",
    "pipeline.candidates",
    "pipeline.preprocess_model_s",
    "serve.capacity_qps",
    "serve.attainment",
    "serve.queue_wait_p50_ms",
    "serve.queue_wait_p99_ms",
];

struct Input {
    /// The maintained graph and its churn stream.
    g: CsrMatrix<f64>,
    engine: StreamEngine<f64>,
    stream: Vec<TimedBatch<f64>>,
    /// The served graph, its churn stream and the query stream.
    served: CsrMatrix<f64>,
    served_stream: Vec<TimedBatch<f64>>,
    queries: Vec<Query>,
}

fn rmat(scale_ef: (u32, usize), seed: u64) -> CsrMatrix<f64> {
    generate_rmat(&RmatConfig {
        scale: scale_ef.0,
        edge_factor: scale_ef.1,
        seed,
        ..RmatConfig::default()
    })
}

fn churn(updates_per_s: f64, horizon_s: f64, seed: u64) -> ChurnConfig {
    ChurnConfig {
        updates_per_sec: updates_per_s,
        batch_interval_s: BATCH_INTERVAL_S,
        horizon_s,
        seed,
        ..ChurnConfig::default()
    }
}

pub fn run(cx: &mut Ctx) -> Result<(), String> {
    let (scale, serve_scale, batches, n_queries) = if cx.quick {
        (QUICK_SCALE, QUICK_SERVE_SCALE, QUICK_BATCHES, QUICK_QUERIES)
    } else {
        (SCALE, SERVE_SCALE, BATCHES, QUERIES)
    };
    let seed = cx.seed;
    let mut dev = Device::new(presets::gtx_titan());
    let cfg = AcsrConfig::for_device(dev.config());
    let input = cx.setup(|host| {
        let (g, _) = host.time("graphgen", "generate_rmat", 0, || rmat(scale, seed));
        let (engine, _) = host.time("stream", "build", 0, || StreamEngine::build(&dev, &g, cfg));
        let horizon = batches as f64 * BATCH_INTERVAL_S;
        let (stream, _) = host.time("graphgen", "generate_edge_stream", 0, || {
            generate_edge_stream(&g, &churn(UPDATES_PER_S, horizon, seed))
        });
        let (served, _) = host.time("graphgen", "generate_rmat", 1, || rmat(serve_scale, !seed));
        // The served graph churns for as long as queries arrive.
        let serve_horizon = n_queries as f64 / RATE_QPS;
        let (served_stream, _) = host.time("graphgen", "generate_edge_stream", 1, || {
            generate_edge_stream(&served, &churn(SERVE_UPDATES_PER_S, serve_horizon, !seed))
        });
        let (queries, _) = host.time("serve", "generate_queries", 0, || {
            frozen_arrivals(RATE_QPS, n_queries, served.rows(), seed)
        });
        Ok(Input {
            g,
            engine,
            stream,
            served,
            served_stream,
            queries,
        })
    })?;

    // Build the live served operator, then serve `queries` while its
    // churn stream lands (until the last query completes).
    let serve_cfg = ChurnServeConfig::default();
    let serve = |cx: &mut Ctx, dev: &Device, queries: &[Query], name: &'static str, id| {
        let (engine, _) = cx.host.time("stream", "build", id, || {
            StreamEngine::build(dev, &input.served, cfg)
        });
        let mut source = ChurnedStream::new(engine, input.served_stream.clone());
        let (report, busy_s) = cx.host.time("serve", name, id, || {
            serve_with_churn(dev, &mut source, queries, &serve_cfg)
        });
        // The churn serving loop sheds nothing: every query completes.
        for (k, q) in queries.iter().enumerate() {
            cx.checks.check(k < report.completed, || {
                format!("churn query {} never completed", q.id)
            });
        }
        let ops = report.completed as f64;
        (report, Rep { ops, busy_s })
    };
    // The whole trace once, for the modeled metrics; the timed
    // repetitions serve its head, as in `serve`.
    let (served, _) = serve(cx, &dev, &input.queries, "serve_with_churn_full", 0);
    let head = &input.queries[..REP_QUERIES.min(n_queries)];
    let mut head_waves = 0;
    let reps = cx.timed_reps(|cx, id| {
        let (report, rep) = serve(cx, &dev, head, "serve_with_churn", id);
        head_waves = report.waves;
        Ok(rep)
    })?;
    let rep_s = cx.record_host_rate(&reps);

    // Maintenance: apply the stream batch by batch, probing the
    // drift-tolerant plan cache and checking bit-identity after each.
    let mut engine = input.engine;
    let mut mirror = input.g;
    let tol = DriftTolerance::default();
    let mut cache = PlanCache::<f64>::new();
    let drift_key = |e: &StreamEngine<f64>, m: &CsrMatrix<f64>| DriftKey {
        rows: m.rows(),
        cols: m.cols(),
        epoch: e.epoch(),
        occupancy: e.occupancy(),
    };
    cache.probe_drift("acsr-stream", &drift_key(&engine, &mirror), &tol);
    let mut apply_ms = Vec::with_capacity(input.stream.len());
    let (mut incremental_s, mut updates) = (0.0f64, 0usize);
    let (mut touched, mut in_place, mut migrated) = (0usize, 0usize, 0usize);
    for (i, timed) in input.stream.iter().enumerate() {
        let id = i as u64;
        let (report, s) = cx.host.time("stream", "apply_batch", id, || {
            engine.apply_batch(&dev, &timed.batch)
        });
        apply_ms.push(s * 1e3);
        cx.host.time("pipeline", "probe_drift", id, || {
            cache.probe_drift("acsr-stream", &drift_key(&engine, &mirror), &tol)
        });
        let (identical, _) = cx.host.time("check", "fresh_build", id, || {
            mirror = timed.batch.apply_to_csr(&mirror);
            let fresh = StreamEngine::build(&dev, &mirror, cfg);
            engine.to_csr() == fresh.to_csr() && engine.occupancy() == fresh.occupancy()
        });
        cx.checks.check(identical, || {
            format!(
                "churn batch {}: maintained ACSR differs from a fresh build",
                i + 1
            )
        });
        incremental_s += report.total_seconds;
        updates += timed.ops;
        touched += report.touched_rows;
        in_place += report.in_place_rows;
        migrated += report.migrated_rows;
    }
    let x = dev.alloc(vec![1.0f64; mirror.cols()]);
    let y = dev.alloc_zeroed::<f64>(mirror.rows());
    let (read, _) = cx
        .host
        .time("stream", "spmv", 0, || engine.spmv(&dev, &x, &y));

    cx.model_metric("model_work_ms", "ms", incremental_s * 1e3);
    cx.model_metric(
        "model_gflops",
        "GFLOP/s",
        read.gflops(2 * mirror.nnz() as u64),
    );
    cx.model_metric("model_p50_ms", "ms", served.latency.p50_s * 1e3);
    cx.model_metric("model_p99_ms", "ms", served.latency.p99_s * 1e3);
    cx.host_metric("stream.apply_host_ms_p50", "ms", median(&mut apply_ms));
    cx.model_metric("stream.incremental_model_s", "s", incremental_s);
    cx.model_metric(
        "stream.updates_per_s",
        "updates/s",
        updates as f64 / incremental_s,
    );
    cx.model_metric(
        "stream.in_place_ratio",
        "fraction",
        in_place as f64 / touched.max(1) as f64,
    );
    cx.model_metric("stream.migrated_rows", "count", migrated as f64);
    cx.model_metric(
        "stream.maintenance_model_ms",
        "ms",
        served.maintenance_seconds * 1e3,
    );
    let probes = (cache.hits() + cache.misses()).max(1);
    cx.model_metric(
        "pipeline.plan_cache_hit_ratio",
        "fraction",
        cache.hits() as f64 / probes as f64,
    );
    let iterations = (served.completed * serve_cfg.iterations) as f64;
    cx.model_metric("apps.iterations", "count", iterations);
    cx.model_metric("serve.waves", "count", served.waves as f64);
    cx.model_metric(
        "serve.mean_wave_width",
        "queries",
        iterations / served.waves as f64,
    );
    cx.model_metric(
        "serve.shed",
        "count",
        (input.queries.len() - served.completed) as f64,
    );
    cx.host_metric(
        "serve.host_ms_per_wave",
        "ms",
        rep_s * 1e3 / head_waves as f64,
    );

    if cx.trace {
        let ledger = dev.enable_tracing();
        let (_, traced) = serve(cx, &dev, head, "serve_with_churn", reps.len() as u64);
        crate::device::record(cx, &[ledger], &[presets::gtx_titan()], rep_s, traced.busy_s);
    }
    Ok(())
}
