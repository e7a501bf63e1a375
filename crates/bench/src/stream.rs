//! `repro stream` — the streaming-maintenance benchmark.
//!
//! A live device-resident ACSR absorbs a sustained RMAT edge-churn
//! stream ([`graphgen::generate_edge_stream`]) through
//! [`acsr_stream::StreamEngine`], and three questions are answered:
//!
//! 1. **Throughput** — edge updates/sec of in-place maintenance vs the
//!    full-rebuild baseline (host applies the batch, re-plans ACSR from
//!    scratch, re-uploads the staged image). The paper's §VII claim,
//!    extended to the streaming regime.
//! 2. **Correctness** — after *every* batch the maintained engine is
//!    compared against a from-scratch [`StreamEngine::build`] of the
//!    same logical matrix: same elements, same occupancy, and one probe
//!    SpMV must agree bit-for-bit in values *and* modeled timing.
//! 3. **Serving impact** — p99 query latency of batched RWR serving
//!    with churn contending for the device
//!    ([`acsr_serve::serve_with_churn`]) vs the same query stream on a
//!    steady operator.
//!
//! The drift-tolerant [`PlanCache::probe_drift`] is exercised per batch
//! (anchored at build time). The report carries both records as they
//! are kept: the cache's hit/miss/invalidation counts plus the probes
//! that survived drift, and the [`LedgerTotals`] summed from the
//! engine's per-batch [`BatchReport`]s.
//!
//! Results go to `results/BENCH_stream.json` under [`SCHEMA`], which the
//! write and `repro check-artifacts` both enforce — a run that lost
//! bit-identity writes nothing; `repro bench-diff` gates the numbers
//! against `baselines/BENCH_stream_ci.json`.

use crate::artifact::{self, Schema};
use acsr::AcsrConfig;
use acsr_serve::{
    generate_queries, serve_with_churn, ArrivalPattern, ChurnServeConfig, SteadyOperator,
};
use acsr_stream::{BatchReport, ChurnedStream, StreamEngine};
use gpu_sim::{presets, Device};
use graphgen::{generate_edge_stream, generate_rmat, ChurnConfig, RmatConfig};
use serde::{Serialize, Value};
use sparse_formats::{CsrMatrix, HostModel};
use spmv_kernels::GpuSpmv;
use spmv_pipeline::{
    DriftKey, DriftOutcome, DriftTolerance, FormatRegistry, PlanBudget, PlanCache,
};

/// The `acsr-stream-v1` contract: the maintained ACSR stayed
/// bit-identical to the fresh build, overall and after every batch.
pub const SCHEMA: Schema = Schema {
    tag: "acsr-stream-v1",
    kind: "stream report",
    fields: &[
        "rows",
        "batches",
        "total_ops",
        "identical",
        "updates_per_sec",
        "rebuild_updates_per_sec",
        "speedup",
        "p99_churn_ms",
        "p99_steady_ms",
        "ledger",
    ],
    rows: &[(
        "batch_rows",
        1,
        &["name", "ops", "incremental_s", "rebuild_s", "drift"],
    )],
    invariants: identical,
};

fn identical(doc: &Value) -> Result<(), String> {
    let holds = |obj: &Value| artifact::field(obj, "identical") == Some(&Value::Bool(true));
    if !holds(doc) {
        Err("lost bit-identity with the fresh build".into())
    } else if !artifact::rows(doc, "batch_rows").iter().all(holds) {
        Err("a batch row failed identity".into())
    } else {
        Ok(())
    }
}

/// One applied maintenance batch.
#[derive(Serialize)]
pub struct BatchRow {
    /// Stable row key (`batch_01`, ...; `bench-diff` keys rows by this).
    pub name: String,
    /// Arrival time on the virtual clock.
    pub at_ms: f64,
    /// Edge operations in the batch (inserts + deletes).
    pub ops: usize,
    /// Modeled seconds of in-place maintenance (plan + merge + deltas).
    pub incremental_s: f64,
    /// Modeled seconds of the full-rebuild baseline for the same batch
    /// (host apply + ACSR re-plan + staged re-upload).
    pub rebuild_s: f64,
    /// Rows merged within their existing slack.
    pub in_place_rows: usize,
    /// Rows migrated to a different bin class.
    pub migrated_rows: usize,
    /// Bit-identity vs a from-scratch build after this batch.
    pub identical: bool,
    /// What the drift probe decided (`hit` / `survived` / `replan`).
    pub drift: &'static str,
}

/// Maintenance totals over the throughput run (the artifact's `ledger`
/// object), summed from the engine's [`BatchReport`]s.
#[derive(Default, Serialize)]
pub struct LedgerTotals {
    pub batches: u64,
    pub in_place_rows: u64,
    pub migrated_rows: u64,
    /// Rows relocated without a bin change (arena capacity shifts).
    pub capacity_shift_rows: u64,
    /// Batches that regrew the element buffers.
    pub buffer_grows: u64,
    pub bytes_rewritten: u64,
}

impl LedgerTotals {
    fn add(&mut self, r: &BatchReport) {
        self.batches += 1;
        self.in_place_rows += r.in_place_rows as u64;
        self.migrated_rows += r.migrated_rows as u64;
        self.capacity_shift_rows += r.relocated_rows as u64;
        self.buffer_grows += u64::from(r.buffer_grown);
        self.bytes_rewritten += r.bytes_rewritten;
    }
}

/// Full report of one streaming run.
#[derive(Serialize)]
pub struct Report {
    pub rows: usize,
    pub nnz_initial: usize,
    pub nnz_final: usize,
    pub batches: usize,
    pub total_ops: usize,
    /// Every per-batch identity check passed.
    pub identical: bool,
    /// Edge updates per modeled second, in-place maintenance.
    pub updates_per_sec: f64,
    /// Edge updates per modeled second, full-rebuild baseline.
    pub rebuild_updates_per_sec: f64,
    /// `updates_per_sec / rebuild_updates_per_sec`.
    pub speedup: f64,
    /// Plan-cache accounting over the drift probes.
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_invalidations: u64,
    /// Probes answered `Survived` (plan kept despite drift).
    pub plans_survived: u64,
    /// Serving p99 with churn contending for the device, milliseconds.
    pub p99_churn_ms: f64,
    /// Serving p99 on a steady operator, same query stream.
    pub p99_steady_ms: f64,
    pub p50_churn_ms: f64,
    pub p50_steady_ms: f64,
    /// Maintenance events applied during the churn serving run.
    pub churn_events: usize,
    /// Maintenance totals over the throughput run.
    pub ledger: LedgerTotals,
    pub batch_rows: Vec<BatchRow>,
}

/// Deterministic probe vector (same recipe as the identity tests).
fn xvec(cols: usize) -> Vec<f64> {
    (0..cols).map(|i| 0.25 + (i % 13) as f64 * 0.5).collect()
}

/// Maintained-vs-fresh bit identity: elements, occupancy, and one SpMV
/// agreeing in value bits, counters, and modeled-time bits.
fn bit_identical(dev: &Device, maintained: &StreamEngine<f64>, fresh: &StreamEngine<f64>) -> bool {
    if maintained.to_csr() != fresh.to_csr() || maintained.occupancy() != fresh.occupancy() {
        return false;
    }
    let x = dev.alloc(xvec(fresh.to_csr().cols()));
    let rows = fresh.to_csr().rows();
    let (ya, yb) = (dev.alloc_zeroed::<f64>(rows), dev.alloc_zeroed::<f64>(rows));
    let ra = maintained.spmv(dev, &x, &ya);
    let rb = fresh.spmv(dev, &x, &yb);
    let bits = |b: gpu_sim::DeviceBuffer<f64>| {
        b.into_vec()
            .into_iter()
            .map(f64::to_bits)
            .collect::<Vec<_>>()
    };
    bits(ya) == bits(yb) && ra.time_s.to_bits() == rb.time_s.to_bits() && ra.launches == rb.launches
}

/// Run the full streaming bench. `quick` shrinks the graph and the
/// stream for CI smoke runs — same schema, same per-batch identity
/// checks, still fully deterministic.
pub fn run(quick: bool) -> Report {
    // Below ~16k nnz a from-scratch rebuild is cheaper than the
    // incremental path's fixed per-batch floors (five delta transfers
    // at PCIe latency); the quick run sits just above that crossover,
    // the full run well past it where the paper-scale claim holds.
    let (scale, edge_factor, churn) = if quick {
        (
            12,
            8,
            ChurnConfig {
                updates_per_sec: 40_000.0,
                batch_interval_s: 0.005,
                horizon_s: 0.04,
                ..ChurnConfig::default()
            },
        )
    } else {
        (
            15,
            16,
            ChurnConfig {
                updates_per_sec: 200_000.0,
                batch_interval_s: 0.005,
                horizon_s: 0.06,
                ..ChurnConfig::default()
            },
        )
    };
    let m0: CsrMatrix<f64> = generate_rmat(&RmatConfig {
        scale,
        edge_factor,
        ..RmatConfig::default()
    });
    let dev = Device::new(presets::gtx_titan());
    let host = HostModel::default();
    let cfg = AcsrConfig::for_device(dev.config());
    let stream = generate_edge_stream(&m0, &churn);

    // --- throughput + identity: apply the stream batch by batch -------
    let reg = FormatRegistry::<f64>::with_all();
    let budget = PlanBudget::for_device(dev.config());
    let tol = DriftTolerance::default();
    let mut cache = PlanCache::<f64>::new();
    let mut engine = StreamEngine::build(&dev, &m0, cfg);
    let mut mirror = m0.clone();
    // anchor the planning-time structure (the build's plan)
    let drift_key = |e: &StreamEngine<f64>, m: &CsrMatrix<f64>| DriftKey {
        rows: m.rows(),
        cols: m.cols(),
        epoch: e.epoch(),
        occupancy: e.occupancy(),
    };
    cache.probe_drift("acsr-stream", &drift_key(&engine, &mirror), &tol);

    let mut batch_rows = Vec::with_capacity(stream.len());
    let mut incremental_total = 0.0f64;
    let mut rebuild_total = 0.0f64;
    let mut total_ops = 0usize;
    let mut identical = true;
    let mut survived = 0u64;
    let mut ledger = LedgerTotals::default();
    for (i, timed) in stream.iter().enumerate() {
        mirror = timed.batch.apply_to_csr(&mirror);
        let report = engine.apply_batch(&dev, &timed.batch);
        ledger.add(&report);

        // The baseline pays the whole pipeline again: host-side apply
        // (stream the index+value arrays through memory), a fresh ACSR
        // plan, and the staged re-upload.
        let apply_host = (mirror.nnz() as u64 * 2 * (4 + 8)) as f64 / host.mem_bandwidth_bytes_s;
        let plan = reg
            .plan("ACSR", &dev, &mirror, &budget)
            .expect("rebuild plan within device memory");
        let rebuild_s =
            apply_host + plan.preprocess_seconds(&host) + dev.htod_seconds(plan.upload_bytes());

        let fresh = StreamEngine::build(&dev, &mirror, cfg);
        let ok = bit_identical(&dev, &engine, &fresh);
        identical &= ok;

        let outcome = cache.probe_drift("acsr-stream", &drift_key(&engine, &mirror), &tol);
        let drift = match &outcome {
            DriftOutcome::Hit => "hit",
            DriftOutcome::Survived { .. } => {
                survived += 1;
                "survived"
            }
            DriftOutcome::Replan { reason } => {
                eprintln!("stream: batch {:>2} replanned: {reason}", i + 1);
                "replan"
            }
        };

        incremental_total += report.total_seconds;
        rebuild_total += rebuild_s;
        total_ops += timed.ops;
        batch_rows.push(BatchRow {
            name: format!("batch_{:02}", i + 1),
            at_ms: timed.at_s * 1e3,
            ops: timed.ops,
            incremental_s: report.total_seconds,
            rebuild_s,
            in_place_rows: report.in_place_rows,
            migrated_rows: report.migrated_rows,
            identical: ok,
            drift,
        });
    }

    // --- serving impact: same queries, with and without churn ---------
    // The serving study runs on its own fixed-size graph (the
    // throughput matrix above grows with `--quick`/full; query latency
    // contention doesn't need paper scale, it needs a sustained
    // maintenance timetable on the serving clock).
    let ms: CsrMatrix<f64> = generate_rmat(&RmatConfig {
        scale: 10,
        edge_factor: 8,
        ..RmatConfig::default()
    });
    let serve_churn = ChurnConfig {
        updates_per_sec: 40_000.0,
        batch_interval_s: 0.005,
        horizon_s: 0.04,
        ..ChurnConfig::default()
    };
    let serve_stream = generate_edge_stream(&ms, &serve_churn);
    let n_queries = if quick { 48 } else { 96 };
    let queries = generate_queries(
        ArrivalPattern::Poisson {
            rate_qps: n_queries as f64 / serve_churn.horizon_s,
        },
        n_queries,
        ms.rows(),
        0.85,
        21,
    );
    let serve_cfg = ChurnServeConfig::default();
    let steady_engine = StreamEngine::build(&dev, &ms, cfg);
    let mut steady = SteadyOperator::new(&steady_engine);
    let steady_report = serve_with_churn(&dev, &mut steady, &queries, &serve_cfg);
    let mut churned = ChurnedStream::new(StreamEngine::build(&dev, &ms, cfg), serve_stream);
    let churn_report = serve_with_churn(&dev, &mut churned, &queries, &serve_cfg);

    Report {
        rows: m0.rows(),
        nnz_initial: m0.nnz(),
        nnz_final: mirror.nnz(),
        batches: stream.len(),
        total_ops,
        identical,
        updates_per_sec: total_ops as f64 / incremental_total,
        rebuild_updates_per_sec: total_ops as f64 / rebuild_total,
        speedup: rebuild_total / incremental_total,
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        cache_invalidations: cache.invalidations(),
        plans_survived: survived,
        p99_churn_ms: churn_report.latency.p99_s * 1e3,
        p99_steady_ms: steady_report.latency.p99_s * 1e3,
        p50_churn_ms: churn_report.latency.p50_s * 1e3,
        p50_steady_ms: steady_report.latency.p50_s * 1e3,
        churn_events: churn_report.maintenance_events,
        ledger,
        batch_rows,
    }
}

/// Human-readable tables.
pub fn render(report: &Report) -> String {
    let mut t = crate::Table::new(&[
        "batch",
        "at ms",
        "ops",
        "incr µs",
        "rebuild µs",
        "in-place",
        "migrated",
        "identical",
        "drift",
    ]);
    for b in &report.batch_rows {
        t.row(vec![
            b.name.clone(),
            format!("{:.1}", b.at_ms),
            b.ops.to_string(),
            format!("{:.1}", b.incremental_s * 1e6),
            format!("{:.1}", b.rebuild_s * 1e6),
            b.in_place_rows.to_string(),
            b.migrated_rows.to_string(),
            if b.identical { "yes" } else { "NO" }.to_string(),
            b.drift.to_string(),
        ]);
    }
    format!(
        "Streaming ACSR maintenance ({} rows, {} -> {} nnz, {} batches, {} edge ops)\n{}\
         in-place: {:.0} updates/s   full rebuild: {:.0} updates/s   speedup: {:.1}x\n\
         bit-identical to fresh build after every batch: {}\n\
         serving p99 under churn: {:.3} ms   steady: {:.3} ms   ({} maintenance events)\n",
        report.rows,
        report.nnz_initial,
        report.nnz_final,
        report.batches,
        report.total_ops,
        t.render(),
        report.updates_per_sec,
        report.rebuild_updates_per_sec,
        report.speedup,
        if report.identical { "yes" } else { "NO" },
        report.p99_churn_ms,
        report.p99_steady_ms,
        report.churn_events,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick run is what CI smokes and gates; pin its acceptance
    /// shape so a drive-by change can't silently ship a run that lost
    /// bit-identity or its throughput edge.
    #[test]
    fn quick_run_is_identical_and_beats_rebuild() {
        let report = run(true);
        assert!(
            report.identical,
            "maintained ACSR diverged from fresh build"
        );
        assert!(report.batches >= 4, "need a sustained stream");
        assert!(report.total_ops > 0);
        assert!(
            report.speedup > 1.0,
            "in-place maintenance must beat full rebuild, got {:.2}x",
            report.speedup
        );
        // the drift-tolerant cache must keep the plan alive across at
        // least part of the stream (the whole point of drift keys)
        assert!(
            report.cache_hits >= 1,
            "no probe survived drift: hits {}, misses {}",
            report.cache_hits,
            report.cache_misses
        );
        assert_eq!(
            report.cache_hits + report.cache_misses,
            report.batches as u64 + 1,
            "one probe per batch plus the build anchor"
        );
        // churn can only add latency, never remove it
        assert!(report.p99_churn_ms >= report.p99_steady_ms);
        assert!(report.churn_events > 0, "churn run applied no batches");
        for v in [
            report.updates_per_sec,
            report.rebuild_updates_per_sec,
            report.speedup,
            report.p99_churn_ms,
            report.p99_steady_ms,
        ] {
            assert!(v.is_finite() && v > 0.0, "non-finite metric {v}");
        }
        // the artifact meets its contract and carries every batch
        let json = artifact::render(&SCHEMA, &report).unwrap();
        assert_eq!(artifact::validate(&json), Ok(SCHEMA.kind));
        let doc = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(
            artifact::field(&doc, "schema"),
            Some(&Value::Str(SCHEMA.tag.into()))
        );
        assert_eq!(artifact::rows(&doc, "batch_rows").len(), report.batches);
    }
}
