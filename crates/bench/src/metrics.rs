//! `repro metrics <experiment>` / `repro timeline <experiment>` plumbing.
//!
//! Under [`crate::tracing`]'s capture, `metrics` arms both planes — the
//! kernel-plane [`gpu_sim::trace::TraceLedger`] and the serving-plane
//! [`acsr_telemetry::Telemetry`] — runs the experiment, folds the
//! ledger's reconciled totals into `sim.*` registry metrics
//! (integer-exactly, asserted), and writes the byte-stable
//! `results/METRICS_<name>.json` snapshot under [`METRICS`].
//!
//! `timeline` additionally exports `results/TIMELINE_<name>.json`
//! under [`TIMELINE`]: the chrome-trace join of kernel spans and
//! request spans, correlated by the wave ids the serving scheduler
//! stamps into both planes. The export is validated twice — while
//! [`acsr_telemetry::timeline()`] builds it and against the schema as
//! it is written — so a kernel span claiming an unannounced wave, or a
//! query admitted into an unknown wave, is a hard failure, not a
//! cosmetic gap.
//!
//! Each count has one bookkeeper, read once after the run. A serve run
//! keeps only its request trace while it runs (the wave-id join needs
//! it) and folds its `serve.*` metrics from that trace when it ends.
//! `record_plan_cache` folds a `PlanCache`'s hits, misses and
//! invalidations (`repro metrics selector` and `fig7`), the selector
//! folds its decisions from its report rows, and the kernel plane is
//! folded from the trace ledger here.

use crate::artifact::{self, as_u64, field, Schema};
use acsr_telemetry::{MetricValue, MetricsSnapshot};
use gpu_sim::TraceLedger;
use serde::Value;
use spmv_pipeline::PlanCache;

/// The `acsr-metrics-v1` contract: each metric's value matches its
/// type — a counter is a non-negative integer, a gauge has a value, a
/// histogram its summary — and no other type appears.
pub const METRICS: Schema = Schema {
    tag: "acsr-metrics-v1",
    kind: "metrics snapshot",
    fields: &[],
    rows: &[("metrics", 1, &["name", "type"])],
    invariants: typed_values,
};

fn typed_values(doc: &Value) -> Result<(), String> {
    for m in artifact::rows(doc, "metrics") {
        let (Some(Value::Str(name)), Some(Value::Str(kind))) = (field(m, "name"), field(m, "type"))
        else {
            return Err("metric entry with a non-string name or type".into());
        };
        let needs: &[&str] = match kind.as_str() {
            "counter" => {
                if field(m, "value").and_then(as_u64).is_none() {
                    return Err(format!("counter '{name}' must be a non-negative integer"));
                }
                &[]
            }
            "gauge" => &["value"],
            "histogram" => &["count", "sum", "p50", "p99", "buckets"],
            other => return Err(format!("metric '{name}' has unknown type '{other}'")),
        };
        if let Some(key) = needs.iter().find(|k| field(m, k).is_none()) {
            return Err(format!("{kind} '{name}' missing '{key}'"));
        }
    }
    Ok(())
}

/// The `acsr-timeline-v1` contract: structural wave correlation — every
/// event citing a wave id cites one the serving track announced.
pub const TIMELINE: Schema = Schema {
    tag: "acsr-timeline-v1",
    kind: "timeline export",
    fields: &["request_events", "wave_spans", "kernel_spans"],
    rows: &[("traceEvents", 1, &[])],
    invariants: waves_announced,
};

fn waves_announced(doc: &Value) -> Result<(), String> {
    let events = artifact::rows(doc, "traceEvents");
    let announces = |e: &Value| matches!(field(e, "cat"), Some(Value::Str(c)) if c == "wave");
    let wave = |e: &Value| {
        field(e, "args")
            .and_then(|a| field(a, "wave"))
            .and_then(as_u64)
    };
    let announced: Vec<u64> = events
        .iter()
        .filter(|e| announces(e))
        .filter_map(wave)
        .collect();
    match events
        .iter()
        .filter(|e| !announces(e))
        .filter_map(wave)
        .find(|w| !announced.contains(w))
    {
        Some(w) => Err(format!("event references unannounced wave {w}")),
        None => Ok(()),
    }
}

/// Fold a reconciled ledger's kernel plane into `sim.*`, write
/// `results/METRICS_<name>.json` (and `TIMELINE_<name>.json` when
/// `timeline`), dump the registry to stderr (`print_metrics`), and reset
/// it.
pub fn write(name: &str, ledger: &TraceLedger, timeline: bool) -> Result<(), String> {
    let tel = acsr_telemetry::global();
    let (total, spans) = (ledger.total(), ledger.spans().len());

    // Fold the kernel plane into the registry, then prove the fold is
    // integer-exact against the ledger's own merged total.
    let m = &tel.metrics;
    let folded = [
        ("sim.spans", spans as u64),
        ("sim.launches", u64::from(total.launches)),
        ("sim.warp_instructions", total.counters.warp_instructions),
        ("sim.flops", total.counters.flops),
        ("sim.dram_read_bytes", total.counters.dram_read_bytes),
        ("sim.dram_write_bytes", total.counters.dram_write_bytes),
        ("sim.htod_bytes", total.counters.htod_bytes),
        ("sim.dtoh_bytes", total.counters.dtoh_bytes),
    ];
    for (metric, value) in folded {
        m.add(metric, value);
    }
    m.set_gauge("sim.time_s", total.time_s);
    for (metric, want) in folded {
        assert_eq!(
            m.counter(metric),
            want,
            "{metric} drifted from the trace ledger for '{name}'"
        );
    }

    let snap = tel.metrics.snapshot();
    let path = artifact::write(&METRICS, &format!("METRICS_{name}.json"), &snap)?;
    print_metrics(&format!("metrics[{name}]"), &snap);
    eprintln!(
        "metrics[{name}]: {} metrics, {} request events, {} waves -> {}",
        snap.entries.len(),
        tel.requests.events().len(),
        tel.requests.waves().len(),
        path.display()
    );

    if timeline {
        let doc = acsr_telemetry::timeline(ledger, &tel)
            .unwrap_or_else(|e| panic!("timeline export failed for '{name}': {e}"));
        let tpath = artifact::write(&TIMELINE, &format!("TIMELINE_{name}.json"), &doc)?;
        eprintln!(
            "metrics[{name}]: timeline ({spans} kernel spans + request lanes) -> {}",
            tpath.display()
        );
    }
    tel.reset();
    Ok(())
}

/// Fold a plan cache's accounting into the armed registry, once, after
/// the run that owned the cache: `plan_cache.hits`, `plan_cache.misses`
/// and `plan_cache.invalidations`, each only when nonzero (a count with
/// no events has no entry). A no-op when no `repro metrics` run armed
/// the registry.
pub(crate) fn record_plan_cache(cache: &PlanCache<f64>) {
    let Some(tel) = acsr_telemetry::active() else {
        return;
    };
    for (name, n) in [
        ("plan_cache.hits", cache.hits()),
        ("plan_cache.misses", cache.misses()),
        ("plan_cache.invalidations", cache.invalidations()),
    ] {
        if n > 0 {
            tel.metrics.add(name, n);
        }
    }
}

/// The stderr dump of a snapshot: one line per metric in snapshot (=
/// name-sorted) order, histograms summarized by count and nearest-rank
/// quantiles. stdout stays clean for `--json`.
fn print_metrics(tag: &str, snap: &MetricsSnapshot) {
    for (name, value) in &snap.entries {
        match value {
            MetricValue::Counter(v) => eprintln!("{tag}: {name} = {v}"),
            MetricValue::Gauge(v) => eprintln!("{tag}: {name} = {v:.6}"),
            MetricValue::Histogram(h) => {
                // The `_s` naming convention marks seconds-valued series;
                // everything else (queue depths, wave widths) is a count.
                let fmt: fn(f64) -> String = if name.ends_with("_s") {
                    crate::common::fmt_secs
                } else {
                    |v: f64| format!("{v:.1}")
                };
                eprintln!(
                    "{tag}: {name} count={} p50={} p95={} p99={} max={}",
                    h.count(),
                    fmt(h.quantile(0.50)),
                    fmt(h.quantile(0.95)),
                    fmt(h.quantile(0.99)),
                    fmt(h.max()),
                );
            }
        }
    }
}
