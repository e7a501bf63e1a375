//! `repro profile <experiment>` plumbing.
//!
//! Under [`crate::tracing`]'s capture, folds the experiment's spans
//! through [`gpu_sim::ProfileReport`] into per-kernel derived metrics,
//! writes a stable `results/PROFILE_<name>.json` under [`SCHEMA`]
//! (documented in EXPERIMENTS.md), and prints an Nsight-style
//! hot-kernel table to stderr — stdout stays clean for `--json`
//! pipelines. The report must reconcile bit-exactly with both the
//! ledger total and the per-phase rollup; a mismatch panics.

use crate::artifact::{self, Schema};
use acsr::PhaseRollup;
use gpu_sim::counters::LANE_HIST_LABELS;
use gpu_sim::profile::{KernelRow, ProfileReport};
use gpu_sim::{presets, DeviceConfig, Span, TraceLedger};
use serde::{Serialize, Value};

/// The `acsr-profile-v1` contract: at least one kernel row.
pub const SCHEMA: Schema = Schema {
    tag: "acsr-profile-v1",
    kind: "profile report",
    fields: &["devices", "phases", "total"],
    rows: &[("kernels", 1, &[])],
    invariants: |_| Ok(()),
};

/// Device presets the profiler can match spans against (multi-GPU
/// instance names like `"GTX Titan #1"` match by prefix).
pub fn known_configs() -> Vec<DeviceConfig> {
    vec![
        presets::gtx_580(),
        presets::tesla_k10_single(),
        presets::gtx_titan(),
    ]
}

/// Derive the per-kernel profile of a reconciled ledger's `spans`,
/// verify it reconciles, write `results/PROFILE_<name>.json`, and print
/// the hot-kernel table to stderr.
pub fn write(name: &str, ledger: &TraceLedger, spans: &[Span]) -> Result<(), String> {
    let configs = known_configs();
    let report = ProfileReport::from_spans(spans, &configs);
    report
        .reconcile()
        .unwrap_or_else(|e| panic!("profile reconciliation failed for '{name}': {e}"));
    let ledger_total = ledger.total();
    assert_eq!(
        report.total.counters, ledger_total.counters,
        "profile total counters drifted from the ledger"
    );
    assert_eq!(
        report.total.time_s.to_bits(),
        ledger_total.time_s.to_bits(),
        "profile total time drifted from the ledger"
    );
    let rollup = PhaseRollup::from_spans(spans);
    let path = artifact::write(
        &SCHEMA,
        &format!("PROFILE_{name}.json"),
        &document(name, &report, &rollup),
    )?;
    eprint!("{}", hot_table(name, &report, &path));
    Ok(())
}

/// The profile as the stable `acsr-profile-v1` document, which
/// [`artifact::write`] tags and renders. Kernel rows are sorted by
/// `(device, kind, name)` so the bytes do not depend on ledger record
/// order; `span_ids` still cross-link each row to its `span_id`-tagged
/// chrome-trace events.
pub fn document(name: &str, report: &ProfileReport, rollup: &PhaseRollup) -> Value {
    let mut rows: Vec<&KernelRow> = report.rows.iter().collect();
    rows.sort_by(|a, b| {
        (&a.device, a.kind.label(), &a.name).cmp(&(&b.device, b.kind.label(), &b.name))
    });

    let obj = |entries: Vec<(&str, Value)>| {
        Value::Object(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let opt = |v: Option<f64>| v.map(Value::F64).unwrap_or(Value::Null);

    let devices = report
        .devices
        .iter()
        .map(|d| {
            obj(vec![
                ("device", Value::Str(d.device.clone())),
                ("peak_gflops", Value::F64(d.peak_gflops)),
                ("mem_bandwidth_gbs", Value::F64(d.mem_bandwidth_gbs)),
                ("ridge_flops_per_byte", Value::F64(d.ridge_flops_per_byte)),
            ])
        })
        .collect();

    let phases = rollup
        .nonempty()
        .into_iter()
        .map(|(label, b)| {
            obj(vec![
                ("phase", Value::Str(label.to_string())),
                ("seconds", Value::F64(b.seconds)),
                ("spans", Value::U64(b.spans as u64)),
                ("launches", Value::U64(b.launches)),
            ])
        })
        .collect();

    let kernels = rows
        .iter()
        .map(|r| {
            let m = &r.metrics;
            let lane_hist = obj(LANE_HIST_LABELS
                .iter()
                .zip(r.counters.lane_hist.iter())
                .map(|(label, v)| (*label, Value::U64(*v)))
                .collect());
            obj(vec![
                ("device", Value::Str(r.device.clone())),
                ("name", Value::Str(r.name.clone())),
                ("kind", Value::Str(r.kind.label().to_string())),
                ("spans", Value::U64(r.spans as u64)),
                ("launches", Value::U64(u64::from(r.launches))),
                (
                    "span_ids",
                    Value::Array(r.span_ids.iter().map(|i| Value::U64(*i as u64)).collect()),
                ),
                ("time_s", Value::F64(r.time_s)),
                (
                    "metrics",
                    obj(vec![
                        (
                            "warp_execution_efficiency",
                            opt(m.warp_execution_efficiency),
                        ),
                        ("coalescing_efficiency", opt(m.coalescing_efficiency)),
                        ("tex_hit_rate", opt(m.tex_hit_rate)),
                        ("atomic_serialization", opt(m.atomic_serialization)),
                        ("divergent_op_fraction", opt(m.divergent_op_fraction)),
                        ("achieved_occupancy", opt(m.achieved_occupancy)),
                        ("load_imbalance", opt(m.load_imbalance)),
                        ("arithmetic_intensity", opt(m.arithmetic_intensity)),
                        ("achieved_gflops", opt(m.achieved_gflops)),
                        ("dram_gbs", opt(m.dram_gbs)),
                        (
                            "roofline",
                            m.roofline
                                .map(|v| Value::Str(v.label().to_string()))
                                .unwrap_or(Value::Null),
                        ),
                        (
                            "limiter",
                            m.limiter
                                .map(|v| Value::Str(v.label().to_string()))
                                .unwrap_or(Value::Null),
                        ),
                        (
                            "verdict",
                            m.verdict
                                .map(|v| Value::Str(v.label().to_string()))
                                .unwrap_or(Value::Null),
                        ),
                    ]),
                ),
                ("lane_hist", lane_hist),
                ("counters", r.counters.to_value()),
                (
                    "breakdown",
                    r.breakdown
                        .as_ref()
                        .map(|b| b.to_value())
                        .unwrap_or(Value::Null),
                ),
            ])
        })
        .collect();

    obj(vec![
        ("experiment", Value::Str(name.to_string())),
        ("devices", Value::Array(devices)),
        ("phases", Value::Array(phases)),
        (
            "total",
            obj(vec![
                ("time_s", Value::F64(report.total.time_s)),
                ("launches", Value::U64(u64::from(report.total.launches))),
                ("counters", report.total.counters.to_value()),
            ]),
        ),
        ("kernels", Value::Array(kernels)),
    ])
}

fn pct(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{:.1}%", 100.0 * v),
        None => "-".to_string(),
    }
}

/// The Nsight-style stderr report: rows by descending modeled time.
pub fn hot_table(name: &str, report: &ProfileReport, path: &std::path::Path) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "profile[{name}]: {} rows across {} device(s), {:.3} ms modeled -> {}",
        report.rows.len(),
        report.devices.len(),
        report.total.time_s * 1e3,
        path.display()
    );
    for d in &report.devices {
        let _ = writeln!(
            out,
            "profile[{name}]:   roofline[{}]: ridge {:.1} flop/B (peak {:.0} GFLOP/s / {:.0} GB/s)",
            d.device, d.ridge_flops_per_byte, d.peak_gflops, d.mem_bandwidth_gbs
        );
    }
    let _ = writeln!(
        out,
        "profile[{name}]:   {:>6}  {:>10}  {:>7}  {:>6}  {:>6}  {:>6}  {:>5}  {:>8}  {:<13} kernel",
        "time%", "time", "launch", "weff", "coal", "occ", "imb", "flop/B", "verdict"
    );
    let total = report.total.time_s.max(1e-300);
    for r in report.rows_by_time().into_iter().take(16) {
        let m = &r.metrics;
        let _ = writeln!(
            out,
            "profile[{name}]:   {:>5.1}%  {:>10}  {:>7}  {:>6}  {:>6}  {:>6}  {:>5}  {:>8}  {:<13} {}{}",
            100.0 * r.time_s / total,
            crate::common::fmt_secs(r.time_s),
            r.launches,
            pct(m.warp_execution_efficiency),
            pct(m.coalescing_efficiency),
            pct(m.achieved_occupancy),
            m.load_imbalance
                .map(|v| format!("{v:.2}"))
                .unwrap_or_else(|| "-".into()),
            m.arithmetic_intensity
                .map(|v| format!("{v:.3}"))
                .unwrap_or_else(|| "-".into()),
            m.verdict.map(|v| v.label()).unwrap_or("-"),
            if report.devices.len() > 1 {
                format!("{} @ {}", r.name, r.device)
            } else {
                r.name.clone()
            },
            if r.kind == gpu_sim::RowKind::Group {
                " [group]"
            } else {
                ""
            },
        );
    }
    out
}
