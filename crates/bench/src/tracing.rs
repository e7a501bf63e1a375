//! Capture plumbing for the `repro` binary: `--trace` and the
//! `profile`, `metrics` and `timeline` subcommands.
//!
//! Capture arms the process-global [`gpu_sim::TraceLedger`] (plus the
//! telemetry registry for `metrics` and `timeline`), so every
//! [`gpu_sim::Device`] an experiment creates attaches to it. After the
//! experiment the ledger is reconciled (span counters must sum exactly
//! to its running total — a hard failure otherwise), the subcommand's
//! artifact is written, and with `--trace` the ledger is exported as
//! chrome://tracing JSON under `results/` and summarized per ACSR phase
//! on stderr (stdout stays clean for `--json` pipelines).

use crate::artifact::{self, Schema};
use acsr::PhaseRollup;
use gpu_sim::{trace, Span, TraceLedger};

/// The untagged chrome://tracing export: at least one event.
pub const CHROME_TRACE: Schema = Schema {
    tag: "",
    kind: "chrome trace",
    fields: &[],
    rows: &[("traceEvents", 1, &[])],
    invariants: |_| Ok(()),
};

/// What `repro` records around an experiment besides its report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Capture {
    /// Nothing (`--trace` alone still exports the chrome trace).
    Off,
    /// `repro profile`: `results/PROFILE_<name>.json`.
    Profile,
    /// `repro metrics`: `results/METRICS_<name>.json`.
    Metrics,
    /// `repro timeline`: the metrics snapshot plus
    /// `results/TIMELINE_<name>.json`.
    Timeline,
}

/// Arm capture for one experiment, clearing prior state so back-to-back
/// runs write identical artifacts.
pub fn begin(capture: Capture) {
    trace::enable_global_capture();
    trace::global_ledger().clear();
    if matches!(capture, Capture::Metrics | Capture::Timeline) {
        acsr_telemetry::enable_global_capture();
        acsr_telemetry::global().reset();
    }
}

/// Disarm capture, reconcile the ledger, and write `capture`'s artifact
/// and, with `export_trace`, `results/trace_<name>.json`. An experiment
/// that did no device work writes neither a trace nor a profile. Panics
/// if the ledger's span counters fail to sum to its total — that would
/// mean the simulator lost or double-counted events.
pub fn finish(name: &str, capture: Capture, export_trace: bool) -> Result<(), String> {
    trace::disable_global_capture();
    acsr_telemetry::disable_global_capture();
    let ledger = trace::global_ledger();
    ledger
        .reconcile()
        .unwrap_or_else(|e| panic!("trace reconciliation failed for '{name}': {e}"));
    let spans = ledger.spans();
    if spans.is_empty() && (export_trace || capture == Capture::Profile) {
        eprintln!("{name}: no device work recorded; writing no trace or profile");
    }
    match capture {
        Capture::Profile if !spans.is_empty() => crate::profile::write(name, &ledger, &spans)?,
        Capture::Metrics | Capture::Timeline => {
            crate::metrics::write(name, &ledger, capture == Capture::Timeline)?
        }
        _ => {}
    }
    if export_trace && !spans.is_empty() {
        write_trace(name, &ledger, &spans)?;
    }
    ledger.clear();
    Ok(())
}

/// Export `results/trace_<name>.json` and print the per-phase rollup.
fn write_trace(name: &str, ledger: &TraceLedger, spans: &[Span]) -> Result<(), String> {
    let path = artifact::write(
        &CHROME_TRACE,
        &format!("trace_{name}.json"),
        &ledger.chrome_trace(),
    )?;
    let (rollup, total) = (PhaseRollup::from_spans(spans), ledger.total());
    eprintln!(
        "trace[{name}]: {} spans, {} launches, {:.3} ms modeled -> {}",
        spans.len(),
        total.launches,
        total.time_s * 1e3,
        path.display()
    );
    let attributed = rollup.total_seconds().max(1e-300);
    for (label, b) in rollup.nonempty() {
        eprintln!(
            "trace[{name}]:   {:<12} {:>5.1}%  {:>8} spans  {:>10} launches  {:>12} DRAM B  {:>12} PCIe B",
            label,
            100.0 * b.seconds / attributed,
            b.spans,
            b.launches,
            b.counters.dram_bytes(),
            b.counters.htod_bytes + b.counters.dtoh_bytes,
        );
    }
    if rollup.bin_grid_launches() > 0 || rollup.row_grid_launches() > 0 {
        eprintln!(
            "trace[{name}]:   Table V view: BS={} bin grids, RS={} row grids",
            rollup.bin_grid_launches(),
            rollup.row_grid_launches()
        );
    }
    Ok(())
}
