//! Deterministic virtual-clock telemetry for the serving stack.
//!
//! `gpu-sim`'s [`gpu_sim::trace::TraceLedger`] sees the kernel plane:
//! launches, counters, modeled times. This crate adds the *serving*
//! plane on top of it — and keeps the two joinable:
//!
//! * [`MetricsRegistry`] — named counters / gauges / log-bucketed
//!   histograms ([`LogHistogram`]), snapshotting to a
//!   [`MetricsSnapshot`] that serializes to an `acsr-metrics-v1`
//!   document's body. Counters are integer-exact. Each count has one
//!   bookkeeper: the serving scheduler records here live (its scope is
//!   reconciled against the `ServeReport` it builds separately), and
//!   every other count is read from its own record — a plan cache's
//!   fields, the trace ledger's merged [`gpu_sim::RunReport`] — once,
//!   by the bench harness that writes the snapshot. `acsr-serve` and
//!   the bench harness are this crate's only dependents.
//! * [`RequestTrace`] — per-query lifecycle events through `serve_slo`
//!   (arrival, shed, admission, completion) plus one [`WaveRecord`] per
//!   executed batch wave.
//! * [`timeline()`] — a chrome-trace export that lays the trace
//!   ledger's kernel spans and the request spans side by side, joined by
//!   the wave ids this crate allocates ([`Telemetry::next_wave_id`]) and
//!   the serving scheduler stamps into kernel spans via
//!   [`gpu_sim::trace::TraceLedger::set_wave`].
//!
//! # Determinism invariants
//!
//! Everything here is driven by the *model* clock and by data already
//! bit-identical across `ACSR_SIM_THREADS` worker widths, so metric
//! snapshots, request-event streams, and timeline exports are themselves
//! bit-identical across widths (pinned by cross-width proptests and a
//! golden `METRICS_serve_small.json`). No host wall-clock, no host RNG,
//! no iteration over unordered maps.
//!
//! # Zero cost when disabled
//!
//! The serving engine holds an `Option<Arc<Telemetry>>`; with `None`
//! every record site is one branch. Like the trace ledger's global
//! capture, [`enable_global_capture`] arms a process-global [`Telemetry`]
//! that subsequently constructed serving engines pick up, and that the
//! harness's end-of-run folds read through [`active`] — the hook behind
//! `repro metrics <exp>` / `repro timeline <exp>`.

mod hist;
mod metrics;
mod request;
mod timeline;

pub use hist::{nearest_rank, LogHistogram};
pub use metrics::{MetricValue, MetricsRegistry, MetricsSnapshot};
pub use request::{RequestEvent, RequestTrace, ShedKind, WaveRecord};
pub use timeline::timeline;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// One telemetry domain: a metrics registry, a request trace, and the
/// wave-id allocator that correlates request spans with kernel spans.
/// Shared by every instrumented engine in a process (`Arc`).
#[derive(Default)]
pub struct Telemetry {
    /// Named counters / gauges / histograms.
    pub metrics: MetricsRegistry,
    /// Per-query lifecycle events and wave records.
    pub requests: RequestTrace,
    wave_ids: AtomicU64,
}

impl Telemetry {
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    /// Allocate the next wave correlation id (1-based, process-unique
    /// until [`reset`](Telemetry::reset)). The serving scheduler stamps
    /// this into both its [`WaveRecord`]s and — via
    /// [`gpu_sim::trace::TraceLedger::set_wave`] — the kernel spans the
    /// wave launches.
    pub fn next_wave_id(&self) -> u64 {
        self.wave_ids.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Drop all metrics and request events and restart wave ids at 1 —
    /// the clean-slate reset `repro metrics` performs before a run so
    /// artifacts are reproducible.
    pub fn reset(&self) {
        self.metrics.clear();
        self.requests.clear();
        self.wave_ids.store(0, Ordering::SeqCst);
    }

    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty() && self.requests.is_empty()
    }
}

/// Process-global capture flag, mirroring `gpu_sim::trace`'s.
static GLOBAL_ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<Arc<Telemetry>> = OnceLock::new();

/// Make every *subsequently constructed* serving engine record into the
/// shared [`global`] telemetry, and make [`active`] hand it out. Used by
/// the bench binary's `metrics`/`timeline` modes, whose experiments
/// construct their engines internally.
pub fn enable_global_capture() {
    GLOBAL_ENABLED.store(true, Ordering::SeqCst);
}

/// Stop handing the global telemetry to new engines (already-attached
/// engines keep recording).
pub fn disable_global_capture() {
    GLOBAL_ENABLED.store(false, Ordering::SeqCst);
}

/// Whether [`enable_global_capture`] is in effect.
pub fn global_capture_enabled() -> bool {
    GLOBAL_ENABLED.load(Ordering::SeqCst)
}

/// The process-wide shared telemetry (created on first use).
pub fn global() -> Arc<Telemetry> {
    GLOBAL.get_or_init(|| Arc::new(Telemetry::new())).clone()
}

/// `Some(global())` while global capture is armed, else `None` — the
/// one-liner a serving engine calls at construction time, and a bench
/// fold calls at the end of a run, to pick up telemetry.
pub fn active() -> Option<Arc<Telemetry>> {
    if global_capture_enabled() {
        Some(global())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wave_ids_start_at_one_and_reset() {
        let tel = Telemetry::new();
        assert_eq!(tel.next_wave_id(), 1);
        assert_eq!(tel.next_wave_id(), 2);
        tel.metrics.add("x", 1);
        assert!(!tel.is_empty());
        tel.reset();
        assert!(tel.is_empty());
        assert_eq!(tel.next_wave_id(), 1, "reset restarts the allocator");
    }

    #[test]
    fn global_capture_flag_gates_active() {
        // Not armed by default in this test process.
        disable_global_capture();
        assert!(active().is_none());
        enable_global_capture();
        assert!(global_capture_enabled());
        let a = active().expect("armed capture yields the global handle");
        let b = global();
        assert!(Arc::ptr_eq(&a, &b));
        disable_global_capture();
        assert!(active().is_none());
    }
}
