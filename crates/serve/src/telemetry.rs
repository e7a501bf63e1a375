//! Serving-plane instrumentation and its accounting check.
//!
//! When a [`crate::ServeEngine`] holds a [`Telemetry`] handle, each
//! [`serve_slo`](crate::ServeEngine::serve_slo) run records into a
//! *scoped* per-run [`MetricsRegistry`] (plus the shared request trace),
//! then — before anything is published — [`reconcile_serve`] asserts the
//! scoped counters equal the just-built [`ServeReport`]'s fields
//! *integer-exactly*. Only a reconciled registry is merged into the
//! shared telemetry, so `repro metrics serve` snapshots can never drift
//! from the report the run already ships. A mismatch is a panic, not a
//! warning: the scope is recorded live (the request trace's wave-id
//! join needs it) and the `ServeReport` is built separately, so they
//! are two records of one run, and disagreement means one of them
//! miscounted. Each wave's [`WaveRecord`] names its queries and counts
//! the devices that held one of them.

use crate::query::Query;
use crate::scheduler::ServeReport;
use acsr_telemetry::{MetricsRegistry, RequestEvent, ShedKind, Telemetry, WaveRecord};
use gpu_sim::RunReport;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Per-run instrumentation scope: the scoped registry, the pending wave
/// id (allocated at first admission so `Admitted` events can name the
/// wave they will ride before it runs), and the tenants seen so far.
pub(crate) struct ServeScope {
    tel: Arc<Telemetry>,
    metrics: MetricsRegistry,
    pending_wave: Option<u64>,
    tenants: BTreeSet<u32>,
}

impl ServeScope {
    pub(crate) fn new(tel: Arc<Telemetry>) -> ServeScope {
        ServeScope {
            tel,
            metrics: MetricsRegistry::new(),
            pending_wave: None,
            tenants: BTreeSet::new(),
        }
    }

    /// One arrival offered to the submission queue (`depth_before` is
    /// the occupancy at the offer instant; `accepted` false means
    /// capacity shed).
    pub(crate) fn on_offer(&mut self, q: &Query, depth_before: usize, accepted: bool) {
        self.tenants.insert(q.tenant);
        self.metrics.add("serve.offered", 1);
        self.metrics
            .add(&format!("serve.tenant.{}.offered", q.tenant), 1);
        self.metrics
            .observe("serve.queue_depth", depth_before as f64);
        self.tel.requests.record(RequestEvent::Arrival {
            t_s: q.arrival_s,
            query: q.id,
            tenant: q.tenant,
        });
        if !accepted {
            self.metrics.add("serve.shed.capacity", 1);
            self.metrics
                .add(&format!("serve.tenant.{}.shed", q.tenant), 1);
            self.tel.requests.record(RequestEvent::Shed {
                t_s: q.arrival_s,
                query: q.id,
                tenant: q.tenant,
                kind: ShedKind::Capacity,
            });
        }
    }

    /// A waiter dropped at pop time because its queue wait had already
    /// consumed the tenant's SLO budget.
    pub(crate) fn on_deadline_shed(&mut self, now: f64, q: &Query) {
        self.metrics.add("serve.shed.deadline", 1);
        self.metrics
            .add(&format!("serve.tenant.{}.shed", q.tenant), 1);
        self.tel.requests.record(RequestEvent::Shed {
            t_s: now,
            query: q.id,
            tenant: q.tenant,
            kind: ShedKind::Deadline,
        });
    }

    /// A query admitted into a batch slot at `now`; it will ride the
    /// pending wave (allocated here on first admission).
    pub(crate) fn on_admitted(&mut self, now: f64, q: &Query) {
        let wave = *self
            .pending_wave
            .get_or_insert_with(|| self.tel.next_wave_id());
        let wait = now - q.arrival_s;
        self.metrics.add("serve.admitted", 1);
        self.metrics
            .add(&format!("serve.tenant.{}.admitted", q.tenant), 1);
        self.metrics.observe("serve.queue_wait_s", wait);
        self.tel.requests.record(RequestEvent::Admitted {
            t_s: now,
            query: q.id,
            tenant: q.tenant,
            wave,
            queue_wait_s: wait,
        });
    }

    /// The wave id the next wave executes under: the pending id its
    /// admissions announced, or a fresh one when only survivors ride.
    pub(crate) fn take_wave_id(&mut self) -> u64 {
        self.pending_wave
            .take()
            .unwrap_or_else(|| self.tel.next_wave_id())
    }

    /// One executed wave.
    pub(crate) fn on_wave(&mut self, record: WaveRecord) {
        self.metrics.add("serve.waves", 1);
        self.metrics.add("serve.iterations", record.width as u64);
        self.metrics
            .observe("serve.wave_width", record.width as f64);
        self.tel.requests.record_wave(record);
    }

    /// A query retired at wave end `now` (`slo_s` is its tenant's
    /// latency budget, for the per-tenant attainment counters).
    pub(crate) fn on_completed(
        &mut self,
        now: f64,
        q: &Query,
        iterations: usize,
        converged: bool,
        slo_s: f64,
    ) {
        let latency = now - q.arrival_s;
        self.metrics.add("serve.completed", 1);
        if converged {
            self.metrics.add("serve.converged", 1);
        }
        self.metrics
            .add(&format!("serve.tenant.{}.completed", q.tenant), 1);
        if latency <= slo_s {
            self.metrics
                .add(&format!("serve.tenant.{}.met", q.tenant), 1);
        }
        self.metrics.observe("serve.latency_s", latency);
        self.tel.requests.record(RequestEvent::Completed {
            t_s: now,
            query: q.id,
            tenant: q.tenant,
            iterations,
            converged,
            latency_s: latency,
        });
    }

    /// Reconcile the scoped registry against the finished report
    /// (panicking on any mismatch), derive the summary gauges, and merge
    /// the run into the shared telemetry.
    pub(crate) fn finish<T>(self, report: &ServeReport<T>) {
        if let Err(e) = reconcile_serve(&self.metrics, report) {
            panic!("serve telemetry does not reconcile with the report: {e}");
        }
        self.metrics
            .set_gauge("serve.makespan_s", report.makespan_s);
        for &t in &self.tenants {
            let offered = self.metrics.counter(&format!("serve.tenant.{t}.offered"));
            let met = self.metrics.counter(&format!("serve.tenant.{t}.met"));
            let attainment = if offered == 0 {
                1.0
            } else {
                met as f64 / offered as f64
            };
            self.metrics
                .set_gauge(&format!("serve.tenant.{t}.attainment"), attainment);
            // Burn rate of a 1% error budget (the p99-style SLO): 1.0
            // means the tenant misses exactly its budget, >1 burns it.
            self.metrics.set_gauge(
                &format!("serve.tenant.{t}.slo_burn_rate"),
                (1.0 - attainment) / 0.01,
            );
        }
        record_device_gauges(&self.metrics, &report.device_reports, report.makespan_s);
        self.tel.metrics.merge_snapshot(&self.metrics.snapshot());
    }
}

/// Per-device utilization gauges from the run's accumulated device
/// reports and its makespan: `serve.device.<d>.busy_s` (modeled device
/// time), `serve.device.<d>.idle_s` (makespan minus busy, clamped at 0)
/// and `serve.device.<d>.utilization` (busy over makespan; 0 when the
/// makespan is empty).
fn record_device_gauges(metrics: &MetricsRegistry, reports: &[RunReport], wall_s: f64) {
    for (d, rep) in reports.iter().enumerate() {
        let busy = rep.time_s;
        metrics.set_gauge(&format!("serve.device.{d}.busy_s"), busy);
        metrics.set_gauge(
            &format!("serve.device.{d}.idle_s"),
            (wall_s - busy).max(0.0),
        );
        let util = if wall_s > 0.0 { busy / wall_s } else { 0.0 };
        metrics.set_gauge(&format!("serve.device.{d}.utilization"), util);
    }
}

/// Assert that a serve run's scoped registry totals equal the
/// [`ServeReport`]'s fields integer-exactly. `Ok(())` or a message
/// naming the first disagreeing pair.
pub fn reconcile_serve<T>(
    metrics: &MetricsRegistry,
    report: &ServeReport<T>,
) -> Result<(), String> {
    let snap = metrics.snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    let hist_count = |name: &str| snap.histogram(name).map(|h| h.count()).unwrap_or(0);
    let check = |name: &str, got: u64, want: u64| {
        if got == want {
            Ok(())
        } else {
            Err(format!("{name}: registry {got} != report {want}"))
        }
    };

    let completed = report.outcomes.len() as u64;
    let converged = report.outcomes.iter().filter(|o| o.converged).count() as u64;
    let iterations = report.total_iterations() as u64;
    check(
        "serve.offered",
        counter("serve.offered"),
        report.offered as u64,
    )?;
    check("serve.admitted", counter("serve.admitted"), completed)?;
    check("serve.completed", counter("serve.completed"), completed)?;
    check("serve.converged", counter("serve.converged"), converged)?;
    check(
        "serve.shed.capacity",
        counter("serve.shed.capacity"),
        report.rejected.len() as u64,
    )?;
    check(
        "serve.shed.deadline",
        counter("serve.shed.deadline"),
        report.deadline_shed.len() as u64,
    )?;
    check("serve.waves", counter("serve.waves"), report.waves as u64)?;
    check("serve.iterations", counter("serve.iterations"), iterations)?;
    let widths: u64 = report.wave_widths.iter().map(|&w| w as u64).sum();
    check(
        "serve.iterations (wave widths)",
        counter("serve.iterations"),
        widths,
    )?;
    check(
        "serve.latency_s samples",
        hist_count("serve.latency_s"),
        completed,
    )?;
    check(
        "serve.queue_wait_s samples",
        hist_count("serve.queue_wait_s"),
        completed,
    )?;
    check(
        "serve.wave_width samples",
        hist_count("serve.wave_width"),
        report.waves as u64,
    )?;
    if let Some(h) = snap.histogram("serve.wave_width") {
        if h.sum() != widths as f64 {
            return Err(format!(
                "serve.wave_width sum: registry {} != report {widths}",
                h.sum()
            ));
        }
    }
    check(
        "serve.queue_depth samples",
        hist_count("serve.queue_depth"),
        report.offered as u64,
    )?;

    // Per-tenant counters partition the global ones.
    let sum_suffix = |suffix: &str| -> u64 {
        snap.entries
            .iter()
            .filter(|(name, _)| name.starts_with("serve.tenant.") && name.ends_with(suffix))
            .filter_map(|(name, _)| snap.counter(name))
            .sum()
    };
    check(
        "tenant offered sum",
        sum_suffix(".offered"),
        report.offered as u64,
    )?;
    check("tenant completed sum", sum_suffix(".completed"), completed)?;
    check("tenant admitted sum", sum_suffix(".admitted"), completed)?;
    check(
        "tenant shed sum",
        sum_suffix(".shed"),
        (report.rejected.len() + report.deadline_shed.len()) as u64,
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_gauges_report_busy_idle_utilization() {
        let metrics = MetricsRegistry::new();
        let fast = RunReport {
            time_s: 0.25,
            ..Default::default()
        };
        let slow = RunReport {
            time_s: 1.0,
            ..Default::default()
        };
        record_device_gauges(&metrics, &[fast, slow], 1.0);
        let snap = metrics.snapshot();
        assert_eq!(snap.gauge("serve.device.0.busy_s"), Some(0.25));
        assert_eq!(snap.gauge("serve.device.0.idle_s"), Some(0.75));
        assert_eq!(snap.gauge("serve.device.0.utilization"), Some(0.25));
        assert_eq!(snap.gauge("serve.device.1.utilization"), Some(1.0));
        assert_eq!(snap.gauge("serve.device.1.idle_s"), Some(0.0));
        // degenerate wall never divides by zero
        record_device_gauges(&metrics, &[RunReport::default()], 0.0);
        assert_eq!(
            metrics.snapshot().gauge("serve.device.0.utilization"),
            Some(0.0)
        );
    }
}
