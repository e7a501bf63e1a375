//! Serving-plane instrumentation: a run's request trace, and the
//! `serve.*` metrics folded from it once.
//!
//! When a [`crate::ServeEngine`] holds a [`Telemetry`] handle, each
//! [`serve_slo`](crate::ServeEngine::serve_slo) run keeps its own
//! request trace: one [`RequestEvent`] per lifecycle edge (arrival,
//! capacity or deadline shed, admission, completion) and one
//! [`WaveRecord`] per executed wave, which names its queries and counts
//! the devices that held one of them. Beside the [`ServeReport`], that
//! trace is the run's only record: no metric is written while the run
//! is in flight. When it ends, [`ServeScope::finish`] folds every
//! `serve.*` counter and histogram from the trace, in record order, into
//! a fresh registry, takes the makespan and the device gauges from the
//! report, then appends the trace to the shared one and merges the
//! registry into the shared registry.

use crate::query::Query;
use crate::scheduler::ServeReport;
use crate::slo::SloPolicy;
use acsr_telemetry::{MetricsRegistry, RequestEvent, ShedKind, Telemetry, WaveRecord};
use gpu_sim::RunReport;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Per-run instrumentation scope: the pending wave id (allocated at
/// first admission so `Admitted` events can name the wave they will
/// ride before it runs) and the run's request events and wave records.
pub(crate) struct ServeScope {
    tel: Arc<Telemetry>,
    pending_wave: Option<u64>,
    events: Vec<RequestEvent>,
    waves: Vec<WaveRecord>,
}

impl ServeScope {
    pub(crate) fn new(tel: Arc<Telemetry>) -> ServeScope {
        ServeScope {
            tel,
            pending_wave: None,
            events: Vec::new(),
            waves: Vec::new(),
        }
    }

    /// One arrival offered to the submission queue (`accepted` false
    /// means capacity shed).
    pub(crate) fn on_offer(&mut self, q: &Query, accepted: bool) {
        self.events.push(RequestEvent::Arrival {
            t_s: q.arrival_s,
            query: q.id,
            tenant: q.tenant,
        });
        if !accepted {
            self.events.push(RequestEvent::Shed {
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
        self.events.push(RequestEvent::Shed {
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
        self.events.push(RequestEvent::Admitted {
            t_s: now,
            query: q.id,
            tenant: q.tenant,
            wave,
            queue_wait_s: now - q.arrival_s,
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
        self.waves.push(record);
    }

    /// A query retired at wave end `now`.
    pub(crate) fn on_completed(&mut self, now: f64, q: &Query, iterations: usize, converged: bool) {
        self.events.push(RequestEvent::Completed {
            t_s: now,
            query: q.id,
            tenant: q.tenant,
            iterations,
            converged,
            latency_s: now - q.arrival_s,
        });
    }

    /// Fold the run's metrics from its trace and `report` (`policy`
    /// holds each tenant's SLO budget), then publish the trace and the
    /// metrics into the shared telemetry.
    pub(crate) fn finish<T>(self, report: &ServeReport<T>, policy: &SloPolicy) {
        let metrics = fold(&self.events, &self.waves, report, policy);
        self.tel.requests.append(self.events, self.waves);
        self.tel.metrics.merge_snapshot(&metrics.snapshot());
    }
}

/// Every `serve.*` metric of one run. Counters and histograms replay
/// the trace in record order, so a metric exists only if some event
/// counted or sampled it. Every queue change is one event (an accepted
/// offer, an admission or a deadline shed, and a capacity shed undoes
/// the offer just before it), so the depth an arrival saw is the
/// arrivals before it minus the sheds and admissions before it.
fn fold<T>(
    events: &[RequestEvent],
    waves: &[WaveRecord],
    report: &ServeReport<T>,
    policy: &SloPolicy,
) -> MetricsRegistry {
    let m = MetricsRegistry::new();
    let tenant = |t: u32, what: &str| format!("serve.tenant.{t}.{what}");
    let mut tenants = BTreeSet::new();
    let mut depth = 0u64;
    for e in events {
        match *e {
            RequestEvent::Arrival { tenant: t, .. } => {
                tenants.insert(t);
                m.add("serve.offered", 1);
                m.add(&tenant(t, "offered"), 1);
                m.observe("serve.queue_depth", depth as f64);
                depth += 1;
            }
            RequestEvent::Shed {
                tenant: t, kind, ..
            } => {
                let shed = match kind {
                    ShedKind::Capacity => "serve.shed.capacity",
                    ShedKind::Deadline => "serve.shed.deadline",
                };
                m.add(shed, 1);
                m.add(&tenant(t, "shed"), 1);
                depth -= 1;
            }
            RequestEvent::Admitted {
                tenant: t,
                queue_wait_s,
                ..
            } => {
                m.add("serve.admitted", 1);
                m.add(&tenant(t, "admitted"), 1);
                m.observe("serve.queue_wait_s", queue_wait_s);
                depth -= 1;
            }
            RequestEvent::Completed {
                tenant: t,
                converged,
                latency_s,
                ..
            } => {
                m.add("serve.completed", 1);
                if converged {
                    m.add("serve.converged", 1);
                }
                m.add(&tenant(t, "completed"), 1);
                if latency_s <= policy.tenants.spec(t).slo_s {
                    m.add(&tenant(t, "met"), 1);
                }
                m.observe("serve.latency_s", latency_s);
            }
        }
    }
    for w in waves {
        m.add("serve.waves", 1);
        m.add("serve.iterations", w.width as u64);
        m.observe("serve.wave_width", w.width as f64);
    }

    m.set_gauge("serve.makespan_s", report.makespan_s);
    // Every tenant here offered at least one query.
    for t in tenants {
        let attainment =
            m.counter(&tenant(t, "met")) as f64 / m.counter(&tenant(t, "offered")) as f64;
        m.set_gauge(&tenant(t, "attainment"), attainment);
        // Burn rate of a 1% error budget (the p99-style SLO): 1.0 means
        // the tenant misses exactly its budget, >1 burns it.
        m.set_gauge(&tenant(t, "slo_burn_rate"), (1.0 - attainment) / 0.01);
    }
    record_device_gauges(&m, &report.device_reports, report.makespan_s);
    m
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
