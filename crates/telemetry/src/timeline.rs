//! Correlated timeline export: kernel spans + request spans, one file.
//!
//! [`timeline`] appends to the trace ledger's chrome events (devices as
//! processes, exactly as [`gpu_sim::trace::TraceLedger::chrome_events`]
//! builds them) a synthetic "serving" process holding one track of wave
//! spans and one track per query's lifecycle. The *authoritative join
//! key* is the `wave` id in each event's `args`: a kernel span's
//! `args.wave` names the [`crate::WaveRecord`] whose `queries` list (and
//! whose riding queries' `active` spans) it executed for. Times inside
//! the serving process run on the serving clock; device tracks keep the
//! ledger's own virtual clock (launches laid end to end) — the two axes
//! are schematic side by side, the wave ids are exact.
//!
//! The export validates the correlation before building the document: a
//! kernel span stamped with a wave id that no wave record announced, an
//! admission pointing at an unknown wave, or a duplicated wave record is
//! an `Err`, not a malformed file.

use crate::request::{RequestEvent, ShedKind};
use crate::Telemetry;
use gpu_sim::trace::{complete_event, metadata_event, TraceLedger};
use serde::{Serialize, Value};
use std::collections::BTreeSet;

/// The correlated timeline as the body of an `acsr-timeline-v1`
/// document: event counts, then the chrome events. Deterministic: the
/// ledger's events in record order, then the serving process's, with
/// queries taking lanes in first-appearance order.
pub fn timeline(ledger: &TraceLedger, tel: &Telemetry) -> Result<Value, String> {
    let spans = ledger.spans();
    let waves = tel.requests.waves();
    let events = tel.requests.events();

    let mut wave_ids = BTreeSet::new();
    for w in &waves {
        if !wave_ids.insert(w.wave) {
            return Err(format!("wave id {} recorded twice", w.wave));
        }
    }
    let mut kernel_spans = 0usize;
    for (i, span) in spans.iter().enumerate() {
        if let Some(w) = span.wave {
            kernel_spans += 1;
            if !wave_ids.contains(&w) {
                return Err(format!(
                    "kernel span {i} ('{}') is stamped with wave {w}, but no wave record announced it",
                    span.name
                ));
            }
        }
    }
    for e in &events {
        if let RequestEvent::Admitted { wave, query, .. } = e {
            if !wave_ids.contains(wave) {
                return Err(format!(
                    "query {query} was admitted into unknown wave {wave}"
                ));
            }
        }
    }

    // The serving plane gets its own chrome process after the devices.
    let pid = spans
        .iter()
        .map(|s| s.device.as_str())
        .collect::<BTreeSet<_>>()
        .len();
    let mut trace = ledger.chrome_events();
    trace.push(metadata_event("process_name", pid, 0, "serving"));
    trace.push(metadata_event("thread_name", pid, 0, "waves"));
    for w in &waves {
        let args = Value::from_iter([
            ("wave", w.wave.to_value()),
            ("width", w.width.to_value()),
            ("devices", w.devices.to_value()),
            ("queries", w.queries.to_value()),
        ]);
        let (name, span) = (format!("wave{}", w.wave), (w.t_start_s, w.dur_s));
        trace.push(complete_event(&name, "wave", span, (pid, 0), args));
    }

    // One lane per query, in first-appearance order of the event stream.
    let mut lane_of: Vec<u64> = Vec::new();
    for e in &events {
        if !lane_of.contains(&e.query()) {
            lane_of.push(e.query());
        }
    }
    for (lane, &query) in lane_of.iter().enumerate() {
        let tid = 1 + lane;
        let label = format!("query{query}");
        trace.push(metadata_event("thread_name", pid, tid, &label));
        // A span (start, duration) on the query's track.
        let request = |name, span, args| complete_event(name, "request", span, (pid, tid), args);
        let who = |tenant: u32| {
            Value::from_iter([("query", query.to_value()), ("tenant", tenant.to_value())])
        };
        let mut arrival: Option<f64> = None;
        let mut admitted: Option<(f64, u64)> = None;
        for e in events.iter().filter(|e| e.query() == query) {
            match *e {
                RequestEvent::Arrival { t_s, .. } => arrival = Some(t_s),
                RequestEvent::Admitted {
                    t_s,
                    tenant,
                    wave,
                    queue_wait_s,
                    ..
                } => {
                    let queued = (t_s - queue_wait_s, queue_wait_s);
                    trace.push(request("queued", queued, who(tenant)));
                    admitted = Some((t_s, wave));
                }
                RequestEvent::Completed {
                    t_s,
                    tenant,
                    iterations,
                    converged,
                    latency_s,
                    ..
                } => {
                    let (adm_t, wave) = admitted.unwrap_or((t_s - latency_s, 0));
                    let args = Value::from_iter([
                        ("query", query.to_value()),
                        ("tenant", tenant.to_value()),
                        ("wave", wave.to_value()),
                        ("iterations", iterations.to_value()),
                        ("converged", converged.to_value()),
                    ]);
                    trace.push(request("active", (adm_t, t_s - adm_t), args));
                }
                RequestEvent::Shed {
                    t_s, tenant, kind, ..
                } => {
                    if let (Some(arr_t), ShedKind::Deadline) = (arrival, kind) {
                        let queued = (arr_t, t_s - arr_t);
                        trace.push(request("queued", queued, who(tenant)));
                    }
                    let name = match kind {
                        ShedKind::Capacity => "shed.capacity",
                        ShedKind::Deadline => "shed.deadline",
                    };
                    // An instant event (`ph: "i"`) scoped to its track.
                    trace.push(Value::from_iter([
                        ("name", name.to_value()),
                        ("cat", "request".to_value()),
                        ("ph", "i".to_value()),
                        ("ts", (t_s * 1e6).to_value()),
                        ("pid", pid.to_value()),
                        ("tid", tid.to_value()),
                        ("s", "t".to_value()),
                        ("args", who(tenant)),
                    ]));
                }
            }
        }
    }
    Ok(Value::from_iter([
        ("request_events", events.len().to_value()),
        ("wave_spans", waves.len().to_value()),
        ("kernel_spans", kernel_spans.to_value()),
        ("traceEvents", Value::Array(trace)),
        ("displayTimeUnit", "ms".to_value()),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::WaveRecord;
    use gpu_sim::config::presets;
    use gpu_sim::Device;

    fn serve_like_fixture() -> (Device, std::sync::Arc<TraceLedger>, Telemetry) {
        let mut dev = Device::new(presets::gtx_titan());
        let ledger = dev.enable_tracing();
        let tel = Telemetry::new();
        let wave = tel.next_wave_id();
        tel.requests.record(RequestEvent::Arrival {
            t_s: 0.0,
            query: 11,
            tenant: 0,
        });
        tel.requests.record(RequestEvent::Admitted {
            t_s: 0.25,
            query: 11,
            tenant: 0,
            wave,
            queue_wait_s: 0.25,
        });
        ledger.set_wave(Some(wave));
        dev.launch("spmv", 2, 32, &|_b| {});
        ledger.set_wave(None);
        tel.requests.record_wave(WaveRecord {
            wave,
            t_start_s: 0.25,
            dur_s: 0.5,
            width: 1,
            devices: 1,
            queries: vec![11],
        });
        tel.requests.record(RequestEvent::Completed {
            t_s: 0.75,
            query: 11,
            tenant: 0,
            iterations: 3,
            converged: true,
            latency_s: 0.75,
        });
        (dev, ledger, tel)
    }

    #[test]
    fn timeline_joins_kernel_spans_to_request_spans() {
        let (_dev, ledger, tel) = serve_like_fixture();
        let doc = timeline(&ledger, &tel).expect("correlation validates");
        assert_eq!(doc, timeline(&ledger, &tel).unwrap(), "deterministic");
        let text = format!("{doc:?}");
        assert!(text.starts_with(r#"Object([("request_events", U64(3)), ("wave_spans", U64(1))"#));
        // Launch span of `spmv` carries the wave id in its args...
        assert!(text.contains(r#"Str("spmv")"#));
        assert!(text.contains(r#"("wave", U64(1))"#));
        // ...and the serving process has the wave track + query lane.
        for name in ["serving", "wave1", "query11", "queued", "active"] {
            assert!(text.contains(&format!("Str({name:?})")), "{name}");
        }
    }

    #[test]
    fn orphan_kernel_wave_is_an_error() {
        let (dev, ledger, tel) = serve_like_fixture();
        ledger.set_wave(Some(999));
        dev.launch("stray", 2, 32, &|_b| {});
        ledger.set_wave(None);
        let err = timeline(&ledger, &tel).unwrap_err();
        assert!(err.contains("wave 999"), "unexpected error: {err}");
    }

    #[test]
    fn unknown_admission_wave_is_an_error() {
        let tel = Telemetry::new();
        tel.requests.record(RequestEvent::Admitted {
            t_s: 0.0,
            query: 5,
            tenant: 0,
            wave: 7,
            queue_wait_s: 0.0,
        });
        let ledger = TraceLedger::new();
        let err = timeline(&ledger, &tel).unwrap_err();
        assert!(err.contains("unknown wave 7"), "unexpected error: {err}");
    }

    #[test]
    fn shed_queries_emit_instants() {
        let tel = Telemetry::new();
        tel.requests.record(RequestEvent::Arrival {
            t_s: 0.0,
            query: 3,
            tenant: 1,
        });
        tel.requests.record(RequestEvent::Shed {
            t_s: 0.0,
            query: 3,
            tenant: 1,
            kind: ShedKind::Capacity,
        });
        tel.requests.record(RequestEvent::Arrival {
            t_s: 0.1,
            query: 4,
            tenant: 1,
        });
        tel.requests.record(RequestEvent::Shed {
            t_s: 0.9,
            query: 4,
            tenant: 1,
            kind: ShedKind::Deadline,
        });
        let ledger = TraceLedger::new();
        let text = format!("{:?}", timeline(&ledger, &tel).expect("no waves needed"));
        assert!(text.contains(r#"Str("shed.capacity")"#));
        assert!(text.contains(r#"Str("shed.deadline")"#));
        // The deadline-shed query shows its wasted queue time.
        assert!(text.contains(r#"Str("queued")"#));
        assert!(text.contains(r#"("kernel_spans", U64(0))"#));
    }
}
