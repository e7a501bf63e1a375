//! Cross-width determinism of the telemetry plane, property-tested:
//! the metrics snapshot (`acsr-metrics-v1` bytes), the request-event
//! stream, and the wave records produced by `serve_slo` must be
//! bit-identical at host worker widths 1, 2, and 4.
//!
//! The serving clock is virtual and wave ids come from the attached
//! [`acsr_telemetry::Telemetry`] (fresh per run, so ids restart at 1);
//! nothing observable may depend on how many host threads the
//! simulator spreads warps over. Guarded by a width lock since
//! `set_sim_threads` is process-global.

use acsr_serve::{
    BatchPolicy, Query, ServeConfig, ServeEngine, SloPolicy, TenantSpec, TenantTable,
};
use acsr_telemetry::{RequestEvent, ShedKind, Telemetry};
use gpu_sim::set_sim_threads;
use graphgen::{generate_power_law, PowerLawConfig};
use proptest::prelude::*;
use sparse_formats::CsrMatrix;
use std::sync::{Arc, Mutex};

/// `set_sim_threads` is process-global; hold this across width changes.
static WIDTH_LOCK: Mutex<()> = Mutex::new(());

fn graph(rows: usize, seed: u64) -> CsrMatrix<f64> {
    generate_power_law(&PowerLawConfig {
        rows,
        cols: rows,
        mean_degree: 5.0,
        max_degree: rows / 2 + 4,
        pinned_max_rows: 1,
        col_skew: 0.4,
        seed,
        ..Default::default()
    })
}

/// A two-tenant stream that exercises every lifecycle edge: a burst at
/// t = 0 overflows the queue (capacity sheds), and tenant 1's tight SLO
/// budget deadline-sheds late waiters while tenant 0 completes.
fn stream(n_nodes: usize, n: usize) -> Vec<Query> {
    (0..n as u64)
        .map(|id| Query {
            id,
            seed: (id as usize * 31 + 7) % n_nodes,
            restart_c: 0.85,
            arrival_s: 0.0,
            tenant: (id % 2) as u32,
        })
        .collect()
}

fn policy() -> SloPolicy {
    SloPolicy {
        queue_capacity: 6,
        batch: BatchPolicy::Adaptive { min: 1, max: 4 },
        tenants: TenantTable::new(vec![
            TenantSpec {
                tenant: 0,
                priority: 0,
                share: 2,
                slo_s: f64::INFINITY,
            },
            TenantSpec {
                tenant: 1,
                priority: 1,
                share: 1,
                slo_s: 2e-4,
            },
        ]),
        deadline_shed: true,
        p99_target_s: 0.05,
    }
}

/// One serve_slo run at the given width; returns the three telemetry
/// artifacts that must not depend on it.
fn run_at(width: usize, g: &CsrMatrix<f64>, queries: &[Query]) -> (String, String, String) {
    set_sim_threads(width);
    let mut engine = ServeEngine::new(
        g,
        ServeConfig {
            max_batch: 4,
            queue_capacity: 6,
            n_devices: 2,
            ..ServeConfig::default()
        },
    );
    let tel = Arc::new(Telemetry::new());
    engine.attach_telemetry(tel.clone());
    engine.serve_slo(queries, &policy());
    set_sim_threads(0);
    (
        tel.metrics.snapshot().to_json(),
        format!("{:?}", tel.requests.events()),
        format!("{:?}", tel.requests.waves()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Widths 1, 2, 4: snapshot bytes, event stream, and wave records
    /// all bit-identical.
    #[test]
    fn telemetry_streams_are_width_invariant(rows in 60usize..200, seed in 4u64..2000) {
        let _guard = WIDTH_LOCK.lock().unwrap();
        let g = graph(rows, seed);
        let queries = stream(g.rows(), 14);
        let (snap1, events1, waves1) = run_at(1, &g, &queries);
        for width in [2usize, 4] {
            let (snap, events, waves) = run_at(width, &g, &queries);
            assert_eq!(snap, snap1, "metrics snapshot drifted at width {width}");
            assert_eq!(events, events1, "request events drifted at width {width}");
            assert_eq!(waves, waves1, "wave records drifted at width {width}");
        }
    }
}

/// The pinned scenario really exercises every edge the proptest relies
/// on: completions, capacity sheds, and deadline sheds all occur, and
/// the snapshot's integer counters agree with the event stream.
#[test]
fn pinned_scenario_covers_all_lifecycle_edges() {
    let _guard = WIDTH_LOCK.lock().unwrap();
    set_sim_threads(1);
    let g = graph(120, 42);
    let queries = stream(g.rows(), 14);
    let mut engine = ServeEngine::new(
        &g,
        ServeConfig {
            max_batch: 4,
            queue_capacity: 6,
            n_devices: 2,
            ..ServeConfig::default()
        },
    );
    let tel = Arc::new(Telemetry::new());
    engine.attach_telemetry(tel.clone());
    let report = engine.serve_slo(&queries, &policy());
    set_sim_threads(0);

    assert!(!report.outcomes.is_empty(), "some queries must complete");
    assert!(!report.rejected.is_empty(), "burst must capacity-shed");
    assert!(
        !report.deadline_shed.is_empty(),
        "tenant 1's tight budget must deadline-shed"
    );
    let events = tel.requests.events();
    let count = |f: &dyn Fn(&RequestEvent) -> bool| events.iter().filter(|e| f(e)).count() as u64;
    let snap = tel.metrics.snapshot();
    assert_eq!(
        snap.counter("serve.offered"),
        Some(count(&|e| matches!(e, RequestEvent::Arrival { .. })))
    );
    assert_eq!(
        snap.counter("serve.completed"),
        Some(count(&|e| matches!(e, RequestEvent::Completed { .. })))
    );
    assert_eq!(
        snap.counter("serve.shed.capacity"),
        Some(count(&|e| matches!(
            e,
            RequestEvent::Shed {
                kind: ShedKind::Capacity,
                ..
            }
        )))
    );
    assert_eq!(
        snap.counter("serve.shed.deadline"),
        Some(count(&|e| matches!(
            e,
            RequestEvent::Shed {
                kind: ShedKind::Deadline,
                ..
            }
        )))
    );
    assert_eq!(
        snap.counter("serve.waves"),
        Some(tel.requests.waves().len() as u64)
    );
}
