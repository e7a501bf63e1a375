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
    BatchPolicy, Query, ServeConfig, ServeEngine, ServeReport, SloPolicy, TenantSpec, TenantTable,
};
use acsr_telemetry::{MetricValue, RequestEvent, ShedKind, Telemetry};
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
    }
}

/// One `serve_slo` run on two devices with fresh telemetry attached.
fn traced_run(
    g: &CsrMatrix<f64>,
    queries: &[Query],
    policy: &SloPolicy,
) -> (ServeReport<f64>, Arc<Telemetry>) {
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
    (engine.serve_slo(queries, policy), tel)
}

/// One serve_slo run at the given width; returns the three telemetry
/// artifacts that must not depend on it.
fn run_at(width: usize, g: &CsrMatrix<f64>, queries: &[Query]) -> (String, String, String) {
    set_sim_threads(width);
    let (_, tel) = traced_run(g, queries, &policy());
    set_sim_threads(0);
    (
        format!("{:?}", tel.metrics.snapshot()),
        format!("{:?}", tel.requests.events()),
        format!("{:?}", tel.requests.waves()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Widths 1, 2, 4: metrics snapshot, event stream, and wave records
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
/// on: completions, capacity sheds, and deadline sheds all occur. The
/// snapshot's integer counters agree with the event stream, and the
/// metrics folded from the trace account for the `ServeReport` the run
/// built beside it.
#[test]
fn pinned_scenario_covers_all_lifecycle_edges() {
    let _guard = WIDTH_LOCK.lock().unwrap();
    set_sim_threads(1);
    let g = graph(120, 42);
    let (report, tel) = traced_run(&g, &stream(g.rows(), 14), &policy());
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

    // The counters against the report's fields.
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    let completed = report.outcomes.len() as u64;
    let shed = (report.rejected.len() + report.deadline_shed.len()) as u64;
    let converged = report.outcomes.iter().filter(|o| o.converged).count() as u64;
    let widths: usize = report.wave_widths.iter().sum();
    assert_eq!(counter("serve.offered"), report.offered as u64);
    assert_eq!(counter("serve.admitted"), completed);
    assert_eq!(counter("serve.completed"), completed);
    assert_eq!(counter("serve.converged"), converged);
    assert_eq!(counter("serve.shed.capacity"), report.rejected.len() as u64);
    assert_eq!(
        counter("serve.shed.deadline"),
        report.deadline_shed.len() as u64
    );
    assert_eq!(counter("serve.waves"), report.waves as u64);
    assert_eq!(
        counter("serve.iterations"),
        report.total_iterations() as u64
    );
    assert_eq!(counter("serve.iterations"), widths as u64);

    // Per-tenant counters partition the global ones.
    let tenant_sum = |what: &str| -> u64 {
        let suffix = format!(".{what}");
        snap.entries
            .iter()
            .filter(|(name, _)| name.starts_with("serve.tenant.") && name.ends_with(&suffix))
            .filter_map(|(name, _)| snap.counter(name))
            .sum()
    };
    assert_eq!(tenant_sum("offered"), report.offered as u64);
    assert_eq!(tenant_sum("admitted"), completed);
    assert_eq!(tenant_sum("completed"), completed);
    assert_eq!(tenant_sum("shed"), shed);

    // One latency and one queue wait per completion, one queue depth per
    // offer, one wave width per wave.
    let samples = |name: &str| snap.histogram(name).map_or(0, |h| h.count());
    assert_eq!(samples("serve.latency_s"), completed);
    assert_eq!(samples("serve.queue_wait_s"), completed);
    assert_eq!(samples("serve.queue_depth"), report.offered as u64);
    let wave_width = snap.histogram("serve.wave_width").expect("waves ran");
    assert_eq!(wave_width.count(), report.waves as u64);
    assert_eq!(wave_width.sum(), widths as f64);
}

/// Degenerate streams through `serve_slo` with telemetry attached: an
/// empty stream, and a burst of tenant-1 queries into one batch slot
/// and one queue place under a budget no query can meet. The burst
/// serves its first query, deadline-sheds the one queued behind it and
/// capacity-sheds the rest. Every gauge is finite, and tenant gauges
/// exist only for the tenants that offered a query.
#[test]
fn degenerate_streams_fold_finite_gauges() {
    let _guard = WIDTH_LOCK.lock().unwrap();
    let g = graph(120, 42);
    let mut tight = policy();
    tight.queue_capacity = 1;
    tight.batch = BatchPolicy::Fixed(1);
    tight.tenants = TenantTable::new(vec![
        TenantSpec {
            tenant: 0,
            priority: 0,
            share: 1,
            slo_s: f64::INFINITY,
        },
        TenantSpec {
            tenant: 1,
            priority: 0,
            share: 1,
            slo_s: 1e-9,
        },
    ]);
    let burst: Vec<Query> = stream(g.rows(), 6)
        .into_iter()
        .map(|q| Query { tenant: 1, ..q })
        .collect();

    let (empty, empty_tel) = traced_run(&g, &[], &tight);
    assert_eq!((empty.offered, empty.waves), (0, 0));
    let (report, tel) = traced_run(&g, &burst, &tight);
    assert_eq!(report.outcomes.len(), 1);
    assert_eq!(report.deadline_shed, vec![1]);
    assert_eq!(report.rejected, vec![2, 3, 4, 5]);

    for (tel, offered) in [(&empty_tel, &[][..]), (&tel, &[1u32][..])] {
        let snap = tel.metrics.snapshot();
        for (name, value) in &snap.entries {
            if let MetricValue::Gauge(v) = value {
                assert!(v.is_finite(), "{name} = {v}");
            }
            if let Some(rest) = name.strip_prefix("serve.tenant.") {
                let t: u32 = rest.split('.').next().unwrap().parse().unwrap();
                assert!(offered.contains(&t), "{name}: tenant {t} offered nothing");
            }
        }
        assert_eq!(
            snap.gauge("serve.device.1.utilization").map(f64::is_finite),
            Some(true)
        );
    }
    let snap = tel.metrics.snapshot();
    assert_eq!(snap.gauge("serve.tenant.1.attainment"), Some(0.0));
    assert_eq!(snap.gauge("serve.tenant.1.slo_burn_rate"), Some(100.0));
    let empty_snap = empty_tel.metrics.snapshot();
    assert_eq!(empty_snap.gauge("serve.makespan_s"), Some(0.0));
    assert_eq!(empty_snap.counter("serve.offered"), None);
}
