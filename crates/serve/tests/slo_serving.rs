//! Open-loop SLO serving: deadline shedding, fair-share admission,
//! adaptive batching, and goodput accounting — end to end, with the
//! shed decisions pinned bit-identical across host worker widths.

use acsr_serve::{
    ArrivalPattern, BatchPolicy, Query, ServeConfig, ServeEngine, ServeReport, SloPolicy,
    TenantSpec, TenantTable,
};
use gpu_sim::set_sim_threads;
use graphgen::{generate_power_law, PowerLawConfig};
use sparse_formats::CsrMatrix;
use std::sync::Mutex;

/// `set_sim_threads` is process-global; hold this across width changes.
static WIDTH_LOCK: Mutex<()> = Mutex::new(());

fn graph(rows: usize, seed: u64) -> CsrMatrix<f64> {
    generate_power_law(&PowerLawConfig {
        rows,
        cols: rows,
        mean_degree: 6.0,
        max_degree: 120,
        pinned_max_rows: 1,
        col_skew: 0.4,
        seed,
        ..Default::default()
    })
}

fn query(id: u64, seed: usize, arrival_s: f64, tenant: u32) -> Query {
    Query {
        id,
        seed,
        restart_c: 0.85,
        arrival_s,
        tenant,
    }
}

/// Per-query outcome rows (id, iterations, admitted bits, completed
/// bits), capacity sheds, deadline sheds, wave widths, makespan bits.
type Signature = (
    Vec<(u64, usize, u64, u64)>,
    Vec<u64>,
    Vec<u64>,
    Vec<usize>,
    u64,
);

/// Everything admission decides, exactly, as raw bits.
fn decision_signature(report: &ServeReport<f64>) -> Signature {
    let mut outcomes: Vec<(u64, usize, u64, u64)> = report
        .outcomes
        .iter()
        .map(|o| {
            (
                o.id,
                o.iterations,
                o.admitted_s.to_bits(),
                o.completed_s.to_bits(),
            )
        })
        .collect();
    outcomes.sort_unstable();
    (
        outcomes,
        report.rejected.clone(),
        report.deadline_shed.clone(),
        report.wave_widths.clone(),
        report.makespan_s.to_bits(),
    )
}

/// A query that cannot meet its SLO any more is dropped at admission
/// instead of burning a batch slot: with a zero budget, only the query
/// popped at its own arrival instant (wait exactly 0) survives, every
/// queued waiter deadline-sheds, and overflow beyond the queue still
/// capacity-sheds — the three outcomes partition the offered stream.
#[test]
fn deadline_shedding_drops_stale_waiters_before_admission() {
    let _guard = WIDTH_LOCK.lock().unwrap();
    let g = graph(250, 301);
    let engine = ServeEngine::new(&g, ServeConfig::default());
    let policy = SloPolicy {
        queue_capacity: 8,
        ..SloPolicy::open_loop(0.0, 4, 8)
    };
    // 40 near-simultaneous arrivals: everything after the first query
    // waits through at least one wave
    let queries: Vec<Query> = (0..40)
        .map(|id| query(id, (id as usize * 17 + 3) % 250, 1e-9 * (id + 1) as f64, 0))
        .collect();
    let report = engine.serve_slo(&queries, &policy);
    assert_eq!(report.offered, 40);
    assert_eq!(
        report.outcomes.len(),
        1,
        "only the wait-free query survives"
    );
    assert_eq!(report.outcomes[0].id, 0);
    assert!(!report.deadline_shed.is_empty(), "stale waiters must shed");
    assert!(!report.rejected.is_empty(), "overflow must capacity-shed");
    assert_eq!(
        report.outcomes.len() + report.deadline_shed.len() + report.rejected.len(),
        40,
        "completed + deadline-shed + capacity-shed partition the stream"
    );
    // shed queries count against attainment but never against goodput
    assert!(report.attainment(f64::INFINITY) < 0.05);
    assert!(report.throughput_qps() > 0.0);
}

/// The admission, shedding, and batching decisions are functions of the
/// virtual model clock only: bit-identical across host worker widths.
#[test]
fn slo_decisions_are_bit_identical_across_sim_widths() {
    let _guard = WIDTH_LOCK.lock().unwrap();
    let g = graph(300, 302);
    let engine = ServeEngine::new(&g, ServeConfig::default());
    // an overloaded diurnal trace with a tight budget: capacity sheds,
    // deadline sheds, and adaptive widths all in play (at 5e4–5e5 q/s
    // it sheds 8 by capacity and 3 by deadline of 48)
    let mut queries = acsr_serve::generate_queries(
        ArrivalPattern::Diurnal {
            base_qps: 5e4,
            peak_qps: 5e5,
            period_s: 0.02,
        },
        48,
        300,
        0.85,
        41,
    );
    acsr_serve::assign_tenants(&mut queries, &[(0, 3.0), (1, 1.0)], 43);
    let policy = SloPolicy {
        tenants: TenantTable::new(vec![
            TenantSpec {
                tenant: 0,
                priority: 0,
                share: 3,
                slo_s: 2e-4,
            },
            TenantSpec {
                tenant: 1,
                priority: 1,
                share: 1,
                slo_s: 1e-3,
            },
        ]),
        ..SloPolicy::open_loop(1e-3, 8, 12)
    };
    let mut signatures = Vec::new();
    for width in [1usize, 2, 4] {
        set_sim_threads(width);
        let report = engine.serve_slo(&queries, &policy);
        set_sim_threads(0);
        assert!(
            !report.deadline_shed.is_empty() && !report.rejected.is_empty(),
            "width {width}: the overload trace must actually shed"
        );
        signatures.push((width, decision_signature(&report)));
    }
    for pair in signatures.windows(2) {
        let (wa, ref a) = pair[0];
        let (wb, ref b) = pair[1];
        assert_eq!(a, b, "widths {wa} and {wb} disagree on shed/admission");
    }
}

/// Goodput counts only completions that met the target: shed queries
/// and SLO-missing completions never inflate it, and attainment is
/// denominated in *offered* queries.
#[test]
fn goodput_never_counts_shed_or_missed_queries() {
    let _guard = WIDTH_LOCK.lock().unwrap();
    let g = graph(250, 303);
    let engine = ServeEngine::new(
        &g,
        ServeConfig {
            max_batch: 2,
            queue_capacity: 4,
            ..ServeConfig::default()
        },
    );
    // closed-loop overload: plenty of capacity sheds, no deadline sheds
    let queries: Vec<Query> = (0..24)
        .map(|id| query(id, (id as usize * 13 + 5) % 250, 1e-9 * (id + 1) as f64, 0))
        .collect();
    let report = engine.serve(&queries);
    assert!(!report.rejected.is_empty());
    let completed = report.outcomes.len() as f64;
    // a target between p50 and max so some completions miss it
    let target = report.latency_stats().p50_s;
    let met = report
        .outcomes
        .iter()
        .filter(|o| o.latency_s() <= target)
        .count() as f64;
    assert!(met < completed, "the p50 target must leave misses");
    // goodput ≤ throughput, with the gap exactly the missing queries
    let expected_goodput = met / report.makespan_s;
    assert!((report.goodput_qps(target) - expected_goodput).abs() < 1e-12);
    assert!(report.goodput_qps(target) < report.throughput_qps());
    // attainment is denominated in offered queries: sheds are misses
    let offered = report.offered as f64;
    assert!((report.attainment(target) - met / offered).abs() < 1e-12);
    assert!(
        report.attainment(f64::INFINITY) < 1.0,
        "sheds keep even an infinite target unattained"
    );
    assert!(
        (report.attainment(f64::INFINITY) - completed / offered).abs() < 1e-12,
        "rejected queries must not inflate attainment"
    );
}

/// Strict priority tiers: with one batch slot and a queued backlog,
/// every high-priority waiter is admitted before any low-priority one.
#[test]
fn priority_tenants_are_admitted_before_bulk() {
    let _guard = WIDTH_LOCK.lock().unwrap();
    let g = graph(200, 304);
    let engine = ServeEngine::new(&g, ServeConfig::default());
    let policy = SloPolicy {
        queue_capacity: 16,
        batch: BatchPolicy::Fixed(1),
        tenants: TenantTable::new(vec![
            TenantSpec {
                tenant: 0,
                priority: 1,
                share: 1,
                slo_s: f64::INFINITY,
            },
            TenantSpec {
                tenant: 1,
                priority: 0,
                share: 1,
                slo_s: f64::INFINITY,
            },
        ]),
    };
    // 10 simultaneous arrivals, alternating bulk (tenant 0, even ids)
    // and interactive (tenant 1, odd ids)
    let queries: Vec<Query> = (0..10)
        .map(|id| query(id, (id as usize * 19 + 1) % 200, 0.0, (id % 2) as u32))
        .collect();
    let report = engine.serve_slo(&queries, &policy);
    assert_eq!(report.outcomes.len(), 10);
    // q0 slips into the initially-free slot (it arrived first); after
    // that every interactive waiter beats every bulk waiter
    let admitted = |id: u64| {
        report
            .outcomes
            .iter()
            .find(|o| o.id == id)
            .unwrap()
            .admitted_s
    };
    let last_interactive = (1..10).step_by(2).map(admitted).fold(0.0f64, f64::max);
    for id in (2..10).step_by(2) {
        assert!(
            admitted(id) >= last_interactive,
            "bulk query {id} admitted at {} before the interactive tier drained ({last_interactive})",
            admitted(id)
        );
    }
}

/// Adaptive batch sizing: sparse load runs narrow (latency-optimal)
/// waves, a backlog widens waves to the cap (throughput-optimal).
#[test]
fn adaptive_batching_tracks_queue_depth() {
    let _guard = WIDTH_LOCK.lock().unwrap();
    let g = graph(200, 305);
    let engine = ServeEngine::new(&g, ServeConfig::default());
    let adaptive = SloPolicy::open_loop(f64::INFINITY, 8, 64);
    // sparse: arrivals a full second apart — every wave is width 1
    let sparse: Vec<Query> = (0..6)
        .map(|id| query(id, (id as usize * 11 + 2) % 200, id as f64, 0))
        .collect();
    let light = engine.serve_slo(&sparse, &adaptive);
    assert_eq!(light.outcomes.len(), 6);
    assert!(
        light.wave_widths.iter().all(|&w| w == 1),
        "light load must run narrow waves, got {:?}",
        light.wave_widths
    );
    // saturated: 32 simultaneous arrivals ramp waves to the cap
    let burst: Vec<Query> = (0..32)
        .map(|id| query(id, (id as usize * 7 + 3) % 200, 0.0, 0))
        .collect();
    let heavy = engine.serve_slo(&burst, &adaptive);
    assert_eq!(heavy.outcomes.len(), 32);
    assert_eq!(
        heavy.wave_widths.iter().max().copied(),
        Some(8),
        "a backlog must widen waves to the cap"
    );
    assert!(heavy.mean_wave_width() > 1.0);
}
