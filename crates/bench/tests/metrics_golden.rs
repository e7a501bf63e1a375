//! Golden-file tests for the `acsr-metrics-v1` snapshot artifact: fixed
//! small serve scenarios must render byte-identically through the
//! artifact writer — the file
//! is parsed by `repro check-artifacts` and diffed by CI baselines, so
//! format drift (entry order, float formatting, bucket layout) should
//! fail loudly, not silently reshape downstream tooling's input.
//!
//! Regenerate after an intentional schema change with
//! `ACSR_REGEN_GOLDEN=1 cargo test -p repro-bench --test metrics_golden`.

use acsr_serve::{
    BatchPolicy, Query, ServeConfig, ServeEngine, SloPolicy, TenantSpec, TenantTable,
};
use acsr_telemetry::Telemetry;
use gpu_sim::set_sim_threads;
use graphgen::{generate_power_law, PowerLawConfig};
use repro_bench::artifact;
use repro_bench::metrics::METRICS;
use std::sync::{Arc, Mutex};

/// `set_sim_threads` is process-global.
static WIDTH_LOCK: Mutex<()> = Mutex::new(());

/// Render `tel`'s snapshot through the artifact writer and compare it
/// with `tests/golden/<file>` (or rewrite it under `ACSR_REGEN_GOLDEN`).
fn assert_matches_golden(tel: &Telemetry, file: &str) {
    let json =
        artifact::render(&METRICS, &tel.metrics.snapshot()).expect("snapshot meets its schema");
    assert!(json.starts_with("{\n  \"schema\": \"acsr-metrics-v1\","));

    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var("ACSR_REGEN_GOLDEN").is_ok() {
        std::fs::write(&path, &json).expect("write golden");
        eprintln!("regenerated {path}");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("read golden metrics snapshot");
    assert_eq!(
        json, golden,
        "METRICS json drifted from tests/golden/{file} \
         (regenerate with ACSR_REGEN_GOLDEN=1 if intentional)"
    );
}

#[test]
fn metrics_json_matches_golden_file() {
    let _guard = WIDTH_LOCK.lock().unwrap();
    set_sim_threads(1);
    let g = generate_power_law::<f64>(&PowerLawConfig {
        rows: 300,
        cols: 300,
        mean_degree: 6.0,
        max_degree: 64,
        pinned_max_rows: 1,
        col_skew: 0.4,
        seed: 42,
        ..Default::default()
    });
    let mut engine = ServeEngine::new(
        &g,
        ServeConfig {
            max_batch: 2,
            queue_capacity: 2,
            n_devices: 2,
            ..ServeConfig::default()
        },
    );
    let tel = Arc::new(Telemetry::new());
    engine.attach_telemetry(tel.clone());
    // 6 simultaneous two-tenant arrivals into 2 slots + 2 queue places:
    // completions AND capacity sheds, so the snapshot carries counters,
    // gauges (attainment, device utilization), and histograms at once.
    let queries: Vec<Query> = (0..6)
        .map(|id| Query {
            id,
            seed: (id as usize * 17) % 300,
            restart_c: 0.85,
            arrival_s: 0.0,
            tenant: (id % 2) as u32,
        })
        .collect();
    let report = engine.serve(&queries);
    set_sim_threads(0);
    assert!(!report.outcomes.is_empty() && !report.rejected.is_empty());
    assert_matches_golden(&tel, "METRICS_serve_small.json");
}

/// The two-tenant open-loop scenario of `acsr-serve`'s
/// `telemetry_determinism` tests: a burst of 14 queries at t = 0 into a
/// 6-place queue and adaptive waves of 1–4 on 2 devices. Tenant 1's
/// 0.2 ms budget deadline-sheds its late waiters, so the snapshot pins
/// `serve.shed.deadline` and a tenant whose `met` is below its
/// `completed` next to the capacity sheds.
#[test]
fn deadline_shed_metrics_match_golden_file() {
    let _guard = WIDTH_LOCK.lock().unwrap();
    set_sim_threads(1);
    let g = generate_power_law::<f64>(&PowerLawConfig {
        rows: 120,
        cols: 120,
        mean_degree: 5.0,
        max_degree: 64,
        pinned_max_rows: 1,
        col_skew: 0.4,
        seed: 42,
        ..Default::default()
    });
    let queries: Vec<Query> = (0..14u64)
        .map(|id| Query {
            id,
            seed: (id as usize * 31 + 7) % 120,
            restart_c: 0.85,
            arrival_s: 0.0,
            tenant: (id % 2) as u32,
        })
        .collect();
    let policy = SloPolicy {
        queue_capacity: 6,
        batch: BatchPolicy::Adaptive { max: 4 },
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
    };
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
    let report = engine.serve_slo(&queries, &policy);
    set_sim_threads(0);
    assert!(!report.rejected.is_empty() && !report.deadline_shed.is_empty());
    let snap = tel.metrics.snapshot();
    let (met, completed) = (
        snap.counter("serve.tenant.1.met").unwrap_or(0),
        snap.counter("serve.tenant.1.completed").unwrap_or(0),
    );
    assert!(met < completed, "tenant 1 met {met} of {completed}");
    assert_matches_golden(&tel, "METRICS_serve_deadline.json");
}
