//! Golden-file tests for the multi-GPU trace timeline: a dual-device
//! replicated-`x` [`multi_gpu::Fleet`] SpMV (paper §VIII) recorded into
//! one shared [`TraceLedger`] must export a byte-identical chrome-trace
//! JSON with one process lane per device (`Tesla K10 ... #0` / `#1`) —
//! the device-tagged view `repro fig8 --trace` produces — and a 4-device
//! resident fleet must export four lanes carrying the per-edge
//! `halo_<src>to<dst>` transfer spans on each receiving device.
//!
//! Regenerate after an intentional format change with
//! `ACSR_REGEN_GOLDEN=1 cargo test -p multi-gpu --test trace_multigpu`.

use gpu_sim::{presets, set_sim_threads};
use graphgen::{generate_power_law, PowerLawConfig};
use multi_gpu::{Fleet, FleetConfig};

const GOLDEN: &str = include_str!("golden/trace_dual_k10.json");
const GOLDEN_FLEET: &str = include_str!("golden/trace_fleet_quad.json");

fn scenario_json() -> String {
    set_sim_threads(1);
    let m = generate_power_law(&PowerLawConfig {
        rows: 1500,
        cols: 1500,
        mean_degree: 6.0,
        max_degree: 1200,
        pinned_max_rows: 1,
        col_skew: 0.4,
        seed: 191,
        ..Default::default()
    });
    let mut mg = Fleet::new(
        &m,
        &presets::tesla_k10_single(),
        &FleetConfig::replicated(2),
    );
    let ledger = mg.enable_tracing();
    let x: Vec<f64> = (0..m.cols()).map(|i| 1.0 + (i % 5) as f64 * 0.25).collect();
    let mut y = vec![0.0f64; m.rows()];
    let rep = mg.spmv(&x, &mut y);
    set_sim_threads(0);
    // sanity: the run is a real dual-device SpMV, not a degenerate trace
    assert_eq!(rep.per_device.len(), 2);
    let d = sparse_formats::scalar::rel_l2_distance(&y, &m.spmv(&x));
    assert!(d < 1e-12, "rel distance {d}");
    ledger
        .reconcile()
        .expect("dual-GPU scenario must reconcile");
    serde_json::to_string_pretty(&ledger.chrome_trace()).unwrap() + "\n"
}

#[test]
fn dual_device_trace_matches_golden_file() {
    let json = scenario_json();
    serde_json::validate(&json).expect("export must be valid JSON");

    // one process lane per device
    for dev in ["#0", "#1"] {
        assert!(
            json.contains(dev),
            "export must contain a device lane tagged {dev}"
        );
    }

    if std::env::var("ACSR_REGEN_GOLDEN").is_ok() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/trace_dual_k10.json"
        );
        std::fs::write(path, &json).expect("write golden");
        eprintln!("regenerated {path}");
        return;
    }
    assert_eq!(
        json, GOLDEN,
        "multi-GPU chrome-trace export drifted from tests/golden/trace_dual_k10.json \
         (regenerate with ACSR_REGEN_GOLDEN=1 if intentional)"
    );
}

fn fleet_scenario_json() -> String {
    set_sim_threads(1);
    let m = generate_power_law(&PowerLawConfig {
        rows: 1500,
        cols: 1500,
        mean_degree: 6.0,
        max_degree: 1200,
        pinned_max_rows: 1,
        col_skew: 0.4,
        seed: 191,
        ..Default::default()
    });
    let mut fleet = Fleet::new(&m, &presets::tesla_k10_single(), &FleetConfig::new(4));
    let ledger = fleet.enable_tracing();
    let x: Vec<f64> = (0..m.cols()).map(|i| 1.0 + (i % 5) as f64 * 0.25).collect();
    let mut y = vec![0.0f64; m.rows()];
    let rep = fleet.spmv(&x, &mut y);
    set_sim_threads(0);
    assert_eq!(rep.per_device.len(), 4);
    assert!(rep.halo_bytes() > 0, "4-way sharding must exchange");
    let d = sparse_formats::scalar::rel_l2_distance(&y, &m.spmv(&x));
    assert!(d < 1e-12, "rel distance {d}");
    ledger.reconcile().expect("fleet scenario must reconcile");
    serde_json::to_string_pretty(&ledger.chrome_trace()).unwrap() + "\n"
}

#[test]
fn quad_fleet_trace_matches_golden_file() {
    let json = fleet_scenario_json();
    serde_json::validate(&json).expect("export must be valid JSON");

    // one process lane per device, and halo transfer spans on ingress
    for dev in ["#0", "#1", "#2", "#3"] {
        assert!(
            json.contains(dev),
            "export must contain a device lane tagged {dev}"
        );
    }
    assert!(
        json.contains("halo_"),
        "export must contain per-edge halo transfer spans"
    );

    if std::env::var("ACSR_REGEN_GOLDEN").is_ok() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/trace_fleet_quad.json"
        );
        std::fs::write(path, &json).expect("write golden");
        eprintln!("regenerated {path}");
        return;
    }
    assert_eq!(
        json, GOLDEN_FLEET,
        "fleet chrome-trace export drifted from tests/golden/trace_fleet_quad.json \
         (regenerate with ACSR_REGEN_GOLDEN=1 if intentional)"
    );
}
