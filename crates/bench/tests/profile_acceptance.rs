//! Acceptance tests for the per-kernel profiler, pinning the paper's
//! §II microarchitectural claims as *derived-metric* facts:
//!
//! * ACSR's binned kernels waste fewer SIMT lanes than the CSR-vector
//!   baseline on a power-law matrix (strictly higher warp execution
//!   efficiency) — the whole point of adaptive binning.
//! * Every SpMV kernel sits far left of the roofline ridge on all three
//!   Table II presets: memory-bound, never compute-bound.
//! * The `PROFILE_*.json` artifact is byte-stable (golden file) and the
//!   `bench-diff` gate fails exactly when a metric regresses.

use acsr::{AcsrConfig, AcsrEngine, PhaseRollup};
use gpu_sim::profile::{ProfileReport, Roofline};
use gpu_sim::{presets, set_sim_threads, Counters, Device};
use graphgen::{generate_power_law, PowerLawConfig};
use repro_bench::{artifact, profile};
use sparse_formats::CsrMatrix;
use spmv_kernels::csr_vector::CsrVector;
use spmv_kernels::{DevCsr, GpuSpmv};
use std::sync::Mutex;

/// `set_sim_threads` is process-global.
static WIDTH_LOCK: Mutex<()> = Mutex::new(());

fn power_law_matrix(seed: u64) -> CsrMatrix<f64> {
    generate_power_law(&PowerLawConfig {
        rows: 4000,
        cols: 4000,
        mean_degree: 16.0,
        max_degree: 1024,
        seed,
        ..Default::default()
    })
}

/// Run one engine's SpMV under a per-device ledger and profile it.
fn profiled_spmv(cfg: gpu_sim::DeviceConfig, m: &CsrMatrix<f64>, which: &str) -> ProfileReport {
    let mut dev = Device::new(cfg);
    let ledger = dev.enable_tracing();
    let x: Vec<f64> = (0..m.cols()).map(|i| 1.0 + (i % 7) as f64 * 0.1).collect();
    let xd = dev.alloc(x);
    let yd = dev.alloc_zeroed::<f64>(m.rows());
    match which {
        "csr_vector" => {
            CsrVector::new(DevCsr::upload(&dev, m)).spmv(&dev, &xd, &yd);
        }
        "acsr" => {
            let eng = AcsrEngine::from_csr(&dev, m, AcsrConfig::for_device(dev.config()));
            eng.spmv(&dev, &xd, &yd);
        }
        other => panic!("unknown engine {other}"),
    }
    ledger.reconcile().expect("ledger reconciles");
    let configs = profile::known_configs();
    let report = ProfileReport::from_spans(&ledger.spans(), &configs);
    report.reconcile().expect("profile reconciles");
    report
}

fn weff_of(counters: &Counters) -> f64 {
    counters
        .warp_execution_efficiency()
        .expect("kernel issued warp instructions")
}

/// §II / Figure 2: binning removes the SIMT-lane waste CSR-vector pays
/// on short power-law rows.
#[test]
fn acsr_bins_beat_csr_vector_warp_efficiency() {
    let _guard = WIDTH_LOCK.lock().unwrap();
    let m = power_law_matrix(7);
    let csr = profiled_spmv(presets::gtx_titan(), &m, "csr_vector");
    let csr_row = csr
        .rows
        .iter()
        .find(|r| r.name == "csr_vector")
        .expect("csr_vector row");
    let csr_weff = weff_of(&csr_row.counters);

    let acsr = profiled_spmv(presets::gtx_titan(), &m, "acsr");
    let bins: Vec<_> = acsr
        .rows
        .iter()
        .filter(|r| r.is_counted() && r.name.starts_with("acsr_bin"))
        .collect();
    assert_eq!(bins.len(), 1, "the G2 bins launch as one grid");
    assert_eq!(bins[0].name, "acsr_bins");
    let bin_weff = weff_of(&bins[0].counters);
    assert!(
        bin_weff > csr_weff,
        "binned kernels must waste fewer lanes: ACSR bins {bin_weff:.4} \
         vs csr_vector {csr_weff:.4}"
    );
}

/// §II: SpMV's arithmetic intensity (~2 flops per matrix byte) is far
/// below every preset's ridge point, so every flop-carrying kernel row
/// classifies memory-bound on the roofline — on all three devices.
#[test]
fn spmv_is_memory_bound_on_every_preset() {
    let _guard = WIDTH_LOCK.lock().unwrap();
    let m = power_law_matrix(11);
    for cfg in [
        presets::gtx_580(),
        presets::tesla_k10_single(),
        presets::gtx_titan(),
    ] {
        for which in ["csr_vector", "acsr"] {
            let report = profiled_spmv(cfg.clone(), &m, which);
            let mut checked = 0;
            for row in report.rows.iter().filter(|r| r.counters.flops > 0) {
                assert_eq!(
                    row.metrics.roofline,
                    Some(Roofline::MemoryBound),
                    "{which}/{} on {} must be roofline-memory-bound \
                     (AI {:?} flop/B)",
                    row.name,
                    cfg.name,
                    row.metrics.arithmetic_intensity,
                );
                checked += 1;
            }
            assert!(checked > 0, "{which} on {} had no flop rows", cfg.name);
        }
    }
}

/// Golden-file test for the `acsr-profile-v1` JSON artifact: a fixed
/// scenario must render byte-identically — the file is parsed by
/// `bench-diff` and CI baselines, so format drift should fail loudly.
///
/// Regenerate after an intentional schema change with
/// `ACSR_REGEN_GOLDEN=1 cargo test -p repro-bench --test profile_acceptance`.
#[test]
fn profile_json_matches_golden_file() {
    let _guard = WIDTH_LOCK.lock().unwrap();
    set_sim_threads(1);
    let mut dev = Device::new(presets::gtx_titan());
    let ledger = dev.enable_tracing();
    let m = generate_power_law::<f64>(&PowerLawConfig {
        rows: 600,
        cols: 600,
        mean_degree: 8.0,
        max_degree: 256,
        seed: 42,
        ..Default::default()
    });
    let x: Vec<f64> = (0..m.cols()).map(|i| 1.0 + (i % 5) as f64 * 0.2).collect();
    let xd = dev.alloc(x);
    let yd = dev.alloc_zeroed::<f64>(m.rows());
    let eng = AcsrEngine::from_csr(&dev, &m, AcsrConfig::for_device(dev.config()));
    eng.spmv(&dev, &xd, &yd);
    set_sim_threads(0);
    ledger.reconcile().expect("ledger reconciles");

    let spans = ledger.spans();
    let report = ProfileReport::from_spans(&spans, &profile::known_configs());
    report.reconcile().expect("profile reconciles");
    let doc = profile::document("golden", &report, &PhaseRollup::from_spans(&spans));
    let json = artifact::render(&profile::SCHEMA, &doc).expect("profile artifact meets its schema");

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/profile_small.json"
    );
    if std::env::var("ACSR_REGEN_GOLDEN").is_ok() {
        std::fs::write(path, &json).expect("write golden");
        eprintln!("regenerated {path}");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("read golden profile");
    assert_eq!(
        json, golden,
        "PROFILE json drifted from tests/golden/profile_small.json \
         (regenerate with ACSR_REGEN_GOLDEN=1 if intentional)"
    );
}

/// End-to-end `bench-diff` gate through the real binary: equal reports
/// pass (exit 0), an inflated baseline — claiming more GFLOP/s and less
/// time than the new run delivers — fails (exit 1), garbage exits 2.
#[test]
fn bench_diff_cli_exit_codes() {
    let dir = std::env::temp_dir().join(format!("acsr_bench_diff_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let write = |name: &str, time: f64, gflops: f64| {
        let path = dir.join(name);
        std::fs::write(
            &path,
            format!(
                "{{\"kernels\":[{{\"name\":\"csr_vector\",\"time_s\":{time:?},\
                 \"metrics\":{{\"achieved_gflops\":{gflops:?}}}}}]}}"
            ),
        )
        .expect("write temp json");
        path
    };
    let base = write("base.json", 1.0, 5.0);
    let same = write("same.json", 1.02, 5.0);
    let slower = write("slower.json", 1.5, 3.0);
    let run = |a: &std::path::Path, b: &std::path::Path| {
        std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["bench-diff", a.to_str().unwrap(), b.to_str().unwrap()])
            .output()
            .expect("run repro bench-diff")
    };
    let ok = run(&base, &same);
    assert_eq!(ok.status.code(), Some(0), "{:?}", ok);
    assert!(String::from_utf8_lossy(&ok.stdout).contains("PASS"));

    let bad = run(&base, &slower);
    assert_eq!(bad.status.code(), Some(1), "{:?}", bad);
    let out = String::from_utf8_lossy(&bad.stdout);
    assert!(out.contains("REGRESSION") && out.contains("FAIL"), "{out}");

    let garbage = dir.join("garbage.json");
    std::fs::write(&garbage, "{not json").expect("write garbage");
    let err = run(&base, &garbage);
    assert_eq!(err.status.code(), Some(2), "{:?}", err);
    let _ = std::fs::remove_dir_all(&dir);
}
