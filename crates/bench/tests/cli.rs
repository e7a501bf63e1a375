//! The `repro` binary's artifact plumbing, end to end: `check-artifacts`
//! refuses documents whose schema tag it does not know, and every
//! capture mode honours `--trace`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh working directory for one test (tests run in parallel).
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("acsr_cli_{test}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn repro(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("run repro")
}

/// A tag no schema declares is an error naming the known tags — not a
/// pass that skips every check, as a broken halo ledger retagged
/// `acsr-fleet-v2` used to get.
#[test]
fn check_artifacts_rejects_unknown_schema_tags() {
    let dir = scratch("tags");
    let fleet = r#"{"schema": "acsr-fleet-v1", "scale": 64, "device_counts": [1, 2],
        "formats": {"shards": ["ACSR"]},
        "scaling": [{"name": "ENR_d2", "devices": 2, "seconds": 1.0, "speedup": 1.5,
            "efficiency": 0.75, "halo_bytes": 8, "ledger_halo_bytes": 9,
            "payload_bytes": 8, "schedule": "direct", "messages": 1,
            "exchange_ms": 0.1, "direct_exchange_ms": 0.1, "replicated_rows": 0}],
        "serving": [{"name": "narrow_d4", "devices": 4, "queries": 8, "waves": 2,
            "p50_ms": 0.3, "p99_ms": 0.5, "mean_wave_width": 1.0}]}"#;
    let cases = [
        ("fleet_v1.json", fleet.to_string(), "must be integer-equal"),
        (
            "fleet_v2.json",
            fleet.replace("acsr-fleet-v1", "acsr-fleet-v2"),
            "unknown schema 'acsr-fleet-v2'",
        ),
        (
            "stream_v9.json",
            r#"{"schema": "acsr-stream-v9", "identical": false}"#.to_string(),
            "unknown schema 'acsr-stream-v9'",
        ),
    ];
    for (file, text, error) in &cases {
        std::fs::write(dir.join(file), text).expect("write artifact");
        let out = repro(&dir, &["check-artifacts", file]);
        assert_eq!(out.status.code(), Some(2), "{file}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(error), "{file}: {stderr}");
        if error.starts_with("unknown") {
            assert!(stderr.contains("known: acsr-profile-v1, "), "{stderr}");
        }
    }
    std::fs::write(dir.join("plain.json"), r#"{"bench": "serve"}"#).expect("write");
    let out = repro(&dir, &["check-artifacts", "plain.json"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("plain.json: valid JSON ("));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--trace` writes a valid chrome trace under `metrics` and `profile`
/// alike, and an experiment without device work writes no empty trace
/// or profile.
#[test]
fn every_capture_mode_honours_trace() {
    let dir = scratch("capture");
    let trace = dir.join("results/trace_fig5.json");
    for (mode, artifact) in [
        ("metrics", "METRICS_fig5.json"),
        ("profile", "PROFILE_fig5.json"),
    ] {
        let _ = std::fs::remove_file(&trace);
        let out = repro(
            &dir,
            &[
                mode,
                "fig5",
                "--trace",
                "--scale",
                "1024",
                "--matrices",
                "INT",
            ],
        );
        assert_eq!(out.status.code(), Some(0), "{mode}: {out:?}");
        let text = std::fs::read_to_string(&trace).expect("trace written");
        assert_eq!(repro_bench::artifact::validate(&text), Ok("chrome trace"));
        assert!(dir.join("results").join(artifact).exists(), "{artifact}");
    }

    let out = repro(&dir, &["profile", "table2", "--trace"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("no device work recorded"));
    for file in ["PROFILE_table2.json", "trace_table2.json"] {
        assert!(!dir.join("results").join(file).exists(), "{file}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
