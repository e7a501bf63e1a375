//! Ablations of the design choices DESIGN.md §4 calls out:
//!
//! 1. long-tail mode: dynamic parallelism vs binning-only vs static;
//! 2. `ThreadLoad` (child-grid thread coarsening) sweep;
//! 3. `BinMax` (G1/G2 split point) sweep;
//! 4. texture-cache reads of `x` on/off.

use crate::common::{Options, Table};
use acsr::{AcsrConfig, AcsrEngine, AcsrMode};
use gpu_sim::{presets, Device};
use graphgen::MatrixSpec;
use serde::Serialize;
use spmv_kernels::GpuSpmv;

/// One ablation measurement.
#[derive(Clone, Debug, Serialize)]
pub struct AblationRow {
    pub study: &'static str,
    pub variant: String,
    pub spmv_seconds: f64,
    pub gflops: f64,
}

fn spmv_time(dev: &Device, engine: &AcsrEngine<f64>, x: &[f64]) -> f64 {
    let xd = dev.alloc(x.to_vec());
    let yd = dev.alloc_zeroed::<f64>(engine.rows());
    engine.spmv(dev, &xd, &yd).time_s
}

/// Run all ablations on one heavy-tailed matrix (default HOL).
pub fn run(opts: &Options) -> Vec<AblationRow> {
    let abbrev = opts
        .matrices
        .first()
        .cloned()
        .unwrap_or_else(|| "HOL".to_string());
    let spec = MatrixSpec::by_abbrev(&abbrev).expect("known abbreviation");
    let m = spec.generate::<f64>(opts.scale, opts.seed).csr;
    let dev = Device::new(presets::gtx_titan());
    let flops = 2 * m.nnz() as u64;
    let x: Vec<f64> = (0..m.cols()).map(|i| 1.0 + (i % 7) as f64 * 0.1).collect();
    let mut rows = Vec::new();
    let mut push = |study: &'static str, variant: String, t: f64| {
        rows.push(AblationRow {
            study,
            variant,
            spmv_seconds: t,
            gflops: flops as f64 / t / 1e9,
        });
    };

    // 1) long-tail mode
    for (name, cfg) in [
        ("dynamic-parallelism", AcsrConfig::for_device(dev.config())),
        ("static-long-tail", AcsrConfig::static_long_tail()),
        (
            "binning-only",
            AcsrConfig {
                mode: AcsrMode::BinningOnly,
                row_max: 0,
                ..AcsrConfig::for_device(dev.config())
            },
        ),
    ] {
        let engine = AcsrEngine::from_csr(&dev, &m, cfg);
        push("tail-mode", name.into(), spmv_time(&dev, &engine, &x));
    }

    // 2) ThreadLoad sweep
    for tl in [1usize, 2, 4, 8, 16] {
        let cfg = AcsrConfig {
            thread_load: tl,
            ..AcsrConfig::for_device(dev.config())
        };
        let engine = AcsrEngine::from_csr(&dev, &m, cfg);
        push(
            "thread-load",
            format!("ThreadLoad={tl}"),
            spmv_time(&dev, &engine, &x),
        );
    }

    // 3) BinMax sweep
    for bm in [6usize, 8, 10, 12, 14] {
        let cfg = AcsrConfig {
            bin_max: bm,
            ..AcsrConfig::for_device(dev.config())
        };
        let engine = AcsrEngine::from_csr(&dev, &m, cfg);
        push(
            "bin-max",
            format!("BinMax={bm}"),
            spmv_time(&dev, &engine, &x),
        );
    }

    // 4) texture on/off
    for tex in [true, false] {
        let cfg = AcsrConfig {
            texture_x: tex,
            ..AcsrConfig::for_device(dev.config())
        };
        let engine = AcsrEngine::from_csr(&dev, &m, cfg);
        push(
            "texture-x",
            format!("texture={tex}"),
            spmv_time(&dev, &engine, &x),
        );
    }

    rows
}

/// Render as text.
pub fn render(rows: &[AblationRow]) -> String {
    let mut out = String::from("ACSR ablations (GTX Titan, f64):\n");
    for study in ["tail-mode", "thread-load", "bin-max", "texture-x"] {
        let mut t = Table::new(&["Variant", "SpMV", "GFLOP/s"]);
        for r in rows.iter().filter(|r| r.study == study) {
            t.row(vec![
                r.variant.clone(),
                crate::common::fmt_secs(r.spmv_seconds),
                format!("{:.1}", r.gflops),
            ]);
        }
        out.push_str(&format!("\n== {study} ==\n{}", t.render()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_parallelism_beats_binning_only_on_heavy_tail() {
        // The scale `results/ablations.txt` and EXPERIMENTS.md make the
        // claim at.
        let rows = run(&Options {
            scale: 64,
            matrices: vec!["HOL".into()],
            ..Default::default()
        });
        let get = |v: &str| rows.iter().find(|r| r.variant == v).unwrap().spmv_seconds;
        assert!(
            get("dynamic-parallelism") < get("binning-only"),
            "dp {} vs binning {}",
            get("dynamic-parallelism"),
            get("binning-only")
        );
    }

    #[test]
    fn texture_helps_on_skewed_columns() {
        let rows = run(&Options {
            scale: 256,
            matrices: vec!["ENR".into()],
            ..Default::default()
        });
        let get = |v: &str| rows.iter().find(|r| r.variant == v).unwrap().spmv_seconds;
        assert!(get("texture=true") <= get("texture=false"));
    }

    #[test]
    fn all_studies_present() {
        let rows = run(&Options {
            scale: 512,
            matrices: vec!["INT".into()],
            ..Default::default()
        });
        for study in ["tail-mode", "thread-load", "bin-max", "texture-x"] {
            assert!(rows.iter().any(|r| r.study == study), "missing {study}");
        }
        let s = render(&rows);
        assert!(s.contains("ThreadLoad=4"));
    }
}
