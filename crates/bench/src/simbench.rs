//! Host-simulator throughput sweep (`repro simbench` and its CI smoke
//! `repro simbench --quick`, which writes the artifact too).
//!
//! Measures simulated kernel launches per second for each SpMV engine
//! at host worker widths 1/2/4/8 (the `ACSR_SIM_THREADS` knob). Every
//! width computes bit-identical reports — the sweep measures pure host
//! mechanism, so `launches_per_sec` is the direct price of simulating a
//! launch and `speedup_vs_seq` is the parallel-host scaling curve.
//!
//! Results are written to `results/BENCH_sim_throughput.json` under
//! [`SCHEMA`], which the write and `repro check-artifacts` both enforce;
//! `repro bench-diff` gates them against the committed floor in
//! `baselines/BENCH_sim_throughput_ci.json` (`launches_per_sec` and
//! `speedup_vs_seq` are higher-better metrics by name).

use crate::artifact::{self, RowTable, Schema};
use acsr::{AcsrConfig, AcsrEngine};
use gpu_sim::{host_cores, presets, set_sim_threads, Device, DeviceBuffer};
use graphgen::{generate_power_law, PowerLawConfig};
use serde::Serialize;
use sparse_formats::EllMatrix;
use spmv_kernels::{csr_vector::CsrVector, ell_kernel::EllKernel, DevCsr, DevEll, GpuSpmv};
use std::time::Instant;

/// The `acsr-simbench-v1` contract: every kernel carries its sweep.
pub const SCHEMA: Schema = Schema {
    tag: "acsr-simbench-v1",
    kind: "simbench report",
    fields: &["host_cores"],
    rows: &[("kernels", 1, &["kernel"])],
    invariants: |doc| {
        let kernels = artifact::rows(doc, "kernels");
        kernels
            .iter()
            .try_for_each(|k| artifact::check_rows(k, &SWEEP))
    },
};

/// Each kernel's sweep rows.
const SWEEP: RowTable = (
    "widths",
    1,
    &["workers", "launches_per_sec", "speedup_vs_seq"],
);

/// Host worker widths swept.
pub const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// One (workers, rate) sample.
#[derive(Serialize)]
pub struct WidthRate {
    pub workers: usize,
    pub launches_per_sec: f64,
    /// Rate relative to this kernel's `workers == 1` run.
    pub speedup_vs_seq: f64,
}

/// The sweep for one kernel.
#[derive(Serialize)]
pub struct KernelRates {
    pub kernel: &'static str,
    pub widths: Vec<WidthRate>,
}

/// Full report of one sweep run.
#[derive(Serialize)]
pub struct Report {
    pub host_cores: usize,
    pub kernels: Vec<KernelRates>,
}

/// One benchable engine instance with its vectors.
pub struct Workload {
    pub kernel: &'static str,
    pub dev: Device,
    pub eng: Box<dyn GpuSpmv<f64>>,
    pub x: DeviceBuffer<f64>,
    pub y: DeviceBuffer<f64>,
}

impl Workload {
    /// One simulated launch.
    pub fn launch(&self) {
        self.eng.spmv(&self.dev, &self.x, &self.y);
    }
}

/// The standard workloads: the 20k-row power-law matrix for CSR-vector
/// and ACSR (the paper's target shape — long-tail rows), and a
/// bounded-degree matrix for ELL (whose storage is `rows × max_degree`,
/// so a power-law tail would be pathological for the *format*, not the
/// simulator). The CSR-vector workload is unchanged from the original
/// single-kernel bench, keeping `launches_per_sec` comparable across
/// the repo's history.
pub fn workloads() -> Vec<Workload> {
    let skewed = generate_power_law(&PowerLawConfig {
        rows: 20_000,
        cols: 20_000,
        mean_degree: 12.0,
        max_degree: 4_000,
        pinned_max_rows: 2,
        col_skew: 0.4,
        seed: 7,
        ..Default::default()
    });
    let bounded = generate_power_law(&PowerLawConfig {
        rows: 20_000,
        cols: 20_000,
        mean_degree: 12.0,
        max_degree: 32,
        pinned_max_rows: 0,
        col_skew: 0.4,
        seed: 7,
        ..Default::default()
    });
    let vectors = |dev: &Device, rows: usize, cols: usize| {
        let x: Vec<f64> = (0..cols).map(|i| 1.0 + (i % 7) as f64 * 0.1).collect();
        (dev.alloc(x), dev.alloc_zeroed::<f64>(rows))
    };
    let mut out = Vec::new();
    {
        let dev = Device::new(presets::gtx_titan());
        let eng = CsrVector::new(DevCsr::upload(&dev, &skewed));
        let (x, y) = vectors(&dev, skewed.rows(), skewed.cols());
        out.push(Workload {
            kernel: "csr_vector",
            dev,
            eng: Box::new(eng),
            x,
            y,
        });
    }
    {
        let dev = Device::new(presets::gtx_titan());
        let (ell, _) = EllMatrix::from_csr(&bounded, usize::MAX).expect("bounded-degree ELL fits");
        let eng = EllKernel::new(DevEll::upload(&dev, &ell));
        let (x, y) = vectors(&dev, bounded.rows(), bounded.cols());
        out.push(Workload {
            kernel: "ell",
            dev,
            eng: Box::new(eng),
            x,
            y,
        });
    }
    {
        let dev = Device::new(presets::gtx_titan());
        let cfg = AcsrConfig::for_device(dev.config());
        let eng = AcsrEngine::from_csr(&dev, &skewed, cfg);
        let (x, y) = vectors(&dev, skewed.rows(), skewed.cols());
        out.push(Workload {
            kernel: "acsr",
            dev,
            eng: Box::new(eng),
            x,
            y,
        });
    }
    out
}

/// Measure one workload at one width: warm up, then launch repeatedly
/// for at least `window` seconds (and `min_launches` launches). Two
/// back-to-back windows, best rate kept: the interesting quantity is
/// the engine's throughput, and transient host stalls (scheduler
/// preemption on a loaded CI box) only ever push a window *down*.
pub fn measure(w: &Workload, threads: usize, window: f64, min_launches: u32) -> f64 {
    set_sim_threads(threads);
    for _ in 0..2 {
        w.launch();
    }
    let mut best = 0.0f64;
    for _ in 0..2 {
        let start = Instant::now();
        let mut launches = 0u32;
        while launches < min_launches || start.elapsed().as_secs_f64() < window {
            w.launch();
            launches += 1;
        }
        best = best.max(launches as f64 / start.elapsed().as_secs_f64());
    }
    set_sim_threads(0);
    best
}

/// Run the full sweep. `quick` shortens the per-point window for smoke
/// runs (noisier, same schema).
pub fn run(quick: bool) -> Report {
    let (window, min_launches) = if quick { (0.12, 3) } else { (0.4, 10) };
    let kernels = workloads()
        .iter()
        .map(|w| {
            let rates: Vec<f64> = WIDTHS
                .iter()
                .map(|&t| measure(w, t, window, min_launches))
                .collect();
            KernelRates {
                kernel: w.kernel,
                widths: WIDTHS
                    .iter()
                    .zip(&rates)
                    .map(|(&workers, &r)| WidthRate {
                        workers,
                        launches_per_sec: r,
                        speedup_vs_seq: r / rates[0],
                    })
                    .collect(),
            }
        })
        .collect();
    Report {
        host_cores: host_cores(),
        kernels,
    }
}

/// Human-readable table.
pub fn render(report: &Report) -> String {
    let mut t = crate::Table::new(&["Kernel", "workers", "launches/sec", "speedup vs seq"]);
    for k in &report.kernels {
        for wr in &k.widths {
            t.row(vec![
                k.kernel.to_string(),
                wr.workers.to_string(),
                format!("{:.1}", wr.launches_per_sec),
                format!("{:.2}x", wr.speedup_vs_seq),
            ]);
        }
    }
    format!(
        "Host-simulator throughput ({} host cores)\n{}",
        report.host_cores,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    #[test]
    fn json_round_trips_and_carries_schema() {
        let report = Report {
            host_cores: 4,
            kernels: vec![KernelRates {
                kernel: "csr_vector",
                widths: vec![WidthRate {
                    workers: 1,
                    launches_per_sec: 123.4,
                    speedup_vs_seq: 1.0,
                }],
            }],
        };
        let json = artifact::render(&SCHEMA, &report).unwrap();
        assert_eq!(artifact::validate(&json), Ok(SCHEMA.kind));
        let doc = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(
            artifact::field(&doc, "schema"),
            Some(&Value::Str(SCHEMA.tag.into()))
        );
        // The JSON shim parses in-range positive integers as I64.
        assert_eq!(artifact::field(&doc, "host_cores"), Some(&Value::I64(4)));
        assert_eq!(artifact::rows(&doc, "kernels").len(), 1);
    }
}
