//! `repro serve` — the batched RWR/PPR serving experiment.
//!
//! Not a paper figure: this measures what the paper's single-query SpMV
//! numbers imply for a *serving* deployment. A saturated Poisson stream
//! of personalized RWR queries is pushed through [`acsr_serve`]'s
//! continuous-batching scheduler at batch widths k ∈ {1, 4, 16, 64} on
//! the GTX Titan preset; throughput (queries/sec, GFLOPS) should rise
//! with k as the multi-vector ACSR kernels amortize launch floors and
//! row-structure reads, while per-query latency percentiles show the
//! price each query pays for riding in a wider wave.
//!
//! The experiment serves the **first** selected matrix (default AMZ;
//! pick one with `--matrices`). Answers are batch-invariant by
//! construction, so every k row answers the same queries identically.
//!
//! The sweep is also written to `results/BENCH_serve.json` under
//! [`SCHEMA`] ([`write_report`]); CI regenerates it with `repro serve
//! --scale 64 --matrices WIK` and compares it byte for byte.

use crate::artifact::{self, Schema};
use crate::common::{selected_specs, Options, Table};
use acsr_serve::{ArrivalPattern, ServeConfig, ServeEngine};
use gpu_sim::presets;
use serde::Serialize;
use std::path::PathBuf;

/// The `acsr-serve-v1` contract of [`ServeSweep`]: the `workload` it
/// served and at least one batch width, each row with every
/// [`ServeRow`] field.
pub const SCHEMA: Schema = Schema {
    tag: "acsr-serve-v1",
    kind: "serve throughput report",
    fields: &["workload"],
    rows: &[(
        "batch_widths",
        1,
        &[
            "max_batch",
            "completed",
            "rejected",
            "waves",
            "qps",
            "gflops",
            "p50_ms",
            "p95_ms",
            "p99_ms",
            "mean_iterations",
        ],
    )],
    invariants: |_| Ok(()),
};

/// One sweep, all modeled; its JSON form is the artifact
/// (`results/BENCH_serve.json`), where `workload` names the matrix and
/// its size once for every row.
#[derive(Serialize)]
pub struct ServeSweep {
    /// The served stream, graph and device.
    pub workload: String,
    /// The served matrix's Table I abbreviation, rows and non-zeros,
    /// for the text table's heading.
    #[serde(skip)]
    pub abbrev: String,
    #[serde(skip)]
    pub rows: usize,
    #[serde(skip)]
    pub nnz: usize,
    pub batch_widths: Vec<ServeRow>,
}

/// Batch widths swept by the experiment.
pub const BATCH_WIDTHS: [usize; 4] = [1, 4, 16, 64];

/// Queries in the generated stream.
const N_QUERIES: usize = 96;

/// Serving metrics at one batch width.
#[derive(Debug, Serialize)]
pub struct ServeRow {
    pub max_batch: usize,
    pub completed: usize,
    pub rejected: usize,
    pub waves: usize,
    pub qps: f64,
    pub gflops: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    pub mean_iterations: f64,
}

/// Sweep batch widths over the first selected matrix.
pub fn run(opts: &Options) -> ServeSweep {
    let spec = selected_specs(opts)[0];
    assert_eq!(
        spec.rows, spec.cols,
        "serve needs a square (graph) matrix; '{}' is rectangular",
        spec.abbrev
    );
    let m = spec.generate::<f64>(opts.scale, opts.seed);
    let (rows, nnz) = (m.csr.rows(), m.csr.nnz());
    let mut batch_widths = Vec::new();
    for &max_batch in &BATCH_WIDTHS {
        let engine = ServeEngine::new(
            &m.csr,
            ServeConfig {
                max_batch,
                queue_capacity: 2 * N_QUERIES,
                ..ServeConfig::default()
            },
        );
        // saturated load: arrivals far faster than service, so every
        // wave fills to max_batch while queries remain
        let report = engine.serve_generated(
            ArrivalPattern::Poisson { rate_qps: 2e5 },
            N_QUERIES,
            0.85,
            opts.seed,
        );
        let lat = report.latency_stats();
        batch_widths.push(ServeRow {
            max_batch,
            completed: report.outcomes.len(),
            rejected: report.rejected.len(),
            waves: report.waves,
            qps: report.throughput_qps(),
            gflops: report.gflops(),
            p50_ms: lat.p50_s * 1e3,
            p95_ms: lat.p95_s * 1e3,
            p99_ms: lat.p99_s * 1e3,
            mean_iterations: report.mean_iterations(),
        });
    }
    ServeSweep {
        workload: format!(
            "{N_QUERIES} RWR queries, saturated Poisson, {} ({rows} rows, {nnz} nnz), {}",
            spec.abbrev,
            presets::gtx_titan().name
        ),
        abbrev: spec.abbrev.to_string(),
        rows,
        nnz,
        batch_widths,
    }
}

/// Write the JSON artifact; returns its path.
pub fn write_report(sweep: &ServeSweep) -> Result<PathBuf, String> {
    artifact::write(&SCHEMA, "BENCH_serve.json", sweep)
}

/// Render as text.
pub fn render(sweep: &ServeSweep) -> String {
    let mut out = format!(
        "Serving: batched RWR on {} ({} rows, {} nnz), saturated Poisson, GTX Titan:\n",
        sweep.abbrev, sweep.rows, sweep.nnz
    );
    let mut t = Table::new(&[
        "k", "done", "shed", "waves", "q/s", "GFLOPS", "p50 ms", "p95 ms", "p99 ms", "iters",
    ]);
    for r in &sweep.batch_widths {
        t.row(vec![
            r.max_batch.to_string(),
            r.completed.to_string(),
            r.rejected.to_string(),
            r.waves.to_string(),
            format!("{:.0}", r.qps),
            format!("{:.2}", r.gflops),
            format!("{:.3}", r.p50_ms),
            format!("{:.3}", r.p95_ms),
            format!("{:.3}", r.p99_ms),
            format!("{:.1}", r.mean_iterations),
        ]);
    }
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_rises_with_batch_width() {
        let opts = Options {
            scale: 256,
            matrices: vec!["INT".into()],
            ..Default::default()
        };
        let rows = run(&opts).batch_widths;
        assert_eq!(rows.len(), BATCH_WIDTHS.len());
        assert!(rows.iter().all(|r| r.completed == N_QUERIES));
        // the acceptance shape: strictly increasing queries/sec from
        // k = 1 through k = 16
        for pair in rows[..3].windows(2) {
            assert!(
                pair[1].qps > pair[0].qps,
                "qps must rise with k: {} at k={} vs {} at k={}",
                pair[0].qps,
                pair[0].max_batch,
                pair[1].qps,
                pair[1].max_batch
            );
        }
    }
}
