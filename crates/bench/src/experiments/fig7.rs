//! Figure 7 — PageRank on dynamic graphs (§VII).
//!
//! Top: per-epoch speedup trend on FLI (the paper's representative).
//! Bottom: per-matrix average speedup across all epochs.
//!
//! ACSR ships only deltas and updates in place; CSR re-uploads the whole
//! matrix; HYB re-uploads *and* re-transforms. Epoch 0 is the cold start,
//! where ACSR must also pay a full upload ("the cost of copying the
//! complete matrix for ACSR is only paid in the first time period").

use crate::common::{selected_specs, Options, Table};
use gpu_sim::{presets, Device};
use graph_apps::dynamic::{dynamic_pagerank_cached, DynamicConfig, EpochStats, Strategy};
use graph_apps::pagerank::pagerank_operator;
use graph_apps::IterParams;
use serde::Serialize;
use sparse_formats::HostModel;
use spmv_pipeline::PlanCache;

/// Dynamic-PageRank trajectories of all three strategies on one matrix.
#[derive(Clone, Debug, Serialize)]
pub struct Fig7Row {
    pub abbrev: String,
    pub acsr: Vec<EpochStats>,
    pub csr: Vec<EpochStats>,
    pub hyb: Vec<EpochStats>,
}

impl Fig7Row {
    /// Per-epoch speedups `(vs CSR, vs HYB)`.
    pub fn epoch_speedups(&self) -> Vec<(f64, f64)> {
        self.acsr
            .iter()
            .zip(self.csr.iter())
            .zip(self.hyb.iter())
            .map(|((a, c), h)| {
                (
                    c.total_seconds() / a.total_seconds(),
                    h.total_seconds() / a.total_seconds(),
                )
            })
            .collect()
    }

    /// Average speedup across all epochs (Figure 7-bottom's bars).
    pub fn average_speedups(&self) -> (f64, f64) {
        let v = self.epoch_speedups();
        let n = v.len().max(1) as f64;
        (
            v.iter().map(|s| s.0).sum::<f64>() / n,
            v.iter().map(|s| s.1).sum::<f64>() / n,
        )
    }
}

/// Run Figure 7 over the selected matrices.
pub fn run(opts: &Options) -> Vec<Fig7Row> {
    let dev = Device::new(presets::gtx_titan());
    let host = HostModel::default();
    let cfg = DynamicConfig {
        epochs: 10,
        params: IterParams {
            epsilon: 1e-6,
            max_iters: 500,
        },
        ..Default::default()
    };
    selected_specs(opts)
        .into_iter()
        .filter(|spec| spec.rows == spec.cols) // RAL: no adjacency (§VII)
        .map(|spec| {
            let m = spec.generate::<f64>(opts.scale, opts.seed);
            let op = pagerank_operator(&m.csr);
            // One plan cache per strategy run; its counts reach the
            // `repro metrics fig7` registry once the run is over.
            let run = |strategy| {
                let mut cache = PlanCache::new();
                let stats = dynamic_pagerank_cached(&dev, &op, strategy, &cfg, &host, &mut cache);
                crate::metrics::record_plan_cache(&cache);
                stats
            };
            Fig7Row {
                abbrev: spec.abbrev.into(),
                acsr: run(Strategy::AcsrIncremental),
                csr: run(Strategy::CsrReupload),
                hyb: run(Strategy::HybReupload),
            }
        })
        .collect()
}

/// The matrix whose per-epoch trend Figure 7-top shows.
fn trend_row(rows: &[Fig7Row]) -> Option<&Fig7Row> {
    rows.iter().find(|r| r.abbrev == "FLI").or(rows.first())
}

/// Render as text: the per-epoch trend of FLI, the paper's
/// representative, or of the first matrix when FLI did not run (Fig
/// 7-top), plus per-matrix averages (Fig 7-bottom).
pub fn render(rows: &[Fig7Row]) -> String {
    let mut out = String::from("Figure 7: dynamic-graph PageRank (10 epochs, 10% row churn):\n");
    if let Some(top) = trend_row(rows) {
        let mut t = Table::new(&["Epoch", "iters", "ACSR total", "vs CSR", "vs HYB"]);
        for (e, (sc, sh)) in top.epoch_speedups().iter().enumerate() {
            t.row(vec![
                format!("{e}"),
                format!("{}", top.acsr[e].iterations),
                crate::common::fmt_secs(top.acsr[e].total_seconds()),
                format!("{:.2}", sc),
                format!("{:.2}", sh),
            ]);
        }
        out.push_str(&format!(
            "\n== per-epoch trend on {} (top) ==\n{}",
            top.abbrev,
            t.render()
        ));
    }
    let mut t = Table::new(&["Matrix", "avg vs CSR", "avg vs HYB"]);
    let mut all_c = Vec::new();
    let mut all_h = Vec::new();
    for r in rows {
        let (sc, sh) = r.average_speedups();
        all_c.push(sc);
        all_h.push(sh);
        t.row(vec![
            r.abbrev.clone(),
            format!("{:.2}", sc),
            format!("{:.2}", sh),
        ]);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    out.push_str(&format!(
        "\n== per-matrix averages (bottom; AVG vs CSR {:.2}, vs HYB {:.2}) ==\n{}",
        mean(&all_c),
        mean(&all_h),
        t.render()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_panel_shows_fli_when_it_ran() {
        let row = |abbrev: &str| {
            let epoch = EpochStats {
                epoch: 0,
                iterations: 1,
                device_seconds: 1.0,
                update_seconds: 0.0,
                copy_seconds: 0.0,
                host_seconds: 0.0,
            };
            Fig7Row {
                abbrev: abbrev.into(),
                acsr: vec![epoch],
                csr: vec![epoch],
                hyb: vec![epoch],
            }
        };
        let top = |rows: &[Fig7Row]| {
            let text = render(rows);
            let line = text.lines().find(|l| l.starts_with("== per-epoch"));
            line.map(str::to_string)
        };
        let fli = top(&[row("AMZ"), row("FLI"), row("YOT")]);
        assert_eq!(fli.as_deref(), Some("== per-epoch trend on FLI (top) =="));
        let amz = top(&[row("AMZ"), row("YOT")]);
        assert_eq!(amz.as_deref(), Some("== per-epoch trend on AMZ (top) =="));
        assert_eq!(top(&[]), None);
    }

    #[test]
    fn later_epochs_favor_acsr_more_than_the_cold_start() {
        let opts = Options {
            scale: 128,
            matrices: vec!["FLI".into()],
            ..Default::default()
        };
        let rows = run(&opts);
        let r = &rows[0];
        let sp = r.epoch_speedups();
        // epoch 0 (cold): everyone pays a full upload, so near parity
        let (c0, _h0) = sp[0];
        // update epochs: ACSR's advantage must exceed the cold epoch's
        let later_avg: f64 = sp[1..].iter().map(|s| s.1).sum::<f64>() / (sp.len() - 1) as f64;
        let later_avg_csr: f64 = sp[1..].iter().map(|s| s.0).sum::<f64>() / (sp.len() - 1) as f64;
        assert!(
            later_avg_csr > c0 * 0.95,
            "later vs-CSR speedup {later_avg_csr} should exceed cold {c0}"
        );
        assert!(later_avg > 1.0, "avg vs HYB in update epochs {later_avg}");
    }

    #[test]
    fn warm_start_shrinks_iteration_counts() {
        // Scale 64 (not 128): at /128 the YOT analog is tiny enough that
        // one unlucky 10%-churn stream can move the eigenvector more
        // than a cold start costs, making the average flip on specific
        // RNG streams. The paper's claim is about realistically sized
        // graphs; /64 is robust across generator seeds.
        let opts = Options {
            scale: 64,
            matrices: vec!["YOT".into()],
            ..Default::default()
        };
        let rows = run(&opts);
        let acsr = &rows[0].acsr;
        // individual early epochs can exceed the cold start (10% churn can
        // move the eigenvector a lot), but warm starting must win on
        // average — the paper's "often just tens of iterations"
        let warm_avg: f64 =
            acsr[1..].iter().map(|e| e.iterations as f64).sum::<f64>() / (acsr.len() - 1) as f64;
        assert!(
            warm_avg < acsr[0].iterations as f64,
            "warm avg {warm_avg} vs cold {}",
            acsr[0].iterations
        );
    }
}
