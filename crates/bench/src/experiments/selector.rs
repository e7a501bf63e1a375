//! `repro selector` — the adaptive format selector's decisions over the
//! suite, at several amortization horizons.
//!
//! This is the paper's break-even analysis (Fig. 4 / Table IV) promoted
//! to a runtime decision: for each matrix the
//! [`spmv_pipeline::AdaptiveSelector`] analyzes the row structure,
//! plans the shortlisted formats, probes one SpMV each, and ranks by
//! `preprocess + upload + horizon × spmv` — all projected to full
//! (paper) matrix scale with `probe_scale = --scale`. The expected
//! shape: ACSR wins on power-law matrices at app-like horizons (tens of
//! iterations), cheap-to-build formats win one-shot runs, and only
//! long horizons can flip to a faster-per-SpMV conversion.

use crate::artifact::{self, Schema};
use crate::common::{selected_specs, Options, Table};
use acsr_telemetry::Telemetry;
use gpu_sim::presets;
use gpu_sim::Device;
use graphgen::generate_regular;
use serde::Serialize;
use sparse_formats::CsrMatrix;
use spmv_pipeline::{AdaptiveSelector, CandidateReport, FormatRegistry, PlanBudget, PlanCache};
use std::path::PathBuf;

/// The `acsr-selector-v1` contract of [`SelectorReport`].
pub const SCHEMA: Schema = Schema {
    tag: "acsr-selector-v1",
    kind: "selector report",
    fields: &["scale", "device"],
    rows: &[("rows", 1, &["matrix", "horizon", "winner", "candidates"])],
    invariants: |_| Ok(()),
};

/// Amortization horizons swept per matrix: one-shot, app-like
/// (PageRank-scale iteration counts), and long-running.
pub const HORIZONS: [u64; 3] = [1, 30, 1000];

/// One selector decision: matrix × horizon.
#[derive(Clone, Debug, Serialize)]
pub struct SelectorRow {
    /// Suite abbreviation (or "UNI" for the synthetic uniform control).
    pub matrix: String,
    pub rows: usize,
    pub nnz: usize,
    /// The analysis verdict the shortlist was derived from.
    pub power_law: bool,
    pub horizon: u64,
    /// The selected format.
    pub winner: String,
    /// Every evaluated candidate, ranked best-first.
    pub candidates: Vec<CandidateReport>,
}

impl SelectorRow {
    /// The winner's projected per-SpMV seconds.
    pub fn winner_spmv_s(&self) -> f64 {
        self.candidates
            .iter()
            .find(|c| c.format == self.winner)
            .map(|c| c.spmv_s)
            .unwrap_or(f64::NAN)
    }
}

/// Record one ranked selection into `tel`: the decision itself
/// (`selector.decisions`, `selector.winner.<format>`), the candidate
/// census (`selector.candidates_ranked`, `selector.pruned`,
/// `selector.infeasible`), and every feasible candidate's ranking key
/// as a `selector.ranked_total_s` histogram sample.
fn record_selection(tel: &Telemetry, winner: &str, candidates: &[CandidateReport]) {
    let m = &tel.metrics;
    m.add("selector.decisions", 1);
    m.add(&format!("selector.winner.{winner}"), 1);
    m.add("selector.candidates_ranked", candidates.len() as u64);
    for c in candidates {
        if c.feasible {
            m.observe("selector.ranked_total_s", c.total_s);
        } else if c.pruned {
            m.add("selector.pruned", 1);
        } else {
            m.add("selector.infeasible", 1);
        }
    }
}

/// The JSON artifact (`results/SELECTOR_report.json`).
#[derive(Clone, Debug, Serialize)]
pub struct SelectorReport {
    /// Suite scale divisor the probes were projected from.
    pub scale: usize,
    pub device: String,
    pub rows: Vec<SelectorRow>,
}

fn decide(
    abbrev: &str,
    m: &CsrMatrix<f64>,
    opts: &Options,
    cache: &mut PlanCache<f64>,
) -> Vec<SelectorRow> {
    let dev = Device::new(presets::gtx_titan());
    let stats = m.row_stats();
    HORIZONS
        .iter()
        .map(|&horizon| {
            let reg = FormatRegistry::<f64>::with_all();
            let budget = PlanBudget::for_device(dev.config())
                .with_iterations(horizon)
                .with_probe_scale(opts.scale);
            // Mirror fig5's ∅ cells: when not even the raw CSR operator
            // fits the device at full (projected) scale, there is
            // nothing to select for this matrix.
            let csr_full =
                (m.nnz() as u64 * 12 + (m.rows() as u64 + 1) * 4).saturating_mul(opts.scale as u64);
            if csr_full > budget.max_device_bytes {
                return SelectorRow {
                    matrix: abbrev.to_string(),
                    rows: m.rows(),
                    nnz: m.nnz(),
                    power_law: stats.looks_power_law(),
                    horizon,
                    winner: "∅".to_string(),
                    candidates: Vec::new(),
                };
            }
            let sel = AdaptiveSelector.select(&reg, &dev, m, &budget);
            // Pin the winner's plan in the shared cache: across the
            // horizon sweep the structure never changes, so later
            // horizons that pick the same winner hit instead of
            // replanning.
            let _ = cache.get_or_plan(&reg, &sel.winner, &dev, m, &budget);
            SelectorRow {
                matrix: abbrev.to_string(),
                rows: m.rows(),
                nnz: m.nnz(),
                power_law: stats.looks_power_law(),
                horizon,
                winner: sel.winner,
                candidates: sel.candidates,
            }
        })
        .collect()
}

/// Run the selector over the selected suite plus a synthetic regular
/// control ("UNI": every row exactly 6 entries — the zero-skew,
/// zero-padding-waste case where padded formats shine).
pub fn run(opts: &Options) -> Vec<SelectorRow> {
    let mut rows = Vec::new();
    let mut cache = PlanCache::<f64>::new();
    for spec in selected_specs(opts) {
        let m = spec.generate::<f64>(opts.scale, opts.seed);
        rows.extend(decide(spec.abbrev, &m.csr, opts, &mut cache));
    }
    if opts.matrices.is_empty() {
        let uni: CsrMatrix<f64> = generate_regular(2000, 2000, 6, opts.seed.wrapping_add(97));
        rows.extend(decide("UNI", &uni, opts, &mut cache));
    }
    // Under `repro metrics selector`, fold the decisions (in sweep
    // order) and the cache's counts into the registry once.
    if let Some(tel) = acsr_telemetry::active() {
        for r in rows.iter().filter(|r| r.winner != "∅") {
            record_selection(&tel, &r.winner, &r.candidates);
        }
    }
    crate::metrics::record_plan_cache(&cache);
    rows
}

/// Write the JSON artifact; returns its path.
pub fn write_report(rows: &[SelectorRow], opts: &Options) -> Result<PathBuf, String> {
    let report = SelectorReport {
        scale: opts.scale,
        device: presets::gtx_titan().name,
        rows: rows.to_vec(),
    };
    artifact::write(&SCHEMA, "SELECTOR_report.json", &report)
}

/// Render as text, one block per horizon.
pub fn render(rows: &[SelectorRow]) -> String {
    let mut out = String::from(
        "Adaptive selector: winner per matrix and horizon (GTX Titan, f64,\n\
         probed at the generated size and projected to full scale):\n",
    );
    for &h in &HORIZONS {
        let mut t = Table::new(&[
            "Matrix",
            "pow-law",
            "winner",
            "spmv",
            "runner-up",
            "break-even",
        ]);
        for r in rows.iter().filter(|r| r.horizon == h) {
            let runner = r
                .candidates
                .iter()
                .filter(|c| c.feasible && c.format != r.winner)
                .min_by(|a, b| a.total_s.total_cmp(&b.total_s));
            t.row(vec![
                r.matrix.clone(),
                if r.power_law { "yes" } else { "no" }.into(),
                r.winner.clone(),
                if r.candidates.is_empty() {
                    "-".into()
                } else {
                    crate::common::fmt_secs(r.winner_spmv_s())
                },
                runner
                    .map(|c| c.format.clone())
                    .unwrap_or_else(|| "-".into()),
                runner
                    .and_then(|c| c.break_even_vs_winner)
                    .map(|n| format!("{n:.0}"))
                    .unwrap_or_else(|| "-".into()),
            ]);
        }
        out.push_str(&format!("\n== horizon {h} ==\n{}", t.render()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen::{generate_power_law, PowerLawConfig};

    #[test]
    fn power_law_suite_matrix_picks_acsr_at_app_horizon() {
        let opts = Options {
            scale: 512,
            matrices: vec!["YOT".into()],
            ..Default::default()
        };
        let rows = run(&opts);
        assert_eq!(rows.len(), HORIZONS.len());
        let at = |h: u64| rows.iter().find(|r| r.horizon == h).unwrap();
        assert!(at(30).power_law);
        assert_eq!(at(30).winner, "ACSR", "{:?}", at(30).candidates);
        // candidates are ranked best-first and the report is non-trivial
        for r in &rows {
            assert!(r.candidates.len() >= 2, "horizon {}", r.horizon);
            assert_eq!(r.candidates[0].format, r.winner);
        }
    }

    #[test]
    fn uniform_control_avoids_acsr_shortlist_lock_in() {
        let opts = Options {
            scale: 512,
            matrices: vec!["AMZ".into()], // low-skew suite entry
            ..Default::default()
        };
        let rows = run(&opts);
        // the selector must at least have considered a CSR/padded format
        // on the low-skew structure
        let r = rows.iter().find(|r| r.horizon == 30).unwrap();
        assert!(
            r.candidates
                .iter()
                .any(|c| ["CSR-vector", "ELL", "CSR-scalar"].contains(&c.format.as_str())),
            "{:?}",
            r.candidates
        );
    }

    #[test]
    fn record_selection_counts_decisions_and_feasibility() {
        let m: CsrMatrix<f64> = generate_power_law(&PowerLawConfig {
            rows: 400,
            cols: 400,
            mean_degree: 8.0,
            max_degree: 133,
            pinned_max_rows: 2,
            col_skew: 0.5,
            seed: 11,
            ..Default::default()
        });
        let dev = Device::new(presets::gtx_titan());
        let reg = FormatRegistry::<f64>::with_all();
        // A horizon long enough to shortlist the tuned formats, and a
        // probe scale at which BCCOO's sweep is pruned.
        let budget = PlanBudget::for_device(dev.config())
            .with_iterations(100)
            .with_probe_scale(64);
        let sel = AdaptiveSelector.select(&reg, &dev, &m, &budget);
        let tel = Telemetry::new();
        record_selection(&tel, &sel.winner, &sel.candidates);
        record_selection(&tel, &sel.winner, &sel.candidates);
        let snap = tel.metrics.snapshot();
        assert_eq!(snap.counter("selector.decisions"), Some(2));
        assert_eq!(
            snap.counter(&format!("selector.winner.{}", sel.winner)),
            Some(2)
        );
        assert_eq!(
            snap.counter("selector.candidates_ranked"),
            Some(2 * sel.candidates.len() as u64)
        );
        let count = |f: fn(&CandidateReport) -> bool| {
            let n = sel.candidates.iter().filter(|c| f(c)).count() as u64;
            Some(2 * n).filter(|&n| n > 0)
        };
        assert_eq!(
            snap.counter("selector.pruned"),
            count(|c| !c.feasible && c.pruned)
        );
        assert!(snap.counter("selector.pruned").is_some());
        assert_eq!(
            snap.counter("selector.infeasible"),
            count(|c| !c.feasible && !c.pruned)
        );
        assert_eq!(
            snap.histogram("selector.ranked_total_s").map(|h| h.count()),
            count(|c| c.feasible)
        );
    }

    #[test]
    fn report_artifact_is_schema_tagged() {
        let rows = run(&Options {
            scale: 1024,
            matrices: vec!["ENR".into()],
            ..Default::default()
        });
        let n = rows.len();
        let report = SelectorReport {
            scale: 1024,
            device: "GTX Titan".into(),
            rows,
        };
        let json = artifact::render(&SCHEMA, &report).unwrap();
        assert_eq!(artifact::validate(&json), Ok(SCHEMA.kind));
        let doc = serde_json::from_str(&json).unwrap();
        assert_eq!(
            artifact::field(&doc, "schema"),
            Some(&serde::Value::Str(SCHEMA.tag.into()))
        );
        assert_eq!(artifact::rows(&doc, "rows").len(), n);
    }
}
