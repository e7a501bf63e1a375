//! Figure 6 — PageRank / HITS / RWR speedups of ACSR over CSR and HYB
//! (GTX Titan; d = 0.85, c = 0.85, Euclidean ε = 1e-6).
//!
//! "In recording the time, the time for copying data to the device was
//! not included. HYB data transformation cost was also not included" —
//! i.e. this figure isolates the *kernel* advantage; the preprocessing
//! story is Figures 4/7.

use crate::common::{selected_specs, Options, Table};
use gpu_sim::{presets, Device};
use graph_apps::hits::{hits_gpu, hits_operator};
use graph_apps::pagerank::{pagerank_gpu, pagerank_operator};
use graph_apps::rwr::{rwr_gpu, rwr_operator};
use graph_apps::IterParams;
use serde::Serialize;
use sparse_formats::CsrMatrix;
use spmv_pipeline::{FormatRegistry, PlanBudget, SpmvPlan};

/// Per-application speedups on one matrix.
#[derive(Clone, Debug, Serialize)]
pub struct Fig6Row {
    pub app: &'static str,
    pub abbrev: String,
    pub iterations: usize,
    pub acsr_seconds: f64,
    pub speedup_vs_csr: f64,
    pub speedup_vs_hyb: f64,
}

fn plans_for(dev: &Device, op: &CsrMatrix<f64>) -> (SpmvPlan<f64>, SpmvPlan<f64>, SpmvPlan<f64>) {
    let reg = FormatRegistry::<f64>::with_all();
    let budget = PlanBudget::for_device(dev.config());
    let plan = |name| reg.plan(name, dev, op, &budget).expect(name);
    (plan("ACSR"), plan("CSR-vector"), plan("HYB"))
}

/// Run one application over the three plans and record speedups. The
/// formats must converge in the same number of iterations, or the
/// speedups would compare different amounts of work.
fn app_rows(
    app: &'static str,
    dev: &Device,
    abbrev: &str,
    op: &CsrMatrix<f64>,
    solve: impl Fn(&Device, &SpmvPlan<f64>) -> (usize, f64),
) -> Fig6Row {
    let (acsr, csr, hyb) = plans_for(dev, op);
    let (it_a, t_a) = solve(dev, &acsr);
    let (it_c, t_c) = solve(dev, &csr);
    let (it_h, t_h) = solve(dev, &hyb);
    assert!(
        it_a == it_c && it_a == it_h,
        "{app} on {abbrev}: iteration counts differ across formats \
         (ACSR {it_a}, CSR-vector {it_c}, HYB {it_h})"
    );
    Fig6Row {
        app,
        abbrev: abbrev.to_string(),
        iterations: it_a,
        acsr_seconds: t_a,
        speedup_vs_csr: t_c / t_a,
        speedup_vs_hyb: t_h / t_a,
    }
}

/// RWR's restart vertex, a natural one: the highest-degree row of `w`
/// (the adjacency's degree, which column normalization keeps), ties to
/// the last as `max_by_key` breaks them, among the rows whose column of
/// `w` holds an entry off the diagonal. A seed whose column holds only
/// its self-loop is already the walk's fixed point, so its solve would
/// stop after one iteration.
fn rwr_seed(w: &CsrMatrix<f64>) -> usize {
    let mut reached = vec![false; w.cols()];
    for (r, c, _) in w.iter() {
        if r != c {
            reached[c] = true;
        }
    }
    (0..w.rows())
        .filter(|&r| reached[r])
        .max_by_key(|&r| w.row_nnz(r))
        .unwrap_or(0)
}

/// Run Figure 6 (all three applications over the selected suite).
pub fn run(opts: &Options) -> Vec<Fig6Row> {
    let dev = Device::new(presets::gtx_titan());
    let params = IterParams::default();
    let mut rows = Vec::new();
    for spec in selected_specs(opts) {
        if spec.rows != spec.cols {
            continue; // RAL is rectangular: no adjacency interpretation (§VI)
        }
        let m = spec.generate::<f64>(opts.scale, opts.seed);
        // PageRank
        let op = pagerank_operator(&m.csr);
        rows.push(app_rows("PageRank", &dev, spec.abbrev, &op, |d, e| {
            let r = pagerank_gpu(d, e, 0.85, &params);
            (r.iterations, r.seconds())
        }));
        // HITS
        let op = hits_operator(&m.csr);
        rows.push(app_rows("HITS", &dev, spec.abbrev, &op, |d, e| {
            let r = hits_gpu(d, e, &params);
            (r.iterations, r.seconds())
        }));
        // RWR
        let op = rwr_operator(&m.csr);
        let seed = rwr_seed(&op);
        rows.push(app_rows("RWR", &dev, spec.abbrev, &op, |d, e| {
            let r = rwr_gpu(d, e, seed, 0.85, &params);
            assert!(
                r.iterations > 1,
                "RWR on {} from seed {seed} stopped after one iteration",
                spec.abbrev
            );
            (r.iterations, r.seconds())
        }));
    }
    rows
}

/// Render as text, one block per application plus averages.
pub fn render(rows: &[Fig6Row]) -> String {
    let mut out =
        String::from("Figure 6: application speedup of ACSR over CSR and HYB (GTX Titan, f64):\n");
    for app in ["PageRank", "HITS", "RWR"] {
        let mut t = Table::new(&["Matrix", "iters", "ACSR time", "vs CSR", "vs HYB"]);
        let mut s_csr = Vec::new();
        let mut s_hyb = Vec::new();
        for r in rows.iter().filter(|r| r.app == app) {
            s_csr.push(r.speedup_vs_csr);
            s_hyb.push(r.speedup_vs_hyb);
            t.row(vec![
                r.abbrev.clone(),
                format!("{}", r.iterations),
                crate::common::fmt_secs(r.acsr_seconds),
                format!("{:.2}", r.speedup_vs_csr),
                format!("{:.2}", r.speedup_vs_hyb),
            ]);
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        out.push_str(&format!(
            "\n== {app} (AVG vs CSR {:.2}, vs HYB {:.2}) ==\n{}",
            mean(&s_csr),
            mean(&s_hyb),
            t.render()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acsr_speeds_up_apps_on_power_law_matrix() {
        // FLI at 1/128: large enough that launch overheads amortize and
        // the CSR baseline's narrow groups pay for the tail.
        let opts = Options {
            scale: 128,
            matrices: vec!["FLI".into()],
            ..Default::default()
        };
        let rows = run(&opts);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.iterations > 1, "{} iterations {}", r.app, r.iterations);
            assert!(
                r.speedup_vs_csr > 0.8,
                "{} vs CSR {}",
                r.app,
                r.speedup_vs_csr
            );
        }
        // PageRank on a power-law matrix must favor ACSR over CSR
        let pr = rows.iter().find(|r| r.app == "PageRank").unwrap();
        assert!(
            pr.speedup_vs_csr > 1.0,
            "PageRank vs CSR {}",
            pr.speedup_vs_csr
        );
    }
}
