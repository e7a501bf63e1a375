//! Figure 8 — dual-GPU SpMV on the Tesla K10 (§VIII).
//!
//! Each bin is split half-and-half across the two GK104 devices of a
//! replicated-`x` [`Fleet`]; ACSR runs its static long-tail
//! configuration (the K10 lacks dynamic parallelism). Shape targets: ~1.6-1.7x average speedup, near-perfect
//! scaling on the big matrices, and *no* benefit (or a slowdown) on the
//! small ones (ENR, INT, ...) whose work can't saturate one GPU.

use crate::common::{selected_specs, Options, Table};
use gpu_sim::presets;
use multi_gpu::{Fleet, FleetConfig};
use serde::Serialize;
use sparse_formats::Scalar;

/// Dual- vs single-GPU throughput on one matrix/precision.
#[derive(Clone, Debug, Serialize)]
pub struct Fig8Row {
    pub abbrev: String,
    pub precision: &'static str,
    pub single_gflops: f64,
    pub dual_gflops: f64,
    pub speedup: f64,
}

fn measure<T: Scalar>(abbrev: &str, m: &sparse_formats::CsrMatrix<T>) -> Fig8Row {
    let flops = 2 * m.nnz() as u64;
    let x: Vec<T> = (0..m.cols())
        .map(|i| T::from_f64(1.0 + (i % 5) as f64 * 0.2))
        .collect();
    let mut y = vec![T::ZERO; m.rows()];
    let k10 = presets::tesla_k10_single();
    let single = Fleet::new(m, &k10, &FleetConfig::replicated(1));
    let t1 = single.spmv(&x, &mut y).seconds();
    let dual = Fleet::new(m, &k10, &FleetConfig::replicated(2));
    let t2 = dual.spmv(&x, &mut y).seconds();
    Fig8Row {
        abbrev: abbrev.to_string(),
        precision: T::NAME,
        single_gflops: flops as f64 / t1 / 1e9,
        dual_gflops: flops as f64 / t2 / 1e9,
        speedup: t1 / t2,
    }
}

/// Run Figure 8 over the selected suite, both precisions.
pub fn run(opts: &Options) -> Vec<Fig8Row> {
    let mut rows = Vec::new();
    for spec in selected_specs(opts) {
        let m32 = spec.generate::<f32>(opts.scale, opts.seed);
        rows.push(measure(spec.abbrev, &m32.csr));
        let m64 = spec.generate::<f64>(opts.scale, opts.seed);
        rows.push(measure(spec.abbrev, &m64.csr));
    }
    rows
}

/// Render as text per precision.
pub fn render(rows: &[Fig8Row]) -> String {
    let mut out =
        String::from("Figure 8: dual-GPU (Tesla K10) ACSR SpMV, per-bin half/half split:\n");
    for precision in ["f32", "f64"] {
        let mut t = Table::new(&["Matrix", "1 GPU GF/s", "2 GPU GF/s", "speedup"]);
        let mut sp = Vec::new();
        for r in rows.iter().filter(|r| r.precision == precision) {
            sp.push(r.speedup);
            t.row(vec![
                r.abbrev.clone(),
                format!("{:.1}", r.single_gflops),
                format!("{:.1}", r.dual_gflops),
                format!("{:.2}", r.speedup),
            ]);
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        out.push_str(&format!(
            "\n== {precision} (average speedup {:.2}x) ==\n{}",
            mean(&sp),
            t.render()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn big_matrices_scale_small_ones_do_not() {
        let opts = Options {
            scale: 64,
            matrices: vec!["LJ2".into(), "INT".into()],
            ..Default::default()
        };
        let rows = run(&opts);
        let lj = rows
            .iter()
            .find(|r| r.abbrev == "LJ2" && r.precision == "f32")
            .unwrap();
        let int = rows
            .iter()
            .find(|r| r.abbrev == "INT" && r.precision == "f32")
            .unwrap();
        assert!(lj.speedup > 1.5, "LJ2 speedup {}", lj.speedup);
        assert!(
            int.speedup < lj.speedup,
            "INT {} should scale worse than LJ2 {}",
            int.speedup,
            lj.speedup
        );
    }
}
