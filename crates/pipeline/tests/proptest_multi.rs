//! Satellite invariant for the universal multi-vector contract: for
//! every format the registry can plan, `spmv_multi` over k vectors is
//! **bit-identical** to k sequential `spmv` calls. The baseline engines
//! satisfy this by construction (they use the provided sequential
//! `GpuSpmv::spmv_multi`); ACSR's fused wave kernels must preserve it
//! because each (vector, row) pair accumulates in the same order either
//! way.
//!
//! Degenerate shapes ride along: empty row and column dimensions,
//! matrices with no entries, and zero-width batches must plan in every
//! format and run to the same contract.

use gpu_sim::{presets, Device, RunReport};
use proptest::prelude::*;
use sparse_formats::{CsrMatrix, TripletMatrix};
use spmv_kernels::GpuSpmv;
use spmv_pipeline::{FormatRegistry, PlanBudget};

fn arb_matrix() -> impl Strategy<Value = CsrMatrix<f64>> {
    (
        0usize..20,
        0usize..20,
        prop::collection::vec((0u32..20, 0u32..20, -4i32..5), 0..120),
    )
        .prop_map(|(rows, cols, entries)| {
            let mut t = TripletMatrix::with_capacity(rows, cols, entries.len());
            for (r, c, v) in entries {
                if (r as usize) < rows && (c as usize) < cols {
                    t.push_unchecked(r, c, v as f64 * 0.5);
                }
            }
            t.to_csr()
        })
}

fn arb_vectors() -> impl Strategy<Value = (usize, u64)> {
    (0usize..4, 0u64..1000)
}

/// Plan every registry format on `m` and run one batch of `k` vectors
/// through `spmv_multi`, then each vector alone through `spmv`. The two
/// runs start from different garbage in `y`, so a row either path
/// leaves unwritten shows up as a bit mismatch. A zero-width batch must
/// return the default report. Yields each format's batched outputs.
fn run_every_format(m: &CsrMatrix<f64>, k: usize, seed: u64) -> Vec<(&'static str, Vec<Vec<f64>>)> {
    let dev = Device::new(presets::gtx_titan());
    let reg = FormatRegistry::<f64>::with_all();
    let budget = PlanBudget::default();
    let xs: Vec<Vec<f64>> = (0..k)
        .map(|v| {
            (0..m.cols())
                .map(|i| 0.25 + ((seed as usize + v * 13 + i * 7) % 11) as f64 * 0.125)
                .collect()
        })
        .collect();
    let mut out = Vec::new();
    for name in reg.names() {
        let plan = reg
            .plan(name, &dev, m, &budget)
            .unwrap_or_else(|e| panic!("{name} must plan a {}x{} matrix: {e}", m.rows(), m.cols()));
        let xds: Vec<_> = xs.iter().map(|x| dev.alloc(x.clone())).collect();
        let xrefs: Vec<_> = xds.iter().collect();

        let fused: Vec<_> = (0..k).map(|_| dev.alloc(vec![-7.0f64; m.rows()])).collect();
        let frefs: Vec<_> = fused.iter().collect();
        let report = plan.spmv_multi(&dev, &xrefs, &frefs);
        if k == 0 {
            assert_eq!(
                report,
                RunReport::default(),
                "{name}: k = 0 must launch nothing"
            );
        }

        for (v, fd) in fused.iter().enumerate() {
            let yd = dev.alloc(vec![9.0f64; m.rows()]);
            plan.spmv(&dev, &xds[v], &yd);
            let seq = yd.into_vec();
            for (r, (a, b)) in fd.as_slice().iter().zip(&seq).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{name}: vector {v} row {r} diverged ({a} vs {b})"
                );
            }
        }
        out.push((name, fused.into_iter().map(|f| f.into_vec()).collect()));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn spmv_multi_is_bit_identical_to_sequential_spmv(
        m in arb_matrix(),
        (k, seed) in arb_vectors(),
    ) {
        run_every_format(&m, k, seed);
    }
}

#[test]
fn degenerate_shapes_plan_and_zero_every_output_in_every_format() {
    for (rows, cols) in [(0, 0), (0, 5), (5, 0), (5, 5)] {
        let m = TripletMatrix::<f64>::new(rows, cols).to_csr();
        for k in [0, 1, 3] {
            for (name, ys) in run_every_format(&m, k, 7) {
                assert_eq!(ys.len(), k, "{name}");
                for (v, y) in ys.iter().enumerate() {
                    assert!(
                        y.iter().all(|&e| e == 0.0),
                        "{name} {rows}x{cols} k={k}: vector {v} = {y:?}"
                    );
                }
            }
        }
    }
}
