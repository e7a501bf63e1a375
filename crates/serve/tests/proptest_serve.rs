//! The serving scheduler's two determinism invariants, property-tested:
//!
//! 1. **Batch independence** — a query's final scores AND iteration
//!    count are bit-identical whether it runs alone (`max_batch = 1`)
//!    or co-batched with arbitrary other queries. Continuous batching
//!    changes scheduling, never answers.
//! 2. **Device-count independence** — the same holds across the number
//!    of simulated devices: each device holds a full-graph plan and a
//!    query runs on the one it is pinned to, so the device count changes
//!    where a query runs, never what it computes.
//!
//! Both are exercised at host worker widths 1 and 2 (the default serve
//! configuration is `StaticLongTail`, which the simulator pins at every
//! width), guarded by a width lock since `set_sim_threads` is
//! process-global.

use acsr_serve::{Query, QueryOutcome, ServeConfig, ServeEngine};
use gpu_sim::set_sim_threads;
use graphgen::{generate_power_law, PowerLawConfig};
use proptest::prelude::*;
use sparse_formats::CsrMatrix;
use std::sync::Mutex;

/// `set_sim_threads` is process-global; hold this across width changes.
static WIDTH_LOCK: Mutex<()> = Mutex::new(());

fn arb_graph() -> impl Strategy<Value = CsrMatrix<f64>> {
    (50usize..220, 4u64..2000, 0usize..2).prop_map(|(rows, seed, pinned)| {
        generate_power_law(&PowerLawConfig {
            rows,
            cols: rows,
            mean_degree: 5.0,
            max_degree: rows / 2 + 4,
            pinned_max_rows: pinned,
            col_skew: 0.4,
            seed,
            ..Default::default()
        })
    })
}

/// A small all-at-once query stream (saturated: everything arrives at
/// t = 0, so batches actually fill).
fn stream(n_nodes: usize, n: usize) -> Vec<Query> {
    (0..n as u64)
        .map(|id| Query {
            id,
            seed: (id as usize * 31 + 7) % n_nodes,
            restart_c: 0.85,
            arrival_s: 0.0,
            tenant: 0,
        })
        .collect()
}

fn serve_sorted(g: &CsrMatrix<f64>, cfg: ServeConfig, queries: &[Query]) -> Vec<QueryOutcome<f64>> {
    let mut outcomes = ServeEngine::new(g, cfg).serve(queries).outcomes;
    outcomes.sort_by_key(|o| o.id);
    outcomes
}

fn assert_outcomes_bit_identical(a: &[QueryOutcome<f64>], b: &[QueryOutcome<f64>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: completed counts differ");
    for (oa, ob) in a.iter().zip(b) {
        assert_eq!(oa.id, ob.id);
        assert_eq!(
            oa.iterations, ob.iterations,
            "{what}: query {} iteration count drifted",
            oa.id
        );
        assert_eq!(oa.converged, ob.converged);
        let sa = oa.scores.as_ref().expect("keep_scores");
        let sb = ob.scores.as_ref().expect("keep_scores");
        for (j, (x, y)) in sa.iter().zip(sb).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: query {} row {j}: {x} vs {y}",
                oa.id
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// max_batch 1 vs k: bit-identical scores and iteration counts.
    #[test]
    fn batching_never_changes_answers(g in arb_graph(), k in 2usize..6) {
        let _guard = WIDTH_LOCK.lock().unwrap();
        let queries = stream(g.rows(), 5);
        let cfg = |max_batch| ServeConfig {
            max_batch,
            queue_capacity: 16,
            keep_scores: true,
            ..ServeConfig::default()
        };
        for width in [1usize, 2] {
            set_sim_threads(width);
            let solo = serve_sorted(&g, cfg(1), &queries);
            let batched = serve_sorted(&g, cfg(k), &queries);
            set_sim_threads(0);
            assert_outcomes_bit_identical(&solo, &batched, &format!("width {width}"));
        }
    }

    /// 1 device vs 2 or 3: bit-identical scores and iteration counts.
    #[test]
    fn device_count_never_changes_answers(g in arb_graph(), n_devices in 2usize..4) {
        let _guard = WIDTH_LOCK.lock().unwrap();
        let queries = stream(g.rows(), 4);
        let cfg = |n_devices| ServeConfig {
            max_batch: 4,
            queue_capacity: 16,
            n_devices,
            keep_scores: true,
            ..ServeConfig::default()
        };
        for width in [1usize, 2] {
            set_sim_threads(width);
            let single = serve_sorted(&g, cfg(1), &queries);
            let multi = serve_sorted(&g, cfg(n_devices), &queries);
            set_sim_threads(0);
            assert_outcomes_bit_identical(
                &single,
                &multi,
                &format!("width {width}, {n_devices} devices"),
            );
        }
    }
}
