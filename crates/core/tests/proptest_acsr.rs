//! Property tests for the ACSR engine: for *arbitrary* matrices and
//! configurations, the simulated SpMV must match the sequential
//! reference exactly, binning must partition the rows, and device-side
//! updates must track the host reference through arbitrary batches.

use acsr::{AcsrConfig, AcsrEngine, AcsrMode, Binning};
use gpu_sim::{presets, Device};
use proptest::prelude::*;
use sparse_formats::{CsrMatrix, TripletMatrix, UpdateBatch};
use spmv_kernels::GpuSpmv;

fn arb_matrix() -> impl Strategy<Value = CsrMatrix<f64>> {
    (1usize..60, 1usize..60).prop_flat_map(|(rows, cols)| {
        let entry = (0..rows, 0..cols, 0.1f64..4.0);
        proptest::collection::vec(entry, 0..400).prop_map(move |entries| {
            let mut t = TripletMatrix::new(rows, cols);
            for (r, c, v) in entries {
                t.push(r, c, v).unwrap();
            }
            t.to_csr()
        })
    })
}

fn arb_config() -> impl Strategy<Value = AcsrConfig> {
    (
        1usize..16,                                     // bin_max
        prop::sample::select(vec![0usize, 1, 4, 2048]), // row_max
        1usize..8,                                      // thread_load
        prop::sample::select(vec![
            AcsrMode::DynamicParallelism,
            AcsrMode::BinningOnly,
            AcsrMode::StaticLongTail,
        ]),
        any::<bool>(), // texture_x
    )
        .prop_map(
            |(bin_max, row_max, thread_load, mode, texture_x)| AcsrConfig {
                bin_max,
                row_max: if mode == AcsrMode::BinningOnly {
                    0
                } else {
                    row_max
                },
                thread_load,
                mode,
                texture_x,
            },
        )
}

fn close(a: &[f64], b: &[f64]) -> bool {
    a.iter()
        .zip(b.iter())
        .all(|(x, y)| (x - y).abs() <= 1e-9 * (1.0 + x.abs().max(y.abs())))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn spmv_matches_reference_for_any_config((m, cfg, x) in
        (arb_matrix(), arb_config()).prop_flat_map(|(m, cfg)| {
            let cols = m.cols();
            (Just(m), Just(cfg), proptest::collection::vec(-3.0f64..3.0, cols..=cols))
        })
    ) {
        let dev = Device::new(presets::gtx_titan());
        let engine = AcsrEngine::from_csr(&dev, &m, cfg);
        let xd = dev.alloc(x.clone());
        let yd = dev.alloc(vec![f64::NAN; m.rows()]); // must be fully overwritten
        engine.spmv(&dev, &xd, &yd);
        let want = m.spmv(&x);
        prop_assert!(yd.as_slice().iter().all(|v| v.is_finite()));
        prop_assert!(close(yd.as_slice(), &want));
    }

    #[test]
    fn binning_partitions_rows_exactly_once((m, cfg) in (arb_matrix(), arb_config())) {
        let (binning, _) = Binning::build((0..m.rows()).map(|r| m.row_nnz(r)), &cfg);
        let mut count = vec![0usize; m.rows()];
        for b in 0..binning.n_bins() {
            for &r in binning.bin_rows(b) {
                count[r as usize] += 1;
            }
        }
        prop_assert!(count.iter().all(|&c| c == 1));
        // G1 + overflow rows are exactly the rows in bins above bin_max
        let bin_max = cfg.effective_bin_max();
        let expected_g1: usize = (0..m.rows())
            .filter(|&r| sparse_formats::stats::bin_index(m.row_nnz(r)) > bin_max)
            .count();
        prop_assert_eq!(
            binning.g1_rows().len() + binning.overflow_rows().len(),
            expected_g1
        );
        prop_assert!(binning.g1_rows().len() <= cfg.row_max);
    }

    #[test]
    fn matrix_round_trips_through_slack_layout((m, cfg) in (arb_matrix(), arb_config())) {
        let dev = Device::new(presets::gtx_titan());
        let a = acsr::AcsrMatrix::from_csr(&dev, &m, &cfg);
        a.validate().unwrap();
        prop_assert_eq!(a.to_csr(), m);
    }
}

/// Random (valid) update batch against `m`.
fn arb_batch(m: CsrMatrix<f64>) -> impl Strategy<Value = (CsrMatrix<f64>, UpdateBatch<f64>)> {
    let rows = m.rows();
    let cols = m.cols();
    proptest::collection::btree_set(0..rows as u32, 0..rows.min(6)).prop_perturb(
        move |touched, mut rng| {
            use rand::Rng;
            let mut b = UpdateBatch::<f64>::empty();
            for r in touched {
                b.rows.push(r);
                let (rcols, _) = m.row(r as usize);
                for &c in rcols {
                    if rng.random::<f64>() < 0.5 {
                        b.delete_cols.push(c);
                    }
                }
                b.delete_offsets.push(b.delete_cols.len() as u32);
                let mut ins: Vec<u32> = Vec::new();
                for _ in 0..rng.random_range(0..4usize) {
                    let c = rng.random_range(0..cols as u32);
                    if rcols.binary_search(&c).is_err() && !ins.contains(&c) {
                        ins.push(c);
                    }
                }
                ins.sort_unstable();
                for c in ins {
                    b.insert_cols.push(c);
                    b.insert_vals.push(0.5 + (c % 7) as f64);
                }
                b.insert_offsets.push(b.insert_cols.len() as u32);
            }
            (m.clone(), b)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn device_updates_track_host_reference((m, batch) in
        arb_matrix().prop_flat_map(arb_batch)
    ) {
        batch.validate().unwrap();
        let dev = Device::new(presets::gtx_titan());
        let mut engine = AcsrEngine::from_csr(&dev, &m, AcsrConfig::for_device(dev.config()));
        let report = engine.apply_update(&dev, &batch);
        let want = batch.apply_to_csr(&m);
        prop_assert_eq!(engine.matrix().to_csr(), want.clone());
        prop_assert_eq!(report.nnz_after, want.nnz());
        engine.matrix().validate().unwrap();
    }

    #[test]
    fn sequences_of_updates_stay_consistent((m, b1) in
        arb_matrix().prop_flat_map(arb_batch)
    ) {
        // apply the same batch twice through fresh generation each time:
        // second application must be a no-op for deletes of now-absent
        // columns and overwrite already-present inserts
        let dev = Device::new(presets::gtx_titan());
        let mut engine = AcsrEngine::from_csr(&dev, &m, AcsrConfig::for_device(dev.config()));
        engine.apply_update(&dev, &b1);
        let after_one = engine.matrix().to_csr();
        engine.apply_update(&dev, &b1);
        let want = b1.apply_to_csr(&after_one);
        prop_assert_eq!(engine.matrix().to_csr(), want);
    }
}
