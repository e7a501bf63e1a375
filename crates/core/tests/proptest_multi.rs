//! Multi-vector (batched) ACSR must be a pure throughput optimization:
//! for ANY matrix, batch size, mode and host worker width, `spmv_multi`
//! over k vectors must produce outputs **bit-identical** to k sequential
//! `spmv` calls — same bins, same kernels, same float-op order per
//! vector (`spmv` is the k = 1 case of the same batched kernels).
//!
//! Width coverage follows the simulator's determinism envelope: in
//! `StaticLongTail` and `BinningOnly` modes every output value is
//! bit-stable at any `ACSR_SIM_THREADS` width (a row's atomics never
//! cross a shard), so batched and sequential runs are compared at widths
//! 1, 2 and 4. `DynamicParallelism` spreads a row's child blocks across
//! shards — its float accumulation order is only pinned at width 1
//! (`gpu-sim/tests/proptest_determinism.rs`), so DP is compared there.

use acsr::{AcsrConfig, AcsrEngine, AcsrMode};
use gpu_sim::{presets, set_sim_threads, Device, DeviceBuffer, RunReport};
use graphgen::{generate_power_law, PowerLawConfig};
use proptest::prelude::*;
use spmv_kernels::GpuSpmv;
use std::sync::Mutex;

/// `set_sim_threads` is process-global; hold this across width changes.
static WIDTH_LOCK: Mutex<()> = Mutex::new(());

fn arb_matrix() -> impl Strategy<Value = sparse_formats::CsrMatrix<f64>> {
    (100usize..700, 4u64..2000, 0usize..3, any::<bool>()).prop_map(|(rows, seed, pinned, wide)| {
        generate_power_law(&PowerLawConfig {
            rows,
            cols: rows,
            mean_degree: 7.0,
            // with `wide`, some rows exceed the 1024-nnz G1 threshold
            max_degree: if wide { 1500 } else { rows / 2 + 4 },
            pinned_max_rows: pinned,
            col_skew: 0.4,
            seed,
            ..Default::default()
        })
    })
}

fn batch_x(cols: usize, k: usize) -> Vec<Vec<f64>> {
    (0..k)
        .map(|v| {
            (0..cols)
                .map(|i| 0.25 + ((i * (v + 3) + v) % 23) as f64 * 0.125)
                .collect()
        })
        .collect()
}

/// Run k sequential SpMVs and one batched SpMM on `engine`; assert every
/// output pair is bit-identical. Returns the batched report.
fn assert_batch_matches_sequential(
    dev: &Device,
    engine: &AcsrEngine<f64>,
    xs_host: &[Vec<f64>],
) -> RunReport {
    let rows = engine.rows();
    let xs: Vec<DeviceBuffer<f64>> = xs_host.iter().map(|x| dev.alloc(x.clone())).collect();
    // garbage fill: spmv must fully overwrite its rows
    let ys_seq: Vec<DeviceBuffer<f64>> = xs.iter().map(|_| dev.alloc(vec![-7.0; rows])).collect();
    let ys_multi: Vec<DeviceBuffer<f64>> = xs.iter().map(|_| dev.alloc(vec![-9.0; rows])).collect();
    for (x, y) in xs.iter().zip(&ys_seq) {
        engine.spmv(dev, x, y);
    }
    let xr: Vec<&DeviceBuffer<f64>> = xs.iter().collect();
    let yr: Vec<&DeviceBuffer<f64>> = ys_multi.iter().collect();
    let report = engine.spmv_multi(dev, &xr, &yr);
    for (v, (ys, ym)) in ys_seq.iter().zip(&ys_multi).enumerate() {
        for (r, (a, b)) in ys.as_slice().iter().zip(ym.as_slice()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "vector {v} row {r}: sequential {a} vs batched {b}"
            );
        }
    }
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// StaticLongTail / BinningOnly: bit-identical at every worker width,
    /// and the batched report itself is width-independent.
    #[test]
    fn batched_matches_sequential_across_widths(
        m in arb_matrix(),
        k in 1usize..6,
        static_tail in any::<bool>(),
    ) {
        let _g = WIDTH_LOCK.lock().unwrap();
        let dev = Device::new(presets::gtx_titan());
        let cfg = if static_tail {
            AcsrConfig::static_long_tail()
        } else {
            AcsrConfig::for_device(&presets::gtx_580())
        };
        prop_assert_ne!(cfg.mode, AcsrMode::DynamicParallelism);
        let engine = AcsrEngine::from_csr(&dev, &m, cfg);
        let xs_host = batch_x(m.cols(), k);
        let mut reports: Vec<RunReport> = Vec::new();
        for width in [1usize, 2, 4] {
            set_sim_threads(width);
            reports.push(assert_batch_matches_sequential(&dev, &engine, &xs_host));
        }
        set_sim_threads(0);
        for r in &reports[1..] {
            prop_assert_eq!(&reports[0].counters, &r.counters);
            prop_assert_eq!(reports[0].time_s.to_bits(), r.time_s.to_bits());
        }
    }

    /// DynamicParallelism: bit-identical at width 1 (the width at which
    /// cross-shard atomic order — batched or not — is pinned).
    #[test]
    fn batched_matches_sequential_dp_mode(m in arb_matrix(), k in 1usize..6) {
        let _g = WIDTH_LOCK.lock().unwrap();
        let dev = Device::new(presets::gtx_titan());
        let cfg = AcsrConfig::for_device(dev.config());
        prop_assert_eq!(cfg.mode, AcsrMode::DynamicParallelism);
        let engine = AcsrEngine::from_csr(&dev, &m, cfg);
        let xs_host = batch_x(m.cols(), k);
        set_sim_threads(1);
        assert_batch_matches_sequential(&dev, &engine, &xs_host);
        set_sim_threads(0);
    }

    /// Batching must strictly beat sequential launches on modeled time
    /// (the launch floor and matrix traffic are amortized across the
    /// batch) while issuing the same kernel count as ONE SpMV.
    #[test]
    fn batching_amortizes_modeled_time(m in arb_matrix(), k in 2usize..6) {
        let _g = WIDTH_LOCK.lock().unwrap();
        set_sim_threads(1);
        let dev = Device::new(presets::gtx_titan());
        let engine = AcsrEngine::from_csr(&dev, &m, AcsrConfig::static_long_tail());
        let xs_host = batch_x(m.cols(), k);
        let xs: Vec<DeviceBuffer<f64>> = xs_host.iter().map(|x| dev.alloc(x.clone())).collect();
        let ys: Vec<DeviceBuffer<f64>> =
            xs.iter().map(|_| dev.alloc_zeroed::<f64>(m.rows())).collect();
        let single = engine.spmv(&dev, &xs[0], &ys[0]);
        let mut seq = RunReport::default();
        for (x, y) in xs.iter().zip(&ys) {
            seq = seq.then(&engine.spmv(&dev, x, y));
        }
        let xr: Vec<&DeviceBuffer<f64>> = xs.iter().collect();
        let yr: Vec<&DeviceBuffer<f64>> = ys.iter().collect();
        let multi = engine.spmv_multi(&dev, &xr, &yr);
        set_sim_threads(0);
        prop_assert_eq!(multi.launches, single.launches);
        prop_assert!(multi.time_s < seq.time_s,
            "batched {} s should beat {} s sequential (k={})", multi.time_s, seq.time_s, k);
    }
}
