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
//!
//! The fused RWR wave (`spmm_affine`, in every mode) must likewise
//! change no iterate: its outputs are bit-identical to `spmv_multi`
//! followed by `rwr_update_multi`, and its per-block convergence
//! partials equal a host reference built from the binning. In DP mode
//! that holds at width 1, and the report at any width.

use acsr::{AcsrConfig, AcsrEngine, AcsrMode, Binning};
use gpu_sim::{
    effective_workers, override_host_cores, presets, set_sim_threads, tree_reduce_sum, Device,
    DeviceBuffer, RunReport, WARP,
};
use graphgen::{generate_power_law, PowerLawConfig};
use proptest::prelude::*;
use sparse_formats::{CsrMatrix, TripletMatrix};
use spmv_kernels::epilogue::rwr_update_multi;
use spmv_kernels::{Affine, AffineWave, GpuSpmv, Restart};
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

/// A power-law matrix with both degenerate row kinds a fused wave must
/// finalize: every ninth row is emptied (empty rows), and `pinned` rows
/// of `max_degree` non-zeros survive (G1 rows if that is over 1024, or
/// the widest bins in binning-only mode).
fn wave_matrix(rows: usize, seed: u64, pinned: usize, max_degree: usize) -> CsrMatrix<f64> {
    let m: CsrMatrix<f64> = generate_power_law(&PowerLawConfig {
        rows,
        cols: rows,
        mean_degree: 5.0,
        max_degree,
        pinned_max_rows: pinned,
        col_skew: 0.4,
        seed,
        ..Default::default()
    });
    let mut t = TripletMatrix::new(rows, rows);
    for r in (0..rows).filter(|r| r % 9 != 4 || m.row_nnz(*r) > 1024) {
        let (cols, vals) = m.row(r);
        for (&c, &v) in cols.iter().zip(vals) {
            t.push(r, c as usize, v).unwrap();
        }
    }
    t.to_csr()
}

/// [`wave_matrix`] with one or two rows of more than 1024 non-zeros.
fn arb_wave_matrix() -> impl Strategy<Value = CsrMatrix<f64>> {
    (1100usize..1400, 4u64..2000, 1usize..3)
        .prop_map(|(rows, seed, pinned)| wave_matrix(rows, seed, pinned, rows - 40))
}

/// Query `v`'s seed: an empty row for query 0, the longest row (a G1
/// row in static-tail mode) for query 1, spread rows after that.
fn wave_seeds(m: &CsrMatrix<f64>, k: usize) -> Vec<usize> {
    let empty = (0..m.rows()).find(|&r| m.row_nnz(r) == 0).unwrap();
    let longest = (0..m.rows()).max_by_key(|&r| m.row_nnz(r)).unwrap();
    (0..k)
        .map(|v| match v {
            0 => empty,
            1 => longest,
            _ => (v * 397) % m.rows(),
        })
        .collect()
}

/// Query `v`'s RWR coefficients: `c_v` and its restart `1 − c_v` at
/// `seeds[v]`.
fn rwr_affine(seeds: &[usize]) -> (Vec<f64>, Vec<Restart<f64>>) {
    seeds
        .iter()
        .enumerate()
        .map(|(v, &row)| {
            let c = 0.85 - 0.05 * v as f64;
            (c, Restart::Seed { row, mass: 1.0 - c })
        })
        .unzip()
}

/// One fused wave of `k` queries over iterates `xs`.
fn fused_wave(
    dev: &Device,
    engine: &AcsrEngine<f64>,
    xs: &[DeviceBuffer<f64>],
    c: &[f64],
    restart: &[Restart<f64>],
) -> AffineWave<f64> {
    let xr: Vec<&DeviceBuffer<f64>> = xs.iter().collect();
    let affine = Affine { c, restart };
    engine.spmm_affine(dev, &xr, &affine, true)
}

/// `spmv_multi` into temporaries, then `rwr_update_multi`: the two-launch
/// reference a fused wave must match. Returns the next iterates and the
/// SpMM's report.
fn two_launch_reference(
    dev: &Device,
    engine: &AcsrEngine<f64>,
    xs: &[DeviceBuffer<f64>],
    affine: &Affine<'_, f64>,
) -> (Vec<DeviceBuffer<f64>>, RunReport) {
    let n = engine.rows();
    let xr: Vec<&DeviceBuffer<f64>> = xs.iter().collect();
    let tmps: Vec<DeviceBuffer<f64>> = xs.iter().map(|_| dev.alloc(vec![-5.0; n])).collect();
    let tr: Vec<&DeviceBuffer<f64>> = tmps.iter().collect();
    let spmm = engine.spmv_multi(dev, &xr, &tr);
    let want: Vec<DeviceBuffer<f64>> = xs.iter().map(|_| dev.alloc_zeroed(n)).collect();
    let wr: Vec<&DeviceBuffer<f64>> = want.iter().collect();
    rwr_update_multi(dev, &tr, affine, &wr, None);
    (want, spmm)
}

/// The fused wave's partials of one query, computed on the host from the
/// binning: in launch order, one per block of the zero-scatter (its
/// empty rows), of each G2 bin and the overflow kernel (their rows, one
/// per thread group), and of the long tail — one per G1 row for the
/// static tail, one per 256 G1 rows for DP mode's finalize kernel (a
/// lane per row); within a block, the warp tree sum of `(next − prev)²`
/// at each row's lane, then the tree sum of the block's eight warp sums.
fn host_wave_partials(engine: &AcsrEngine<f64>, next: &[f64], prev: &[f64]) -> Vec<f64> {
    let b = engine.binning();
    let d2 = |row: u32| {
        let d = next[row as usize] - prev[row as usize];
        d * d
    };
    // `warps[w]` lists warp w's (lane, row) finalizations.
    let block = |warps: Vec<Vec<(usize, u32)>>| {
        let mut sums = [0.0f64; WARP];
        for (w, lanes) in warps.iter().enumerate() {
            let mut vals = [0.0f64; WARP];
            for &(lane, row) in lanes {
                vals[lane] = d2(row);
            }
            sums[w] = tree_reduce_sum(&vals, WARP)[0];
        }
        tree_reduce_sum(&sums, 8)[0]
    };
    // A kernel with one lane per entry of `list`, finalizing its first
    // `finalized` entries.
    let lane_per_row = |list: &[u32], finalized: usize| -> Vec<f64> {
        (0..list.len().div_ceil(256))
            .map(|blk| {
                block(
                    (0..8)
                        .map(|w| {
                            (0..WARP)
                                .map(|lane| (lane, blk * 256 + w * WARP + lane))
                                .filter(|&(_, i)| i < finalized)
                                .map(|(lane, i)| (lane, list[i]))
                                .collect()
                        })
                        .collect(),
                )
            })
            .collect()
    };
    // The zero-scatter lists the empty rows, then the G1 rows it only
    // zeroes.
    let zero_list = [b.bin_rows(0), b.g1_rows()].concat();
    let mut out = lane_per_row(&zero_list, b.bin_rows(0).len());
    let mut lists: Vec<(&[u32], usize)> = b
        .g2_bins()
        .iter()
        .map(|&bin| (b.bin_rows(bin), Binning::group_for_bin(bin)))
        .collect();
    if !b.overflow_rows().is_empty() {
        lists.push((b.overflow_rows(), WARP));
    }
    for (rows, group) in lists {
        let per_warp = WARP / group;
        let warps = rows.len().div_ceil(per_warp).max(1);
        for blk in 0..(warps * WARP).div_ceil(256) {
            out.push(block(
                (0..8)
                    .map(|w| {
                        (0..per_warp)
                            .filter_map(|g| {
                                rows.get((blk * 8 + w) * per_warp + g)
                                    .map(|&r| (g * group, r))
                            })
                            .collect()
                    })
                    .collect(),
            ));
        }
    }
    match engine.config().mode {
        AcsrMode::StaticLongTail => out.extend(b.g1_rows().iter().map(|&r| d2(r))),
        AcsrMode::DynamicParallelism => out.extend(lane_per_row(b.g1_rows(), b.g1_rows().len())),
        AcsrMode::BinningOnly => assert!(b.g1_rows().is_empty()),
    }
    out
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A fused wave's iterates are bit-identical to `spmv_multi` +
    /// `rwr_update_multi`; its partials equal the host reference built
    /// from the binning and do not depend on k; it launches one group
    /// (the SpMM's) and nothing at k = 0; and all of it — report
    /// included — is the same at host widths 1 and 2.
    #[test]
    fn fused_wave_matches_spmm_then_update(
        m in arb_wave_matrix(),
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
        let engine = AcsrEngine::from_csr(&dev, &m, cfg);
        prop_assert!(!engine.binning().bin_rows(0).is_empty(), "empty rows");
        prop_assert!((0..m.rows()).any(|r| m.row_nnz(r) > 1024), "a >1024-nnz row");
        if static_tail {
            prop_assert!(!engine.binning().g1_rows().is_empty(), "G1 rows");
        }
        let n = m.rows();
        let seeds = wave_seeds(&m, k);
        if static_tail && k >= 2 {
            let g1 = engine.binning().g1_rows();
            prop_assert!(g1.contains(&(seeds[1] as u32)), "query 1 seeds a G1 row");
        }
        let (c, restart) = rwr_affine(&seeds);
        let affine = Affine { c: &c, restart: &restart };
        let xs: Vec<DeviceBuffer<f64>> = batch_x(n, k).into_iter().map(|x| dev.alloc(x)).collect();

        // The reference: SpMM into temporaries, then the update kernel.
        let (want, spmm) = two_launch_reference(&dev, &engine, &xs, &affine);

        let mut waves = Vec::new();
        for width in [1usize, 2] {
            set_sim_threads(width);
            waves.push(fused_wave(&dev, &engine, &xs, &c, &restart));
        }
        set_sim_threads(1);
        let alone: Vec<AffineWave<f64>> = (0..k)
            .map(|v| fused_wave(&dev, &engine, &xs[v..v + 1], &c[v..v + 1], &restart[v..v + 1]))
            .collect();
        let none = Affine::<f64> { c: &[], restart: &[] };
        let empty = engine.spmm_affine(&dev, &[], &none, true);
        set_sim_threads(0);

        let wave = &waves[0];
        prop_assert_eq!(wave.report.launches, spmm.launches, "one launch group, no update");
        let partials = wave.partials.as_ref().unwrap();
        for v in 0..k {
            prop_assert_eq!(bits(wave.outs[v].as_slice()), bits(want[v].as_slice()), "query {} iterate", v);
            let host = host_wave_partials(&engine, want[v].as_slice(), xs[v].as_slice());
            prop_assert_eq!(partials.per_query, host.len());
            prop_assert_eq!(bits(partials.query(v)), bits(&host), "query {} partials", v);
            let single = &alone[v];
            prop_assert_eq!(bits(single.outs[0].as_slice()), bits(want[v].as_slice()));
            prop_assert_eq!(bits(single.partials.as_ref().unwrap().query(0)), bits(&host));
        }
        let other = &waves[1];
        prop_assert_eq!(&wave.report.counters, &other.report.counters);
        prop_assert_eq!(wave.report.time_s.to_bits(), other.report.time_s.to_bits());
        prop_assert_eq!(bits(partials.buf.as_slice()), bits(other.partials.as_ref().unwrap().buf.as_slice()));
        for v in 0..k {
            prop_assert_eq!(bits(wave.outs[v].as_slice()), bits(other.outs[v].as_slice()));
        }
        prop_assert_eq!(empty.report.launches, 0, "k = 0 launches nothing");
        prop_assert!(empty.outs.is_empty() && empty.partials.unwrap().buf.is_empty());
    }
}

/// A DP-mode matrix: [`wave_matrix`] with 33–39 rows of `rows − 40`
/// non-zeros, whose child grids (two 256-thread blocks per row at
/// `ThreadLoad` 4) make a child wave wide enough to fan out over two
/// host workers; or, with `g1` false, one whose longest rows stay at
/// most 1024 non-zeros, so G1 is empty (like churn's served graph).
fn arb_dp_wave_matrix() -> impl Strategy<Value = CsrMatrix<f64>> {
    (1100usize..1300, 4u64..2000, 33usize..40, any::<bool>()).prop_map(
        |(rows, seed, pinned, g1)| {
            if g1 {
                wave_matrix(rows, seed, pinned, rows - 40)
            } else {
                wave_matrix(rows, seed, 2, 1000)
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// In DP mode a fused wave finalizes the G1 rows in one more kernel
    /// of the launch group, after the parent grid and its children. At
    /// host width 1 (where DP's atomic order is pinned) its iterates are
    /// bit-identical to `spmv_multi` + `rwr_update_multi` and its
    /// partials equal the host reference, finalize blocks included, at
    /// any k. Its report is the same at widths 1 and 2 on a child wave
    /// that fans out over both workers. The group has one stream more
    /// than the SpMM's when G1 is non-empty and none otherwise, and
    /// k = 0 launches nothing.
    #[test]
    fn fused_dp_wave_matches_spmm_then_update(m in arb_dp_wave_matrix(), k in 1usize..5) {
        let _g = WIDTH_LOCK.lock().unwrap();
        let dev = Device::new(presets::gtx_titan());
        let cfg = AcsrConfig::for_device(dev.config());
        prop_assert_eq!(cfg.mode, AcsrMode::DynamicParallelism);
        let engine = AcsrEngine::from_csr(&dev, &m, cfg);
        let g1 = engine.binning().g1_rows();
        prop_assert!(!engine.binning().bin_rows(0).is_empty(), "empty rows");
        if !g1.is_empty() {
            // every child grid's threads, as `dp_parent_kernel` sizes them
            let child_threads: usize = g1
                .iter()
                .map(|&r| (m.row_nnz(r as usize).div_ceil(cfg.thread_load)).div_ceil(256) * 256)
                .sum();
            override_host_cores(2);
            let fans_out = effective_workers(2, dev.config().sm_count, child_threads) == 2;
            override_host_cores(0);
            prop_assert!(fans_out, "{} child threads stay on one worker", child_threads);
        }
        let n = m.rows();
        let seeds = wave_seeds(&m, k);
        if !g1.is_empty() && k >= 2 {
            prop_assert!(g1.contains(&(seeds[1] as u32)), "query 1 seeds a G1 row");
        }
        let (c, restart) = rwr_affine(&seeds);
        let affine = Affine { c: &c, restart: &restart };
        let xs: Vec<DeviceBuffer<f64>> = batch_x(n, k).into_iter().map(|x| dev.alloc(x)).collect();

        set_sim_threads(1);
        let (want, spmm) = two_launch_reference(&dev, &engine, &xs, &affine);
        let wave = fused_wave(&dev, &engine, &xs, &c, &restart);
        let alone: Vec<AffineWave<f64>> = (0..k)
            .map(|v| fused_wave(&dev, &engine, &xs[v..v + 1], &c[v..v + 1], &restart[v..v + 1]))
            .collect();
        let none = Affine::<f64> { c: &[], restart: &[] };
        let empty = engine.spmm_affine(&dev, &[], &none, true);
        override_host_cores(2);
        set_sim_threads(2);
        let wide = fused_wave(&dev, &engine, &xs, &c, &restart);
        set_sim_threads(0);
        override_host_cores(0);

        let finalize = u32::from(!g1.is_empty());
        prop_assert_eq!(wave.report.launches, spmm.launches + finalize, "one stream more iff G1");
        let partials = wave.partials.as_ref().unwrap();
        for v in 0..k {
            prop_assert_eq!(bits(wave.outs[v].as_slice()), bits(want[v].as_slice()), "query {} iterate", v);
            let host = host_wave_partials(&engine, want[v].as_slice(), xs[v].as_slice());
            prop_assert_eq!(partials.per_query, host.len());
            prop_assert_eq!(bits(partials.query(v)), bits(&host), "query {} partials", v);
            let single = &alone[v];
            prop_assert_eq!(bits(single.outs[0].as_slice()), bits(want[v].as_slice()));
            prop_assert_eq!(bits(single.partials.as_ref().unwrap().query(0)), bits(&host));
        }
        prop_assert_eq!(&wave.report.counters, &wide.report.counters);
        prop_assert_eq!(wave.report.time_s.to_bits(), wide.report.time_s.to_bits());
        prop_assert_eq!(wave.report.launches, wide.report.launches);
        prop_assert_eq!(empty.report.launches, 0, "k = 0 launches nothing");
        prop_assert!(empty.outs.is_empty() && empty.partials.unwrap().buf.is_empty());
    }
}
