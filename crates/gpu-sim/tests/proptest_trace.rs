//! Trace-ledger accounting properties: for ANY kernel mix, device preset
//! and host worker count, the ledger's span counters must sum *exactly*
//! (bit-identical integer sums) to the merged [`RunReport`] the caller
//! assembles itself, and the recorded spans must be identical across
//! worker widths (tracing, like parallelism, is pure mechanism).

use gpu_sim::{lane_mask, presets, set_sim_threads, Device, DeviceConfig, RunReport, Span, WARP};
use proptest::prelude::*;
use std::sync::Mutex;

/// `set_sim_threads` is process-global; hold this in every test that
/// flips the width (the harness runs `#[test]` fns concurrently).
static WIDTH_LOCK: Mutex<()> = Mutex::new(());

fn preset(which: u8) -> DeviceConfig {
    match which % 3 {
        0 => presets::gtx_titan(),
        1 => presets::gtx_580(),
        _ => presets::tesla_k10_single(),
    }
}

/// A traced scenario covering every span source: an H2D transfer, a
/// plain launch, a concurrent group (one pooled roofline on every
/// preset), a dynamic-parallelism parent where supported, and a D2H
/// readback. Returns the caller-merged report, the ledger's reconciled
/// total, and the span list.
fn traced_scenario(
    cfg: DeviceConfig,
    threads: usize,
    grid: usize,
    block_dim: usize,
) -> (RunReport, RunReport, Vec<Span>) {
    set_sim_threads(threads);
    let mut dev = Device::new(cfg);
    let ledger = dev.enable_tracing();
    let n = grid * block_dim;
    let src = dev.alloc((0..n).map(|i| (i % 53) as f64).collect::<Vec<_>>());
    let dst = dev.alloc_zeroed::<f64>(n);
    let acc = dev.alloc_zeroed::<f64>(4);

    let mut merged = RunReport::default();
    merged = merged.then(&dev.record_htod("upload", (n * 8) as u64));

    merged = merged.then(&dev.launch("plain", grid, block_dim, &|blk| {
        let bidx = blk.block_idx();
        blk.for_each_warp(&mut |warp| {
            let base = warp.first_thread();
            if base >= n {
                return;
            }
            let mask = lane_mask(n - base);
            let vals = warp.read_coalesced(&src, base, mask);
            let idx: [usize; WARP] = std::array::from_fn(|l| (base + l * 17 + bidx) % n);
            warp.gather_tex(&src, &idx, mask);
            warp.charge_alu(1);
            warp.write_coalesced(&dst, base, &vals, mask);
            let ones = [1.0f64; WARP];
            let tgt = [bidx % 4; WARP];
            warp.atomic_rmw(&acc, &tgt, &ones, mask, |a, b| a + b);
        });
    }));

    let mut group = dev.launch_group("grp");
    for (i, g) in [grid, grid.div_ceil(2)].into_iter().enumerate() {
        group.add(&format!("s{i}"), g, block_dim, &|blk| {
            blk.for_each_warp(&mut |warp| {
                let base = warp.first_thread() % n;
                let mask = lane_mask(n - base);
                warp.read_coalesced(&src, base, mask);
            });
        });
    }
    merged = merged.then(&group.finish());

    if dev.config().has_dynamic_parallelism() {
        let out = dev.alloc_zeroed::<f64>(n.max(2 * WARP));
        let out_ref = &out;
        merged = merged.then(&dev.launch("dp_parent", grid.min(4), 64, &|blk| {
            blk.for_each_warp(&mut |warp| {
                if warp.warp_in_block() != 0 {
                    return;
                }
                warp.launch_child(2, 32, move |child| {
                    let cb = child.block_idx();
                    child.for_each_warp(&mut |cw| {
                        let vals = [3.0f64; WARP];
                        cw.write_coalesced(out_ref, cb * WARP, &vals, u32::MAX);
                    });
                });
            });
        }));
    }

    merged = merged.then(&dev.record_dtoh("readback", (n * 8) as u64));
    set_sim_threads(0);

    let total = ledger.reconcile().expect("ledger must reconcile");
    (merged, total, ledger.spans())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Span counters and times sum exactly to the caller-merged report,
    /// at any `ACSR_SIM_THREADS`-style worker width: the caller and the
    /// ledger fold the same top-level reports in the same order, so even
    /// the float time agrees bit for bit.
    #[test]
    fn span_counters_reconcile_with_caller_report(
        which in 0u8..3,
        grid in 1usize..24,
        block_pow in 0u32..=2,
        threads in 1usize..=8,
    ) {
        let _guard = WIDTH_LOCK.lock().unwrap();
        let block_dim = 32usize << block_pow;
        let (merged, total, _) = traced_scenario(preset(which), threads, grid, block_dim);
        prop_assert_eq!(merged.counters, total.counters);
        prop_assert_eq!(merged.launches, total.launches);
        prop_assert_eq!(merged.time_s.to_bits(), total.time_s.to_bits());
    }

    /// The recorded spans — names, shapes, SM attribution, counters and
    /// modeled times — are identical at every worker width.
    #[test]
    fn spans_are_identical_across_worker_widths(
        which in 0u8..3,
        grid in 1usize..24,
        threads in 2usize..=8,
    ) {
        let _guard = WIDTH_LOCK.lock().unwrap();
        let (_, seq_total, seq_spans) = traced_scenario(preset(which), 1, grid, 64);
        let (_, par_total, par_spans) = traced_scenario(preset(which), threads, grid, 64);
        prop_assert_eq!(seq_spans, par_spans);
        prop_assert_eq!(seq_total.counters, par_total.counters);
        prop_assert_eq!(seq_total.time_s.to_bits(), par_total.time_s.to_bits());
    }
}

/// The exported chrome-trace JSON is valid JSON and stable across
/// worker widths (byte-identical export for the same scenario).
#[test]
fn chrome_export_is_valid_and_width_stable() {
    let _guard = WIDTH_LOCK.lock().unwrap();
    let export = |threads: usize| {
        set_sim_threads(threads);
        let mut dev = Device::new(presets::gtx_titan());
        let ledger = dev.enable_tracing();
        let buf = dev.alloc(vec![1.0f64; 4096]);
        dev.launch("k", 8, 128, &|blk| {
            blk.for_each_warp(&mut |warp| {
                let base = warp.first_thread() % 2048;
                warp.read_coalesced(&buf, base, u32::MAX);
            });
        });
        dev.record_dtoh("y_readback", 4096 * 8);
        set_sim_threads(0);
        serde_json::to_string_pretty(&ledger.chrome_trace()).unwrap() + "\n"
    };
    let seq = export(1);
    serde_json::validate(&seq).expect("chrome trace must be valid JSON");
    for threads in [2, 8] {
        assert_eq!(seq, export(threads), "{threads} workers");
    }
}
