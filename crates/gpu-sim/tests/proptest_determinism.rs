//! Parallel host execution must be unobservable: for ANY kernel, grid
//! shape and device preset, running the simulator on N host workers must
//! produce a [`RunReport`] bit-identical to the sequential run. The
//! engine shards a launch per SM and merges in SM order regardless of
//! which worker ran which shard, so this holds by construction — these
//! properties pin it against regressions.
//!
//! Atomic adds in the stress kernel use integer-valued `f64` operands so
//! buffer contents are exact under any cross-shard application order
//! (the report itself never depends on that order).

use gpu_sim::{
    lane_mask, presets, set_sim_threads, Device, DeviceBuffer, DeviceConfig, RunReport, WarpCtx,
    FULL_MASK, WARP,
};
use proptest::prelude::*;
use std::sync::Mutex;

/// `set_sim_threads` is process-global; the test harness runs `#[test]`
/// fns on several threads, so every test that flips the width holds this.
static WIDTH_LOCK: Mutex<()> = Mutex::new(());

fn preset(which: u8) -> DeviceConfig {
    match which % 3 {
        0 => presets::gtx_titan(),
        1 => presets::gtx_580(),
        _ => presets::tesla_k10_single(),
    }
}

/// A kernel exercising every counter source: coalesced reads, texture
/// gathers, ALU charges, segmented reduction, atomics and strided writes.
fn stress_run(dev: &Device, threads: usize, grid: usize, block_dim: usize) -> RunReport {
    set_sim_threads(threads);
    let n = grid * block_dim;
    let src = dev.alloc((0..n).map(|i| (i % 97) as f64).collect::<Vec<_>>());
    let dst = dev.alloc_zeroed::<f64>(n);
    let acc = dev.alloc_zeroed::<f64>(16);
    let report = dev.launch("determinism_stress", grid, block_dim, &|blk| {
        let bidx = blk.block_idx();
        blk.for_each_warp(&mut |warp| {
            let base = warp.first_thread();
            if base >= n {
                return;
            }
            let mask = lane_mask(n - base);
            let vals = warp.read_coalesced(&src, base, mask);
            let idx: [usize; WARP] = std::array::from_fn(|l| (base * 7 + l * 13 + bidx * 31) % n);
            let tex = warp.gather_tex(&src, &idx, mask);
            let mut out = [0.0f64; WARP];
            for l in 0..WARP {
                out[l] = vals[l] + tex[l];
            }
            warp.charge_alu(2);
            let red = warp.segmented_reduce_sum(&out, WARP);
            let ones = [1.0f64; WARP];
            let tgt = [bidx % 16; WARP];
            warp.atomic_rmw(&acc, &tgt, &ones, mask, |a, b| a + b);
            let _ = red;
            warp.write_coalesced(&dst, base, &out, mask);
        });
    });
    set_sim_threads(0);
    report
}

/// Same kernel on a dynamic-parallelism device: parent warps launch
/// child grids, exercising child-sequence attribution and DP overheads.
fn dp_run(dev: &Device, threads: usize, grid: usize, fan: usize) -> (RunReport, Vec<f64>) {
    set_sim_threads(threads);
    let n = grid * 64 * fan;
    let out = dev.alloc_zeroed::<f64>(n.max(1));
    let out = &out;
    let report = dev.launch("determinism_dp", grid, 64, &|blk| {
        let bidx = blk.block_idx();
        blk.for_each_warp(&mut |warp| {
            if warp.warp_in_block() != 0 {
                return;
            }
            warp.launch_child(fan, 32, move |child| {
                let cb = child.block_idx();
                child.for_each_warp(&mut |cw| {
                    let base = (bidx * 64 * fan + cb * WARP) % n.max(1);
                    let vals = [2.0f64; WARP];
                    cw.write_coalesced(out, base.min(n - WARP), &vals, u32::MAX);
                });
            });
        });
    });
    set_sim_threads(0);
    (report, out.as_slice().to_vec())
}

/// Add 1 to each of the `WARP` entries of `slot`.
fn mark(warp: &mut WarpCtx<'_, '_, '_>, out: &DeviceBuffer<f64>, slot: usize) {
    let idx = std::array::from_fn(|l| slot * WARP + l);
    warp.atomic_rmw(out, &idx, &[1.0; WARP], FULL_MASK, |a, b| a + b);
}

/// Depth-3 cascade: every parent block launches an empty child grid and
/// a `c`-block one, and every child block a `g`-block grandchild grid
/// and an empty one (`c` and `g` may be 0 too). Each block of a
/// non-empty grid marks its own slot: parents `0..p`, then children,
/// then grandchildren, so a block that runs twice or never shows.
fn cascade_run(
    dev: &Device,
    threads: usize,
    p: usize,
    c: usize,
    g: usize,
) -> (RunReport, Vec<f64>) {
    set_sim_threads(threads);
    let out = dev.alloc_zeroed::<f64>((p + p * c + p * c * g) * WARP);
    let out = &out;
    // 1024-thread child blocks let the child waves clear the fan-out
    // threshold; only warp 0 of each block works.
    let report = dev.launch("determinism_cascade", p, 64, &|blk| {
        let pb = blk.block_idx();
        blk.for_each_warp(&mut |warp| {
            if warp.warp_in_block() != 0 {
                return;
            }
            mark(warp, out, pb);
            warp.launch_child(0, 32, |_| {});
            warp.launch_child(c, 1024, move |child| {
                let cb = child.block_idx();
                child.for_each_warp(&mut |cw| {
                    if cw.warp_in_block() != 0 {
                        return;
                    }
                    mark(cw, out, p + pb * c + cb);
                    cw.launch_child(g, 1024, move |grand| {
                        let slot = p + p * c + (pb * c + cb) * g + grand.block_idx();
                        grand.for_each_warp(&mut |gw| {
                            if gw.warp_in_block() == 0 {
                                mark(gw, out, slot);
                            }
                        });
                    });
                    cw.launch_child(0, 64, |_| {});
                });
            });
        });
    });
    set_sim_threads(0);
    (report, out.as_slice().to_vec())
}

/// Full-strictness report comparison: structural equality plus bit-exact
/// time fields (`PartialEq` on f64 would accept -0.0 == 0.0 etc.).
fn assert_identical(a: &RunReport, b: &RunReport, what: &str) {
    assert_eq!(a.counters, b.counters, "{what}: counters diverged");
    assert_eq!(a.launches, b.launches, "{what}: launch counts diverged");
    assert_eq!(
        a.time_s.to_bits(),
        b.time_s.to_bits(),
        "{what}: time_s bits diverged"
    );
    for (x, y, f) in [
        (a.breakdown.launch_s, b.breakdown.launch_s, "launch_s"),
        (a.breakdown.compute_s, b.breakdown.compute_s, "compute_s"),
        (a.breakdown.memory_s, b.breakdown.memory_s, "memory_s"),
        (a.breakdown.latency_s, b.breakdown.latency_s, "latency_s"),
        (
            a.breakdown.dynamic_launch_s,
            b.breakdown.dynamic_launch_s,
            "dynamic_launch_s",
        ),
        (a.breakdown.transfer_s, b.breakdown.transfer_s, "transfer_s"),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: breakdown {f} diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_reports_match_sequential_on_every_preset(
        which in 0u8..3,
        grid in 1usize..40,
        block_pow in 0u32..=3,
        threads in 2usize..=8,
    ) {
        let _guard = WIDTH_LOCK.lock().unwrap();
        let block_dim = 32usize << block_pow;
        let dev = Device::new(preset(which));
        let seq = stress_run(&dev, 1, grid, block_dim);
        let par = stress_run(&dev, threads, grid, block_dim);
        assert_identical(&seq, &par, &format!(
            "preset {which}, grid {grid}x{block_dim}, {threads} workers"
        ));
    }

    #[test]
    fn dynamic_parallelism_reports_match_sequential(
        grid in 1usize..16,
        fan in 1usize..6,
        threads in 2usize..=8,
    ) {
        let _guard = WIDTH_LOCK.lock().unwrap();
        // GTX Titan is the only preset with dynamic parallelism.
        let dev = Device::new(presets::gtx_titan());
        let (seq, seq_buf) = dp_run(&dev, 1, grid, fan);
        let (par, par_buf) = dp_run(&dev, threads, grid, fan);
        let what = format!("dp grid {grid}, fan {fan}, {threads} workers");
        assert_identical(&seq, &par, &what);
        assert_eq!(seq_buf, par_buf, "{what}: buffer contents diverged");
    }

    #[test]
    fn nested_cascades_run_every_grid_once(
        p in 1usize..24,
        c in 0usize..4,
        g in 0usize..4,
    ) {
        let _guard = WIDTH_LOCK.lock().unwrap();
        let dev = Device::new(presets::gtx_titan());
        let (seq, buf) = cascade_run(&dev, 1, p, c, g);
        let what = format!("cascade {p}x{c}x{g}");
        assert!(buf.iter().all(|&v| v == 1.0), "{what}: {buf:?}");
        assert_eq!(seq.counters.blocks, (p + p * c + p * c * g) as u64, "{what}");
        assert_eq!(seq.counters.child_launches, (2 * p + 2 * p * c) as u64, "{what}");
        for threads in 2..=8 {
            let (par, par_buf) = cascade_run(&dev, threads, p, c, g);
            assert_identical(&seq, &par, &format!("{what}, {threads} workers"));
            assert_eq!(buf, par_buf, "{what}, {threads} workers");
        }
    }
}

/// Beyond the report: kernel-visible buffer contents must also agree when
/// the atomic operands are exact at any association order.
#[test]
fn buffer_contents_match_across_widths() {
    let _guard = WIDTH_LOCK.lock().unwrap();
    let dev = Device::new(presets::gtx_titan());
    let run = |threads: usize| {
        set_sim_threads(threads);
        let acc = dev.alloc_zeroed::<f64>(8);
        dev.launch("acc", 64, 128, &|blk| {
            let tgt = [blk.block_idx() % 8; WARP];
            blk.for_each_warp(&mut |warp| {
                let ones = [1.0f64; WARP];
                warp.atomic_rmw(&acc, &tgt, &ones, u32::MAX, |a, b| a + b);
            });
        });
        set_sim_threads(0);
        acc.into_vec()
    };
    let seq = run(1);
    for threads in [2, 4] {
        assert_eq!(seq, run(threads), "{threads} workers");
    }
}

/// Non-exact float atomics (the one place parallel execution may perturb
/// kernel-visible state): the *report* stays bit-identical at every
/// width, sequential runs are bit-stable run-to-run, and the parallel
/// accumulated value differs from the sequential one only by
/// association-order round-off — never by more than a few ulps of the
/// true sum. (Cross-shard RMW application order is scheduling-dependent
/// by design; bit-identity of the float itself is NOT guaranteed.)
#[test]
fn float_atomic_accumulation_is_order_stable() {
    let _guard = WIDTH_LOCK.lock().unwrap();
    let dev = Device::new(presets::gtx_titan());
    let run = |threads: usize| {
        set_sim_threads(threads);
        let acc = dev.alloc(vec![0.0f64]);
        // 256 blocks over 14 SM shards, each warp atomically adding a
        // non-exact f64 (0.1-ish) to acc[0] — 512 adds total.
        let report = dev.launch("float_atomic", 256, 64, &|blk| {
            let b = blk.block_idx();
            blk.for_each_warp(&mut |warp| {
                let v = [0.1 + (b as f64) * 1e-7; WARP];
                let idx = [0usize; WARP];
                warp.atomic_rmw(&acc, &idx, &v, 1, |a, b| a + b);
            });
        });
        set_sim_threads(0);
        (acc.as_slice()[0], report)
    };
    let (seq_val, seq_report) = run(1);
    let (seq_val2, seq_report2) = run(1);
    assert_eq!(
        seq_val.to_bits(),
        seq_val2.to_bits(),
        "sequential runs must be bit-stable"
    );
    assert_identical(&seq_report, &seq_report2, "sequential repeat");
    for threads in [2, 4, 8] {
        let (par_val, par_report) = run(threads);
        assert_identical(&seq_report, &par_report, &format!("{threads} workers"));
        let rel = (par_val - seq_val).abs() / seq_val.abs();
        assert!(
            rel < 1e-12,
            "{threads} workers: value {par_val} vs sequential {seq_val} (rel {rel:e})"
        );
    }
}
