//! `workers > 1` must never be a *slowdown*: requesting more host
//! workers than can help historically cost wall-clock (threads started
//! and joined with nothing to distribute). [`gpu_sim::effective_workers`]
//! now short-circuits those cases to the sequential path, and this
//! suite pins both the policy (deterministically, via
//! [`gpu_sim::override_host_cores`]) and the end-to-end wall-clock
//! parity `speedup_vs_seq >= 1 - ε`. It also pins that a kernel's panic
//! in a fanned-out wave reaches the caller with its own payload.

use gpu_sim::{
    effective_workers, lane_mask, override_host_cores, presets, set_sim_threads, sim_threads,
    Device, FULL_MASK, WARP,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

/// `override_host_cores` and `set_sim_threads` are process-global; every
/// test that touches them holds this.
static KNOB_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn single_core_host_never_fans_out() {
    let _guard = KNOB_LOCK.lock().unwrap();
    override_host_cores(1);
    for requested in [2, 4, 8, 64] {
        assert_eq!(effective_workers(requested, 14, 1 << 20), 1);
    }
    override_host_cores(0);
}

#[test]
fn small_grids_stay_sequential_even_on_big_hosts() {
    let _guard = KNOB_LOCK.lock().unwrap();
    override_host_cores(32);
    // Below the fan-out threshold starting threads outweighs the work.
    assert_eq!(effective_workers(8, 14, 1024), 1);
    // At or above it, fan out to min(requested, shards).
    assert_eq!(effective_workers(8, 14, 1 << 20), 8);
    assert_eq!(effective_workers(8, 4, 1 << 20), 4);
    override_host_cores(0);
}

#[test]
fn sequential_requests_are_sequential() {
    let _guard = KNOB_LOCK.lock().unwrap();
    override_host_cores(32);
    assert_eq!(effective_workers(1, 14, 1 << 20), 1);
    assert_eq!(effective_workers(4, 1, 1 << 20), 1);
    override_host_cores(0);
}

/// End-to-end wall-clock parity. The grid is large enough to clear the
/// fan-out threshold, so on a multi-core host this measures real
/// parallel shard execution; on a single-core host the short-circuit
/// makes `workers > 1` run the sequential path outright. Either way a
/// material slowdown fails. ε is generous (0.35) because wall-clock on
/// a loaded CI host is noisy — the historical bug this pins was a 2-3×
/// slowdown, far outside the band. Median-of-3 damps transient spikes.
#[test]
fn multi_worker_wall_clock_is_not_a_slowdown() {
    let _guard = KNOB_LOCK.lock().unwrap();
    let dev = Device::new(presets::gtx_titan());
    let n = 64 * 1024;
    let src = dev.alloc((0..n).map(|i| (i % 131) as f64).collect::<Vec<_>>());
    let dst = dev.alloc_zeroed::<f64>(n);
    let launch = || {
        dev.launch("scaling_probe", n / 256, 256, &|blk| {
            blk.for_each_warp(&mut |warp| {
                let base = warp.first_thread();
                let mask = lane_mask(n - base);
                let vals = warp.read_coalesced(&src, base, mask);
                let idx: [usize; WARP] = std::array::from_fn(|l| (base * 31 + l * 7) % n);
                let tex = warp.gather_tex(&src, &idx, mask);
                let mut out = [0.0f64; WARP];
                for l in 0..WARP {
                    out[l] = vals[l] + tex[l];
                }
                warp.charge_fma(mask);
                warp.write_coalesced(&dst, base, &out, mask);
            });
        });
    };
    let rate = |threads: usize| {
        set_sim_threads(threads);
        launch(); // warmup
        let mut best = f64::MAX;
        let mut samples = [0.0f64; 3];
        for s in &mut samples {
            let start = Instant::now();
            for _ in 0..4 {
                launch();
            }
            *s = start.elapsed().as_secs_f64();
            best = best.min(*s);
        }
        set_sim_threads(0);
        samples.sort_by(f64::total_cmp);
        4.0 / samples[1] // median launches/sec
    };
    let seq = rate(1);
    for threads in [2, 4] {
        let par = rate(threads);
        let speedup = par / seq;
        assert!(
            speedup >= 1.0 - 0.35,
            "workers={threads} regressed wall-clock: {par:.1}/s vs sequential {seq:.1}/s \
             (speedup {speedup:.2})"
        );
    }
}

/// A panic in one block of a wave that fans out to two host workers
/// reaches the caller with the block's own payload, and the device's
/// next launch at that width still reports what the sequential run does.
#[test]
fn panicking_block_in_a_fanned_out_wave_reaches_the_caller() {
    let _guard = KNOB_LOCK.lock().unwrap();
    override_host_cores(4);
    set_sim_threads(2);
    let dev = Device::new(presets::gtx_titan());
    let sms = dev.config().sm_count;
    let (blocks, block_dim) = (256, 256);
    let n = blocks * block_dim;
    assert_eq!(
        effective_workers(sim_threads(), sms, n),
        2,
        "the 64 K-thread grid must fan out"
    );
    let src = dev.alloc((0..n).map(|i| i as f64).collect::<Vec<_>>());
    let launch = |failing: Option<usize>| {
        dev.launch("panic_probe", blocks, block_dim, &|blk| {
            if Some(blk.block_idx()) == failing {
                panic!("block 37 failed");
            }
            blk.for_each_warp(&mut |warp| {
                warp.read_coalesced(&src, warp.first_thread(), FULL_MASK);
            });
        })
    };
    let err = catch_unwind(AssertUnwindSafe(|| launch(Some(37))))
        .expect_err("the block's panic must reach the caller");
    assert_eq!(err.downcast_ref::<&str>(), Some(&"block 37 failed"));

    let fanned_out = launch(None);
    set_sim_threads(1);
    let sequential = launch(None);
    set_sim_threads(0);
    override_host_cores(0);
    assert_eq!(fanned_out, sequential);
}
