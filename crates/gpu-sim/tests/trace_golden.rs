//! Golden-file test for the chrome-trace exporter: a fixed scenario's
//! trace, rendered in the artifact writer's layout (pretty-printed, with
//! a trailing newline), must be byte-identical (stable field ordering,
//! stable float formatting, stable span order) — the export is an
//! artifact other tooling parses, so accidental format drift should
//! fail loudly.
//!
//! Regenerate after an intentional format change with
//! `ACSR_REGEN_GOLDEN=1 cargo test -p gpu-sim --test trace_golden`.

use gpu_sim::{lane_mask, presets, set_sim_threads, Device, WARP};

const GOLDEN: &str = include_str!("golden/trace_small.json");

/// Deterministic scenario covering every span kind: H2D upload, plain
/// launch, pooled concurrent group (two streams), dynamic-parallelism
/// child waves, D2H readback.
fn scenario_json() -> String {
    set_sim_threads(1);
    let mut dev = Device::new(presets::gtx_titan());
    let ledger = dev.enable_tracing();
    let n = 1024usize;
    let src = dev.alloc((0..n).map(|i| (i % 7) as f64).collect::<Vec<_>>());
    let dst = dev.alloc_zeroed::<f64>(n);

    dev.record_htod("x_upload", (n * 8) as u64);

    dev.launch("copy", 4, 64, &|blk| {
        blk.for_each_warp(&mut |warp| {
            let base = warp.first_thread();
            if base >= n {
                return;
            }
            let mask = lane_mask(n - base);
            let vals = warp.read_coalesced(&src, base, mask);
            warp.write_coalesced(&dst, base, &vals, mask);
        });
    });

    let mut group = dev.launch_group("spmv");
    group.add("bin1", 2, 64, &|blk| {
        blk.for_each_warp(&mut |warp| {
            let base = warp.first_thread() % n;
            warp.read_coalesced(&src, base, u32::MAX);
        });
    });
    group.add("bin2", 1, 64, &|blk| {
        blk.for_each_warp(&mut |warp| {
            let idx: [usize; WARP] = std::array::from_fn(|l| (l * 33) % n);
            warp.gather_tex(&src, &idx, u32::MAX);
        });
    });
    group.finish();

    let out = dev.alloc_zeroed::<f64>(2 * WARP);
    let out_ref = &out;
    dev.launch("dp_parent", 1, 32, &|blk| {
        blk.for_each_warp(&mut |warp| {
            warp.launch_child(2, 32, move |child| {
                let cb = child.block_idx();
                child.for_each_warp(&mut |cw| {
                    let vals = [5.0f64; WARP];
                    cw.write_coalesced(out_ref, cb * WARP, &vals, u32::MAX);
                });
            });
        });
    });

    dev.record_dtoh("y_readback", (n * 8) as u64);
    set_sim_threads(0);
    ledger.reconcile().expect("golden scenario must reconcile");
    serde_json::to_string_pretty(&ledger.chrome_trace()).unwrap() + "\n"
}

#[test]
fn chrome_trace_export_matches_golden_file() {
    let json = scenario_json();
    serde_json::validate(&json).expect("export must be valid JSON");

    if std::env::var("ACSR_REGEN_GOLDEN").is_ok() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/trace_small.json");
        std::fs::write(path, &json).expect("write golden");
        eprintln!("regenerated {path}");
        return;
    }
    assert_eq!(
        json, GOLDEN,
        "chrome-trace export drifted from tests/golden/trace_small.json \
         (regenerate with ACSR_REGEN_GOLDEN=1 if intentional)"
    );
}
