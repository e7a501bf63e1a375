//! Property tests for the simulator substrate: warp primitives must be
//! functionally exact against scalar references for arbitrary inputs,
//! and the timing model must respect basic monotonicity invariants.

use gpu_sim::{lane_mask, presets, Device, WARP};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn gather_returns_exact_values(
        data in proptest::collection::vec(-100.0f64..100.0, 1..300),
        idx_seed in proptest::collection::vec(0usize..usize::MAX, WARP..=WARP),
        mask in any::<u32>(),
    ) {
        let dev = Device::new(presets::gtx_titan());
        let n = data.len();
        let buf = dev.alloc(data.clone());
        let idx: [usize; WARP] = std::array::from_fn(|i| idx_seed[i] % n);
        dev.launch("t", 1, 32, &|blk| {
            blk.for_each_warp(&mut |warp| {
                let got = warp.gather(&buf, &idx, mask);
                for lane in 0..WARP {
                    if mask >> lane & 1 == 1 {
                        assert_eq!(got[lane], data[idx[lane]]);
                    } else {
                        assert_eq!(got[lane], 0.0, "inactive lane must default");
                    }
                }
            });
        });
    }

    #[test]
    fn scatter_then_gather_round_trips(
        vals in proptest::collection::vec(-50.0f64..50.0, WARP..=WARP),
        n_lanes in 1usize..=WARP,
    ) {
        let dev = Device::new(presets::gtx_titan());
        let buf = dev.alloc_zeroed::<f64>(WARP);
        let v: [f64; WARP] = std::array::from_fn(|i| vals[i]);
        let idx: [usize; WARP] = std::array::from_fn(|i| i);
        let mask = lane_mask(n_lanes);
        dev.launch("t", 1, 32, &|blk| {
            blk.for_each_warp(&mut |warp| {
                warp.scatter(&buf, &idx, &v, mask);
            });
        });
        for (i, &v) in vals.iter().enumerate() {
            let want = if i < n_lanes { v } else { 0.0 };
            prop_assert_eq!(buf.as_slice()[i], want);
        }
    }

    #[test]
    fn segmented_reduce_matches_scalar_sum(
        vals in proptest::collection::vec(-10.0f64..10.0, WARP..=WARP),
        width_pow in 0u32..=5,
    ) {
        let width = 1usize << width_pow;
        let dev = Device::new(presets::gtx_titan());
        let v: [f64; WARP] = std::array::from_fn(|i| vals[i]);
        dev.launch("t", 1, 32, &|blk| {
            blk.for_each_warp(&mut |warp| {
                let red = warp.segmented_reduce_sum(&v, width);
                for seg in 0..WARP / width {
                    let want: f64 = (0..width).map(|i| vals[seg * width + i]).sum();
                    let got = red[seg * width];
                    assert!(
                        (got - want).abs() < 1e-9,
                        "segment {seg}: {got} vs {want}"
                    );
                }
            });
        });
    }

    #[test]
    fn atomic_rmw_sums_all_contributions(
        targets in proptest::collection::vec(0usize..8, WARP..=WARP),
        vals in proptest::collection::vec(0.5f64..2.0, WARP..=WARP),
        mask in any::<u32>(),
    ) {
        let dev = Device::new(presets::gtx_titan());
        let acc = dev.alloc_zeroed::<f64>(8);
        let idx: [usize; WARP] = std::array::from_fn(|i| targets[i]);
        let v: [f64; WARP] = std::array::from_fn(|i| vals[i]);
        dev.launch("t", 1, 32, &|blk| {
            blk.for_each_warp(&mut |warp| {
                warp.atomic_rmw(&acc, &idx, &v, mask, |a, b| a + b);
            });
        });
        let mut want = [0.0f64; 8];
        for lane in 0..WARP {
            if mask >> lane & 1 == 1 {
                want[targets[lane]] += vals[lane];
            }
        }
        for (t, &w) in want.iter().enumerate() {
            prop_assert!((acc.as_slice()[t] - w).abs() < 1e-9);
        }
    }

    #[test]
    fn more_work_never_takes_less_modeled_time(reps in 1usize..12) {
        // launching `reps` x the traffic must be monotone in modeled time
        let dev = Device::new(presets::gtx_titan());
        let buf = dev.alloc(vec![1.0f64; 4096]);
        let time = |k: usize| {
            dev.launch("t", 8 * k, 256, &|blk| {
                blk.for_each_warp(&mut |warp| {
                    let base = (warp.global_warp_id() * WARP) % 4000;
                    warp.read_coalesced(&buf, base, u32::MAX);
                });
            })
            .time_s
        };
        prop_assert!(time(reps + 1) >= time(reps));
    }

    #[test]
    fn copy_seconds_is_monotone_in_bytes(a in 0u64..1 << 30, b in 0u64..1 << 30) {
        let cfg = presets::gtx_titan();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(cfg.copy_seconds(lo) <= cfg.copy_seconds(hi));
    }

    #[test]
    fn cache_never_hits_on_first_touch(addrs in proptest::collection::vec(0u64..1 << 20, 1..200)) {
        use gpu_sim::cache::SetAssocCache;
        let mut c = SetAssocCache::new(4096, 32, 4);
        let mut seen = std::collections::HashSet::new();
        for &a in &addrs {
            let line = a / 32;
            let hit = c.access_line(line);
            if !seen.contains(&line) {
                prop_assert!(!hit, "first touch of line {line} must miss");
            }
            seen.insert(line);
        }
    }
}
