//! The fused / specialized warp memory ops are documented as
//! bit-identical to their expanded forms: [`WarpCtx::gather2`] to two
//! gathers, [`WarpCtx::gather_grouped`] to a gather of the expanded
//! per-lane index array, [`WarpCtx::read_coalesced`] to a gather of
//! `base..base+32`. These properties pin that — values, counters, and
//! every timing field must agree for arbitrary index patterns and masks
//! (sorted, unsorted, duplicated, sparse), because kernels choose freely
//! between the forms and the profile goldens assume the choice is
//! unobservable. [`WarpCtx::gather`], [`WarpCtx::scatter`] and
//! [`WarpCtx::gather_tex`] are checked against scalar models on byte
//! addresses, and so are the closed forms of
//! [`WarpCtx::gather_grouped`] and [`WarpCtx::read_coalesced`], which
//! share no scan with `gather`.

use gpu_sim::cache::SetAssocCache;
use gpu_sim::{lane_mask, presets, DevCopy, Device, DeviceBuffer, RunReport, WARP};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn assert_identical(a: &RunReport, b: &RunReport, what: &str) {
    assert_eq!(a.counters, b.counters, "{what}: counters diverged");
    assert_eq!(
        a.time_s.to_bits(),
        b.time_s.to_bits(),
        "{what}: time_s bits diverged"
    );
}

/// Index strategy: sorted ascending, scattered, or heavily duplicated
/// runs over a buffer of `n` elements, chosen by a shape selector.
fn idx_strategy(n: usize) -> impl Strategy<Value = [usize; WARP]> {
    (
        0u8..3,
        0usize..n / 2,
        proptest::collection::vec(0usize..n, WARP),
    )
        .prop_map(move |(shape, b, v)| {
            let mut idx = [0usize; WARP];
            match shape {
                // ascending with small gaps (the sorted fast path)
                0 => {
                    let mut cur = b;
                    for (i, s) in v.iter().enumerate() {
                        cur = (cur + s % 3).min(n - 1);
                        idx[i] = cur;
                    }
                }
                // fully scattered (unsorted fallback)
                1 => idx.copy_from_slice(&v),
                // few distinct values, duplicated (conflict-heavy)
                _ => {
                    for (i, x) in v.iter().enumerate() {
                        idx[i] = (x % 4) * (n / 4);
                    }
                }
            }
            idx
        })
}

/// Scalar model of one texture gather: probe `cache` once per distinct
/// byte-address line the active lanes touch, in ascending line order.
/// Returns `(hits, misses)`.
fn tex_model<T: DevCopy>(
    cache: &mut SetAssocCache,
    buf: &DeviceBuffer<T>,
    idx: &[usize; WARP],
    mask: u32,
) -> (u64, u64) {
    let lines: BTreeSet<u64> = (0..WARP)
        .filter(|&l| mask >> l & 1 == 1)
        .map(|l| (buf.base_addr() + (idx[l] * T::SIZE) as u64) / cache.line_bytes())
        .collect();
    let hits = lines.iter().filter(|&&l| cache.access_line(l)).count() as u64;
    (hits, lines.len() as u64 - hits)
}

/// The values a gather of `buf` returns: `buf[idx[l]]` on active lanes,
/// `T::default()` elsewhere.
fn gathered<T: DevCopy>(buf: &DeviceBuffer<T>, idx: &[usize; WARP], mask: u32) -> [T; WARP] {
    std::array::from_fn(|l| {
        if mask >> l & 1 == 1 {
            buf.as_slice()[idx[l]]
        } else {
            T::default()
        }
    })
}

/// Scalar coalescing model of one warp access: `(segments, ideal)`, the
/// distinct `txn`-byte segments of the active lanes' byte addresses and
/// the fewest transactions their distinct elements could fill.
fn coalescing_model<T: DevCopy>(
    buf: &DeviceBuffer<T>,
    idx: &[usize; WARP],
    mask: u32,
    txn: u64,
) -> (u64, u64) {
    let active: BTreeSet<usize> = (0..WARP)
        .filter(|&l| mask >> l & 1 == 1)
        .map(|l| idx[l])
        .collect();
    let segments: BTreeSet<u64> = active
        .iter()
        .map(|&i| (buf.base_addr() + (i * T::SIZE) as u64) / txn)
        .collect();
    let ideal = match active.len() {
        0 => 0,
        n => ((n * T::SIZE) as u64).div_ceil(txn).max(1),
    };
    (segments.len() as u64, ideal)
}

/// `r` is one launch of two warp reads at `idx` under `mask`, of `wide`
/// and then of `narrow`: its memory counters must be the scalar
/// coalescing model's at `txn`-byte transactions.
fn assert_reads_match_model(
    r: &RunReport,
    wide: &DeviceBuffer<f64>,
    narrow: &DeviceBuffer<u32>,
    idx: &[usize; WARP],
    mask: u32,
    txn: u64,
) {
    let (seg_v, ideal_v) = coalescing_model(wide, idx, mask, txn);
    let (seg_w, ideal_w) = coalescing_model(narrow, idx, mask, txn);
    let c = &r.counters;
    assert_eq!(c.mem_requests, 2);
    assert_eq!(c.mem_transactions, seg_v + seg_w);
    assert_eq!(c.transactions, seg_v + seg_w);
    assert_eq!(c.min_transactions, ideal_v + ideal_w);
    assert_eq!(c.dram_read_bytes, (seg_v + seg_w) * txn);
    assert_eq!(c.dram_write_bytes, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gather_and_scatter_match_scalar_coalescing_model(
        fermi in any::<bool>(),
        idx in idx_strategy(4096),
        mask in any::<u32>(),
    ) {
        let cfg = if fermi { presets::gtx_580() } else { presets::gtx_titan() };
        let txn = cfg.dram_transaction_bytes as u64;
        let dev = Device::new(cfg);
        let wide = dev.alloc((0..4096).map(|i| i as f64 * 0.5).collect::<Vec<_>>());
        let narrow = dev.alloc((0..4096u32).rev().collect::<Vec<_>>());
        let reads = dev.launch("gathers", 1, 32, &|blk| {
            blk.for_each_warp(&mut |warp| {
                assert_eq!(warp.gather(&wide, &idx, mask), gathered(&wide, &idx, mask));
                assert_eq!(warp.gather(&narrow, &idx, mask), gathered(&narrow, &idx, mask));
            });
        });
        assert_reads_match_model(&reads, &wide, &narrow, &idx, mask, txn);
        let (seg_v, ideal_v) = coalescing_model(&wide, &idx, mask, txn);
        let vals = [1.0f64; WARP];
        let writes = dev.launch("scatter", 1, 32, &|blk| {
            blk.for_each_warp(&mut |warp| warp.scatter(&wide, &idx, &vals, mask));
        });
        let c = &writes.counters;
        prop_assert_eq!(c.mem_transactions, seg_v);
        prop_assert_eq!(c.min_transactions, ideal_v);
        prop_assert_eq!(c.dram_write_bytes, seg_v * txn);
        prop_assert_eq!(c.dram_read_bytes, 0);
    }

    #[test]
    fn grouped_and_coalesced_reads_match_scalar_coalescing_model(
        g_shift in 0usize..=5,
        groups in idx_strategy(4096),
        (live, whole) in (0usize..=WARP, any::<bool>()),
        base in 0usize..(4096 - WARP),
        (mask, full) in (any::<u32>(), any::<bool>()),
    ) {
        // `gather_grouped` takes its closed form when the live lanes are
        // whole groups whose indices ascend (`idx_strategy`'s first
        // shape), and `read_coalesced` when the mask is full.
        let group_idx = &groups[..WARP >> g_shift];
        let grouped: [usize; WARP] = std::array::from_fn(|l| group_idx[l >> g_shift]);
        let live_mask = lane_mask(if whole { live >> g_shift << g_shift } else { live });
        let coalesced: [usize; WARP] = std::array::from_fn(|l| base + l);
        let mask = if full { u32::MAX } else { mask };
        for cfg in [presets::gtx_titan(), presets::gtx_580()] {
            let txn = cfg.dram_transaction_bytes as u64;
            let dev = Device::new(cfg);
            let wide = dev.alloc((0..4096).map(|i| i as f64 * 0.5).collect::<Vec<_>>());
            let narrow = dev.alloc((0..4096u32).rev().collect::<Vec<_>>());
            let r = dev.launch("grouped", 1, 32, &|blk| {
                blk.for_each_warp(&mut |warp| {
                    // Only active lanes are contractual: the closed form
                    // broadcasts each group's value to its inactive lanes.
                    let v = warp.gather_grouped(&wide, group_idx, g_shift, live_mask);
                    let w = warp.gather_grouped(&narrow, group_idx, g_shift, live_mask);
                    for l in (0..WARP).filter(|l| live_mask >> l & 1 == 1) {
                        assert_eq!(v[l], wide.as_slice()[grouped[l]], "lane {l}");
                        assert_eq!(w[l], narrow.as_slice()[grouped[l]], "lane {l}");
                    }
                });
            });
            assert_reads_match_model(&r, &wide, &narrow, &grouped, live_mask, txn);
            let r = dev.launch("coalesced", 1, 32, &|blk| {
                blk.for_each_warp(&mut |warp| {
                    let v = warp.read_coalesced(&wide, base, mask);
                    assert_eq!(v, gathered(&wide, &coalesced, mask));
                    let w = warp.read_coalesced(&narrow, base, mask);
                    assert_eq!(w, gathered(&narrow, &coalesced, mask));
                });
            });
            assert_reads_match_model(&r, &wide, &narrow, &coalesced, mask, txn);
        }
    }

    #[test]
    fn gather_tex_matches_scalar_cache_model(
        fermi in any::<bool>(),
        accesses in proptest::collection::vec((idx_strategy(4096), any::<u32>()), 1..6),
    ) {
        // One warp on one SM: its gathers, of an f64 and a u32 buffer in
        // turn, share that SM's cache, fresh at the launch.
        let cfg = if fermi { presets::gtx_580() } else { presets::gtx_titan() };
        let dev = Device::new(cfg.clone());
        let wide = dev.alloc((0..4096).map(|i| i as f64 * 0.5).collect::<Vec<_>>());
        let narrow = dev.alloc((0..4096u32).rev().collect::<Vec<_>>());
        let r = dev.launch("tex", 1, 32, &|blk| {
            blk.for_each_warp(&mut |warp| {
                for (idx, mask) in &accesses {
                    assert_eq!(warp.gather_tex(&wide, idx, *mask), gathered(&wide, idx, *mask));
                    assert_eq!(warp.gather_tex(&narrow, idx, *mask), gathered(&narrow, idx, *mask));
                }
            });
        });
        let mut cache = SetAssocCache::new(cfg.tex_cache_bytes, cfg.tex_line_bytes, cfg.tex_ways);
        let (mut hits, mut misses) = (0, 0);
        for (idx, mask) in &accesses {
            for (h, m) in [
                tex_model(&mut cache, &wide, idx, *mask),
                tex_model(&mut cache, &narrow, idx, *mask),
            ] {
                hits += h;
                misses += m;
            }
        }
        prop_assert_eq!(r.counters.tex_hits, hits, "hits");
        prop_assert_eq!(r.counters.tex_misses, misses, "misses");
        prop_assert_eq!(
            r.counters.dram_read_bytes,
            misses * cfg.tex_line_bytes as u64,
            "DRAM read bytes"
        );
    }

    #[test]
    fn gather2_matches_two_gathers(
        idx in idx_strategy(1024),
        mask in any::<u32>(),
    ) {
        let dev = Device::new(presets::gtx_titan());
        let a = dev.alloc((0..1024u32).collect::<Vec<_>>());
        let b = dev.alloc((0..1024).map(|i| i as f64 * 0.5).collect::<Vec<_>>());
        // Kernel closures are `Fn` — results come back through device
        // buffers (written full-mask so both launches charge alike).
        let out_a = dev.alloc_zeroed::<u32>(WARP);
        let out_b = dev.alloc_zeroed::<f64>(WARP);
        let r_fused = dev.launch("fused", 1, 32, &|blk| {
            blk.for_each_warp(&mut |warp| {
                let (va, vb) = warp.gather2(&a, &b, &idx, mask);
                warp.write_coalesced(&out_a, 0, &va, u32::MAX);
                warp.write_coalesced(&out_b, 0, &vb, u32::MAX);
            });
        });
        let fused = (out_a.as_slice().to_vec(), out_b.as_slice().to_vec());
        let r_split = dev.launch("split", 1, 32, &|blk| {
            blk.for_each_warp(&mut |warp| {
                let va = warp.gather(&a, &idx, mask);
                let vb = warp.gather(&b, &idx, mask);
                warp.write_coalesced(&out_a, 0, &va, u32::MAX);
                warp.write_coalesced(&out_b, 0, &vb, u32::MAX);
            });
        });
        let split = (out_a.as_slice().to_vec(), out_b.as_slice().to_vec());
        prop_assert_eq!(fused, split, "values");
        assert_identical(&r_fused, &r_split, "gather2 vs two gathers");
    }

    #[test]
    fn gather_grouped_matches_expanded_gather(
        g_shift in 0usize..=5,
        groups in proptest::collection::vec(0usize..512, WARP),
        live in 0usize..=WARP,
    ) {
        let n_groups = WARP >> g_shift;
        let mut group_idx = vec![0usize; n_groups];
        group_idx.copy_from_slice(&groups[..n_groups]);
        // Both the grouped fast-path shape (prefix of whole groups) and
        // ragged masks that force the expansion fallback.
        let mask = lane_mask(live);
        let dev = Device::new(presets::gtx_titan());
        let buf = dev.alloc((0..512u32).collect::<Vec<_>>());
        let out = dev.alloc_zeroed::<u32>(WARP);
        let r_grouped = dev.launch("grouped", 1, 32, &|blk| {
            blk.for_each_warp(&mut |warp| {
                let v = warp.gather_grouped(&buf, &group_idx, g_shift, mask);
                warp.write_coalesced(&out, 0, &v, u32::MAX);
            });
        });
        let grouped = out.as_slice().to_vec();
        let idx: [usize; WARP] = std::array::from_fn(|l| group_idx[l >> g_shift]);
        let r_plain = dev.launch("plain", 1, 32, &|blk| {
            blk.for_each_warp(&mut |warp| {
                let v = warp.gather(&buf, &idx, mask);
                warp.write_coalesced(&out, 0, &v, u32::MAX);
            });
        });
        let plain = out.as_slice().to_vec();
        // Inactive lanes of the grouped fast path broadcast their group's
        // value where plain gather leaves T::default(); only active lanes
        // are contractual.
        for l in 0..WARP {
            if mask >> l & 1 == 1 {
                prop_assert_eq!(grouped[l], plain[l], "lane {}", l);
            }
        }
        assert_identical(&r_grouped, &r_plain, "grouped vs expanded");
    }

    #[test]
    fn read_coalesced_matches_gather(
        base in 0usize..(4096 - WARP),
        mask in any::<u32>(),
    ) {
        let dev = Device::new(presets::gtx_titan());
        let buf = dev.alloc((0..4096).map(|i| i as f64).collect::<Vec<_>>());
        let out = dev.alloc_zeroed::<f64>(WARP);
        let r_fast = dev.launch("coalesced", 1, 32, &|blk| {
            blk.for_each_warp(&mut |warp| {
                let v = warp.read_coalesced(&buf, base, mask);
                warp.write_coalesced(&out, 0, &v, u32::MAX);
            });
        });
        let fast = out.as_slice().to_vec();
        let mut idx = [0usize; WARP];
        for (l, slot) in idx.iter_mut().enumerate() {
            if mask >> l & 1 == 1 {
                *slot = base + l;
            }
        }
        let r_plain = dev.launch("gather", 1, 32, &|blk| {
            blk.for_each_warp(&mut |warp| {
                let v = warp.gather(&buf, &idx, mask);
                warp.write_coalesced(&out, 0, &v, u32::MAX);
            });
        });
        let plain = out.as_slice().to_vec();
        prop_assert_eq!(fast, plain, "values");
        assert_identical(&r_fast, &r_plain, "read_coalesced vs gather");
    }

    #[test]
    fn scatter_matches_scalar_model(
        idx in idx_strategy(256),
        mask in any::<u32>(),
    ) {
        // Last-writer-wins at conflicting indices, untouched elsewhere.
        let dev = Device::new(presets::gtx_titan());
        let dst = dev.alloc_zeroed::<f64>(256);
        let vals: [f64; WARP] = std::array::from_fn(|l| l as f64 + 1.0);
        dev.launch("scatter", 1, 32, &|blk| {
            blk.for_each_warp(&mut |warp| {
                warp.scatter(&dst, &idx, &vals, mask);
            });
        });
        let mut want = vec![0f64; 256];
        for l in 0..WARP {
            if mask >> l & 1 == 1 {
                want[idx[l]] = vals[l];
            }
        }
        prop_assert_eq!(dst.as_slice(), &want[..]);
    }
}

/// Out-of-bounds active indices must still panic (the fast paths hoist
/// the check to the run maximum — it must not be skipped).
#[test]
#[should_panic(expected = "out of bounds")]
fn gather_oob_panics() {
    let dev = Device::new(presets::gtx_titan());
    let buf = dev.alloc(vec![0u32; 8]);
    let mut idx = [0usize; WARP];
    idx[17] = 8; // one past the end, unsorted position
    dev.launch("oob", 1, 32, &|blk| {
        blk.for_each_warp(&mut |warp| {
            warp.gather(&buf, &idx, u32::MAX);
        });
    });
}

#[test]
#[should_panic(expected = "out of bounds")]
fn scatter_oob_panics() {
    let dev = Device::new(presets::gtx_titan());
    let buf = dev.alloc(vec![0u32; 8]);
    let mut idx = [0usize; WARP];
    idx[3] = 1000;
    let vals = [1u32; WARP];
    dev.launch("oob", 1, 32, &|blk| {
        blk.for_each_warp(&mut |warp| {
            warp.scatter(&buf, &idx, &vals, u32::MAX);
        });
    });
}
