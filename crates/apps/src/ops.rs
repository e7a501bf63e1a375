//! Elementwise device kernels used by the iterative solvers.
//!
//! Each is a trivially parallel, bandwidth-bound kernel; they exist so
//! the modeled application times include *all* device work, not just the
//! SpMV (the paper's applications also pay for their vector updates and
//! convergence checks on the GPU).

use gpu_sim::{lane_mask, Device, DeviceBuffer, RunReport, WARP};
use sparse_formats::Scalar;

/// `out[i] = a * x[i] + b` — the PageRank/RWR update
/// (`PR = d * (Aᵀ PR) + (1-d)/n`).
pub fn scale_add<T: Scalar>(
    dev: &Device,
    x: &DeviceBuffer<T>,
    a: T,
    b: T,
    out: &DeviceBuffer<T>,
) -> RunReport {
    let n = x.len();
    assert_eq!(out.len(), n, "scale_add length mismatch");
    let block = 256;
    let grid = n.div_ceil(block).max(1);
    dev.launch("scale_add", grid, block, &|blk| {
        blk.for_each_warp(&mut |warp| {
            let base = warp.first_thread();
            if base >= n {
                return;
            }
            let mask = lane_mask(n - base);
            let xs = warp.read_coalesced(x, base, mask);
            let mut vals = [T::ZERO; WARP];
            for lane in 0..WARP {
                if mask >> lane & 1 == 1 {
                    vals[lane] = a.mul_add(xs[lane], b);
                }
            }
            warp.charge_fma(mask);
            warp.write_coalesced(out, base, &vals, mask);
        });
    })
}

/// Squared Euclidean distance `‖a - b‖₂²` via per-warp reduction and one
/// atomic per warp. Returns `(distance², report)`. The host reads the
/// scalar result back, so the report includes the D2H copy.
pub fn l2_distance_sq<T: Scalar>(
    dev: &Device,
    a: &DeviceBuffer<T>,
    b: &DeviceBuffer<T>,
) -> (f64, RunReport) {
    let n = a.len();
    assert_eq!(b.len(), n, "l2_distance length mismatch");
    let acc = dev.alloc(vec![0.0f64]);
    let block = 256;
    let grid = n.div_ceil(block).max(1);
    let report = dev.launch("l2_distance", grid, block, &|blk| {
        blk.for_each_warp(&mut |warp| {
            let base = warp.first_thread();
            if base >= n {
                return;
            }
            let mask = lane_mask(n - base);
            let av = warp.read_coalesced(a, base, mask);
            let bv = warp.read_coalesced(b, base, mask);
            let mut d2 = [0.0f64; WARP];
            for lane in 0..WARP {
                if mask >> lane & 1 == 1 {
                    let d = av[lane].to_f64() - bv[lane].to_f64();
                    d2[lane] = d * d;
                }
            }
            warp.charge_alu(2);
            warp.charge_flops(2 * u64::from(mask.count_ones()));
            let red = warp.segmented_reduce_sum(&d2, WARP);
            let idx = [0usize; WARP];
            warp.atomic_rmw(&acc, &idx, &red, 1, |x, y| x + y);
        });
    });
    let report = report.then(&dev.record_dtoh("l2_distance_d2h", 8));
    (acc.as_slice()[0], report)
}

/// L1 norm `Σ |v[i]|` (power-iteration renormalization). The scalar is
/// read back to the host, so the report includes the D2H copy.
pub fn l1_norm<T: Scalar>(dev: &Device, v: &DeviceBuffer<T>) -> (f64, RunReport) {
    let n = v.len();
    let acc = dev.alloc(vec![0.0f64]);
    let block = 256;
    let grid = n.div_ceil(block).max(1);
    let report = dev.launch("l1_norm", grid, block, &|blk| {
        blk.for_each_warp(&mut |warp| {
            let base = warp.first_thread();
            if base >= n {
                return;
            }
            let mask = lane_mask(n - base);
            let xs = warp.read_coalesced(v, base, mask);
            let mut abs = [0.0f64; WARP];
            for lane in 0..WARP {
                if mask >> lane & 1 == 1 {
                    abs[lane] = xs[lane].to_f64().abs();
                }
            }
            warp.charge_alu(1);
            warp.charge_flops(u64::from(mask.count_ones()));
            let red = warp.segmented_reduce_sum(&abs, WARP);
            let idx = [0usize; WARP];
            warp.atomic_rmw(&acc, &idx, &red, 1, |x, y| x + y);
        });
    });
    let report = report.then(&dev.record_dtoh("l1_norm_d2h", 8));
    (acc.as_slice()[0], report)
}

/// L2 norms of the two halves of a `2n`-vector in one pass (HITS
/// normalizes authorities and hubs independently; joint normalization of
/// the bipartite coupling operator oscillates with period 2).
pub fn l2_norm_halves<T: Scalar>(dev: &Device, v: &DeviceBuffer<T>) -> (f64, f64, RunReport) {
    let n2 = v.len();
    assert_eq!(n2 % 2, 0, "l2_norm_halves needs an even-length vector");
    let half = n2 / 2;
    let acc = dev.alloc(vec![0.0f64; 2]);
    let block = 256;
    let grid = n2.div_ceil(block).max(1);
    let report = dev.launch("l2_norm_halves", grid, block, &|blk| {
        blk.for_each_warp(&mut |warp| {
            let base = warp.first_thread();
            if base >= n2 {
                return;
            }
            let mask = lane_mask(n2 - base);
            let xs = warp.read_coalesced(v, base, mask);
            let mut sq = [0.0f64; WARP];
            for lane in 0..WARP {
                if mask >> lane & 1 == 1 {
                    sq[lane] = xs[lane].to_f64() * xs[lane].to_f64();
                }
            }
            warp.charge_alu(1);
            warp.charge_flops(u64::from(mask.count_ones()));
            // a warp never straddles the half boundary when `half` is a
            // multiple of 32; handle the general case lane-by-lane
            let mut idx = [0usize; WARP];
            for (lane, slot) in idx.iter_mut().enumerate() {
                *slot = usize::from(base + lane >= half);
            }
            let red_lo = {
                let mut lo = sq;
                for lane in 0..WARP {
                    if idx[lane] == 1 {
                        lo[lane] = 0.0;
                    }
                }
                warp.segmented_reduce_sum(&lo, WARP)
            };
            let red_hi = {
                let mut hi = sq;
                for lane in 0..WARP {
                    if idx[lane] == 0 {
                        hi[lane] = 0.0;
                    }
                }
                warp.segmented_reduce_sum(&hi, WARP)
            };
            let zeros = [0usize; WARP];
            warp.atomic_rmw(&acc, &zeros, &red_lo, 1, |a, b| a + b);
            let ones = [1usize; WARP];
            warp.atomic_rmw(&acc, &ones, &red_hi, 1, |a, b| a + b);
        });
    });
    // both norms come back to the host for the renormalization factors
    let report = report.then(&dev.record_dtoh("l2_norm_halves_d2h", 16));
    (acc.as_slice()[0].sqrt(), acc.as_slice()[1].sqrt(), report)
}

/// Scale the two halves of a `2n`-vector by independent factors.
pub fn scale_halves<T: Scalar>(dev: &Device, v: &DeviceBuffer<T>, s_lo: T, s_hi: T) -> RunReport {
    let n2 = v.len();
    assert_eq!(n2 % 2, 0, "scale_halves needs an even-length vector");
    let half = n2 / 2;
    let block = 256;
    let grid = n2.div_ceil(block).max(1);
    dev.launch("scale_halves", grid, block, &|blk| {
        blk.for_each_warp(&mut |warp| {
            let base = warp.first_thread();
            if base >= n2 {
                return;
            }
            let mask = lane_mask(n2 - base);
            let xs = warp.read_coalesced(v, base, mask);
            let mut vals = [T::ZERO; WARP];
            for lane in 0..WARP {
                if mask >> lane & 1 == 1 {
                    let s = if base + lane < half { s_lo } else { s_hi };
                    vals[lane] = xs[lane] * s;
                }
            }
            warp.charge_alu(2);
            warp.charge_flops(u64::from(mask.count_ones()));
            warp.write_coalesced(v, base, &vals, mask);
        });
    })
}

/// In-place scale: `v[i] *= s`.
pub fn scale_inplace<T: Scalar>(dev: &Device, v: &DeviceBuffer<T>, s: T) -> RunReport {
    let n = v.len();
    let block = 256;
    let grid = n.div_ceil(block).max(1);
    dev.launch("scale", grid, block, &|blk| {
        blk.for_each_warp(&mut |warp| {
            let base = warp.first_thread();
            if base >= n {
                return;
            }
            let mask = lane_mask(n - base);
            let xs = warp.read_coalesced(v, base, mask);
            let mut vals = [T::ZERO; WARP];
            for lane in 0..WARP {
                if mask >> lane & 1 == 1 {
                    vals[lane] = xs[lane] * s;
                }
            }
            warp.charge_alu(1);
            warp.charge_flops(u64::from(mask.count_ones()));
            warp.write_coalesced(v, base, &vals, mask);
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::presets;

    #[test]
    fn scale_add_computes_affine_map() {
        let dev = Device::new(presets::gtx_titan());
        let x = dev.alloc(vec![1.0f64, 2.0, 3.0]);
        let out = dev.alloc_zeroed::<f64>(3);
        scale_add(&dev, &x, 2.0, 0.5, &out);
        assert_eq!(out.as_slice(), &[2.5, 4.5, 6.5]);
    }

    /// The `rwr_update` kernel with PageRank's uniform restart computes
    /// `scale_add`'s iterate bit for bit, so a PageRank iteration can run
    /// through any format's `spmm_affine`.
    #[test]
    fn uniform_restart_update_is_scale_add() {
        use spmv_kernels::epilogue::rwr_update_multi;
        use spmv_kernels::{Affine, Restart};
        let dev = Device::new(presets::gtx_titan());
        for n in [1usize, 31, 33, 1000] {
            let y: Vec<f64> = (0..n).map(|i| ((i * 37) % 101) as f64 / 97.0).collect();
            let y = dev.alloc(y);
            let (d, teleport) = (0.85, 0.15 / n as f64);
            let want = dev.alloc_zeroed::<f64>(n);
            scale_add(&dev, &y, d, teleport, &want);
            let got = dev.alloc(vec![f64::NAN; n]);
            let affine = Affine {
                c: &[d],
                restart: &[Restart::Uniform(teleport)],
            };
            let r = rwr_update_multi(&dev, &[&y], &affine, &[&got], None);
            assert_eq!(r.launches, 1);
            let bits = |b: &DeviceBuffer<f64>| -> Vec<u64> {
                b.as_slice().iter().map(|x| x.to_bits()).collect()
            };
            assert_eq!(bits(&got), bits(&want), "n {n}");
        }
    }

    #[test]
    fn l2_distance_matches_host() {
        let dev = Device::new(presets::gtx_titan());
        let n = 1000;
        let av: Vec<f64> = (0..n).map(|i| i as f64 * 0.25).collect();
        let bv: Vec<f64> = (0..n).map(|i| i as f64 * 0.25 + 0.5).collect();
        let a = dev.alloc(av);
        let b = dev.alloc(bv);
        let (d2, _) = l2_distance_sq(&dev, &a, &b);
        assert!((d2 - 0.25 * n as f64).abs() < 1e-9);
    }

    #[test]
    fn l1_norm_matches_host() {
        let dev = Device::new(presets::gtx_titan());
        let v = dev.alloc(vec![-1.0f32, 2.0, -3.0, 4.0]);
        let (n1, _) = l1_norm(&dev, &v);
        assert!((n1 - 10.0).abs() < 1e-6);
    }

    #[test]
    fn scale_inplace_multiplies() {
        let dev = Device::new(presets::gtx_titan());
        let v = dev.alloc(vec![1.0f64; 100]);
        scale_inplace(&dev, &v, 0.5);
        assert!(v.as_slice().iter().all(|&x| x == 0.5));
    }
}
