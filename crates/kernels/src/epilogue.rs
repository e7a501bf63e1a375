//! The affine epilogue of a batched SpMM wave, and its unfused form.
//!
//! An iterative graph application runs one SpMV and then one vector
//! update per iteration. For PageRank (Algorithm 5) and Random Walk with
//! Restart (Eq. 8) that update is affine: `out_v[row] = c_v·(A·x_v)[row]`
//! plus a restart term ([`Restart`]), at every row for PageRank's
//! teleport and at query `v`'s seed for RWR.
//! [`crate::GpuSpmv::spmm_affine`] runs a batch of such iterations; its
//! default — [`spmm_then_update`], for every format — is two launches:
//! the batched SpMM into temporaries, then the [`rwr_update_multi`]
//! kernel. An engine whose kernels finalize every row themselves (ACSR's
//! launch group) applies the epilogue in the SpMM launch group instead,
//! with the same arithmetic ([`Affine::apply`], [`squared_diffs`]), so
//! the iterates are bit-identical either way.

use crate::GpuSpmv;
use gpu_sim::{lane_mask, tree_reduce_sum, Device, DeviceBuffer, RunReport, WARP};
use sparse_formats::Scalar;

/// The restart term of one query's affine epilogue.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Restart<T> {
    /// Random Walk with Restart (Eq. 8): `c·y`, then `+= mass` at the
    /// seed `row` only.
    Seed {
        /// The query's seed row.
        row: usize,
        /// The restart mass `1 − c`.
        mass: T,
    },
    /// PageRank's teleport (Algorithm 5): `c.mul_add(y, t)` at every
    /// row, the `scale_add` kernel's arithmetic.
    Uniform(T),
}

/// The per-query coefficients of an affine epilogue, one entry per
/// query of the batch.
#[derive(Clone, Copy, Debug)]
pub struct Affine<'a, T> {
    /// The SpMV scale `c_v`.
    pub c: &'a [T],
    /// The restart term of each query.
    pub restart: &'a [Restart<T>],
}

impl<T: Scalar> Affine<'_, T> {
    /// Query `v`'s epilogue at `row` on the SpMV value `y`. Every path
    /// computes an iterate through this one function.
    #[inline]
    pub fn apply(&self, v: usize, row: usize, y: T) -> T {
        match self.restart[v] {
            Restart::Seed { row: seed, mass } => {
                let mut out = self.c[v] * y;
                if row == seed {
                    out += mass;
                }
                out
            }
            Restart::Uniform(t) => self.c[v].mul_add(y, t),
        }
    }

    /// Panics unless both slices have one entry per query of a batch of
    /// `k`.
    pub fn check(&self, k: usize) {
        assert!(
            k == self.c.len() && k == self.restart.len(),
            "batch slice length mismatch"
        );
    }
}

/// Convergence partials of a wave: `k × per_query` values, query-major.
/// Each is the sum of `(out_v − x_v)²` over the rows one block of the
/// wave finalized, so a query's partials add up to `‖out_v − x_v‖²`.
pub struct Partials {
    /// The device buffer the wave wrote.
    pub buf: DeviceBuffer<f64>,
    /// Partials per query: one per 32-row block on the unfused path, one
    /// per row-finalizing block of the launch group on a fused one.
    pub per_query: usize,
}

impl Partials {
    /// Query `v`'s partials, in the order the wave's blocks wrote them.
    pub fn query(&self, v: usize) -> &[f64] {
        &self.buf.as_slice()[v * self.per_query..(v + 1) * self.per_query]
    }
}

/// What [`crate::GpuSpmv::spmm_affine`] produced.
pub struct AffineWave<T> {
    /// Each query's next iterate, allocated on the device by the wave.
    pub outs: Vec<DeviceBuffer<T>>,
    /// The merged modeled report of the wave's launches.
    pub report: RunReport,
    /// The convergence partials, when the caller asked for them.
    pub partials: Option<Partials>,
}

/// The default [`crate::GpuSpmv::spmm_affine`]: `spmv_multi` into
/// temporaries, then one [`rwr_update_multi`] launch that applies the
/// epilogue and, with `partials`, writes one partial per 32-row block.
pub fn spmm_then_update<T: Scalar, E: GpuSpmv<T> + ?Sized>(
    engine: &E,
    dev: &Device,
    xs: &[&DeviceBuffer<T>],
    affine: &Affine<'_, T>,
    partials: bool,
) -> AffineWave<T> {
    let (k, n) = (xs.len(), engine.rows());
    affine.check(k);
    assert!(
        !partials || engine.cols() == n,
        "convergence partials compare each output with its input: the operator must be square"
    );
    let per_query = n.div_ceil(WARP);
    let buf = partials.then(|| dev.alloc_zeroed::<f64>(k * per_query));
    let tmps: Vec<_> = (0..k).map(|_| dev.alloc_zeroed::<T>(n)).collect();
    let tr: Vec<_> = tmps.iter().collect();
    let report = engine.spmv_multi(dev, xs, &tr);
    let outs: Vec<_> = (0..k).map(|_| dev.alloc_zeroed::<T>(n)).collect();
    let or: Vec<_> = outs.iter().collect();
    let conv = buf
        .as_ref()
        .map(|partials| Convergence { prev: xs, partials });
    let report = report.then(&rwr_update_multi(dev, &tr, affine, &or, conv.as_ref()));
    AffineWave {
        outs,
        report,
        partials: buf.map(|buf| Partials { buf, per_query }),
    }
}

/// The optional convergence output of [`rwr_update_multi`]: the update
/// also reads each query's current iterate and writes one
/// `‖next − r‖²` partial per warp, so a caller that keeps its iterates
/// on the device reads back only `k × ⌈n/32⌉` partials per iteration.
pub struct Convergence<'a, T> {
    /// Each query's current iterate `r`, parallel to the update's
    /// `outs` (which receive the next iterate).
    pub prev: &'a [&'a DeviceBuffer<T>],
    /// `k × ⌈n/32⌉` partials, query-major: `partials[v·⌈n/32⌉ + b]` is
    /// the warp tree sum of `(next − r)²` (in `f64`) over rows
    /// `32b .. 32b + 32` of query `v`. [`convergence_partials`] computes
    /// the same values on the host.
    pub partials: &'a DeviceBuffer<f64>,
}

/// The affine update kernel, batched: one launch applies
/// `outs[v][row] = affine.apply(v, row, xs[v][row])` for every query of
/// the batch (a single query is the k = 1 case) — RWR's restart at the
/// seed or PageRank's teleport at every row. Each vector's arithmetic
/// is the same at any k, so a query's trajectory is independent of the
/// batch it rides in. With `conv`, the same launch also writes the
/// convergence partials; without it, the launch reads and writes only
/// `xs` and `outs`.
pub fn rwr_update_multi<T: Scalar>(
    dev: &Device,
    xs: &[&DeviceBuffer<T>],
    affine: &Affine<'_, T>,
    outs: &[&DeviceBuffer<T>],
    conv: Option<&Convergence<'_, T>>,
) -> RunReport {
    let k = xs.len();
    affine.check(k);
    assert_eq!(k, outs.len(), "batch slice length mismatch");
    if k == 0 {
        return RunReport::default();
    }
    let n = xs[0].len();
    let blocks = n.div_ceil(WARP);
    if let Some(conv) = conv {
        assert_eq!(conv.prev.len(), k, "one previous iterate per query");
        assert_eq!(conv.partials.len(), k * blocks, "k × ⌈n/32⌉ partials");
    }
    let block = 256;
    let grid = n.div_ceil(block).max(1);
    dev.launch("rwr_update", grid, block, &|blk| {
        blk.for_each_warp(&mut |warp| {
            let base = warp.first_thread();
            if base >= n {
                return;
            }
            let mask = lane_mask(n - base);
            for v in 0..k {
                let xv = warp.read_coalesced(xs[v], base, mask);
                let mut vals = [T::ZERO; WARP];
                for lane in 0..WARP {
                    if mask >> lane & 1 == 1 {
                        vals[lane] = affine.apply(v, base + lane, xv[lane]);
                    }
                }
                warp.charge_alu(2);
                warp.charge_flops(2 * u64::from(mask.count_ones()));
                warp.write_coalesced(outs[v], base, &vals, mask);
                if let Some(conv) = conv {
                    let rv = warp.read_coalesced(conv.prev[v], base, mask);
                    let d2 = squared_diffs(&vals, &rv, mask);
                    warp.charge_alu(2);
                    warp.charge_flops(2 * u64::from(mask.count_ones()));
                    let red = warp.segmented_reduce_sum(&d2, WARP);
                    warp.write_coalesced(conv.partials, v * blocks + base / WARP, &red, 1);
                }
            }
        });
    })
}

/// Lane-wise `(next − prev)²` in `f64`, the convergence term of one
/// row; lanes outside `mask` are 0.
pub fn squared_diffs<T: Scalar>(next: &[T; WARP], prev: &[T; WARP], mask: u32) -> [f64; WARP] {
    let mut d2 = [0.0f64; WARP];
    for lane in 0..WARP {
        if mask >> lane & 1 == 1 {
            let d = next[lane].to_f64() - prev[lane].to_f64();
            d2[lane] = d * d;
        }
    }
    d2
}

/// The convergence partials of one query computed on the host, bit for
/// bit what [`rwr_update_multi`]'s [`Convergence`] output writes: per
/// 32-row block, the warp tree sum ([`tree_reduce_sum`]) of
/// `(next − prev)²`: the host reference the kernel's output is tested
/// against.
pub fn convergence_partials<T: Scalar>(next: &[T], prev: &[T]) -> Vec<f64> {
    assert_eq!(next.len(), prev.len(), "iterate length mismatch");
    next.chunks(WARP)
        .zip(prev.chunks(WARP))
        .map(|(a, b)| {
            let (mut next, mut prev) = ([T::ZERO; WARP], [T::ZERO; WARP]);
            next[..a.len()].copy_from_slice(a);
            prev[..b.len()].copy_from_slice(b);
            tree_reduce_sum(&squared_diffs(&next, &prev, lane_mask(a.len())), WARP)[0]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr_vector::CsrVector;
    use crate::testutil::{test_matrix, test_x};
    use crate::DevCsr;
    use gpu_sim::presets;

    /// RWR restarts with mass 0.15 at each seed.
    fn seed_restarts(seeds: &[usize]) -> Vec<Restart<f64>> {
        seeds
            .iter()
            .map(|&row| Restart::Seed { row, mass: 0.15 })
            .collect()
    }

    #[test]
    fn batched_update_matches_single_bitwise() {
        let dev = Device::new(presets::gtx_titan());
        let n = 300usize;
        let k = 3usize;
        let xs_host: Vec<Vec<f64>> = (0..k)
            .map(|v| (0..n).map(|i| 0.5 + ((i + v) % 11) as f64 * 0.3).collect())
            .collect();
        let xs: Vec<_> = xs_host.iter().map(|x| dev.alloc(x.clone())).collect();
        let c = [0.85, 0.5, 0.99];
        let restart = [
            Restart::Seed { row: 0, mass: 0.15 },
            Restart::Seed {
                row: 299,
                mass: 0.5,
            },
            Restart::Uniform(0.01 / n as f64),
        ];
        let singles: Vec<_> = (0..k)
            .map(|v| {
                let out = dev.alloc_zeroed::<f64>(n);
                let affine = Affine {
                    c: &c[v..v + 1],
                    restart: &restart[v..v + 1],
                };
                rwr_update_multi(&dev, &[&xs[v]], &affine, &[&out], None);
                out
            })
            .collect();
        let outs: Vec<_> = (0..k).map(|_| dev.alloc_zeroed::<f64>(n)).collect();
        let xr: Vec<_> = xs.iter().collect();
        let or: Vec<_> = outs.iter().collect();
        let affine = Affine {
            c: &c,
            restart: &restart,
        };
        let r = rwr_update_multi(&dev, &xr, &affine, &or, None);
        assert_eq!(r.launches, 1);
        for v in 0..k {
            for (a, b) in singles[v].as_slice().iter().zip(outs[v].as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "vector {v}");
            }
        }
    }

    /// The fused update's per-warp partials equal the host helper's bit
    /// for bit, and its next iterates equal a launch without the
    /// convergence output, at every block-boundary shape.
    #[test]
    fn fused_convergence_partials_match_host_helper_bitwise() {
        let dev = Device::new(presets::gtx_titan());
        for n in [0usize, 1, 31, 32, 33, 1000] {
            for k in [1usize, 3] {
                let vec = |salt: usize| -> Vec<f64> {
                    (0..n)
                        .map(|i| ((i * 7 + salt * 13) % 17) as f64 / 7.0 - 0.9)
                        .collect()
                };
                let xs: Vec<_> = (0..k).map(|v| dev.alloc(vec(v))).collect();
                let prevs: Vec<_> = (0..k).map(|v| dev.alloc(vec(v + 5))).collect();
                let c = vec![0.85; k];
                let restart = seed_restarts(&(0..k).map(|v| v % n.max(1)).collect::<Vec<_>>());
                let affine = Affine {
                    c: &c,
                    restart: &restart,
                };
                let plain: Vec<_> = (0..k).map(|_| dev.alloc_zeroed::<f64>(n)).collect();
                let fused: Vec<_> = (0..k).map(|_| dev.alloc(vec![f64::NAN; n])).collect();
                let blocks = n.div_ceil(WARP);
                let partials = dev.alloc(vec![f64::NAN; k * blocks]);
                let xr: Vec<_> = xs.iter().collect();
                let pr: Vec<_> = prevs.iter().collect();
                let plain_r: Vec<_> = plain.iter().collect();
                let fused_r: Vec<_> = fused.iter().collect();
                rwr_update_multi(&dev, &xr, &affine, &plain_r, None);
                let conv = Convergence {
                    prev: &pr,
                    partials: &partials,
                };
                let r = rwr_update_multi(&dev, &xr, &affine, &fused_r, Some(&conv));
                assert_eq!(r.launches, 1);
                for v in 0..k {
                    let (a, b) = (plain[v].as_slice(), fused[v].as_slice());
                    assert!(
                        a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
                        "n {n} k {k} vector {v}: next iterates differ"
                    );
                    let host = convergence_partials(b, prevs[v].as_slice());
                    let dev_p = &partials.as_slice()[v * blocks..(v + 1) * blocks];
                    assert_eq!(host.len(), blocks);
                    assert!(
                        host.iter()
                            .zip(dev_p)
                            .all(|(x, y)| x.to_bits() == y.to_bits()),
                        "n {n} k {k} vector {v}: partials {host:?} vs {dev_p:?}"
                    );
                    let seq: f64 = b
                        .iter()
                        .zip(prevs[v].as_slice())
                        .map(|(x, y)| (x - y) * (x - y))
                        .sum();
                    let tree: f64 = dev_p.iter().sum();
                    assert!(
                        (tree - seq).abs() <= 1e-12 * seq.max(1.0),
                        "n {n}: {tree} vs {seq}"
                    );
                }
            }
        }
    }

    /// The convergence output adds to the launch only its own traffic:
    /// one more iterate read and one partial written per warp.
    #[test]
    fn convergence_output_reads_prev_and_writes_one_partial_per_warp() {
        let dev = Device::new(presets::gtx_titan());
        let n = 1000;
        let x = dev.alloc(vec![0.5f64; n]);
        let prev = dev.alloc(vec![0.25f64; n]);
        let out = dev.alloc_zeroed::<f64>(n);
        let partials = dev.alloc_zeroed::<f64>(n.div_ceil(WARP));
        let restart = seed_restarts(&[3]);
        let affine = Affine {
            c: &[0.85],
            restart: &restart,
        };
        let plain = rwr_update_multi(&dev, &[&x], &affine, &[&out], None);
        let conv = Convergence {
            prev: &[&prev],
            partials: &partials,
        };
        let fused = rwr_update_multi(&dev, &[&x], &affine, &[&out], Some(&conv));
        let (p, f) = (plain.counters, fused.counters);
        assert!(f.dram_read_bytes >= p.dram_read_bytes + (n * 8) as u64);
        assert!(f.dram_write_bytes > p.dram_write_bytes);
        assert!(f.warp_instructions > p.warp_instructions);
        assert_eq!(fused.launches, plain.launches);
    }

    /// The default wave is exactly `spmv_multi` into temporaries plus
    /// one `rwr_update` launch with its 32-row-block partials: same
    /// iterates, same partials, same report.
    #[test]
    fn default_wave_is_spmm_then_update() {
        let dev = Device::new(presets::gtx_titan());
        let m = test_matrix(300, 41);
        let engine = CsrVector::new(DevCsr::upload(&dev, &m));
        let xs: Vec<_> = (0..3)
            .map(|v| {
                let mut x = test_x::<f64>(300);
                x.rotate_left(v * 7);
                dev.alloc(x)
            })
            .collect();
        let xr: Vec<_> = xs.iter().collect();
        let c = [0.85; 3];
        let restart = seed_restarts(&[0, 150, 299]);
        let affine = Affine {
            c: &c,
            restart: &restart,
        };
        let wave = engine.spmm_affine(&dev, &xr, &affine, true);
        let partials = wave.partials.as_ref().unwrap();
        assert_eq!(partials.per_query, 300usize.div_ceil(WARP));

        let direct_partials = dev.alloc_zeroed::<f64>(3 * partials.per_query);
        let tmps: Vec<_> = (0..3).map(|_| dev.alloc_zeroed::<f64>(300)).collect();
        let tr: Vec<_> = tmps.iter().collect();
        let spmm = engine.spmv_multi(&dev, &xr, &tr);
        let outs: Vec<_> = (0..3).map(|_| dev.alloc_zeroed::<f64>(300)).collect();
        let or: Vec<_> = outs.iter().collect();
        let conv = Convergence {
            prev: &xr,
            partials: &direct_partials,
        };
        let update = rwr_update_multi(&dev, &tr, &affine, &or, Some(&conv));
        let direct = spmm.then(&update);
        assert_eq!(wave.report.launches, direct.launches);
        assert_eq!(wave.report.counters, direct.counters);
        assert_eq!(wave.report.time_s.to_bits(), direct.time_s.to_bits());
        for v in 0..3 {
            assert_eq!(wave.outs[v].as_slice(), outs[v].as_slice(), "query {v}");
            let host = convergence_partials(outs[v].as_slice(), xs[v].as_slice());
            assert_eq!(partials.query(v), &host[..], "query {v}");
        }

        let plain = engine.spmm_affine(&dev, &xr, &affine, false);
        assert!(plain.partials.is_none());
        assert_eq!(plain.outs[2].as_slice(), outs[2].as_slice());
        let none = Affine::<f64> {
            c: &[],
            restart: &[],
        };
        let empty = engine.spmm_affine(&dev, &[], &none, true);
        assert_eq!(empty.report.launches, 0, "k = 0 launches nothing");
        assert!(empty.outs.is_empty());
    }
}
