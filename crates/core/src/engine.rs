//! The ACSR driver (Algorithm 1).
//!
//! On construction (the "first iteration" of Algorithm 1) the engine bins
//! the rows, uploads per-bin row lists, and splits bins into G2
//! (bin-specific kernels) and G1 (row-specific dynamic grids, `RowMax`-
//! capped). Every SpMV then launches, in one launch group whose kernels
//! each serve the whole batch (a single-vector `spmv` is the k = 1 case
//! of `spmv_multi`):
//!
//! 1. a zero-scatter over empty rows and atomically-accumulated rows,
//! 2. `acsr_bins`, one grid holding every non-empty G2 bin's
//!    bin-specific kernel: the bins' grids end to end, each block running
//!    its own bin's thread-group width (Algorithm 2),
//! 3. the fallback wide-bin kernel for `RowMax` overflow rows,
//! 4. the long-tail pass — DP parent (Alg. 3) or §VIII static kernel,
//!    plus, in a fused DP wave, the kernel that finalizes the G1 rows.
//!
//! Algorithm 1 launches one kernel per G2 bin on its own stream; the one
//! grid does the same work, block for block and SM for SM, for one
//! launch instead of one per bin (DESIGN §8 item 11).
//!
//! After a dynamic update ([`crate::update`]) only the cheap re-binning
//! scan repeats — the matrix data never moves, which is the paper's whole
//! argument for dynamic graphs.

use crate::binning::{BinStats, Binning, RowMove};
use crate::config::{AcsrConfig, AcsrMode};
use crate::dynpar::{dp_finalize_grid, dp_finalize_kernel, dp_parent_kernel};
use crate::kernels::{
    bin_grid, bins_kernel, static_long_tail_kernel, zero_rows_grid, zero_rows_kernel, Epilogue,
    Segment,
};
use crate::matrix::AcsrMatrix;
use gpu_sim::{Device, DeviceBuffer, RunReport};
use sparse_formats::{CsrMatrix, PreprocessCost, Scalar};
use spmv_kernels::{Affine, AffineWave, GpuSpmv, Partials};

/// ACSR SpMV engine.
pub struct AcsrEngine<T> {
    mat: AcsrMatrix<T>,
    cfg: AcsrConfig,
    binning: Binning,
    /// Device row list per G2 bin, indexed by bin id.
    bin_lists: Vec<Option<DeviceBuffer<u32>>>,
    /// Device G1 row list.
    g1_list: DeviceBuffer<u32>,
    /// Device `RowMax`-overflow row list.
    overflow_list: Option<DeviceBuffer<u32>>,
    /// Rows needing a zero-scatter before kernels run (empty rows plus
    /// atomically-accumulated G1 rows).
    zero_list: Option<DeviceBuffer<u32>>,
    /// Accumulated preprocessing (initial binning + re-binnings).
    preprocess: PreprocessCost,
}

impl<T: Scalar> AcsrEngine<T> {
    /// Build from a host CSR matrix (uploads with slack per `cfg`).
    pub fn from_csr(dev: &Device, m: &CsrMatrix<T>, cfg: AcsrConfig) -> Self {
        let mat = AcsrMatrix::from_csr(dev, m, &cfg);
        Self::new(dev, mat, cfg)
    }

    /// Build from an already-uploaded ACSR matrix.
    pub fn new(dev: &Device, mat: AcsrMatrix<T>, cfg: AcsrConfig) -> Self {
        if cfg.mode == AcsrMode::DynamicParallelism {
            assert!(
                dev.config().has_dynamic_parallelism(),
                "device '{}' cannot run ACSR in DynamicParallelism mode",
                dev.config().name
            );
        }
        let mut engine = AcsrEngine {
            mat,
            cfg,
            binning: Binning::build(std::iter::empty(), &cfg).0,
            bin_lists: Vec::new(),
            g1_list: dev.alloc(Vec::new()),
            overflow_list: None,
            zero_list: None,
            preprocess: PreprocessCost::default(),
        };
        engine.rebin(dev);
        engine
    }

    /// Re-scan row lengths and rebuild bin lists (Algorithm 1's
    /// preprocessing; called automatically after updates).
    pub fn rebin(&mut self, dev: &Device) {
        let (binning, cost) = Binning::build(self.mat.row_lengths(), &self.cfg);
        self.preprocess.merge(&cost);
        self.bin_lists = (0..binning.n_bins())
            .map(|i| {
                if i >= 1 && binning.g2_bins().contains(&i) {
                    Some(dev.alloc(binning.bin_rows(i).to_vec()))
                } else {
                    None
                }
            })
            .collect();
        self.g1_list = dev.alloc(binning.g1_rows().to_vec());
        self.overflow_list = if binning.overflow_rows().is_empty() {
            None
        } else {
            Some(dev.alloc(binning.overflow_rows().to_vec()))
        };
        // zero-scatter list: empty rows + G1 rows (atomic accumulation)
        let mut zero_rows: Vec<u32> = binning.bin_rows(0).to_vec();
        if self.cfg.mode != AcsrMode::BinningOnly {
            zero_rows.extend_from_slice(binning.g1_rows());
        }
        self.zero_list = if zero_rows.is_empty() {
            None
        } else {
            Some(dev.alloc(zero_rows))
        };
        self.binning = binning;
    }

    /// Patch the binning after a batch of per-row bin changes,
    /// re-uploading only the *dirty* bins' device row lists (plus the
    /// G1/overflow/zero lists when their membership actually changed).
    /// Produces launch-for-launch the same SpMV as a full [`Self::rebin`]
    /// — the bin lists are recomputed through the same split — at a cost
    /// proportional to the moved rows, not the matrix. Returns the bytes
    /// of row-list data that had to be re-uploaded (callers charge the
    /// PCIe transfer).
    pub fn rebin_incremental(&mut self, dev: &Device, moves: &[RowMove]) -> u64 {
        if moves.is_empty() {
            return 0;
        }
        let old_g1 = self.binning.g1_rows().to_vec();
        let old_overflow = self.binning.overflow_rows().to_vec();
        let old_zero0 = self.binning.bin_rows(0).to_vec();
        let cost = self.binning.apply_moves(moves, &self.cfg);
        self.preprocess.merge(&cost);

        let mut uploaded = 0u64;
        if self.bin_lists.len() < self.binning.n_bins() {
            self.bin_lists.resize_with(self.binning.n_bins(), || None);
        }
        let mut dirty: Vec<usize> = moves.iter().flat_map(|m| [m.from, m.to]).collect();
        dirty.sort_unstable();
        dirty.dedup();
        for &b in &dirty {
            self.bin_lists[b] = if b >= 1 && self.binning.g2_bins().contains(&b) {
                uploaded += self.binning.bin_rows(b).len() as u64 * 4;
                Some(dev.alloc(self.binning.bin_rows(b).to_vec()))
            } else {
                None
            };
        }
        if self.binning.g1_rows() != old_g1 {
            uploaded += self.binning.g1_rows().len() as u64 * 4;
            self.g1_list = dev.alloc(self.binning.g1_rows().to_vec());
        }
        if self.binning.overflow_rows() != old_overflow {
            uploaded += self.binning.overflow_rows().len() as u64 * 4;
            self.overflow_list = if self.binning.overflow_rows().is_empty() {
                None
            } else {
                Some(dev.alloc(self.binning.overflow_rows().to_vec()))
            };
        }
        if self.binning.bin_rows(0) != old_zero0 || self.binning.g1_rows() != old_g1 {
            let mut zero_rows: Vec<u32> = self.binning.bin_rows(0).to_vec();
            if self.cfg.mode != AcsrMode::BinningOnly {
                zero_rows.extend_from_slice(self.binning.g1_rows());
            }
            uploaded += zero_rows.len() as u64 * 4;
            self.zero_list = if zero_rows.is_empty() {
                None
            } else {
                Some(dev.alloc(zero_rows))
            };
        }
        uploaded
    }

    /// The current binning (Table V statistics etc.).
    pub fn binning(&self) -> &Binning {
        &self.binning
    }

    /// Table V counters for this matrix/configuration.
    pub fn bin_stats(&self) -> BinStats {
        self.binning.stats()
    }

    /// Accumulated preprocessing cost (binning scans only).
    pub fn preprocess_cost(&self) -> &PreprocessCost {
        &self.preprocess
    }

    /// The device matrix.
    pub fn matrix(&self) -> &AcsrMatrix<T> {
        &self.mat
    }

    /// Mutable device matrix access (update kernels and external
    /// maintenance engines such as `acsr-stream`).
    pub fn matrix_mut(&mut self) -> &mut AcsrMatrix<T> {
        &mut self.mat
    }

    /// The configuration in use.
    pub fn config(&self) -> &AcsrConfig {
        &self.cfg
    }

    /// Blocks of a fused wave's launch group that finalize rows, over
    /// all its kernels: the number of convergence partials a fused
    /// [`GpuSpmv::spmm_affine`] wave writes per query. The DP parent
    /// finalizes none; its G1 rows are the finalize kernel's.
    fn group_blocks(&self) -> usize {
        let zero = self
            .zero_list
            .as_ref()
            .map_or(0, |zl| zero_rows_grid(zl.len()));
        let bins: usize = self
            .binning
            .g2_bins()
            .iter()
            .map(|&bin| {
                bin_grid(
                    self.binning.bin_rows(bin).len(),
                    Binning::group_for_bin(bin),
                )
            })
            .sum();
        let overflow = self
            .overflow_list
            .as_ref()
            .map_or(0, |ol| bin_grid(ol.len(), 32));
        let tail = match self.cfg.mode {
            AcsrMode::DynamicParallelism => dp_finalize_grid(self.g1_list.len()),
            AcsrMode::StaticLongTail | AcsrMode::BinningOnly => self.g1_list.len(),
        };
        zero + bins + overflow + tail
    }

    /// The one launch sequence behind [`GpuSpmv::spmv`] (k = 1),
    /// [`GpuSpmv::spmv_multi`] and the fused [`GpuSpmv::spmm_affine`]:
    /// zero-scatter, the G2 bins' one grid, overflow, long tail, each
    /// serving all k vectors, and with `epi` each applying the epilogue
    /// to the rows it finalizes (in DP mode, one more kernel finalizes
    /// the G1 rows). `group_name` names the launch group in reports and
    /// traces.
    fn launch(
        &self,
        dev: &Device,
        group_name: &str,
        xs: &[&DeviceBuffer<T>],
        ys: &[&DeviceBuffer<T>],
        epi: Option<Epilogue<T>>,
    ) -> RunReport {
        assert_eq!(xs.len(), ys.len(), "batch size mismatch");
        for x in xs {
            assert_eq!(x.len(), self.mat.cols(), "x length mismatch");
        }
        for y in ys {
            assert_eq!(y.len(), self.mat.rows(), "y length mismatch");
        }
        if xs.is_empty() || self.mat.rows() == 0 {
            return RunReport::default();
        }
        // Each kernel's blocks write the next `grid` partial slots.
        let mut slot = 0;
        let mut at = |grid: usize| {
            let e = epi.map(|e| Epilogue {
                first_slot: slot,
                ..e
            });
            slot += grid;
            e
        };
        // All of ACSR's per-SpMV kernels are independent (each writes a
        // disjoint row set; the zero-scatter precedes the atomic
        // accumulators via a stream event), so the driver launches them
        // on separate streams — concurrent on every Table II device
        // (Fermi up to 16 kernels, Kepler's HyperQ 32).
        // `ConcurrentGroup` pools them into one roofline.
        let mut group = dev.launch_group(group_name);
        if let Some(zl) = &self.zero_list {
            let e = at(zero_rows_grid(zl.len()));
            let empty = self.binning.bin_rows(0).len();
            zero_rows_kernel(&mut group, zl, empty, ys, e.as_ref(), "acsr_zero");
        }
        // The G2 bins' kernels as one grid, the bins' grids end to end in
        // ascending bin id.
        let segments: Vec<Segment> = self
            .binning
            .g2_bins()
            .iter()
            .map(|&bin| Segment {
                rows: self.bin_lists[bin]
                    .as_ref()
                    .expect("g2 bin must have an uploaded row list"),
                lanes: Binning::group_for_bin(bin),
            })
            .collect();
        let bins_grid = segments
            .iter()
            .map(|s| bin_grid(s.rows.len(), s.lanes))
            .sum();
        let e = at(bins_grid);
        bins_kernel(
            &mut group,
            &self.mat,
            &segments,
            self.cfg.texture_x,
            xs,
            ys,
            e.as_ref(),
            "acsr_bins",
        );
        // RowMax-overflow rows: widest bin kernel (one warp per row), a
        // grid of its own.
        if let Some(ol) = &self.overflow_list {
            let e = at(bin_grid(ol.len(), 32));
            bins_kernel(
                &mut group,
                &self.mat,
                &[Segment {
                    rows: ol,
                    lanes: 32,
                }],
                self.cfg.texture_x,
                xs,
                ys,
                e.as_ref(),
                "acsr_overflow",
            );
        }
        // Long tail.
        if !self.g1_list.is_empty() {
            match self.cfg.mode {
                AcsrMode::DynamicParallelism => {
                    dp_parent_kernel(
                        &mut group,
                        &self.mat,
                        &self.g1_list,
                        self.cfg.thread_load,
                        self.cfg.texture_x,
                        xs,
                        ys,
                    );
                    // On its own stream, behind an event recorded after
                    // the parent grid, children included.
                    if let Some(e) = at(dp_finalize_grid(self.g1_list.len())) {
                        dp_finalize_kernel(&mut group, &self.g1_list, ys, &e);
                    }
                }
                AcsrMode::StaticLongTail => {
                    let e = at(self.g1_list.len());
                    static_long_tail_kernel(
                        &mut group,
                        &self.mat,
                        &self.g1_list,
                        self.cfg.texture_x,
                        xs,
                        ys,
                        e.as_ref(),
                    );
                }
                AcsrMode::BinningOnly => unreachable!("binning-only has empty G1"),
            };
        }
        debug_assert!(
            epi.is_none_or(|e| slot == e.per_query),
            "every block writes its own partial slot"
        );
        group.finish()
    }
}

impl<T: Scalar> GpuSpmv<T> for AcsrEngine<T> {
    fn name(&self) -> &'static str {
        match self.cfg.mode {
            AcsrMode::DynamicParallelism => "ACSR",
            AcsrMode::BinningOnly => "ACSR-bin",
            AcsrMode::StaticLongTail => "ACSR-static",
        }
    }

    fn rows(&self) -> usize {
        self.mat.rows()
    }
    fn cols(&self) -> usize {
        self.mat.cols()
    }
    fn nnz(&self) -> usize {
        self.mat.nnz()
    }
    fn device_bytes(&self) -> u64 {
        let lists: u64 = self
            .bin_lists
            .iter()
            .flatten()
            .map(|b| b.bytes())
            .sum::<u64>()
            + self.g1_list.bytes();
        self.mat.device_bytes() + lists
    }

    fn spmv(&self, dev: &Device, x: &DeviceBuffer<T>, y: &DeviceBuffer<T>) -> RunReport {
        self.launch(dev, "acsr_spmv", &[x], &[y], None)
    }

    /// Fused multi-vector SpMV: the launch sequence of [`Self::spmv`],
    /// but each kernel serves all k vectors — row lists, row bounds,
    /// columns and values are read once per wave instead of once per
    /// vector, and the group's launch floor is paid once. Per vector,
    /// every float operation happens in the single-vector order, so
    /// `ys[v]` is bit-identical to `spmv(dev, xs[v], ys[v])` (for the
    /// long-tail atomics this holds at any `ACSR_SIM_THREADS` width in
    /// `StaticLongTail` mode, where a row's atomics stay within one
    /// block/shard; `DynamicParallelism` spreads a row's child blocks
    /// across shards, so its accumulation order — for batched and
    /// unbatched runs alike — is only pinned at width 1).
    fn spmv_multi(
        &self,
        dev: &Device,
        xs: &[&DeviceBuffer<T>],
        ys: &[&DeviceBuffer<T>],
    ) -> RunReport {
        self.launch(dev, "acsr_spmm", xs, ys, None)
    }

    /// Fused wave: the `acsr_spmm` launch group of [`Self::spmv_multi`],
    /// each kernel writing the next iterate `affine.apply(v, row, y)`
    /// straight into `outs[v]` for the rows it finalizes (the G1 rows
    /// accumulate their atomics there first), so no update launch and no
    /// temporaries. Per query, the iterates are bit-identical to the
    /// default two-launch path: the same SpMV float ops, then
    /// [`Affine::apply`]. With `partials`, each row-finalizing block of
    /// the group writes one partial per query: the tree sum, warp by
    /// warp, of `(next − r)²` over the rows the block finalized.
    ///
    /// In `DynamicParallelism` mode a G1 row's child grids finish after
    /// the parent block that launched them, so the group gains one
    /// kernel, `acsr_dp_finalize`, that finalizes the G1 rows once the
    /// parent grid (children included) has completed: one more
    /// per-stream enqueue when G1 is non-empty, none otherwise.
    fn spmm_affine(
        &self,
        dev: &Device,
        xs: &[&DeviceBuffer<T>],
        affine: &Affine<'_, T>,
        partials: bool,
    ) -> AffineWave<T> {
        let (k, n) = (xs.len(), self.mat.rows());
        affine.check(k);
        assert!(
            !partials || self.mat.cols() == n,
            "convergence partials compare each output with its input: the operator must be square"
        );
        let per_query = self.group_blocks();
        let buf = partials.then(|| dev.alloc_zeroed::<f64>(k * per_query));
        let outs: Vec<_> = (0..k).map(|_| dev.alloc_zeroed::<T>(n)).collect();
        let or: Vec<_> = outs.iter().collect();
        let epi = Epilogue {
            affine,
            prev: xs,
            texture_x: self.cfg.texture_x,
            partials: buf.as_ref(),
            per_query,
            first_slot: 0,
        };
        let report = self.launch(dev, "acsr_spmm", xs, &or, Some(epi));
        AffineWave {
            outs,
            report,
            partials: buf.map(|buf| Partials { buf, per_query }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::presets;
    use graphgen::{generate_power_law, PowerLawConfig};

    fn matrix(rows: usize, max: usize, seed: u64) -> CsrMatrix<f64> {
        generate_power_law(&PowerLawConfig {
            rows,
            cols: rows,
            mean_degree: 8.0,
            max_degree: max,
            pinned_max_rows: 2,
            col_skew: 0.5,
            seed,
            ..Default::default()
        })
    }

    fn check(dev: &Device, m: &CsrMatrix<f64>, cfg: AcsrConfig) -> RunReport {
        let engine = AcsrEngine::from_csr(dev, m, cfg);
        let x: Vec<f64> = (0..m.cols()).map(|i| 0.5 + (i % 9) as f64 * 0.25).collect();
        let xd = dev.alloc(x.clone());
        let yd = dev.alloc(vec![-3.0f64; m.rows()]);
        let r = engine.spmv(dev, &xd, &yd);
        let want = m.spmv(&x);
        let d = sparse_formats::scalar::rel_l2_distance(yd.as_slice(), &want);
        assert!(d < 1e-12, "rel distance {d} in mode {:?}", engine.cfg.mode);
        r
    }

    #[test]
    fn dynamic_parallelism_mode_is_correct() {
        let dev = Device::new(presets::gtx_titan());
        let m = matrix(4000, 1600, 101);
        let r = check(&dev, &m, AcsrConfig::for_device(dev.config()));
        assert!(r.counters.child_launches > 0, "must use DP for the tail");
    }

    #[test]
    fn binning_only_mode_is_correct_on_fermi() {
        let dev = Device::new(presets::gtx_580());
        let m = matrix(4000, 1600, 102);
        let r = check(&dev, &m, AcsrConfig::for_device(dev.config()));
        assert_eq!(r.counters.child_launches, 0);
    }

    #[test]
    fn static_long_tail_mode_is_correct() {
        let dev = Device::new(presets::tesla_k10_single());
        let m = matrix(4000, 1600, 103);
        let r = check(&dev, &m, AcsrConfig::static_long_tail());
        assert_eq!(r.counters.child_launches, 0);
    }

    #[test]
    #[should_panic(expected = "DynamicParallelism")]
    fn dp_mode_rejected_on_fermi() {
        let dev = Device::new(presets::gtx_580());
        let m = matrix(500, 100, 104);
        let mut cfg = AcsrConfig::for_device(&presets::gtx_titan());
        cfg.mode = AcsrMode::DynamicParallelism;
        let _ = AcsrEngine::from_csr(&dev, &m, cfg);
    }

    #[test]
    fn empty_rows_get_zeroed() {
        let dev = Device::new(presets::gtx_titan());
        let mut t = sparse_formats::TripletMatrix::<f64>::new(6, 6);
        t.push(0, 1, 2.0).unwrap();
        t.push(3, 3, 4.0).unwrap();
        let m = t.to_csr();
        let engine = AcsrEngine::from_csr(&dev, &m, AcsrConfig::for_device(dev.config()));
        let xd = dev.alloc(vec![1.0f64; 6]);
        let yd = dev.alloc(vec![7.0f64; 6]);
        engine.spmv(&dev, &xd, &yd);
        assert_eq!(yd.as_slice(), &[2.0, 0.0, 0.0, 4.0, 0.0, 0.0]);
    }

    #[test]
    fn table_v_style_stats_are_exposed() {
        let dev = Device::new(presets::gtx_titan());
        let m = matrix(6000, 2000, 105);
        let engine = AcsrEngine::from_csr(&dev, &m, AcsrConfig::for_device(dev.config()));
        let s = engine.bin_stats();
        let big_rows = (0..m.rows()).filter(|&r| m.row_nnz(r) > 1024).count();
        assert!(s.bin_grids > 2);
        assert_eq!(s.row_grids, big_rows);
        assert!(s.row_grids >= 2); // at least the two pinned max rows
    }

    #[test]
    fn row_max_overflow_falls_back_correctly() {
        let dev = Device::new(presets::gtx_titan());
        let m = matrix(3000, 1500, 106);
        let mut cfg = AcsrConfig::for_device(dev.config());
        cfg.row_max = 1; // only one dynamic grid allowed
        let engine = AcsrEngine::from_csr(&dev, &m, cfg);
        let big_rows = (0..m.rows()).filter(|&r| m.row_nnz(r) > 1024).count();
        assert_eq!(engine.binning().overflow_rows().len(), big_rows - 1);
        let x: Vec<f64> = (0..m.cols()).map(|i| 1.0 + (i % 3) as f64).collect();
        let xd = dev.alloc(x.clone());
        let yd = dev.alloc_zeroed::<f64>(m.rows());
        let r = engine.spmv(&dev, &xd, &yd);
        assert_eq!(r.counters.child_launches, 1);
        let d = sparse_formats::scalar::rel_l2_distance(yd.as_slice(), &m.spmv(&x));
        assert!(d < 1e-12);
    }

    #[test]
    fn preprocessing_is_scan_only() {
        let dev = Device::new(presets::gtx_titan());
        let m = matrix(8000, 1024, 107);
        let engine = AcsrEngine::from_csr(&dev, &m, AcsrConfig::for_device(dev.config()));
        let c = engine.preprocess_cost();
        assert_eq!(c.sorted_elements, 0);
        assert_eq!(c.autotune_trials, 0);
        // orders of magnitude below one pass over the matrix data
        assert!(c.bytes_read + c.bytes_written < (m.nnz() * 12) as u64);
    }

    #[test]
    fn acsr_beats_csr_vector_on_power_law_modeled_time() {
        use spmv_kernels::csr_vector::CsrVector;
        use spmv_kernels::DevCsr;
        let dev = Device::new(presets::gtx_titan());
        let m = matrix(30_000, 8000, 108);
        let x: Vec<f64> = (0..m.cols()).map(|i| 1.0 + (i % 5) as f64 * 0.2).collect();
        let engine = AcsrEngine::from_csr(&dev, &m, AcsrConfig::for_device(dev.config()));
        let xd = dev.alloc(x.clone());
        let yd = dev.alloc_zeroed::<f64>(m.rows());
        let r_acsr = engine.spmv(&dev, &xd, &yd);
        let vec_eng = CsrVector::new(DevCsr::upload(&dev, &m));
        let yd2 = dev.alloc_zeroed::<f64>(m.rows());
        let r_vec = vec_eng.spmv(&dev, &xd, &yd2);
        assert!(
            r_acsr.time_s < r_vec.time_s,
            "ACSR {:.1}us vs CSR-vector {:.1}us",
            r_acsr.time_s * 1e6,
            r_vec.time_s * 1e6
        );
    }
}
