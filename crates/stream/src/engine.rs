//! The streaming maintenance engine.
//!
//! [`StreamEngine`] keeps a live, device-resident ACSR matrix in the
//! canonical bin-arena layout of [`crate::layout`] and applies batched
//! edge deltas to it *in place*:
//!
//! 1. the delta is shipped to the device (`wire_bytes`, the Fig. 7
//!    advantage) and a **plan kernel** replays the merge counting-only,
//!    yielding every touched row's post-batch length;
//! 2. a tiny readback lets the host patch the binning incrementally
//!    ([`acsr::Binning::apply_moves`] — cost proportional to moved rows,
//!    not the matrix) and recompute the canonical layout;
//! 3. rows whose slot is unchanged merge **in place**, consuming slack;
//!    rows whose slot moved (bin migration, or an arena capacity shift
//!    underneath them) are staged through scratch and scattered to their
//!    new slots — two phases, so no write ever lands on data another row
//!    still has to read;
//! 4. when the canonical layout outgrows the element buffers, the engine
//!    regrows them geometrically and rewrites everything once
//!    ([`BatchReport::buffer_grown`]) — rare by construction.
//!
//! The [`BatchReport`] each batch returns is the one record of its
//! maintenance work: what it cost, which rows moved and why, and the
//! element bytes it rewrote.
//!
//! The invariant that makes this testable: after any batch the engine is
//! **bit-identical** — metadata, live elements, binning, and therefore
//! every SpMV's values, counters and modeled timing — to a
//! [`StreamEngine::build`] from scratch off the same logical matrix.

use crate::kernels::{copy_rows_kernel, merge_rows_kernel, plan_kernel, DeltaBuffers};
use crate::layout::{slot_width, SlotLayout};
use acsr::{AcsrConfig, AcsrEngine, RowMove};
use gpu_sim::{Device, DeviceBuffer, RunReport};
use sparse_formats::stats::bin_index;
use sparse_formats::{CsrMatrix, Scalar, UpdateBatch};
use spmv_kernels::{Affine, AffineWave, GpuSpmv};

/// Growth factor for the element buffers when the canonical layout
/// outgrows them.
const GROWTH: usize = 2;

/// What one [`StreamEngine::apply_batch`] cost and did.
#[derive(Debug)]
pub struct BatchReport {
    /// The plan (count) kernel.
    pub plan: RunReport,
    /// Merge + relocate + scatter kernels.
    pub maintain: RunReport,
    /// Modeled PCIe seconds (delta upload, plan readback, plan arrays,
    /// bin-list re-uploads, metadata patch).
    pub copy_seconds: f64,
    /// End-to-end modeled seconds for the batch.
    pub total_seconds: f64,
    /// Rows the batch touched.
    pub touched_rows: usize,
    /// Touched rows merged inside their own slot (slack consumption).
    pub in_place_rows: usize,
    /// Rows whose length class changed (bin migration).
    pub migrated_rows: usize,
    /// Rows relocated without a bin change (arena capacity shifts).
    pub relocated_rows: usize,
    /// Whether the element buffers were regrown.
    pub buffer_grown: bool,
    /// Element bytes (column index + value) written on the batch's
    /// behalf: in-place and relocated rows' live entries, each migrated
    /// row's new slot, and the whole regrown buffer when it grew.
    pub bytes_rewritten: u64,
    /// Live non-zeros after the batch.
    pub nnz_after: usize,
}

/// Streaming ACSR maintenance engine. Wraps an [`AcsrEngine`] whose
/// matrix it keeps in the canonical bin-arena layout.
pub struct StreamEngine<T> {
    engine: AcsrEngine<T>,
    layout: SlotLayout,
    /// Allocated element-buffer length (may exceed `layout.total()` after
    /// growth; slack past the layout is never read).
    buf_capacity: usize,
    epoch: u64,
}

impl<T: Scalar> StreamEngine<T> {
    /// Build the canonical device layout for `m` and wrap it in an ACSR
    /// engine. The result is the *normal form* every maintained engine is
    /// compared against.
    pub fn build(dev: &Device, m: &CsrMatrix<T>, cfg: AcsrConfig) -> Self {
        let rows = m.rows();
        let layout = SlotLayout::for_lengths((0..rows).map(|r| m.row_nnz(r)));
        let mut bins: Vec<Vec<u32>> = vec![Vec::new(); layout.n_bins()];
        for r in 0..rows {
            bins[bin_index(m.row_nnz(r))].push(r as u32);
        }
        let mut row_start = vec![0u32; rows];
        let mut row_len = vec![0u32; rows];
        let mut row_cap = vec![0u32; rows];
        let mut col_indices = vec![0u32; layout.total()];
        let mut values = vec![T::ZERO; layout.total()];
        for (r, len) in row_len.iter_mut().enumerate() {
            *len = m.row_nnz(r) as u32;
        }
        for (b, members) in bins.iter().enumerate().skip(1) {
            if members.is_empty() {
                continue; // bin 0 (empty rows) stores nothing
            }
            for (&r, &slot) in members
                .iter()
                .zip(&crate::layout::assign_slots(layout.slots(b), members))
            {
                let r = r as usize;
                let len = row_len[r] as usize;
                let s = layout.row_start(b, slot as usize);
                row_start[r] = s as u32;
                row_cap[r] = slot_width(b) as u32;
                let (cols, vals) = m.row(r);
                col_indices[s..s + len].copy_from_slice(cols);
                values[s..s + len].copy_from_slice(vals);
            }
        }
        let mat = acsr::AcsrMatrix::from_parts(
            dev,
            rows,
            m.cols(),
            row_start,
            row_len,
            row_cap,
            col_indices,
            values,
        );
        dev.record_htod("stream_build", mat.device_bytes());
        let engine = AcsrEngine::new(dev, mat, cfg);
        StreamEngine {
            engine,
            buf_capacity: layout.total(),
            layout,
            epoch: 0,
        }
    }

    /// Apply one §VII update batch in place.
    pub fn apply_batch(&mut self, dev: &Device, batch: &UpdateBatch<T>) -> BatchReport {
        let rows_n = self.engine.matrix().rows();
        batch
            .validate_for(rows_n, self.engine.matrix().cols())
            .expect("update batch must be valid for the streamed matrix");
        let n = batch.rows.len();
        let mut copy_seconds = dev
            .record_htod("stream_delta", batch.wire_bytes() as u64)
            .time_s;
        let delta = DeltaBuffers {
            rows: dev.alloc(batch.rows.clone()),
            delete_offsets: dev.alloc(batch.delete_offsets.clone()),
            delete_cols: dev.alloc(batch.delete_cols.clone()),
            insert_offsets: dev.alloc(batch.insert_offsets.clone()),
            insert_cols: dev.alloc(batch.insert_cols.clone()),
            insert_vals: dev.alloc(batch.insert_vals.clone()),
        };

        // Host copies of the pre-batch geometry (the plan diffs against
        // these).
        let old_starts: Vec<u32> = self.engine.matrix().row_start.as_slice().to_vec();
        let old_lens: Vec<u32> = self.engine.matrix().row_len.as_slice().to_vec();
        let old_caps: Vec<u32> = self.engine.matrix().row_cap.as_slice().to_vec();

        // --- 1. plan: post-merge length of every touched row ---
        let new_lens_d = dev.alloc_zeroed::<u32>(n.max(1));
        let plan = {
            let mat = self.engine.matrix();
            let mut group = dev.launch_group("stream_plan");
            plan_kernel(
                &mut group,
                &delta,
                &mat.row_start,
                &mat.row_len,
                &mat.col_indices,
                &new_lens_d,
            );
            group.finish()
        };
        copy_seconds += dev.record_dtoh("stream_plan_readback", n as u64 * 4).time_s;
        let touched_new_lens: Vec<u32> = new_lens_d.as_slice()[..n].to_vec();

        // --- 2. incremental re-binning + canonical geometry ---
        let mut moves: Vec<RowMove> = Vec::new();
        for (i, &r) in batch.rows.iter().enumerate() {
            let from = bin_index(old_lens[r as usize] as usize);
            let to = bin_index(touched_new_lens[i] as usize);
            if from != to {
                moves.push(RowMove { row: r, from, to });
            }
        }
        let uploaded = self.engine.rebin_incremental(dev, &moves);
        if uploaded > 0 {
            copy_seconds += dev.record_htod("stream_binlists", uploaded).time_s;
        }

        let binning = self.engine.binning();
        let counts: Vec<usize> = (0..binning.n_bins())
            .map(|b| binning.bin_rows(b).len())
            .collect();
        let new_layout = SlotLayout::for_bins(&counts);
        let mut new_starts = vec![0u32; rows_n];
        let mut new_caps = vec![0u32; rows_n];
        for b in 1..binning.n_bins() {
            let members = binning.bin_rows(b);
            if members.is_empty() {
                continue;
            }
            for (&r, &slot) in members
                .iter()
                .zip(&crate::layout::assign_slots(new_layout.slots(b), members))
            {
                new_starts[r as usize] = new_layout.row_start(b, slot as usize) as u32;
                new_caps[r as usize] = slot_width(b) as u32;
            }
        }
        let mut new_lens_all = old_lens.clone();
        let mut touched_pos = vec![u32::MAX; rows_n];
        for (i, &r) in batch.rows.iter().enumerate() {
            new_lens_all[r as usize] = touched_new_lens[i];
            touched_pos[r as usize] = i as u32;
        }
        let nnz_after: usize = new_lens_all.iter().map(|&l| l as usize).sum();

        // --- 3. classify and execute the data movement ---
        let grow = new_layout.total() > self.buf_capacity;
        let mut in_place_rows = 0usize;
        let mut in_place_elems = 0u64;
        let migrated_rows = moves.len();
        let mut relocated_rows = 0usize;
        let mut relocated_elems = 0u64;

        let maintain = if grow {
            let (report, copied_rows) = self.grow_and_rewrite(
                dev,
                &delta,
                &new_layout,
                &new_starts,
                &new_lens_all,
                &old_starts,
                &old_lens,
                &touched_pos,
            );
            relocated_rows = copied_rows;
            report
        } else {
            // In-place: touched rows that keep their exact slot.
            let mut ip_positions: Vec<u32> = Vec::new();
            let mut ip_dsts: Vec<u32> = Vec::new();
            // Staged movers: (src kind) touched rows merge old→scratch,
            // untouched rows copy old→scratch; both scatter scratch→new.
            let mut st_positions: Vec<u32> = Vec::new();
            let mut st_dsts: Vec<u32> = Vec::new();
            let mut rel_srcs: Vec<u32> = Vec::new();
            let mut rel_dsts: Vec<u32> = Vec::new();
            let mut rel_lens: Vec<u32> = Vec::new();
            let mut sc_srcs: Vec<u32> = Vec::new();
            let mut sc_dsts: Vec<u32> = Vec::new();
            let mut sc_lens: Vec<u32> = Vec::new();
            let mut scratch_top = 0u32;
            for r in 0..rows_n {
                let new_len = new_lens_all[r];
                let moved = new_starts[r] != old_starts[r] || new_caps[r] != old_caps[r];
                if touched_pos[r] != u32::MAX {
                    if !moved {
                        if new_len > 0 {
                            in_place_rows += 1;
                            in_place_elems += new_len as u64;
                            ip_positions.push(touched_pos[r]);
                            ip_dsts.push(new_starts[r]);
                        }
                    } else if new_len > 0 {
                        if new_caps[r] == old_caps[r] {
                            // same length class, slot shifted under it
                            relocated_rows += 1;
                            relocated_elems += new_len as u64;
                        }
                        st_positions.push(touched_pos[r]);
                        st_dsts.push(scratch_top);
                        sc_srcs.push(scratch_top);
                        sc_dsts.push(new_starts[r]);
                        sc_lens.push(new_len);
                        scratch_top += new_len;
                    }
                } else if moved && new_len > 0 {
                    relocated_rows += 1;
                    relocated_elems += new_len as u64;
                    rel_srcs.push(old_starts[r]);
                    rel_dsts.push(scratch_top);
                    rel_lens.push(new_len);
                    sc_srcs.push(scratch_top);
                    sc_dsts.push(new_starts[r]);
                    sc_lens.push(new_len);
                    scratch_top += new_len;
                }
            }
            let plan_bytes = ((ip_positions.len() + ip_dsts.len()) * 4
                + (st_positions.len() + st_dsts.len()) * 4
                + (rel_srcs.len() + rel_dsts.len() + rel_lens.len()) * 4
                + (sc_srcs.len() + sc_dsts.len() + sc_lens.len()) * 4)
                as u64;
            if plan_bytes > 0 {
                copy_seconds += dev.record_htod("stream_plan_arrays", plan_bytes).time_s;
            }

            let scratch_cols = dev.alloc_zeroed::<u32>((scratch_top as usize).max(1));
            let scratch_vals = dev.alloc_zeroed::<T>((scratch_top as usize).max(1));
            let ip_positions = dev.alloc(ip_positions);
            let ip_dsts = dev.alloc(ip_dsts);
            let st_positions = dev.alloc(st_positions);
            let st_dsts = dev.alloc(st_dsts);
            let rel_srcs = dev.alloc(rel_srcs);
            let rel_dsts = dev.alloc(rel_dsts);
            let rel_lens = dev.alloc(rel_lens);
            let sc_srcs = dev.alloc(sc_srcs);
            let sc_dsts = dev.alloc(sc_dsts);
            let sc_lens = dev.alloc(sc_lens);

            let mat = self.engine.matrix();
            // Phase A: every write lands either in the writer's own slot
            // (in-place) or in scratch; every read of the main buffers
            // targets slots owned by their (old-layout) rows — disjoint.
            let mut group = dev.launch_group("stream_maintain");
            merge_rows_kernel(
                &mut group,
                "stream_update",
                &delta,
                &mat.row_start,
                &mat.row_len,
                &mat.col_indices,
                &mat.values,
                &ip_positions,
                &ip_dsts,
                &mat.col_indices,
                &mat.values,
            );
            merge_rows_kernel(
                &mut group,
                "stream_merge_out",
                &delta,
                &mat.row_start,
                &mat.row_len,
                &mat.col_indices,
                &mat.values,
                &st_positions,
                &st_dsts,
                &scratch_cols,
                &scratch_vals,
            );
            copy_rows_kernel(
                &mut group,
                "stream_relocate",
                &mat.col_indices,
                &mat.values,
                &scratch_cols,
                &scratch_vals,
                &rel_srcs,
                &rel_dsts,
                &rel_lens,
            );
            let phase_a = group.finish();
            // Phase B: scatter staged rows to their final slots. Phase A
            // has completed, so no old-slot read can race these writes.
            let mut group = dev.launch_group("stream_scatter");
            copy_rows_kernel(
                &mut group,
                "stream_scatter",
                &scratch_cols,
                &scratch_vals,
                &mat.col_indices,
                &mat.values,
                &sc_srcs,
                &sc_dsts,
                &sc_lens,
            );
            phase_a.then(&group.finish())
        };

        // --- 4. metadata patch (host-computed, charged per dirty row) ---
        let mut dirty_rows = 0u64;
        for r in 0..rows_n {
            if new_starts[r] != old_starts[r]
                || new_lens_all[r] != old_lens[r]
                || new_caps[r] != old_caps[r]
            {
                dirty_rows += 1;
            }
        }
        if dirty_rows > 0 {
            copy_seconds += dev.record_htod("stream_meta", dirty_rows * 12).time_s;
        }
        {
            let mat = self.engine.matrix_mut();
            mat.row_start = dev.alloc(new_starts);
            mat.row_len = dev.alloc(new_lens_all);
            mat.row_cap = dev.alloc(new_caps);
            mat.set_nnz(nnz_after);
            debug_assert_eq!(mat.validate(), Ok(()));
        }

        // --- 5. epoch, layout, bytes rewritten ---
        self.epoch += 1;
        self.layout = new_layout;
        let migrated_elems: u64 = moves.iter().map(|mv| slot_width(mv.to) as u64).sum();
        let regrown_elems = if grow { self.buf_capacity as u64 } else { 0 };
        let bytes_rewritten = (in_place_elems + relocated_elems + migrated_elems + regrown_elems)
            * (4 + T::BYTES) as u64;

        BatchReport {
            total_seconds: plan.time_s + maintain.time_s + copy_seconds,
            plan,
            maintain,
            copy_seconds,
            touched_rows: n,
            in_place_rows,
            migrated_rows,
            relocated_rows,
            buffer_grown: grow,
            bytes_rewritten,
            nnz_after,
        }
    }

    /// Growth path: fresh element buffers at `GROWTH ×` the new layout,
    /// everything rewritten directly (src and dst are different buffers,
    /// so one phase suffices).
    #[allow(clippy::too_many_arguments)]
    fn grow_and_rewrite(
        &mut self,
        dev: &Device,
        delta: &DeltaBuffers<T>,
        new_layout: &SlotLayout,
        new_starts: &[u32],
        new_lens_all: &[u32],
        old_starts: &[u32],
        old_lens: &[u32],
        touched_pos: &[u32],
    ) -> (RunReport, usize) {
        let rows_n = new_starts.len();
        let cap = new_layout.total() * GROWTH;
        let fresh_cols = dev.alloc_zeroed::<u32>(cap.max(1));
        let fresh_vals = dev.alloc_zeroed::<T>(cap.max(1));
        let mut mg_positions: Vec<u32> = Vec::new();
        let mut mg_dsts: Vec<u32> = Vec::new();
        let mut cp_srcs: Vec<u32> = Vec::new();
        let mut cp_dsts: Vec<u32> = Vec::new();
        let mut cp_lens: Vec<u32> = Vec::new();
        for r in 0..rows_n {
            if touched_pos[r] != u32::MAX {
                if new_lens_all[r] > 0 {
                    mg_positions.push(touched_pos[r]);
                    mg_dsts.push(new_starts[r]);
                }
            } else if old_lens[r] > 0 {
                cp_srcs.push(old_starts[r]);
                cp_dsts.push(new_starts[r]);
                cp_lens.push(old_lens[r]);
            }
        }
        let copied_rows = cp_lens.len();
        let mg_positions = dev.alloc(mg_positions);
        let mg_dsts = dev.alloc(mg_dsts);
        let cp_srcs = dev.alloc(cp_srcs);
        let cp_dsts = dev.alloc(cp_dsts);
        let cp_lens = dev.alloc(cp_lens);
        let report = {
            let mat = self.engine.matrix();
            let mut group = dev.launch_group("stream_grow");
            merge_rows_kernel(
                &mut group,
                "stream_grow_merge",
                delta,
                &mat.row_start,
                &mat.row_len,
                &mat.col_indices,
                &mat.values,
                &mg_positions,
                &mg_dsts,
                &fresh_cols,
                &fresh_vals,
            );
            copy_rows_kernel(
                &mut group,
                "stream_grow_copy",
                &mat.col_indices,
                &mat.values,
                &fresh_cols,
                &fresh_vals,
                &cp_srcs,
                &cp_dsts,
                &cp_lens,
            );
            group.finish()
        };
        let mat = self.engine.matrix_mut();
        mat.col_indices = fresh_cols;
        mat.values = fresh_vals;
        self.buf_capacity = cap;
        (report, copied_rows)
    }

    /// The wrapped ACSR engine.
    pub fn acsr(&self) -> &AcsrEngine<T> {
        &self.engine
    }

    /// Structural epoch: the number of batches applied so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Per-bin row counts (the drift-key occupancy vector).
    pub fn occupancy(&self) -> Vec<u32> {
        let b = self.engine.binning();
        (0..b.n_bins())
            .map(|i| b.bin_rows(i).len() as u32)
            .collect()
    }

    /// The canonical arena geometry currently live.
    pub fn layout(&self) -> &SlotLayout {
        &self.layout
    }

    /// Extract the live matrix as packed host CSR.
    pub fn to_csr(&self) -> CsrMatrix<T> {
        self.engine.matrix().to_csr()
    }
}

impl<T: Scalar> GpuSpmv<T> for StreamEngine<T> {
    fn name(&self) -> &'static str {
        "ACSR-stream"
    }
    fn rows(&self) -> usize {
        self.engine.matrix().rows()
    }
    fn cols(&self) -> usize {
        self.engine.matrix().cols()
    }
    fn nnz(&self) -> usize {
        self.engine.matrix().nnz()
    }
    fn device_bytes(&self) -> u64 {
        self.engine.device_bytes()
    }
    fn spmv(&self, dev: &Device, x: &DeviceBuffer<T>, y: &DeviceBuffer<T>) -> RunReport {
        self.engine.spmv(dev, x, y)
    }
    fn spmv_multi(
        &self,
        dev: &Device,
        xs: &[&DeviceBuffer<T>],
        ys: &[&DeviceBuffer<T>],
    ) -> RunReport {
        self.engine.spmv_multi(dev, xs, ys)
    }
    fn spmm_affine(
        &self,
        dev: &Device,
        xs: &[&DeviceBuffer<T>],
        affine: &Affine<'_, T>,
        partials: bool,
    ) -> AffineWave<T> {
        self.engine.spmm_affine(dev, xs, affine, partials)
    }
}
