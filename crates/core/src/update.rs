//! Device-side incremental CSR updates (paper §VII).
//!
//! "A matrix update is defined by specifying the rows to be updated, and
//! for each row, which columns are to be added or deleted. This
//! information is copied to the device and a device kernel applies the
//! changes... we assign a warp to each row, but only the first thread of
//! the warp performs the update. This thread first deletes columns of the
//! delete list from the row, and compresses the row to fill up the
//! deleted spaces. Then it extends the row by adding columns from the
//! insert list. The kernel assumes the delete and insert column lists are
//! sorted."
//!
//! Rows whose merged length exceeds their slack capacity cannot be
//! updated in place; the engine falls back to a host-side rebuild with
//! fresh slack (charged as a full matrix re-upload), which the report
//! records so experiments can see when slack was insufficient.

use crate::engine::AcsrEngine;
use crate::matrix::AcsrMatrix;
use gpu_sim::{Device, RunReport, WARP};
use sparse_formats::{CsrMatrix, Scalar, UpdateBatch};

/// Outcome of one dynamic update.
#[derive(Debug)]
pub struct UpdateReport {
    /// Modeled device kernel time (delta application + re-binning scan).
    pub kernel: RunReport,
    /// Modeled PCIe time to ship the change lists (ACSR ships deltas, not
    /// the matrix — the Figure 7 advantage).
    pub copy_seconds: f64,
    /// Rows that outgrew their slack.
    pub overflowed_rows: usize,
    /// Whether a host-side rebuild (full re-upload) was required.
    pub rebuilt: bool,
    /// Live non-zeros after the update.
    pub nnz_after: usize,
}

impl<T: Scalar> AcsrEngine<T> {
    /// Apply a §VII update batch on the device, then re-bin.
    pub fn apply_update(&mut self, dev: &Device, batch: &UpdateBatch<T>) -> UpdateReport {
        batch
            .validate_for(self.matrix().rows(), self.matrix().cols())
            .expect("update batch must satisfy its structural invariants");
        // record_htod also emits a transfer span when tracing is on
        let mut copy_seconds = dev
            .record_htod("acsr_update_delta", batch.wire_bytes() as u64)
            .time_s;

        // Upload the change lists — the only data shipped to the device.
        let rows_d = dev.alloc(batch.rows.clone());
        let del_off_d = dev.alloc(batch.delete_offsets.clone());
        let del_cols_d = dev.alloc(batch.delete_cols.clone());
        let ins_off_d = dev.alloc(batch.insert_offsets.clone());
        let ins_cols_d = dev.alloc(batch.insert_cols.clone());
        let ins_vals_d = dev.alloc(batch.insert_vals.clone());

        let n = batch.rows.len();
        // Kernel-to-host feedback. The kernel closure is `Fn + Sync` (its
        // blocks may run on several host workers), so these are shared and
        // order-independent: overflow is consumed as a set, nnz_delta is an
        // integer sum — both deterministic at any worker count.
        let overflow: std::sync::Mutex<Vec<u32>> = std::sync::Mutex::new(Vec::new());
        let nnz_delta = std::sync::atomic::AtomicI64::new(0);

        let kernel = {
            let mat = self.matrix_mut();
            // Kernels read row_start/row_cap and write
            // row_len/col_indices/values through the buffers' interior
            // mutability (distinct rows — no overlapping elements).
            let row_start = &mat.row_start;
            let row_cap = &mat.row_cap;
            let row_len = &mat.row_len;
            let col_indices = &mat.col_indices;
            let values = &mat.values;

            let block = 256;
            let warps_per_block = block / WARP;
            let grid = n.div_ceil(warps_per_block).max(1);
            let overflow_ref = &overflow;
            let nnz_ref = &nnz_delta;
            dev.launch("acsr_update", grid, block, &|blk| {
                blk.for_each_warp(&mut |warp| {
                    let pos = warp.global_warp_id();
                    if pos >= n {
                        return;
                    }
                    const L0: u32 = 1; // only lane 0 works (paper §VII)
                    let row = warp.gather(&rows_d, &[pos; WARP], L0)[0] as usize;
                    let start = warp.gather(row_start, &[row; WARP], L0)[0] as usize;
                    let cap = warp.gather(row_cap, &[row; WARP], L0)[0] as usize;
                    let old_len = warp.gather(row_len, &[row; WARP], L0)[0] as usize;

                    // Read this row's delete / insert slices.
                    let dlo = warp.gather(&del_off_d, &[pos; WARP], L0)[0] as usize;
                    let dhi = warp.gather(&del_off_d, &[pos + 1; WARP], L0)[0] as usize;
                    let ilo = warp.gather(&ins_off_d, &[pos; WARP], L0)[0] as usize;
                    let ihi = warp.gather(&ins_off_d, &[pos + 1; WARP], L0)[0] as usize;

                    let mut dels = Vec::with_capacity(dhi - dlo);
                    for k in dlo..dhi {
                        dels.push(warp.gather(&del_cols_d, &[k; WARP], L0)[0]);
                    }
                    let mut ins: Vec<(u32, T)> = Vec::with_capacity(ihi - ilo);
                    for k in ilo..ihi {
                        let c = warp.gather(&ins_cols_d, &[k; WARP], L0)[0];
                        let v = warp.gather(&ins_vals_d, &[k; WARP], L0)[0];
                        ins.push((c, v));
                    }

                    // Pass 1: delete + compress (sorted-merge against the
                    // delete list), collecting survivors.
                    let mut merged: Vec<(u32, T)> = Vec::with_capacity(old_len + ins.len());
                    let mut d = 0usize;
                    for k in 0..old_len {
                        let c = warp.gather(col_indices, &[start + k; WARP], L0)[0];
                        let v = warp.gather(values, &[start + k; WARP], L0)[0];
                        while d < dels.len() && dels[d] < c {
                            d += 1;
                        }
                        warp.charge_alu(1);
                        if d < dels.len() && dels[d] == c {
                            continue; // deleted
                        }
                        merged.push((c, v));
                    }
                    // Pass 2: extend with the (sorted) insert list —
                    // a sorted merge; inserting an existing column
                    // overwrites its value, matching the host reference.
                    let survivors = merged;
                    let mut merged: Vec<(u32, T)> = Vec::with_capacity(survivors.len() + ins.len());
                    let (mut a, mut b) = (0usize, 0usize);
                    while a < survivors.len() || b < ins.len() {
                        warp.charge_alu(1);
                        if b >= ins.len() {
                            merged.push(survivors[a]);
                            a += 1;
                        } else if a >= survivors.len() {
                            merged.push(ins[b]);
                            b += 1;
                        } else if survivors[a].0 < ins[b].0 {
                            merged.push(survivors[a]);
                            a += 1;
                        } else if survivors[a].0 > ins[b].0 {
                            merged.push(ins[b]);
                            b += 1;
                        } else {
                            merged.push(ins[b]); // overwrite
                            a += 1;
                            b += 1;
                        }
                    }

                    if merged.len() > cap {
                        overflow_ref.lock().unwrap().push(row as u32);
                        return; // row untouched; host rebuild handles it
                    }
                    // Write back the compacted row.
                    for (k, (c, v)) in merged.iter().enumerate() {
                        warp.scatter(col_indices, &[start + k; WARP], &[*c; WARP], L0);
                        warp.scatter(values, &[start + k; WARP], &[*v; WARP], L0);
                    }
                    warp.scatter(row_len, &[row; WARP], &[merged.len() as u32; WARP], L0);
                    nnz_ref.fetch_add(
                        merged.len() as i64 - old_len as i64,
                        std::sync::atomic::Ordering::Relaxed,
                    );
                });
            })
        };

        let mut overflow = overflow.into_inner().unwrap();
        overflow.sort_unstable();
        let nnz_delta = nnz_delta.into_inner();
        let new_nnz = (self.matrix().nnz() as i64 + nnz_delta) as usize;
        self.matrix_mut().set_nnz(new_nnz);

        let mut rebuilt = false;
        if !overflow.is_empty() {
            // Host-side fallback: merge the overflowed rows' updates into
            // a packed CSR and rebuild the device matrix with fresh slack.
            let sub = sub_batch(batch, &overflow);
            let rebuilt_csr = sub.apply_to_csr(&self.matrix().to_csr());
            copy_seconds += self.rebuild(dev, &rebuilt_csr);
            rebuilt = true;
        }
        self.rebin(dev);
        UpdateReport {
            kernel,
            copy_seconds,
            overflowed_rows: overflow.len(),
            rebuilt,
            nnz_after: self.matrix().nnz(),
        }
    }

    /// Replace the device matrix with `m` (fresh slack); returns the
    /// modeled upload time, the same staged bytes as a cold start.
    pub fn rebuild(&mut self, dev: &Device, m: &CsrMatrix<T>) -> f64 {
        let cfg = *self.config();
        *self.matrix_mut() = AcsrMatrix::from_csr(dev, m, &cfg);
        self.rebin(dev);
        dev.record_htod("acsr_rebuild_upload", self.matrix().upload_bytes())
            .time_s
    }
}

/// Restrict `batch` to the given rows (sorted subset).
fn sub_batch<T: Scalar>(batch: &UpdateBatch<T>, rows: &[u32]) -> UpdateBatch<T> {
    let keep: std::collections::HashSet<u32> = rows.iter().copied().collect();
    let mut out = UpdateBatch::empty();
    for (i, &r) in batch.rows.iter().enumerate() {
        if !keep.contains(&r) {
            continue;
        }
        let (del, ins, ivals) = batch.row_ops(i);
        out.rows.push(r);
        out.delete_cols.extend_from_slice(del);
        out.delete_offsets.push(out.delete_cols.len() as u32);
        out.insert_cols.extend_from_slice(ins);
        out.insert_vals.extend_from_slice(ivals);
        out.insert_offsets.push(out.insert_cols.len() as u32);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AcsrConfig;
    use gpu_sim::presets;
    use graphgen::{generate_power_law, generate_update_batch, PowerLawConfig, UpdateConfig};

    fn matrix(rows: usize, seed: u64) -> CsrMatrix<f64> {
        generate_power_law(&PowerLawConfig {
            rows,
            cols: rows,
            mean_degree: 8.0,
            max_degree: 400,
            pinned_max_rows: 2,
            col_skew: 0.4,
            seed,
            ..Default::default()
        })
    }

    #[test]
    fn device_update_matches_host_reference() {
        let m = matrix(2000, 111);
        let dev = Device::new(presets::gtx_titan());
        let mut engine = AcsrEngine::from_csr(&dev, &m, AcsrConfig::for_device(dev.config()));
        let batch = generate_update_batch(&m, &UpdateConfig::default());
        let want = batch.apply_to_csr(&m);
        let report = engine.apply_update(&dev, &batch);
        let got = engine.matrix().to_csr();
        assert_eq!(got, want);
        assert_eq!(report.nnz_after, want.nnz());
        engine.matrix().validate().unwrap();
    }

    #[test]
    fn repeated_epochs_stay_consistent() {
        let m = matrix(1500, 112);
        let dev = Device::new(presets::gtx_titan());
        let mut engine = AcsrEngine::from_csr(&dev, &m, AcsrConfig::for_device(dev.config()));
        let mut host = m.clone();
        for epoch in 0..5u64 {
            let batch = generate_update_batch(
                &host,
                &UpdateConfig {
                    seed: 500 + epoch,
                    ..Default::default()
                },
            );
            host = batch.apply_to_csr(&host);
            engine.apply_update(&dev, &batch);
            assert_eq!(engine.matrix().to_csr(), host, "epoch {epoch}");
        }
    }

    #[test]
    fn spmv_is_correct_after_updates() {
        use spmv_kernels::GpuSpmv;
        let m = matrix(1800, 113);
        let dev = Device::new(presets::gtx_titan());
        let mut engine = AcsrEngine::from_csr(&dev, &m, AcsrConfig::for_device(dev.config()));
        let batch = generate_update_batch(&m, &UpdateConfig::default());
        engine.apply_update(&dev, &batch);
        let updated = batch.apply_to_csr(&m);
        let x: Vec<f64> = (0..m.cols()).map(|i| 1.0 + (i % 6) as f64 * 0.3).collect();
        let xd = dev.alloc(x.clone());
        let yd = dev.alloc_zeroed::<f64>(m.rows());
        engine.spmv(&dev, &xd, &yd);
        let d = sparse_formats::scalar::rel_l2_distance(yd.as_slice(), &updated.spmv(&x));
        assert!(d < 1e-12, "rel distance {d}");
    }

    #[test]
    fn insert_heavy_update_overflows_and_rebuilds() {
        let m = matrix(800, 114);
        let dev = Device::new(presets::gtx_titan());
        let cfg = AcsrConfig::for_device(dev.config());
        let mut engine = AcsrEngine::from_csr(&dev, &m, cfg);
        // insert one column more into row 5 than its slack can hold
        let (rcols, _) = m.row(5);
        let overflow = rcols.len() + AcsrConfig::MIN_SLACK + 1;
        let mut ins: Vec<u32> = (0..800u32)
            .filter(|c| rcols.binary_search(c).is_err())
            .take(overflow)
            .collect();
        assert_eq!(ins.len(), overflow, "row 5 leaves room for the inserts");
        ins.sort_unstable();
        let batch = UpdateBatch {
            rows: vec![5],
            delete_offsets: vec![0, 0],
            delete_cols: vec![],
            insert_offsets: vec![0, ins.len() as u32],
            insert_vals: vec![1.5; ins.len()],
            insert_cols: ins,
        };
        let report = engine.apply_update(&dev, &batch);
        assert_eq!(report.overflowed_rows, 1);
        assert!(report.rebuilt);
        assert_eq!(engine.matrix().to_csr(), batch.apply_to_csr(&m));
        engine.matrix().validate().unwrap();
    }

    #[test]
    fn delta_copy_is_much_cheaper_than_full_upload() {
        let m = matrix(5000, 115);
        let dev = Device::new(presets::gtx_titan());
        let mut engine = AcsrEngine::from_csr(&dev, &m, AcsrConfig::for_device(dev.config()));
        let batch = generate_update_batch(&m, &UpdateConfig::default());
        let full_upload = dev.htod_seconds(engine.matrix().upload_bytes());
        let report = engine.apply_update(&dev, &batch);
        assert!(
            report.copy_seconds * 3.0 < full_upload,
            "delta {} vs full {}",
            report.copy_seconds,
            full_upload
        );
    }

    #[test]
    fn rebinning_happens_after_update() {
        let m = matrix(1200, 116);
        let dev = Device::new(presets::gtx_titan());
        let mut engine = AcsrEngine::from_csr(&dev, &m, AcsrConfig::for_device(dev.config()));
        // delete every entry of row 0 (a pinned max row) — its bin changes
        let (rcols, _) = m.row(0);
        let batch = UpdateBatch {
            rows: vec![0],
            delete_offsets: vec![0, rcols.len() as u32],
            delete_cols: rcols.to_vec(),
            insert_offsets: vec![0, 0],
            insert_cols: vec![],
            insert_vals: vec![],
        };
        assert!(!engine.binning().bin_rows(0).contains(&0));
        engine.apply_update(&dev, &batch);
        assert_eq!(engine.matrix().to_csr().row_nnz(0), 0);
        // row 0 must have moved to the empty-rows bin after re-binning
        assert!(engine.binning().bin_rows(0).contains(&0));
    }
}
