//! The streaming engine's correctness bar: after any batch sequence the
//! maintained engine must be **bit-identical** to a from-scratch
//! [`StreamEngine::build`] of the same logical matrix — metadata, live
//! elements, binning, and every subsequent SpMV's values, counters and
//! modeled time.

use acsr::AcsrConfig;
use acsr_stream::StreamEngine;
use gpu_sim::{presets, Device, DeviceBuffer, RunReport};
use graphgen::{
    generate_edge_stream, generate_rmat, generate_update_batch, ChurnConfig, RmatConfig,
    UpdateConfig,
};
use sparse_formats::CsrMatrix;
use spmv_kernels::GpuSpmv;

fn rmat(scale: u32, seed: u64) -> CsrMatrix<f64> {
    generate_rmat(&RmatConfig {
        scale,
        edge_factor: 8,
        seed,
        ..Default::default()
    })
}

fn xvec(cols: usize) -> Vec<f64> {
    (0..cols).map(|i| 0.5 + (i % 11) as f64 * 0.125).collect()
}

/// Assert maintained ≡ fresh: geometry, elements, binning, and one SpMV's
/// bits + modeled report.
fn assert_bit_identical(dev: &Device, maintained: &StreamEngine<f64>, fresh: &StreamEngine<f64>) {
    let (a, b) = (maintained.acsr().matrix(), fresh.acsr().matrix());
    assert_eq!(a.row_start.as_slice(), b.row_start.as_slice(), "row_start");
    assert_eq!(a.row_len.as_slice(), b.row_len.as_slice(), "row_len");
    assert_eq!(a.row_cap.as_slice(), b.row_cap.as_slice(), "row_cap");
    assert_eq!(a.nnz(), b.nnz(), "nnz");
    assert_eq!(maintained.to_csr(), fresh.to_csr(), "live elements");
    assert_eq!(
        maintained.acsr().binning(),
        fresh.acsr().binning(),
        "binning"
    );
    assert_eq!(maintained.occupancy(), fresh.occupancy(), "occupancy");
    assert_eq!(maintained.layout(), fresh.layout(), "layout");

    let x = xvec(a.cols());
    let xd = dev.alloc(x);
    let ya: DeviceBuffer<f64> = dev.alloc(vec![-3.0; a.rows()]);
    let yb: DeviceBuffer<f64> = dev.alloc(vec![-5.0; b.rows()]);
    let ra = maintained.spmv(dev, &xd, &ya);
    let rb = fresh.spmv(dev, &xd, &yb);
    for (r, (va, vb)) in ya.as_slice().iter().zip(yb.as_slice()).enumerate() {
        assert_eq!(va.to_bits(), vb.to_bits(), "y[{r}]");
    }
    assert_eq!(ra.counters, rb.counters, "SpMV counters");
    assert_eq!(
        ra.time_s.to_bits(),
        rb.time_s.to_bits(),
        "SpMV modeled time: {} vs {}",
        ra.time_s,
        rb.time_s
    );
    assert_eq!(ra.launches, rb.launches, "SpMV launches");
}

#[test]
fn build_round_trips_the_matrix() {
    let m = rmat(10, 7);
    let dev = Device::new(presets::gtx_titan());
    let eng = StreamEngine::build(&dev, &m, AcsrConfig::static_long_tail());
    assert_eq!(eng.to_csr(), m);
    eng.acsr().matrix().validate().unwrap();
    // every non-empty row's capacity is its bin's slot width
    for r in 0..m.rows() {
        let cap = eng.acsr().matrix().row_cap.as_slice()[r] as usize;
        let len = m.row_nnz(r);
        if len > 0 {
            assert!(cap >= len && cap < 2 * len.next_power_of_two().max(2) + 1);
        } else {
            assert_eq!(cap, 0);
        }
    }
}

#[test]
fn one_batch_matches_host_reference_and_fresh_build() {
    let m = rmat(10, 21);
    let dev = Device::new(presets::gtx_titan());
    let cfg = AcsrConfig::static_long_tail();
    let mut eng = StreamEngine::build(&dev, &m, cfg);
    let batch = generate_update_batch(&m, &UpdateConfig::default());
    let want = batch.apply_to_csr(&m);
    let report = eng.apply_batch(&dev, &batch);
    assert_eq!(eng.to_csr(), want);
    assert_eq!(report.nnz_after, want.nnz());
    assert_eq!(report.touched_rows, batch.rows.len());
    assert_eq!(eng.epoch(), 1);
    let fresh = StreamEngine::build(&dev, &want, cfg);
    assert_bit_identical(&dev, &eng, &fresh);
}

#[test]
fn sustained_rmat_stream_stays_identical_every_batch() {
    let m = rmat(9, 31);
    let dev = Device::new(presets::gtx_titan());
    let cfg = AcsrConfig::static_long_tail();
    let mut eng = StreamEngine::build(&dev, &m, cfg);
    let stream = generate_edge_stream(
        &m,
        &ChurnConfig {
            updates_per_sec: 40_000.0,
            batch_interval_s: 0.005,
            horizon_s: 0.05,
            ..Default::default()
        },
    );
    assert!(stream.len() >= 8, "need a sustained stream");
    let mut host = m.clone();
    for (k, tb) in stream.iter().enumerate() {
        host = tb.batch.apply_to_csr(&host);
        let report = eng.apply_batch(&dev, &tb.batch);
        assert_eq!(report.touched_rows, tb.batch.rows.len(), "batch {k}");
        assert_eq!(eng.to_csr(), host, "batch {k}");
        let fresh = StreamEngine::build(&dev, &host, cfg);
        assert_bit_identical(&dev, &eng, &fresh);
    }
    assert_eq!(eng.epoch(), stream.len() as u64);
}

#[test]
fn insert_flood_grows_buffers_and_stays_identical() {
    // small matrix + heavy inserts: the canonical layout must outgrow the
    // element buffers and take the BufferGrow path
    let m = rmat(7, 5);
    let dev = Device::new(presets::gtx_titan());
    let cfg = AcsrConfig::static_long_tail();
    let mut eng = StreamEngine::build(&dev, &m, cfg);
    let mut host = m.clone();
    let mut grown = Vec::new();
    for round in 0..6u64 {
        let stream = generate_edge_stream(
            &host,
            &ChurnConfig {
                updates_per_sec: 60_000.0,
                batch_interval_s: 0.01,
                horizon_s: 0.03,
                insert_fraction: 0.95,
                seed: 900 + round,
                ..Default::default()
            },
        );
        for tb in &stream {
            host = tb.batch.apply_to_csr(&host);
            let r = eng.apply_batch(&dev, &tb.batch);
            if r.buffer_grown {
                grown.push((r.bytes_rewritten, eng.layout().total()));
            }
        }
    }
    assert!(!grown.is_empty(), "insert flood must trigger buffer growth");
    // A regrow rewrites at least the fresh buffers' element bytes: twice
    // the layout it grew for, at 4 + 8 bytes per slot.
    for (bytes, layout_slots) in grown {
        let regrown = 2 * layout_slots as u64 * (4 + 8);
        assert!(
            bytes >= regrown,
            "{bytes} B rewritten < {regrown} B regrown"
        );
    }
    let fresh = StreamEngine::build(&dev, &host, cfg);
    assert_bit_identical(&dev, &eng, &fresh);
}

#[test]
fn steady_churn_is_mostly_in_place() {
    let m = rmat(10, 77);
    let dev = Device::new(presets::gtx_titan());
    let mut eng = StreamEngine::build(&dev, &m, AcsrConfig::static_long_tail());
    let stream = generate_edge_stream(
        &m,
        &ChurnConfig {
            updates_per_sec: 30_000.0,
            batch_interval_s: 0.004,
            horizon_s: 0.04,
            ..Default::default()
        },
    );
    let (mut in_place, mut migrated) = (0, 0);
    for tb in &stream {
        let r = eng.apply_batch(&dev, &tb.batch);
        in_place += r.in_place_rows;
        migrated += r.migrated_rows;
        assert!(!r.buffer_grown, "steady churn must not regrow buffers");
    }
    // balanced insert/delete churn: the slot layout absorbs most touched
    // rows in place; migrations (bin-class changes) are the minority
    assert!(
        in_place > migrated,
        "in-place {in_place} vs migrated {migrated}"
    );
}

#[test]
fn in_place_batch_rewrites_exactly_its_live_entries() {
    // swap one column in every fourth row of two or more entries: no
    // length changes, so no row changes bin or slot
    let m = rmat(9, 41);
    let dev = Device::new(presets::gtx_titan());
    let cfg = AcsrConfig::static_long_tail();
    let mut eng = StreamEngine::build(&dev, &m, cfg);
    let mut batch = sparse_formats::UpdateBatch::<f64>::empty();
    for r in (0..m.rows()).step_by(4).filter(|&r| m.row_nnz(r) >= 2) {
        let (cols, _) = m.row(r);
        let fresh = (0..m.cols() as u32)
            .find(|c| cols.binary_search(c).is_err())
            .unwrap();
        batch.rows.push(r as u32);
        batch.delete_cols.push(cols[0]);
        batch.delete_offsets.push(batch.delete_cols.len() as u32);
        batch.insert_cols.push(fresh);
        batch.insert_vals.push(0.75);
        batch.insert_offsets.push(batch.insert_cols.len() as u32);
    }
    assert!(batch.rows.len() >= 8, "need a batch of some width");
    let host = batch.apply_to_csr(&m);
    let report = eng.apply_batch(&dev, &batch);
    assert_eq!(report.in_place_rows, batch.rows.len());
    assert_eq!(report.migrated_rows, 0);
    assert_eq!(report.relocated_rows, 0);
    assert!(!report.buffer_grown);
    let live: usize = batch.rows.iter().map(|&r| host.row_nnz(r as usize)).sum();
    assert_eq!(report.bytes_rewritten, live as u64 * (4 + 8));
    assert_bit_identical(&dev, &eng, &StreamEngine::build(&dev, &host, cfg));
}

#[test]
fn incremental_batch_is_much_cheaper_than_rebuild() {
    let m = rmat(14, 13);
    let dev = Device::new(presets::gtx_titan());
    let cfg = AcsrConfig::static_long_tail();
    let mut eng = StreamEngine::build(&dev, &m, cfg);
    let stream = generate_edge_stream(
        &m,
        &ChurnConfig {
            updates_per_sec: 100_000.0,
            batch_interval_s: 0.01,
            horizon_s: 0.01,
            ..Default::default()
        },
    );
    let report = eng.apply_batch(&dev, &stream[0].batch);
    // the rebuild alternative ships the whole device matrix over PCIe
    let rebuild_s = dev.htod_seconds(eng.acsr().matrix().device_bytes());
    assert!(
        report.total_seconds * 10.0 < rebuild_s,
        "incremental {:.3e}s vs rebuild {:.3e}s",
        report.total_seconds,
        rebuild_s
    );
}

#[test]
fn empty_batch_is_a_cheap_no_op() {
    let m = rmat(8, 3);
    let dev = Device::new(presets::gtx_titan());
    let cfg = AcsrConfig::static_long_tail();
    let mut eng = StreamEngine::build(&dev, &m, cfg);
    let report = eng.apply_batch(&dev, &sparse_formats::UpdateBatch::empty());
    assert_eq!(report.plan.launches, 0, "no phantom plan launch");
    assert_eq!(report.maintain.launches, 0, "no phantom maintenance launch");
    assert_eq!(report.touched_rows, 0);
    assert_eq!(report.migrated_rows, 0);
    assert_eq!(report.nnz_after, m.nnz());
    assert_eq!(eng.to_csr(), m);
    let fresh = StreamEngine::build(&dev, &m, cfg);
    assert_bit_identical(&dev, &eng, &fresh);
}

#[test]
fn row_emptying_and_refilling_batches_stay_identical() {
    let m = rmat(8, 17);
    let dev = Device::new(presets::gtx_titan());
    let cfg = AcsrConfig::static_long_tail();
    let mut eng = StreamEngine::build(&dev, &m, cfg);
    // empty the densest row entirely, then refill it sparsely
    let r = (0..m.rows()).max_by_key(|&r| m.row_nnz(r)).unwrap() as u32;
    let (rcols, _) = m.row(r as usize);
    let wipe = sparse_formats::UpdateBatch::<f64> {
        rows: vec![r],
        delete_offsets: vec![0, rcols.len() as u32],
        delete_cols: rcols.to_vec(),
        insert_offsets: vec![0, 0],
        insert_cols: vec![],
        insert_vals: vec![],
    };
    let host1 = wipe.apply_to_csr(&m);
    eng.apply_batch(&dev, &wipe);
    assert_eq!(eng.to_csr(), host1);
    assert_bit_identical(&dev, &eng, &StreamEngine::build(&dev, &host1, cfg));

    let refill = sparse_formats::UpdateBatch::<f64> {
        rows: vec![r],
        delete_offsets: vec![0, 0],
        delete_cols: vec![],
        insert_offsets: vec![0, 2],
        insert_cols: vec![1, 5],
        insert_vals: vec![2.5, -1.25],
    };
    let host2 = refill.apply_to_csr(&host1);
    eng.apply_batch(&dev, &refill);
    assert_eq!(eng.to_csr(), host2);
    assert_bit_identical(&dev, &eng, &StreamEngine::build(&dev, &host2, cfg));
}

#[test]
fn zero_row_matrix_builds_and_serves_as_a_no_op() {
    let m = sparse_formats::TripletMatrix::<f64>::new(0, 0).to_csr();
    let dev = Device::new(presets::gtx_titan());
    let cfg = AcsrConfig::static_long_tail();
    let mut eng = StreamEngine::build(&dev, &m, cfg);
    assert_eq!(eng.to_csr(), m);
    let x: DeviceBuffer<f64> = dev.alloc(Vec::new());
    let y: DeviceBuffer<f64> = dev.alloc(Vec::new());
    assert_eq!(eng.spmv(&dev, &x, &y), RunReport::default());
    assert_eq!(eng.spmv_multi(&dev, &[&x], &[&y]), RunReport::default());
    let report = eng.apply_batch(&dev, &sparse_formats::UpdateBatch::empty());
    assert_eq!(report.touched_rows, 0);
    assert_bit_identical(&dev, &eng, &StreamEngine::build(&dev, &m, cfg));
}
