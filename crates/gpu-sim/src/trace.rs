//! Launch-level trace ledger.
//!
//! Every [`crate::Device::launch`], every kernel added to a
//! [`crate::ConcurrentGroup`], every dynamic child wave (per shard), and
//! every modeled PCIe transfer can emit a *span*: name, grid/block shape,
//! SM attribution, [`Counters`], and [`TimeBreakdown`], appended to a
//! [`TraceLedger`]. The ledger supports
//!
//! * a chrome://tracing export ([`TraceLedger::chrome_trace`]) so a
//!   bench run can be opened in a trace viewer. The events are built as
//!   [`serde::Value`]s ([`TraceLedger::chrome_events`]), which the
//!   serving timeline extends and the bench crate's artifact writer
//!   renders,
//! * a reconciliation check ([`TraceLedger::reconcile`]) asserting that
//!   the per-span counters sum *bit-identically* to the merged
//!   [`RunReport`] — a standing accounting invariant wired into the
//!   determinism proptests.
//!
//! Tracing is strictly opt-in: a [`crate::Device`] without a ledger
//! attached skips every snapshot (one branch per launch), so the default
//! path is unchanged. Attach a private ledger with
//! [`crate::Device::enable_tracing`], or flip the process-global capture
//! flag ([`enable_global_capture`]) so every *subsequently created*
//! device records into the shared [`global_ledger`] — the hook the bench
//! binary's `--trace` flag uses, since experiments construct their
//! devices internally.
//!
//! Span *times* are model times, not host wall-clock: launches are laid
//! end to end on a per-ledger virtual clock (`t_start` of a launch is
//! the sum of all earlier spans' durations), and stream/child spans are
//! placed inside their parent with a roofline-attributed duration. This
//! keeps the export deterministic — same run, same bytes.

use crate::config::DeviceConfig;
use crate::counters::{Counters, RunReport, TimeBreakdown};
use parking_lot::Mutex;
use serde::{Serialize, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// What a [`Span`] describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// One [`crate::Device::launch`] or one finished
    /// [`crate::ConcurrentGroup`] (the merged report).
    Launch,
    /// One kernel added to a concurrent group (its slice of the pooled
    /// counters), child of a `Launch` span.
    Stream,
    /// One dynamic child grid's blocks on one shard (SM), child of a
    /// `Launch` span.
    ChildWave,
    /// A modeled PCIe transfer (H2D upload or D2H readback).
    Transfer,
}

impl SpanKind {
    fn cat(self) -> &'static str {
        match self {
            SpanKind::Launch => "launch",
            SpanKind::Stream => "stream",
            SpanKind::ChildWave => "child",
            SpanKind::Transfer => "transfer",
        }
    }
}

/// One trace event.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub kind: SpanKind,
    /// Kernel / transfer name.
    pub name: String,
    /// Device the span executed on (config name).
    pub device: String,
    /// Grid blocks (0 for transfers and merged group spans).
    pub grid_blocks: usize,
    /// Threads per block (0 for transfers and merged group spans).
    pub block_dim: usize,
    /// Home SM for `ChildWave` spans.
    pub sm: Option<usize>,
    /// Stream index (`Stream`) or child launch sequence (`ChildWave`).
    pub seq: Option<usize>,
    /// Index of the parent `Launch` span within the ledger.
    pub parent: Option<usize>,
    /// Start on the ledger's virtual clock, seconds.
    pub t_start_s: f64,
    /// Modeled duration, seconds.
    pub dur_s: f64,
    /// Event counts attributed to this span.
    pub counters: Counters,
    /// Full breakdown (top-level spans only).
    pub breakdown: Option<TimeBreakdown>,
    /// Kernel launches merged into this span (0 for sub-spans/transfers).
    pub launches: u32,
    /// Issue slots attributed per SM (`Launch` spans only) — the
    /// profiler's load-imbalance input.
    pub sm_issue_cycles: Option<Vec<u64>>,
    /// Serving-plane correlation id: the wave that issued this span, set
    /// via [`TraceLedger::set_wave`] while the wave executes. `None`
    /// outside the serving path — and then absent from the JSON export,
    /// so kernel-plane traces are unchanged.
    pub wave: Option<u64>,
}

impl Span {
    /// Top-level spans carry the authoritative counters; `Stream` and
    /// `ChildWave` spans re-slice their parent's.
    pub fn is_top_level(&self) -> bool {
        self.parent.is_none()
    }
}

/// How a span enters a fold of a span list that counts each event
/// exactly once (see [`span_roles`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanRole {
    /// Counted: a launch without stream sub-spans, a stream, or a
    /// transfer.
    Counted,
    /// A pooled group's launch: its counters are the sum of its
    /// streams', which are counted instead.
    Group,
    /// A dynamic child wave: its counters are inside its parent's.
    Nested,
}

/// The [`SpanRole`] of each span of a ledger span list (in record
/// order, so `Span::parent` indexes into `spans`). Folding only the
/// `Counted` spans attributes every counter increment exactly once.
pub fn span_roles(spans: &[Span]) -> Vec<SpanRole> {
    let mut roles: Vec<SpanRole> = spans
        .iter()
        .map(|s| match s.kind {
            SpanKind::ChildWave => SpanRole::Nested,
            _ => SpanRole::Counted,
        })
        .collect();
    let stream_parents = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Stream)
        .filter_map(|s| s.parent);
    for p in stream_parents {
        if spans.get(p).is_some_and(|s| s.kind == SpanKind::Launch) {
            roles[p] = SpanRole::Group;
        }
    }
    roles
}

/// One group-stream's slice of a pooled launch, recorded by
/// `ConcurrentGroup::add` while tracing.
#[derive(Clone, Debug)]
pub(crate) struct StreamRec {
    pub(crate) name: String,
    pub(crate) grid_blocks: usize,
    pub(crate) block_dim: usize,
    pub(crate) counters: Counters,
}

/// One dynamic child grid's blocks on one shard, recorded by the child
/// wave executor while tracing.
#[derive(Clone, Debug)]
pub(crate) struct ChildRec {
    pub(crate) seq: usize,
    pub(crate) sm: usize,
    pub(crate) grid_blocks: usize,
    pub(crate) block_dim: usize,
    pub(crate) counters: Counters,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    /// Sequence-merge of every recorded top-level report, in record order.
    total: RunReport,
    /// Virtual clock: sum of recorded top-level durations so far.
    clock_s: f64,
    /// Wave id stamped onto every span recorded while set.
    wave: Option<u64>,
}

/// Append-only ledger of launch spans (see module docs). Thread-safe;
/// recording takes one short mutex hold per launch.
#[derive(Default)]
pub struct TraceLedger {
    inner: Mutex<Inner>,
}

/// Roofline share of a counter slice: the larger of its issue time and
/// its DRAM time. Used to give sub-spans a plausible duration inside
/// their parent; sub-span durations are schematic and do *not* take part
/// in reconciliation.
fn attributed_seconds(cfg: &DeviceConfig, c: &Counters) -> f64 {
    let compute = c.warp_instructions as f64 / cfg.issue_rate();
    let memory = c.dram_bytes() as f64 / cfg.bandwidth_bytes_s();
    compute.max(memory)
}

impl TraceLedger {
    pub fn new() -> TraceLedger {
        TraceLedger::default()
    }

    /// Record one top-level launch report plus its sub-spans.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_launch(
        &self,
        cfg: &DeviceConfig,
        report: &RunReport,
        grid_blocks: usize,
        block_dim: usize,
        sm_issue: Vec<u64>,
        streams: Vec<StreamRec>,
        children: Vec<ChildRec>,
    ) {
        let mut inner = self.inner.lock();
        let parent = inner.spans.len();
        let t0 = inner.clock_s;
        let wave = inner.wave;
        inner.spans.push(Span {
            kind: SpanKind::Launch,
            name: report.name.clone(),
            device: cfg.name.clone(),
            grid_blocks,
            block_dim,
            sm: None,
            seq: None,
            parent: None,
            t_start_s: t0,
            dur_s: report.time_s,
            counters: report.counters,
            breakdown: Some(report.breakdown),
            launches: report.launches,
            sm_issue_cycles: Some(sm_issue),
            wave,
        });
        // Sub-spans start after the parent's launch overhead.
        let t_body = t0 + report.breakdown.launch_s;
        for (i, s) in streams.into_iter().enumerate() {
            let dur = attributed_seconds(cfg, &s.counters);
            inner.spans.push(Span {
                kind: SpanKind::Stream,
                name: s.name,
                device: cfg.name.clone(),
                grid_blocks: s.grid_blocks,
                block_dim: s.block_dim,
                sm: None,
                seq: Some(i),
                parent: Some(parent),
                t_start_s: t_body,
                dur_s: dur,
                counters: s.counters,
                breakdown: None,
                launches: 1,
                sm_issue_cycles: None,
                wave,
            });
        }
        for c in children {
            let dur = attributed_seconds(cfg, &c.counters);
            let name = format!("{}.child{}", report.name, c.seq);
            inner.spans.push(Span {
                kind: SpanKind::ChildWave,
                name,
                device: cfg.name.clone(),
                grid_blocks: c.grid_blocks,
                block_dim: c.block_dim,
                sm: Some(c.sm),
                seq: Some(c.seq),
                parent: Some(parent),
                t_start_s: t_body,
                dur_s: dur,
                counters: c.counters,
                breakdown: None,
                launches: 0,
                sm_issue_cycles: None,
                wave,
            });
        }
        inner.total = std::mem::take(&mut inner.total).then(report);
        inner.clock_s += report.time_s;
    }

    /// Record a modeled PCIe transfer (the report carries `htod_bytes`
    /// or `dtoh_bytes` and a pure-`transfer_s` breakdown).
    pub(crate) fn record_transfer(&self, cfg: &DeviceConfig, report: &RunReport) {
        let mut inner = self.inner.lock();
        let t0 = inner.clock_s;
        let wave = inner.wave;
        inner.spans.push(Span {
            kind: SpanKind::Transfer,
            name: report.name.clone(),
            device: cfg.name.clone(),
            grid_blocks: 0,
            block_dim: 0,
            sm: None,
            seq: None,
            parent: None,
            t_start_s: t0,
            dur_s: report.time_s,
            counters: report.counters,
            breakdown: Some(report.breakdown),
            launches: report.launches,
            sm_issue_cycles: None,
            wave,
        });
        inner.total = std::mem::take(&mut inner.total).then(report);
        inner.clock_s += report.time_s;
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.inner.lock().spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all spans, in record order.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.lock().spans.clone()
    }

    /// The sequence-merge of every recorded top-level report — what the
    /// caller would get by `.then()`-chaining the same reports itself.
    pub fn total(&self) -> RunReport {
        self.inner.lock().total.clone()
    }

    /// Drop all recorded spans and reset the clock/total.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.spans.clear();
        inner.total = RunReport::default();
        inner.clock_s = 0.0;
        inner.wave = None;
    }

    /// Set (or clear) the serving-plane wave id stamped onto every span
    /// recorded from now on. The serving scheduler wraps each wave's
    /// device dispatch in `set_wave(Some(id))` / `set_wave(None)`, which
    /// is what joins a query's request span to its kernel launches in
    /// the correlated timeline export.
    pub fn set_wave(&self, wave: Option<u64>) {
        self.inner.lock().wave = wave;
    }

    /// Verify the ledger's accounting invariants and return the merged
    /// total on success:
    ///
    /// 1. Top-level span counters sum *exactly* (integer equality) to the
    ///    merged total's counters; launches likewise.
    /// 2. Top-level span durations, folded in record order, equal the
    ///    total's `time_s` *bit-identically* (same fold the merge does).
    /// 3. Each pooled group's stream counters sum exactly to the parent
    ///    launch's counters.
    pub fn reconcile(&self) -> Result<RunReport, String> {
        let inner = self.inner.lock();
        let mut counters = Counters::default();
        let mut time_s = 0.0f64;
        let mut launches = 0u32;
        for span in inner.spans.iter().filter(|s| s.is_top_level()) {
            counters.merge(&span.counters);
            time_s += span.dur_s;
            launches += span.launches;
        }
        if counters != inner.total.counters {
            return Err(format!(
                "span counters do not reconcile:\n spans  {:?}\n total  {:?}",
                counters, inner.total.counters
            ));
        }
        if launches != inner.total.launches {
            return Err(format!(
                "span launches {} != total launches {}",
                launches, inner.total.launches
            ));
        }
        if time_s.to_bits() != inner.total.time_s.to_bits() {
            return Err(format!(
                "span time fold {:e} is not bit-identical to total {:e}",
                time_s, inner.total.time_s
            ));
        }
        for (idx, span) in inner.spans.iter().enumerate() {
            if span.kind != SpanKind::Launch {
                continue;
            }
            let streams: Vec<&Span> = inner
                .spans
                .iter()
                .filter(|s| s.kind == SpanKind::Stream && s.parent == Some(idx))
                .collect();
            if streams.is_empty() {
                continue;
            }
            let sum = Counters::sum(streams.iter().map(|s| &s.counters));
            if sum != span.counters {
                return Err(format!(
                    "stream counters of '{}' do not sum to the pooled launch:\n streams {:?}\n launch  {:?}",
                    span.name, sum, span.counters
                ));
            }
        }
        Ok(inner.total.clone())
    }

    /// Every span as a chrome://tracing "trace event format" record, after
    /// one `process_name` metadata record per device. Processes are
    /// devices, numbered in first-appearance order; track 0 holds
    /// top-level launches/transfers, tracks `1+i` the group streams,
    /// tracks `64+sm` the child waves. Each span is a complete event
    /// whose `args` carry its shape, [`Counters`] and, for top-level
    /// spans, its [`TimeBreakdown`]; `parent`, `sm`, `seq`, `wave` and
    /// `breakdown` appear only when the span has them.
    pub fn chrome_events(&self) -> Vec<Value> {
        let inner = self.inner.lock();
        let mut devices: Vec<&str> = Vec::new();
        for span in &inner.spans {
            if !devices.contains(&span.device.as_str()) {
                devices.push(&span.device);
            }
        }
        let mut events: Vec<Value> = devices
            .iter()
            .enumerate()
            .map(|(pid, dev)| metadata_event("process_name", pid, 0, dev))
            .collect();
        for (span_id, span) in inner.spans.iter().enumerate() {
            let pid = devices
                .iter()
                .position(|d| *d == span.device.as_str())
                .unwrap_or(0);
            let tid = match span.kind {
                SpanKind::Launch | SpanKind::Transfer => 0,
                SpanKind::Stream => 1 + span.seq.unwrap_or(0),
                SpanKind::ChildWave => 64 + span.sm.unwrap_or(0),
            };
            // `span_id` is the span's ledger index — the key a
            // PROFILE_*.json metric row's `span_ids` refer back to.
            let mut args = vec![
                ("span_id", span_id.to_value()),
                ("grid_blocks", span.grid_blocks.to_value()),
                ("block_dim", span.block_dim.to_value()),
                ("launches", span.launches.to_value()),
            ];
            for (key, v) in [("parent", span.parent), ("sm", span.sm), ("seq", span.seq)] {
                args.extend(v.map(|v| (key, v.to_value())));
            }
            args.extend(span.wave.map(|w| ("wave", w.to_value())));
            args.push(("counters", span.counters.to_value()));
            args.extend(span.breakdown.map(|b| ("breakdown", b.to_value())));
            events.push(complete_event(
                &span.name,
                span.kind.cat(),
                (span.t_start_s, span.dur_s),
                (pid, tid),
                Value::from_iter(args),
            ));
        }
        events
    }

    /// The chrome://tracing document: [`chrome_events`](Self::chrome_events)
    /// under `traceEvents`, displayed in milliseconds. Open it at
    /// `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn chrome_trace(&self) -> Value {
        Value::from_iter([
            ("traceEvents", Value::Array(self.chrome_events())),
            ("displayTimeUnit", "ms".to_value()),
        ])
    }
}

/// A chrome trace-event metadata record (`ph: "M"`): `kind` is
/// `"process_name"` or `"thread_name"`, and `name` labels process `pid`
/// or its track `tid`.
pub fn metadata_event(kind: &str, pid: usize, tid: usize, name: &str) -> Value {
    Value::from_iter([
        ("name", kind.to_value()),
        ("ph", "M".to_value()),
        ("pid", pid.to_value()),
        ("tid", tid.to_value()),
        ("args", Value::from_iter([("name", name.to_value())])),
    ])
}

/// A chrome trace-event complete record (`ph: "X"`) spanning
/// `(start, duration)` seconds, written in microseconds, on track
/// `(pid, tid)`.
pub fn complete_event(
    name: &str,
    cat: &str,
    (t_start_s, dur_s): (f64, f64),
    (pid, tid): (usize, usize),
    args: Value,
) -> Value {
    Value::from_iter([
        ("name", name.to_value()),
        ("cat", cat.to_value()),
        ("ph", "X".to_value()),
        ("ts", (t_start_s * 1e6).to_value()),
        ("dur", (dur_s * 1e6).to_value()),
        ("pid", pid.to_value()),
        ("tid", tid.to_value()),
        ("args", args),
    ])
}

/// Process-global capture flag read by [`crate::Device::new`].
static GLOBAL_ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<Arc<TraceLedger>> = OnceLock::new();

/// Make every *subsequently created* [`crate::Device`] record into the
/// shared [`global_ledger`]. Used by the bench binary's `--trace` flag,
/// whose experiments construct devices internally.
pub fn enable_global_capture() {
    GLOBAL_ENABLED.store(true, Ordering::SeqCst);
}

/// Stop attaching the global ledger to new devices (already-attached
/// devices keep recording).
pub fn disable_global_capture() {
    GLOBAL_ENABLED.store(false, Ordering::SeqCst);
}

/// Whether [`enable_global_capture`] is in effect.
pub fn global_capture_enabled() -> bool {
    GLOBAL_ENABLED.load(Ordering::SeqCst)
}

/// The process-wide shared ledger (created on first use).
pub fn global_ledger() -> Arc<TraceLedger> {
    GLOBAL.get_or_init(|| Arc::new(TraceLedger::new())).clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::presets;
    use crate::engine::Device;
    use crate::warp::FULL_MASK;

    #[test]
    fn untraced_device_records_nothing() {
        let dev = Device::new(presets::gtx_titan());
        assert!(dev.ledger().is_none());
        dev.launch("k", 4, 64, &|_b| {});
    }

    #[test]
    fn launch_and_transfer_spans_reconcile() {
        let mut dev = Device::new(presets::gtx_titan());
        let ledger = dev.enable_tracing();
        let buf = dev.alloc(vec![1.0f64; 4096]);
        let r1 = dev.launch("read", 8, 128, &|blk| {
            blk.for_each_warp(&mut |warp| {
                let base = warp.first_thread() % 2048;
                warp.read_coalesced(&buf, base, FULL_MASK);
            });
        });
        let r2 = dev.record_dtoh("readback", 4096 * 8);
        assert_eq!(r2.counters.dtoh_bytes, 4096 * 8);
        assert!(r2.breakdown.transfer_s > 0.0);
        let total = ledger.reconcile().expect("ledger reconciles");
        let manual = RunReport::sequence([&r1, &r2]);
        assert_eq!(total.counters, manual.counters);
        assert_eq!(total.time_s.to_bits(), manual.time_s.to_bits());
        assert_eq!(ledger.len(), 2);
    }

    #[test]
    fn group_streams_sum_to_pooled_launch() {
        let mut dev = Device::new(presets::gtx_titan());
        let ledger = dev.enable_tracing();
        let buf = dev.alloc(vec![0u32; 1 << 14]);
        let mut group = dev.launch_group("grp");
        for i in 0..3 {
            group.add(&format!("k{i}"), 4 + i, 64, &|blk| {
                blk.for_each_warp(&mut |warp| {
                    let base = warp.first_thread() % (1 << 13);
                    warp.read_coalesced(&buf, base, FULL_MASK);
                });
            });
        }
        let report = group.finish();
        ledger.reconcile().expect("ledger reconciles");
        let spans = ledger.spans();
        let launch = spans.iter().find(|s| s.kind == SpanKind::Launch).unwrap();
        assert_eq!(launch.counters, report.counters);
        let streams: Vec<_> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Stream)
            .collect();
        assert_eq!(streams.len(), 3);
        let sum = Counters::sum(streams.iter().map(|s| &s.counters));
        assert_eq!(sum, report.counters);
    }

    #[test]
    fn chrome_json_is_stable_and_escapes() {
        let mut dev = Device::new(presets::gtx_titan());
        let ledger = dev.enable_tracing();
        dev.launch("weird\"name\\", 2, 32, &|_b| {});
        let a = serde_json::to_string(&ledger.chrome_trace()).unwrap();
        let b = serde_json::to_string(&ledger.chrome_trace()).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("weird\\\"name\\\\"));
        assert!(a.contains("\"traceEvents\""));
        assert!(a.contains("\"displayTimeUnit\":\"ms\""));
    }

    #[test]
    fn set_wave_stamps_spans_and_exports_in_args() {
        let mut dev = Device::new(presets::gtx_titan());
        let ledger = dev.enable_tracing();
        dev.launch("before", 2, 32, &|_b| {});
        ledger.set_wave(Some(42));
        dev.launch("during", 2, 32, &|_b| {});
        ledger.set_wave(None);
        dev.launch("after", 2, 32, &|_b| {});
        let spans = ledger.spans();
        assert_eq!(spans[0].wave, None);
        assert_eq!(spans[1].wave, Some(42));
        assert_eq!(spans[2].wave, None);
        let json = serde_json::to_string(&ledger.chrome_trace()).unwrap();
        assert!(json.contains("\"wave\":42"));
        assert_eq!(json.matches("\"wave\":").count(), 1);
        ledger
            .reconcile()
            .expect("wave stamps do not disturb accounting");
    }

    #[test]
    fn clear_resets_everything() {
        let mut dev = Device::new(presets::gtx_titan());
        let ledger = dev.enable_tracing();
        dev.launch("k", 2, 32, &|_b| {});
        assert!(!ledger.is_empty());
        ledger.clear();
        assert!(ledger.is_empty());
        assert_eq!(ledger.total(), RunReport::default());
        ledger.reconcile().expect("empty ledger reconciles");
    }
}
