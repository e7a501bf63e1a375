//! # profile — an Nsight-Compute–style per-kernel metrics engine
//!
//! Folds a [`crate::trace::TraceLedger`]'s spans into one row per `(device, kernel)`
//! with *derived* SIMT metrics: warp execution efficiency, global
//! coalescing efficiency, texture hit rate, atomic serialization,
//! achieved occupancy, SM load imbalance, and the active-lane
//! divergence histogram. A roofline classifier places each row against
//! its device preset (arithmetic intensity vs the ridge point
//! `peak_gflops / bandwidth`) and reproduces the paper's §II claim that
//! SpMV is memory-bandwidth-bound on every tested GPU.
//!
//! Three bound/limiter views are reported per row, because they answer
//! different questions:
//!
//! * [`KernelMetrics::roofline`] — the pure roofline verdict from
//!   arithmetic intensity alone (`MemoryBound` iff AI < ridge). SpMV
//!   sits far left of the ridge on every preset, so this is always
//!   `MemoryBound` for the SpMV kernels.
//! * [`KernelMetrics::limiter`] — which modeled time component of the
//!   row's [`TimeBreakdown`] is largest (top-level rows only).
//! * [`KernelMetrics::verdict`] — the roofline verdict *refined by the
//!   timing model*: `LatencyBound` when the critical-path term strictly
//!   dominates both throughput terms (CSR-vector on a heavy-tailed
//!   matrix — the paper's Figure 3), otherwise the roofline answer.
//!
//! ## Accounting contract
//!
//! Rows are built from spans by the same exactly-once rule as
//! `acsr::phases`: `Launch` spans **without** stream sub-spans, plus
//! every `Stream` span, plus every `Transfer` span. A pooled group's
//! merged `Launch` span becomes an *aggregate* [`RowKind::Group`] row
//! (its counters re-appear in its stream rows) and `ChildWave` spans
//! are skipped (their counters live inside their parent's stream or
//! launch row). [`ProfileReport::reconcile`] verifies that the
//! non-aggregate rows' integer counters and launch counts sum *exactly*
//! to the ledger total — the same bit-identical-at-any-thread-width
//! guarantee the ledger itself carries.

use crate::config::DeviceConfig;
use crate::counters::{Counters, RunReport, TimeBreakdown, LANE_HIST_BINS};
use crate::trace::{span_roles, Span, SpanKind, SpanRole};
use serde::Serialize;

/// Roofline classification from arithmetic intensity alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Roofline {
    /// Arithmetic intensity below the device ridge point.
    MemoryBound,
    /// Arithmetic intensity at or above the ridge point.
    ComputeBound,
}

impl Roofline {
    pub fn label(self) -> &'static str {
        match self {
            Roofline::MemoryBound => "memory-bound",
            Roofline::ComputeBound => "compute-bound",
        }
    }
}

/// Largest component of a row's modeled [`TimeBreakdown`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Limiter {
    Compute,
    Memory,
    Latency,
    /// Launch / dynamic-launch / transfer overheads dominate.
    Overhead,
}

impl Limiter {
    pub fn label(self) -> &'static str {
        match self {
            Limiter::Compute => "compute",
            Limiter::Memory => "memory",
            Limiter::Latency => "latency",
            Limiter::Overhead => "overhead",
        }
    }
}

/// Roofline verdict refined by the timing model: latency-bound rows
/// (critical path strictly dominates both throughput terms) are called
/// out, everything else keeps its roofline classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Verdict {
    MemoryBound,
    ComputeBound,
    LatencyBound,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::MemoryBound => "memory-bound",
            Verdict::ComputeBound => "compute-bound",
            Verdict::LatencyBound => "latency-bound",
        }
    }
}

/// What a profile row aggregates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum RowKind {
    /// Plain kernel launches (or one stream's slice of a pooled group).
    Kernel,
    /// A pooled group's merged launch — *aggregate*: excluded from
    /// counter reconciliation because its streams are rows too.
    Group,
    /// PCIe transfers.
    Transfer,
}

impl RowKind {
    pub fn label(self) -> &'static str {
        match self {
            RowKind::Kernel => "kernel",
            RowKind::Group => "group",
            RowKind::Transfer => "transfer",
        }
    }
}

/// Derived per-row metrics. Undefined ratios (no events of the kind)
/// are `None`, never a fabricated 0.0 or 1.0.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct KernelMetrics {
    /// `lane_ops / (32 * warp_instructions)` — Nsight's warp execution
    /// efficiency.
    pub warp_execution_efficiency: Option<f64>,
    /// `min_transactions / mem_transactions` — global load/store
    /// coalescing efficiency.
    pub coalescing_efficiency: Option<f64>,
    /// Texture-path cache hit rate.
    pub tex_hit_rate: Option<f64>,
    /// `1 + conflicts / ops` — mean serialization passes per atomic.
    pub atomic_serialization: Option<f64>,
    /// Fraction of masked warp operations issued with < 32 active lanes.
    pub divergent_op_fraction: Option<f64>,
    /// Occupancy-weighted mean of `min(theoretical, grid warps /
    /// device-wide warp slots)` over the row's sized launches.
    pub achieved_occupancy: Option<f64>,
    /// `max / mean` of per-SM issue slots (1.0 = perfectly balanced).
    pub load_imbalance: Option<f64>,
    /// `flops / dram_bytes` (flop/byte).
    pub arithmetic_intensity: Option<f64>,
    /// Useful floating-point throughput over the row's modeled time.
    pub achieved_gflops: Option<f64>,
    /// DRAM traffic over the row's modeled time, GB/s.
    pub dram_gbs: Option<f64>,
    /// Pure roofline classification (needs a matched device config).
    pub roofline: Option<Roofline>,
    /// Largest modeled time component (top-level rows only).
    pub limiter: Option<Limiter>,
    /// Roofline refined by the timing model (see module docs).
    pub verdict: Option<Verdict>,
}

/// One `(device, kernel)` aggregation of trace spans.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct KernelRow {
    /// Device instance name (e.g. `"GTX Titan"` or `"GTX Titan #1"`).
    pub device: String,
    /// Kernel or transfer name.
    pub name: String,
    pub kind: RowKind,
    /// Number of spans folded into this row.
    pub spans: usize,
    /// Kernel launches folded into this row.
    pub launches: u32,
    /// Ledger indices of the folded spans — each matches the `span_id`
    /// field the chrome-trace exporter writes, cross-linking metric
    /// rows to trace events.
    pub span_ids: Vec<usize>,
    /// Summed span time, seconds (stream rows: attributed time).
    pub time_s: f64,
    /// Summed raw counters.
    pub counters: Counters,
    /// Summed breakdown (top-level spans only).
    pub breakdown: Option<TimeBreakdown>,
    /// Element-wise sum of per-SM issue slots (launch rows only).
    pub sm_issue_cycles: Option<Vec<u64>>,
    /// Derived metrics.
    pub metrics: KernelMetrics,
    /// Occupancy accumulators: Σ(achieved·warps) and Σwarps over sized
    /// launches.
    occ_sum: f64,
    occ_weight: f64,
}

impl KernelRow {
    /// Does this row participate in counter reconciliation?
    pub fn is_counted(&self) -> bool {
        self.kind != RowKind::Group
    }
}

/// Roofline lane for one device preset present in the trace.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct DeviceLane {
    /// Device instance name as spans carry it.
    pub device: String,
    /// Preset peak arithmetic throughput, GFLOP/s.
    pub peak_gflops: f64,
    /// Preset DRAM bandwidth, GB/s.
    pub mem_bandwidth_gbs: f64,
    /// Ridge point, flop/byte.
    pub ridge_flops_per_byte: f64,
}

/// The profiler's output: per-kernel rows plus the ledger-equivalent
/// total, ready for report rendering or JSON export.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ProfileReport {
    /// One lane per device instance seen in the trace (first-appearance
    /// order) that matched a supplied config.
    pub devices: Vec<DeviceLane>,
    /// Rows in first-appearance order.
    pub rows: Vec<KernelRow>,
    /// In-order fold of the top-level spans — bit-identical to
    /// [`crate::trace::TraceLedger::total`] for the same spans.
    pub total: RunReport,
}

/// Match a span's device instance name (`"GTX Titan"`, `"GTX Titan #1"`)
/// to its preset config.
fn find_config<'a>(configs: &'a [DeviceConfig], device: &str) -> Option<&'a DeviceConfig> {
    configs.iter().find(|c| c.name == device).or_else(|| {
        configs.iter().find(|c| {
            device
                .strip_prefix(c.name.as_str())
                .is_some_and(|rest| rest.starts_with(" #"))
        })
    })
}

/// Achieved occupancy of one sized launch under the preset's residency
/// limits: `min(theoretical, grid_warps / device-wide warp slots)`.
fn launch_occupancy(cfg: &DeviceConfig, grid_blocks: usize, block_dim: usize) -> (f64, f64) {
    let wpb = block_dim.div_ceil(32).max(1);
    let resident_blocks = (cfg.max_warps_per_sm / wpb).min(cfg.max_blocks_per_sm);
    let resident_warps = (resident_blocks * wpb).min(cfg.max_warps_per_sm);
    let theoretical = resident_warps as f64 / cfg.max_warps_per_sm as f64;
    let grid_warps = (grid_blocks * wpb) as f64;
    let device_slots = (cfg.sm_count * cfg.max_warps_per_sm) as f64;
    let achieved = theoretical.min(grid_warps / device_slots);
    (achieved, grid_warps)
}

fn fdiv(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

impl ProfileReport {
    /// Fold trace spans (in ledger record order) into per-kernel rows.
    ///
    /// `configs` supplies the device presets for occupancy and roofline
    /// metrics; rows on devices without a matching config still get the
    /// counter-derived metrics, just no occupancy/roofline.
    pub fn from_spans(spans: &[Span], configs: &[DeviceConfig]) -> ProfileReport {
        let roles = span_roles(spans);
        let mut rows: Vec<KernelRow> = Vec::new();
        let mut devices: Vec<DeviceLane> = Vec::new();
        let mut total = RunReport::default();

        for (span_id, span) in spans.iter().enumerate() {
            if span.is_top_level() {
                total = total.then(&RunReport {
                    name: span.name.clone(),
                    time_s: span.dur_s,
                    counters: span.counters,
                    breakdown: span.breakdown.unwrap_or_default(),
                    launches: span.launches,
                });
            }
            let kind = match (roles[span_id], span.kind) {
                (SpanRole::Group, _) => RowKind::Group,
                (SpanRole::Counted, SpanKind::Transfer) => RowKind::Transfer,
                (SpanRole::Counted, _) => RowKind::Kernel,
                // Child waves re-slice counters already inside their
                // parent's row; the trace keeps the per-wave detail.
                (SpanRole::Nested, _) => continue,
            };
            let cfg = find_config(configs, &span.device);
            if let Some(cfg) = cfg {
                if !devices.iter().any(|d| d.device == span.device) {
                    devices.push(DeviceLane {
                        device: span.device.clone(),
                        peak_gflops: cfg.peak_gflops,
                        mem_bandwidth_gbs: cfg.bandwidth_bytes_s() / 1e9,
                        ridge_flops_per_byte: cfg.ridge_flops_per_byte(),
                    });
                }
            }
            let row = match rows
                .iter_mut()
                .find(|r| r.kind == kind && r.device == span.device && r.name == span.name)
            {
                Some(row) => row,
                None => {
                    rows.push(KernelRow {
                        device: span.device.clone(),
                        name: span.name.clone(),
                        kind,
                        spans: 0,
                        launches: 0,
                        span_ids: Vec::new(),
                        time_s: 0.0,
                        counters: Counters::default(),
                        breakdown: None,
                        sm_issue_cycles: None,
                        metrics: KernelMetrics::default(),
                        occ_sum: 0.0,
                        occ_weight: 0.0,
                    });
                    rows.last_mut().expect("just pushed")
                }
            };
            row.spans += 1;
            row.launches += span.launches;
            row.span_ids.push(span_id);
            row.time_s += span.dur_s;
            row.counters.merge(&span.counters);
            if let Some(b) = span.breakdown {
                let acc = row.breakdown.get_or_insert_with(TimeBreakdown::default);
                acc.launch_s += b.launch_s;
                acc.compute_s += b.compute_s;
                acc.memory_s += b.memory_s;
                acc.latency_s += b.latency_s;
                acc.dynamic_launch_s += b.dynamic_launch_s;
                acc.transfer_s += b.transfer_s;
            }
            if let Some(sm_issue) = &span.sm_issue_cycles {
                let acc = row.sm_issue_cycles.get_or_insert_with(Vec::new);
                if acc.len() < sm_issue.len() {
                    acc.resize(sm_issue.len(), 0);
                }
                for (a, v) in acc.iter_mut().zip(sm_issue) {
                    *a += v;
                }
            }
            if let Some(cfg) = cfg {
                if span.grid_blocks > 0 && span.block_dim > 0 {
                    let (occ, warps) = launch_occupancy(cfg, span.grid_blocks, span.block_dim);
                    row.occ_sum += occ * warps;
                    row.occ_weight += warps;
                }
            }
        }

        for row in &mut rows {
            row.metrics = derive_metrics(row, find_config(configs, &row.device));
        }
        ProfileReport {
            devices,
            rows,
            total,
        }
    }

    /// Verify the exactly-once accounting contract: non-aggregate rows'
    /// integer counters and launch counts sum *exactly* to the total.
    pub fn reconcile(&self) -> Result<(), String> {
        let mut counters = Counters::default();
        let mut launches = 0u32;
        for row in self.rows.iter().filter(|r| r.is_counted()) {
            counters.merge(&row.counters);
            launches += row.launches;
        }
        if counters != self.total.counters {
            return Err(format!(
                "profile rows do not reconcile with the trace total:\n rows  {counters:?}\n total {:?}",
                self.total.counters
            ));
        }
        if launches != self.total.launches {
            return Err(format!(
                "profile row launches {} != trace total {}",
                launches, self.total.launches
            ));
        }
        Ok(())
    }

    /// Rows sorted by descending time — the "hot kernels" view.
    pub fn rows_by_time(&self) -> Vec<&KernelRow> {
        let mut v: Vec<&KernelRow> = self.rows.iter().collect();
        v.sort_by(|a, b| b.time_s.total_cmp(&a.time_s));
        v
    }

    /// First row matching `(device, name)` exactly.
    pub fn row(&self, device: &str, name: &str) -> Option<&KernelRow> {
        self.rows
            .iter()
            .find(|r| r.device == device && r.name == name)
    }
}

fn derive_metrics(row: &KernelRow, cfg: Option<&DeviceConfig>) -> KernelMetrics {
    let c = &row.counters;
    let masked_ops: u64 = c.lane_hist.iter().sum();
    let divergent = masked_ops - c.lane_hist[LANE_HIST_BINS - 1];
    let flops = c.flops as f64;
    let bytes = c.dram_bytes() as f64;
    let ai = fdiv(flops, bytes);
    let roofline = cfg.and_then(|cfg| match ai {
        Some(ai) => Some(if ai < cfg.ridge_flops_per_byte() {
            Roofline::MemoryBound
        } else {
            Roofline::ComputeBound
        }),
        // No DRAM traffic at all: compute-bound iff any flops ran.
        None => (c.flops > 0).then_some(Roofline::ComputeBound),
    });
    let limiter = row.breakdown.as_ref().map(|b| {
        let overhead = b.launch_s + b.dynamic_launch_s + b.transfer_s;
        let m = b.compute_s.max(b.memory_s).max(b.latency_s).max(overhead);
        if m == b.latency_s {
            Limiter::Latency
        } else if m == b.memory_s {
            Limiter::Memory
        } else if m == b.compute_s {
            Limiter::Compute
        } else {
            Limiter::Overhead
        }
    });
    let latency_dominated = row
        .breakdown
        .as_ref()
        .is_some_and(|b| b.latency_s > b.compute_s && b.latency_s > b.memory_s);
    let verdict = roofline.map(|r| {
        if latency_dominated {
            Verdict::LatencyBound
        } else {
            match r {
                Roofline::MemoryBound => Verdict::MemoryBound,
                Roofline::ComputeBound => Verdict::ComputeBound,
            }
        }
    });
    let load_imbalance = row.sm_issue_cycles.as_ref().and_then(|sm| {
        let total: u64 = sm.iter().sum();
        let max = sm.iter().copied().max().unwrap_or(0);
        (total > 0 && !sm.is_empty()).then(|| max as f64 / (total as f64 / sm.len() as f64))
    });
    KernelMetrics {
        warp_execution_efficiency: c.warp_execution_efficiency(),
        coalescing_efficiency: c.coalescing_efficiency(),
        tex_hit_rate: c.tex_hit_rate(),
        atomic_serialization: c.atomic_serialization(),
        divergent_op_fraction: fdiv(divergent as f64, masked_ops as f64),
        achieved_occupancy: fdiv(row.occ_sum, row.occ_weight),
        load_imbalance,
        arithmetic_intensity: ai,
        achieved_gflops: fdiv(flops / 1e9, row.time_s),
        dram_gbs: fdiv(bytes / 1e9, row.time_s),
        roofline,
        limiter,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::presets;
    use crate::engine::Device;
    use crate::{lane_mask, FULL_MASK, WARP};

    fn span(kind: SpanKind, name: &str, device: &str) -> Span {
        Span {
            kind,
            name: name.to_string(),
            device: device.to_string(),
            grid_blocks: 0,
            block_dim: 0,
            sm: None,
            seq: None,
            parent: None,
            t_start_s: 0.0,
            dur_s: 0.0,
            counters: Counters::default(),
            breakdown: None,
            launches: 0,
            sm_issue_cycles: None,
            wave: None,
        }
    }

    #[test]
    fn config_matching_handles_multigpu_suffixes() {
        let configs = [presets::gtx_titan(), presets::tesla_k10_single()];
        assert_eq!(
            find_config(&configs, "GTX Titan").map(|c| c.name.as_str()),
            Some("GTX Titan")
        );
        assert_eq!(
            find_config(&configs, "GTX Titan #1").map(|c| c.name.as_str()),
            Some("GTX Titan")
        );
        assert!(find_config(&configs, "GTX Titanic").is_none());
        assert!(find_config(&configs, "GTX 580").is_none());
    }

    #[test]
    fn group_rows_are_aggregates_and_streams_reconcile() {
        let cfgs = [presets::gtx_titan()];
        let mut group = span(SpanKind::Launch, "acsr_bins", "GTX Titan");
        group.counters.warp_instructions = 30;
        group.counters.flops = 12;
        group.launches = 2;
        group.breakdown = Some(TimeBreakdown::default());
        group.dur_s = 1.0;
        group.sm_issue_cycles = Some(vec![3, 1]);
        let mut s0 = span(SpanKind::Stream, "acsr_bin0", "GTX Titan");
        s0.parent = Some(0);
        s0.counters.warp_instructions = 10;
        s0.counters.flops = 4;
        s0.launches = 1;
        s0.grid_blocks = 4;
        s0.block_dim = 128;
        let mut s1 = span(SpanKind::Stream, "acsr_bin1", "GTX Titan");
        s1.parent = Some(0);
        s1.counters.warp_instructions = 20;
        s1.counters.flops = 8;
        s1.launches = 1;
        let p = ProfileReport::from_spans(&[group, s0, s1], &cfgs);
        p.reconcile().expect("streams cover the group total");
        let g = p.row("GTX Titan", "acsr_bins").expect("group row");
        assert_eq!(g.kind, RowKind::Group);
        assert!(!g.is_counted());
        assert_eq!(g.sm_issue_cycles, Some(vec![3, 1]));
        assert_eq!(
            p.row("GTX Titan", "acsr_bin0").unwrap().kind,
            RowKind::Kernel
        );
        assert_eq!(p.devices.len(), 1);
        assert_eq!(p.total.launches, 2);
        assert_eq!(p.total.counters.flops, 12);
    }

    #[test]
    fn reconcile_rejects_tampered_totals() {
        let cfgs = [presets::gtx_titan()];
        let mut s = span(SpanKind::Launch, "k", "GTX Titan");
        s.counters.warp_instructions = 5;
        s.launches = 1;
        s.breakdown = Some(TimeBreakdown::default());
        let mut p = ProfileReport::from_spans(&[s], &cfgs);
        p.reconcile().expect("single launch reconciles");
        p.total.counters.warp_instructions += 1;
        assert!(p.reconcile().is_err());
    }

    #[test]
    fn occupancy_model_matches_hand_computation() {
        let cfg = presets::gtx_titan(); // 14 SMs, 64 warps/SM, 16 blocks/SM
                                        // 256-thread blocks: 8 warps/block, 8 resident blocks (64/8),
                                        // theoretical occupancy 1.0; a tiny 2-block grid is tail-limited.
        let (occ, warps) = launch_occupancy(&cfg, 2, 256);
        assert_eq!(warps, 16.0);
        assert!((occ - 16.0 / (14.0 * 64.0)).abs() < 1e-12);
        // A large grid saturates: achieved == theoretical == 1.0.
        let (occ, _) = launch_occupancy(&cfg, 4096, 256);
        assert_eq!(occ, 1.0);
        // 1024-thread blocks: 32 warps/block, 2 resident blocks => full.
        let (occ, _) = launch_occupancy(&cfg, 4096, 1024);
        assert_eq!(occ, 1.0);
        // 33 threads: 2 warps/block, 16-block residency cap => 32/64.
        let (occ, _) = launch_occupancy(&cfg, 4096, 33);
        assert!((occ - 0.5).abs() < 1e-12);
    }

    #[test]
    fn roofline_and_verdict_disagree_only_on_latency() {
        let cfgs = [presets::gtx_titan()];
        let mut s = span(SpanKind::Launch, "tail", "GTX Titan");
        s.counters.flops = 1000;
        s.counters.dram_read_bytes = 100_000; // AI = 0.01 << ridge
        s.launches = 1;
        s.dur_s = 1.0;
        s.breakdown = Some(TimeBreakdown {
            latency_s: 0.8,
            memory_s: 0.1,
            compute_s: 0.05,
            ..TimeBreakdown::default()
        });
        let p = ProfileReport::from_spans(&[s], &cfgs);
        let m = &p.rows[0].metrics;
        assert_eq!(m.roofline, Some(Roofline::MemoryBound));
        assert_eq!(m.limiter, Some(Limiter::Latency));
        assert_eq!(m.verdict, Some(Verdict::LatencyBound));
        assert!(m.arithmetic_intensity.unwrap() < 0.02);
    }

    #[test]
    fn load_imbalance_is_max_over_mean() {
        let cfgs = [presets::gtx_titan()];
        let mut s = span(SpanKind::Launch, "k", "GTX Titan");
        s.launches = 1;
        s.breakdown = Some(TimeBreakdown::default());
        s.sm_issue_cycles = Some(vec![30, 10, 20, 0]);
        let p = ProfileReport::from_spans(&[s], &cfgs);
        let got = p.rows[0].metrics.load_imbalance.unwrap();
        assert!((got - 2.0).abs() < 1e-12, "30 / mean(15) = 2, got {got}");
    }

    /// End-to-end: run real kernels under tracing and profile the spans.
    #[test]
    fn real_launches_profile_and_reconcile() {
        let mut dev = Device::new(presets::gtx_titan());
        let ledger = dev.enable_tracing();
        let n = 4096usize;
        let a = dev.alloc((0..n as u32).collect::<Vec<_>>());
        let out = dev.alloc(vec![0u32; n]);
        for _ in 0..3 {
            dev.launch("double", n / 256, 256, &|block| {
                block.for_each_warp(&mut |warp| {
                    let base = warp.first_thread();
                    let vals = warp.read_coalesced(&a, base, FULL_MASK);
                    let mut doubled = [0u32; WARP];
                    for i in 0..WARP {
                        doubled[i] = vals[i] * 2;
                    }
                    warp.charge_alu(1);
                    warp.write_coalesced(&out, base, &doubled, FULL_MASK);
                });
            });
        }
        // A divergent kernel: only 4 lanes of each warp do masked work.
        dev.launch("ragged", 4, 256, &|block| {
            block.for_each_warp(&mut |warp| {
                let m = lane_mask(4);
                let idx: [usize; WARP] = std::array::from_fn(|i| (i * 61) % n);
                let xs = warp.gather(&a, &idx, m);
                let mut acc = [0u32; WARP];
                for lane in 0..4 {
                    acc[lane] = xs[lane] + 1;
                }
                warp.charge_alu(1);
                warp.write_coalesced(&out, warp.first_thread(), &acc, m);
            });
        });
        let spans = ledger.spans();
        let cfgs = [presets::gtx_titan()];
        let p = ProfileReport::from_spans(&spans, &cfgs);
        p.reconcile().expect("profile reconciles with the ledger");
        assert_eq!(p.total.counters, ledger.total().counters);
        assert_eq!(p.total.time_s.to_bits(), ledger.total().time_s.to_bits());

        let d = p.row("GTX Titan", "double").expect("double row");
        assert_eq!(d.spans, 3);
        assert_eq!(d.launches, 3);
        assert_eq!(d.span_ids, vec![0, 1, 2]);
        // Full-warp coalesced kernel: efficiency 1.0 on both axes.
        assert_eq!(d.metrics.warp_execution_efficiency, Some(1.0));
        assert_eq!(d.metrics.coalescing_efficiency, Some(1.0));
        assert_eq!(d.metrics.tex_hit_rate, None, "no texture reads");
        let occ = d.metrics.achieved_occupancy.expect("sized launches");
        assert!(occ > 0.0 && occ <= 1.0);
        assert!(d.metrics.load_imbalance.unwrap() >= 1.0);

        let r = p.row("GTX Titan", "ragged").expect("ragged row");
        let weff = r.metrics.warp_execution_efficiency.unwrap();
        assert!(
            weff < d.metrics.warp_execution_efficiency.unwrap(),
            "masked kernel must waste lanes: {weff}"
        );
        // The strided gather cannot be perfectly coalesced.
        assert!(r.metrics.coalescing_efficiency.unwrap() < 1.0);
        // Divergence histogram saw the 4-lane ops.
        assert!(r.counters.lane_hist[2] > 0, "{:?}", r.counters.lane_hist);
    }
}
