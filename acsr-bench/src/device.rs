//! Per-layer metrics of the simulated devices — the gpu-sim, core and
//! apps layers — folded from the trace ledgers of one traced repetition.

use crate::bench::Ctx;
use acsr::{Phase, PhaseRollup};
use gpu_sim::trace::TraceLedger;
use gpu_sim::{DeviceConfig, ProfileReport, RowKind, RunReport};
use std::sync::Arc;

/// The elementwise kernels the applications launch around each SpMV.
const UPDATE_KERNELS: [&str; 3] = ["scale_add", "l2_distance", "rwr_update"];

/// The ACSR phases reported as `core.*_model_s`, in pipeline order.
const CORE_PHASES: [(Phase, &str); 4] = [
    (Phase::ZeroScatter, "core.zero_scatter_model_s"),
    (Phase::BinKernels, "core.bins_model_s"),
    (Phase::Overflow, "core.overflow_model_s"),
    (Phase::LongTail, "core.long_tail_model_s"),
];

/// Reconcile every ledger (a failure is a failed check), fold its spans
/// through [`PhaseRollup`] and [`ProfileReport`], and record the sim,
/// core and apps metrics plus the tracing overhead. `rep_s` is the
/// median untraced repetition's host seconds, `traced_rep_s` the traced
/// repetition's.
pub fn record(
    cx: &mut Ctx,
    ledgers: &[Arc<TraceLedger>],
    configs: &[DeviceConfig],
    rep_s: f64,
    traced_rep_s: f64,
) {
    let mut total = RunReport::default();
    let mut phase_s = [0.0f64; CORE_PHASES.len()];
    let mut child_launches = 0u64;
    let (mut update_s, mut update_launch_s) = (0.0f64, 0.0f64);
    let host = &cx.host;
    let checks = &mut cx.checks;
    host.time("telemetry", "fold_ledgers", 0, || {
        for ledger in ledgers {
            let reconciled = ledger.reconcile();
            checks.check(reconciled.is_ok(), || {
                format!(
                    "trace ledger reconciliation: {}",
                    reconciled.clone().unwrap_err()
                )
            });
            total = std::mem::take(&mut total).then(&ledger.total());
            let spans = ledger.spans();
            let rollup = PhaseRollup::from_spans(&spans);
            for (slot, (phase, _)) in CORE_PHASES.iter().enumerate() {
                phase_s[slot] += rollup.bucket(*phase).seconds;
            }
            child_launches += rollup.row_grid_launches();
            let profile = ProfileReport::from_spans(&spans, configs);
            let reconciled = profile.reconcile();
            checks.check(reconciled.is_ok(), || {
                format!(
                    "profile reconciliation: {}",
                    reconciled.clone().unwrap_err()
                )
            });
            for row in &profile.rows {
                if row.kind == RowKind::Kernel && UPDATE_KERNELS.contains(&row.name.as_str()) {
                    update_s += row.time_s;
                    update_launch_s += row.breakdown.map_or(0.0, |b| b.launch_s);
                }
            }
        }
    });

    let c = total.counters;
    let b = total.breakdown;
    cx.model_metric("sim.launches", "count", f64::from(total.launches));
    cx.model_metric("sim.warp_instructions", "count", c.warp_instructions as f64);
    cx.model_metric("sim.lane_ops", "count", c.lane_ops as f64);
    cx.model_metric("sim.dram_bytes", "bytes", c.dram_bytes() as f64);
    cx.model_metric("sim.launch_model_s", "s", b.launch_s);
    cx.model_metric("sim.compute_model_s", "s", b.compute_s);
    cx.model_metric("sim.memory_model_s", "s", b.memory_s);
    cx.model_metric("sim.latency_model_s", "s", b.latency_s);
    cx.model_metric("sim.transfer_model_s", "s", b.transfer_s);
    let ratio = |r: Option<f64>| r.unwrap_or(0.0);
    cx.model_metric(
        "sim.warp_efficiency",
        "fraction",
        ratio(c.warp_execution_efficiency()),
    );
    cx.model_metric(
        "sim.coalescing_efficiency",
        "fraction",
        ratio(c.coalescing_efficiency()),
    );
    cx.model_metric("sim.tex_hit_rate", "fraction", ratio(c.tex_hit_rate()));
    let per = |n: f64| if n > 0.0 { rep_s / n } else { 0.0 };
    cx.host_metric(
        "sim.host_ns_per_warp_instr",
        "ns",
        1e9 * per(c.warp_instructions as f64),
    );
    cx.host_metric(
        "sim.host_us_per_launch",
        "us",
        1e6 * per(f64::from(total.launches)),
    );
    for ((_, name), s) in CORE_PHASES.iter().zip(phase_s) {
        cx.model_metric(name, "s", s);
    }
    cx.model_metric("core.dp_child_launches", "count", child_launches as f64);
    cx.model_metric("apps.update_model_s", "s", update_s);
    let share = if update_s > 0.0 {
        update_launch_s / update_s
    } else {
        0.0
    };
    cx.model_metric("apps.update_launch_share", "fraction", share);
    cx.host_metric(
        "telemetry.trace_overhead_frac",
        "fraction",
        traced_rep_s / rep_s - 1.0,
    );
}
