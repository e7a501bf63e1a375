//! # multi-gpu — dividing ACSR work among multiple GPUs (paper §VIII)
//!
//! "The partitioning algorithm for ACSR is a simple division of each bin
//! among GPUs. For two GPUs, we simply map half of the rows in each bin
//! to each device... Such a partitioning approach can be used with any
//! number of GPUs."
//!
//! [`Fleet`] is the one multi-device executor. It deals each bin's rows
//! across the devices ([`partition_rows_by_bins`]), plans every device's
//! row slice as a local sub-matrix ([`extract_rows`]), runs each phase
//! through one per-shard driver, and closes the phase with an
//! event-scheduled exchange ([`halo`]). What the exchange carries
//! depends on where `x` lives ([`Placement`]):
//!
//! - [`Placement::Replicated`] is the paper's setup: every device holds
//!   the full `x`, their disjoint slices of `y` are concatenated, and
//!   the phase ends with one completion hand-off per device to the host.
//!   Total time is the slowest device or the last hand-off, whichever
//!   lands later — which is why the paper's small matrices (ENR, INT,
//!   ...) fail to scale: their per-device work no longer covers
//!   launch/sync floors. The K10 lacks dynamic parallelism, so (as in
//!   the paper) the shards run ACSR's §VIII static long-tail
//!   configuration by default.
//! - [`Placement::Resident`] scales the sharding to N devices holding
//!   only their shards: an explicit halo exchange over modeled
//!   interconnect links, hot-row replication ([`ReplicationPolicy`]),
//!   and per-shard format selection ([`ShardFormat::Adaptive`]).

pub mod fleet;
pub mod halo;
mod partition;

pub use fleet::{record_fleet_metrics, Fleet, FleetConfig, FleetReport, Placement, ShardFormat};
pub use halo::{
    schedule_exchange, EdgeSpec, EdgeTransfer, ExchangeReport, HaloPlan, Hop, LinkModel, Payload,
    Schedule,
};
pub use partition::{
    partition_fleet, partition_rows_by_bins, BinPartition, FleetPartition, ReplicationPolicy,
    ShardPlan,
};

use gpu_sim::RunReport;
use sparse_formats::{CsrMatrix, Scalar};

/// Record per-device utilization gauges into `metrics` from a set of
/// accumulated device reports and the run's wall time (the makespan or
/// [`FleetReport::seconds`]): `<prefix>.<d>.busy_s` (modeled device
/// time), `<prefix>.<d>.idle_s` (wall minus busy, clamped at 0), and
/// `<prefix>.<d>.utilization` (busy over wall; 0 when the wall is
/// empty). One shared helper so serve and the multi-GPU experiments
/// publish identical device gauges.
pub fn record_device_gauges(
    metrics: &acsr_telemetry::MetricsRegistry,
    prefix: &str,
    reports: &[RunReport],
    wall_s: f64,
) {
    for (d, rep) in reports.iter().enumerate() {
        let busy = rep.time_s;
        metrics.set_gauge(&format!("{prefix}.{d}.busy_s"), busy);
        metrics.set_gauge(&format!("{prefix}.{d}.idle_s"), (wall_s - busy).max(0.0));
        let util = if wall_s > 0.0 { busy / wall_s } else { 0.0 };
        metrics.set_gauge(&format!("{prefix}.{d}.utilization"), util);
    }
}

/// Extract the listed rows of `m` into a compact sub-matrix (row order
/// preserved; columns untouched): the local matrix a shard plans.
pub fn extract_rows<T: Scalar>(m: &CsrMatrix<T>, rows: &[u32]) -> CsrMatrix<T> {
    let mut offsets = Vec::with_capacity(rows.len() + 1);
    offsets.push(0u32);
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    for &r in rows {
        let (rc, rv) = m.row(r as usize);
        cols.extend_from_slice(rc);
        vals.extend_from_slice(rv);
        offsets.push(cols.len() as u32);
    }
    CsrMatrix::from_raw_parts(rows.len(), m.cols(), offsets, cols, vals)
        .expect("extracted rows preserve CSR invariants")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_gauges_report_busy_idle_utilization() {
        let metrics = acsr_telemetry::MetricsRegistry::new();
        let fast = RunReport {
            time_s: 0.25,
            ..Default::default()
        };
        let slow = RunReport {
            time_s: 1.0,
            ..Default::default()
        };
        record_device_gauges(&metrics, "mg.device", &[fast, slow], 1.0);
        let snap = metrics.snapshot();
        assert_eq!(snap.gauge("mg.device.0.busy_s"), Some(0.25));
        assert_eq!(snap.gauge("mg.device.0.idle_s"), Some(0.75));
        assert_eq!(snap.gauge("mg.device.0.utilization"), Some(0.25));
        assert_eq!(snap.gauge("mg.device.1.utilization"), Some(1.0));
        assert_eq!(snap.gauge("mg.device.1.idle_s"), Some(0.0));
        // degenerate wall never divides by zero
        record_device_gauges(&metrics, "mg.device", &[RunReport::default()], 0.0);
        assert_eq!(
            metrics.snapshot().gauge("mg.device.0.utilization"),
            Some(0.0)
        );
    }
}
