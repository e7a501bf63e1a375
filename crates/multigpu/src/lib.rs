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
//!   the phase ends with one completion hand-off per device to the host
//!   ([`handoff`], which the serving engine's multi-device waves also
//!   pay).
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
//!
//! A [`FleetReport`] is the one record of a fleet SpMV — per-device
//! reports, the exchange's traffic and schedule — and callers publish
//! it from there; the crate keeps no metrics registry.

pub mod fleet;
pub mod halo;
mod partition;

pub use fleet::{handoff, Fleet, FleetConfig, FleetReport, Placement, ShardFormat};
pub use halo::{
    schedule_exchange, EdgeSpec, EdgeTransfer, ExchangeReport, HaloPlan, Hop, LinkModel, Payload,
    Schedule,
};
pub use partition::{
    partition_fleet, partition_rows_by_bins, BinPartition, FleetPartition, ReplicationPolicy,
    ShardPlan,
};

use sparse_formats::{CsrMatrix, Scalar};

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
