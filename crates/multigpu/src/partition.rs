//! Per-bin row partitioning (§VIII).
//!
//! Rows are binned exactly as ACSR's Algorithm 1 does; each bin's rows
//! are then dealt round-robin to the devices, so every device gets the
//! same *shape* of work (the same mix of short and long rows), not just
//! the same row count — the property that makes the paper's "half of
//! each bin" split load-balanced.

use sparse_formats::stats::bin_index;
use sparse_formats::{CsrMatrix, Scalar};
use std::collections::BTreeMap;

/// The rows assigned to one device, in ascending global order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BinPartition {
    /// Device index.
    pub device: usize,
    /// Global row ids owned by this device.
    pub rows: Vec<u32>,
    /// Non-zeros owned by this device.
    pub nnz: usize,
}

/// Split `m`'s rows across `n_devices` by dealing each bin round-robin.
pub fn partition_rows_by_bins<T: Scalar>(m: &CsrMatrix<T>, n_devices: usize) -> Vec<BinPartition> {
    assert!(n_devices >= 1);
    // bin -> rows (ascending because we scan rows in order)
    let mut bins: Vec<Vec<u32>> = Vec::new();
    for r in 0..m.rows() {
        let b = bin_index(m.row_nnz(r));
        if b >= bins.len() {
            bins.resize_with(b + 1, Vec::new);
        }
        bins[b].push(r as u32);
    }
    let mut parts: Vec<BinPartition> = (0..n_devices)
        .map(|device| BinPartition {
            device,
            rows: Vec::new(),
            nnz: 0,
        })
        .collect();
    for rows in &bins {
        for (i, &r) in rows.iter().enumerate() {
            let p = &mut parts[i % n_devices];
            p.rows.push(r);
            p.nnz += m.row_nnz(r as usize);
        }
    }
    for p in &mut parts {
        p.rows.sort_unstable();
    }
    parts
}

/// When (and how much) to replicate hot rows across shards.
///
/// A *hot row* is a row whose output value is referenced by several
/// shards' input columns in the next iterate. If its producer row is
/// short, recomputing it on every referencing shard is cheaper than
/// shipping its value over the interconnect each iteration — the
/// mirroring idea of vertex-cut graph partitioners, applied to the
/// iterated-SpMV halo.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReplicationPolicy {
    /// Replicate a row only when at least this many non-owner shards
    /// reference its value (≥ 1; 0 disables replication entirely).
    pub min_referencing_shards: usize,
    /// Replicate only rows whose own length (input count) is at most
    /// this — recomputing a 10 000-wide row everywhere is worse than
    /// shipping 8 bytes.
    pub max_row_len: usize,
    /// Cap on replicated rows as a fraction of all rows (replication
    /// multiplies compute; this bounds the redundancy).
    pub max_fraction: f64,
}

impl Default for ReplicationPolicy {
    fn default() -> Self {
        ReplicationPolicy {
            min_referencing_shards: 2,
            max_row_len: 32,
            max_fraction: 0.05,
        }
    }
}

impl ReplicationPolicy {
    /// No replication: every remote reference rides the halo exchange.
    pub fn disabled() -> ReplicationPolicy {
        ReplicationPolicy {
            min_referencing_shards: 0,
            max_row_len: 0,
            max_fraction: 0.0,
        }
    }
}

/// One shard of a [`FleetPartition`]: the rows a device computes and
/// the remote values it must import each iteration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    /// Device index.
    pub device: usize,
    /// Global rows this shard *owns* (writes to the global result),
    /// ascending.
    pub owned: Vec<u32>,
    /// Hot rows computed redundantly here (owned elsewhere), ascending.
    /// Their locally computed values feed this shard's next iterate
    /// without a transfer; the owner still writes the global result.
    pub replicas: Vec<u32>,
    /// Remote values imported each iteration, grouped by owning shard:
    /// `(owner, ascending global rows)`. Disjoint from `owned` and
    /// `replicas`.
    pub halo_in: Vec<(usize, Vec<u32>)>,
    /// Non-zeros computed on this device (owned + replica rows).
    pub nnz: usize,
}

impl ShardPlan {
    /// All rows computed on this device (`owned` ∪ `replicas`),
    /// ascending.
    pub fn compute_rows(&self) -> Vec<u32> {
        let mut rows: Vec<u32> = self
            .owned
            .iter()
            .chain(self.replicas.iter())
            .copied()
            .collect();
        rows.sort_unstable();
        rows
    }

    /// Values imported per iteration.
    pub fn halo_entries(&self) -> usize {
        self.halo_in.iter().map(|(_, rows)| rows.len()).sum()
    }
}

/// A bin-aware N-device sharding with hot-row replication bookkeeping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FleetPartition {
    /// One plan per device.
    pub shards: Vec<ShardPlan>,
    /// Rows replicated on at least one non-owner shard, ascending.
    pub hot_rows: Vec<u32>,
    /// `owner[row]` = owning device.
    pub owner: Vec<u32>,
}

/// Shard `m`'s rows across `n_devices` by bins (via
/// [`partition_rows_by_bins`]) for a fleet whose every device reads the
/// full `x` (the paper's §VIII setup): shards own rows only, with no
/// replicas and no halo.
pub(crate) fn partition_replicated<T: Scalar>(
    m: &CsrMatrix<T>,
    n_devices: usize,
) -> FleetPartition {
    let mut owner = vec![0u32; m.rows()];
    let shards = partition_rows_by_bins(m, n_devices)
        .into_iter()
        .map(|p| {
            for &r in &p.rows {
                owner[r as usize] = p.device as u32;
            }
            ShardPlan {
                device: p.device,
                owned: p.rows,
                replicas: Vec::new(),
                halo_in: Vec::new(),
                nnz: p.nnz,
            }
        })
        .collect();
    FleetPartition {
        shards,
        hot_rows: Vec::new(),
        owner,
    }
}

/// Shard `m`'s rows across `n_devices` by bins (via
/// [`partition_rows_by_bins`]), then derive each shard's halo needs for
/// the iterated-SpMV dataflow `x ← y` — shard `d` needs row `c`'s value
/// whenever a row it computes has a non-zero in column `c` — and
/// replicate hot rows per `policy`. Columns `≥ m.rows()` (rectangular
/// operators) have no producer and are treated as host-resident input.
pub fn partition_fleet<T: Scalar>(
    m: &CsrMatrix<T>,
    n_devices: usize,
    policy: &ReplicationPolicy,
) -> FleetPartition {
    let FleetPartition {
        shards: parts,
        owner,
        ..
    } = partition_replicated(m, n_devices);
    let rows = m.rows();
    // Per shard: the set of remote producer rows its owned rows read.
    let refs: Vec<Vec<u32>> = parts
        .iter()
        .map(|p| {
            let mut cols: Vec<u32> = p
                .owned
                .iter()
                .flat_map(|&r| m.row(r as usize).0.iter().copied())
                .filter(|&c| (c as usize) < rows && owner[c as usize] != p.device as u32)
                .collect();
            cols.sort_unstable();
            cols.dedup();
            cols
        })
        .collect();
    // Hot-row census: how many non-owner shards read each row's value.
    let mut ref_shards: BTreeMap<u32, usize> = BTreeMap::new();
    for shard_refs in &refs {
        for &c in shard_refs {
            *ref_shards.entry(c).or_insert(0) += 1;
        }
    }
    let mut hot: Vec<u32> = if policy.min_referencing_shards == 0 {
        Vec::new()
    } else {
        ref_shards
            .iter()
            .filter(|&(&c, &n)| {
                n >= policy.min_referencing_shards && m.row_nnz(c as usize) <= policy.max_row_len
            })
            .map(|(&c, _)| c)
            .collect()
    };
    // Most-referenced first under the redundancy cap, then ascending.
    hot.sort_by_key(|&c| (std::cmp::Reverse(ref_shards[&c]), c));
    let cap = (policy.max_fraction * rows as f64).floor() as usize;
    hot.truncate(cap);
    hot.sort_unstable();
    let is_hot = {
        let mut flags = vec![false; rows];
        for &c in &hot {
            flags[c as usize] = true;
        }
        flags
    };

    let shards = parts
        .into_iter()
        .zip(&refs)
        .map(|(p, shard_refs)| {
            // First-level replication: hot rows this shard reads are
            // computed locally instead of imported.
            let replicas: Vec<u32> = shard_refs
                .iter()
                .copied()
                .filter(|&c| is_hot[c as usize])
                .collect();
            let replica_set: Vec<bool> = {
                let mut flags = vec![false; rows];
                for &c in &replicas {
                    flags[c as usize] = true;
                }
                flags
            };
            // The halo covers everything the computed rows read that is
            // neither owned nor replicated here — including the inputs
            // the replicas themselves consume.
            let mut halo: Vec<u32> = p
                .owned
                .iter()
                .chain(replicas.iter())
                .flat_map(|&r| m.row(r as usize).0.iter().copied())
                .filter(|&c| {
                    (c as usize) < rows
                        && owner[c as usize] != p.device as u32
                        && !replica_set[c as usize]
                })
                .collect();
            halo.sort_unstable();
            halo.dedup();
            let mut by_owner: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
            for c in halo {
                by_owner
                    .entry(owner[c as usize] as usize)
                    .or_default()
                    .push(c);
            }
            let nnz = p.nnz
                + replicas
                    .iter()
                    .map(|&r| m.row_nnz(r as usize))
                    .sum::<usize>();
            ShardPlan {
                replicas,
                halo_in: by_owner.into_iter().collect(),
                nnz,
                ..p
            }
        })
        .collect();
    FleetPartition {
        shards,
        hot_rows: hot,
        owner,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphgen::{generate_power_law, PowerLawConfig};

    fn matrix(rows: usize) -> CsrMatrix<f64> {
        generate_power_law(&PowerLawConfig {
            rows,
            cols: rows,
            mean_degree: 8.0,
            max_degree: 600,
            pinned_max_rows: 2,
            col_skew: 0.3,
            seed: 181,
            ..Default::default()
        })
    }

    #[test]
    fn partitions_cover_all_rows_disjointly() {
        let m = matrix(5000);
        let parts = partition_rows_by_bins(&m, 3);
        let mut seen = vec![false; m.rows()];
        for p in &parts {
            for &r in &p.rows {
                assert!(!seen[r as usize], "row {r} assigned twice");
                seen[r as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn nnz_shares_are_balanced() {
        let m = matrix(8000);
        let parts = partition_rows_by_bins(&m, 2);
        let total: usize = parts.iter().map(|p| p.nnz).sum();
        assert_eq!(total, m.nnz());
        let ratio = parts[0].nnz as f64 / parts[1].nnz as f64;
        assert!((0.85..1.18).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn each_device_gets_long_tail_rows() {
        // both devices must receive some of the widest rows, otherwise
        // one device serializes the whole tail
        let m = matrix(4000);
        let parts = partition_rows_by_bins(&m, 2);
        let widest = m.row_stats().max_row;
        for p in &parts {
            let dev_max = p.rows.iter().map(|&r| m.row_nnz(r as usize)).max().unwrap();
            assert!(
                dev_max as f64 >= widest as f64 / 4.0,
                "device {} max row {dev_max} vs global {widest}",
                p.device
            );
        }
    }

    #[test]
    fn single_device_owns_everything() {
        let m = matrix(1000);
        let parts = partition_rows_by_bins(&m, 1);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].rows.len(), m.rows());
        assert_eq!(parts[0].nnz, m.nnz());
    }

    /// Every partition result must be a disjoint cover of all rows with
    /// exact nnz accounting, whatever the device count.
    fn assert_disjoint_cover(m: &CsrMatrix<f64>, parts: &[BinPartition]) {
        let mut seen = vec![false; m.rows()];
        let mut nnz = 0usize;
        for p in parts {
            assert!(p.rows.windows(2).all(|w| w[0] < w[1]), "rows not sorted");
            for &r in &p.rows {
                assert!(!seen[r as usize], "row {r} assigned twice");
                seen[r as usize] = true;
            }
            assert_eq!(
                p.nnz,
                p.rows.iter().map(|&r| m.row_nnz(r as usize)).sum::<usize>()
            );
            nnz += p.nnz;
        }
        assert!(seen.iter().all(|&s| s), "some row unassigned");
        assert_eq!(nnz, m.nnz());
    }

    #[test]
    fn fewer_rows_than_devices_leaves_spare_devices_empty() {
        let mut t = sparse_formats::TripletMatrix::<f64>::new(3, 8);
        t.push(0, 1, 1.0).unwrap();
        t.push(1, 2, 2.0).unwrap();
        t.push(2, 3, 3.0).unwrap();
        let m = t.to_csr();
        let parts = partition_rows_by_bins(&m, 8);
        assert_eq!(parts.len(), 8);
        assert_disjoint_cover(&m, &parts);
        // all three rows land in the same bin, so they deal to the first
        // three devices and the rest own nothing
        assert!(parts.iter().filter(|p| p.rows.is_empty()).count() >= 5);
        for p in parts.iter().filter(|p| p.rows.is_empty()) {
            assert_eq!(p.nnz, 0);
        }
    }

    #[test]
    fn empty_bins_and_empty_rows_are_handled() {
        // rows: one empty, one tiny, one huge — most bins in between are
        // empty, and the empty row must still be owned by some device
        let mut t = sparse_formats::TripletMatrix::<f64>::new(3, 3000);
        t.push(1, 0, 1.0).unwrap();
        for cidx in 0..2500u32 {
            t.push(2, cidx as usize, 1.0).unwrap();
        }
        let m = t.to_csr();
        let parts = partition_rows_by_bins(&m, 2);
        assert_disjoint_cover(&m, &parts);
    }

    #[test]
    fn single_row_bins_are_dealt_deterministically() {
        // a geometric degree ladder puts exactly one row in each bin, so
        // every bin's single row deals to device 0
        let mut t = sparse_formats::TripletMatrix::<f64>::new(5, 64);
        for (row, len) in [(0usize, 1usize), (1, 3), (2, 6), (3, 12), (4, 24)] {
            for cidx in 0..len {
                t.push(row, cidx, 1.0).unwrap();
            }
        }
        let m = t.to_csr();
        let parts = partition_rows_by_bins(&m, 2);
        assert_disjoint_cover(&m, &parts);
        assert_eq!(parts[0].rows, vec![0, 1, 2, 3, 4]);
        assert!(parts[1].rows.is_empty());
    }

    #[test]
    fn zero_row_matrix_yields_empty_partitions() {
        let m = sparse_formats::TripletMatrix::<f64>::new(0, 10).to_csr();
        let parts = partition_rows_by_bins(&m, 3);
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(|p| p.rows.is_empty() && p.nnz == 0));
    }
}
