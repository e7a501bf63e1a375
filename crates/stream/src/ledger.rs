//! The bin-overflow ledger: who paid for maintenance, and why.
//!
//! Each applied batch appends one entry recording, per bin, how many rows
//! moved and how many element bytes were rewritten, tagged with the
//! *reason* the work happened. The ledger is what makes the amortization
//! argument auditable: arena capacity shifts (`CapacityShift`) and buffer
//! growth (`BufferGrow`) are rare, geometric events, while the steady
//! state is in-place slack consumption plus the occasional bin-class
//! `Migration` — exactly the per-bin amortized re-binning the streaming
//! design promises.

use serde::Serialize;

/// Why a batch touched rows of a bin.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MaintainReason {
    /// Rows merged inside their own slot (slack consumption — no data
    /// movement beyond the row itself).
    InPlace,
    /// Rows whose length class changed: they migrated to another bin's
    /// arena.
    Migration,
    /// Rows relocated only because an arena's capacity plateau shifted
    /// (or a peer joined/left below them), moving their slot.
    CapacityShift,
    /// The element buffers themselves were regrown (full rewrite into a
    /// fresh, geometrically larger allocation).
    BufferGrow,
}

/// Per-bin maintenance work inside one batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BinEvent {
    /// Destination bin of the rows (their bin *after* the batch).
    pub bin: usize,
    /// Rows involved.
    pub rows: usize,
    /// Element bytes written on their behalf.
    pub bytes: u64,
    /// Why the work happened.
    pub reason: MaintainReason,
}

/// One applied batch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BatchEntry {
    /// Structural epoch *after* the batch.
    pub epoch: u64,
    /// Per-bin events (destination bin ascending, one per reason).
    pub events: Vec<BinEvent>,
    /// Total reserved-but-unused elements after the batch.
    pub slack_after: u64,
}

/// Rolling totals across every batch (cheap stderr summaries, and the
/// `ledger` object of `repro stream`'s artifact).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct LedgerTotals {
    pub batches: u64,
    pub in_place_rows: u64,
    pub migrated_rows: u64,
    pub capacity_shift_rows: u64,
    pub buffer_grows: u64,
    pub bytes_rewritten: u64,
}

/// The append-only maintenance ledger.
#[derive(Clone, Debug, Default)]
pub struct MaintenanceLedger {
    entries: Vec<BatchEntry>,
    totals: LedgerTotals,
}

impl MaintenanceLedger {
    /// Record one applied batch.
    pub fn push(&mut self, entry: BatchEntry) {
        self.totals.batches += 1;
        for ev in &entry.events {
            self.totals.bytes_rewritten += ev.bytes;
            match ev.reason {
                MaintainReason::InPlace => self.totals.in_place_rows += ev.rows as u64,
                MaintainReason::Migration => self.totals.migrated_rows += ev.rows as u64,
                MaintainReason::CapacityShift => self.totals.capacity_shift_rows += ev.rows as u64,
                MaintainReason::BufferGrow => self.totals.buffer_grows += 1,
            }
        }
        self.entries.push(entry);
    }

    /// All recorded batches, oldest first.
    pub fn entries(&self) -> &[BatchEntry] {
        &self.entries
    }

    /// Rolling totals.
    pub fn totals(&self) -> LedgerTotals {
        self.totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_accumulate_by_reason() {
        let mut l = MaintenanceLedger::default();
        l.push(BatchEntry {
            epoch: 1,
            events: vec![
                BinEvent {
                    bin: 2,
                    rows: 5,
                    bytes: 100,
                    reason: MaintainReason::InPlace,
                },
                BinEvent {
                    bin: 3,
                    rows: 2,
                    bytes: 64,
                    reason: MaintainReason::Migration,
                },
            ],
            slack_after: 10,
        });
        l.push(BatchEntry {
            epoch: 2,
            events: vec![BinEvent {
                bin: 3,
                rows: 7,
                bytes: 224,
                reason: MaintainReason::CapacityShift,
            }],
            slack_after: 12,
        });
        let t = l.totals();
        assert_eq!(t.batches, 2);
        assert_eq!(t.in_place_rows, 5);
        assert_eq!(t.migrated_rows, 2);
        assert_eq!(t.capacity_shift_rows, 7);
        assert_eq!(t.buffer_grows, 0);
        assert_eq!(t.bytes_rewritten, 388);
        assert_eq!(l.entries().len(), 2);
    }
}
