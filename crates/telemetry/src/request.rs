//! Per-query request spans: the serving plane's event stream.
//!
//! `acsr-serve`'s `serve_slo` records one event per lifecycle edge —
//! arrival, capacity/deadline shed, admission (with the wave the query
//! first rides), completion — plus one [`WaveRecord`] per executed wave,
//! and appends the run's records here when it ends.
//! Everything is keyed on the *virtual* serving clock and the
//! process-unique wave ids handed out by
//! [`crate::Telemetry::next_wave_id`], so the stream is a deterministic
//! function of the workload: bit-identical across `ACSR_SIM_THREADS`
//! widths (pinned by proptests) and joinable to `gpu_sim::trace` kernel
//! spans through the same wave ids.

use parking_lot::Mutex;

/// Why a query never reached a batch slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedKind {
    /// The submission queue was full at the query's arrival instant.
    Capacity,
    /// Its queue wait had already consumed the tenant's SLO budget.
    Deadline,
}

/// One edge of a query's lifecycle, stamped with the virtual clock.
#[derive(Clone, Debug, PartialEq)]
pub enum RequestEvent {
    /// The query was offered to the submission queue.
    Arrival { t_s: f64, query: u64, tenant: u32 },
    /// The query was dropped (see [`ShedKind`]).
    Shed {
        t_s: f64,
        query: u64,
        tenant: u32,
        kind: ShedKind,
    },
    /// The query won a batch slot; `wave` is the wave it first rides.
    Admitted {
        t_s: f64,
        query: u64,
        tenant: u32,
        wave: u64,
        queue_wait_s: f64,
    },
    /// The query retired at the end of a wave.
    Completed {
        t_s: f64,
        query: u64,
        tenant: u32,
        iterations: usize,
        converged: bool,
        latency_s: f64,
    },
}

impl RequestEvent {
    /// The query id the event belongs to.
    pub fn query(&self) -> u64 {
        match self {
            RequestEvent::Arrival { query, .. }
            | RequestEvent::Shed { query, .. }
            | RequestEvent::Admitted { query, .. }
            | RequestEvent::Completed { query, .. } => *query,
        }
    }

    /// The virtual-clock timestamp of the event.
    pub fn t_s(&self) -> f64 {
        match self {
            RequestEvent::Arrival { t_s, .. }
            | RequestEvent::Shed { t_s, .. }
            | RequestEvent::Admitted { t_s, .. }
            | RequestEvent::Completed { t_s, .. } => *t_s,
        }
    }
}

/// One executed wave: the correlation anchor between request spans and
/// the kernel spans the wave launched (which carry the same `wave` id
/// in their trace `args`).
#[derive(Clone, Debug, PartialEq)]
pub struct WaveRecord {
    /// Process-unique wave id.
    pub wave: u64,
    /// Wave start on the serving clock, seconds.
    pub t_start_s: f64,
    /// Modeled wave duration, seconds.
    pub dur_s: f64,
    /// Batch width (queries riding the wave).
    pub width: usize,
    /// Devices that held a query of the wave (each runs the queries
    /// pinned to it).
    pub devices: usize,
    /// Ids of the riding queries, in batch-slot order.
    pub queries: Vec<u64>,
}

#[derive(Default)]
struct Inner {
    events: Vec<RequestEvent>,
    waves: Vec<WaveRecord>,
}

/// Append-only store of request events and wave records.
#[derive(Default)]
pub struct RequestTrace {
    inner: Mutex<Inner>,
}

impl RequestTrace {
    pub fn new() -> RequestTrace {
        RequestTrace::default()
    }

    /// Append one run's lifecycle events and executed waves, each in
    /// record order.
    pub fn append(&self, events: Vec<RequestEvent>, waves: Vec<WaveRecord>) {
        let mut inner = self.inner.lock();
        inner.events.extend(events);
        inner.waves.extend(waves);
    }

    /// Snapshot of all events, in record order.
    pub fn events(&self) -> Vec<RequestEvent> {
        self.inner.lock().events.clone()
    }

    /// Snapshot of all wave records, in record order.
    pub fn waves(&self) -> Vec<WaveRecord> {
        self.inner.lock().waves.clone()
    }

    pub fn is_empty(&self) -> bool {
        let inner = self.inner.lock();
        inner.events.is_empty() && inner.waves.is_empty()
    }

    /// Drop everything recorded so far.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.events.clear();
        inner.waves.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_and_waves_record_in_order() {
        let t = RequestTrace::new();
        let arrival = |query| RequestEvent::Arrival {
            t_s: 0.0,
            query,
            tenant: 1,
        };
        let wave = WaveRecord {
            wave: 3,
            t_start_s: 0.5,
            dur_s: 0.1,
            width: 1,
            devices: 1,
            queries: vec![7],
        };
        let admitted = RequestEvent::Admitted {
            t_s: 0.5,
            query: 7,
            tenant: 1,
            wave: 3,
            queue_wait_s: 0.5,
        };
        t.append(vec![arrival(7), admitted], vec![wave]);
        t.append(vec![arrival(8)], Vec::new());
        let events = t.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].query(), 7);
        assert_eq!(events[1].t_s(), 0.5);
        assert_eq!(events[2].query(), 8, "a later run appends after");
        assert_eq!(t.waves().len(), 1);
        assert!(!t.is_empty());
        t.clear();
        assert!(t.is_empty());
    }
}
