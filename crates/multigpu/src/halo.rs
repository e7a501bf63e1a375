//! Modeled interconnect links and the event-scheduled exchange phase.
//!
//! A fleet SpMV ends with an **exchange**: under resident placement
//! every shard ships the `x` entries its peers will need for the next
//! iterate (owner-computes halo exchange); under replicated placement
//! each device ships its completion hand-off to the host. Both are
//! expressed as a set of directed [`EdgeSpec`]s — `src` device, `dst`
//! device (or the host sink), payload bytes, and the instant the payload
//! is *ready* (the producing device's compute finish) — and scheduled on
//! the shared [`EventQueue`] from `gpu-sim`'s discrete-event core.
//!
//! The link discipline matches a DMA-engine interconnect: each node has
//! one egress engine and one ingress engine, both FIFO, so transfers
//! from one source serialize, fan-in to one destination serializes, and
//! everything else overlaps. An edge whose payload is ready while the
//! slowest device still computes therefore *hides* under compute — the
//! overlap a flat per-phase sync charge could not express.
//!
//! Determinism: edges are assigned FIFO priorities by `(ready, src,
//! dst, index)` before scheduling, and each frontier is re-sorted into
//! ascending priority regardless of the global [`gpu_sim::TieBreak`]
//! knob, so the schedule is a pure function of the edge list — bit-
//! identical across host worker widths and tie-break orders.

use gpu_sim::event::{CompId, EventQueue};

/// One interconnect class: bandwidth plus a per-transfer setup latency.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkModel {
    /// Payload bandwidth, GB/s (1e9 bytes per second).
    pub bandwidth_gbs: f64,
    /// Per-transfer latency (DMA descriptor setup + signaling), seconds.
    pub latency_s: f64,
}

impl LinkModel {
    /// PCIe-class peer-to-peer over a board switch (the K10-era
    /// baseline: both GPUs of one board behind one PCIe switch).
    pub fn pcie() -> LinkModel {
        LinkModel {
            bandwidth_gbs: 12.0,
            latency_s: 8e-6,
        }
    }

    /// NVLink-class point-to-point mesh.
    pub fn nvlink() -> LinkModel {
        LinkModel {
            bandwidth_gbs: 40.0,
            latency_s: 2e-6,
        }
    }

    /// A pure-latency link (used for zero-byte completion hand-offs).
    pub fn signal(latency_s: f64) -> LinkModel {
        LinkModel {
            bandwidth_gbs: 1.0,
            latency_s,
        }
    }

    /// Modeled seconds to move `bytes` over this link.
    pub fn seconds(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / (self.bandwidth_gbs * 1e9)
    }
}

/// One directed transfer request handed to [`schedule_exchange`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeSpec {
    /// Producing device.
    pub src: usize,
    /// Receiving node: a device index, or `n_devices` for the host sink.
    pub dst: usize,
    /// Vector entries carried (diagnostics; bytes drive the model).
    pub entries: usize,
    /// Payload bytes.
    pub bytes: u64,
    /// Instant the payload becomes available on `src`, nanoseconds.
    pub ready_ns: u64,
}

/// One scheduled transfer of a finished exchange.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeTransfer {
    /// Producing device.
    pub src: usize,
    /// Receiving node (`n_devices` = host sink).
    pub dst: usize,
    /// Vector entries carried.
    pub entries: usize,
    /// Payload bytes.
    pub bytes: u64,
    /// Scheduled start, nanoseconds on the fleet clock.
    pub start_ns: u64,
    /// Completion, nanoseconds on the fleet clock.
    pub done_ns: u64,
}

impl EdgeTransfer {
    /// Modeled transfer duration, seconds.
    pub fn dur_s(&self) -> f64 {
        (self.done_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The scheduled exchange phase of one fleet SpMV.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExchangeReport {
    /// Devices participating (the host sink is node `n_devices`).
    pub n_devices: usize,
    /// Every transfer, in FIFO-priority order.
    pub transfers: Vec<EdgeTransfer>,
    /// Bytes leaving each device.
    pub send_bytes: Vec<u64>,
    /// Bytes landing on each device (host-sink bytes excluded).
    pub recv_bytes: Vec<u64>,
    /// Completion of the last transfer, nanoseconds (0 when none).
    pub end_ns: u64,
}

impl ExchangeReport {
    /// An empty exchange (single device: nothing to ship).
    pub fn empty(n_devices: usize) -> ExchangeReport {
        ExchangeReport {
            n_devices,
            transfers: Vec::new(),
            send_bytes: vec![0; n_devices],
            recv_bytes: vec![0; n_devices],
            end_ns: 0,
        }
    }

    /// Completion of the last transfer, seconds (0.0 when none).
    pub fn end_s(&self) -> f64 {
        self.end_ns as f64 * 1e-9
    }

    /// Total payload bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.transfers.iter().map(|t| t.bytes).sum()
    }

    /// Seconds the exchange extends past `compute_s` (the makespan of
    /// the compute phase): 0.0 when every transfer hid under compute.
    pub fn tail_s(&self, compute_s: f64) -> f64 {
        (self.end_s() - compute_s).max(0.0)
    }
}

/// Nanoseconds on the fleet clock for a wall-clock duration.
pub fn ns(seconds: f64) -> u64 {
    (seconds * 1e9).round() as u64
}

/// Schedule `edges` over `n_devices` devices plus the host sink (node
/// `n_devices`), FIFO per egress and ingress engine, earliest-ready
/// first (ties by `(src, dst, index)`). Returns the full schedule; see
/// the module docs for the discipline and determinism argument.
pub fn schedule_exchange(n_devices: usize, edges: &[EdgeSpec], link: &LinkModel) -> ExchangeReport {
    let mut report = ExchangeReport::empty(n_devices);
    if edges.is_empty() {
        return report;
    }
    // FIFO priority: ready time, then source, destination, index.
    let mut order: Vec<usize> = (0..edges.len()).collect();
    order.sort_by_key(|&i| (edges[i].ready_ns, edges[i].src, edges[i].dst, i));

    let nodes = n_devices + 1;
    let mut egress_free = vec![0u64; nodes];
    let mut ingress_free = vec![0u64; nodes];
    let mut scheduled: Vec<Option<EdgeTransfer>> = vec![None; edges.len()];
    let mut queue = EventQueue::new();
    for (prio, &i) in order.iter().enumerate() {
        assert!(edges[i].src < n_devices, "edge source must be a device");
        assert!(edges[i].dst < nodes, "edge destination out of range");
        assert_ne!(edges[i].src, edges[i].dst, "self-edge in exchange");
        queue.schedule(edges[i].ready_ns, prio as CompId);
    }
    let mut frontier: Vec<CompId> = Vec::new();
    while let Some(now) = queue.pop_frontier(&mut frontier) {
        // Canonical priority order, independent of the tie-break knob.
        frontier.sort_unstable();
        for &prio in &frontier {
            let e = &edges[order[prio as usize]];
            let free = egress_free[e.src].max(ingress_free[e.dst]);
            if free > now {
                // An engine is busy: retry the instant it frees.
                queue.schedule(free, prio);
                continue;
            }
            let done = now + ns(link.seconds(e.bytes));
            egress_free[e.src] = done;
            ingress_free[e.dst] = done;
            scheduled[prio as usize] = Some(EdgeTransfer {
                src: e.src,
                dst: e.dst,
                entries: e.entries,
                bytes: e.bytes,
                start_ns: now,
                done_ns: done,
            });
        }
    }
    for t in scheduled.into_iter().flatten() {
        report.send_bytes[t.src] += t.bytes;
        if t.dst < n_devices {
            report.recv_bytes[t.dst] += t.bytes;
        }
        report.end_ns = report.end_ns.max(t.done_ns);
        report.transfers.push(t);
    }
    assert_eq!(
        report.transfers.len(),
        edges.len(),
        "every exchange edge must be scheduled"
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(src: usize, dst: usize, bytes: u64, ready_ns: u64) -> EdgeSpec {
        EdgeSpec {
            src,
            dst,
            entries: bytes as usize / 8,
            bytes,
            ready_ns,
        }
    }

    #[test]
    fn independent_pairs_overlap_fully() {
        // 0→1 and 2→3 share no engine: both run at their ready times.
        let link = LinkModel {
            bandwidth_gbs: 10.0,
            latency_s: 0.0,
        };
        let rep = schedule_exchange(4, &[edge(0, 1, 1000, 0), edge(2, 3, 1000, 0)], &link);
        assert_eq!(rep.transfers[0].start_ns, 0);
        assert_eq!(rep.transfers[1].start_ns, 0);
        assert_eq!(rep.end_ns, 100); // 1000 B at 10 GB/s = 100 ns
        assert_eq!(rep.send_bytes, vec![1000, 0, 1000, 0]);
        assert_eq!(rep.recv_bytes, vec![0, 1000, 0, 1000]);
    }

    #[test]
    fn shared_ingress_serializes_fifo() {
        // Both edges target device 2: fan-in serializes in ready order.
        let link = LinkModel {
            bandwidth_gbs: 1.0,
            latency_s: 0.0,
        };
        let rep = schedule_exchange(3, &[edge(1, 2, 100, 5), edge(0, 2, 100, 0)], &link);
        let by_src = |s: usize| rep.transfers.iter().find(|t| t.src == s).unwrap();
        assert_eq!(by_src(0).start_ns, 0);
        assert_eq!(by_src(0).done_ns, 100);
        assert_eq!(by_src(1).start_ns, 100, "later-ready edge waits its turn");
        assert_eq!(rep.end_ns, 200);
    }

    #[test]
    fn early_transfers_hide_under_compute() {
        // A transfer ready at 10 ns finishing at 110 ns hides entirely
        // under a compute phase that ends at 500 ns.
        let link = LinkModel {
            bandwidth_gbs: 1.0,
            latency_s: 0.0,
        };
        let rep = schedule_exchange(2, &[edge(0, 1, 100, 10)], &link);
        assert_eq!(rep.end_ns, 110);
        assert_eq!(rep.tail_s(500e-9), 0.0);
        assert!(rep.tail_s(50e-9) > 0.0);
    }

    #[test]
    fn host_sink_serializes_handoffs() {
        // Zero-byte completion hand-offs to the host sink (node D)
        // serialize on the host ingress engine.
        let link = LinkModel::signal(10e-9);
        let rep = schedule_exchange(2, &[edge(0, 2, 0, 100), edge(1, 2, 0, 0)], &link);
        let by_src = |s: usize| rep.transfers.iter().find(|t| t.src == s).unwrap();
        assert_eq!(by_src(1).start_ns, 0);
        assert_eq!(by_src(1).done_ns, 10);
        assert_eq!(by_src(0).start_ns, 100, "ready later, host already free");
        assert_eq!(rep.end_ns, 110);
        assert_eq!(
            rep.recv_bytes,
            vec![0, 0],
            "host bytes are not device bytes"
        );
    }

    #[test]
    fn schedule_is_independent_of_tie_break_order() {
        let link = LinkModel {
            bandwidth_gbs: 2.0,
            latency_s: 1e-9,
        };
        let edges: Vec<EdgeSpec> = (0..4)
            .flat_map(|s| {
                (0..4)
                    .filter(move |&d| d != s)
                    .map(move |d| edge(s, d, 64 * (s as u64 + 1), (d as u64) * 3))
            })
            .collect();
        let a = schedule_exchange(4, &edges, &link);
        gpu_sim::set_tie_break(gpu_sim::TieBreak::Descending);
        let b = schedule_exchange(4, &edges, &link);
        gpu_sim::set_tie_break(gpu_sim::TieBreak::Ascending);
        assert_eq!(a, b, "exchange schedule must not depend on the knob");
    }

    #[test]
    fn empty_exchange_is_empty() {
        let rep = schedule_exchange(3, &[], &LinkModel::pcie());
        assert_eq!(rep.end_ns, 0);
        assert_eq!(rep.end_s(), 0.0);
        assert_eq!(rep.total_bytes(), 0);
        assert!(rep.transfers.is_empty());
    }
}
