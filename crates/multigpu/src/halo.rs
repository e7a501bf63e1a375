//! Modeled interconnect links and the event-scheduled exchange phase.
//!
//! A fleet SpMV ends with an **exchange**: under resident placement
//! every shard ships the `x` entries its peers will need for the next
//! iterate (owner-computes halo exchange); under replicated placement
//! each device ships its completion hand-off to the host. Both are
//! expressed as directed [`EdgeSpec`]s — `src` device, `dst` device (or
//! the host sink), payload bytes, and the instant the payload is
//! *ready* (the producing device's compute finish) — and scheduled on
//! a private min-heap event queue over nanosecond instants.
//!
//! The link discipline matches a DMA-engine interconnect: each node has
//! one egress engine and one ingress engine, both FIFO, so transfers
//! from one source serialize, fan-in to one destination serializes, and
//! everything else overlaps. An edge whose payload is ready while the
//! slowest device still computes therefore *hides* under compute — the
//! overlap a flat per-phase sync charge could not express.
//!
//! A halo can ship two ways ([`HaloPlan`]). The **direct** schedule
//! sends each `(owner → shard)` payload as its own transfer, so a device
//! with D − 1 peers pays the per-transfer latency D − 1 times in a row
//! on its one egress engine. The **Bruck** schedule (Bruck et al., IEEE
//! TPDS 1997) routes the same payloads among the m devices that carry
//! halo in ⌈log₂ m⌉ rounds: in round k participant i sends one message
//! to participant (i + 2^k) mod m, holding every payload whose remaining
//! offset to its destination has bit k set, so intermediate devices
//! forward payloads meant for others. A routed message waits for the
//! earlier-round messages into its sender (the payloads it forwards),
//! and each engine serves routed messages in round order. Routing sends
//! fewer, larger messages and moves more link bytes, so it wins when
//! per-transfer latency dominates and loses when bandwidth does. Each
//! phase prices both schedules and keeps the one that ends first,
//! direct on a tie, so routing never makes a phase slower.
//!
//! Determinism: the transfers ready at one instant claim their engines
//! in the canonical priority order `(ready, src, dst, index)`, so a
//! schedule is a pure function of its inputs — bit-identical across
//! host worker widths.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
    /// Sending device.
    pub src: usize,
    /// Receiving node (`n_devices` = host sink).
    pub dst: usize,
    /// Vector entries carried.
    pub entries: usize,
    /// Bytes on the link.
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

/// Which schedule shipped an exchange.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Schedule {
    /// One transfer per `(src → dst)` edge.
    #[default]
    Direct,
    /// The routed ⌈log₂ m⌉-round Bruck all-to-all ([`HaloPlan`]).
    Bruck,
}

impl Schedule {
    /// `"direct"` or `"bruck"`, as artifacts spell it.
    pub fn name(self) -> &'static str {
        match self {
            Schedule::Direct => "direct",
            Schedule::Bruck => "bruck",
        }
    }
}

/// The scheduled exchange phase of one fleet SpMV.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExchangeReport {
    /// Devices participating (the host sink is node `n_devices`).
    pub n_devices: usize,
    /// The schedule that shipped this exchange.
    pub schedule: Schedule,
    /// Every transfer (one message each), in FIFO-priority order.
    pub transfers: Vec<EdgeTransfer>,
    /// Payload delivered, each payload counted once at its destination:
    /// equal to [`Self::total_bytes`] under the direct schedule, below it
    /// when routed payloads were forwarded.
    pub payload_bytes: u64,
    /// Completion of the last transfer, nanoseconds (0 when none).
    pub end_ns: u64,
    /// Completion of the direct schedule of the same phase, nanoseconds:
    /// the end the schedule choice was priced against (`end_ns` itself
    /// when the direct schedule ran).
    pub direct_end_ns: u64,
}

impl ExchangeReport {
    /// An empty exchange (single device: nothing to ship).
    pub fn empty(n_devices: usize) -> ExchangeReport {
        ExchangeReport::from_transfers(n_devices, Schedule::Direct, Vec::new(), 0)
    }

    /// Assemble a report from scheduled transfers, as if it were the
    /// direct schedule's (`direct_end_ns = end_ns`).
    fn from_transfers(
        n_devices: usize,
        schedule: Schedule,
        transfers: Vec<EdgeTransfer>,
        payload_bytes: u64,
    ) -> ExchangeReport {
        let end_ns = transfers.iter().map(|t| t.done_ns).max().unwrap_or(0);
        ExchangeReport {
            n_devices,
            schedule,
            transfers,
            payload_bytes,
            end_ns,
            direct_end_ns: end_ns,
        }
    }

    /// Completion of the last transfer, seconds (0.0 when none).
    pub fn end_s(&self) -> f64 {
        self.end_ns as f64 * 1e-9
    }

    /// Completion of the direct schedule of the same phase, seconds.
    pub fn direct_end_s(&self) -> f64 {
        self.direct_end_ns as f64 * 1e-9
    }

    /// Total bytes that crossed links (a forwarded payload counts once
    /// per hop).
    pub fn total_bytes(&self) -> u64 {
        self.transfers.iter().map(|t| t.bytes).sum()
    }

    /// Messages sent: one per transfer.
    pub fn messages(&self) -> usize {
        self.transfers.len()
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

/// Min-heap of `(instant_ns, edge)` events driving [`run_engines`].
#[derive(Default)]
struct EventQueue {
    heap: BinaryHeap<Reverse<(u64, usize)>>,
}

impl EventQueue {
    /// Schedule edge `edge` to run at `at_ns`.
    fn schedule(&mut self, at_ns: u64, edge: usize) {
        self.heap.push(Reverse((at_ns, edge)));
    }

    /// Pop every event at the earliest instant into `frontier`
    /// (ascending, deduped) and return that instant.
    fn pop_frontier(&mut self, frontier: &mut Vec<usize>) -> Option<u64> {
        frontier.clear();
        let Reverse((now, first)) = self.heap.pop()?;
        frontier.push(first);
        // The heap pops `(instant, edge)` pairs in ascending order, so
        // duplicates arrive adjacent.
        while let Some(&Reverse((t, edge))) = self.heap.peek() {
            if t != now {
                break;
            }
            self.heap.pop();
            if frontier.last() != Some(&edge) {
                frontier.push(edge);
            }
        }
        Some(now)
    }
}

/// Run `edges` through one FIFO egress and one FIFO ingress engine per
/// node. Edge `i` may start once `edges[i].ready_ns` has passed and
/// every edge in `after[i]` has landed; ready edges claim free engines
/// in canonical priority order `(ready, src, dst, index)`, where `ready`
/// includes the wait for `after`. Returns the transfers in that order.
fn run_engines(
    nodes: usize,
    edges: &[EdgeSpec],
    after: &[Vec<usize>],
    link: &LinkModel,
) -> Vec<EdgeTransfer> {
    let mut ready: Vec<u64> = edges.iter().map(|e| e.ready_ns).collect();
    let mut waiting: Vec<usize> = after.iter().map(Vec::len).collect();
    let mut unblocks: Vec<Vec<usize>> = vec![Vec::new(); edges.len()];
    for (i, deps) in after.iter().enumerate() {
        for &j in deps {
            unblocks[j].push(i);
        }
    }
    let mut queue = EventQueue::default();
    for (i, _) in waiting.iter().enumerate().filter(|(_, &w)| w == 0) {
        queue.schedule(ready[i], i);
    }
    let mut egress_free = vec![0u64; nodes];
    let mut ingress_free = vec![0u64; nodes];
    let mut scheduled: Vec<Option<EdgeTransfer>> = vec![None; edges.len()];
    let mut frontier: Vec<usize> = Vec::new();
    while let Some(now) = queue.pop_frontier(&mut frontier) {
        frontier.sort_unstable_by_key(|&i| (ready[i], edges[i].src, edges[i].dst, i));
        for &i in &frontier {
            let e = &edges[i];
            let free = egress_free[e.src].max(ingress_free[e.dst]);
            if free > now {
                // An engine is busy: retry the instant it frees.
                queue.schedule(free, i);
                continue;
            }
            let done = now + ns(link.seconds(e.bytes));
            egress_free[e.src] = done;
            ingress_free[e.dst] = done;
            scheduled[i] = Some(EdgeTransfer {
                src: e.src,
                dst: e.dst,
                entries: e.entries,
                bytes: e.bytes,
                start_ns: now,
                done_ns: done,
            });
            for &h in &unblocks[i] {
                ready[h] = ready[h].max(done);
                waiting[h] -= 1;
                if waiting[h] == 0 {
                    queue.schedule(ready[h], h);
                }
            }
        }
    }
    let mut order: Vec<usize> = (0..edges.len()).collect();
    order.sort_unstable_by_key(|&i| (ready[i], edges[i].src, edges[i].dst, i));
    order
        .into_iter()
        .map(|i| scheduled[i].expect("every exchange edge must be scheduled"))
        .collect()
}

/// Schedule `edges` over `n_devices` devices plus the host sink (node
/// `n_devices`) as the direct schedule: one transfer per edge, FIFO per
/// egress and ingress engine, earliest-ready first (ties by `(src, dst,
/// index)`). See the module docs for the discipline and determinism
/// argument.
pub fn schedule_exchange(n_devices: usize, edges: &[EdgeSpec], link: &LinkModel) -> ExchangeReport {
    for e in edges {
        assert!(e.src < n_devices, "edge source must be a device");
        assert!(e.dst <= n_devices, "edge destination out of range");
        assert_ne!(e.src, e.dst, "self-edge in exchange");
    }
    let transfers = run_engines(n_devices + 1, edges, &vec![Vec::new(); edges.len()], link);
    let payload_bytes = edges.iter().map(|e| e.bytes).sum();
    ExchangeReport::from_transfers(n_devices, Schedule::Direct, transfers, payload_bytes)
}

/// One halo payload: the `entries` that `owner` ships to `dst` each
/// iterate. Routing never splits or merges its identity: it travels as
/// one chunk, whichever messages carry it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Payload {
    /// Device that computed the entries.
    pub owner: usize,
    /// Device that reads them.
    pub dst: usize,
    /// Vector entries.
    pub entries: usize,
    /// Payload bytes.
    pub bytes: u64,
}

/// One message of the routed (Bruck) schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hop {
    /// Round `k`: the message travels `2^k` participants forward.
    pub round: u32,
    /// Sending device.
    pub src: usize,
    /// Receiving device.
    pub dst: usize,
    /// Indices into [`HaloPlan::payloads`] of the chunks it carries.
    pub chunks: Vec<usize>,
    /// Vector entries carried.
    pub entries: usize,
    /// Link bytes carried.
    pub bytes: u64,
}

/// A halo's payloads and the Bruck route that can ship them. Both
/// depend only on the partition, so a fleet builds its plan once; each
/// phase prices it against that phase's compute finishes
/// ([`HaloPlan::schedule`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HaloPlan {
    payloads: Vec<Payload>,
    participants: Vec<usize>,
    hops: Vec<Hop>,
    /// `waits[h]`: the earlier-round hops hop `h` must see land first
    /// (see [`HaloPlan::routed`]).
    waits: Vec<Vec<usize>>,
}

impl HaloPlan {
    /// Route `payloads` (zero-byte ones dropped) over the devices they
    /// touch. With m participants there are ⌈log₂ m⌉ rounds; a payload
    /// whose offset `(dst − owner) mod m` has popcount p reaches `dst`
    /// after p hops and never returns to its owner, since every partial
    /// sum of its offset's bits lies strictly between 0 and m.
    pub fn new(payloads: impl IntoIterator<Item = Payload>) -> HaloPlan {
        let payloads: Vec<Payload> = payloads.into_iter().filter(|p| p.bytes > 0).collect();
        assert!(
            payloads.iter().all(|p| p.owner != p.dst),
            "self-payload in halo"
        );
        let mut participants: Vec<usize> = payloads.iter().flat_map(|p| [p.owner, p.dst]).collect();
        participants.sort_unstable();
        participants.dedup();
        let m = participants.len();
        let rank = |d: usize| {
            participants
                .binary_search(&d)
                .expect("every payload endpoint participates")
        };
        // Each chunk's current holder and its destination, as ranks.
        let mut holder: Vec<usize> = payloads.iter().map(|p| rank(p.owner)).collect();
        let target: Vec<usize> = payloads.iter().map(|p| rank(p.dst)).collect();
        let mut hops = Vec::new();
        for round in 0..m.next_power_of_two().trailing_zeros() {
            let step = 1usize << round;
            let mut outbox: Vec<Vec<usize>> = vec![Vec::new(); m];
            for (c, (&at, &to)) in holder.iter().zip(&target).enumerate() {
                if ((to + m - at) % m) & step != 0 {
                    outbox[at].push(c);
                }
            }
            for (i, chunks) in outbox.into_iter().enumerate() {
                if chunks.is_empty() {
                    continue;
                }
                let next = (i + step) % m;
                for &c in &chunks {
                    holder[c] = next;
                }
                hops.push(Hop {
                    round,
                    src: participants[i],
                    dst: participants[next],
                    entries: chunks.iter().map(|&c| payloads[c].entries).sum(),
                    bytes: chunks.iter().map(|&c| payloads[c].bytes).sum(),
                    chunks,
                });
            }
        }
        debug_assert_eq!(holder, target, "every chunk reaches its destination");
        let waits = hops
            .iter()
            .map(|h| {
                (0..hops.len())
                    .filter(|&j| {
                        let e = &hops[j];
                        e.round < h.round && (e.dst == h.src || e.src == h.src || e.dst == h.dst)
                    })
                    .collect()
            })
            .collect();
        HaloPlan {
            payloads,
            participants,
            hops,
            waits,
        }
    }

    /// The non-empty payloads, in input order.
    pub fn payloads(&self) -> &[Payload] {
        &self.payloads
    }

    /// Devices that send or receive payload, ascending: participant `i`
    /// of the route is device `participants()[i]`.
    pub fn participants(&self) -> &[usize] {
        &self.participants
    }

    /// The routed messages, in `(round, sender)` order; none is empty.
    pub fn hops(&self) -> &[Hop] {
        &self.hops
    }

    /// The direct schedule for devices that finished computing at
    /// `ready_ns[d]`: each payload one transfer, ready at its owner's
    /// finish. Transfers in FIFO-priority order.
    pub fn direct(&self, ready_ns: &[u64], link: &LinkModel) -> Vec<EdgeTransfer> {
        let edges: Vec<EdgeSpec> = self
            .payloads
            .iter()
            .map(|p| EdgeSpec {
                src: p.owner,
                dst: p.dst,
                entries: p.entries,
                bytes: p.bytes,
                ready_ns: ready_ns[p.owner],
            })
            .collect();
        run_engines(ready_ns.len(), &edges, &vec![Vec::new(); edges.len()], link)
    }

    /// The routed schedule. A round-k hop is ready once its sender
    /// finished computing (`ready_ns[src]`) and every earlier-round hop
    /// into the sender has landed. Each engine serves routed messages in
    /// round order, so the hop also waits for the earlier-round hops out
    /// of its sender and into its receiver. Transfers in FIFO-priority
    /// order.
    pub fn routed(&self, ready_ns: &[u64], link: &LinkModel) -> Vec<EdgeTransfer> {
        let edges: Vec<EdgeSpec> = self
            .hops
            .iter()
            .map(|h| EdgeSpec {
                src: h.src,
                dst: h.dst,
                entries: h.entries,
                bytes: h.bytes,
                ready_ns: ready_ns[h.src],
            })
            .collect();
        run_engines(ready_ns.len(), &edges, &self.waits, link)
    }

    /// Price both schedules for a phase whose devices finished computing
    /// at `ready_ns[d]` (one entry per device) and keep the one that
    /// ends first; a tie keeps direct, which moves fewer bytes.
    pub fn schedule(&self, ready_ns: &[u64], link: &LinkModel) -> ExchangeReport {
        let n = ready_ns.len();
        let payload: u64 = self.payloads.iter().map(|p| p.bytes).sum();
        let direct = ExchangeReport::from_transfers(
            n,
            Schedule::Direct,
            self.direct(ready_ns, link),
            payload,
        );
        let routed = ExchangeReport::from_transfers(
            n,
            Schedule::Bruck,
            self.routed(ready_ns, link),
            payload,
        );
        if routed.end_ns < direct.end_ns {
            ExchangeReport {
                direct_end_ns: direct.end_ns,
                ..routed
            }
        } else {
            direct
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Link bytes per device, summed over the transfers by `end` (the
    /// sender or the receiver); host-sink bytes are not device bytes.
    fn bytes_by(rep: &ExchangeReport, end: fn(&EdgeTransfer) -> usize) -> Vec<u64> {
        let mut bytes = vec![0; rep.n_devices];
        for t in &rep.transfers {
            if let Some(b) = bytes.get_mut(end(t)) {
                *b += t.bytes;
            }
        }
        bytes
    }

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
        assert_eq!(bytes_by(&rep, |t| t.src), vec![1000, 0, 1000, 0]);
        assert_eq!(bytes_by(&rep, |t| t.dst), vec![0, 1000, 0, 1000]);
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
            bytes_by(&rep, |t| t.dst),
            vec![0, 0],
            "host bytes are not device bytes"
        );
    }

    #[test]
    fn frontier_pops_all_events_at_min_cycle() {
        let mut q = EventQueue::default();
        q.schedule(5, 2);
        q.schedule(3, 7);
        q.schedule(3, 1);
        q.schedule(3, 7); // duplicate
        let mut f = Vec::new();
        assert_eq!(q.pop_frontier(&mut f), Some(3));
        assert_eq!(f, vec![1, 7]);
        assert_eq!(q.pop_frontier(&mut f), Some(5));
        assert_eq!(f, vec![2]);
        assert_eq!(q.pop_frontier(&mut f), None);
        assert!(f.is_empty());
    }

    /// Four devices, all-to-all, 8 bytes a pair: two rounds of one
    /// message per device; the offset-3 payloads take two hops, so the
    /// links carry 4/3 of the payload.
    fn all_to_all(n: usize, bytes: u64) -> HaloPlan {
        HaloPlan::new((0..n).flat_map(|owner| {
            (0..n)
                .filter(move |&dst| dst != owner)
                .map(move |dst| Payload {
                    owner,
                    dst,
                    entries: bytes as usize / 8,
                    bytes,
                })
        }))
    }

    #[test]
    fn bruck_routes_four_way_all_to_all_in_two_rounds() {
        let plan = all_to_all(4, 8);
        assert_eq!(plan.participants, vec![0, 1, 2, 3]);
        let pairs: Vec<(u32, usize, usize)> =
            plan.hops.iter().map(|h| (h.round, h.src, h.dst)).collect();
        assert_eq!(
            pairs,
            vec![
                (0, 0, 1),
                (0, 1, 2),
                (0, 2, 3),
                (0, 3, 0),
                (1, 0, 2),
                (1, 1, 3),
                (1, 2, 0),
                (1, 3, 1),
            ]
        );
        // Round 1 from device 0 carries its own payload for device 2 and
        // device 3's, forwarded.
        let carried: Vec<(usize, usize)> = plan.hops[4]
            .chunks
            .iter()
            .map(|&c| (plan.payloads[c].owner, plan.payloads[c].dst))
            .collect();
        assert_eq!(carried, vec![(0, 2), (3, 2)]);
        let link: u64 = plan.hops.iter().map(|h| h.bytes).sum();
        assert_eq!(link, 128, "12 payloads of 8 bytes, 4 of them twice");
    }

    #[test]
    fn routing_wins_when_latency_bound_and_direct_when_bandwidth_bound() {
        let ready = [0u64; 8];
        // 8 bytes a pair over a 1 µs-latency link: 7 serialized sends per
        // device against 3 routed rounds.
        let latency = LinkModel {
            bandwidth_gbs: 10.0,
            latency_s: 1e-6,
        };
        let small = all_to_all(8, 8).schedule(&ready, &latency);
        assert_eq!(small.schedule, Schedule::Bruck);
        assert_eq!(small.messages(), 24);
        assert!(small.end_ns < small.direct_end_ns);
        assert_eq!(small.payload_bytes, 56 * 8);
        assert!(small.total_bytes() > small.payload_bytes);
        // 1 MB a pair over a latency-free link: routing's extra bytes
        // cost more than the messages it saves.
        let bandwidth = LinkModel {
            bandwidth_gbs: 10.0,
            latency_s: 0.0,
        };
        let big = all_to_all(8, 1 << 20).schedule(&ready, &bandwidth);
        assert_eq!(big.schedule, Schedule::Direct);
        assert_eq!(big.messages(), 56);
        assert_eq!(big.end_ns, big.direct_end_ns);
        assert_eq!(big.total_bytes(), big.payload_bytes);
    }

    #[test]
    fn two_participants_tie_and_keep_direct() {
        // Devices 1 and 3 of five exchange; the route is the direct
        // edges, so the tie keeps direct, and idle devices never appear.
        let plan = HaloPlan::new([
            Payload {
                owner: 1,
                dst: 3,
                entries: 4,
                bytes: 32,
            },
            Payload {
                owner: 3,
                dst: 1,
                entries: 2,
                bytes: 16,
            },
            Payload {
                owner: 0,
                dst: 2,
                entries: 0,
                bytes: 0,
            },
        ]);
        assert_eq!(plan.participants, vec![1, 3]);
        assert_eq!(plan.hops.len(), 2);
        let rep = plan.schedule(&[0, 50, 0, 10, 0], &LinkModel::pcie());
        assert_eq!(rep.schedule, Schedule::Direct);
        assert_eq!(rep.transfers.len(), 2);
        assert_eq!(bytes_by(&rep, |t| t.src), vec![0, 32, 0, 16, 0]);
        assert_eq!(bytes_by(&rep, |t| t.dst), vec![0, 16, 0, 32, 0]);
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
