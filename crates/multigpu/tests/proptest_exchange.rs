//! Property tests of the two halo exchange schedules, on the pure
//! schedule functions alone (no simulator): random owner → shard
//! payload lists over 1–17 devices, with idle devices and zero-byte
//! pairs, random compute finishes, over PCIe- and NVLink-class links.
//!
//! - Replaying the routed (Bruck) hops delivers every payload to its
//!   destination exactly once, and none passes back through its owner.
//! - Each participant sends at most ⌈log₂ m⌉ routed messages.
//! - Neither schedule overlaps two transfers on one egress or ingress
//!   engine, and no transfer starts before its sender finished computing
//!   and received every payload it forwards.
//! - The kept schedule ends at min(direct, routed), direct on a tie.
//! - A device with no halo traffic appears in no transfer.

use multi_gpu::{EdgeTransfer, HaloPlan, LinkModel, Payload, Schedule};
use proptest::prelude::*;

/// One random phase: device count, payload list, compute finishes (ns).
fn phase() -> impl Strategy<Value = (usize, Vec<Payload>, Vec<u64>)> {
    (1usize..=17)
        .prop_flat_map(|n| {
            (
                Just(n),
                // Roughly one device in three sits idle.
                prop::collection::vec(0u32..3, n),
                // Roughly one pair in three carries zero bytes.
                prop::collection::vec(0usize..1500, n * n),
                prop::collection::vec(0u64..40_000, n),
            )
        })
        .prop_map(|(n, activity, entries, ready)| {
            let payloads = (0..n)
                .flat_map(|owner| (0..n).map(move |dst| (owner, dst)))
                .filter(|&(owner, dst)| owner != dst && activity[owner] > 0 && activity[dst] > 0)
                .map(|(owner, dst)| {
                    let e = entries[owner * n + dst];
                    let e = if e % 3 == 0 { 0 } else { e };
                    Payload {
                        owner,
                        dst,
                        entries: e,
                        bytes: e as u64 * 8,
                    }
                })
                .collect();
            (n, payloads, ready)
        })
}

/// No two transfers share an egress or ingress engine at once.
fn assert_engines_exclusive(transfers: &[EdgeTransfer], what: &str) {
    for (i, a) in transfers.iter().enumerate() {
        for b in &transfers[i + 1..] {
            let overlap = a.start_ns < b.done_ns && b.start_ns < a.done_ns;
            assert!(
                !(overlap && (a.src == b.src || a.dst == b.dst)),
                "{what}: {a:?} and {b:?} overlap on one engine"
            );
        }
    }
}

fn end(transfers: &[EdgeTransfer]) -> u64 {
    transfers.iter().map(|t| t.done_ns).max().unwrap_or(0)
}

fn check_phase(n: usize, payloads: &[Payload], ready: &[u64], link: &LinkModel) {
    let plan = HaloPlan::new(payloads.iter().copied());
    let what = format!("{n} devices, {link:?}");
    let live: Vec<&Payload> = payloads.iter().filter(|p| p.bytes > 0).collect();
    assert_eq!(
        plan.payloads().len(),
        live.len(),
        "{what}: zero-byte pairs dropped"
    );
    let busy: Vec<usize> = (0..n)
        .filter(|&d| live.iter().any(|p| p.owner == d || p.dst == d))
        .collect();
    assert_eq!(plan.participants(), busy, "{what}: participants");
    let m = busy.len();
    let rounds = m.next_power_of_two().trailing_zeros();

    // Routing: replay every hop; each chunk moves from its holder, never
    // back to its owner, and lands at its destination exactly once.
    let mut at: Vec<usize> = plan.payloads().iter().map(|p| p.owner).collect();
    let mut delivered = vec![0usize; plan.payloads().len()];
    let mut sent = vec![0u32; n];
    for h in plan.hops() {
        assert!(h.round < rounds, "{what}: round {} of {rounds}", h.round);
        assert!(!h.chunks.is_empty(), "{what}: empty message sent");
        let bytes: u64 = h.chunks.iter().map(|&c| plan.payloads()[c].bytes).sum();
        assert_eq!(h.bytes, bytes, "{what}: hop bytes");
        sent[h.src] += 1;
        for &c in &h.chunks {
            let p = &plan.payloads()[c];
            assert_eq!(
                at[c], h.src,
                "{what}: {p:?} sent by a device not holding it"
            );
            assert_ne!(h.dst, p.owner, "{what}: {p:?} returned to its owner");
            assert!(delivered[c] == 0, "{what}: {p:?} moved after delivery");
            at[c] = h.dst;
            delivered[c] += usize::from(h.dst == p.dst);
        }
    }
    assert!(delivered.iter().all(|&d| d == 1), "{what}: undelivered");
    assert!(
        sent.iter().all(|&s| s <= rounds),
        "{what}: {sent:?} messages against {rounds} rounds"
    );

    let direct = plan.direct(ready, link);
    let routed = plan.routed(ready, link);
    assert_eq!(direct.len(), plan.payloads().len());
    assert_eq!(routed.len(), plan.hops().len());
    for (name, transfers) in [("direct", &direct), ("routed", &routed)] {
        assert_engines_exclusive(transfers, &format!("{what}, {name}"));
        for t in transfers.iter() {
            assert!(
                t.start_ns >= ready[t.src],
                "{what}, {name}: {t:?} before compute"
            );
            assert!(
                busy.contains(&t.src) && busy.contains(&t.dst),
                "{what}, {name}: idle device in {t:?}"
            );
        }
    }
    // A routed hop starts only once every payload it forwards has landed
    // on its sender. Hops are in round order, so replaying them tracks
    // each chunk's arrival at its current holder.
    let transfer = |src: usize, dst: usize| {
        let mut hits = routed.iter().filter(|t| t.src == src && t.dst == dst);
        let t = hits.next().expect("every hop is scheduled");
        assert!(
            hits.next().is_none(),
            "{what}: pair {src}->{dst} sent twice"
        );
        t
    };
    let mut landed = vec![0u64; plan.payloads().len()];
    for h in plan.hops() {
        let t = transfer(h.src, h.dst);
        for &c in &h.chunks {
            if plan.payloads()[c].owner != h.src {
                assert!(
                    landed[c] <= t.start_ns,
                    "{what}: {h:?} forwards chunk {c} before it landed"
                );
            }
            landed[c] = t.done_ns;
        }
    }

    // Selection: the earlier end wins, a tie keeps direct.
    let chosen = plan.schedule(ready, link);
    let (d_end, r_end) = (end(&direct), end(&routed));
    assert_eq!(chosen.end_ns, d_end.min(r_end), "{what}");
    assert_eq!(chosen.direct_end_ns, d_end, "{what}");
    let payload: u64 = live.iter().map(|p| p.bytes).sum();
    assert_eq!(chosen.payload_bytes, payload, "{what}");
    if d_end <= r_end {
        assert_eq!(
            chosen.schedule,
            Schedule::Direct,
            "{what}: tie must keep direct"
        );
        assert_eq!(chosen.transfers, direct, "{what}");
        assert_eq!(chosen.total_bytes(), payload, "{what}");
    } else {
        assert_eq!(chosen.schedule, Schedule::Bruck, "{what}");
        assert_eq!(chosen.transfers, routed, "{what}");
        assert!(chosen.total_bytes() >= payload, "{what}");
    }
    assert_eq!(chosen.messages(), chosen.transfers.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exchange_schedules_hold_their_invariants((n, payloads, ready) in phase()) {
        for link in [LinkModel::pcie(), LinkModel::nvlink()] {
            check_phase(n, &payloads, &ready, &link);
        }
    }
}
