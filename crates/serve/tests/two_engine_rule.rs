//! The pipelined serving clock, rebuilt from traced runs.
//!
//! `serve_slo` runs each device as two engines. The host launches wave
//! k + 1, on every device together, at t = max(end of wave k, end of
//! wave k − 1's partials readbacks), or at the arrival that wakes an
//! idle engine; a wave ends at its last device, or at the §VIII
//! hand-off when more than one device ran it. Each device's copy engine
//! runs its readbacks first in, first out: wave k's partials from
//! max(end of wave k, its previous copy), then the scores of the queries
//! those verdicts retire, whose `completed_s` is that readback's end.
//! These tests replay the rules over a traced run's spans, in the order
//! the host issued them, and check every wave start, every completion
//! and the makespan bit for bit, on one and two devices.

use acsr_serve::{Query, ServeConfig, ServeEngine, ServeReport};
use acsr_telemetry::{Telemetry, WaveRecord};
use gpu_sim::{presets, Span, SpanKind};
use graph_apps::IterParams;
use graphgen::{generate_power_law, PowerLawConfig};
use multi_gpu::handoff;
use sparse_formats::CsrMatrix;
use std::collections::BTreeMap;
use std::sync::Arc;

fn graph(rows: usize, seed: u64) -> CsrMatrix<f64> {
    generate_power_law(&PowerLawConfig {
        rows,
        cols: rows,
        mean_degree: 6.0,
        max_degree: 200,
        pinned_max_rows: 1,
        col_skew: 0.4,
        seed,
        ..Default::default()
    })
}

/// Eight queries into three slots: a burst at t = 0 that refills slots
/// as queries retire, one arrival while it drains, then a pair and a
/// lone query long after, each waking an idle engine.
fn stream(rows: usize) -> Vec<Query> {
    let at = |id: u64, arrival_s: f64| Query {
        id,
        seed: (id as usize * 37 + 11) % rows,
        restart_c: 0.85,
        arrival_s,
        tenant: 0,
    };
    let mut queries: Vec<Query> = (0..4).map(|id| at(id, 0.0)).collect();
    queries.push(at(4, 40e-6));
    queries.extend((5..7).map(|id| at(id, 1.0)));
    queries.push(at(7, 2.0));
    queries
}

struct Traced {
    report: ServeReport<f64>,
    waves: Vec<WaveRecord>,
    /// Top-level spans, in the order the host issued them.
    spans: Vec<Span>,
    devices: Vec<String>,
}

fn traced(g: &CsrMatrix<f64>, n_devices: usize, queries: &[Query], iter: IterParams) -> Traced {
    let mut engine = ServeEngine::new(
        g,
        ServeConfig {
            max_batch: 3,
            n_devices,
            iter,
            ..ServeConfig::default()
        },
    );
    let ledger = engine.enable_tracing();
    let tel = Arc::new(Telemetry::new());
    engine.attach_telemetry(tel.clone());
    let report = engine.serve(queries);
    ledger.reconcile().expect("serve trace must reconcile");
    let name = presets::gtx_titan().name;
    let devices = if n_devices == 1 {
        vec![name]
    } else {
        (0..n_devices).map(|d| format!("{name} #{d}")).collect()
    };
    Traced {
        report,
        waves: tel.requests.waves(),
        spans: ledger
            .spans()
            .into_iter()
            .filter(|s| s.is_top_level())
            .collect(),
        devices,
    }
}

/// The clock the rules give a traced run.
struct Rebuilt {
    /// Start, length and end of each wave, in launch order.
    start: Vec<f64>,
    dur: Vec<f64>,
    end: Vec<f64>,
    /// Each scores readback: the wave whose verdicts it answers, its end
    /// and its bytes.
    scores: Vec<(usize, f64, u64)>,
    /// Waves that started when the partials before them came back,
    /// after the wave before them had ended.
    waited: usize,
}

fn rebuild(t: &Traced, arrival: &BTreeMap<u64, f64>) -> Rebuilt {
    let n = t.waves.len();
    let wave_of = |s: &Span| {
        let id = s.wave.expect("every serving span names its wave");
        t.waves
            .iter()
            .position(|w| w.wave == id)
            .expect("an announced wave")
    };
    let device_of = |s: &Span| {
        t.devices
            .iter()
            .position(|d| *d == s.device)
            .expect("a serving device")
    };
    // Each wave's time on each device: its launches, summed in order.
    let mut compute = vec![vec![None; t.devices.len()]; n];
    for s in t.spans.iter().filter(|s| s.kind == SpanKind::Launch) {
        let slot: &mut Option<f64> = &mut compute[wave_of(s)][device_of(s)];
        *slot = Some(slot.unwrap_or(0.0) + s.dur_s);
    }

    let (mut start, mut dur, mut end) = (vec![0.0f64; n], vec![0.0f64; n], vec![0.0f64; n]);
    let mut held = vec![0.0f64; n];
    let mut copy = vec![0.0f64; t.devices.len()];
    let mut read = vec![vec![0.0f64; t.devices.len()]; n];
    let mut scores = Vec::new();
    let mut launched = 0usize;
    let mut waited = 0usize;
    for s in &t.spans {
        let (k, d) = (wave_of(s), device_of(s));
        match (s.kind, s.name.as_str()) {
            (SpanKind::Launch, _) if k == launched => {
                // The first launch of wave k: it starts once wave k − 1
                // has ended and wave k − 2's partials are back, and not
                // before the first of its queries arrived.
                let (after, partials) = match k {
                    0 => (0.0, 0.0),
                    1 => (end[0], 0.0),
                    _ => (end[k - 1], held[k - 2]),
                };
                let first = t.waves[k]
                    .queries
                    .iter()
                    .map(|q| arrival[q])
                    .fold(f64::INFINITY, f64::min);
                start[k] = after.max(partials).max(first);
                if partials > after && partials > first {
                    waited += 1;
                }
                let finishes = &compute[k];
                let last = finishes.iter().flatten().fold(0.0f64, |a, &b| a.max(b));
                dur[k] = last.max(handoff(finishes).end_s());
                end[k] = start[k] + dur[k];
                launched += 1;
            }
            (SpanKind::Launch, _) => {
                assert_eq!(k + 1, launched, "launches of one wave are adjacent")
            }
            (SpanKind::Transfer, "serve_partials_d2h") => {
                assert!(k < launched, "partials of a launched wave");
                copy[d] = end[k].max(copy[d]) + s.dur_s;
                read[k][d] = copy[d];
                held[k] = held[k].max(copy[d]);
            }
            (SpanKind::Transfer, "serve_scores_d2h") => {
                copy[d] = read[k][d].max(copy[d]) + s.dur_s;
                scores.push((k, copy[d], s.counters.dtoh_bytes));
            }
            _ => panic!("unexpected span {}", s.name),
        }
    }
    assert_eq!(launched, n, "every wave launched");
    Rebuilt {
        start,
        dur,
        end,
        scores,
        waited,
    }
}

/// Replay `queries` on `n_devices` and check the run against the rules.
/// Returns how many waves ran and how many of them waited for partials.
fn check(g: &CsrMatrix<f64>, n_devices: usize, queries: &[Query], what: &str) -> (usize, usize) {
    let t = traced(g, n_devices, queries, IterParams::default());
    let report = &t.report;
    assert_eq!(report.outcomes.len(), queries.len(), "{what}");
    let arrival: BTreeMap<u64, f64> = queries.iter().map(|q| (q.id, q.arrival_s)).collect();
    let r = rebuild(&t, &arrival);

    for (k, w) in t.waves.iter().enumerate() {
        assert_eq!(
            w.t_start_s.to_bits(),
            r.start[k].to_bits(),
            "{what}: wave {k} start"
        );
        assert_eq!(
            w.dur_s.to_bits(),
            r.dur[k].to_bits(),
            "{what}: wave {k} length"
        );
    }

    // The wave whose verdict retired each query: the one of its last
    // checked iterate. It rode one discarded wave after it.
    let mut answered: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for o in &report.outcomes {
        let rode: Vec<usize> = (0..t.waves.len())
            .filter(|&k| t.waves[k].queries.contains(&o.id))
            .collect();
        assert_eq!(rode.len(), o.iterations + 1, "{what}: query {}", o.id);
        assert!(
            rode.windows(2).all(|p| p[1] == p[0] + 1),
            "{what}: every wave"
        );
        let settled = answered.entry(rode[o.iterations - 1]).or_default();
        settled.push(o.completed_s.to_bits());
    }
    // Each query completes when its device's scores readback for that
    // wave ends, and each readback carries the answers completing with it.
    let score_bytes = (g.rows() * std::mem::size_of::<f64>()) as u64;
    let mut readbacks: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for &(k, done, bytes) in &r.scores {
        let ends = readbacks.entry(k).or_default();
        ends.extend(std::iter::repeat_n(
            done.to_bits(),
            (bytes / score_bytes) as usize,
        ));
    }
    for ends in answered.values_mut().chain(readbacks.values_mut()) {
        ends.sort_unstable();
    }
    assert_eq!(answered, readbacks, "{what}: completions");
    let last = report.outcomes.iter().map(|o| o.completed_s);
    let makespan = last.fold(r.end[t.waves.len() - 1], f64::max);
    assert_eq!(report.makespan_s.to_bits(), makespan.to_bits(), "{what}");
    (t.waves.len(), r.waited)
}

#[test]
fn serve_times_follow_the_two_engine_rule() {
    // 200 rows: a wave on one device is shorter than the ~10 µs
    // partials readback, so it waits for the partials two before it;
    // 8000 rows: waves outlast the readbacks, and only a scores
    // readback queued ahead of the partials can hold one up.
    for (rows, readback_bound) in [(200, true), (8000, false)] {
        let g = graph(rows, 2035);
        for n_devices in [1, 2] {
            let what = format!("{rows} rows on {n_devices} devices");
            let (waves, waited) = check(&g, n_devices, &stream(rows), &what);
            if readback_bound {
                assert!(waited > 0, "{what}: no wave waited");
            } else {
                assert!(
                    4 * waited < waves,
                    "{what}: {waited} of {waves} waves waited"
                );
            }
        }
    }
}

/// A query capped at one iteration rides one wave: its verdict is known
/// when that wave launches, so it gives up its slot and no discarded
/// column follows it.
#[test]
fn capped_queries_ride_no_discarded_column() {
    let g = graph(200, 2036);
    let once = IterParams {
        max_iters: 1,
        ..IterParams::default()
    };
    for n_devices in [1, 2] {
        let queries = stream(g.rows());
        let t = traced(&g, n_devices, &queries, once);
        let report = &t.report;
        assert_eq!(report.outcomes.len(), queries.len());
        assert!(report.outcomes.iter().all(|o| o.iterations == 1));
        let columns: usize = report.wave_widths.iter().sum();
        assert_eq!(
            columns,
            queries.len(),
            "{n_devices} devices: one column each"
        );
    }
}
