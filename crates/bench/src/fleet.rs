//! `repro fleet` — N-device sharded-fleet scaling, per-shard format
//! selection, and wave work-stealing.
//!
//! Three sections, one artifact:
//!
//! 1. **Scaling**: a power-law subset of the Table I suite sharded
//!    across D ∈ {1, 2, 4, 8, 16} simulated devices ([`multi_gpu::Fleet`])
//!    on the NVLink-class interconnect (the resident-fleet machine the
//!    subsystem models; PCIe-class links leave small matrices
//!    exchange-bound at every D). Each row records the modeled wall
//!    time, the speedup and parallel efficiency against the D = 1
//!    baseline, and the halo exchange: the schedule the fleet kept
//!    (`direct`, or the routed `bruck`) with its message count, link
//!    and delivered payload bytes, its end, where the direct schedule
//!    would have ended, and the tail past compute. Every run traces
//!    into a [`gpu_sim::trace::TraceLedger`] and the per-message halo
//!    transfers are reconciled **integer-exactly** (bytes) and
//!    **bit-exactly** (durations) against the exchange report — the run
//!    dies on any mismatch, so a committed artifact is self-consistent
//!    by construction.
//! 2. **Formats**: the same fleet at D = 8 with
//!    [`multi_gpu::ShardFormat::Adaptive`] — binned sharding reshapes
//!    every shard's row-length distribution, so shards may plan
//!    different formats; the section records what each shard chose.
//! 3. **Stealing**: the serving engine's per-wave dispatch choice
//!    ([`acsr_serve::DispatchPolicy::Auto`]) against always-row-split
//!    on a 4-device engine, over two traces — sparse arrivals (width-1
//!    waves, where query-splitting onto replicated devices wins) and a
//!    saturated burst (waves of up to 8 queries, where the
//!    probe-calibrated cost model decides per wave; it currently steals
//!    them too). Every multi-device wave closes with the fleet's
//!    scheduled completion hand-off. The run dies unless Auto steals
//!    every sparse wave, strictly cuts the sparse trace's p99 and
//!    improves its attainment, and loses no attainment on the
//!    saturated trace.
//!
//! Results go to `results/BENCH_fleet.json` under [`SCHEMA`], which the
//! write and `repro check-artifacts` both enforce; `repro bench-diff`
//! gates them against `baselines/BENCH_fleet_ci.json`.

use crate::artifact::{self, Schema};
use acsr_serve::{DispatchPolicy, Query, ServeConfig, ServeEngine, ServeReport, SloPolicy};
use gpu_sim::presets;
use graphgen::{generate_power_law, MatrixSpec, PowerLawConfig};
use multi_gpu::{Fleet, FleetConfig, FleetReport, ShardFormat};
use serde::{Serialize, Value};

/// The `acsr-fleet-v1` contract. The ledger reconciliation is part of
/// it: every scaling row's `halo_bytes` equals its `ledger_halo_bytes`
/// as integers. Each row's exchange decision is consistent: the
/// schedule is `direct` or `bruck`, the delivered `payload_bytes` never
/// exceed the link `halo_bytes` (and equal them under `direct`), and
/// the kept schedule never ends after the direct one. The formats
/// section names its shards.
pub const SCHEMA: Schema = Schema {
    tag: "acsr-fleet-v1",
    kind: "fleet report",
    fields: &["scale", "device_counts", "formats", "p99_target_ms"],
    rows: &[
        (
            "scaling",
            1,
            &[
                "name",
                "devices",
                "seconds",
                "speedup",
                "efficiency",
                "halo_bytes",
                "ledger_halo_bytes",
                "payload_bytes",
                "schedule",
                "messages",
                "exchange_ms",
                "direct_exchange_ms",
                "replicated_rows",
            ],
        ),
        (
            "stealing",
            1,
            &["name", "waves", "stolen_waves", "attainment", "p99_ms"],
        ),
    ],
    invariants: exchange_consistent,
};

fn exchange_consistent(doc: &Value) -> Result<(), String> {
    for row in artifact::rows(doc, "scaling") {
        let int = |key| artifact::field(row, key).and_then(artifact::as_u64);
        let num = |key| artifact::field(row, key).and_then(artifact::as_f64);
        let (halo, ledger, payload) = (
            int("halo_bytes"),
            int("ledger_halo_bytes"),
            int("payload_bytes"),
        );
        if halo.is_none() || halo != ledger {
            return Err(format!(
                "scaling row has halo_bytes {halo:?} but ledger_halo_bytes {ledger:?} \
                 (must be integer-equal)"
            ));
        }
        let direct = match artifact::field(row, "schedule") {
            Some(Value::Str(s)) if s == "direct" => true,
            Some(Value::Str(s)) if s == "bruck" => false,
            other => return Err(format!("scaling row has schedule {other:?}")),
        };
        if payload.is_none() || payload > halo || (direct && payload != halo) {
            return Err(format!(
                "scaling row delivers payload_bytes {payload:?} over halo_bytes {halo:?} \
                 (must be at most, and equal under direct)"
            ));
        }
        let (end, direct_end) = (num("exchange_ms"), num("direct_exchange_ms"));
        if !matches!((end, direct_end), (Some(e), Some(d)) if e <= d) {
            return Err(format!(
                "scaling row has exchange_ms {end:?} past direct_exchange_ms {direct_end:?}"
            ));
        }
    }
    let formats = artifact::field(doc, "formats").unwrap_or(&Value::Null);
    artifact::check_rows(formats, &("shards", 1, &[])).map_err(|e| format!("formats: {e}"))
}

/// Device counts of the scaling sweep (1 is the speedup baseline).
pub const DEVICE_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

/// One (matrix, device-count) scaling measurement.
#[derive(Serialize)]
pub struct ScalingRow {
    /// Stable row key (`LJ2_d4`; `bench-diff` keys array rows by this).
    pub name: String,
    pub matrix: String,
    pub devices: usize,
    pub rows: usize,
    pub nnz: usize,
    /// Modeled wall time (compute makespan or exchange end, whichever
    /// lands later).
    pub seconds: f64,
    /// D = 1 wall time over this wall time.
    pub speedup: f64,
    /// Speedup over device count.
    pub efficiency: f64,
    pub gflops: f64,
    /// Bytes this SpMV moved over device links, from the exchange report.
    pub halo_bytes: u64,
    /// The same bytes re-summed from the trace ledger's `halo_*`
    /// transfer spans (asserted equal before the row is emitted).
    pub ledger_halo_bytes: u64,
    /// Halo payload delivered, each payload once (equals `halo_bytes`
    /// under the direct schedule).
    pub payload_bytes: u64,
    /// The exchange schedule the fleet kept: `direct` or `bruck`.
    pub schedule: &'static str,
    /// Messages (link transfers) the kept schedule sent.
    pub messages: usize,
    /// Completion of the last halo transfer, milliseconds.
    pub exchange_ms: f64,
    /// Where the direct schedule would have completed, milliseconds.
    pub direct_exchange_ms: f64,
    /// Milliseconds the exchange extended past compute (0 when hidden).
    pub exchange_tail_ms: f64,
    pub replicated_rows: usize,
}

/// The per-shard format choices at D = 8 under the adaptive selector.
#[derive(Serialize)]
pub struct FormatsSection {
    pub matrix: String,
    pub devices: usize,
    /// Amortization horizon handed to the selector.
    pub horizon: u64,
    /// Distinct formats across non-empty shards.
    pub distinct: usize,
    /// Format each shard planned ("-" for an empty shard).
    pub shards: Vec<String>,
}

/// One serving trace under one dispatch policy.
#[derive(Serialize)]
pub struct StealRow {
    /// `narrow_rowsplit`, `narrow_auto`, `wide_rowsplit`, `wide_auto`.
    pub name: String,
    pub queries: usize,
    pub waves: usize,
    /// Waves executed query-split (stolen onto replicated devices).
    pub stolen_waves: usize,
    /// Fraction of offered queries completing within the p99 target.
    pub attainment: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub mean_wave_width: f64,
}

/// Full report of one fleet run.
#[derive(Serialize)]
pub struct Report {
    /// Suite scale divisor the scaling matrices were generated at.
    pub scale: usize,
    /// Interconnect class of the scaling sweep.
    pub link: &'static str,
    /// The sweep's [`DEVICE_COUNTS`].
    pub device_counts: &'static [usize],
    pub scaling: Vec<ScalingRow>,
    pub formats: FormatsSection,
    /// The latency target the stealing attainment column is scored
    /// against (midpoint of the two narrow-trace p99s), milliseconds.
    pub p99_target_ms: f64,
    pub stealing: Vec<StealRow>,
}

/// Run one traced fleet SpMV and reconcile its halo ledger: the
/// `halo_*` transfer spans must carry exactly the exchange report's
/// bytes and durations, edge for edge.
fn traced_fleet_spmv(m: &sparse_formats::CsrMatrix<f64>, cfg: &FleetConfig) -> (FleetReport, u64) {
    let mut fleet = Fleet::new(m, &presets::tesla_k10_single(), cfg);
    let ledger = fleet.enable_tracing();
    let x: Vec<f64> = (0..m.cols()).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
    let mut y = vec![0.0f64; m.rows()];
    let rep = fleet.spmv(&x, &mut y);
    ledger
        .reconcile()
        .unwrap_or_else(|e| panic!("fleet trace ledger failed reconciliation: {e}"));
    // Per-edge reconciliation, bytes integer-exact and durations
    // bit-exact: the ledger's halo transfer spans against the schedule.
    let mut from_ledger: Vec<(String, u64, u64)> = ledger
        .spans()
        .iter()
        .filter(|s| s.name.starts_with("halo_"))
        .map(|s| (s.name.clone(), s.counters.htod_bytes, s.dur_s.to_bits()))
        .collect();
    let mut from_report: Vec<(String, u64, u64)> = rep
        .exchange
        .transfers
        .iter()
        .map(|t| {
            (
                format!("halo_{}to{}", t.src, t.dst),
                t.bytes,
                t.dur_s().to_bits(),
            )
        })
        .collect();
    from_ledger.sort();
    from_report.sort();
    assert_eq!(
        from_ledger, from_report,
        "halo transfer spans drifted from the exchange schedule"
    );
    let ledger_halo_bytes: u64 = from_ledger.iter().map(|(_, b, _)| b).sum();
    assert_eq!(
        ledger_halo_bytes,
        rep.halo_bytes(),
        "ledger halo bytes must equal the exchange report's"
    );
    (rep, ledger_halo_bytes)
}

fn scaling_rows(specs: &[&'static MatrixSpec], scale: usize, seed: u64) -> Vec<ScalingRow> {
    let mut out = Vec::new();
    for spec in specs {
        let m = spec.generate::<f64>(scale, seed).csr;
        let flops = 2 * m.nnz() as u64;
        let mut base_seconds = 0.0f64;
        for d in DEVICE_COUNTS {
            let (rep, ledger_halo_bytes) = traced_fleet_spmv(&m, &FleetConfig::nvlink(d));
            let seconds = rep.seconds();
            if d == 1 {
                base_seconds = seconds;
            }
            let speedup = base_seconds / seconds;
            out.push(ScalingRow {
                name: format!("{}_d{d}", spec.abbrev),
                matrix: spec.abbrev.to_string(),
                devices: d,
                rows: m.rows(),
                nnz: m.nnz(),
                seconds,
                speedup,
                efficiency: speedup / d as f64,
                gflops: rep.gflops(flops),
                halo_bytes: rep.halo_bytes(),
                ledger_halo_bytes,
                payload_bytes: rep.exchange.payload_bytes,
                schedule: rep.exchange.schedule.name(),
                messages: rep.exchange.messages(),
                exchange_ms: rep.exchange.end_s() * 1e3,
                direct_exchange_ms: rep.exchange.direct_end_s() * 1e3,
                exchange_tail_ms: rep.exchange_tail_s() * 1e3,
                replicated_rows: rep.replicated_rows,
            });
        }
    }
    out
}

fn formats_section(spec: &'static MatrixSpec, scale: usize, seed: u64) -> FormatsSection {
    const DEVICES: usize = 8;
    const HORIZON: u64 = 1000;
    let m = spec.generate::<f64>(scale, seed).csr;
    let mut cfg = FleetConfig::new(DEVICES);
    cfg.format = ShardFormat::Adaptive { horizon: HORIZON };
    let fleet = Fleet::new(&m, &presets::tesla_k10_single(), &cfg);
    let shards: Vec<String> = fleet.formats().to_vec();
    let mut distinct: Vec<&String> = shards.iter().filter(|f| *f != "-").collect();
    distinct.sort();
    distinct.dedup();
    FormatsSection {
        matrix: spec.abbrev.to_string(),
        devices: DEVICES,
        horizon: HORIZON,
        distinct: distinct.len(),
        shards,
    }
}

fn steal_row(name: &str, report: &ServeReport<f64>, target_s: f64) -> StealRow {
    let lat = report.latency_stats();
    StealRow {
        name: name.to_string(),
        queries: report.offered,
        waves: report.waves,
        stolen_waves: report.stolen_waves(),
        attainment: report.attainment(target_s),
        p50_ms: lat.p50_s * 1e3,
        p99_ms: lat.p99_s * 1e3,
        mean_wave_width: report.mean_wave_width(),
    }
}

/// RowSplit vs Auto on a sparse (width-1 waves) and a saturated
/// (full-width waves) trace; asserts Auto is never worse and strictly
/// faster on the sparse trace.
fn stealing_section(quick: bool) -> (f64, Vec<StealRow>) {
    let rows = if quick { 400 } else { 800 };
    let g = generate_power_law::<f64>(&PowerLawConfig {
        rows,
        cols: rows,
        mean_degree: 6.0,
        max_degree: 120,
        pinned_max_rows: 1,
        col_skew: 0.4,
        seed: 213,
        ..Default::default()
    });
    let config = ServeConfig {
        max_batch: 8,
        queue_capacity: 64,
        n_devices: 4,
        ..ServeConfig::default()
    };
    // Sparse: arrivals a full second apart against a microsecond-scale
    // service time — every wave is width 1, the exact shape where
    // row-splitting underfeeds all four devices and pays four hand-offs.
    let narrow: Vec<Query> = (0..8)
        .map(|id| Query {
            id,
            seed: (id as usize * 31) % rows,
            restart_c: 0.85,
            arrival_s: id as f64,
            tenant: 0,
        })
        .collect();
    // Saturated: one burst fills the waves to the cap. Auto decides per
    // wave from its probe-calibrated costs (on this graph it steals
    // every wave); the run only requires it to lose no attainment.
    let wide: Vec<Query> = (0..32)
        .map(|id| Query {
            id,
            seed: (id as usize * 13 + 5) % rows,
            restart_c: 0.85,
            arrival_s: 0.0,
            tenant: 0,
        })
        .collect();
    let run = |queries: &[Query], dispatch| {
        let engine = ServeEngine::<f64>::new(&g, config.clone());
        engine.serve_slo(
            queries,
            &SloPolicy::open_loop(f64::INFINITY, 8, 64).with_dispatch(dispatch),
        )
    };
    let narrow_rs = run(&narrow, DispatchPolicy::RowSplit);
    let narrow_auto = run(&narrow, DispatchPolicy::Auto);
    let wide_rs = run(&wide, DispatchPolicy::RowSplit);
    let wide_auto = run(&wide, DispatchPolicy::Auto);

    // Score attainment against the midpoint of the two narrow p99s: a
    // target the stolen trace meets and the row-split trace misses.
    let p99 = |r: &ServeReport<f64>| r.latency_stats().p99_s;
    let target_s = 0.5 * (p99(&narrow_rs) + p99(&narrow_auto));
    assert!(
        p99(&narrow_auto) < p99(&narrow_rs),
        "stealing must cut the narrow trace's p99: auto {} vs row-split {}",
        p99(&narrow_auto),
        p99(&narrow_rs)
    );
    assert_eq!(
        narrow_auto.stolen_waves(),
        narrow_auto.waves,
        "every narrow wave must steal"
    );
    assert!(
        narrow_auto.attainment(target_s) > narrow_rs.attainment(target_s),
        "stealing must strictly improve narrow-trace attainment"
    );
    assert!(
        wide_auto.attainment(target_s) >= wide_rs.attainment(target_s),
        "Auto must never lose attainment on the saturated trace"
    );
    let rows = vec![
        steal_row("narrow_rowsplit", &narrow_rs, target_s),
        steal_row("narrow_auto", &narrow_auto, target_s),
        steal_row("wide_rowsplit", &wide_rs, target_s),
        steal_row("wide_auto", &wide_auto, target_s),
    ];
    (target_s * 1e3, rows)
}

/// Run the full fleet bench. `quick` shrinks the matrix subset and
/// scale for CI smoke runs — same schema, same reconciliation, still
/// fully deterministic.
pub fn run(quick: bool) -> Report {
    let (abbrevs, scale): (&[&str], usize) = if quick {
        (&["ENR", "LJ2"], 512)
    } else {
        (&["ENR", "CNR", "EU2", "LJ2"], 64)
    };
    let seed = 1u64;
    let specs: Vec<&'static MatrixSpec> = abbrevs
        .iter()
        .map(|a| MatrixSpec::by_abbrev(a).expect("known abbreviation"))
        .collect();
    let scaling = scaling_rows(&specs, scale, seed);
    let formats = formats_section(specs[specs.len() - 1], scale, seed);
    let (p99_target_ms, stealing) = stealing_section(quick);
    Report {
        scale,
        link: "nvlink",
        device_counts: &DEVICE_COUNTS,
        scaling,
        formats,
        p99_target_ms,
        stealing,
    }
}

/// Human-readable tables.
pub fn render(report: &Report) -> String {
    let mut scaling = crate::Table::new(&[
        "matrix", "D", "wall", "speedup", "eff", "GFLOP/s", "sched", "msgs", "halo KiB", "exch ms",
        "tail ms", "repl",
    ]);
    for r in &report.scaling {
        scaling.row(vec![
            r.matrix.clone(),
            r.devices.to_string(),
            crate::common::fmt_secs(r.seconds),
            format!("{:.2}x", r.speedup),
            format!("{:.2}", r.efficiency),
            format!("{:.2}", r.gflops),
            r.schedule.to_string(),
            r.messages.to_string(),
            format!("{:.1}", r.halo_bytes as f64 / 1024.0),
            format!("{:.4}", r.exchange_ms),
            format!("{:.4}", r.exchange_tail_ms),
            r.replicated_rows.to_string(),
        ]);
    }
    let mut stealing = crate::Table::new(&[
        "trace", "queries", "waves", "stolen", "att", "p50 ms", "p99 ms", "width",
    ]);
    for r in &report.stealing {
        stealing.row(vec![
            r.name.clone(),
            r.queries.to_string(),
            r.waves.to_string(),
            r.stolen_waves.to_string(),
            format!("{:.3}", r.attainment),
            format!("{:.4}", r.p50_ms),
            format!("{:.4}", r.p99_ms),
            format!("{:.1}", r.mean_wave_width),
        ]);
    }
    format!(
        "Fleet scaling (scale {}, NVLink-class links, halo ledger reconciled)\n{}\n\
         per-shard formats ({} at D = {}, horizon {}): {:?} ({} distinct)\n\n\
         wave dispatch: row-split vs auto stealing (p99 target {:.4} ms)\n{}",
        report.scale,
        scaling.render(),
        report.formats.matrix,
        report.formats.devices,
        report.formats.horizon,
        report.formats.shards,
        report.formats.distinct,
        report.p99_target_ms,
        stealing.render(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick run is what CI smokes and gates; pin its acceptance
    /// shape here so a drive-by change can't silently produce a
    /// degenerate artifact. (The section-level invariants — ledger
    /// reconciliation, stealing superiority — are asserted inside
    /// `run` itself and die on violation.)
    #[test]
    fn quick_run_produces_scaling_and_stealing_sections() {
        let report = run(true);
        assert_eq!(report.scaling.len(), 2 * DEVICE_COUNTS.len());
        for r in &report.scaling {
            assert!(r.seconds > 0.0, "{}: degenerate wall time", r.name);
            assert_eq!(
                r.halo_bytes, r.ledger_halo_bytes,
                "{}: ledger drifted",
                r.name
            );
            if r.devices == 1 {
                assert_eq!(r.halo_bytes, 0, "{}: single device has no halo", r.name);
                assert!((r.speedup - 1.0).abs() < 1e-12);
            } else {
                assert!(r.halo_bytes > 0, "{}: sharding must exchange", r.name);
            }
            if r.devices <= 2 {
                assert_eq!(
                    r.schedule, "direct",
                    "{}: two devices route directly",
                    r.name
                );
            }
            for v in [r.seconds, r.speedup, r.efficiency, r.gflops, r.exchange_ms] {
                assert!(v.is_finite(), "{}: non-finite metric {v}", r.name);
            }
        }
        // The largest matrix must actually scale at D = 2: its compute
        // dominates the microsecond-class halo exchange.
        let lj2_d2 = report.scaling.iter().find(|r| r.name == "LJ2_d2").unwrap();
        assert!(
            lj2_d2.speedup > 1.0,
            "LJ2 at D=2 must beat one device, got {:.3}x",
            lj2_d2.speedup
        );
        // Format section covers all 8 shards.
        assert_eq!(report.formats.shards.len(), 8);
        assert!(report.formats.distinct >= 1);
        // Stealing: the narrow auto trace steals every wave and wins.
        let get = |n: &str| report.stealing.iter().find(|r| r.name == n).unwrap();
        assert_eq!(get("narrow_auto").stolen_waves, get("narrow_auto").waves);
        assert_eq!(get("narrow_rowsplit").stolen_waves, 0);
        assert!(get("narrow_auto").attainment > get("narrow_rowsplit").attainment);
        assert!(get("wide_auto").attainment >= get("wide_rowsplit").attainment);
        assert!(
            get("wide_auto").p99_ms <= get("wide_rowsplit").p99_ms,
            "Auto's per-wave choice must not regress the saturated p99"
        );

        // The artifact meets its contract and carries every row.
        let json = artifact::render(&SCHEMA, &report).unwrap();
        assert_eq!(artifact::validate(&json), Ok(SCHEMA.kind));
        let doc = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(
            artifact::field(&doc, "schema"),
            Some(&Value::Str(SCHEMA.tag.into()))
        );
        assert_eq!(artifact::rows(&doc, "scaling").len(), report.scaling.len());
        assert_eq!(artifact::rows(&doc, "stealing").len(), 4);
        assert!(matches!(
            artifact::field(&doc, "formats"),
            Some(Value::Object(_))
        ));
    }
}
