//! `repro slo` — the open-loop SLO-attainment sweep.
//!
//! The serving experiment (`repro serve`) drains a saturated backlog
//! and reports throughput; this sweep asks the production question
//! instead: **at what offered load does the engine stop meeting its
//! latency target?** The answer is an attainment curve — offered
//! queries/sec vs the fraction of *offered* queries (sheds count as
//! misses) completing within the p99 target — plus the same accounting
//! for the adversarial arrival shapes a front-end must survive
//! (diurnal rate curves, bursty clumps, hot-key streams, and a
//! two-tenant priority mix).
//!
//! The sweep self-calibrates: a saturated closed-loop run measures the
//! engine's capacity, a light open-loop run (25% of capacity) measures
//! the unloaded p99, and the target is set to twice that — so the curve
//! starts attained and degrades past saturation by construction, on any
//! device model. Every number is *modeled* (virtual clock, seeded
//! streams), so the artifact is bit-reproducible and
//! `baselines/BENCH_slo_ci.json` gates it exactly in CI.
//!
//! Results go to `results/BENCH_slo.json` under [`SCHEMA`], which the
//! write and `repro check-artifacts` both enforce; `repro bench-diff`
//! gates the numbers.

use crate::artifact::Schema;
use acsr_serve::{
    assign_tenants, generate_queries, ArrivalPattern, ServeConfig, ServeEngine, ServeReport,
    SloPolicy, TenantSpec, TenantTable,
};
use graphgen::{generate_power_law, PowerLawConfig};
use serde::Serialize;

/// Fields of every curve and trace row.
const POINT_FIELDS: &[&str] = &[
    "name",
    "offered_qps",
    "attainment",
    "goodput_qps",
    "throughput_qps",
    "p99_ms",
];

/// The `acsr-slo-v1` contract: at least 4 offered-load points on the
/// curve, and at least one arrival-shape trace.
pub const SCHEMA: Schema = Schema {
    tag: "acsr-slo-v1",
    kind: "slo report",
    fields: &[
        "capacity_qps",
        "p99_target_ms",
        "max_batch",
        "queue_capacity",
    ],
    rows: &[("curve", 4, POINT_FIELDS), ("traces", 1, POINT_FIELDS)],
    invariants: |_| Ok(()),
};

/// Offered load relative to measured capacity, one curve point each.
pub const LOAD_POINTS: [f64; 6] = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0];

/// SpMM batch cap of the serving engine under test.
const MAX_BATCH: usize = 16;

/// Submission-queue capacity of the engine under test.
const QUEUE_CAPACITY: usize = 32;

/// One measured serving run (a curve point or an arrival-shape trace).
#[derive(Serialize)]
pub struct SloPoint {
    /// Stable row key (`load_0.25x`, `diurnal`, ...; `bench-diff` keys
    /// array rows by this).
    pub name: String,
    /// Nominal offered arrival rate, queries/sec.
    pub offered_qps: f64,
    /// Measured mean rate of the generated stream (`n / last arrival`).
    pub empirical_qps: f64,
    pub queries: usize,
    pub completed: usize,
    pub capacity_shed: usize,
    pub deadline_shed: usize,
    /// Fraction of offered queries completing within the p99 target.
    pub attainment: f64,
    /// Target-meeting completions per virtual second.
    pub goodput_qps: f64,
    pub throughput_qps: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub mean_wave_width: f64,
}

/// Full report of one sweep run.
#[derive(Serialize)]
pub struct Report {
    pub rows: usize,
    pub nnz: usize,
    pub max_batch: usize,
    pub queue_capacity: usize,
    /// Saturated closed-loop drain rate, queries/sec.
    pub capacity_qps: f64,
    /// The latency target the attainment column is scored against
    /// (2× the unloaded p99), milliseconds.
    pub p99_target_ms: f64,
    /// The attainment curve over [`LOAD_POINTS`].
    pub curve: Vec<SloPoint>,
    /// The same accounting for adversarial arrival shapes at 80% of
    /// capacity.
    pub traces: Vec<SloPoint>,
}

fn point(
    name: String,
    offered_qps: f64,
    queries: &[acsr_serve::Query],
    report: &ServeReport<f64>,
    target_s: f64,
) -> SloPoint {
    let lat = report.latency_stats();
    let last = queries.last().map_or(0.0, |q| q.arrival_s);
    SloPoint {
        name,
        offered_qps,
        empirical_qps: if last > 0.0 {
            queries.len() as f64 / last
        } else {
            0.0
        },
        queries: queries.len(),
        completed: report.outcomes.len(),
        capacity_shed: report.rejected.len(),
        deadline_shed: report.deadline_shed.len(),
        attainment: report.attainment(target_s),
        goodput_qps: report.goodput_qps(target_s),
        throughput_qps: report.throughput_qps(),
        p50_ms: lat.p50_s * 1e3,
        p99_ms: lat.p99_s * 1e3,
        mean_wave_width: report.mean_wave_width(),
    }
}

/// Run the full sweep. `quick` shrinks the graph and the per-point
/// stream for CI smoke runs — same schema, same self-calibrated shape,
/// still fully deterministic.
pub fn run(quick: bool) -> Report {
    let (n_rows, n_queries) = if quick { (400, 96) } else { (1200, 192) };
    let g = generate_power_law(&PowerLawConfig {
        rows: n_rows,
        cols: n_rows,
        mean_degree: 8.0,
        max_degree: n_rows / 4,
        pinned_max_rows: 2,
        col_skew: 0.4,
        seed: 7,
        ..Default::default()
    });
    let engine = ServeEngine::<f64>::new(
        &g,
        ServeConfig {
            max_batch: MAX_BATCH,
            queue_capacity: QUEUE_CAPACITY,
            ..ServeConfig::default()
        },
    );

    // 1. capacity: how fast the engine drains a saturated backlog
    //    (closed loop, full-width waves, nothing shed)
    let sat_queries = generate_queries(
        ArrivalPattern::Poisson { rate_qps: 1e9 },
        n_queries,
        n_rows,
        0.85,
        2,
    );
    let capacity_qps = engine.serve(&sat_queries).throughput_qps();

    // 2. calibrate the reporting target: the unloaded (25% of capacity,
    //    no shedding) p99, doubled — attained at light load, violated
    //    past saturation, whatever the device model
    let calib_queries = generate_queries(
        ArrivalPattern::Poisson {
            rate_qps: 0.25 * capacity_qps,
        },
        n_queries,
        n_rows,
        0.85,
        3,
    );
    let calib = engine.serve_slo(
        &calib_queries,
        &SloPolicy::open_loop(f64::INFINITY, MAX_BATCH, QUEUE_CAPACITY),
    );
    let target_s = 2.0 * calib.latency_stats().p99_s;
    let policy = SloPolicy::open_loop(target_s, MAX_BATCH, QUEUE_CAPACITY);

    // 3. the attainment curve. One shared rng seed: the exponential
    //    gaps reuse the same uniform draws at every rate, so each point
    //    serves the same stream shape compressed in time and the curve
    //    is monotone in load, not in sampling noise.
    let curve = LOAD_POINTS
        .iter()
        .map(|&rel| {
            let rate = rel * capacity_qps;
            let queries = generate_queries(
                ArrivalPattern::Poisson { rate_qps: rate },
                n_queries,
                n_rows,
                0.85,
                5,
            );
            let report = engine.serve_slo(&queries, &policy);
            point(format!("load_{rel:.2}x"), rate, &queries, &report, target_s)
        })
        .collect();

    // 4. adversarial arrival shapes at a fixed 80%-of-capacity mean
    //    rate: same mean load as a comfortably-attained Poisson point,
    //    so any attainment loss is the *shape's* doing
    let shape_rate = 0.8 * capacity_qps;
    let mut traces = Vec::new();
    for (name, pattern, seed) in [
        (
            "diurnal",
            ArrivalPattern::Diurnal {
                base_qps: 0.2 * capacity_qps,
                peak_qps: 1.4 * capacity_qps,
                // two full day/night cycles across the stream
                period_s: 0.5 * n_queries as f64 / shape_rate,
            },
            11,
        ),
        (
            "bursty",
            ArrivalPattern::Bursty {
                rate_qps: shape_rate,
                burst: 8,
            },
            13,
        ),
        (
            "hot_key",
            ArrivalPattern::HotKey {
                rate_qps: shape_rate,
                hot_fraction: 0.8,
                hot_keys: 3,
            },
            17,
        ),
    ] {
        let queries = generate_queries(pattern, n_queries, n_rows, 0.85, seed);
        let report = engine.serve_slo(&queries, &policy);
        traces.push(point(
            name.to_string(),
            pattern.mean_qps(),
            &queries,
            &report,
            target_s,
        ));
    }
    // the two-tenant mix: 3 parts interactive traffic (tight budget,
    // better tier) to 1 part bulk (relaxed budget, soaks spare slots)
    let mut mix_queries = generate_queries(
        ArrivalPattern::Poisson {
            rate_qps: shape_rate,
        },
        n_queries,
        n_rows,
        0.85,
        19,
    );
    assign_tenants(&mut mix_queries, &[(0, 3.0), (1, 1.0)], 23);
    let mix_policy = SloPolicy {
        tenants: TenantTable::new(vec![
            TenantSpec {
                tenant: 0,
                priority: 0,
                share: 3,
                slo_s: target_s,
            },
            TenantSpec {
                tenant: 1,
                priority: 1,
                share: 1,
                slo_s: 4.0 * target_s,
            },
        ]),
        ..policy.clone()
    };
    let mix_report = engine.serve_slo(&mix_queries, &mix_policy);
    traces.push(point(
        "tenant_mix".to_string(),
        shape_rate,
        &mix_queries,
        &mix_report,
        target_s,
    ));

    Report {
        rows: g.rows(),
        nnz: g.nnz(),
        max_batch: MAX_BATCH,
        queue_capacity: QUEUE_CAPACITY,
        capacity_qps,
        p99_target_ms: target_s * 1e3,
        curve,
        traces,
    }
}

/// Human-readable tables.
pub fn render(report: &Report) -> String {
    let table = |points: &[SloPoint]| {
        let mut t = crate::Table::new(&[
            "point",
            "offered q/s",
            "att",
            "goodput",
            "done",
            "cap-shed",
            "ddl-shed",
            "p50 ms",
            "p99 ms",
            "width",
        ]);
        for p in points {
            t.row(vec![
                p.name.clone(),
                format!("{:.0}", p.offered_qps),
                format!("{:.3}", p.attainment),
                format!("{:.0}", p.goodput_qps),
                p.completed.to_string(),
                p.capacity_shed.to_string(),
                p.deadline_shed.to_string(),
                format!("{:.3}", p.p50_ms),
                format!("{:.3}", p.p99_ms),
                format!("{:.1}", p.mean_wave_width),
            ]);
        }
        t.render()
    };
    format!(
        "SLO attainment ({} rows, {} nnz, capacity {:.0} q/s, p99 target {:.3} ms)\n\
         {}\narrival shapes at 80% of capacity:\n{}",
        report.rows,
        report.nnz,
        report.capacity_qps,
        report.p99_target_ms,
        table(&report.curve),
        table(&report.traces),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact;
    use serde::Value;

    /// The quick sweep is what CI smokes and gates; pin its acceptance
    /// shape here so a drive-by change to the sweep can't silently
    /// produce a degenerate curve.
    #[test]
    fn quick_sweep_produces_a_degrading_curve() {
        let report = run(true);
        assert!(report.capacity_qps > 0.0);
        assert!(report.p99_target_ms > 0.0);
        assert!(report.curve.len() >= 4, "need at least 4 load points");
        // light load attains, heavy load does not, and attainment
        // degrades monotonically past saturation
        let att: Vec<f64> = report.curve.iter().map(|p| p.attainment).collect();
        assert!(att[0] > 0.9, "25% load must mostly attain, got {}", att[0]);
        assert!(
            att[att.len() - 1] < att[0],
            "2x overload must degrade attainment: {att:?}"
        );
        for pair in report.curve.windows(2) {
            if pair[0].offered_qps >= report.capacity_qps {
                assert!(
                    pair[1].attainment <= pair[0].attainment,
                    "attainment must degrade monotonically past saturation: {att:?}"
                );
            }
        }
        // overload must actually shed rather than queue without bound
        let overloaded = report.curve.last().unwrap();
        assert!(overloaded.capacity_shed + overloaded.deadline_shed > 0);
        // every emitted number is finite (the artifact must never carry
        // a NaN), and goodput never exceeds throughput
        for p in report.curve.iter().chain(&report.traces) {
            for v in [
                p.offered_qps,
                p.empirical_qps,
                p.attainment,
                p.goodput_qps,
                p.throughput_qps,
                p.p50_ms,
                p.p99_ms,
                p.mean_wave_width,
            ] {
                assert!(v.is_finite(), "{}: non-finite metric {v}", p.name);
            }
            assert!(p.goodput_qps <= p.throughput_qps + 1e-9, "{}", p.name);
        }
        // the loadgen rate contract, measured end to end: the bursty
        // trace's empirical mean rate is within 2% of nominal
        let bursty = report.traces.iter().find(|p| p.name == "bursty").unwrap();
        assert!(
            (bursty.empirical_qps - bursty.offered_qps).abs() / bursty.offered_qps < 0.02,
            "bursty empirical {} vs nominal {}",
            bursty.empirical_qps,
            bursty.offered_qps
        );
        // the artifact meets its contract and carries every row
        let json = artifact::render(&SCHEMA, &report).unwrap();
        assert_eq!(artifact::validate(&json), Ok(SCHEMA.kind));
        let doc = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(
            artifact::field(&doc, "schema"),
            Some(&Value::Str(SCHEMA.tag.into()))
        );
        assert_eq!(artifact::rows(&doc, "curve").len(), LOAD_POINTS.len());
        assert_eq!(artifact::rows(&doc, "traces").len(), 4);
    }
}
