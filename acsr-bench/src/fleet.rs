//! `fleet`: 8 simulated Tesla K10 devices on NVLink-class links, every
//! shard choosing its own format with the adaptive selector (horizon
//! 1000), over the ENR analog (small: exchange-bound) and the LJ2 analog
//! (large: compute-bound).
//!
//! Set-up is dominated by per-shard selection — including the BCCOO and
//! TCOO tuning sweeps — and partitioning; the timed run by fleet SpMVs
//! and their halo scheduling. This is the only workload where pipeline
//! selection and multigpu carry the load. The op is one `Fleet::spmv`.

use crate::bench::{median, percentile, Ctx, Rep};
use acsr::AcsrConfig;
use gpu_sim::{presets, Device};
use graphgen::MatrixSpec;
use multi_gpu::{extract_rows, Fleet, FleetConfig, FleetReport, ShardFormat};
use sparse_formats::CsrMatrix;
use spmv_pipeline::{AcsrPlanner, AdaptiveSelector, FormatRegistry, PlanBudget};

const MATRICES: [&str; 2] = ["ENR", "LJ2"];
const SCALE: usize = 1024;
const QUICK_SCALE: usize = 4096;
const DEVICES: usize = 8;
/// SpMV applications each shard's plan amortizes over.
const HORIZON: u64 = 1000;
/// `Fleet::spmv` calls per matrix in one repetition.
const SPMV_PER_REP: usize = 20;
const QUICK_SPMV_PER_REP: usize = 2;

/// Per-layer metrics of layers this workload never calls (reported 0).
pub const BYPASSED: &[&str] = &[
    "serve.",
    "stream.",
    "apps.iterations",
    "pipeline.plan_cache_hit_ratio",
];

struct Input {
    abbrev: &'static str,
    m: CsrMatrix<f64>,
    fleet: Fleet<f64>,
    /// Host seconds `Fleet::new` took.
    build_s: f64,
    x: Vec<f64>,
    /// `CsrMatrix::spmv_into` of `x`: the reference every `y` must match.
    want: Vec<f64>,
}

/// Element-wise relative agreement: `|a - b| <= tol * |b|` everywhere.
fn close_elementwise(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol * y.abs())
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        format: ShardFormat::Adaptive { horizon: HORIZON },
        ..FleetConfig::nvlink(DEVICES)
    }
}

/// Time `AdaptiveSelector::select` on each of the fleet's shards, as
/// `Fleet::new` runs it, to attribute build time to selection. Records
/// the selection host time, candidates evaluated and the winners'
/// modeled preprocessing, and checks each winner matches the fleet's.
fn retime_selection(cx: &mut Ctx, inputs: &[Input]) {
    let (mut select_s, mut candidates, mut preprocess_s) = (0.0f64, 0usize, 0.0f64);
    let mut reg = FormatRegistry::<f64>::with_all();
    reg.register(Box::new(AcsrPlanner::with_config(
        AcsrConfig::static_long_tail(),
    )));
    let dev = Device::new(presets::tesla_k10_single());
    let budget = PlanBudget::for_device(dev.config()).with_iterations(HORIZON);
    for inp in inputs {
        for (d, shard) in inp.fleet.partition().shards.iter().enumerate() {
            let rows = shard.compute_rows();
            if rows.is_empty() {
                continue;
            }
            let (sub, _) = cx.host.time("multigpu", "extract_rows", d as u64, || {
                extract_rows(&inp.m, &rows)
            });
            let (sel, s) = cx.host.time("pipeline", "select", d as u64, || {
                AdaptiveSelector.select(&reg, &dev, &sub, &budget)
            });
            select_s += s;
            candidates += sel.candidates.len();
            preprocess_s += sel
                .candidates
                .iter()
                .find(|c| c.format == sel.winner)
                .map_or(0.0, |c| c.preprocess_s);
            let planned = &inp.fleet.formats()[d];
            cx.checks.check(sel.winner == *planned, || {
                format!(
                    "{} shard {d}: re-selection chose {} but the fleet planned {planned}",
                    inp.abbrev, sel.winner
                )
            });
        }
    }
    cx.host_metric("pipeline.select_host_s", "s", select_s);
    cx.model_metric("pipeline.candidates", "count", candidates as f64);
    cx.model_metric("pipeline.preprocess_model_s", "s", preprocess_s);
}

/// One repetition: `per_rep` checked `Fleet::spmv` calls per matrix.
/// Appends each call's host milliseconds to `spmv_ms` and keeps the
/// first report per matrix in `first`.
fn rep(
    cx: &mut Ctx,
    inputs: &[Input],
    per_rep: usize,
    id: u64,
    spmv_ms: &mut Vec<f64>,
    first: &mut Vec<FleetReport>,
) -> Rep {
    let mut busy_s = 0.0;
    for (i, inp) in inputs.iter().enumerate() {
        let mut y = vec![0.0; inp.m.rows()];
        for _ in 0..per_rep {
            let (report, s) = cx
                .host
                .time("multigpu", "spmv", id, || inp.fleet.spmv(&inp.x, &mut y));
            spmv_ms.push(s * 1e3);
            busy_s += s;
            cx.checks
                .check(close_elementwise(&y, &inp.want, 1e-12), || {
                    let worst = y
                        .iter()
                        .zip(&inp.want)
                        .map(|(a, b)| (a - b).abs() / b.abs())
                        .fold(0.0, f64::max);
                    format!("fleet {} spmv: worst relative error {worst:e}", inp.abbrev)
                });
            if first.len() == i {
                first.push(report);
            }
        }
    }
    Rep {
        ops: (inputs.len() * per_rep) as f64,
        busy_s,
    }
}

pub fn run(cx: &mut Ctx) -> Result<(), String> {
    let (scale, spmv_per_rep) = if cx.quick {
        (QUICK_SCALE, QUICK_SPMV_PER_REP)
    } else {
        (SCALE, SPMV_PER_REP)
    };
    let seed = cx.seed;
    let mut inputs = cx.setup(|host| {
        Ok(MATRICES
            .iter()
            .map(|&abbrev| {
                let spec = MatrixSpec::by_abbrev(abbrev).expect("Table I abbreviation");
                let (m, _) = host.time("graphgen", "generate", 0, || {
                    spec.generate::<f64>(scale, seed).csr
                });
                let (fleet, build_s) = host.time("multigpu", "fleet_new", 0, || {
                    Fleet::new(&m, &presets::tesla_k10_single(), &fleet_config())
                });
                let x: Vec<f64> = (0..m.cols()).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
                Input {
                    abbrev,
                    m,
                    fleet,
                    build_s,
                    x,
                    want: Vec::new(),
                }
            })
            .collect::<Vec<_>>())
    })?;
    for inp in &mut inputs {
        let mut want = vec![0.0; inp.m.rows()];
        cx.host.time("check", "spmv_into", 0, || {
            inp.m.spmv_into(&inp.x, &mut want)
        });
        inp.want = want;
    }

    let mut spmv_ms: Vec<f64> = Vec::new();
    let mut first: Vec<FleetReport> = Vec::new();
    let reps =
        cx.timed_reps(|cx, id| Ok(rep(cx, &inputs, spmv_per_rep, id, &mut spmv_ms, &mut first)))?;
    let rep_s = cx.record_host_rate(&reps);

    let flops: f64 = inputs.iter().map(|inp| 2.0 * inp.m.nnz() as f64).sum();
    let mut seconds: Vec<f64> = first.iter().map(FleetReport::seconds).collect();
    let total_s: f64 = seconds.iter().sum();
    cx.model_metric("model_work_ms", "ms", total_s * 1e3);
    cx.model_metric("model_gflops", "GFLOP/s", flops / total_s / 1e9);
    cx.model_metric("model_p50_ms", "ms", percentile(&mut seconds, 0.50) * 1e3);
    cx.model_metric("model_p99_ms", "ms", percentile(&mut seconds, 0.99) * 1e3);
    let sum = |f: &dyn Fn(&FleetReport) -> f64| first.iter().map(f).sum::<f64>();
    cx.model_metric(
        "multigpu.compute_makespan_us",
        "us",
        sum(&|r| r.compute_s()) * 1e6,
    );
    cx.model_metric(
        "multigpu.exchange_tail_us",
        "us",
        sum(&|r| r.exchange_tail_s()) * 1e6,
    );
    cx.model_metric(
        "multigpu.halo_bytes",
        "bytes",
        sum(&|r| r.halo_bytes() as f64),
    );
    cx.model_metric(
        "multigpu.replicated_rows",
        "count",
        sum(&|r| r.replicated_rows as f64),
    );
    // Slowest shard over the mean shard compute time, averaged over the
    // matrices: 1.0 is a perfectly balanced fleet.
    let imbalance = sum(&|r| {
        let busy: Vec<f64> = r.compute.iter().copied().filter(|&s| s > 0.0).collect();
        r.compute_s() * busy.len() as f64 / busy.iter().sum::<f64>()
    }) / first.len() as f64;
    cx.model_metric("multigpu.shard_imbalance", "ratio", imbalance);
    cx.host_metric(
        "multigpu.build_host_s",
        "s",
        inputs.iter().map(|inp| inp.build_s).sum(),
    );
    cx.host_metric("multigpu.spmv_host_ms_p50", "ms", median(&mut spmv_ms));

    if cx.trace {
        retime_selection(cx, &inputs);
        let ledgers: Vec<_> = inputs
            .iter_mut()
            .map(|inp| inp.fleet.enable_tracing())
            .collect();
        let traced = rep(
            cx,
            &inputs,
            spmv_per_rep,
            reps.len() as u64,
            &mut Vec::new(),
            &mut Vec::new(),
        );
        crate::device::record(
            cx,
            &ledgers,
            &[presets::tesla_k10_single()],
            rep_s,
            traced.busy_s,
        );
    }
    Ok(())
}
