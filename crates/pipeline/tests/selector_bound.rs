//! The selector's incumbent bound is exact: stopping an auto-tuning
//! sweep once its charge exceeds the best total so far never changes
//! the decision.
//!
//! For power-law and uniform matrices, at horizons {1, 30, 100, 1000,
//! 10⁶} and probe scales {1, 64}, every candidate the selector evaluated
//! is recomputed in full: planned with an unbounded budget (the whole
//! sweep) and probed exactly as the selector probes. Then
//! * the winner is the argmin of the full totals, ties broken by name;
//! * every candidate the selector did not prune reports exactly the full
//!   computation, bit for bit;
//! * every pruned candidate's full total is strictly above the winner's.
//!
//! Every case must prune at least one sweep, and one case must have an
//! auto-tuned winner, so both directions of the bound are exercised.
//! With every format registered, HYB or COO is at least as fast per
//! SpMV as TCOO and BCCOO on these small inputs, so that case registers
//! only ACSR and the two tuned formats, on a 1000-row power-law matrix:
//! TCOO's column tiles then win at n = 1000 and 10⁶ at probe scale 1,
//! while BCCOO's sweep is pruned at n = 100 and 1000 at both scales.

use gpu_sim::{presets, Device, RunReport};
use graphgen::{generate_power_law, generate_regular, generate_uniform, PowerLawConfig};
use sparse_formats::{CsrMatrix, PreprocessCost};
use spmv_kernels::GpuSpmv;
use spmv_pipeline::selector::projected_spmv_seconds;
use spmv_pipeline::{
    break_even_iterations, AcsrPlanner, AdaptiveSelector, BccooPlanner, CandidateReport,
    FormatRegistry, PlanBudget, TcooPlanner,
};

const HORIZONS: [u64; 5] = [1, 30, 100, 1000, 1_000_000];
const SCALES: [usize; 2] = [1, 64];
/// `bccoo_sample_rows` for full-size BCCOO trials.
const FULL_SIZE: usize = usize::MAX;

fn power_law(rows: usize, mean_degree: f64, seed: u64) -> CsrMatrix<f64> {
    generate_power_law(&PowerLawConfig {
        rows,
        cols: rows,
        mean_degree,
        max_degree: (rows / 3).max(8),
        pinned_max_rows: 2,
        col_skew: 0.5,
        seed,
        ..Default::default()
    })
}

/// ACSR plus the two auto-tuned formats.
fn tuned_registry() -> FormatRegistry<f64> {
    let mut reg = FormatRegistry::empty();
    reg.register(Box::new(AcsrPlanner::default()));
    reg.register(Box::new(BccooPlanner));
    reg.register(Box::new(TcooPlanner));
    reg
}

/// A candidate planned without a bound and probed once: everything the
/// selector's report derives from, before projection.
struct Probed {
    cost: PreprocessCost,
    upload_bytes: u64,
    device_bytes: u64,
    probe: RunReport,
}

/// A probed plan, or why planning failed.
type Planned = Result<Probed, String>;

/// `budget` is the one the selector was given, which never carries an
/// incumbent. Planning reads neither its horizon nor its probe scale, so
/// one plan serves every (horizon, scale) pair.
fn plan_in_full(
    reg: &FormatRegistry<f64>,
    dev: &Device,
    m: &CsrMatrix<f64>,
    format: &str,
    budget: &PlanBudget,
) -> Planned {
    let plan = reg
        .plan(format, dev, m, budget)
        .map_err(|e| e.to_string())?;
    let x: Vec<f64> = (0..m.cols()).map(|i| 1.0 + (i % 7) as f64 * 0.1).collect();
    let xd = dev.alloc(x);
    let yd = dev.alloc_zeroed::<f64>(m.rows());
    Ok(Probed {
        cost: *plan.preprocess_cost(),
        upload_bytes: plan.upload_bytes(),
        device_bytes: plan.device_bytes(),
        probe: plan.spmv(dev, &xd, &yd),
    })
}

/// The selector's report for `planned` under `budget` on `dev`,
/// recomputed with the selector's arithmetic (break-even left unset).
fn full_report(
    dev: &Device,
    format: &str,
    planned: &Planned,
    budget: &PlanBudget,
) -> CandidateReport {
    let scale = budget.probe_scale.max(1);
    let infeasible = |reason: String| CandidateReport {
        format: format.to_string(),
        feasible: false,
        reason: Some(reason),
        pruned: false,
        preprocess_s: f64::INFINITY,
        upload_s: f64::INFINITY,
        spmv_s: f64::INFINITY,
        total_s: f64::INFINITY,
        device_bytes: 0,
        break_even_vs_winner: None,
    };
    match planned {
        Err(reason) => infeasible(reason.clone()),
        Ok(Probed {
            cost,
            upload_bytes,
            device_bytes,
            probe,
        }) => {
            let full_bytes = device_bytes.saturating_mul(scale as u64);
            if full_bytes > budget.max_device_bytes {
                return infeasible(format!(
                    "{} device bytes at probe scale {scale} exceed budget {}",
                    full_bytes, budget.max_device_bytes
                ));
            }
            let spmv_s = projected_spmv_seconds(probe, scale);
            let preprocess_s = cost.scaled(scale as u64).modeled_host_seconds(&budget.host);
            let upload_s = dev.htod_seconds(upload_bytes.saturating_mul(scale as u64));
            CandidateReport {
                format: format.to_string(),
                feasible: true,
                reason: None,
                pruned: false,
                preprocess_s,
                upload_s,
                spmv_s,
                total_s: preprocess_s + upload_s + budget.expected_iterations as f64 * spmv_s,
                device_bytes: *device_bytes,
                break_even_vs_winner: None,
            }
        }
    }
}

/// Every serialized field, floats as bits.
fn fields(c: &CandidateReport) -> impl PartialEq + std::fmt::Debug {
    (
        c.format.clone(),
        c.feasible,
        c.reason.clone(),
        [c.preprocess_s, c.upload_s, c.spmv_s, c.total_s].map(f64::to_bits),
        c.device_bytes,
        c.break_even_vs_winner.map(f64::to_bits),
    )
}

/// The terms a pruned candidate's reason names: the charge it stopped
/// at, and the incumbent's format and total. Seconds print in their
/// shortest round-trip form, so they parse back bit for bit.
fn pruning_terms(reason: &str) -> (f64, &str, f64) {
    let after = |key: &str| reason.split_once(key).expect(key).1;
    let (lower, _) = after("charged preprocessing ").split_once(" s").unwrap();
    let (incumbent, total) = after("already exceeds ").split_once("'s total ").unwrap();
    let total = total.strip_suffix(" s").unwrap();
    (lower.parse().unwrap(), incumbent, total.parse().unwrap())
}

/// What one case exercised: pruned candidates and auto-tuned winners,
/// each as "horizon h, scale s".
#[derive(Default)]
struct Seen {
    pruned: Vec<String>,
    tuned_winners: Vec<String>,
}

/// Select over `reg` at every horizon and probe scale, and check each
/// selection against the full computation of its candidates. BCCOO
/// tunes on the first `bccoo_sample_rows` rows.
fn check_against_full_sweeps(
    reg: &FormatRegistry<f64>,
    m: &CsrMatrix<f64>,
    bccoo_sample_rows: usize,
) -> Seen {
    let dev = Device::new(presets::gtx_titan());
    let mut seen = Seen::default();
    let mut planned: Vec<(String, Planned)> = Vec::new();
    for scale in SCALES {
        for horizon in HORIZONS {
            let mut budget = PlanBudget::for_device(dev.config())
                .with_iterations(horizon)
                .with_probe_scale(scale);
            budget.bccoo_sample_rows = bccoo_sample_rows;
            let sel = AdaptiveSelector.select(reg, &dev, m, &budget);
            let case = format!("horizon {horizon}, scale {scale}");
            let shortlist = AdaptiveSelector::shortlist(&m.row_stats(), horizon);
            for name in shortlist.into_iter().filter(|n| reg.get(n).is_some()) {
                assert!(
                    sel.candidates.iter().any(|c| c.format == name),
                    "{case}: shortlisted {name} was not evaluated"
                );
            }

            let full: Vec<CandidateReport> = sel
                .candidates
                .iter()
                .map(|c| {
                    if !planned.iter().any(|(f, _)| *f == c.format) {
                        planned.push((
                            c.format.clone(),
                            plan_in_full(reg, &dev, m, &c.format, &budget),
                        ));
                    }
                    let (_, p) = planned.iter().find(|(f, _)| *f == c.format).unwrap();
                    full_report(&dev, &c.format, p, &budget)
                })
                .collect();
            let argmin = full
                .iter()
                .filter(|c| c.feasible)
                .min_by(|a, b| {
                    a.total_s
                        .total_cmp(&b.total_s)
                        .then(a.format.cmp(&b.format))
                })
                .expect("a feasible candidate");
            assert_eq!(sel.winner, argmin.format, "{case}: {:#?}", sel.candidates);
            assert_eq!(sel.plan.format(), sel.winner, "{case}");

            for (c, f) in sel.candidates.iter().zip(&full) {
                if c.pruned {
                    assert!(!c.feasible, "{case}: {c:#?}");
                    assert!(
                        ["BCCOO", "TCOO"].contains(&c.format.as_str()),
                        "{case}: only tuning sweeps are pruned: {c:#?}"
                    );
                    let reason = c.reason.as_deref().unwrap_or_default();
                    assert!(
                        reason.starts_with(&format!("{} pruned after ", c.format)),
                        "{case}: {reason}"
                    );
                    assert!(
                        f.total_s > argmin.total_s,
                        "{case}: pruned {} would total {} <= winner {} at {}",
                        c.format,
                        f.total_s,
                        argmin.format,
                        argmin.total_s
                    );
                    // The charge it stopped at is a lower bound on its own
                    // preprocessing, strictly above a real candidate's total.
                    let (lower, incumbent, total) = pruning_terms(reason);
                    assert!(lower <= f.preprocess_s, "{case}: {reason}");
                    assert!(lower > total, "{case}: {reason}");
                    let inc = sel.candidates.iter().find(|c| c.format == incumbent);
                    assert!(
                        inc.is_some_and(|i| i.feasible && i.total_s.to_bits() == total.to_bits()),
                        "{case}: {reason} names no feasible candidate with that total"
                    );
                    seen.pruned.push(format!("{case}: {}", c.format));
                    continue;
                }
                let mut want = f.clone();
                if want.feasible {
                    want.break_even_vs_winner = if want.format == argmin.format {
                        Some(0.0)
                    } else {
                        break_even_iterations(
                            want.preprocess_s + want.upload_s,
                            want.spmv_s,
                            argmin.preprocess_s + argmin.upload_s,
                            argmin.spmv_s,
                        )
                    };
                }
                assert_eq!(fields(c), fields(&want), "{case}: {}", c.format);
            }
            if ["BCCOO", "TCOO"].contains(&sel.winner.as_str()) {
                seen.tuned_winners.push(format!("{case}: {}", sel.winner));
            }
        }
    }
    assert!(
        !seen.pruned.is_empty(),
        "no sweep was pruned: the bound went untested"
    );
    seen
}

#[test]
fn power_law_dense_rows_select_as_with_full_sweeps() {
    // A 100-row tuning sample: the bound prices the extrapolated charge.
    check_against_full_sweeps(&FormatRegistry::with_all(), &power_law(400, 8.0, 31), 100);
}

#[test]
fn power_law_sparse_rows_select_as_with_full_sweeps() {
    check_against_full_sweeps(
        &FormatRegistry::with_all(),
        &power_law(300, 3.0, 32),
        FULL_SIZE,
    );
}

#[test]
fn regular_rows_select_as_with_full_sweeps() {
    check_against_full_sweeps(
        &FormatRegistry::with_all(),
        &generate_regular(300, 300, 6, 33),
        FULL_SIZE,
    );
}

#[test]
fn uniform_sparse_rows_select_as_with_full_sweeps() {
    check_against_full_sweeps(
        &FormatRegistry::with_all(),
        &generate_uniform(300, 300, 2.0, 34),
        FULL_SIZE,
    );
}

#[test]
fn a_tuned_winner_is_never_pruned() {
    let seen = check_against_full_sweeps(&tuned_registry(), &power_law(1000, 8.0, 31), FULL_SIZE);
    assert!(
        !seen.tuned_winners.is_empty(),
        "no auto-tuned format won, so no winner's sweep was checked: pruned {:?}",
        seen.pruned
    );
}
