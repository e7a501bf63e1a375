//! The adaptive format selector — the paper's Fig. 4 break-even
//! analysis promoted to a runtime decision.
//!
//! Given an operator and an amortization horizon (the expected number of
//! SpMV applications), the selector:
//!
//! 1. **analyzes** the CSR structure ([`RowLengthStats`]) and shortlists
//!    the formats that are structurally plausible — there is no point
//!    auto-tuning BCCOO for a 10-iteration run, or padding ELL for a
//!    power-law matrix;
//! 2. **plans** each shortlisted format through the registry (charging
//!    real conversion/tuning costs), the auto-tuned formats last: each
//!    is told the best total so far, so its tuning sweep stops as soon
//!    as it can no longer win;
//! 3. **probes** one modeled SpMV per feasible plan on the target
//!    device;
//! 4. ranks candidates by modeled total time
//!    `preprocess + upload + horizon × spmv` and returns the winner's
//!    plan plus the full ranked report (including per-candidate
//!    break-even iterations against the winner, Eq. 4).
//!
//! Every input to the ranking is deterministic — the structural stats,
//! the modeled host costs, and the simulator's modeled kernel times are
//! all independent of the host thread count — so selection is stable
//! across `ACSR_SIM_THREADS` widths (pinned by a test).

use crate::{break_even_iterations, FormatRegistry, PlanBudget, PreprocessClass, SpmvPlan};
use gpu_sim::{Device, RunReport};
use serde::{Deserialize, Serialize};
use sparse_formats::{CsrMatrix, RowLengthStats, Scalar, SparseError};
use spmv_kernels::tuning::Incumbent;
use spmv_kernels::GpuSpmv;

/// Horizon above which auto-tuned formats (BCCOO, TCOO) are worth
/// *considering*: below this not even the paper's best case amortizes a
/// tuning sweep (Fig. 4 shows break-evens in the hundreds to tens of
/// thousands of iterations for the tuned comparators).
const AUTOTUNE_HORIZON: u64 = 100;

/// One probed SpMV projected to `scale`-times-larger size, the one
/// projection the selector and the bench suite's format comparison
/// (Table III, Fig. 4, Table IV) share: throughput-bound components
/// (compute issue, DRAM traffic) grow linearly with matrix size, while
/// per-warp critical paths (set by the longest row, which real degree
/// distributions clamp) and launch overheads stay fixed.
pub fn projected_spmv_seconds(r: &RunReport, scale: usize) -> f64 {
    let s = scale as f64;
    let work = (r.breakdown.compute_s * s)
        .max(r.breakdown.memory_s * s)
        .max(r.breakdown.latency_s);
    r.breakdown.launch_s + r.breakdown.dynamic_launch_s + work
}

/// One candidate's modeled outcome.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CandidateReport {
    /// Registry name.
    pub format: String,
    /// Whether planning succeeded within the budget.
    pub feasible: bool,
    /// Why not, when `feasible` is false.
    pub reason: Option<String>,
    /// Its tuning sweep stopped early because it could no longer beat
    /// the best candidate so far (`feasible` is false, `reason` says
    /// why). Not serialized: `reason` carries it into the artifact.
    #[serde(skip)]
    pub pruned: bool,
    /// Modeled host preprocessing seconds (conversion + tuning).
    pub preprocess_s: f64,
    /// Modeled PCIe upload seconds for the plan's device footprint.
    pub upload_s: f64,
    /// Modeled seconds for one SpMV on the target device.
    pub spmv_s: f64,
    /// `preprocess_s + upload_s + horizon × spmv_s` — the ranking key.
    pub total_s: f64,
    /// Device bytes the plan occupies.
    pub device_bytes: u64,
    /// Eq. 4: iterations at which this candidate overtakes the winner
    /// (`None` = never; `Some(0)` ≈ ties or wins immediately). Filled
    /// in relative to the selected winner.
    pub break_even_vs_winner: Option<f64>,
}

/// The selector's decision: the winning plan plus the evidence.
pub struct Selection<T: Scalar> {
    /// The executable winning plan.
    pub plan: SpmvPlan<T>,
    /// Name of the winning format.
    pub winner: String,
    /// All evaluated candidates, ranked best-first (infeasible last).
    pub candidates: Vec<CandidateReport>,
    /// The structural analysis the shortlist was derived from.
    pub stats: RowLengthStats,
    /// The amortization horizon used for ranking.
    pub horizon: u64,
}

/// Cost-model-driven format selection over a [`FormatRegistry`].
#[derive(Default)]
pub struct AdaptiveSelector;

impl AdaptiveSelector {
    /// The structural shortlist: which formats are worth planning for
    /// this operator at this horizon. HYB and ACSR are always
    /// candidates; the CSR kernels only on low-skew structures (on
    /// power-law matrices their warp efficiency collapses — the paper's
    /// Fig. 5 shows 2–20× behind, and our probes concur — so planning
    /// them would waste an upload).
    pub fn shortlist(stats: &RowLengthStats, horizon: u64) -> Vec<&'static str> {
        let mut list = vec!["HYB", "ACSR"];
        let uniform = !stats.looks_power_law();
        if uniform {
            list.push("CSR-vector");
            if stats.max_row <= 4 * stats.mean.max(1.0) as usize {
                // Short, even rows: padding is cheap and thread/row
                // balanced.
                list.push("ELL");
                list.push("CSR-scalar");
            }
        }
        if stats.mean < 4.0 {
            // Very sparse rows: segmented COO avoids per-row launch waste.
            list.push("COO");
        }
        if stats.looks_power_law() {
            // Skewed rows: BRC's length-sorted chunks are competitive.
            list.push("BRC");
        }
        if horizon >= AUTOTUNE_HORIZON {
            // Only long runs can amortize a tuning sweep (Fig. 4).
            list.push("BCCOO");
            list.push("TCOO");
        }
        list
    }

    /// Analyze, plan, probe and rank; returns the winning plan and the
    /// full candidate report.
    ///
    /// Infeasible candidates (budget, capacity) are kept in the report
    /// with `feasible = false`, and so are auto-tuned candidates whose
    /// sweep was pruned. An auto-tuned format is planned against the
    /// best feasible total so far: its charged preprocessing only grows
    /// with each trial and is a lower bound on its own total, so once it
    /// is strictly above the incumbent the format cannot win and the
    /// sweep stops. The winner is the one the full sweeps would pick.
    /// Panics only if *no* registered candidate
    /// is feasible — CSR-vector plans whenever the operator itself fits,
    /// so this means the budget cannot hold the matrix at all.
    pub fn select<T: Scalar>(
        &self,
        reg: &FormatRegistry<T>,
        dev: &Device,
        m: &CsrMatrix<T>,
        budget: &PlanBudget,
    ) -> Selection<T> {
        let stats = m.row_stats();
        let horizon = budget.expected_iterations.max(1);
        let scale = budget.probe_scale.max(1);
        let x: Vec<T> = (0..m.cols())
            .map(|i| T::from_f64(1.0 + (i % 7) as f64 * 0.1))
            .collect();
        let xd = dev.alloc(x);

        let mut plans: Vec<(String, SpmvPlan<T>)> = Vec::new();
        let mut reports: Vec<CandidateReport> = Vec::new();
        let mut shortlist = Self::shortlist(&stats, horizon);
        // Last-resort fallback: raw CSR is representable whenever the
        // operator fits at all, so a winner always exists.
        if !shortlist.contains(&"CSR-vector") {
            shortlist.push("CSR-vector");
        }
        let fallback_only = stats.looks_power_law();
        // The best feasible candidate so far, ties broken by name as in
        // the ranking.
        let mut incumbent: Option<Incumbent> = None;
        for name in shortlist {
            let Some(planner) = reg.get(name) else {
                continue; // custom registries may carry fewer formats
            };
            // The fallback CSR entry only competes when nothing from the
            // structural shortlist planned successfully.
            if name == "CSR-vector" && fallback_only && !plans.is_empty() {
                break;
            }
            let mut infeasible = |reason: String, pruned: bool| {
                reports.push(CandidateReport {
                    format: name.to_string(),
                    feasible: false,
                    reason: Some(reason),
                    pruned,
                    preprocess_s: f64::INFINITY,
                    upload_s: f64::INFINITY,
                    spmv_s: f64::INFINITY,
                    total_s: f64::INFINITY,
                    device_bytes: 0,
                    break_even_vs_winner: None,
                });
            };
            // Only tuning sweeps are bounded; every other format keeps
            // its full report.
            let autotune = planner.class() == PreprocessClass::Autotune;
            let plan_budget = PlanBudget {
                incumbent: incumbent.filter(|_| autotune),
                ..budget.clone()
            };
            match planner.plan(dev, m, &plan_budget) {
                Ok(plan) => {
                    // Full-scale feasibility: a probe-scaled operator
                    // must still fit the byte budget (the ∅ cells).
                    let full_bytes = plan.device_bytes().saturating_mul(scale as u64);
                    if full_bytes > budget.max_device_bytes {
                        infeasible(
                            format!(
                                "{} device bytes at probe scale {scale} exceed budget {}",
                                full_bytes, budget.max_device_bytes
                            ),
                            false,
                        );
                        continue;
                    }
                    let yd = dev.alloc_zeroed::<T>(m.rows());
                    let spmv_s = projected_spmv_seconds(&plan.spmv(dev, &xd, &yd), scale);
                    let preprocess_s = plan
                        .preprocess_cost()
                        .scaled(scale as u64)
                        .modeled_host_seconds(&budget.host);
                    let upload_s =
                        dev.htod_seconds(plan.upload_bytes().saturating_mul(scale as u64));
                    let total_s = preprocess_s + upload_s + horizon as f64 * spmv_s;
                    if incumbent.is_none_or(|b| (total_s, name) < (b.total_s, b.format)) {
                        incumbent = Some(Incumbent {
                            format: name,
                            total_s,
                        });
                    }
                    reports.push(CandidateReport {
                        format: name.to_string(),
                        feasible: true,
                        reason: None,
                        pruned: false,
                        preprocess_s,
                        upload_s,
                        spmv_s,
                        total_s,
                        device_bytes: plan.device_bytes(),
                        break_even_vs_winner: None,
                    });
                    plans.push((name.to_string(), plan));
                }
                Err(e) => infeasible(e.to_string(), matches!(e, SparseError::Pruned { .. })),
            }
        }

        // Rank: feasible by total time (name as a deterministic
        // tie-break), infeasible last.
        reports.sort_by(|a, b| {
            b.feasible
                .cmp(&a.feasible)
                .then(a.total_s.partial_cmp(&b.total_s).unwrap())
                .then(a.format.cmp(&b.format))
        });
        let winner = reports
            .first()
            .filter(|r| r.feasible)
            .map(|r| r.format.clone())
            .expect("no feasible format: budget cannot hold the operator");
        let (wp, ws) = {
            let w = &reports[0];
            (w.preprocess_s + w.upload_s, w.spmv_s)
        };
        for r in reports.iter_mut() {
            if r.feasible {
                r.break_even_vs_winner = if r.format == winner {
                    Some(0.0)
                } else {
                    break_even_iterations(r.preprocess_s + r.upload_s, r.spmv_s, wp, ws)
                };
            }
        }
        let plan = plans
            .into_iter()
            .find(|(n, _)| *n == winner)
            .map(|(_, p)| p)
            .expect("winner has a plan");
        Selection {
            plan,
            winner,
            candidates: reports,
            stats,
            horizon,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{presets, set_sim_threads};
    use graphgen::{generate_power_law, PowerLawConfig, TABLE1_SUITE};
    use std::sync::Mutex;

    // `set_sim_threads` is process-global: serialize the tests that
    // touch it (same pattern as the serve proptests).
    static WIDTH_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        // A failed sibling must not cascade into PoisonErrors here.
        WIDTH_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A suite analog at `scale`, as the bench experiments generate it.
    fn suite_matrix(abbrev: &str, scale: usize) -> CsrMatrix<f64> {
        let spec = TABLE1_SUITE.iter().find(|s| s.abbrev == abbrev).unwrap();
        spec.generate::<f64>(scale, 1).csr
    }

    fn power_law(rows: usize, seed: u64) -> CsrMatrix<f64> {
        generate_power_law(&PowerLawConfig {
            rows,
            cols: rows,
            mean_degree: 8.0,
            max_degree: (rows / 3).max(8),
            pinned_max_rows: 2,
            col_skew: 0.5,
            seed,
            ..Default::default()
        })
    }

    /// Uniform short-row matrix: every row has exactly `deg` entries.
    fn uniform(rows: usize, deg: usize, seed: u64) -> CsrMatrix<f64> {
        let mut offsets = Vec::with_capacity(rows + 1);
        let mut cols = Vec::with_capacity(rows * deg);
        let mut vals = Vec::with_capacity(rows * deg);
        let mut state = seed | 1;
        offsets.push(0u32);
        for r in 0..rows {
            let mut seen = std::collections::BTreeSet::new();
            while seen.len() < deg {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                seen.insert(((state >> 33) as usize) % rows);
            }
            for c in seen {
                cols.push(c as u32);
                vals.push(1.0 + ((r + c) % 5) as f64 * 0.25);
            }
            offsets.push(cols.len() as u32);
        }
        CsrMatrix::from_raw_parts(rows, rows, offsets, cols, vals).unwrap()
    }

    #[test]
    fn power_law_app_horizon_picks_acsr() {
        let _guard = lock();
        // YOT at the bench's standard 512× downscale, probed with the
        // same 512× projection the format experiments use. 30 iterations
        // is past ACSR's sub-iteration break-even but well short of
        // HYB's (Table IV: ~100-250 on the suite).
        let m = suite_matrix("YOT", 512);
        let dev = Device::new(presets::gtx_titan());
        let reg = FormatRegistry::<f64>::with_all();
        let budget = PlanBudget::for_device(dev.config())
            .with_iterations(30)
            .with_probe_scale(512);
        let sel = AdaptiveSelector.select(&reg, &dev, &m, &budget);
        assert_eq!(sel.winner, "ACSR", "candidates: {:#?}", sel.candidates);
        assert!(sel.stats.looks_power_law());
        // CSR kernels are structurally excluded on power-law inputs.
        assert!(!sel.candidates.iter().any(|c| c.format.starts_with("CSR")));
        // HYB eventually amortizes its conversion (finite Eq. 4
        // break-even beyond this horizon).
        let hyb = sel.candidates.iter().find(|c| c.format == "HYB").unwrap();
        assert!(hyb.feasible, "{hyb:#?}");
        let be = hyb.break_even_vs_winner.expect("HYB amortizes eventually");
        assert!(be > 30.0, "HYB break-even {be} should exceed the horizon");
    }

    #[test]
    fn power_law_past_break_even_drops_acsr() {
        let _guard = lock();
        // Same operator, but a horizon past every conversion-heavy
        // format's break-even: ACSR's cheap preprocessing no longer
        // carries it, and a faster-per-SpMV format must win.
        let m = suite_matrix("YOT", 512);
        let dev = Device::new(presets::gtx_titan());
        let reg = FormatRegistry::<f64>::with_all();
        let budget = PlanBudget::for_device(dev.config())
            .with_iterations(2000)
            .with_probe_scale(512);
        let sel = AdaptiveSelector.select(&reg, &dev, &m, &budget);
        assert_ne!(sel.winner, "ACSR", "candidates: {:#?}", sel.candidates);
        let acsr = sel.candidates.iter().find(|c| c.format == "ACSR").unwrap();
        let winner = &sel.candidates[0];
        assert!(
            winner.spmv_s <= acsr.spmv_s,
            "winner {} must be at least as fast per SpMV as ACSR: {:#?}",
            sel.winner,
            sel.candidates
        );
    }

    #[test]
    fn uniform_short_rows_pick_a_padded_format() {
        let _guard = lock();
        let m = uniform(2000, 6, 97);
        let dev = Device::new(presets::gtx_titan());
        let reg = FormatRegistry::<f64>::with_all();
        // Past ELL's ~37-iteration break-even against the zero-conversion
        // CSR upload, below the autotune threshold.
        let budget = PlanBudget::for_device(dev.config())
            .with_iterations(60)
            .with_probe_scale(64);
        let sel = AdaptiveSelector.select(&reg, &dev, &m, &budget);
        assert!(
            ["ELL", "HYB"].contains(&sel.winner.as_str()),
            "winner {} on a uniform matrix; candidates: {:#?}",
            sel.winner,
            sel.candidates
        );
        assert!(!sel.stats.looks_power_law());
    }

    #[test]
    fn selection_never_exceeds_device_budget() {
        let _guard = lock();
        let m = power_law(800, 33);
        let dev = Device::new(presets::gtx_titan());
        let reg = FormatRegistry::<f64>::with_all();
        // At probe scale 4 this caps plans at ~2× the CSR footprint:
        // tight enough to knock out heavily padded formats, loose enough
        // that the raw layouts stay feasible (CSR ≈ nnz·12 + rows·4).
        let csr_bytes = (m.nnz() * 12 + (m.rows() + 1) * 4) as u64;
        let budget = PlanBudget {
            max_device_bytes: csr_bytes * 8,
            expected_iterations: 50,
            probe_scale: 4,
            ..Default::default()
        };
        let sel = AdaptiveSelector.select(&reg, &dev, &m, &budget);
        let full = sel.plan.device_bytes() * budget.probe_scale as u64;
        assert!(
            full <= budget.max_device_bytes,
            "selected {} at {} projected bytes > budget {}",
            sel.winner,
            full,
            budget.max_device_bytes
        );
        for c in &sel.candidates {
            if c.feasible {
                assert!(
                    c.device_bytes * budget.probe_scale as u64 <= budget.max_device_bytes,
                    "{c:#?}"
                );
            }
        }
    }

    #[test]
    fn selection_is_deterministic_across_sim_widths() {
        let _guard = lock();
        let m = power_law(700, 55);
        let dev_budget = PlanBudget::default()
            .with_iterations(200)
            .with_probe_scale(32);
        let mut outcomes: Vec<(String, Vec<(String, u64)>)> = Vec::new();
        for width in [1usize, 2, 4] {
            set_sim_threads(width);
            let dev = Device::new(presets::gtx_titan());
            let reg = FormatRegistry::<f64>::with_all();
            let sel = AdaptiveSelector.select(&reg, &dev, &m, &dev_budget);
            outcomes.push((
                sel.winner.clone(),
                sel.candidates
                    .iter()
                    .map(|c| (c.format.clone(), c.device_bytes))
                    .collect(),
            ));
        }
        set_sim_threads(0);
        for o in &outcomes[1..] {
            assert_eq!(o, &outcomes[0], "selection drifted across sim widths");
        }
    }

    #[test]
    fn pruned_sweep_names_its_bound_and_the_incumbent() {
        let _guard = lock();
        let m = power_law(400, 11);
        let dev = Device::new(presets::gtx_titan());
        let reg = FormatRegistry::<f64>::with_all();
        // At probe scale 64 one BCCOO trial already charges more than
        // the cheap formats' whole 100-iteration total.
        let budget = PlanBudget::for_device(dev.config())
            .with_iterations(100)
            .with_probe_scale(64);
        let sel = AdaptiveSelector.select(&reg, &dev, &m, &budget);
        let bccoo = sel.candidates.iter().find(|c| c.format == "BCCOO").unwrap();
        assert!(bccoo.pruned && !bccoo.feasible, "{bccoo:#?}");
        let winner = &sel.candidates[0];
        let reason = bccoo.reason.as_deref().unwrap();
        assert!(
            reason.starts_with("BCCOO pruned after 1 of 320 tuning trials")
                && reason.ends_with(&format!(
                    "exceeds {}'s total {} s",
                    winner.format, winner.total_s
                )),
            "{reason}"
        );
    }

    #[test]
    fn shortlist_excludes_autotuned_formats_on_short_horizons() {
        let m = power_law(300, 7);
        let stats = m.row_stats();
        let short = AdaptiveSelector::shortlist(&stats, 10);
        assert!(
            !short.contains(&"BCCOO") && !short.contains(&"TCOO"),
            "{short:?}"
        );
        let long = AdaptiveSelector::shortlist(&stats, 100_000);
        assert!(
            long.contains(&"BCCOO") && long.contains(&"TCOO"),
            "{long:?}"
        );
    }
}
