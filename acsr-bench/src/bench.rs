//! What every workload shares: the run context, metric collection,
//! output checks, repeated set-up and the timed repetition loop.

use crate::host::HostTrace;
use std::time::Instant;

/// Fewest set-ups a measured run makes.
const SETUP_MIN: usize = 3;
/// Most set-ups a measured run makes.
const SETUP_MAX: usize = 11;
/// Host seconds after which a measured run stops repeating its set-up
/// (once it has made [`SETUP_MIN`]).
const SETUP_BUDGET_S: f64 = 2.0;

/// Which clock a metric was measured on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Wall time of this machine: noisy, bounded by measured spread.
    Host,
    /// The deterministic simulator: bit-identical for one seed.
    Modeled,
}

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub clock: Clock,
}

/// Output checks: every op checked counts as attempted, every wrong or
/// refused op as failed, and each failure is listed on stderr.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("acsr-bench: check failed: {}", what());
        }
    }
}

/// Everything one workload run reads and writes.
pub struct Ctx {
    pub seed: u64,
    /// Host seconds the timed repetitions run for.
    pub seconds: f64,
    /// Small inputs and one repetition, for smoke runs and tests.
    pub quick: bool,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    pub host: HostTrace,
    pub checks: Checks,
    pub metrics: Vec<Metric>,
}

impl Ctx {
    pub fn new(workload: &'static str, seed: u64, seconds: f64, quick: bool, trace: bool) -> Ctx {
        Ctx {
            seed,
            seconds,
            quick,
            trace,
            host: HostTrace::new(workload),
            checks: Checks::default(),
            metrics: Vec::new(),
        }
    }

    fn push(&mut self, name: &str, unit: &'static str, value: f64, clock: Clock) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            clock,
        });
    }

    /// Record a host-clock metric.
    pub fn host_metric(&mut self, name: &str, unit: &'static str, value: f64) {
        self.push(name, unit, value, Clock::Host);
    }

    /// Record a modeled-clock (or deterministic count) metric.
    pub fn model_metric(&mut self, name: &str, unit: &'static str, value: f64) {
        self.push(name, unit, value, Clock::Modeled);
    }

    /// Build the workload's inputs: graph generation, operator build,
    /// planning/partitioning and upload. The set-up runs at least
    /// [`SETUP_MIN`] times and then until [`SETUP_BUDGET_S`] is spent, at
    /// most [`SETUP_MAX`] times (once when quick or traced), each copy
    /// dropped before the next is built, and `setup_s` is the median; the
    /// last copy is returned.
    pub fn setup<S>(
        &mut self,
        mut build: impl FnMut(&HostTrace) -> Result<S, String>,
    ) -> Result<S, String> {
        let (min, max) = if self.quick || self.trace {
            (1, 1)
        } else {
            (SETUP_MIN, SETUP_MAX)
        };
        let mut walls: Vec<f64> = Vec::with_capacity(max);
        let mut inputs = None;
        while walls.len() < min || (walls.len() < max && walls.iter().sum::<f64>() < SETUP_BUDGET_S)
        {
            drop(inputs.take());
            let start = Instant::now();
            inputs = Some(build(&self.host)?);
            walls.push(start.elapsed().as_secs_f64());
        }
        self.host_metric("setup_s", "s", median(&mut walls));
        Ok(inputs.expect("set-up ran at least once"))
    }

    /// Run `rep(ctx, id)` — one repetition of the workload's timed op
    /// sequence, returning the ops it completed and the host seconds its
    /// op calls took (output checks excluded) — until the timed window
    /// has elapsed, at least once. A traced run spends half its window
    /// here, untraced, and the rest on one traced repetition.
    pub fn timed_reps(
        &mut self,
        mut rep: impl FnMut(&mut Ctx, u64) -> Result<Rep, String>,
    ) -> Result<Vec<Rep>, String> {
        let window = if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        let start = Instant::now();
        let mut out = Vec::new();
        while out.is_empty() || (!self.quick && start.elapsed().as_secs_f64() < window) {
            out.push(rep(self, out.len() as u64)?);
        }
        Ok(out)
    }

    /// Record `host.ops_per_s`, the median over repetitions, and return
    /// the median repetition's busy host seconds.
    pub fn record_host_rate(&mut self, reps: &[Rep]) -> f64 {
        let mut rates: Vec<f64> = reps.iter().map(|r| r.ops / r.busy_s).collect();
        let mut busy: Vec<f64> = reps.iter().map(|r| r.busy_s).collect();
        self.host_metric("host.ops_per_s", "ops/s", median(&mut rates));
        median(&mut busy)
    }
}

/// One timed repetition: ops completed in `busy_s` host seconds of calls
/// into the layers.
#[derive(Clone, Copy, Debug)]
pub struct Rep {
    pub ops: f64,
    pub busy_s: f64,
}

/// Median (mean of the middle two for an even count); 0 for no values.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

/// Nearest-rank percentile `p` of `samples` (the rule the serving
/// crate's latency summaries use), after sorting.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    acsr_telemetry::nearest_rank(samples, p)
}
