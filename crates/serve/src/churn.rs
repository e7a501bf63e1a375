//! Serving concurrent with graph churn on one virtual clock.
//!
//! The scheduler in [`crate::scheduler`] serves a *static* operator. A
//! streaming deployment interleaves two workloads on the same device:
//! query waves, and maintenance batches that mutate the operator between
//! waves. This module models that contention: a [`ChurnSource`] owns the
//! live operator and a timetable of maintenance events; the serving loop
//! applies every event that has come due **before forming each wave**
//! (maintenance preempts admission, never an in-flight wave), charges its
//! modeled seconds to the shared clock, and then runs the wave against
//! the freshly maintained operator. Query latency therefore includes
//! time spent stalled behind maintenance — exactly the p99 degradation a
//! streaming deployment has to budget for.

use crate::latency::LatencyStats;
use crate::query::{rwr_coefficients, Query};
use gpu_sim::{Device, DeviceBuffer};
use sparse_formats::Scalar;
use spmv_kernels::{Affine, GpuSpmv};

/// A live operator plus its maintenance timetable.
///
/// `apply_next` is only called when `next_event_s()` returned a time at
/// or before the serving clock; it applies the due event and returns the
/// modeled seconds the maintenance occupied the device.
pub trait ChurnSource<T: Scalar> {
    /// The operator queries run against (reflects all applied events).
    fn operator(&self) -> &dyn GpuSpmv<T>;
    /// Virtual time of the next pending maintenance event, if any.
    fn next_event_s(&self) -> Option<f64>;
    /// Apply the next pending event; returns modeled seconds spent.
    fn apply_next(&mut self, dev: &Device) -> f64;
}

/// A [`ChurnSource`] with no events: the no-churn baseline, so the same
/// serving loop (same wave model, same clock accounting) produces the
/// comparison run.
pub struct SteadyOperator<'a, T: Scalar> {
    op: &'a dyn GpuSpmv<T>,
}

impl<'a, T: Scalar> SteadyOperator<'a, T> {
    pub fn new(op: &'a dyn GpuSpmv<T>) -> Self {
        SteadyOperator { op }
    }
}

impl<T: Scalar> ChurnSource<T> for SteadyOperator<'_, T> {
    fn operator(&self) -> &dyn GpuSpmv<T> {
        self.op
    }
    fn next_event_s(&self) -> Option<f64> {
        None
    }
    fn apply_next(&mut self, _dev: &Device) -> f64 {
        unreachable!("SteadyOperator has no maintenance events")
    }
}

/// Configuration for [`serve_with_churn`].
#[derive(Clone, Copy, Debug)]
pub struct ChurnServeConfig {
    /// Maximum queries per wave.
    pub max_batch: usize,
    /// Fixed RWR iterations per query (deterministic latency model).
    pub iterations: usize,
}

impl Default for ChurnServeConfig {
    fn default() -> Self {
        ChurnServeConfig {
            max_batch: 16,
            iterations: 10,
        }
    }
}

/// Result of one churn-concurrent serving run.
#[derive(Clone, Debug)]
pub struct ChurnServeReport {
    /// Queries completed (all offered queries complete — no shedding in
    /// this model; contention shows up as latency, not loss).
    pub completed: usize,
    /// Maintenance events applied during the run.
    pub maintenance_events: usize,
    /// Modeled seconds the device spent on maintenance.
    pub maintenance_seconds: f64,
    /// Clock at the last completion.
    pub makespan_s: f64,
    /// Waves executed.
    pub waves: usize,
    /// Arrival-to-completion latency summary.
    pub latency: LatencyStats,
}

struct ActiveQ<T> {
    q: Query,
    iters: usize,
    r: DeviceBuffer<T>,
}

/// Serve `queries` (fixed-iteration RWR) while `source`'s maintenance
/// events contend for the same device. Events due at wave-formation time
/// are applied first — in timetable order — and their modeled cost
/// advances the clock before the wave runs.
pub fn serve_with_churn<T: Scalar>(
    dev: &Device,
    source: &mut dyn ChurnSource<T>,
    queries: &[Query],
    cfg: &ChurnServeConfig,
) -> ChurnServeReport {
    assert!(cfg.max_batch >= 1, "max_batch must be at least 1");
    assert!(cfg.iterations >= 1, "need at least one iteration");
    let mut stream: Vec<Query> = queries.to_vec();
    stream.sort_by(|a, b| {
        a.arrival_s
            .partial_cmp(&b.arrival_s)
            .expect("arrival times must not be NaN")
            .then(a.id.cmp(&b.id))
    });
    let n = source.operator().rows();
    for q in &stream {
        assert!(q.seed < n, "query {} seed out of range", q.id);
    }

    let mut clock = 0.0f64;
    let mut next_arrival = 0usize;
    let mut active: Vec<ActiveQ<T>> = Vec::new();
    let mut latencies: Vec<f64> = Vec::new();
    let mut waves = 0usize;
    let mut maintenance_events = 0usize;
    let mut maintenance_seconds = 0.0f64;
    let mut makespan = 0.0f64;

    loop {
        // 1. Maintenance first: apply every event due by `clock`.
        while let Some(t) = source.next_event_s() {
            if t > clock {
                break;
            }
            let spent = source.apply_next(dev);
            maintenance_events += 1;
            maintenance_seconds += spent;
            clock += spent;
        }

        // 2. Admit due arrivals into free wave slots (FIFO).
        while active.len() < cfg.max_batch
            && next_arrival < stream.len()
            && stream[next_arrival].arrival_s <= clock
        {
            let q = stream[next_arrival];
            next_arrival += 1;
            let mut e = vec![T::ZERO; n];
            e[q.seed] = T::ONE;
            active.push(ActiveQ {
                q,
                iters: 0,
                r: dev.alloc(e),
            });
        }

        if active.is_empty() {
            if next_arrival >= stream.len() {
                break; // all queries served; trailing events don't matter
            }
            // Idle until the next arrival — but churn keeps running, so
            // jump only as far as the next event if one comes first.
            let next_t = stream[next_arrival].arrival_s;
            clock = match source.next_event_s() {
                Some(ev) if ev < next_t => ev.max(clock),
                _ => next_t.max(clock),
            };
            continue;
        }

        // 3. One batched RWR iteration for the wave.
        waves += 1;
        let xs: Vec<&DeviceBuffer<T>> = active.iter().map(|a| &a.r).collect();
        let (c, restart) = rwr_coefficients(active.iter().map(|a| &a.q));
        let affine = Affine {
            c: &c,
            restart: &restart,
        };
        let wave = source.operator().spmm_affine(dev, &xs, &affine, false);
        clock += wave.report.time_s;

        // 4. Retire finished queries.
        let mut next_iter = wave.outs.into_iter();
        let mut kept: Vec<ActiveQ<T>> = Vec::with_capacity(active.len());
        for mut a in active {
            a.r = next_iter.next().expect("one iterate per active query");
            a.iters += 1;
            if a.iters >= cfg.iterations {
                latencies.push(clock - a.q.arrival_s);
                makespan = clock;
            } else {
                kept.push(a);
            }
        }
        active = kept;
    }

    ChurnServeReport {
        completed: latencies.len(),
        maintenance_events,
        maintenance_seconds,
        makespan_s: makespan,
        waves,
        latency: LatencyStats::from_samples(&latencies),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acsr::{AcsrConfig, AcsrEngine};
    use gpu_sim::presets;
    use graph_apps::rwr::rwr_operator;
    use graphgen::{generate_power_law, PowerLawConfig};

    /// Maintenance that leaves the plan unchanged and charges a fixed
    /// `cost_s` per event, at the times in `events_s`.
    struct FixedCost<'a> {
        op: &'a dyn GpuSpmv<f64>,
        events_s: Vec<f64>,
        applied: usize,
        cost_s: f64,
    }

    impl ChurnSource<f64> for FixedCost<'_> {
        fn operator(&self) -> &dyn GpuSpmv<f64> {
            self.op
        }
        fn next_event_s(&self) -> Option<f64> {
            self.events_s.get(self.applied).copied()
        }
        fn apply_next(&mut self, _dev: &Device) -> f64 {
            self.applied += 1;
            self.cost_s
        }
    }

    const ROWS: usize = 300;

    fn engine(dev: &Device) -> AcsrEngine<f64> {
        let g = generate_power_law(&PowerLawConfig {
            rows: ROWS,
            cols: ROWS,
            mean_degree: 6.0,
            max_degree: 120,
            pinned_max_rows: 1,
            col_skew: 0.4,
            seed: 231,
            ..Default::default()
        });
        AcsrEngine::from_csr(dev, &rwr_operator(&g), AcsrConfig::for_device(dev.config()))
    }

    /// `n` queries, all arriving at t = 0.
    fn burst(n: u64) -> Vec<Query> {
        (0..n)
            .map(|id| Query {
                id,
                seed: (id as usize * 37 + 5) % ROWS,
                restart_c: 0.85,
                arrival_s: 0.0,
                tenant: 0,
            })
            .collect()
    }

    const CFG: ChurnServeConfig = ChurnServeConfig {
        max_batch: 4,
        iterations: 3,
    };

    fn serve_fixed_cost(
        dev: &Device,
        op: &AcsrEngine<f64>,
        events_s: Vec<f64>,
        cost_s: f64,
        queries: &[Query],
    ) -> ChurnServeReport {
        let mut source = FixedCost {
            op,
            events_s,
            applied: 0,
            cost_s,
        };
        serve_with_churn(dev, &mut source, queries, &CFG)
    }

    #[test]
    fn no_queries_is_an_empty_run() {
        let dev = Device::new(presets::gtx_titan());
        let op = engine(&dev);
        let report = serve_fixed_cost(&dev, &op, vec![1e-3, 2e-3], 1e-4, &[]);
        assert_eq!(report.completed, 0);
        assert_eq!(report.waves, 0);
        assert_eq!(report.maintenance_events, 0);
        assert_eq!(report.makespan_s, 0.0);
    }

    #[test]
    fn simultaneous_arrivals_run_in_full_waves() {
        let dev = Device::new(presets::gtx_titan());
        let op = engine(&dev);
        let n = 10;
        let report = serve_with_churn(&dev, &mut SteadyOperator::new(&op), &burst(n), &CFG);
        assert_eq!(report.completed, n as usize);
        assert_eq!(
            report.waves,
            CFG.iterations * (n as usize).div_ceil(CFG.max_batch)
        );
        assert_eq!(report.maintenance_events, 0);
    }

    #[test]
    fn a_due_event_delays_every_latency_by_its_cost() {
        let dev = Device::new(presets::gtx_titan());
        let op = engine(&dev);
        let queries = burst(10);
        let steady = serve_with_churn(&dev, &mut SteadyOperator::new(&op), &queries, &CFG);
        let cost_s = 2.5e-4;
        let churned = serve_fixed_cost(&dev, &op, vec![0.0], cost_s, &queries);
        assert_eq!(churned.maintenance_events, 1);
        assert_eq!(churned.maintenance_seconds, cost_s);
        assert_eq!(churned.waves, steady.waves);
        assert_eq!(churned.completed, steady.completed);
        let (a, b) = (&steady.latency, &churned.latency);
        for (what, before, after) in [
            ("p50", a.p50_s, b.p50_s),
            ("p95", a.p95_s, b.p95_s),
            ("p99", a.p99_s, b.p99_s),
            ("mean", a.mean_s, b.mean_s),
            ("max", a.max_s, b.max_s),
            ("makespan", steady.makespan_s, churned.makespan_s),
        ] {
            assert!(
                (after - before - cost_s).abs() < 1e-12,
                "{what}: {before} -> {after}, expected a shift of {cost_s}"
            );
        }
    }

    #[test]
    fn events_after_the_last_completion_are_never_applied() {
        let dev = Device::new(presets::gtx_titan());
        let op = engine(&dev);
        let queries = burst(6);
        let steady = serve_with_churn(&dev, &mut SteadyOperator::new(&op), &queries, &CFG);
        let late = 2.0 * steady.makespan_s;
        let churned = serve_fixed_cost(&dev, &op, vec![late], 1e-4, &queries);
        assert_eq!(churned.maintenance_events, 0);
        assert_eq!(churned.maintenance_seconds, 0.0);
        assert_eq!(churned.waves, steady.waves);
        assert_eq!(churned.makespan_s, steady.makespan_s);
    }
}
