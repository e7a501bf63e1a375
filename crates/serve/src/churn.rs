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
use crate::query::Query;
use gpu_sim::{Device, DeviceBuffer, RunReport};
use graph_apps::rwr::rwr_update_multi;
use sparse_formats::Scalar;
use spmv_kernels::GpuSpmv;

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
    /// Accumulated wave kernel accounting.
    pub device_report: RunReport,
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
    let mut device_report = RunReport::default();
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
        let ys: Vec<DeviceBuffer<T>> = (0..active.len())
            .map(|_| dev.alloc_zeroed::<T>(n))
            .collect();
        let xs_ref: Vec<&DeviceBuffer<T>> = active.iter().map(|a| &a.r).collect();
        let ys_ref: Vec<&DeviceBuffer<T>> = ys.iter().collect();
        let spmv = source.operator().spmv_multi(dev, &xs_ref, &ys_ref);
        let next_r: Vec<DeviceBuffer<T>> = (0..active.len())
            .map(|_| dev.alloc_zeroed::<T>(n))
            .collect();
        let c: Vec<T> = active.iter().map(|a| T::from_f64(a.q.restart_c)).collect();
        let restart: Vec<T> = active
            .iter()
            .map(|a| T::from_f64(1.0 - a.q.restart_c))
            .collect();
        let seeds: Vec<usize> = active.iter().map(|a| a.q.seed).collect();
        let next_ref: Vec<&DeviceBuffer<T>> = next_r.iter().collect();
        let upd = rwr_update_multi(dev, &ys_ref, &c, &restart, &seeds, &next_ref, None);
        clock += spmv.time_s + upd.time_s;
        device_report = device_report.then(&spmv).then(&upd);

        // 4. Retire finished queries.
        let mut next_iter = next_r.into_iter();
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
        device_report,
    }
}
