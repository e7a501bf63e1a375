//! Continuous-batching RWR scheduler over multi-vector ACSR.
//!
//! Queries are admitted from a bounded [`SubmissionQueue`] into one
//! shared *wave*: every wave runs one RWR iteration for every active
//! query as one batched SpMM with an affine epilogue per device
//! ([`GpuSpmv::spmm_affine`]). On ACSR (the default format, in every
//! mode) that is one launch group whose kernels write the next iterates
//! and convergence partials themselves; every other plan runs the SpMM
//! and then one batched update kernel. Converged queries retire and
//! their batch slots are refilled from the queue — continuous batching,
//! not gang scheduling.
//!
//! Admission is **event-driven**: every arrival is offered to the queue
//! at its true arrival time — mid-wave arrivals queue (or shed) against
//! the occupancy at that instant, and at a wave boundary offers
//! interleave with eager pops into free batch slots, so a burst flows
//! through the queue into idle slots instead of being shed against a
//! backlog that is about to drain. (The original scheduler offered a
//! boundary's whole arrival batch before refilling, so queries could be
//! capacity-shed while batch slots sat idle — shed attribution now
//! always uses arrival-time occupancy.) The open-loop entry point
//! [`ServeEngine::serve_slo`] adds per-tenant fair-share admission,
//! deadline shedding, and adaptive batch sizing on the same core; the
//! closed-loop [`ServeEngine::serve`] is the fixed-width no-deadline
//! special case.
//!
//! Two invariants make the modeled numbers trustworthy:
//!
//! 1. **Batch independence** — per vector, the batched kernels execute
//!    exactly the single-vector float-op sequence, so a query's
//!    trajectory (scores *and* iteration count) is bit-identical no
//!    matter which queries it is co-batched with or what the batch
//!    policy picks. Batching changes *when* a query runs, never *what*
//!    it computes.
//! 2. **Device-count independence** — every device holds a full-graph
//!    plan of the same operator and a query runs on one device from
//!    admission to retirement, so the device count changes where a
//!    query runs, never what it computes.
//!
//! Both are pinned by proptests in `tests/proptest_serve.rs`; the
//! open-loop shed/admission decisions are themselves deterministic
//! functions of modeled time, pinned across host worker widths in
//! `tests/slo_serving.rs`.
//!
//! Each admitted query is pinned to the device with the fewest riding
//! queries, and its iterate stays in a buffer on that device until it
//! retires: a wave moves only the convergence partials over PCIe (one
//! per block of the fused launch group, or one per 32 rows from the
//! update kernel), plus the final scores of the queries it retires, each
//! from its own device. A wave that ran on more than one device
//! closes with the §VIII completion hand-off ([`multi_gpu::handoff`]),
//! the exchange the fleet charges a replicated SpMV.
//!
//! Waves are **pipelined** on two engines per device, as
//! `graph_apps`' PageRank and RWR solvers are. The host launches wave
//! k + 1, on every device together, once wave k has ended and it holds
//! wave k − 1's partials; each device's D2H [`CopyEngine`] reads wave
//! k's partials back while wave k + 1 runs. So wave k + 1 carries every
//! query that holds a slot, those whose wave-k verdict is still unread
//! included: a query that converged at wave k rides wave k + 1 as a
//! *discarded column*, and its answer is wave k's iterate, kept until
//! the verdict is read. A query whose wave k was its `max_iters`-th
//! rides no further wave and gives up its slot. The queries a verdict
//! retires come back on the copy engine too, one batched scores
//! readback per device queued as the verdict arrives, and each
//! completes when that readback ends.

use crate::latency::{count_within, LatencyStats};
use crate::loadgen::{generate_queries, ArrivalPattern};
use crate::query::{rwr_coefficients, Query, QueryOutcome};
use crate::queue::SubmissionQueue;
use crate::slo::{BatchPolicy, SloPolicy};
use crate::telemetry::ServeScope;
use crate::tenant::FairShare;
use acsr::AcsrConfig;
use acsr_telemetry::{Telemetry, WaveRecord};
use gpu_sim::trace::TraceLedger;
use gpu_sim::{presets, Device, DeviceBuffer, DeviceConfig, RunReport};
use graph_apps::rwr::{rwr_init_multi, rwr_operator, sum_partials};
use graph_apps::{CopyEngine, IterParams};
use multi_gpu::{handoff, ShardFormat};
use sparse_formats::{CsrMatrix, Scalar};
use spmv_kernels::epilogue::Partials;
use spmv_kernels::{Affine, GpuSpmv};
use spmv_pipeline::SpmvPlan;
use std::sync::Arc;

/// Serving-engine configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Maximum queries per wave (the SpMM batch width `k`) for the
    /// closed-loop [`ServeEngine::serve`] path; [`ServeEngine::serve_slo`]
    /// takes its width from the policy's [`crate::slo::BatchPolicy`].
    pub max_batch: usize,
    /// Submission-queue capacity; arrivals beyond it are shed.
    pub queue_capacity: usize,
    /// Simulated devices, each holding a full-graph plan; every query
    /// runs on the one it is pinned to at admission.
    pub n_devices: usize,
    /// Per-query RWR iteration limits.
    pub iter: IterParams,
    /// Format the per-device plans are built with. ACSR (the default,
    /// in its static long-tail configuration) is the only format whose
    /// wave is one fused launch group, in any of its modes: its SpMM
    /// reads the matrix once for the whole batch and its kernels apply
    /// the RWR update as an epilogue. Every other registry format serves
    /// through the sequential [`GpuSpmv::spmv_multi`] fallback plus a
    /// separate update launch.
    pub format: ShardFormat,
    /// Simulated device model.
    pub device: DeviceConfig,
    /// Keep each query's final relevance vector in its outcome. The
    /// readback that delivers it is charged either way: the answer has
    /// to reach the host.
    pub keep_scores: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 16,
            queue_capacity: 64,
            n_devices: 1,
            iter: IterParams::default(),
            format: ShardFormat::Acsr(AcsrConfig::static_long_tail()),
            device: presets::gtx_titan(),
            keep_scores: false,
        }
    }
}

/// A query between admission and retirement.
struct Active<T> {
    q: Query,
    /// Admission order within the run: names the query's column in
    /// the waves it rides.
    ticket: usize,
    admitted_s: f64,
    /// Verdicts read: the iterations it computed and checked.
    iterations: usize,
    /// Waves it rode, a discarded one included.
    rode: usize,
    /// The device the query was pinned to at admission.
    device: usize,
    /// Latest relevance iterate, resident on `device` from admission to
    /// retirement (the query's first wave writes r⁰).
    r: DeviceBuffer<T>,
    /// The iterate whose verdict is still unread, once a later wave has
    /// replaced `r`: the answer if that verdict retires the query.
    prev: Option<DeviceBuffer<T>>,
}

/// A launched wave whose convergence partials the host has not read.
struct InFlight {
    /// Correlation id of a traced run.
    id: Option<u64>,
    /// When the wave ended: its last device, or the hand-off.
    end_s: f64,
    /// Each device that ran it, the tickets of its queries there in
    /// column order, and their partials.
    parts: Vec<(usize, Vec<usize>, Partials)>,
}

/// Result of serving one query stream.
#[derive(Clone, Debug)]
pub struct ServeReport<T> {
    /// Completed queries, in retirement order.
    pub outcomes: Vec<QueryOutcome<T>>,
    /// Ids shed because the submission queue was full at their arrival
    /// (capacity shedding), in arrival order.
    pub rejected: Vec<u64>,
    /// Ids dropped at admission because their queue wait had already
    /// exceeded their tenant's SLO budget (deadline shedding), in
    /// admission-attempt order.
    pub deadline_shed: Vec<u64>,
    /// Queries in the offered stream (completed + shed).
    pub offered: usize,
    /// Virtual-clock span from start until the last answer is on the
    /// host and the compute engines are idle, seconds: the later of the
    /// last completion and the end of the last wave, a discarded one
    /// included. The serving counterpart of `graph_apps`'
    /// `SolveResult::wall_s`.
    pub makespan_s: f64,
    /// Batched iteration waves executed.
    pub waves: usize,
    /// Batch width of every executed wave, in order, discarded columns
    /// included (the adaptive policy's decisions are observable here).
    pub wave_widths: Vec<usize>,
    /// Accumulated per-device kernel/transfer accounting.
    pub device_reports: Vec<RunReport>,
    /// Non-zeros of the serving operator (for GFLOPS accounting).
    pub nnz: usize,
}

impl<T> ServeReport<T> {
    /// Completed queries per virtual second. A stream with nothing
    /// completed (or an empty makespan — e.g. every query shed) reports
    /// 0.0, never NaN/∞, so serialized artifacts stay valid.
    pub fn throughput_qps(&self) -> f64 {
        if self.outcomes.is_empty() || self.makespan_s <= 0.0 {
            return 0.0;
        }
        self.outcomes.len() as f64 / self.makespan_s
    }

    /// Total RWR iterations of all completed queries: the iterates they
    /// computed and checked, not the discarded columns they rode.
    pub fn total_iterations(&self) -> usize {
        self.outcomes.iter().map(|o| o.iterations).sum()
    }

    /// Useful SpMV throughput: 2·nnz flops per query iteration over the
    /// makespan. 0.0 (not NaN/∞) when nothing completed.
    pub fn gflops(&self) -> f64 {
        if self.outcomes.is_empty() || self.makespan_s <= 0.0 {
            return 0.0;
        }
        (2 * self.nnz * self.total_iterations()) as f64 / self.makespan_s / 1e9
    }

    /// Arrival-to-completion latency summary.
    pub fn latency_stats(&self) -> LatencyStats {
        let samples: Vec<f64> = self.outcomes.iter().map(|o| o.latency_s()).collect();
        LatencyStats::from_samples(&samples)
    }

    /// Queue-wait summary (arrival to admission).
    pub fn queue_wait_stats(&self) -> LatencyStats {
        let samples: Vec<f64> = self.outcomes.iter().map(|o| o.queue_wait_s()).collect();
        LatencyStats::from_samples(&samples)
    }

    /// Mean iterations per completed query (0.0 when none completed).
    pub fn mean_iterations(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.total_iterations() as f64 / self.outcomes.len() as f64
    }

    /// Mean batch width over executed waves (0.0 when no wave ran).
    pub fn mean_wave_width(&self) -> f64 {
        if self.wave_widths.is_empty() {
            return 0.0;
        }
        self.wave_widths.iter().sum::<usize>() as f64 / self.wave_widths.len() as f64
    }

    /// SLO attainment: the fraction of **offered** queries that
    /// completed within `target_s` — shed queries (capacity or
    /// deadline) count as misses, so shedding can protect the tail but
    /// never flatter the curve. An empty stream vacuously attains 1.0.
    pub fn attainment(&self, target_s: f64) -> f64 {
        let offered = self.outcomes.len() + self.rejected.len() + self.deadline_shed.len();
        if offered == 0 {
            return 1.0;
        }
        let samples: Vec<f64> = self.outcomes.iter().map(|o| o.latency_s()).collect();
        count_within(&samples, target_s) as f64 / offered as f64
    }

    /// Queries meeting `target_s` per virtual second. Unlike
    /// [`Self::throughput_qps`] this is *goodput*: shed queries and
    /// SLO-missing completions never inflate it. 0.0 when nothing met
    /// the target (or the makespan is empty).
    pub fn goodput_qps(&self, target_s: f64) -> f64 {
        if self.makespan_s <= 0.0 {
            return 0.0;
        }
        let samples: Vec<f64> = self.outcomes.iter().map(|o| o.latency_s()).collect();
        count_within(&samples, target_s) as f64 / self.makespan_s
    }
}

/// A multi-device RWR/PPR serving engine over one graph.
pub struct ServeEngine<T: Scalar> {
    /// The serving devices; `plans[d]` is device `d`'s full-graph plan
    /// of the RWR operator.
    devices: Vec<Device>,
    plans: Vec<SpmvPlan<T>>,
    rows: usize,
    nnz: usize,
    config: ServeConfig,
    /// Serving-plane telemetry (request tracing, and the metrics folded
    /// from it); `None` means every record site is a single skipped
    /// branch.
    telemetry: Option<Arc<Telemetry>>,
}

impl<T: Scalar> ServeEngine<T> {
    /// Build a serving engine for `adjacency` (square, unnormalized):
    /// each of `config.n_devices` simulated devices plans the whole RWR
    /// operator (column-normalized adjacency) in `config.format`.
    pub fn new(adjacency: &CsrMatrix<T>, config: ServeConfig) -> Self {
        assert!(config.max_batch >= 1, "max_batch must be at least 1");
        assert!(config.n_devices >= 1, "need at least one device");
        assert!(config.iter.max_iters >= 1, "max_iters must be at least 1");
        let w = rwr_operator(adjacency);
        let (devices, plans) = (0..config.n_devices)
            .map(|d| {
                let mut dc = config.device.clone();
                if config.n_devices > 1 {
                    dc.name = format!("{} #{d}", dc.name);
                }
                let dev = Device::new(dc);
                let (plan, _) = config.format.plan(&dev, &w);
                (dev, plan)
            })
            .unzip();
        ServeEngine {
            devices,
            plans,
            rows: w.rows(),
            nnz: w.nnz(),
            config,
            telemetry: acsr_telemetry::active(),
        }
    }

    /// Graph nodes (rows of the serving operator).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Non-zeros of the serving operator.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Devices serving waves.
    pub fn n_devices(&self) -> usize {
        self.devices.len()
    }

    /// Attach one shared trace ledger to every device and return it, so
    /// the next [`Self::serve`] records a device-tagged span timeline.
    pub fn enable_tracing(&mut self) -> Arc<TraceLedger> {
        let ledger = Arc::new(TraceLedger::new());
        for dev in &mut self.devices {
            dev.attach_ledger(ledger.clone());
        }
        ledger
    }

    /// Attach serving-plane telemetry: each subsequent serve run keeps
    /// its per-query request trace and, when it ends, appends the trace
    /// to `tel` and merges the `serve.*` metrics folded from it.
    /// [`Self::new`] picks up [`acsr_telemetry::global`] automatically
    /// while [`acsr_telemetry::enable_global_capture`] is armed.
    pub fn attach_telemetry(&mut self, tel: Arc<Telemetry>) {
        self.telemetry = Some(tel);
    }

    /// Serve a query stream to completion with the closed-loop policy
    /// (fixed `max_batch` waves, FIFO admission, no deadlines).
    pub fn serve(&self, queries: &[Query]) -> ServeReport<T> {
        self.serve_slo(
            queries,
            &SloPolicy::closed_loop(self.config.max_batch, self.config.queue_capacity),
        )
    }

    /// Serve a query stream under an open-loop [`SloPolicy`]: arrivals
    /// are offered at their true arrival times, admission applies the
    /// policy's tenant priorities / fair shares, stale waiters are
    /// deadline-shed at pop time, and each wave's width follows the
    /// policy's batch sizing.
    pub fn serve_slo(&self, queries: &[Query], policy: &SloPolicy) -> ServeReport<T> {
        assert!(
            policy.batch.max_width() >= 1,
            "batch policy must allow at least one query per wave"
        );
        if let BatchPolicy::Adaptive { min, max } = policy.batch {
            assert!(
                min <= max,
                "BatchPolicy::Adaptive needs min <= max (min = {min}, max = {max})"
            );
        }
        let mut stream: Vec<Query> = queries.to_vec();
        stream.sort_by(|a, b| {
            a.arrival_s
                .partial_cmp(&b.arrival_s)
                .expect("arrival times must not be NaN")
                .then(a.id.cmp(&b.id))
        });
        for q in &stream {
            assert!(q.seed < self.rows(), "query {} seed out of range", q.id);
        }

        let mut queue = SubmissionQueue::new(policy.queue_capacity);
        let mut fair = FairShare::default();
        let mut active: Vec<Active<T>> = Vec::new();
        let mut admitted = 0usize;
        let mut outcomes: Vec<QueryOutcome<T>> = Vec::new();
        let mut deadline_shed: Vec<u64> = Vec::new();
        let mut device_reports = vec![RunReport::default(); self.n_devices()];
        let mut copy = vec![CopyEngine::default(); self.n_devices()];
        let mut wave_widths: Vec<usize> = Vec::new();
        let mut next_arrival = 0usize;
        // When the next wave may launch, when the host last held a wave's
        // partials, and when the last wave ended.
        let (mut clock, mut held, mut last_wave_end) = (0.0f64, 0.0f64, 0.0f64);
        let mut in_flight: Option<InFlight> = None;
        let mut scope: Option<ServeScope> = self
            .telemetry
            .as_ref()
            .map(|tel| ServeScope::new(tel.clone()));

        loop {
            // 1. Event-driven admission at the boundary: offer each due
            //    arrival against the queue occupancy at its own arrival
            //    time, interleaved with eager pops into free batch
            //    slots, so a burst drains through the queue instead of
            //    shedding while slots sit idle.
            loop {
                self.refill(
                    clock,
                    policy,
                    &mut queue,
                    &mut fair,
                    &mut active,
                    &mut admitted,
                    &mut deadline_shed,
                    &mut scope,
                );
                if next_arrival < stream.len() && stream[next_arrival].arrival_s <= clock {
                    let q = stream[next_arrival];
                    let accepted = queue.offer(q);
                    if let Some(s) = scope.as_mut() {
                        s.on_offer(&q, accepted);
                    }
                    next_arrival += 1;
                } else {
                    break;
                }
            }

            // 2. Launch the next wave at `clock` with every query that
            //    holds a slot, each on the device it is pinned to.
            let riders: Vec<u64> = active
                .iter()
                .filter(|a| self.rides(a))
                .map(|a| a.q.id)
                .collect();
            let launched = if riders.is_empty() {
                None
            } else {
                wave_widths.push(riders.len());
                // Stamp the wave's correlation id onto every span it
                // issues, so the timeline export can join request spans
                // to device work.
                let id = scope.as_mut().map(|s| s.take_wave_id());
                self.set_wave_context(id);
                let (parts, wave_s) = self.launch(&mut active, &mut device_reports);
                self.set_wave_context(None);
                if let (Some(s), Some(wave)) = (scope.as_mut(), id) {
                    s.on_wave(WaveRecord {
                        wave,
                        t_start_s: clock,
                        dur_s: wave_s,
                        width: riders.len(),
                        devices: parts.len(),
                        queries: riders,
                    });
                }
                Some(InFlight {
                    id,
                    end_s: clock + wave_s,
                    parts,
                })
            };

            // 3. While it runs, read back the previous wave's partials
            //    and retire the queries their verdicts settle.
            if let Some(wave) = in_flight.take() {
                self.set_wave_context(wave.id);
                let (verdicts, read) =
                    self.read_back(wave, &mut active, &mut copy, &mut device_reports);
                self.set_wave_context(None);
                held = held.max(read);
                active = self.retire(active, &verdicts, &mut outcomes, &mut scope);
            }

            let Some(wave) = launched else {
                debug_assert!(active.is_empty() && queue.is_empty(), "an idle engine");
                if next_arrival >= stream.len() {
                    break; // drained
                }
                // idle until the next arrival
                clock = clock.max(stream[next_arrival].arrival_s);
                continue;
            };
            // 4. The next wave launches once this one has ended and the
            //    host holds the previous one's partials.
            last_wave_end = wave.end_s;
            clock = wave.end_s.max(held);
            in_flight = Some(wave);

            // 5. Arrivals landing before the next launch queue (or
            //    capacity-shed) at their true arrival times. No pops
            //    happen between launches, so offering them in arrival
            //    order here reproduces each query's arrival-instant
            //    occupancy exactly — shed attribution never uses
            //    boundary state.
            while next_arrival < stream.len() && stream[next_arrival].arrival_s <= clock {
                let q = stream[next_arrival];
                let accepted = queue.offer(q);
                if let Some(s) = scope.as_mut() {
                    s.on_offer(&q, accepted);
                }
                next_arrival += 1;
            }
        }

        let makespan_s = outcomes
            .iter()
            .fold(last_wave_end, |end, o| end.max(o.completed_s));
        let report = ServeReport {
            outcomes,
            rejected: queue.rejected().to_vec(),
            deadline_shed,
            offered: stream.len(),
            makespan_s,
            waves: wave_widths.len(),
            wave_widths,
            device_reports,
            nnz: self.nnz(),
        };
        if let Some(s) = scope {
            s.finish(&report, policy);
        }
        report
    }

    /// Set (or clear) the wave correlation id on every traced device.
    fn set_wave_context(&self, wave: Option<u64>) {
        for dev in &self.devices {
            if let Some(ledger) = dev.ledger() {
                ledger.set_wave(wave);
            }
        }
    }

    /// Whether `a` rides the next wave, and so holds a batch slot: every
    /// query does until it has ridden its `max_iters`-th wave.
    fn rides(&self, a: &Active<T>) -> bool {
        a.rode < self.config.iter.max_iters
    }

    /// Pop waiting queries into free batch slots at virtual time `now`:
    /// fair-share/priority selection, deadline-shedding waiters whose
    /// queue wait already exceeds their tenant's SLO budget, up to the
    /// batch policy's width for the current demand. Each admitted query
    /// is pinned to the device with the fewest riding queries (the
    /// lowest index on a tie) until it retires.
    #[allow(clippy::too_many_arguments)]
    fn refill(
        &self,
        now: f64,
        policy: &SloPolicy,
        queue: &mut SubmissionQueue,
        fair: &mut FairShare,
        active: &mut Vec<Active<T>>,
        admitted: &mut usize,
        deadline_shed: &mut Vec<u64>,
        scope: &mut Option<ServeScope>,
    ) {
        loop {
            let riders = active.iter().filter(|a| self.rides(a)).count();
            if riders >= policy.batch.cap(riders + queue.len()) {
                return;
            }
            let Some(q) = queue.pop_min_by(|a, b| fair.order(&policy.tenants, a, b)) else {
                return;
            };
            if now - q.arrival_s > policy.tenants.spec(q.tenant).slo_s {
                // The wait alone has consumed the whole budget: this
                // query cannot meet its SLO any more, so drop it before
                // it burns a batch slot.
                deadline_shed.push(q.id);
                if let Some(s) = scope.as_mut() {
                    s.on_deadline_shed(now, &q);
                }
                continue;
            }
            fair.record(q.tenant);
            if let Some(s) = scope.as_mut() {
                s.on_admitted(now, &q);
            }
            let device = (0..self.n_devices())
                .min_by_key(|&d| {
                    active
                        .iter()
                        .filter(|a| a.device == d && self.rides(a))
                        .count()
                })
                .expect("an engine has at least one device");
            active.push(Active {
                q,
                ticket: *admitted,
                admitted_s: now,
                iterations: 0,
                rode: 0,
                device,
                r: DeviceBuffer::zeroed(self.rows),
                prev: None,
            });
            *admitted += 1;
        }
    }

    /// Launch one wave: every device holding queries that ride it runs
    /// [`launch_step`] over them, all starting together. Returns each
    /// device's part of the wave (device, tickets, unread partials) and
    /// the wave's modeled time: the last device finish or the last
    /// hand-off, whichever lands later (none when one device ran).
    fn launch(
        &self,
        active: &mut [Active<T>],
        device_reports: &mut [RunReport],
    ) -> (Vec<(usize, Vec<usize>, Partials)>, f64) {
        let mut parts = Vec::new();
        let mut finishes = vec![None; self.n_devices()];
        for (d, (dev, plan)) in self.devices.iter().zip(&self.plans).enumerate() {
            let mut riders: Vec<&mut Active<T>> = active
                .iter_mut()
                .filter(|a| a.device == d && self.rides(a))
                .collect();
            if riders.is_empty() {
                continue;
            }
            let (partials, step) = launch_step(dev, plan, &mut riders);
            device_reports[d] = device_reports[d].clone().then(&step);
            finishes[d] = Some(step.time_s);
            parts.push((d, riders.iter().map(|a| a.ticket).collect(), partials));
        }
        let last = finishes.iter().flatten().fold(0.0f64, |a, &b| a.max(b));
        (parts, last.max(handoff(&finishes).end_s()))
    }

    /// Read back `wave`'s partials and return each active query's
    /// verdict (`None` rides on, `Some((converged, completed_s))`
    /// retires) and when the host held the last of them (0 when none
    /// was read). A device reads its partials once the wave has ended,
    /// on its copy engine, unless every column it ran was discarded;
    /// the queries a device's verdicts retire come back in one batched
    /// scores readback queued behind it, and complete when it ends.
    fn read_back(
        &self,
        wave: InFlight,
        active: &mut [Active<T>],
        copy: &mut [CopyEngine],
        device_reports: &mut [RunReport],
    ) -> (Vec<Option<(bool, f64)>>, f64) {
        let mut verdicts = vec![None; active.len()];
        let mut held = 0.0f64;
        for (d, tickets, partials) in wave.parts {
            let waiting: Vec<(usize, usize)> = active
                .iter()
                .enumerate()
                .filter_map(|(i, a)| Some((i, tickets.iter().position(|&t| t == a.ticket)?)))
                .collect();
            if waiting.is_empty() {
                continue;
            }
            let dev = &self.devices[d];
            let rep = dev.record_dtoh("serve_partials_d2h", partials.buf.bytes());
            device_reports[d] = device_reports[d].clone().then(&rep);
            let read = copy[d].copy(wave.end_s, rep.time_s);
            held = held.max(read);
            let mut retiring = Vec::new();
            for (i, col) in waiting {
                let a = &mut active[i];
                a.iterations += 1;
                let converged = sum_partials(partials.query(col)).sqrt() < self.config.iter.epsilon;
                if converged || a.iterations >= self.config.iter.max_iters {
                    retiring.push((i, converged));
                } else {
                    a.prev = None;
                }
            }
            if retiring.is_empty() {
                continue;
            }
            // The retiring queries' answers are still on this device:
            // one batched readback, issued as their verdicts arrive.
            let bytes = retiring.len() * self.rows * std::mem::size_of::<T>();
            let rep = dev.record_dtoh("serve_scores_d2h", bytes as u64);
            device_reports[d] = device_reports[d].clone().then(&rep);
            let done = copy[d].copy(read, rep.time_s);
            for (i, converged) in retiring {
                verdicts[i] = Some((converged, done));
            }
        }
        (verdicts, held)
    }

    /// Retire the queries whose `verdicts` entry is
    /// `Some((converged, completed_s))`; returns the rest.
    fn retire(
        &self,
        active: Vec<Active<T>>,
        verdicts: &[Option<(bool, f64)>],
        outcomes: &mut Vec<QueryOutcome<T>>,
        scope: &mut Option<ServeScope>,
    ) -> Vec<Active<T>> {
        let mut survivors = Vec::with_capacity(active.len());
        for (a, &verdict) in active.into_iter().zip(verdicts) {
            let Some((converged, completed_s)) = verdict else {
                survivors.push(a);
                continue;
            };
            if let Some(s) = scope.as_mut() {
                s.on_completed(completed_s, &a.q, a.iterations, converged);
            }
            let answer = a.prev.unwrap_or(a.r);
            outcomes.push(QueryOutcome {
                id: a.q.id,
                seed: a.q.seed,
                arrival_s: a.q.arrival_s,
                admitted_s: a.admitted_s,
                completed_s,
                iterations: a.iterations,
                converged,
                scores: self.config.keep_scores.then(|| answer.into_vec()),
            });
        }
        survivors
    }

    /// Generate a seeded query stream against this engine's graph and
    /// serve it: the closed-loop experiment entry point.
    pub fn serve_generated(
        &self,
        pattern: ArrivalPattern,
        n_queries: usize,
        restart_c: f64,
        rng_seed: u64,
    ) -> ServeReport<T> {
        let queries = generate_queries(pattern, n_queries, self.rows(), restart_c, rng_seed);
        self.serve(&queries)
    }
}

/// Launch one batched RWR iteration on one device, whose iterates stay
/// on it from admission to retirement: an init launch writes r⁰ = e_seed
/// for the queries riding their first wave, then the plan's
/// [`GpuSpmv::spmm_affine`] wave reads the resident iterates, writes the
/// next ones and each query's convergence partials — one fused launch
/// group on ACSR, SpMM plus update elsewhere. Replaces each query's
/// iterate with the next, keeping the one it replaces when its verdict
/// is unread; returns the partials, not read back yet, and the launches'
/// report.
fn launch_step<T: Scalar>(
    dev: &Device,
    plan: &SpmvPlan<T>,
    riders: &mut [&mut Active<T>],
) -> (Partials, RunReport) {
    let (fresh_seeds, fresh): (Vec<usize>, Vec<&DeviceBuffer<T>>) = riders
        .iter()
        .filter(|a| a.rode == 0)
        .map(|a| (a.q.seed, &a.r))
        .unzip();
    let init = rwr_init_multi(dev, &fresh_seeds, &fresh);
    let xs: Vec<&DeviceBuffer<T>> = riders.iter().map(|a| &a.r).collect();
    let (c, restart) = rwr_coefficients(riders.iter().map(|a| &a.q));
    let affine = Affine {
        c: &c,
        restart: &restart,
    };
    let wave = plan.spmm_affine(dev, &xs, &affine, true);
    for (a, next) in riders.iter_mut().zip(wave.outs) {
        let r = std::mem::replace(&mut a.r, next);
        a.prev = (a.rode > 0).then_some(r);
        a.rode += 1;
    }
    let partials = wave.partials.expect("the wave was asked for partials");
    (partials, init.then(&wave.report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_apps::rwr::rwr_cpu;
    use graphgen::{generate_power_law, PowerLawConfig};
    use std::collections::BTreeSet;

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

    fn saturated(n: usize) -> ArrivalPattern {
        // arrivals far faster than service: everything queues at t≈0
        let _ = n;
        ArrivalPattern::Poisson { rate_qps: 1e9 }
    }

    fn query(id: u64, seed: usize, arrival_s: f64) -> Query {
        Query {
            id,
            seed,
            restart_c: 0.85,
            arrival_s,
            tenant: 0,
        }
    }

    #[test]
    fn served_scores_match_cpu_reference() {
        let g = graph(400, 201);
        let w = rwr_operator(&g);
        let engine = ServeEngine::new(
            &g,
            ServeConfig {
                max_batch: 4,
                keep_scores: true,
                ..ServeConfig::default()
            },
        );
        let report = engine.serve_generated(saturated(6), 6, 0.85, 11);
        assert_eq!(report.outcomes.len(), 6);
        assert!(report.rejected.is_empty());
        assert!(report.deadline_shed.is_empty());
        assert_eq!(report.offered, 6);
        for o in &report.outcomes {
            assert!(o.converged, "query {} hit the iteration cap", o.id);
            let (cpu, _) = rwr_cpu(&w, o.seed, 0.85, &IterParams::default());
            let scores = o.scores.as_ref().unwrap();
            let d = sparse_formats::scalar::rel_l2_distance(scores, &cpu);
            assert!(d < 1e-9, "query {} rel distance {d}", o.id);
        }
    }

    #[test]
    fn non_acsr_formats_are_servable() {
        // Any registry format serves through the sequential
        // `spmv_multi` fallback; answers must match the CPU reference
        // (and therefore the default ACSR path) exactly as closely.
        let g = graph(350, 206);
        let w = rwr_operator(&g);
        for format in ["HYB", "CSR-vector"] {
            let engine = ServeEngine::new(
                &g,
                ServeConfig {
                    max_batch: 4,
                    format: ShardFormat::Fixed(format),
                    keep_scores: true,
                    ..ServeConfig::default()
                },
            );
            let report = engine.serve_generated(saturated(5), 5, 0.85, 23);
            assert_eq!(report.outcomes.len(), 5, "{format}");
            for o in &report.outcomes {
                assert!(o.converged, "{format}: query {} hit the cap", o.id);
                let (cpu, cpu_iters) = rwr_cpu(&w, o.seed, 0.85, &IterParams::default());
                assert_eq!(o.iterations, cpu_iters, "{format}: query {}", o.id);
                let scores = o.scores.as_ref().unwrap();
                let d = sparse_formats::scalar::rel_l2_distance(scores, &cpu);
                assert!(d < 1e-9, "{format}: query {} rel distance {d}", o.id);
            }
        }
    }

    #[test]
    fn continuous_batching_refills_slots_as_queries_retire() {
        let g = graph(300, 202);
        let engine = ServeEngine::new(
            &g,
            ServeConfig {
                max_batch: 3,
                queue_capacity: 64,
                ..ServeConfig::default()
            },
        );
        let report = engine.serve_generated(saturated(9), 9, 0.85, 13);
        assert_eq!(report.outcomes.len(), 9);
        // 9 queries through 3 slots: the wave count must be far below
        // serial (sum of iterations) but at least the longest query
        let longest = report.outcomes.iter().map(|o| o.iterations).max().unwrap();
        let serial: usize = report.total_iterations();
        assert!(report.waves >= longest);
        assert!(
            report.waves < serial,
            "waves {} vs serial {serial}",
            report.waves
        );
        assert_eq!(report.wave_widths.len(), report.waves);
        assert!(report.wave_widths.iter().all(|&w| (1..=3).contains(&w)));
        // later queries waited in the queue
        assert!(report.outcomes.iter().any(|o| o.queue_wait_s() > 0.0));
        assert!(report.makespan_s > 0.0);
        assert!(report.throughput_qps() > 0.0);
        assert!(report.gflops() > 0.0);
    }

    #[test]
    fn overload_sheds_queries_beyond_queue_capacity() {
        let g = graph(200, 203);
        let engine = ServeEngine::new(
            &g,
            ServeConfig {
                max_batch: 1,
                queue_capacity: 2,
                ..ServeConfig::default()
            },
        );
        // 8 simultaneous arrivals into 1 slot + 2 queue places
        let queries: Vec<Query> = (0..8)
            .map(|id| query(id, (id as usize * 13) % 200, 0.0))
            .collect();
        let report = engine.serve(&queries);
        assert!(!report.rejected.is_empty(), "overload must shed load");
        assert_eq!(report.outcomes.len() + report.rejected.len(), 8);
        assert_eq!(report.offered, 8);
        // Event-driven admission: the first arrival flows through the
        // queue straight into the free batch slot, the next two take
        // the queue's places, and the rest shed in arrival order. (The
        // old boundary-batched admission shed query 2 as well, against
        // a queue that still held the query the free slot was about to
        // absorb.)
        assert_eq!(report.rejected, vec![3, 4, 5, 6, 7]);
        assert_eq!(report.outcomes.len(), 3);
    }

    /// The shed-attribution fix: a query arriving *mid-wave*, after the
    /// queue has drained into slots, sees the drained queue (admitted) —
    /// and one arriving after the queue refills sees the full queue
    /// (shed) — regardless of what the occupancy is at the boundary.
    #[test]
    fn mid_wave_arrivals_shed_by_arrival_time_occupancy() {
        let g = graph(250, 207);
        let engine = ServeEngine::new(
            &g,
            ServeConfig {
                max_batch: 1,
                queue_capacity: 1,
                ..ServeConfig::default()
            },
        );
        // q0 at t=0 takes the slot (queue drains); its first wave runs
        // for some modeled time W > 0. q1 arrives mid-wave at 1 ns:
        // the queue is empty at that instant, so it must be admitted.
        // q2 arrives just after q1, sees q1 occupying the single queue
        // place, and must be the one shed.
        let queries = vec![
            query(0, 3, 0.0),
            query(1, 5, 1e-9),
            query(2, 7, 2e-9),
            // q3 arrives much later, long after the backlog drained:
            // admitted too (a boundary-occupancy scheduler that batched
            // offers could have shed it against stale state).
            query(3, 9, 1.0),
        ];
        let report = engine.serve(&queries);
        let completed: Vec<u64> = report.outcomes.iter().map(|o| o.id).collect();
        assert!(completed.contains(&0), "q0 occupies the free slot");
        assert!(
            completed.contains(&1),
            "q1 arrived at a drained queue mid-wave and must be admitted"
        );
        assert!(
            completed.contains(&3),
            "q3 arrived after the backlog cleared and must be admitted"
        );
        assert_eq!(report.rejected, vec![2], "only q2 saw a full queue");
    }

    #[test]
    fn fully_shed_report_has_no_nan_metrics() {
        // The degenerate shape the guards exist for: every query shed,
        // nothing completed, zero makespan. All rate/mean metrics must
        // be exactly 0.0 — NaN/∞ here would corrupt BENCH_serve.json.
        let report = ServeReport::<f64> {
            outcomes: Vec::new(),
            rejected: vec![0, 1, 2],
            deadline_shed: vec![3, 4],
            offered: 5,
            makespan_s: 0.0,
            waves: 0,
            wave_widths: Vec::new(),
            device_reports: Vec::new(),
            nnz: 1000,
        };
        assert_eq!(report.throughput_qps(), 0.0);
        assert_eq!(report.gflops(), 0.0);
        assert_eq!(report.mean_iterations(), 0.0);
        assert_eq!(report.mean_wave_width(), 0.0);
        assert_eq!(report.goodput_qps(0.1), 0.0);
        assert_eq!(report.attainment(0.1), 0.0, "5 offered, 0 met");
        for v in [
            report.throughput_qps(),
            report.gflops(),
            report.mean_iterations(),
            report.goodput_qps(0.1),
            report.attainment(0.1),
        ] {
            assert!(v.is_finite(), "metric must be finite, got {v}");
        }
        // and the empty stream end to end: nothing offered at all
        let g = graph(120, 208);
        let engine = ServeEngine::new(&g, ServeConfig::default());
        let empty = engine.serve(&[]);
        assert_eq!(empty.offered, 0);
        assert_eq!(empty.throughput_qps(), 0.0);
        assert_eq!(empty.gflops(), 0.0);
        assert_eq!(empty.attainment(1.0), 1.0, "vacuously attained");
        assert!(empty.makespan_s == 0.0);
    }

    #[test]
    fn multi_device_waves_account_sync_and_tag_devices() {
        let g = graph(500, 204);
        let mut engine = ServeEngine::new(
            &g,
            ServeConfig {
                max_batch: 4,
                n_devices: 2,
                ..ServeConfig::default()
            },
        );
        assert_eq!(engine.n_devices(), 2);
        let ledger = engine.enable_tracing();
        let report = engine.serve_generated(saturated(4), 4, 0.85, 17);
        assert_eq!(report.outcomes.len(), 4);
        assert_eq!(report.device_reports.len(), 2);
        assert!(report.device_reports.iter().all(|r| r.launches > 0));
        ledger.reconcile().expect("serve trace must reconcile");
        let events = format!("{:?}", ledger.chrome_events());
        assert!(events.contains("#0") && events.contains("#1"));
    }

    /// Fresh queries with the given seeds, query `i` pinned to device
    /// `devices[i]`: a wave to hand straight to [`ServeEngine::launch`].
    fn pinned(engine: &ServeEngine<f64>, seeds: &[usize], devices: &[usize]) -> Vec<Active<f64>> {
        seeds
            .iter()
            .zip(devices)
            .enumerate()
            .map(|(i, (&seed, &device))| Active {
                q: query(i as u64, seed, 0.0),
                ticket: i,
                admitted_s: 0.0,
                iterations: 0,
                rode: 0,
                device,
                r: DeviceBuffer::zeroed(engine.rows()),
                prev: None,
            })
            .collect()
    }

    /// A two-device wave ends when the slowest device or the last
    /// scheduled hand-off does, whichever is later — the fleet's §VIII
    /// exchange, not a flat sync charged after the slowest device.
    #[test]
    fn two_device_wave_closes_with_the_handoff() {
        let g = graph(500, 215);
        let engine = ServeEngine::new(
            &g,
            ServeConfig {
                n_devices: 2,
                ..ServeConfig::default()
            },
        );
        let mut reports = vec![RunReport::default(); 2];
        // two queries on device 0 and one on device 1: unequal finishes
        let mut wave = pinned(&engine, &[3, 17, 40], &[0, 0, 1]);
        let (parts, wave_s) = engine.launch(&mut wave, &mut reports);
        assert_eq!(parts.len(), 2);
        let finishes: Vec<Option<f64>> = reports.iter().map(|r| Some(r.time_s)).collect();
        let slowest = reports.iter().fold(0.0f64, |a, r| a.max(r.time_s));
        let exchange = handoff(&finishes);
        assert_eq!(exchange.transfers.len(), 2, "one hand-off per device");
        assert!(exchange
            .transfers
            .iter()
            .all(|t| t.dst == 2 && t.bytes == 0));
        assert_eq!(wave_s, slowest.max(exchange.end_s()));
        assert!(wave_s > slowest, "the last hand-off lands after compute");
        assert!(reports[0].time_s > reports[1].time_s);
        assert!(
            wave_s < slowest + 20e-6,
            "an early finisher's hand-off hides under the slow device: {wave_s} vs {slowest}"
        );
    }

    /// More devices than rows or queries: three simultaneous queries take
    /// one device each and match the CPU reference, and the five idle
    /// devices neither compute nor join the hand-off.
    #[test]
    fn more_devices_than_rows_answers_every_query() {
        let mut t = sparse_formats::TripletMatrix::<f64>::new(3, 3);
        t.push(0, 1, 1.0).unwrap();
        t.push(1, 2, 1.0).unwrap();
        t.push(2, 0, 1.0).unwrap();
        let g = t.to_csr();
        let w = rwr_operator(&g);
        let engine = ServeEngine::new(
            &g,
            ServeConfig {
                max_batch: 3,
                n_devices: 8,
                keep_scores: true,
                ..ServeConfig::default()
            },
        );
        let queries: Vec<Query> = (0..3).map(|id| query(id, id as usize, 0.0)).collect();
        let report = engine.serve(&queries);
        assert_eq!(report.outcomes.len(), 3);
        for o in &report.outcomes {
            let (cpu, cpu_iters) = rwr_cpu(&w, o.seed, 0.85, &IterParams::default());
            assert_eq!(o.iterations, cpu_iters, "query {}", o.id);
            let d = sparse_formats::scalar::rel_l2_distance(o.scores.as_ref().unwrap(), &cpu);
            assert!(d < 1e-9, "query {} rel distance {d}", o.id);
        }
        let busy: Vec<usize> = (0..8)
            .filter(|&d| report.device_reports[d].launches > 0)
            .collect();
        assert_eq!(busy, vec![0, 1, 2], "one query per device, lowest first");
        // One wave, re-priced with hand-offs from the busy devices only,
        // reproduces the engine's wave time exactly.
        let mut reports = vec![RunReport::default(); 8];
        let mut wave = pinned(&engine, &[0, 1, 2], &[0, 1, 2]);
        let (parts, wave_s) = engine.launch(&mut wave, &mut reports);
        assert_eq!(parts.len(), 3);
        let finishes: Vec<Option<f64>> = reports
            .iter()
            .map(|r| (r.launches > 0).then_some(r.time_s))
            .collect();
        let exchange = handoff(&finishes);
        assert_eq!(exchange.transfers.len(), 3);
        let slowest = reports.iter().fold(0.0f64, |a, r| a.max(r.time_s));
        assert_eq!(wave_s, slowest.max(exchange.end_s()));
    }

    #[test]
    fn telemetry_reconciles_and_correlates_waves() {
        let g = graph(300, 209);
        let mut engine = ServeEngine::new(
            &g,
            ServeConfig {
                max_batch: 2,
                queue_capacity: 2,
                n_devices: 2,
                ..ServeConfig::default()
            },
        );
        let ledger = engine.enable_tracing();
        let tel = Arc::new(acsr_telemetry::Telemetry::new());
        engine.attach_telemetry(tel.clone());
        // 6 simultaneous arrivals into 2 slots + 2 queue places: some
        // capacity shed, everything else completes. The metrics folded
        // from the run's trace agree with the report.
        let queries: Vec<Query> = (0..6)
            .map(|id| query(id, (id as usize * 17) % 300, 0.0))
            .collect();
        let report = engine.serve(&queries);
        assert!(!report.rejected.is_empty());
        let snap = tel.metrics.snapshot();
        assert_eq!(snap.counter("serve.offered"), Some(6));
        assert_eq!(
            snap.counter("serve.completed"),
            Some(report.outcomes.len() as u64)
        );
        assert_eq!(
            snap.counter("serve.shed.capacity"),
            Some(report.rejected.len() as u64)
        );
        assert_eq!(snap.counter("serve.waves"), Some(report.waves as u64));
        assert_eq!(
            snap.counter("serve.iterations"),
            Some(report.total_iterations() as u64)
        );
        assert!(snap.gauge("serve.tenant.0.attainment").is_some());
        assert!(snap.gauge("serve.device.1.busy_s").is_some());
        // every wave record joins to at least one kernel span, and the
        // timeline export validates the correlation end to end
        let waves = tel.requests.waves();
        assert_eq!(waves.len(), report.waves);
        let spans = ledger.spans();
        for w in &waves {
            assert!(
                spans.iter().any(|s| s.wave == Some(w.wave)),
                "wave {} has no kernel span",
                w.wave
            );
        }
        let doc = acsr_telemetry::timeline(&ledger, &tel).expect("timeline validates");
        let text = format!("{doc:?}");
        assert!(text.contains(r#"Str("serving")"#));
        assert!(text.contains(r#"Str("wave1")"#));
        // a second run keeps allocating fresh wave ids — no collisions
        let before = waves.len();
        engine.serve(&queries);
        let after = tel.requests.waves();
        assert!(after.len() > before);
        let mut seen = std::collections::BTreeSet::new();
        assert!(after.iter().all(|w| seen.insert(w.wave)), "wave ids unique");
    }

    #[test]
    fn telemetry_counts_deadline_sheds() {
        let g = graph(200, 210);
        let mut engine = ServeEngine::new(
            &g,
            ServeConfig {
                max_batch: 1,
                queue_capacity: 32,
                ..ServeConfig::default()
            },
        );
        let tel = Arc::new(acsr_telemetry::Telemetry::new());
        engine.attach_telemetry(tel.clone());
        // Tight SLO + deep backlog: late waiters deadline-shed at pop
        // time. The folded counter must agree with the report exactly.
        let queries: Vec<Query> = (0..12)
            .map(|id| query(id, (id as usize * 11) % 200, 0.0))
            .collect();
        let policy = SloPolicy::open_loop(1e-4, 1, 32);
        let report = engine.serve_slo(&queries, &policy);
        assert!(!report.deadline_shed.is_empty(), "backlog must shed");
        let snap = tel.metrics.snapshot();
        assert_eq!(
            snap.counter("serve.shed.deadline"),
            Some(report.deadline_shed.len() as u64)
        );
        let events = tel.requests.events();
        let deadline_events = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    acsr_telemetry::RequestEvent::Shed {
                        kind: acsr_telemetry::ShedKind::Deadline,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(deadline_events, report.deadline_shed.len());
    }

    /// On any number of devices every iterate stays on the device its
    /// query is pinned to: no per-wave upload or readback. A wave's
    /// partials come back at most once per device that ran it, and only
    /// while one of its queries there still waits for that verdict, each
    /// carrying every column the device ran. The queries a wave's
    /// verdicts retire — the wave of each query's last checked iterate,
    /// after which it rides at most one discarded wave — come back in at
    /// most one batched scores readback per device, charged whether or
    /// not the engine keeps scores.
    #[test]
    fn waves_move_only_partials_and_final_scores() {
        let g = graph(400, 217);
        for (n_devices, keep_scores) in [(1, false), (1, true), (4, false)] {
            let mut engine = ServeEngine::new(
                &g,
                ServeConfig {
                    max_batch: 8,
                    n_devices,
                    keep_scores,
                    ..ServeConfig::default()
                },
            );
            let per_query = partials_per_query(&engine);
            let ledger = engine.enable_tracing();
            let tel = Arc::new(acsr_telemetry::Telemetry::new());
            engine.attach_telemetry(tel.clone());
            let report = engine.serve_generated(saturated(10), 10, 0.85, 29);
            let what = format!("{n_devices} devices, keep_scores {keep_scores}");
            assert_eq!(report.outcomes.len(), 10, "{what}");
            ledger.reconcile().expect("serve trace must reconcile");
            let spans = ledger.spans();
            let transfers = |name: &'static str| {
                spans
                    .iter()
                    .filter(move |s| s.kind == gpu_sim::SpanKind::Transfer && s.name == name)
            };
            assert_eq!(transfers("serve_x_upload").count(), 0, "{what}");
            assert_eq!(transfers("serve_y_readback").count(), 0, "{what}");
            let elt = std::mem::size_of::<f64>() as u64;
            let score_bytes = engine.rows() as u64 * elt;
            let waves = tel.requests.waves();
            assert_eq!(waves.len(), report.waves);
            // The wave each query's last checked iterate came from.
            let mut settled = Vec::new();
            for o in &report.outcomes {
                let rode: Vec<u64> = waves
                    .iter()
                    .filter(|w| w.queries.contains(&o.id))
                    .map(|w| w.wave)
                    .collect();
                assert_eq!(rode.len(), o.iterations + 1, "{what}: query {}", o.id);
                settled.push(rode[o.iterations - 1]);
            }
            for w in &waves {
                let in_wave = |name| transfers(name).filter(|s| s.wave == Some(w.wave));
                let partials: Vec<(&str, u64)> = in_wave("serve_partials_d2h")
                    .map(|s| (s.device.as_str(), s.counters.dtoh_bytes))
                    .collect();
                let read: BTreeSet<&str> = partials.iter().map(|&(d, _)| d).collect();
                assert_eq!(read.len(), partials.len(), "{what}: wave {}", w.wave);
                assert!(read.len() <= w.devices, "{what}: wave {}", w.wave);
                // Waiting for this verdict: every rider not settled
                // before it.
                let waiting = report
                    .outcomes
                    .iter()
                    .zip(&settled)
                    .filter(|&(o, &at)| w.queries.contains(&o.id) && at >= w.wave)
                    .count();
                assert_eq!(read.is_empty(), waiting == 0, "{what}: wave {}", w.wave);
                if n_devices == 1 && waiting > 0 {
                    let bytes = (w.width * per_query) as u64 * elt;
                    assert_eq!(partials, [("GTX Titan", bytes)], "{what}");
                }
                // at most one scores readback per device, only where the
                // partials came back, carrying exactly the settled answers
                let scores: Vec<(&str, u64)> = in_wave("serve_scores_d2h")
                    .map(|s| (s.device.as_str(), s.counters.dtoh_bytes))
                    .collect();
                let scored: BTreeSet<&str> = scores.iter().map(|&(d, _)| d).collect();
                assert_eq!(scored.len(), scores.len(), "{what}");
                assert!(scored.is_subset(&read), "{what}");
                assert!(scores.iter().all(|&(_, b)| b > 0 && b % score_bytes == 0));
                let retired = settled.iter().filter(|&&at| at == w.wave).count() as u64;
                let bytes: u64 = scores.iter().map(|&(_, b)| b).sum();
                assert_eq!(bytes, retired * score_bytes, "{what}: wave {}", w.wave);
            }
            assert!(report
                .device_reports
                .iter()
                .all(|r| r.counters.htod_bytes == 0));
            let widest = waves.iter().map(|w| w.devices).max();
            assert_eq!(
                widest,
                Some(n_devices),
                "{what}: a full wave uses every device"
            );
        }
    }

    /// The convergence partials a wave on `engine`'s device 0 writes per
    /// query, as its plan reports them: one per launch-group block on a
    /// fused ACSR plan, one per 32 rows on the two-launch path.
    fn partials_per_query(engine: &ServeEngine<f64>) -> usize {
        let dev = &engine.devices[0];
        let x = dev.alloc(vec![0.0f64; engine.rows()]);
        let affine = Affine {
            c: &[0.85],
            restart: &[spmv_kernels::Restart::Seed { row: 0, mass: 0.15 }],
        };
        let wave = engine.plans[0].spmm_affine(dev, &[&x], &affine, true);
        wave.partials.expect("partials were asked for").per_query
    }

    /// Four simultaneous queries on four devices take one device each,
    /// and each wave record counts the devices that held a query: 4 for
    /// that wave, 1 for a query that later arrives alone.
    #[test]
    fn simultaneous_queries_take_one_device_each() {
        let g = graph(300, 220);
        let mut engine = ServeEngine::new(
            &g,
            ServeConfig {
                max_batch: 8,
                n_devices: 4,
                ..ServeConfig::default()
            },
        );
        let per_query = partials_per_query(&engine);
        let ledger = engine.enable_tracing();
        let tel = Arc::new(acsr_telemetry::Telemetry::new());
        engine.attach_telemetry(tel.clone());
        let mut queries: Vec<Query> = (0..4)
            .map(|id| query(id, (id as usize * 37 + 5) % 300, 0.0))
            .collect();
        queries.push(query(4, 11, 1.0));
        let report = engine.serve(&queries);
        assert_eq!(report.outcomes.len(), 5);
        let waves = tel.requests.waves();
        assert_eq!((waves[0].width, waves[0].devices), (4, 4));
        let last = waves.last().unwrap();
        assert_eq!((last.width, last.devices), (1, 1));
        // Every device's first partials readback carries one query's
        // blocks: one query per device.
        let one_query = (per_query * std::mem::size_of::<f64>()) as u64;
        let first: Vec<(String, u64)> = ledger
            .spans()
            .into_iter()
            .filter(|s| s.wave == Some(waves[0].wave) && s.name == "serve_partials_d2h")
            .map(|s| (s.device, s.counters.dtoh_bytes))
            .collect();
        assert_eq!(first.len(), 4);
        assert_eq!(
            first.iter().map(|(d, _)| d).collect::<BTreeSet<_>>().len(),
            4
        );
        assert!(first.iter().all(|&(_, bytes)| bytes == one_query));
    }

    /// Sparse arrivals pin every query to device 0 of a four-device
    /// engine, which then runs exactly the one-device engine's width-1
    /// waves: latencies, scores, wave records and device time match bit
    /// for bit, and no wave pays a hand-off.
    #[test]
    fn width_one_trace_on_four_devices_matches_one_device_bitwise() {
        let g = graph(500, 213);
        let queries: Vec<Query> = (0..5)
            .map(|id| query(id, (id as usize * 31) % 500, id as f64))
            .collect();
        let run = |n_devices| {
            let mut engine = ServeEngine::new(
                &g,
                ServeConfig {
                    max_batch: 8,
                    n_devices,
                    keep_scores: true,
                    ..ServeConfig::default()
                },
            );
            let tel = Arc::new(acsr_telemetry::Telemetry::new());
            engine.attach_telemetry(tel.clone());
            let report = engine.serve_slo(&queries, &SloPolicy::open_loop(0.05, 8, 64));
            (report, tel.requests.waves())
        };
        let (one, one_waves) = run(1);
        let (four, four_waves) = run(4);
        assert!(four.wave_widths.iter().all(|&w| w == 1));
        assert_eq!(four_waves, one_waves);
        assert_eq!(four.makespan_s.to_bits(), one.makespan_s.to_bits());
        assert_eq!(four.outcomes.len(), 5);
        for (a, b) in one.outcomes.iter().zip(&four.outcomes) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.iterations, b.iterations);
            assert_eq!(a.admitted_s.to_bits(), b.admitted_s.to_bits());
            assert_eq!(a.completed_s.to_bits(), b.completed_s.to_bits());
            assert_eq!(a.scores, b.scores, "query {}", a.id);
        }
        let (d0, d0_four) = (&one.device_reports[0], &four.device_reports[0]);
        assert_eq!(d0.time_s.to_bits(), d0_four.time_s.to_bits());
        assert_eq!(d0.launches, d0_four.launches);
        assert!(four.device_reports[1..].iter().all(|r| r.launches == 0));
    }

    /// A lone query rides one discarded wave past its last checked
    /// iterate, whose partials are never read: it reads back one set of
    /// partials per iteration and its scores once, and the copy engine
    /// runs those readbacks beside its waves, so its latency is below
    /// the device's busy time.
    #[test]
    fn a_lone_query_rides_one_discarded_wave() {
        let g = graph(300, 218);
        let mut engine = ServeEngine::new(&g, ServeConfig::default());
        let ledger = engine.enable_tracing();
        let report = engine.serve(&[query(0, 5, 0.0)]);
        let o = &report.outcomes[0];
        let dev = &report.device_reports[0];
        assert_eq!(report.wave_widths, vec![1; o.iterations + 1]);
        let waves = launches_since(&ledger, 0)
            .iter()
            .filter(|name| *name == "acsr_spmm")
            .count();
        assert_eq!(waves, o.iterations + 1);
        let elt = std::mem::size_of::<f64>();
        let partials = o.iterations * partials_per_query(&engine) * elt;
        assert_eq!(dev.counters.dtoh_bytes, (partials + 300 * elt) as u64);
        assert!(
            o.latency_s() < dev.time_s,
            "{} vs {}",
            o.latency_s(),
            dev.time_s
        );
        assert!(report.makespan_s >= o.completed_s);
    }

    /// Names of the top-level launches `ledger` recorded since span
    /// `from`.
    fn launches_since(ledger: &TraceLedger, from: usize) -> Vec<String> {
        ledger.spans()[from..]
            .iter()
            .filter(|s| s.kind == gpu_sim::SpanKind::Launch)
            .map(|s| s.name.clone())
            .collect()
    }

    /// An ACSR wave, static-tail or DP mode, runs the RWR update as the
    /// epilogue of its `acsr_spmm` launch group: one launch per wave,
    /// plus `rwr_init` on an admission wave, and no `rwr_update`. A HYB
    /// plan keeps the two-launch wave, and its wave report equals a
    /// direct `spmv_multi` + `rwr_update_multi` over the same iterates.
    #[test]
    fn fused_waves_launch_one_group_and_other_plans_keep_the_update() {
        let g = graph(400, 221);
        let dp = AcsrConfig::for_device(&presets::gtx_titan());
        assert_eq!(dp.mode, acsr::AcsrMode::DynamicParallelism);
        for format in [
            ShardFormat::Acsr(AcsrConfig::static_long_tail()),
            ShardFormat::Acsr(dp),
            ShardFormat::Fixed("HYB"),
        ] {
            let fused = matches!(format, ShardFormat::Acsr(_));
            let mut engine = ServeEngine::new(
                &g,
                ServeConfig {
                    format: format.clone(),
                    ..ServeConfig::default()
                },
            );
            let ledger = engine.enable_tracing();
            let mut reports = vec![RunReport::default()];
            let mut wave = pinned(&engine, &[3, 17, 250], &[0, 0, 0]);
            engine.launch(&mut wave, &mut reports);
            let admission = launches_since(&ledger, 0);

            // The next wave, and the same iteration run directly.
            let (dev, plan, n) = (&engine.devices[0], &engine.plans[0], engine.rows());
            let mark = ledger.spans().len();
            let xs: Vec<&DeviceBuffer<f64>> = wave.iter().map(|a| &a.r).collect();
            let (c, restart) = rwr_coefficients(wave.iter().map(|a| &a.q));
            let affine = Affine {
                c: &c,
                restart: &restart,
            };
            let per_query = n.div_ceil(gpu_sim::WARP);
            let partials = dev.alloc_zeroed::<f64>(xs.len() * per_query);
            let tmps: Vec<_> = xs.iter().map(|_| dev.alloc_zeroed::<f64>(n)).collect();
            let tr: Vec<_> = tmps.iter().collect();
            let direct = plan.spmv_multi(dev, &xs, &tr);
            let outs: Vec<_> = xs.iter().map(|_| dev.alloc_zeroed::<f64>(n)).collect();
            let or: Vec<_> = outs.iter().collect();
            let conv = spmv_kernels::epilogue::Convergence {
                prev: &xs,
                partials: &partials,
            };
            let update =
                spmv_kernels::epilogue::rwr_update_multi(dev, &tr, &affine, &or, Some(&conv));
            let direct = direct.then(&update);
            let direct_launches = launches_since(&ledger, mark);
            drop(xs);
            let mark = ledger.spans().len();
            let mut step = vec![RunReport::default()];
            engine.launch(&mut wave, &mut step);
            let steady = launches_since(&ledger, mark);

            let what = format!("{format:?}");
            if fused {
                assert_eq!(admission, ["rwr_init", "acsr_spmm"], "{what}");
                assert_eq!(steady, ["acsr_spmm"], "{what}");
            } else {
                assert_eq!(admission.first().map(String::as_str), Some("rwr_init"));
                assert_eq!(admission.last().map(String::as_str), Some("rwr_update"));
                assert_eq!(steady, direct_launches, "{what}");
                assert_eq!(steady.last().map(String::as_str), Some("rwr_update"));
                assert_eq!(step[0].counters, direct.counters, "{what}");
                assert_eq!(step[0].launches, direct.launches, "{what}");
                assert_eq!(step[0].time_s.to_bits(), direct.time_s.to_bits(), "{what}");
            }
            // Fused or not, the iterates are the direct path's.
            for (a, out) in wave.iter().zip(&outs) {
                assert_eq!(a.r.as_slice(), out.as_slice(), "{what}: query {}", a.q.id);
            }
        }
    }

    /// A query rides waves until its `max_iters`-th, so a cap of zero
    /// would admit queries that never ride one.
    #[test]
    #[should_panic(expected = "max_iters must be at least 1")]
    fn zero_iteration_cap_is_rejected_at_construction() {
        let iter = IterParams {
            max_iters: 0,
            ..IterParams::default()
        };
        ServeEngine::new(
            &graph(100, 222),
            ServeConfig {
                iter,
                ..ServeConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "BatchPolicy::Adaptive needs min <= max (min = 8, max = 4)")]
    fn inverted_adaptive_batch_policy_is_rejected_at_entry() {
        let g = graph(100, 219);
        let engine = ServeEngine::new(&g, ServeConfig::default());
        let mut policy = SloPolicy::open_loop(1e-3, 4, 16);
        policy.batch = BatchPolicy::Adaptive { min: 8, max: 4 };
        engine.serve_slo(&[query(0, 1, 0.0)], &policy);
    }

    #[test]
    fn batching_improves_throughput_on_saturated_load() {
        let g = graph(600, 205);
        let qps = |max_batch: usize| {
            let engine = ServeEngine::new(
                &g,
                ServeConfig {
                    max_batch,
                    queue_capacity: 64,
                    ..ServeConfig::default()
                },
            );
            engine
                .serve_generated(saturated(16), 16, 0.85, 19)
                .throughput_qps()
        };
        let serial = qps(1);
        let batched = qps(8);
        assert!(
            batched > serial * 1.5,
            "batched {batched} vs serial {serial}"
        );
    }
}
