//! The N-device sharded fleet executor — the crate's one multi-device
//! executor, with two ways of placing `x` ([`Placement`]).
//!
//! - [`Placement::Resident`]: each device holds only its shard (owned
//!   rows plus replicated hot rows), and between iterations the shards
//!   exchange exactly the remote `x` entries their peers computed. The
//!   exchange is explicit and event-scheduled ([`crate::halo`]): each
//!   `(owner → shard)` payload is ready the instant its producer's
//!   compute finishes and rides either its own transfer (direct) or the
//!   routed Bruck messages, whichever schedule ends first, FIFO per
//!   egress/ingress engine — so transfers from early-finishing devices
//!   hide under the slowest device's compute.
//! - [`Placement::Replicated`]: the paper's §VIII setup. Every device
//!   reads a full copy of `x`, so no replicas and no halo sets exist;
//!   the closing exchange is one zero-byte completion signal per
//!   participating device to the host sink, serialized on the host's
//!   ingress — the synchronization the paper's small matrices cannot
//!   amortize.
//!
//! Every phase runs through one per-shard driver: it skips empty
//! shards, collects one report per device, and closes with the
//! placement's exchange. The §VIII completion hand-off is [`handoff`],
//! which the serving engine's multi-device waves also close with.
//!
//! Each shard plans its own format: binned sharding reshapes every
//! shard's row-length distribution, so a dense shard may plan ELL/HYB
//! while a skewed shard keeps ACSR ([`ShardFormat::Adaptive`]).
//!
//! Values stay bit-identical to the single-device reference: a row is
//! computed from the full-precision `x` with its in-row accumulation
//! order unchanged by sharding, and only the *owner's* computation
//! writes the global result (replicas feed local reuse only).

use crate::halo::{ns, schedule_exchange, EdgeSpec, ExchangeReport, HaloPlan, LinkModel, Payload};
use crate::partition::{partition_fleet, partition_replicated, FleetPartition, ReplicationPolicy};
use crate::record_device_gauges;
use acsr::AcsrConfig;
use acsr_telemetry::MetricsRegistry;
use gpu_sim::trace::TraceLedger;
use gpu_sim::{Device, DeviceConfig, RunReport};
use sparse_formats::{CsrMatrix, Scalar};
use spmv_kernels::GpuSpmv;
use spmv_pipeline::{
    AcsrPlanner, AdaptiveSelector, FormatRegistry, PlanBudget, SpmvPlan, SpmvPlanner,
};
use std::sync::Arc;

/// Per-device completion hand-off of a [`Placement::Replicated`] phase
/// (the device's end-of-phase barrier signal, processed serially by the
/// host), seconds. Two balanced devices reproduce a flat 20 µs sync; an
/// early finisher's hand-off overlaps the slow device's compute instead.
const HANDOFF_S: f64 = 10e-6;

/// The §VIII completion hand-off closing a phase in which device `d`
/// finished at `finishes[d]` seconds (`None` = sat out): one zero-byte
/// signal per participating device to the host sink (node
/// `finishes.len()`), ready at its finish and serialized on the host's
/// ingress. A phase on a single device needs no barrier at all. Nothing
/// is charged to any device. [`Placement::Replicated`] phases and the
/// serving engine's multi-device waves both close with it.
pub fn handoff(finishes: &[Option<f64>]) -> ExchangeReport {
    let n = finishes.len();
    let edges: Vec<EdgeSpec> = finishes
        .iter()
        .enumerate()
        .filter_map(|(d, f)| {
            f.map(|t| EdgeSpec {
                src: d,
                dst: n,
                entries: 0,
                bytes: 0,
                ready_ns: ns(t),
            })
        })
        .collect();
    if edges.len() < 2 {
        return ExchangeReport::empty(n);
    }
    schedule_exchange(n, &edges, &LinkModel::signal(HANDOFF_S))
}

/// How each shard's executable format is chosen.
#[derive(Clone, Debug)]
pub enum ShardFormat {
    /// Every shard runs ACSR with this configuration (the §VIII
    /// static long-tail setup scaled out).
    Acsr(AcsrConfig),
    /// Every shard runs one fixed registry format ("HYB", "ELL", ...).
    Fixed(&'static str),
    /// Run the [`AdaptiveSelector`] per shard with this amortization
    /// horizon: shards pick the format their own row-length
    /// distribution favors.
    Adaptive {
        /// Expected SpMV applications the plan amortizes over.
        horizon: u64,
    },
}

impl ShardFormat {
    /// Plan `m` on `dev` per this choice; returns the plan and the
    /// name of the format it executes. Panics when the plan does not
    /// fit the device.
    pub fn plan<T: Scalar>(&self, dev: &Device, m: &CsrMatrix<T>) -> (SpmvPlan<T>, String) {
        let budget = PlanBudget::for_device(dev.config());
        match self {
            ShardFormat::Acsr(acsr_cfg) => {
                let plan = AcsrPlanner::with_config(*acsr_cfg)
                    .plan(dev, m, &budget)
                    .expect("shard ACSR plan must fit the device");
                (plan, "ACSR".to_string())
            }
            ShardFormat::Fixed(name) => {
                let plan = FormatRegistry::<T>::with_all()
                    .plan(name, dev, m, &budget)
                    .expect("shard plan must fit the device");
                (plan, name.to_string())
            }
            ShardFormat::Adaptive { horizon } => {
                let mut reg = FormatRegistry::<T>::with_all();
                reg.register(Box::new(AcsrPlanner::with_config(
                    AcsrConfig::static_long_tail(),
                )));
                let budget = budget.with_iterations(*horizon);
                let sel = AdaptiveSelector.select(&reg, dev, m, &budget);
                (sel.plan, sel.winner)
            }
        }
    }
}

/// Where the input vector `x` lives, and so what closes each phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Placement {
    /// Each device holds its shard of `x`; remote entries ride an
    /// event-scheduled halo exchange over `link`, minus the hot rows
    /// `replication` recomputes locally.
    Resident {
        /// Interconnect class the halo exchange rides.
        link: LinkModel,
        /// Hot-row replication policy.
        replication: ReplicationPolicy,
    },
    /// Every device reads the full `x` (paper §VIII); each phase closes
    /// with one completion hand-off per participating device.
    Replicated,
}

/// Fleet construction knobs.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Simulated devices.
    pub n_devices: usize,
    /// Placement of `x` and the exchange it implies.
    pub placement: Placement,
    /// Per-shard format choice.
    pub format: ShardFormat,
}

impl FleetConfig {
    /// ACSR on every shard, resident `x` over PCIe-class links, default
    /// replication.
    pub fn new(n_devices: usize) -> FleetConfig {
        FleetConfig {
            n_devices,
            placement: Placement::Resident {
                link: LinkModel::pcie(),
                replication: ReplicationPolicy::default(),
            },
            format: ShardFormat::Acsr(AcsrConfig::static_long_tail()),
        }
    }

    /// Same, with the NVLink-class interconnect.
    pub fn nvlink(n_devices: usize) -> FleetConfig {
        FleetConfig {
            placement: Placement::Resident {
                link: LinkModel::nvlink(),
                replication: ReplicationPolicy::default(),
            },
            ..FleetConfig::new(n_devices)
        }
    }

    /// The paper's §VIII setup: ACSR on every shard, `x` replicated.
    pub fn replicated(n_devices: usize) -> FleetConfig {
        FleetConfig {
            placement: Placement::Replicated,
            ..FleetConfig::new(n_devices)
        }
    }
}

/// One fleet phase's timing: per-device accounting, the compute phase,
/// and the scheduled exchange.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Per-device kernel + halo-ingress accounting (busy time).
    pub per_device: Vec<RunReport>,
    /// Per-device compute seconds (before any exchange transfer).
    pub compute: Vec<f64>,
    /// The scheduled exchange: halo transfers, or completion hand-offs.
    pub exchange: ExchangeReport,
    /// Format each shard executed ("-" for an empty shard).
    pub formats: Vec<String>,
    /// Hot rows computed redundantly somewhere in the fleet.
    pub replicated_rows: usize,
}

impl FleetReport {
    /// Compute-phase makespan: the slowest device's kernel time.
    pub fn compute_s(&self) -> f64 {
        self.compute.iter().fold(0.0, |a, &b| a.max(b))
    }

    /// Modeled wall time: the compute makespan or the last exchange
    /// transfer's completion, whichever lands later. Transfers that
    /// finished while a slower device still computed cost nothing.
    pub fn seconds(&self) -> f64 {
        self.compute_s().max(self.exchange.end_s())
    }

    /// Seconds the exchange extends past compute (0.0 when it hid).
    pub fn exchange_tail_s(&self) -> f64 {
        self.exchange.tail_s(self.compute_s())
    }

    /// Bytes this phase moved over device links: a routed payload counts
    /// once per hop, so this is at least the delivered halo payload
    /// ([`ExchangeReport::payload_bytes`]) and equals it under the
    /// direct schedule.
    pub fn halo_bytes(&self) -> u64 {
        self.exchange.total_bytes()
    }

    /// GFLOP/s for `flops` useful operations; 0.0 for a phase of zero
    /// modeled time (an empty matrix).
    pub fn gflops(&self, flops: u64) -> f64 {
        let seconds = self.seconds();
        if seconds > 0.0 {
            flops as f64 / seconds / 1e9
        } else {
            0.0
        }
    }
}

/// An N-device sharded SpMV executor (see the module docs).
pub struct Fleet<T: Scalar> {
    devices: Vec<Device>,
    /// `None` for empty shards (more devices than rows can feed).
    plans: Vec<Option<SpmvPlan<T>>>,
    partition: FleetPartition,
    /// The resident halo's payloads and Bruck route (empty when `x` is
    /// replicated).
    halo: HaloPlan,
    /// `compute_rows[d][local] = global` for every computed row.
    compute_rows: Vec<Vec<u32>>,
    formats: Vec<String>,
    placement: Placement,
    rows: usize,
    cols: usize,
    nnz: usize,
}

impl<T: Scalar> Fleet<T> {
    /// Shard `m` across `cfg.n_devices` copies of `device_cfg` and plan
    /// every shard per `cfg.format`.
    pub fn new(m: &CsrMatrix<T>, device_cfg: &DeviceConfig, cfg: &FleetConfig) -> Fleet<T> {
        assert!(cfg.n_devices >= 1, "need at least one device");
        let partition = match &cfg.placement {
            Placement::Resident { replication, .. } => {
                partition_fleet(m, cfg.n_devices, replication)
            }
            Placement::Replicated => partition_replicated(m, cfg.n_devices),
        };
        let mut devices = Vec::with_capacity(cfg.n_devices);
        let mut plans = Vec::with_capacity(cfg.n_devices);
        let mut compute_rows = Vec::with_capacity(cfg.n_devices);
        let mut formats = Vec::with_capacity(cfg.n_devices);
        for shard in &partition.shards {
            let mut dc = device_cfg.clone();
            if cfg.n_devices > 1 {
                dc.name = format!("{} #{}", dc.name, shard.device);
            }
            let dev = Device::new(dc);
            let rows = shard.compute_rows();
            if rows.is_empty() {
                plans.push(None);
                formats.push("-".to_string());
            } else {
                let (plan, format) = cfg.format.plan(&dev, &crate::extract_rows(m, &rows));
                plans.push(Some(plan));
                formats.push(format);
            }
            compute_rows.push(rows);
            devices.push(dev);
        }
        let elt = std::mem::size_of::<T>() as u64;
        let halo = HaloPlan::new(partition.shards.iter().flat_map(|shard| {
            shard.halo_in.iter().map(|(owner, rows)| Payload {
                owner: *owner,
                dst: shard.device,
                entries: rows.len(),
                bytes: rows.len() as u64 * elt,
            })
        }));
        Fleet {
            devices,
            plans,
            partition,
            halo,
            compute_rows,
            formats,
            placement: cfg.placement,
            rows: m.rows(),
            cols: m.cols(),
            nnz: m.nnz(),
        }
    }

    /// Number of devices.
    pub fn n_devices(&self) -> usize {
        self.devices.len()
    }

    /// Global rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Global columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Stored non-zeros (owned, without replication redundancy).
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The sharding (owned rows, replicas, halo edges).
    pub fn partition(&self) -> &FleetPartition {
        &self.partition
    }

    /// Format each shard executes ("-" for an empty shard).
    pub fn formats(&self) -> &[String] {
        &self.formats
    }

    /// Per-device computed nnz (owned + replicas; load diagnostics).
    pub fn device_nnz(&self) -> Vec<usize> {
        self.partition.shards.iter().map(|s| s.nnz).collect()
    }

    /// Attach one shared trace ledger to every device and return it:
    /// subsequent phases record per-device kernel spans *and* per-edge
    /// halo transfer spans (on the receiving device's lane), so the
    /// chrome-trace export shows the exchange.
    pub fn enable_tracing(&mut self) -> Arc<TraceLedger> {
        let ledger = Arc::new(TraceLedger::new());
        for dev in &mut self.devices {
            dev.attach_ledger(ledger.clone());
        }
        ledger
    }

    /// Run `y = A * x` across the fleet; `y` must have `rows` slots.
    ///
    /// Every non-empty shard runs its plan over the full-value `x`; the
    /// owner's result is written to `y` bit-identically to the
    /// single-device plan. The placement's exchange then closes the
    /// phase.
    pub fn spmv(&self, x: &[T], y: &mut [T]) -> FleetReport {
        assert_eq!(x.len(), self.cols, "x length mismatch");
        assert_eq!(y.len(), self.rows, "y length mismatch");
        let owner = &self.partition.owner;
        self.drive(|d, dev, plan, rows| {
            let xd = dev.alloc(x.to_vec());
            let yd = dev.alloc_zeroed::<T>(plan.rows());
            let rep = plan.spmv(dev, &xd, &yd);
            let local = yd.as_slice();
            for (l, &g) in rows.iter().enumerate() {
                if owner[g as usize] as usize == d {
                    y[g as usize] = local[l];
                }
            }
            rep
        })
    }

    /// The per-shard driver: run `step(d, device, plan, rows)` on every
    /// non-empty shard in device order (`rows[local] = global` row of
    /// the shard's plan), then close the phase with the placement's
    /// exchange ([`Self::finish`]).
    fn drive(
        &self,
        mut step: impl FnMut(usize, &Device, &SpmvPlan<T>, &[u32]) -> RunReport,
    ) -> FleetReport {
        let ran = self
            .plans
            .iter()
            .enumerate()
            .map(|(d, plan)| {
                let plan = plan.as_ref()?;
                Some(step(d, &self.devices[d], plan, &self.compute_rows[d]))
            })
            .collect();
        self.finish(ran)
    }

    /// Close a compute phase in which device `d` ran `ran[d]` (`None`
    /// when it sat out): schedule the placement's exchange, charge each
    /// device-bound transfer to its receiver (recording a trace span),
    /// and assemble the phase report.
    fn finish(&self, ran: Vec<Option<RunReport>>) -> FleetReport {
        assert_eq!(ran.len(), self.devices.len(), "one entry per device");
        let finishes: Vec<Option<f64>> = ran.iter().map(|r| r.as_ref().map(|r| r.time_s)).collect();
        let exchange = self.exchange(&finishes);
        let mut per_device: Vec<RunReport> =
            ran.into_iter().map(Option::unwrap_or_default).collect();
        for t in exchange
            .transfers
            .iter()
            .filter(|t| t.dst < self.devices.len())
        {
            let rep = self.devices[t.dst].record_peer_recv(
                &format!("halo_{}to{}", t.src, t.dst),
                t.bytes,
                t.dur_s(),
            );
            per_device[t.dst] = per_device[t.dst].clone().then(&rep);
        }
        FleetReport {
            per_device,
            compute: finishes.iter().map(|f| f.unwrap_or(0.0)).collect(),
            exchange,
            formats: self.formats.clone(),
            replicated_rows: self.partition.hot_rows.len(),
        }
    }

    /// The placement's closing exchange for a phase whose devices
    /// finished computing at `finishes[d]` seconds (`None` = sat out),
    /// scheduled on the interconnect ([`crate::halo`]) without charging
    /// any device.
    ///
    /// - `Resident`: one payload per `(owner → shard)` pair carrying one
    ///   iterate's entries, ready at the owner's finish, shipped by the
    ///   direct or the routed schedule, whichever ends first
    ///   ([`HaloPlan::schedule`]).
    /// - `Replicated`: the completion [`handoff`].
    fn exchange(&self, finishes: &[Option<f64>]) -> ExchangeReport {
        match &self.placement {
            Placement::Resident { link, .. } => {
                let ready: Vec<u64> = finishes.iter().map(|f| ns(f.unwrap_or(0.0))).collect();
                self.halo.schedule(&ready, link)
            }
            Placement::Replicated => handoff(finishes),
        }
    }
}

/// Fold one fleet SpMV into `metrics` under `prefix`: the shared
/// per-device busy/idle/utilization gauges
/// ([`record_device_gauges`]), per-device link traffic counters
/// (`<prefix>.<d>.halo_send_bytes` / `halo_recv_bytes`), the exchange's
/// message and delivered-payload counters (`<prefix>.exchange_messages`,
/// `<prefix>.exchange_payload_bytes`), and the exchange phase gauges
/// (`<prefix>.exchange_s`, `<prefix>.exchange_direct_s` — where the
/// direct schedule would have ended — `<prefix>.exchange_tail_s`,
/// `<prefix>.replicated_rows`).
pub fn record_fleet_metrics(metrics: &MetricsRegistry, prefix: &str, report: &FleetReport) {
    record_device_gauges(metrics, prefix, &report.per_device, report.seconds());
    for d in 0..report.per_device.len() {
        metrics.add(
            &format!("{prefix}.{d}.halo_send_bytes"),
            report.exchange.send_bytes[d],
        );
        metrics.add(
            &format!("{prefix}.{d}.halo_recv_bytes"),
            report.exchange.recv_bytes[d],
        );
    }
    metrics.add(
        &format!("{prefix}.exchange_messages"),
        report.exchange.messages() as u64,
    );
    metrics.add(
        &format!("{prefix}.exchange_payload_bytes"),
        report.exchange.payload_bytes,
    );
    metrics.set_gauge(&format!("{prefix}.exchange_s"), report.exchange.end_s());
    metrics.set_gauge(
        &format!("{prefix}.exchange_direct_s"),
        report.exchange.direct_end_s(),
    );
    metrics.set_gauge(
        &format!("{prefix}.exchange_tail_s"),
        report.exchange_tail_s(),
    );
    metrics.set_gauge(
        &format!("{prefix}.replicated_rows"),
        report.replicated_rows as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::halo::{self, Schedule};
    use gpu_sim::presets;
    use graphgen::{generate_power_law, PowerLawConfig};

    fn matrix(rows: usize, seed: u64) -> CsrMatrix<f64> {
        generate_power_law(&PowerLawConfig {
            rows,
            cols: rows,
            mean_degree: 10.0,
            max_degree: 1200,
            pinned_max_rows: 2,
            col_skew: 0.4,
            seed,
            ..Default::default()
        })
    }

    /// Both placements answer exactly at every width (1 through 8, which
    /// covers the paper's dual split and a four-way replicated split);
    /// only the resident placement moves halo bytes, and the replicated
    /// one ships exactly one zero-byte hand-off per device to the host.
    #[test]
    fn fleet_matches_reference_at_many_widths() {
        let m = matrix(4000, 301);
        let x: Vec<f64> = (0..m.cols()).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
        let want = m.spmv(&x);
        for n in [1usize, 2, 3, 4, 5, 8] {
            for cfg in [FleetConfig::new(n), FleetConfig::replicated(n)] {
                let fleet = Fleet::new(&m, &presets::tesla_k10_single(), &cfg);
                let mut y = vec![0.0; m.rows()];
                let rep = fleet.spmv(&x, &mut y);
                let what = format!("{n} devices, {:?}", cfg.placement);
                let d = sparse_formats::scalar::rel_l2_distance(&y, &want);
                assert!(d < 1e-12, "{what}: rel distance {d}");
                assert_eq!(rep.per_device.len(), n);
                assert!(rep.seconds() > 0.0);
                if n == 1 {
                    assert!(
                        rep.exchange.transfers.is_empty(),
                        "{what}: no self-exchange"
                    );
                } else if cfg.placement == Placement::Replicated {
                    assert_eq!(rep.exchange.transfers.len(), n, "{what}");
                    assert!(rep
                        .exchange
                        .transfers
                        .iter()
                        .all(|t| t.dst == n && t.bytes == 0));
                    assert_eq!(rep.replicated_rows, 0);
                } else {
                    assert!(rep.halo_bytes() > 0, "{what}: must exchange");
                }
                if n == 1 || cfg.placement == Placement::Replicated {
                    assert_eq!(rep.halo_bytes(), 0, "{what}");
                }
                assert!(
                    rep.exchange.end_ns <= rep.exchange.direct_end_ns,
                    "{what}: the kept schedule never ends after direct"
                );
            }
        }
    }

    #[test]
    fn replicated_split_is_roughly_half_the_nnz() {
        let m = matrix(6000, 172);
        let fleet = Fleet::new(
            &m,
            &presets::tesla_k10_single(),
            &FleetConfig::replicated(2),
        );
        let shares = fleet.device_nnz();
        assert_eq!(shares.iter().sum::<usize>(), m.nnz(), "no replicas");
        let ratio = shares[0] as f64 / shares[1] as f64;
        assert!(
            (0.8..1.25).contains(&ratio),
            "nnz split {shares:?} (ratio {ratio})"
        );
        assert!(fleet
            .partition()
            .shards
            .iter()
            .all(|s| s.halo_in.is_empty()));
    }

    #[test]
    fn replicated_large_matrix_scales_small_matrix_does_not() {
        let big = matrix(60_000, 173);
        let small = matrix(2048, 174);
        let speedup = |m: &CsrMatrix<f64>| {
            let x: Vec<f64> = (0..m.cols()).map(|_| 1.0).collect();
            let mut y = vec![0.0; m.rows()];
            let k10 = presets::tesla_k10_single();
            let t1 = Fleet::new(m, &k10, &FleetConfig::replicated(1))
                .spmv(&x, &mut y)
                .seconds();
            let t2 = Fleet::new(m, &k10, &FleetConfig::replicated(2))
                .spmv(&x, &mut y)
                .seconds();
            t1 / t2
        };
        let s_big = speedup(&big);
        let s_small = speedup(&small);
        assert!(s_big > 1.4, "big-matrix speedup {s_big}");
        assert!(
            s_small < s_big,
            "small {s_small} should scale worse than big {s_big}"
        );
    }

    #[test]
    fn replicated_fleet_runs_any_registry_format() {
        let m = matrix(3000, 177);
        let x: Vec<f64> = (0..m.cols()).map(|i| 0.5 + (i % 5) as f64).collect();
        let want = m.spmv(&x);
        for name in ["HYB", "CSR-vector"] {
            let cfg = FleetConfig {
                format: ShardFormat::Fixed(name),
                ..FleetConfig::replicated(2)
            };
            let fleet = Fleet::new(&m, &presets::tesla_k10_single(), &cfg);
            let mut y = vec![0.0; m.rows()];
            let rep = fleet.spmv(&x, &mut y);
            let d = sparse_formats::scalar::rel_l2_distance(&y, &want);
            assert!(d < 1e-12, "{name}: rel distance {d}");
            assert_eq!(rep.formats, vec![name, name], "{name}");
        }
    }

    #[test]
    fn single_replicated_device_has_no_handoff() {
        let m = matrix(2048, 176);
        let fleet = Fleet::new(
            &m,
            &presets::tesla_k10_single(),
            &FleetConfig::replicated(1),
        );
        let x = vec![1.0f64; m.cols()];
        let mut y = vec![0.0; m.rows()];
        let rep = fleet.spmv(&x, &mut y);
        assert!(rep.exchange.transfers.is_empty());
        assert_eq!(rep.exchange_tail_s(), 0.0);
        assert_eq!(rep.seconds(), rep.compute_s());
    }

    /// The §VIII hand-off schedule: an early finisher's hand-off
    /// overlaps the slow device's compute instead of being re-charged
    /// after it (110 µs, where a flat `max + 20 µs` sync says 120 µs),
    /// and balanced finishes serialize both hand-offs on the host.
    #[test]
    fn replicated_handoff_overlaps_slow_device_compute() {
        let m = matrix(2048, 178);
        let mut fleet = Fleet::new(
            &m,
            &presets::tesla_k10_single(),
            &FleetConfig::replicated(2),
        );
        let phase = |t0: f64, t1: f64| {
            let ran = [t0, t1]
                .map(|time_s| {
                    Some(RunReport {
                        time_s,
                        ..Default::default()
                    })
                })
                .to_vec();
            fleet.finish(ran)
        };
        // Skewed finishes: device 1 (40 µs) hands off at 40→50 µs,
        // entirely under device 0's 100 µs of compute. Only device 0's
        // own hand-off extends the phase: 110 µs, not 120 µs.
        let skewed = phase(100e-6, 40e-6);
        assert_eq!(skewed.compute_s(), 100e-6);
        assert!(
            (skewed.seconds() - 110e-6).abs() < 1e-12,
            "{}",
            skewed.seconds()
        );
        assert!((skewed.exchange_tail_s() - HANDOFF_S).abs() < 1e-12);
        // Balanced finishes serialize both hand-offs on the host: the
        // flat 20 µs charge is reproduced exactly.
        let balanced = phase(100e-6, 100e-6);
        assert!(
            (balanced.seconds() - 120e-6).abs() < 1e-12,
            "{}",
            balanced.seconds()
        );
        assert!((balanced.exchange_tail_s() - 2.0 * HANDOFF_S).abs() < 1e-12);
        // A device that sat out sends nothing; one participant alone
        // needs no barrier.
        let alone = fleet.finish(vec![Some(RunReport::default()), None]);
        assert!(alone.exchange.transfers.is_empty());
        // End to end: a dual-device SpMV ships exactly one hand-off per
        // device to the host sink, charged to no device.
        let ledger = fleet.enable_tracing();
        let x = vec![1.0f64; m.cols()];
        let mut y = vec![0.0; m.rows()];
        let rep = fleet.spmv(&x, &mut y);
        assert_eq!(rep.exchange.transfers.len(), 2);
        assert!(rep
            .exchange
            .transfers
            .iter()
            .all(|t| t.dst == 2 && t.bytes == 0));
        assert!(
            rep.exchange_tail_s() > 0.0,
            "hand-offs ready at finish expose a tail"
        );
        assert_eq!(rep.per_device[0].time_s, rep.compute[0]);
        assert!(ledger.spans().iter().all(|s| !s.name.starts_with("halo_")));
        let sched = halo::schedule_exchange(
            2,
            &[0, 1].map(|d| halo::EdgeSpec {
                src: d,
                dst: 2,
                entries: 0,
                bytes: 0,
                ready_ns: halo::ns(rep.compute[d]),
            }),
            &LinkModel::signal(HANDOFF_S),
        );
        assert_eq!(
            rep.exchange, sched,
            "the same scheduler prices the hand-off"
        );
    }

    /// The delivered payload is the partition's halo exactly; link
    /// bytes (which count a routed payload once per hop) balance across
    /// senders, receivers and per-device ingress accounting, and equal
    /// the payload when the direct schedule ran.
    #[test]
    fn halo_bytes_match_partition_bookkeeping() {
        let m = matrix(3000, 302);
        let cfg = FleetConfig::new(4);
        let fleet = Fleet::new(&m, &presets::tesla_k10_single(), &cfg);
        let x = vec![1.0f64; m.cols()];
        let mut y = vec![0.0; m.rows()];
        let rep = fleet.spmv(&x, &mut y);
        let expect: u64 = fleet
            .partition()
            .shards
            .iter()
            .map(|s| s.halo_entries() as u64 * 8)
            .sum();
        assert_eq!(rep.exchange.payload_bytes, expect);
        let send: u64 = rep.exchange.send_bytes.iter().sum();
        let recv: u64 = rep.exchange.recv_bytes.iter().sum();
        assert_eq!(send, rep.halo_bytes());
        assert_eq!(recv, rep.halo_bytes(), "no halo edge targets the host sink");
        // Per-device ingress accounting mirrors the exchange exactly.
        for d in 0..4 {
            assert_eq!(
                rep.per_device[d].counters.htod_bytes,
                rep.exchange.recv_bytes[d]
            );
        }
        let htod: u64 = rep.per_device.iter().map(|r| r.counters.htod_bytes).sum();
        assert_eq!(htod, rep.halo_bytes());
        if rep.exchange.schedule == Schedule::Direct {
            assert_eq!(rep.halo_bytes(), expect);
        } else {
            assert!(rep.halo_bytes() >= expect);
        }
    }

    #[test]
    fn replication_reduces_halo_traffic() {
        let m = matrix(6000, 303);
        let dev = presets::tesla_k10_single();
        let resident = |replication| FleetConfig {
            placement: Placement::Resident {
                link: LinkModel::pcie(),
                replication,
            },
            ..FleetConfig::new(4)
        };
        let with = resident(ReplicationPolicy {
            min_referencing_shards: 2,
            max_row_len: 64,
            max_fraction: 0.10,
        });
        let without = resident(ReplicationPolicy::disabled());
        let x = vec![1.0f64; m.cols()];
        let mut y = vec![0.0; m.rows()];
        let rep_with = Fleet::new(&m, &dev, &with).spmv(&x, &mut y);
        let ya = y.clone();
        let rep_without = Fleet::new(&m, &dev, &without).spmv(&x, &mut y);
        assert_eq!(ya, y, "replication must not change values");
        assert!(rep_with.replicated_rows > 0, "power-law graph has hot rows");
        assert_eq!(rep_without.replicated_rows, 0);
        assert!(
            rep_with.exchange.payload_bytes < rep_without.exchange.payload_bytes,
            "replication {} vs {} halo payload bytes",
            rep_with.exchange.payload_bytes,
            rep_without.exchange.payload_bytes
        );
    }

    #[test]
    fn empty_shards_are_tolerated() {
        // 3 rows over 8 devices: five shards compute nothing, and under
        // either placement they neither compute nor exchange.
        let mut t = sparse_formats::TripletMatrix::<f64>::new(3, 3);
        t.push(0, 1, 1.0).unwrap();
        t.push(1, 2, 2.0).unwrap();
        t.push(2, 0, 3.0).unwrap();
        let m = t.to_csr();
        for cfg in [FleetConfig::new(8), FleetConfig::replicated(8)] {
            let fleet = Fleet::new(&m, &presets::tesla_k10_single(), &cfg);
            let x = vec![2.0f64; 3];
            let mut y = vec![0.0; 3];
            let rep = fleet.spmv(&x, &mut y);
            assert_eq!(y, vec![2.0, 4.0, 6.0]);
            assert_eq!(rep.formats.iter().filter(|f| *f == "-").count(), 5);
            assert_eq!(rep.per_device.len(), 8);
            for (d, f) in rep.formats.iter().enumerate() {
                if f == "-" {
                    assert_eq!(rep.per_device[d].launches, 0, "empty shard {d} computed");
                    assert!(rep
                        .exchange
                        .transfers
                        .iter()
                        .all(|t| t.src != d && t.dst != d));
                }
            }
        }
    }

    /// Empty matrices (no rows, or rows without columns) run on every
    /// placement: `y` is written, no halo moves, and a phase of zero
    /// modeled time reports 0 GFLOP/s rather than 0/0.
    #[test]
    fn degenerate_shapes_report_finite_gflops() {
        for (rows, cols) in [(0usize, 0usize), (0, 5), (5, 0)] {
            let m = sparse_formats::TripletMatrix::<f64>::new(rows, cols).to_csr();
            for cfg in [
                FleetConfig::new(4),
                FleetConfig::replicated(4),
                FleetConfig::nvlink(1),
            ] {
                let what = format!(
                    "{rows}x{cols}, {} devices, {:?}",
                    cfg.n_devices, cfg.placement
                );
                let fleet = Fleet::new(&m, &presets::tesla_k10_single(), &cfg);
                let x = vec![1.0f64; cols];
                let mut y = vec![7.0f64; rows];
                let rep = fleet.spmv(&x, &mut y);
                assert_eq!(y, vec![0.0; rows], "{what}");
                assert_eq!(rep.halo_bytes(), 0, "{what}");
                // Rows without columns still compute (and, replicated,
                // hand off to the host); no rows means no transfer at all.
                assert!(
                    rep.exchange
                        .transfers
                        .iter()
                        .all(|t| t.dst == cfg.n_devices && rows > 0),
                    "{what}: {:?}",
                    rep.exchange.transfers
                );
                let gflops = rep.gflops(2 * m.nnz() as u64);
                assert!(gflops.is_finite(), "{what}: gflops {gflops}");
            }
        }
    }

    #[test]
    fn fleet_metrics_fold_halo_and_utilization() {
        let m = matrix(2000, 304);
        let fleet = Fleet::new(&m, &presets::tesla_k10_single(), &FleetConfig::new(2));
        let x = vec![1.0f64; m.cols()];
        let mut y = vec![0.0; m.rows()];
        let rep = fleet.spmv(&x, &mut y);
        let metrics = MetricsRegistry::new();
        record_fleet_metrics(&metrics, "fleet.device", &rep);
        let snap = metrics.snapshot();
        assert_eq!(
            snap.counter("fleet.device.0.halo_send_bytes"),
            Some(rep.exchange.send_bytes[0])
        );
        assert_eq!(
            snap.counter("fleet.device.1.halo_recv_bytes"),
            Some(rep.exchange.recv_bytes[1])
        );
        assert!(snap.gauge("fleet.device.0.utilization").is_some());
        assert_eq!(
            snap.gauge("fleet.device.exchange_s"),
            Some(rep.exchange.end_s())
        );
        assert_eq!(
            snap.counter("fleet.device.exchange_messages"),
            Some(rep.exchange.messages() as u64)
        );
        assert_eq!(
            snap.counter("fleet.device.exchange_payload_bytes"),
            Some(rep.exchange.payload_bytes)
        );
        assert_eq!(
            snap.gauge("fleet.device.exchange_direct_s"),
            Some(rep.exchange.direct_end_s())
        );
    }

    #[test]
    fn adaptive_shards_may_choose_different_formats() {
        // 3 huge rows + thousands of uniform short rows at 4 devices:
        // the huge rows land in a tail bin with < 4 rows, so some
        // shards see only the uniform body (ELL/HYB territory) while
        // others carry the skewed tail.
        let rows = 4003usize;
        let mut t = sparse_formats::TripletMatrix::<f64>::new(rows, rows);
        for r in 0..3usize {
            for c in 0..1500usize {
                t.push(r, (r * 7 + c * 2) % rows, 1.0 + c as f64 * 0.01)
                    .unwrap();
            }
        }
        for r in 3..rows {
            for j in 0..8usize {
                t.push(r, (r * 13 + j * 97) % rows, 0.5 + j as f64).unwrap();
            }
        }
        let m = t.to_csr();
        let mut cfg = FleetConfig::new(4);
        cfg.format = ShardFormat::Adaptive { horizon: 1000 };
        let fleet = Fleet::new(&m, &presets::gtx_titan(), &cfg);
        let mut distinct: Vec<&String> = fleet.formats().iter().filter(|f| *f != "-").collect();
        distinct.sort();
        distinct.dedup();
        assert!(
            distinct.len() >= 2,
            "shards should diverge, got {:?}",
            fleet.formats()
        );
        // and the mixed-format fleet still answers correctly
        let x: Vec<f64> = (0..rows).map(|i| 1.0 + (i % 5) as f64 * 0.2).collect();
        let mut y = vec![0.0; rows];
        fleet.spmv(&x, &mut y);
        let d = sparse_formats::scalar::rel_l2_distance(&y, &m.spmv(&x));
        assert!(d < 1e-12, "rel distance {d}");
    }
}
