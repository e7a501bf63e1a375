//! Open-loop serving policy: SLO targets, deadline shedding, and
//! queue-depth-adaptive batch sizing.
//!
//! The closed-loop scheduler of [`crate::scheduler`] answers "how fast
//! can the engine drain a backlog"; a production front-end instead
//! faces an **open loop** — arrivals keep coming at the offered rate
//! whether or not the service keeps up — and is judged by its
//! **SLO-attainment**: the fraction of *offered* queries answered
//! within the latency target. [`SloPolicy`] packages the three levers
//! the front-end has:
//!
//! * **admission** — per-tenant priority tiers and weighted fair shares
//!   ([`crate::tenant`]), applied when a batch slot frees;
//! * **deadline shedding** — a query whose queue wait alone has already
//!   exceeded its tenant's SLO budget cannot possibly meet its target,
//!   so it is dropped at pop time instead of burning a batch slot
//!   (turning certain SLO misses into cheap rejections). An infinite
//!   budget never sheds, so a tenant without a deadline is never
//!   dropped;
//! * **batch sizing** — [`BatchPolicy::Adaptive`] picks each wave's
//!   width from current demand. `BENCH_serve.json` shows the tradeoff
//!   this navigates: on the WIK analog `max_batch` 64 maximizes
//!   queries/sec but its p50 is a third above `max_batch` 16's, so
//!   light load runs narrow (latency-optimal) and a backlog widens
//!   waves toward the throughput-optimal cap.

use crate::tenant::TenantTable;

/// Per-wave batch-width selection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BatchPolicy {
    /// Every wave admits up to `k` queries (the closed-loop behavior).
    Fixed(usize),
    /// Width tracks demand: the next power of two covering the queries
    /// currently in the system (active + queued), capped at `max`.
    /// Light load runs narrow waves for the best per-query latency; a
    /// backlog ramps to `max` for the best drain rate.
    Adaptive {
        /// Widest wave (the SpMM batch cap).
        max: usize,
    },
}

impl BatchPolicy {
    /// Wave-width cap given `demand` queries in the system right now.
    pub fn cap(&self, demand: usize) -> usize {
        match *self {
            BatchPolicy::Fixed(k) => k,
            BatchPolicy::Adaptive { max } => demand.max(1).next_power_of_two().min(max),
        }
    }

    /// Largest width the policy can ever pick.
    pub fn max_width(&self) -> usize {
        match *self {
            BatchPolicy::Fixed(k) => k,
            BatchPolicy::Adaptive { max } => max,
        }
    }
}

/// Open-loop serving policy: how arrivals are admitted, shed, and
/// batched.
#[derive(Clone, Debug)]
pub struct SloPolicy {
    /// Submission-queue capacity; offers beyond it are capacity-shed at
    /// their arrival times.
    pub queue_capacity: usize,
    /// Per-wave batch sizing.
    pub batch: BatchPolicy,
    /// Tenant registry (priorities, shares, SLO budgets). A query whose
    /// queue wait already exceeds its tenant's budget is shed instead of
    /// admitted.
    pub tenants: TenantTable,
}

impl SloPolicy {
    /// An open-loop policy with one default tenant whose SLO budget is
    /// `p99_target_s`: adaptive waves 1..=`max_batch`, deadline shedding
    /// past that budget.
    pub fn open_loop(p99_target_s: f64, max_batch: usize, queue_capacity: usize) -> SloPolicy {
        SloPolicy {
            queue_capacity,
            batch: BatchPolicy::Adaptive { max: max_batch },
            tenants: TenantTable::single(p99_target_s),
        }
    }

    /// The closed-loop scheduler expressed as a policy: fixed waves, no
    /// deadlines, one tenant with an unbounded budget. This is what
    /// [`crate::scheduler::ServeEngine::serve`] runs.
    pub fn closed_loop(max_batch: usize, queue_capacity: usize) -> SloPolicy {
        SloPolicy {
            queue_capacity,
            batch: BatchPolicy::Fixed(max_batch),
            tenants: TenantTable::single(f64::INFINITY),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_cap_tracks_demand_within_bounds() {
        let p = BatchPolicy::Adaptive { max: 64 };
        assert_eq!(p.cap(0), 1, "idle runs one query wide");
        assert_eq!(p.cap(1), 1);
        assert_eq!(p.cap(2), 2);
        assert_eq!(p.cap(3), 4, "next power of two");
        assert_eq!(p.cap(9), 16);
        assert_eq!(p.cap(64), 64);
        assert_eq!(p.cap(500), 64, "backlog caps at max");
        assert_eq!(p.max_width(), 64);
    }

    #[test]
    fn fixed_cap_ignores_demand() {
        let p = BatchPolicy::Fixed(8);
        assert_eq!(p.cap(0), 8);
        assert_eq!(p.cap(1000), 8);
        assert_eq!(p.max_width(), 8);
    }

    #[test]
    fn policy_constructors_wire_the_knobs() {
        let open = SloPolicy::open_loop(0.25, 32, 128);
        assert_eq!(open.batch, BatchPolicy::Adaptive { max: 32 });
        assert_eq!(open.tenants.spec(0).slo_s, 0.25);
        let closed = SloPolicy::closed_loop(16, 64);
        assert_eq!(closed.batch, BatchPolicy::Fixed(16));
        assert_eq!(closed.tenants.spec(7).slo_s, f64::INFINITY);
    }
}
