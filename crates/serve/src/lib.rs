//! # acsr-serve — batched multi-query SpMV serving
//!
//! The paper evaluates ACSR one SpMV at a time; a deployed graph
//! service answers many personalized queries (RWR/PPR, §VI-C Eq. 8)
//! concurrently against one shared graph. This crate models that
//! serving path on the simulated SIMT substrate:
//!
//! * [`loadgen`] — seeded open-loop arrival traces: steady Poisson,
//!   diurnal rate curves, bursty clumps, and adversarial hot-key
//!   streams, plus tenant-mix assignment;
//! * [`queue`] — a bounded submission queue that sheds overload at each
//!   offer's true arrival-time occupancy;
//! * [`scheduler`] — a continuous-batching engine: each *wave* runs one
//!   RWR iteration for every active query as a single multi-vector
//!   ACSR SpMM (amortizing launch floors and row-structure reads across
//!   the batch), retires converged queries, and refills their slots.
//!   Each query is pinned at admission to one device, which holds a
//!   full-graph plan, and its iterate stays there until it retires: a
//!   wave reads back only convergence partials and the retiring
//!   queries' scores, on each device's copy engine while the next wave
//!   runs. Admission is event-driven — arrivals are offered at their
//!   true arrival times, never batch-admitted at wave boundaries;
//! * [`slo`] — open-loop serving policy: SLO targets, deadline
//!   shedding and queue-depth-adaptive batch sizing
//!   ([`ServeEngine::serve_slo`](scheduler::ServeEngine::serve_slo));
//! * [`tenant`] — per-tenant priority classes and exact-integer
//!   weighted fair-share admission;
//! * [`latency`] — p50/p95/p99 latency accounting and SLO-attainment
//!   helpers over the virtual model clock;
//! * [`churn`] — serving concurrent with operator maintenance on one
//!   clock: a [`churn::ChurnSource`] (e.g. `acsr-stream`'s maintained
//!   engine) preempts wave formation with due maintenance events, so
//!   query latency includes streaming-update contention.
//!
//! Batching never changes answers: per vector, the batched kernels run
//! exactly the single-vector float-op sequence, so every query's scores
//! and iteration count are bit-identical to a dedicated single-query
//! run — whatever the batch width or device count. See
//! [`scheduler::ServeEngine`].

pub mod churn;
pub mod latency;
pub mod loadgen;
pub mod query;
pub mod queue;
pub mod scheduler;
pub mod slo;
mod telemetry;
pub mod tenant;

pub use churn::{
    serve_with_churn, ChurnServeConfig, ChurnServeReport, ChurnSource, SteadyOperator,
};
pub use latency::LatencyStats;
pub use loadgen::{assign_tenants, generate_queries, ArrivalPattern};
pub use query::{Query, QueryOutcome};
pub use queue::SubmissionQueue;
pub use scheduler::{ServeConfig, ServeEngine, ServeReport};
pub use slo::{BatchPolicy, SloPolicy};
pub use tenant::{FairShare, TenantSpec, TenantTable};
