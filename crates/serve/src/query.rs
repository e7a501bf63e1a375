//! Queries and per-query outcomes.

use serde::{Deserialize, Serialize};
use sparse_formats::Scalar;
use spmv_kernels::Restart;

/// One personalized random-walk-with-restart query: "relevance of every
/// node to `seed`", the per-user question a PPR service answers.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Query {
    /// Caller-assigned id (stable across scheduling).
    pub id: u64,
    /// Seed node of the walk.
    pub seed: usize,
    /// Restart probability `c` (paper Eq. 8; 0.85 in the experiments).
    pub restart_c: f64,
    /// Arrival time on the model clock, seconds.
    pub arrival_s: f64,
    /// Owning tenant (priority class / fair-share bucket). Tenant 0 is
    /// the default class; see [`crate::tenant::TenantTable`].
    pub tenant: u32,
}

/// A finished query with its full latency accounting. All timestamps are
/// on the serving engine's virtual model clock.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct QueryOutcome<T> {
    /// The query's id.
    pub id: u64,
    /// Seed node.
    pub seed: usize,
    /// Arrival time.
    pub arrival_s: f64,
    /// Time the scheduler admitted it into a batch (>= arrival).
    pub admitted_s: f64,
    /// Time its final scores reached the host: the end of its last wave
    /// (convergence or iteration cap), including that wave's readback of
    /// the final iterate.
    pub completed_s: f64,
    /// RWR iterations (== waves it rode in).
    pub iterations: usize,
    /// Whether it converged below epsilon (vs. hitting `max_iters`).
    pub converged: bool,
    /// Final relevance vector, when the engine keeps scores.
    pub scores: Option<Vec<T>>,
}

impl<T> QueryOutcome<T> {
    /// Arrival-to-completion latency (what the client observes): queue
    /// wait plus service, the latency every percentile reports.
    pub fn latency_s(&self) -> f64 {
        self.completed_s - self.arrival_s
    }

    /// Time spent waiting in the submission queue.
    pub fn queue_wait_s(&self) -> f64 {
        self.admitted_s - self.arrival_s
    }
}

/// The RWR epilogue coefficients of a wave's queries: `c` of each, and
/// its restart mass `1 − c` at its seed row.
pub(crate) fn rwr_coefficients<'q, T: Scalar>(
    queries: impl Iterator<Item = &'q Query>,
) -> (Vec<T>, Vec<Restart<T>>) {
    queries
        .map(|q| {
            let restart = Restart::Seed {
                row: q.seed,
                mass: T::from_f64(1.0 - q.restart_c),
            };
            (T::from_f64(q.restart_c), restart)
        })
        .unzip()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_decomposes_into_wait_plus_service() {
        let o = QueryOutcome::<f64> {
            id: 1,
            seed: 0,
            arrival_s: 1.0,
            admitted_s: 1.5,
            completed_s: 4.0,
            iterations: 10,
            converged: true,
            scores: None,
        };
        assert_eq!(o.latency_s(), 3.0);
        assert_eq!(o.queue_wait_s(), 0.5);
        assert!(o.latency_s() >= o.queue_wait_s());
    }
}
