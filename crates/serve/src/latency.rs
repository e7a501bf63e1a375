//! Latency accounting: percentile summaries of completed queries.
//!
//! The nearest-rank quantile itself lives in
//! [`acsr_telemetry::nearest_rank`] — one implementation shared with the
//! telemetry histograms, so the report path and the metrics path cannot
//! drift apart.

use acsr_telemetry::nearest_rank;
use serde::{Deserialize, Serialize};

/// Percentile/mean summary of a set of latencies (seconds).
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Number of samples summarized.
    pub count: usize,
    /// Median (nearest-rank).
    pub p50_s: f64,
    /// 95th percentile (nearest-rank).
    pub p95_s: f64,
    /// 99th percentile (nearest-rank).
    pub p99_s: f64,
    /// Arithmetic mean.
    pub mean_s: f64,
    /// Worst observed latency.
    pub max_s: f64,
}

impl LatencyStats {
    /// Summarize `samples` (order irrelevant). Empty input yields the
    /// all-zero summary.
    pub fn from_samples(samples: &[f64]) -> LatencyStats {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies must not be NaN"));
        let n = sorted.len();
        let rank = |p: f64| nearest_rank(&sorted, p);
        LatencyStats {
            count: n,
            p50_s: rank(0.50),
            p95_s: rank(0.95),
            p99_s: rank(0.99),
            mean_s: sorted.iter().sum::<f64>() / n as f64,
            max_s: sorted[n - 1],
        }
    }
}

/// Number of samples at or below `target` (SLO "met" count).
pub fn count_within(samples: &[f64], target: f64) -> usize {
    samples.iter().filter(|&&s| s <= target).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        // 1..=100 in shuffled order: p50 = 50, p95 = 95, p99 = 99
        let samples: Vec<f64> = (1..=100).rev().map(|v| v as f64).collect();
        let s = LatencyStats::from_samples(&samples);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_s, 50.0);
        assert_eq!(s.p95_s, 95.0);
        assert_eq!(s.p99_s, 99.0);
        assert_eq!(s.max_s, 100.0);
        assert!((s.mean_s - 50.5).abs() < 1e-12);
    }

    #[test]
    fn single_sample_and_empty_are_degenerate() {
        let one = LatencyStats::from_samples(&[2.5]);
        assert_eq!(one.p50_s, 2.5);
        assert_eq!(one.p99_s, 2.5);
        assert_eq!(one.max_s, 2.5);
        let none = LatencyStats::from_samples(&[]);
        assert_eq!(none.count, 0);
        assert_eq!(none.max_s, 0.0);
    }

    #[test]
    fn within_counts_inclusively() {
        let samples = [0.1, 0.2, 0.3, 0.4];
        assert_eq!(count_within(&samples, 0.25), 2);
        assert_eq!(count_within(&samples, 0.4), 4, "boundary is inclusive");
        assert_eq!(count_within(&samples, 0.05), 0);
    }
}
