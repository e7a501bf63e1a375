//! Log-bucketed histograms plus the exact nearest-rank quantile the
//! serving stack summarizes latencies with.
//!
//! The histogram buckets by *float bit pattern* — exponent plus the top
//! two mantissa bits, four sub-buckets per octave — so indexing is pure
//! integer arithmetic: no `log2`, no libm, and therefore bit-identical
//! buckets on every platform and worker width. Four sub-buckets per
//! octave bound the quantile's relative overestimate at 25%
//! ([`LogHistogram::quantile`] returns the containing bucket's upper
//! edge, clamped to the largest sample, so `exact ≤ quantile ≤ 1.25 ×
//! exact` for positive samples — pinned by a regression test).

use std::collections::BTreeMap;

/// Sub-buckets per power of two. Two mantissa bits → 4.
const SUBBUCKETS: i64 = 4;

/// Bucket index of every non-positive (or non-finite-negative) sample.
/// `BTreeMap` iteration order puts it before every real bucket.
const ZERO_BUCKET: i64 = i64::MIN;

/// Bucket index of a sample: `exponent × 4 + top-2-mantissa-bits`,
/// derived from the raw IEEE-754 encoding.
fn bucket_index(v: f64) -> i64 {
    if !v.is_finite() || v <= 0.0 {
        return ZERO_BUCKET;
    }
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i64 - 1023;
    if exp == -1023 {
        // Subnormals: fold into the smallest normal bucket; nothing the
        // serving stack measures lives below 2^-1022 seconds.
        return -1022 * SUBBUCKETS;
    }
    let sub = ((bits >> 50) & 0x3) as i64;
    exp * SUBBUCKETS + sub
}

/// Exclusive upper edge of a bucket: `2^exp × (1 + (sub+1)/4)`, computed
/// from bit-assembled powers of two so the edge is a deterministic
/// function of the index alone.
fn bucket_upper(index: i64) -> f64 {
    if index == ZERO_BUCKET {
        return 0.0;
    }
    let exp = index.div_euclid(SUBBUCKETS);
    let sub = index.rem_euclid(SUBBUCKETS);
    let pow2 = if exp >= 1024 {
        f64::INFINITY
    } else if exp < -1022 {
        0.0
    } else {
        f64::from_bits(((exp + 1023) as u64) << 52)
    };
    pow2 * (1.0 + (sub + 1) as f64 * 0.25)
}

/// A mergeable log-bucketed histogram with exact count/sum/min/max.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LogHistogram {
    buckets: BTreeMap<i64, u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl LogHistogram {
    pub fn new() -> LogHistogram {
        LogHistogram::default()
    }

    /// Record one sample. Non-positive samples land in a dedicated
    /// zero bucket (queue depths start at 0).
    pub fn observe(&mut self, v: f64) {
        assert!(!v.is_nan(), "histogram samples must not be NaN");
        *self.buckets.entry(bucket_index(v)).or_insert(0) += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    /// Fold `other` into `self` (bucket-wise addition; sums accumulate
    /// in `other`'s bucket order, which is deterministic).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (&k, &c) in &other.buckets {
            *self.buckets.entry(k).or_insert(0) += c;
        }
        if other.count > 0 {
            if self.count == 0 {
                self.min = other.min;
                self.max = other.max;
            } else {
                self.min = self.min.min(other.min);
                self.max = self.max.max(other.max);
            }
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observed sample (0.0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observed sample (0.0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Nearest-rank quantile over the buckets: the upper edge of the
    /// bucket holding the rank-`⌈p·n⌉` sample, clamped to the largest
    /// sample so the estimate never leaves the data. Empty histograms
    /// report 0.0. For positive samples the result overestimates the
    /// exact nearest-rank value by at most 25% (see module docs).
    pub fn quantile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (&k, &c) in &self.buckets {
            cum += c;
            if cum >= rank {
                return bucket_upper(k).min(self.max);
            }
        }
        self.max()
    }

    /// Sorted `(bucket index, count)` pairs — the serialized form.
    pub fn bucket_counts(&self) -> Vec<(i64, u64)> {
        self.buckets.iter().map(|(&k, &c)| (k, c)).collect()
    }
}

/// Exact nearest-rank quantile of an ascending-sorted slice: the
/// smallest sample with at least `p` of the mass at or below it. This is
/// the single authoritative implementation — `acsr-serve`'s
/// `LatencyStats` calls it — so p50/p95/p99 cannot drift between the
/// report path and the histogram path. Empty input yields 0.0.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "nearest_rank needs an ascending-sorted slice"
    );
    sorted[((p * n as f64).ceil() as usize).clamp(1, n) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.quantile(0.99), 0.0);
        assert_eq!(nearest_rank(&[], 0.99), 0.0);
    }

    #[test]
    fn single_sample_quantiles_cover_it() {
        let mut h = LogHistogram::new();
        h.observe(2.5e-3);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 2.5e-3);
        assert_eq!(h.max(), 2.5e-3);
        for p in [0.0, 0.5, 0.95, 0.99, 1.0] {
            let q = h.quantile(p);
            assert!(
                (2.5e-3..=2.5e-3 * 1.25).contains(&q),
                "p={p}: quantile {q} outside the bucket bound"
            );
        }
        assert_eq!(nearest_rank(&[2.5e-3], 0.5), 2.5e-3);
        assert_eq!(nearest_rank(&[2.5e-3], 0.99), 2.5e-3);
    }

    /// The bucket edge never escapes the data: constant samples report
    /// the sample itself, and no quantile exceeds the largest sample.
    #[test]
    fn quantiles_never_exceed_the_largest_sample() {
        let mut constant = LogHistogram::new();
        for _ in 0..7 {
            constant.observe(2.0);
        }
        for p in [0.5, 0.95, 0.99] {
            assert_eq!(constant.quantile(p), 2.0, "p={p}");
        }
        // Queue depths 0..=94 (94 sits in the [80, 96) bucket) and
        // latencies whose largest sample is below its bucket's edge.
        for samples in [
            (0..=94).map(f64::from).collect::<Vec<_>>(),
            vec![1.2e-3, 2.9e-3, 3.32e-2, 1.7e-2],
        ] {
            let mut h = LogHistogram::new();
            for &s in &samples {
                h.observe(s);
            }
            for p in [0.5, 0.95, 0.99] {
                assert!(
                    h.quantile(p) <= h.max(),
                    "p={p}: {} > {}",
                    h.quantile(p),
                    h.max()
                );
            }
            assert_eq!(h.quantile(0.99), h.max());
        }
    }

    #[test]
    fn zero_and_negative_samples_take_the_zero_bucket() {
        let mut h = LogHistogram::new();
        h.observe(0.0);
        h.observe(-1.0);
        h.observe(4.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(0.5), 0.0, "rank 2 of [-1, 0, 4]-ish mass");
        assert!(h.quantile(1.0) >= 4.0);
        assert_eq!(h.min(), -1.0);
        assert_eq!(h.max(), 4.0);
    }

    /// The pinned error bound of the satellite task: against the exact
    /// nearest-rank quantile, the histogram answer is never below it and
    /// never more than 25% above it.
    #[test]
    fn quantile_error_vs_exact_nearest_rank_is_bounded() {
        // Deterministic pseudo-random positive samples over ~9 decades.
        let mut samples: Vec<f64> = Vec::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        for _ in 0..4096 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
            samples.push(1e-6 * (1e9f64).powf(u));
        }
        let mut h = LogHistogram::new();
        for &s in &samples {
            h.observe(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for p in [0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            let exact = nearest_rank(&sorted, p);
            let approx = h.quantile(p);
            assert!(
                approx >= exact && approx <= exact * 1.25,
                "p={p}: exact {exact:e}, histogram {approx:e} breaks the 25% bound"
            );
        }
    }

    /// Merged histograms answer exactly like a histogram fed the
    /// concatenated stream.
    #[test]
    fn merge_matches_concatenated_observation() {
        let a_samples: Vec<f64> = (1..=50).map(|i| i as f64 * 0.017).collect();
        let b_samples: Vec<f64> = (1..=80).map(|i| i as f64 * 0.41).collect();
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut whole = LogHistogram::new();
        for &s in &a_samples {
            a.observe(s);
            whole.observe(s);
        }
        for &s in &b_samples {
            b.observe(s);
            whole.observe(s);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), whole.count());
        assert_eq!(merged.bucket_counts(), whole.bucket_counts());
        assert_eq!(merged.min(), whole.min());
        assert_eq!(merged.max(), whole.max());
        assert!((merged.sum() - whole.sum()).abs() < 1e-9);
        for p in [0.25, 0.5, 0.95, 0.99] {
            assert_eq!(merged.quantile(p).to_bits(), whole.quantile(p).to_bits());
        }
        // merging into an empty histogram preserves min/max
        let mut empty = LogHistogram::new();
        empty.merge(&b);
        assert_eq!(empty.min(), b.min());
        assert_eq!(empty.max(), b.max());
    }

    #[test]
    fn nearest_rank_matches_latency_stats_formula() {
        let sorted: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        assert_eq!(nearest_rank(&sorted, 0.50), 50.0);
        assert_eq!(nearest_rank(&sorted, 0.95), 95.0);
        assert_eq!(nearest_rank(&sorted, 0.99), 99.0);
        assert_eq!(nearest_rank(&sorted, 1.0), 100.0);
    }

    #[test]
    fn bucket_edges_bound_their_samples() {
        for &v in &[1e-9, 3.7e-4, 0.124, 1.0, 1.49, 777.3, 1e12] {
            let idx = bucket_index(v);
            let upper = bucket_upper(idx);
            assert!(v < upper, "{v} must sit below its bucket edge {upper}");
            assert!(
                upper <= v * 1.25 * (1.0 + 1e-12),
                "{v} edge {upper} too far"
            );
        }
    }
}
