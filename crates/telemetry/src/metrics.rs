//! The named-metric registry: counters, gauges, and log-bucketed
//! histograms behind one mutex, snapshotting to a [`MetricsSnapshot`]
//! that serializes to the body of an `acsr-metrics-v1` document.
//!
//! Counters are `u64` and integer-exact — they are what the
//! reconciliation checks compare against `ServeReport` / maintenance
//! -ledger fields. Gauges are last-write-wins `f64`. Histograms are
//! [`LogHistogram`]s. Names sort the snapshot (`BTreeMap`), so the same
//! run serializes to the same value, and renders to the same bytes, on
//! every `ACSR_SIM_THREADS` width — the golden and proptests rely on
//! this.

use crate::hist::LogHistogram;
use parking_lot::Mutex;
use serde::{Serialize, Value};
use std::collections::BTreeMap;

/// One metric's current value.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(f64),
    Histogram(LogHistogram),
}

/// A thread-safe registry of named metrics. Recording takes one short
/// mutex hold; consumers that hold no registry (`Option` = `None`) pay
/// a single branch — telemetry is zero-cost when disabled.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, MetricValue>>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `delta` to the counter `name` (created at 0).
    /// Panics if `name` is already a gauge or histogram.
    pub fn add(&self, name: &str, delta: u64) {
        let mut inner = self.inner.lock();
        match inner
            .entry(name.to_string())
            .or_insert(MetricValue::Counter(0))
        {
            MetricValue::Counter(v) => *v += delta,
            other => panic!("metric '{name}' is not a counter: {other:?}"),
        }
    }

    /// Set the gauge `name` (last write wins).
    pub fn set_gauge(&self, name: &str, value: f64) {
        let mut inner = self.inner.lock();
        match inner
            .entry(name.to_string())
            .or_insert(MetricValue::Gauge(0.0))
        {
            MetricValue::Gauge(v) => *v = value,
            other => panic!("metric '{name}' is not a gauge: {other:?}"),
        }
    }

    /// Record one sample into the histogram `name`.
    pub fn observe(&self, name: &str, sample: f64) {
        let mut inner = self.inner.lock();
        match inner
            .entry(name.to_string())
            .or_insert_with(|| MetricValue::Histogram(LogHistogram::new()))
        {
            MetricValue::Histogram(h) => h.observe(sample),
            other => panic!("metric '{name}' is not a histogram: {other:?}"),
        }
    }

    /// Current value of the counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        match self.inner.lock().get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Fold a snapshot into this registry: counters add, gauges take the
    /// snapshot's value, histograms merge. This is how a scoped per-run
    /// registry (already reconciled against its run's report) folds into
    /// the shared process registry.
    pub fn merge_snapshot(&self, snap: &MetricsSnapshot) {
        let mut inner = self.inner.lock();
        for (name, value) in &snap.entries {
            match value {
                MetricValue::Counter(d) => {
                    match inner.entry(name.clone()).or_insert(MetricValue::Counter(0)) {
                        MetricValue::Counter(v) => *v += d,
                        other => panic!("metric '{name}' is not a counter: {other:?}"),
                    }
                }
                MetricValue::Gauge(g) => {
                    inner.insert(name.clone(), MetricValue::Gauge(*g));
                }
                MetricValue::Histogram(h) => {
                    match inner
                        .entry(name.clone())
                        .or_insert_with(|| MetricValue::Histogram(LogHistogram::new()))
                    {
                        MetricValue::Histogram(v) => v.merge(h),
                        other => panic!("metric '{name}' is not a histogram: {other:?}"),
                    }
                }
            }
        }
    }

    /// Name-sorted snapshot of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            entries: self
                .inner
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// Drop every metric.
    pub fn clear(&self) {
        self.inner.lock().clear();
    }

    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

/// An immutable, name-sorted copy of a registry's metrics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs, ascending by name.
    pub entries: Vec<(String, MetricValue)>,
}

impl MetricsSnapshot {
    fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Counter value (`None` when absent or not a counter).
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Gauge value (`None` when absent or not a gauge).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.get(name) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Histogram (`None` when absent or not a histogram).
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        match self.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }
}

/// The `acsr-metrics-v1` body, one entry per metric in name order: a
/// counter or gauge carries its `value`, a histogram its count, sum,
/// extremes, nearest-rank quantiles and `[bucket, count]` pairs.
impl Serialize for MetricsSnapshot {
    fn to_value(&self) -> Value {
        let metrics = self.entries.iter().map(|(name, value)| {
            let mut entry = vec![("name", name.to_value())];
            match value {
                MetricValue::Counter(v) => {
                    entry.extend([("type", "counter".to_value()), ("value", v.to_value())]);
                }
                MetricValue::Gauge(v) => {
                    entry.extend([("type", "gauge".to_value()), ("value", v.to_value())]);
                }
                MetricValue::Histogram(h) => entry.extend([
                    ("type", "histogram".to_value()),
                    ("count", h.count().to_value()),
                    ("sum", h.sum().to_value()),
                    ("min", h.min().to_value()),
                    ("max", h.max().to_value()),
                    ("p50", h.quantile(0.50).to_value()),
                    ("p95", h.quantile(0.95).to_value()),
                    ("p99", h.quantile(0.99).to_value()),
                    ("buckets", h.bucket_counts().to_value()),
                ]),
            }
            Value::from_iter(entry)
        });
        Value::from_iter([("metrics", Value::Array(metrics.collect()))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_roundtrip() {
        let reg = MetricsRegistry::new();
        reg.add("a.count", 3);
        reg.add("a.count", 2);
        reg.set_gauge("b.gauge", 1.5);
        reg.set_gauge("b.gauge", 2.5);
        reg.observe("c.hist", 0.1);
        reg.observe("c.hist", 0.2);
        assert_eq!(reg.counter("a.count"), 5);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a.count"), Some(5));
        assert_eq!(snap.gauge("b.gauge"), Some(2.5));
        assert_eq!(snap.histogram("c.hist").unwrap().count(), 2);
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn snapshot_serializes_name_sorted_typed_entries() {
        let reg = MetricsRegistry::new();
        reg.set_gauge("z.last", 0.25);
        reg.add("a.first", 1);
        reg.observe("m.mid", 3.0);
        let Value::Object(doc) = reg.snapshot().to_value() else {
            panic!("a snapshot serializes to an object");
        };
        let [(key, Value::Array(metrics))] = &doc[..] else {
            panic!("expected one metrics array, got {doc:?}");
        };
        assert_eq!(key, "metrics");
        // (name, type, field count) of each entry, in name order.
        let heads: Vec<(&Value, &Value, usize)> = metrics
            .iter()
            .map(|m| match m {
                Value::Object(e) => (&e[0].1, &e[1].1, e.len()),
                other => panic!("metric entry {other:?}"),
            })
            .collect();
        let s = |v: &str| Value::Str(v.into());
        assert_eq!(
            heads,
            [
                (&s("a.first"), &s("counter"), 3),
                (&s("m.mid"), &s("histogram"), 10),
                (&s("z.last"), &s("gauge"), 3),
            ]
        );
    }

    #[test]
    fn merge_snapshot_adds_counters_and_merges_histograms() {
        let a = MetricsRegistry::new();
        a.add("n", 2);
        a.observe("h", 1.0);
        a.set_gauge("g", 1.0);
        let b = MetricsRegistry::new();
        b.add("n", 3);
        b.observe("h", 2.0);
        b.set_gauge("g", 9.0);
        a.merge_snapshot(&b.snapshot());
        let snap = a.snapshot();
        assert_eq!(snap.counter("n"), Some(5));
        assert_eq!(snap.histogram("h").unwrap().count(), 2);
        assert_eq!(snap.gauge("g"), Some(9.0), "gauges take the merged value");
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn type_confusion_panics() {
        let reg = MetricsRegistry::new();
        reg.set_gauge("x", 1.0);
        reg.add("x", 1);
    }
}
