//! `repro bench-diff <baseline.json> <new.json>` — the perf-regression
//! gate.
//!
//! Both files are parsed as JSON and flattened into `path -> number`
//! maps. Arrays of keyed objects (anything carrying `device`/`name`/
//! `phase`/`matrix` string fields, like `PROFILE_*.json` kernel rows or
//! experiment row dumps) flatten by those keys rather than by index, so
//! reordering rows never shows up as a diff. Each shared numeric leaf
//! whose name identifies a *direction* (higher-better throughput/
//! efficiency metrics, lower-better times/imbalances) is compared under
//! a relative tolerance; any metric moving the wrong way by more than
//! the tolerance — or at all, from a baseline of exactly zero — is a
//! regression. Direction-less leaves (raw counters, ids) are
//! informational only.

use serde::Value;
use std::collections::BTreeMap;

/// Is a larger value better (`Some(true)`), worse (`Some(false)`), or
/// not a perf metric at all (`None`)? Decided from the leaf's own name.
fn direction(leaf: &str) -> Option<bool> {
    const HIGHER: &[&str] = &[
        "gflops",
        "per_sec",
        "speedup",
        "efficiency",
        "hit_rate",
        "occupancy",
        "throughput",
        "bandwidth",
        "dram_gbs",
        "attainment",
        "goodput",
    ];
    const LOWER: &[&str] = &[
        "time",
        "seconds",
        "latency",
        "p50",
        "p95",
        "p99",
        "imbalance",
        "serialization",
        "divergent",
        "overhead",
    ];
    if HIGHER.iter().any(|k| leaf.contains(k)) {
        return Some(true);
    }
    if LOWER.iter().any(|k| leaf.contains(k)) || leaf.ends_with("_s") || leaf.ends_with("_ms") {
        return Some(false);
    }
    None
}

/// Flatten a JSON tree into `path -> value` for every numeric leaf.
fn flatten(value: &Value, prefix: &str, out: &mut BTreeMap<String, f64>) {
    match value {
        Value::I64(v) => {
            out.insert(prefix.to_string(), *v as f64);
        }
        Value::U64(v) => {
            out.insert(prefix.to_string(), *v as f64);
        }
        Value::F64(v) => {
            out.insert(prefix.to_string(), *v);
        }
        Value::Object(entries) => {
            for (k, v) in entries {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}/{k}")
                };
                flatten(v, &path, out);
            }
        }
        Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                let seg = element_key(item).unwrap_or_else(|| i.to_string());
                flatten(item, &format!("{prefix}/{seg}"), out);
            }
        }
        Value::Null | Value::Bool(_) | Value::Str(_) => {}
    }
}

/// Stable identity for an object inside an array: the concatenation of
/// its well-known naming fields, if it has any.
fn element_key(item: &Value) -> Option<String> {
    let mut parts = Vec::new();
    for key in ["device", "phase", "matrix", "kind", "name", "kernel"] {
        if let Some(Value::Str(s)) = crate::artifact::field(item, key) {
            parts.push(s.clone());
        }
    }
    (!parts.is_empty()).then(|| parts.join(":"))
}

/// One compared metric that moved beyond tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    pub path: String,
    pub baseline: f64,
    pub new: f64,
    /// Signed relative change `(new - baseline) / |baseline|`; ±∞ for a
    /// move from a zero baseline.
    pub rel: f64,
    /// True when the move is in the *bad* direction.
    pub regression: bool,
}

/// Outcome of a bench diff.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Directional metrics compared.
    pub compared: usize,
    /// Moves beyond tolerance, regressions and improvements alike.
    pub deltas: Vec<Delta>,
    /// Directional metrics present in the baseline but missing (or
    /// null) in the new file — always a gate failure.
    pub missing: Vec<String>,
}

impl DiffReport {
    pub fn regressions(&self) -> impl Iterator<Item = &Delta> {
        self.deltas.iter().filter(|d| d.regression)
    }

    /// Does the gate pass?
    pub fn pass(&self) -> bool {
        self.missing.is_empty() && self.regressions().count() == 0
    }

    /// Human-readable summary.
    pub fn render(&self, tolerance: f64) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for path in &self.missing {
            let _ = writeln!(out, "MISSING     {path} (present in baseline)");
        }
        for d in &self.deltas {
            let _ = writeln!(
                out,
                "{}  {:>+7.1}%  {}  {:.6} -> {:.6}",
                if d.regression {
                    "REGRESSION"
                } else {
                    "improved  "
                },
                100.0 * d.rel,
                d.path,
                d.baseline,
                d.new
            );
        }
        let n_reg = self.regressions().count() + self.missing.len();
        let _ = writeln!(
            out,
            "bench-diff: {} metrics compared, {} beyond ±{:.1}% tolerance, {} regression(s)",
            self.compared,
            self.deltas.len(),
            100.0 * tolerance,
            n_reg
        );
        let _ = writeln!(out, "{}", if self.pass() { "PASS" } else { "FAIL" });
        out
    }
}

/// Compare two parsed JSON documents under a relative tolerance.
pub fn diff_values(baseline: &Value, new: &Value, tolerance: f64) -> DiffReport {
    let mut base_map = BTreeMap::new();
    let mut new_map = BTreeMap::new();
    flatten(baseline, "", &mut base_map);
    flatten(new, "", &mut new_map);

    let mut report = DiffReport::default();
    for (path, &base) in &base_map {
        let leaf = path.rsplit('/').next().unwrap_or(path);
        let Some(higher_better) = direction(leaf) else {
            continue;
        };
        let Some(&new) = new_map.get(path) else {
            report.missing.push(path.clone());
            continue;
        };
        report.compared += 1;
        // Zero has no relative scale: any move from it is beyond
        // tolerance (e.g. transfer time appearing from none).
        let rel = if base != 0.0 {
            (new - base) / base.abs()
        } else if new != 0.0 {
            f64::INFINITY.copysign(new)
        } else {
            continue;
        };
        if rel.abs() <= tolerance {
            continue;
        }
        let regression = if higher_better { rel < 0.0 } else { rel > 0.0 };
        report.deltas.push(Delta {
            path: path.clone(),
            baseline: base,
            new,
            rel,
            regression,
        });
    }
    report
}

/// File-level entry point: parse both documents and compare. `Err` is a
/// usage/parse problem, not a regression.
pub fn diff_files(baseline: &str, new: &str, tolerance: f64) -> Result<DiffReport, String> {
    let read = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))
    };
    Ok(diff_values(&read(baseline)?, &read(new)?, tolerance))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(time: f64, gflops: f64) -> Value {
        let obj = |entries: Vec<(&str, Value)>| {
            Value::Object(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
        };
        let kernel = obj(vec![
            ("device", Value::Str("GTX Titan".into())),
            ("name", Value::Str("csr_vector".into())),
            ("time_s", Value::F64(time)),
            (
                "metrics",
                obj(vec![("achieved_gflops", Value::F64(gflops))]),
            ),
            ("counters", obj(vec![("flops", Value::U64(100))])),
        ]);
        obj(vec![("kernels", Value::Array(vec![kernel]))])
    }

    #[test]
    fn identical_documents_pass() {
        let r = diff_values(&doc(1.0, 5.0), &doc(1.0, 5.0), 0.05);
        assert!(r.pass());
        assert_eq!(r.compared, 2, "time_s and achieved_gflops: {r:?}");
        assert!(r.deltas.is_empty());
    }

    #[test]
    fn slower_time_is_a_regression() {
        let r = diff_values(&doc(1.0, 5.0), &doc(1.2, 5.0), 0.05);
        assert!(!r.pass());
        let reg: Vec<_> = r.regressions().collect();
        assert_eq!(reg.len(), 1);
        assert!(reg[0].path.ends_with("time_s"), "{}", reg[0].path);
        assert!(reg[0].rel > 0.19 && reg[0].rel < 0.21);
    }

    #[test]
    fn lower_gflops_is_a_regression_but_higher_is_improvement() {
        let worse = diff_values(&doc(1.0, 5.0), &doc(1.0, 4.0), 0.05);
        assert!(!worse.pass());
        let better = diff_values(&doc(1.0, 5.0), &doc(1.0, 6.0), 0.05);
        assert!(better.pass(), "faster must pass the gate");
        assert_eq!(better.deltas.len(), 1, "still reported as a delta");
        assert!(!better.deltas[0].regression);
    }

    #[test]
    fn tolerance_gates_small_moves() {
        let r = diff_values(&doc(1.0, 5.0), &doc(1.04, 5.0), 0.05);
        assert!(r.pass());
        let r = diff_values(&doc(1.0, 5.0), &doc(1.051, 5.0), 0.05);
        assert!(!r.pass());
    }

    #[test]
    fn row_reordering_is_invisible() {
        let a: Value = serde_json::from_str(
            "{\"rows\":[{\"name\":\"k1\",\"time_s\":1.0},{\"name\":\"k2\",\"time_s\":2.0}]}",
        )
        .unwrap();
        let b: Value = serde_json::from_str(
            "{\"rows\":[{\"name\":\"k2\",\"time_s\":2.0},{\"name\":\"k1\",\"time_s\":1.0}]}",
        )
        .unwrap();
        assert!(diff_values(&a, &b, 0.0).pass());
    }

    #[test]
    fn missing_metric_fails_the_gate() {
        let a: Value = serde_json::from_str("{\"time_s\":1.0}").unwrap();
        let b: Value = serde_json::from_str("{}").unwrap();
        let r = diff_values(&a, &b, 0.05);
        assert!(!r.pass());
        assert_eq!(r.missing, vec!["time_s".to_string()]);
    }

    #[test]
    fn wrong_direction_move_from_zero_is_a_regression() {
        let base: Value =
            serde_json::from_str("{\"transfer_s\":0,\"load_imbalance\":0.0}").unwrap();
        let new: Value =
            serde_json::from_str("{\"transfer_s\":0.004,\"load_imbalance\":0.9}").unwrap();
        let r = diff_values(&base, &new, 0.05);
        assert!(!r.pass());
        assert_eq!(r.regressions().count(), 2, "{r:?}");
        assert!(diff_values(&base, &base, 0.05).pass(), "0 -> 0 is no move");
    }

    #[test]
    fn higher_better_rise_from_zero_is_an_improvement() {
        let base: Value = serde_json::from_str("{\"achieved_gflops\":0}").unwrap();
        let new: Value = serde_json::from_str("{\"achieved_gflops\":2.5}").unwrap();
        let r = diff_values(&base, &new, 0.05);
        assert!(r.pass(), "{r:?}");
        assert_eq!(r.deltas.len(), 1);
        assert!(!r.deltas[0].regression);
        // ... and its fall back to zero is a regression.
        assert!(!diff_values(&new, &base, 0.05).pass());
    }

    #[test]
    fn counters_are_informational_only() {
        let a: Value = serde_json::from_str("{\"counters\":{\"flops\":100}}").unwrap();
        let b: Value = serde_json::from_str("{\"counters\":{\"flops\":9000}}").unwrap();
        assert!(diff_values(&a, &b, 0.05).pass());
    }

    #[test]
    fn direction_classification() {
        assert_eq!(direction("achieved_gflops"), Some(true));
        assert_eq!(direction("warp_execution_efficiency"), Some(true));
        assert_eq!(direction("achieved_occupancy"), Some(true));
        assert_eq!(direction("attainment"), Some(true));
        assert_eq!(direction("goodput_qps"), Some(true));
        assert_eq!(direction("offered_qps"), None, "offered load is an input");
        assert_eq!(direction("time_s"), Some(false));
        assert_eq!(direction("load_imbalance"), Some(false));
        assert_eq!(direction("p99"), Some(false));
        assert_eq!(direction("flops"), None);
        assert_eq!(direction("span_ids"), None);
        assert_eq!(direction("launches"), None);
    }
}
