//! The artifact contract.
//!
//! Every JSON artifact `repro` writes has one [`Schema`], declared
//! beside the report it serializes: required fields, required row
//! tables, and cross-field invariants such as the fleet's halo-ledger
//! reconciliation. A report is its artifact's only declaration — its
//! `Serialize` impl names every key — and [`write()`] is the one
//! writer, chrome traces, timelines and metrics snapshots included: it
//! prepends the schema tag, checks the document, and pretty-prints it
//! to disk. [`validate`] — the engine of `repro check-artifacts` —
//! checks a file against the same declaration, looked up in
//! [`SCHEMAS`] by the document's `schema` tag. A tag no schema declares
//! is an error, never a pass.

use serde::{Serialize, Value};
use std::path::PathBuf;

/// A required array of row objects: (array key, minimum rows, fields
/// every row carries).
pub type RowTable = (&'static str, usize, &'static [&'static str]);

/// One artifact contract.
pub struct Schema {
    /// The document's `schema` tag; empty for the untagged chrome-trace
    /// format, which is recognized by its `traceEvents` array.
    pub tag: &'static str,
    /// What `check-artifacts` calls a valid document (`"fleet report"`).
    pub kind: &'static str,
    /// Required top-level fields.
    pub fields: &'static [&'static str],
    /// Required top-level row tables.
    pub rows: &'static [RowTable],
    /// Cross-field invariants, checked once the structure holds.
    pub invariants: fn(&Value) -> Result<(), String>,
}

/// Every artifact contract, one per tag.
pub const SCHEMAS: [&Schema; 10] = [
    &crate::profile::SCHEMA,
    &crate::simbench::SCHEMA,
    &crate::slo::SCHEMA,
    &crate::fleet::SCHEMA,
    &crate::stream::SCHEMA,
    &crate::metrics::METRICS,
    &crate::metrics::TIMELINE,
    &crate::experiments::selector::SCHEMA,
    &crate::experiments::serve::SCHEMA,
    &crate::tracing::CHROME_TRACE,
];

/// `obj[key]`, when `obj` is an object carrying `key`.
pub fn field<'a>(obj: &'a Value, key: &str) -> Option<&'a Value> {
    match obj {
        Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// The rows of `obj[key]`; empty when it is not an array.
pub fn rows<'a>(obj: &'a Value, key: &str) -> &'a [Value] {
    match field(obj, key) {
        Some(Value::Array(rows)) => rows,
        _ => &[],
    }
}

/// A non-negative JSON integer.
pub fn as_u64(v: &Value) -> Option<u64> {
    match *v {
        Value::I64(n) => u64::try_from(n).ok(),
        Value::U64(n) => Some(n),
        _ => None,
    }
}

/// A JSON number as `f64`.
pub(crate) fn as_f64(v: &Value) -> Option<f64> {
    match *v {
        Value::I64(n) => Some(n as f64),
        Value::U64(n) => Some(n as f64),
        Value::F64(x) => Some(x),
        _ => None,
    }
}

/// Check that `obj` holds a row table.
pub(crate) fn check_rows(obj: &Value, &(key, min, fields): &RowTable) -> Result<(), String> {
    let rows = match field(obj, key) {
        Some(Value::Array(rows)) if rows.len() >= min => rows,
        _ => return Err(format!("needs at least {min} '{key}' row(s)")),
    };
    for (i, row) in rows.iter().enumerate() {
        if let Some(f) = fields.iter().find(|f| field(row, f).is_none()) {
            return Err(format!("'{key}' row {i} missing '{f}'"));
        }
    }
    Ok(())
}

impl Schema {
    /// Check a parsed document against this contract.
    pub(crate) fn check(&self, doc: &Value) -> Result<(), String> {
        let tag = match field(doc, "schema") {
            Some(Value::Str(tag)) => tag.as_str(),
            _ => "",
        };
        let structure = if tag != self.tag {
            Err(format!("tagged '{tag}', expected '{}'", self.tag))
        } else if let Some(f) = self.fields.iter().find(|f| field(doc, f).is_none()) {
            Err(format!("missing '{f}'"))
        } else {
            self.rows.iter().try_for_each(|t| check_rows(doc, t))
        };
        structure
            .and_then(|()| (self.invariants)(doc))
            .map_err(|e| format!("{}: {e}", self.kind))
    }
}

/// Check one JSON document against the schema its `schema` tag names
/// (or the chrome-trace rule, for an untagged document with a
/// `traceEvents` array) and return its kind. Any other untagged
/// document is plain `"JSON"`.
pub fn validate(text: &str) -> Result<&'static str, String> {
    let doc = serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let tag = match field(&doc, "schema") {
        Some(Value::Str(tag)) => tag.as_str(),
        _ if matches!(field(&doc, "traceEvents"), Some(Value::Array(_))) => "",
        _ => return Ok("JSON"),
    };
    let schema = SCHEMAS.iter().find(|s| s.tag == tag).ok_or_else(|| {
        let known: Vec<&str> = SCHEMAS
            .iter()
            .map(|s| s.tag)
            .filter(|t| !t.is_empty())
            .collect();
        format!("unknown schema '{tag}' (known: {})", known.join(", "))
    })?;
    schema.check(&doc)?;
    Ok(schema.kind)
}

/// Where artifacts go: `results/` in the working directory (the
/// repository root, for `repro` and CI).
pub fn results_dir() -> PathBuf {
    PathBuf::from("results")
}

/// The artifact text of `report`: its fields behind `schema`'s tag (none
/// for the untagged chrome-trace format), checked against `schema`,
/// pretty-printed with a trailing newline.
pub fn render<T: Serialize + ?Sized>(schema: &Schema, report: &T) -> Result<String, String> {
    let fields = match report.to_value() {
        Value::Object(fields) if fields.iter().all(|(k, _)| k != "schema") => fields,
        _ => return Err(format!("{}: not an untagged JSON object", schema.kind)),
    };
    let tag = (!schema.tag.is_empty())
        .then(|| ("schema".to_string(), Value::Str(schema.tag.to_string())));
    let doc = Value::Object(tag.into_iter().chain(fields).collect());
    schema.check(&doc)?;
    let mut text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    text.push('\n');
    Ok(text)
}

/// [`render`] `report` and write it to `file` under [`results_dir`];
/// returns the path written. Nothing is written unless the document
/// meets its schema.
pub fn write<T: Serialize + ?Sized>(
    schema: &Schema,
    file: &str,
    report: &T,
) -> Result<PathBuf, String> {
    let path = results_dir().join(file);
    let text = render(schema, report).map_err(|e| format!("{}: {e}", path.display()))?;
    path.parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fleet, metrics, profile, simbench, slo, stream, tracing};

    /// Every copy of `v` with exactly one object key removed, at any depth.
    fn drop_one_key(v: &Value) -> Vec<Value> {
        let mut out = Vec::new();
        match v {
            Value::Object(entries) => {
                for (i, (_, child)) in entries.iter().enumerate() {
                    let mut dropped = entries.clone();
                    dropped.remove(i);
                    out.push(Value::Object(dropped));
                    for sub in drop_one_key(child) {
                        let mut e = entries.clone();
                        e[i].1 = sub;
                        out.push(Value::Object(e));
                    }
                }
            }
            Value::Array(items) => {
                for (i, item) in items.iter().enumerate() {
                    for sub in drop_one_key(item) {
                        let mut a = items.clone();
                        a[i] = sub;
                        out.push(Value::Array(a));
                    }
                }
            }
            _ => {}
        }
        out
    }

    /// `minimal` is a smallest valid `schema` document: it validates as
    /// `schema.kind`, dropping any key anywhere in it fails the schema,
    /// and each `(from, to)` edit breaks an invariant.
    fn assert_contract(schema: &Schema, minimal: &str, broken: &[(&str, &str)]) {
        assert_eq!(validate(minimal), Ok(schema.kind));
        let doc = serde_json::from_str(minimal).unwrap();
        for variant in drop_one_key(&doc) {
            let text = serde_json::to_string(&variant).unwrap();
            assert!(schema.check(&variant).is_err(), "accepted {text}");
            assert_ne!(validate(&text), Ok(schema.kind), "accepted {text}");
        }
        for (from, to) in broken {
            assert_eq!(minimal.matches(from).count(), 1, "{from}");
            let text = minimal.replace(from, to);
            assert!(validate(&text).is_err(), "accepted {text}");
        }
    }

    #[test]
    fn profile_contract() {
        assert_contract(
            &profile::SCHEMA,
            r#"{"schema": "acsr-profile-v1", "devices": [], "phases": [], "total": {},
                "kernels": [{}]}"#,
            &[(r#""kernels": [{}]"#, r#""kernels": []"#)],
        );
    }

    #[test]
    fn simbench_contract() {
        assert_contract(
            &simbench::SCHEMA,
            r#"{"schema": "acsr-simbench-v1", "host_cores": 2, "kernels": [{"kernel": "ell",
                "widths": [{"workers": 1, "launches_per_sec": 9.5, "speedup_vs_seq": 1.0}]}]}"#,
            &[
                (r#""kernels": [{"#, r#""kernels": [], "x": [{"#),
                (
                    r#""widths": [{"workers": 1,"#,
                    r#""widths": [], "x": [{"workers": 1,"#,
                ),
            ],
        );
    }

    #[test]
    fn slo_contract() {
        let point: Value = serde_json::from_str(
            r#"{"name": "p", "offered_qps": 1.0, "attainment": 1.0, "goodput_qps": 1.0,
                "throughput_qps": 1.0, "p99_ms": 0.5}"#,
        )
        .unwrap();
        let doc = |curve: usize, traces: usize| {
            let mut doc = serde_json::from_str(
                r#"{"schema": "acsr-slo-v1", "capacity_qps": 100.0, "p99_target_ms": 1.0,
                    "max_batch": 16, "queue_capacity": 32}"#,
            )
            .unwrap();
            if let Value::Object(entries) = &mut doc {
                entries.push(("curve".into(), Value::Array(vec![point.clone(); curve])));
                entries.push(("traces".into(), Value::Array(vec![point.clone(); traces])));
            }
            serde_json::to_string(&doc).unwrap()
        };
        let minimal = doc(4, 1);
        assert_contract(
            &slo::SCHEMA,
            &minimal,
            &[(&minimal, &doc(3, 1)), (&minimal, &doc(4, 0))],
        );
    }

    #[test]
    fn fleet_contract() {
        let minimal = r#"{"schema": "acsr-fleet-v1", "scale": 64, "device_counts": [1, 2],
                "formats": {"shards": ["ACSR"]},
                "scaling": [{"name": "ENR_d2", "devices": 2, "seconds": 1.0, "speedup": 1.5,
                    "efficiency": 0.75, "halo_bytes": 8, "ledger_halo_bytes": 8,
                    "payload_bytes": 8, "schedule": "direct", "messages": 1,
                    "exchange_ms": 0.1, "direct_exchange_ms": 0.1, "replicated_rows": 0}],
                "serving": [{"name": "narrow_d4", "devices": 4, "queries": 8, "waves": 2,
                    "p50_ms": 0.3, "p99_ms": 0.5, "mean_wave_width": 1.0}]}"#;
        assert_contract(
            &fleet::SCHEMA,
            minimal,
            &[
                (r#""ledger_halo_bytes": 8"#, r#""ledger_halo_bytes": 9"#),
                (r#""payload_bytes": 8"#, r#""payload_bytes": 9"#),
                (r#""payload_bytes": 8"#, r#""payload_bytes": 7"#),
                (r#""schedule": "direct""#, r#""schedule": "ring""#),
                (
                    r#""direct_exchange_ms": 0.1"#,
                    r#""direct_exchange_ms": 0.09"#,
                ),
                (
                    r#""halo_bytes": 8, "ledger_halo_bytes": 8"#,
                    r#""halo_bytes": 8.0, "ledger_halo_bytes": 8.0"#,
                ),
                (r#""shards": ["ACSR"]"#, r#""shards": []"#),
                (r#""scaling": [{"#, r#""scaling": [], "x": [{"#),
                (r#""serving": [{"#, r#""serving": [], "x": [{"#),
            ],
        );
        // A routed exchange forwards payload: fewer payload than link
        // bytes, ending before the direct schedule would have.
        let routed = minimal
            .replace(
                r#""payload_bytes": 8, "schedule": "direct""#,
                r#""payload_bytes": 6, "schedule": "bruck""#,
            )
            .replace(r#""exchange_ms": 0.1"#, r#""exchange_ms": 0.05"#);
        assert_eq!(validate(&routed), Ok(fleet::SCHEMA.kind));
    }

    #[test]
    fn stream_contract() {
        assert_contract(
            &stream::SCHEMA,
            r#"{"schema": "acsr-stream-v1", "rows": 10, "batches": 1, "total_ops": 4,
                "identical": true, "updates_per_sec": 9.0, "rebuild_updates_per_sec": 1.0,
                "speedup": 9.0, "p99_churn_ms": 1.0, "p99_steady_ms": 0.5, "ledger": {},
                "batch_rows": [{"name": "batch_01", "ops": 4, "incremental_s": 0.1,
                    "rebuild_s": 0.9, "drift": "hit", "identical": true}]}"#,
            &[
                (
                    r#""identical": true, "updates"#,
                    r#""identical": false, "updates"#,
                ),
                (r#""identical": true}"#, r#""identical": false}"#),
                (r#""batch_rows": [{"#, r#""batch_rows": [], "x": [{"#),
            ],
        );
    }

    #[test]
    fn metrics_contract() {
        assert_contract(
            &metrics::METRICS,
            r#"{"schema": "acsr-metrics-v1", "metrics": [
                {"name": "c", "type": "counter", "value": 3},
                {"name": "g", "type": "gauge", "value": 0.5},
                {"name": "h", "type": "histogram", "count": 1, "sum": 1.0, "p50": 1.0,
                    "p99": 1.0, "buckets": []}]}"#,
            &[
                (r#""value": 3"#, r#""value": -3"#),
                (r#""value": 3"#, r#""value": 3.5"#),
                (r#""type": "gauge""#, r#""type": "summary""#),
                (
                    r#""metrics": [
                {"#,
                    r#""metrics": [], "x": [{"#,
                ),
            ],
        );
    }

    #[test]
    fn timeline_contract() {
        let minimal = r#"{"schema": "acsr-timeline-v1", "request_events": 0, "wave_spans": 0,
            "kernel_spans": 0, "traceEvents": [{}]}"#;
        let announced = r#"[{"cat": "wave", "args": {"wave": 1}}, {"args": {"wave": 1}}]"#;
        let orphan = r#"[{"cat": "wave", "args": {"wave": 1}}, {"args": {"wave": 2}}]"#;
        assert_contract(
            &metrics::TIMELINE,
            minimal,
            &[("[{}]", orphan), ("[{}]", "[]")],
        );
        assert_eq!(
            validate(&minimal.replace("[{}]", announced)),
            Ok(metrics::TIMELINE.kind)
        );
    }

    #[test]
    fn selector_contract() {
        assert_contract(
            &crate::experiments::selector::SCHEMA,
            r#"{"schema": "acsr-selector-v1", "scale": 1024, "device": "GTX Titan",
                "rows": [{"matrix": "ENR", "horizon": 30, "winner": "ACSR", "candidates": []}]}"#,
            &[(r#""rows": [{"#, r#""rows": [], "x": [{"#)],
        );
    }

    #[test]
    fn serve_contract() {
        assert_contract(
            &crate::experiments::serve::SCHEMA,
            r#"{"schema": "acsr-serve-v1", "workload": "w",
                "batch_widths": [{"max_batch": 1, "completed": 4, "rejected": 0,
                    "waves": 4, "qps": 9.5, "gflops": 1.5, "p50_ms": 0.5, "p95_ms": 0.8,
                    "p99_ms": 0.9, "mean_iterations": 4.0}]}"#,
            &[(r#""batch_widths": [{"#, r#""batch_widths": [], "x": [{"#)],
        );
    }

    #[test]
    fn chrome_trace_contract() {
        assert_contract(
            &tracing::CHROME_TRACE,
            r#"{"traceEvents": [{}]}"#,
            &[(r#"[{}]"#, r#"[]"#)],
        );
    }

    #[test]
    fn untagged_documents_without_trace_events_are_plain_json() {
        assert_eq!(validate(r#"{"bench": "serve_throughput"}"#), Ok("JSON"));
        assert_eq!(validate(r#"{"traceEvents": 3}"#), Ok("JSON"));
        assert!(validate("{not json")
            .unwrap_err()
            .starts_with("invalid JSON"));
    }

    #[test]
    fn unknown_tags_are_rejected_with_the_known_ones() {
        let err = validate(r#"{"schema": "acsr-fleet-v2", "scaling": []}"#).unwrap_err();
        assert!(err.contains("unknown schema 'acsr-fleet-v2'"), "{err}");
        for schema in SCHEMAS.iter().filter(|s| !s.tag.is_empty()) {
            assert!(err.contains(schema.tag), "{err}");
        }
        let tags: Vec<&str> = SCHEMAS.iter().map(|s| s.tag).collect();
        for (i, tag) in tags.iter().enumerate() {
            assert!(!tags[..i].contains(tag), "{tag} declared twice");
        }
    }

    #[test]
    fn write_checks_before_it_writes() {
        let report = Value::Object(vec![("rows".into(), Value::U64(10))]);
        let err = write(&stream::SCHEMA, "never_written.json", &report).unwrap_err();
        assert!(err.contains("stream report: missing 'batches'"), "{err}");
        let tagged = Value::Object(vec![("schema".into(), Value::Str("x".into()))]);
        for report in [tagged, Value::Array(vec![])] {
            let err = write(&stream::SCHEMA, "never_written.json", &report).unwrap_err();
            assert!(err.contains("not an untagged JSON object"), "{err}");
        }
        assert!(!results_dir().join("never_written.json").exists());
    }

    /// The tag, if the schema has one, leads the document, the report's
    /// fields follow in declaration order, and the text ends in a newline.
    #[test]
    fn render_prepends_the_tag() {
        let report = |kernels: &str| {
            Value::Object(vec![
                ("host_cores".into(), Value::U64(2)),
                ("kernels".into(), serde_json::from_str(kernels).unwrap()),
            ])
        };
        assert_eq!(
            render(&simbench::SCHEMA, &report("[]")).unwrap_err(),
            "simbench report: needs at least 1 'kernels' row(s)"
        );
        let kernels = r#"[{"kernel": "ell",
            "widths": [{"workers": 1, "launches_per_sec": 9.5, "speedup_vs_seq": 1.0}]}]"#;
        let text = render(&simbench::SCHEMA, &report(kernels)).unwrap();
        assert!(
            text.starts_with("{\n  \"schema\": \"acsr-simbench-v1\",\n  \"host_cores\": 2,"),
            "{text}"
        );
        assert!(text.ends_with("}\n"), "{text}");
        assert_eq!(validate(&text), Ok(simbench::SCHEMA.kind));
        // The chrome-trace format is untagged.
        let trace = Value::Object(vec![(
            "traceEvents".into(),
            serde_json::from_str("[{}]").unwrap(),
        )]);
        let text = render(&tracing::CHROME_TRACE, &trace).unwrap();
        assert_eq!(text, "{\n  \"traceEvents\": [\n    {}\n  ]\n}\n");
    }

    /// The committed results, baselines and goldens keep their kinds, in
    /// the writer's layout.
    #[test]
    fn committed_artifacts_validate() {
        for (file, kind) in [
            ("baselines/BENCH_fleet_ci.json", "fleet report"),
            ("baselines/BENCH_sim_throughput_ci.json", "simbench report"),
            ("baselines/BENCH_slo_ci.json", "slo report"),
            ("baselines/BENCH_stream_ci.json", "stream report"),
            ("baselines/PROFILE_fig5_ci.json", "profile report"),
            ("baselines/PROFILE_fig5_ci_inflated.json", "profile report"),
            ("baselines/SELECTOR_ci.json", "selector report"),
            (
                "crates/bench/tests/golden/METRICS_serve_small.json",
                "metrics snapshot",
            ),
            (
                "crates/bench/tests/golden/profile_small.json",
                "profile report",
            ),
            (
                "crates/gpu-sim/tests/golden/trace_small.json",
                "chrome trace",
            ),
            (
                "crates/multigpu/tests/golden/trace_dual_k10.json",
                "chrome trace",
            ),
            (
                "crates/multigpu/tests/golden/trace_fleet_quad.json",
                "chrome trace",
            ),
            ("results/BENCH_fleet.json", "fleet report"),
            ("results/BENCH_serve.json", "serve throughput report"),
            ("results/BENCH_sim_throughput.json", "simbench report"),
            ("results/BENCH_slo.json", "slo report"),
            ("results/BENCH_stream.json", "stream report"),
            ("results/METRICS_fig5.json", "metrics snapshot"),
            ("results/METRICS_serve.json", "metrics snapshot"),
            ("results/PROFILE_fig5.json", "profile report"),
            ("results/SELECTOR_report.json", "selector report"),
            ("results/trace_fig5.json", "chrome trace"),
            ("results/trace_fig8.json", "chrome trace"),
        ] {
            let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).expect("read committed artifact");
            assert_eq!(validate(&text), Ok(kind), "{file}");
            let doc = serde_json::from_str(&text).unwrap();
            let layout = serde_json::to_string_pretty(&doc).unwrap() + "\n";
            assert!(layout == text, "{file} is not in the writer's layout");
        }
    }
}
