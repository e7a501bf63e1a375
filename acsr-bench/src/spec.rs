//! The benchmark's declared contract, read from `BENCHMARK.json` at
//! build time: workloads, metrics with units and bounds, run length.

use serde::Value;

/// `BENCHMARK.json`, embedded so the binary and its tests check output
/// against the same file the repository commits.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Clone, Debug)]
pub struct Decl {
    pub name: String,
    pub unit: String,
    /// Allowed worsening as a share of the median (end-to-end only).
    pub bound: Option<f64>,
}

/// The parsed contract.
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Decl>,
    pub per_layer: Vec<Decl>,
}

pub fn field<'a>(obj: &'a Value, key: &str) -> Result<&'a Value, String> {
    let Value::Object(entries) = obj else {
        return Err(format!("expected an object holding '{key}'"));
    };
    entries
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing key '{key}'"))
}

fn string(v: &Value) -> Result<String, String> {
    match v {
        Value::Str(s) => Ok(s.clone()),
        other => Err(format!("expected a string, got {other:?}")),
    }
}

pub fn number(v: &Value) -> Result<f64, String> {
    match *v {
        Value::F64(x) => Ok(x),
        Value::I64(x) => Ok(x as f64),
        Value::U64(x) => Ok(x as f64),
        ref other => Err(format!("expected a number, got {other:?}")),
    }
}

fn array(v: &Value) -> Result<&[Value], String> {
    match v {
        Value::Array(a) => Ok(a),
        other => Err(format!("expected an array, got {other:?}")),
    }
}

fn decls(root: &Value, key: &str) -> Result<Vec<Decl>, String> {
    array(field(root, key)?)?
        .iter()
        .map(|m| {
            Ok(Decl {
                name: string(field(m, "name")?)?,
                unit: string(field(m, "unit")?)?,
                bound: field(m, "bound").ok().map(number).transpose()?,
            })
        })
        .collect()
}

impl Spec {
    /// Parse the embedded `BENCHMARK.json`.
    pub fn load() -> Result<Spec, String> {
        let root =
            serde_json::from_str(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
        let workloads = array(field(&root, "workloads")?)?
            .iter()
            .map(|w| string(field(w, "name")?))
            .collect::<Result<_, _>>()?;
        Ok(Spec {
            run_seconds: number(field(&root, "run_seconds")?)?,
            workloads,
            end_to_end: decls(&root, "end_to_end")?,
            per_layer: decls(&root, "per_layer")?,
        })
    }

    /// The metrics a run prints: end-to-end, or per-layer when traced.
    pub fn section(&self, trace: bool) -> &[Decl] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}
