//! Host-clock spans recorded around every benchmark call into a layer.
//!
//! Spans nest on one thread: each has a layer (the crate whose public
//! function the benchmark called), a name, the repetition or request id
//! it served, its parent, and start/end in integer nanoseconds from the
//! workload's start. A span's self time is its duration minus its
//! direct children's, so the self times of all spans — the root's self
//! time being the explicit `unattributed` remainder — sum exactly to the
//! workload's host time.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// The layers host self time is reported for, in report order.
const LAYERS: [&str; 9] = [
    "graphgen",
    "sparse",
    "pipeline",
    "apps",
    "serve",
    "multigpu",
    "stream",
    "telemetry",
    "check",
];

/// One recorded span.
struct HostSpan {
    layer: &'static str,
    name: &'static str,
    /// Repetition (or request) id the span worked for.
    id: u64,
    parent: Option<usize>,
    start_ns: u64,
    /// `None` while the span is open.
    end_ns: Option<u64>,
}

impl HostSpan {
    fn dur_ns(&self) -> u64 {
        self.end_ns
            .expect("span closed")
            .saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder rooted at one workload span.
pub struct HostTrace {
    base: Instant,
    spans: RefCell<Vec<HostSpan>>,
    open: RefCell<Vec<usize>>,
}

impl HostTrace {
    /// Start the clock and open the root span for `workload`.
    pub fn new(workload: &'static str) -> HostTrace {
        let trace = HostTrace {
            base: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        };
        trace.open("bench", workload, 0);
        trace
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    fn open(&self, layer: &'static str, name: &'static str, id: u64) {
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        spans.push(HostSpan {
            layer,
            name,
            id,
            parent,
            start_ns: self.now_ns(),
            end_ns: None,
        });
        self.open.borrow_mut().push(spans.len() - 1);
    }

    /// Close the innermost open span; returns its duration in seconds.
    fn close(&self) -> f64 {
        let idx = self.open.borrow_mut().pop().expect("a span is open");
        let end = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        spans[idx].end_ns = Some(end);
        spans[idx].dur_ns() as f64 * 1e-9
    }

    /// Run `f` inside a span; returns its result and host seconds.
    pub fn time<R>(
        &self,
        layer: &'static str,
        name: &'static str,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        self.open(layer, name, id);
        let out = f();
        (out, self.close())
    }

    /// Close the root span (call once, after the last layer call).
    pub fn finish(&self) {
        assert_eq!(
            self.open.borrow().len(),
            1,
            "only the root span may remain open"
        );
        self.close();
    }

    /// Self time of every span, nanoseconds, indexed like the spans.
    fn self_ns(&self) -> Vec<u64> {
        let spans = self.spans.borrow();
        let mut out: Vec<u64> = spans.iter().map(HostSpan::dur_ns).collect();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                out[p] = out[p].saturating_sub(s.dur_ns());
            }
        }
        out
    }

    /// Self seconds per [`LAYERS`] entry plus `unattributed`, which
    /// together sum to the workload's host time (the root span). Errors
    /// when the integer self times fail to sum to the root.
    pub fn layer_self_s(&self) -> Result<Vec<(&'static str, f64)>, String> {
        let self_ns = self.self_ns();
        let spans = self.spans.borrow();
        let mut per_layer: Vec<(&'static str, u64)> = LAYERS
            .iter()
            .map(|&layer| {
                let ns = spans
                    .iter()
                    .zip(&self_ns)
                    .filter(|(s, _)| s.layer == layer)
                    .map(|(_, &n)| n)
                    .sum();
                (layer, ns)
            })
            .collect();
        per_layer.push(("unattributed", self_ns[0]));
        let total = spans[0].dur_ns();
        let sum: u64 = per_layer.iter().map(|(_, ns)| ns).sum();
        if sum != total {
            return Err(format!(
                "host self times sum to {sum} ns, workload host time is {total} ns"
            ));
        }
        Ok(per_layer
            .into_iter()
            .map(|(layer, ns)| (layer, ns as f64 * 1e-9))
            .collect())
    }

    /// Self seconds summed per `layer.name`, in first-appearance order.
    pub fn span_self_s(&self) -> Vec<(String, f64)> {
        let self_ns = self.self_ns();
        let spans = self.spans.borrow();
        let mut out: Vec<(String, u64)> = Vec::new();
        for (s, &ns) in spans.iter().zip(&self_ns) {
            let key = format!("{}.{}", s.layer, s.name);
            match out.iter_mut().find(|(k, _)| *k == key) {
                Some((_, acc)) => *acc += ns,
                None => out.push((key, ns)),
            }
        }
        out.into_iter()
            .map(|(k, ns)| (k, ns as f64 * 1e-9))
            .collect()
    }

    /// chrome://tracing JSON of every span (complete events, µs), with
    /// layer, parent, id and self time in each event's args.
    pub fn chrome_json(&self) -> String {
        let self_ns = self.self_ns();
        let spans = self.spans.borrow();
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, (s, &own)) in spans.iter().zip(&self_ns).enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{{\"name\":\"{}.{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\
                 \"id\":{},\"self_us\":{:.3}}}}}",
                s.layer,
                s.name,
                s.layer,
                s.start_ns as f64 * 1e-3,
                s.dur_ns() as f64 * 1e-3,
                s.id,
                own as f64 * 1e-3,
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_and_unattributed_sum_to_the_workload() {
        let t = HostTrace::new("unit");
        t.time("graphgen", "a", 0, || {
            t.time("sparse", "b", 0, || {
                std::hint::black_box((0..1000).sum::<u64>())
            });
        });
        t.time("check", "c", 1, || ());
        t.finish();
        let layers = t.layer_self_s().expect("self times reconcile");
        let total = t.spans.borrow()[0].dur_ns() as f64 * 1e-9;
        let sum: f64 = layers.iter().map(|(_, s)| s).sum();
        assert!((sum - total).abs() <= 1e-9 * layers.len() as f64);
        assert_eq!(layers.last().unwrap().0, "unattributed");
        serde_json::validate(&t.chrome_json()).expect("chrome trace is valid JSON");
    }
}
