//! `acsr-bench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! acsr-bench <workload> [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--json PATH]
//! acsr-bench --workload <workload> ...            (the same, workload as an option)
//! acsr-bench repeat <workload> N [--seconds S] [--trace [0|1]] [--quick]
//! ```
//!
//! A run builds the workload's inputs from `--seed`, times its op
//! sequence for `--seconds` of host time, checks every output, and
//! prints one `name value unit clock` line per metric, then one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. The metrics
//! are the end-to-end set of `BENCHMARK.json`, or with `--trace` the
//! per-layer set (and `target/acsr-bench/trace_<workload>.json`, the
//! host spans as a chrome trace). Only harness errors exit non-zero.
//!
//! `repeat` runs N fresh processes, seeds 1..=N, prints each one's
//! header and result line, then each metric's median, quartiles and
//! spread against its declared bound.

mod bench;
mod churn;
mod device;
mod fleet;
mod host;
mod pagerank;
mod serve;
mod spec;

use bench::{median, Clock, Ctx, Metric};
use spec::Spec;
use std::fmt::Write as _;
use std::process::{Command, Stdio};

struct Workload {
    name: &'static str,
    run: fn(&mut Ctx) -> Result<(), String>,
    /// Per-layer metric prefixes the workload reports as 0.
    bypassed: &'static [&'static str],
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "pagerank",
        run: pagerank::run,
        bypassed: pagerank::BYPASSED,
    },
    Workload {
        name: "serve",
        run: serve::run,
        bypassed: serve::BYPASSED,
    },
    Workload {
        name: "fleet",
        run: fleet::run,
        bypassed: fleet::BYPASSED,
    },
    Workload {
        name: "churn",
        run: churn::run,
        bypassed: churn::BYPASSED,
    },
];

/// Simulator host threads for measured runs. Reports are bit-identical
/// at any width (the tests pin 1 against 2), but on a small shared host a
/// second worker waits on whatever else the machine runs, and doubled
/// the run-to-run spread of the host metrics when this was measured.
const SIM_THREADS: usize = 1;

/// Options of one run.
#[derive(Clone, Debug)]
struct Args {
    workload: String,
    seed: u64,
    /// `None`: `BENCHMARK.json`'s `run_seconds` (0 when quick).
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    json: Option<String>,
}

enum Cmd {
    Run(Args),
    Repeat(Args, usize),
}

fn parse(spec: &Spec, argv: &[String]) -> Result<Cmd, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        json: None,
    };
    let mut positional = Vec::new();
    let mut it = argv.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v.parse().map_err(|_| format!("bad --seed '{v}'"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds '{v}'"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {s} outside 0..=3600"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => args.quick = true,
            "--json" => args.json = Some(value("--json")?),
            flag if flag.starts_with("--") => return Err(format!("unknown option '{flag}'")),
            _ => positional.push(a.clone()),
        }
    }
    let repeat = positional.first().is_some_and(|p| p == "repeat");
    if repeat {
        positional.remove(0);
    }
    if args.workload.is_empty() && !positional.is_empty() {
        args.workload = positional.remove(0);
    }
    if !spec.workloads.contains(&args.workload) {
        return Err(format!(
            "unknown workload '{}' (one of: {})",
            args.workload,
            spec.workloads.join(", ")
        ));
    }
    match (repeat, positional.as_slice()) {
        (false, []) => Ok(Cmd::Run(args)),
        (true, [n]) => {
            let n: usize = n.parse().map_err(|_| format!("bad repeat count '{n}'"))?;
            if !(1..=1000).contains(&n) {
                return Err(format!("repeat count {n} outside 1..=1000"));
            }
            Ok(Cmd::Repeat(args, n))
        }
        (_, extra) => Err(format!("unexpected arguments {extra:?}")),
    }
}

/// The result of one workload run.
struct Outcome {
    /// The printed section, in declared order.
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    /// Self seconds per `layer.name` span (traced runs).
    span_self_s: Vec<(String, f64)>,
    /// Host spans as chrome-trace JSON (traced runs).
    trace_json: Option<String>,
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Every emitted metric must be declared, with its unit, finite and
/// emitted once; every metric of the printed section must be emitted,
/// or belong to a layer the workload bypasses (then it reads 0).
fn select(
    spec: &Spec,
    emitted: &[Metric],
    trace: bool,
    bypassed: &[&str],
) -> Result<Vec<Metric>, String> {
    for (i, m) in emitted.iter().enumerate() {
        let decl = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .find(|d| d.name == m.name)
            .ok_or_else(|| format!("metric '{}' is not declared in BENCHMARK.json", m.name))?;
        if decl.unit != m.unit {
            return Err(format!(
                "metric '{}' has unit '{}', BENCHMARK.json declares '{}'",
                m.name, m.unit, decl.unit
            ));
        }
        if !m.value.is_finite() {
            return Err(format!("metric '{}' is not finite: {}", m.name, m.value));
        }
        if emitted[..i].iter().any(|e| e.name == m.name) {
            return Err(format!("metric '{}' emitted twice", m.name));
        }
    }
    spec.section(trace)
        .iter()
        .map(|d| match emitted.iter().find(|m| m.name == d.name) {
            Some(m) => Ok(m.clone()),
            None if trace && bypassed.iter().any(|p| d.name.starts_with(p)) => Ok(Metric {
                name: d.name.clone(),
                value: 0.0,
                unit: d.unit.clone(),
                clock: Clock::Modeled,
            }),
            None => Err(format!("workload did not report '{}'", d.name)),
        })
        .collect()
}

fn run_workload(spec: &Spec, args: &Args, threads: usize) -> Result<Outcome, String> {
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| format!("workload '{}' is declared but not built", args.workload))?;
    gpu_sim::set_sim_threads(threads);
    let seconds = args
        .seconds
        .unwrap_or(if args.quick { 0.0 } else { spec.run_seconds });
    let mut cx = Ctx::new(w.name, args.seed, seconds, args.quick, args.trace);
    (w.run)(&mut cx)?;
    cx.host.finish();
    let rss = peak_rss_mb()?;
    cx.host_metric("peak_rss_mb", "MB", rss);
    let (mut span_self_s, mut trace_json) = (Vec::new(), None);
    if args.trace {
        let layers = cx.host.layer_self_s()?;
        for (layer, s) in layers {
            cx.host_metric(&format!("host.{layer}_s"), "s", s);
        }
        span_self_s = cx.host.span_self_s();
        trace_json = Some(cx.host.chrome_json());
    }
    Ok(Outcome {
        metrics: select(spec, &cx.metrics, args.trace, w.bypassed)?,
        attempted: cx.checks.attempted,
        failed: cx.checks.failed,
        span_self_s,
        trace_json,
    })
}

fn result_json(o: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, m) in o.metrics.iter().enumerate() {
        if i > 0 {
            metrics.push_str(", ");
        }
        write!(
            metrics,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed
    )
}

fn run(spec: &Spec, args: &Args) -> Result<(), String> {
    let o = run_workload(spec, args, SIM_THREADS)?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# acsr-bench workload={} seed={} trace={} quick={} sim_threads={SIM_THREADS} host_cores={cores}",
        args.workload, args.seed, args.trace as u8, args.quick as u8
    );
    for m in &o.metrics {
        let clock = match m.clock {
            Clock::Host => "host",
            Clock::Modeled => "modeled",
        };
        println!("{} {} {} {clock}", m.name, m.value, m.unit);
    }
    for (span, s) in &o.span_self_s {
        println!("# self {span} {s}");
    }
    if let Some(trace) = &o.trace_json {
        let dir = std::path::Path::new("target/acsr-bench");
        let path = dir.join(format!("trace_{}.json", args.workload));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, trace))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("# trace {}", path.display());
    }
    let json = result_json(&o);
    if let Some(path) = &args.json {
        std::fs::write(path, format!("{json}\n")).map_err(|e| format!("writing {path}: {e}"))?;
    }
    println!("{json}");
    Ok(())
}

/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method): the first and third quartiles.
fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// `repeat`: N fresh processes, seeds 1..=N, then each metric's median,
/// quartiles and spread `(q3 - q1) / median` against its bound.
fn repeat(spec: &Spec, args: &Args, n: usize) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating acsr-bench: {e}"))?;
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); spec.section(args.trace).len()];
    let (mut attempted, mut failed) = (0u64, 0u64);
    for seed in 1..=n as u64 {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", &args.workload, "--seed", &seed.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit());
        if let Some(s) = args.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        if args.quick {
            cmd.arg("--quick");
        }
        let out = cmd
            .output()
            .map_err(|e| format!("running {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or("");
        if !out.status.success() {
            return Err(format!(
                "seed {seed}: {} exited with {}",
                args.workload, out.status
            ));
        }
        if let Some(header) = stdout.lines().find(|l| l.starts_with("# acsr-bench ")) {
            println!("{header}");
        }
        println!("# run seed={seed} {last}");
        let result = serde_json::from_str(last)
            .map_err(|e| format!("seed {seed}: bad result line: {e:?}"))?;
        let value = |path: &[&str]| {
            let mut v = &result;
            for key in path {
                v = spec::field(v, key)?;
            }
            spec::number(v)
        };
        let err = |e: String| format!("seed {seed}: {e}");
        attempted += value(&["attempted"]).map_err(err)? as u64;
        failed += value(&["failed"]).map_err(err)? as u64;
        for (decl, vals) in spec.section(args.trace).iter().zip(&mut values) {
            vals.push(value(&["metrics", &decl.name, "value"]).map_err(err)?);
        }
    }
    println!(
        "# {} x{n}: attempted {attempted}, failed {failed}",
        args.workload
    );
    println!("# metric unit median q1 q3 spread bound verdict");
    for (decl, vals) in spec.section(args.trace).iter().zip(&values) {
        let (q1, q3) = quartiles(vals);
        let med = median(&mut vals.clone());
        let spread = if med != 0.0 {
            (q3 - q1) / med.abs()
        } else {
            0.0
        };
        let (bound, verdict) = match decl.bound {
            Some(b) if spread <= b / 3.0 => (b.to_string(), "ok"),
            Some(b) if spread <= b => (b.to_string(), "near"),
            Some(b) => (b.to_string(), "WIDE"),
            None => ("-".to_string(), "-"),
        };
        println!(
            "{} {} {med} {q1} {q3} {spread:.4} {bound} {verdict}",
            decl.name, decl.unit
        );
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = Spec::load().and_then(|spec| match parse(&spec, &argv)? {
        Cmd::Run(args) => run(&spec, &args),
        Cmd::Repeat(args, n) => repeat(&spec, &args, n),
    });
    if let Err(e) = outcome {
        eprintln!("acsr-bench: error: {e}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Runs share the process-wide simulator thread setting.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn quick(workload: &str, seed: u64, trace: bool, threads: usize) -> Outcome {
        let spec = Spec::load().expect("BENCHMARK.json parses");
        let args = Args {
            workload: workload.to_string(),
            seed,
            seconds: None,
            trace,
            quick: true,
            json: None,
        };
        run_workload(&spec, &args, threads)
            .unwrap_or_else(|e| panic!("{workload} (trace {trace}): {e}"))
    }

    fn modeled(o: &Outcome) -> Vec<(String, u64)> {
        o.metrics
            .iter()
            .filter(|m| m.clock == Clock::Modeled)
            .map(|m| (m.name.clone(), m.value.to_bits()))
            .collect()
    }

    #[test]
    fn workloads_match_the_declared_list() {
        let spec = Spec::load().expect("BENCHMARK.json parses");
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(spec.workloads, names);
    }

    /// Every metric printed is declared with its unit (`run_workload`
    /// refuses anything else), every check passes, and the modeled
    /// metrics repeat bit for bit across runs at 1 and 2 simulator
    /// threads.
    #[test]
    fn quick_runs_print_declared_metrics_and_repeat_bit_for_bit() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let spec = Spec::load().expect("BENCHMARK.json parses");
        for w in &WORKLOADS {
            for trace in [false, true] {
                let one = quick(w.name, 1, trace, 1);
                let two = quick(w.name, 1, trace, 2);
                assert_eq!(one.failed, 0, "{}: failed checks", w.name);
                assert!(one.attempted > 0, "{}: nothing checked", w.name);
                let printed: Vec<(&str, &str)> = one
                    .metrics
                    .iter()
                    .map(|m| (m.name.as_str(), m.unit.as_str()))
                    .collect();
                let declared: Vec<(&str, &str)> = spec
                    .section(trace)
                    .iter()
                    .map(|d| (d.name.as_str(), d.unit.as_str()))
                    .collect();
                assert_eq!(printed, declared, "{} (trace {trace})", w.name);
                assert!(!modeled(&one).is_empty());
                assert_eq!(modeled(&one), modeled(&two), "{} (trace {trace})", w.name);
            }
        }
    }

    #[test]
    fn a_different_seed_changes_the_inputs() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        for w in &WORKLOADS {
            let a = quick(w.name, 1, false, 2);
            let b = quick(w.name, 2, false, 2);
            assert_ne!(modeled(&a), modeled(&b), "{}: seed had no effect", w.name);
        }
    }

    #[test]
    fn quartiles_follow_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn parse_accepts_both_argument_forms() {
        let spec = Spec::load().expect("BENCHMARK.json parses");
        let parse = |s: &str| {
            parse(
                &spec,
                &s.split_whitespace().map(String::from).collect::<Vec<_>>(),
            )
        };
        let Ok(Cmd::Run(a)) = parse("--workload serve --seed 7 --seconds 10 --trace 0") else {
            panic!("the option form must parse")
        };
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve", 7, Some(10.0), false)
        );
        let Ok(Cmd::Run(a)) = parse("fleet --trace --quick") else {
            panic!("positional form must parse")
        };
        assert!(a.trace && a.quick && a.workload == "fleet");
        assert!(matches!(parse("repeat churn 10"), Ok(Cmd::Repeat(_, 10))));
        assert!(parse("nope").is_err());
        assert!(parse("serve --bogus").is_err());
    }
}
