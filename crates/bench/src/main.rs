//! `repro` — regenerate any table or figure of the paper.
//!
//! ```text
//! repro <experiment> [--scale N] [--seed N] [--matrices A,B,C] [--json] [--trace]
//!
//! experiments:
//!   table1 table2 table3 table4 table5
//!   fig3 fig4 fig5 fig6 fig7 fig8
//!   serve      batched RWR/PPR serving throughput vs batch width
//!   ablations
//!   compare    Table III + Figure 4 + Table IV from one computation
//!   selector   adaptive format selection per matrix and horizon;
//!              writes results/SELECTOR_report.json
//!   formats    print the plan/execute pipeline's format registry
//!   all        every experiment at its default scope
//!
//! utilities:
//!   simbench [--quick]            host-simulator launches/sec sweep over
//!                                 kernels × worker widths; writes
//!                                 results/BENCH_sim_throughput.json
//!   slo [--quick]                 open-loop SLO-attainment sweep (offered
//!                                 qps vs p99-target attainment, plus
//!                                 diurnal/bursty/hot-key/tenant-mix
//!                                 traces); writes results/BENCH_slo.json
//!   fleet [--quick]               N-device sharded-fleet scaling (halo
//!                                 exchange reconciled against the trace
//!                                 ledger), per-shard format selection,
//!                                 and serving on 1 vs 4 devices; writes
//!                                 results/BENCH_fleet.json
//!   stream [--quick]              streaming ACSR maintenance: in-place
//!                                 edge-update throughput vs full rebuild,
//!                                 per-batch bit-identity, serving p99
//!                                 under churn; writes
//!                                 results/BENCH_stream.json
//!   profile <experiment> [opts]   run under the per-kernel profiler;
//!                                 writes results/PROFILE_<experiment>.json
//!   metrics <experiment> [opts]   run with the telemetry registry armed;
//!                                 writes results/METRICS_<experiment>.json
//!                                 (byte-stable acsr-metrics-v1 snapshot,
//!                                 each count folded once from its run's
//!                                 own records)
//!   timeline <experiment> [opts]  metrics plus the correlated
//!                                 request/kernel chrome-trace export
//!                                 results/TIMELINE_<experiment>.json
//!   bench-diff <baseline> <new> [--tolerance F]
//!                                 perf-regression gate over two JSON
//!                                 reports; exit 1 on regression
//!   check-artifacts <file>...     validate JSON artifacts against the
//!                                 schema their tag names
//! ```
//!
//! `--scale` divides the Table I matrix sizes (default 64); smaller
//! values approach the paper's full-size matrices at the cost of
//! simulation time. `--trace` additionally records every simulated
//! launch/transfer in a ledger, reconciles it against the experiment's
//! own accounting, and writes `results/trace_<experiment>.json`
//! (chrome://tracing format) with a per-phase rollup on stderr; it
//! combines with `profile`, `metrics` and `timeline`.

use repro_bench::artifact::{self, Schema};
use repro_bench::experiments::*;
use repro_bench::tracing::Capture;
use repro_bench::{fleet, simbench, slo, stream, Options};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        print_usage();
        return;
    }
    match args[0].as_str() {
        "check-artifacts" => check_artifacts(&args[1..]),
        "bench-diff" => bench_diff(&args[1..]),
        "simbench" => quick_bench(
            &args,
            &simbench::SCHEMA,
            "BENCH_sim_throughput.json",
            simbench::run,
            simbench::render,
        ),
        "slo" => quick_bench(&args, &slo::SCHEMA, "BENCH_slo.json", slo::run, slo::render),
        "fleet" => quick_bench(
            &args,
            &fleet::SCHEMA,
            "BENCH_fleet.json",
            fleet::run,
            fleet::render,
        ),
        "stream" => quick_bench(
            &args,
            &stream::SCHEMA,
            "BENCH_stream.json",
            stream::run,
            stream::render,
        ),
        _ => experiment(&args),
    }
}

/// `repro [profile|metrics|timeline] <experiment> [options]`.
fn experiment(args: &[String]) {
    let mut experiment = args[0].clone();
    let mut opts = Options::default();
    let capture = match experiment.as_str() {
        "profile" => Capture::Profile,
        "metrics" => Capture::Metrics,
        "timeline" => Capture::Timeline,
        _ => Capture::Off,
    };
    let mut trace = false;
    let mut i = 1;
    if capture != Capture::Off {
        experiment = args
            .get(1)
            .unwrap_or_else(|| die(&format!("{experiment} needs an experiment name")))
            .clone();
        i = 2;
    }
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                opts.scale = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a positive integer"));
                i += 2;
            }
            "--seed" => {
                opts.seed = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
                i += 2;
            }
            "--matrices" => {
                opts.matrices = args
                    .get(i + 1)
                    .unwrap_or_else(|| die("--matrices needs a comma list"))
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                i += 2;
            }
            "--json" => {
                opts.json = true;
                i += 1;
            }
            "--trace" => {
                trace = true;
                i += 1;
            }
            other => die(&format!("unknown option '{other}'")),
        }
    }
    run_experiment(&experiment, &opts, capture, trace);
}

fn run_experiment(name: &str, opts: &Options, capture: Capture, trace: bool) {
    if name == "all" {
        for exp in [
            "table1",
            "table2",
            "fig3",
            "table3",
            "fig4",
            "table4",
            "table5",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "serve",
            "ablations",
            "selector",
        ] {
            eprintln!(">>> {exp}");
            run_experiment(exp, opts, capture, trace);
        }
        return;
    }
    // Arm capture per experiment so each gets its own artifacts
    // (Devices attach to the global ledger at construction time).
    let armed = trace || capture != Capture::Off;
    if armed {
        repro_bench::tracing::begin(capture);
    }
    run_one(name, opts);
    if armed {
        repro_bench::tracing::finish(name, capture, trace).unwrap_or_else(|e| die(&e));
    }
}

fn run_one(name: &str, opts: &Options) {
    match name {
        "table1" => emit(opts, table1::run(opts), table1::render),
        "table2" => {
            let d = table2::run();
            if opts.json {
                println!("{}", serde_json::to_string_pretty(&d).unwrap());
            } else {
                println!("{}", table2::render(&d));
            }
        }
        "table3" => emit(opts, table3::run(opts), table3::render),
        "table4" => emit(opts, table4::run(opts), table4::render),
        "table5" => emit(opts, table5::run(opts), table5::render),
        "fig3" => {
            let r = fig3::run(opts);
            if opts.json {
                println!("{}", serde_json::to_string_pretty(&r).unwrap());
            } else {
                println!("{}", fig3::render(&r));
            }
        }
        "fig4" => emit(opts, fig4::run(opts), fig4::render),
        "fig5" => emit(opts, fig5::run(opts), fig5::render),
        "fig6" => emit(opts, fig6::run(opts), fig6::render),
        "fig7" => emit(opts, fig7::run(opts), fig7::render),
        "fig8" => emit(opts, fig8::run(opts), fig8::render),
        "serve" => {
            let sweep = serve::run(opts);
            let path = serve::write_report(&sweep).unwrap_or_else(|e| die(&e));
            if opts.json {
                println!("{}", serde_json::to_string_pretty(&sweep).unwrap());
            } else {
                println!("{}", serve::render(&sweep));
            }
            eprintln!("wrote {}", path.display());
        }
        "ablations" => emit(opts, ablations::run(opts), ablations::render),
        // Table III, Figure 4 and Table IV share one (expensive) format
        // comparison; this runs it once and prints all three.
        "compare" => {
            let rows = formats::run(opts);
            if opts.json {
                println!("{}", serde_json::to_string_pretty(&rows).unwrap());
            } else {
                println!("{}", table3::render(&rows));
                println!("{}", fig4::render(&rows));
                println!("{}", table4::render(&rows));
            }
        }
        // The pipeline's dispatch table: every registered planner.
        "formats" => {
            let descriptors = spmv_pipeline::FormatRegistry::<f64>::with_all().descriptors();
            if opts.json {
                println!("{}", serde_json::to_string_pretty(&descriptors).unwrap());
            } else {
                let mut t = repro_bench::Table::new(&["Format", "preprocessing", "multi-vector"]);
                for d in &descriptors {
                    t.row(vec![
                        d.name.to_string(),
                        d.class.label().to_string(),
                        if d.multi_fused { "fused" } else { "sequential" }.to_string(),
                    ]);
                }
                println!("Plan/execute pipeline: registered SpMV formats");
                print!("{}", t.render());
            }
        }
        "selector" => {
            let rows = selector::run(opts);
            let path = selector::write_report(&rows, opts).unwrap_or_else(|e| die(&e));
            if opts.json {
                println!("{}", serde_json::to_string_pretty(&rows).unwrap());
            } else {
                println!("{}", selector::render(&rows));
            }
            eprintln!("wrote {}", path.display());
        }
        other => die(&format!("unknown experiment '{other}'")),
    }
}

/// `repro check-artifacts <file>...`: check each file against the
/// schema its `schema` tag names (see [`artifact::validate`]).
fn check_artifacts(paths: &[String]) {
    if paths.is_empty() {
        die("check-artifacts needs at least one file path");
    }
    for path in paths {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("read {path}: {e}")));
        let kind = artifact::validate(&text).unwrap_or_else(|e| die(&format!("{path}: {e}")));
        println!("{path}: valid {kind} ({} bytes)", text.len());
    }
}

/// `repro <bench> [--quick]`: print the rendered report, then write it
/// through its schema.
fn quick_bench<R: serde::Serialize>(
    args: &[String],
    schema: &Schema,
    file: &str,
    run: fn(bool) -> R,
    render: fn(&R) -> String,
) {
    if let Some(bad) = args[1..].iter().find(|a| *a != "--quick") {
        die(&format!("{}: unknown option '{bad}'", args[0]));
    }
    let report = run(args.len() > 1);
    println!("{}", render(&report));
    let path = artifact::write(schema, file, &report).unwrap_or_else(|e| die(&e));
    eprintln!("wrote {}", path.display());
}

/// `repro bench-diff <baseline.json> <new.json> [--tolerance F]`: the
/// perf-regression gate. Exit 0 when within tolerance, 1 on regression,
/// 2 on usage/parse errors.
fn bench_diff(args: &[String]) {
    let mut files = Vec::new();
    let mut tolerance = 0.05f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tolerance" => {
                tolerance = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--tolerance needs a number like 0.05"));
                i += 2;
            }
            other => {
                files.push(other.to_string());
                i += 1;
            }
        }
    }
    if files.len() != 2 {
        die("bench-diff needs exactly two files: <baseline.json> <new.json>");
    }
    let report =
        repro_bench::diff::diff_files(&files[0], &files[1], tolerance).unwrap_or_else(|e| die(&e));
    print!("{}", report.render(tolerance));
    if !report.pass() {
        std::process::exit(1);
    }
}

fn emit<R: serde::Serialize>(opts: &Options, rows: Vec<R>, render: impl Fn(&[R]) -> String) {
    if opts.json {
        println!("{}", serde_json::to_string_pretty(&rows).unwrap());
    } else {
        println!("{}", render(&rows));
    }
}

fn print_usage() {
    println!(
        "repro — regenerate the paper's tables and figures on the simulated testbed\n\n\
         usage: repro <experiment> [--scale N] [--seed N] [--matrices A,B,C] [--json] [--trace]\n\
         \x20      repro profile <experiment> [same options]\n\
         \x20      repro metrics <experiment> [same options]\n\
         \x20      repro timeline <experiment> [same options]\n\
         \x20      repro simbench [--quick]\n\
         \x20      repro slo [--quick]\n\
         \x20      repro fleet [--quick]\n\
         \x20      repro stream [--quick]\n\
         \x20      repro bench-diff <baseline.json> <new.json> [--tolerance F]\n\
         \x20      repro check-artifacts <file>...\n\n\
         experiments: table1 table2 table3 table4 table5 fig3 fig4 fig5 fig6 fig7 fig8 serve ablations compare selector all\n\
         \x20            formats (print the pipeline's format registry)\n\n\
         defaults: --scale 64 --seed 1 (whole Table I suite)\n\
         --trace records every simulated launch, reconciles the ledger, and writes\n\
         results/trace_<experiment>.json (chrome://tracing) + a phase rollup on stderr\n\
         profile derives per-kernel SIMT metrics (warp efficiency, coalescing,\n\
         occupancy, roofline verdicts) and writes results/PROFILE_<experiment>.json\n\
         metrics captures the telemetry registry (counters/gauges/histograms,\n\
         each count folded once from its run's own records) as\n\
         results/METRICS_<experiment>.json; timeline additionally joins serve\n\
         request spans to kernel spans by wave id in results/TIMELINE_<experiment>.json\n\
         bench-diff compares two JSON reports; exit 1 if any metric regressed\n\
         tip: fig6/fig7 are iterative solvers — use --scale 256 for quick runs"
    );
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
