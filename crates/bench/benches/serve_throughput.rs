//! Batched serving throughput: modeled queries/sec and SpMV GFLOPS of
//! the continuous-batching RWR scheduler at batch widths k ∈ {1, 4, 16,
//! 64} on the GTX Titan preset (saturated Poisson load). The Criterion
//! group measures host wall-clock per served stream; the modeled
//! numbers — the experiment's actual deliverable — are written to
//! `results/BENCH_serve.json` together with `host_cores` (host wall
//! times depend on the machine that produced the file; the modeled
//! queries/sec do not).

use acsr_serve::{ArrivalPattern, ServeConfig, ServeEngine, ServeReport};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use graphgen::{generate_power_law, PowerLawConfig};

const BATCH_WIDTHS: [usize; 4] = [1, 4, 16, 64];
const N_QUERIES: usize = 64;

fn graph() -> sparse_formats::CsrMatrix<f64> {
    generate_power_law(&PowerLawConfig {
        rows: 4096,
        cols: 4096,
        mean_degree: 8.0,
        max_degree: 1400,
        pinned_max_rows: 2,
        col_skew: 0.5,
        seed: 29,
        ..Default::default()
    })
}

fn serve_stream(g: &sparse_formats::CsrMatrix<f64>, max_batch: usize) -> ServeReport<f64> {
    let engine = ServeEngine::new(
        g,
        ServeConfig {
            max_batch,
            queue_capacity: 2 * N_QUERIES,
            ..ServeConfig::default()
        },
    );
    engine.serve_generated(
        ArrivalPattern::Poisson { rate_qps: 2e5 },
        N_QUERIES,
        0.85,
        29,
    )
}

fn bench_serve_throughput(c: &mut Criterion) {
    let g = graph();
    let mut grp = c.benchmark_group("serve_throughput");
    grp.sample_size(10);
    grp.throughput(Throughput::Elements(N_QUERIES as u64));
    for k in BATCH_WIDTHS {
        grp.bench_with_input(BenchmarkId::new("max_batch", k), &k, |b, &k| {
            b.iter(|| serve_stream(&g, k));
        });
    }
    grp.finish();
    write_results_json(&g);
}

/// Machine-readable artifact for the repo's experiment log.
fn write_results_json(g: &sparse_formats::CsrMatrix<f64>) {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut entries = String::new();
    for (i, &k) in BATCH_WIDTHS.iter().enumerate() {
        let report = serve_stream(g, k);
        let lat = report.latency_stats();
        if i > 0 {
            entries.push_str(",\n");
        }
        entries.push_str(&format!(
            "    {{\"max_batch\": {k}, \"completed\": {}, \"queries_per_sec\": {:.1}, \
             \"gflops\": {:.3}, \"p50_ms\": {:.4}, \"p99_ms\": {:.4}, \"waves\": {}}}",
            report.outcomes.len(),
            report.throughput_qps(),
            report.gflops(),
            lat.p50_s * 1e3,
            lat.p99_s * 1e3,
            report.waves,
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"serve_throughput\",\n  \"workload\": \"{N_QUERIES} RWR queries, \
         saturated Poisson, 4096-row power-law, GTX Titan\",\n  \"host_cores\": {host_cores},\n  \
         \"batch_widths\": [\n{entries}\n  ]\n}}\n"
    );
    let path = repro_bench::artifact::results_dir().join("BENCH_serve.json");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("could not write {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
}

criterion_group!(benches, bench_serve_throughput);
criterion_main!(benches);
