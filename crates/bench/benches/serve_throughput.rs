//! Batched serving throughput: host wall-clock per served stream of the
//! continuous-batching RWR scheduler at batch widths k ∈ {1, 4, 16, 64}
//! on the GTX Titan preset (saturated Poisson load). The modeled
//! numbers of the same sweep come from `repro serve`, which writes
//! `results/BENCH_serve.json`.

use acsr_serve::{ArrivalPattern, ServeConfig, ServeEngine, ServeReport};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use graphgen::{generate_power_law, PowerLawConfig};
use repro_bench::experiments::serve::BATCH_WIDTHS;

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
}

criterion_group!(benches, bench_serve_throughput);
criterion_main!(benches);
