//! Host-side parallel-simulation throughput: simulated kernel launches
//! per second at 1/2/4/8 worker threads (the `ACSR_SIM_THREADS` knob /
//! [`gpu_sim::set_sim_threads`]) for each SpMV engine. Every width
//! computes bit-identical reports, so this measures pure host mechanism.
//!
//! The workload set and sweep live in [`repro_bench::simbench`]; its
//! artifact, `results/BENCH_sim_throughput.json`, is written by `repro
//! simbench`, not by this bench.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gpu_sim::set_sim_threads;
use repro_bench::simbench;

fn bench_sim_throughput(c: &mut Criterion) {
    let workloads = simbench::workloads();
    let mut g = c.benchmark_group("sim_throughput");
    g.sample_size(10);
    g.throughput(Throughput::Elements(1)); // elements = simulated launches
    for w in &workloads {
        for threads in simbench::WIDTHS {
            g.bench_with_input(
                BenchmarkId::new(w.kernel, threads),
                &threads,
                |b, &threads| {
                    set_sim_threads(threads);
                    b.iter(|| w.launch());
                    set_sim_threads(0);
                },
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench_sim_throughput);
criterion_main!(benches);
