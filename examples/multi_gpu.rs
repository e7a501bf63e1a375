//! Multi-GPU SpMV on the dual-GPU Tesla K10 (paper §VIII): each ACSR bin
//! is split half/half across the two simulated GK104 devices of a
//! replicated-`x` fleet.
//!
//! ```text
//! cargo run --release --example multi_gpu
//! ```

use acsr_repro::gpu_sim::presets;
use acsr_repro::graphgen::MatrixSpec;
use acsr_repro::multi_gpu::{Fleet, FleetConfig};

fn main() {
    let k10 = presets::tesla_k10_single();
    println!(
        "device: 2x {} (no dynamic parallelism — §VIII static long-tail ACSR)\n",
        k10.name
    );
    println!(
        "{:<6} {:>10} {:>12} {:>12} {:>9}",
        "matrix", "nnz", "1 GPU GF/s", "2 GPU GF/s", "speedup"
    );
    // A big web graph that scales vs a small one that can't saturate two
    // GPUs — the paper's EU2-vs-INT contrast.
    for (abbrev, scale) in [
        ("LJ2", 64usize),
        ("EU2", 64),
        ("HOL", 64),
        ("INT", 64),
        ("ENR", 64),
    ] {
        let spec = MatrixSpec::by_abbrev(abbrev).unwrap();
        let m = spec.generate::<f64>(scale, 5).csr;
        let x: Vec<f64> = (0..m.cols()).map(|i| 1.0 + (i % 5) as f64 * 0.2).collect();
        let mut y = vec![0.0; m.rows()];
        let flops = 2 * m.nnz() as u64;

        let single = Fleet::new(&m, &k10, &FleetConfig::replicated(1));
        let t1 = single.spmv(&x, &mut y).seconds();
        let dual = Fleet::new(&m, &k10, &FleetConfig::replicated(2));
        let rep = dual.spmv(&x, &mut y).seconds();
        println!(
            "{:<6} {:>10} {:>12.1} {:>12.1} {:>8.2}x",
            abbrev,
            m.nnz(),
            flops as f64 / t1 / 1e9,
            flops as f64 / rep / 1e9,
            t1 / rep
        );
    }
    println!(
        "\nBig matrices approach 2x; small ones can't cover the second GPU's\n\
         launch/sync floors — exactly the paper's 'insufficient workload' cases."
    );
}
