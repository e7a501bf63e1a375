//! Dynamic social-network analysis (paper §VII): a flickr-like graph
//! evolves over 10 epochs; PageRank re-converges warm-started after each
//! change. Compares ACSR's incremental device-side updates against full
//! re-upload (CSR) and re-upload + re-transformation (HYB).
//!
//! ```text
//! cargo run --release --example dynamic_social
//! ```

use acsr_repro::gpu_sim::{presets, Device};
use acsr_repro::graph_apps::dynamic::{dynamic_pagerank, DynamicConfig, Strategy};
use acsr_repro::graph_apps::pagerank::pagerank_operator;
use acsr_repro::graph_apps::IterParams;
use acsr_repro::graphgen::MatrixSpec;
use acsr_repro::sparse_formats::HostModel;

fn main() {
    let spec = MatrixSpec::by_abbrev("FLI").unwrap();
    let graph = spec.generate::<f64>(128, 3).csr;
    println!(
        "social graph analog '{}': {} users, {} edges; 10% of rows churn per epoch",
        spec.name,
        graph.rows(),
        graph.nnz()
    );
    let op = pagerank_operator(&graph);
    let dev = Device::new(presets::gtx_titan());
    let host = HostModel::default();
    let cfg = DynamicConfig {
        epochs: 10,
        params: IterParams {
            epsilon: 1e-6,
            max_iters: 500,
        },
        ..Default::default()
    };

    let acsr = dynamic_pagerank(&dev, &op, Strategy::AcsrIncremental, &cfg, &host);
    let csr = dynamic_pagerank(&dev, &op, Strategy::CsrReupload, &cfg, &host);
    let hyb = dynamic_pagerank(&dev, &op, Strategy::HybReupload, &cfg, &host);

    println!("\nepoch  iters  ACSR total  vs CSR  vs HYB   (epoch 0 = cold start)");
    for e in 0..acsr.len() {
        println!(
            "{:>5}  {:>5}  {:>9.2}ms  {:>5.2}x  {:>5.2}x",
            e,
            acsr[e].iterations,
            acsr[e].total_seconds() * 1e3,
            csr[e].total_seconds() / acsr[e].total_seconds(),
            hyb[e].total_seconds() / acsr[e].total_seconds(),
        );
    }
    let sum = |v: &[acsr_repro::graph_apps::dynamic::EpochStats]| {
        v[1..].iter().map(|e| e.total_seconds()).sum::<f64>()
    };
    println!(
        "\nupdate epochs total: ACSR {:.2}ms | CSR {:.2}ms ({:.2}x) | HYB {:.2}ms ({:.2}x)",
        sum(&acsr) * 1e3,
        sum(&csr) * 1e3,
        sum(&csr) / sum(&acsr),
        sum(&hyb) * 1e3,
        sum(&hyb) / sum(&acsr),
    );
    println!(
        "epoch-1 PCIe copies: ACSR ships deltas in {:.1} µs; CSR re-ships the whole matrix in {:.1} µs",
        acsr[1].copy_seconds * 1e6,
        csr[1].copy_seconds * 1e6
    );
}
