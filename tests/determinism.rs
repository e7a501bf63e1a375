//! Determinism and reproducibility guarantees: everything in the
//! pipeline — generation, simulation, applications, experiments — must
//! be bit-reproducible for a fixed seed, because EXPERIMENTS.md's
//! recorded numbers are only meaningful if a reader can regenerate them.

use acsr_repro::acsr::{AcsrConfig, AcsrEngine};
use acsr_repro::gpu_sim::{presets, Device};
use acsr_repro::graph_apps::pagerank::{pagerank_gpu, pagerank_operator};
use acsr_repro::graph_apps::IterParams;
use acsr_repro::graphgen::MatrixSpec;
use acsr_repro::spmv_kernels::GpuSpmv;
use acsr_repro::spmv_pipeline::{FormatRegistry, PlanBudget};

/// Helper mirroring `MatrixSpec::generate` for two calls.
fn gen(abbrev: &str, scale: usize, seed: u64) -> acsr_repro::sparse_formats::CsrMatrix<f64> {
    MatrixSpec::by_abbrev(abbrev)
        .unwrap()
        .generate::<f64>(scale, seed)
        .csr
}

#[test]
fn simulated_reports_are_bit_identical_across_runs() {
    let m = gen("ENR", 128, 7);
    let run = || {
        let dev = Device::new(presets::gtx_titan());
        let engine = AcsrEngine::from_csr(&dev, &m, AcsrConfig::for_device(dev.config()));
        let x = dev.alloc(vec![1.25f64; m.cols()]);
        let y = dev.alloc_zeroed::<f64>(m.rows());
        let r = engine.spmv(&dev, &x, &y);
        (r.time_s, r.counters, y.into_vec())
    };
    let (t1, c1, y1) = run();
    let (t2, c2, y2) = run();
    assert_eq!(t1, t2);
    assert_eq!(c1, c2);
    assert_eq!(y1, y2);
}

#[test]
fn pagerank_solves_are_bit_identical_across_runs() {
    let m = gen("INT", 64, 3);
    let op = pagerank_operator(&m);
    let reg = FormatRegistry::<f64>::with_all();
    let run = || {
        let dev = Device::new(presets::gtx_titan());
        let plan = reg
            .plan("ACSR", &dev, &op, &PlanBudget::for_device(dev.config()))
            .unwrap();
        pagerank_gpu(&dev, &plan, 0.85, &IterParams::default())
    };
    let a = run();
    let b = run();
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(a.scores, b.scores);
    assert_eq!(a.report.time_s, b.report.time_s);
}

#[test]
fn suite_generation_is_stable_across_scales_and_seeds() {
    // different seeds must differ; same seed must agree; different scales
    // must give different sizes but stable statistics
    let a = gen("YOT", 128, 1);
    let b = gen("YOT", 128, 1);
    let c = gen("YOT", 128, 2);
    assert_eq!(a, b);
    assert_ne!(a, c);
    let small = gen("YOT", 256, 1);
    assert!(small.rows() < a.rows());
    let (sa, ss) = (a.row_stats(), small.row_stats());
    assert!(
        (sa.mean - ss.mean).abs() < 1.5,
        "mu drifted: {} vs {}",
        sa.mean,
        ss.mean
    );
}

#[test]
fn cpu_and_sim_backends_agree_numerically() {
    let m = gen("WEB", 128, 9);
    let x: Vec<f64> = (0..m.cols()).map(|i| 0.5 + (i % 17) as f64 * 0.1).collect();
    // simulated ACSR
    let dev = Device::new(presets::gtx_titan());
    let engine = AcsrEngine::from_csr(&dev, &m, AcsrConfig::for_device(dev.config()));
    let xd = dev.alloc(x.clone());
    let yd = dev.alloc_zeroed::<f64>(m.rows());
    engine.spmv(&dev, &xd, &yd);
    // serial CSR reference
    let y_cpu = m.spmv(&x);
    let d = acsr_repro::sparse_formats::scalar::rel_l2_distance(yd.as_slice(), &y_cpu);
    assert!(d < 1e-12, "backends diverge: rel L2 {d}");
}
