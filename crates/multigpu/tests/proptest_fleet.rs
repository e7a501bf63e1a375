//! Fleet determinism properties, under both placements of `x`: a
//! sharded SpMV's *values* are bit-identical to the single-device ACSR
//! plan (sharding changes where a row runs, never its arithmetic), and
//! the full observable result — values, per-device counters, modeled
//! times, and the scheduled exchange — is bit-identical across host
//! worker widths (`ACSR_SIM_THREADS` ∈ {1, 2, 4}).

use acsr::AcsrConfig;
use gpu_sim::{presets, set_sim_threads, RunReport};
use graphgen::{generate_power_law, PowerLawConfig};
use multi_gpu::{Fleet, FleetConfig, FleetReport};
use proptest::prelude::*;
use sparse_formats::CsrMatrix;
use spmv_pipeline::{AcsrPlanner, PlanBudget, SpmvPlanner};
use std::sync::Mutex;

/// `set_sim_threads` is process-global; hold this across width changes.
static WIDTH_LOCK: Mutex<()> = Mutex::new(());

fn matrix(rows: usize, seed: u64) -> CsrMatrix<f64> {
    generate_power_law(&PowerLawConfig {
        rows,
        cols: rows,
        mean_degree: 8.0,
        max_degree: rows / 2 + 8,
        pinned_max_rows: 2,
        col_skew: 0.4,
        seed,
        ..Default::default()
    })
}

fn input(cols: usize) -> Vec<f64> {
    (0..cols).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect()
}

/// Everything a fleet SpMV observably produced, as raw bits.
fn signature(rep: &FleetReport, y: &[f64]) -> (Vec<u64>, Vec<String>, Vec<u64>, String) {
    let dev = |r: &RunReport| {
        format!(
            "{} {} {:?} {:?}",
            r.name,
            r.time_s.to_bits(),
            r.counters,
            r.breakdown
        )
    };
    (
        y.iter().map(|v| v.to_bits()).collect(),
        rep.per_device.iter().map(dev).collect(),
        rep.compute.iter().map(|c| c.to_bits()).collect(),
        format!("{:?}", rep.exchange),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Fleet values equal the single-device ACSR plan bit-for-bit at
    /// every device count and placement, and the whole report is
    /// invariant across host worker widths.
    #[test]
    fn fleet_is_bit_identical_to_reference_and_across_widths(
        rows in 300usize..900,
        seed in 1u64..4000,
    ) {
        let _guard = WIDTH_LOCK.lock().unwrap();
        let m = matrix(rows, seed);
        let x = input(m.cols());
        let dev_cfg = presets::tesla_k10_single();

        // Single-device reference: one ACSR plan over the whole matrix.
        set_sim_threads(1);
        let dev = gpu_sim::Device::new(dev_cfg.clone());
        let planner = AcsrPlanner::with_config(AcsrConfig::static_long_tail());
        let plan = planner
            .plan(&dev, &m, &PlanBudget::for_device(dev.config()))
            .expect("reference plan fits");
        let xd = dev.alloc(x.clone());
        let yd = dev.alloc_zeroed::<f64>(m.rows());
        use spmv_kernels::GpuSpmv;
        plan.spmv(&dev, &xd, &yd);
        let want: Vec<u64> = yd.as_slice().iter().map(|v| v.to_bits()).collect();
        set_sim_threads(0);

        for n in [2usize, 3, 5] {
            for cfg in [FleetConfig::new(n), FleetConfig::replicated(n)] {
                let mut base = None;
                for width in [1usize, 2, 4] {
                    set_sim_threads(width);
                    let fleet = Fleet::new(&m, &dev_cfg, &cfg);
                    let mut y = vec![0.0f64; m.rows()];
                    let rep = fleet.spmv(&x, &mut y);
                    set_sim_threads(0);
                    let got: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
                    prop_assert_eq!(
                        &got, &want,
                        "{} devices {:?}, width {}: values drifted from the single-device plan",
                        n, cfg.placement, width
                    );
                    let sig = signature(&rep, &y);
                    match &base {
                        None => base = Some(sig),
                        Some(b) => prop_assert_eq!(
                            b, &sig,
                            "{} devices {:?}: width {} report differs from width 1",
                            n, cfg.placement, width
                        ),
                    }
                }
            }
        }
    }
}
