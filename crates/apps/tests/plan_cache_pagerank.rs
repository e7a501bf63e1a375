//! Acceptance pin for plan reuse: an iterative app that re-fetches its
//! plan from the [`PlanCache`] every solve pays the format's
//! `PreprocessCost` exactly once — iterations 2..n report **zero**
//! additional preprocessing, and the answers are bit-identical to the
//! first iteration's.

use gpu_sim::{presets, Device};
use graph_apps::dynamic::{dynamic_pagerank_cached, DynamicConfig, Strategy};
use graph_apps::pagerank::{pagerank_gpu, pagerank_operator};
use graph_apps::IterParams;
use graphgen::{generate_power_law, generate_update_batch, PowerLawConfig, UpdateConfig};
use sparse_formats::HostModel;
use spmv_pipeline::{FormatRegistry, PlanBudget, PlanCache};

#[test]
fn repeat_iterations_add_zero_preprocess_cost() {
    let g = generate_power_law(&PowerLawConfig {
        rows: 700,
        cols: 700,
        mean_degree: 6.0,
        max_degree: 200,
        pinned_max_rows: 1,
        col_skew: 0.4,
        seed: 171,
        ..Default::default()
    });
    let m = pagerank_operator(&g);
    let dev = Device::new(presets::gtx_titan());
    let reg = FormatRegistry::<f64>::with_all();
    let budget = PlanBudget::default();
    let host = HostModel::default();
    let params = IterParams::default();

    let mut cache = PlanCache::<f64>::new();
    let n = 6;
    let mut first_scores: Option<Vec<f64>> = None;
    let mut first_preprocess = 0.0;
    let mut additional_preprocess = 0.0;
    for i in 0..n {
        let misses_before = cache.misses();
        let (res, paid_if_planned) = {
            let plan = cache.get_or_plan(&reg, "ACSR", &dev, &m, &budget).unwrap();
            let paid = plan.preprocess_seconds(&host) + dev.htod_seconds(plan.upload_bytes());
            (pagerank_gpu(&dev, plan, 0.85, &params), paid)
        };
        let paid = if cache.misses() > misses_before {
            paid_if_planned
        } else {
            0.0
        };
        if i == 0 {
            first_preprocess = paid;
        } else {
            additional_preprocess += paid;
        }
        match &first_scores {
            None => first_scores = Some(res.scores),
            Some(want) => {
                assert_eq!(res.scores.len(), want.len());
                for (a, b) in res.scores.iter().zip(want) {
                    assert_eq!(a.to_bits(), b.to_bits(), "cached plan changed the answer");
                }
            }
        }
    }
    assert!(
        first_preprocess > 0.0,
        "cold plan must charge preprocessing"
    );
    assert_eq!(
        additional_preprocess, 0.0,
        "iterations 2..n must pay zero additional preprocessing"
    );
    assert_eq!(cache.misses(), 1);
    assert_eq!(cache.hits(), n - 1);
}

/// Satellite pin: on the dynamic-epoch PageRank path every structural
/// epoch must miss + invalidate (the rebuild strategies replan from
/// scratch), and re-probing the final structure afterwards is the run's
/// only hit.
#[test]
fn dynamic_epochs_pin_cache_miss_and_invalidation_counts() {
    let g = generate_power_law(&PowerLawConfig {
        rows: 500,
        cols: 500,
        mean_degree: 6.0,
        max_degree: 150,
        pinned_max_rows: 1,
        col_skew: 0.4,
        seed: 303,
        ..Default::default()
    });
    let m = pagerank_operator(&g);
    let dev = Device::new(presets::gtx_titan());
    let host = HostModel::default();
    let epochs = 3;
    let cfg = DynamicConfig {
        epochs,
        params: IterParams {
            epsilon: 1e-6,
            max_iters: 300,
        },
        ..Default::default()
    };

    let mut cache = PlanCache::<f64>::new();
    let stats = dynamic_pagerank_cached(&dev, &m, Strategy::CsrReupload, &cfg, &host, &mut cache);
    assert_eq!(stats.len(), epochs + 1);
    // cold start + one replan per structural epoch
    assert_eq!(cache.misses() as usize, epochs + 1, "misses");
    // each epoch drops exactly the superseded plan
    assert_eq!(cache.invalidations() as usize, epochs, "invalidations");
    assert_eq!(cache.hits(), 0, "no epoch repeats a structure");

    // Reconstruct the final epoch's matrix host-side (the update stream
    // is a pure function of the seed chain) and probe the cache: the
    // final plan is still resident, so this is the run's first hit.
    let reg = FormatRegistry::<f64>::with_all();
    let budget = PlanBudget::for_device(dev.config());
    let mut final_m = m.clone();
    for epoch in 1..=epochs {
        let batch = generate_update_batch(
            &final_m,
            &UpdateConfig {
                seed: cfg.update.seed.wrapping_add(epoch as u64),
                ..cfg.update
            },
        );
        final_m = batch.apply_to_csr(&final_m);
    }
    cache
        .get_or_plan(&reg, "CSR-vector", &dev, &final_m, &budget)
        .unwrap();
    assert_eq!(cache.hits(), 1, "final structure's plan must be resident");
    assert_eq!(cache.misses() as usize, epochs + 1, "probe must not replan");

    // The incremental strategy never consults the cache.
    let mut untouched = PlanCache::<f64>::new();
    dynamic_pagerank_cached(
        &dev,
        &m,
        Strategy::AcsrIncremental,
        &cfg,
        &host,
        &mut untouched,
    );
    assert_eq!(untouched.hits() + untouched.misses(), 0);
    assert_eq!(untouched.invalidations(), 0);
}
