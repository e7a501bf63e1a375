//! Structure-keyed plan cache: reuse a plan across iterations, queries
//! and dynamic-graph epochs, replanning only when the sparsity
//! structure actually changed.
//!
//! The key hashes the CSR *structure* (`row_offsets` + `col_indices`),
//! not the values: every plan in this stack — binning, padding, tiling,
//! tuning — depends only on the sparsity pattern, and the modeled
//! kernel times are value-independent, so a value-only update (edge
//! reweighting) keeps the cached plan valid. Any structural delta
//! produces a different fingerprint and therefore a miss, which *is*
//! the invalidation policy for dynamic graphs; ACSR's in-place
//! incremental updates (`apply_update`) deliberately bypass the cache.

use crate::{FormatRegistry, PlanBudget, SpmvPlan};
use gpu_sim::Device;
use serde::{Deserialize, Serialize};
use sparse_formats::{CsrMatrix, Scalar, SparseError};
use std::collections::HashMap;

/// Identity of a sparsity structure: shape, nnz and an FNV-1a
/// fingerprint of the index arrays.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StructureKey {
    /// Rows of the operator.
    pub rows: usize,
    /// Columns of the operator.
    pub cols: usize,
    /// Stored non-zeros.
    pub nnz: usize,
    /// FNV-1a over `row_offsets` then `col_indices` bytes.
    pub fingerprint: u64,
}

impl StructureKey {
    /// Key for a CSR operator.
    pub fn of<T: Scalar>(m: &CsrMatrix<T>) -> Self {
        let mut h = Fnv::new();
        for &o in m.row_offsets() {
            h.write_u32(o);
        }
        for &c in m.col_indices() {
            h.write_u32(c);
        }
        StructureKey {
            rows: m.rows(),
            cols: m.cols(),
            nnz: m.nnz(),
            fingerprint: h.finish(),
        }
    }
}

/// FNV-1a, 64-bit — tiny, dependency-free, good enough to distinguish
/// sparsity structures (collisions only waste a replan, never corrupt).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }
    fn write_u32(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Full cache key: which format, for which structure.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PlanKey {
    /// Registry format name.
    pub format: String,
    /// Sparsity-structure identity.
    pub structure: StructureKey,
}

/// Identity of a *streamed* operator: structural epoch plus the per-bin
/// row census. Unlike [`StructureKey`], a drift key is cheap to produce
/// (no index-array scan — `acsr-stream` maintains both fields anyway)
/// and deliberately lossy: two epochs whose occupancy vectors are close
/// describe matrices whose binning — and therefore whose plan — is
/// still essentially the same.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DriftKey {
    /// Rows of the operator.
    pub rows: usize,
    /// Columns of the operator.
    pub cols: usize,
    /// Structural epoch (batches applied since build).
    pub epoch: u64,
    /// Rows per bin (index 0 = empty rows).
    pub occupancy: Vec<u32>,
}

/// How much drift a cached plan is allowed to survive.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct DriftTolerance {
    /// Maximum fraction of rows that may have changed length class since
    /// the plan was anchored.
    pub max_row_churn: f64,
    /// Maximum bins populated now that were empty at the anchor.
    pub max_new_bins: usize,
}

impl Default for DriftTolerance {
    fn default() -> Self {
        DriftTolerance {
            max_row_churn: 0.25,
            max_new_bins: 2,
        }
    }
}

/// What [`PlanCache::probe_drift`] decided.
#[derive(Clone, Debug, PartialEq)]
pub enum DriftOutcome {
    /// Same epoch as the anchor — nothing moved.
    Hit,
    /// The structure drifted, but within tolerance: keep the plan.
    Survived {
        /// Batches applied since the plan was anchored.
        epochs_behind: u64,
        /// Fraction of rows that changed length class since the anchor.
        row_churn: f64,
    },
    /// Drift exceeded tolerance (or no anchor yet): replan required. The
    /// anchor has been reset to the probed key.
    Replan {
        /// Human-readable cause, for bench stderr.
        reason: String,
    },
}

/// Rows that changed bins between two occupancy vectors: half the L1
/// distance (every mover leaves one bin and joins another).
fn churn_rows(a: &[u32], b: &[u32]) -> u64 {
    let n = a.len().max(b.len());
    let at = |v: &[u32], i: usize| v.get(i).copied().unwrap_or(0) as i64;
    (0..n)
        .map(|i| (at(a, i) - at(b, i)).unsigned_abs())
        .sum::<u64>()
        / 2
}

/// A `(format, structure) → SpmvPlan` cache with hit/miss accounting.
///
/// Plans are device-resident; the cache owns them, so its lifetime
/// bounds how long the device memory stays allocated.
pub struct PlanCache<T: Scalar> {
    plans: HashMap<PlanKey, SpmvPlan<T>>,
    /// Per-stream drift anchors: the key each live plan was built at.
    anchors: HashMap<String, DriftKey>,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl<T: Scalar> Default for PlanCache<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Scalar> PlanCache<T> {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache {
            plans: HashMap::new(),
            anchors: HashMap::new(),
            hits: 0,
            misses: 0,
            invalidations: 0,
        }
    }

    /// Look up the plan for (`format`, structure of `m`), planning it
    /// through `reg` on a miss. Iterations 2..n of an iterative app hit
    /// here and pay **zero** additional preprocessing.
    pub fn get_or_plan(
        &mut self,
        reg: &FormatRegistry<T>,
        format: &str,
        dev: &Device,
        m: &CsrMatrix<T>,
        budget: &PlanBudget,
    ) -> Result<&SpmvPlan<T>, SparseError> {
        let key = PlanKey {
            format: format.to_string(),
            structure: StructureKey::of(m),
        };
        // (entry API would borrow `self.plans` across the fallible plan
        // call; a contains/insert pair keeps the error path clean)
        if self.plans.contains_key(&key) {
            self.hits += 1;
        } else {
            let plan = reg.plan(format, dev, m, budget)?;
            self.plans.insert(key.clone(), plan);
            self.misses += 1;
        }
        Ok(self.plans.get(&key).expect("just inserted"))
    }

    /// Drop every plan for a structure (all formats) — the dynamic-graph
    /// hook for callers that mutate a matrix in place and know its old
    /// key.
    pub fn invalidate(&mut self, structure: &StructureKey) {
        let before = self.plans.len();
        self.plans.retain(|k, _| k.structure != *structure);
        self.invalidations += (before - self.plans.len()) as u64;
    }

    /// Probe whether the plan anchored for `stream_id` survives the
    /// operator's current drift key. An exact epoch match is a [`Hit`];
    /// drift within `tol` is [`Survived`] (the anchor is kept, so drift
    /// accumulates against the *planning-time* structure, not the last
    /// probe); anything else — including the first probe — resets the
    /// anchor and demands a [`Replan`].
    ///
    /// [`Hit`]: DriftOutcome::Hit
    /// [`Survived`]: DriftOutcome::Survived
    /// [`Replan`]: DriftOutcome::Replan
    pub fn probe_drift(
        &mut self,
        stream_id: &str,
        current: &DriftKey,
        tol: &DriftTolerance,
    ) -> DriftOutcome {
        let outcome = match self.anchors.get(stream_id) {
            None => DriftOutcome::Replan {
                reason: "no anchored plan".to_string(),
            },
            Some(anchor) if anchor == current => DriftOutcome::Hit,
            Some(anchor) if anchor.rows != current.rows || anchor.cols != current.cols => {
                DriftOutcome::Replan {
                    reason: format!(
                        "shape changed {}x{} -> {}x{}",
                        anchor.rows, anchor.cols, current.rows, current.cols
                    ),
                }
            }
            Some(anchor) => {
                let moved = churn_rows(&anchor.occupancy, &current.occupancy);
                let row_churn = moved as f64 / current.rows.max(1) as f64;
                let new_bins = current
                    .occupancy
                    .iter()
                    .enumerate()
                    .filter(|&(b, &occ)| {
                        occ > 0 && anchor.occupancy.get(b).copied().unwrap_or(0) == 0
                    })
                    .count();
                if row_churn <= tol.max_row_churn && new_bins <= tol.max_new_bins {
                    DriftOutcome::Survived {
                        epochs_behind: current.epoch.saturating_sub(anchor.epoch),
                        row_churn,
                    }
                } else {
                    DriftOutcome::Replan {
                        reason: format!(
                            "row churn {:.1}% (cap {:.1}%), {} new bins (cap {})",
                            row_churn * 100.0,
                            tol.max_row_churn * 100.0,
                            new_bins,
                            tol.max_new_bins
                        ),
                    }
                }
            }
        };
        match &outcome {
            DriftOutcome::Hit | DriftOutcome::Survived { .. } => {
                self.hits += 1;
            }
            DriftOutcome::Replan { .. } => {
                if self
                    .anchors
                    .insert(stream_id.to_string(), current.clone())
                    .is_some()
                {
                    self.invalidations += 1;
                }
                self.misses += 1;
            }
        }
        outcome
    }

    /// Cache hits so far (exact and drift-survived).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (= plans actually built).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Plans dropped by [`invalidate`](Self::invalidate) plus drift
    /// anchors displaced by an over-tolerance replan.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Number of resident plans.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::presets;
    use graphgen::{generate_power_law, PowerLawConfig};
    use sparse_formats::UpdateBatch;

    fn m(seed: u64) -> CsrMatrix<f64> {
        generate_power_law(&PowerLawConfig {
            rows: 400,
            cols: 400,
            mean_degree: 7.0,
            max_degree: 60,
            pinned_max_rows: 1,
            col_skew: 0.5,
            seed,
            ..Default::default()
        })
    }

    #[test]
    fn same_structure_hits_different_structure_misses() {
        let dev = Device::new(presets::gtx_titan());
        let reg = FormatRegistry::<f64>::with_all();
        let budget = PlanBudget::default();
        let mut cache = PlanCache::new();
        let a = m(1);
        let b = m(2);
        for _ in 0..5 {
            cache.get_or_plan(&reg, "ACSR", &dev, &a, &budget).unwrap();
        }
        assert_eq!((cache.misses(), cache.hits()), (1, 4));
        cache.get_or_plan(&reg, "ACSR", &dev, &b, &budget).unwrap();
        assert_eq!(cache.misses(), 2, "different structure must replan");
        cache.get_or_plan(&reg, "HYB", &dev, &a, &budget).unwrap();
        assert_eq!(cache.misses(), 3, "different format must replan");
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn value_only_update_keeps_the_key() {
        let a = m(3);
        let same_structure = CsrMatrix::from_raw_parts(
            a.rows(),
            a.cols(),
            a.row_offsets().to_vec(),
            a.col_indices().to_vec(),
            a.values().iter().map(|v| v * 2.0).collect(),
        )
        .unwrap();
        assert_eq!(StructureKey::of(&a), StructureKey::of(&same_structure));
    }

    #[test]
    fn structural_delta_changes_the_key() {
        let a = m(4);
        // Insert one edge into row 0 at the last free column slot.
        let free_col = (0..a.cols() as u32)
            .find(|c| !a.row(0).0.contains(c))
            .expect("row 0 has a free column");
        let batch = UpdateBatch {
            rows: vec![0],
            delete_offsets: vec![0, 0],
            delete_cols: vec![],
            insert_offsets: vec![0, 1],
            insert_cols: vec![free_col],
            insert_vals: vec![1.0],
        };
        let b = batch.apply_to_csr(&a);
        assert_ne!(
            StructureKey::of(&a),
            StructureKey::of(&b),
            "an inserted edge must invalidate the structure key"
        );
    }

    #[test]
    fn drift_probe_survives_bounded_churn_and_replans_past_it() {
        let mut cache = PlanCache::<f64>::new();
        let tol = DriftTolerance::default();
        let base = DriftKey {
            rows: 100,
            cols: 100,
            epoch: 0,
            occupancy: vec![10, 40, 30, 20],
        };
        // first probe: no anchor yet
        assert!(matches!(
            cache.probe_drift("s", &base, &tol),
            DriftOutcome::Replan { .. }
        ));
        // unchanged epoch: exact hit
        assert_eq!(cache.probe_drift("s", &base, &tol), DriftOutcome::Hit);
        // 10 rows moved bins (churn 10%) over 3 epochs: survives
        let drifted = DriftKey {
            epoch: 3,
            occupancy: vec![10, 30, 40, 20],
            ..base.clone()
        };
        match cache.probe_drift("s", &drifted, &tol) {
            DriftOutcome::Survived {
                epochs_behind,
                row_churn,
            } => {
                assert_eq!(epochs_behind, 3);
                assert!((row_churn - 0.10).abs() < 1e-12);
            }
            other => panic!("expected Survived, got {other:?}"),
        }
        // drift is measured against the ANCHOR, not the last probe: 30
        // rows from the anchor (churn 30%) exceeds the 25% cap
        let too_far = DriftKey {
            epoch: 9,
            occupancy: vec![10, 10, 50, 30],
            ..base.clone()
        };
        assert!(matches!(
            cache.probe_drift("s", &too_far, &tol),
            DriftOutcome::Replan { .. }
        ));
        assert_eq!(cache.invalidations(), 1, "replan displaced the anchor");
        // the replan re-anchored at `too_far`
        assert_eq!(cache.probe_drift("s", &too_far, &tol), DriftOutcome::Hit);
        assert_eq!((cache.hits(), cache.misses()), (3, 2));
    }

    #[test]
    fn drift_probe_replans_on_new_bins_and_shape_change() {
        let mut cache = PlanCache::<f64>::new();
        let tol = DriftTolerance {
            max_row_churn: 1.0,
            max_new_bins: 1,
        };
        let base = DriftKey {
            rows: 50,
            cols: 50,
            epoch: 0,
            occupancy: vec![5, 45],
        };
        cache.probe_drift("s", &base, &tol);
        // two newly populated bins with a cap of one: replan even though
        // the churn tolerance would allow it
        let widened = DriftKey {
            epoch: 1,
            occupancy: vec![5, 41, 2, 2],
            ..base.clone()
        };
        assert!(matches!(
            cache.probe_drift("s", &widened, &tol),
            DriftOutcome::Replan { .. }
        ));
        let reshaped = DriftKey {
            rows: 60,
            ..widened.clone()
        };
        assert!(matches!(
            cache.probe_drift("s", &reshaped, &tol),
            DriftOutcome::Replan { .. }
        ));
        // independent streams keep independent anchors
        assert!(matches!(
            cache.probe_drift("other", &base, &tol),
            DriftOutcome::Replan { .. }
        ));
        assert_eq!(cache.probe_drift("other", &base, &tol), DriftOutcome::Hit);
    }

    #[test]
    fn invalidate_counts_dropped_plans() {
        let dev = Device::new(presets::gtx_titan());
        let reg = FormatRegistry::<f64>::with_all();
        let budget = PlanBudget::default();
        let mut cache = PlanCache::new();
        let a = m(6);
        cache.get_or_plan(&reg, "ACSR", &dev, &a, &budget).unwrap();
        cache.get_or_plan(&reg, "HYB", &dev, &a, &budget).unwrap();
        assert_eq!(cache.invalidations(), 0);
        cache.invalidate(&StructureKey::of(&a));
        assert_eq!(cache.invalidations(), 2, "both formats dropped");
        cache.invalidate(&StructureKey::of(&a));
        assert_eq!(cache.invalidations(), 2, "idempotent on an empty set");
    }

    #[test]
    fn accounting_counts_plans_invalidations_and_drift_probes() {
        let dev = Device::new(presets::gtx_titan());
        let reg = FormatRegistry::<f64>::with_all();
        let budget = PlanBudget::default();
        let mut cache = PlanCache::new();
        let a = m(7);
        for _ in 0..3 {
            cache.get_or_plan(&reg, "ACSR", &dev, &a, &budget).unwrap();
        }
        cache.invalidate(&StructureKey::of(&a));
        let key = DriftKey {
            rows: 10,
            cols: 10,
            epoch: 0,
            occupancy: vec![1, 9],
        };
        cache.probe_drift("s", &key, &DriftTolerance::default());
        cache.probe_drift("s", &key, &DriftTolerance::default());
        // planned once, hit twice; one plan dropped; the first probe
        // misses (no anchor) and the second hits
        assert_eq!(
            (cache.hits(), cache.misses(), cache.invalidations()),
            (3, 2, 1)
        );
    }

    #[test]
    fn invalidate_drops_all_formats_for_a_structure() {
        let dev = Device::new(presets::gtx_titan());
        let reg = FormatRegistry::<f64>::with_all();
        let budget = PlanBudget::default();
        let mut cache = PlanCache::new();
        let a = m(5);
        cache.get_or_plan(&reg, "ACSR", &dev, &a, &budget).unwrap();
        cache
            .get_or_plan(&reg, "CSR-vector", &dev, &a, &budget)
            .unwrap();
        assert_eq!(cache.len(), 2);
        cache.invalidate(&StructureKey::of(&a));
        assert!(cache.is_empty());
    }
}
