//! Per-phase time/traffic attribution for ACSR runs (Table V's view).
//!
//! [`AcsrEngine::spmv`](crate::engine::AcsrEngine) launches its kernels
//! under stable
//! names — `acsr_zero`, `acsr_bins`, `acsr_overflow`, `acsr_dp_parent`
//! (and a fused wave's `acsr_dp_finalize`) / `acsr_static_tail`,
//! `acsr_update` — so a [`gpu_sim::trace`] span
//! stream can be folded into a [`PhaseRollup`]: one bucket per pipeline
//! phase carrying launches, modeled seconds and full [`Counters`]. The
//! bench experiments print this as a time-attribution table when run
//! with `--trace`.

use gpu_sim::trace::{span_roles, Span, SpanKind, SpanRole};
use gpu_sim::Counters;

/// ACSR pipeline phase of one span.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// `y`-zeroing scatter over the non-empty rows (`acsr_zero`).
    ZeroScatter,
    /// The G2 bins' bin-specific grid (`acsr_bins`).
    BinKernels,
    /// `RowMax`-overflow rows served by the widest bin kernel
    /// (`acsr_overflow`).
    Overflow,
    /// Long-tail G1 rows: the dynamic-parallelism parent + its child
    /// grids and a fused wave's finalize kernel, or the §VIII static
    /// variant (`acsr_dp_parent*`, `acsr_dp_finalize`,
    /// `acsr_static_tail`).
    LongTail,
    /// The §VII device-side update kernel (`acsr_update`).
    Update,
    /// Modeled PCIe traffic (uploads, delta shipments, readbacks).
    Transfer,
    /// Anything else (application kernels, group wrappers, ...).
    Other,
}

impl Phase {
    /// All phases, in pipeline order.
    pub const ALL: [Phase; 7] = [
        Phase::ZeroScatter,
        Phase::BinKernels,
        Phase::Overflow,
        Phase::LongTail,
        Phase::Update,
        Phase::Transfer,
        Phase::Other,
    ];

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            Phase::ZeroScatter => "zero-scatter",
            Phase::BinKernels => "bin-kernels",
            Phase::Overflow => "overflow",
            Phase::LongTail => "long-tail",
            Phase::Update => "update",
            Phase::Transfer => "transfer",
            Phase::Other => "other",
        }
    }
}

/// Classify a span by its kind and kernel name.
pub fn classify(kind: SpanKind, name: &str) -> Phase {
    if kind == SpanKind::Transfer {
        return Phase::Transfer;
    }
    if name == "acsr_zero" {
        Phase::ZeroScatter
    } else if name.starts_with("acsr_bin") {
        Phase::BinKernels
    } else if name == "acsr_overflow" {
        Phase::Overflow
    } else if name.starts_with("acsr_dp_parent")
        || name == "acsr_dp_finalize"
        || name == "acsr_static_tail"
    {
        Phase::LongTail
    } else if name == "acsr_update" {
        Phase::Update
    } else {
        Phase::Other
    }
}

/// Aggregates for one phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseBucket {
    /// Spans folded into this bucket.
    pub spans: usize,
    /// Kernel launches (0 for transfers and child waves).
    pub launches: u64,
    /// Modeled seconds. Exact for top-level spans; stream spans inside a
    /// pooled group contribute their roofline-attributed share, which
    /// under-counts the group's launch gap (charged to the group span's
    /// phase would double-count, so it is simply not attributed).
    pub seconds: f64,
    /// Event counts.
    pub counters: Counters,
}

/// Per-phase rollup of a span stream (see module docs).
#[derive(Clone, Debug, Default)]
pub struct PhaseRollup {
    buckets: [PhaseBucket; 7],
}

impl PhaseRollup {
    /// Fold a full ledger span list (`TraceLedger::spans()`, in record
    /// order — `Span::parent` indices must refer into `spans` itself).
    ///
    /// Counter-exactness: only [`SpanRole::Counted`] spans are folded
    /// (the [`span_roles`] rule), so each counter increment is
    /// attributed exactly once and summing every bucket reproduces the
    /// ledger total's counters bit-identically.
    pub fn from_spans(spans: &[Span]) -> PhaseRollup {
        let mut rollup = PhaseRollup::default();
        for (span, role) in spans.iter().zip(span_roles(spans)) {
            if role != SpanRole::Counted {
                continue;
            }
            let bucket = rollup.bucket_mut(classify(span.kind, &span.name));
            bucket.spans += 1;
            bucket.launches += u64::from(span.launches);
            bucket.seconds += span.dur_s;
            bucket.counters.merge(&span.counters);
        }
        rollup
    }

    fn bucket_mut(&mut self, phase: Phase) -> &mut PhaseBucket {
        let idx = Phase::ALL.iter().position(|p| *p == phase).unwrap();
        &mut self.buckets[idx]
    }

    /// The bucket for `phase`.
    pub fn bucket(&self, phase: Phase) -> &PhaseBucket {
        let idx = Phase::ALL.iter().position(|p| *p == phase).unwrap();
        &self.buckets[idx]
    }

    /// Counters summed over every bucket (equals the ledger total's
    /// counters, by construction).
    pub fn total_counters(&self) -> Counters {
        Counters::sum(self.buckets.iter().map(|b| &b.counters))
    }

    /// Modeled seconds summed over every bucket.
    pub fn total_seconds(&self) -> f64 {
        self.buckets.iter().map(|b| b.seconds).sum()
    }

    /// Table V's "RS": row-specific grids per run (dynamic child grids
    /// launched from the long-tail parent).
    pub fn row_grid_launches(&self) -> u64 {
        self.bucket(Phase::LongTail).counters.child_launches
    }

    /// `(label, bucket)` pairs for the phases that saw any spans, in
    /// pipeline order.
    pub fn nonempty(&self) -> Vec<(&'static str, &PhaseBucket)> {
        Phase::ALL
            .iter()
            .filter_map(|&p| {
                let b = self.bucket(p);
                (b.spans > 0).then(|| (p.label(), b))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AcsrConfig;
    use crate::engine::AcsrEngine;
    use gpu_sim::{presets, Device};
    use graphgen::{generate_power_law, PowerLawConfig};
    use spmv_kernels::GpuSpmv;

    #[test]
    fn classify_covers_engine_kernel_names() {
        use SpanKind::*;
        assert_eq!(classify(Stream, "acsr_zero"), Phase::ZeroScatter);
        assert_eq!(classify(Stream, "acsr_bins"), Phase::BinKernels);
        assert_eq!(classify(Stream, "acsr_overflow"), Phase::Overflow);
        assert_eq!(classify(Stream, "acsr_dp_parent"), Phase::LongTail);
        assert_eq!(
            classify(ChildWave, "acsr_dp_parent.child7"),
            Phase::LongTail
        );
        assert_eq!(classify(Stream, "acsr_dp_finalize"), Phase::LongTail);
        assert_eq!(classify(Launch, "acsr_static_tail"), Phase::LongTail);
        assert_eq!(classify(Launch, "acsr_update"), Phase::Update);
        assert_eq!(classify(Transfer, "acsr_update_delta"), Phase::Transfer);
        assert_eq!(classify(Launch, "acsr_spmv"), Phase::Other);
        assert_eq!(classify(Launch, "scale_add"), Phase::Other);
    }

    #[test]
    fn traced_spmv_rolls_up_exactly() {
        let m: sparse_formats::CsrMatrix<f64> = generate_power_law(&PowerLawConfig {
            rows: 3000,
            cols: 3000,
            mean_degree: 8.0,
            max_degree: 2500,
            pinned_max_rows: 2,
            col_skew: 0.5,
            seed: 42,
            ..Default::default()
        });
        let mut dev = Device::new(presets::gtx_titan());
        let ledger = dev.enable_tracing();
        let engine = AcsrEngine::from_csr(&dev, &m, AcsrConfig::for_device(dev.config()));
        let x = dev.alloc(vec![1.0f64; m.cols()]);
        let y = dev.alloc_zeroed::<f64>(m.rows());
        engine.spmv(&dev, &x, &y);
        let total = ledger.reconcile().expect("traced spmv reconciles");
        let rollup = PhaseRollup::from_spans(&ledger.spans());
        // every counter increment lands in exactly one bucket
        assert_eq!(rollup.total_counters(), total.counters);
        // a power-law matrix with a pinned huge row exercises the G2
        // bins, all in one `acsr_bins` grid, and the dynamic-parallelism
        // long tail
        assert!(engine.binning().g2_bins().len() > 1);
        assert!(rollup.bucket(Phase::ZeroScatter).spans > 0);
        let bins: Vec<_> = ledger
            .spans()
            .into_iter()
            .filter(|s| classify(s.kind, &s.name) == Phase::BinKernels)
            .collect();
        assert_eq!(bins.len(), 1);
        assert_eq!(bins[0].name, "acsr_bins");
        assert_eq!(rollup.bucket(Phase::BinKernels).spans, 1);
        assert!(rollup.bucket(Phase::LongTail).spans > 0);
        assert!(rollup.row_grid_launches() > 0);
        assert!(rollup.total_seconds() > 0.0);
    }
}
