//! Per-launch arenas: the mutable simulation state a launch needs,
//! pooled on the [`crate::Device`] and reused across launches.
//!
//! Profiling the interpreter hot loop showed a large fixed cost per
//! launch that had nothing to do with the kernel being simulated:
//! allocating one `ShardState` per SM (each with full-length `sm_instr`
//! / `sm_crit` vectors), re-allocating the texture caches' tag/stamp
//! arrays on first touch, and growing fresh pending-child vectors for
//! every wave. A [`LaunchArena`] owns all of that storage once;
//! [`LaunchArena::reset`] restores the *logical* fresh-launch state
//! (zeroed counters, flushed caches) without touching any allocation,
//! which is exactly what makes reuse invisible to the model: a reset
//! arena is observationally identical to a new one. The pending queues
//! and the wave buffer come back empty from every launch, and the
//! wave's SM list is rebuilt for every wave.
//!
//! ## Pending-child lifetimes
//!
//! `PendingChild<'k>` carries the kernel lifetime `'k` of the launch
//! that queued it, so a pooled vector cannot simply be stored across
//! launches with its old `'k`. The arena stores the *empty* vectors
//! retagged to `'static` ([`LaunchArena::take_pending`] /
//! [`LaunchArena::restore_pending`], and likewise the wave buffer):
//! since an empty `Vec` contains no values of either lifetime and
//! `Vec`'s layout does not depend on its element's lifetime parameters,
//! the transmute only relabels the allocation. Every restore path clears
//! the vector first, so no `PendingChild` ever outlives its launch.

use crate::engine::{PendingChild, ShardState};

/// Reusable state for one in-flight launch: shards plus the wave loop's
/// scratch storage. Held by [`crate::engine::RunState`] while a launch
/// runs; pooled on the device between launches.
pub(crate) struct LaunchArena {
    /// One shard per SM, in SM order.
    pub(crate) shards: Vec<ShardState>,
    /// The SMs the current wave runs on, ascending.
    pub(crate) active: Vec<usize>,
    /// Pooled per-SM pending-child vectors (always empty between takes).
    pending: Vec<Vec<PendingChild<'static>>>,
    /// Pooled wave buffer (always empty between takes).
    wave: Vec<PendingChild<'static>>,
}

impl LaunchArena {
    pub(crate) fn new(sm_count: usize) -> LaunchArena {
        LaunchArena {
            shards: (0..sm_count)
                .map(|s| ShardState::new(s, sm_count))
                .collect(),
            active: Vec::new(),
            pending: Vec::new(),
            wave: Vec::new(),
        }
    }

    /// Restore the logical fresh-launch state, keeping every allocation:
    /// a reset arena behaves exactly like `LaunchArena::new`.
    pub(crate) fn reset(&mut self) {
        for shard in &mut self.shards {
            shard.reset();
        }
    }

    /// Take one empty pending-child vector per SM for a launch with
    /// kernel lifetime `'k`, reusing pooled capacity.
    pub(crate) fn take_pending<'k>(&mut self, sm_count: usize) -> Vec<Vec<PendingChild<'k>>> {
        let mut p = std::mem::take(&mut self.pending);
        debug_assert!(p.iter().all(Vec::is_empty));
        p.resize_with(sm_count, Vec::new);
        p.truncate(sm_count);
        // SAFETY: every inner vec is empty (cleared on restore), so no
        // `PendingChild` value of either lifetime exists; `Vec`'s layout
        // is independent of its element type's lifetime parameters.
        unsafe {
            std::mem::transmute::<Vec<Vec<PendingChild<'static>>>, Vec<Vec<PendingChild<'k>>>>(p)
        }
    }

    /// Return the per-SM pending vectors taken by
    /// [`LaunchArena::take_pending`], clearing them first.
    pub(crate) fn restore_pending<'k>(&mut self, mut p: Vec<Vec<PendingChild<'k>>>) {
        for v in &mut p {
            v.clear();
        }
        // SAFETY: just cleared — see `take_pending`.
        self.pending = unsafe {
            std::mem::transmute::<Vec<Vec<PendingChild<'k>>>, Vec<Vec<PendingChild<'static>>>>(p)
        };
    }

    /// Take the empty wave buffer, reusing pooled capacity.
    pub(crate) fn take_wave<'k>(&mut self) -> Vec<PendingChild<'k>> {
        let v = std::mem::take(&mut self.wave);
        debug_assert!(v.is_empty());
        // SAFETY: the vec is empty — see `take_pending`.
        unsafe { std::mem::transmute::<Vec<PendingChild<'static>>, Vec<PendingChild<'k>>>(v) }
    }

    /// Return the wave buffer taken by [`LaunchArena::take_wave`],
    /// clearing it first.
    pub(crate) fn restore_wave<'k>(&mut self, mut v: Vec<PendingChild<'k>>) {
        v.clear();
        // SAFETY: just cleared — see `take_pending`.
        self.wave =
            unsafe { std::mem::transmute::<Vec<PendingChild<'k>>, Vec<PendingChild<'static>>>(v) };
    }
}
