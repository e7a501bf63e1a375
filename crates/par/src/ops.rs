//! High-level data-parallel operations over the global pool.

use crate::pool::global;
use std::ops::Range;

/// Execute `body` for every index in `0..total`, handed out as ranges of at
/// most `grain` consecutive indices.
///
/// Grains are claimed dynamically, so heavily skewed per-index costs (e.g.
/// power-law row lengths) still balance. Blocks until all grains complete.
pub fn parallel_for(total: usize, grain: usize, body: impl Fn(Range<usize>) + Sync) {
    global().run(total, grain, &body);
}

/// Mutate a slice in parallel, chunk by chunk. `body` receives the chunk's
/// offset in the original slice plus the mutable chunk itself.
pub fn for_each_chunk_mut<T: Send>(
    data: &mut [T],
    grain: usize,
    body: impl Fn(usize, &mut [T]) + Sync,
) {
    let grain = grain.max(1);
    let total = data.len();
    // Pre-split into raw chunk pointers so disjointness is explicit.
    let base = data.as_mut_ptr() as usize;
    parallel_for(total.div_ceil(grain), 1, |grains| {
        for g in grains {
            let lo = g * grain;
            let hi = (lo + grain).min(total);
            // SAFETY: [lo, hi) ranges for distinct `g` are disjoint and in
            // bounds; `data` is mutably borrowed for the whole call.
            let chunk =
                unsafe { std::slice::from_raw_parts_mut((base as *mut T).add(lo), hi - lo) };
            body(lo, chunk);
        }
    });
}
