//! # par-runtime — sharded parallel runs
//!
//! The simulator's host parallelism. [`par_shards`] runs `body(shard)`
//! once for every shard in `0..n_shards` on a persistent worker pool of
//! the requested width, built with [`crossbeam`] channels and
//! [`parking_lot`] synchronization; `gpu-sim` calls it with one shard per
//! simulated SM (DESIGN.md §7.1).
//!
//! The design goals, in order:
//!
//! 1. **Correctness**: no data races by construction; every call blocks
//!    until all shards finished, so borrowed data is never observed after
//!    the call returns.
//! 2. **Dynamic load balance**: shards are handed out from a shared
//!    atomic cursor, so a shard with skewed work (exactly the power-law
//!    rows this repository cares about) does not idle the other workers.
//! 3. **Low overhead**: workers are spawned once per width and parked
//!    between calls.
//!
//! This crate deliberately reimplements the needed subset of `rayon`
//! (which is outside the allowed dependency set for this reproduction, see
//! DESIGN.md §6).
//!
//! ```
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let squares: Vec<AtomicU64> = (0..16).map(|_| AtomicU64::new(0)).collect();
//! par_runtime::par_shards(4, squares.len(), |shard| {
//!     squares[shard].store((shard as u64).pow(2), Ordering::Relaxed);
//! });
//! assert_eq!(squares[15].load(Ordering::Relaxed), 15 * 15);
//! ```

mod pool;

pub use pool::par_shards;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn zero_shards_is_a_noop() {
        par_shards(4, 0, |_| panic!("must not be called"));
    }

    #[test]
    fn nested_par_shards_does_not_deadlock() {
        // A par_shards inside a par_shards of the same width must complete
        // (the calling worker drains the inner shards itself).
        let count = AtomicUsize::new(0);
        par_shards(2, 8, |_| {
            par_shards(2, 8, |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn panicking_shard_propagates_and_the_width_stays_usable() {
        let err = std::panic::catch_unwind(|| {
            par_shards(3, 8, |s| {
                if s % 2 == 1 {
                    panic!("shard {s} failed");
                }
            });
        });
        assert!(err.is_err(), "panic must propagate to the caller");

        // The same width's pool still completes fresh work.
        let sum = AtomicUsize::new(0);
        par_shards(3, 8, |s| {
            sum.fetch_add(s, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 28);
    }
}
