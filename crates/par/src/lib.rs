//! # par-runtime — a minimal data-parallel runtime
//!
//! The CPU execution backend for this workspace. It provides the small set
//! of data-parallel primitives its callers use — [`parallel_for`] and
//! [`for_each_chunk_mut`] (the CPU SpMV kernels), [`par_shards`] (the
//! simulator's per-SM shards) and [`num_threads`] — on top of a
//! persistent worker pool built with [`crossbeam`] channels and
//! [`parking_lot`] synchronization.
//!
//! The design goals, in order:
//!
//! 1. **Correctness**: no data races by construction; every primitive blocks
//!    until all workers finished, so borrowed data is never observed after
//!    the call returns.
//! 2. **Dynamic load balance**: work is handed out in grains from a shared
//!    atomic cursor, so skewed workloads (exactly the power-law rows this
//!    repository cares about) do not idle workers.
//! 3. **Low overhead**: workers are spawned once and parked between calls.
//!
//! This crate deliberately reimplements the needed subset of `rayon`
//! (which is outside the allowed dependency set for this reproduction, see
//! DESIGN.md §6).
//!
//! ```
//! let mut squares = vec![0u64; 1000];
//! par_runtime::for_each_chunk_mut(&mut squares, 64, |offset, chunk| {
//!     for (i, slot) in chunk.iter_mut().enumerate() {
//!         *slot = ((offset + i) as u64).pow(2);
//!     }
//! });
//! assert_eq!(squares[31], 31 * 31);
//! ```

mod ops;
mod pool;

pub use ops::{for_each_chunk_mut, parallel_for};
pub use pool::{num_threads, par_shards};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallel_for_covers_every_index_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..10_000).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(hits.len(), 17, |range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_zero_items_is_a_noop() {
        parallel_for(0, 8, |_| panic!("must not be called"));
    }

    #[test]
    fn for_each_chunk_mut_partitions_disjointly() {
        let mut data = vec![0usize; 5000];
        for_each_chunk_mut(&mut data, 333, |offset, chunk| {
            for (i, x) in chunk.iter_mut().enumerate() {
                *x = offset + i;
            }
        });
        for (i, x) in data.iter().enumerate() {
            assert_eq!(*x, i);
        }
    }

    #[test]
    fn nested_parallel_for_does_not_deadlock() {
        // A parallel_for inside a parallel_for must complete (inner calls
        // run inline on the caller when the pool is busy).
        let count = AtomicUsize::new(0);
        parallel_for(8, 1, |outer| {
            for _ in outer {
                parallel_for(8, 1, |inner| {
                    count.fetch_add(inner.len(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 64);
    }
}
