//! Persistent worker pools, one per width.
//!
//! Workers block on a crossbeam MPMC channel. Each parallel call publishes a
//! single *task header* (an `Arc`) carrying an atomic shard cursor and a
//! type-erased pointer to the caller's closure. Workers — and the calling
//! thread itself — claim shard indices from the cursor until it is
//! exhausted; the caller then waits for the claimed shards to complete.
//!
//! ## Why this is sound
//!
//! The closure pointer inside [`TaskHeader`] refers to a closure on the
//! *caller's stack*, so it must never be dereferenced after the calling
//! function returns. The invariant that guarantees this:
//!
//! * the pointer is dereferenced only after successfully claiming a shard
//!   (`cursor.fetch_add(1) < n_shards`), and
//! * the caller returns only once `completed == n_shards`, i.e. after every
//!   claimed shard has finished running.
//!
//! A worker that dequeues a stale header (all shards long finished) observes
//! an exhausted cursor and drops the `Arc` without touching the closure.

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// A type-erased, unsafely-`'static` pointer to a `Fn(usize) + Sync`
/// closure living on the initiating caller's stack.
struct ClosurePtr(*const (dyn Fn(usize) + Sync + 'static));

// SAFETY: the pointee is `Sync` (so `&closure` may be shared across
// threads), and the pool's completion protocol (module docs) guarantees the
// pointer is not dereferenced after the caller returns.
unsafe impl Send for ClosurePtr {}
unsafe impl Sync for ClosurePtr {}

/// Shared state for one parallel call.
struct TaskHeader {
    /// Next shard index to hand out.
    cursor: AtomicUsize,
    /// Number of shards in this task.
    n_shards: usize,
    /// Shards fully executed so far.
    completed: AtomicUsize,
    /// Caller parks here until `completed == n_shards`.
    done_lock: Mutex<bool>,
    done_cond: Condvar,
    /// First panic payload raised by any shard, re-thrown on the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    body: ClosurePtr,
}

impl TaskHeader {
    /// Claim and run shards until the cursor is exhausted.
    ///
    /// A panicking shard still counts towards completion — otherwise the
    /// caller (or, with a single worker, every subsequent wait) would park
    /// forever on a count that can no longer be reached. The payload is
    /// stashed and re-thrown on the calling thread instead.
    fn drain(&self) {
        loop {
            let s = self.cursor.fetch_add(1, Ordering::Relaxed);
            if s >= self.n_shards {
                return;
            }
            // SAFETY: a shard was claimed, so the caller has not yet
            // returned and the closure is alive (see module docs).
            let body = unsafe { &*self.body.0 };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(s))) {
                let mut slot = self.panic.lock();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            let done = self.completed.fetch_add(1, Ordering::AcqRel) + 1;
            if done == self.n_shards {
                let mut flag = self.done_lock.lock();
                *flag = true;
                self.done_cond.notify_all();
            }
        }
    }

    fn wait(&self) {
        let mut flag = self.done_lock.lock();
        while !*flag {
            self.done_cond.wait(&mut flag);
        }
    }
}

/// A persistent pool of worker threads executing sharded runs.
struct Pool {
    sender: Sender<Arc<TaskHeader>>,
    threads: usize,
}

impl Pool {
    /// Create a pool with `threads` workers (the calling thread also
    /// participates in every run, so total parallelism is `threads + 1`
    /// when the caller is otherwise idle).
    fn new(threads: usize) -> Self {
        let (sender, receiver): (Sender<Arc<TaskHeader>>, Receiver<Arc<TaskHeader>>) = unbounded();
        for id in 0..threads {
            let rx = receiver.clone();
            std::thread::Builder::new()
                .name(format!("par-runtime-{id}"))
                .spawn(move || {
                    while let Ok(task) = rx.recv() {
                        task.drain();
                    }
                })
                .expect("failed to spawn par-runtime worker");
        }
        Pool { sender, threads }
    }

    /// Run `body(shard)` once for every shard in `0..n_shards`, distributed
    /// over the pool. Shards are claimed dynamically, so a shard with
    /// skewed work does not idle the rest of the pool, and the call blocks
    /// until every shard has finished (or re-throws the first shard
    /// panic). The calling thread itself runs shards, so this is
    /// deadlock-free even when invoked from inside another run.
    fn run(&self, n_shards: usize, body: &(dyn Fn(usize) + Sync)) {
        if n_shards <= 1 || self.threads == 0 {
            (0..n_shards).for_each(body);
            return;
        }
        // SAFETY: erase the closure's lifetime; the completion protocol
        // (module docs) prevents use-after-return.
        let body_static: *const (dyn Fn(usize) + Sync + 'static) =
            unsafe { std::mem::transmute(body as *const (dyn Fn(usize) + Sync)) };
        let header = Arc::new(TaskHeader {
            cursor: AtomicUsize::new(0),
            n_shards,
            completed: AtomicUsize::new(0),
            done_lock: Mutex::new(false),
            done_cond: Condvar::new(),
            panic: Mutex::new(None),
            body: ClosurePtr(body_static),
        });
        // Wake at most as many workers as there are shards beyond the one
        // the caller will take.
        let helpers = self.threads.min(n_shards - 1);
        for _ in 0..helpers {
            // Send failure means workers are gone, which only happens at
            // process teardown; the caller's drain below runs every shard.
            let _ = self.sender.send(Arc::clone(&header));
        }
        header.drain();
        header.wait();
        let payload = header.panic.lock().take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

/// Pools keyed by total width (the simulator's `ACSR_SIM_THREADS` knob,
/// width-sweep benchmarks). Pools are created on first use and live for
/// the process; threads park between calls, so idle widths cost nothing
/// but stack space.
static SHARD_POOLS: OnceLock<Mutex<HashMap<usize, &'static Pool>>> = OnceLock::new();

fn shard_pool(threads: usize) -> &'static Pool {
    let map = SHARD_POOLS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut m = map.lock();
    m.entry(threads)
        .or_insert_with(|| &*Box::leak(Box::new(Pool::new(threads - 1))))
}

/// Run `body(shard)` for every shard in `0..n_shards` on a pool of exactly
/// `threads` total threads (workers + the caller). `threads <= 1` runs all
/// shards inline on the caller, in order — the forced-sequential path.
pub fn par_shards(threads: usize, n_shards: usize, body: impl Fn(usize) + Sync) {
    if threads <= 1 || n_shards <= 1 {
        (0..n_shards).for_each(body);
        return;
    }
    shard_pool(threads).run(n_shards, &body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn dedicated_pool_runs_every_shard_once() {
        let pool = Pool::new(3);
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        pool.run(hits.len(), &|s| {
            hits[s].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn zero_width_pool_runs_inline() {
        let pool = Pool::new(0);
        let tid = std::thread::current().id();
        let sum = AtomicU64::new(0);
        pool.run(100, &|s| {
            assert_eq!(std::thread::current().id(), tid);
            sum.fetch_add(s as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 99 * 100 / 2);
    }

    #[test]
    fn single_shard_runs_on_caller() {
        let pool = Pool::new(4);
        let tid = std::thread::current().id();
        pool.run(1, &move |_| {
            assert_eq!(std::thread::current().id(), tid);
        });
    }

    #[test]
    fn many_small_tasks_reuse_workers() {
        let pool = Pool::new(2);
        for round in 0..200 {
            let sum = AtomicU64::new(0);
            pool.run(16, &|_| {
                sum.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 16, "round {round}");
        }
    }

    #[test]
    fn panicking_shard_propagates_instead_of_hanging() {
        // Regression: with one worker, a panic inside a worker-claimed
        // shard used to leave `completed` short of `n_shards`, parking the
        // caller forever. The pool must re-throw the panic on the caller
        // and stay usable afterwards.
        let pool = Pool::new(1);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|s| {
                if s % 2 == 1 {
                    panic!("shard {s} failed");
                }
            });
        }));
        assert!(err.is_err(), "panic must propagate to the caller");

        // The same pool still completes fresh work.
        let sum = AtomicU64::new(0);
        pool.run(8, &|s| {
            sum.fetch_add(s as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 28);
    }

    #[test]
    fn par_shards_sequential_path_runs_in_order() {
        let order = Mutex::new(Vec::new());
        par_shards(1, 5, |s| order.lock().push(s));
        assert_eq!(*order.lock(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn par_shards_parallel_covers_all_shards() {
        for width in [2, 4, 8] {
            let hits: Vec<AtomicU64> = (0..32).map(|_| AtomicU64::new(0)).collect();
            par_shards(width, 32, |s| {
                hits[s].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "width {width}"
            );
        }
    }
}
