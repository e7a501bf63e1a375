//! Persistent worker pool.
//!
//! Workers block on a crossbeam MPMC channel. Each parallel call publishes a
//! single *task header* (an `Arc`) carrying an atomic grain cursor and a
//! type-erased pointer to the caller's closure. Workers — and the calling
//! thread itself — claim grain indices from the cursor until it is
//! exhausted; the caller then waits for the claimed grains to complete.
//!
//! ## Why this is sound
//!
//! The closure pointer inside [`TaskHeader`] refers to a closure on the
//! *caller's stack*, so it must never be dereferenced after the calling
//! function returns. The invariant that guarantees this:
//!
//! * the pointer is dereferenced only after successfully claiming a grain
//!   (`cursor.fetch_add(1) < n_grains`), and
//! * the caller returns only once `completed == n_grains`, i.e. after every
//!   claimed grain has finished running.
//!
//! A worker that dequeues a stale header (all grains long finished) observes
//! an exhausted cursor and drops the `Arc` without touching the closure.

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// A type-erased, unsafely-`'static` pointer to a `Fn(Range<usize>) + Sync`
/// closure living on the initiating caller's stack.
struct ClosurePtr(*const (dyn Fn(Range<usize>) + Sync + 'static));

// SAFETY: the pointee is `Sync` (so `&closure` may be shared across
// threads), and the pool's completion protocol (module docs) guarantees the
// pointer is not dereferenced after the caller returns.
unsafe impl Send for ClosurePtr {}
unsafe impl Sync for ClosurePtr {}

/// Shared state for one parallel call.
struct TaskHeader {
    /// Next grain index to hand out.
    cursor: AtomicUsize,
    /// Number of grains in this task.
    n_grains: usize,
    /// Grain size in items (last grain may be short).
    grain: usize,
    /// Total number of items.
    total: usize,
    /// Grains fully executed so far.
    completed: AtomicUsize,
    /// Caller parks here until `completed == n_grains`.
    done_lock: Mutex<bool>,
    done_cond: Condvar,
    /// First panic payload raised by any grain, re-thrown on the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    body: ClosurePtr,
}

impl TaskHeader {
    /// Claim and run grains until the cursor is exhausted.
    /// Returns the number of grains this thread executed.
    ///
    /// A panicking grain still counts towards completion — otherwise the
    /// caller (or, with a single worker, every subsequent `par_shards`
    /// wait) would park forever on a count that can no longer be reached.
    /// The payload is stashed and re-thrown on the calling thread instead.
    fn drain(&self) -> usize {
        let mut ran = 0;
        loop {
            let g = self.cursor.fetch_add(1, Ordering::Relaxed);
            if g >= self.n_grains {
                return ran;
            }
            let lo = g * self.grain;
            let hi = (lo + self.grain).min(self.total);
            // SAFETY: a grain was claimed, so the caller has not yet
            // returned and the closure is alive (see module docs).
            let body = unsafe { &*self.body.0 };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(lo..hi))) {
                let mut slot = self.panic.lock();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            ran += 1;
            let done = self.completed.fetch_add(1, Ordering::AcqRel) + 1;
            if done == self.n_grains {
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

/// A persistent pool of worker threads executing chunked parallel loops.
///
/// The free functions in this crate run on a lazily-created global pool
/// (sized by `PAR_RUNTIME_THREADS`, else the machine's parallelism) or,
/// for [`par_shards`], on a dedicated pool of the requested width.
pub(crate) struct Pool {
    sender: Sender<Arc<TaskHeader>>,
    threads: usize,
}

impl Pool {
    /// Create a pool with `threads` workers (the calling thread also
    /// participates in every parallel call, so total parallelism is
    /// `threads + 1` when the caller is otherwise idle).
    pub fn new(threads: usize) -> Self {
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

    /// Number of worker threads (excluding callers).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `body` over `0..total` split into grains of `grain` items.
    ///
    /// Blocks until every grain has executed. The calling thread itself
    /// executes grains, so this is deadlock-free even when invoked from
    /// inside another parallel call.
    pub fn run(&self, total: usize, grain: usize, body: &(dyn Fn(Range<usize>) + Sync)) {
        if total == 0 {
            return;
        }
        let grain = grain.max(1);
        let n_grains = total.div_ceil(grain);
        if n_grains == 1 || self.threads == 0 {
            body(0..total);
            return;
        }
        // SAFETY: erase the closure's lifetime; the completion protocol
        // (module docs) prevents use-after-return.
        let body_static: *const (dyn Fn(Range<usize>) + Sync + 'static) =
            unsafe { std::mem::transmute(body as *const (dyn Fn(Range<usize>) + Sync)) };
        let header = Arc::new(TaskHeader {
            cursor: AtomicUsize::new(0),
            n_grains,
            grain,
            total,
            completed: AtomicUsize::new(0),
            done_lock: Mutex::new(false),
            done_cond: Condvar::new(),
            panic: Mutex::new(None),
            body: ClosurePtr(body_static),
        });
        // Wake at most as many workers as there are grains beyond the one
        // the caller will take.
        let helpers = self.threads.min(n_grains - 1);
        for _ in 0..helpers {
            // Send failure means workers are gone, which only happens at
            // process teardown; fall back to inline execution below.
            let _ = self.sender.send(Arc::clone(&header));
        }
        header.drain();
        header.wait();
        let payload = header.panic.lock().take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Run `body(shard)` once for every shard in `0..n_shards`, each shard
    /// exactly once, distributed over the pool (the caller participates).
    ///
    /// This is the executor behind `gpu-sim`'s per-SM sharded launches:
    /// shards are claimed dynamically, so a shard with skewed work does
    /// not idle the rest of the pool, and the call blocks until every
    /// shard has finished (or re-throws the first shard panic).
    pub fn run_shards(&self, n_shards: usize, body: &(dyn Fn(usize) + Sync)) {
        self.run(n_shards, 1, &|r: Range<usize>| {
            for s in r {
                body(s);
            }
        });
    }
}

/// Dedicated pools keyed by total width, for callers that need a specific
/// parallelism regardless of how the global pool was configured (the
/// simulator's `ACSR_SIM_THREADS` knob, width-sweep benchmarks). Pools are
/// created on first use and live for the process; threads park between
/// calls, so idle widths cost nothing but stack space.
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
    if n_shards == 0 {
        return;
    }
    if threads <= 1 || n_shards == 1 {
        for s in 0..n_shards {
            body(s);
        }
        return;
    }
    shard_pool(threads).run_shards(n_shards, &body);
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

pub(crate) fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| {
        let threads = match std::env::var("PAR_RUNTIME_THREADS") {
            Ok(env) => env.parse().unwrap_or_else(|_| default_threads()),
            Err(_) => default_threads(),
        };
        // The caller participates too, so spawn one fewer worker.
        Pool::new(threads.saturating_sub(1))
    })
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Total threads participating in global-pool parallel calls
/// (workers + the caller).
pub fn num_threads() -> usize {
    global().threads() + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn dedicated_pool_runs_all_grains() {
        let pool = Pool::new(3);
        let sum = AtomicU64::new(0);
        pool.run(1000, 7, &|r: Range<usize>| {
            sum.fetch_add(r.map(|i| i as u64).sum::<u64>(), Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 999 * 1000 / 2);
    }

    #[test]
    fn zero_width_pool_runs_inline() {
        let pool = Pool::new(0);
        let sum = AtomicU64::new(0);
        pool.run(100, 10, &|r: Range<usize>| {
            sum.fetch_add(r.len() as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn single_grain_runs_on_caller() {
        let pool = Pool::new(4);
        let tid = std::thread::current().id();
        pool.run(5, 100, &move |_r| {
            assert_eq!(std::thread::current().id(), tid);
        });
    }

    #[test]
    fn many_small_tasks_reuse_workers() {
        let pool = Pool::new(2);
        for round in 0..200 {
            let sum = AtomicU64::new(0);
            pool.run(64, 4, &|r: Range<usize>| {
                sum.fetch_add(r.len() as u64, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 64, "round {round}");
        }
    }

    #[test]
    fn run_shards_visits_each_shard_once() {
        let pool = Pool::new(3);
        let hits: Vec<AtomicU64> = (0..16).map(|_| AtomicU64::new(0)).collect();
        pool.run_shards(16, &|s| {
            hits[s].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn panicking_grain_propagates_instead_of_hanging() {
        // Regression: with one worker, a panic inside a worker-claimed
        // grain used to leave `completed` short of `n_grains`, parking the
        // caller forever. The pool must re-throw the panic on the caller
        // and stay usable afterwards.
        let pool = Pool::new(1);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_shards(8, &|s| {
                if s % 2 == 1 {
                    panic!("shard {s} failed");
                }
            });
        }));
        assert!(err.is_err(), "panic must propagate to the caller");

        // The same pool still completes fresh work.
        let sum = AtomicU64::new(0);
        pool.run_shards(8, &|s| {
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
