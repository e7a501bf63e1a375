//! Launch engine and timing model.
//!
//! A launch executes every block of the grid (functionally, on the host),
//! attributing each block to an SM round-robin. Afterwards the model
//! combines three bounds into a kernel time:
//!
//! ```text
//! t_comp    = max over SMs of  max(issue_slots / IPC, longest_warp_critical_path) / clock
//! t_mem     = DRAM bytes / bandwidth
//! t         = t_launch + max(t_comp, t_mem) + t_dynamic_launch
//! ```
//!
//! * `issue_slots / IPC` is the throughput bound — SIMT issue pressure,
//!   including every wasted lane.
//! * the *critical path* term is the latency bound — a single warp
//!   grinding through a 20 000-non-zero row cannot hide its memory
//!   latency once its SM has nothing else left, which is exactly the
//!   long-tail pathology of Figure 3 that dynamic parallelism removes.
//! * dynamic child launches pay device-side overhead, amortized over the
//!   hardware launch units, plus a stall penalty beyond the pending-launch
//!   limit (`cudaLimitDevRuntimePendingLaunchCount`, §III-B).
//!
//! ## Sharded host execution in waves
//!
//! Execution is *always* partitioned into one shard per SM: shard `s`
//! runs exactly the blocks the round-robin scheduler places on SM `s`,
//! in ascending block order, against shard-private counters and texture
//! caches. CUDA guarantees blocks of a grid are independent and may run
//! in any order, so this partition is semantically faithful — and it
//! makes the host-side worker count ([`sim_threads`]) pure mechanism:
//! whether one thread walks the shards in order or eight threads claim
//! them from a pool, every shard computes the same numbers and the
//! SM-ordered merge in `assemble_report` produces a bit-identical
//! [`RunReport`].
//!
//! A launch runs as a plain sequence of waves. Wave 0 is the parent
//! grid, on every SM that owns at least one of its blocks; each wave
//! runs its SMs' slices in ascending SM order on up to
//! [`effective_workers`] host workers. Dynamic child grids are *queued*
//! at launch: once a wave drains, the per-shard queues are merged in SM
//! order (deterministic at any worker count) into the next wave, and the
//! launch ends when a wave queues nothing or no SM owns a block of it.
//! Each child block runs on the shard of the SM it is attributed to,
//! `(block + seq) % SMs`. Because blocks attributed to SM `s` always
//! execute on shard `s` — for top-level grids and child grids alike —
//! shard `s`'s texture cache sees exactly the access stream SM `s`'s
//! cache sees in a fully sequential walk, so child grids reuse the lines
//! earlier kernels of the same launch group already pulled. Per-launch
//! state (shards, pending-child queues, the wave and its SM list) lives
//! in a pooled `LaunchArena` reused across launches, so the hot loop
//! allocates nothing.

use crate::arena::LaunchArena;
use crate::buffer::{DevCopy, DeviceBuffer, PAGE_BYTES};
use crate::cache::SetAssocCache;
use crate::config::DeviceConfig;
use crate::counters::{Counters, RunReport, TimeBreakdown};
use crate::trace::{self, ChildRec, StreamRec, TraceLedger};
use crate::warp::{WarpCtx, WARP};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Kernel body: called once per thread block. Kernels must be `Fn + Sync`
/// because blocks of one grid may execute on several host threads; all
/// writes to simulation state go through [`crate::WarpCtx`] and
/// [`DeviceBuffer`]'s interior mutability (see the buffer module's kernel
/// data contract). The pinned third lifetime lets kernel bodies launch
/// child grids whose closures borrow from the same scope the kernel
/// itself borrows from.
pub type KernelFn<'a> = &'a (dyn for<'r, 'c> Fn(&mut BlockCtx<'r, 'c, 'a>) + Sync);

/// A dynamically launched child grid, queued by [`WarpCtx::launch_child`]
/// and executed as part of the next follow-on wave (module docs).
pub(crate) struct PendingChild<'k> {
    /// Launch sequence number of the owning shard at launch time;
    /// rotates the child's block→SM attribution.
    pub(crate) seq: usize,
    pub(crate) grid_blocks: usize,
    pub(crate) block_dim: usize,
    pub(crate) kernel: Box<dyn for<'r, 'c> Fn(&mut BlockCtx<'r, 'c, 'k>) + Send + Sync + 'k>,
}

/// Host-thread override set by [`set_sim_threads`] (0 = no override).
static SIM_THREADS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Force the number of host threads simulated launches execute on.
/// `0` clears the override, returning to `ACSR_SIM_THREADS` / the
/// machine's available parallelism. `1` forces the sequential path.
///
/// Thread count is pure mechanism: reports are bit-identical at every
/// width (see the module docs), so this knob only trades wall-clock
/// simulation speed.
pub fn set_sim_threads(n: usize) {
    SIM_THREADS_OVERRIDE.store(n, Ordering::SeqCst);
}

/// Host threads a launch will use: the [`set_sim_threads`] override if
/// set, else the `ACSR_SIM_THREADS` environment variable (read once), else
/// the machine's available parallelism.
pub fn sim_threads() -> usize {
    match SIM_THREADS_OVERRIDE.load(Ordering::SeqCst) {
        0 => env_or_auto_threads(),
        n => n,
    }
}

fn env_or_auto_threads() -> usize {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    let from_env = *ENV.get_or_init(|| {
        std::env::var("ACSR_SIM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse().ok())
    });
    from_env
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .max(1)
}

/// Host-core override set by [`override_host_cores`] (0 = no override).
static HOST_CORES_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Override the detected host core count (`0` clears the override).
/// Test/bench knob for exercising the single-core fan-out short-circuit
/// deterministically on any machine.
pub fn override_host_cores(n: usize) {
    HOST_CORES_OVERRIDE.store(n, Ordering::SeqCst);
}

/// Physical cores available to this process (detected once), unless
/// overridden via [`override_host_cores`].
pub fn host_cores() -> usize {
    match HOST_CORES_OVERRIDE.load(Ordering::SeqCst) {
        0 => {
            static CORES: OnceLock<usize> = OnceLock::new();
            *CORES.get_or_init(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
        }
        n => n,
    }
}

/// Grids below this many threads run their shards sequentially even when
/// more workers are requested: the pool round-trip (wake, claim, park)
/// costs more host time than the work it distributes.
const PAR_MIN_GRID_THREADS: usize = 16 * 1024;

/// Host workers a wave actually fans out to. Requesting more workers
/// than can help is where the historical `workers>1` *slowdown* came
/// from: on a single-core host, or for a small grid, the pool round-trip
/// is pure overhead, so those cases short-circuit to the sequential
/// path. Worker count never affects results (see the module docs), so
/// this is purely a wall-clock policy.
pub fn effective_workers(requested: usize, active_shards: usize, grid_threads: usize) -> usize {
    if requested <= 1
        || active_shards <= 1
        || grid_threads < PAR_MIN_GRID_THREADS
        || host_cores() <= 1
    {
        1
    } else {
        requested.min(active_shards)
    }
}

/// Per-SM slice of an in-flight launch: the blocks scheduled on one SM
/// plus every model structure they touch. Shards are mutated by exactly
/// one host worker at a time and merged in SM order afterwards.
pub(crate) struct ShardState {
    /// The SM whose blocks this shard executes.
    pub(crate) home_sm: usize,
    pub(crate) counters: Counters,
    /// Issue slots attributed per SM (full length: child blocks launched
    /// from this shard may be attributed to any SM).
    pub(crate) sm_instr: Vec<u64>,
    /// Longest warp critical path attributed per SM.
    pub(crate) sm_crit: Vec<u64>,
    /// SM `home_sm`'s texture cache, allocated on first touch. Every
    /// block attributed to `home_sm` executes on this shard — top-level
    /// blocks directly, child blocks via the follow-on wave — so the
    /// cache's access stream matches a sequential round-robin walk
    /// exactly, at any host worker count.
    pub(crate) tex_cache: Option<SetAssocCache>,
    /// Child-launch sequence of this shard's parent blocks. Shard-private
    /// (hence deterministic); pre-incremented per launch so the first
    /// child grid gets `seq == 1`, matching a global launch counter
    /// whenever a single block does the launching.
    pub(crate) child_seq: usize,
    /// Per-child-grid counter slices executed on this shard, recorded
    /// only while tracing (empty otherwise).
    pub(crate) child_recs: Vec<ChildRec>,
}

impl ShardState {
    pub(crate) fn new(home_sm: usize, sm_count: usize) -> Self {
        ShardState {
            home_sm,
            counters: Counters::default(),
            sm_instr: vec![0; sm_count],
            sm_crit: vec![0; sm_count],
            tex_cache: None,
            child_seq: 0,
            child_recs: Vec::new(),
        }
    }

    /// Restore the logical fresh-launch state without dropping any
    /// allocation (the arena reuses shards across launches). A flushed
    /// texture cache is observationally identical to a new one, so a
    /// reset shard behaves exactly like `ShardState::new`.
    pub(crate) fn reset(&mut self) {
        self.counters = Counters::default();
        self.sm_instr.fill(0);
        self.sm_crit.fill(0);
        if let Some(cache) = &mut self.tex_cache {
            cache.flush();
        }
        self.child_seq = 0;
        self.child_recs.clear();
    }

    /// This shard's texture cache (SM `home_sm`'s cache).
    pub(crate) fn cache_mut(&mut self, cfg: &DeviceConfig) -> &mut SetAssocCache {
        self.tex_cache.get_or_insert_with(|| {
            SetAssocCache::new(cfg.tex_cache_bytes, cfg.tex_line_bytes, cfg.tex_ways)
        })
    }
}

/// Mutable state of one in-flight launch (shared with child grids):
/// a pooled arena holding one `ShardState` per SM, in SM order, plus
/// the wave loop's storage.
pub struct RunState<'d> {
    pub(crate) cfg: &'d DeviceConfig,
    pub(crate) arena: LaunchArena,
    /// Whether the owning device has a trace ledger attached (enables
    /// the per-stream / per-child counter snapshots).
    pub(crate) trace: bool,
}

/// Per-block kernel context.
pub struct BlockCtx<'r, 'd, 'k> {
    pub(crate) shard: &'r mut ShardState,
    /// Child grids this shard queued for the next wave.
    pub(crate) pending: &'r mut Vec<PendingChild<'k>>,
    pub(crate) cfg: &'d DeviceConfig,
    pub(crate) block_idx: usize,
    pub(crate) block_dim: usize,
    pub(crate) sm: usize,
}

impl<'r, 'd, 'k> BlockCtx<'r, 'd, 'k> {
    /// Block index within the grid.
    pub fn block_idx(&self) -> usize {
        self.block_idx
    }

    /// Threads per block of this launch.
    pub fn block_dim(&self) -> usize {
        self.block_dim
    }

    /// Global thread id of this block's thread 0.
    pub fn thread_offset(&self) -> usize {
        self.block_idx * self.block_dim
    }

    /// Number of warps in this block.
    pub fn warp_count(&self) -> usize {
        self.block_dim.div_ceil(WARP)
    }

    /// SM this block was scheduled on.
    pub fn sm(&self) -> usize {
        self.sm
    }

    /// Run `f` once for every warp of this block. Warps of one block run
    /// on one host thread, so `f` may be a stateful `FnMut`. Generic
    /// (rather than `&mut dyn FnMut`) so the warp loop monomorphizes and
    /// inlines into the kernel body; `&mut` closures and
    /// `&mut dyn FnMut` both still work unchanged.
    pub fn for_each_warp<F>(&mut self, f: &mut F)
    where
        F: FnMut(&mut WarpCtx<'_, 'd, 'k>) + ?Sized,
    {
        // Config-derived latency charges, hoisted so the per-access charge
        // paths never divide.
        let mem_lat = (self.cfg.mem_latency_cycles as f64 / self.cfg.mlp).ceil() as u64;
        let tex_hit_lat = (self.cfg.tex_hit_latency_cycles as f64 / self.cfg.mlp).ceil() as u64;
        for w in 0..self.warp_count() {
            let mut warp = WarpCtx {
                block_idx: self.block_idx,
                warp_in_block: w,
                block_dim: self.block_dim,
                sm: self.sm,
                instr: 0,
                crit: 0,
                lanes: 0,
                mem_lat,
                tex_hit_lat,
                shard: &mut *self.shard,
                pending: &mut *self.pending,
                cfg: self.cfg,
            };
            f(&mut warp);
        }
    }
}

/// Execute the blocks of one grid that the round-robin scheduler places
/// on `shard.home_sm` — block `b` lands on SM `(b + offset) % SMs` — in
/// ascending block order. Child launches land in `pending` for the next
/// wave.
fn run_blocks<'k>(
    cfg: &DeviceConfig,
    shard: &mut ShardState,
    pending: &mut Vec<PendingChild<'k>>,
    grid_blocks: usize,
    block_dim: usize,
    offset: usize,
    kernel: &(dyn for<'r, 'c> Fn(&mut BlockCtx<'r, 'c, 'k>) + Sync),
) {
    let sms = cfg.sm_count;
    let mut b = first_block(shard.home_sm, offset, sms);
    while b < grid_blocks {
        shard.counters.blocks += 1;
        let home = shard.home_sm;
        let mut blk = BlockCtx {
            shard: &mut *shard,
            pending: &mut *pending,
            cfg,
            block_idx: b,
            block_dim,
            sm: home,
        };
        kernel(&mut blk);
        b += sms;
    }
}

/// Execute one shard's slice of a child wave: for every queued child
/// grid, in wave order, the blocks attributed to `shard.home_sm`
/// (`(block + seq) % SMs == home_sm`). Grandchild launches land in
/// `pending`.
fn run_children<'k>(
    cfg: &DeviceConfig,
    shard: &mut ShardState,
    wave: &[PendingChild<'k>],
    pending: &mut Vec<PendingChild<'k>>,
    trace: bool,
) {
    for child in wave {
        let before = if trace { Some(shard.counters) } else { None };
        run_blocks(
            cfg,
            shard,
            pending,
            child.grid_blocks,
            child.block_dim,
            child.seq,
            &*child.kernel,
        );
        if let Some(before) = before {
            let delta = shard.counters.delta_from(&before);
            // Only record slices that actually ran blocks here; the
            // block→shard attribution is width-independent, so the
            // recorded set is too.
            if delta.blocks > 0 {
                shard.child_recs.push(ChildRec {
                    seq: child.seq,
                    sm: shard.home_sm,
                    grid_blocks: child.grid_blocks,
                    block_dim: child.block_dim,
                    counters: delta,
                });
            }
        }
    }
}

/// Smallest block index the round-robin scheduler places on `home_sm`
/// for a grid whose block 0 lands on SM `offset % sms`.
#[inline]
fn first_block(home_sm: usize, offset: usize, sms: usize) -> usize {
    (home_sm + sms - offset % sms) % sms
}

/// Run one wave: every SM in `active` runs `slice` on its own shard and
/// pending-child queue, on up to `width` host workers (in ascending SM
/// order when `width` is 1). Shards are independent, so the result is
/// identical at any width.
fn run_wave<'k>(
    shards: &mut [ShardState],
    pending: &mut [Vec<PendingChild<'k>>],
    active: &[usize],
    width: usize,
    slice: impl Fn(&mut ShardState, &mut Vec<PendingChild<'k>>) + Sync,
) {
    assert!(
        active.windows(2).all(|w| w[0] < w[1])
            && active
                .last()
                .is_none_or(|&sm| sm < shards.len() && sm < pending.len()),
        "a wave's SMs must be ascending and in range"
    );
    let shards_at = shards.as_mut_ptr() as usize;
    let pending_at = pending.as_mut_ptr() as usize;
    par_runtime::par_shards(width, active.len(), |i| {
        let sm = active[i];
        // SAFETY: the assert above makes every `sm` a distinct in-range
        // index, so each invocation gets its own shard and queue, and
        // both slices stay mutably borrowed for the whole call.
        let (shard, queued) = unsafe {
            (
                &mut *(shards_at as *mut ShardState).add(sm),
                &mut *(pending_at as *mut Vec<PendingChild<'k>>).add(sm),
            )
        };
        slice(shard, queued);
    });
}

/// Execute a grid into `run` as a sequence of waves (module docs).
/// `sm_offset` rotates the block→SM mapping. All storage comes from the
/// run's pooled arena, and the result is identical at any width.
pub(crate) fn execute_grid<'k>(
    run: &mut RunState,
    grid_blocks: usize,
    block_dim: usize,
    sm_offset: usize,
    kernel: KernelFn<'k>,
) {
    assert!(
        block_dim > 0 && block_dim <= 1024,
        "block_dim {block_dim} out of range"
    );
    if grid_blocks == 0 {
        return;
    }
    let cfg = run.cfg;
    let trace = run.trace;
    let sms = cfg.sm_count;
    let requested = sim_threads().min(sms);

    let arena = &mut run.arena;
    let mut pending = arena.take_pending(sms);
    let mut wave: Vec<PendingChild<'k>> = arena.take_wave();
    let (shards, active) = (&mut arena.shards, &mut arena.active);

    // Wave 0: the parent grid, on every SM that owns at least one block.
    active.clear();
    active.extend((0..sms).filter(|&sm| first_block(sm, sm_offset, sms) < grid_blocks));
    let width = effective_workers(requested, active.len(), grid_blocks * block_dim);
    run_wave(shards, &mut pending, active, width, |shard, queued| {
        run_blocks(
            cfg,
            shard,
            queued,
            grid_blocks,
            block_dim,
            sm_offset,
            kernel,
        )
    });
    loop {
        // The children the last wave queued, merged in SM order, run on
        // every SM that owns one of their blocks.
        wave.clear();
        for queued in &mut pending {
            wave.append(queued);
        }
        active.clear();
        active.extend((0..sms).filter(|&sm| {
            wave.iter()
                .any(|c| first_block(sm, c.seq, sms) < c.grid_blocks)
        }));
        if active.is_empty() {
            break;
        }
        let threads = wave.iter().map(|c| c.grid_blocks * c.block_dim).sum();
        let width = effective_workers(requested, active.len(), threads);
        run_wave(shards, &mut pending, active, width, |shard, queued| {
            run_children(cfg, shard, &wave, queued, trace)
        });
    }

    // Return pooled storage to the arena.
    arena.restore_pending(pending);
    arena.restore_wave(wave);
}

/// A simulated GPU.
pub struct Device {
    cfg: DeviceConfig,
    /// Trace ledger, when attached (see [`crate::trace`]). `None` keeps
    /// launches on the zero-overhead path.
    ledger: Option<Arc<TraceLedger>>,
    /// Recycled launch arenas (see [`crate::arena`]): launches pop one,
    /// reports push it back reset, so steady-state launches allocate
    /// nothing.
    arenas: Mutex<Vec<LaunchArena>>,
}

/// Most arenas a device keeps pooled (one is typical; concurrent groups
/// overlapping plain launches can briefly need a second).
const ARENA_POOL_CAP: usize = 4;

impl Device {
    /// Create a device from a configuration (see [`crate::presets`]).
    /// If process-global trace capture is on
    /// ([`trace::enable_global_capture`]), the device records into the
    /// shared [`trace::global_ledger`].
    ///
    /// Panics, naming the field, unless `dram_transaction_bytes` and
    /// `tex_line_bytes` are powers of two from 32 bytes to a page (4096):
    /// the warp memory ops count segments on element indices, which is
    /// exact only for such granules (see [`crate::warp`]).
    pub fn new(cfg: DeviceConfig) -> Device {
        for (field, bytes) in [
            ("dram_transaction_bytes", cfg.dram_transaction_bytes),
            ("tex_line_bytes", cfg.tex_line_bytes),
        ] {
            assert!(
                bytes.is_power_of_two() && (32..=PAGE_BYTES as usize).contains(&bytes),
                "DeviceConfig::{field} must be a power of two from 32 to {PAGE_BYTES} bytes, \
                 got {bytes}"
            );
        }
        let ledger = if trace::global_capture_enabled() {
            Some(trace::global_ledger())
        } else {
            None
        };
        Device {
            cfg,
            ledger,
            arenas: Mutex::new(Vec::new()),
        }
    }

    /// Attach a fresh private trace ledger to this device and return it.
    pub fn enable_tracing(&mut self) -> Arc<TraceLedger> {
        let ledger = Arc::new(TraceLedger::new());
        self.ledger = Some(ledger.clone());
        ledger
    }

    /// Attach an existing trace ledger (possibly shared with other
    /// devices — multi-GPU executors record all devices into one ledger,
    /// distinguished by each device's configured name).
    pub fn attach_ledger(&mut self, ledger: Arc<TraceLedger>) {
        self.ledger = Some(ledger);
    }

    /// The attached trace ledger, if any.
    pub fn ledger(&self) -> Option<&Arc<TraceLedger>> {
        self.ledger.as_ref()
    }

    /// The device's configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Allocate a device buffer from host data.
    pub fn alloc<T: DevCopy>(&self, data: Vec<T>) -> DeviceBuffer<T> {
        DeviceBuffer::new(data)
    }

    /// Allocate a zeroed device buffer.
    pub fn alloc_zeroed<T: DevCopy>(&self, len: usize) -> DeviceBuffer<T> {
        DeviceBuffer::zeroed(len)
    }

    /// Modeled host→device copy time for `bytes`.
    pub fn htod_seconds(&self, bytes: u64) -> f64 {
        self.cfg.copy_seconds(bytes)
    }

    /// Modeled device→host copy time for `bytes` (asymmetric PCIe
    /// readback bandwidth — see [`DeviceConfig::copy_seconds_d2h`]).
    pub fn dtoh_seconds(&self, bytes: u64) -> f64 {
        self.cfg.copy_seconds_d2h(bytes)
    }

    /// Charge a host→device transfer: returns a report carrying the
    /// copy time (as `transfer_s`) and `htod_bytes`, and records a
    /// transfer span when tracing.
    pub fn record_htod(&self, name: &str, bytes: u64) -> RunReport {
        self.transfer_report(name, self.htod_seconds(bytes), bytes, 0)
    }

    /// Charge a device→host readback: returns a report carrying the
    /// copy time (as `transfer_s`) and `dtoh_bytes`, and records a
    /// transfer span when tracing.
    pub fn record_dtoh(&self, name: &str, bytes: u64) -> RunReport {
        self.transfer_report(name, self.dtoh_seconds(bytes), bytes, 1)
    }

    /// Charge an inbound peer-to-peer copy whose duration was modeled
    /// externally (interconnect links are scheduled by the multi-device
    /// exchange planner, not by this device's host-PCIe model). The
    /// bytes land on this device, so they count as `htod_bytes` and
    /// record a transfer span when tracing — exactly like
    /// [`Self::record_htod`] with a caller-set time.
    pub fn record_peer_recv(&self, name: &str, bytes: u64, seconds: f64) -> RunReport {
        self.transfer_report(name, seconds, bytes, 0)
    }

    fn transfer_report(&self, name: &str, time_s: f64, bytes: u64, dtoh: u32) -> RunReport {
        let counters = if dtoh != 0 {
            Counters {
                dtoh_bytes: bytes,
                ..Default::default()
            }
        } else {
            Counters {
                htod_bytes: bytes,
                ..Default::default()
            }
        };
        let report = RunReport {
            name: name.to_string(),
            time_s,
            counters,
            breakdown: TimeBreakdown {
                transfer_s: time_s,
                ..Default::default()
            },
            launches: 0,
        };
        if let Some(ledger) = &self.ledger {
            ledger.record_transfer(&self.cfg, &report);
        }
        report
    }

    /// Launch `kernel` over `grid_blocks x block_dim` threads and return
    /// the modeled report. Execution is functional (all writes through
    /// [`WarpCtx`] happen for real); time is assembled from the counters.
    pub fn launch(
        &self,
        name: &str,
        grid_blocks: usize,
        block_dim: usize,
        kernel: KernelFn,
    ) -> RunReport {
        let mut run = self.fresh_run();
        execute_grid(&mut run, grid_blocks, block_dim, 0, kernel);
        self.assemble_report(
            name,
            run,
            self.cfg.kernel_launch_s,
            1,
            (grid_blocks, block_dim),
            Vec::new(),
        )
    }

    /// Begin a group of *independent* kernels launched on separate
    /// streams. Every Table II device runs such kernels concurrently
    /// (Fermi up to 16, Kepler's HyperQ 32), so the group's kernels
    /// execute into one shared run and are modeled as one pooled
    /// roofline (DESIGN §8).
    pub fn launch_group<'d>(&'d self, name: &str) -> ConcurrentGroup<'d> {
        ConcurrentGroup {
            dev: self,
            name: name.to_string(),
            run: self.fresh_run(),
            launches: 0,
            grid_offset: 0,
            streams: Vec::new(),
        }
    }

    fn fresh_run(&self) -> RunState<'_> {
        let arena = self
            .arenas
            .lock()
            .pop()
            .unwrap_or_else(|| LaunchArena::new(self.cfg.sm_count));
        RunState {
            cfg: &self.cfg,
            arena,
            trace: self.ledger.is_some(),
        }
    }

    fn assemble_report(
        &self,
        name: &str,
        mut run: RunState,
        launch_s: f64,
        launches: u32,
        shape: (usize, usize),
        streams: Vec<StreamRec>,
    ) -> RunReport {
        let cfg = &self.cfg;
        let sms = cfg.sm_count;
        // Deterministic merge: shards are reduced in SM order. (All shard
        // fields are integers, so the sums are order-independent anyway —
        // the fixed order keeps that true by construction if a float
        // counter is ever added.)
        let counters = Counters::sum(run.arena.shards.iter().map(|s| &s.counters));
        let mut sm_instr = vec![0u64; sms];
        let mut sm_crit = vec![0u64; sms];
        for shard in &run.arena.shards {
            for t in 0..sms {
                sm_instr[t] += shard.sm_instr[t];
                sm_crit[t] = sm_crit[t].max(shard.sm_crit[t]);
            }
        }
        let clock_hz = cfg.clock_ghz * 1e9;
        let mut comp_cycles = 0u64;
        let mut lat_cycles = 0u64;
        for sm in 0..sms {
            let throughput = (sm_instr[sm] as f64 / cfg.ipc_per_sm).ceil() as u64;
            comp_cycles = comp_cycles.max(throughput);
            lat_cycles = lat_cycles.max(sm_crit[sm]);
        }
        let compute_s = comp_cycles as f64 / clock_hz;
        let latency_s = lat_cycles as f64 / clock_hz;
        let memory_s = counters.dram_bytes() as f64 / cfg.bandwidth_bytes_s();
        let n_children = counters.child_launches;
        let dynamic_launch_s = if n_children > 0 {
            let batches = (n_children as usize).div_ceil(cfg.child_launch_parallelism.max(1));
            let overflow = n_children.saturating_sub(cfg.pending_launch_limit as u64);
            batches as f64 * cfg.child_launch_s + overflow as f64 * cfg.pending_overflow_penalty_s
        } else {
            0.0
        };
        let time_s = launch_s + compute_s.max(memory_s).max(latency_s) + dynamic_launch_s;
        let report = RunReport {
            name: name.to_string(),
            time_s,
            counters,
            breakdown: TimeBreakdown {
                launch_s,
                compute_s,
                memory_s,
                latency_s,
                dynamic_launch_s,
                transfer_s: 0.0,
            },
            launches,
        };
        if let Some(ledger) = &self.ledger {
            // Drain the per-shard child slices in SM order — the same
            // deterministic order the counter merge uses.
            let mut children = Vec::new();
            for shard in &mut run.arena.shards {
                children.append(&mut shard.child_recs);
            }
            ledger.record_launch(
                &self.cfg, &report, shape.0, shape.1, sm_instr, streams, children,
            );
        }
        self.recycle(run.arena);
        report
    }

    /// Return a launch's arena to the pool, reset (= logically fresh).
    fn recycle(&self, mut arena: LaunchArena) {
        arena.reset();
        let mut pool = self.arenas.lock();
        if pool.len() < ARENA_POOL_CAP {
            pool.push(arena);
        }
    }
}

/// A set of independent kernels launched on separate streams
/// (see [`Device::launch_group`]).
pub struct ConcurrentGroup<'d> {
    dev: &'d Device,
    name: String,
    /// The shared run every kernel of the group executes into.
    run: RunState<'d>,
    launches: u32,
    /// Rotates block→SM placement so concurrent small grids spread out.
    grid_offset: usize,
    /// Per-stream counter slices, recorded only while tracing.
    streams: Vec<StreamRec>,
}

impl ConcurrentGroup<'_> {
    /// Add one kernel to the group (executed immediately into the
    /// group's pooled run).
    pub fn add(&mut self, name: &str, grid_blocks: usize, block_dim: usize, kernel: KernelFn) {
        self.launches += 1;
        let run = &mut self.run;
        // Group adds are sequential host-side, so snapshotting the pooled
        // counters around each add attributes every increment (child
        // waves included) to its stream.
        let before = if run.trace {
            Some(Counters::sum(run.arena.shards.iter().map(|s| &s.counters)))
        } else {
            None
        };
        execute_grid(run, grid_blocks, block_dim, self.grid_offset, kernel);
        if let Some(before) = before {
            let after = Counters::sum(run.arena.shards.iter().map(|s| &s.counters));
            self.streams.push(StreamRec {
                name: name.to_string(),
                grid_blocks,
                block_dim,
                counters: after.delta_from(&before),
            });
        }
        self.grid_offset += grid_blocks.max(1);
    }

    /// Number of kernels added so far.
    pub fn launches(&self) -> u32 {
        self.launches
    }

    /// Close the group and return the combined report. A group pays one
    /// full launch gap plus a small per-stream enqueue cost; the pooled
    /// roofline takes one `max` over the group's aggregate work. A group
    /// with no kernels launched nothing: it costs nothing and records no
    /// span.
    pub fn finish(self) -> RunReport {
        if self.launches == 0 {
            self.dev.recycle(self.run.arena);
            return RunReport {
                name: self.name,
                ..RunReport::default()
            };
        }
        let cfg = self.dev.config();
        let extra = (self.launches - 1) as f64 * 0.25 * cfg.kernel_launch_s;
        self.dev.assemble_report(
            &self.name,
            self.run,
            cfg.kernel_launch_s + extra,
            self.launches,
            (0, 0),
            self.streams,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::presets;
    use crate::warp::{lane_mask, FULL_MASK};

    fn titan() -> Device {
        Device::new(presets::gtx_titan())
    }

    #[test]
    fn empty_kernel_costs_one_launch() {
        let dev = titan();
        let r = dev.launch("empty", 0, 32, &|_b| {});
        assert!((r.time_s - dev.config().kernel_launch_s).abs() < 1e-12);
        assert_eq!(r.counters.blocks, 0);
    }

    /// A 96-byte transaction would make a fully coalesced 32 × f64 read
    /// (256 bytes) cost 768 DRAM bytes in 8 transactions.
    #[test]
    #[should_panic(expected = "dram_transaction_bytes")]
    fn device_rejects_a_transaction_size_that_is_not_a_power_of_two() {
        let mut cfg = presets::gtx_titan();
        cfg.dram_transaction_bytes = 96;
        Device::new(cfg);
    }

    /// A 48-byte texture line used to be accepted and panic at the first
    /// texture gather instead.
    #[test]
    #[should_panic(expected = "tex_line_bytes")]
    fn device_rejects_a_texture_line_that_is_not_a_power_of_two() {
        let mut cfg = presets::gtx_titan();
        cfg.tex_line_bytes = 48;
        Device::new(cfg);
    }

    #[test]
    fn device_accepts_granules_from_32_bytes_to_a_page() {
        for bytes in [32, 128, 4096] {
            let mut cfg = presets::gtx_titan();
            cfg.dram_transaction_bytes = bytes;
            cfg.tex_line_bytes = bytes;
            Device::new(cfg);
        }
        for bytes in [0, 16, 8192] {
            let mut cfg = presets::gtx_titan();
            cfg.tex_line_bytes = bytes;
            assert!(std::panic::catch_unwind(|| Device::new(cfg)).is_err());
        }
    }

    #[test]
    fn empty_group_costs_nothing() {
        for cfg in [presets::gtx_titan(), presets::gtx_580()] {
            let mut dev = Device::new(cfg);
            let ledger = dev.enable_tracing();
            let r = dev.launch_group("idle").finish();
            assert_eq!(r.name, "idle");
            assert_eq!(r.launches, 0);
            assert_eq!(r.time_s, 0.0);
            assert!(ledger.is_empty(), "{}: no span", dev.config().name);
        }
    }

    #[test]
    fn functional_copy_kernel_is_correct() {
        let dev = titan();
        let n = 1000usize;
        let src = dev.alloc((0..n as u32).collect::<Vec<_>>());
        let dst = dev.alloc_zeroed::<u32>(n);
        let blocks = n.div_ceil(128);
        let r = dev.launch("copy", blocks, 128, &|blk| {
            blk.for_each_warp(&mut |warp| {
                let base = warp.first_thread();
                if base >= n {
                    return;
                }
                let live = (n - base).min(WARP);
                let mask = lane_mask(live);
                let vals = warp.read_coalesced(&src, base, mask);
                warp.write_coalesced(&dst, base, &vals, mask);
            });
        });
        assert_eq!(dst.as_slice(), src.as_slice());
        assert!(r.counters.dram_read_bytes >= (n * 4) as u64);
        assert!(r.counters.dram_write_bytes >= (n * 4) as u64);
    }

    #[test]
    fn coalesced_access_uses_fewer_transactions_than_scattered() {
        let dev = titan();
        let buf = dev.alloc(vec![1.0f64; 32 * 64]);
        let r_coal = dev.launch("coalesced", 1, 32, &|blk| {
            blk.for_each_warp(&mut |warp| {
                warp.read_coalesced(&buf, 0, FULL_MASK);
            });
        });
        let r_scat = dev.launch("scattered", 1, 32, &|blk| {
            blk.for_each_warp(&mut |warp| {
                let mut idx = [0usize; WARP];
                for (lane, slot) in idx.iter_mut().enumerate() {
                    *slot = lane * 64; // one 128B segment each
                }
                warp.gather(&buf, &idx, FULL_MASK);
            });
        });
        // Kepler 32B segments: a coalesced f64 warp read is 8 transactions,
        // a fully scattered one is 32 — a 4x penalty (16x on Fermi's 128B).
        assert!(r_scat.counters.transactions >= 4 * r_coal.counters.transactions);
        assert!(r_scat.counters.dram_read_bytes > r_coal.counters.dram_read_bytes);
    }

    #[test]
    fn texture_reuse_hits_cache() {
        let dev = titan();
        let x = dev.alloc(vec![2.0f32; 1024]);
        let r = dev.launch("tex", 4, 256, &|blk| {
            blk.for_each_warp(&mut |warp| {
                // every warp reads the same 32 elements: first warp per SM
                // misses, the rest hit
                let idx = std::array::from_fn(|i| i);
                warp.gather_tex(&x, &idx, FULL_MASK);
            });
        });
        assert!(r.counters.tex_hits > r.counters.tex_misses);
    }

    #[test]
    fn atomic_conflicts_serialize() {
        let dev = titan();
        let acc = dev.alloc(vec![0.0f64; 4]);
        let r_conflict = dev.launch("atomic-same", 1, 32, &|blk| {
            blk.for_each_warp(&mut |warp| {
                let idx = [0usize; WARP];
                let vals = [1.0f64; WARP];
                warp.atomic_rmw(&acc, &idx, &vals, FULL_MASK, |a, b| a + b);
            });
        });
        assert_eq!(acc.as_slice()[0], 32.0);
        assert!(r_conflict.counters.atomic_conflicts > 0);

        let acc2 = dev.alloc(vec![0.0f64; 32]);
        let r_free = dev.launch("atomic-distinct", 1, 32, &|blk| {
            blk.for_each_warp(&mut |warp| {
                let idx = std::array::from_fn(|i| i);
                let vals = [1.0f64; WARP];
                warp.atomic_rmw(&acc2, &idx, &vals, FULL_MASK, |a, b| a + b);
            });
        });
        assert_eq!(r_free.counters.atomic_conflicts, 0);
        assert!(r_conflict.time_s >= r_free.time_s);
    }

    #[test]
    fn segmented_reduce_sums_segments() {
        let dev = titan();
        dev.launch("reduce", 1, 32, &|blk| {
            blk.for_each_warp(&mut |warp| {
                let vals: [f64; WARP] = std::array::from_fn(|i| i as f64);
                let red = warp.segmented_reduce_sum(&vals, 8);
                // segment 0 = 0+1+..+7 = 28, segment 1 = 8+..+15 = 92
                assert_eq!(red[0], 28.0);
                assert_eq!(red[8], 92.0);
                assert_eq!(
                    red[24],
                    0.0 + (24..32).map(|i| i as f64).sum::<f64>() - 24.0 + 24.0
                );
                let full = warp.segmented_reduce_sum(&vals, 32);
                assert_eq!(full[0], (0..32).map(|i| i as f64).sum::<f64>());
            });
        });
    }

    /// The warp reduction and the host function share one pairing: equal
    /// bit for bit on values whose sum depends on association order.
    #[test]
    fn tree_reduce_sum_is_the_warp_pairing() {
        let dev = titan();
        let vals: [f64; WARP] =
            std::array::from_fn(|i| 1.0 / (i as f64 + 3.0) * 1e-3f64.powi(i as i32 % 4));
        for width in [1, 2, 8, 32] {
            let host = crate::warp::tree_reduce_sum(&vals, width);
            let r = dev.launch("reduce", 1, 32, &|blk| {
                blk.for_each_warp(&mut |warp| {
                    let red = warp.segmented_reduce_sum(&vals, width);
                    assert!(red
                        .iter()
                        .zip(&host)
                        .all(|(a, b)| a.to_bits() == b.to_bits()));
                });
            });
            assert_eq!(
                r.counters.warp_instructions,
                2 * u64::from(width.trailing_zeros())
            );
        }
    }

    #[test]
    fn shfl_down_shifts_lanes() {
        let dev = titan();
        dev.launch("shfl", 1, 32, &|blk| {
            blk.for_each_warp(&mut |warp| {
                let vals: [u32; WARP] = std::array::from_fn(|i| i as u32);
                let s = warp.shfl_down(&vals, 4);
                assert_eq!(s[0], 4);
                assert_eq!(s[27], 31);
                assert_eq!(s[28], 28); // out of range: keeps own value
            });
        });
    }

    #[test]
    fn ballot_collects_predicates() {
        let dev = titan();
        dev.launch("ballot", 1, 32, &|blk| {
            blk.for_each_warp(&mut |warp| {
                let preds: [bool; WARP] = std::array::from_fn(|i| i % 2 == 0);
                let m = warp.ballot(&preds, FULL_MASK);
                assert_eq!(m, 0x5555_5555);
                let m2 = warp.ballot(&preds, 0b1111);
                assert_eq!(m2, 0b0101);
            });
        });
    }

    #[test]
    fn dynamic_child_launches_run_and_charge_overhead() {
        let dev = titan();
        let out = dev.alloc_zeroed::<u32>(64);
        let out_ref = &out;
        let r = dev.launch("parent", 1, 32, &|blk| {
            blk.for_each_warp(&mut |warp| {
                warp.launch_child(2, 32, move |child_blk| {
                    let off = child_blk.thread_offset();
                    child_blk.for_each_warp(&mut |cw| {
                        let vals = [7u32; WARP];
                        cw.write_coalesced(out_ref, off, &vals, FULL_MASK);
                    });
                });
            });
        });
        assert!(out.as_slice().iter().all(|&v| v == 7));
        assert_eq!(r.counters.child_launches, 1);
        assert!(r.breakdown.dynamic_launch_s > 0.0);
    }

    #[test]
    #[should_panic(expected = "dynamic parallelism")]
    fn child_launch_panics_on_fermi() {
        let dev = Device::new(presets::gtx_580());
        dev.launch("parent", 1, 32, &|blk| {
            blk.for_each_warp(&mut |warp| {
                warp.launch_child(1, 32, |_b| {});
            });
        });
    }

    #[test]
    fn pending_limit_overflow_charges_penalty() {
        let mut cfg = presets::gtx_titan();
        cfg.pending_launch_limit = 4;
        let dev = Device::new(cfg);
        let r = dev.launch("parent", 1, 32 * 8, &|blk| {
            blk.for_each_warp(&mut |warp| {
                warp.launch_child(1, 32, |_b| {});
            });
        });
        assert_eq!(r.counters.child_launches, 8);
        let penalty = 4.0 * dev.config().pending_overflow_penalty_s;
        assert!(r.breakdown.dynamic_launch_s > penalty * 0.99);
    }

    #[test]
    fn divergent_long_row_inflates_latency_bound() {
        let dev = titan();
        let buf = dev.alloc(vec![1.0f64; 1 << 20]);
        // One warp walks 4096 strided reads (a long-row critical path);
        // the balanced version spreads the same reads over 128 warps.
        let r_tail = dev.launch("tail", 1, 32, &|blk| {
            blk.for_each_warp(&mut |warp| {
                for it in 0..4096usize {
                    let idx = std::array::from_fn(|i| (it * WARP + i) % (1 << 20));
                    warp.gather(&buf, &idx, FULL_MASK);
                }
            });
        });
        let r_flat = dev.launch("flat", 128, 32, &|blk| {
            blk.for_each_warp(&mut |warp| {
                let wid = warp.global_warp_id();
                for it in 0..32usize {
                    let idx =
                        std::array::from_fn(|i| (wid * 32 * WARP + it * WARP + i) % (1 << 20));
                    warp.gather(&buf, &idx, FULL_MASK);
                }
            });
        });
        // identical traffic, very different modeled time
        assert_eq!(
            r_tail.counters.dram_read_bytes,
            r_flat.counters.dram_read_bytes
        );
        assert!(
            r_tail.time_s > 5.0 * r_flat.time_s,
            "tail {} flat {}",
            r_tail.time_s,
            r_flat.time_s
        );
    }

    #[test]
    fn report_merging_accumulates_time() {
        let dev = titan();
        let buf = dev.alloc(vec![0u32; 1024]);
        let mk = || {
            dev.launch("k", 4, 256, &|blk| {
                blk.for_each_warp(&mut |warp| {
                    warp.read_coalesced(&buf, 0, FULL_MASK);
                });
            })
        };
        let a = mk();
        let b = mk();
        let seq = RunReport::sequence([&a, &b]);
        assert!((seq.time_s - (a.time_s + b.time_s)).abs() < 1e-15);
        assert_eq!(seq.launches, 2);
    }

    /// Mixed-feature kernel (coalesced + texture + reduce + atomics) used
    /// to compare reports across worker widths.
    fn stress_report(dev: &Device, threads: usize) -> RunReport {
        set_sim_threads(threads);
        let n = 96 * 64;
        let src = dev.alloc((0..n).map(|i| i as f64).collect::<Vec<_>>());
        let dst = dev.alloc_zeroed::<f64>(n);
        let acc = dev.alloc_zeroed::<f64>(8);
        let r = dev.launch("stress", 96, 64, &|blk| {
            blk.for_each_warp(&mut |warp| {
                let base = warp.first_thread();
                let vals = warp.read_coalesced(&src, base, FULL_MASK);
                let idx = std::array::from_fn(|i| (base + i * 31) % n);
                warp.gather_tex(&src, &idx, FULL_MASK);
                let red = warp.segmented_reduce_sum(&vals, 8);
                warp.write_coalesced(&dst, base, &red, FULL_MASK);
                let aidx = [warp.block_idx() % 8; WARP];
                // integer-valued adds: exact at any association order
                let ones = [1.0f64; WARP];
                warp.atomic_rmw(&acc, &aidx, &ones, FULL_MASK, |a, b| a + b);
            });
        });
        set_sim_threads(0);
        r
    }

    #[test]
    fn reports_are_bit_identical_across_worker_widths() {
        let dev = titan();
        let base = stress_report(&dev, 1);
        for threads in [2, 4, 8] {
            let r = stress_report(&dev, threads);
            assert_eq!(base.counters, r.counters, "threads={threads}");
            assert_eq!(base.breakdown, r.breakdown, "threads={threads}");
            assert_eq!(
                base.time_s.to_bits(),
                r.time_s.to_bits(),
                "threads={threads}"
            );
        }
    }
}
