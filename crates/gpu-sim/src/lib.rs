//! # gpu-sim — a warp-level SIMT GPU simulator
//!
//! The hardware substrate for this reproduction. The paper's claims are
//! about microarchitectural effects of SpMV kernels on NVIDIA GPUs —
//! warp divergence, wasted SIMT lanes, memory coalescing, texture-cache
//! reuse, kernel-launch overhead, and dynamic parallelism limits. This
//! crate provides:
//!
//! * **Functional execution**: kernels are Rust closures written against
//!   an explicit warp API ([`warp::WarpCtx`]) — 32-lane gathers/scatters,
//!   shuffles, atomics, predicated masks. Results are exact.
//! * **An analytic timing model** ([`engine`]): every warp instruction
//!   charges issue slots; every memory access is split into DRAM
//!   transactions by coalescing rules; a per-SM set-associative texture
//!   cache ([`cache`]) filters `x` reads; per-warp *critical paths* model
//!   the latency-bound long-row tails that motivate ACSR; dynamic child
//!   launches charge device-side overhead and respect the
//!   `cudaLimitDevRuntimePendingLaunchCount` limit of the paper's §III-B.
//!
//! Device presets ([`config::presets`]) mirror the paper's Table II
//! testbed: GTX 580 (Fermi, cc 2.0), Tesla K10 (GK104, cc 3.0, dual) and
//! GTX Titan (GK110, cc 3.5 — the only one with dynamic parallelism).
//!
//! ## Parallel host execution
//!
//! A launch runs as a sequence of waves: the grid, then each generation
//! of child grids its kernels queued (dynamic parallelism). Each wave is
//! partitioned into one shard per SM and the shards may run on several
//! host threads ([`engine::sim_threads`] threads; override with
//! [`engine::set_sim_threads`] or the `ACSR_SIM_THREADS` environment
//! variable, `1` forcing sequential). Worker count is pure mechanism:
//! reports are bit-identical at every width. Kernels are therefore
//! `Fn + Sync` closures, and buffer writes go through `&DeviceBuffer`
//! (see [`buffer`] for the CUDA-style kernel data contract).
//!
//! ## Tracing
//!
//! An opt-in launch-level trace ledger ([`trace`]) records one span per
//! launch (plus per-stream and per-child-wave slices and PCIe transfers)
//! with full [`Counters`] and [`TimeBreakdown`], builds its
//! chrome://tracing events as [`serde::Value`]s, and reconciles span
//! sums bit-identically against the merged [`RunReport`]. Attach per
//! device with [`Device::enable_tracing`] or process-wide with
//! [`trace::enable_global_capture`]; disabled devices pay nothing.
//!
//! ## Example
//!
//! ```
//! use gpu_sim::{presets, Device, FULL_MASK, WARP};
//!
//! let dev = Device::new(presets::gtx_titan());
//! let a = dev.alloc((0..64u32).collect::<Vec<_>>());
//! let out = dev.alloc(vec![0u32; 64]);
//! let report = dev.launch("double", 2, 32, &|block| {
//!     block.for_each_warp(&mut |warp| {
//!         let base = warp.first_thread();
//!         let vals = warp.read_coalesced(&a, base, FULL_MASK);
//!         let mut doubled = [0u32; WARP];
//!         for i in 0..WARP {
//!             doubled[i] = vals[i] * 2;
//!         }
//!         warp.charge_alu(1);
//!         warp.write_coalesced(&out, base, &doubled, FULL_MASK);
//!     });
//! });
//! assert_eq!(out.as_slice()[10], 20);
//! assert!(report.time_s > 0.0);
//! ```

pub(crate) mod arena;
pub mod buffer;
pub mod cache;
pub mod config;
pub mod counters;
pub mod engine;
pub mod profile;
pub mod trace;
pub mod warp;

pub use buffer::{DevCopy, DeviceBuffer};
pub use config::{presets, DeviceConfig};
pub use counters::{Counters, RunReport, TimeBreakdown};
pub use engine::{
    effective_workers, host_cores, override_host_cores, set_sim_threads, sim_threads, BlockCtx,
    ConcurrentGroup, Device, KernelFn,
};
pub use profile::{KernelMetrics, KernelRow, ProfileReport, Roofline, RowKind, Verdict};
pub use trace::{Span, SpanKind, TraceLedger};
pub use warp::{lane_mask, tree_reduce_sum, WarpCtx, FULL_MASK, WARP};
