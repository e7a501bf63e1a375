//! # acsr — Adaptive CSR SpMV (the paper's contribution)
//!
//! ACSR (Ashari et al., SC'14) accelerates SpMV **without leaving the CSR
//! format**: a cheap scan groups rows into power-of-two *bins* by
//! non-zero count, bin-specific kernels give every row a thread group
//! matched to its length (removing the divergence of one-size-fits-all
//! CSR kernels), and the long power-law tail is handed to *dynamic
//! parallelism* — device-launched child grids sized to each huge row.
//! Because preprocessing is a single row-length scan (≈3 SpMVs of cost,
//! vs. 21x for HYB and 161,000x for auto-tuned BCCOO), ACSR is the only
//! contender that stays profitable when the matrix *changes* — the
//! dynamic-graph setting of §VII, supported here by a slack-padded CSR
//! whose update kernel applies delete/insert lists on the device.
//!
//! Crate layout (paper mapping):
//! * [`binning`] — Algorithm 1's row binning and the G1/G2 split
//!   (`BinMax`, `RowMax`);
//! * [`config`] — `BinMax` / `RowMax` / `ThreadLoad` knobs and per-device
//!   defaults;
//! * [`matrix`] — [`matrix::AcsrMatrix`], the device-resident CSR with
//!   per-row slack for incremental updates;
//! * [`kernels`] — Algorithm 2's bin-specific kernels plus the §VIII
//!   static long-tail variant;
//! * [`dynpar`] — Algorithms 3–4: the parent grid and row-specific child
//!   kernels;
//! * [`engine`] — [`engine::AcsrEngine`], the `GpuSpmv` driver tying it
//!   together. Every kernel is batched over k vectors, and a
//!   single-vector SpMV is the k = 1 case;
//! * [`update`] — the §VII device-side update kernel;
//! * [`phases`] — folds a [`gpu_sim::trace`] span stream into per-phase
//!   rollups (Table V's BS/RS view) for traced runs.
//!
//! ## Quickstart
//!
//! ```
//! use acsr::{AcsrConfig, AcsrEngine};
//! use gpu_sim::{presets, Device};
//! use graphgen::{generate_power_law, PowerLawConfig};
//! use spmv_kernels::GpuSpmv;
//!
//! let m: sparse_formats::CsrMatrix<f64> = generate_power_law(&PowerLawConfig {
//!     rows: 4096, cols: 4096, mean_degree: 8.0, max_degree: 1024,
//!     pinned_max_rows: 2, col_skew: 0.5, seed: 7,
//!     ..Default::default()
//! });
//! let dev = Device::new(presets::gtx_titan());
//! let engine = AcsrEngine::from_csr(&dev, &m, AcsrConfig::for_device(dev.config()));
//! let x = dev.alloc(vec![1.0f64; 4096]);
//! let mut y = dev.alloc_zeroed::<f64>(4096);
//! let report = engine.spmv(&dev, &x, &mut y);
//! println!("modeled SpMV: {:.1} us, {:.1} GFLOP/s",
//!          report.time_s * 1e6, report.gflops(2 * m.nnz() as u64));
//! ```

pub mod binning;
pub mod config;
pub mod dynpar;
pub mod engine;
pub mod kernels;
pub mod matrix;
pub mod phases;
pub mod update;

pub use binning::{BinStats, Binning, RowMove};
pub use config::{AcsrConfig, AcsrMode};
pub use engine::AcsrEngine;
pub use matrix::AcsrMatrix;
pub use phases::{Phase, PhaseBucket, PhaseRollup};
