//! # acsr-repro — umbrella crate
//!
//! Re-exports the whole workspace behind one dependency, so downstream
//! users (and this repository's `examples/` and `tests/`) can write
//! `use acsr_repro::...` and get the full system:
//!
//! * [`acsr`] — the paper's contribution (adaptive CSR SpMV);
//! * [`gpu_sim`] — the simulated SIMT substrate and Table II devices;
//! * [`sparse_formats`] — CSR/COO/ELL/HYB/BRC/BCCOO/TCOO/DIA;
//! * [`spmv_kernels`] — baseline kernels and auto-tuners;
//! * [`graphgen`] — Table I analog generators and update streams;
//! * [`spmv_pipeline`] — the analyze → plan → execute pipeline: format
//!   registry, adaptive selector, structure-keyed plan cache;
//! * [`graph_apps`] — PageRank / HITS / RWR, static and dynamic;
//! * [`multi_gpu`] — §VIII multi-device partitioning.
//!
//! See `examples/quickstart.rs` for the five-minute tour and DESIGN.md
//! for the system inventory and experiment index.

pub use acsr;
pub use gpu_sim;
pub use graph_apps;
pub use graphgen;
pub use multi_gpu;
pub use sparse_formats;
pub use spmv_kernels;
pub use spmv_pipeline;
