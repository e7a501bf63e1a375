//! # repro-bench — regenerates every table and figure of the paper
//!
//! Each module under [`experiments`] reproduces one table or figure of
//! Ashari et al., SC'14, on the simulated devices; the `repro` binary
//! exposes them as subcommands (`repro fig5 --scale 64`). Absolute
//! numbers come from the simulator's timing model — the *shapes* (who
//! wins, by what factor, where crossovers sit) are the reproduction
//! targets recorded in EXPERIMENTS.md.

pub mod artifact;
pub mod common;
pub mod diff;
pub mod experiments;
pub mod fleet;
pub mod metrics;
pub mod profile;
pub mod simbench;
pub mod slo;
pub mod stream;
pub mod tracing;

pub use common::{selected_specs, Options, Table};
