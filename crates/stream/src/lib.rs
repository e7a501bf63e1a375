//! # acsr-stream — incremental ACSR maintenance for streaming graphs
//!
//! The paper's §VII dynamic-graph story stops at "re-binning is cheap
//! enough to redo per update". This crate pushes that one step further
//! into a *streaming* regime: a live, device-resident ACSR matrix absorbs
//! a sustained stream of batched edge inserts/deletes without ever being
//! rebuilt from scratch.
//!
//! * [`layout`] — the canonical bin-arena layout: a pure function of the
//!   logical matrix, so maintained state can be compared bit-for-bit
//!   against a from-scratch build;
//! * [`kernels`] — plan/merge/copy device kernels (one warp per row,
//!   lane-0 merges exactly like the paper's update kernel);
//! * [`engine`] — [`StreamEngine`]: per-batch plan → incremental re-bin →
//!   in-place merge / staged relocation → metadata patch;
//! * [`churn`] — the [`acsr_serve`] adapter that interleaves maintenance
//!   with query waves on the virtual clock.
//!
//! The [`BatchReport`] each batch returns is the one record of its
//! maintenance work — who paid (slack consumption vs. migration vs.
//! capacity shifts vs. geometric buffer growth) and how many element
//! bytes moved. `repro stream` sums those reports; the engine keeps no
//! second account beside them.
//!
//! The correctness bar, enforced by this crate's tests: after every
//! batch, metadata, live elements, binning, and each subsequent SpMV's
//! values/counters/modeled timing are **bit-identical** to a fresh
//! [`StreamEngine::build`] of the same logical matrix — at every
//! `ACSR_SIM_THREADS` width.

pub mod churn;
pub mod engine;
pub mod kernels;
pub mod layout;

pub use churn::ChurnedStream;
pub use engine::{BatchReport, StreamEngine};
pub use layout::{arena_slots, assign_slots, slot_width, SlotLayout};
