//! Experiment harness: one function per paper table/figure, shared by the
//! regeneration binaries (`src/bin/fig*.rs`) and the workspace integration
//! tests that assert the paper's claims hold in shape. Nothing here times
//! code: measuring is `benchmark/`'s job.
//!
//! Every experiment is deterministic: fixed topology seeds, fixed planner
//! configuration, no wall-clock or RNG ambient state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod availability;
pub mod experiments;
pub mod instances;
pub mod table;

pub use instances::{cernet_instance, continental_instance, parity_instance, tbackbone_instance};
