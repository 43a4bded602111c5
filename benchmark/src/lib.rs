//! The repo benchmark: four operator-path workloads, end-to-end metrics
//! with regression bounds, per-layer metrics and a traced run.
//!
//! Everything is measured **from outside**: the harness times calls into
//! the public functions of `crates/{topo,core,solver,ctrl,util}` and
//! reads the counter structs those functions already return. Nothing in
//! the program under test is instrumented for it. See `README.md`.

// One exception, allowed where it stands: the affinity call in `sys`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod compare;
pub mod harness;
pub mod inputs;
pub mod metrics;
pub mod report;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod verify;
pub mod workload;
