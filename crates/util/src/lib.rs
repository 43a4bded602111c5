//! Dependency-free utility substrate for the FlexWAN reproduction.
//!
//! The build environment is fully offline, so everything the workspace
//! used to pull from crates.io is implemented here from `std` alone:
//!
//! * [`rng`] — a deterministic ChaCha-based PRNG (seeded, reproducible
//!   across platforms) replacing `rand`/`rand_chacha`;
//! * [`mod@json`] — a small JSON value model, parser and writer with
//!   [`json::ToJson`]/[`json::FromJson`] traits replacing
//!   `serde`/`serde_json`;
//! * [`pool`] — a scoped worker pool with deterministic `par_map`
//!   (fixed chunking, input-order results, thread-count-invariant
//!   output) for the evaluation sweeps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod pool;
pub mod rng;
