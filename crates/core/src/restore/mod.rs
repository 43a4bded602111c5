//! Optical restoration (§8): maximize revived capacity after fiber cuts.
//!
//! * [`footprint`] — what any cut can take from a committed plan, built
//!   once per plan;
//! * [`heuristic`] — the scalable greedy restorer;
//! * [`mip`] — the exact constraints-(7)–(13) formulation for validation;
//! * [`report`] — restoration capability and path-stretch metrics
//!   (Figures 15–16).

pub mod footprint;
pub mod heuristic;
pub mod mip;
pub mod report;
pub mod spares;

// The cut-set vocabulary lives in `crate::scenario`.
pub use crate::scenario::{conduit_cut_scenarios, one_fiber_scenarios, FailureScenario};
pub use footprint::Footprint;
pub use heuristic::{
    flexwan_plus_extra_spares, restore, restore_cached, Restoration, RestoredWavelength,
};
pub use mip::{
    restoration_count_duals, solve_exact as solve_restoration_exact,
    solve_exact_colgen as solve_restoration_exact_colgen, ExactRestoration, RestorationColGen,
};
pub use report::{report as restore_report, RestoreReport};
pub use spares::{choose_spare_pool, SparePoolChoice};
