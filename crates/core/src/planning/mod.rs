//! Network planning (§5, Algorithm 1): provision WAN capacity at minimum
//! hardware cost.
//!
//! Two interchangeable solvers:
//! * [`mip`] — the paper's exact formulation on `flexwan-solver`, used on
//!   small instances to validate correctness;
//! * [`heuristic`] — the scalable two-phase decomposition ([`format_dp`]
//!   + [`spectrum`]) used on full evaluation topologies.
//!
//! The heuristic family (fresh, incremental and 1+1-protected plans, the
//! scale ladder, §8 restoration) is asked for through a [`PlanCtx`].

pub mod colgen;
pub mod ctx;
pub mod format_dp;
pub mod heuristic;
pub mod mip;
pub mod report;
pub mod shard;
pub mod spectrum;

pub use colgen::{canonical_objective, solve_exact_colgen, ColGenPlan, ColGenStats, PricingRound};
pub use ctx::PlanCtx;
pub use heuristic::{plan, plan_cached, ConfigError, LinkOrder, Plan, PlannerConfig};
pub use mip::{solve_exact, ExactPlan, MutatedRestoration, PlanModel};
pub use report::{cdf, mean, percent_saved, report, PlanReport};
pub use shard::{
    partition, solve_sharded, BoundaryDemand, Partition, ShardConfig, ShardSolve, ShardSolver,
    ShardStats, ShardedPlan,
};
pub use spectrum::SpectrumState;
