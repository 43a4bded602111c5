//! Linear and mixed-integer optimization for the FlexWAN reproduction.
//!
//! The paper solves its network-planning and restoration formulations with
//! Gurobi via Julia (§7). Gurobi is proprietary and unavailable offline, so
//! this crate provides a from-scratch replacement with the same modeling
//! surface:
//!
//! * [`expr`] — linear expressions over decision variables with natural
//!   operator syntax;
//! * [`model`] — a [`Model`] of variables (continuous,
//!   integer, binary), linear constraints and a min/max objective;
//! * [`simplex`] — a sparse revised two-phase simplex (bounded
//!   variables, dual-simplex warm starts), with a Dantzig→Bland pricing
//!   switch for guaranteed termination;
//! * `factor` — its basis inverse: sparse LU factors built left-looking
//!   with partial pivoting, plus the eta file of product-form updates
//!   between two refactorizations;
//! * `branch_bound` — best-first branch & bound for MIPs on top of the
//!   LP relaxation, with basis-inheriting warm starts and diving, on
//!   the calling thread (reached through [`Model::solve_with_stats`]);
//! * [`incremental`] — the one solve driver every entry point goes
//!   through (standard form built once, relaxation solved from an
//!   optional starting basis, then branch & bound) and the
//!   [`IncrementalSolver`] that keeps that basis between solves of a
//!   mutated model (rhs changes, row de/activation, rewritten and
//!   appended rows and columns);
//! * [`observe`] — bridge mirroring [`SolverStats`]
//!   into the `flexwan-obs` metrics registry.
//!
//! The solver is *exact*: it is used to validate the scalable planning
//! heuristics on small instances (see `flexwan-core`), exactly as the
//! paper validates against its MIP optimum.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch_bound;
pub mod expr;
mod factor;
pub mod incremental;
pub mod model;
pub mod observe;
pub mod simplex;

pub use expr::{LinExpr, Var};
pub use incremental::IncrementalSolver;
pub use model::{
    Cmp, GroupId, Model, RowId, Sense, Solution, SolveOptions, SolverStats, Status, VarKind,
};
pub use observe::record_solver_stats;
pub use simplex::solve_lp_with_duals;
