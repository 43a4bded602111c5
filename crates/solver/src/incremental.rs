//! The solve driver, and re-solving a mutated model warm.
//!
//! Every solve in the crate — [`Model::solve_with_stats`],
//! [`solve_lp_with_duals`](crate::solve_lp_with_duals),
//! [`IncrementalSolver`] — is one call of the
//! private `solve_from`: build the standard form once, solve the
//! relaxation from an optional starting basis, branch & bound on the
//! same instance when the caller asked for integers, and hand back the
//! basis the next solve should start from. The one-shot entry points
//! pass no basis and drop the one they get.
//!
//! [`IncrementalSolver`] owns a [`Model`] plus the basis of its last
//! successful LP (or MIP root-relaxation) solve. Between solves the model
//! may be mutated through [`model_mut`](IncrementalSolver::model_mut)
//! with the row-stable primitives of [`Model`] —
//! [`add_constraint`](Model::add_constraint),
//! [`deactivate_row`](Model::deactivate_row) /
//! [`activate_row`](Model::activate_row),
//! [`rewrite_row`](Model::rewrite_row),
//! [`change_rhs`](Model::change_rhs),
//! [`add_term`](Model::add_term),
//! [`set_var_bounds`](Model::set_var_bounds),
//! [`set_objective`](Model::set_objective) — and the next
//! [`solve`](IncrementalSolver::solve) starts the dual simplex from the
//! stored basis instead of a cold two-phase start.
//!
//! **Why the stored basis stays valid across every supported mutation.**
//! The simplex standard form has one logical and one artificial pair per
//! row, laid out `[0,n)` structural / `[n,n+m)` logical / `[n+m,n+3m)`
//! artificial. Deactivating a row rebuilds it as the empty row `0 = 0`
//! (its logical column sits happily at 0), re-arming or rewriting such
//! a row only adds entries to a row whose pivot is its own logical
//! column — expand the determinant along that unit column and the rest
//! of the basis matrix is untouched — changing an rhs or a bound
//! only moves data the dual simplex is designed to chase, a changed
//! objective leaves the point primal feasible for the phase-2 cleanup to
//! re-optimize, and appended rows get their own logical columns as basic
//! variables (`BasisState::extended`) — an identity sub-basis that keeps the
//! basis matrix nonsingular. In every case the basis matrix of the
//! mutated instance is structurally valid, merely (possibly) primal
//! infeasible, which is exactly the dual simplex's job to repair.
//! Rewriting a *live* row or appending a term to one changes entries of
//! the basis matrix itself, which the warm start may or may not survive.
//! A basis the machinery cannot repair (singular refactorization, dual
//! budget exhausted) silently degrades to a cold solve — never to a
//! wrong answer.
//!
//! Appended *variables* keep the basis too: a new structural column
//! starts nonbasic at its lower bound, so the basis matrix and the point
//! it encodes are untouched (`BasisState::with_structurals` re-targets
//! the snapshot at the widened layout) and the phase-2 primal cleanup
//! prices the new columns in. This is what makes the column-generation
//! loop's price→warm-re-solve iteration cheap: each round's
//! [`add_column`](IncrementalSolver::add_column)s re-solve from the
//! standing optimal basis instead of from scratch.

use std::sync::Arc;

use crate::branch_bound::branch_and_bound;
use crate::expr::Var;
use crate::model::{Model, RowId, Solution, SolveOptions, SolverStats, Status, VarKind};
use crate::simplex::{BasisState, Ctx, Instance, LpOutcome};

/// A model plus the basis of its last solve, re-solved warm after
/// mutations. See the module docs for the validity argument.
pub struct IncrementalSolver {
    model: Model,
    basis: Option<BasisState>,
    /// Columns added since the last solve; folded into the next reported
    /// [`SolverStats::columns_admitted`] so a pricing loop's per-round
    /// stats carry the admission count of the round they priced.
    pending_columns: u64,
}

impl IncrementalSolver {
    /// Wraps a model for incremental solving. The first
    /// [`solve`](IncrementalSolver::solve) is necessarily cold.
    pub fn new(model: Model) -> Self {
        IncrementalSolver {
            model,
            basis: None,
            pending_columns: 0,
        }
    }

    /// The wrapped model (read-only).
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Mutable access to the wrapped model: every mutation goes through
    /// here. Both row-shaped mutations and appended variables keep the
    /// stored basis (see the module docs); prefer
    /// [`add_column`](Self::add_column) for new variables so the
    /// admission is counted in the solve stats.
    pub fn model_mut(&mut self) -> &mut Model {
        &mut self.model
    }

    /// Adds a fresh variable that enters the given existing rows with the
    /// given coefficients — column generation over the standing model.
    /// Every row keeps its handle, index, group tag, and dual position,
    /// and the stored basis survives: the new column starts nonbasic at
    /// its lower bound, leaving the basis matrix and the point it encodes
    /// untouched, so the next solve warm-starts and the phase-2 primal
    /// cleanup prices the column in. On the no-basis path the next solve
    /// stays bit-identical to a cold `Model::solve_with_stats`.
    pub fn add_column(
        &mut self,
        name: impl Into<String>,
        kind: VarKind,
        lower: f64,
        upper: f64,
        entries: &[(RowId, f64)],
    ) -> Var {
        let v = self.model.add_var(name, kind, lower, upper);
        for &(row, coeff) in entries {
            self.model.add_term(row, v, coeff);
        }
        self.pending_columns += 1;
        v
    }

    /// Discards the stored basis; the next solve is cold. Useful when a
    /// caller knows the model drifted too far for the warm start to help.
    pub fn invalidate_basis(&mut self) {
        self.basis = None;
    }

    /// Whether a basis is stored (the next solve will attempt a warm
    /// start).
    pub fn has_basis(&self) -> bool {
        self.basis.is_some()
    }

    /// Solves the current model — warm from the stored basis when one
    /// fits, cold otherwise — and captures the resulting basis for the
    /// next call. MIPs warm-start their root relaxation and hand the
    /// refreshed root basis to branch & bound.
    pub fn solve(&mut self, opts: &SolveOptions) -> (Solution, SolverStats) {
        let (sol, _, stats) = self.run(self.model.is_mip().then_some(opts));
        (sol, stats)
    }

    /// Solves the LP *relaxation* of the current model (integer kinds
    /// dropped) warm off the stored basis and returns the constraint
    /// duals alongside the solution — the read a pricing oracle needs
    /// between column admissions. Duals are `None` unless the relaxation
    /// solved to optimality, and follow the sign convention of
    /// [`crate::solve_lp_with_duals`] (`∂objective/∂rhs` in the model's
    /// own sense; inactive rows get dual `0` via [`Model::group_duals`]).
    /// The refreshed basis is stored, so the MIP solve that follows a
    /// converged pricing loop warm-starts its root from this relaxation.
    pub fn solve_relaxation_with_duals(&mut self) -> (Solution, Option<Vec<f64>>, SolverStats) {
        self.run(None)
    }

    /// One [`solve_from`] off the stored basis; the basis it hands back
    /// (none after a failed solve) replaces the stored one.
    fn run(&mut self, mip: Option<&SolveOptions>) -> (Solution, Option<Vec<f64>>, SolverStats) {
        let mut out = if self.model.sense.is_none() {
            Solved::error(self.model.num_vars())
        } else {
            solve_from(&self.model, self.prepared_basis().as_ref(), mip)
        };
        out.stats.columns_admitted = std::mem::take(&mut self.pending_columns);
        self.basis = out.basis;
        (out.sol, out.duals, out.stats)
    }

    /// The stored basis re-targeted at the model's current shape —
    /// widened over appended structural columns, then extended over
    /// appended rows — or `None` when the model shrank (cannot happen
    /// through this API) and the snapshot no longer fits.
    fn prepared_basis(&self) -> Option<BasisState> {
        let bs = self.basis.as_ref()?;
        if bs.num_structurals() > self.model.num_vars()
            || bs.num_rows() > self.model.num_constraints()
        {
            return None;
        }
        Some(
            bs.with_structurals(self.model.num_vars())
                .extended(self.model.num_constraints()),
        )
    }
}

/// What one [`solve_from`] produced.
pub(crate) struct Solved {
    pub(crate) sol: Solution,
    /// Constraint duals; `Some` exactly when an LP (not a MIP) was solved
    /// to optimality.
    pub(crate) duals: Option<Vec<f64>>,
    /// An optimal basis of the model's relaxation for the next solve of
    /// (a mutation of) the model to start from; `None` when the
    /// relaxation has no optimum.
    pub(crate) basis: Option<BasisState>,
    pub(crate) stats: SolverStats,
}

impl Solved {
    /// A malformed model: [`Status::Error`], nothing to keep.
    pub(crate) fn error(num_vars: usize) -> Solved {
        Solved {
            sol: Solution::sentinel(Status::Error, num_vars),
            duals: None,
            basis: None,
            stats: SolverStats::default(),
        }
    }
}

/// The one solve driver every entry point of the crate goes through:
/// builds the standard form of `model` once, solves its relaxation from
/// `start` (a basis of exactly this shape; cold without one) and, when
/// `mip` carries options, hands the same [`Instance`] to branch & bound.
///
/// A MIP takes one of two straight lines. With a starting basis the
/// relaxation is refreshed first — which proves it still has an optimum
/// reachable from `start` and is the basis kept for the next solve — and
/// branch & bound's root node then re-solves it from the refreshed basis
/// on its own `Ctx`. The two LPs are deliberately not merged: the dive
/// below the root inherits the root node's factorization, so skipping
/// its (usually zero-pivot) re-solve would change the eta history under
/// every descendant and may move tie-broken optima. Without a starting
/// basis the root node *is* the cold relaxation solve and its basis is
/// the one kept.
pub(crate) fn solve_from(
    model: &Model,
    start: Option<&BasisState>,
    mip: Option<&SolveOptions>,
) -> Solved {
    let started = std::time::Instant::now();
    let mut out = Solved::error(model.num_vars());
    if model.check_data().is_err() {
        return out;
    }
    let inst = Arc::new(Instance::build(model));
    if let (Some(opts), None) = (mip, start) {
        (out.sol, out.basis) = branch_and_bound(model, inst, opts, None, &mut out.stats);
    } else {
        let mut ctx = Ctx::new(Arc::clone(&inst));
        let outcome = match start {
            Some(bs) => ctx.solve_warm(Some(bs)),
            None => ctx.solve_cold(),
        };
        out.stats = ctx.stats;
        if outcome == LpOutcome::Optimal {
            out.basis = Some(ctx.basis_state());
        }
        match mip {
            Some(opts) if outcome == LpOutcome::Optimal => {
                // Branch & bound factorizes on its own `Ctx`; release
                // this one's factors before the tree allocates another.
                drop(ctx);
                let root = out.basis.as_ref();
                out.sol = branch_and_bound(model, inst, opts, root, &mut out.stats).0;
            }
            // An LP — or a MIP whose relaxation is infeasible, unbounded
            // or errored, which is then the MIP's own outcome.
            _ => {
                out.sol = ctx.extract_solution(outcome);
                out.duals = (outcome == LpOutcome::Optimal).then(|| ctx.duals());
            }
        }
    }
    out.stats.time_total = started.elapsed();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::model::{Cmp, Sense};

    fn assert_same_solution(a: &Solution, b: &Solution) {
        assert_eq!(a.status, b.status);
        assert_eq!(
            a.objective.to_bits(),
            b.objective.to_bits(),
            "{} vs {}",
            a.objective,
            b.objective
        );
        assert_eq!(a.values, b.values);
    }

    /// A small LP with a unique optimum at every stage.
    fn lp() -> (Model, RowId, RowId) {
        let mut m = Model::new();
        let x = m.nonneg("x");
        let y = m.nonneg("y");
        let r0 = m.le(x + y, 4.0);
        let r1 = m.le(x + 3.0 * y, 6.0);
        m.set_objective(Sense::Maximize, 3.0 * x + 2.0 * y);
        (m, r0, r1)
    }

    #[test]
    fn warm_rhs_change_matches_scratch_lp() {
        let (m, r0, _) = lp();
        let mut inc = IncrementalSolver::new(m.clone());
        let (first, s1) = inc.solve(&SolveOptions::default());
        assert_eq!(first.status, Status::Optimal);
        assert_eq!(s1.cold_solves, 1);

        inc.model_mut().change_rhs(r0, 2.0);
        let (warm, s2) = inc.solve(&SolveOptions::default());
        assert!(s2.warm_solves > 0 && s2.cold_solves == 0, "{s2:?}");

        let mut scratch = m;
        scratch.change_rhs(r0, 2.0);
        assert_same_solution(&warm, &scratch.solve());
    }

    #[test]
    fn warm_added_row_matches_scratch_lp() {
        let (m, _, _) = lp();
        let mut inc = IncrementalSolver::new(m.clone());
        inc.solve(&SolveOptions::default());

        let x = Var(0);
        inc.model_mut().add_constraint(1.0 * x, Cmp::Le, 1.5);
        let (warm, s) = inc.solve(&SolveOptions::default());
        assert!(s.warm_solves > 0 && s.cold_solves == 0, "{s:?}");

        let mut scratch = m;
        scratch.le(1.0 * x, 1.5);
        assert_same_solution(&warm, &scratch.solve());
    }

    #[test]
    fn warm_deactivated_row_matches_scratch_lp() {
        // Deactivate the row whose slack is basic at the first optimum
        // (x=4, y=0 leaves x+3y ≤ 6 slack): the basis matrix keeps full
        // rank, so the re-solve stays warm. Swap the objective so the
        // deactivated row's absence actually moves the optimum.
        let (m, _, r1) = lp();
        let mut inc = IncrementalSolver::new(m.clone());
        inc.solve(&SolveOptions::default());

        let (x, y) = (Var(0), Var(1));
        inc.model_mut().deactivate_row(r1);
        inc.model_mut()
            .set_objective(Sense::Maximize, 1.0 * x + 4.0 * y);
        let (warm, s) = inc.solve(&SolveOptions::default());
        assert!(s.cold_solves == 0, "{s:?}");

        let mut scratch = m;
        scratch.deactivate_row(r1);
        scratch.set_objective(Sense::Maximize, 1.0 * x + 4.0 * y);
        assert_same_solution(&warm, &scratch.solve());

        // And back again.
        inc.model_mut().activate_row(r1);
        let (rearmed, _) = inc.solve(&SolveOptions::default());
        let mut orig = scratch;
        orig.activate_row(r1);
        assert_same_solution(&rearmed, &orig.solve());
    }

    #[test]
    fn rewritten_row_matches_scratch_lp_warm_and_cold() {
        // Borrow r1's slot for a different constraint. While it is
        // deactivated its logical column is basic, so rewriting it
        // leaves the stored basis nonsingular and the re-solve warm.
        let (m, _, r1) = lp();
        let (x, y) = (Var(0), Var(1));
        let mut scratch = Model::new();
        let sx = scratch.nonneg("x");
        let sy = scratch.nonneg("y");
        scratch.le(sx + sy, 4.0);
        scratch.le(2.0 * sx + sy, 6.0);
        scratch.set_objective(Sense::Maximize, 3.0 * sx + 2.0 * sy);
        let expected = scratch.solve();
        assert!((expected.objective - 10.0).abs() < 1e-9);

        let mut inc = IncrementalSolver::new(m.clone());
        inc.solve(&SolveOptions::default());
        inc.model_mut().deactivate_row(r1);
        inc.solve(&SolveOptions::default());
        inc.model_mut().rewrite_row(r1, 2.0 * x + y, 6.0);
        assert!(inc.model().row(r1).active, "rewriting re-arms the row");
        assert_eq!(inc.model().num_constraints(), 2, "no row was appended");
        let (warm, s) = inc.solve(&SolveOptions::default());
        assert!(s.warm_solves > 0 && s.cold_solves == 0, "{s:?}");
        assert_same_solution(&warm, &expected);

        // Rewriting a live row, with no basis to start from.
        let mut cold = IncrementalSolver::new(m);
        cold.model_mut().rewrite_row(r1, 2.0 * x + y, 6.0);
        let (sol, s) = cold.solve(&SolveOptions::default());
        assert!(s.cold_solves == 1 && s.warm_solves == 0, "{s:?}");
        assert_same_solution(&sol, &expected);
    }

    #[test]
    fn batched_row_bans_match_sequential_and_revert() {
        // Deactivate both rows as one batch (the multi-fiber ban), then
        // re-arm them as one batch: each stage must match a from-scratch
        // build with the same active set.
        let (m, r0, r1) = lp();
        let mut inc = IncrementalSolver::new(m.clone());
        inc.solve(&SolveOptions::default());

        // Minimize while both rows are down (maximizing over nonnegative
        // x, y with no rows left would be unbounded).
        let (x, y) = (Var(0), Var(1));
        for r in [r0, r1] {
            inc.model_mut().deactivate_row(r);
        }
        inc.model_mut()
            .set_objective(Sense::Minimize, 1.0 * x + 1.0 * y);
        let (banned, _) = inc.solve(&SolveOptions::default());
        let mut scratch = m.clone();
        scratch.deactivate_row(r0);
        scratch.deactivate_row(r1);
        scratch.set_objective(Sense::Minimize, 1.0 * x + 1.0 * y);
        assert_same_solution(&banned, &scratch.solve());

        for r in [r0, r1] {
            inc.model_mut().activate_row(r);
        }
        inc.model_mut()
            .set_objective(Sense::Maximize, 3.0 * x + 2.0 * y);
        let (rearmed, _) = inc.solve(&SolveOptions::default());
        assert_same_solution(&rearmed, &m.clone().solve());
    }

    #[test]
    fn deactivating_a_load_bearing_row_degrades_cold_but_stays_correct() {
        // Deactivating the binding row strips the basic structural
        // column's only support in that row: the stored basis goes
        // singular and solve_warm falls back to a cold solve. The answer
        // must still match a from-scratch build.
        let (m, r0, _) = lp();
        let mut inc = IncrementalSolver::new(m.clone());
        inc.solve(&SolveOptions::default());

        inc.model_mut().deactivate_row(r0);
        let (resolved, _) = inc.solve(&SolveOptions::default());
        let mut scratch = m;
        scratch.deactivate_row(r0);
        assert_same_solution(&resolved, &scratch.solve());
    }

    #[test]
    fn warm_objective_swap_matches_scratch_lp() {
        let (m, _, _) = lp();
        let mut inc = IncrementalSolver::new(m.clone());
        inc.solve(&SolveOptions::default());

        let (x, y) = (Var(0), Var(1));
        inc.model_mut()
            .set_objective(Sense::Minimize, 1.0 * x - 2.0 * y);
        let (warm, s) = inc.solve(&SolveOptions::default());
        assert!(s.cold_solves == 0, "{s:?}");

        let mut scratch = m;
        scratch.set_objective(Sense::Minimize, 1.0 * x - 2.0 * y);
        assert_same_solution(&warm, &scratch.solve());
    }

    #[test]
    fn warm_var_bound_change_matches_scratch_lp() {
        let (m, _, _) = lp();
        let mut inc = IncrementalSolver::new(m.clone());
        inc.solve(&SolveOptions::default());

        inc.model_mut().set_var_bounds(Var(0), 0.0, 1.0);
        let (warm, s) = inc.solve(&SolveOptions::default());
        assert!(s.warm_solves > 0 && s.cold_solves == 0, "{s:?}");

        let mut scratch = m;
        scratch.set_var_bounds(Var(0), 0.0, 1.0);
        assert_same_solution(&warm, &scratch.solve());
    }

    #[test]
    fn mutation_to_infeasible_and_back() {
        let (m, r0, _) = lp();
        let mut inc = IncrementalSolver::new(m);
        inc.solve(&SolveOptions::default());
        inc.model_mut().change_rhs(r0, -1.0); // x + y ≤ −1 with x,y ≥ 0: infeasible
        let (bad, _) = inc.solve(&SolveOptions::default());
        assert_eq!(bad.status, Status::Infeasible);
        assert!(
            !inc.has_basis(),
            "failed solve must not leave a stale basis"
        );
        inc.model_mut().change_rhs(r0, 4.0);
        let (good, _) = inc.solve(&SolveOptions::default());
        assert_eq!(good.status, Status::Optimal);
        assert!((good.objective - 12.0).abs() < 1e-9);
    }

    #[test]
    fn added_variable_keeps_basis_and_stays_correct() {
        // A variable appended through `model_mut` (not `add_column`)
        // widens the layout; the stored basis is re-targeted over it and
        // the re-solve stays warm.
        let (m, _, _) = lp();
        let mut inc = IncrementalSolver::new(m);
        inc.solve(&SolveOptions::default());
        let z = inc.model_mut().add_var("z", VarKind::Continuous, 0.0, 2.0);
        let (x, y) = (Var(0), Var(1));
        inc.model_mut()
            .set_objective(Sense::Maximize, 3.0 * x + 2.0 * y + z);
        let (sol, s) = inc.solve(&SolveOptions::default());
        assert_eq!(sol.status, Status::Optimal);
        assert!(s.cold_solves == 0, "appended var must stay warm, got {s:?}");
        assert!((sol.objective - 14.0).abs() < 1e-9);
    }

    #[test]
    fn added_column_matches_scratch_and_rewarms() {
        // Column generation: a new variable enters two existing rows. The
        // stored basis survives (the column starts nonbasic at lower) and
        // the warm phase-2 cleanup prices it in.
        let (m, r0, r1) = lp();
        let mut inc = IncrementalSolver::new(m.clone());
        inc.solve(&SolveOptions::default());

        let z = inc.add_column(
            "z",
            VarKind::Continuous,
            0.0,
            f64::INFINITY,
            &[(r0, 1.0), (r1, 1.0)],
        );
        let (x, y) = (Var(0), Var(1));
        inc.model_mut()
            .set_objective(Sense::Maximize, 3.0 * x + 2.0 * y + 4.0 * z);
        let (sol, s) = inc.solve(&SolveOptions::default());
        assert!(s.cold_solves == 0, "added column must stay warm, got {s:?}");
        assert_eq!(s.columns_admitted, 1, "{s:?}");

        let mut scratch = Model::new();
        let sx = scratch.nonneg("x");
        let sy = scratch.nonneg("y");
        let sz = scratch.nonneg("z");
        scratch.le(sx + sy + sz, 4.0);
        scratch.le(sx + 3.0 * sy + sz, 6.0);
        scratch.set_objective(Sense::Maximize, 3.0 * sx + 2.0 * sy + 4.0 * sz);
        assert_same_solution(&sol, &scratch.solve());

        // The refreshed basis covers the new layout: next solve is warm.
        inc.model_mut().change_rhs(r0, 3.0);
        let (warm, s2) = inc.solve(&SolveOptions::default());
        assert!(s2.warm_solves > 0 && s2.cold_solves == 0, "{s2:?}");
        scratch.change_rhs(RowId(0), 3.0);
        assert_same_solution(&warm, &scratch.solve());
    }

    #[test]
    fn appended_term_on_existing_var_matches_scratch() {
        // x enters r1 with an extra coefficient after the first solve; the
        // stored basis either survives (repaired) or degrades cold — the
        // answer must match a from-scratch build either way.
        let (m, _, r1) = lp();
        let mut inc = IncrementalSolver::new(m.clone());
        inc.solve(&SolveOptions::default());

        inc.model_mut().add_term(r1, Var(0), 1.0); // x + 3y ≤ 6 becomes 2x + 3y ≤ 6
        let (sol, _) = inc.solve(&SolveOptions::default());

        let mut scratch = Model::new();
        let sx = scratch.nonneg("x");
        let sy = scratch.nonneg("y");
        scratch.le(sx + sy, 4.0);
        scratch.le(2.0 * sx + 3.0 * sy, 6.0);
        scratch.set_objective(Sense::Maximize, 3.0 * sx + 2.0 * sy);
        assert_same_solution(&sol, &scratch.solve());
    }

    /// A six-item knapsack and its capacity row.
    fn knapsack() -> (Model, RowId) {
        let mut m = Model::new();
        let items: Vec<_> = (0..6).map(|i| m.binary(format!("x{i}"))).collect();
        let w = [10.0, 20.0, 30.0, 14.0, 7.0, 11.0];
        let v = [60.0, 100.0, 120.0, 70.0, 30.0, 40.0];
        let we = LinExpr::sum(items.iter().zip(&w).map(|(&x, &wi)| wi * x));
        let cap = m.le(we, 50.0);
        let ve = LinExpr::sum(items.iter().zip(&v).map(|(&x, &vi)| vi * x));
        m.set_objective(Sense::Maximize, ve);
        (m, cap)
    }

    /// MIP path: knapsack, then tighten the capacity and re-solve.
    #[test]
    fn warm_mip_matches_scratch() {
        let (m, cap) = knapsack();
        let mut inc = IncrementalSolver::new(m.clone());
        let (first, s0) = inc.solve(&SolveOptions::default());
        assert_same_solution(&first, &m.solve());
        assert_eq!(s0.cold_solves, 1, "the root node is the only cold LP");

        inc.model_mut().change_rhs(cap, 31.0);
        let (warm, s) = inc.solve(&SolveOptions::default());
        assert!(s.warm_solves > 0 && s.cold_solves == 0, "{s:?}");
        let mut scratch = m;
        scratch.change_rhs(cap, 31.0);
        let cold = scratch.solve();
        // The warm search may visit nodes in a different order and land on
        // a different *alternate* optimum, so values are compared by
        // optimality, not bit pattern: equal objective, both feasible.
        assert_eq!(warm.status, cold.status);
        assert_eq!(warm.objective.to_bits(), cold.objective.to_bits());
        assert!(scratch.is_feasible(&warm.values, 1e-6));
        assert!(scratch.is_feasible(&cold.values, 1e-6));
    }

    /// A fresh MIP solve keeps the basis its root node ended on: an
    /// unchanged re-solve starts from it, never goes cold, and lands on
    /// the same bits.
    #[test]
    fn fresh_mip_solve_stores_its_root_basis() {
        let (m, _) = knapsack();
        let mut inc = IncrementalSolver::new(m);
        let (first, _) = inc.solve(&SolveOptions::default());
        assert!(inc.has_basis());
        let (again, s) = inc.solve(&SolveOptions::default());
        assert!(s.warm_solves > 0 && s.cold_solves == 0, "{s:?}");
        assert_same_solution(&again, &first);
    }

    #[test]
    fn batch_columns_and_relaxation_duals_match_scratch() {
        // A pricing round: read duals off the warm relaxation, admit a
        // batch of columns, re-solve warm — duals and objective must
        // match the from-scratch `solve_lp_with_duals` at every step.
        let (m, r0, r1) = lp();
        let mut inc = IncrementalSolver::new(m.clone());
        let (sol0, duals0, s0) = inc.solve_relaxation_with_duals();
        assert_eq!(sol0.status, Status::Optimal);
        assert_eq!(s0.cold_solves, 1);
        let (scratch0, sd0) = crate::solve_lp_with_duals(&m);
        assert_same_solution(&sol0, &scratch0);
        assert_eq!(duals0.unwrap(), sd0.unwrap());

        let vars = [
            inc.add_column(
                "z",
                VarKind::Continuous,
                0.0,
                f64::INFINITY,
                &[(r0, 1.0), (r1, 1.0)],
            ),
            inc.add_column("w", VarKind::Continuous, 0.0, 1.0, &[(r1, 2.0)]),
        ];
        let (x, y) = (Var(0), Var(1));
        inc.model_mut().set_objective(
            Sense::Maximize,
            3.0 * x + 2.0 * y + 4.0 * vars[0] + 1.0 * vars[1],
        );
        let (sol1, duals1, s1) = inc.solve_relaxation_with_duals();
        assert!(
            s1.cold_solves == 0,
            "batch admission must stay warm: {s1:?}"
        );
        assert_eq!(s1.columns_admitted, 2, "{s1:?}");

        let mut scratch = Model::new();
        let sx = scratch.nonneg("x");
        let sy = scratch.nonneg("y");
        let sz = scratch.nonneg("z");
        let sw = scratch.add_var("w", VarKind::Continuous, 0.0, 1.0);
        scratch.le(sx + sy + sz, 4.0);
        scratch.le(sx + 3.0 * sy + sz + 2.0 * sw, 6.0);
        scratch.set_objective(Sense::Maximize, 3.0 * sx + 2.0 * sy + 4.0 * sz + 1.0 * sw);
        let (scratch1, sd1) = crate::solve_lp_with_duals(&scratch);
        assert_eq!(sol1.status, scratch1.status);
        assert_eq!(sol1.objective.to_bits(), scratch1.objective.to_bits());
        assert_eq!(duals1.unwrap(), sd1.unwrap());
    }

    #[test]
    fn malformed_mutation_fails_closed() {
        let (m, r0, _) = lp();
        let mut inc = IncrementalSolver::new(m);
        inc.solve(&SolveOptions::default());
        inc.model_mut().change_rhs(r0, f64::NAN);
        let (sol, _) = inc.solve(&SolveOptions::default());
        assert_eq!(sol.status, Status::Error);
    }
}
