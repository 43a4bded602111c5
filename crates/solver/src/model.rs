//! Optimization model: variables, linear constraints, objective.
//!
//! The stand-in for the Gurobi/JuMP modeling layer the paper uses (§7).
//! A [`Model`] with only continuous variables is solved by the two-phase
//! simplex ([`crate::simplex`]); models with integer or binary variables go
//! through branch & bound (the private `branch_bound` module).

use std::time::Duration;

use crate::expr::{LinExpr, Var};
use crate::incremental::{solve_from, Solved};

/// Variable domain kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// Real-valued within its bounds.
    Continuous,
    /// Integer-valued within its bounds.
    Integer,
    /// Integer in {0, 1}.
    Binary,
}

/// A variable definition.
#[derive(Debug, Clone)]
pub struct VarDef {
    /// Diagnostic name.
    pub name: String,
    /// Domain kind.
    pub kind: VarKind,
    /// Lower bound. Must be finite (the planning formulations are all
    /// bounded below); a non-finite value marks the model malformed and
    /// solving it yields [`Status::Error`] instead of a panic.
    pub lower: f64,
    /// Upper bound; `f64::INFINITY` for unbounded-above.
    pub upper: f64,
}

/// Constraint comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `expr ≤ rhs`
    Le,
    /// `expr ≥ rhs`
    Ge,
    /// `expr = rhs`
    Eq,
}

/// Stable handle to a constraint row, returned by
/// [`Model::add_constraint`] (and the `le`/`ge`/`eq` shorthands).
///
/// Row handles stay valid for the lifetime of the model: rows are never
/// removed, only [deactivated](Model::deactivate_row), so a `RowId` also
/// indexes the dual vector returned by the LP entry points — deactivated
/// rows keep their slot (with a zero dual) and row indices never shift.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub usize);

/// Handle to a named constraint group (see [`Model::group`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupId(pub usize);

/// A linear constraint `expr cmp rhs`.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Left-hand side (constant folded into `rhs` at solve time).
    pub expr: LinExpr,
    /// Comparison operator.
    pub cmp: Cmp,
    /// Right-hand side.
    pub rhs: f64,
    /// Group this row belongs to, if any.
    pub group: Option<GroupId>,
    /// Whether the row participates in solves. Inactive rows keep their
    /// index (so handles and dual positions stay stable) but impose no
    /// restriction.
    pub active: bool,
}

/// Objective sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Solver outcome status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// An optimal solution was found.
    Optimal,
    /// No feasible solution exists.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// Branch & bound hit its node limit before proving optimality; the
    /// incumbent (if any) is returned.
    NodeLimit,
    /// The model is malformed (NaN/infinite coefficients, empty variable
    /// domains declared at build time, missing objective) or the solver hit
    /// an internal safety limit. No meaningful solution exists; callers
    /// should treat this like an exception, not like infeasibility.
    Error,
}

/// A solution: status, objective value, and per-variable values.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Outcome status.
    pub status: Status,
    /// Objective value (meaningful for `Optimal` and `NodeLimit` with
    /// incumbent).
    pub objective: f64,
    /// Variable values indexed by [`Var`].
    pub values: Vec<f64>,
}

impl Solution {
    /// Value of `v` in the solution.
    pub fn value(&self, v: Var) -> f64 {
        self.values[v.0]
    }

    /// Value of `v` rounded to the nearest integer (for integer variables).
    pub fn int_value(&self, v: Var) -> i64 {
        self.values[v.0].round() as i64
    }

    /// A solution carrying a terminal `status` and no usable values.
    pub(crate) fn sentinel(status: Status, num_vars: usize) -> Solution {
        Solution {
            status,
            objective: f64::NAN,
            values: vec![f64::NAN; num_vars],
        }
    }
}

/// Counters and phase timings collected by the simplex / branch & bound
/// machinery during one solve. Returned by [`Model::solve_with_stats`] and
/// mirrored into a metrics registry by
/// [`record_solver_stats`](crate::record_solver_stats) so warm-start
/// effectiveness and pivot counts are observable, as the paper observes
/// Gurobi's node/iteration counts.
///
/// All counters are deterministic for a given model; the `time_*` fields
/// are wall-clock measurements and vary run to run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverStats {
    /// Primal simplex pivots spent in phase 1 (feasibility search).
    pub phase1_pivots: u64,
    /// Primal simplex pivots spent in phase 2 (optimality search).
    pub phase2_pivots: u64,
    /// Dual simplex pivots spent re-optimizing warm-started bases.
    pub dual_pivots: u64,
    /// Nonbasic bound flips (steps that moved a variable across its domain
    /// without a basis change).
    pub bound_flips: u64,
    /// Basis refactorizations (LU from scratch; between two of these the
    /// basis inverse is maintained as an eta file).
    pub refactorizations: u64,
    /// Stored non-zeros of the basis factors, summed over
    /// refactorizations: `nnz(L) + nnz(U) + m` each (`m` for the diagonal).
    /// Divided by `refactorizations` it is what one FTRAN / BTRAN walks; an
    /// all-slack basis scores `m`, a dense one `m²`.
    pub factor_nonzeros: u64,
    /// Stored entries of `A` that pricing visited: the length of every row
    /// walked because `ρ` (dual pricing) or `y` (primal pricing, the
    /// optimality check after a dual pass included) was non-zero there.
    /// Per pivot it is what a pricing call costs; walking every candidate
    /// column instead would score their total length at each call.
    pub priced_nonzeros: u64,
    /// LP solves started from scratch (two-phase primal).
    pub cold_solves: u64,
    /// LP solves warm-started from an inherited basis (dual simplex).
    pub warm_solves: u64,
    /// Branch & bound nodes explored (1 for a pure LP solve path).
    pub nodes: u64,
    /// Column-generation pricing rounds driven over this model (a round =
    /// one LP re-solve of the restricted master followed by one pricing
    /// pass over the column universe). Zero outside a pricing loop.
    pub pricing_rounds: u64,
    /// Columns admitted into the model by a pricing loop
    /// ([`IncrementalSolver::add_column`]) and priced by the solve that
    /// reports this stat.
    ///
    /// [`IncrementalSolver::add_column`]: crate::IncrementalSolver::add_column
    pub columns_admitted: u64,
    /// Wall time inside primal phase 1.
    pub time_phase1: Duration,
    /// Wall time inside primal phase 2.
    pub time_phase2: Duration,
    /// Wall time inside the dual simplex (warm starts).
    pub time_dual: Duration,
    /// Wall time of the whole solve.
    pub time_total: Duration,
}

impl SolverStats {
    /// Fraction of LP solves that reused an inherited basis instead of
    /// solving from scratch. `0.0` when no LP was solved.
    pub fn warm_start_hit_rate(&self) -> f64 {
        let total = self.warm_solves + self.cold_solves;
        if total == 0 {
            0.0
        } else {
            self.warm_solves as f64 / total as f64
        }
    }

    /// Total simplex pivots across all phases.
    pub fn total_pivots(&self) -> u64 {
        self.phase1_pivots + self.phase2_pivots + self.dual_pivots
    }

    /// Accumulates `other` into `self` (used when merging per-node or
    /// per-worker counters into a solve-wide total).
    pub fn merge(&mut self, other: &SolverStats) {
        self.phase1_pivots += other.phase1_pivots;
        self.phase2_pivots += other.phase2_pivots;
        self.dual_pivots += other.dual_pivots;
        self.bound_flips += other.bound_flips;
        self.refactorizations += other.refactorizations;
        self.factor_nonzeros += other.factor_nonzeros;
        self.priced_nonzeros += other.priced_nonzeros;
        self.cold_solves += other.cold_solves;
        self.warm_solves += other.warm_solves;
        self.nodes += other.nodes;
        self.pricing_rounds += other.pricing_rounds;
        self.columns_admitted += other.columns_admitted;
        self.time_phase1 += other.time_phase1;
        self.time_phase2 += other.time_phase2;
        self.time_dual += other.time_dual;
        self.time_total += other.time_total;
    }
}

impl std::fmt::Display for SolverStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "nodes {:>8}  warm {:>8}  cold {:>6}  hit-rate {:>5.1}%",
            self.nodes,
            self.warm_solves,
            self.cold_solves,
            100.0 * self.warm_start_hit_rate()
        )?;
        writeln!(
            f,
            "pivots: phase1 {:>8}  phase2 {:>8}  dual {:>8}  flips {:>6}  refactor {:>6}  factor-nnz {:>8}  priced-nnz {:>10}",
            self.phase1_pivots,
            self.phase2_pivots,
            self.dual_pivots,
            self.bound_flips,
            self.refactorizations,
            self.factor_nonzeros,
            self.priced_nonzeros
        )?;
        if self.pricing_rounds > 0 || self.columns_admitted > 0 {
            writeln!(
                f,
                "colgen: rounds {:>6}  columns admitted {:>8}",
                self.pricing_rounds, self.columns_admitted
            )?;
        }
        write!(
            f,
            "time:   phase1 {:>8.2?}  phase2 {:>8.2?}  dual {:>8.2?}  total {:>8.2?}",
            self.time_phase1, self.time_phase2, self.time_dual, self.time_total
        )
    }
}

/// Options controlling the solve.
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Maximum branch & bound nodes explored.
    pub max_nodes: usize,
    /// Ignored: branch & bound runs on the calling thread (the batch
    /// fan-out it once selected lost to its own spawn cost, DESIGN.md
    /// §3.4). The field survives only because `benchmark/` names it in two
    /// literals; it goes when that package stops.
    #[doc(hidden)]
    pub threads: usize,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            max_nodes: 200_000,
            threads: 0,
        }
    }
}

/// An optimization model under construction.
#[derive(Debug, Clone, Default)]
pub struct Model {
    pub(crate) vars: Vec<VarDef>,
    pub(crate) constraints: Vec<Constraint>,
    pub(crate) objective: LinExpr,
    pub(crate) sense: Option<Sense>,
    /// Problems recorded while building (bad bounds etc.); a non-empty
    /// list makes every solve return [`Status::Error`] instead of
    /// panicking mid-pivot on garbage data.
    pub(crate) malformed: Vec<String>,
    /// Interned group names plus the rows tagged into each group, in
    /// insertion order.
    pub(crate) groups: Vec<(String, Vec<RowId>)>,
    /// Group new constraints are tagged into (set by [`Model::group`]).
    pub(crate) current_group: Option<GroupId>,
    /// Debug-only duplicate-diagnostic-name detector: variable names are
    /// how infeasibilities and solver traces are read, so two variables
    /// sharing a name is almost always an enumeration bug upstream.
    #[cfg(debug_assertions)]
    pub(crate) seen_names: std::collections::HashSet<String>,
}

impl Model {
    /// An empty model.
    pub fn new() -> Self {
        Model::default()
    }

    /// Adds a variable with explicit kind and bounds.
    ///
    /// Bad bounds (non-finite lower, NaN upper, `lower > upper`) do not
    /// panic: they mark the model malformed, and solving it reports
    /// [`Status::Error`]. Malformed models routinely arise from NaN-tainted
    /// upstream computations, and a solver must fail closed on them.
    pub fn add_var(
        &mut self,
        name: impl Into<String>,
        kind: VarKind,
        lower: f64,
        upper: f64,
    ) -> Var {
        let v = Var(self.vars.len());
        let name = name.into();
        if !lower.is_finite() {
            self.malformed
                .push(format!("variable {name:?}: non-finite lower bound {lower}"));
        }
        if upper.is_nan() {
            self.malformed
                .push(format!("variable {name:?}: NaN upper bound"));
        }
        // `partial_cmp` is `None` for NaN bounds: those also count as an
        // empty domain here, in addition to the NaN records above.
        let ordered = matches!(
            lower.partial_cmp(&upper),
            Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
        );
        if !ordered {
            self.malformed.push(format!(
                "variable {name:?}: empty domain [{lower}, {upper}]"
            ));
        }
        let (lower, upper) = match kind {
            VarKind::Binary => (0.0, 1.0),
            _ => (lower, upper),
        };
        #[cfg(debug_assertions)]
        debug_assert!(
            self.seen_names.insert(name.clone()),
            "duplicate variable name {name:?}: diagnostic names must be unique"
        );
        self.vars.push(VarDef {
            name,
            kind,
            lower,
            upper,
        });
        v
    }

    /// Adds a continuous variable in `[lower, upper]`.
    pub fn continuous(&mut self, name: impl Into<String>, lower: f64, upper: f64) -> Var {
        self.add_var(name, VarKind::Continuous, lower, upper)
    }

    /// Adds a non-negative continuous variable.
    pub fn nonneg(&mut self, name: impl Into<String>) -> Var {
        self.add_var(name, VarKind::Continuous, 0.0, f64::INFINITY)
    }

    /// Adds an integer variable in `[lower, upper]`.
    pub fn integer(&mut self, name: impl Into<String>, lower: i64, upper: i64) -> Var {
        self.add_var(name, VarKind::Integer, lower as f64, upper as f64)
    }

    /// Adds a binary variable.
    pub fn binary(&mut self, name: impl Into<String>) -> Var {
        self.add_var(name, VarKind::Binary, 0.0, 1.0)
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints ever added (active plus deactivated).
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Number of constraints currently restricting the feasible set.
    pub fn num_active_constraints(&self) -> usize {
        self.constraints.iter().filter(|c| c.active).count()
    }

    /// Whether the model has any integer/binary variable.
    pub fn is_mip(&self) -> bool {
        self.vars.iter().any(|v| v.kind != VarKind::Continuous)
    }

    /// Adds the constraint `expr cmp rhs` and returns its stable handle.
    /// The row is tagged into the current [group](Model::group), if one is
    /// open.
    pub fn add_constraint(&mut self, expr: LinExpr, cmp: Cmp, rhs: f64) -> RowId {
        let e = self.row_expr(expr);
        let row = RowId(self.constraints.len());
        let group = self.current_group;
        if let Some(g) = group {
            self.groups[g.0].1.push(row);
        }
        self.constraints.push(Constraint {
            expr: e,
            cmp,
            rhs,
            group,
            active: true,
        });
        row
    }

    /// A left-hand side in stored form; panics on a variable the model
    /// does not have.
    fn row_expr(&self, expr: LinExpr) -> LinExpr {
        let e = expr.simplified();
        for (v, _) in &e.terms {
            assert!(
                v.0 < self.vars.len(),
                "constraint references unknown variable"
            );
        }
        e
    }

    /// Adds `expr ≤ rhs`.
    pub fn le(&mut self, expr: impl Into<LinExpr>, rhs: f64) -> RowId {
        self.add_constraint(expr.into(), Cmp::Le, rhs)
    }

    /// Adds `expr ≥ rhs`.
    pub fn ge(&mut self, expr: impl Into<LinExpr>, rhs: f64) -> RowId {
        self.add_constraint(expr.into(), Cmp::Ge, rhs)
    }

    /// Adds `expr = rhs`.
    pub fn eq(&mut self, expr: impl Into<LinExpr>, rhs: f64) -> RowId {
        self.add_constraint(expr.into(), Cmp::Eq, rhs)
    }

    /// Opens (creating or re-opening) the named constraint group:
    /// subsequent [`Model::add_constraint`] calls tag their rows into it
    /// until another `group` call or [`Model::end_group`]. Returns the
    /// group's handle.
    pub fn group(&mut self, name: impl Into<String>) -> GroupId {
        let name = name.into();
        let g = match self.groups.iter().position(|(n, _)| *n == name) {
            Some(i) => GroupId(i),
            None => {
                self.groups.push((name, Vec::new()));
                GroupId(self.groups.len() - 1)
            }
        };
        self.current_group = Some(g);
        g
    }

    /// Closes the current group: subsequent constraints are untagged.
    pub fn end_group(&mut self) {
        self.current_group = None;
    }

    /// Looks up a group handle by name.
    pub fn find_group(&self, name: &str) -> Option<GroupId> {
        self.groups.iter().position(|(n, _)| n == name).map(GroupId)
    }

    /// The rows tagged into `g`, in insertion order (including rows since
    /// deactivated).
    pub fn group_rows(&self, g: GroupId) -> &[RowId] {
        &self.groups[g.0].1
    }

    /// The constraint behind a row handle.
    pub fn row(&self, row: RowId) -> &Constraint {
        &self.constraints[row.0]
    }

    /// Replaces a row's right-hand side. A non-finite value marks the
    /// model malformed (solves then fail closed), mirroring
    /// [`Model::add_var`]'s treatment of bad bounds.
    pub fn change_rhs(&mut self, row: RowId, rhs: f64) {
        if !rhs.is_finite() {
            self.malformed
                .push(format!("constraint {}: rhs changed to {rhs}", row.0));
        }
        self.constraints[row.0].rhs = rhs;
    }

    /// Appends `coeff · v` to an existing row's left-hand side — the
    /// column half of the mutation vocabulary: a variable created after
    /// the row was built can enter it without rebuilding the model. The
    /// row keeps its handle, index, group tag, and dual position. A
    /// non-finite coefficient marks the model malformed (solves then
    /// fail closed), mirroring [`Model::change_rhs`].
    pub fn add_term(&mut self, row: RowId, v: Var, coeff: f64) {
        assert!(
            v.0 < self.vars.len(),
            "row term references unknown variable"
        );
        if !coeff.is_finite() {
            self.malformed.push(format!(
                "constraint {}: appended coefficient of {:?} is {coeff}",
                row.0, self.vars[v.0].name
            ));
        }
        let expr = &mut self.constraints[row.0].expr;
        expr.add_term(v, coeff);
        *expr = expr.simplified();
    }

    /// Replaces a row's left-hand side and right-hand side in place and
    /// re-arms it — the third row-stable mutation next to
    /// [`change_rhs`](Model::change_rhs) and
    /// [`deactivate_row`](Model::deactivate_row): a caller that needs "a
    /// row like this one" again and again (the §8 restoration caps, one
    /// pair per failed link per failure) borrows one slot instead of
    /// appending a row per use. The row keeps its handle, index,
    /// comparison, group tag and dual position. Non-finite data fails
    /// closed at solve time like [`add_constraint`](Model::add_constraint)'s.
    pub fn rewrite_row(&mut self, row: RowId, expr: impl Into<LinExpr>, rhs: f64) {
        let e = self.row_expr(expr.into());
        let c = &mut self.constraints[row.0];
        c.expr = e;
        c.rhs = rhs;
        c.active = true;
    }

    /// Removes a row from the feasible-set definition without removing
    /// its slot: handles, row indices, and dual positions all stay valid,
    /// which is what lets a warm-started basis survive the mutation.
    pub fn deactivate_row(&mut self, row: RowId) {
        self.constraints[row.0].active = false;
    }

    /// Re-arms a row previously deactivated.
    pub fn activate_row(&mut self, row: RowId) {
        self.constraints[row.0].active = true;
    }

    /// Replaces a variable's bounds (binary variables stay clamped to
    /// `{0,1}` domains by their kind at solve time; this still records
    /// malformed bounds like [`Model::add_var`]).
    pub fn set_var_bounds(&mut self, v: Var, lower: f64, upper: f64) {
        let name = &self.vars[v.0].name;
        if !lower.is_finite() {
            self.malformed
                .push(format!("variable {name:?}: non-finite lower bound {lower}"));
        }
        if upper.is_nan() {
            self.malformed
                .push(format!("variable {name:?}: NaN upper bound"));
        }
        if !matches!(
            lower.partial_cmp(&upper),
            Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
        ) {
            self.malformed.push(format!(
                "variable {name:?}: empty domain [{lower}, {upper}]"
            ));
        }
        self.vars[v.0].lower = lower;
        self.vars[v.0].upper = upper;
    }

    /// Slack of a row under `values`: distance to the binding direction
    /// (`rhs − lhs` for `≤` and `=`, `lhs − rhs` for `≥`); non-negative
    /// iff the inequality row is satisfied.
    pub fn row_slack(&self, row: RowId, values: &[f64]) -> f64 {
        let c = &self.constraints[row.0];
        let lhs = c.expr.eval(values);
        match c.cmp {
            Cmp::Le | Cmp::Eq => c.rhs - lhs,
            Cmp::Ge => lhs - c.rhs,
        }
    }

    /// Extracts the dual values of a group's rows from a full dual vector
    /// (as returned by [`crate::solve_lp_with_duals`]), pairing each with
    /// its handle. Inactive rows report a zero dual.
    pub fn group_duals(&self, g: GroupId, duals: &[f64]) -> Vec<(RowId, f64)> {
        self.groups[g.0]
            .1
            .iter()
            .map(|&r| {
                (
                    r,
                    if self.constraints[r.0].active {
                        duals[r.0]
                    } else {
                        0.0
                    },
                )
            })
            .collect()
    }

    /// Sets the objective.
    pub fn set_objective(&mut self, sense: Sense, expr: impl Into<LinExpr>) {
        self.sense = Some(sense);
        self.objective = expr.into().simplified();
    }

    /// Checks the model for data that would poison the solver: non-finite
    /// bounds recorded at build time, NaN/infinite coefficients or
    /// right-hand sides, and a missing objective sense. Returns the first
    /// problem found. Called by every solve entry point so malformed
    /// models yield [`Status::Error`] rather than panics or garbage pivots.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(first) = self.malformed.first() {
            return Err(first.clone());
        }
        if self.sense.is_none() {
            return Err("objective sense not set".into());
        }
        self.check_data()
    }

    /// Data-only validation: everything [`Model::validate`] checks except
    /// the objective sense (the simplex entry points default a missing
    /// sense to minimization, so raw LP solves stay permissive).
    pub(crate) fn check_data(&self) -> Result<(), String> {
        if let Some(first) = self.malformed.first() {
            return Err(first.clone());
        }
        if !self.objective.constant.is_finite() {
            return Err(format!("objective constant is {}", self.objective.constant));
        }
        for &(v, c) in &self.objective.terms {
            if !c.is_finite() {
                return Err(format!(
                    "objective coefficient of {:?} is {c}",
                    self.vars[v.0].name
                ));
            }
        }
        for (i, con) in self.constraints.iter().enumerate() {
            if !con.rhs.is_finite() {
                return Err(format!("constraint {i}: rhs is {}", con.rhs));
            }
            if !con.expr.constant.is_finite() {
                return Err(format!("constraint {i}: constant is {}", con.expr.constant));
            }
            for &(v, c) in &con.expr.terms {
                if !c.is_finite() {
                    return Err(format!(
                        "constraint {i}: coefficient of {:?} is {c}",
                        self.vars[v.0].name
                    ));
                }
            }
        }
        Ok(())
    }

    /// Solves with default options.
    pub fn solve(&self) -> Solution {
        self.solve_with_stats(&SolveOptions::default()).0
    }

    /// Solves with explicit options — simplex for pure LPs, branch & bound
    /// when integer variables are present — and returns the
    /// [`SolverStats`] counter block (pivots, refactorizations, nodes,
    /// warm-start hit rate, per-phase wall time) with the solution.
    pub fn solve_with_stats(&self, opts: &SolveOptions) -> (Solution, SolverStats) {
        let out = if self.sense.is_none() {
            Solved::error(self.num_vars())
        } else {
            solve_from(self, None, self.is_mip().then_some(opts))
        };
        (out.sol, out.stats)
    }

    /// Checks whether `values` satisfies every constraint and bound within
    /// `tol` — used by tests and by callers validating heuristics against
    /// the exact model.
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        if values.len() != self.vars.len() {
            return false;
        }
        for (i, vd) in self.vars.iter().enumerate() {
            let v = values[i];
            if v < vd.lower - tol || v > vd.upper + tol {
                return false;
            }
            if vd.kind != VarKind::Continuous && (v - v.round()).abs() > tol {
                return false;
            }
        }
        self.constraints.iter().filter(|c| c.active).all(|c| {
            let lhs = c.expr.eval(values);
            match c.cmp {
                Cmp::Le => lhs <= c.rhs + tol,
                Cmp::Ge => lhs >= c.rhs - tol,
                Cmp::Eq => (lhs - c.rhs).abs() <= tol,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_accounting() {
        let mut m = Model::new();
        let x = m.nonneg("x");
        let y = m.integer("y", 0, 10);
        m.le(x + y, 5.0);
        m.set_objective(Sense::Maximize, x + y);
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.num_constraints(), 1);
        assert!(m.is_mip());
    }

    #[test]
    fn feasibility_checker() {
        let mut m = Model::new();
        let x = m.nonneg("x");
        let y = m.integer("y", 0, 10);
        m.le(x + 2.0 * y, 8.0);
        m.set_objective(Sense::Maximize, x + y);
        assert!(m.is_feasible(&[2.0, 3.0], 1e-9));
        assert!(!m.is_feasible(&[3.0, 3.0], 1e-9)); // violates constraint
        assert!(!m.is_feasible(&[2.0, 2.5], 1e-9)); // fractional integer
        assert!(!m.is_feasible(&[-1.0, 0.0], 1e-9)); // bound
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn rejects_foreign_vars() {
        let mut m = Model::new();
        let _x = m.nonneg("x");
        m.le(LinExpr::term(Var(5), 1.0), 1.0);
    }

    #[test]
    fn binary_bounds_forced() {
        let mut m = Model::new();
        let b = m.add_var("b", VarKind::Binary, -5.0, 5.0);
        assert_eq!(m.vars[b.0].lower, 0.0);
        assert_eq!(m.vars[b.0].upper, 1.0);
    }

    // --- malformed models must fail closed (Status::Error), never panic ---

    #[test]
    fn nan_lower_bound_is_error_not_panic() {
        let mut m = Model::new();
        let x = m.continuous("x", f64::NAN, 5.0);
        m.le(1.0 * x, 3.0);
        m.set_objective(Sense::Minimize, 1.0 * x);
        let s = m.solve();
        assert_eq!(s.status, Status::Error);
        assert!(s.objective.is_nan());
    }

    #[test]
    fn infinite_lower_bound_is_error_not_panic() {
        let mut m = Model::new();
        let x = m.continuous("x", f64::NEG_INFINITY, 5.0);
        m.set_objective(Sense::Minimize, 1.0 * x);
        assert_eq!(m.solve().status, Status::Error);
    }

    #[test]
    fn empty_variable_domain_is_error_not_panic() {
        let mut m = Model::new();
        let x = m.continuous("x", 3.0, 1.0);
        m.set_objective(Sense::Maximize, 1.0 * x);
        assert_eq!(m.solve().status, Status::Error);
    }

    #[test]
    fn nan_coefficient_is_error_not_panic() {
        let mut m = Model::new();
        let x = m.nonneg("x");
        m.le(f64::NAN * x, 1.0);
        m.set_objective(Sense::Maximize, 1.0 * x);
        assert_eq!(m.solve().status, Status::Error);
    }

    #[test]
    fn nan_rhs_is_error_not_panic() {
        let mut m = Model::new();
        let x = m.nonneg("x");
        m.le(1.0 * x, f64::NAN);
        m.set_objective(Sense::Maximize, 1.0 * x);
        assert_eq!(m.solve().status, Status::Error);
    }

    #[test]
    fn missing_objective_is_error_not_panic() {
        let mut m = Model::new();
        let x = m.nonneg("x");
        m.le(1.0 * x, 1.0);
        assert_eq!(m.solve().status, Status::Error);
    }

    #[test]
    fn malformed_mip_is_error_not_panic() {
        let mut m = Model::new();
        let x = m.integer("x", 0, 10);
        let y = m.continuous("y", f64::NAN, 1.0);
        m.le(x + y, 5.0);
        m.set_objective(Sense::Maximize, x + y);
        assert_eq!(m.solve().status, Status::Error);
    }

    #[test]
    fn validate_reports_first_problem() {
        let mut m = Model::new();
        let _ = m.continuous("bad", f64::NAN, 1.0);
        let err = m.validate().unwrap_err();
        assert!(err.contains("bad"), "unhelpful error: {err}");
    }

    // --- constraint groups, row handles, and mutation primitives ---

    #[test]
    fn groups_collect_rows_in_order() {
        let mut m = Model::new();
        let x = m.nonneg("x");
        let y = m.nonneg("y");
        let cap = m.group("capacity");
        let r0 = m.le(x + y, 5.0);
        let r1 = m.le(2.0 * x, 4.0);
        m.end_group();
        let r2 = m.ge(1.0 * y, 1.0); // untagged
        m.group("capacity"); // re-open
        let r3 = m.le(3.0 * y, 9.0);
        assert_eq!(m.find_group("capacity"), Some(cap));
        assert_eq!(m.group_rows(cap), &[r0, r1, r3]);
        assert_eq!(m.row(r2).group, None);
        assert_eq!(m.row(r0).group, Some(cap));
        assert_eq!((r0, r1, r2, r3), (RowId(0), RowId(1), RowId(2), RowId(3)));
    }

    #[test]
    fn deactivated_rows_keep_indices_but_stop_binding() {
        let mut m = Model::new();
        let x = m.nonneg("x");
        let tight = m.le(1.0 * x, 1.0);
        m.le(1.0 * x, 10.0);
        m.set_objective(Sense::Maximize, 1.0 * x);
        assert!((m.solve().objective - 1.0).abs() < 1e-9);
        m.deactivate_row(tight);
        assert_eq!(m.num_constraints(), 2);
        assert_eq!(m.num_active_constraints(), 1);
        assert!((m.solve().objective - 10.0).abs() < 1e-9);
        assert!(
            m.is_feasible(&[10.0], 1e-9),
            "inactive row must not bind feasibility"
        );
        m.activate_row(tight);
        assert!((m.solve().objective - 1.0).abs() < 1e-9);
    }

    #[test]
    fn change_rhs_moves_the_optimum() {
        let mut m = Model::new();
        let x = m.nonneg("x");
        let r = m.le(1.0 * x, 3.0);
        m.set_objective(Sense::Maximize, 1.0 * x);
        assert!((m.solve().objective - 3.0).abs() < 1e-9);
        m.change_rhs(r, 7.0);
        assert!((m.solve().objective - 7.0).abs() < 1e-9);
        m.change_rhs(r, f64::NAN);
        assert_eq!(m.solve().status, Status::Error);
    }

    #[test]
    fn set_var_bounds_validates_like_add_var() {
        let mut m = Model::new();
        let x = m.nonneg("x");
        m.le(1.0 * x, 100.0);
        m.set_objective(Sense::Maximize, 1.0 * x);
        m.set_var_bounds(x, 0.0, 2.0);
        assert!((m.solve().objective - 2.0).abs() < 1e-9);
        m.set_var_bounds(x, 5.0, 2.0); // empty domain → malformed
        assert_eq!(m.solve().status, Status::Error);
    }

    #[test]
    fn add_term_extends_row_in_place() {
        let mut m = Model::new();
        let x = m.nonneg("x");
        let r = m.le(1.0 * x, 6.0);
        m.set_objective(Sense::Maximize, 1.0 * x);
        assert!((m.solve().objective - 6.0).abs() < 1e-9);
        let y = m.nonneg("y");
        m.add_term(r, y, 2.0); // x + 2y ≤ 6
        m.set_objective(Sense::Maximize, x + 5.0 * y);
        assert!((m.solve().objective - 15.0).abs() < 1e-9);
        // Merging onto an existing variable folds coefficients.
        m.add_term(r, x, 1.0); // 2x + 2y ≤ 6
        assert_eq!(m.row(r).expr.terms.len(), 2);
        m.add_term(r, x, f64::NAN);
        assert_eq!(m.solve().status, Status::Error);
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn add_term_rejects_foreign_vars() {
        let mut m = Model::new();
        let x = m.nonneg("x");
        let r = m.le(1.0 * x, 1.0);
        m.add_term(r, Var(7), 1.0);
    }

    #[test]
    fn activity_slack_and_group_duals() {
        let mut m = Model::new();
        let x = m.nonneg("x");
        let y = m.nonneg("y");
        let g = m.group("cap");
        let r0 = m.le(x + y, 4.0);
        let r1 = m.ge(1.0 * x, 1.0);
        m.end_group();
        let vals = [1.0, 2.0];
        assert!((m.row_slack(r0, &vals) - 1.0).abs() < 1e-12);
        assert!((m.row_slack(r1, &vals) - 0.0).abs() < 1e-12);
        m.deactivate_row(r1);
        let duals = [0.25, 9.0];
        assert_eq!(m.group_duals(g, &duals), vec![(r0, 0.25), (r1, 0.0)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicate variable name")]
    fn duplicate_names_panic_in_debug() {
        let mut m = Model::new();
        m.nonneg("x");
        m.nonneg("x");
    }
}
