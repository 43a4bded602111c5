//! Sparse revised simplex with native bounded variables.
//!
//! The constraint matrix is held column-wise as sparse `(row, coeff)`
//! lists, and once more row-wise for pricing, which walks only the rows
//! where `ρ` / `y` is non-zero; the basis inverse is the sparse LU
//! factors and *eta file* (product-form update) of `crate::factor`,
//! refactorized every `MAX_ETAS` pivots. A pivot therefore costs the
//! non-zeros of the factors and of those rows instead of the dense
//! tableau's `O(m·cols)` sweep, and — crucially for branch & bound — a
//! solved basis can be snapshotted (`BasisState`) and re-installed in a
//! child node, where a **dual simplex** pass repairs the handful of bound
//! violations the branching introduced instead of re-solving from scratch.
//!
//! Variables keep their native `[lo, up]` bounds (the *bounded-variable*
//! technique: nonbasic columns rest at either bound, entering steps may
//! terminate in a bound flip instead of a pivot). This matters enormously
//! for the branch & bound layer: every binary variable would otherwise add
//! a row, and the paper's Algorithm 1 instances are binary-heavy.
//!
//! Dantzig pricing with an automatic switch to Bland's rule after an
//! iteration budget guarantees termination on degenerate problems; a hard
//! iteration cap degrades to [`Status::Error`] instead of panicking.

use crate::factor::{Cols, EtaFile, Lu};
use crate::incremental::solve_from;
use crate::model::{Cmp, Model, Sense, Solution, SolverStats, Status};
use std::sync::Arc;
use std::time::Instant;

pub(crate) const EPS: f64 = 1e-9;
/// Reduced-cost / pivot-eligibility tolerance.
const PRICE_TOL: f64 = 1e-7;
/// Primal feasibility tolerance used by the dual simplex.
const FEAS_TOL: f64 = 1e-7;
/// Eta-file length that triggers a refactorization.
const MAX_ETAS: usize = 48;
/// Phase-1 objective above this ⇒ infeasible.
const PHASE1_TOL: f64 = 1e-6;

/// Solves a pure LP and additionally returns the dual value (shadow
/// price) of every constraint: `∂objective/∂rhs` at the optimum, in the
/// model's own sense. A maximization's binding `≤` capacity row gets a
/// non-negative dual (the marginal value of one more unit of rhs); by the
/// same rule a *minimization* with a binding `≥` requirement row also gets
/// a non-negative dual (one more unit of requirement costs that much).
/// `None` when the LP is not solved to optimality.
pub fn solve_lp_with_duals(model: &Model) -> (Solution, Option<Vec<f64>>) {
    let out = solve_from(model, None, None);
    (out.sol, out.duals)
}

/// Where a nonbasic variable currently rests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VStat {
    /// Resting at its lower bound.
    Lower,
    /// Resting at its upper bound.
    Upper,
    /// In the basis.
    Basic,
}

/// LP solve outcome, pre-`Solution` (the B&B layer works with this
/// directly to avoid allocating value vectors for pruned nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LpOutcome {
    /// Optimal basis reached.
    Optimal,
    /// Primal infeasible.
    Infeasible,
    /// Objective unbounded.
    Unbounded,
    /// Internal safety limit hit (iteration cap, singular refactorization
    /// loop) — treated like an exception, not like infeasibility.
    Error,
}

/// Snapshot of a solved basis, cheap to clone and hand to a child node.
#[derive(Debug, Clone)]
pub(crate) struct BasisState {
    basis: Vec<u32>,
    vstat: Vec<VStat>,
}

impl BasisState {
    /// Rows of the instance the snapshot was taken on.
    pub(crate) fn num_rows(&self) -> usize {
        self.basis.len()
    }

    /// Structural columns of the instance the snapshot was taken on
    /// (recovered from the `n + 3m` column layout).
    pub(crate) fn num_structurals(&self) -> usize {
        self.vstat.len() - 3 * self.basis.len()
    }

    /// Re-targets the snapshot at an instance that appended
    /// `new_m − old_m` rows after this basis was captured (same `n`).
    ///
    /// The column layout is `[0, n)` structural, `[n, n+m)` logical,
    /// `[n+m, n+3m)` artificial, so appending rows shifts every artificial
    /// column up by `new_m − old_m` while structural and existing logical
    /// columns keep their indices. Each appended row gets its own logical
    /// column as its basic variable — the identity sub-basis — so the
    /// extended matrix stays nonsingular whenever the original was, and
    /// the dual simplex of [`Ctx::solve_warm`] repairs whatever primal
    /// violation the new rows introduce.
    pub(crate) fn extended(&self, new_m: usize) -> BasisState {
        let old_m = self.num_rows();
        debug_assert!(new_m >= old_m, "rows are never removed, only deactivated");
        if new_m == old_m {
            return self.clone();
        }
        let n = self.num_structurals();
        let shift = new_m - old_m;
        let remap = |j: usize| if j < n + old_m { j } else { j + shift };
        let mut vstat = vec![VStat::Lower; n + 3 * new_m];
        for (j, &s) in self.vstat.iter().enumerate() {
            vstat[remap(j)] = s;
        }
        let mut basis: Vec<u32> = self
            .basis
            .iter()
            .map(|&b| remap(b as usize) as u32)
            .collect();
        for i in old_m..new_m {
            let li = n + i;
            vstat[li] = VStat::Basic;
            basis.push(li as u32);
        }
        BasisState { basis, vstat }
    }

    /// Re-targets the snapshot at an instance that appended
    /// `new_n − old_n` structural columns after this basis was captured
    /// (same `m`) — the column-generation mutation.
    ///
    /// Appending structural columns shifts every logical and artificial
    /// column up by `new_n − old_n` while existing structural columns
    /// keep their indices. Each appended column starts nonbasic at its
    /// lower bound, so the basis matrix is untouched (still nonsingular)
    /// and the point it encodes is unchanged and primal feasible; the
    /// phase-2 primal cleanup of [`Ctx::solve_warm`] prices the new
    /// columns in exactly where a pricing loop wants them considered.
    pub(crate) fn with_structurals(&self, new_n: usize) -> BasisState {
        let old_n = self.num_structurals();
        debug_assert!(new_n >= old_n, "structural columns are never removed");
        if new_n == old_n {
            return self.clone();
        }
        let m = self.num_rows();
        let shift = new_n - old_n;
        let remap = |j: usize| if j < old_n { j } else { j + shift };
        let mut vstat = vec![VStat::Lower; new_n + 3 * m];
        for (j, &s) in self.vstat.iter().enumerate() {
            vstat[remap(j)] = s;
        }
        let basis: Vec<u32> = self
            .basis
            .iter()
            .map(|&b| remap(b as usize) as u32)
            .collect();
        BasisState { basis, vstat }
    }
}

/// Immutable sparse standard form shared by every node of a B&B tree.
///
/// Columns: `[0, n)` structural (native model bounds), `[n, n+m)` one `+1`
/// logical per row (bounds encode the comparison: `≤` → `[0, ∞)`, `≥` →
/// `(−∞, 0]`, `=` → `[0, 0]`), `[n+m, n+3m)` artificial pairs `±e_i`
/// normally fixed to `[0, 0]` and only widened while phase 1 runs. With
/// this layout `A·x + s = rhs` holds row-for-row with no normalization
/// flips, so duals read directly off `y = B⁻ᵀ·c_B`.
pub(crate) struct Instance {
    m: usize,
    n: usize,
    /// Structural + logical columns (`n + m`) — the columns eligible to
    /// enter a basis. Artificials only ever *leave*.
    ncols: usize,
    art_start: usize,
    total: usize,
    cols: Vec<Vec<(u32, f64)>>,
    /// The structural and logical columns again, by row: row `i` holds
    /// `(j, a_ij)` in ascending `j`, its logical last.
    rows: Cols,
    lo: Vec<f64>,
    up: Vec<f64>,
    /// Phase-2 cost in the internal minimization sense (0 beyond `n`).
    cost: Vec<f64>,
    rhs: Vec<f64>,
    obj_constant: f64,
    negated: bool,
}

impl Instance {
    /// Variable kinds are never read: any model builds as its own LP
    /// relaxation.
    pub(crate) fn build(model: &Model) -> Instance {
        let n = model.vars.len();
        let m = model.constraints.len();
        let negated = model.sense == Some(Sense::Maximize);
        let ncols = n + m;
        let art_start = ncols;
        let total = n + 3 * m;

        let mut cols: Vec<Vec<(u32, f64)>> = vec![Vec::new(); total];
        let mut rows = Cols::default();
        let terms = model.constraints.iter().map(|c| c.expr.terms.len());
        rows.ent.reserve(terms.sum::<usize>() + m);
        let mut lo = vec![0.0; total];
        let mut up = vec![0.0; total];
        let mut rhs = vec![0.0; m];

        for (j, vd) in model.vars.iter().enumerate() {
            lo[j] = vd.lower;
            up[j] = vd.upper;
        }
        let mut merged: Vec<(usize, f64)> = Vec::new();
        for (i, c) in model.constraints.iter().enumerate() {
            // Deactivated rows keep their slot — same `m`, same logical /
            // artificial columns, same dual index — but are built as the
            // trivially-satisfied empty row `0 cmp 0` (its slack sits at 0,
            // which every cmp's logical bounds admit). This is what keeps a
            // stored `BasisState` structurally valid across
            // `Model::deactivate_row` mutations.
            if !c.active {
                rhs[i] = 0.0;
            } else {
                rhs[i] = c.rhs - c.expr.constant;
            }
            merged.clear();
            if c.active {
                merged.extend(c.expr.terms.iter().map(|&(v, k)| (v.0, k)));
            }
            merged.sort_unstable_by_key(|&(j, _)| j);
            let mut idx = 0;
            while idx < merged.len() {
                let (j, mut k) = merged[idx];
                let mut next = idx + 1;
                while next < merged.len() && merged[next].0 == j {
                    k += merged[next].1;
                    next += 1;
                }
                if k != 0.0 {
                    cols[j].push((i as u32, k));
                    rows.ent.push((j as u32, k));
                }
                idx = next;
            }
            let li = n + i;
            cols[li].push((i as u32, 1.0));
            rows.ent.push((li as u32, 1.0));
            rows.close();
            let (l, u) = match c.cmp {
                Cmp::Le => (0.0, f64::INFINITY),
                Cmp::Ge => (f64::NEG_INFINITY, 0.0),
                Cmp::Eq => (0.0, 0.0),
            };
            lo[li] = l;
            up[li] = u;
            cols[art_start + 2 * i].push((i as u32, 1.0));
            cols[art_start + 2 * i + 1].push((i as u32, -1.0));
            // Artificial bounds stay [0, 0]; Ctx widens them for phase 1.
        }

        let mut cost = vec![0.0; total];
        for &(v, c) in &model.objective.terms {
            cost[v.0] += if negated { -c } else { c };
        }
        let obj_constant = if negated {
            -model.objective.constant
        } else {
            model.objective.constant
        };

        Instance {
            m,
            n,
            ncols,
            art_start,
            total,
            cols,
            rows,
            lo,
            up,
            cost,
            rhs,
            obj_constant,
            negated,
        }
    }

    /// Objective of structural values `x` (model space), in the model's
    /// own sense.
    pub(crate) fn model_objective(&self, x: &[f64]) -> f64 {
        let mut obj = self.obj_constant;
        for (j, &v) in x.iter().enumerate() {
            obj += self.cost[j] * v;
        }
        if self.negated {
            -obj
        } else {
            obj
        }
    }

    /// Base (un-branched) lower bound of structural column `j`.
    pub(crate) fn base_lo(&self, j: usize) -> f64 {
        self.lo[j]
    }

    /// Base (un-branched) upper bound of structural column `j`.
    pub(crate) fn base_up(&self, j: usize) -> f64 {
        self.up[j]
    }
}

/// Mutable solver state over a shared [`Instance`]: working bounds,
/// basis, factorization, and counters. Reusable across B&B nodes — each
/// [`Ctx::solve_cold`] / [`Ctx::solve_warm`] fully resets what it needs,
/// so branch & bound keeps one `Ctx` hot for a whole solve.
pub(crate) struct Ctx {
    inst: Arc<Instance>,
    lo: Vec<f64>,
    up: Vec<f64>,
    vstat: Vec<VStat>,
    basis: Vec<u32>,
    /// Column → basis row (−1 when nonbasic).
    pos: Vec<i32>,
    lu: Lu,
    etas: EtaFile,
    /// Values of the basic variables, row-aligned with `basis`.
    xb: Vec<f64>,
    scratch: Vec<f64>,
    ybuf: Vec<f64>,
    /// Row `r` of `B⁻¹` (the dual simplex needs it next to `y` in `ybuf`).
    rho: Vec<f64>,
    /// What pricing last formed, per structural and logical column: the
    /// pivot row `α = ρ·A` (dual) or the reduced costs `d = c − y·A`
    /// (primal).
    priced: Vec<f64>,
    /// Columns whose working bounds may differ from the instance's.
    tightened: Vec<usize>,
    pub(crate) stats: SolverStats,
    /// Dantzig-iteration budget multiplier before switching to Bland's
    /// rule (test hook; production value 50).
    pub(crate) dantzig_factor: usize,
    /// Hard iteration-cap override (test hook for the `Error` path).
    pub(crate) iter_cap_override: Option<usize>,
}

impl Ctx {
    pub(crate) fn new(inst: Arc<Instance>) -> Ctx {
        let m = inst.m;
        let total = inst.total;
        Ctx {
            lo: inst.lo.clone(),
            up: inst.up.clone(),
            vstat: vec![VStat::Lower; total],
            basis: vec![0; m],
            pos: vec![-1; total],
            lu: Lu::default(),
            etas: EtaFile::default(),
            xb: vec![0.0; m],
            scratch: vec![0.0; m],
            ybuf: vec![0.0; m],
            rho: vec![0.0; m],
            priced: vec![0.0; inst.ncols],
            tightened: Vec::new(),
            stats: SolverStats::default(),
            dantzig_factor: 50,
            iter_cap_override: None,
            inst,
        }
    }

    /// Resets working bounds to the instance's — only the columns moved
    /// since the last reset differ — and applies the node's tightenings.
    /// (Artificial bounds are `[0, 0]` outside phase 1, which re-fixes
    /// what it widens.)
    pub(crate) fn set_bounds(&mut self, changes: &[(usize, f64, f64)]) {
        for j in self.tightened.drain(..) {
            self.lo[j] = self.inst.lo[j];
            self.up[j] = self.inst.up[j];
        }
        for &(j, l, u) in changes {
            self.lo[j] = l;
            self.up[j] = u;
            self.tightened.push(j);
        }
    }

    /// Intersects column `j`'s working bounds with `[lo, up]` — one more
    /// branching on top of what [`Ctx::set_bounds`] installed. `false`,
    /// bounds untouched, when that leaves the column no value.
    #[must_use]
    pub(crate) fn tighten(&mut self, j: usize, lo: f64, up: f64) -> bool {
        let (l, u) = (self.lo[j].max(lo), self.up[j].min(up));
        if l > u {
            return false;
        }
        self.lo[j] = l;
        self.up[j] = u;
        self.tightened.push(j);
        true
    }

    /// Nonbasic resting value of column `j` (callers guarantee the chosen
    /// bound is finite).
    fn rest_value(&self, j: usize) -> f64 {
        match self.vstat[j] {
            VStat::Lower => self.lo[j],
            VStat::Upper => self.up[j],
            VStat::Basic => self.xb[self.pos[j] as usize],
        }
    }

    /// Full FTRAN: factorization then eta file in creation order.
    fn full_ftran(&self, v: &mut [f64]) {
        self.lu.ftran(v);
        self.etas.ftran(v);
    }

    /// Full BTRAN: eta file in reverse order, then the factorization.
    fn full_btran(&self, v: &mut [f64]) {
        self.etas.btran(v);
        self.lu.btran(v);
    }

    /// Scatters sparse column `j` into `out` and FTRANs it.
    fn ftran_col(&self, j: usize, out: &mut [f64]) {
        out.fill(0.0);
        for &(i, v) in &self.inst.cols[j] {
            out[i as usize] = v;
        }
        self.full_ftran(out);
    }

    /// `y = B⁻ᵀ·cost_B` into `self.ybuf`.
    fn compute_y(&mut self, cost: &[f64]) {
        let mut y = std::mem::take(&mut self.ybuf);
        for (k, &b) in self.basis.iter().enumerate() {
            y[k] = cost[b as usize];
        }
        self.full_btran(&mut y);
        self.ybuf = y;
    }

    /// Reduced cost of column `j` given `self.ybuf` holds `y`.
    fn reduced_cost(&self, cost: &[f64], j: usize) -> f64 {
        let mut d = cost[j];
        for &(i, v) in &self.inst.cols[j] {
            d -= self.ybuf[i as usize] * v;
        }
        d
    }

    /// `α_j = ρ·A_j` of every structural and logical column into
    /// `self.priced`, from the rows where `ρ` is non-zero. Rows go in
    /// ascending order, so a column collects its terms in the order a
    /// walk down the column would, less the exactly-zero ones.
    fn price_alpha(&mut self, rho: &[f64]) {
        self.priced.fill(0.0);
        for (i, &p) in rho.iter().enumerate() {
            if p != 0.0 {
                let row = self.inst.rows.col(i);
                self.stats.priced_nonzeros += row.len() as u64;
                for &(j, a) in row {
                    self.priced[j as usize] += p * a;
                }
            }
        }
    }

    /// Reduced costs `d_j = cost_j − y·A_j` of the same columns into
    /// `self.priced`, given `self.ybuf` holds `y`; rows as in
    /// [`Ctx::price_alpha`].
    fn price_costs(&mut self, cost: &[f64]) {
        self.priced.copy_from_slice(&cost[..self.inst.ncols]);
        for (i, &y) in self.ybuf.iter().enumerate() {
            if y != 0.0 {
                let row = self.inst.rows.col(i);
                self.stats.priced_nonzeros += row.len() as u64;
                for &(j, a) in row {
                    self.priced[j as usize] -= y * a;
                }
            }
        }
    }

    /// Recomputes `xb = B⁻¹·(rhs − A_N·x_N)` from the current vstat.
    fn compute_xb(&mut self) {
        // Built in `xb` itself, which nothing below reads: this can run
        // from `pivot` while a caller holds the shared scratch buffer.
        let mut b = std::mem::take(&mut self.xb);
        b.copy_from_slice(&self.inst.rhs);
        for j in 0..self.inst.total {
            if self.vstat[j] == VStat::Basic {
                continue;
            }
            let v = self.rest_value(j);
            if v != 0.0 {
                for &(i, a) in &self.inst.cols[j] {
                    b[i as usize] -= a * v;
                }
            }
        }
        self.full_ftran(&mut b);
        self.xb = b;
    }

    /// Rebuilds the LU from the current basis and clears the eta file.
    /// `false` when the basis matrix is singular.
    fn refactor(&mut self) -> bool {
        self.stats.refactorizations += 1;
        self.etas.clear();
        let ok = self.lu.factor(&self.inst.cols, &self.basis);
        self.stats.factor_nonzeros += if ok { self.lu.nonzeros() as u64 } else { 0 };
        ok
    }

    /// Applies a pivot: column `q` enters at basis row `r` with value
    /// `value`; `w` is the FTRAN'd entering column. `leaving_stat` is the
    /// bound the leaving variable rests on — it must be recorded *before*
    /// the eta-cap refactorization below, whose `compute_xb` rebuilds the
    /// basic values from every nonbasic resting value and would otherwise
    /// still see the leaving variable as basic and drop its contribution.
    /// `false` when that refactorization found the basis singular: nothing
    /// is left to pivot on and the caller must stop.
    #[must_use]
    fn pivot(&mut self, r: usize, q: usize, value: f64, w: &[f64], leaving_stat: VStat) -> bool {
        let leaving = self.basis[r] as usize;
        self.pos[leaving] = -1;
        self.vstat[leaving] = leaving_stat;
        self.basis[r] = q as u32;
        self.pos[q] = r as i32;
        self.vstat[q] = VStat::Basic;
        self.xb[r] = value;
        self.etas.push(r, w);
        if self.etas.len() >= MAX_ETAS {
            if !self.refactor() {
                return false;
            }
            self.compute_xb();
        }
        true
    }

    /// Snaps a slightly out-of-bound basic value back to its bound.
    fn snap(&mut self, i: usize) {
        let b = self.basis[i] as usize;
        if self.xb[i] < self.lo[b] && self.xb[i] > self.lo[b] - 1e-9 {
            self.xb[i] = self.lo[b];
        } else if self.xb[i] > self.up[b] && self.xb[i] < self.up[b] + 1e-9 {
            self.xb[i] = self.up[b];
        }
    }

    /// Cold start: crash an all-logical basis, run phase 1 with the
    /// artificial pair of each violated row, then phase 2.
    pub(crate) fn solve_cold(&mut self) -> LpOutcome {
        self.stats.cold_solves += 1;
        let inst = Arc::clone(&self.inst);
        let m = inst.m;

        // Reset any prior node's state.
        self.etas.clear();
        self.pos.iter_mut().for_each(|p| *p = -1);
        for j in 0..inst.total {
            self.vstat[j] = if self.lo[j].is_finite() {
                VStat::Lower
            } else {
                VStat::Upper
            };
        }

        if m == 0 {
            // No constraints: every profitable bounded column goes to its
            // better bound; unbounded if a profitable column has u = ∞.
            for j in 0..inst.n {
                let c = inst.cost[j];
                if c < -EPS {
                    if self.up[j].is_infinite() {
                        return LpOutcome::Unbounded;
                    }
                    self.vstat[j] = VStat::Upper;
                } else if c > EPS && self.lo[j].is_infinite() {
                    return LpOutcome::Unbounded;
                }
            }
            return LpOutcome::Optimal;
        }

        // Residual of each row at the nonbasic resting point (logical and
        // artificial columns rest at 0, so only structurals contribute).
        let mut resid = self.inst.rhs.clone();
        for j in 0..inst.n {
            let v = self.rest_value(j);
            if v != 0.0 {
                for &(i, a) in &inst.cols[j] {
                    resid[i as usize] -= a * v;
                }
            }
        }

        let mut need_phase1 = false;
        for (i, &r) in resid.iter().enumerate() {
            let li = inst.n + i;
            let slot = if self.lo[li] - FEAS_TOL <= r && r <= self.up[li] + FEAS_TOL {
                self.xb[i] = r.clamp(self.lo[li], self.up[li]);
                li
            } else if r > 0.0 {
                self.xb[i] = r;
                need_phase1 = true;
                inst.art_start + 2 * i
            } else {
                self.xb[i] = -r;
                need_phase1 = true;
                inst.art_start + 2 * i + 1
            };
            self.basis[i] = slot as u32;
            self.pos[slot] = i as i32;
            self.vstat[slot] = VStat::Basic;
        }
        if !self.refactor() {
            return LpOutcome::Error; // all-unit basis: cannot happen
        }

        if need_phase1 {
            let t0 = Instant::now();
            let mut p1cost = vec![0.0; inst.total];
            p1cost[inst.art_start..].fill(1.0);
            // The crashed-in artificials are free upwards while phase 1
            // runs, and only then: whatever it returns they are re-fixed.
            // Basic ones either carry the infeasibility (reported below)
            // or sit harmlessly at ~0 on redundant rows.
            for &b in &self.basis {
                if b as usize >= inst.art_start {
                    self.up[b as usize] = f64::INFINITY;
                }
            }
            let out = self.primal(&p1cost, true);
            self.up[inst.art_start..].fill(0.0);
            self.stats.time_phase1 += t0.elapsed();
            if out != LpOutcome::Optimal {
                return LpOutcome::Error;
            }
            let mut infeas = 0.0;
            for (i, &b) in self.basis.iter().enumerate() {
                if b as usize >= inst.art_start {
                    infeas += self.xb[i].max(0.0);
                }
            }
            if infeas > PHASE1_TOL {
                return LpOutcome::Infeasible;
            }
            if !self.drive_out_artificials() {
                return LpOutcome::Error;
            }
        }

        self.phase2()
    }

    /// Primal simplex on the instance's own cost, borrowed, not copied per LP.
    fn phase2(&mut self) -> LpOutcome {
        let inst = Arc::clone(&self.inst);
        let t0 = Instant::now();
        let out = self.primal(&inst.cost, false);
        self.stats.time_phase2 += t0.elapsed();
        out
    }

    /// After phase 1: pivot basic artificials out where possible (or
    /// leave redundant rows harmlessly basic at zero). `false` when a
    /// pivot lost the factorization.
    fn drive_out_artificials(&mut self) -> bool {
        let inst = Arc::clone(&self.inst);
        for r in 0..inst.m {
            if (self.basis[r] as usize) < inst.art_start {
                continue;
            }
            // ρ = r-th row of B⁻¹; α_j = ρ·A_j is the pivot element.
            let mut rho = std::mem::take(&mut self.rho);
            rho.fill(0.0);
            rho[r] = 1.0;
            self.full_btran(&mut rho);
            self.price_alpha(&rho);
            let enter = (0..inst.ncols)
                .find(|&j| self.vstat[j] != VStat::Basic && self.priced[j].abs() > PRICE_TOL);
            #[cfg(test)]
            self.audit_drive_out(&rho, enter);
            self.rho = rho;
            if let Some(q) = enter {
                // Zero-step pivot: q becomes basic at its resting value.
                let value = self.rest_value(q);
                let mut w = std::mem::take(&mut self.scratch);
                self.ftran_col(q, &mut w);
                let ok = self.pivot(r, q, value, &w, VStat::Lower);
                self.scratch = w;
                if !ok {
                    return false;
                }
            }
        }
        true
    }

    /// Bounded-variable primal simplex minimizing `cost`. Artificial
    /// columns never enter (phase 1 starts with them basic and only drives
    /// them out, which is safe because a feasible problem's restricted
    /// phase-1 optimum is still 0).
    fn primal(&mut self, cost: &[f64], phase1: bool) -> LpOutcome {
        let inst = Arc::clone(&self.inst);
        let m = inst.m;
        let budget_dantzig = self.dantzig_factor * (m + inst.ncols);
        let hard_cap = match self.iter_cap_override {
            Some(cap) => cap,
            None => budget_dantzig + 500 * (m + inst.ncols),
        };
        let mut iters = 0usize;
        loop {
            iters += 1;
            if iters >= hard_cap.max(1) {
                return LpOutcome::Error;
            }
            let bland = iters > budget_dantzig;

            self.compute_y(cost);
            self.price_costs(cost);
            // Entering: at-lower with d < 0 (increase) or at-upper with
            // d > 0 (decrease).
            let mut entering: Option<(usize, f64)> = None; // (col, direction)
            let mut best = PRICE_TOL;
            for j in 0..inst.ncols {
                if self.vstat[j] == VStat::Basic || self.lo[j] == self.up[j] {
                    continue;
                }
                let d = self.priced[j];
                let (viol, dir) = match self.vstat[j] {
                    VStat::Lower => (-d, 1.0),
                    VStat::Upper => (d, -1.0),
                    VStat::Basic => unreachable!(),
                };
                if viol > best {
                    entering = Some((j, dir));
                    if bland {
                        break;
                    }
                    best = viol;
                }
            }
            #[cfg(test)]
            self.audit_primal(cost, bland, entering);
            let Some((q, dir)) = entering else {
                return LpOutcome::Optimal;
            };

            let mut w = std::mem::take(&mut self.scratch);
            self.ftran_col(q, &mut w);

            // Ratio test: step t ≥ 0 of the entering variable away from
            // its bound. Basic i changes by −t·dir·w[i].
            let mut t_max = self.up[q] - self.lo[q]; // bound-flip distance
            let mut leave: Option<(usize, VStat)> = None; // (row, bound hit)
            for (i, &wi) in w.iter().enumerate() {
                let delta = dir * wi;
                let b = self.basis[i] as usize;
                if delta > EPS {
                    if self.lo[b].is_finite() {
                        let t = (self.xb[i] - self.lo[b]) / delta;
                        if t < t_max - EPS
                            || (t < t_max + EPS
                                && leave.is_some_and(|(li, _)| self.basis[i] < self.basis[li]))
                        {
                            t_max = t.max(0.0);
                            leave = Some((i, VStat::Lower));
                        }
                    }
                } else if delta < -EPS && self.up[b].is_finite() {
                    let t = (self.up[b] - self.xb[i]) / (-delta);
                    if t < t_max - EPS
                        || (t < t_max + EPS
                            && leave.is_some_and(|(li, _)| self.basis[i] < self.basis[li]))
                    {
                        t_max = t.max(0.0);
                        leave = Some((i, VStat::Upper));
                    }
                }
            }
            if t_max.is_infinite() {
                self.scratch = w;
                return LpOutcome::Unbounded;
            }

            match leave {
                None => {
                    // Bound flip: entering crosses to its other bound.
                    self.stats.bound_flips += 1;
                    for (i, &wi) in w.iter().enumerate() {
                        if wi != 0.0 {
                            self.xb[i] -= t_max * dir * wi;
                            self.snap(i);
                        }
                    }
                    self.vstat[q] = match self.vstat[q] {
                        VStat::Lower => VStat::Upper,
                        VStat::Upper => VStat::Lower,
                        VStat::Basic => unreachable!(),
                    };
                }
                Some((r, hit)) => {
                    if phase1 {
                        self.stats.phase1_pivots += 1;
                    } else {
                        self.stats.phase2_pivots += 1;
                    }
                    let value = match self.vstat[q] {
                        VStat::Lower => self.lo[q] + t_max,
                        VStat::Upper => self.up[q] - t_max,
                        VStat::Basic => unreachable!(),
                    };
                    for (i, &wi) in w.iter().enumerate() {
                        if i != r && wi != 0.0 {
                            self.xb[i] -= t_max * dir * wi;
                            self.snap(i);
                        }
                    }
                    if !self.pivot(r, q, value, &w, hit) {
                        self.scratch = w;
                        return LpOutcome::Error;
                    }
                }
            }
            self.scratch = w;
        }
    }

    /// Warm start: install `from` (or keep the current basis when `None`,
    /// the diving case), repair primal feasibility with the dual simplex,
    /// then run a phase-2 primal cleanup. Falls back to a cold solve when
    /// the basis is singular, the dual gives up or the cleanup errors.
    pub(crate) fn solve_warm(&mut self, from: Option<&BasisState>) -> LpOutcome {
        let inst = Arc::clone(&self.inst);
        if inst.m == 0 {
            return self.solve_cold();
        }
        if let Some(bs) = from {
            self.basis.copy_from_slice(&bs.basis);
            self.vstat.copy_from_slice(&bs.vstat);
            self.pos.iter_mut().for_each(|p| *p = -1);
            for (r, &b) in self.basis.iter().enumerate() {
                self.pos[b as usize] = r as i32;
            }
            if !self.refactor() {
                return self.solve_cold();
            }
        }
        // A parent basis can leave a variable nonbasic on a bound the
        // child no longer has (branching replaced ∞ by a finite bound, or
        // vice versa the rest state references a bound that moved).
        for j in 0..inst.ncols {
            match self.vstat[j] {
                VStat::Lower if !self.lo[j].is_finite() => self.vstat[j] = VStat::Upper,
                VStat::Upper if !self.up[j].is_finite() => self.vstat[j] = VStat::Lower,
                _ => {}
            }
        }
        self.compute_xb();

        let t0 = Instant::now();
        let out = self.dual();
        self.stats.time_dual += t0.elapsed();
        let out = match out {
            DualOutcome::Feasible => self.phase2(),
            DualOutcome::Infeasible => LpOutcome::Infeasible,
            DualOutcome::GiveUp => LpOutcome::Error,
        };
        match out {
            LpOutcome::Error => return self.solve_cold(),
            LpOutcome::Unbounded => {}
            _ => self.stats.warm_solves += 1,
        }
        out
    }

    /// Dual simplex: repeatedly kick the most-violated basic variable to
    /// its violated bound, entering the best price-ratio nonbasic column.
    fn dual(&mut self) -> DualOutcome {
        let inst = Arc::clone(&self.inst);
        let m = inst.m;
        let budget = 30 * (m + inst.ncols) + 10;
        let cost = &inst.cost;
        for _ in 0..budget {
            // Leaving: most infeasible basic (ties → lowest column id).
            let mut leave: Option<(usize, f64, bool)> = None; // (row, viol, below)
            for i in 0..m {
                let b = self.basis[i] as usize;
                let (viol, below) = if self.xb[i] < self.lo[b] - FEAS_TOL {
                    (self.lo[b] - self.xb[i], true)
                } else if self.xb[i] > self.up[b] + FEAS_TOL {
                    (self.xb[i] - self.up[b], false)
                } else {
                    continue;
                };
                let better = match leave {
                    None => true,
                    Some((li, lv, _)) => {
                        viol > lv + EPS || (viol > lv - EPS && self.basis[i] < self.basis[li])
                    }
                };
                if better {
                    leave = Some((i, viol, below));
                }
            }
            let Some((r, _, below)) = leave else {
                return DualOutcome::Feasible;
            };
            self.stats.dual_pivots += 1;

            // ρ = r-th row of B⁻¹; y for reduced costs.
            let mut rho = std::mem::take(&mut self.rho);
            rho.fill(0.0);
            rho[r] = 1.0;
            self.full_btran(&mut rho);
            self.compute_y(cost);
            self.price_alpha(&rho);

            let mut enter: Option<(usize, f64)> = None; // (col, ratio)
            for j in 0..inst.ncols {
                if self.vstat[j] == VStat::Basic || self.lo[j] == self.up[j] {
                    continue;
                }
                let alpha = self.priced[j];
                let eligible = if below {
                    (self.vstat[j] == VStat::Lower && alpha < -PRICE_TOL)
                        || (self.vstat[j] == VStat::Upper && alpha > PRICE_TOL)
                } else {
                    (self.vstat[j] == VStat::Lower && alpha > PRICE_TOL)
                        || (self.vstat[j] == VStat::Upper && alpha < -PRICE_TOL)
                };
                if !eligible {
                    continue;
                }
                let ratio = self.reduced_cost(cost, j).abs() / alpha.abs();
                let better = match enter {
                    None => true,
                    Some((_, br)) => ratio < br - EPS,
                };
                if better {
                    enter = Some((j, ratio));
                }
            }
            #[cfg(test)]
            self.audit_dual(&rho, below, enter);
            self.rho = rho;
            let Some((q, _)) = enter else {
                // No column can absorb the violation: LP is infeasible.
                return DualOutcome::Infeasible;
            };

            let mut w = std::mem::take(&mut self.scratch);
            self.ftran_col(q, &mut w);
            if w[r].abs() <= EPS {
                self.scratch = w;
                if self.etas.len() == 0 || !self.refactor() {
                    return DualOutcome::GiveUp;
                }
                self.compute_xb();
                continue;
            }
            let b = self.basis[r] as usize;
            let target = if below { self.lo[b] } else { self.up[b] };
            let t = (self.xb[r] - target) / w[r];
            let value = self.rest_value(q) + t;
            for (i, &wi) in w.iter().enumerate() {
                if i != r && wi != 0.0 {
                    self.xb[i] -= t * wi;
                }
            }
            let hit = if below { VStat::Lower } else { VStat::Upper };
            let ok = self.pivot(r, q, value, &w, hit);
            self.scratch = w;
            if !ok {
                return DualOutcome::GiveUp;
            }
        }
        DualOutcome::GiveUp
    }

    /// Current structural values in model space.
    pub(crate) fn structural_values(&self) -> Vec<f64> {
        let mut values = Vec::new();
        self.read_values(&mut values);
        values
    }

    /// [`Ctx::structural_values`] into a buffer the caller keeps.
    pub(crate) fn read_values(&self, values: &mut Vec<f64>) {
        values.clear();
        values.extend((0..self.inst.n).map(|j| self.rest_value(j)));
    }

    /// Objective of the current point, in the model's own sense.
    #[cfg(test)]
    pub(crate) fn objective(&self) -> f64 {
        let x = self.structural_values();
        self.inst.model_objective(&x)
    }

    /// Constraint duals (model sense) at phase-2 optimality:
    /// `y = B⁻ᵀ·c_B`, sign-flipped back when the model was a negated
    /// maximization. No per-row corrections are needed because rows are
    /// never normalized or flipped at build time.
    pub(crate) fn duals(&mut self) -> Vec<f64> {
        if self.inst.m == 0 {
            return Vec::new();
        }
        let inst = Arc::clone(&self.inst);
        self.compute_y(&inst.cost);
        self.ybuf
            .iter()
            .map(|&y| if self.inst.negated { -y } else { y })
            .collect()
    }

    /// Snapshot of the current basis for warm-starting a child node.
    pub(crate) fn basis_state(&self) -> BasisState {
        BasisState {
            basis: self.basis.clone(),
            vstat: self.vstat.clone(),
        }
    }

    /// Converts an outcome into a full [`Solution`] for the model.
    pub(crate) fn extract_solution(&self, outcome: LpOutcome) -> Solution {
        let n = self.inst.n;
        match outcome {
            LpOutcome::Optimal => {
                let values = self.structural_values();
                let objective = self.inst.model_objective(&values);
                Solution {
                    status: Status::Optimal,
                    objective,
                    values,
                }
            }
            LpOutcome::Infeasible => Solution::sentinel(Status::Infeasible, n),
            LpOutcome::Unbounded => Solution {
                status: Status::Unbounded,
                objective: if self.inst.negated {
                    f64::INFINITY
                } else {
                    f64::NEG_INFINITY
                },
                values: vec![f64::NAN; n],
            },
            LpOutcome::Error => Solution::sentinel(Status::Error, n),
        }
    }
}

enum DualOutcome {
    Feasible,
    Infeasible,
    GiveUp,
}

/// The column-wise pricing loops the row-wise ones replaced, verbatim,
/// as oracles. Every pricing call of every unit test of this crate goes
/// through one: it prices the call's candidate columns again by walking
/// them, and demands the same bits per candidate (zeros compared as
/// zeros) and the same entering column.
#[cfg(test)]
mod audit {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// What the oracles did on this thread: dual calls, primal calls,
        /// stored entries their column walks visited.
        pub(crate) static AUDITED: Cell<[u64; 3]> = const { Cell::new([0; 3]) };
    }

    fn count(dual: u64, primal: u64, walked: usize) {
        AUDITED.with(|c| {
            let [d, p, w] = c.get();
            c.set([d + dual, p + primal, w + walked as u64]);
        });
    }

    #[track_caller]
    fn same_bits(col: usize, oracle: f64, priced: f64) {
        assert!(
            oracle.to_bits() == priced.to_bits() || (oracle == 0.0 && priced == 0.0),
            "column {col}: walking it gives {oracle:e}, the rows gave {priced:e}"
        );
    }

    impl Ctx {
        /// Working bounds of the structural columns.
        pub(crate) fn structural_bounds(&self) -> (&[f64], &[f64]) {
            (&self.lo[..self.inst.n], &self.up[..self.inst.n])
        }

        pub(super) fn audit_dual(&self, rho: &[f64], below: bool, chosen: Option<(usize, f64)>) {
            let inst = &self.inst;
            let cost = &inst.cost;
            let mut walked = 0;
            let mut enter: Option<(usize, f64)> = None; // (col, ratio)
            for j in 0..inst.ncols {
                if self.vstat[j] == VStat::Basic || self.lo[j] == self.up[j] {
                    continue;
                }
                let mut alpha = 0.0;
                for &(i, v) in &inst.cols[j] {
                    alpha += rho[i as usize] * v;
                }
                walked += inst.cols[j].len();
                same_bits(j, alpha, self.priced[j]);
                let eligible = if below {
                    (self.vstat[j] == VStat::Lower && alpha < -PRICE_TOL)
                        || (self.vstat[j] == VStat::Upper && alpha > PRICE_TOL)
                } else {
                    (self.vstat[j] == VStat::Lower && alpha > PRICE_TOL)
                        || (self.vstat[j] == VStat::Upper && alpha < -PRICE_TOL)
                };
                if !eligible {
                    continue;
                }
                let ratio = self.reduced_cost(cost, j).abs() / alpha.abs();
                let better = match enter {
                    None => true,
                    Some((_, br)) => ratio < br - EPS,
                };
                if better {
                    enter = Some((j, ratio));
                }
            }
            let bits = |e: Option<(usize, f64)>| e.map(|(j, ratio)| (j, ratio.to_bits()));
            assert_eq!(bits(enter), bits(chosen), "dual entering column");
            count(1, 0, walked);
        }

        pub(super) fn audit_primal(&self, cost: &[f64], bland: bool, chosen: Option<(usize, f64)>) {
            let inst = &self.inst;
            let mut walked = 0;
            let mut entering: Option<(usize, f64)> = None; // (col, direction)
            let mut best = PRICE_TOL;
            for j in 0..inst.ncols {
                if self.vstat[j] == VStat::Basic || self.lo[j] == self.up[j] {
                    continue;
                }
                let d = self.reduced_cost(cost, j);
                walked += inst.cols[j].len();
                same_bits(j, d, self.priced[j]);
                let (viol, dir) = match self.vstat[j] {
                    VStat::Lower => (-d, 1.0),
                    VStat::Upper => (d, -1.0),
                    VStat::Basic => unreachable!(),
                };
                if viol > best {
                    entering = Some((j, dir));
                    if bland {
                        break;
                    }
                    best = viol;
                }
            }
            assert_eq!(entering, chosen, "primal entering column");
            count(0, 1, walked);
        }

        pub(super) fn audit_drive_out(&self, rho: &[f64], chosen: Option<usize>) {
            let inst = &self.inst;
            let mut enter = None;
            for j in 0..inst.ncols {
                if self.vstat[j] == VStat::Basic {
                    continue;
                }
                let mut alpha = 0.0;
                for &(i, v) in &inst.cols[j] {
                    alpha += rho[i as usize] * v;
                }
                same_bits(j, alpha, self.priced[j]);
                if alpha.abs() > PRICE_TOL {
                    enter = Some(j);
                    break;
                }
            }
            assert_eq!(enter, chosen, "column driving an artificial out");
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::expr::{LinExpr, Var};
    use crate::model::{Model, Sense, SolveOptions};
    use flexwan_util::rng::ChaCha8Rng;

    /// A covering (`Minimize`) or packing (`Maximize`) MIP shaped like the
    /// benchmark's ring instances: 45 rows — 6 demand rows, each over its
    /// own sixth of the columns at one rate, and 39 capacity rows a column
    /// crosses in a contiguous run — over 200 binaries of about nine
    /// entries each, plus boxed and fixed continuous columns, rows of all
    /// three comparisons, and coefficients that round (0.1, 1/3, 0.7·k)
    /// next to the models' 1 and 100·k. Seeds 3 and 6 (covering) and 5
    /// (packing) close in 850–4,500 nodes.
    pub(crate) fn cover_model(seed: u64, sense: Sense) -> Model {
        const DEMANDS: usize = 6;
        const CAPS: usize = 39;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut m = Model::new();
        let minimize = sense == Sense::Minimize;
        let mut demand: Vec<Vec<(Var, f64)>> = vec![Vec::new(); DEMANDS];
        let mut caps: Vec<Vec<(Var, f64)>> = vec![Vec::new(); CAPS];
        let mut obj: Vec<(Var, f64)> = Vec::new();
        let weight = |rng: &mut ChaCha8Rng| match rng.gen_range(0..5u32) {
            0 => 1.0,
            1 => rng.gen_range(2..=9u32) as f64,
            2 => 0.1,
            3 => 1.0 / 3.0,
            _ => rng.gen_range(1..=12u32) as f64 * 0.7,
        };
        for j in 0..200 {
            let x = m.binary(format!("x{j}"));
            let rate = 100.0 * (1 + j % DEMANDS % 4) as f64;
            demand[j % DEMANDS].push((x, rate));
            let run = rng.gen_range(5..=11usize);
            let start = rng.gen_range(0..=CAPS - run);
            for cap in &mut caps[start..start + run] {
                cap.push((x, weight(&mut rng)));
            }
            let per_rate = rng.gen_range(500..=3000u32) as f64 * 0.001;
            obj.push((x, per_rate * rate / 100.0));
        }
        for j in 0..12 {
            let lo = rng.gen_range(0..3u32) as f64 * 0.5;
            // Every fourth one is fixed.
            let width = (j % 4) as f64 * rng.gen_range(1..=6u32) as f64 * 0.7;
            let c = m.continuous(format!("c{j}"), lo, lo + width);
            let start = rng.gen_range(0..CAPS - 4);
            for cap in &mut caps[start..start + 4] {
                cap.push((c, weight(&mut rng)));
            }
            obj.push((c, 0.3));
        }
        let sum = |row: &[(Var, f64)]| LinExpr::sum(row.iter().map(|&(v, k)| k * v));
        for (d, row) in demand.iter().enumerate() {
            // A whole multiple of the row's rate, but for the first.
            let off = if d == 0 { 50.0 } else { 0.0 };
            let asked = row[0].1 * rng.gen_range(3..=8u32) as f64 - off;
            if minimize {
                m.ge(sum(row), asked);
            } else {
                m.le(sum(row), asked);
            }
        }
        for (i, row) in caps.iter().enumerate() {
            let total = row.iter().map(|&(_, k)| k).sum::<f64>();
            let share = if minimize { 0.3 } else { 0.45 };
            match i % 13 {
                // An equality a boxed column absorbs.
                3 => {
                    let slack = m.continuous(format!("s{i}"), 0.0, total);
                    m.eq(sum(row) + 1.0 * slack, (share * total).round());
                }
                // A floor under a packing.
                7 if !minimize => {
                    m.ge(sum(row), 1.0);
                }
                _ => {
                    m.le(sum(row), (share * total).round());
                }
            }
        }
        m.set_objective(sense, sum(&obj));
        m
    }

    /// The chain LPs of `tests/randomized_lp_and_warm_start.rs`.
    fn chain_lp(k: usize, seed: u64) -> Model {
        let mut m = Model::new();
        let mut st = seed;
        let mut rnd = move || {
            st = st
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((st >> 33) % 5) as f64
        };
        let vars: Vec<_> = (0..k)
            .map(|i| m.continuous(format!("x{i}"), 1.0, 3.0))
            .collect();
        for w in vars.windows(2) {
            m.le(w[0] + w[1], 4.0 + rnd());
        }
        for w in vars.windows(4) {
            m.le(w[0] + w[1] + (w[2] + w[3]), 9.0 + rnd());
        }
        let obj = vars.iter().enumerate();
        let obj = obj.map(|(i, &v)| (1.0 + ((i * 7) % 5) as f64) * v);
        m.set_objective(Sense::Maximize, LinExpr::sum(obj));
        m
    }

    // --- row-wise pricing against the column-wise oracles ---

    /// The oracles of `mod audit` run inside every pricing call; this
    /// drives them over the shapes that matter — the chain LPs cold, warm
    /// from a snapshot, down a dive and under Bland's rule, and whole
    /// branch & bound solves of cover models in both senses — and pins
    /// what the rows save on one of them.
    #[test]
    fn row_pricing_replays_the_column_oracle_at_every_call() {
        let audited = || audit::AUDITED.with(|c| c.get());
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        for seed in 0..6u64 {
            let inst = Arc::new(Instance::build(&chain_lp(150, seed)));
            let mut ctx = Ctx::new(Arc::clone(&inst));
            ctx.dantzig_factor = if seed == 5 { 0 } else { 50 };
            assert_eq!(ctx.solve_cold(), LpOutcome::Optimal);
            let snapshot = ctx.basis_state();
            for _ in 0..8 {
                // A node three branchings deep, then two dive steps.
                let node: Vec<_> = (0..3)
                    .map(|_| (rng.gen_range(0..150usize), 1.0, 1.5 + rng.gen_f64()))
                    .collect();
                ctx.set_bounds(&node);
                ctx.solve_warm(Some(&snapshot));
                for _ in 0..2 {
                    if ctx.tighten(rng.gen_range(0..150usize), 1.25 + rng.gen_f64(), 3.0) {
                        ctx.solve_warm(None);
                    }
                }
            }
        }
        let [dual, primal, _] = audited();
        assert!(
            dual >= 100 && primal >= 1_000,
            "{dual} dual / {primal} primal"
        );

        let before = audited();
        let m = cover_model(3, Sense::Minimize);
        let (sol, stats) = m.solve_with_stats(&SolveOptions::default());
        assert_eq!(sol.status, Status::Optimal);
        let after = audited();
        assert_eq!(after[0] - before[0], stats.dual_pivots);
        // Stored entries visited: by the rows where ρ / y is non-zero,
        // against a walk down every candidate column at every call.
        assert_eq!(
            (stats.priced_nonzeros, after[2] - before[2]),
            (2_123_541, 11_184_222)
        );

        let m = cover_model(5, Sense::Maximize);
        assert_eq!(m.solve().status, Status::Optimal);
        let [dual, primal, _] = audited();
        assert!(
            dual >= 7_000 && primal >= 6_000,
            "{dual} dual / {primal} primal"
        );
    }

    // --- working bounds ---

    #[test]
    fn a_failed_phase_one_leaves_the_artificials_fixed() {
        // x + y ≥ 6 is violated at the resting point: phase 1 runs, and
        // the iteration cap stops it before its first pivot.
        let mut m = Model::new();
        let x = m.continuous("x", 0.0, 4.0);
        let y = m.continuous("y", 0.0, 4.0);
        let z = m.continuous("z", 0.0, 4.0);
        m.ge(x + y, 6.0);
        m.le(x + 2.0 * z, 7.0);
        m.ge(y - z, -1.0);
        m.set_objective(Sense::Minimize, x + 2.0 * y - 1.5 * z);
        let inst = Arc::new(Instance::build(&m));
        let mut fresh = Ctx::new(Arc::clone(&inst));
        assert_eq!(fresh.solve_cold(), LpOutcome::Optimal);
        let snapshot = fresh.basis_state();

        let mut ctx = Ctx::new(Arc::clone(&inst));
        ctx.iter_cap_override = Some(1);
        assert_eq!(ctx.solve_cold(), LpOutcome::Error);
        assert_eq!(ctx.stats.phase1_pivots, 0);
        assert_eq!((&ctx.lo, &ctx.up), (&inst.lo, &inst.up));
        ctx.iter_cap_override = None;

        // The same child LP on the `Ctx` that failed and on a new one.
        let mut other = Ctx::new(Arc::clone(&inst));
        for c in [&mut ctx, &mut other] {
            c.stats = SolverStats::default();
            c.set_bounds(&[(0, 0.0, 2.5)]);
            assert_eq!(c.solve_warm(Some(&snapshot)), LpOutcome::Optimal);
        }
        let bits = |c: &Ctx| -> Vec<u64> {
            let values = c.structural_values();
            values.iter().chain(&c.xb).map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&ctx), bits(&other));
        assert_eq!((&ctx.basis, &ctx.vstat), (&other.basis, &other.vstat));
        assert_eq!(ctx.stats.total_pivots(), other.stats.total_pivots());
        assert_eq!((&ctx.lo, &ctx.up), (&other.lo, &other.up));
    }

    #[test]
    fn set_bounds_undoes_every_tightening() {
        let inst = Arc::new(Instance::build(&cover_model(3, Sense::Minimize)));
        let mut ctx = Ctx::new(Arc::clone(&inst));
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for round in 0..20 {
            let node: Vec<_> = (0..round % 7)
                .map(|_| (rng.gen_range(0..inst.n), 0.0, rng.gen_range(0..2u32) as f64))
                .collect();
            ctx.set_bounds(&node);
            for &(j, l, u) in &node {
                assert_eq!((ctx.lo[j], ctx.up[j]), (l, u));
            }
            for _ in 0..round % 5 {
                let j = rng.gen_range(0..inst.n);
                let (l, u) = (ctx.lo[j], ctx.up[j]);
                // Refused exactly when the intersection is empty, and
                // then nothing moves.
                let ok = ctx.tighten(j, 1.0, f64::INFINITY);
                assert_eq!(ok, u >= 1.0);
                assert_eq!(
                    (ctx.lo[j], ctx.up[j]),
                    if ok { (l.max(1.0), u) } else { (l, u) }
                );
            }
            if round % 3 == 0 {
                ctx.solve_cold();
            }
            ctx.set_bounds(&[]);
            assert_eq!((&ctx.lo, &ctx.up), (&inst.lo, &inst.up), "round {round}");
        }
    }

    #[test]
    fn textbook_max_lp() {
        // max 3x + 2y st x + y ≤ 4, x + 3y ≤ 6, x,y ≥ 0 → (4,0), obj 12.
        let mut m = Model::new();
        let x = m.nonneg("x");
        let y = m.nonneg("y");
        m.le(x + y, 4.0);
        m.le(x + 3.0 * y, 6.0);
        m.set_objective(Sense::Maximize, 3.0 * x + 2.0 * y);
        let s = m.solve();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 12.0).abs() < 1e-6, "obj={}", s.objective);
        assert!((s.value(x) - 4.0).abs() < 1e-6);
        assert!(s.value(y).abs() < 1e-6);
    }

    #[test]
    fn min_with_ge_constraints() {
        // min 2x + 3y st x + y ≥ 10, x ≥ 2, y ≥ 3 → x=7,y=3, obj 23.
        let mut m = Model::new();
        let x = m.continuous("x", 2.0, f64::INFINITY);
        let y = m.continuous("y", 3.0, f64::INFINITY);
        m.ge(x + y, 10.0);
        m.set_objective(Sense::Minimize, 2.0 * x + 3.0 * y);
        let s = m.solve();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 23.0).abs() < 1e-6, "obj={}", s.objective);
        assert!((s.value(x) - 7.0).abs() < 1e-6);
        assert!((s.value(y) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn equality_constraints() {
        // min x + y st x + 2y = 4, x − y = 1 → x=2,y=1, obj 3.
        let mut m = Model::new();
        let x = m.nonneg("x");
        let y = m.nonneg("y");
        m.eq(x + 2.0 * y, 4.0);
        m.eq(x - y, 1.0);
        m.set_objective(Sense::Minimize, x + y);
        let s = m.solve();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.value(x) - 2.0).abs() < 1e-6);
        assert!((s.value(y) - 1.0).abs() < 1e-6);
        assert!((s.objective - 3.0).abs() < 1e-6);
    }

    #[test]
    fn detects_infeasible() {
        let mut m = Model::new();
        let x = m.nonneg("x");
        m.le(1.0 * x, 1.0);
        m.ge(1.0 * x, 2.0);
        m.set_objective(Sense::Minimize, 1.0 * x);
        assert_eq!(m.solve().status, Status::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut m = Model::new();
        let x = m.nonneg("x");
        let y = m.nonneg("y");
        m.ge(x - y, 1.0);
        m.set_objective(Sense::Maximize, x + y);
        assert_eq!(m.solve().status, Status::Unbounded);
    }

    #[test]
    fn bounded_above_is_not_unbounded() {
        let mut m = Model::new();
        let x = m.continuous("x", 0.0, 5.0);
        m.set_objective(Sense::Maximize, 2.0 * x);
        let s = m.solve();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 10.0).abs() < 1e-6);
        assert!((s.value(x) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn negative_lower_bounds() {
        // min x st x ≥ −3 → −3.
        let mut m = Model::new();
        let x = m.continuous("x", -3.0, 10.0);
        m.set_objective(Sense::Minimize, 1.0 * x);
        let s = m.solve();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective + 3.0).abs() < 1e-6);
        assert!((s.value(x) + 3.0).abs() < 1e-6);
    }

    #[test]
    fn objective_constant_carried() {
        let mut m = Model::new();
        let x = m.continuous("x", 0.0, 2.0);
        m.set_objective(Sense::Minimize, 1.0 * x + 100.0);
        let s = m.solve();
        assert!((s.objective - 100.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_lp_terminates() {
        let mut m = Model::new();
        let x = m.nonneg("x");
        let y = m.nonneg("y");
        let z = m.nonneg("z");
        m.le(x + y + z, 1.0);
        m.le(x + y, 1.0);
        m.le(1.0 * x, 1.0);
        m.set_objective(Sense::Maximize, 2.0 * x + 1.0 * y + 1.0 * z);
        let s = m.solve();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn solution_is_feasible_for_model() {
        let mut m = Model::new();
        let x = m.continuous("x", 1.0, 4.0);
        let y = m.continuous("y", 0.0, 3.0);
        m.le(2.0 * x + y, 7.0);
        m.ge(x + y, 2.0);
        m.set_objective(Sense::Maximize, x + 2.0 * y);
        let s = m.solve();
        assert_eq!(s.status, Status::Optimal);
        assert!(m.is_feasible(&s.values, 1e-6));
        // Optimum: y=3, then x ≤ 2 → obj 8.
        assert!((s.objective - 8.0).abs() < 1e-6);
    }

    #[test]
    fn redundant_equality_rows() {
        let mut m = Model::new();
        let x = m.nonneg("x");
        let y = m.nonneg("y");
        m.eq(x + y, 2.0);
        m.eq(x + y, 2.0);
        m.eq(x - y, 0.0);
        m.set_objective(Sense::Minimize, x + y);
        let s = m.solve();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.value(x) - 1.0).abs() < 1e-6);
        assert!((s.value(y) - 1.0).abs() < 1e-6);
    }

    // --- bounded-variable-specific behaviour ---

    #[test]
    fn bound_flip_without_pivot() {
        // max x + y st x + y ≤ 10, x ≤ 3, y ≤ 4 (bounds, not rows)
        // → x=3, y=4, obj 7; reaching it requires nonbasic bound flips.
        let mut m = Model::new();
        let x = m.continuous("x", 0.0, 3.0);
        let y = m.continuous("y", 0.0, 4.0);
        m.le(x + y, 10.0);
        m.set_objective(Sense::Maximize, x + y);
        let s = m.solve();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 7.0).abs() < 1e-6, "obj={}", s.objective);
        assert!((s.value(x) - 3.0).abs() < 1e-6);
        assert!((s.value(y) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn basic_variable_leaves_at_upper() {
        // max 2x + y st x − y ≤ 1, x ≤ 4, y ≤ 2 → x=3,y=2? check: x−y≤1 →
        // x ≤ 3; obj 8.
        let mut m = Model::new();
        let x = m.continuous("x", 0.0, 4.0);
        let y = m.continuous("y", 0.0, 2.0);
        m.le(x - y, 1.0);
        m.set_objective(Sense::Maximize, 2.0 * x + y);
        let s = m.solve();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 8.0).abs() < 1e-6, "obj={}", s.objective);
        assert!((s.value(x) - 3.0).abs() < 1e-6);
        assert!((s.value(y) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn binaries_relaxed_without_extra_rows() {
        // 40 relaxed binaries, one knapsack row: the LP must solve fast
        // and land on the fractional knapsack optimum.
        let mut m = Model::new();
        let vars: Vec<_> = (0..40)
            .map(|i| m.continuous(format!("x{i}"), 0.0, 1.0))
            .collect();
        let w = crate::expr::LinExpr::sum(vars.iter().map(|&v| 1.0 * v));
        m.le(w, 10.5);
        let obj = crate::expr::LinExpr::sum(
            vars.iter()
                .enumerate()
                .map(|(i, &v)| ((i % 5 + 1) as f64) * v),
        );
        m.set_objective(Sense::Maximize, obj);
        let s = m.solve();
        assert_eq!(s.status, Status::Optimal);
        // 8 items of value 5, then 2 of value 4, then 0.5 of value 4:
        // = 40 + 8 + 2 = 50? Compute exactly: capacities of 10.5 units of
        // weight 1; best values: 8×5 + 2.5×4 = 50.
        assert!((s.objective - 50.0).abs() < 1e-6, "obj={}", s.objective);
        assert!(m.is_feasible(&s.values, 1e-6));
    }

    #[test]
    fn fixed_variable_via_equal_bounds() {
        let mut m = Model::new();
        let x = m.continuous("x", 2.5, 2.5);
        let y = m.continuous("y", 0.0, 10.0);
        m.le(x + y, 5.0);
        m.set_objective(Sense::Maximize, 3.0 * x + y);
        let s = m.solve();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.value(x) - 2.5).abs() < 1e-6);
        assert!((s.value(y) - 2.5).abs() < 1e-6);
        assert!((s.objective - 10.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_via_bounds_and_row() {
        // x ∈ [0, 2], y ∈ [0, 2], x + y ≥ 5 → infeasible.
        let mut m = Model::new();
        let x = m.continuous("x", 0.0, 2.0);
        let y = m.continuous("y", 0.0, 2.0);
        m.ge(x + y, 5.0);
        m.set_objective(Sense::Minimize, x + y);
        assert_eq!(m.solve().status, Status::Infeasible);
    }

    #[test]
    fn duals_match_finite_differences() {
        // max 3x + 2y st x + y ≤ 4, x + 3y ≤ 6: optimum (4, 0) with the
        // first row binding (dual 3) and the second slack (dual 0).
        let build = |r1: f64, r2: f64| {
            let mut m = Model::new();
            let x = m.nonneg("x");
            let y = m.nonneg("y");
            m.le(x + y, r1);
            m.le(x + 3.0 * y, r2);
            m.set_objective(Sense::Maximize, 3.0 * x + 2.0 * y);
            m
        };
        let (sol, duals) = solve_lp_with_duals(&build(4.0, 6.0));
        assert_eq!(sol.status, Status::Optimal);
        let duals = duals.unwrap();
        assert!((duals[0] - 3.0).abs() < 1e-6, "{duals:?}");
        assert!(duals[1].abs() < 1e-6, "{duals:?}");
        // Finite difference on the binding row agrees.
        let d = 1e-3;
        let bumped = build(4.0 + d, 6.0).solve();
        assert!(((bumped.objective - sol.objective) / d - duals[0]).abs() < 1e-6);
    }

    #[test]
    fn duals_for_min_with_ge_row() {
        // min 2x + 3y st x + y ≥ 10 (binding): dual = 2 (the cheaper
        // variable absorbs extra requirement).
        let mut m = Model::new();
        let x = m.nonneg("x");
        let y = m.nonneg("y");
        m.ge(x + y, 10.0);
        m.set_objective(Sense::Minimize, 2.0 * x + 3.0 * y);
        let (sol, duals) = solve_lp_with_duals(&m);
        assert_eq!(sol.status, Status::Optimal);
        assert!((duals.unwrap()[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn duals_for_equality_row() {
        // min x + y st x + 2y = 4, x − y = 1 → duals from y = cB·B⁻¹:
        // finite-difference check on the first equality.
        let build = |r: f64| {
            let mut m = Model::new();
            let x = m.nonneg("x");
            let y = m.nonneg("y");
            m.eq(x + 2.0 * y, r);
            m.eq(x - y, 1.0);
            m.set_objective(Sense::Minimize, x + y);
            m
        };
        let (sol, duals) = solve_lp_with_duals(&build(4.0));
        let duals = duals.unwrap();
        let d = 1e-3;
        let bumped = build(4.0 + d).solve();
        assert!(
            ((bumped.objective - sol.objective) / d - duals[0]).abs() < 1e-5,
            "dual {} vs fd {}",
            duals[0],
            (bumped.objective - sol.objective) / d
        );
    }

    #[test]
    fn duals_with_negative_rhs_row() {
        // A row whose rhs is negative: −x ≤ −2 ⇔ x ≥ 2; dual of the
        // *original* row must match finite differences on it.
        let build = |r: f64| {
            let mut m = Model::new();
            let x = m.continuous("x", 0.0, 10.0);
            m.le(-1.0 * x, r);
            m.set_objective(Sense::Minimize, 5.0 * x);
            m
        };
        let (sol, duals) = solve_lp_with_duals(&build(-2.0));
        let duals = duals.unwrap();
        let d = 1e-3;
        let bumped = build(-2.0 + d).solve();
        assert!(
            ((bumped.objective - sol.objective) / d - duals[0]).abs() < 1e-5,
            "dual {} vs fd {}",
            duals[0],
            (bumped.objective - sol.objective) / d
        );
    }

    #[test]
    fn minimize_pushes_to_upper_when_profitable() {
        // min −x with x ∈ [0, 7] and a slack row: x ends at its upper
        // bound without the row binding.
        let mut m = Model::new();
        let x = m.continuous("x", 0.0, 7.0);
        let y = m.nonneg("y");
        m.le(x + y, 100.0);
        m.set_objective(Sense::Minimize, -1.0 * x);
        let s = m.solve();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.value(x) - 7.0).abs() < 1e-6);
        assert!((s.objective + 7.0).abs() < 1e-6);
    }

    // --- dual sign conventions: {min, max} × {≤, =, ≥}, all checked
    // against finite differences so the convention is pinned down by
    // behaviour, not by prose.

    fn dual_fd_check(sense: Sense, cmp: Cmp) {
        let build = |rhs: f64| {
            let mut m = Model::new();
            let x = m.continuous("x", 0.0, 50.0);
            let y = m.continuous("y", 0.0, 50.0);
            let expr = x + 2.0 * y;
            match cmp {
                Cmp::Le => m.le(expr, rhs),
                Cmp::Ge => m.ge(expr, rhs),
                Cmp::Eq => m.eq(expr, rhs),
            };
            // A second, non-binding row keeps the problem 2-dimensional.
            m.le(x + y, 90.0);
            let obj = 3.0 * x + 5.0 * y;
            m.set_objective(sense, obj);
            m
        };
        let rhs0 = 40.0;
        let (sol, duals) = solve_lp_with_duals(&build(rhs0));
        assert_eq!(sol.status, Status::Optimal, "{sense:?} {cmp:?}");
        let duals = duals.unwrap();
        let d = 1e-4;
        let bumped = build(rhs0 + d).solve();
        assert_eq!(bumped.status, Status::Optimal);
        let fd = (bumped.objective - sol.objective) / d;
        assert!(
            (fd - duals[0]).abs() < 1e-4,
            "{sense:?} {cmp:?}: dual {} vs finite difference {}",
            duals[0],
            fd
        );
    }

    #[test]
    fn dual_sign_min_le() {
        dual_fd_check(Sense::Minimize, Cmp::Le);
    }

    #[test]
    fn dual_sign_min_ge() {
        dual_fd_check(Sense::Minimize, Cmp::Ge);
    }

    #[test]
    fn dual_sign_min_eq() {
        dual_fd_check(Sense::Minimize, Cmp::Eq);
    }

    #[test]
    fn dual_sign_max_le() {
        dual_fd_check(Sense::Maximize, Cmp::Le);
    }

    #[test]
    fn dual_sign_max_ge() {
        dual_fd_check(Sense::Maximize, Cmp::Ge);
    }

    #[test]
    fn dual_sign_max_eq() {
        dual_fd_check(Sense::Maximize, Cmp::Eq);
    }

    #[test]
    fn min_ge_binding_dual_is_nonnegative() {
        // The satellite's headline case: minimization, binding ≥ row →
        // the shadow price of one more unit of requirement is a *cost*,
        // i.e. non-negative in the model's own sense.
        let mut m = Model::new();
        let x = m.nonneg("x");
        let y = m.nonneg("y");
        m.ge(2.0 * x + y, 8.0);
        m.set_objective(Sense::Minimize, 3.0 * x + 4.0 * y);
        let (sol, duals) = solve_lp_with_duals(&m);
        assert_eq!(sol.status, Status::Optimal);
        let duals = duals.unwrap();
        assert!(
            duals[0] >= 0.0,
            "binding ≥ dual must be ≥ 0, got {}",
            duals[0]
        );
        assert!((duals[0] - 1.5).abs() < 1e-6, "{duals:?}");
    }

    // --- degenerate stress / anti-cycling ---

    #[test]
    fn bland_rule_terminates_on_degenerate_lp() {
        // Force Bland's rule from the very first iteration (the test hook
        // zeroes the Dantzig budget) on a degeneracy-heavy LP and demand
        // the exact optimum anyway.
        let mut m = Model::new();
        let x = m.nonneg("x");
        let y = m.nonneg("y");
        let z = m.nonneg("z");
        m.le(x + y + z, 1.0);
        m.le(x + y, 1.0);
        m.le(1.0 * x, 1.0);
        m.le(y + z, 1.0);
        m.set_objective(Sense::Maximize, 2.0 * x + 1.0 * y + 1.0 * z);
        let inst = Arc::new(Instance::build(&m));
        let mut ctx = Ctx::new(Arc::clone(&inst));
        ctx.dantzig_factor = 0; // Bland from iteration 1
        let out = ctx.solve_cold();
        assert_eq!(out, LpOutcome::Optimal);
        assert!(
            (ctx.objective() - 2.0).abs() < 1e-6,
            "obj={}",
            ctx.objective()
        );
    }

    #[test]
    fn beale_cycling_example_terminates() {
        // Beale's classic cycling LP (degenerate at the origin). Dantzig
        // pricing alone can cycle on it; the Bland switch must save us.
        let mut m = Model::new();
        let x1 = m.nonneg("x1");
        let x2 = m.nonneg("x2");
        let x3 = m.nonneg("x3");
        let x4 = m.nonneg("x4");
        m.le(0.25 * x1 - 60.0 * x2 - 0.04 * x3 + 9.0 * x4, 0.0);
        m.le(0.5 * x1 - 90.0 * x2 - 0.02 * x3 + 3.0 * x4, 0.0);
        m.le(1.0 * x3, 1.0);
        m.set_objective(
            Sense::Minimize,
            -0.75 * x1 + 150.0 * x2 - 0.02 * x3 + 6.0 * x4,
        );
        let s = m.solve();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective + 0.05).abs() < 1e-6, "obj={}", s.objective);
    }

    #[test]
    fn iteration_cap_reports_error_not_panic() {
        let mut m = Model::new();
        let x = m.nonneg("x");
        let y = m.nonneg("y");
        m.le(x + y, 4.0);
        m.ge(x + y, 1.0);
        m.set_objective(Sense::Maximize, 3.0 * x + 2.0 * y);
        let inst = Arc::new(Instance::build(&m));
        let mut ctx = Ctx::new(inst);
        ctx.iter_cap_override = Some(1); // no pivot can ever complete
        let out = ctx.solve_cold();
        assert_eq!(out, LpOutcome::Error);
        assert_eq!(ctx.extract_solution(out).status, Status::Error);
    }

    // --- a singular eta-cap refactorization is surfaced ---

    /// `min −x` over `x − w ≤ 4`, `y ≤ 5`, `z ≤ 6`, parked on its
    /// all-slack basis (x held at 0 for the first solve), then left one
    /// (identity) eta short of the cap with row 1's logical written over
    /// row 2's: the next pivot — on row 0 — refactorizes a basis that
    /// holds one column twice.
    fn one_pivot_before_a_singular_refactor(x_lower: f64) -> Ctx {
        let mut m = Model::new();
        let x = m.continuous("x", 0.0, 10.0);
        let w = m.continuous("w", 0.0, 10.0);
        let y = m.continuous("y", 0.0, 10.0);
        let z = m.continuous("z", 0.0, 10.0);
        m.le(x - w, 4.0);
        m.le(1.0 * y, 5.0);
        m.le(1.0 * z, 6.0);
        m.set_objective(Sense::Minimize, -1.0 * x);
        let mut ctx = Ctx::new(Arc::new(Instance::build(&m)));
        ctx.set_bounds(&[(0, 0.0, 0.0)]);
        assert_eq!(ctx.solve_cold(), LpOutcome::Optimal);
        assert_eq!(ctx.stats.total_pivots(), 0);
        ctx.set_bounds(&[(0, x_lower, 10.0)]);
        ctx.compute_xb();
        while ctx.etas.len() < MAX_ETAS - 1 {
            ctx.etas.push(0, &[1.0, 0.0, 0.0]);
        }
        ctx.basis[2] = ctx.basis[1];
        ctx
    }

    #[test]
    fn primal_stops_with_error_when_the_eta_cap_refactor_is_singular() {
        // x enters, row 0's slack leaves.
        let mut ctx = one_pivot_before_a_singular_refactor(0.0);
        let cost = ctx.inst.cost.clone();
        assert_eq!(ctx.primal(&cost, false), LpOutcome::Error);
        assert_eq!(ctx.stats.phase2_pivots, 1, "it must not pivot on");
        assert_eq!(ctx.extract_solution(LpOutcome::Error).status, Status::Error);
        // Through the warm entry point the error is a cold re-solve.
        let mut ctx = one_pivot_before_a_singular_refactor(0.0);
        assert_eq!(ctx.solve_warm(None), LpOutcome::Optimal);
        assert_eq!((ctx.stats.cold_solves, ctx.stats.warm_solves), (2, 0));
        assert!((ctx.objective() + 10.0).abs() < 1e-9);
    }

    #[test]
    fn dual_gives_up_when_the_eta_cap_refactor_is_singular() {
        // x ≥ 5 puts row 0's slack at −1; w enters to repair it.
        let mut ctx = one_pivot_before_a_singular_refactor(5.0);
        assert!(matches!(ctx.dual(), DualOutcome::GiveUp));
        assert_eq!(ctx.stats.dual_pivots, 1, "it must not pivot on");
        let mut ctx = one_pivot_before_a_singular_refactor(5.0);
        assert_eq!(ctx.solve_warm(None), LpOutcome::Optimal);
        assert_eq!((ctx.stats.cold_solves, ctx.stats.warm_solves), (2, 0));
        assert!((ctx.objective() + 10.0).abs() < 1e-9);
    }

    // --- empty constraint rows (malformed-adjacent but legal) ---

    #[test]
    fn empty_row_feasible_is_ignored() {
        let mut m = Model::new();
        let x = m.continuous("x", 0.0, 5.0);
        m.le(crate::expr::LinExpr::sum(std::iter::empty()), 3.0); // 0 ≤ 3
        m.set_objective(Sense::Maximize, 1.0 * x);
        let s = m.solve();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 5.0).abs() < 1e-6);
    }

    #[test]
    fn empty_row_infeasible_detected() {
        let mut m = Model::new();
        let x = m.continuous("x", 0.0, 5.0);
        m.ge(crate::expr::LinExpr::sum(std::iter::empty()), 3.0); // 0 ≥ 3
        m.set_objective(Sense::Maximize, 1.0 * x);
        assert_eq!(m.solve().status, Status::Infeasible);
    }

    // --- warm starts ---

    #[test]
    fn warm_start_matches_cold_solve_after_bound_change() {
        // Solve, snapshot the basis, tighten one variable's bounds the way
        // branching would, and check dual-simplex warm restart lands on
        // exactly the cold solve's optimum.
        let mut m = Model::new();
        let x = m.continuous("x", 0.0, 4.0);
        let y = m.continuous("y", 0.0, 4.0);
        let z = m.continuous("z", 0.0, 4.0);
        m.le(x + y + z, 6.0);
        m.le(2.0 * x + y, 5.0);
        m.ge(x + z, 1.0);
        m.set_objective(Sense::Maximize, 3.0 * x + 2.0 * y + 1.5 * z);
        let inst = Arc::new(Instance::build(&m));

        let mut parent = Ctx::new(Arc::clone(&inst));
        assert_eq!(parent.solve_cold(), LpOutcome::Optimal);
        let snapshot = parent.basis_state();
        let parent_obj = parent.objective();

        // Child: x ≤ 1 (as if branching down on x).
        let mut warm = Ctx::new(Arc::clone(&inst));
        warm.set_bounds(&[(0, 0.0, 1.0)]);
        assert_eq!(warm.solve_warm(Some(&snapshot)), LpOutcome::Optimal);

        let mut cold = Ctx::new(Arc::clone(&inst));
        cold.set_bounds(&[(0, 0.0, 1.0)]);
        assert_eq!(cold.solve_cold(), LpOutcome::Optimal);

        assert!(
            (warm.objective() - cold.objective()).abs() < 1e-6,
            "warm {} vs cold {}",
            warm.objective(),
            cold.objective()
        );
        assert!(
            warm.objective() <= parent_obj + 1e-9,
            "child bound can only tighten"
        );
        assert!(warm.stats.warm_solves >= 1);
    }

    #[test]
    fn warm_start_detects_child_infeasibility() {
        let mut m = Model::new();
        let x = m.continuous("x", 0.0, 4.0);
        let y = m.continuous("y", 0.0, 4.0);
        m.ge(x + y, 6.0);
        m.set_objective(Sense::Minimize, x + y);
        let inst = Arc::new(Instance::build(&m));
        let mut parent = Ctx::new(Arc::clone(&inst));
        assert_eq!(parent.solve_cold(), LpOutcome::Optimal);
        let snapshot = parent.basis_state();

        // Child: x ≤ 1 and y ≤ 1 → x + y ≤ 2 < 6.
        let mut child = Ctx::new(Arc::clone(&inst));
        child.set_bounds(&[(0, 0.0, 1.0), (1, 0.0, 1.0)]);
        assert_eq!(child.solve_warm(Some(&snapshot)), LpOutcome::Infeasible);
    }

    #[test]
    fn eta_refactorization_stays_exact() {
        // A chain long enough to force several refactorizations; optimum
        // must match the assignment-like closed form.
        let k = 30;
        let mut m = Model::new();
        let vars: Vec<_> = (0..k)
            .map(|i| m.continuous(format!("x{i}"), 0.0, 2.0))
            .collect();
        for w in vars.windows(2) {
            m.le(w[0] + w[1], 3.0);
        }
        let obj = crate::expr::LinExpr::sum(
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (1.0 + ((i * 7) % 5) as f64) * v),
        );
        m.set_objective(Sense::Maximize, obj);
        let (s, stats) = m.solve_with_stats(&crate::model::SolveOptions::default());
        assert_eq!(s.status, Status::Optimal);
        assert!(m.is_feasible(&s.values, 1e-6));
        // Cross-check against a fresh Dantzig-free (Bland) solve, which
        // follows a completely different pivot sequence.
        let inst = Arc::new(Instance::build(&m));
        let mut ctx = Ctx::new(inst);
        ctx.dantzig_factor = 0;
        assert_eq!(ctx.solve_cold(), LpOutcome::Optimal);
        assert!((ctx.objective() - s.objective).abs() < 1e-6);
        assert!(stats.total_pivots() > 0);
    }
}
