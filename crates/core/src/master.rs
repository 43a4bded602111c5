//! The one column-generation driver (DESIGN.md §12).
//!
//! Algorithm 1 (planning, min cost) and the §8 restoration MIP (max
//! restored Gbps) share one wavelength-assignment structure — per-slot
//! rows over γ columns plus per-`(fiber, pixel)` conflict rows — so both
//! run through [`RestrictedMaster::run`] and differ only in the
//! [`Problem`] each fills in. From a seeded master the loop is:
//!
//! 1. **Price.** Solve the LP relaxation warm, read the slot-row and
//!    `conflict` duals, and scan the not-yet-admitted universe
//!    ([`LazyWavelengthVarSpace::price`]) for columns with negative
//!    reduced cost. Admit the best per slot, re-solve off the stored
//!    basis, repeat until no column prices in — the restricted LP value
//!    now equals the full LP bound `Z_LP`.
//! 2. **Branch.** Solve the restricted master as a MIP.
//! 3. **Close the gap.** Any excluded column that could take part in a
//!    better integer solution has reduced cost within `|Z_IP − Z_LP|`;
//!    admit all such columns (capped per round) and go back to 1. When
//!    none remain the restricted optimum *is* the full-model optimum.
//!
//! Spectrum `conflict` rows are created lazily, by separation, only
//! when a solution double-books a `(fiber, pixel)` cell.

use std::collections::{BTreeMap, HashMap};

use flexwan_optical::format::TransponderFormat;
use flexwan_optical::spectrum::PixelRange;
use flexwan_solver::{
    Cmp, GroupId, IncrementalSolver, LinExpr, Model, RowId, Sense, Solution, SolveOptions,
    SolverStats, Status, Var, VarKind,
};
use flexwan_topo::graph::EdgeId;
use flexwan_topo::path::Path;

use crate::opt::{LazyWavelengthVarSpace, PricedColumn, PricingScan};
use crate::planning::colgen::{ColGenStats, PricingRound};

/// Columns admitted per slot per pricing round. Small batches keep the
/// warm LP re-solves cheap; the loop runs until nothing prices in, so
/// the cap trades rounds for columns, never correctness.
const PRICE_CAP: usize = 8;
/// Columns admitted per *round* across all slots (most negative reduced
/// cost first). The master's LP grows conflict rows as admitted columns
/// overlap, and simplex time grows superlinearly in rows — a global cap
/// keeps each warm re-solve a small delta while the loop still runs to
/// exhaustion.
const GLOBAL_CAP: usize = 96;
/// Per-slot cap during gap-closing rounds (threshold > 0 can match many
/// equal-reduced-cost starts; the outer loop re-prices after each batch).
const GAP_CAP: usize = 64;
/// Global per-round cap for gap-closing admissions.
const GAP_GLOBAL_CAP: usize = 256;
/// A column must beat the threshold by this much to be admitted — floats
/// hovering at zero reduced cost must not spin the loop.
const TOL: f64 = 1e-9;
/// Consecutive pricing rounds without LP improvement before the loop
/// declares a degenerate stall. On spectrum-saturated instances the
/// oracle's optimistic reduced costs (`ν = 0` on latent rows) can admit
/// columns forever while separation pins the LP in place; past this cap
/// the run returns the restricted master's integer optimum flagged
/// `fell_back` instead of looping.
const STALL_CAP: u64 = 48;
/// Pricing rounds a [`StopAt::LpDuals`] run spends sharpening the seed
/// duals: grinding a saturated master to convergence (the stall cap)
/// costs minutes per scenario across a whole cut suite.
const LP_ONLY_ROUND_CAP: u64 = 3;

/// What tells one wavelength-assignment master from the other. The slot
/// rows themselves are the caller's: it builds the [`Model`] skeleton in
/// its own row order and names the per-slot groups to
/// [`RestrictedMaster::new`].
pub(crate) trait Problem {
    /// Objective sense. It also fixes the dual orientation: a
    /// minimization master's `≤ 1` conflict rows carry `ν ≤ 0` and the
    /// oracle adds `−ν` per covered cell, a maximization master's carry
    /// `ν ≥ 0` and the oracle adds them as-is.
    const SENSE: Sense;
    /// Column-name prefix: `{PREFIX}{slot}_k{ki}_d{rate}_y{px}_q{start}`.
    const PREFIX: &'static str;
    /// Objective coefficient of a column of `format`.
    fn objective(&self, format: &TransponderFormat) -> f64;
    /// The column's coefficient in each slot-row group, in group order.
    fn row_coefficients(&self, format: &TransponderFormat) -> Vec<f64>;
    /// Start-independent part of the column's reduced cost in
    /// *minimization* orientation, given its slot's dual in each
    /// slot-row group (group order). Float association decides pricing
    /// tie-breaks, so each problem spells its expression out verbatim.
    fn reduced_base(&self, format: &TransponderFormat, slot_duals: &[f64]) -> f64;
    /// Whether a start on `path` is in the universe at all.
    fn admits(&self, path: &Path, range: &PixelRange) -> bool;
    /// Whether an LP/IP `gap` (≥ 0 in the master's own sense) is too
    /// small to hide a better integer point.
    fn certifies(&self, gap: f64) -> bool;
}

/// Where [`RestrictedMaster::run`] stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StopAt {
    /// The certified (or stall-flagged) integer optimum.
    IntegerOptimum,
    /// The LP — converged, or [`LP_ONLY_ROUND_CAP`] pricing rounds in:
    /// a price signal, not a certificate, with no branch & bound.
    LpDuals,
}

/// What a run produced.
pub(crate) struct Outcome {
    /// The integer incumbent; `None` exactly for [`StopAt::LpDuals`].
    pub incumbent: Option<Solution>,
    /// Duals (by `RowId`) of the last LP priced — rows separated after it
    /// are absent or zero-padded.
    pub lp_duals: Vec<f64>,
    /// Aggregated solver counters of every LP and MIP solve.
    pub solver: SolverStats,
    /// The column-generation counters and convergence trace.
    pub colgen: ColGenStats,
}

/// Keeps the `cap` most negative candidates of a scan across all slots.
/// The input arrives slot-ordered with per-slot reduced-cost order, so a
/// stable sort on reduced cost alone leaves ties in universe order —
/// the admission sequence stays deterministic. The oracle only surfaces
/// finite reduced costs, never `−0.0`, so `total_cmp` orders them
/// exactly as `<` does.
fn truncate_global(candidates: &mut Vec<PricedColumn>, cap: usize) {
    if candidates.len() > cap {
        candidates.sort_by(|a, b| a.reduced.total_cmp(&b.reduced));
        candidates.truncate(cap);
    }
}

/// The restricted master: admitted columns + their rows, kept standing
/// across pricing rounds so every re-solve is warm.
pub(crate) struct RestrictedMaster<P> {
    problem: P,
    inc: IncrementalSolver,
    lazy: LazyWavelengthVarSpace,
    /// The caller's per-slot row groups: `group_rows(g)[slot]` is the
    /// slot's row in group `g`.
    slot_groups: Vec<GroupId>,
    /// `(fiber, pixel)` cells with a materialized conflict row.
    cell_row: HashMap<(EdgeId, u32), RowId>,
    /// Every admitted column covering each cell, in admission order —
    /// the separation oracle's input (BTreeMap: deterministic cut order).
    cell_cover: BTreeMap<(EdgeId, u32), Vec<Var>>,
    /// Objective terms `(γ, coefficient)`, in admission order.
    obj_terms: Vec<(Var, f64)>,
    /// Columns admitted through [`seed`](Self::seed).
    columns_seeded: usize,
}

impl<P: Problem> RestrictedMaster<P> {
    /// `+1` for a minimization master, `−1` for a maximization master:
    /// multiplying by it (exact in floating point) orients an objective
    /// value, gap or dual for minimization.
    const SIGN: f64 = match P::SENSE {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };

    /// Wraps the caller's row skeleton (`slot_groups` each holding one
    /// row per slot of `lazy`, no columns yet).
    pub(crate) fn new(
        problem: P,
        skeleton: Model,
        lazy: LazyWavelengthVarSpace,
        slot_groups: Vec<GroupId>,
    ) -> Self {
        RestrictedMaster {
            problem,
            inc: IncrementalSolver::new(skeleton),
            lazy,
            slot_groups,
            cell_row: HashMap::new(),
            cell_cover: BTreeMap::new(),
            obj_terms: Vec::new(),
            columns_seeded: 0,
        }
    }

    /// The column space: admitted γ's, candidate paths, format menus.
    pub(crate) fn lazy(&self) -> &LazyWavelengthVarSpace {
        &self.lazy
    }

    /// The standing model (group lookups over an [`Outcome`]'s duals).
    pub(crate) fn model(&self) -> &Model {
        self.inc.model()
    }

    /// Admits a seed column ahead of [`run`](Self::run). The caller
    /// vouches for it exactly as [`LazyWavelengthVarSpace::admit`]
    /// demands: on the `(slot, ki)` menu and not yet admitted.
    pub(crate) fn seed(&mut self, slot: usize, ki: usize, format: TransponderFormat, start: u32) {
        self.admit(slot, ki, format, start);
        self.columns_seeded += 1;
    }

    /// Admits one column of the universe: the variable enters every
    /// *materialized* row it covers plus the slot rows, and the objective
    /// gains its term (pushed; the objective is re-set once per
    /// admission batch). Conflict rows for its other cells stay latent
    /// until [`separate`](Self::separate) catches a solution
    /// double-booking one — eager rows would block the column the moment
    /// it enters, stalling the LP, and most pairwise overlaps never bind
    /// anyway.
    fn admit(&mut self, slot: usize, ki: usize, format: TransponderFormat, start: u32) {
        let w = u32::from(format.spacing.pixels());
        let edges = self.lazy.space().paths(slot)[ki].edges.clone();
        let model = self.inc.model();
        let mut entries: Vec<(RowId, f64)> = self
            .slot_groups
            .iter()
            .zip(self.problem.row_coefficients(&format))
            .map(|(&g, coeff)| (model.group_rows(g)[slot], coeff))
            .collect();
        for &e in &edges {
            for px in start..start + w {
                if let Some(&row) = self.cell_row.get(&(e, px)) {
                    entries.push((row, 1.0));
                }
            }
        }
        let name = format!(
            "{}{slot}_k{ki}_d{}_y{}_q{start}",
            P::PREFIX,
            format.data_rate_gbps,
            format.spacing.pixels()
        );
        let var = self
            .inc
            .add_column(name, VarKind::Binary, 0.0, 1.0, &entries);
        self.lazy.admit(slot, ki, format, start, var);
        for &e in &edges {
            for px in start..start + w {
                self.cell_cover.entry((e, px)).or_default().push(var);
            }
        }
        self.obj_terms.push((var, self.problem.objective(&format)));
    }

    /// Admits one round's candidates and re-asserts the objective.
    fn admit_batch(&mut self, candidates: &[PricedColumn]) {
        for c in candidates {
            self.admit(c.slot, c.path_index, c.format, c.start);
        }
        self.set_objective();
    }

    /// Separation oracle over the latent conflict rows: materializes
    /// `Σ γ ≤ 1` for every cell the solution books beyond `1 + tol`,
    /// with **all** covering columns as terms. Returns the number of
    /// rows cut; the caller re-solves until clean. Row-and-column
    /// generation needs separation rather than eager rows so a freshly
    /// priced column can actually improve the LP before the spectrum
    /// clash it might cause ever binds.
    fn separate(&mut self, sol: &Solution, tol: f64) -> usize {
        let mut cuts: Vec<((EdgeId, u32), LinExpr)> = Vec::new();
        for (&cell, vars) in &self.cell_cover {
            if vars.len() < 2 || self.cell_row.contains_key(&cell) {
                continue;
            }
            let booked: f64 = vars.iter().map(|&v| sol.value(v)).sum();
            if booked > 1.0 + tol {
                cuts.push((cell, LinExpr::sum(vars.iter().map(|&v| 1.0 * v))));
            }
        }
        let n = cuts.len();
        if n > 0 {
            let model = self.inc.model_mut();
            model.group("conflict");
            for (cell, expr) in cuts {
                let row = model.add_constraint(expr, Cmp::Le, 1.0);
                self.cell_row.insert(cell, row);
            }
            model.end_group();
        }
        n
    }

    /// Re-asserts the objective over every admitted column.
    fn set_objective(&mut self) {
        let expr = LinExpr::sum(self.obj_terms.iter().map(|&(v, c)| c * v));
        self.inc.model_mut().set_objective(P::SENSE, expr);
    }

    /// One pricing scan under `duals` (indexed by `RowId`, straight from
    /// [`IncrementalSolver::solve_relaxation_with_duals`]): reads the
    /// slot-row duals through the model's named groups and the conflict
    /// duals off the materialized cells, walks the implicit universe, and
    /// keeps the `global_cap` best candidates.
    fn price(
        &self,
        duals: &[f64],
        threshold: f64,
        per_slot_cap: usize,
        global_cap: usize,
    ) -> PricingScan {
        let groups = self.slot_groups.len();
        // Slot-major: `slot_duals[slot * groups + g]`.
        let mut slot_duals = vec![0.0f64; self.lazy.space().num_slots() * groups];
        for (g, &gid) in self.slot_groups.iter().enumerate() {
            let by_slot = self.inc.model().group_duals(gid, duals);
            for (slot, (_, dual)) in by_slot.into_iter().enumerate() {
                slot_duals[slot * groups + g] = dual;
            }
        }
        let cell_duals = self.lazy.dense_cell_duals(
            self.cell_row
                .iter()
                .map(|(&cell, row)| (cell, -Self::SIGN * duals[row.0])),
        );
        let mut scan = self.lazy.price(
            |slot, _ki, f| {
                self.problem
                    .reduced_base(f, &slot_duals[slot * groups..(slot + 1) * groups])
            },
            &cell_duals,
            |path, range| self.problem.admits(path, range),
            threshold,
            per_slot_cap,
        );
        truncate_global(&mut scan.candidates, global_cap);
        scan
    }

    /// The counters of a master nothing has priced into yet — what a
    /// caller reports when it abandons the run for another solver.
    pub(crate) fn unpriced_stats(&self) -> ColGenStats {
        ColGenStats {
            columns_seeded: self.columns_seeded,
            columns_priced_in: 0,
            pricing_rounds: 0,
            gap_rounds: 0,
            reduced_cost_min: f64::INFINITY,
            lp_objective: f64::NAN,
            universe_size: self.lazy.universe_size(),
            columns_in_master: self.lazy.num_admitted(),
            conflict_rows: self.cell_row.len(),
            rounds: Vec::new(),
            fell_back: false,
        }
    }

    /// Runs the seeded master to `stop`. Returns `None` when a solve
    /// dies — an LP relaxation that is not optimal (the seed left the
    /// master infeasible) or an integer solve without an incumbent — and
    /// leaves the failure policy to the caller.
    pub(crate) fn run(&mut self, opts: &SolveOptions, stop: StopAt) -> Option<Outcome> {
        self.set_objective();
        let mut solver = SolverStats::default();
        let mut pricing_rounds = 0u64;
        let mut gap_rounds = 0u64;
        let mut columns_priced_in = 0usize;
        let mut reduced_cost_min = f64::INFINITY;
        let mut rounds: Vec<PricingRound> = Vec::new();
        // Best LP value so far, minimization-oriented like everything
        // `SIGN` touches.
        let mut best_lp = f64::INFINITY;
        let mut stalled = 0u64;
        let mut proved_optimal = true;

        let (incumbent, z_lp, lp_duals) = 'outer: loop {
            // Price to LP optimality.
            let (z_lp, mut lp_duals) = loop {
                let (sol, duals, st) = self.inc.solve_relaxation_with_duals();
                solver.merge(&st);
                let (Status::Optimal, Some(duals)) = (sol.status, duals) else {
                    return None;
                };
                // Materialize any conflict row this LP point violates and
                // re-solve: pricing duals must reflect the rows that bind.
                if self.separate(&sol, 1e-9) > 0 {
                    continue;
                }
                pricing_rounds += 1;
                let scan = self.price(&duals, -TOL, PRICE_CAP, GLOBAL_CAP);
                reduced_cost_min = reduced_cost_min.min(scan.reduced_min);
                rounds.push(PricingRound {
                    lp_objective: sol.objective,
                    admitted: scan.candidates.len(),
                    reduced_min: scan.reduced_min,
                });
                if scan.candidates.is_empty()
                    || (stop == StopAt::LpDuals && pricing_rounds >= LP_ONLY_ROUND_CAP)
                {
                    break (sol.objective, duals);
                }
                if Self::SIGN * sol.objective < best_lp - 1e-7 {
                    best_lp = Self::SIGN * sol.objective;
                    stalled = 0;
                } else {
                    stalled += 1;
                    if stalled >= STALL_CAP {
                        proved_optimal = false;
                        break (sol.objective, duals);
                    }
                }
                self.admit_batch(&scan.candidates);
                columns_priced_in += scan.candidates.len();
            };
            if stop == StopAt::LpDuals {
                break 'outer (None, z_lp, lp_duals);
            }

            // Integer solve of the restricted master, warm off the
            // converged LP basis. An integer point may still double-book
            // cells whose rows stayed latent — separate and re-solve until
            // clean, so the incumbent is a genuine wavelength assignment.
            let sol = loop {
                let (sol, st) = self.inc.solve(opts);
                solver.merge(&st);
                match sol.status {
                    Status::Optimal => {}
                    Status::NodeLimit if !sol.objective.is_nan() => {}
                    _ => return None,
                }
                if self.separate(&sol, 0.5) == 0 {
                    break sol;
                }
            };

            // A stalled LP never certified `z_lp` as the full-model bound —
            // return the restricted optimum as a flagged bound.
            if !proved_optimal {
                break 'outer (Some(sol), z_lp, lp_duals);
            }

            // Exactness: any integer solution using an excluded column is
            // worse than `Z_LP` by at least its reduced cost, so only
            // columns pricing within the integrality gap can improve on
            // the incumbent — unless the gap is already below what the
            // problem's objective grid can resolve.
            let gap = Self::SIGN * (sol.objective - z_lp);
            if self.problem.certifies(gap) {
                break 'outer (Some(sol), z_lp, lp_duals);
            }
            // Rows separated during the integer phase postdate `lp_duals`;
            // padding with zeros is exactly the `ν = 0` dual extension the
            // bound argument already relies on.
            lp_duals.resize(self.inc.model().num_constraints(), 0.0);
            let scan = self.price(&lp_duals, gap + TOL, GAP_CAP, GAP_GLOBAL_CAP);
            if scan.candidates.is_empty() {
                break 'outer (Some(sol), z_lp, lp_duals);
            }
            self.admit_batch(&scan.candidates);
            columns_priced_in += scan.candidates.len();
            gap_rounds += 1;
        };

        solver.pricing_rounds = pricing_rounds + gap_rounds;
        Some(Outcome {
            incumbent,
            lp_duals,
            solver,
            colgen: ColGenStats {
                columns_priced_in,
                pricing_rounds,
                gap_rounds,
                reduced_cost_min,
                lp_objective: z_lp,
                rounds,
                fell_back: !proved_optimal,
                ..self.unpriced_stats()
            },
        })
    }
}
