//! The exact Algorithm 1 formulation, built on the shared
//! [`crate::opt`] variable-space layer over `flexwan-solver`.
//!
//! Decision variables are the paper's `γ^{e,k}_{j,q}` (wavelength of
//! format `j` starting at pixel order `q` on path `k` of link `e`);
//! `λ^{e,k}_j = Σ_q γ` and `ξ^{e,k}_{φ,w} = Σ_{j,q} γ·s^{j,q}_w` are
//! substituted into the constraints rather than materialized, which keeps
//! the model pure-binary without changing its feasible set:
//!
//! * capacity (1): `Σ_k Σ_j d_j λ^{e,k}_j ≥ c_e` — the named `capacity`
//!   constraint group, one row per IP link;
//! * reach (2): enforced structurally — formats with `l_j < |P_{e,k}|`
//!   get no variables;
//! * conflict (3) + consistency (4) + status (5): for every fiber `φ` and
//!   slot `w`, `Σ γ·s^{j,q}_w·π^{e,k}_φ ≤ 1` — the `conflict` group,
//!   rows bucketed per fiber (a wavelength occupies the same slots on
//!   every fiber of its path by construction of `s`);
//! * transponder count (6): `λ = Σ_q γ` is the substitution itself.
//!
//! [`PlanModel`] keeps the built model *standing*: after a planning
//! solve, a fiber-cut restoration (§8) is expressed as a **mutation** of
//! the same model — surviving wavelengths pinned, cut-path candidates
//! banned, the cut fiber's conflict rows and the affected links' capacity
//! rows deactivated, each affected link's restoration cap pair
//! `c'_e`/`N_e` rewritten in place — and
//! re-solved warm from the planning basis via
//! [`flexwan_solver::IncrementalSolver`]. `tests/restore_mutation.rs`
//! cross-validates the mutated re-solve against a from-scratch build.
//!
//! This model is exponential in practice (the paper runs Gurobi "within
//! hours"); it exists to validate the scalable heuristic on small
//! instances, and the validation tests live in
//! `tests/planning_exact_vs_heuristic.rs`.

use std::collections::{HashMap, HashSet};

use flexwan_solver::{
    Cmp, IncrementalSolver, LinExpr, Model, RowId, Sense, Solution, SolveOptions, SolverStats,
    Status, Var,
};
use flexwan_topo::graph::{EdgeId, Graph, NodeId};
use flexwan_topo::ip::{IpLinkId, IpTopology};
use flexwan_topo::path::Path;

use crate::opt::{candidate_paths, GammaId, GammaVar, WavelengthVarSpace};
use crate::planning::heuristic::PlannerConfig;
use crate::scenario::FailureScenario;
use crate::scheme::Scheme;
use crate::wavelength::Wavelength;

/// An exact optimum of Algorithm 1.
#[derive(Debug, Clone)]
pub struct ExactPlan {
    /// Objective value `Σλ + ε·Σλ·Y` (spacing in GHz).
    pub objective: f64,
    /// The provisioned wavelengths.
    pub wavelengths: Vec<Wavelength>,
    /// Solver counters (pivots, B&B nodes, warm-start hit rate, phase
    /// timings) for the exact solve — surfaced by the bench harness.
    pub stats: SolverStats,
}

/// A restoration optimum obtained by mutating a standing [`PlanModel`].
#[derive(Debug, Clone)]
pub struct MutatedRestoration {
    /// Objective value of the mutated solve (`Σ rate·γ` over the newly
    /// placed restoration wavelengths, Gbps), recomputed from the
    /// incumbent wavelength set so it is bit-for-bit reproducible across
    /// warm and cold re-solves.
    pub objective: f64,
    /// Restored capacity, Gbps.
    pub restored_gbps: u64,
    /// Capacity lost to the scenario, Gbps.
    pub affected_gbps: u64,
    /// The restoration wavelengths placed by the mutated solve.
    pub wavelengths: Vec<Wavelength>,
    /// Banned-path γ columns generated on demand for this scenario (zero
    /// when the standing space already contained every §8 restoration
    /// path — always the case for single-fiber cuts on a
    /// [`PlanModel::build_restorable`] model). Non-zero marks the solve
    /// cold (the layout changed) but still on the mutation path.
    pub added_columns: usize,
    /// Solver counters for the mutated re-solve (`warm_solves` vs
    /// `cold_solves` shows whether the planning basis was reused).
    pub stats: SolverStats,
}

/// The Algorithm 1 model kept standing for incremental re-solves.
///
/// Construction is a single pass over the γ variable space: every
/// constraint row is a bucket lookup in [`WavelengthVarSpace`], so build
/// time is linear in the model's nonzero count (a builder that re-scans
/// all γ per row is quadratic; the `exact_build_scaling` test in
/// `crates/bench/tests` gates the linearity).
pub struct PlanModel {
    solver: IncrementalSolver,
    space: WavelengthVarSpace,
    scheme: Scheme,
    /// `capacity` group rows, one per IP link (same index).
    capacity_rows: Vec<RowId>,
    /// `conflict` group rows, bucketed per fiber.
    conflict_rows: Vec<(EdgeId, Vec<RowId>)>,
    /// (fiber, pixel) → its conflict row, for entering on-demand columns
    /// into existing rows (cells empty at build time have no row until a
    /// generated column first occupies them).
    conflict_row_at: HashMap<(EdgeId, u32), RowId>,
    /// The one `(restore_rate, restore_count)` row pair each IP link
    /// ever gets (same index as `capacity_rows`), allocated the first
    /// time the link is affected and rewritten in place by every later
    /// mutation: constraints (7)/(8) exist once per failed link, not
    /// once per failure ever seen, so the standing model — and every
    /// basis factorization over it — stays the size of what is live.
    cap_rows: Vec<Option<(RowId, RowId)>>,
    link_ids: Vec<IpLinkId>,
    /// Endpoints per IP link, for re-deriving §8 restoration path sets.
    link_ends: Vec<(NodeId, NodeId)>,
    k_paths: usize,
    /// The planning objective, kept to restore it after a mutation.
    objective: LinExpr,
    /// γ ids at or past this watermark were generated on demand for a
    /// restoration scenario: they participate only while their scenario's
    /// mutation is live and stay pinned to 0 for planning solves, so the
    /// planning optimum (and its pinned goldens) never shifts under
    /// column generation.
    restore_only_from: usize,
    /// The last planning solution (mutations need to know which γ won).
    solution: Option<Solution>,
}

impl PlanModel {
    /// Builds the standing Algorithm 1 model for an instance, with the
    /// paper's candidate-path set `P_{e,k}` (plain KSP). The model this
    /// produces is identical to the pre-refactor `solve_exact` builder.
    pub fn build(scheme: Scheme, optical: &Graph, ip: &IpTopology, cfg: &PlannerConfig) -> Self {
        let none = HashSet::new();
        let queries = ip.links().iter().map(|l| (l.src, l.dst, &none));
        let paths_per_link = candidate_paths(optical, cfg.k_paths, queries).collect();
        Self::build_from_paths(scheme, optical, ip, cfg, paths_per_link)
    }

    /// Like [`build`](Self::build), but the candidate-path set of every
    /// link is extended with the K shortest paths avoiding each single
    /// fiber (deduplicated, deterministic order). This guarantees that
    /// for any single-fiber cut, the restoration path set `P'_{e,k}` of
    /// the from-scratch §8 model is present in the standing variable
    /// space, so [`restore_after_cut`](Self::restore_after_cut) reaches
    /// the same optimum the from-scratch build would.
    pub fn build_restorable(
        scheme: Scheme,
        optical: &Graph,
        ip: &IpTopology,
        cfg: &PlannerConfig,
    ) -> Self {
        // Per link: no ban, then each fiber banned in fiber order, the
        // union deduplicated by edge sequence in that order.
        let single_cuts = optical.edges().iter().map(|f| HashSet::from([f.id]));
        let bans: Vec<HashSet<EdgeId>> =
            std::iter::once(HashSet::new()).chain(single_cuts).collect();
        let queries = (ip.links().iter()).flat_map(|l| bans.iter().map(|b| (l.src, l.dst, b)));
        let mut found = candidate_paths(optical, cfg.k_paths, queries);
        let paths_per_link = (ip.links().iter())
            .map(|_| {
                let mut seen = HashSet::new();
                let union = found.by_ref().take(bans.len()).flatten();
                union.filter(|p| seen.insert(p.edges.clone())).collect()
            })
            .collect();
        Self::build_from_paths(scheme, optical, ip, cfg, paths_per_link)
    }

    /// The model over the given candidate paths, one list per IP link
    /// (the sharded solve passes the paths a shard's ban set leaves).
    pub(super) fn build_from_paths(
        scheme: Scheme,
        optical: &Graph,
        ip: &IpTopology,
        cfg: &PlannerConfig,
        paths_per_link: Vec<Vec<Path>>,
    ) -> Self {
        let pixels = cfg.grid.pixels();
        let mut m = Model::new();
        let space = WavelengthVarSpace::enumerate(
            &mut m,
            scheme,
            pixels,
            optical.num_edges(),
            "g_e",
            paths_per_link,
            |_, _| true,
        );

        // (1) capacity per link.
        m.group("capacity");
        let capacity_rows: Vec<RowId> = ip
            .links()
            .iter()
            .enumerate()
            .map(|(li, link)| m.ge(space.rate_expr(li), link.demand_gbps as f64))
            .collect();
        m.end_group();

        // (3)/(4)/(5): per (fiber, slot) at most one occupying wavelength.
        m.group("conflict");
        let conflict_rows = space.conflict_rows(&mut m, optical.edges().iter().map(|e| e.id), 1);
        m.end_group();

        // Objective: Σ (1 + ε·Y_j) γ.
        let objective = space.weighted_expr(|g| 1.0 + cfg.epsilon * g.format.spacing.ghz());
        m.set_objective(Sense::Minimize, objective.clone());

        // Re-derive the (fiber, pixel) → row map from the same walk
        // `conflict_rows` took: per fiber, pixels ascending, empty
        // buckets skipped (min_terms = 1).
        let mut conflict_row_at = HashMap::new();
        for (fiber, rows) in &conflict_rows {
            let mut it = rows.iter();
            for px in 0..pixels {
                if !space.fiber_pixel_gammas(*fiber, px).is_empty() {
                    conflict_row_at
                        .insert((*fiber, px), *it.next().expect("row per non-empty cell"));
                }
            }
        }

        let restore_only_from = space.gammas().len();
        PlanModel {
            solver: IncrementalSolver::new(m),
            space,
            scheme,
            capacity_rows,
            conflict_rows,
            conflict_row_at,
            cap_rows: vec![None; ip.num_links()],
            link_ids: ip.links().iter().map(|l| l.id).collect(),
            link_ends: ip.links().iter().map(|l| (l.src, l.dst)).collect(),
            k_paths: cfg.k_paths,
            objective,
            restore_only_from,
            solution: None,
        }
    }

    /// The γ variable space the model is built on.
    pub fn space(&self) -> &WavelengthVarSpace {
        &self.space
    }

    /// The underlying solver model (read-only) — row/variable counts,
    /// constraint groups, and per-row inspection for observability.
    pub fn model(&self) -> &Model {
        self.solver.model()
    }

    /// Drops the stored basis so the next (re-)solve runs cold — the
    /// from-scratch comparator used by cross-validation tests and the
    /// bench harness.
    pub fn drop_basis(&mut self) {
        self.solver.invalidate_basis();
    }

    /// Replaces the capacity demand `c_e` asserted by `link`'s capacity
    /// row — the warm-mutation path for demand-delta events: one rhs
    /// change, then a warm re-[`solve`](Self::solve). The stored
    /// planning solution goes stale until that re-solve.
    pub fn change_demand(&mut self, link: IpLinkId, demand_gbps: u64) {
        let slot = self
            .link_ids
            .iter()
            .position(|&l| l == link)
            .expect("unknown IP link");
        self.solver
            .model_mut()
            .change_rhs(self.capacity_rows[slot], demand_gbps as f64);
    }

    /// The §8 restoration path set `P'_{e,k}` of each of `slots` — its
    /// K shortest paths avoiding `banned` — with every path the standing
    /// variable space lacks entered as on-demand γ columns
    /// (capacity-row terms, conflict-row terms, fresh conflict rows for
    /// previously-empty spectrum cells). Returns the number of columns
    /// added — zero whenever the space already covers the cut, which
    /// [`build_restorable`](Self::build_restorable) guarantees for
    /// single-fiber cuts — and the path sets.
    ///
    /// Generated columns are *restoration-only*: pinned to 0 except
    /// while a mutation for a covering scenario is live, so planning
    /// optima (and their pinned goldens) never shift under column
    /// generation.
    fn ensure_restoration_columns(
        &mut self,
        optical: &Graph,
        banned: &HashSet<EdgeId>,
        slots: impl Iterator<Item = usize>,
    ) -> (usize, Vec<(usize, Vec<Path>)>) {
        let slots: Vec<usize> = slots.collect();
        let queries = slots.iter().map(|&slot| {
            let (src, dst) = self.link_ends[slot];
            (src, dst, banned)
        });
        let found = candidate_paths(optical, self.k_paths, queries);
        let wanted: Vec<(usize, Vec<Path>)> = slots.iter().copied().zip(found).collect();
        let mut total = 0usize;
        let mut new_cells: Vec<(EdgeId, u32)> = Vec::new();
        for &(slot, ref want) in &wanted {
            let have: HashSet<Vec<EdgeId>> = self
                .space
                .paths(slot)
                .iter()
                .map(|p| p.edges.clone())
                .collect();
            let missing: Vec<Path> = want
                .iter()
                .filter(|p| !have.contains(&p.edges))
                .cloned()
                .collect();
            if missing.is_empty() {
                continue;
            }
            let added = self.space.extend_slot(
                self.solver.model_mut(),
                self.scheme,
                "g_e",
                slot,
                missing,
                |_, _| true,
            );
            let model = self.solver.model_mut();
            for &id in &added {
                let g = self.space.get(id).clone();
                // Restoration-only until a mutation frees it.
                model.set_var_bounds(g.var, 0.0, 0.0);
                model.add_term(
                    self.capacity_rows[slot],
                    g.var,
                    f64::from(g.format.data_rate_gbps),
                );
                let w = u32::from(g.format.spacing.pixels());
                let edges = self.space.path_of(&g).edges.clone();
                for e in edges {
                    for px in g.start..g.start + w {
                        match self.conflict_row_at.get(&(e, px)) {
                            Some(&row) => model.add_term(row, g.var, 1.0),
                            None => {
                                if !new_cells.contains(&(e, px)) {
                                    new_cells.push((e, px));
                                }
                            }
                        }
                    }
                }
            }
            total += added.len();
        }
        // Spectrum cells first occupied by generated columns get fresh
        // conflict rows over their (generated-only) buckets.
        if !new_cells.is_empty() {
            let model = self.solver.model_mut();
            model.group("conflict");
            for (fiber, px) in new_cells {
                let expr = LinExpr::sum(
                    self.space
                        .fiber_pixel_gammas(fiber, px)
                        .iter()
                        .map(|&id| 1.0 * self.space.get(id).var),
                );
                let row = model.add_constraint(expr, Cmp::Le, 1.0);
                self.conflict_row_at.insert((fiber, px), row);
                match self.conflict_rows.iter_mut().find(|(f, _)| *f == fiber) {
                    Some((_, rows)) => rows.push(row),
                    None => self.conflict_rows.push((fiber, vec![row])),
                }
            }
            model.end_group();
        }
        (total, wanted)
    }

    /// Solves (or re-solves) the standing planning model. Warm-starts
    /// from the previous basis when one is available.
    pub fn solve(&mut self, opts: &SolveOptions) -> Option<ExactPlan> {
        let (sol, stats) = self.solver.solve(opts);
        match sol.status {
            Status::Optimal => {}
            Status::NodeLimit if !sol.objective.is_nan() => {}
            // `Error` means the model itself was malformed (NaN
            // coefficient, inverted bounds, …) — a bug in this
            // formulation, not an infeasible instance; fold it into
            // `None` like the others but keep the arm explicit so the
            // distinction is visible here.
            Status::Error => {
                self.solution = None;
                return None;
            }
            _ => {
                self.solution = None;
                return None;
            }
        }
        let link_ids = &self.link_ids;
        let wavelengths = self.space.extract(&sol, |slot| link_ids[slot]);
        let plan = ExactPlan {
            objective: sol.objective,
            wavelengths,
            stats,
        };
        self.solution = Some(sol);
        Some(plan)
    }

    /// §8 restoration as a mutation of the standing planning model.
    ///
    /// Requires a prior successful [`solve`](Self::solve). The mutation:
    ///
    /// 1. pins every surviving planned wavelength (`γ = 1`), bans every
    ///    candidate whose path crosses a cut fiber and every unselected
    ///    candidate on unaffected links (`γ = 0`) — unaffected links keep
    ///    exactly their planned wavelengths;
    /// 2. deactivates the affected links' `capacity` rows (their demand
    ///    can no longer be asserted) and the cut fibers' `conflict` rows
    ///    (that spectrum no longer exists);
    /// 3. arms the restoration caps of each affected link: restored rate
    ///    `≤ c'_e` (7) and restored count `≤ N_e` (+`extra_spares`) (8),
    ///    written into the link's one borrowed row pair (allocated on
    ///    its first failure), so repeated mutations never grow the model;
    /// 4. flips the objective to maximize restored capacity and re-solves
    ///    **warm** from the planning basis.
    ///
    /// Surviving wavelengths stay pinned inside the active conflict rows,
    /// so the residual-spectrum constraint (9) is enforced structurally.
    /// The candidate set is the standing enumeration restricted to the
    /// §8 restoration path set `P'_{e,k}` (the K shortest paths avoiding
    /// the cut, recomputed here). Restoration paths the standing space
    /// lacks — a simultaneous multi-fiber cut on any build, or any cut
    /// on a plain [`build`](Self::build) — are generated **on demand**
    /// as extra γ columns
    /// before the pins are placed, so the mutated model's feasible set
    /// always equals the from-scratch §8 model's and their optima
    /// coincide; with [`build_restorable`](Self::build_restorable) and a
    /// single-fiber cut nothing is missing and the solve stays warm.
    /// `optical` must be the graph the model was built on. The mutation
    /// is fully reverted before returning, leaving the standing model
    /// solvable as a planning model again. A multi-fiber scenario is one
    /// mutation whatever the order of its cuts: restoring a k-cut as k
    /// single-cut mutations would let the first open candidates on a
    /// fiber the next one takes down (`tests/restore_mutation.rs` pins
    /// the 2-cut case).
    ///
    /// # Panics
    /// After a successful solve, if `extra_spares` is neither empty nor
    /// one entry per IP link.
    pub fn restore_after_cut(
        &mut self,
        optical: &Graph,
        scenario: &FailureScenario,
        extra_spares: &[u32],
        opts: &SolveOptions,
    ) -> Option<MutatedRestoration> {
        let sol = self.solution.clone()?;
        // Columns generated by an earlier mutation postdate the planning
        // solution — they are unselected by construction.
        let selected = |var: Var| var.0 < sol.values.len() && sol.value(var) > 0.5;
        let crosses = |space: &WavelengthVarSpace, g: &GammaVar| scenario.severs(space.path_of(g));

        // The selected γ in γ order: the affected links come out in the
        // order their cap-row pairs are allocated below.
        let lit = (self.space.gammas().iter().filter(|g| selected(g.var)))
            .map(|g| (g.slot, g.format.data_rate_gbps, self.space.path_of(g)));
        let ledger = scenario.assess(lit, extra_spares, self.link_ids.len());
        let affected_gbps = ledger.affected_gbps;
        if affected_gbps == 0 {
            return Some(MutatedRestoration {
                objective: 0.0,
                restored_gbps: 0,
                affected_gbps: 0,
                wavelengths: Vec::new(),
                added_columns: 0,
                stats: SolverStats::default(),
            });
        }

        // §8 candidate paths per affected link, with on-demand
        // banned-path columns: a simultaneous-cut scenario whose detours
        // were not pre-enumerated extends the standing space here
        // instead of forcing a from-scratch rebuild. The layout change
        // drops the basis (this solve runs cold) but every row, group,
        // and handle survives — still the mutation path, and the
        // refreshed basis re-warms the solve after next.
        let banned = scenario.banned();
        let hit_slots = ledger.hit.iter().map(|h| h.link);
        let (added_columns, wanted) = self.ensure_restoration_columns(optical, &banned, hit_slots);

        // Restricting the free variables to exactly the §8 path set is
        // what makes the mutated model match the from-scratch build
        // (which enumerates precisely these paths).
        let restore_paths: HashMap<usize, HashSet<Vec<EdgeId>>> = wanted
            .into_iter()
            .map(|(slot, paths)| (slot, paths.into_iter().map(|p| p.edges).collect()))
            .collect();

        // (1) pin survivors; ban cut paths, unaffected non-selections and
        // candidates outside the §8 restoration path set.
        let mut candidates: Vec<GammaId> = Vec::new();
        let model = self.solver.model_mut();
        for (i, g) in self.space.gammas().iter().enumerate() {
            let id = GammaId(i);
            if crosses(&self.space, g) {
                model.set_var_bounds(g.var, 0.0, 0.0);
            } else if selected(g.var) {
                model.set_var_bounds(g.var, 1.0, 1.0);
            } else if restore_paths
                .get(&g.slot)
                .is_some_and(|set| set.contains(&self.space.path_of(g).edges))
            {
                // Free: a restoration candidate (restoration-only
                // columns arrive pinned to 0 and must be re-opened).
                model.set_var_bounds(g.var, 0.0, 1.0);
                candidates.push(id);
            } else {
                model.set_var_bounds(g.var, 0.0, 0.0);
            }
        }

        // (2) retire the rows the failure invalidates — one batched
        // multi-row ban covering every affected capacity row and every
        // cut fiber's conflict rows, so a k-fiber scenario is a single
        // mutation, not k sequential ones.
        let banned_rows: Vec<RowId> = (ledger.hit.iter())
            .map(|h| self.capacity_rows[h.link])
            .chain(
                self.conflict_rows
                    .iter()
                    .filter(|(fiber, _)| banned.contains(fiber))
                    .flat_map(|(_, rows)| rows.iter().copied()),
            )
            .collect();
        for &row in &banned_rows {
            model.deactivate_row(row);
        }

        // (3) write the §8 caps over the candidates of each affected
        // link into its borrowed row pair; a link failing for the first
        // time gets its pair appended first, under named groups on the
        // standing model.
        let mut caps: Vec<RowId> = Vec::new();
        for hit in &ledger.hit {
            let slot = hit.link;
            let cands: Vec<GammaId> = candidates
                .iter()
                .copied()
                .filter(|&id| self.space.get(id).slot == slot)
                .collect();
            let rate = LinExpr::sum(cands.iter().map(|&id| {
                let g = self.space.get(id);
                f64::from(g.format.data_rate_gbps) * g.var
            }));
            let count = LinExpr::sum(cands.iter().map(|&id| 1.0 * self.space.get(id).var));
            let (rate_row, count_row) = *self.cap_rows[slot].get_or_insert_with(|| {
                model.group("restore_rate");
                let rate_row = model.add_constraint(LinExpr::zero(), Cmp::Le, 0.0);
                model.group("restore_count");
                let count_row = model.add_constraint(LinExpr::zero(), Cmp::Le, 0.0);
                model.end_group();
                (rate_row, count_row)
            });
            model.rewrite_row(rate_row, rate, hit.lost_gbps as f64);
            model.rewrite_row(count_row, count, f64::from(hit.spares));
            caps.extend([rate_row, count_row]);
        }

        // (4) maximize restored capacity, re-solve warm. The vanishing
        // per-candidate perturbation (≪ the 100 Gbps rate quantum in
        // total) breaks ties between equal-rate placements toward lower
        // enumeration order, so warm and cold solves of the same mutation
        // land on the same incumbent set. Quadratic in the position, not
        // linear: permuting the channels of two equal-width placements
        // shifts positions by equal-and-opposite amounts, which a linear
        // weight cannot see, while the square's cross-term can.
        let restore_obj = LinExpr::sum(candidates.iter().enumerate().map(|(pos, &id)| {
            let g = self.space.get(id);
            let p = (pos + 1) as f64;
            (f64::from(g.format.data_rate_gbps) - 1e-6 * p * p) * g.var
        }));
        model.set_objective(Sense::Maximize, restore_obj);
        let (rsol, stats) = self.solver.solve(opts);

        // Revert the mutation: the standing model is a planning model
        // again (the cap pairs stay allocated but inactive until their
        // link fails again, keeping every RowId stable). Generated
        // restoration-only columns go back to their pinned-zero rest
        // state so the planning optimum is untouched by column
        // generation.
        let model = self.solver.model_mut();
        for (i, g) in self.space.gammas().iter().enumerate() {
            let upper = if i < self.restore_only_from { 1.0 } else { 0.0 };
            model.set_var_bounds(g.var, 0.0, upper);
        }
        for &row in &banned_rows {
            model.activate_row(row);
        }
        for &row in &caps {
            model.deactivate_row(row);
        }
        model.set_objective(Sense::Minimize, self.objective.clone());

        match rsol.status {
            Status::Optimal => {}
            Status::NodeLimit if !rsol.objective.is_nan() => {}
            _ => return None,
        }
        let wavelengths: Vec<Wavelength> = candidates
            .iter()
            .filter(|&&id| rsol.value(self.space.get(id).var) > 0.5)
            .map(|&id| {
                let g = self.space.get(id);
                Wavelength {
                    link: self.link_ids[g.slot],
                    path_index: g.path_index,
                    path: self.space.path_of(g).clone(),
                    format: g.format,
                    channel: g.channel(),
                }
            })
            .collect();
        // Recompute the objective from the incumbent set: exact integer
        // arithmetic in f64, immune to the last-bit drift different pivot
        // sequences (warm vs cold) leave on the solver's running value.
        let restored_gbps: u64 = wavelengths
            .iter()
            .map(|w| u64::from(w.format.data_rate_gbps))
            .sum();
        Some(MutatedRestoration {
            objective: restored_gbps as f64,
            restored_gbps,
            affected_gbps,
            wavelengths,
            added_columns,
            stats,
        })
    }
}

/// Solves Algorithm 1 exactly. Returns `None` when the instance is
/// infeasible (or the node limit was exhausted without an incumbent —
/// callers size their instances to avoid this; see module docs).
pub fn solve_exact(
    scheme: Scheme,
    optical: &Graph,
    ip: &IpTopology,
    cfg: &PlannerConfig,
    opts: &SolveOptions,
) -> Option<ExactPlan> {
    PlanModel::build(scheme, optical, ip, cfg).solve(opts)
}

impl ExactPlan {
    /// Number of transponder pairs in the optimum.
    pub fn transponder_count(&self) -> usize {
        self.wavelengths.len()
    }

    /// Spectrum usage `Σ λ·Y`, GHz.
    pub fn spectrum_usage_ghz(&self) -> f64 {
        self.wavelengths
            .iter()
            .map(|w| w.format.spacing.ghz())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexwan_optical::spectrum::SpectrumGrid;

    fn cfg(pixels: u32) -> PlannerConfig {
        PlannerConfig {
            grid: SpectrumGrid::new(pixels),
            k_paths: 2,
            ..Default::default()
        }
    }

    fn opts() -> SolveOptions {
        SolveOptions {
            max_nodes: 20_000,
            ..Default::default()
        }
    }

    #[test]
    fn single_link_matches_hand_optimum() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge(a, b, 200);
        let mut ip = IpTopology::new();
        ip.add_link(a, b, 800);
        let exact = solve_exact(Scheme::FlexWan, &g, &ip, &cfg(16), &opts()).unwrap();
        // One 800 G @ 125 GHz: objective 1 + 0.125.
        assert_eq!(exact.transponder_count(), 1);
        assert!((exact.objective - 1.125).abs() < 1e-6);
    }

    /// What makes an exact solve cheap per pivot: a FlexWAN basis is
    /// mostly slack, so its LU factors hold a few entries per row. On the
    /// 4-node ring-plus-chord grids of the benchmark's `exact_plan` table
    /// a refactorization stores ≈ 2.7·m numbers; fill, or a dense path
    /// coming back, shows here as a count before it shows as wall-clock.
    #[test]
    fn basis_factors_of_the_ring_instances_stay_sparse() {
        let mut g = Graph::new();
        let [a, b, c, d] = ["a", "b", "c", "d"].map(|n| g.add_node(n));
        g.add_edge(a, b, 420);
        g.add_edge(b, c, 360);
        g.add_edge(c, d, 510);
        g.add_edge(d, a, 280);
        g.add_edge(a, c, 760);
        for (pixels, ab, ac) in [
            (12, 400, 400),
            (12, 100, 300),
            (16, 400, 400),
            (16, 200, 300),
        ] {
            let mut ip = IpTopology::new();
            ip.add_link(a, b, ab);
            ip.add_link(a, c, ac);
            let mut pm = PlanModel::build(Scheme::FlexWan, &g, &ip, &cfg(pixels));
            let m = pm.model().num_constraints() as u64;
            let stats = pm.solve(&SolveOptions::default()).unwrap().stats;
            assert!(stats.refactorizations > 0 && stats.nodes > 1, "{stats}");
            assert!(
                stats.factor_nonzeros >= m * stats.refactorizations
                    && stats.factor_nonzeros <= 4 * m * stats.refactorizations,
                "{pixels} px {ab}/{ac}: m = {m}\n{stats}"
            );
        }
    }

    #[test]
    fn conflict_forces_second_fiber_or_infeasible() {
        // One 10-px fiber, two 800 G links over it at 200 km: each needs
        // 10 px → cannot both fit → infeasible.
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge(a, b, 200);
        let mut ip = IpTopology::new();
        ip.add_link(a, b, 800);
        ip.add_link(a, b, 800);
        assert!(solve_exact(Scheme::FlexWan, &g, &ip, &cfg(10), &opts()).is_none());
        // With a parallel fiber the instance becomes feasible.
        g.add_edge(a, b, 240);
        let exact = solve_exact(Scheme::FlexWan, &g, &ip, &cfg(11), &opts()).unwrap();
        assert_eq!(exact.transponder_count(), 2);
    }

    #[test]
    fn fixed_grid_alignment_in_exact_model() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge(a, b, 500);
        let mut ip = IpTopology::new();
        ip.add_link(a, b, 300);
        let exact = solve_exact(Scheme::Radwan, &g, &ip, &cfg(18), &opts()).unwrap();
        assert_eq!(exact.transponder_count(), 1); // one 300 G BVT
        for w in &exact.wavelengths {
            assert_eq!(w.channel.start % 6, 0);
        }
    }

    #[test]
    fn multi_fiber_consistency() {
        // Two-hop path: the chosen slots must be identical on both fibers,
        // which the formulation guarantees structurally; verify via the
        // extracted wavelengths' single channel.
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge(a, b, 100);
        g.add_edge(b, c, 100);
        let mut ip = IpTopology::new();
        ip.add_link(a, c, 400);
        let exact = solve_exact(Scheme::FlexWan, &g, &ip, &cfg(8), &opts()).unwrap();
        assert_eq!(exact.transponder_count(), 1);
        assert_eq!(exact.wavelengths[0].path.num_hops(), 2);
    }

    #[test]
    fn standing_model_restores_the_3_3_example_by_mutation() {
        // §3.3's square: primary a–b (600 km) plus detour a–c–b (1200 km).
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge(a, b, 600);
        g.add_edge(a, c, 600);
        g.add_edge(c, b, 600);
        let mut ip = IpTopology::new();
        ip.add_link(a, b, 300);
        let mut pm = PlanModel::build(Scheme::FlexWan, &g, &ip, &cfg(16));
        let plan = pm.solve(&opts()).unwrap();
        assert_eq!(plan.transponder_count(), 1);

        let cut = FailureScenario {
            id: 0,
            cuts: vec![EdgeId(0)],
            probability: 1.0,
        };
        // The exact planner provisions one 400 G @ 75 GHz wavelength
        // (same cost as 300 G @ 75 GHz, more capacity).
        let r = pm.restore_after_cut(&g, &cut, &[], &opts()).unwrap();
        assert_eq!(r.affected_gbps, 400);
        assert_eq!(r.restored_gbps, 400); // FlexWAN revives everything
        for w in &r.wavelengths {
            assert!(!w.path.uses_edge(EdgeId(0)));
            assert!(w.format.reach_km >= w.path.length_km);
        }

        // The mutation reverts fully: the standing model re-solves to the
        // same planning optimum.
        let again = pm.solve(&opts()).unwrap();
        assert_eq!(again.objective.to_bits(), plan.objective.to_bits());
        assert_eq!(again.wavelengths, plan.wavelengths);
    }

    #[test]
    #[should_panic(expected = "extra_spares must be empty or hold one entry per IP link")]
    fn mutation_refuses_short_extra_spares() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge(a, b, 600);
        g.add_edge(a, c, 600);
        g.add_edge(c, b, 600);
        let mut ip = IpTopology::new();
        ip.add_link(a, b, 300);
        ip.add_link(a, c, 100);
        let mut pm = PlanModel::build(Scheme::FlexWan, &g, &ip, &cfg(16));
        pm.solve(&opts()).unwrap();
        let cut = FailureScenario {
            id: 0,
            cuts: vec![EdgeId(0)],
            probability: 1.0,
        };
        pm.restore_after_cut(&g, &cut, &[1], &opts());
    }

    #[test]
    fn mutation_without_a_solve_is_refused() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge(a, b, 200);
        let mut ip = IpTopology::new();
        ip.add_link(a, b, 800);
        let mut pm = PlanModel::build(Scheme::FlexWan, &g, &ip, &cfg(16));
        let cut = FailureScenario {
            id: 0,
            cuts: vec![EdgeId(0)],
            probability: 1.0,
        };
        assert!(pm.restore_after_cut(&g, &cut, &[], &opts()).is_none());
    }

    /// A 5-node ring: a–b has a 2-hop detour (a–e–b) and a 3-hop detour
    /// (a–d–c–b), so cutting the primary *and* the short detour at once
    /// leaves a restoration path no single-fiber KSP enumeration saw.
    fn ring5() -> (Graph, IpTopology) {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        let e = g.add_node("e");
        g.add_edge(a, b, 300); // 0: primary
        g.add_edge(a, e, 300); // 1
        g.add_edge(e, b, 300); // 2: a–e–b detour
        g.add_edge(a, d, 300); // 3
        g.add_edge(d, c, 300); // 4
        g.add_edge(c, b, 300); // 5: a–d–c–b detour
        let mut ip = IpTopology::new();
        ip.add_link(a, b, 300);
        (g, ip)
    }

    #[test]
    fn simultaneous_cut_generates_columns_and_matches_rebuild() {
        let (g, ip) = ring5();
        let pc = PlannerConfig {
            k_paths: 1, // keep the long detour out of the standing space
            ..cfg(16)
        };
        let mut pm = PlanModel::build_restorable(Scheme::FlexWan, &g, &ip, &pc);
        let plan = pm.solve(&opts()).unwrap();
        let vars_before = pm.model().num_vars();

        // Cut the primary and the short detour simultaneously.
        let cut = FailureScenario {
            id: 7,
            cuts: vec![EdgeId(0), EdgeId(1)],
            probability: 1.0,
        };
        let r = pm.restore_after_cut(&g, &cut, &[], &opts()).unwrap();
        assert!(
            r.added_columns > 0,
            "the a–d–c–b detour must be generated on demand"
        );
        assert!(pm.model().num_vars() > vars_before);
        // The planner provisions one 400 G @ 75 GHz wavelength for the
        // 300 G demand (same cost as 300 G @ 75 GHz, more capacity).
        assert_eq!(r.affected_gbps, 400);
        assert_eq!(r.restored_gbps, 400, "FlexWAN revives the link via a–d–c–b");
        for w in &r.wavelengths {
            assert!(!w.path.uses_edge(EdgeId(0)) && !w.path.uses_edge(EdgeId(1)));
            assert!(w.format.reach_km >= w.path.length_km);
        }

        // Same scenario on a from-scratch standing model whose space was
        // *pre-built* with both detours: optima must coincide.
        let wide = PlannerConfig { k_paths: 2, ..pc };
        let mut full = PlanModel::build_restorable(Scheme::FlexWan, &g, &ip, &wide);
        full.solve(&opts()).unwrap();
        let f = full.restore_after_cut(&g, &cut, &[], &opts()).unwrap();
        assert_eq!(f.added_columns, 0, "wide build already has the detour");
        assert_eq!(r.restored_gbps, f.restored_gbps);
        assert_eq!(r.affected_gbps, f.affected_gbps);

        // Back to back, with no planning solve in between: the generated
        // columns are past the end of the stored planning solution.
        let r1 = pm.restore_after_cut(&g, &cut, &[], &opts()).unwrap();
        assert_eq!((r1.added_columns, &r1.wavelengths), (0, &r.wavelengths));

        // Column generation must not disturb the standing planning
        // optimum: re-solving reproduces the original plan bit-for-bit.
        let again = pm.solve(&opts()).unwrap();
        assert_eq!(again.objective.to_bits(), plan.objective.to_bits());
        assert_eq!(again.wavelengths, plan.wavelengths);

        // The same scenario again adds nothing (columns are remembered)
        // and reproduces the same restoration.
        let r2 = pm.restore_after_cut(&g, &cut, &[], &opts()).unwrap();
        assert_eq!(r2.added_columns, 0);
        assert_eq!(r2.restored_gbps, r.restored_gbps);
        assert_eq!(r2.wavelengths, r.wavelengths);
    }

    /// Constraints (7)/(8) exist once per failed link, not once per
    /// failure ever seen: a standing model that restores scenario after
    /// scenario keeps the size its first pass gave it, and what it
    /// answers on the tenth pass is what a fresh model answers.
    #[test]
    fn repeated_restoration_borrows_its_cap_rows() {
        // The churn drill backbone: two IP links, three routes each.
        let mut g = Graph::new();
        let [a, b, c, d] = ["a", "b", "c", "d"].map(|n| g.add_node(n));
        g.add_edge(a, b, 400);
        g.add_edge(b, c, 400);
        g.add_edge(a, c, 900);
        g.add_edge(c, d, 400);
        g.add_edge(a, d, 900);
        let mut ip = IpTopology::new();
        ip.add_link(a, c, 300);
        ip.add_link(a, d, 200);
        let scenarios: Vec<FailureScenario> = (0..5)
            .map(|f| vec![EdgeId(f)])
            .chain([[0, 1], [0, 2], [2, 4]].map(|p| p.map(EdgeId).to_vec()))
            .enumerate()
            .map(|(id, cuts)| FailureScenario {
                id,
                cuts,
                probability: 1.0,
            })
            .collect();

        let standing = || {
            let mut pm = PlanModel::build_restorable(Scheme::FlexWan, &g, &ip, &cfg(8));
            pm.solve(&opts()).unwrap();
            pm
        };
        let mut pm = standing();
        let mut rows_after_pass = Vec::new();
        let mut last = Vec::new();
        for _pass in 0..10 {
            last = scenarios
                .iter()
                .map(|s| pm.restore_after_cut(&g, s, &[], &opts()).unwrap())
                .collect();
            rows_after_pass.push(pm.model().num_constraints());
        }
        assert_eq!(
            rows_after_pass[0], rows_after_pass[9],
            "{rows_after_pass:?}"
        );
        let mut cap_rows = 0;
        for group in ["restore_rate", "restore_count"] {
            let id = pm.model().find_group(group).unwrap();
            let rows = pm.model().group_rows(id).len();
            assert!(rows <= ip.num_links(), "{group}: {rows} rows");
            cap_rows += rows;
        }
        assert_eq!(
            pm.model().num_active_constraints(),
            rows_after_pass[9] - cap_rows,
            "between mutations only the cap rows rest inactive"
        );
        assert!(last.iter().any(|r| r.affected_gbps > 0));
        for (s, tenth) in scenarios.iter().zip(&last) {
            let fresh = standing().restore_after_cut(&g, s, &[], &opts()).unwrap();
            assert_eq!(tenth.wavelengths, fresh.wavelengths, "cuts {:?}", s.cuts);
            assert_eq!(tenth.objective.to_bits(), fresh.objective.to_bits());
        }
    }

    /// A cut that hits two links for the first time allocates their cap
    /// pairs in γ order — ascending slot — each carrying its link's
    /// `c'_e`: the order fixes every later `RowId` and so the basis.
    #[test]
    fn first_cap_rows_are_allocated_in_gamma_order() {
        let mut g = Graph::new();
        let [a, b, c, d] = ["a", "b", "c", "d"].map(|n| g.add_node(n));
        g.add_edge(a, b, 400);
        g.add_edge(b, c, 400);
        g.add_edge(a, c, 900);
        g.add_edge(c, d, 400);
        g.add_edge(a, d, 900);
        let mut ip = IpTopology::new();
        ip.add_link(a, c, 300);
        ip.add_link(a, d, 200);
        let mut told_apart = 0;
        for cut in crate::scenario::k_cut_scenarios(&g, 2) {
            let mut pm = PlanModel::build_restorable(Scheme::FlexWan, &g, &ip, &cfg(8));
            let plan = pm.solve(&opts()).unwrap();
            pm.restore_after_cut(&g, &cut, &[], &opts()).unwrap();
            // c'_e per link, ascending link index.
            let lost: Vec<f64> = (0..ip.num_links())
                .map(|slot| {
                    let hit = plan.wavelengths.iter().filter(|w| {
                        w.link.0 as usize == slot && cut.cuts.iter().any(|&e| w.path.uses_edge(e))
                    });
                    f64::from(hit.map(|w| w.format.data_rate_gbps).sum::<u32>())
                })
                .filter(|&gbps| gbps > 0.0)
                .collect();
            let rows = (pm.model().find_group("restore_rate"))
                .map_or(&[][..], |id| pm.model().group_rows(id));
            let rhs: Vec<f64> = rows.iter().map(|&row| pm.model().row(row).rhs).collect();
            assert_eq!(rhs, lost, "cuts {:?}", cut.cuts);
            told_apart += usize::from(lost.len() == 2 && lost[0] != lost[1]);
        }
        assert!(
            told_apart > 0,
            "no 2-cut hit both links with distinct losses"
        );
    }

    #[test]
    fn ensure_columns_prewarms_without_shifting_planning() {
        let (g, ip) = ring5();
        let pc = PlannerConfig {
            k_paths: 1,
            ..cfg(16)
        };
        let mut pm = PlanModel::build_restorable(Scheme::FlexWan, &g, &ip, &pc);
        let plan = pm.solve(&opts()).unwrap();
        let cut = FailureScenario {
            id: 7,
            cuts: vec![EdgeId(0), EdgeId(1)],
            probability: 1.0,
        };
        let mut prewarm = || pm.ensure_restoration_columns(&g, &cut.banned(), 0..ip.num_links());
        assert!(prewarm().0 > 0);
        assert_eq!(prewarm().0, 0, "idempotent");
        // Pre-warmed columns stay pinned: planning is unchanged.
        let again = pm.solve(&opts()).unwrap();
        assert_eq!(again.objective.to_bits(), plan.objective.to_bits());
        assert_eq!(again.wavelengths, plan.wavelengths);
        // And the restoration that needs them adds nothing further.
        let r = pm.restore_after_cut(&g, &cut, &[], &opts()).unwrap();
        assert_eq!(r.added_columns, 0);
        assert_eq!(r.restored_gbps, r.affected_gbps);
    }

    #[test]
    fn change_demand_warm_resolves() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge(a, b, 200);
        let mut ip = IpTopology::new();
        let l = ip.add_link(a, b, 400);
        let mut pm = PlanModel::build(Scheme::FlexWan, &g, &ip, &cfg(24));
        let p1 = pm.solve(&opts()).unwrap();

        pm.change_demand(l, 800);
        let p2 = pm.solve(&opts()).unwrap();
        let carried: u64 = p2
            .wavelengths
            .iter()
            .map(|w| u64::from(w.format.data_rate_gbps))
            .sum();
        assert!(carried >= 800, "re-solve must meet the raised demand");
        assert!(p2.objective > p1.objective);

        // Matches a from-scratch build at the new demand, bit-for-bit.
        let mut ip2 = ip.clone();
        ip2.set_demand(l, 800);
        let scratch = PlanModel::build(Scheme::FlexWan, &g, &ip2, &cfg(24))
            .solve(&opts())
            .unwrap();
        assert_eq!(p2.objective.to_bits(), scratch.objective.to_bits());
    }

    #[test]
    fn unaffected_cut_restores_trivially() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge(a, b, 600);
        g.add_edge(a, c, 600);
        g.add_edge(c, b, 600);
        let mut ip = IpTopology::new();
        ip.add_link(a, b, 300);
        let mut pm = PlanModel::build(Scheme::FlexWan, &g, &ip, &cfg(16));
        pm.solve(&opts()).unwrap();
        // The plan rides the primary; cutting the unused detour loses
        // nothing.
        let cut = FailureScenario {
            id: 1,
            cuts: vec![EdgeId(1)],
            probability: 1.0,
        };
        let r = pm.restore_after_cut(&g, &cut, &[], &opts()).unwrap();
        assert_eq!(r.affected_gbps, 0);
        assert_eq!(r.restored_gbps, 0);
        assert!(r.wavelengths.is_empty());
    }
}
