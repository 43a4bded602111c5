//! The exact restoration formulation of §8 (maximize restored capacity
//! under constraints (7)–(13)), built on the shared [`crate::opt`]
//! variable-space layer over `flexwan-solver`.
//!
//! As with planning, γ'-variables are pure binaries per (affected link,
//! restoration path, format, aligned start pixel); λ' and ξ' are
//! substitutions. The residual spectrum `φ_w` (slot status after planning
//! minus the failed wavelengths' reclaimed spectrum) enters constraint (9)
//! as the variable space's admission filter. Used to validate the greedy
//! restorer on small instances; the *mutation* route to the same optimum
//! lives on [`crate::planning::PlanModel`].

use flexwan_optical::format::TransponderFormat;
use flexwan_optical::spectrum::PixelRange;
use flexwan_solver::{LinExpr, Model, Sense, SolveOptions, SolverStats, Status};
use flexwan_topo::graph::Graph;
use flexwan_topo::ip::IpTopology;
use flexwan_topo::path::Path;

use crate::master::{Problem, RestrictedMaster, StopAt};
use crate::opt::{candidate_paths, LazyWavelengthVarSpace, WavelengthVarSpace};
use crate::planning::colgen::ColGenStats;
use crate::planning::heuristic::{Plan, PlannerConfig};
use crate::planning::spectrum::SpectrumState;
use crate::restore::footprint::Footprint;
use crate::restore::heuristic::restore;
use crate::scenario::{FailureScenario, LostLink};

/// An exact restoration optimum.
#[derive(Debug, Clone)]
pub struct ExactRestoration {
    /// Maximum restorable capacity, Gbps.
    pub restored_gbps: u64,
    /// Capacity lost to the scenario, Gbps.
    pub affected_gbps: u64,
    /// Solver counters for the exact solve (empty when no wavelength was
    /// affected and no MIP was built).
    pub stats: SolverStats,
}

/// The shared preamble of the enumerated and column-generation exact
/// restorers: residual spectrum after reclaiming failed wavelengths,
/// the hit links in first-seen order (the slot order of the variable
/// space), and each slot's banned-aware candidate paths.
struct RestorationInstance {
    spectrum: SpectrumState,
    per_link: Vec<LostLink>,
    affected_gbps: u64,
    paths_per_slot: Vec<Vec<Path>>,
}

fn build_instance(
    plan: &Plan,
    optical: &Graph,
    ip: &IpTopology,
    scenario: &FailureScenario,
    extra_spares: &[u32],
    cfg: &PlannerConfig,
) -> RestorationInstance {
    let mut footprint = Footprint::new(plan, optical, cfg);
    let ledger = footprint.sever(plan, scenario, extra_spares, ip.num_links());
    let banned = scenario.banned();
    let ends = ledger.hit.iter().map(|h| &ip.links()[h.link]);
    let queries = ends.map(|l| (l.src, l.dst, &banned));
    let paths_per_slot = candidate_paths(optical, cfg.k_paths, queries).collect();
    RestorationInstance {
        spectrum: footprint.spectrum,
        per_link: ledger.hit,
        affected_gbps: ledger.affected_gbps,
        paths_per_slot,
    }
}

/// Solves the §8 restoration MIP exactly. `extra_spares` as in
/// [`crate::restore::heuristic::restore`]. Returns `None` if the solver
/// hits its node limit with no incumbent (callers size instances small).
pub fn solve_exact(
    plan: &Plan,
    optical: &Graph,
    ip: &IpTopology,
    scenario: &FailureScenario,
    extra_spares: &[u32],
    cfg: &PlannerConfig,
    opts: &SolveOptions,
) -> Option<ExactRestoration> {
    let banned = scenario.banned();
    let pixels = cfg.grid.pixels();
    let inst = build_instance(plan, optical, ip, scenario, extra_spares, cfg);
    if inst.affected_gbps == 0 {
        return Some(ExactRestoration {
            restored_gbps: 0,
            affected_gbps: 0,
            stats: SolverStats::default(),
        });
    }
    let RestorationInstance {
        spectrum,
        per_link,
        affected_gbps,
        paths_per_slot,
    } = inst;

    let mut m = Model::new();
    // Starts overlapping residual occupancy on any fiber of the path are
    // pruned by the admission filter (constraint (9) pre-filter).
    let space = WavelengthVarSpace::enumerate(
        &mut m,
        plan.scheme,
        pixels,
        optical.num_edges(),
        "r_s",
        paths_per_slot,
        |path, range| path.edges.iter().all(|e| spectrum.mask(*e).is_free(range)),
    );

    // (7) restored ≤ c'_e and (8) transponders ≤ N_e, per affected link.
    for (slot, hit) in per_link.iter().enumerate() {
        m.group("restore_rate");
        m.le(space.rate_expr(slot), hit.lost_gbps as f64);
        m.group("restore_count");
        m.le(space.count_expr(slot), f64::from(hit.spares));
        m.end_group();
    }

    // (9)+(10)–(13): per (surviving fiber, slot) at most one restored
    // wavelength (residual occupancy already pruned structurally) —
    // single-candidate rows are vacuous here and skipped.
    m.group("conflict");
    space.conflict_rows(
        &mut m,
        optical
            .edges()
            .iter()
            .map(|e| e.id)
            .filter(|id| !banned.contains(id)),
        2,
    );
    m.end_group();

    // Maximize restored capacity.
    let obj = space.weighted_expr(|g| f64::from(g.format.data_rate_gbps));
    m.set_objective(Sense::Maximize, obj);
    let (sol, stats) = m.solve_with_stats(opts);
    match sol.status {
        Status::Optimal => {}
        Status::NodeLimit if !sol.objective.is_nan() => {}
        // Malformed-model sentinel: a formulation bug, not infeasibility.
        Status::Error => return None,
        _ => return None,
    }
    Some(ExactRestoration {
        restored_gbps: sol.objective.round() as u64,
        affected_gbps,
        stats,
    })
}

/// A restoration optimum produced by column generation, interchangeable
/// with [`solve_exact`]'s on converged runs.
#[derive(Debug, Clone)]
pub struct RestorationColGen {
    /// The optimum (same fields as the enumerated reference's).
    pub restoration: ExactRestoration,
    /// Column-generation counters (planning's [`ColGenStats`] — the
    /// restoration master reuses the whole loop shape; `lp_objective` is
    /// the LP **upper** bound of this maximization master).
    pub colgen: ColGenStats,
    /// Final `restore_count`-row duals per affected IP link
    /// `(link index, κ ≥ 0)`: the marginal restored Gbps one extra spare
    /// transponder on that link would buy — the price signal
    /// [`crate::restore::spares`] aggregates across the failure suite.
    pub count_duals: Vec<(usize, f64)>,
}

/// Restored capacity moves in whole transponder rates — every format is
/// a multiple of 100 Gbps — so an LP/IP gap under 100 certifies the
/// incumbent (with margin for LP roundoff).
const RATE_QUANTUM: f64 = 100.0;

/// The §8 MIP as the shared driver sees it: maximize restored rate over
/// `restore_rate` (rate, `≤ c'_e`) and `restore_count` (1, `≤ N_e`) rows.
/// The residual spectrum stays an *admission filter* exactly as in the
/// enumerated reference — the pricing oracle never proposes a start
/// overlapping surviving wavelengths, so conflicts can only arise
/// between restored columns.
struct Restoring {
    spectrum: SpectrumState,
}

impl Problem for Restoring {
    const SENSE: Sense = Sense::Maximize;
    const PREFIX: &'static str = "rcg_e";

    fn objective(&self, f: &TransponderFormat) -> f64 {
        f64::from(f.data_rate_gbps)
    }

    fn row_coefficients(&self, f: &TransponderFormat) -> Vec<f64> {
        vec![f64::from(f.data_rate_gbps), 1.0]
    }

    /// Maximization orientation: the `≤` rows carry duals `μ, κ, ν ≥ 0`
    /// and a column improves when its profit `rate·(1−μ) − κ − Σν` is
    /// positive, so the min-oriented oracle prices its negation.
    fn reduced_base(&self, f: &TransponderFormat, duals: &[f64]) -> f64 {
        let (mu, kappa) = (duals[0], duals[1]);
        let rate = f64::from(f.data_rate_gbps);
        -(rate * (1.0 - mu)) + kappa
    }

    fn admits(&self, path: &Path, range: &PixelRange) -> bool {
        path.edges
            .iter()
            .all(|e| self.spectrum.mask(*e).is_free(range))
    }

    /// Restored rates move in whole format quanta, so a gap under one
    /// quantum pins the optimum.
    fn certifies(&self, gap: f64) -> bool {
        gap < RATE_QUANTUM - 1e-3
    }
}

/// Solves the §8 restoration MIP exactly by column generation: a
/// restricted master seeded from the greedy restorer's wavelengths (those
/// realized on candidate paths), priced to LP optimality with
/// `restore_rate`/`restore_count`/conflict duals, integer-solved warm,
/// and gap-closed exactly as in [`crate::planning::colgen`]. On the
/// (degenerate, spectrum-saturated) instances where pricing stalls, the
/// returned optimum is the restricted master's and `colgen.fell_back` is
/// set. Returns `None` when the integer solver dies — same contract as
/// [`solve_exact`], whose enumerated model stays the parity reference.
pub fn solve_exact_colgen(
    plan: &Plan,
    optical: &Graph,
    ip: &IpTopology,
    scenario: &FailureScenario,
    extra_spares: &[u32],
    cfg: &PlannerConfig,
    opts: &SolveOptions,
) -> Option<RestorationColGen> {
    solve_impl(
        plan,
        optical,
        ip,
        scenario,
        extra_spares,
        cfg,
        opts,
        StopAt::IntegerOptimum,
    )
}

/// The converged restricted-master **LP** duals of the `restore_count`
/// rows, per affected IP link — the spare-pricing signal, at a fraction
/// of an exact solve's cost (no branch-and-bound, no gap closing).
/// Returns an empty vector when the scenario costs nothing or the LP
/// dies.
pub fn restoration_count_duals(
    plan: &Plan,
    optical: &Graph,
    ip: &IpTopology,
    scenario: &FailureScenario,
    cfg: &PlannerConfig,
    opts: &SolveOptions,
) -> Vec<(usize, f64)> {
    solve_impl(plan, optical, ip, scenario, &[], cfg, opts, StopAt::LpDuals)
        .map(|cg| cg.count_duals)
        .unwrap_or_default()
}

#[allow(clippy::too_many_arguments)]
fn solve_impl(
    plan: &Plan,
    optical: &Graph,
    ip: &IpTopology,
    scenario: &FailureScenario,
    extra_spares: &[u32],
    cfg: &PlannerConfig,
    opts: &SolveOptions,
    stop: StopAt,
) -> Option<RestorationColGen> {
    let pixels = cfg.grid.pixels();
    let RestorationInstance {
        spectrum,
        per_link,
        affected_gbps,
        paths_per_slot,
    } = build_instance(plan, optical, ip, scenario, extra_spares, cfg);
    // Master skeleton: (7) restored ≤ c'_e and (8) transponders ≤ N_e,
    // interleaved per affected link.
    let mut m = Model::new();
    let (rate, count) = (m.group("restore_rate"), m.group("restore_count"));
    for hit in &per_link {
        m.group("restore_rate");
        m.le(LinExpr::zero(), hit.lost_gbps as f64);
        m.group("restore_count");
        m.le(LinExpr::zero(), f64::from(hit.spares));
    }
    m.end_group();
    let lazy =
        LazyWavelengthVarSpace::new(plan.scheme, pixels, optical.num_edges(), paths_per_slot);
    let mut master = RestrictedMaster::new(Restoring { spectrum }, m, lazy, vec![rate, count]);
    if affected_gbps == 0 {
        // Nothing lost: an empty universe, no solve.
        return Some(RestorationColGen {
            restoration: ExactRestoration {
                restored_gbps: 0,
                affected_gbps: 0,
                stats: SolverStats::default(),
            },
            colgen: ColGenStats {
                lp_objective: 0.0,
                ..master.unpriced_stats()
            },
            count_duals: Vec::new(),
        });
    }

    // Seed: the greedy restorer's wavelengths that live on candidate
    // paths with on-menu formats. The all-zero point is feasible (every
    // row is `≤`), so unmatched wavelengths cost pricing rounds, never
    // correctness.
    let greedy = restore(plan, optical, ip, scenario, extra_spares, cfg);
    for r in &greedy.restored {
        let w = &r.wavelength;
        let li = w.link.0 as usize;
        let Some(slot) = per_link.iter().position(|hit| hit.link == li) else {
            continue;
        };
        if let Some(ki) = master.lazy().unadmitted_column(slot, w) {
            master.seed(slot, ki, w.format, w.channel.start);
        }
    }

    let out = master.run(opts, stop)?;
    let count_duals = master.model().group_duals(count, &out.lp_duals);
    Some(RestorationColGen {
        restoration: ExactRestoration {
            restored_gbps: out.incumbent.map_or(0, |s| s.objective.round() as u64),
            affected_gbps,
            stats: out.solver,
        },
        colgen: out.colgen,
        count_duals: per_link
            .iter()
            .zip(count_duals)
            .map(|(hit, (_, kappa))| (hit.link, kappa))
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planning::heuristic::plan;
    use crate::restore::heuristic::restore;
    use crate::scheme::Scheme;
    use flexwan_optical::spectrum::SpectrumGrid;
    use flexwan_topo::graph::{EdgeId, NodeId};

    fn square() -> (Graph, IpTopology) {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge(a, b, 600);
        g.add_edge(a, c, 600);
        g.add_edge(c, b, 600);
        let mut ip = IpTopology::new();
        ip.add_link(a, b, 300);
        (g, ip)
    }

    fn cfg(pixels: u32) -> PlannerConfig {
        PlannerConfig {
            grid: SpectrumGrid::new(pixels),
            k_paths: 2,
            ..Default::default()
        }
    }

    #[test]
    fn colgen_matches_enumerated_restoration() {
        let (g, ip) = square();
        let c = cfg(16);
        let p = plan(Scheme::FlexWan, &g, &ip, &c);
        for cut_edge in [0u32, 1, 2] {
            let cut = FailureScenario {
                id: cut_edge as usize,
                cuts: vec![EdgeId(cut_edge)],
                probability: 1.0,
            };
            let exact = solve_exact(&p, &g, &ip, &cut, &[], &c, &SolveOptions::default()).unwrap();
            let cg =
                solve_exact_colgen(&p, &g, &ip, &cut, &[], &c, &SolveOptions::default()).unwrap();
            assert!(
                !cg.colgen.fell_back,
                "cut {cut_edge}: pricing must converge"
            );
            assert_eq!(cg.restoration.restored_gbps, exact.restored_gbps);
            assert_eq!(cg.restoration.affected_gbps, exact.affected_gbps);
            if exact.affected_gbps > 0 {
                assert!(
                    cg.colgen.columns_in_master <= cg.colgen.universe_size,
                    "restricted master must not exceed the universe"
                );
            }
        }
    }

    /// One spare entry for two IP links: both exact restorers refuse it
    /// before building anything (it used to be an index panic, and only
    /// when the link past the slice's end was the one hit).
    fn short_spares(colgen: bool) {
        let (g, mut ip) = square();
        ip.add_link(NodeId(0), NodeId(2), 100);
        let c = cfg(16);
        let p = plan(Scheme::FlexWan, &g, &ip, &c);
        let cut = FailureScenario {
            id: 0,
            cuts: vec![EdgeId(0)],
            probability: 1.0,
        };
        let opts = SolveOptions::default();
        if colgen {
            solve_exact_colgen(&p, &g, &ip, &cut, &[1], &c, &opts);
        } else {
            solve_exact(&p, &g, &ip, &cut, &[1], &c, &opts);
        }
    }

    #[test]
    #[should_panic(expected = "extra_spares must be empty or hold one entry per IP link")]
    fn enumerated_restorer_refuses_short_extra_spares() {
        short_spares(false);
    }

    #[test]
    #[should_panic(expected = "extra_spares must be empty or hold one entry per IP link")]
    fn colgen_restorer_refuses_short_extra_spares() {
        short_spares(true);
    }

    #[test]
    fn colgen_restoration_with_spares_matches_enumerated() {
        let (g, ip) = square();
        let c = cfg(16);
        let p = plan(Scheme::FlexWan, &g, &ip, &c);
        let cut = FailureScenario {
            id: 0,
            cuts: vec![EdgeId(0)],
            probability: 1.0,
        };
        let exact = solve_exact(&p, &g, &ip, &cut, &[2, 2], &c, &SolveOptions::default()).unwrap();
        let cg =
            solve_exact_colgen(&p, &g, &ip, &cut, &[2, 2], &c, &SolveOptions::default()).unwrap();
        assert!(!cg.colgen.fell_back);
        assert_eq!(cg.restoration.restored_gbps, exact.restored_gbps);
    }

    #[test]
    fn exact_matches_greedy_on_easy_instance() {
        let (g, ip) = square();
        let c = cfg(16);
        let p = plan(Scheme::FlexWan, &g, &ip, &c);
        let cut = FailureScenario {
            id: 0,
            cuts: vec![EdgeId(0)],
            probability: 1.0,
        };
        let exact = solve_exact(&p, &g, &ip, &cut, &[], &c, &SolveOptions::default()).unwrap();
        let greedy = restore(&p, &g, &ip, &cut, &[], &c);
        assert_eq!(exact.affected_gbps, greedy.affected_gbps);
        assert_eq!(exact.restored_gbps, 300);
        assert_eq!(greedy.restored_gbps, exact.restored_gbps);
    }

    #[test]
    fn exact_restoration_bounded_by_affected() {
        let (g, ip) = square();
        let c = cfg(16);
        let p = plan(Scheme::FlexWan, &g, &ip, &c);
        let cut = FailureScenario {
            id: 0,
            cuts: vec![EdgeId(0)],
            probability: 1.0,
        };
        // Plenty of extra spares: constraint (7) still caps at affected.
        let exact = solve_exact(&p, &g, &ip, &cut, &[9, 9], &c, &SolveOptions::default()).unwrap();
        assert!(exact.restored_gbps <= exact.affected_gbps);
    }

    #[test]
    fn no_loss_when_unused_fiber_cut() {
        let (g, ip) = square();
        let c = cfg(16);
        let p = plan(Scheme::FlexWan, &g, &ip, &c);
        let cut = FailureScenario {
            id: 1,
            cuts: vec![EdgeId(1)],
            probability: 1.0,
        };
        let exact = solve_exact(&p, &g, &ip, &cut, &[], &c, &SolveOptions::default()).unwrap();
        assert_eq!(exact.affected_gbps, 0);
        assert_eq!(exact.restored_gbps, 0);
    }
}
