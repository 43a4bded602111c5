//! Column generation with dual-based pricing for Algorithm 1.
//!
//! [`super::mip`] enumerates the full γ universe up front — per link,
//! every candidate path × reachable format × aligned start — which is
//! millions of binaries on the full T-backbone and CERNET topologies.
//! This module solves the *same* integer program exactly without ever
//! materializing that universe: a **restricted master problem** (RMP)
//! holds only the columns proven useful so far, and a **pricing oracle**
//! ([`LazyWavelengthVarSpace::price`]) walks the implicit universe under
//! the restricted master's LP duals, admitting only columns with
//! negative reduced cost.
//!
//! The loop itself — price to LP optimality, branch, close the gap,
//! spectrum-`conflict` rows separated lazily — is the crate's one
//! column-generation driver (`master.rs`, DESIGN.md §12), shared with
//! the §8 restoration MIP. This module fills in what is Algorithm 1's
//! own:
//!
//! * **Rows.** Per link the `capacity` row `Σ d_j·γ ≥ c_e` plus two
//!   valid inequalities that keep branch & bound shallow on
//!   full-topology instances without changing the integer optimum: a
//!   transponder-count cut `Σγ ≥ ⌈c_e / d_max⌉` and a cost cut
//!   `Σ(1+εY)γ ≥ LB_e`, `LB_e` the exact min-cost demand cover over the
//!   link's union format menu (small unbounded-knapsack DP).
//! * **Reduced cost.** Under the `capacity` duals `μ_e ≥ 0`, the
//!   valid-cut duals `κ_e, σ_e ≥ 0` and the `conflict` duals `ν ≤ 0` a
//!   column prices at `(1+εY)(1−σ_e) − μ_e·d_j − κ_e + Σ_cells(−ν)`.
//! * **Seed.** The heuristic plan's wavelengths plus the 1+1 protection
//!   wavelengths that live on the master's K candidate paths — an
//!   integer-feasible start, so the RMP LP is feasible from round one.
//! * **Certificate.** Canonical objectives live on a grid of pitch
//!   `ε·12.5`; an LP/IP gap under 0.4 of it cannot hide a better plan.
//! * **Failure policy.** A seed that cannot cover demand, or a solve
//!   that dies, falls back to the enumerated [`super::mip`] model.
//!
//! Everything is deterministic at any thread count: the pricing scan
//! ties-breaks by universe order, admissions are sequential, and the
//! branch & bound is the repo's deterministic solver.

use std::collections::{HashMap, HashSet};

use flexwan_optical::format::TransponderFormat;
use flexwan_optical::spectrum::PixelRange;
use flexwan_solver::{LinExpr, Model, Sense, SolveOptions};
use flexwan_topo::graph::Graph;
use flexwan_topo::ip::IpTopology;
use flexwan_topo::path::Path;

use crate::master::{Outcome, Problem, RestrictedMaster, StopAt};
use crate::opt::{candidate_paths, LazyWavelengthVarSpace};
use crate::planning::ctx::PlanCtx;
use crate::planning::format_dp::FormatTable;
use crate::planning::heuristic::{plan, PlannerConfig};
use crate::planning::mip::{solve_exact, ExactPlan};
use crate::planning::spectrum::SpectrumState;
use crate::scheme::Scheme;
use crate::wavelength::Wavelength;

/// One pricing round of the convergence trace.
#[derive(Debug, Clone)]
pub struct PricingRound {
    /// Restricted-master LP value the round priced against.
    pub lp_objective: f64,
    /// Columns admitted this round (0 on the converged round).
    pub admitted: usize,
    /// Most negative reduced cost seen by the scan (`+∞` when none beat
    /// the threshold).
    pub reduced_min: f64,
}

/// Column-generation counters for one [`solve_exact_colgen`] run.
#[derive(Debug, Clone)]
pub struct ColGenStats {
    /// Columns seeded from the heuristic plan + 1+1 protection.
    pub columns_seeded: usize,
    /// Columns the pricing oracle admitted (all rounds, incl. gap).
    pub columns_priced_in: usize,
    /// LP pricing rounds until convergence (incl. re-convergence after
    /// gap admissions).
    pub pricing_rounds: u64,
    /// Gap-closing rounds after integer solves.
    pub gap_rounds: u64,
    /// Most negative reduced cost observed across every scan.
    pub reduced_cost_min: f64,
    /// Converged restricted-master LP value (the full-model LP bound).
    pub lp_objective: f64,
    /// Size of the implicit column universe the oracle priced over.
    pub universe_size: usize,
    /// Columns in the restricted master at termination.
    pub columns_in_master: usize,
    /// Spectrum-conflict rows materialized (vs one per occupied cell in
    /// the enumerated model).
    pub conflict_rows: usize,
    /// Per-round convergence trace, in order.
    pub rounds: Vec<PricingRound>,
    /// Whether the run could **not** certify optimality: the seed failed
    /// and the enumerated reference solved the instance instead, or
    /// pricing stalled on a degenerate spectrum-saturated master and the
    /// objective is only the restricted master's upper bound.
    pub fell_back: bool,
}

/// An exact optimum produced by column generation: the plan (objective
/// in canonical form, see [`canonical_objective`]) plus the CG counters.
#[derive(Debug, Clone)]
pub struct ColGenPlan {
    /// The optimum, interchangeable with [`solve_exact`]'s.
    pub plan: ExactPlan,
    /// Column-generation counters.
    pub colgen: ColGenStats,
}

/// The canonical Algorithm 1 objective of a wavelength set:
/// `N + ε·Σ Y` with the GHz sum taken over the set. Every spacing is a
/// multiple of 12.5 GHz — exactly representable, so the sum (and the
/// whole value) is bit-identical regardless of summation order. Both the
/// CG planner and the parity tests recompute objectives through this
/// helper, making "same optimum" a bitwise comparison.
pub fn canonical_objective(wavelengths: &[Wavelength], epsilon: f64) -> f64 {
    let ghz: f64 = wavelengths.iter().map(|w| w.format.spacing.ghz()).sum();
    wavelengths.len() as f64 + epsilon * ghz
}

/// The objective-value quantum under `epsilon`: distinct canonical
/// objectives differ by at least this much. Spacings are multiples of
/// 12.5 GHz, so values live on the grid `a + ε·12.5·b` (integers `a`,
/// `b`); when `1/(ε·12.5)` is integral that grid has pitch `ε·12.5`.
/// For an `epsilon` where it is not, returns 0 (the gap loop then never
/// takes the early exit and relies on pricing alone).
fn objective_quantum(epsilon: f64) -> f64 {
    let g = epsilon * 12.5;
    if g > 0.0 && (1.0 / g - (1.0 / g).round()).abs() < 1e-9 {
        g
    } else {
        0.0
    }
}

/// Algorithm 1 as the shared driver sees it: minimize `Σ (1+εY)γ` over
/// `capacity` (rate, `≥ c_e`), `count_lb` (1) and `cost_lb` (`1+εY`)
/// rows, every start admissible.
struct Planning {
    epsilon: f64,
    /// Largest LP/IP gap that cannot hide a better canonical objective.
    gap_break: f64,
}

impl Problem for Planning {
    const SENSE: Sense = Sense::Minimize;
    const PREFIX: &'static str = "cg_e";

    fn objective(&self, f: &TransponderFormat) -> f64 {
        1.0 + self.epsilon * f.spacing.ghz()
    }

    fn row_coefficients(&self, f: &TransponderFormat) -> Vec<f64> {
        vec![f64::from(f.data_rate_gbps), 1.0, self.objective(f)]
    }

    /// `(1+εY)(1−σ_e) − μ_e·d_j − κ_e` under the `capacity` dual `μ`, the
    /// `count_lb` dual `κ` and the `cost_lb` dual `σ`.
    fn reduced_base(&self, f: &TransponderFormat, duals: &[f64]) -> f64 {
        let (mu, kappa, sigma) = (duals[0], duals[1], duals[2]);
        let cost = self.objective(f);
        cost * (1.0 - sigma) - mu * f64::from(f.data_rate_gbps) - kappa
    }

    fn admits(&self, _: &Path, _: &PixelRange) -> bool {
        true
    }

    /// Gaps below one objective quantum cannot hide a better integer
    /// point at all.
    fn certifies(&self, gap: f64) -> bool {
        gap <= self.gap_break
    }
}

/// Exact min-cost cover of `demand_gbps` from `menu` with unlimited
/// multiplicity — the rhs of the per-link cost cut. Unbounded-knapsack
/// DP over 100 Gbps units (every format rate is a multiple of 100).
fn cover_lower_bound(menu: &[TransponderFormat], demand_gbps: u64, epsilon: f64) -> f64 {
    let units = demand_gbps.div_ceil(100) as usize;
    let mut dp = vec![f64::INFINITY; units + 1];
    dp[0] = 0.0;
    for u in 1..=units {
        for f in menu {
            let r = (f.data_rate_gbps / 100) as usize;
            let cost = 1.0 + epsilon * f.spacing.ghz();
            let c = dp[u.saturating_sub(r)] + cost;
            if c < dp[u] {
                dp[u] = c;
            }
        }
    }
    dp[units]
}

/// Solves Algorithm 1 exactly by column generation — same optimum as
/// [`solve_exact`] (the enumerated parity reference), reached without
/// materializing the γ universe. Returns `None` when the instance is
/// infeasible. The returned objective is the canonical
/// `N + ε·ΣY` recomputation ([`canonical_objective`]) — bit-identical
/// across warm/cold paths and thread counts.
///
/// Falls back to the enumerated model when the heuristic seed leaves the
/// restricted master infeasible (a sized-down pathological instance) or
/// a solve dies; `colgen.fell_back` records it.
pub fn solve_exact_colgen(
    scheme: Scheme,
    optical: &Graph,
    ip: &IpTopology,
    cfg: &PlannerConfig,
    opts: &SolveOptions,
) -> Option<ColGenPlan> {
    let pixels = cfg.grid.pixels();
    let none = HashSet::new();
    let queries = ip.links().iter().map(|l| (l.src, l.dst, &none));
    let paths_per_link = candidate_paths(optical, cfg.k_paths, queries).collect();
    let model_t = scheme.transponder();
    let lazy = LazyWavelengthVarSpace::new(scheme, pixels, optical.num_edges(), paths_per_link);

    // Master skeleton: capacity rows plus the two valid-cut rows per
    // link, over the union format menu of the link's candidate paths.
    let mut m = Model::new();
    let capacity = m.group("capacity");
    for link in ip.links() {
        m.ge(LinExpr::zero(), link.demand_gbps as f64);
    }
    let mut count_rhs = Vec::with_capacity(ip.links().len());
    let mut costlb_rhs = Vec::with_capacity(ip.links().len());
    for (li, link) in ip.links().iter().enumerate() {
        let mut union: Vec<TransponderFormat> = Vec::new();
        for ki in 0..lazy.space().paths(li).len() {
            for f in lazy.menu(li, ki) {
                if !union.contains(f) {
                    union.push(*f);
                }
            }
        }
        if link.demand_gbps == 0 {
            count_rhs.push(0.0);
            costlb_rhs.push(0.0);
            continue;
        }
        // Demand with no reachable format on any candidate path (an
        // empty union): the enumerated model is just as infeasible.
        let d_max = union.iter().map(|f| u64::from(f.data_rate_gbps)).max()?;
        count_rhs.push(link.demand_gbps.div_ceil(d_max) as f64);
        costlb_rhs.push(cover_lower_bound(&union, link.demand_gbps, cfg.epsilon));
    }
    let count_lb = m.group("count_lb");
    for &rhs in &count_rhs {
        m.ge(LinExpr::zero(), rhs);
    }
    let cost_lb = m.group("cost_lb");
    for &rhs in &costlb_rhs {
        m.ge(LinExpr::zero(), rhs);
    }
    m.end_group();
    let problem = Planning {
        epsilon: cfg.epsilon,
        gap_break: (objective_quantum(cfg.epsilon) * 0.4).max(1e-6),
    };
    let mut master = RestrictedMaster::new(problem, m, lazy, vec![capacity, count_lb, cost_lb]);

    // Seed phase. Three passes build an integer-feasible restricted
    // master so the very first RMP LP is feasible:
    //
    // 1. every heuristic-plan wavelength that lives in the master's
    //    universe (same candidate path by edge identity, aligned start,
    //    menu format) enters as-is;
    // 2. demand the matching lost — the heuristic plans over *routes*
    //    whose parallel-fiber realizations need not coincide with the
    //    master's K shortest *paths* — is repaired greedily: per
    //    under-covered link, DP-optimal format multisets placed
    //    first-fit on spectrum no admitted column occupies, so the
    //    repair never conflicts with pass 1;
    // 3. the 1+1 protection wavelengths that live in the universe join
    //    as optional extra columns (they may overlap working spectrum —
    //    the lazy conflict rows let the LP zero them).
    let heuristic = plan(scheme, optical, ip, cfg);
    let protected = PlanCtx::new(optical, cfg).plan_protected(scheme, ip);
    let slot_of: HashMap<_, _> = ip
        .links()
        .iter()
        .enumerate()
        .map(|(i, l)| (l.id, i))
        .collect();
    let align = scheme.alignment_pixels();
    // Spectrum every admitted column occupies on its own candidate path.
    let mut state = SpectrumState::new(cfg.grid, optical.num_edges());
    // Slot, candidate path and channel of a wavelength that is a
    // not-yet-admitted column of the master's universe.
    let member = |lazy: &LazyWavelengthVarSpace, w: &Wavelength| {
        let slot = *slot_of.get(&w.link)?;
        let ki = lazy.unadmitted_column(slot, w)?;
        let channel = PixelRange::new(w.channel.start, w.format.spacing);
        Some((slot, ki, lazy.space().paths(slot)[ki].clone(), channel))
    };
    let mut covered = vec![0u64; ip.links().len()];

    // Pass 1: matched heuristic wavelengths.
    for w in &heuristic.wavelengths {
        let Some((slot, ki, path, channel)) = member(master.lazy(), w) else {
            continue;
        };
        master.seed(slot, ki, w.format, channel.start);
        state
            .occupy_exact(&path, &channel)
            .expect("a heuristic plan's wavelengths never share a pixel of a fiber");
        covered[slot] += u64::from(w.format.data_rate_gbps);
    }

    // Pass 2: greedy first-fit repair of under-covered links.
    let mut seed_feasible = true;
    let mut table = FormatTable::new(model_t, cfg.epsilon);
    let mut formats = Vec::new();
    // `covered[slot]` is mutated mid-iteration — an enumerate() borrow
    // would fight the seed updates below.
    #[allow(clippy::needless_range_loop)]
    'slots: for slot in 0..ip.links().len() {
        let demand = ip.links()[slot].demand_gbps;
        'cover: while covered[slot] < demand {
            let need = (demand - covered[slot]).div_ceil(100) * 100;
            let num_paths = master.lazy().space().paths(slot).len();
            for ki in 0..num_paths {
                let path = &master.lazy().space().paths(slot)[ki];
                if !table.select_into(need, path.length_km, &mut formats) {
                    continue;
                }
                for f in &formats {
                    // A free window is never an admitted column: every
                    // column admitted so far occupies its own path.
                    if let Some(channel) = state.allocate(path, f.spacing, align) {
                        master.seed(slot, ki, *f, channel.start);
                        covered[slot] += u64::from(f.data_rate_gbps);
                        continue 'cover;
                    }
                }
            }
            // No format of any candidate path fits the residual
            // spectrum: the seed cannot certify feasibility.
            seed_feasible = false;
            break 'slots;
        }
    }

    // Pass 3: matched protection wavelengths (optional extras). Only
    // those conflict-free against every column already admitted enter —
    // `plan_protected` places its copies in its *own* spectrum state, so
    // an unfiltered import would overlap pass 1/2 on congested
    // instances, materializing thousands of conflict rows that bloat the
    // very first RMP LP for columns the LP would zero anyway.
    for w in &protected.protection {
        let Some((slot, ki, path, channel)) = member(master.lazy(), w) else {
            continue;
        };
        if path.edges.iter().all(|&e| state.mask(e).is_free(&channel)) {
            master.seed(slot, ki, w.format, channel.start);
            state
                .occupy_exact(&path, &channel)
                .expect("a window free on every fiber occupies cleanly");
        }
    }

    // A seed that could not certify coverage, or a solve that died on
    // the restricted master, hands the instance to the enumerated
    // reference (small instances only; full-topology heuristics always
    // seed).
    let run = if seed_feasible {
        master.run(opts, StopAt::IntegerOptimum)
    } else {
        None
    };
    let Some(Outcome {
        incumbent: Some(ip_sol),
        solver,
        colgen,
        ..
    }) = run
    else {
        let plan = solve_exact(scheme, optical, ip, cfg, opts)?;
        let objective = canonical_objective(&plan.wavelengths, cfg.epsilon);
        return Some(ColGenPlan {
            plan: ExactPlan { objective, ..plan },
            colgen: ColGenStats {
                fell_back: true,
                ..master.unpriced_stats()
            },
        });
    };

    let wavelengths = master
        .lazy()
        .space()
        .extract(&ip_sol, |slot| ip.links()[slot].id);
    let objective = canonical_objective(&wavelengths, cfg.epsilon);
    Some(ColGenPlan {
        plan: ExactPlan {
            objective,
            wavelengths,
            stats: solver,
        },
        colgen,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planning::format_dp::reachable_formats;
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
    fn single_link_matches_enumerated_optimum() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge(a, b, 200);
        let mut ip = IpTopology::new();
        ip.add_link(a, b, 800);
        let cg = solve_exact_colgen(Scheme::FlexWan, &g, &ip, &cfg(16), &opts()).unwrap();
        let full = solve_exact(Scheme::FlexWan, &g, &ip, &cfg(16), &opts()).unwrap();
        assert!(!cg.colgen.fell_back);
        assert_eq!(
            cg.plan.objective.to_bits(),
            canonical_objective(&full.wavelengths, 1e-3).to_bits()
        );
        assert!(cg.colgen.columns_in_master < cg.colgen.universe_size);
    }

    #[test]
    fn infeasible_instance_returns_none() {
        // Two 800 G links over one 10-px fiber: each needs 10 px.
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge(a, b, 200);
        let mut ip = IpTopology::new();
        ip.add_link(a, b, 800);
        ip.add_link(a, b, 800);
        assert!(solve_exact_colgen(Scheme::FlexWan, &g, &ip, &cfg(10), &opts()).is_none());
    }

    #[test]
    fn tight_spectrum_matches_enumerated_optimum() {
        // Feasible but conflict-bound: the gap loop has to work.
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge(a, b, 200);
        g.add_edge(a, b, 240);
        let mut ip = IpTopology::new();
        ip.add_link(a, b, 800);
        ip.add_link(a, b, 800);
        let cg = solve_exact_colgen(Scheme::FlexWan, &g, &ip, &cfg(11), &opts()).unwrap();
        let full = solve_exact(Scheme::FlexWan, &g, &ip, &cfg(11), &opts()).unwrap();
        assert_eq!(
            cg.plan.objective.to_bits(),
            canonical_objective(&full.wavelengths, 1e-3).to_bits()
        );
    }

    #[test]
    fn cover_lower_bound_is_exact_min_cost() {
        // 800 G @ 75 GHz vs 400 G @ 50 GHz, demand 1200 G: one of each
        // (2 + ε·125) beats three 400s (3 + ε·150) and two 800s
        // (2 + ε·150).
        let menu = reachable_formats(Scheme::FlexWan.transponder(), 100);
        let lb = cover_lower_bound(&menu, 100, 1e-3);
        let best = menu
            .iter()
            .filter(|f| f.data_rate_gbps >= 100)
            .map(|f| 1.0 + 1e-3 * f.spacing.ghz())
            .fold(f64::INFINITY, f64::min);
        assert!((lb - best).abs() < 1e-12, "lb {lb} best {best}");
    }
}
