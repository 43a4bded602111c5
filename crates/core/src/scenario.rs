//! The scenario vocabulary — fiber-cut sets ([`FailureScenario`]: §8's
//! single/conduit/probabilistic cuts, k-cut enumeration and sampling) and
//! demand perturbations ([`DemandScenario`]) — and the multi-failure ×
//! demand-uncertainty scenario engine over it (beyond the paper).
//!
//! The paper (and the §8 evaluation) scores restoration against
//! single-fiber cuts. This module sweeps *scenario sets* — every
//! k-subset of fibers up to an enumeration budget, seeded sampled
//! k-cuts when the subset space is too large, and multiplicative
//! demand-uncertainty perturbations in the spirit of robust IP/optical
//! design — and folds the per-scenario outcomes into an
//! [`AvailabilitySurface`]: for every (k, spare-transponder budget)
//! cell, how many scenarios the backbone survived, how much capacity
//! came back, and which rung of the degradation ladder delivered it.
//!
//! **Evaluation ladder.** Each scenario is scored by the greedy §8
//! heuristic ([`PlanCtx::restore`]), falling back to pre-provisioned
//! 1+1 protection ([`ProtectedPlan::capability_under`]) when the
//! heuristic under-restores. The rung that produced each cell's outcome
//! is recorded in its ladder histogram; the warm-mutation rung above
//! them (DESIGN.md §10) runs in the churn service, not here, and its
//! column stays 0.
//!
//! **Spare budgets are allowances, not obligations.** The cell at
//! budget `s` reports the best outcome achievable with *at most* `s`
//! extra spare transponders per link (a running maximum over the
//! ascending budget axis), so availability is monotone non-decreasing
//! in the spare budget by construction — the greedy restorer itself is
//! not guaranteed monotone under spectrum contention, an operator
//! deploying fewer spares is always admissible.
//!
//! **Determinism.** Scenario enumeration is lexicographic, sampling is
//! seeded ([`ChaCha8Rng`]), and the evaluation fans out on the
//! deterministic pool ([`flexwan_util::pool::par_map`]: fixed chunking,
//! index-slot reassembly) over pure per-item work with a shared
//! [`RouteCache`](flexwan_topo::cache::RouteCache) that memoizes but
//! never alters results. The surface is byte-identical at any thread count.

use std::collections::HashSet;

use flexwan_topo::graph::{EdgeId, Graph};
use flexwan_topo::ip::IpTopology;
use flexwan_topo::path::Path;
use flexwan_util::pool;
use flexwan_util::rng::ChaCha8Rng;

use crate::planning::{Plan, PlanCtx};
use crate::protect::ProtectedPlan;
use crate::scheme::Scheme;

/// A fiber-cut scenario: the set of simultaneously cut fibers.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureScenario {
    /// Scenario index within its set.
    pub id: usize,
    /// The cut fibers.
    pub cuts: Vec<EdgeId>,
    /// Scenario probability (uniform for the deterministic 1-failure set;
    /// length-weighted for the probabilistic set).
    pub probability: f64,
}

impl FailureScenario {
    /// Whether fiber `e` is cut in this scenario.
    pub fn is_cut(&self, e: EdgeId) -> bool {
        self.cuts.contains(&e)
    }

    /// The cut set as a hash set (the `banned` argument of the path
    /// algorithms).
    pub fn banned(&self) -> HashSet<EdgeId> {
        self.cuts.iter().copied().collect()
    }

    /// Whether `path` crosses a cut fiber.
    pub(crate) fn severs(&self, path: &Path) -> bool {
        path.edges.iter().any(|e| self.cuts.contains(e))
    }

    /// What this failure takes from `lit` — `(link index, rate Gbps,
    /// path)` items, link indices being IP link ids — for §8: each hit
    /// link's lost capacity `c'_e`, its spare pool `N_e` (the failed
    /// transponders plus `extra_spares[link]`) and its longest failed
    /// path, in the order links are first hit; plus the positions of
    /// the items no cut touches, whose spectrum stays occupied.
    ///
    /// # Panics
    /// If `extra_spares` is neither empty nor one entry per IP link.
    pub(crate) fn assess<'p>(
        &self,
        lit: impl IntoIterator<Item = (usize, u32, &'p Path)>,
        extra_spares: &[u32],
        num_links: usize,
    ) -> FailureLedger {
        check_extra_spares(extra_spares, num_links);
        let mut ledger = FailureLedger::default();
        // Link index → its entry in `hit`, `usize::MAX` until first hit.
        let mut entry = vec![usize::MAX; num_links];
        for (at, (link, rate, path)) in lit.into_iter().enumerate() {
            if !self.severs(path) {
                ledger.survivors.push(at);
                continue;
            }
            if link >= entry.len() {
                entry.resize(link + 1, usize::MAX);
            }
            if entry[link] == usize::MAX {
                entry[link] = ledger.hit.len();
                let spares = extra_spares.get(link).copied().unwrap_or(0);
                ledger.hit.push(LostLink {
                    link,
                    lost_gbps: 0,
                    spares,
                    longest_km: 0,
                });
            }
            let hit = &mut ledger.hit[entry[link]];
            hit.lost_gbps += u64::from(rate);
            hit.spares += 1;
            hit.longest_km = hit.longest_km.max(path.length_km);
            ledger.affected_gbps += u64::from(rate);
        }
        ledger
    }
}

/// The precondition every restorer puts on its `extra_spares` argument:
/// empty (no pool beyond the failed wavelengths' own transponders) or
/// one entry per IP link, indexed by link id.
fn check_extra_spares(extra_spares: &[u32], num_links: usize) {
    assert!(
        extra_spares.is_empty() || extra_spares.len() >= num_links,
        "extra_spares must be empty or hold one entry per IP link: got {} for {} links",
        extra_spares.len(),
        num_links
    );
}

/// What a failure takes from a set of lit wavelengths:
/// [`FailureScenario::assess`]'s answer, the one input every restorer
/// and the 1+1 capability read.
#[derive(Debug, Default)]
pub(crate) struct FailureLedger {
    /// The hit links, in the order they were first hit.
    pub(crate) hit: Vec<LostLink>,
    /// `Σ c'_e` over the hit links, Gbps.
    pub(crate) affected_gbps: u64,
    /// Positions of the items no cut touches, ascending.
    pub(crate) survivors: Vec<usize>,
}

/// One link a failure hit.
#[derive(Debug)]
pub(crate) struct LostLink {
    /// The IP link index.
    pub(crate) link: usize,
    /// Capacity lost, Gbps (`c'_e`).
    pub(crate) lost_gbps: u64,
    /// Spare transponders (`N_e`): the failed ones plus the extras.
    pub(crate) spares: u32,
    /// Length of the longest failed path, km.
    pub(crate) longest_km: u32,
}

/// Ladder rung 0: warm mutation of the standing exact model.
pub const LEVEL_EXACT: usize = 0;
/// Ladder rung 1: greedy §8 heuristic restoration.
pub const LEVEL_HEURISTIC: usize = 1;
/// Ladder rung 2: pre-provisioned 1+1 protection.
pub const LEVEL_PROTECT: usize = 2;

/// `C(n, k)` saturating at `u128::MAX` (enumeration-budget checks only).
fn n_choose_k(n: usize, k: usize) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc.saturating_mul((n - i) as u128) / (i as u128 + 1);
    }
    acc
}

/// Every single-fiber-cut scenario (the deterministic k=1 failure model of
/// \[40\]), uniformly weighted: [`k_cut_scenarios`] at `k = 1`, and empty
/// on a graph with no fibers.
pub fn one_fiber_scenarios(g: &Graph) -> Vec<FailureScenario> {
    if g.num_edges() == 0 {
        return Vec::new();
    }
    k_cut_scenarios(g, 1)
}

/// One scenario per *conduit*: parallel fibers between the same node pair
/// share a physical conduit, so a backhoe severs them together. This is
/// the failure set the §8 evaluation uses (a "fiber cut" takes out the
/// whole cable, not one pair).
pub fn conduit_cut_scenarios(g: &Graph) -> Vec<FailureScenario> {
    let groups = flexwan_topo::route::conduits(g);
    let n = groups.len();
    groups
        .into_iter()
        .enumerate()
        .map(|(id, cuts)| FailureScenario {
            id,
            cuts,
            probability: 1.0 / n as f64,
        })
        .collect()
}

/// Every exactly-`k`-fiber-cut scenario, in lexicographic fiber-index
/// order, uniformly weighted. `k = 1` is the single-cut set of the §8
/// evaluation ([`one_fiber_scenarios`]), which is what lets the
/// surface's k=1 column be cross-checked against a direct single-cut
/// restoration sweep.
pub fn k_cut_scenarios(g: &Graph, k: usize) -> Vec<FailureScenario> {
    let n = g.num_edges();
    assert!(k >= 1 && k <= n, "k must be in 1..=num_edges");
    let ids: Vec<EdgeId> = g.edges().iter().map(|e| e.id).collect();
    let mut subsets: Vec<Vec<EdgeId>> = Vec::new();
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        subsets.push(idx.iter().map(|&i| ids[i]).collect());
        // Next lexicographic combination of {0..n} choose k.
        let mut i = k;
        loop {
            if i == 0 {
                let total = subsets.len();
                return subsets
                    .into_iter()
                    .enumerate()
                    .map(|(id, cuts)| FailureScenario {
                        id,
                        cuts,
                        probability: 1.0 / total as f64,
                    })
                    .collect();
            }
            i -= 1;
            if idx[i] != i + n - k {
                idx[i] += 1;
                for j in i + 1..k {
                    idx[j] = idx[j - 1] + 1;
                }
                break;
            }
        }
    }
}

/// Up to `n` *distinct* seeded k-fiber-cut scenarios, uniformly
/// weighted. Each draw takes `k` distinct fibers by a partial
/// Fisher–Yates shuffle of the edge ids; duplicate subsets are
/// rejected, so the returned set never repeats a cut set (and may be
/// shorter than `n` when the subset space is nearly exhausted).
/// Deterministic for a given `(g, k, n, seed)`.
pub fn sampled_k_cut_scenarios(g: &Graph, k: usize, n: usize, seed: u64) -> Vec<FailureScenario> {
    let edges = g.num_edges();
    assert!(k >= 1 && k <= edges, "k must be in 1..=num_edges");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut pool_ids: Vec<EdgeId> = g.edges().iter().map(|e| e.id).collect();
    let mut seen: HashSet<Vec<EdgeId>> = HashSet::new();
    let mut subsets: Vec<Vec<EdgeId>> = Vec::new();
    let mut attempts = 0usize;
    let max_attempts = n * 32 + 64;
    while subsets.len() < n && attempts < max_attempts {
        attempts += 1;
        for i in 0..k {
            let j = rng.gen_range(i..pool_ids.len());
            pool_ids.swap(i, j);
        }
        let mut cuts: Vec<EdgeId> = pool_ids[..k].to_vec();
        cuts.sort_unstable_by_key(|e| e.0);
        if seen.insert(cuts.clone()) {
            subsets.push(cuts);
        }
    }
    let total = subsets.len();
    subsets
        .into_iter()
        .enumerate()
        .map(|(id, cuts)| FailureScenario {
            id,
            cuts,
            probability: 1.0 / total as f64,
        })
        .collect()
}

/// The scenario suite for a surface: per `k ∈ 1..=min(k_max, num_edges)`
/// (a cut set cannot hold more fibers than the graph has), the full
/// lexicographic enumeration when `C(num_edges, k)` fits inside
/// `exhaustive_limit`, otherwise `samples` seeded distinct k-cuts (the
/// per-k seed is derived from `seed` so adding a k row never reshuffles
/// another row's sample).
pub fn scenario_suite(
    g: &Graph,
    k_max: usize,
    exhaustive_limit: usize,
    samples: usize,
    seed: u64,
) -> Vec<(usize, Vec<FailureScenario>)> {
    (1..=k_max.min(g.num_edges()))
        .map(|k| {
            let set = if n_choose_k(g.num_edges(), k) <= exhaustive_limit as u128 {
                k_cut_scenarios(g, k)
            } else {
                let k_seed = seed ^ (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                sampled_k_cut_scenarios(g, k, samples, k_seed)
            };
            (k, set)
        })
        .collect()
}

/// A multiplicative demand perturbation: one factor per IP link, in
/// link order. Factor 1.0 everywhere is the nominal demand set.
#[derive(Debug, Clone, PartialEq)]
pub struct DemandScenario {
    /// Scenario index within its set (0 = nominal).
    pub id: usize,
    /// Per-link multiplicative factors, `ip.links()` order.
    pub factors: Vec<f64>,
}

impl DemandScenario {
    /// The nominal (unperturbed) demand scenario.
    pub fn nominal(ip: &IpTopology) -> DemandScenario {
        DemandScenario {
            id: 0,
            factors: vec![1.0; ip.num_links()],
        }
    }

    /// The perturbed topology: each link's demand scaled by its factor
    /// and rounded to the planner's 100 Gbps demand grid (never below
    /// 100 — demands must stay positive multiples of 100).
    pub fn apply(&self, ip: &IpTopology) -> IpTopology {
        assert_eq!(self.factors.len(), ip.num_links());
        let mut out = IpTopology::new();
        for (l, &f) in ip.links().iter().zip(&self.factors) {
            let units = (l.demand_gbps as f64 * f / 100.0).round().max(1.0) as u64;
            out.add_link(l.src, l.dst, units * 100);
        }
        out
    }
}

/// The nominal scenario plus `n` seeded multiplicative perturbations
/// with per-link factors uniform in `[1 − spread, 1 + spread]`.
/// Deterministic for a given `(ip, n, spread, seed)`.
pub fn demand_scenarios(ip: &IpTopology, n: usize, spread: f64, seed: u64) -> Vec<DemandScenario> {
    assert!((0.0..1.0).contains(&spread), "spread must be in [0, 1)");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out = vec![DemandScenario::nominal(ip)];
    for id in 1..=n {
        let factors = (0..ip.num_links())
            .map(|_| 1.0 + spread * (2.0 * rng.gen_f64() - 1.0))
            .collect();
        out.push(DemandScenario { id, factors });
    }
    out
}

/// Engine knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Spare-transponder budgets, strictly increasing. Budget `s` adds
    /// up to `s` spares on every IP link (an allowance — see module
    /// docs for the monotonicity contract).
    pub spare_budgets: Vec<u32>,
    /// Pool workers for the scenario fan-out (0 = auto, 1 = serial).
    /// The surface is byte-identical at any value.
    pub threads: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            spare_budgets: vec![0, 1, 2, 4],
            threads: 0,
        }
    }
}

/// One (k, spare-budget) cell of the surface, aggregated over every
/// cut scenario × demand scenario evaluated for that k.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SurfaceCell {
    /// Simultaneous cut count of the row's scenario set.
    pub k: usize,
    /// Spare-transponder allowance per link.
    pub spare_budget: u32,
    /// Scenario evaluations aggregated into this cell.
    pub scenarios: u64,
    /// Evaluations that kept every affected Gbps alive.
    pub survived: u64,
    /// Total capacity the cuts took down, Gbps.
    pub affected_gbps: u64,
    /// Total capacity revived (or held by protection), Gbps.
    pub restored_gbps: u64,
    /// Evaluations whose outcome came from ladder rung 0/1/2.
    pub level_scenarios: [u64; 3],
}

impl SurfaceCell {
    /// Fraction of evaluations survived.
    pub fn availability(&self) -> f64 {
        if self.scenarios == 0 {
            1.0
        } else {
            self.survived as f64 / self.scenarios as f64
        }
    }
}

/// The availability surface: cells in row-major order (k ascending,
/// then spare budget ascending).
#[derive(Debug, Clone, PartialEq)]
pub struct AvailabilitySurface {
    /// The spare-budget axis, ascending.
    pub budgets: Vec<u32>,
    /// The cells, row-major (k, then budget).
    pub cells: Vec<SurfaceCell>,
}

impl AvailabilitySurface {
    /// The cell at `(k, spare_budget)`, if evaluated.
    pub fn cell(&self, k: usize, spare_budget: u32) -> Option<&SurfaceCell> {
        self.cells
            .iter()
            .find(|c| c.k == k && c.spare_budget == spare_budget)
    }

    /// Canonical text rendering: one availability row per k plus a
    /// per-cell detail block. Byte-stable across thread counts and
    /// machines; golden tests and the CI sweep gate pin it verbatim.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        writeln!(
            out,
            "availability surface: survived/scenarios (availability) per k cuts x spare budget"
        )
        .expect("write to String");
        let mut header = format!("{:<6}", "k");
        for b in &self.budgets {
            header.push_str(&format!(" | {:>14}", format!("spares+{b}")));
        }
        writeln!(out, "{header}").expect("write to String");
        let ks: Vec<usize> = {
            let mut ks: Vec<usize> = self.cells.iter().map(|c| c.k).collect();
            ks.dedup();
            ks
        };
        for &k in &ks {
            let mut row = format!("k={k:<4}");
            for &b in &self.budgets {
                let c = self.cell(k, b).expect("row-major surface is complete");
                row.push_str(&format!(
                    " | {:>14}",
                    format!("{}/{} {:.3}", c.survived, c.scenarios, c.availability())
                ));
            }
            writeln!(out, "{row}").expect("write to String");
        }
        writeln!(out).expect("write to String");
        writeln!(
            out,
            "cells: restored/affected Gbps and ladder levels (warm/heuristic/protect)"
        )
        .expect("write to String");
        for c in &self.cells {
            writeln!(
                out,
                "k={} spares+{}: restored {}/{} Gbps, levels {}/{}/{}",
                c.k,
                c.spare_budget,
                c.restored_gbps,
                c.affected_gbps,
                c.level_scenarios[LEVEL_EXACT],
                c.level_scenarios[LEVEL_HEURISTIC],
                c.level_scenarios[LEVEL_PROTECT],
            )
            .expect("write to String");
        }
        out
    }
}

/// The outcome of one (cut scenario, demand scenario, budget)
/// evaluation after ladder selection and budget-allowance folding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Outcome {
    level: usize,
    affected_gbps: u64,
    restored_gbps: u64,
}

/// The scenario engine: a scheme + planning context + demand set. See
/// the module docs for the ladder and determinism contracts.
pub struct ScenarioEngine<'a> {
    scheme: Scheme,
    ctx: PlanCtx<'a>,
    ip: &'a IpTopology,
    config: EngineConfig,
}

impl<'a> ScenarioEngine<'a> {
    /// A new engine planning and restoring `scheme` over `ip` through
    /// `ctx`. Give the context a shared cache
    /// ([`PlanCtx::sharing`]): planning routes and every cut set's
    /// detours repeat across demand scenarios and spare budgets, and
    /// memoization never changes results.
    pub fn new(scheme: Scheme, ctx: PlanCtx<'a>, ip: &'a IpTopology, config: EngineConfig) -> Self {
        assert!(
            !config.spare_budgets.is_empty()
                && config.spare_budgets.windows(2).all(|w| w[0] < w[1]),
            "spare budgets must be non-empty and strictly increasing"
        );
        ScenarioEngine {
            scheme,
            ctx,
            ip,
            config,
        }
    }

    /// Evaluates every (cut scenario × demand scenario × spare budget)
    /// and folds the outcomes into the availability surface. `cut_sets`
    /// is the suite shape of [`scenario_suite`]: `(k, scenarios)` rows,
    /// one surface row per entry. Byte-identical at any
    /// [`EngineConfig::threads`] value.
    pub fn evaluate(
        &self,
        cut_sets: &[(usize, Vec<FailureScenario>)],
        demands: &[DemandScenario],
    ) -> AvailabilitySurface {
        assert!(!demands.is_empty(), "need at least the nominal demand");
        let ctx = self.ctx;
        let budgets = self.config.spare_budgets.clone();
        let n_links = self.ip.num_links();

        // One planned world per demand scenario (serial, order-fixed).
        let worlds: Vec<(IpTopology, Plan, ProtectedPlan)> = demands
            .iter()
            .map(|d| {
                let ip_d = d.apply(self.ip);
                let plan_d = ctx.plan(self.scheme, &ip_d);
                let prot_d = ctx.plan_protected(self.scheme, &ip_d);
                (ip_d, plan_d, prot_d)
            })
            .collect();

        // Flat deterministic item order: set, scenario, demand, budget
        // (budget innermost so the allowance fold works on contiguous
        // runs).
        let mut items: Vec<(usize, usize, usize, usize)> = Vec::new();
        for (si, (_, scens)) in cut_sets.iter().enumerate() {
            for ci in 0..scens.len() {
                for di in 0..demands.len() {
                    for bi in 0..budgets.len() {
                        items.push((si, ci, di, bi));
                    }
                }
            }
        }

        // The ladder (heuristic, then protection) fanned out on the pool.
        let mut outcomes: Vec<Outcome> =
            pool::par_map(&items, self.config.threads, |&(si, ci, di, bi)| {
                let scen = &cut_sets[si].1[ci];
                let (ip_d, plan_d, prot_d) = &worlds[di];
                let extra = vec![budgets[bi]; n_links];
                let r = ctx.restore(plan_d, ip_d, scen, &extra);
                let mut o = Outcome {
                    level: LEVEL_HEURISTIC,
                    affected_gbps: r.affected_gbps,
                    restored_gbps: r.restored_gbps,
                };
                // When the heuristic under-restored and the 1+1 plan
                // fully covers the working losses, the scenario survives
                // on reserved capacity, like a churn tick landing on
                // `LADDER_PROTECT`.
                if o.restored_gbps < o.affected_gbps && prot_d.capability_under(ip_d, scen) >= 1.0 {
                    o.level = LEVEL_PROTECT;
                    o.restored_gbps = o.affected_gbps;
                }
                o
            });

        // Budget-allowance fold: each contiguous run is one (scenario,
        // demand) across the ascending budgets; a smaller budget's
        // better outcome carries forward (see module docs).
        for run in outcomes.chunks_mut(budgets.len()) {
            for i in 1..run.len() {
                if run[i - 1].restored_gbps > run[i].restored_gbps {
                    run[i].restored_gbps = run[i - 1].restored_gbps;
                    run[i].level = run[i - 1].level;
                }
            }
        }

        // Aggregate row-major cells.
        let mut cells: Vec<SurfaceCell> = Vec::with_capacity(cut_sets.len() * budgets.len());
        for (si, (k, _)) in cut_sets.iter().enumerate() {
            for (bi, &b) in budgets.iter().enumerate() {
                cells.push(SurfaceCell {
                    k: *k,
                    spare_budget: b,
                    scenarios: 0,
                    survived: 0,
                    affected_gbps: 0,
                    restored_gbps: 0,
                    level_scenarios: [0; 3],
                });
                let cell = cells.last_mut().expect("just pushed");
                for (&(isi, _, _, ibi), o) in items.iter().zip(&outcomes) {
                    if isi != si || ibi != bi {
                        continue;
                    }
                    cell.scenarios += 1;
                    cell.affected_gbps += o.affected_gbps;
                    cell.restored_gbps += o.restored_gbps;
                    cell.level_scenarios[o.level] += 1;
                    if o.restored_gbps == o.affected_gbps {
                        cell.survived += 1;
                    }
                }
            }
        }
        AvailabilitySurface { budgets, cells }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planning::PlannerConfig;
    use flexwan_optical::spectrum::SpectrumGrid;
    use flexwan_topo::cache::RouteCache;

    /// 4-node world with detour diversity (same shape as the churn
    /// soak backbone).
    fn world() -> (Graph, IpTopology, PlannerConfig) {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, b, 400);
        g.add_edge(b, c, 400);
        g.add_edge(a, c, 900);
        g.add_edge(c, d, 400);
        g.add_edge(a, d, 900);
        let mut ip = IpTopology::new();
        ip.add_link(a, c, 300);
        ip.add_link(a, d, 200);
        let cfg = PlannerConfig {
            grid: SpectrumGrid::new(24),
            k_paths: 2,
            ..Default::default()
        };
        (g, ip, cfg)
    }

    #[test]
    fn k_cut_enumeration_is_lexicographic_and_complete() {
        let (g, _, _) = world();
        let s1 = k_cut_scenarios(&g, 1);
        assert_eq!(s1.len(), 5);
        // k=1 is the §8 single-fiber set, element for element: one
        // scenario per fiber, id = fiber index, uniformly weighted.
        for (i, s) in s1.iter().enumerate() {
            assert_eq!(s.id, i);
            assert_eq!(s.cuts, vec![EdgeId(i as u32)]);
            assert_eq!(s.probability, 1.0 / 5.0);
        }
        assert_eq!(s1, one_fiber_scenarios(&g));
        assert!(one_fiber_scenarios(&Graph::new()).is_empty());
        let s2 = k_cut_scenarios(&g, 2);
        assert_eq!(s2.len(), 10, "C(5,2)");
        for w in s2.windows(2) {
            assert!(w[0].cuts < w[1].cuts, "lexicographic order");
        }
        let s5 = k_cut_scenarios(&g, 5);
        assert_eq!(s5.len(), 1);
        assert_eq!(s5[0].cuts.len(), 5);
    }

    #[test]
    fn sampled_cuts_are_distinct_sorted_and_seeded() {
        let (g, _, _) = world();
        let a = sampled_k_cut_scenarios(&g, 2, 6, 42);
        let b = sampled_k_cut_scenarios(&g, 2, 6, 42);
        assert_eq!(a, b, "same seed, same sample");
        let mut seen = HashSet::new();
        for s in &a {
            assert_eq!(s.cuts.len(), 2);
            assert!(s.cuts[0].0 < s.cuts[1].0, "sorted cut set");
            assert!(seen.insert(s.cuts.clone()), "duplicate subset");
        }
        assert_ne!(a, sampled_k_cut_scenarios(&g, 2, 6, 43));
    }

    #[test]
    fn suite_switches_to_sampling_past_the_limit() {
        let (g, _, _) = world();
        let suite = scenario_suite(&g, 3, 6, 4, 7);
        assert_eq!(suite.len(), 3);
        assert_eq!(suite[0].1.len(), 5, "C(5,1)=5 <= 6: exhaustive");
        assert_eq!(suite[1].1.len(), 4, "C(5,2)=10 > 6: sampled");
        assert_eq!(suite[2].1.len(), 4, "C(5,3)=10 > 6: sampled");
    }

    #[test]
    fn suite_stops_at_the_fiber_count() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge(a, b, 100);
        g.add_edge(a, b, 102);
        let suite = scenario_suite(&g, 3, 16, 4, 7);
        let rows: Vec<(usize, usize)> = suite.iter().map(|(k, set)| (*k, set.len())).collect();
        assert_eq!(rows, [(1, 2), (2, 1)]);
    }

    #[test]
    fn demand_scenarios_are_seeded_and_bounded() {
        let (_, ip, _) = world();
        let d = demand_scenarios(&ip, 3, 0.2, 11);
        assert_eq!(d.len(), 4);
        assert_eq!(d[0], DemandScenario::nominal(&ip));
        assert_eq!(d[0].apply(&ip).links(), ip.links());
        for s in &d[1..] {
            assert!(s.factors.iter().any(|&f| f != 1.0));
            for &f in &s.factors {
                assert!((0.8..=1.2).contains(&f));
            }
        }
        assert_eq!(d, demand_scenarios(&ip, 3, 0.2, 11));
    }

    #[test]
    fn k1_column_matches_direct_single_cut_sweep() {
        let (g, ip, cfg) = world();
        let cache = RouteCache::new();
        let ctx = PlanCtx::new(&g, &cfg).sharing(&cache);
        let engine = ScenarioEngine::new(
            Scheme::FlexWan,
            ctx,
            &ip,
            EngineConfig {
                spare_budgets: vec![0],
                ..Default::default()
            },
        );
        let suite = vec![(1, k_cut_scenarios(&g, 1))];
        let demands = vec![DemandScenario::nominal(&ip)];
        let surface = engine.evaluate(&suite, &demands);
        let cell = surface.cell(1, 0).expect("k=1 cell");

        // The same ladder by hand: restore, then 1+1 protection.
        let plan = ctx.plan(Scheme::FlexWan, &ip);
        let prot = ctx.plan_protected(Scheme::FlexWan, &ip);
        let (mut affected, mut restored, mut survived) = (0u64, 0u64, 0u64);
        let mut levels = [0u64; 3];
        for s in &one_fiber_scenarios(&g) {
            let r = ctx.restore(&plan, &ip, s, &[]);
            let mut got = r.restored_gbps;
            let mut level = LEVEL_HEURISTIC;
            if got < r.affected_gbps && prot.capability_under(&ip, s) >= 1.0 {
                (got, level) = (r.affected_gbps, LEVEL_PROTECT);
            }
            affected += r.affected_gbps;
            restored += got;
            survived += u64::from(got == r.affected_gbps);
            levels[level] += 1;
        }
        assert_eq!(cell.affected_gbps, affected);
        assert_eq!(cell.restored_gbps, restored);
        assert_eq!(cell.survived, survived);
        assert_eq!(cell.level_scenarios, levels);
    }

    #[test]
    fn surface_is_thread_count_invariant_and_budget_monotone() {
        let (g, ip, cfg) = world();
        let cache = RouteCache::new();
        let ctx = PlanCtx::new(&g, &cfg).sharing(&cache);
        let suite = scenario_suite(&g, 2, 16, 8, 3);
        let demands = demand_scenarios(&ip, 2, 0.25, 9);
        let render = |threads: usize| {
            let engine = ScenarioEngine::new(
                Scheme::FlexWan,
                ctx,
                &ip,
                EngineConfig {
                    spare_budgets: vec![0, 1, 3],
                    threads,
                },
            );
            engine.evaluate(&suite, &demands).render()
        };
        let one = render(1);
        assert_eq!(one, render(2), "2 threads diverged");
        assert_eq!(one, render(4), "4 threads diverged");
        // Budget monotonicity (the allowance fold makes it structural).
        let engine = ScenarioEngine::new(
            Scheme::FlexWan,
            ctx,
            &ip,
            EngineConfig {
                spare_budgets: vec![0, 1, 3],
                ..Default::default()
            },
        );
        let surface = engine.evaluate(&suite, &demands);
        for k in [1usize, 2] {
            for w in [(0u32, 1u32), (1, 3)] {
                let lo = surface.cell(k, w.0).expect("cell");
                let hi = surface.cell(k, w.1).expect("cell");
                assert!(hi.survived >= lo.survived, "survived dipped at k={k}");
                assert!(
                    hi.restored_gbps >= lo.restored_gbps,
                    "restored dipped at k={k}"
                );
            }
        }
    }

    #[test]
    fn n_choose_k_basics() {
        assert_eq!(n_choose_k(5, 1), 5);
        assert_eq!(n_choose_k(5, 2), 10);
        assert_eq!(n_choose_k(5, 5), 1);
        assert_eq!(n_choose_k(4, 5), 0);
        assert_eq!(n_choose_k(60, 3), 34220);
    }

    #[test]
    fn conduit_scenarios_group_parallels() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge(a, b, 100);
        g.add_edge(a, b, 102); // same conduit
        g.add_edge(b, c, 300);
        let s = conduit_cut_scenarios(&g);
        assert_eq!(s.len(), 2);
        let ab = s.iter().find(|sc| sc.cuts.len() == 2).expect("a-b conduit");
        assert!(ab.is_cut(EdgeId(0)) && ab.is_cut(EdgeId(1)));
        let total_p: f64 = s.iter().map(|x| x.probability).sum();
        assert!((total_p - 1.0).abs() < 1e-12);
    }
}
