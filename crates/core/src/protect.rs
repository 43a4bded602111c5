//! 1+1 dedicated path protection: the classic resilience baseline the
//! restoration literature (including ARROW \[49\], which the paper builds
//! on) positions itself against.
//!
//! Under 1+1, every IP link gets its capacity provisioned **twice**, on
//! conduit-disjoint routes; a fiber cut triggers an instantaneous switch
//! to the protection copy, with no recomputation and no spare spectrum
//! hunt. The price is the doubled hardware. The `ablation_protection`
//! experiment quantifies the trade against §8's restoration: protection
//! buys deterministic, instant recovery at roughly twice the transponder
//! and spectrum cost; restoration recovers more cheaply but is bounded by
//! residual spectrum when the network runs hot.

use flexwan_topo::graph::NodeId;
use flexwan_topo::ip::{IpLinkId, IpTopology};
use flexwan_topo::route::Route;

use crate::planning::ctx::PlanCtx;
use crate::planning::heuristic::{most_constrained_first, LinkRoutes, Placement};
use crate::scenario::FailureScenario;
use crate::scheme::Scheme;
use crate::wavelength::Wavelength;

/// A 1+1-protected plan: working and protection copies of every demand.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtectedPlan {
    /// The scheme planned.
    pub scheme: Scheme,
    /// Working-path wavelengths.
    pub working: Vec<Wavelength>,
    /// Protection-path wavelengths (conduit-disjoint from working).
    pub protection: Vec<Wavelength>,
    /// Links with no conduit-disjoint route pair (cannot be 1+1
    /// protected on this topology).
    pub unprotectable: Vec<IpLinkId>,
    /// Demand that could not be provisioned (on either copy), Gbps.
    pub unmet: Vec<(IpLinkId, u64)>,
}

impl ProtectedPlan {
    /// Total transponder pairs (working + protection).
    pub fn transponder_count(&self) -> usize {
        self.working.len() + self.protection.len()
    }

    /// Spectrum usage `Σ λ·Y` over both copies, GHz.
    pub fn spectrum_usage_ghz(&self) -> f64 {
        self.working
            .iter()
            .chain(&self.protection)
            .map(|w| w.format.spacing.ghz())
            .sum()
    }

    /// Capability under `scenario` (instantaneous, no recomputation): per
    /// link, surviving capacity is the max of its two copies' surviving
    /// rates (1+1 switches to whichever copy lives), capped at demand.
    pub fn capability_under(&self, ip: &IpTopology, scenario: &FailureScenario) -> f64 {
        let assess = |copy: &[Wavelength]| {
            let lit = copy
                .iter()
                .map(|w| (w.link.0 as usize, w.format.data_rate_gbps, &w.path));
            scenario.assess(lit, &[], ip.num_links())
        };
        // The working copy's losses are the affected capacity; the
        // protection copy covers each link's loss as far as it survived.
        let lost = assess(&self.working);
        let mut covering = vec![0u64; ip.num_links()];
        for at in assess(&self.protection).survivors {
            let w = &self.protection[at];
            if let Some(gbps) = covering.get_mut(w.link.0 as usize) {
                *gbps += u64::from(w.format.data_rate_gbps);
            }
        }
        let survived: u64 = (lost.hit.iter())
            .map(|h| h.lost_gbps.min(covering.get(h.link).copied().unwrap_or(0)))
            .sum();
        if lost.affected_gbps == 0 {
            1.0
        } else {
            survived as f64 / lost.affected_gbps as f64
        }
    }
}

/// Conduit key of a hop (unordered node pair).
fn conduit_key(nodes: &[NodeId], hop: usize) -> (NodeId, NodeId) {
    let (a, b) = (nodes[hop], nodes[hop + 1]);
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Whether two routes share any conduit (a cut severs all parallels, so
/// disjointness must be at conduit granularity).
fn conduit_disjoint(a: &Route, b: &Route) -> bool {
    let keys_a: std::collections::HashSet<_> = (0..a.hops.len())
        .map(|h| conduit_key(&a.nodes, h))
        .collect();
    (0..b.hops.len()).all(|h| !keys_a.contains(&conduit_key(&b.nodes, h)))
}

/// The 1+1 placement loop behind [`PlanCtx::plan_protected`]: per link,
/// the full demand on the shortest route and again on the shortest
/// conduit-disjoint alternative among `routes_per_link`.
pub(crate) fn place_protected(
    ctx: &PlanCtx,
    scheme: Scheme,
    ip: &IpTopology,
    routes_per_link: &LinkRoutes,
) -> ProtectedPlan {
    // 1+1 plans from an empty network: there is nothing to retune.
    let mut placement = Placement::new(ctx, scheme, 0);
    let mut working = Vec::new();
    let mut protection = Vec::new();
    let mut unprotectable = Vec::new();
    let mut unmet = Vec::new();

    // Most-constrained first, as in the unprotected planner.
    let order = most_constrained_first(ip, routes_per_link);

    for &i in &order {
        let link = &ip.links()[i];
        let routes = &routes_per_link[i];
        let Some(primary) = routes.first() else {
            unprotectable.push(link.id);
            continue;
        };
        let Some(backup) = routes[1..].iter().find(|r| conduit_disjoint(primary, r)) else {
            unprotectable.push(link.id);
            continue;
        };
        // Provision the full demand on each copy independently.
        let mut shortfall = 0u64;
        for (route, bucket) in [(primary, &mut working), (backup, &mut protection)] {
            shortfall += placement.place(bucket, (link.id, 0), route, link.demand_gbps);
        }
        if shortfall > 0 {
            unmet.push((link.id, shortfall));
        }
    }

    ProtectedPlan {
        scheme,
        working,
        protection,
        unprotectable,
        unmet,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planning::PlannerConfig;
    use flexwan_optical::spectrum::SpectrumGrid;
    use flexwan_topo::graph::{EdgeId, Graph};

    /// Diamond: two fully disjoint routes between a and b.
    fn diamond() -> (Graph, IpTopology) {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, c, 200);
        g.add_edge(c, b, 200);
        g.add_edge(a, d, 300);
        g.add_edge(d, b, 300);
        let mut ip = IpTopology::new();
        ip.add_link(a, b, 400);
        (g, ip)
    }

    fn cfg() -> PlannerConfig {
        PlannerConfig {
            grid: SpectrumGrid::new(96),
            ..Default::default()
        }
    }

    #[test]
    fn protection_doubles_hardware() {
        let (g, ip) = diamond();
        let pp = PlanCtx::new(&g, &cfg()).plan_protected(Scheme::FlexWan, &ip);
        assert!(
            pp.unprotectable.is_empty() && pp.unmet.is_empty(),
            "unmet {:?}",
            pp.unmet
        );
        assert_eq!(pp.working.len(), 1);
        assert_eq!(pp.protection.len(), 1);
        // The two copies ride disjoint routes.
        let w_edges: std::collections::HashSet<_> =
            pp.working[0].path.edges.iter().copied().collect();
        assert!(pp.protection[0]
            .path
            .edges
            .iter()
            .all(|e| !w_edges.contains(e)));
        // Compare against the unprotected plan: exactly double here.
        let unp = crate::planning::plan(Scheme::FlexWan, &g, &ip, &cfg());
        assert_eq!(pp.transponder_count(), 2 * unp.transponder_count());
    }

    #[test]
    fn any_single_conduit_cut_is_survived_instantly() {
        let (g, ip) = diamond();
        let pp = PlanCtx::new(&g, &cfg()).plan_protected(Scheme::FlexWan, &ip);
        for scenario in crate::scenario::conduit_cut_scenarios(&g) {
            let c = pp.capability_under(&ip, &scenario);
            assert!(
                (c - 1.0).abs() < 1e-12,
                "scenario {:?}: capability {c}",
                scenario.cuts
            );
        }
    }

    #[test]
    fn double_cut_hitting_both_copies_fails() {
        let (g, ip) = diamond();
        let pp = PlanCtx::new(&g, &cfg()).plan_protected(Scheme::FlexWan, &ip);
        // Cut one fiber of each route.
        let cut_both = FailureScenario {
            id: 0,
            cuts: vec![EdgeId(0), EdgeId(2)],
            probability: 1.0,
        };
        assert_eq!(pp.capability_under(&ip, &cut_both), 0.0);
    }

    #[test]
    fn unprotectable_without_disjoint_route() {
        // A chain has no disjoint pair.
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge(a, b, 100);
        g.add_edge(b, c, 100);
        let mut ip = IpTopology::new();
        ip.add_link(a, c, 200);
        let pp = PlanCtx::new(&g, &cfg()).plan_protected(Scheme::FlexWan, &ip);
        assert_eq!(pp.unprotectable, vec![flexwan_topo::ip::IpLinkId(0)]);
        assert!(pp.working.is_empty() && pp.protection.is_empty());
    }

    #[test]
    fn parallel_pairs_are_not_disjoint_routes() {
        // Two parallel fibers share the conduit: not valid 1+1 diversity.
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge(a, b, 100);
        g.add_edge(a, b, 102);
        let mut ip = IpTopology::new();
        ip.add_link(a, b, 200);
        let pp = PlanCtx::new(&g, &cfg()).plan_protected(Scheme::FlexWan, &ip);
        assert_eq!(pp.unprotectable.len(), 1);
    }

    #[test]
    fn protection_capability_counts_partial_loss() {
        // Protection copy spectrally starved: capability 0 under the cut.
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, c, 200);
        g.add_edge(c, b, 200); // primary: 400 km
        g.add_edge(a, d, 350);
        g.add_edge(d, b, 350); // backup: 700 km
        let mut ip = IpTopology::new();
        ip.add_link(a, b, 400);
        let tight = PlannerConfig {
            grid: SpectrumGrid::new(6),
            ..Default::default()
        };
        // 400 G at 400 km: 75 GHz = 6 px fits the grid; at 700 km it needs
        // 87.5 GHz = 7 px > grid → the backup copy stays unprovisioned.
        let pp = PlanCtx::new(&g, &tight).plan_protected(Scheme::FlexWan, &ip);
        assert_eq!(pp.working.len(), 1);
        assert!(pp.protection.is_empty());
        assert!(!pp.unmet.is_empty());
        let cut_primary = FailureScenario {
            id: 0,
            cuts: vec![EdgeId(0)],
            probability: 1.0,
        };
        assert_eq!(pp.capability_under(&ip, &cut_primary), 0.0);
    }
}
