//! Incremental planning: grow capacity without touching live traffic.
//!
//! Production backbones do not get re-planned from scratch (§4.4: the
//! planning module "serves as a long-term strategy and is operated
//! infrequently"; §9: evolution must be smooth). When demands grow or new
//! IP links appear, the operator wants *additional* wavelengths placed
//! around the live ones — zero retunes, zero traffic hits (or, with a
//! defrag budget, bounded hitless retunes).
//!
//! [`plan_incremental`] does exactly that: it replays the base plan's
//! spectrum occupation, computes each link's provisioning deficit against
//! the new demand set, and runs the normal format-selection + spectrum
//! assignment machinery for the deficits only. The `ablation_incremental`
//! experiment quantifies the cost of never moving anything, against
//! clairvoyant from-scratch re-planning.

use flexwan_topo::cache::RouteCache;
use flexwan_topo::graph::Graph;
use flexwan_topo::ip::IpTopology;

use crate::planning::heuristic::{
    cached_routes, fresh_routes, place_deficits, LinkOrder, LinkRoutes, Plan, PlannerConfig,
};

/// Extends `base` to cover `ip` (the *full* demand set: existing links,
/// possibly with grown demands, plus any new links appended). Existing
/// wavelengths keep their channels; only deficits are provisioned.
///
/// The returned plan contains the base wavelengths (verbatim, possibly
/// retuned when `cfg.defrag_moves > 0`) plus the newly added ones.
pub fn plan_incremental(
    base: &Plan,
    optical: &Graph,
    ip: &IpTopology,
    cfg: &PlannerConfig,
) -> Plan {
    let routes = fresh_routes(optical, ip, cfg.k_paths);
    plan_incremental_with_routes(base, optical, ip, cfg, &routes)
}

/// [`plan_incremental`] with candidate routes served by `cache` (shared
/// with any other planner working the same backbone). Output is
/// bit-identical to [`plan_incremental`].
pub fn plan_incremental_cached(
    base: &Plan,
    optical: &Graph,
    ip: &IpTopology,
    cfg: &PlannerConfig,
    cache: &RouteCache,
) -> Plan {
    let none = std::collections::HashSet::new();
    let routes = cached_routes(optical, ip, cfg.k_paths, cache, &none);
    plan_incremental_with_routes(base, optical, ip, cfg, &routes)
}

fn plan_incremental_with_routes(
    base: &Plan,
    optical: &Graph,
    ip: &IpTopology,
    cfg: &PlannerConfig,
    routes: &LinkRoutes,
) -> Plan {
    // Deficits, most-constrained first (same discipline as fresh planning).
    let order = LinkOrder::MostConstrainedFirst;
    let live = base.wavelengths.clone();
    place_deficits(base.scheme, optical, ip, cfg, routes, order, live)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planning::heuristic::plan;
    use crate::scheme::Scheme;
    use flexwan_optical::spectrum::SpectrumGrid;
    use flexwan_topo::graph::NodeId;

    fn backbone() -> (Graph, IpTopology) {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge(a, b, 150);
        g.add_edge(b, c, 200);
        g.add_edge(a, c, 500);
        let mut ip = IpTopology::new();
        ip.add_link(a, b, 400);
        ip.add_link(b, c, 300);
        (g, ip)
    }

    fn cfg() -> PlannerConfig {
        PlannerConfig {
            grid: SpectrumGrid::new(96),
            ..Default::default()
        }
    }

    #[test]
    fn growth_adds_without_disturbing() {
        let (g, ip) = backbone();
        let base = plan(Scheme::FlexWan, &g, &ip, &cfg());
        assert!(base.is_feasible());
        let before: Vec<_> = base.wavelengths.clone();

        // Demands double and a new link appears.
        let mut grown = ip.scaled(2);
        grown.add_link(NodeId(0), NodeId(2), 600);
        let inc = plan_incremental(&base, &g, &grown, &cfg());
        assert!(inc.is_feasible(), "unmet {:?}", inc.unmet);
        // Every original wavelength survives untouched.
        for (i, w) in before.iter().enumerate() {
            assert_eq!(&inc.wavelengths[i], w, "wavelength {i} disturbed");
        }
        // And the new demands are fully covered.
        for l in grown.links() {
            assert!(
                inc.provisioned_gbps(l.id) >= l.demand_gbps,
                "link {:?} under-provisioned",
                l.id
            );
        }
    }

    #[test]
    fn cached_incremental_matches_plain() {
        let (g, ip) = backbone();
        let base = plan(Scheme::FlexWan, &g, &ip, &cfg());
        let grown = ip.scaled(2);
        let cache = RouteCache::new();
        let plain = plan_incremental(&base, &g, &grown, &cfg());
        let cached = plan_incremental_cached(&base, &g, &grown, &cfg(), &cache);
        assert_eq!(plain.wavelengths, cached.wavelengths);
        assert_eq!(plain.unmet, cached.unmet);
        assert_eq!(cache.misses() as usize, grown.num_links());
    }

    #[test]
    fn no_deficit_is_a_noop() {
        let (g, ip) = backbone();
        let base = plan(Scheme::FlexWan, &g, &ip, &cfg());
        let inc = plan_incremental(&base, &g, &ip, &cfg());
        assert_eq!(inc.wavelengths, base.wavelengths);
        assert!(inc.is_feasible());
    }

    #[test]
    fn incremental_reports_unmet_when_full() {
        let (g, ip) = backbone();
        let tight = PlannerConfig {
            grid: SpectrumGrid::new(8),
            ..Default::default()
        };
        let base = plan(Scheme::FlexWan, &g, &ip, &tight);
        // Base fits (one 75 GHz channel per fiber); doubling cannot.
        assert!(base.is_feasible());
        let inc = plan_incremental(&base, &g, &ip.scaled(3), &tight);
        assert!(!inc.is_feasible());
        // Base wavelengths still untouched even in failure.
        for (i, w) in base.wavelengths.iter().enumerate() {
            assert_eq!(&inc.wavelengths[i], w);
        }
    }

    /// The planner skips a width that already failed on a route only when
    /// nothing can free pixels. With a defrag budget every failed search
    /// must still reach `make_room`: here both new 800 G wavelengths need
    /// the same 9 px, neither fits the fragmented fiber as it stands, and
    /// each is placed by retuning — the second would be lost if the first
    /// failure had pruned it.
    #[test]
    fn a_defrag_budget_turns_the_failed_width_prune_off() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let fiber = g.add_edge(a, b, 100);
        let mut ip = IpTopology::new();
        let link = ip.add_link(a, b, 100);
        ip.add_link(a, b, 100);
        let tight = PlannerConfig {
            grid: SpectrumGrid::new(28),
            ..Default::default()
        };
        // Two live 100 G channels at [6,10) and [16,20): free runs of 6, 6
        // and 8 px, 20 px in all.
        let mut base = plan(Scheme::FlexWan, &g, &ip, &tight);
        assert_eq!(base.wavelengths.len(), 2);
        for (w, start) in base.wavelengths.iter_mut().zip([6, 16]) {
            assert_eq!(w.channel.width.pixels(), 4);
            w.channel.start = start;
        }
        let mut grown = ip.clone();
        grown.set_demand(link, 1700); // 100 live + 2 × 800 new
        let stuck = plan_incremental(&base, &g, &grown, &tight);
        assert_eq!(stuck.unmet, vec![(link, 1600)], "no 9 px run is free");
        let with = PlannerConfig {
            defrag_moves: 2,
            ..tight
        };
        let freed = plan_incremental(&base, &g, &grown, &with);
        assert!(freed.is_feasible(), "unmet {:?}", freed.unmet);
        let new: Vec<_> = freed.wavelengths[2..].iter().collect();
        assert_eq!(new.len(), 2);
        for w in &new {
            assert_eq!(w.channel.width.pixels(), 9);
            assert_eq!(w.path.edges, vec![fiber]);
        }
        assert_ne!(freed.wavelengths[0].channel, base.wavelengths[0].channel);
    }

    #[test]
    fn defrag_budget_enables_growth_with_bounded_retunes() {
        // Fragment a single fiber via incremental arrivals, then grow a
        // demand that only fits after a retune.
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge(a, b, 100);
        let mut ip = IpTopology::new();
        ip.add_link(a, b, 100); // 100 G → 50 GHz = 4 px
        let tight = PlannerConfig {
            grid: SpectrumGrid::new(20),
            ..Default::default()
        };
        let base = plan(Scheme::FlexWan, &g, &ip, &tight);
        // Manually fragment: the base wavelength sits at [0,4); occupy a
        // decoy in the middle by planning a second link, then remove it…
        // simpler: grow to a demand that needs 16 contiguous px while a
        // 4-px wavelength sits at the band start — fits without moves
        // (free [4,20)), so shrink the grid story: grow twice so the
        // second growth needs defrag.
        let mut grown = IpTopology::new();
        grown.add_link(a, b, 100);
        let inc1 = plan_incremental(&base, &g, &grown, &tight);
        assert!(inc1.is_feasible());
        let _ = inc1;
        let without = PlannerConfig {
            defrag_moves: 0,
            ..tight.clone()
        };
        let with = PlannerConfig {
            defrag_moves: 2,
            ..tight
        };
        // Fragmented layout: place wavelengths at [0,4) and force the next
        // allocation to need a 16-px run.
        let mut frag_ip = IpTopology::new();
        frag_ip.add_link(a, b, 100);
        let frag = plan(Scheme::FlexWan, &g, &frag_ip, &with);
        // Retune-free growth to 800 G (112.5 GHz = 9 px at 100 km…
        // actually 800 G @ 112.5 GHz reaches 150 km): free run after the
        // base 4-px channel is [4,20) = 16 px ≥ 9 px → fits without moves.
        // To force fragmentation, pin the base wavelength mid-band first.
        let mut pinned = frag.clone();
        let w0 = &mut pinned.wavelengths[0];
        pinned.spectrum.release(&w0.path, &w0.channel);
        let mid = flexwan_optical::PixelRange::new(8, w0.channel.width);
        pinned.spectrum.occupy_exact(&w0.path, &mid).unwrap();
        w0.channel = mid;
        // Now free runs are [0,8) and [12,20): a 9-px channel needs defrag.
        let mut grown2 = IpTopology::new();
        grown2.add_link(a, b, 900); // 100 existing + 800 new
        let stuck = plan_incremental(&pinned, &g, &grown2, &without);
        assert!(!stuck.is_feasible(), "9 px must not fit while fragmented");
        let freed = plan_incremental(&pinned, &g, &grown2, &with);
        assert!(freed.is_feasible(), "unmet {:?}", freed.unmet);
        // The pinned wavelength was retuned (defrag) — but traffic-wise
        // hitlessly, and only one move was needed.
        assert_ne!(freed.wavelengths[0].channel, mid);
    }
}
