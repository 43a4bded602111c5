//! The scalable network-planning pipeline (DESIGN.md §3.2).
//!
//! Two phases per IP link, most-constrained links first:
//!
//! 1. **format selection** — the exact per-link DP of
//!    [`crate::planning::format_dp`] on the candidate path's length;
//! 2. **spectrum assignment** — joint first-fit across the path's fibers
//!    ([`crate::planning::spectrum`]), falling back across the K candidate
//!    paths and splitting the demand across paths when one path's spectrum
//!    is exhausted.
//!
//! A link whose demand cannot be placed on any candidate path is recorded
//! as unmet — at scale sweeps this is what bounds each scheme's maximum
//! supportable capacity (Figure 12).

use std::collections::HashSet;
use std::sync::Arc;

use flexwan_optical::spectrum::{PixelWidth, SpectrumGrid};
use flexwan_topo::cache::RouteCache;
use flexwan_topo::graph::{EdgeId, Graph};
use flexwan_topo::ip::{IpLink, IpLinkId, IpTopology};
use flexwan_topo::ksp::DijkstraScratch;
use flexwan_topo::route::{k_shortest_routes_scratch, Route};

use crate::planning::format_dp::select_formats;
use crate::planning::spectrum::SpectrumState;
use crate::scheme::Scheme;
use crate::wavelength::Wavelength;

/// The order in which IP links get spectrum (ablation: DESIGN.md §5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkOrder {
    /// Longest shortest-path first, then largest demand (default: the
    /// most-constrained links pick their spectrum while it is plentiful).
    MostConstrainedFirst,
    /// Shortest paths first (the adversarial order).
    ShortestFirst,
    /// The order links appear in the input.
    InputOrder,
    /// A seeded random shuffle.
    Random(u64),
}

/// Planner configuration.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Number of candidate optical paths per IP link (the K of KSP).
    pub k_paths: usize,
    /// The ε of the objective `Σλ + ε·Σλ·Y`: balance between transponder
    /// count (direct cost) and spectrum usage (indirect cost).
    pub epsilon: f64,
    /// Spectrum dimensioning of every fiber.
    pub grid: SpectrumGrid,
    /// Link processing order.
    pub order: LinkOrder,
    /// Minimum channel-start alignment in pixels (1 = true pixel-wise
    /// WSS; larger values emulate coarser-granularity hardware for the
    /// pixel-granularity ablation). Fixed-grid schemes already align to
    /// their grid; the effective alignment is the maximum of the two.
    pub min_alignment: u32,
    /// Defragmentation budget: when a wavelength finds no contiguous
    /// spectrum, up to this many existing wavelengths may be hitlessly
    /// retuned to make room (0 = off; see [`crate::defrag`]).
    pub defrag_moves: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            k_paths: 3,
            epsilon: 1e-3,
            grid: SpectrumGrid::c_band(),
            order: LinkOrder::MostConstrainedFirst,
            min_alignment: 1,
            defrag_moves: 0,
        }
    }
}

/// The outcome of planning one scheme over one backbone.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The scheme planned.
    pub scheme: Scheme,
    /// Every provisioned wavelength.
    pub wavelengths: Vec<Wavelength>,
    /// Links whose demand could not be fully met, with the shortfall in
    /// Gbps.
    pub unmet: Vec<(IpLinkId, u64)>,
    /// Final per-fiber spectrum occupancy.
    pub spectrum: SpectrumState,
}

impl Plan {
    /// Whether every demand was fully provisioned.
    pub fn is_feasible(&self) -> bool {
        self.unmet.is_empty()
    }

    /// Number of transponder pairs deployed (one per wavelength).
    pub fn transponder_count(&self) -> usize {
        self.wavelengths.len()
    }

    /// The paper's spectrum-usage metric `Σ_e Σ_k Σ_j λ^{e,k}_j · Y_j`,
    /// GHz.
    pub fn spectrum_usage_ghz(&self) -> f64 {
        self.wavelengths
            .iter()
            .map(|w| w.format.spacing.ghz())
            .sum()
    }

    /// Capacity provisioned for `link`, Gbps.
    pub fn provisioned_gbps(&self, link: IpLinkId) -> u64 {
        self.wavelengths
            .iter()
            .filter(|w| w.link == link)
            .map(|w| u64::from(w.format.data_rate_gbps))
            .sum()
    }

    /// The wavelengths provisioned for `link`.
    pub fn wavelengths_of(&self, link: IpLinkId) -> impl Iterator<Item = &Wavelength> {
        self.wavelengths.iter().filter(move |w| w.link == link)
    }

    /// Total unmet demand, Gbps.
    pub fn unmet_gbps(&self) -> u64 {
        self.unmet.iter().map(|&(_, g)| g).sum()
    }
}

/// Each link's candidate routes, shared with whoever enumerated them
/// (`routes[i]` serves `ip.links()[i]`).
pub(crate) type LinkRoutes = Vec<Arc<Vec<Route>>>;

/// Candidate node-distinct routes per link (parallel fibers become
/// per-hop alternatives; see `flexwan_topo::route`), enumerated over one
/// shared Dijkstra scratch arena.
pub(crate) fn fresh_routes(optical: &Graph, ip: &IpTopology, k: usize) -> LinkRoutes {
    let none = HashSet::new();
    let mut scratch = DijkstraScratch::new();
    let mut routes =
        |l: &IpLink| k_shortest_routes_scratch(optical, l.src, l.dst, k, &none, &mut scratch);
    ip.links().iter().map(|l| Arc::new(routes(l))).collect()
}

/// [`fresh_routes`] served by `cache`, avoiding `banned` fibers: the
/// planner borrows the cache's own lists, it copies no route.
pub(crate) fn cached_routes(
    optical: &Graph,
    ip: &IpTopology,
    k: usize,
    cache: &RouteCache,
    banned: &HashSet<EdgeId>,
) -> LinkRoutes {
    ip.links()
        .iter()
        .map(|l| cache.routes(optical, l.src, l.dst, k, banned))
        .collect()
}

/// Plans `scheme` over the backbone: the scalable counterpart of
/// Algorithm 1 (validated against the exact MIP in tests).
pub fn plan(scheme: Scheme, optical: &Graph, ip: &IpTopology, cfg: &PlannerConfig) -> Plan {
    let routes = fresh_routes(optical, ip, cfg.k_paths);
    plan_with_routes(scheme, optical, ip, cfg, &routes)
}

/// [`plan`] with the candidate routes served by `cache`: routes depend
/// only on the graph, endpoints and `k` — not on the scheme or the
/// demand scale — so scheme/scale sweeps over one backbone enumerate
/// each link's routes once. Output is bit-identical to [`plan`].
pub fn plan_cached(
    scheme: Scheme,
    optical: &Graph,
    ip: &IpTopology,
    cfg: &PlannerConfig,
    cache: &RouteCache,
) -> Plan {
    plan_cached_banned(scheme, optical, ip, cfg, cache, &HashSet::new())
}

/// [`plan_cached`] with candidate routes constrained to avoid `banned`
/// fibers. This is how the sharding layer solves a region subproblem on
/// the *full* graph — banning every fiber outside the region — so that
/// one [`RouteCache`] serves every shard: the cache key is
/// `(src, dst, k, banned)` over global ids, which stays collision-free
/// where per-shard renumbered subgraphs would alias each other's keys.
pub fn plan_cached_banned(
    scheme: Scheme,
    optical: &Graph,
    ip: &IpTopology,
    cfg: &PlannerConfig,
    cache: &RouteCache,
    banned: &HashSet<EdgeId>,
) -> Plan {
    let routes = cached_routes(optical, ip, cfg.k_paths, cache, banned);
    plan_with_routes(scheme, optical, ip, cfg, &routes)
}

/// Link indices with the longest first route first, then the largest
/// demand (ties by index): the most-constrained links pick their spectrum
/// while it is plentiful.
pub(crate) fn most_constrained_first(ip: &IpTopology, routes: &LinkRoutes) -> Vec<usize> {
    let mut order: Vec<usize> = (0..ip.num_links()).collect();
    order.sort_by_key(|&i| {
        let len = routes[i].first().map_or(u32::MAX, |r| r.length_km);
        (
            std::cmp::Reverse(len),
            std::cmp::Reverse(ip.links()[i].demand_gbps),
            i,
        )
    });
    order
}

/// The planning pipeline proper, over pre-enumerated candidate routes.
fn plan_with_routes(
    scheme: Scheme,
    optical: &Graph,
    ip: &IpTopology,
    cfg: &PlannerConfig,
    routes: &LinkRoutes,
) -> Plan {
    assert!(cfg.k_paths >= 1, "need at least one candidate path");
    assert!(cfg.min_alignment >= 1, "alignment is at least one pixel");
    place_deficits(scheme, optical, ip, cfg, routes, cfg.order, Vec::new())
}

/// Phase 1 + 2 for every link, in `order`: covers what the `live`
/// wavelengths leave unprovisioned of each link's demand, placing new
/// wavelengths around them. The one placement loop of the fresh and the
/// incremental planner.
pub(crate) fn place_deficits(
    scheme: Scheme,
    optical: &Graph,
    ip: &IpTopology,
    cfg: &PlannerConfig,
    routes: &LinkRoutes,
    order: LinkOrder,
    live: Vec<Wavelength>,
) -> Plan {
    let model = scheme.transponder();
    let align = scheme.alignment_pixels().max(cfg.min_alignment);

    let mut links: Vec<usize> = (0..ip.num_links()).collect();
    match order {
        LinkOrder::MostConstrainedFirst => links = most_constrained_first(ip, routes),
        LinkOrder::ShortestFirst => links.sort_by_key(|&i| {
            let len = routes[i].first().map_or(u32::MAX, |p| p.length_km);
            (len, ip.links()[i].demand_gbps, i)
        }),
        LinkOrder::InputOrder => {}
        LinkOrder::Random(seed) => {
            let mut rng = flexwan_util::rng::ChaCha8Rng::seed_from_u64(seed);
            rng.shuffle(&mut links);
        }
    }

    // Replay the live spectrum and tally what it already provisions.
    let mut spectrum = SpectrumState::new(cfg.grid, optical.num_edges());
    let mut provisioned = vec![0u64; ip.num_links()];
    for w in &live {
        spectrum
            .occupy_exact(&w.path, &w.channel)
            .expect("live wavelengths are conflict-free");
        if let Some(p) = provisioned.get_mut(w.link.0 as usize) {
            *p += u64::from(w.format.data_rate_gbps);
        }
    }
    let mut wavelengths = live;
    let mut unmet = Vec::new();

    for i in links {
        let link = &ip.links()[i];
        let mut remaining = link.demand_gbps.saturating_sub(provisioned[i]);
        for (k, route) in routes[i].iter().enumerate() {
            if remaining == 0 {
                break;
            }
            let Some(formats) = select_formats(model, remaining, route.length_km, cfg.epsilon)
            else {
                continue; // no format reaches over this route
            };
            // Without defragmentation occupancy only grows during a plan,
            // so once a width finds no channel on this route no width at
            // least as large can: those searches are skipped. A retune
            // frees pixels, so with a defrag budget nothing is skipped.
            let mut failed: Option<PixelWidth> = None;
            for format in formats {
                if remaining == 0 {
                    break;
                }
                if failed.is_some_and(|w| format.spacing >= w) {
                    continue;
                }
                let placed = spectrum
                    .allocate_route(route, format.spacing, align)
                    .or_else(|| {
                        if cfg.defrag_moves == 0 {
                            failed = Some(format.spacing);
                            return None;
                        }
                        crate::defrag::make_room(
                            &mut spectrum,
                            &mut wavelengths,
                            route,
                            format.spacing,
                            align,
                            cfg.defrag_moves,
                            optical,
                        )
                        .map(|out| (out.channel, out.chosen_fibers))
                    });
                if let Some((channel, chosen)) = placed {
                    remaining = remaining.saturating_sub(u64::from(format.data_rate_gbps));
                    wavelengths.push(Wavelength {
                        link: link.id,
                        path_index: k,
                        path: route.realize(optical, &chosen),
                        format,
                        channel,
                    });
                }
                // On failure: try the remaining (narrower) formats of the
                // multiset, then the next candidate route.
            }
        }
        if remaining > 0 {
            unmet.push((link.id, remaining));
        }
    }

    Plan {
        scheme,
        wavelengths,
        unmet,
        spectrum,
    }
}

/// Largest demand multiplier in `1..=max_scale` at which `scheme` still
/// fully provisions the (scaled) demand set; 0 when even scale 1 is
/// infeasible. The Figure 12 "maximum supported capacity scale".
pub fn max_feasible_scale(
    scheme: Scheme,
    optical: &Graph,
    ip: &IpTopology,
    cfg: &PlannerConfig,
    max_scale: u64,
) -> u64 {
    // One cache across the scale ladder: scaling demands leaves the
    // links' endpoints (and hence their candidate routes) unchanged.
    max_feasible_scale_cached(scheme, optical, ip, cfg, max_scale, &RouteCache::new())
}

/// [`max_feasible_scale`] sharing `cache` with the caller's wider sweep.
pub fn max_feasible_scale_cached(
    scheme: Scheme,
    optical: &Graph,
    ip: &IpTopology,
    cfg: &PlannerConfig,
    max_scale: u64,
    cache: &RouteCache,
) -> u64 {
    let mut best = 0;
    for s in 1..=max_scale {
        if plan_cached(scheme, optical, &ip.scaled(s), cfg, cache).is_feasible() {
            best = s;
        } else {
            break; // feasibility is monotone in the scale
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexwan_optical::spectrum::PixelRange;

    /// Two-node backbone with two parallel fiber routes.
    fn two_node() -> (Graph, IpTopology) {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge(a, b, 200);
        g.add_edge(a, b, 240);
        let mut ip = IpTopology::new();
        ip.add_link(a, b, 800);
        (g, ip)
    }

    /// Triangle backbone: direct A–B fiber plus a detour via C.
    fn triangle() -> (Graph, IpTopology) {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge(a, b, 150);
        g.add_edge(a, c, 400);
        g.add_edge(c, b, 500);
        let mut ip = IpTopology::new();
        ip.add_link(a, b, 600);
        (g, ip)
    }

    fn small_cfg(pixels: u32) -> PlannerConfig {
        PlannerConfig {
            grid: SpectrumGrid::new(pixels),
            ..Default::default()
        }
    }

    #[test]
    fn flexwan_one_wavelength_for_800g_short() {
        let (g, ip) = two_node();
        let p = plan(Scheme::FlexWan, &g, &ip, &small_cfg(96));
        assert!(p.is_feasible());
        assert_eq!(p.transponder_count(), 1, "800G at 200 km is one SVT");
        assert_eq!(p.wavelengths[0].format.data_rate_gbps, 800);
        assert_eq!(p.provisioned_gbps(IpLinkId(0)), 800);
    }

    #[test]
    fn radwan_needs_three_wavelengths() {
        let (g, ip) = two_node();
        let p = plan(Scheme::Radwan, &g, &ip, &small_cfg(96));
        assert!(p.is_feasible());
        assert_eq!(p.transponder_count(), 3); // 300+300+200
        assert_eq!(p.spectrum_usage_ghz(), 225.0);
    }

    #[test]
    fn fixed_needs_eight() {
        let (g, ip) = two_node();
        let p = plan(Scheme::FixedGrid100G, &g, &ip, &small_cfg(96));
        assert!(p.is_feasible());
        assert_eq!(p.transponder_count(), 8);
        assert_eq!(p.spectrum_usage_ghz(), 400.0);
    }

    #[test]
    fn channels_never_overlap_on_a_fiber() {
        let (g, ip) = two_node();
        for scheme in Scheme::ALL {
            let p = plan(scheme, &g, &ip, &small_cfg(96));
            // Reconstruct per-fiber occupancy and check pairwise overlap.
            for e in g.edges() {
                let chans: Vec<PixelRange> = p
                    .wavelengths
                    .iter()
                    .filter(|w| w.path.uses_edge(e.id))
                    .map(|w| w.channel)
                    .collect();
                for (i, a) in chans.iter().enumerate() {
                    for b in &chans[i + 1..] {
                        assert!(!a.overlaps(b), "{scheme}: overlap {a} vs {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn reach_constraint_always_satisfied() {
        let (g, ip) = triangle();
        for scheme in Scheme::ALL {
            let p = plan(scheme, &g, &ip, &small_cfg(96));
            for w in &p.wavelengths {
                assert!(
                    w.format.reach_km >= w.path.length_km,
                    "{scheme}: {w} violates reach"
                );
            }
        }
    }

    #[test]
    fn fixed_grid_alignment_respected() {
        let (g, ip) = two_node();
        let p = plan(Scheme::Radwan, &g, &ip, &small_cfg(96));
        for w in &p.wavelengths {
            assert_eq!(w.channel.start % 6, 0, "RADWAN channel off the 75 GHz grid");
            assert_eq!(w.channel.width.pixels(), 6);
        }
        let p = plan(Scheme::FixedGrid100G, &g, &ip, &small_cfg(96));
        for w in &p.wavelengths {
            assert_eq!(w.channel.start % 4, 0);
        }
    }

    #[test]
    fn demand_splits_across_parallel_fibers_when_spectrum_tight() {
        // Grid of 11 px: both 800 G wavelengths need 137.5 GHz = 11 px
        // (the route length is conservatively the 240 km parallel), so
        // each must occupy its own fiber pair of the a–b conduit.
        let (g, ip) = two_node();
        let mut ip2 = IpTopology::new();
        ip2.add_link(
            flexwan_topo::graph::NodeId(0),
            flexwan_topo::graph::NodeId(1),
            1600,
        );
        let _ = ip;
        let p = plan(Scheme::FlexWan, &g, &ip2, &small_cfg(11));
        assert!(p.is_feasible(), "unmet: {:?}", p.unmet);
        assert_eq!(p.transponder_count(), 2);
        let fibers_used: std::collections::HashSet<_> =
            p.wavelengths.iter().map(|w| w.path.edges[0]).collect();
        assert_eq!(
            fibers_used.len(),
            2,
            "demand must split across both fiber pairs"
        );
    }

    #[test]
    fn infeasible_when_spectrum_exhausted() {
        let (g, ip) = two_node(); // 800 G demand
                                  // 4 pixels = 50 GHz per fiber: no SVT format for 800 G fits.
        let p = plan(Scheme::FlexWan, &g, &ip, &small_cfg(4));
        assert!(!p.is_feasible());
        assert!(p.unmet_gbps() > 0);
    }

    #[test]
    fn unreachable_demand_reported_unmet() {
        // 6000 km path: nothing reaches.
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge(a, b, 6000);
        let mut ip = IpTopology::new();
        ip.add_link(a, b, 100);
        for scheme in Scheme::ALL {
            let p = plan(scheme, &g, &ip, &small_cfg(96));
            assert!(!p.is_feasible(), "{scheme} should fail at 6000 km");
            assert_eq!(p.unmet_gbps(), 100);
        }
    }

    #[test]
    fn max_scale_ordering_flexwan_wins() {
        // On a tight grid FlexWAN must support a strictly larger scale
        // than RADWAN, which beats 100G-WAN (Figure 12's 8×/5×/3×
        // ordering).
        let (g, ip) = two_node();
        let cfg = small_cfg(48); // 600 GHz per fiber
        let flex = max_feasible_scale(Scheme::FlexWan, &g, &ip, &cfg, 12);
        let rad = max_feasible_scale(Scheme::Radwan, &g, &ip, &cfg, 12);
        let fixed = max_feasible_scale(Scheme::FixedGrid100G, &g, &ip, &cfg, 12);
        assert!(flex > rad, "flex {flex} ≤ radwan {rad}");
        assert!(rad >= fixed, "radwan {rad} < fixed {fixed}");
    }

    #[test]
    fn detour_used_when_direct_path_lacks_reach() {
        // Direct fiber 150 km is fine; test the reverse: a link whose
        // direct path is too long for the chosen format falls back to the
        // detour… here we instead verify the planner uses the detour when
        // the direct fiber is spectrally full.
        let (g, ip) = triangle();
        let cfg = small_cfg(10);
        // 600 G at 150 km: SVT picks 87.5 GHz (7 px). Two links of 600 G:
        // second cannot fit 7 px twice in 10 px → detour (900 km) needs
        // 150 GHz = 12 px > 10 px → unmet. With 20 px both fit directly.
        let mut ip2 = IpTopology::new();
        ip2.add_link(
            flexwan_topo::graph::NodeId(0),
            flexwan_topo::graph::NodeId(1),
            600,
        );
        ip2.add_link(
            flexwan_topo::graph::NodeId(0),
            flexwan_topo::graph::NodeId(1),
            600,
        );
        let _ = ip;
        let p10 = plan(Scheme::FlexWan, &g, &ip2, &cfg);
        assert!(!p10.is_feasible());
        let p20 = plan(Scheme::FlexWan, &g, &ip2, &small_cfg(20));
        assert!(p20.is_feasible());
    }

    #[test]
    fn deterministic() {
        let (g, ip) = triangle();
        let a = plan(Scheme::FlexWan, &g, &ip, &small_cfg(64));
        let b = plan(Scheme::FlexWan, &g, &ip, &small_cfg(64));
        assert_eq!(a.wavelengths, b.wavelengths);
    }

    #[test]
    fn cached_plan_is_bit_identical_across_schemes() {
        let (g, ip) = triangle();
        let cache = RouteCache::new();
        for scheme in Scheme::ALL {
            let cached = plan_cached(scheme, &g, &ip, &small_cfg(64), &cache);
            let plain = plan(scheme, &g, &ip, &small_cfg(64));
            assert_eq!(cached.wavelengths, plain.wavelengths);
            assert_eq!(cached.unmet, plain.unmet);
        }
        // One link, one key: scheme 1 misses, schemes 2 and 3 hit.
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 2);
    }
}
