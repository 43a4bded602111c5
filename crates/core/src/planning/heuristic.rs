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

use std::sync::Arc;

use flexwan_optical::format::TransponderFormat;
use flexwan_optical::spectrum::SpectrumGrid;
use flexwan_topo::cache::RouteCache;
use flexwan_topo::graph::Graph;
use flexwan_topo::ip::{IpLinkId, IpTopology};
use flexwan_topo::route::Route;

use crate::planning::ctx::PlanCtx;
use crate::planning::format_dp::FormatTable;
use crate::planning::spectrum::{RunScratch, SpectrumState};
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

/// Why a [`PlannerConfig`] cannot be planned with (names the field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigError(&'static str);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

impl std::error::Error for ConfigError {}

impl PlannerConfig {
    /// Checks the ranges every planner relies on. [`PlanCtx::new`] panics
    /// on a configuration this rejects; validate operator input first.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.k_paths == 0 {
            return Err(ConfigError(
                "k_paths must be at least 1 (one candidate path)",
            ));
        }
        if self.min_alignment == 0 {
            return Err(ConfigError("min_alignment must be at least 1 pixel"));
        }
        if !(self.epsilon.is_finite() && self.epsilon >= 0.0) {
            return Err(ConfigError("epsilon must be finite and >= 0"));
        }
        Ok(())
    }
}

/// The outcome of planning one scheme over one backbone.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The scheme planned.
    pub scheme: Scheme,
    /// Every provisioned wavelength.
    pub wavelengths: Vec<Wavelength>,
    /// Links whose demand could not be fully met, with the shortfall in
    /// Gbps.
    pub unmet: Vec<(IpLinkId, u64)>,
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

    /// Total unmet demand, Gbps.
    pub fn unmet_gbps(&self) -> u64 {
        self.unmet.iter().map(|&(_, g)| g).sum()
    }
}

/// Each link's candidate routes, shared with whoever enumerated them
/// (`routes[i]` serves `ip.links()[i]`).
pub(crate) type LinkRoutes = Vec<Arc<Vec<Route>>>;

/// Plans `scheme` over the backbone: shorthand for
/// `PlanCtx::new(optical, cfg).plan(scheme, ip)`.
pub fn plan(scheme: Scheme, optical: &Graph, ip: &IpTopology, cfg: &PlannerConfig) -> Plan {
    PlanCtx::new(optical, cfg).plan(scheme, ip)
}

/// Forward kept for the `benchmark/` workspace, which imports it by name.
#[doc(hidden)]
pub fn plan_cached(
    scheme: Scheme,
    optical: &Graph,
    ip: &IpTopology,
    cfg: &PlannerConfig,
    cache: &RouteCache,
) -> Plan {
    PlanCtx::new(optical, cfg).sharing(cache).plan(scheme, ip)
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

/// What a placement loop carries through a plan: the spectrum it fills,
/// the format table it selects from and the one way a demand is put on a
/// route.
pub(crate) struct Placement<'a> {
    optical: &'a Graph,
    align: u32,
    defrag_moves: usize,
    pub(crate) spectrum: SpectrumState,
    scratch: RunScratch,
    formats: FormatTable<'static>,
    /// The multiset being placed, reused across demands.
    multiset: Vec<TransponderFormat>,
}

impl<'a> Placement<'a> {
    /// An all-free spectrum for `scheme` under `ctx`; up to
    /// `defrag_moves` retunes may make room for a channel that finds none.
    pub(crate) fn new(ctx: &PlanCtx<'a>, scheme: Scheme, defrag_moves: usize) -> Self {
        Placement {
            optical: ctx.optical(),
            align: ctx.alignment(scheme),
            defrag_moves,
            spectrum: SpectrumState::new(ctx.cfg().grid, ctx.optical().num_edges()),
            scratch: RunScratch::default(),
            formats: FormatTable::new(scheme.transponder(), ctx.cfg().epsilon),
            multiset: Vec::new(),
        }
    }

    /// Covers `demand` Gbps on the `k`-th route of `link`: the exact
    /// format multiset for the route's length (phase 1), then spectrum
    /// assignment widest spacing first, each run of equal spacing one
    /// [`SpectrumState::run`], until the demand is covered. New
    /// wavelengths go on the end of `wavelengths`, which is also what a
    /// retune may move. Returns what is still uncovered — all of it when
    /// no format reaches over the route.
    pub(crate) fn place(
        &mut self,
        wavelengths: &mut Vec<Wavelength>,
        (link, k): (IpLinkId, usize),
        route: &Route,
        demand: u64,
    ) -> u64 {
        let Placement {
            optical,
            align,
            defrag_moves,
            spectrum,
            scratch,
            formats,
            multiset,
        } = self;
        let (optical, align, defrag_moves) = (*optical, *align, *defrag_moves);
        if !formats.select_into(demand, route.length_km, multiset) {
            return demand;
        }
        let mut remaining = demand;
        for equal in multiset.chunk_by(|a, b| a.spacing == b.spacing) {
            if remaining == 0 {
                break;
            }
            let width = equal[0].spacing;
            let mut run = spectrum.run(scratch, route, width, align);
            for &format in equal {
                if remaining == 0 {
                    break;
                }
                let placed = match run.place(spectrum) {
                    Some((channel, chosen)) => Some((channel, route.realize(optical, chosen))),
                    // Occupancy only grows: the rest of the run finds no
                    // channel either. On to the narrower formats, then
                    // the next candidate route.
                    None if defrag_moves == 0 => break,
                    None => {
                        let made = crate::defrag::make_room(
                            spectrum,
                            wavelengths,
                            route,
                            width,
                            align,
                            defrag_moves,
                            optical,
                        );
                        // A retune frees pixels, which no patch follows.
                        run.rebuild(spectrum);
                        made.map(|out| {
                            let path = route.realize(optical, &out.chosen_fibers);
                            (out.channel, path)
                        })
                    }
                };
                if let Some((channel, path)) = placed {
                    remaining = remaining.saturating_sub(u64::from(format.data_rate_gbps));
                    wavelengths.push(Wavelength {
                        link,
                        path_index: k,
                        path,
                        format,
                        channel,
                    });
                }
            }
        }
        remaining
    }
}

/// Phase 1 + 2 for every link, in `order`: covers what the `live`
/// wavelengths leave unprovisioned of each link's demand, placing new
/// wavelengths around them. The one placement loop of the fresh and the
/// incremental planner.
pub(crate) fn place_deficits(
    ctx: &PlanCtx,
    scheme: Scheme,
    ip: &IpTopology,
    routes: &LinkRoutes,
    order: LinkOrder,
    live: Vec<Wavelength>,
) -> Plan {
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
    let mut placement = Placement::new(ctx, scheme, ctx.cfg().defrag_moves);
    let mut provisioned = vec![0u64; ip.num_links()];
    for w in &live {
        placement
            .spectrum
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
            remaining = placement.place(&mut wavelengths, (link.id, k), route, remaining);
        }
        if remaining > 0 {
            unmet.push((link.id, remaining));
        }
    }

    Plan {
        scheme,
        wavelengths,
        unmet,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planning::format_dp::oracle;
    use flexwan_optical::spectrum::{PixelRange, PixelWidth};
    use flexwan_topo::continental::ScaleParams;
    use flexwan_topo::graph::NodeId;
    use flexwan_topo::tbackbone::t_backbone;
    use std::collections::HashSet;

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
        let ctx = PlanCtx::new(&g, &cfg);
        let flex = ctx.max_feasible_scale(Scheme::FlexWan, &ip, 12);
        let rad = ctx.max_feasible_scale(Scheme::Radwan, &ip, 12);
        let fixed = ctx.max_feasible_scale(Scheme::FixedGrid100G, &ip, 12);
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

    #[test]
    fn growth_adds_without_disturbing() {
        let (g, ip) = backbone();
        let base = plan(Scheme::FlexWan, &g, &ip, &small_cfg(96));
        assert!(base.is_feasible());
        let before: Vec<_> = base.wavelengths.clone();

        // Demands double and a new link appears.
        let mut grown = ip.scaled(2);
        grown.add_link(NodeId(0), NodeId(2), 600);
        let inc = PlanCtx::new(&g, &small_cfg(96)).plan_incremental(&base, &grown);
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
    fn no_deficit_is_a_noop() {
        let (g, ip) = backbone();
        let base = plan(Scheme::FlexWan, &g, &ip, &small_cfg(96));
        let inc = PlanCtx::new(&g, &small_cfg(96)).plan_incremental(&base, &ip);
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
        let inc = PlanCtx::new(&g, &tight).plan_incremental(&base, &ip.scaled(3));
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
        let stuck = PlanCtx::new(&g, &tight).plan_incremental(&base, &grown);
        assert_eq!(stuck.unmet, vec![(link, 1600)], "no 9 px run is free");
        let with = PlannerConfig {
            defrag_moves: 2,
            ..tight
        };
        let freed = PlanCtx::new(&g, &with).plan_incremental(&base, &grown);
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
        // Fragment a single fiber, then grow a demand that only fits
        // after a retune.
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
        let without = PlannerConfig {
            defrag_moves: 0,
            ..tight.clone()
        };
        let with = PlannerConfig {
            defrag_moves: 2,
            ..tight
        };
        // The 4-px wavelength lands at [0,4), leaving a 16-px run where a
        // 9-px 800 G channel fits without moves: pin it mid-band first.
        let frag = plan(Scheme::FlexWan, &g, &ip, &with);
        let mut pinned = frag.clone();
        let w0 = &mut pinned.wavelengths[0];
        let mid = flexwan_optical::PixelRange::new(8, w0.channel.width);
        w0.channel = mid;
        // Now free runs are [0,8) and [12,20): a 9-px channel needs defrag.
        let mut grown2 = IpTopology::new();
        grown2.add_link(a, b, 900); // 100 existing + 800 new
        let stuck = PlanCtx::new(&g, &without).plan_incremental(&pinned, &grown2);
        assert!(!stuck.is_feasible(), "9 px must not fit while fragmented");
        let freed = PlanCtx::new(&g, &with).plan_incremental(&pinned, &grown2);
        assert!(freed.is_feasible(), "unmet {:?}", freed.unmet);
        // The pinned wavelength was retuned (defrag) — but traffic-wise
        // hitlessly, and only one move was needed.
        assert_ne!(freed.wavelengths[0].channel, mid);
    }

    /// The oracle: `place_deficits` as it stood before the run kernel
    /// (fffc5f4), verbatim but for the DP, which is the per-call one the
    /// format table replaced ([`oracle::select_formats`]) — one stateless
    /// `allocate_route` per channel, every fiber's fit-starts bitmap
    /// rebuilt each time, every multiset solved from scratch.
    fn place_deficits_per_channel(
        ctx: &PlanCtx,
        scheme: Scheme,
        ip: &IpTopology,
        routes: &LinkRoutes,
        order: LinkOrder,
        live: Vec<Wavelength>,
    ) -> Plan {
        let (optical, cfg) = (ctx.optical(), ctx.cfg());
        let model = scheme.transponder();
        let align = ctx.alignment(scheme);

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
                let Some(formats) =
                    oracle::select_formats(model, remaining, route.length_km, cfg.epsilon)
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
        }
    }

    /// Plans `ip` around `live` both ways and insists on one `Plan`:
    /// wavelengths and unmet list.
    fn both_ways(ctx: &PlanCtx, scheme: Scheme, ip: &IpTopology, live: &[Wavelength]) -> Plan {
        let routes = ctx.routes(ip.links().iter(), ctx.cfg().k_paths, &HashSet::new());
        let order = ctx.cfg().order;
        let oracle = place_deficits_per_channel(ctx, scheme, ip, &routes, order, live.to_vec());
        let plan = place_deficits(ctx, scheme, ip, &routes, order, live.to_vec());
        // Not `assert_eq!`: two T-backbone plans are megabytes of `Debug`.
        let differ = plan.wavelengths.iter().zip(&oracle.wavelengths);
        let first = differ.take_while(|(a, b)| a == b).count();
        assert!(
            plan == oracle,
            "{scheme}: wavelength {first} differs, or unmet"
        );
        plan
    }

    fn t_backbone_k5() -> (flexwan_topo::tbackbone::Backbone, PlannerConfig) {
        let cfg = PlannerConfig {
            k_paths: 5,
            ..Default::default()
        };
        (t_backbone(&ScaleParams::tbackbone()), cfg)
    }

    #[test]
    fn runs_place_what_the_per_channel_loop_places() {
        let (bb, cfg) = t_backbone_k5();
        let coarse = PlannerConfig {
            min_alignment: 6,
            ..cfg.clone()
        };
        let retuning = PlannerConfig {
            defrag_moves: 2,
            ..cfg.clone()
        };
        let mut feasible = 0;
        for scheme in Scheme::ALL {
            let ctx = PlanCtx::new(&bb.optical, &cfg);
            let mut base = None;
            for scale in 1..=6 {
                let p = both_ways(&ctx, scheme, &bb.ip.scaled(scale), &[]);
                feasible += usize::from(p.is_feasible());
                base.get_or_insert(p);
            }
            // Growth around live wavelengths (what `plan_incremental`
            // runs), and a coarser pixel grid.
            let live = base.expect("scale 1 planned").wavelengths;
            let grown = both_ways(&ctx, scheme, &bb.ip.scaled(3), &live);
            assert_eq!(grown.wavelengths[..live.len()], live[..]);
            assert!(grown.wavelengths.len() > live.len());
            if scheme == Scheme::FlexWan {
                // Outgrowing the spectrum with a retune budget: live
                // wavelengths move. (The other two schemes' retune
                // searches take minutes on this backbone.)
                let retuning = PlanCtx::new(&bb.optical, &retuning);
                let moved = both_ways(&retuning, scheme, &bb.ip.scaled(6), &live);
                assert!(moved.wavelengths.iter().zip(&live).any(|(a, b)| a != b));
            }
            both_ways(
                &PlanCtx::new(&bb.optical, &coarse),
                scheme,
                &bb.ip.scaled(2),
                &[],
            );
        }
        assert!((1..18).contains(&feasible), "{feasible} of 18 feasible");
    }

    /// A wavelength's path shares its route's nodes: no plan carries a
    /// copy of them per wavelength.
    #[test]
    fn a_wavelength_shares_its_routes_nodes() {
        let (bb, cfg) = t_backbone_k5();
        let ctx = PlanCtx::new(&bb.optical, &cfg);
        let ip = bb.ip.scaled(2);
        let routes = ctx.routes(ip.links().iter(), cfg.k_paths, &HashSet::new());
        for scheme in Scheme::ALL {
            let plan = place_deficits(&ctx, scheme, &ip, &routes, cfg.order, Vec::new());
            assert!(plan.wavelengths.len() > 100, "{scheme}");
            for w in &plan.wavelengths {
                let route = &routes[w.link.0 as usize][w.path_index];
                assert!(Arc::ptr_eq(&w.path.nodes, &route.nodes), "{scheme}: {w}");
            }
        }
    }

    /// A chain of conduits, fiber `f` of conduit `h` carrying a live 100 G
    /// channel of 4 px at each of `starts[h][f]` that does not collide
    /// with an earlier one, under a budget of two retunes; and the demand
    /// set that keeps them and asks for 2400 G end to end — at this
    /// length three 800 G wavelengths, one run of 9 px.
    fn fragmented_chain(
        pixels: u32,
        starts: &[Vec<Vec<u32>>],
    ) -> (Graph, PlannerConfig, IpTopology, Vec<Wavelength>) {
        let mut g = Graph::new();
        let nodes: Vec<NodeId> = (0..=starts.len())
            .map(|i| g.add_node(format!("n{i}")))
            .collect();
        let cfg = PlannerConfig {
            grid: SpectrumGrid::new(pixels),
            defrag_moves: 2,
            ..Default::default()
        };
        let mut spectrum = SpectrumState::new(cfg.grid, starts.iter().map(Vec::len).sum());
        let mut ip = IpTopology::new();
        let mut live = Vec::new();
        let width = PixelWidth::new(4);
        for (h, fibers) in starts.iter().enumerate() {
            for (f, starts) in fibers.iter().enumerate() {
                let (a, b) = (nodes[h], nodes[h + 1]);
                let e = g.add_edge(a, b, 50 + f as u32);
                let path = flexwan_topo::path::Path::new(&g, vec![a, b], vec![e]);
                let channels: Vec<PixelRange> = (starts.iter())
                    .map(|&start| PixelRange::new(start, width))
                    .filter(|channel| spectrum.occupy_exact(&path, channel).is_ok())
                    .collect();
                let link = ip.add_link(a, b, 100 * channels.len() as u64);
                live.extend(channels.into_iter().map(|channel| Wavelength {
                    link,
                    path_index: 0,
                    path: path.clone(),
                    format: TransponderFormat::derive(100, width, 3000),
                    channel,
                }));
            }
        }
        ip.add_link(nodes[0], nodes[starts.len()], 2400);
        (g, cfg, ip, live)
    }

    /// With a defrag budget a failed placement goes to `make_room`, which
    /// frees pixels in the middle of a run: the bitmaps are rebuilt, not
    /// patched. The first instance is one of the draws in ten thousand
    /// where that shows in the plan (a retune leaves a free window for the
    /// next channel, which stale bitmaps would send to `make_room` and a
    /// lower window); the seeded draws after it count how often a retune
    /// is followed by another channel of its run.
    #[test]
    fn a_retune_mid_run_changes_nothing() {
        let pinned = [vec![vec![22, 34, 11, 27, 2, 16], vec![4, 8, 29]]];
        let (g, cfg, ip, live) = fragmented_chain(40, &pinned);
        let plan = both_ways(&PlanCtx::new(&g, &cfg), Scheme::FlexWan, &ip, &live);
        let new = &plan.wavelengths[live.len()..];
        let starts: Vec<u32> = new.iter().map(|w| w.channel.start).collect();
        assert_eq!(starts, [12, 21, 30]);

        let mut rng = flexwan_util::rng::ChaCha8Rng::seed_from_u64(0xDEF2);
        let mut mid_run = 0;
        for _case in 0..300 {
            let pixels = rng.gen_range(40u32..64);
            let starts: Vec<Vec<Vec<u32>>> = (0..rng.gen_range(1usize..3))
                .map(|_hop| {
                    (0..rng.gen_range(1usize..3))
                        .map(|_fiber| {
                            (0..rng.gen_range(1usize..9))
                                .map(|_| rng.gen_range(0..pixels - 4))
                                .collect()
                        })
                        .collect()
                })
                .collect();
            let (g, cfg, ip, live) = fragmented_chain(pixels, &starts);
            let plan = both_ways(&PlanCtx::new(&g, &cfg), Scheme::FlexWan, &ip, &live);
            let new = &plan.wavelengths[live.len()..];
            assert!(new.iter().all(|w| w.channel.width.pixels() == 9));
            let retuned = plan.wavelengths.iter().zip(&live).any(|(a, b)| a != b);
            mid_run += usize::from(retuned && new.len() >= 2);
        }
        assert!(mid_run >= 30, "only {mid_run} draws retuned inside a run");
    }

    /// The mechanism, as work done: on the T-backbone's 100G-WAN plan at
    /// scale 6 a link places dozens of identical 4-px channels on a route,
    /// and the fit-starts bitmaps are built once per (link, route, width)
    /// run where the per-channel loop builds them once per channel.
    #[test]
    fn a_run_builds_its_bitmaps_once() {
        use crate::planning::spectrum::tally;
        let (bb, cfg) = t_backbone_k5();
        let ctx = PlanCtx::new(&bb.optical, &cfg);
        let ip = bb.ip.scaled(6);
        let routes = ctx.routes(ip.links().iter(), cfg.k_paths, &HashSet::new());
        let scheme = Scheme::FixedGrid100G;

        tally::take();
        let plan = place_deficits(&ctx, scheme, &ip, &routes, cfg.order, Vec::new());
        let runs = tally::take();
        let oracle = place_deficits_per_channel(&ctx, scheme, &ip, &routes, cfg.order, Vec::new());
        let per_channel = tally::take();
        assert_eq!(plan, oracle);

        // One format, so one run per (link, route tried): its fibers are
        // built once where the per-channel loop builds them for every
        // channel it places, plus the probe that finds the route full.
        let (mut once, mut per_probe) = (0, 0);
        for (link, routes) in ip.links().iter().zip(&routes) {
            let mut remaining = link.demand_gbps;
            for (k, route) in routes.iter().enumerate() {
                let reach = scheme.transponder().formats_reaching(route.length_km);
                if remaining == 0 || reach.is_empty() {
                    continue;
                }
                let here = |w: &&Wavelength| w.link == link.id && w.path_index == k;
                let placed = plan.wavelengths.iter().filter(here).count();
                remaining -= 100 * placed as u64;
                let fibers = tally::fibers(route);
                once += fibers;
                per_probe += fibers * (placed + usize::from(remaining > 0));
            }
        }
        assert_eq!((runs.built, per_channel.stateless), (once, per_probe));
        assert_eq!((once, per_probe), (3_334, 65_717));
        let hops: usize = plan.wavelengths.iter().map(|w| w.path.edges.len()).sum();
        assert_eq!((runs.patched, runs.stateless), (hops, 0));
        assert_eq!((per_channel.built, per_channel.patched), (0, 0));
        assert_eq!((plan.wavelengths.len(), hops), (7_568, 16_531));
        // The scratch is sized by the largest route, not per run.
        assert!(runs.grown <= 4, "scratch regrown {} times", runs.grown);
    }
}
