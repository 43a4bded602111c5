//! The planning context: the one way to ask the heuristic family for a
//! plan or a restoration.
//!
//! The paper's candidate paths are one input — the KSP set `P_{e,k}` of
//! Algorithm 1 (§5), re-run with the cut fibers banned as `P'_{e,k}` for
//! restoration (§8). [`PlanCtx`] is the only code that turns (endpoints,
//! k, banned) into routes for the heuristic planners and the only code
//! that opens their `planning.plan` / `restore.scenario` spans
//! (DESIGN.md §3.2). The placement loops it drives stay in
//! [`heuristic`](crate::planning::heuristic), [`protect`](crate::protect)
//! and [`restore::heuristic`](crate::restore::heuristic).

use std::collections::HashSet;

use flexwan_obs::{Obs, Span};
use flexwan_topo::cache::RouteCache;
use flexwan_topo::graph::{EdgeId, Graph};
use flexwan_topo::ip::{IpLink, IpTopology};

use crate::planning::heuristic::{place_deficits, LinkOrder, LinkRoutes, Plan, PlannerConfig};
use crate::protect::{place_protected, ProtectedPlan};
use crate::restore::footprint::Footprint;
use crate::restore::heuristic::{revive, Restoration};
use crate::scenario::FailureScenario;
use crate::scheme::Scheme;

/// Everything a heuristic planning or restoration call needs besides the
/// demand set: a `Copy` bundle of borrows, safe to share across the
/// worker pool. `PlanCtx::new(&g, &cfg).sharing(&cache).plan(scheme, &ip)`.
#[derive(Debug, Clone, Copy)]
pub struct PlanCtx<'a> {
    optical: &'a Graph,
    cfg: &'a PlannerConfig,
    cache: Option<&'a RouteCache>,
    obs: Option<(&'a Obs, Option<&'a Span>)>,
}

impl<'a> PlanCtx<'a> {
    /// A context with no shared cache and no telemetry: every operation
    /// enumerates its own routes and drops them when it returns.
    ///
    /// # Panics
    /// When [`PlannerConfig::validate`] rejects `cfg`: validate
    /// configuration that arrives from outside the program first.
    pub fn new(optical: &'a Graph, cfg: &'a PlannerConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid planner configuration: {e}");
        }
        PlanCtx {
            optical,
            cfg,
            cache: None,
            obs: None,
        }
    }

    /// Serves candidate routes from `cache`: routes depend only on the
    /// graph, endpoints, `k` and banned fibers — not on the scheme or the
    /// demand scale — so a sweep over one backbone enumerates each link's
    /// routes, and each cut set's detours, once. Outputs are bit-identical
    /// with and without a cache.
    ///
    /// **One cache, one graph.** `RouteCache` keys are
    /// `(src, dst, k, banned)` over node and fiber ids; they do not
    /// identify the graph, so a cache shared across two graphs serves one
    /// graph's routes to the other.
    ///
    /// Without a shared cache, [`restore`](Self::restore) still reads the
    /// graph's own memo ([`Graph::detours`]) when the cut lies in one
    /// conduit — §8's failure unit — so a long-lived restorer (the
    /// `Orchestrator`, the churn service) runs Yen's algorithm for a
    /// conduit cut once per graph. The memo is bounded by the conduits and
    /// pairs asked for; cuts across conduits, whose keys rarely repeat,
    /// stay call-local. A shared cache takes precedence over the memo.
    pub fn sharing(mut self, cache: &'a RouteCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Records every `plan` / `plan_incremental` as a `planning.plan` span
    /// and every `restore` / `restore_against` as a `restore.scenario`
    /// span in `obs` (children
    /// of `parent` when given), with their counters, gauges and latency
    /// histograms; `plan_protected` has no metric and records nothing.
    /// Outputs are bit-identical with and without it.
    pub fn observed(mut self, obs: &'a Obs, parent: Option<&'a Span>) -> Self {
        self.obs = Some((obs, parent));
        self
    }

    /// The optical graph planned over.
    pub fn optical(&self) -> &'a Graph {
        self.optical
    }

    /// The planner configuration.
    pub fn cfg(&self) -> &'a PlannerConfig {
        self.cfg
    }

    /// Channel-start alignment of `scheme`, pixels: its own grid or
    /// `min_alignment`, whichever is coarser — the one value every
    /// operation places channels on.
    pub(crate) fn alignment(&self, scheme: Scheme) -> u32 {
        scheme.alignment_pixels().max(self.cfg.min_alignment)
    }

    /// Each link's `k` shortest node-distinct routes avoiding `banned`, in
    /// `links` order, in one lookup: from the shared cache, else from the
    /// graph's detour memo when `banned` lies in one conduit
    /// ([`Graph::detours`]; planning asks with nothing banned or shares a
    /// cache, so only a restoration reaches it), else from a cache that
    /// lives for this call (a pair asked twice is computed once either
    /// way).
    pub(crate) fn routes<'l>(
        &self,
        links: impl Iterator<Item = &'l IpLink>,
        k: usize,
        banned: &HashSet<EdgeId>,
    ) -> LinkRoutes {
        let pairs: Vec<_> = links.map(|l| (l.src, l.dst)).collect();
        let own;
        let cache = match self.cache.or_else(|| self.optical.detours(banned)) {
            Some(cache) => cache,
            None => {
                own = RouteCache::new();
                &own
            }
        };
        cache.routes_batch(self.optical, &pairs, k, banned)
    }

    /// Plans `scheme` over the backbone: the scalable counterpart of
    /// Algorithm 1 (validated against the exact MIP in tests).
    pub fn plan(&self, scheme: Scheme, ip: &IpTopology) -> Plan {
        self.plan_avoiding(scheme, ip, &HashSet::new())
    }

    /// [`plan`](Self::plan) avoiding `banned` fibers. The sharding layer
    /// solves a region on the *full* graph this way — banning every fiber
    /// outside it — so one [`RouteCache`] serves every shard: keys over
    /// global ids stay collision-free where per-shard renumbered
    /// subgraphs would alias each other's.
    pub(crate) fn plan_avoiding(
        &self,
        scheme: Scheme,
        ip: &IpTopology,
        banned: &HashSet<EdgeId>,
    ) -> Plan {
        self.recorded_plan(scheme, ip, || {
            let routes = self.routes(ip.links().iter(), self.cfg.k_paths, banned);
            place_deficits(self, scheme, ip, &routes, self.cfg.order, Vec::new())
        })
    }

    /// Incremental planning: extends `base` to cover `ip` (the *full*
    /// demand set: existing links, possibly with grown demands, plus any
    /// new links appended) without touching live traffic — production
    /// backbones are not re-planned from scratch (§4.4, §9). Replays the
    /// base wavelengths' spectrum occupation and runs the normal placement loop
    /// for each link's deficit only, most-constrained first: the base
    /// wavelengths come back verbatim (or, with `cfg.defrag_moves > 0`,
    /// hitlessly retuned) followed by the new ones. `ablation_incremental`
    /// prices this against clairvoyant from-scratch re-planning.
    pub fn plan_incremental(&self, base: &Plan, ip: &IpTopology) -> Plan {
        self.recorded_plan(base.scheme, ip, || {
            let routes = self.routes(ip.links().iter(), self.cfg.k_paths, &HashSet::new());
            let order = LinkOrder::MostConstrainedFirst;
            let live = base.wavelengths.clone();
            place_deficits(self, base.scheme, ip, &routes, order, live)
        })
    }

    /// Plans 1+1 protection: per link, capacity provisioned on the
    /// shortest route and again on the shortest conduit-disjoint
    /// alternative (see [`protect`](crate::protect)). Looks
    /// `k_paths.max(4)` routes deep, a cache key distinct from the
    /// unprotected planner's.
    pub fn plan_protected(&self, scheme: Scheme, ip: &IpTopology) -> ProtectedPlan {
        let k = self.cfg.k_paths.max(4);
        let routes = self.routes(ip.links().iter(), k, &HashSet::new());
        place_protected(self, scheme, ip, &routes)
    }

    /// Largest demand multiplier in `1..=max_scale` at which `scheme`
    /// still fully provisions the (scaled) demand set; 0 when even scale 1
    /// is infeasible. The Figure 12 "maximum supported capacity scale".
    /// Scaling leaves the candidate routes unchanged: share a cache to
    /// enumerate them once for the whole ladder.
    pub fn max_feasible_scale(&self, scheme: Scheme, ip: &IpTopology, max_scale: u64) -> u64 {
        let mut best = 0;
        for s in 1..=max_scale {
            if self.plan(scheme, &ip.scaled(s)).is_feasible() {
                best = s;
            } else {
                break; // feasibility is monotone in the scale
            }
        }
        best
    }

    /// Restores `scenario` against `plan` on the post-failure topology
    /// (§8). `extra_spares[link.0]` adds spare transponders beyond the
    /// failed ones (empty or all-zero = plain FlexWAN / baseline; see
    /// [`flexwan_plus_extra_spares`](crate::restore::flexwan_plus_extra_spares)).
    /// Cached restoration routes are keyed by the scenario's cut set, so
    /// a cut fiber is never served an uncut route; with no shared cache,
    /// a cut inside one conduit reads the graph's detour memo.
    ///
    /// Builds `plan`'s [`Footprint`] and restores once against it: a
    /// restorer that meets many cuts of one plan keeps the footprint and
    /// calls [`restore_against`](Self::restore_against).
    ///
    /// # Panics
    /// If two of `plan`'s wavelengths share a pixel of a fiber (such a
    /// plan is refused), or if `extra_spares` is neither empty nor one
    /// entry per IP link.
    pub fn restore(
        &self,
        plan: &Plan,
        ip: &IpTopology,
        scenario: &FailureScenario,
        extra_spares: &[u32],
    ) -> Restoration {
        let mut footprint = Footprint::new(plan, self.optical, self.cfg);
        self.restore_against(&mut footprint, plan, ip, scenario, extra_spares)
    }

    /// [`restore`](Self::restore) against `footprint`, the standing
    /// footprint of `plan` (built by [`Footprint::new`] from the same
    /// plan, graph and grid): the cut costs the wavelengths it severs,
    /// and `footprint` is left as it was found.
    ///
    /// # Panics
    /// If `footprint` was built from a plan with another wavelength
    /// count, or if `extra_spares` is neither empty nor one entry per IP
    /// link.
    pub fn restore_against(
        &self,
        footprint: &mut Footprint,
        plan: &Plan,
        ip: &IpTopology,
        scenario: &FailureScenario,
        extra_spares: &[u32],
    ) -> Restoration {
        let run = |fp: &mut Footprint| revive(self, fp, plan, ip, scenario, extra_spares);
        let Some((obs, span)) = self.span("restore.scenario") else {
            return run(footprint);
        };
        span.field("scenario", scenario.id);
        span.field("cuts", scenario.cuts.len());
        let start = obs.now_ns();
        let r = run(footprint);
        span.field("affected_gbps", r.affected_gbps);
        span.field("restored_gbps", r.restored_gbps);
        span.field("capability", r.capability());
        let reg = obs.registry();
        reg.counter("restore_runs_total").inc();
        reg.counter("restore_affected_gbps_total")
            .add(r.affected_gbps);
        reg.counter("restore_restored_gbps_total")
            .add(r.restored_gbps);
        reg.gauge("restore_capability").set(r.capability());
        obs.observe_since("restore_seconds", start);
        r
    }

    /// Opens span `name` (under the caller's parent when it gave one) if
    /// this context is observed.
    fn span(&self, name: &str) -> Option<(&'a Obs, Span)> {
        let (obs, parent) = self.obs?;
        let span = match parent {
            Some(p) => p.child(name),
            None => obs.span(name),
        };
        Some((obs, span))
    }

    /// Runs `place`; when this context is observed, inside a
    /// `planning.plan` span carrying scheme/size/outcome fields, with the
    /// run counter, outcome gauges and `planning_plan_seconds`.
    fn recorded_plan(&self, scheme: Scheme, ip: &IpTopology, place: impl FnOnce() -> Plan) -> Plan {
        let Some((obs, span)) = self.span("planning.plan") else {
            return place();
        };
        let scheme_label = format!("{scheme:?}");
        span.field("scheme", scheme_label.clone());
        span.field("ip_links", ip.num_links());
        span.field("fibers", self.optical.num_edges());
        let start = obs.now_ns();
        let p = place();
        span.field("wavelengths", p.wavelengths.len());
        span.field("unmet_gbps", p.unmet_gbps());
        let reg = obs.registry();
        reg.counter_with("planning_runs_total", &[("scheme", &scheme_label)])
            .inc();
        reg.gauge_with("planning_wavelengths", &[("scheme", &scheme_label)])
            .set(p.wavelengths.len() as f64);
        reg.gauge_with("planning_unmet_gbps", &[("scheme", &scheme_label)])
            .set(p.unmet_gbps() as f64);
        obs.observe_since("planning_plan_seconds", start);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{k_cut_scenarios, one_fiber_scenarios};
    use crate::wavelength::Wavelength;
    use flexwan_optical::spectrum::SpectrumGrid;

    /// Triangle with two conduit-disjoint a–b routes and two demands, on a
    /// 6-px alignment coarser than FlexWAN's and the 100G grid's own.
    fn world() -> (Graph, IpTopology, PlannerConfig) {
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
        let cfg = PlannerConfig {
            grid: SpectrumGrid::new(96),
            min_alignment: 6,
            ..Default::default()
        };
        (g, ip, cfg)
    }

    /// What the five operations return: plan, incremental growth to 2×,
    /// 1+1 protection, max scale, one restoration per single-fiber cut.
    type Outputs = (Plan, Plan, ProtectedPlan, u64, Vec<Restoration>);

    fn run(ctx: PlanCtx, scheme: Scheme, ip: &IpTopology) -> Outputs {
        let p = ctx.plan(scheme, ip);
        let restored = one_fiber_scenarios(ctx.optical())
            .iter()
            .map(|s| ctx.restore(&p, ip, s, &[1, 1]))
            .collect();
        let grown = ctx.plan_incremental(&p, &ip.scaled(2));
        let protected = ctx.plan_protected(scheme, ip);
        let max_scale = ctx.max_feasible_scale(scheme, ip, 8);
        (p, grown, protected, max_scale, restored)
    }

    fn wavelengths((p, grown, pp, _, restored): &Outputs) -> impl Iterator<Item = &Wavelength> {
        let revived = restored.iter().flat_map(|r| &r.restored);
        (p.wavelengths.iter())
            .chain(&grown.wavelengths)
            .chain(&pp.working)
            .chain(&pp.protection)
            .chain(revived.map(|rw| &rw.wavelength))
    }

    /// Five operations × three schemes: a context with no cache, a cold
    /// shared cache and a warm one return the same results, every channel
    /// on the configured alignment. (Restoration used to ignore
    /// `min_alignment`: cutting a–b put FlexWAN's 7-px detour at px 4.)
    #[test]
    fn route_source_changes_no_output() {
        let (g, ip, cfg) = world();
        for scheme in Scheme::ALL {
            let cache = RouteCache::new();
            let plain = run(PlanCtx::new(&g, &cfg), scheme, &ip);
            assert!(plain.3 >= 1 && plain.4[0].restored_gbps > 0);
            assert!(wavelengths(&plain).count() > 8);
            for w in wavelengths(&plain) {
                assert_eq!(w.channel.start % 6, 0, "{w} off the 6-px alignment");
            }
            let shared = PlanCtx::new(&g, &cfg).sharing(&cache);
            assert_eq!(plain, run(shared, scheme, &ip), "{scheme}: cold cache");
            let misses = cache.misses();
            assert!(misses > 0);
            assert_eq!(plain, run(shared, scheme, &ip), "{scheme}: warm cache");
            assert_eq!(cache.misses(), misses, "{scheme}: warm pass recomputed");

            // Restoration keys by cut set: an unseen cut set is enumerated
            // (never served the uncut routes), a repeat is not.
            let both = &k_cut_scenarios(&g, 2)[0];
            let uncached = PlanCtx::new(&g, &cfg).restore(&plain.0, &ip, both, &[]);
            assert_eq!(uncached, shared.restore(&plain.0, &ip, both, &[]));
            let after = cache.misses();
            assert!(after > misses, "{scheme}: new cut set served from cache");
            assert_eq!(uncached, shared.restore(&plain.0, &ip, both, &[]));
            assert_eq!(cache.misses(), after);
        }
    }

    /// Telemetry is additive: same outputs, and exactly the metric and
    /// span names the Prometheus check and the manual-clock diff expect.
    #[test]
    fn observed_ctx_changes_no_output() {
        let (g, ip, cfg) = world();
        let obs = Obs::default();
        let root = obs.span("drill");
        for scheme in Scheme::ALL {
            let plain = run(PlanCtx::new(&g, &cfg), scheme, &ip);
            let observed = PlanCtx::new(&g, &cfg).observed(&obs, Some(&root));
            assert_eq!(plain, run(observed, scheme, &ip), "{scheme}");
        }
        root.end();
        let series = obs.registry().snapshot().series;
        let mut names: Vec<String> = series.into_iter().map(|s| s.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(
            names,
            [
                "planning_plan_seconds",
                "planning_runs_total",
                "planning_unmet_gbps",
                "planning_wavelengths",
                "restore_affected_gbps_total",
                "restore_capability",
                "restore_restored_gbps_total",
                "restore_runs_total",
                "restore_seconds",
            ]
        );
        let prom = obs.metrics_prometheus();
        assert!(
            prom.contains("planning_runs_total{scheme=\"FlexWan\"}"),
            "{prom}"
        );
        assert!(prom.contains("restore_runs_total 9"), "{prom}");
        let tree = obs.span_tree();
        assert!(tree.starts_with("drill"), "{tree}");
        assert!(tree.contains("  planning.plan"), "{tree}");
        assert!(tree.contains("  restore.scenario"), "{tree}");
        // With no parent the spans are roots.
        let lone = Obs::default();
        let _ = PlanCtx::new(&g, &cfg)
            .observed(&lone, None)
            .plan(Scheme::FlexWan, &ip);
        assert!(lone.span_tree().starts_with("planning.plan"));
    }

    #[test]
    #[should_panic(expected = "invalid planner configuration: min_alignment")]
    fn new_enforces_validate() {
        let (g, _, mut cfg) = world();
        assert_eq!(cfg.validate(), Ok(()));
        cfg.min_alignment = 0;
        let _ = PlanCtx::new(&g, &cfg);
    }
}
