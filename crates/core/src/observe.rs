//! Gauge snapshots of the planner's standing state.
//!
//! Each `record_*` function copies one object's counters or shape into an
//! [`Obs`] bundle as labeled gauges. Planning and restoration *runs* are
//! recorded by an observed
//! [`PlanCtx`](crate::planning::PlanCtx::observed). Observability is
//! additive, never load-bearing — the deterministic outputs are
//! bit-identical with and without it.

use flexwan_obs::Obs;
use flexwan_topo::cache::RouteCache;

/// Snapshots `cache`'s counters into `obs` as gauges
/// (`route_cache_{hits,misses,entries}` labeled by `name`): call at sweep
/// checkpoints to watch the memoization pay off (hits/misses should
/// approach the sweep's scheme × scale redundancy).
pub fn record_route_cache(obs: &Obs, name: &str, cache: &RouteCache) {
    let reg = obs.registry();
    reg.gauge_with("route_cache_hits", &[("cache", name)])
        .set(cache.hits() as f64);
    reg.gauge_with("route_cache_misses", &[("cache", name)])
        .set(cache.misses() as f64);
    reg.gauge_with("route_cache_entries", &[("cache", name)])
        .set(cache.len() as f64);
}

/// Snapshots a standing [`PlanModel`](crate::planning::PlanModel)'s shape
/// into `obs` as gauges (`opt_model_{gammas,rows,active_rows}` labeled by
/// `model`): call after build or around mutation checkpoints to watch the
/// incremental layer keep the model standing — the row count stays
/// constant across cuts while the active-row count dips and recovers.
///
/// When the model was solved by column generation, pass the run's
/// [`ColGenStats`](crate::planning::ColGenStats) to also emit the
/// pricing-loop gauges `opt_model_columns_seeded`,
/// `opt_model_columns_priced_in`, `opt_model_pricing_rounds` and
/// `opt_model_reduced_cost_min` — together they show the loop
/// converging: priced-in columns flatten and the most negative reduced
/// cost climbs toward zero as rounds pass.
pub fn record_opt_model(
    obs: &Obs,
    name: &str,
    model: &crate::planning::PlanModel,
    colgen: Option<&crate::planning::ColGenStats>,
) {
    let reg = obs.registry();
    reg.gauge_with("opt_model_gammas", &[("model", name)])
        .set(model.space().gammas().len() as f64);
    reg.gauge_with("opt_model_rows", &[("model", name)])
        .set(model.model().num_constraints() as f64);
    reg.gauge_with("opt_model_active_rows", &[("model", name)])
        .set(model.model().num_active_constraints() as f64);
    if let Some(cg) = colgen {
        reg.gauge_with("opt_model_columns_seeded", &[("model", name)])
            .set(cg.columns_seeded as f64);
        reg.gauge_with("opt_model_columns_priced_in", &[("model", name)])
            .set(cg.columns_priced_in as f64);
        reg.gauge_with("opt_model_pricing_rounds", &[("model", name)])
            .set(cg.pricing_rounds as f64);
        // A run that never priced (seed already optimal) leaves the
        // minimum at +∞; emit 0 so the exposition stays parseable.
        let rc = if cg.reduced_cost_min.is_finite() {
            cg.reduced_cost_min
        } else {
            0.0
        };
        reg.gauge_with("opt_model_reduced_cost_min", &[("model", name)])
            .set(rc);
    }
}

/// Snapshots an [`AvailabilitySurface`](crate::scenario::AvailabilitySurface)
/// into `obs` as gauges, one series per (k, spare-budget) cell labeled by
/// `surface`: `scenario_availability`, `scenario_survived`,
/// `scenario_restored_gbps`, plus the cell count
/// (`scenario_surface_cells`) and total evaluations
/// (`scenario_evaluations`). Call after an engine sweep to watch the
/// surface move as budgets or scenario sets change.
pub fn record_availability_surface(
    obs: &Obs,
    name: &str,
    surface: &crate::scenario::AvailabilitySurface,
) {
    let reg = obs.registry();
    reg.gauge_with("scenario_surface_cells", &[("surface", name)])
        .set(surface.cells.len() as f64);
    reg.gauge_with("scenario_evaluations", &[("surface", name)])
        .set(surface.cells.iter().map(|c| c.scenarios).sum::<u64>() as f64);
    for c in &surface.cells {
        let k = c.k.to_string();
        let spares = c.spare_budget.to_string();
        let labels = [("surface", name), ("k", k.as_str()), ("spares", &spares)];
        reg.gauge_with("scenario_availability", &labels)
            .set(c.availability());
        reg.gauge_with("scenario_survived", &labels)
            .set(c.survived as f64);
        reg.gauge_with("scenario_restored_gbps", &labels)
            .set(c.restored_gbps as f64);
    }
}

/// Snapshots a [`ShardedPlan`](crate::planning::ShardedPlan) into `obs`
/// as gauges labeled by `plan`: the shard counters
/// (`shard_regions`, `shard_boundary_demands`,
/// `shard_coordination_rounds`, `shard_region_solves`,
/// `shard_converged`), the outcome totals (`shard_transponders`,
/// `shard_unmet_gbps`, `shard_repriced_gbps`) and the wall-time split
/// (`shard_core_ms`, plus `shard_region_ms` per region labeled by
/// `region`). Call after a sharded solve to watch the coordination loop
/// and the per-shard cost balance as the instance scales.
pub fn record_shard_plan(obs: &Obs, name: &str, sp: &crate::planning::ShardedPlan) {
    let reg = obs.registry();
    let s = &sp.stats;
    reg.gauge_with("shard_regions", &[("plan", name)])
        .set(s.regions as f64);
    reg.gauge_with("shard_boundary_demands", &[("plan", name)])
        .set(s.boundary_demands as f64);
    reg.gauge_with("shard_coordination_rounds", &[("plan", name)])
        .set(s.coordination_rounds as f64);
    reg.gauge_with("shard_region_solves", &[("plan", name)])
        .set(s.region_solves as f64);
    reg.gauge_with("shard_converged", &[("plan", name)])
        .set(if s.converged { 1.0 } else { 0.0 });
    reg.gauge_with("shard_transponders", &[("plan", name)])
        .set(sp.transponder_count() as f64);
    reg.gauge_with("shard_unmet_gbps", &[("plan", name)])
        .set(sp.unmet_gbps as f64);
    reg.gauge_with("shard_repriced_gbps", &[("plan", name)])
        .set(sp.repriced_gbps as f64);
    reg.gauge_with("shard_core_ms", &[("plan", name)])
        .set(s.core_ms as f64);
    for (r, &ms) in s.per_region_ms.iter().enumerate() {
        let region = r.to_string();
        reg.gauge_with(
            "shard_region_ms",
            &[("plan", name), ("region", region.as_str())],
        )
        .set(ms as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planning::{PlanCtx, PlannerConfig};
    use crate::scheme::Scheme;
    use flexwan_optical::spectrum::SpectrumGrid;
    use flexwan_topo::graph::Graph;
    use flexwan_topo::ip::IpTopology;

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
        let cfg = PlannerConfig {
            grid: SpectrumGrid::new(96),
            ..Default::default()
        };
        (g, ip, cfg)
    }

    #[test]
    fn route_cache_gauges_track_counters() {
        let (g, ip, cfg) = world();
        let obs = Obs::default();
        let cache = RouteCache::new();
        let ctx = PlanCtx::new(&g, &cfg).sharing(&cache);
        let _ = ctx.plan(Scheme::FlexWan, &ip);
        let _ = ctx.plan(Scheme::Radwan, &ip);
        record_route_cache(&obs, "sweep", &cache);
        let prom = obs.metrics_prometheus();
        assert!(
            prom.contains("route_cache_hits{cache=\"sweep\"} 1"),
            "{prom}"
        );
        assert!(
            prom.contains("route_cache_misses{cache=\"sweep\"} 1"),
            "{prom}"
        );
        assert!(
            prom.contains("route_cache_entries{cache=\"sweep\"} 1"),
            "{prom}"
        );
    }

    #[test]
    fn opt_model_gauges_reflect_standing_shape() {
        let (g, ip, cfg) = world();
        let obs = Obs::default();
        let pm = crate::planning::PlanModel::build(Scheme::FlexWan, &g, &ip, &cfg);
        record_opt_model(&obs, "standing", &pm, None);
        let prom = obs.metrics_prometheus();
        let gammas = pm.space().gammas().len();
        assert!(
            prom.contains(&format!("opt_model_gammas{{model=\"standing\"}} {gammas}")),
            "{prom}"
        );
        // No colgen stats passed: the pricing gauges must stay absent.
        assert!(!prom.contains("opt_model_pricing_rounds"), "{prom}");
        // Nothing deactivated yet: every row is active.
        assert_eq!(
            pm.model().num_constraints(),
            pm.model().num_active_constraints()
        );
    }

    #[test]
    fn colgen_gauges_show_the_pricing_loop() {
        let (g, ip, cfg) = world();
        let obs = Obs::default();
        let pm = crate::planning::PlanModel::build(Scheme::FlexWan, &g, &ip, &cfg);
        let cg = crate::planning::solve_exact_colgen(
            Scheme::FlexWan,
            &g,
            &ip,
            &cfg,
            &flexwan_solver::SolveOptions::default(),
        )
        .expect("tiny instance is feasible");
        record_opt_model(&obs, "cg", &pm, Some(&cg.colgen));
        let prom = obs.metrics_prometheus();
        assert!(
            prom.contains(&format!(
                "opt_model_columns_seeded{{model=\"cg\"}} {}",
                cg.colgen.columns_seeded
            )),
            "{prom}"
        );
        assert!(
            prom.contains(&format!(
                "opt_model_pricing_rounds{{model=\"cg\"}} {}",
                cg.colgen.pricing_rounds
            )),
            "{prom}"
        );
        assert!(
            prom.contains("opt_model_reduced_cost_min{model=\"cg\"}"),
            "{prom}"
        );
    }

    #[test]
    fn shard_gauges_pin_the_coordination_counters() {
        use flexwan_topo::continental::{continental, ScaleParams};
        let c = continental(&ScaleParams::shrunk(2));
        let obs = Obs::default();
        let cfg = PlannerConfig {
            k_paths: 2,
            ..Default::default()
        };
        let sp = crate::planning::solve_sharded(
            Scheme::FlexWan,
            &c.backbone.optical,
            &c.backbone.ip,
            &cfg,
            &c.region_of,
            &c.hubs,
            &crate::planning::ShardConfig::default(),
            &RouteCache::new(),
        );
        record_shard_plan(&obs, "test", &sp);
        let prom = obs.metrics_prometheus();
        assert!(prom.contains("shard_regions{plan=\"test\"} 2"), "{prom}");
        assert!(
            prom.contains(&format!(
                "shard_boundary_demands{{plan=\"test\"}} {}",
                sp.stats.boundary_demands
            )),
            "{prom}"
        );
        assert!(prom.contains("shard_converged{plan=\"test\"} 1"), "{prom}");
        // One per-region wall-time gauge per region.
        assert!(
            prom.contains("shard_region_ms{plan=\"test\",region=\"0\"}")
                || prom.contains("shard_region_ms{region=\"0\",plan=\"test\"}"),
            "{prom}"
        );
    }
}
