//! Gauge snapshots of the planner's standing state.
//!
//! [`record_opt_model`] copies a standing model's shape into an [`Obs`]
//! bundle as labeled gauges. Planning and restoration *runs* are
//! recorded by an observed
//! [`PlanCtx`](crate::planning::PlanCtx::observed). Observability is
//! additive, never load-bearing — the deterministic outputs are
//! bit-identical with and without it.

use flexwan_obs::Obs;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planning::PlannerConfig;
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
}
