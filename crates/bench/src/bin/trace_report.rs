//! End-to-end observability report: one instrumented run of the system's
//! three hot paths — planning, restoration, and a controller chaos drill —
//! printing the recorded span tree plus metrics snapshots in JSON and
//! Prometheus text format.
//!
//! Flags (combinable; default prints all three sections):
//!
//! * `--tree` — only the span tree;
//! * `--json` — only the metrics JSON snapshot;
//! * `--prom` — only the Prometheus exposition text;
//! * `--clock=manual` — drive the report from a [`ManualClock`] instead of
//!   the wall clock: every timestamp is 0 ns and the whole report becomes
//!   byte-deterministic (CI diffs two runs to prove it).

use std::sync::Arc;

use flexwan_bench::table;
use flexwan_core::planning::{
    solve_exact, solve_exact_colgen, ColGenStats, PlanCtx, PlanModel, PlannerConfig,
};
use flexwan_core::restore::one_fiber_scenarios;
use flexwan_core::Scheme;
use flexwan_ctrl::recovery::recover_misconnection;
use flexwan_ctrl::{
    Controller, DeviceFaults, FaultInjector, FaultPlan, Orchestrator, TelemetrySim, TelemetryStore,
};
use flexwan_obs::{ManualClock, Obs};
use flexwan_optical::format::FecOverhead;
use flexwan_optical::spectrum::{PixelRange, PixelWidth, SpectrumGrid};
use flexwan_optical::WssKind;
use flexwan_physim::BerEvaluator;
use flexwan_solver::{record_solver_stats, SolveOptions};
use flexwan_topo::graph::Graph;
use flexwan_topo::ip::IpTopology;

fn backbone() -> (Graph, IpTopology) {
    let mut g = Graph::new();
    let a = g.add_node("a");
    let b = g.add_node("b");
    let c = g.add_node("c");
    let d = g.add_node("d");
    g.add_edge(a, b, 150);
    g.add_edge(b, c, 200);
    g.add_edge(c, d, 250);
    g.add_edge(a, c, 500);
    g.add_edge(b, d, 450);
    let mut ip = IpTopology::new();
    ip.add_link(a, c, 600);
    ip.add_link(a, b, 400);
    ip.add_link(b, d, 500);
    (g, ip)
}

/// A 4-node ring, small enough that the exact MIP stays sub-second in
/// debug builds.
fn ring_instance() -> (Graph, IpTopology) {
    let mut g = Graph::new();
    let n: Vec<_> = ["a", "b", "c", "d"]
        .iter()
        .map(|s| g.add_node(*s))
        .collect();
    for i in 0..4 {
        g.add_edge(n[i], n[(i + 1) % 4], 300 + 60 * i as u32);
    }
    let mut ip = IpTopology::new();
    ip.add_link(n[0], n[2], 800);
    ip.add_link(n[1], n[3], 600);
    (g, ip)
}

/// Snapshots a standing [`PlanModel`]'s shape into `obs` as gauges
/// (`opt_model_{gammas,rows,active_rows}` labeled by `model`).
///
/// When the model was solved by column generation, pass the run's
/// [`ColGenStats`] to also emit the pricing-loop gauges
/// `opt_model_columns_seeded`, `opt_model_columns_priced_in`,
/// `opt_model_pricing_rounds` and `opt_model_reduced_cost_min` — together
/// they show the loop converging: priced-in columns flatten and the most
/// negative reduced cost climbs toward zero as rounds pass.
fn record_opt_model(obs: &Obs, name: &str, model: &PlanModel, colgen: Option<&ColGenStats>) {
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

fn run_scenario(obs: &Obs, manual: bool) {
    let (g, ip) = backbone();
    let cfg = PlannerConfig {
        grid: SpectrumGrid::new(96),
        ..Default::default()
    };

    // 1. Planning: observed runs for two schemes under one root span.
    let planning = obs.span("report.planning");
    let planner = PlanCtx::new(&g, &cfg).observed(obs, Some(&planning));
    let p = planner.plan(Scheme::FlexWan, &ip);
    let _ = planner.plan(Scheme::Radwan, &ip);
    planning.end();
    assert!(p.is_feasible(), "report backbone must plan cleanly");

    // 2. Restoration: every single-fiber scenario against the plan.
    let restoration = obs.span("report.restoration");
    let restorer = PlanCtx::new(&g, &cfg).observed(obs, Some(&restoration));
    for scenario in &one_fiber_scenarios(&g) {
        let _ = restorer.restore(&p, &ip, scenario, &[]);
    }
    restoration.end();

    // 3. Chaos drill: a faulted device plane, the self-healing loop, then
    // the telemetry-driven restoration loop reacting to a fiber cut.
    let drill = obs.span("report.chaos_drill");
    let mut ctrl = Controller::build(&g, WssKind::PixelWise, cfg.grid);
    ctrl.set_obs(obs.clone());
    let faults = DeviceFaults {
        drop_prob: 0.1,
        delay_reply_prob: 0.1,
        ..Default::default()
    };
    ctrl.arm_faults(Arc::new(FaultInjector::new(FaultPlan::uniform(7, faults))));
    let apply = ctrl.apply_plan(&p, &g);
    drill.field("apply_rejections", apply.rejections.len());
    let report = ctrl.converge(64);
    assert!(report.converged, "drill plane must converge");
    drill.field("converge_passes", report.passes);

    let primary = p.wavelengths[0].path.edges[0];
    let mut store = TelemetryStore::new(30);
    store.set_obs(obs.clone());
    let mut orch = Orchestrator::new(&g, &ip, p, cfg, Vec::new());
    orch.set_obs(obs.clone());
    let sim = TelemetrySim::new(&g);
    for t in 0..3 {
        sim.tick(&mut store, t, &[]);
        orch.tick(&store, &mut ctrl);
    }
    sim.tick(&mut store, 3, &[primary]);
    orch.tick(&store, &mut ctrl);
    drill.field("live_restoration", orch.live_restoration().len());
    drill.end();

    // 4. Solver + physical layer: exact-MIP counters and BER timings.
    let (rg, rip) = ring_instance();
    let exact = solve_exact(
        Scheme::FlexWan,
        &rg,
        &rip,
        &PlannerConfig {
            grid: SpectrumGrid::new(16),
            k_paths: 2,
            ..Default::default()
        },
        &SolveOptions {
            max_nodes: 50_000,
            ..Default::default()
        },
    )
    .expect("report MIP instance is feasible");
    let mut stats = exact.stats;
    if manual {
        // The solver's phase timings are wall-clock (`SolverStats` docs);
        // zero them so a manual-clock report stays byte-deterministic.
        stats.time_phase1 = std::time::Duration::ZERO;
        stats.time_phase2 = std::time::Duration::ZERO;
        stats.time_dual = std::time::Duration::ZERO;
        stats.time_total = std::time::Duration::ZERO;
    }
    record_solver_stats(obs.registry(), &stats);

    // 5. Column generation: the report backbone through the restricted
    // master + pricing oracle (the ring's heuristic seed fails at its
    // tight grid, which would fall back to enumeration and show no
    // pricing), its loop counters exported as gauges so the Prometheus
    // section shows the pricing loop converging.
    let cg_cfg = PlannerConfig {
        grid: SpectrumGrid::new(96),
        ..Default::default()
    };
    let cg_span = obs.span("report.colgen");
    let cg = solve_exact_colgen(Scheme::FlexWan, &g, &ip, &cg_cfg, &SolveOptions::default())
        .expect("report CG instance is feasible");
    assert!(!cg.colgen.fell_back, "report backbone seeds the CG master");
    cg_span.field("columns_seeded", cg.colgen.columns_seeded);
    cg_span.field("columns_priced_in", cg.colgen.columns_priced_in);
    cg_span.field("pricing_rounds", cg.colgen.pricing_rounds);
    cg_span.end();
    let pm = PlanModel::build(Scheme::FlexWan, &g, &ip, &cg_cfg);
    record_opt_model(obs, "report.colgen", &pm, Some(&cg.colgen));

    let ber = BerEvaluator::new(obs.clone());
    for snr_db in [8.0, 12.0, 16.0, 20.0] {
        let _ = ber.evaluate(4.0, 10f64.powf(snr_db / 10.0), FecOverhead::LOW);
    }
    let _ = recover_misconnection(
        Some(obs),
        WssKind::PixelWise,
        9,
        PixelRange::new(12, PixelWidth::new(6)),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let manual = args.iter().any(|a| a == "--clock=manual");
    let sections: Vec<&str> = args
        .iter()
        .filter(|a| matches!(a.as_str(), "--tree" | "--json" | "--prom"))
        .map(|a| &a[2..])
        .collect();
    let all = sections.is_empty();

    let obs = if manual {
        Obs::with_clock(Arc::new(ManualClock::new()))
    } else {
        Obs::new()
    };
    run_scenario(&obs, manual);

    if all {
        table::banner(
            "Observability report",
            "Span tree and metrics snapshots from one instrumented planning + restoration + chaos-drill run.",
        );
    }
    if all || sections.contains(&"tree") {
        if all {
            println!("── span tree ──");
        }
        print!("{}", obs.span_tree());
    }
    if all || sections.contains(&"json") {
        if all {
            println!("\n── metrics (JSON) ──");
        }
        println!("{}", obs.metrics_json());
    }
    if all || sections.contains(&"prom") {
        if all {
            println!("\n── metrics (Prometheus) ──");
        }
        print!("{}", obs.metrics_prometheus());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let pm = PlanModel::build(Scheme::FlexWan, &g, &ip, &cfg);
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
        let pm = PlanModel::build(Scheme::FlexWan, &g, &ip, &cfg);
        let cg = solve_exact_colgen(Scheme::FlexWan, &g, &ip, &cfg, &SolveOptions::default())
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
