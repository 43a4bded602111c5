//! Determinism of the observability layer itself: under a [`ManualClock`]
//! two identical instrumented runs produce byte-identical telemetry, and
//! the recorded span tree / counter totals do not depend on how the work
//! was spread across threads (explicit-parent spans, no thread-locals).

use std::sync::Arc;
use std::thread;

use flexwan::core::planning::{PlanCtx, PlannerConfig};
use flexwan::core::restore::one_fiber_scenarios;
use flexwan::core::Scheme;
use flexwan::obs::{ManualClock, Obs};
use flexwan::optical::spectrum::SpectrumGrid;
use flexwan::topo::graph::Graph;
use flexwan::topo::ip::IpTopology;

fn instance() -> (Graph, IpTopology) {
    let mut g = Graph::new();
    let a = g.add_node("a");
    let b = g.add_node("b");
    let c = g.add_node("c");
    let d = g.add_node("d");
    g.add_edge(a, b, 150);
    g.add_edge(b, c, 200);
    g.add_edge(c, d, 250);
    g.add_edge(a, c, 500);
    let mut ip = IpTopology::new();
    ip.add_link(a, c, 600);
    ip.add_link(b, d, 500);
    (g, ip)
}

/// One instrumented planning + restoration pass, all layers recording
/// into `obs`.
fn run_workload(obs: &Obs) {
    let (g, ip) = instance();
    let cfg = PlannerConfig {
        grid: SpectrumGrid::new(96),
        ..PlannerConfig::default()
    };
    let root = obs.span("workload");
    let ctx = PlanCtx::new(&g, &cfg).observed(obs, Some(&root));
    let p = ctx.plan(Scheme::FlexWan, &ip);
    for scenario in &one_fiber_scenarios(&g) {
        let _ = ctx.restore(&p, &ip, scenario, &[]);
    }
    root.end();
}

/// Two runs of the same workload under fresh manual clocks produce
/// byte-identical span trees and metric snapshots (JSON and Prometheus).
#[test]
fn identical_runs_produce_identical_telemetry() {
    let run = || {
        let obs = Obs::with_clock(Arc::new(ManualClock::new()));
        run_workload(&obs);
        (
            obs.span_tree(),
            obs.metrics_json(),
            obs.metrics_prometheus(),
        )
    };
    let first = run();
    let second = run();
    assert!(
        !first.0.is_empty() && first.0.contains("workload"),
        "{}",
        first.0
    );
    assert!(first.2.contains("planning_runs_total"), "{}", first.2);
    assert!(first.2.contains("restore_runs_total"), "{}", first.2);
    assert_eq!(first, second);
}

/// The rendered span tree and every counter total are identical whether
/// the items are processed by 1, 2, or 4 worker threads. Root spans are
/// opened on the coordinating thread (fixing sibling order); each item's
/// child spans are then created by exactly one worker, so the recorded
/// tree has no dependence on scheduling.
#[test]
fn telemetry_is_identical_across_thread_counts() {
    const ITEMS: usize = 12;
    let telemetry = |threads: usize| {
        let obs = Obs::with_clock(Arc::new(ManualClock::new()));
        let roots: Vec<_> = (0..ITEMS)
            .map(|i| obs.span(format!("item.{i:02}")))
            .collect();
        let per_thread = ITEMS.div_ceil(threads);
        thread::scope(|s| {
            for chunk in roots.chunks(per_thread) {
                let obs = &obs;
                s.spawn(move || {
                    for root in chunk {
                        for step in 0..3u64 {
                            let child = root.child(format!("step.{step}"));
                            child.field("step", step);
                            obs.registry().counter("work_steps_total").inc();
                            obs.registry()
                                .counter_with("work_items_total", &[("kind", "synthetic")])
                                .inc();
                            child.end();
                        }
                        obs.observe_since("work_item_seconds", obs.now_ns());
                    }
                });
            }
        });
        drop(roots);
        (obs.span_tree(), obs.metrics_prometheus())
    };

    let single = telemetry(1);
    // 12 roots, 3 children each.
    assert_eq!(single.0.lines().count(), ITEMS * 4, "{}", single.0);
    assert!(
        single
            .1
            .contains(&format!("work_steps_total {}", ITEMS * 3)),
        "{}",
        single.1
    );
    assert_eq!(single, telemetry(2));
    assert_eq!(single, telemetry(4));
}

/// A full chaos drill — faulted device plane, self-healing convergence,
/// telemetry-driven restoration — records the identical span tree and
/// counter values on every run under the manual clock. This is the
/// in-test twin of CI's `trace_report --clock=manual` double-run diff.
#[test]
fn chaos_drill_telemetry_is_deterministic() {
    use flexwan::core::planning::plan;
    use flexwan::ctrl::{
        Controller, DeviceFaults, FaultInjector, FaultPlan, Orchestrator, TelemetrySim,
        TelemetryStore,
    };
    use flexwan::optical::WssKind;

    let drill = || {
        let obs = Obs::with_clock(Arc::new(ManualClock::new()));
        let (g, ip) = instance();
        let cfg = PlannerConfig {
            grid: SpectrumGrid::new(96),
            ..PlannerConfig::default()
        };
        let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
        assert!(p.is_feasible());

        let mut ctrl = Controller::build(&g, WssKind::PixelWise, cfg.grid);
        ctrl.set_obs(obs.clone());
        let faults = DeviceFaults {
            drop_prob: 0.1,
            delay_reply_prob: 0.1,
            ..Default::default()
        };
        ctrl.arm_faults(Arc::new(FaultInjector::new(FaultPlan::uniform(7, faults))));
        ctrl.apply_plan(&p, &g);
        let report = ctrl.converge(64);
        assert!(report.converged);

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
        (
            obs.span_tree(),
            obs.metrics_json(),
            obs.metrics_prometheus(),
        )
    };

    let first = drill();
    assert!(first.0.contains("ctrl.converge"), "{}", first.0);
    assert!(first.0.contains("orch.tick"), "{}", first.0);
    assert!(first.2.contains("ctrl_sends_total"), "{}", first.2);
    assert!(
        first.2.contains("orchestrator_restorations_total"),
        "{}",
        first.2
    );
    assert!(first.2.contains("telemetry_samples_total"), "{}", first.2);
    assert_eq!(first, drill());
}

/// The manual clock drives exact, reproducible durations: advancing it is
/// the only way time passes, and the rendered tree / histogram reflect
/// the advances exactly.
#[test]
fn manual_clock_yields_exact_durations() {
    let clock = Arc::new(ManualClock::new());
    let obs = Obs::with_clock(clock.clone());

    let outer = obs.span("outer");
    clock.advance_micros(1_500);
    let inner = outer.child("inner");
    clock.advance_micros(500);
    inner.end();
    outer.end();

    let tree = obs.span_tree();
    assert!(tree.contains("outer (2.00ms)"), "{tree}");
    assert!(tree.contains("inner (500.0µs)"), "{tree}");

    let start = obs.now_ns();
    clock.advance_micros(2_000);
    obs.observe_since("op_seconds", start);
    let prom = obs.metrics_prometheus();
    assert!(prom.contains("op_seconds_count 1"), "{prom}");
    // 2 ms lands in the (1e-3, 1e-2] latency bucket, and in every wider one.
    assert!(prom.contains("op_seconds_bucket{le=\"0.001\"} 0"), "{prom}");
    assert!(prom.contains("op_seconds_bucket{le=\"0.01\"} 1"), "{prom}");
}
