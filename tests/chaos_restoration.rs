//! Chaos tests for the restoration path: a fiber-cut drill, compound
//! fault reports on one fiber, and the telemetry→restoration
//! orchestrator driven against a faulted device plane.

use std::sync::Arc;

use flexwan::core::planning::{plan, PlannerConfig};
use flexwan::core::restore::{restore, FailureScenario};
use flexwan::core::Scheme;
use flexwan::ctrl::{
    ChurnEvent, ChurnService, Controller, DeviceFaults, EventLog, FaultInjector, FaultPlan,
    Orchestrator, SeqEvent, ServiceConfig, TelemetrySim, TelemetryStore, TickOutcome,
};
use flexwan::optical::spectrum::SpectrumGrid;
use flexwan::optical::WssKind;
use flexwan::topo::graph::Graph;
use flexwan::topo::ip::IpTopology;

/// Triangle world: one 300 Gbps IP link a–b with a detour via c.
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
fn fiber_cut_drill_restores_around_the_cut() {
    let (g, ip, cfg) = world();
    let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
    assert!(p.is_feasible());
    let primary = p.wavelengths[0].path.edges[0];

    let scenario = FailureScenario {
        id: 1,
        cuts: vec![primary],
        probability: 1.0,
    };
    assert!(scenario.is_cut(primary));
    let r = restore(&p, &g, &ip, &scenario, &[], &cfg);
    assert_eq!(r.affected_gbps, 300);
    assert_eq!(r.restored_gbps, 300, "FlexWAN revives the full link");
    for rw in &r.restored {
        assert!(
            !rw.wavelength.path.uses_edge(primary),
            "restoration avoids the cut"
        );
        assert!(rw.wavelength.format.reach_km >= rw.wavelength.path.length_km);
    }
}

#[test]
fn compound_physical_faults_deduplicate_cuts() {
    // A cut and an amplifier loss of light (a −∞ drift reading) on the
    // same fiber, plus a cut elsewhere, in one batch: one cut entry per
    // fiber, and one repair clears the doubly reported fiber.
    let (g, ip, cfg) = world();
    let mut svc =
        ChurnService::new(&g, &ip, Scheme::FlexWan, cfg, ServiceConfig::default()).unwrap();
    let (e0, e1) = (g.edges()[0].id, g.edges()[1].id);
    let mut log = EventLog::new();
    let batch: Vec<SeqEvent> = [
        ChurnEvent::FiberCut(e0),
        ChurnEvent::TelemetryDrift {
            fiber: e0,
            delta_db: f64::NEG_INFINITY,
        },
        ChurnEvent::FiberCut(e1),
    ]
    .into_iter()
    .map(|e| log.append(e))
    .collect();
    svc.deliver(&log, &batch);
    assert_eq!(svc.active_cuts().len(), 2, "one fiber, one cut entry");
    let repair = log.append(ChurnEvent::FiberRepair(e0));
    svc.deliver(&log, &[repair]);
    assert_eq!(svc.active_cuts().iter().collect::<Vec<_>>(), [&e1]);
}

#[test]
fn orchestrator_drill_succeeds_against_faulted_device_plane() {
    // The full closed loop — telemetry, cut detection, restoration,
    // atomic device configuration — with the device plane dropping and
    // delaying at a fixed seed. The controller's retry layer absorbs the
    // faults: the drill must land the restoration with zero rejections.
    let (g, ip, cfg) = world();
    let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
    let primary = p.wavelengths[0].path.edges[0];

    let mut ctrl = Controller::build(&g, WssKind::PixelWise, cfg.grid);
    let injector = Arc::new(FaultInjector::new(FaultPlan::uniform(
        0xD411,
        DeviceFaults {
            drop_prob: 0.2,
            delay_reply_prob: 0.1,
            ..Default::default()
        },
    )));
    ctrl.arm_faults(injector.clone());

    let mut orch = Orchestrator::new(&g, &ip, p, cfg, Vec::new());
    let sim = TelemetrySim::new(&g);
    let mut store = TelemetryStore::new(30);

    for t in 0..3 {
        sim.tick(&mut store, t, &[]);
        assert_eq!(orch.tick(&store, &mut ctrl), TickOutcome::Quiet);
    }
    sim.tick(&mut store, 3, &[primary]);
    match orch.tick(&store, &mut ctrl) {
        TickOutcome::Restored {
            lost_gbps,
            revived_gbps,
            apply_rejections,
            ..
        } => {
            assert_eq!(lost_gbps, 300);
            assert_eq!(revived_gbps, 300);
            assert_eq!(apply_rejections, 0, "retries must absorb the chaos");
        }
        other => panic!("expected restoration, got {other:?}"),
    }
    assert_eq!(orch.live_restoration().len(), 1);
    assert!(!orch.live_restoration()[0].path.uses_edge(primary));
    // The chaos was real: the injector fired, the controller retried.
    let f = injector.stats();
    assert!(
        f.drops + f.delayed_replies > 0,
        "no faults fired at this seed"
    );
    assert!(ctrl.stats().retries > 0);
    // Every ledger step is in effect on its device.
    assert!(ctrl.audit_plan().is_empty(), "{:?}", ctrl.audit_plan());

    // Repair retires the restoration cleanly, still under chaos.
    sim.tick(&mut store, 4, &[]);
    match orch.tick(&store, &mut ctrl) {
        TickOutcome::Repaired { retired, .. } => assert_eq!(retired, 1),
        other => panic!("expected repair, got {other:?}"),
    }
    assert!(orch.live_restoration().is_empty());
}

#[test]
fn orchestrator_drill_is_deterministic() {
    let run = || {
        let (g, ip, cfg) = world();
        let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
        let primary = p.wavelengths[0].path.edges[0];
        let mut ctrl = Controller::build(&g, WssKind::PixelWise, cfg.grid);
        let injector = Arc::new(FaultInjector::new(FaultPlan::uniform(
            0xD411,
            DeviceFaults {
                drop_prob: 0.2,
                delay_reply_prob: 0.1,
                ..Default::default()
            },
        )));
        ctrl.arm_faults(injector.clone());
        let mut orch = Orchestrator::new(&g, &ip, p, cfg, Vec::new());
        let sim = TelemetrySim::new(&g);
        let mut store = TelemetryStore::new(30);
        sim.tick(&mut store, 0, &[]);
        let _ = orch.tick(&store, &mut ctrl);
        sim.tick(&mut store, 1, &[primary]);
        let _ = orch.tick(&store, &mut ctrl);
        (ctrl.stats().clone(), injector.stats())
    };
    assert_eq!(run(), run(), "same seed, same drill, same counters");
}
