//! End-to-end control-plane test: plan → centralized controller → device
//! plane → audit → fiber cut → detection → restoration → re-apply.
//! Exercises the whole §4 pipeline against live (simulated) multi-vendor
//! devices.

use flexwan::core::planning::{plan, PlannerConfig};
use flexwan::core::restore::{restore, FailureScenario};
use flexwan::core::Scheme;
use flexwan::ctrl::controller::Controller;
use flexwan::ctrl::datastream::{FiberCutDetector, TelemetrySim, TelemetryStore};
use flexwan::optical::WssKind;
use flexwan::topo::graph::Graph;
use flexwan::topo::ip::IpTopology;

fn backbone() -> (Graph, IpTopology) {
    let mut g = Graph::new();
    let a = g.add_node("a");
    let b = g.add_node("b");
    let c = g.add_node("c");
    let d = g.add_node("d");
    g.add_edge(a, b, 120);
    g.add_edge(b, c, 180);
    g.add_edge(c, d, 90);
    g.add_edge(d, a, 300);
    g.add_edge(a, c, 450);
    let mut ip = IpTopology::new();
    ip.add_link(a, c, 800);
    ip.add_link(b, d, 400);
    ip.add_link(a, b, 600);
    (g, ip)
}

#[test]
fn full_lifecycle() {
    let (g, ip) = backbone();
    let cfg = PlannerConfig::default();

    // 1. Plan and deploy.
    let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
    assert!(p.is_feasible());
    let mut ctrl = Controller::build(&g, WssKind::PixelWise, cfg.grid);
    let report = ctrl.apply_plan(&p, &g);
    assert!(report.is_clean(), "{:?}", report.rejections);
    assert!(ctrl.audit_plan().is_empty());

    // 2. A fiber cut appears in telemetry.
    let victim = p.wavelengths[0].path.edges[0];
    let sim = TelemetrySim::new(&g);
    let mut store = TelemetryStore::new(30);
    for t in 0..5 {
        sim.tick(&mut store, t, &[]);
    }
    sim.tick(&mut store, 5, &[victim]);
    let detected = FiberCutDetector.scan(&store);
    assert_eq!(detected, vec![victim]);

    // 3. Restore and verify the revived wavelengths avoid the cut.
    let scenario = FailureScenario {
        id: 0,
        cuts: detected,
        probability: 1.0,
    };
    let r = restore(&p, &g, &ip, &scenario, &[], &cfg);
    assert!(r.affected_gbps > 0);
    assert!(
        r.restored_gbps > 0,
        "restoration found nothing on a ring topology"
    );
    for rw in &r.restored {
        assert!(!rw.wavelength.path.uses_edge(victim));
    }

    // 4. Push the restoration configs through a fresh controller (the
    //    restored channels coexist with surviving ones).
    let mut survived = p.clone();
    survived.wavelengths.retain(|w| !w.path.uses_edge(victim));
    survived
        .wavelengths
        .extend(r.restored.iter().map(|rw| rw.wavelength.clone()));
    let mut ctrl2 = Controller::build(&g, WssKind::PixelWise, cfg.grid);
    let report2 = ctrl2.apply_plan(&survived, &g);
    assert!(report2.is_clean(), "{:?}", report2.rejections);
    assert!(ctrl2.audit_plan().is_empty());
}
