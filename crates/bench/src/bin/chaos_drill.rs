//! Chaos drill: convergence time and retry counts vs injected fault rate.
//!
//! A drill, not a measurement. For each fault rate it pushes a full plan
//! through a faulted device plane, runs the self-healing loop to
//! convergence, and reports how long the plane took to become
//! audited-clean and how much retry work that cost. Every counter column
//! is deterministic per (fault rate, seed); only `converge_ms` varies.
//!
//! Run with `cargo run --release -p flexwan-bench --bin chaos_drill`.

use std::sync::Arc;
use std::time::Instant;

use flexwan_core::planning::{plan, PlannerConfig};
use flexwan_core::Scheme;
use flexwan_ctrl::{Controller, DeviceFaults, FaultInjector, FaultPlan};
use flexwan_optical::spectrum::SpectrumGrid;
use flexwan_optical::WssKind;
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

fn main() {
    let (g, ip) = backbone();
    let cfg = PlannerConfig {
        grid: SpectrumGrid::new(96),
        ..Default::default()
    };
    let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
    assert!(p.is_feasible());

    println!(
        "{:>10} {:>6} {:>9} {:>8} {:>9} {:>12} {:>8} {:>12}",
        "fault_rate",
        "seed",
        "passes",
        "retries",
        "repairs",
        "read_repairs",
        "trips",
        "converge_ms"
    );
    for &rate in &[0.0, 0.1, 0.2, 0.3, 0.4, 0.5] {
        for seed in 0..3u64 {
            let mut ctrl = Controller::build(&g, WssKind::PixelWise, cfg.grid);
            let faults = DeviceFaults {
                drop_prob: rate / 2.0,
                delay_reply_prob: rate / 2.0,
                ..Default::default()
            };
            let injector = Arc::new(FaultInjector::new(FaultPlan::uniform(seed, faults)));
            ctrl.arm_faults(injector);
            let t0 = Instant::now();
            let _ = ctrl.apply_plan(&p, &g);
            let report = ctrl.converge(64);
            let dt = t0.elapsed();
            assert!(
                report.converged,
                "rate {rate} seed {seed} failed to converge"
            );
            let s = ctrl.stats();
            println!(
                "{:>10.2} {:>6} {:>9} {:>8} {:>9} {:>12} {:>8} {:>12.2}",
                rate,
                seed,
                report.passes,
                s.retries,
                report.repaired,
                s.read_repairs,
                s.breaker_trips,
                dt.as_secs_f64() * 1e3
            );
        }
    }
}
