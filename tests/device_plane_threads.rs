//! Devices are state, not threads: standing a device plane up and driving
//! it starts no OS thread. Alone in its binary so that no sibling test's
//! threads are in the count.
#![cfg(target_os = "linux")]

use flexwan::core::planning::{plan, PlannerConfig};
use flexwan::core::Scheme;
use flexwan::ctrl::Controller;
use flexwan::optical::spectrum::{PixelRange, SpectrumGrid};
use flexwan::optical::WssKind;
use flexwan::topo::graph::Graph;
use flexwan::topo::ip::IpTopology;

/// The `Threads:` line of `/proc/self/status`.
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("status has a Threads line");
    line.trim().parse().expect("thread count is a number")
}

#[test]
fn device_plane_runs_on_the_callers_thread() {
    let mut g = Graph::new();
    let a = g.add_node("a");
    let b = g.add_node("b");
    let c = g.add_node("c");
    g.add_edge(a, b, 150);
    g.add_edge(b, c, 200);
    g.add_edge(a, c, 500);
    let mut ip = IpTopology::new();
    ip.add_link(a, c, 600);
    ip.add_link(a, b, 400);
    let cfg = PlannerConfig {
        grid: SpectrumGrid::new(96),
        ..Default::default()
    };
    let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
    // A lightpath beside the plan: same route and format as a planned
    // one, parked at the top of the band where first-fit put nothing.
    let mut extra = p
        .wavelengths
        .iter()
        .find(|w| w.path.nodes.len() > 2)
        .expect("a–c routes through b")
        .clone();
    let width = extra.channel.width;
    extra.channel = PixelRange::new(96 - u32::from(width.pixels()), width);

    let before = os_threads();
    let mut ctrl = Controller::build(&g, WssKind::PixelWise, cfg.grid);
    assert!(ctrl.apply_plan(&p, &g).is_clean());
    for _ in 0..20 {
        ctrl.apply_wavelength_atomic(&extra).unwrap();
        ctrl.release_wavelength_atomic(&extra).unwrap();
    }
    assert_eq!(
        os_threads(),
        before,
        "the device plane started threads of its own"
    );
}
