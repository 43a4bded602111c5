//! `PlanModel::build` must stay linear in the γ count: doubling the
//! spectrum grid doubles the enumerated columns, and may grow build time
//! by at most `LINEARITY_SLACK` × the γ ratio (a builder that rescans
//! every column per row sits at the ratio squared). The only wall-clock
//! assertion outside `benchmark/` — it compares two timings of one
//! process against each other, never against a recorded machine.

use std::time::Instant;

use flexwan_core::planning::{PlanModel, PlannerConfig};
use flexwan_core::Scheme;
use flexwan_optical::spectrum::SpectrumGrid;
use flexwan_topo::graph::Graph;
use flexwan_topo::ip::IpTopology;

const LINEARITY_SLACK: f64 = 1.75;
const REPS: u32 = 5;

/// Builds (never solves) the single-link model on a `pixels`-wide grid:
/// γ count, and the best-of-[`REPS`] build time in seconds.
fn build(pixels: u32) -> (usize, f64) {
    let mut g = Graph::new();
    let a = g.add_node("a");
    let b = g.add_node("b");
    g.add_edge(a, b, 400);
    let mut ip = IpTopology::new();
    ip.add_link(a, b, 400);
    let cfg = PlannerConfig {
        grid: SpectrumGrid::new(pixels),
        k_paths: 1,
        ..Default::default()
    };
    let mut best = f64::INFINITY;
    let mut gammas = 0;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let pm = PlanModel::build(Scheme::FlexWan, &g, &ip, &cfg);
        best = best.min(t0.elapsed().as_secs_f64());
        gammas = pm.space().gammas().len();
    }
    (gammas, best)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing property: run with --release")]
fn exact_build_time_is_linear_in_gammas() {
    let (small, small_s) = build(2048);
    let (large, large_s) = build(4096);
    assert_eq!((small, large), (14297, 28633), "γ enumeration changed");
    let gamma_ratio = large as f64 / small as f64;
    let time_ratio = large_s / small_s.max(1e-9);
    assert!(
        time_ratio <= gamma_ratio * LINEARITY_SLACK,
        "build time grew {time_ratio:.2}x for {gamma_ratio:.2}x the gammas \
         ({small_s:.4}s -> {large_s:.4}s)"
    );
}
