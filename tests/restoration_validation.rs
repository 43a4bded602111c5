//! Validates the greedy restorer against the exact §8 restoration MIP on
//! randomized small instances, and checks restoration invariants.

use flexwan::core::planning::{plan, PlannerConfig};
use flexwan::core::restore::{one_fiber_scenarios, restore, solve_restoration_exact};
use flexwan::core::Scheme;
use flexwan::optical::spectrum::SpectrumGrid;
use flexwan::solver::SolveOptions;
use flexwan::topo::graph::Graph;
use flexwan::topo::ip::IpTopology;
use flexwan_util::rng::ChaCha8Rng;

fn random_instance(seed: u64) -> (Graph, IpTopology, PlannerConfig) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut g = Graph::new();
    let a = g.add_node("a");
    let b = g.add_node("b");
    let c = g.add_node("c");
    let d = g.add_node("d");
    g.add_edge(a, b, rng.gen_range(100u32..700));
    g.add_edge(b, c, rng.gen_range(100u32..700));
    g.add_edge(c, d, rng.gen_range(100u32..700));
    g.add_edge(d, a, rng.gen_range(100u32..700));
    g.add_edge(a, c, rng.gen_range(300u32..1200));
    let mut ip = IpTopology::new();
    for _ in 0..rng.gen_range(1u32..=2) {
        let (src, dst) = match rng.gen_range(0u32..3) {
            0 => (a, b),
            1 => (a, c),
            _ => (b, d),
        };
        ip.add_link(src, dst, 100 * rng.gen_range(1u64..=4));
    }
    let cfg = PlannerConfig {
        grid: SpectrumGrid::new(rng.gen_range(14u32..22)),
        k_paths: 2,
        ..Default::default()
    };
    (g, ip, cfg)
}

#[test]
fn greedy_restoration_close_to_exact() {
    let opts = SolveOptions {
        max_nodes: 50_000,
        ..Default::default()
    };
    let mut compared = 0;
    for seed in 0..12u64 {
        let (g, ip, cfg) = random_instance(seed);
        let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
        if !p.is_feasible() {
            continue;
        }
        for scenario in one_fiber_scenarios(&g) {
            let greedy = restore(&p, &g, &ip, &scenario, &[], &cfg);
            let Some(exact) = solve_restoration_exact(&p, &g, &ip, &scenario, &[], &cfg, &opts)
            else {
                continue;
            };
            assert_eq!(greedy.affected_gbps, exact.affected_gbps, "seed {seed}");
            // Greedy never exceeds the optimum and stays within 70 % of it
            // (it is usually equal on these instances).
            assert!(
                greedy.restored_gbps <= exact.restored_gbps,
                "seed {seed} scenario {}: greedy {} > exact {}",
                scenario.id,
                greedy.restored_gbps,
                exact.restored_gbps
            );
            if exact.restored_gbps > 0 {
                assert!(
                    greedy.restored_gbps as f64 >= 0.7 * exact.restored_gbps as f64,
                    "seed {seed} scenario {}: greedy {} far below exact {}",
                    scenario.id,
                    greedy.restored_gbps,
                    exact.restored_gbps
                );
            }
            compared += 1;
        }
    }
    assert!(compared >= 20, "only {compared} comparisons ran");
}

/// Exact-vs-greedy parity with non-zero `extra_spares`: the spare-pool
/// path of both restorers is exercised, greedy stays bounded by the
/// optimum, and granting spares never reduces the exact optimum.
#[test]
fn greedy_restoration_close_to_exact_with_spares() {
    let opts = SolveOptions {
        max_nodes: 50_000,
        ..Default::default()
    };
    let mut compared = 0;
    for seed in 0..8u64 {
        let (g, ip, cfg) = random_instance(seed);
        let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
        if !p.is_feasible() {
            continue;
        }
        let spares = vec![1u32; ip.links().len()];
        for scenario in one_fiber_scenarios(&g) {
            let greedy = restore(&p, &g, &ip, &scenario, &spares, &cfg);
            let Some(exact) = solve_restoration_exact(&p, &g, &ip, &scenario, &spares, &cfg, &opts)
            else {
                continue;
            };
            let Some(plain) = solve_restoration_exact(&p, &g, &ip, &scenario, &[], &cfg, &opts)
            else {
                continue;
            };
            assert_eq!(greedy.affected_gbps, exact.affected_gbps, "seed {seed}");
            assert!(
                greedy.restored_gbps <= exact.restored_gbps,
                "seed {seed} scenario {}: greedy {} > exact {}",
                scenario.id,
                greedy.restored_gbps,
                exact.restored_gbps
            );
            assert!(
                exact.restored_gbps >= plain.restored_gbps,
                "seed {seed} scenario {}: extra spares reduced the optimum ({} < {})",
                scenario.id,
                exact.restored_gbps,
                plain.restored_gbps
            );
            if exact.restored_gbps > 0 {
                assert!(
                    greedy.restored_gbps as f64 >= 0.7 * exact.restored_gbps as f64,
                    "seed {seed} scenario {}: greedy {} far below exact {}",
                    scenario.id,
                    greedy.restored_gbps,
                    exact.restored_gbps
                );
            }
            compared += 1;
        }
    }
    assert!(compared >= 15, "only {compared} comparisons ran");
}

#[test]
fn restoration_invariants_hold() {
    for seed in 40..55u64 {
        let (g, ip, cfg) = random_instance(seed);
        let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
        for scenario in one_fiber_scenarios(&g) {
            let r = restore(&p, &g, &ip, &scenario, &[], &cfg);
            // (7): never revive more than was lost.
            assert!(r.restored_gbps <= r.affected_gbps);
            for rw in &r.restored {
                // (2): reach covers the restoration path.
                assert!(rw.wavelength.format.reach_km >= rw.wavelength.path.length_km);
                // Restored paths avoid every cut fiber.
                for cut in &scenario.cuts {
                    assert!(!rw.wavelength.path.uses_edge(*cut));
                }
            }
            // (3): no overlapping channels on any fiber among surviving +
            // restored wavelengths.
            let mut all: Vec<(&flexwan::topo::Path, flexwan::optical::PixelRange)> = Vec::new();
            for w in &p.wavelengths {
                if !w.path.edges.iter().any(|e| scenario.cuts.contains(e)) {
                    all.push((&w.path, w.channel));
                }
            }
            for rw in &r.restored {
                all.push((&rw.wavelength.path, rw.wavelength.channel));
            }
            for e in g.edges() {
                let on_fiber: Vec<_> = all
                    .iter()
                    .filter(|(path, _)| path.uses_edge(e.id))
                    .collect();
                for (i, (_, c1)) in on_fiber.iter().enumerate() {
                    for (_, c2) in &on_fiber[i + 1..] {
                        assert!(!c1.overlaps(c2), "seed {seed}: overlap on fiber {:?}", e.id);
                    }
                }
            }
        }
    }
}

/// Drives the column-generation loop into its stall rung. One IP link
/// rides a short two-hop route; cutting it leaves a single 4000 km detour
/// fiber on which only 100 G @ 75 GHz (6 px) reaches, and the greedy
/// seed tiles its 480 px exactly — the restricted LP already sits at the
/// full-model optimum. Every other start still prices in while its
/// conflict rows are latent, separation pins the LP where it is, and
/// after 48 flat rounds the loop returns the restricted master's
/// optimum flagged `fell_back`: a lower bound on the enumerated optimum
/// of this maximization, here equal to it.
#[test]
fn saturated_restoration_stalls_onto_the_restricted_optimum() {
    use flexwan::core::restore::{solve_restoration_exact_colgen, FailureScenario};
    use flexwan::topo::graph::EdgeId;

    let mut g = Graph::new();
    let a = g.add_node("a");
    let m = g.add_node("m");
    let b = g.add_node("b");
    g.add_edge(a, m, 50);
    g.add_edge(m, b, 50);
    g.add_edge(a, b, 4000);
    let mut ip = IpTopology::new();
    ip.add_link(a, b, 20_000);
    let cfg = PlannerConfig {
        grid: SpectrumGrid::new(480),
        k_paths: 2,
        ..Default::default()
    };
    let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
    assert!(p.is_feasible());
    let cut = FailureScenario {
        id: 0,
        cuts: vec![EdgeId(0)],
        probability: 1.0,
    };
    // Spares beyond any tiling, so spectrum — not transponders — binds.
    let spares = [300];
    let opts = SolveOptions::default();
    let cg = solve_restoration_exact_colgen(&p, &g, &ip, &cut, &spares, &cfg, &opts)
        .expect("the restricted master stays solvable");
    assert!(cg.colgen.fell_back, "pricing must stall, not certify");
    assert_eq!(cg.colgen.pricing_rounds, 49, "first round + 48 flat ones");
    assert_eq!(cg.colgen.gap_rounds, 0, "a stalled LP closes no gap");
    // The incumbent is the restricted master's own optimum: it meets the
    // restricted LP bound (80 tiles of 100 G).
    assert_eq!(cg.restoration.restored_gbps, 8_000);
    assert_eq!(cg.colgen.lp_objective.round() as u64, 8_000);
    let exact = solve_restoration_exact(&p, &g, &ip, &cut, &spares, &cfg, &opts)
        .expect("enumerated reference solves");
    assert_eq!(exact.affected_gbps, cg.restoration.affected_gbps);
    assert!(cg.restoration.restored_gbps <= exact.restored_gbps);
}
