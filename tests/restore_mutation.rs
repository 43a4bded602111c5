//! Cross-validation of restoration-by-mutation (the standing
//! [`PlanModel`] re-solved warm after a fiber cut) against from-scratch
//! builds, on every small instance of the validation suite:
//!
//! 1. the warm mutated re-solve must match a freshly built, cold-solved
//!    copy of the same mutated model **bit-for-bit** on objective and
//!    wavelength set;
//! 2. the mutated optimum must equal the from-scratch §8 restoration
//!    model (`restore::solve_exact`) run against the same exact plan.

use flexwan::core::planning::{Plan, PlanModel, PlannerConfig};
use flexwan::core::restore::{one_fiber_scenarios, solve_restoration_exact, FailureScenario};
use flexwan::core::{Scheme, Wavelength};
use flexwan::optical::spectrum::SpectrumGrid;
use flexwan::solver::SolveOptions;
use flexwan::topo::graph::{EdgeId, Graph};
use flexwan::topo::ip::IpTopology;
use flexwan_util::rng::ChaCha8Rng;

/// Same 4-node topology family as `restoration_validation.rs`, but with
/// deliberately smaller spectrum grids: the restorable model enumerates
/// every single-fiber detour path, and exact B&B over the resulting
/// variable space has to stay fast in debug builds.
fn restoration_instance(seed: u64) -> (Graph, IpTopology, PlannerConfig) {
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
        grid: SpectrumGrid::new(rng.gen_range(10u32..14)),
        k_paths: 2,
        ..Default::default()
    };
    (g, ip, cfg)
}

fn opts() -> SolveOptions {
    SolveOptions {
        max_nodes: 50_000,
        ..Default::default()
    }
}

/// A canonical sort key for comparing wavelength *sets*.
fn wl_key(w: &Wavelength) -> (u32, usize, u32, u32, u32) {
    (
        w.link.0,
        w.path_index,
        w.format.data_rate_gbps,
        u32::from(w.format.spacing.pixels()),
        w.channel.start,
    )
}

fn sorted(mut ws: Vec<Wavelength>) -> Vec<Wavelength> {
    ws.sort_by_key(wl_key);
    ws
}

/// Warm mutated re-solve == freshly built, cold-solved mutated model,
/// bit-for-bit on objective and wavelength set.
#[test]
fn mutated_resolve_matches_from_scratch_build() {
    let opts = opts();
    let mut compared = 0u32;
    let mut warm_total = 0u64;
    for seed in 0..8u64 {
        let (g, ip, cfg) = restoration_instance(seed);
        let mut warm_pm = PlanModel::build_restorable(Scheme::FlexWan, &g, &ip, &cfg);
        let Some(plan) = warm_pm.solve(&opts) else {
            continue;
        };

        // From-scratch comparator: an independently built and solved
        // copy of the same model. Every mutation below is solved on it
        // *cold* (basis dropped first), while `warm_pm` re-solves warm
        // from its standing basis.
        let mut cold_pm = PlanModel::build_restorable(Scheme::FlexWan, &g, &ip, &cfg);
        let cold_plan = cold_pm.solve(&opts).expect("fresh build must re-plan");
        assert_eq!(
            cold_plan.objective.to_bits(),
            plan.objective.to_bits(),
            "seed {seed}: planning solves diverged"
        );

        let spares = vec![1u32; ip.links().len()];
        for scenario in one_fiber_scenarios(&g) {
            for extra in [&[][..], &spares[..]] {
                let warm = warm_pm
                    .restore_after_cut(&g, &scenario, extra, &opts)
                    .expect("mutated re-solve found no incumbent");

                cold_pm.drop_basis();
                let cold = cold_pm
                    .restore_after_cut(&g, &scenario, extra, &opts)
                    .expect("from-scratch mutated solve found no incumbent");

                assert_eq!(
                    warm.objective.to_bits(),
                    cold.objective.to_bits(),
                    "seed {seed} scenario {}: warm {} vs scratch {}",
                    scenario.id,
                    warm.objective,
                    cold.objective
                );
                assert_eq!(warm.restored_gbps, cold.restored_gbps);
                assert_eq!(warm.affected_gbps, cold.affected_gbps);
                assert_eq!(
                    sorted(warm.wavelengths.clone()),
                    sorted(cold.wavelengths.clone()),
                    "seed {seed} scenario {}: wavelength sets diverged",
                    scenario.id
                );
                warm_total += warm.stats.warm_solves;
                compared += 1;
            }
        }
    }
    assert!(compared >= 12, "only {compared} comparisons ran");
    assert!(
        warm_total > 0,
        "no mutated re-solve ever reused the standing basis"
    );
}

/// The mutated optimum equals the from-scratch §8 restoration model run
/// against the same exact plan, and satisfies the §8 invariants.
#[test]
fn mutation_agrees_with_exact_restoration_model() {
    let opts = opts();
    let mut compared = 0u32;
    for seed in 0..8u64 {
        let (g, ip, cfg) = restoration_instance(seed);
        // `build_restorable` guarantees the standing variable space
        // contains every banned-KSP restoration path, so the mutated
        // model's feasible set equals the from-scratch §8 model's.
        let mut pm = PlanModel::build_restorable(Scheme::FlexWan, &g, &ip, &cfg);
        let Some(exact_plan) = pm.solve(&opts) else {
            continue;
        };
        // `restore::solve_exact` only reads scheme + wavelengths; wrap the
        // exact plan in a `Plan` shell so both formulations restore the
        // *same* deployment.
        let shell = Plan {
            scheme: Scheme::FlexWan,
            wavelengths: exact_plan.wavelengths.clone(),
            unmet: Vec::new(),
        };
        let spares = vec![1u32; ip.links().len()];
        for scenario in one_fiber_scenarios(&g) {
            for extra in [&[][..], &spares[..]] {
                let m = pm.restore_after_cut(&g, &scenario, extra, &opts).unwrap();
                let e = solve_restoration_exact(&shell, &g, &ip, &scenario, extra, &cfg, &opts)
                    .expect("exact restoration found no incumbent");
                assert_eq!(m.affected_gbps, e.affected_gbps, "seed {seed}");
                assert_eq!(
                    m.restored_gbps,
                    e.restored_gbps,
                    "seed {seed} scenario {} spares={}: mutation {} vs exact {}",
                    scenario.id,
                    !extra.is_empty(),
                    m.restored_gbps,
                    e.restored_gbps
                );
                // §8 invariants on the mutated solution itself.
                assert!(m.restored_gbps <= m.affected_gbps);
                for w in &m.wavelengths {
                    assert!(w.format.reach_km >= w.path.length_km);
                    for cut in &scenario.cuts {
                        assert!(!w.path.uses_edge(*cut));
                    }
                }
                compared += 1;
            }
        }
    }
    assert!(compared >= 12, "only {compared} comparisons ran");
}

/// Regression for 2-cut pin/ban ordering: a simultaneous two-fiber cut
/// taking down both the primary route and its preferred detour must ban
/// every crossing row in one batch *before* the re-solve (sequential
/// per-fiber mutation would strand the first cut's restoration on the
/// about-to-die detour). The surviving direct fiber is the only legal
/// restoration, warm and cold agree bit-for-bit, and the cut-slice
/// order does not matter.
#[test]
fn two_cut_ban_is_batched_and_order_independent() {
    let opts = opts();
    // Primary a-b-c (600 km), preferred detour a-d-c (700 km), direct
    // fallback a-c (900 km). Cutting {a-b, a-d} kills the primary AND
    // the preferred detour; only the direct fiber survives.
    let mut g = Graph::new();
    let a = g.add_node("a");
    let b = g.add_node("b");
    let c = g.add_node("c");
    let d = g.add_node("d");
    let e_ab = g.add_edge(a, b, 300);
    let _e_bc = g.add_edge(b, c, 300);
    let e_ad = g.add_edge(a, d, 350);
    let _e_dc = g.add_edge(d, c, 350);
    let e_ac = g.add_edge(a, c, 900);
    let mut ip = IpTopology::new();
    ip.add_link(a, c, 200);
    let cfg = PlannerConfig {
        grid: SpectrumGrid::new(12),
        k_paths: 2,
        ..Default::default()
    };

    let mut warm_pm = PlanModel::build_restorable(Scheme::FlexWan, &g, &ip, &cfg);
    warm_pm.solve(&opts).expect("baseline plan is feasible");
    let mut cold_pm = PlanModel::build_restorable(Scheme::FlexWan, &g, &ip, &cfg);
    cold_pm.solve(&opts).expect("baseline plan is feasible");

    let cut = |cuts: Vec<EdgeId>| FailureScenario {
        id: 0,
        cuts,
        probability: 1.0,
    };
    let warm = warm_pm
        .restore_after_cut(&g, &cut(vec![e_ab, e_ad]), &[], &opts)
        .expect("2-cut mutated re-solve found no incumbent");
    assert!(warm.affected_gbps > 0, "the 2-cut must hit the primary");
    assert_eq!(
        warm.restored_gbps, warm.affected_gbps,
        "the direct fiber restores everything"
    );
    for w in &warm.wavelengths {
        assert!(!w.path.uses_edge(e_ab), "restoration crossed cut a-b");
        assert!(!w.path.uses_edge(e_ad), "restoration crossed cut a-d");
        assert!(w.path.uses_edge(e_ac), "only the direct fiber survives");
    }

    cold_pm.drop_basis();
    let cold = cold_pm
        .restore_after_cut(&g, &cut(vec![e_ab, e_ad]), &[], &opts)
        .expect("cold 2-cut mutated solve found no incumbent");
    assert_eq!(warm.objective.to_bits(), cold.objective.to_bits());
    assert_eq!(warm.restored_gbps, cold.restored_gbps);
    assert_eq!(
        sorted(warm.wavelengths.clone()),
        sorted(cold.wavelengths.clone())
    );

    // Cut order is irrelevant: the whole cut set is banned at once.
    let swapped = warm_pm
        .restore_after_cut(&g, &cut(vec![e_ad, e_ab]), &[], &opts)
        .expect("swapped-order 2-cut re-solve found no incumbent");
    assert_eq!(warm.objective.to_bits(), swapped.objective.to_bits());
    assert_eq!(
        sorted(warm.wavelengths.clone()),
        sorted(swapped.wavelengths)
    );

    // The standing model is fully reverted: a later single-fiber cut
    // behaves as if the 2-cut drill never happened.
    let single = warm_pm
        .restore_after_cut(&g, &one_fiber_scenarios(&g)[0], &[], &opts)
        .expect("post-drill single-cut re-solve");
    cold_pm.drop_basis();
    let single_cold = cold_pm
        .restore_after_cut(&g, &one_fiber_scenarios(&g)[0], &[], &opts)
        .expect("post-drill cold single-cut re-solve");
    assert_eq!(single.objective.to_bits(), single_cold.objective.to_bits());
    assert_eq!(sorted(single.wavelengths), sorted(single_cold.wavelengths));
}
