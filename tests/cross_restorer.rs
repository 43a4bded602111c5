//! Every restorer reads a cut the same way. On every instance of the
//! `restore_mutation.rs` family and one where the spare pool binds,
//! under every single-fiber cut and a seeded sample of 2-cuts, with and
//! without one extra spare per link, the greedy restorer, both exact §8
//! models (enumerated and column generation) and the standing-model
//! mutation report the same lost capacity, link by link, as a
//! recomputation kept in this file, and revive within each link's lost
//! capacity and spare pool; the 1+1 protection capability equals the
//! per-link rescan it replaced.

use std::collections::BTreeMap;

use flexwan::core::planning::{Plan, PlanCtx, PlanModel, PlannerConfig};
use flexwan::core::protect::ProtectedPlan;
use flexwan::core::restore::{
    one_fiber_scenarios, restore, solve_restoration_exact, solve_restoration_exact_colgen,
    FailureScenario,
};
use flexwan::core::scenario::sampled_k_cut_scenarios;
use flexwan::core::{Scheme, Wavelength};
use flexwan::optical::spectrum::SpectrumGrid;
use flexwan::solver::SolveOptions;
use flexwan::topo::graph::Graph;
use flexwan::topo::ip::IpTopology;
use flexwan_util::rng::ChaCha8Rng;

/// The instance family of `restore_mutation.rs`: a 4-node ring plus a
/// chord, one or two IP links, a small spectrum grid.
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

/// A short primary and a 2,400 km detour that only 100 G reaches: after
/// a primary cut the spare pool, not the spectrum, bounds restoration.
fn long_detour() -> (Graph, IpTopology, PlannerConfig) {
    let mut g = Graph::new();
    let [a, b, c] = ["a", "b", "c"].map(|n| g.add_node(n));
    g.add_edge(a, b, 100);
    g.add_edge(a, c, 1200);
    g.add_edge(c, b, 1200);
    let mut ip = IpTopology::new();
    ip.add_link(a, b, 300);
    let cfg = PlannerConfig {
        grid: SpectrumGrid::new(16),
        k_paths: 2,
        ..Default::default()
    };
    (g, ip, cfg)
}

/// Per hit link, in the order links are first hit: lost Gbps (`c'_e`)
/// and failed transponders.
fn lost_per_link(wavelengths: &[Wavelength], scenario: &FailureScenario) -> Vec<(usize, u64, u32)> {
    let mut lost: Vec<(usize, u64, u32)> = Vec::new();
    for w in wavelengths {
        if scenario.cuts.iter().any(|&e| w.path.uses_edge(e)) {
            let link = w.link.0 as usize;
            let rate = u64::from(w.format.data_rate_gbps);
            match lost.iter_mut().find(|(l, _, _)| *l == link) {
                Some((_, gbps, failed)) => (*gbps, *failed) = (*gbps + rate, *failed + 1),
                None => lost.push((link, rate, 1)),
            }
        }
    }
    lost
}

/// Asserts that revived wavelengths stay inside each hit link's lost
/// capacity (7) and spare pool (8).
fn within_caps<'w>(
    revived: impl Iterator<Item = &'w Wavelength>,
    lost: &[(usize, u64, u32)],
    extra: &[u32],
    at: &str,
) {
    let mut used: BTreeMap<usize, (u64, u32)> = BTreeMap::new();
    for w in revived {
        let e = used.entry(w.link.0 as usize).or_default();
        (e.0, e.1) = (e.0 + u64::from(w.format.data_rate_gbps), e.1 + 1);
    }
    for (link, (gbps, count)) in used {
        let &(_, c, failed) = lost
            .iter()
            .find(|h| h.0 == link)
            .expect("revived an unhit link");
        let pool = failed + extra.get(link).copied().unwrap_or(0);
        assert!(
            gbps <= c && count <= pool,
            "{at}: link {link} past c'_e or N_e"
        );
    }
}

/// 1+1 capability as a per-link rescan of both copies.
fn capability_by_rescan(pp: &ProtectedPlan, ip: &IpTopology, scenario: &FailureScenario) -> f64 {
    let alive = |w: &Wavelength| !scenario.cuts.iter().any(|&e| w.path.uses_edge(e));
    let rate = |w: &Wavelength| u64::from(w.format.data_rate_gbps);
    let (mut affected, mut survived) = (0u64, 0u64);
    for link in ip.links() {
        let of_link = |ws: &'_ [Wavelength]| {
            let mine: Vec<&Wavelength> = ws.iter().filter(|w| w.link == link.id).collect();
            let total: u64 = mine.iter().map(|w| rate(w)).sum();
            let live: u64 = mine.iter().filter(|w| alive(w)).map(|w| rate(w)).sum();
            (total, live)
        };
        let (w_total, w_alive) = of_link(&pp.working);
        let (_, p_alive) = of_link(&pp.protection);
        if w_alive < w_total {
            affected += w_total - w_alive;
            survived += (w_total - w_alive).min(p_alive);
        }
    }
    if affected == 0 {
        1.0
    } else {
        survived as f64 / affected as f64
    }
}

#[test]
fn every_restorer_loses_what_the_cut_takes() {
    let opts = SolveOptions {
        max_nodes: 50_000,
        ..Default::default()
    };
    let (mut compared, mut hit_links, mut lifted) = (0u32, 0usize, 0u32);
    let instances = (0..8u64).map(|seed| (seed, restoration_instance(seed)));
    for (seed, (g, ip, cfg)) in instances.chain([(8, long_detour())]) {
        let mut pm = PlanModel::build_restorable(Scheme::FlexWan, &g, &ip, &cfg);
        let Some(exact_plan) = pm.solve(&opts) else {
            continue;
        };
        let shell = Plan {
            scheme: Scheme::FlexWan,
            wavelengths: exact_plan.wavelengths.clone(),
            unmet: Vec::new(),
        };
        let protected = PlanCtx::new(&g, &cfg).plan_protected(Scheme::FlexWan, &ip);
        let scenarios = one_fiber_scenarios(&g)
            .into_iter()
            .chain(sampled_k_cut_scenarios(&g, 2, 6, seed));
        let spares = vec![1u32; ip.num_links()];
        for scenario in scenarios {
            let lost = lost_per_link(&shell.wavelengths, &scenario);
            let affected: u64 = lost.iter().map(|&(_, gbps, _)| gbps).sum();
            let hit: Vec<usize> = lost.iter().map(|&(l, _, _)| l).collect();
            let at = format!("seed {seed} cuts {:?}", scenario.cuts);
            let mut optimum = Vec::new();
            for extra in [&[][..], &spares[..]] {
                let at = format!("{at} spares {}", !extra.is_empty());

                let greedy = restore(&shell, &g, &ip, &scenario, extra, &cfg);
                assert_eq!(greedy.affected_gbps, affected, "{at}: greedy");
                let mut greedy_lost: Vec<(usize, u64)> = (greedy.per_link.iter())
                    .map(|&(l, gbps, _)| (l.0 as usize, gbps))
                    .collect();
                for w in greedy_lost.windows(2) {
                    assert!((w[1].1, w[0].0) <= (w[0].1, w[1].0), "{at}: greedy order");
                }
                greedy_lost.sort_by_key(|&(l, _)| hit.iter().position(|&h| h == l));
                let naive: Vec<(usize, u64)> = lost.iter().map(|&(l, c, _)| (l, c)).collect();
                assert_eq!(greedy_lost, naive, "{at}: greedy per link");
                within_caps(
                    greedy.restored.iter().map(|r| &r.wavelength),
                    &lost,
                    extra,
                    &at,
                );

                let enumerated =
                    solve_restoration_exact(&shell, &g, &ip, &scenario, extra, &cfg, &opts)
                        .expect("enumerated restoration found no incumbent");
                assert_eq!(enumerated.affected_gbps, affected, "{at}: enumerated");

                let colgen =
                    solve_restoration_exact_colgen(&shell, &g, &ip, &scenario, extra, &cfg, &opts)
                        .expect("column-generation restoration died");
                assert_eq!(colgen.restoration.affected_gbps, affected, "{at}: colgen");
                let colgen_links: Vec<usize> = colgen.count_duals.iter().map(|&(l, _)| l).collect();
                assert_eq!(colgen_links, hit, "{at}: colgen per link, first-seen order");

                let mutated = pm
                    .restore_after_cut(&g, &scenario, extra, &opts)
                    .expect("mutated re-solve found no incumbent");
                assert_eq!(mutated.affected_gbps, affected, "{at}: mutation");
                within_caps(mutated.wavelengths.iter(), &lost, extra, &at);
                assert_eq!(mutated.restored_gbps, enumerated.restored_gbps, "{at}");
                optimum.push(enumerated.restored_gbps);
                compared += 1;
            }
            // One spare more per link only relaxes (8): the optimum never
            // drops, and somewhere on the grid the pool is what binds.
            assert!(optimum[1] >= optimum[0], "{at}: spares lowered the optimum");
            lifted += u32::from(optimum[1] > optimum[0]);
            hit_links += lost.len();

            let by_rescan = capability_by_rescan(&protected, &ip, &scenario);
            let capability = protected.capability_under(&ip, &scenario);
            assert_eq!(capability.to_bits(), by_rescan.to_bits(), "seed {seed}");
        }
    }
    assert!(compared >= 150, "only {compared} comparisons ran");
    assert!(hit_links >= 40, "only {hit_links} hit links seen");
    assert!(lifted > 0, "extra spares never lifted an exact optimum");
}
