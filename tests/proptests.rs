//! Randomized property tests over the core data structures and
//! invariants, driven by a seeded [`ChaCha8Rng`] so every run replays the
//! same cases (no external property-testing framework required).

use std::collections::HashSet;

use flexwan::core::planning::format_dp::select_formats;
use flexwan::core::Scheme;
use flexwan::ctrl::model::Vendor;
use flexwan::ctrl::vendor;
use flexwan::ctrl::StandardConfig;
use flexwan::optical::spectrum::{PixelRange, PixelWidth, SpectrumGrid, SpectrumMask};
use flexwan::optical::TransponderFormat;
use flexwan::solver::{LinExpr, Model, Sense, Status};
use flexwan::topo::graph::Graph;
use flexwan::topo::ksp::k_shortest_paths;
use flexwan_util::rng::ChaCha8Rng;

/// Occupy/release round-trips leave the mask exactly as before, and
/// occupancy accounting matches the sum of live ranges.
#[test]
fn spectrum_mask_accounting() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA001);
    for _case in 0..128 {
        let grid = SpectrumGrid::c_band();
        let mut mask = SpectrumMask::new(grid);
        let mut live: Vec<PixelRange> = Vec::new();
        let n_ops = rng.gen_range(1usize..40);
        for _ in 0..n_ops {
            let r = PixelRange::new(
                rng.gen_range(0u32..370),
                PixelWidth::new(rng.gen_range(1u16..13)),
            );
            if grid.contains(&r) && mask.is_free(&r) {
                mask.occupy(&r).unwrap();
                live.push(r);
            }
        }
        let expected: u32 = live.iter().map(|r| u32::from(r.width.pixels())).sum();
        assert_eq!(mask.occupied_pixels(), expected);
        // Releasing everything restores an empty mask.
        for r in &live {
            mask.release(r).unwrap();
        }
        assert_eq!(mask.occupied_pixels(), 0);
    }
}

/// First fit always returns a free range, and there is no free run of
/// the requested width starting below it.
#[test]
fn first_fit_is_lowest() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA002);
    for _case in 0..128 {
        let grid = SpectrumGrid::new(96);
        let mut mask = SpectrumMask::new(grid);
        for _ in 0..rng.gen_range(0usize..20) {
            let r = PixelRange::new(
                rng.gen_range(0u32..90),
                PixelWidth::new(rng.gen_range(1u16..8)),
            );
            if grid.contains(&r) && mask.is_free(&r) {
                mask.occupy(&r).unwrap();
            }
        }
        let want = rng.gen_range(1u16..10);
        let w = PixelWidth::new(want);
        match SpectrumMask::first_fit_any_of_each(grid, [[&mask]], w, 1) {
            Some(hit) => {
                assert!(mask.is_free(&hit));
                for s in 0..hit.start {
                    assert!(
                        !mask.is_free(&PixelRange::new(s, w)),
                        "free run below first_fit at {s}"
                    );
                }
            }
            None => {
                for s in 0..=(96 - u32::from(want)) {
                    assert!(!mask.is_free(&PixelRange::new(s, w)));
                }
            }
        }
    }
}

/// The format-selection DP always covers the demand with reachable
/// formats, never uses more transponders than the 100 G fallback, and
/// never does worse (in objective) than any single-format solution.
#[test]
fn format_dp_covers_and_is_competitive() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA003);
    for _case in 0..128 {
        let demand = rng.gen_range(1u64..25) * 100;
        let distance = rng.gen_range(50u32..5200);
        let model = Scheme::FlexWan.transponder();
        match select_formats(model, demand, distance, 1e-3) {
            None => {
                assert!(model.formats_reaching(distance).is_empty());
            }
            Some(formats) => {
                let total: u64 = formats.iter().map(|f| u64::from(f.data_rate_gbps)).sum();
                assert!(total >= demand, "covers demand");
                for f in &formats {
                    assert!(f.reach_km >= distance, "reach constraint");
                }
                let cost: f64 = formats.iter().map(|f| 1.0 + 1e-3 * f.spacing.ghz()).sum();
                // Compare against every single-format alternative.
                for alt in model.formats_reaching(distance) {
                    let n = demand.div_ceil(u64::from(alt.data_rate_gbps));
                    let alt_cost = n as f64 * (1.0 + 1e-3 * alt.spacing.ghz());
                    assert!(
                        cost <= alt_cost + 1e-9,
                        "DP cost {cost} beats single-format {alt_cost}"
                    );
                }
            }
        }
    }
}

/// Simplex: on random bounded LPs the solution is feasible and at
/// least as good as a sample of random feasible points.
#[test]
fn simplex_dominates_random_feasible_points() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA004);
    for _case in 0..128 {
        let (c1, c2) = (rng.gen_range(-5.0f64..5.0), rng.gen_range(-5.0f64..5.0));
        let (a, b) = (rng.gen_range(1.0f64..4.0), rng.gen_range(1.0f64..4.0));
        let rhs = rng.gen_range(2.0f64..20.0);
        let mut m = Model::new();
        let x = m.continuous("x", 0.0, 10.0);
        let y = m.continuous("y", 0.0, 10.0);
        m.le(a * x + b * y, rhs);
        m.set_objective(Sense::Maximize, c1 * x + c2 * y);
        let sol = m.solve();
        assert_eq!(sol.status, Status::Optimal);
        assert!(m.is_feasible(&sol.values, 1e-6));
        for _ in 0..10 {
            let (px, py) = (rng.gen_range(0.0f64..10.0), rng.gen_range(0.0f64..10.0));
            if a * px + b * py <= rhs {
                let val = c1 * px + c2 * py;
                assert!(
                    sol.objective >= val - 1e-6,
                    "optimal {} < feasible probe {}",
                    sol.objective,
                    val
                );
            }
        }
    }
}

/// Branch & bound matches brute force on random 0/1 knapsacks.
#[test]
fn mip_matches_bruteforce_knapsack() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA005);
    for _case in 0..128 {
        let n = rng.gen_range(2usize..9);
        let weights: Vec<u32> = (0..n).map(|_| rng.gen_range(1u32..15)).collect();
        let values: Vec<u32> = (0..n).map(|_| rng.gen_range(1u32..20)).collect();
        let cap = rng.gen_range(5u32..40);
        // Brute force.
        let mut best = 0u32;
        for pick in 0u32..(1 << n) {
            let (mut w, mut v) = (0u32, 0u32);
            for i in 0..n {
                if pick & (1 << i) != 0 {
                    w += weights[i];
                    v += values[i];
                }
            }
            if w <= cap {
                best = best.max(v);
            }
        }
        // MIP.
        let mut m = Model::new();
        let vars: Vec<_> = (0..n).map(|i| m.binary(format!("b{i}"))).collect();
        let wexpr = LinExpr::sum(vars.iter().zip(&weights).map(|(&v, &w)| f64::from(w) * v));
        m.le(wexpr, f64::from(cap));
        let vexpr = LinExpr::sum(
            vars.iter()
                .zip(&values)
                .map(|(&var, &val)| f64::from(val) * var),
        );
        m.set_objective(Sense::Maximize, vexpr);
        let sol = m.solve();
        assert_eq!(sol.status, Status::Optimal);
        assert!(
            (sol.objective - f64::from(best)).abs() < 1e-6,
            "mip {} vs brute {}",
            sol.objective,
            best
        );
    }
}

/// Vendor adapters are lossless for arbitrary configs of every kind —
/// transponder line, MUX port (set or cleared), ROADM express add and
/// delete — in every vendor's dialect.
#[test]
fn vendor_dialects_round_trip() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA006);
    let range = |rng: &mut ChaCha8Rng, min_width: u16| {
        PixelRange::new(
            rng.gen_range(0u32..370),
            PixelWidth::new(rng.gen_range(min_width..13)),
        )
    };
    for _case in 0..128 {
        let port = rng.gen_range(0u16..64);
        let clear = rng.gen_bool(0.5);
        let passband = (!clear).then(|| range(&mut rng, 1));
        // A transponder's spacing must exceed the one-pixel guard band.
        let channel = range(&mut rng, 2);
        let format = TransponderFormat::derive(
            rng.gen_range(1u32..1200),
            channel.width,
            rng.gen_range(1u32..6000),
        );
        let (from_degree, to_degree) = (rng.gen_range(0u16..8), rng.gen_range(0u16..8));
        let express = range(&mut rng, 1);
        let configs = [
            StandardConfig::Transponder {
                format,
                channel,
                enabled: rng.gen_bool(0.5),
            },
            StandardConfig::MuxPort { port, passband },
            StandardConfig::RoadmExpress {
                from_degree,
                to_degree,
                passband: express,
            },
            StandardConfig::RoadmRelease {
                from_degree,
                to_degree,
                passband: express,
            },
        ];
        for cfg in configs {
            for v in Vendor::ALL {
                let native = vendor::encode(v, &cfg);
                let back = vendor::decode(v, &native).unwrap();
                assert_eq!(back, cfg, "{v:?}: {native}");
            }
        }
    }
}

/// Node-distinct routes: hop alternatives connect the right node
/// pairs, the conservative length is the max realization, and every
/// realization is a valid path.
#[test]
fn routes_are_consistent() {
    use flexwan::topo::route::k_shortest_routes;
    let mut rng = ChaCha8Rng::seed_from_u64(0xA007);
    for _case in 0..64 {
        let n = rng.gen_range(3usize..6);
        let pair_fibers: Vec<usize> = (0..n).map(|_| rng.gen_range(1usize..4)).collect();
        let lens: Vec<u32> = (0..n).map(|_| rng.gen_range(20u32..400)).collect();
        let mut g = Graph::new();
        let nodes: Vec<_> = (0..=n).map(|i| g.add_node(format!("n{i}"))).collect();
        for i in 0..n {
            for p in 0..pair_fibers[i] {
                g.add_edge(nodes[i], nodes[i + 1], lens[i] + p as u32);
            }
        }
        let routes = k_shortest_routes(&g, nodes[0], nodes[n], 3, &HashSet::new());
        assert_eq!(routes.len(), 1, "a chain has one node-distinct route");
        let r = &routes[0];
        assert_eq!(r.hops.len(), n);
        for (i, hop) in r.hops.iter().enumerate() {
            assert_eq!(hop.len(), pair_fibers[i]);
        }
        // Conservative length = Σ max parallel length.
        let expect: u32 = (0..n).map(|i| lens[i] + (pair_fibers[i] - 1) as u32).sum();
        assert_eq!(r.length_km, expect);
        // Any per-hop choice realizes a valid path no longer than that.
        let chosen: Vec<_> = r.hops.iter().map(|h| h[0]).collect();
        let path = r.realize(&g, &chosen);
        assert!(path.length_km <= r.length_km);
    }
}

/// Defragmentation preserves the global no-overlap invariant and
/// never loses a wavelength.
#[test]
fn defrag_preserves_invariants() {
    use flexwan::core::defrag::make_room;
    use flexwan::core::planning::SpectrumState;
    use flexwan::core::Wavelength;
    use flexwan::optical::format::TransponderFormat;
    use flexwan::topo::ip::IpLinkId;
    use flexwan::topo::route::k_shortest_routes;

    let mut rng = ChaCha8Rng::seed_from_u64(0xA008);
    for _case in 0..64 {
        let n_seed = rng.gen_range(1usize..5);
        let starts: Vec<u32> = (0..n_seed).map(|_| rng.gen_range(0u32..28)).collect();
        let widths: Vec<u16> = (0..n_seed).map(|_| rng.gen_range(2u16..6)).collect();
        let want = rng.gen_range(4u16..12);

        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let e = g.add_edge(a, b, 100);
        let grid = SpectrumGrid::new(32);
        let mut s = SpectrumState::new(grid, 1);
        let path = flexwan::topo::Path::new(&g, vec![a, b], vec![e]);
        let mut wl: Vec<Wavelength> = Vec::new();
        for (&st, &wd) in starts.iter().zip(&widths) {
            let r = PixelRange::new(st, PixelWidth::new(wd));
            if grid.contains(&r) && s.mask(flexwan::topo::EdgeId(0)).is_free(&r) {
                s.occupy_exact(&path, &r).unwrap();
                wl.push(Wavelength {
                    link: IpLinkId(0),
                    path_index: 0,
                    path: path.clone(),
                    format: TransponderFormat::derive(100, PixelWidth::new(4), 3000),
                    channel: r,
                });
            }
        }
        let n_before = wl.len();
        let route = k_shortest_routes(&g, a, b, 1, &HashSet::new()).remove(0);
        let result = make_room(&mut s, &mut wl, &route, PixelWidth::new(want), 1, 3, &g);
        assert_eq!(wl.len(), n_before, "no wavelength lost");
        // No overlaps among wavelengths (and the new channel, if any).
        let mut ranges: Vec<PixelRange> = wl.iter().map(|w| w.channel).collect();
        if let Some(out) = &result {
            ranges.push(out.channel);
            for st in &out.steps {
                assert!(!st.from.overlaps(&st.to), "make-before-break");
            }
        }
        for (i, r1) in ranges.iter().enumerate() {
            for r2 in &ranges[i + 1..] {
                assert!(!r1.overlaps(r2), "overlap after defrag");
            }
        }
        // Mask occupancy equals the sum of live ranges.
        let expected: u32 = ranges.iter().map(|r| u32::from(r.width.pixels())).sum();
        assert_eq!(s.mask(flexwan::topo::EdgeId(0)).occupied_pixels(), expected);
    }
}

/// Yen's KSP on random connected graphs: sorted, loopless, distinct,
/// and the first path is the Dijkstra optimum.
#[test]
fn ksp_properties() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA009);
    for _case in 0..64 {
        let n = rng.gen_range(4usize..9);
        let k = rng.gen_range(1usize..5);
        let mut g = Graph::new();
        let nodes: Vec<_> = (0..n).map(|i| g.add_node(format!("n{i}"))).collect();
        // Spanning chain keeps it connected.
        for w in nodes.windows(2) {
            g.add_edge(w[0], w[1], 100);
        }
        for _ in 0..rng.gen_range(2usize..12) {
            let a = rng.gen_range(0usize..8) % n;
            let b = rng.gen_range(0usize..8) % n;
            if a != b {
                g.add_edge(nodes[a], nodes[b], rng.gen_range(1u32..500));
            }
        }
        let src = nodes[0];
        let dst = nodes[n - 1];
        let paths = k_shortest_paths(&g, src, dst, k, &HashSet::new());
        assert!(!paths.is_empty());
        let mut seen = HashSet::new();
        for w in paths.windows(2) {
            assert!(w[0].length_km <= w[1].length_km);
        }
        for p in &paths {
            assert!(!p.has_loop());
            assert_eq!(p.source(), src);
            assert_eq!(p.destination(), dst);
            assert!(seen.insert(p.edges.clone()), "duplicate path");
        }
        let best = flexwan::topo::ksp::shortest_path(&g, src, dst, &HashSet::new()).unwrap();
        assert_eq!(paths[0].length_km, best.length_km);
    }
}

/// Shared generator for the planner/restoration invariants: a random
/// connected optical graph (spanning chain + chords) and a random IP
/// demand set over distinct node pairs.
fn random_instance(rng: &mut ChaCha8Rng) -> (Graph, flexwan::topo::ip::IpTopology) {
    let n = rng.gen_range(4usize..8);
    let mut g = Graph::new();
    let nodes: Vec<_> = (0..n).map(|i| g.add_node(format!("n{i}"))).collect();
    for w in nodes.windows(2) {
        g.add_edge(w[0], w[1], rng.gen_range(50u32..900));
    }
    for _ in 0..rng.gen_range(1usize..6) {
        let a = rng.gen_range(0usize..16) % n;
        let b = rng.gen_range(0usize..16) % n;
        if a != b {
            g.add_edge(nodes[a], nodes[b], rng.gen_range(50u32..1500));
        }
    }
    let mut ip = flexwan::topo::ip::IpTopology::new();
    for _ in 0..rng.gen_range(1usize..5) {
        let a = rng.gen_range(0usize..16) % n;
        let b = rng.gen_range(0usize..16) % n;
        if a != b {
            ip.add_link(nodes[a], nodes[b], rng.gen_range(1u64..10) * 100);
        }
    }
    (g, ip)
}

/// Planner invariants on random instances, every scheme: each channel
/// sits inside the fiber's grid (never outside the C-band), two
/// wavelengths sharing a fiber never overlap in spectrum, and every
/// wavelength's format reaches over its optical path. These must hold
/// whether or not the plan is feasible (tight grids are generated on
/// purpose).
#[test]
fn planned_wavelengths_respect_spectrum_and_reach() {
    use flexwan::core::planning::{plan, PlannerConfig};

    let mut rng = ChaCha8Rng::seed_from_u64(0xA00A);
    for _case in 0..32 {
        let (g, ip) = random_instance(&mut rng);
        if ip.num_links() == 0 {
            continue;
        }
        let grid = if rng.gen_bool(0.5) {
            SpectrumGrid::c_band()
        } else {
            SpectrumGrid::new(rng.gen_range(16u32..64))
        };
        let cfg = PlannerConfig {
            grid,
            k_paths: 2,
            ..PlannerConfig::default()
        };
        for &scheme in Scheme::ALL.iter() {
            let p = plan(scheme, &g, &ip, &cfg);
            for w in &p.wavelengths {
                assert!(
                    grid.contains(&w.channel),
                    "{scheme}: channel outside the grid"
                );
                assert!(
                    w.format.reach_km >= w.path.length_km,
                    "{scheme}: reach {} km < path {} km",
                    w.format.reach_km,
                    w.path.length_km
                );
                assert!(!w.path.has_loop(), "{scheme}: looping optical path");
            }
            for (i, w1) in p.wavelengths.iter().enumerate() {
                for w2 in &p.wavelengths[i + 1..] {
                    let share_fiber = w1.path.edges.iter().any(|e| w2.path.edges.contains(e));
                    assert!(
                        !(share_fiber && w1.channel.overlaps(&w2.channel)),
                        "{scheme}: spectrum overlap on a shared fiber"
                    );
                }
            }
        }
    }
}

/// Restoration invariants on random instances: revived wavelengths ride
/// only surviving fibers, never revive more than was lost, stay inside
/// the grid, and never collide — with each other or with the surviving
/// wavelengths of the original plan.
#[test]
fn restoration_uses_only_surviving_fibers() {
    use flexwan::core::planning::{plan, PlannerConfig};
    use flexwan::core::restore::{one_fiber_scenarios, restore};

    let mut rng = ChaCha8Rng::seed_from_u64(0xA00B);
    for _case in 0..16 {
        let (g, ip) = random_instance(&mut rng);
        if ip.num_links() == 0 {
            continue;
        }
        let cfg = PlannerConfig {
            grid: SpectrumGrid::new(rng.gen_range(24u32..80)),
            k_paths: 2,
            ..PlannerConfig::default()
        };
        for &scheme in Scheme::ALL.iter() {
            let p = plan(scheme, &g, &ip, &cfg);
            for scenario in &one_fiber_scenarios(&g) {
                let r = restore(&p, &g, &ip, scenario, &[], &cfg);
                assert!(
                    r.restored_gbps <= r.affected_gbps,
                    "{scheme}: revived more than lost"
                );
                let surviving: Vec<_> = p
                    .wavelengths
                    .iter()
                    .filter(|w| w.path.edges.iter().all(|&e| !scenario.is_cut(e)))
                    .collect();
                for rw in &r.restored {
                    let w = &rw.wavelength;
                    for &e in &w.path.edges {
                        assert!(
                            !scenario.is_cut(e),
                            "{scheme}: restored path crosses a cut fiber"
                        );
                    }
                    assert!(
                        cfg.grid.contains(&w.channel),
                        "{scheme}: restored channel off-grid"
                    );
                    assert!(
                        w.format.reach_km >= w.path.length_km,
                        "{scheme}: restored over reach"
                    );
                    for s in &surviving {
                        let share = w.path.edges.iter().any(|e| s.path.edges.contains(e));
                        assert!(
                            !(share && w.channel.overlaps(&s.channel)),
                            "{scheme}: restored channel collides with a surviving wavelength"
                        );
                    }
                }
                for (i, r1) in r.restored.iter().enumerate() {
                    for r2 in &r.restored[i + 1..] {
                        let share = r1
                            .wavelength
                            .path
                            .edges
                            .iter()
                            .any(|e| r2.wavelength.path.edges.contains(e));
                        assert!(
                            !(share && r1.wavelength.channel.overlaps(&r2.wavelength.channel)),
                            "{scheme}: two restored channels collide"
                        );
                    }
                }
            }
        }
    }
}

/// k-cut restoration invariant on random instances: for every sampled
/// multi-fiber cut, no restored route traverses *any* cut fiber, and
/// revived capacity never exceeds what was lost.
#[test]
fn k_cut_restoration_avoids_every_cut_fiber() {
    use flexwan::core::planning::{plan, PlannerConfig};
    use flexwan::core::restore::restore;
    use flexwan::core::scenario::sampled_k_cut_scenarios;

    let mut rng = ChaCha8Rng::seed_from_u64(0xA00C);
    for case in 0..12 {
        let (g, ip) = random_instance(&mut rng);
        if ip.num_links() == 0 {
            continue;
        }
        let cfg = PlannerConfig {
            grid: SpectrumGrid::new(rng.gen_range(24u32..80)),
            k_paths: 2,
            ..PlannerConfig::default()
        };
        let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
        for k in 2..=3usize.min(g.num_edges()) {
            for scenario in &sampled_k_cut_scenarios(&g, k, 6, 0xC0FFEE ^ case) {
                let r = restore(&p, &g, &ip, scenario, &[], &cfg);
                assert!(r.restored_gbps <= r.affected_gbps, "revived more than lost");
                for rw in &r.restored {
                    for &e in &rw.wavelength.path.edges {
                        assert!(
                            !scenario.is_cut(e),
                            "k={k}: restored path crosses a cut fiber"
                        );
                    }
                }
            }
        }
    }
}

/// Availability-surface properties on random instances: cell
/// availability is monotone non-decreasing along the spare-budget axis
/// (budgets are allowances), and the whole surface renders byte-identically
/// at 1, 2 and 4 pool threads.
#[test]
fn availability_surface_is_monotone_and_thread_invariant() {
    use flexwan::core::planning::{PlanCtx, PlannerConfig};
    use flexwan::core::scenario::{demand_scenarios, scenario_suite, EngineConfig, ScenarioEngine};
    use flexwan::topo::cache::RouteCache;

    let mut rng = ChaCha8Rng::seed_from_u64(0xA00D);
    let mut evaluated = 0usize;
    for _case in 0..6 {
        let (g, ip) = random_instance(&mut rng);
        if ip.num_links() == 0 {
            continue;
        }
        let cfg = PlannerConfig {
            grid: SpectrumGrid::new(rng.gen_range(24u32..64)),
            k_paths: 2,
            ..PlannerConfig::default()
        };
        let suite = scenario_suite(&g, 2, 12, 6, 0xFEED);
        let demands = demand_scenarios(&ip, 1, 0.2, 0xFEED);
        let budgets = vec![0u32, 1, 3];
        let cache = RouteCache::new();
        let ctx = PlanCtx::new(&g, &cfg).sharing(&cache);
        let mut renders = Vec::new();
        for threads in [1usize, 2, 4] {
            let engine = ScenarioEngine::new(
                Scheme::FlexWan,
                ctx,
                &ip,
                EngineConfig {
                    spare_budgets: budgets.clone(),
                    threads,
                },
            );
            let surface = engine.evaluate(&suite, &demands);
            for cells in surface.cells.chunks(budgets.len()) {
                for w in cells.windows(2) {
                    assert!(
                        w[1].availability() >= w[0].availability(),
                        "availability dropped with a larger spare allowance"
                    );
                    assert!(
                        w[1].restored_gbps >= w[0].restored_gbps,
                        "restored Gbps dropped with a larger spare allowance"
                    );
                }
            }
            renders.push(surface.render());
        }
        assert_eq!(renders[0], renders[1], "1 vs 2 threads");
        assert_eq!(renders[0], renders[2], "1 vs 4 threads");
        evaluated += 1;
    }
    assert!(evaluated >= 3, "only {evaluated} instances evaluated");
}

/// Column generation is exact: on every random instance the enumeration
/// can solve, the restricted-master optimum matches the full-enumeration
/// optimum bit-for-bit under the canonical objective (the oracle walks
/// the universe in a fixed order and truncates with a stable sort,
/// DESIGN.md §12). Each instance then runs the restoration side of the
/// same loop for one cut: CG restores exactly what the enumerated §8 MIP
/// restores.
#[test]
fn colgen_equals_enumeration() {
    use flexwan::core::planning::{
        canonical_objective, plan, solve_exact, solve_exact_colgen, PlannerConfig,
    };
    use flexwan::core::restore::{
        solve_restoration_exact, solve_restoration_exact_colgen, FailureScenario,
    };
    use flexwan::solver::SolveOptions;

    let mut rng = ChaCha8Rng::seed_from_u64(0xC601);
    let mut compared = 0usize;
    let mut restored = 0usize;
    for _case in 0..16 {
        // Small triangle instances (the planning_exact_vs_heuristic
        // family): big enough to exercise pricing and conflict
        // separation, small enough that the enumerated B&B certifies in
        // milliseconds — a node-limited incumbent is not an optimum and
        // would make the bitwise comparison meaningless.
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge(a, b, rng.gen_range(100u32..800));
        g.add_edge(b, c, rng.gen_range(100u32..800));
        g.add_edge(a, c, rng.gen_range(200u32..1500));
        let mut ip = flexwan::topo::ip::IpTopology::new();
        for _ in 0..rng.gen_range(1u32..=2) {
            let (src, dst) = match rng.gen_range(0u32..3) {
                0 => (a, b),
                1 => (b, c),
                _ => (a, c),
            };
            ip.add_link(src, dst, 100 * rng.gen_range(1u64..=5));
        }
        let cfg = PlannerConfig {
            grid: SpectrumGrid::new(rng.gen_range(12u32..20)),
            k_paths: 2,
            ..PlannerConfig::default()
        };
        let opts = SolveOptions {
            max_nodes: 50_000,
            ..Default::default()
        };
        let Some(full) = solve_exact(Scheme::FlexWan, &g, &ip, &cfg, &opts) else {
            continue;
        };
        if full.stats.nodes >= opts.max_nodes as u64 {
            // Node-limited incumbent, not a certified optimum — CG may
            // legitimately beat it, so there is nothing to compare.
            continue;
        }
        let full_bits = canonical_objective(&full.wavelengths, cfg.epsilon).to_bits();
        let cg = solve_exact_colgen(Scheme::FlexWan, &g, &ip, &cfg, &opts)
            .expect("enumeration-feasible instance must solve via CG");
        assert_eq!(
            cg.plan.objective.to_bits(),
            full_bits,
            "CG optimum must match enumeration bit-for-bit"
        );
        compared += 1;

        // The restoration side of the same loop: cut the first fiber the
        // heuristic plan lights, restore by CG and by enumeration.
        let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
        let Some(cut_fiber) = p.wavelengths.first().map(|w| w.path.edges[0]) else {
            continue;
        };
        let cut = FailureScenario {
            id: 0,
            cuts: vec![cut_fiber],
            probability: 1.0,
        };
        let Some(exact) = solve_restoration_exact(&p, &g, &ip, &cut, &[], &cfg, &opts) else {
            continue;
        };
        if exact.stats.nodes >= opts.max_nodes as u64 {
            continue;
        }
        let cg = solve_restoration_exact_colgen(&p, &g, &ip, &cut, &[], &cfg, &opts)
            .expect("enumeration-solvable restoration must solve via CG");
        assert!(!cg.colgen.fell_back, "restoration pricing must converge");
        assert_eq!(cg.restoration.restored_gbps, exact.restored_gbps);
        assert_eq!(cg.restoration.affected_gbps, exact.affected_gbps);
        restored += 1;
    }
    assert!(
        compared >= 6,
        "only {compared} feasible comparisons — fixtures too tight"
    );
    assert!(restored >= 6, "only {restored} restoration comparisons");
}

/// The dual-priced FlexWAN+ spare pool spends exactly the uniform
/// budget and, through the A/B guard, never restores less than the
/// uniform ⌈saved/2⌉ rule on the conduit-cut suite.
#[test]
fn dual_priced_spares_never_worse_than_uniform() {
    use flexwan::core::planning::{plan, PlannerConfig};
    use flexwan::core::restore::{choose_spare_pool, flexwan_plus_extra_spares};
    use flexwan::solver::SolveOptions;

    let mut rng = ChaCha8Rng::seed_from_u64(0xC602);
    let mut checked = 0usize;
    for _case in 0..8 {
        let (g, ip) = random_instance(&mut rng);
        if ip.num_links() == 0 {
            continue;
        }
        let cfg = PlannerConfig {
            grid: SpectrumGrid::new(rng.gen_range(24u32..48)),
            k_paths: 2,
            ..PlannerConfig::default()
        };
        let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
        if !p.is_feasible() {
            continue;
        }
        let uniform = flexwan_plus_extra_spares(&g, &ip, &cfg);
        let choice = choose_spare_pool(&p, &g, &ip, &cfg, &SolveOptions::default());
        assert_eq!(
            choice.dual.iter().sum::<u32>(),
            uniform.iter().sum::<u32>(),
            "dual pool must spend exactly the uniform budget"
        );
        let chosen_expected = if choice.chose_dual {
            choice.dual_expected_gbps
        } else {
            choice.uniform_expected_gbps
        };
        assert!(
            chosen_expected >= choice.uniform_expected_gbps,
            "chosen pool must never restore less than uniform"
        );
        checked += 1;
    }
    assert!(checked >= 4, "only {checked} feasible instances");
}

fn random_scale_params(rng: &mut ChaCha8Rng) -> flexwan::topo::continental::ScaleParams {
    flexwan::topo::continental::ScaleParams {
        regions: rng.gen_range(2usize..=4),
        metros_per_region: rng.gen_range(2usize..=4),
        ip_links: 0,
        users_millions: 0.4 + 0.3 * rng.gen_range(0u32..4) as f64,
        gbps_per_million: 1000.0,
        seed: rng.gen_range(1u64..1_000),
        metro_fiber_pairs: 2,
        hub_fiber_pairs: rng.gen_range(1usize..=3),
        cross_metro_links: rng.gen_range(0usize..=3),
        secondary_egress: rng.gen_bool(0.5),
        node_order_seed: 0,
    }
}

/// The region partition is an exact cover: every optical node and fiber
/// lands in exactly one region bucket (or the hub core, for fibers),
/// every IP link is owned by exactly one region or is a boundary demand,
/// and each region subgraph is connected over its own fibers alone.
#[test]
fn partition_is_an_exact_cover() {
    use flexwan::core::planning::partition;
    use flexwan::topo::continental::continental;
    let mut rng = ChaCha8Rng::seed_from_u64(0xA00C);
    for _case in 0..24 {
        let p = random_scale_params(&mut rng);
        let c = continental(&p);
        let part = partition(&c.backbone.optical, &c.backbone.ip, &c.region_of, &c.hubs);
        part.validate(&c.backbone.optical, &c.backbone.ip)
            .expect("partition invariants");
        // Exact element-wise cover, not just matching cardinalities.
        let mut nodes = HashSet::new();
        for bucket in &part.region_nodes {
            for &n in bucket {
                assert!(nodes.insert(n), "node {n:?} in two region buckets");
            }
        }
        assert_eq!(nodes.len(), c.backbone.optical.num_nodes());
        let mut fibers = HashSet::new();
        for bucket in part.region_fibers.iter().chain([&part.core_fibers]) {
            for &f in bucket {
                assert!(fibers.insert(f), "fiber {f:?} in two buckets");
            }
        }
        assert_eq!(fibers.len(), c.backbone.optical.num_edges());
        let mut links = HashSet::new();
        for bucket in &part.owned_links {
            for &l in bucket {
                assert!(links.insert(l), "link {l:?} owned twice");
            }
        }
        for b in &part.boundary {
            assert!(links.insert(b.link), "link {:?} owned and boundary", b.link);
        }
        assert_eq!(links.len(), c.backbone.ip.num_links());
    }
}

/// A sharded solve is bit-identical at 1, 2, and 4 worker threads, and
/// the partition it is built on describes the same named topology when
/// the generator materializes nodes in a shuffled order.
#[test]
fn sharded_solve_is_thread_and_insertion_order_invariant() {
    use flexwan::core::planning::{partition, solve_sharded, PlannerConfig, ShardConfig};
    use flexwan::topo::cache::RouteCache;
    use flexwan::topo::continental::continental;
    let mut rng = ChaCha8Rng::seed_from_u64(0xA00D);
    for _case in 0..8 {
        let p = random_scale_params(&mut rng);
        let c = continental(&p);
        let cfg = PlannerConfig {
            k_paths: 2,
            grid: SpectrumGrid::new(rng.gen_range(12u32..32)),
            ..PlannerConfig::default()
        };
        let solves: Vec<_> = [1usize, 2, 4]
            .iter()
            .map(|&threads| {
                let shard = ShardConfig {
                    threads,
                    ..ShardConfig::default()
                };
                solve_sharded(
                    Scheme::FlexWan,
                    &c.backbone.optical,
                    &c.backbone.ip,
                    &cfg,
                    &c.region_of,
                    &c.hubs,
                    &shard,
                    &RouteCache::new(),
                )
            })
            .collect();
        for s in &solves[1..] {
            assert_eq!(s.objective.to_bits(), solves[0].objective.to_bits());
            assert_eq!(s.boundary_target, solves[0].boundary_target);
            assert_eq!(s.unmet_gbps, solves[0].unmet_gbps);
            assert_eq!(s.transponder_count(), solves[0].transponder_count());
        }

        // Same instance with shuffled node materialization: node ids
        // differ, but fibers and demands are emitted in canonical order,
        // so the partition must classify the same named elements the
        // same way.
        let shuffled = continental(&flexwan::topo::continental::ScaleParams {
            node_order_seed: rng.gen_range(1u64..1_000),
            ..p.clone()
        });
        let name_region = |c: &flexwan::topo::continental::Continental, r: usize| -> Vec<String> {
            let part = partition(&c.backbone.optical, &c.backbone.ip, &c.region_of, &c.hubs);
            let mut names: Vec<String> = part.region_nodes[r]
                .iter()
                .map(|&n| c.backbone.optical.nodes()[n.0 as usize].name.clone())
                .collect();
            names.sort();
            names
        };
        let part_a = partition(&c.backbone.optical, &c.backbone.ip, &c.region_of, &c.hubs);
        let part_b = partition(
            &shuffled.backbone.optical,
            &shuffled.backbone.ip,
            &shuffled.region_of,
            &shuffled.hubs,
        );
        assert_eq!(part_a.regions, part_b.regions);
        for r in 0..part_a.regions {
            assert_eq!(name_region(&c, r), name_region(&shuffled, r));
            // Fibers are emitted canonically, so ids line up directly.
            assert_eq!(part_a.region_fibers[r], part_b.region_fibers[r]);
            assert_eq!(part_a.owned_links[r], part_b.owned_links[r]);
        }
        assert_eq!(part_a.core_fibers, part_b.core_fibers);
        let key = |part: &flexwan::core::planning::Partition| -> Vec<(u32, usize, usize, u64)> {
            part.boundary
                .iter()
                .map(|b| (b.link.0, b.src_region, b.dst_region, b.gbps))
                .collect()
        };
        assert_eq!(key(&part_a), key(&part_b));
    }
}

/// One adversarial churn event on `g` / `ip`: fiber and link ids past the
/// graph's, zero-Gbps resizes, and ±∞ / NaN drift samples mixed in with
/// well-formed events.
fn adversarial_event(
    rng: &mut ChaCha8Rng,
    g: &Graph,
    ip: &flexwan::topo::ip::IpTopology,
) -> flexwan::ctrl::ChurnEvent {
    use flexwan::ctrl::ChurnEvent;
    use flexwan::topo::graph::EdgeId;
    use flexwan::topo::ip::IpLinkId;

    let fibers = g.num_edges() as u32;
    let fiber = |rng: &mut ChaCha8Rng| EdgeId(rng.gen_range(0..fibers + 3));
    match rng.gen_range(0..5u32) {
        0 => ChurnEvent::FiberCut(fiber(rng)),
        1 => ChurnEvent::FiberRepair(fiber(rng)),
        2 => {
            let n = rng.gen_range(0..4usize);
            ChurnEvent::SimultaneousCuts((0..n).map(|_| fiber(rng)).collect())
        }
        3 => ChurnEvent::DemandDelta {
            link: IpLinkId(rng.gen_range(0..ip.num_links() as u32 + 2)),
            demand_gbps: 100 * rng.gen_range(0..4u64),
        },
        _ => {
            let deltas = [
                -25.0,
                -0.5,
                0.4,
                25.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
            ];
            ChurnEvent::TelemetryDrift {
                fiber: fiber(rng),
                delta_db: deltas[rng.gen_range(0..deltas.len())],
            }
        }
    }
}

/// Three sites, three 600 km fibers, one 300 Gbps link a–b: every cut
/// has a detour.
fn triangle() -> (
    Graph,
    flexwan::topo::ip::IpTopology,
    flexwan::core::planning::PlannerConfig,
) {
    let mut g = Graph::new();
    let a = g.add_node("a");
    let b = g.add_node("b");
    let c = g.add_node("c");
    g.add_edge(a, b, 600);
    g.add_edge(a, c, 600);
    g.add_edge(c, b, 600);
    let mut ip = flexwan::topo::ip::IpTopology::new();
    ip.add_link(a, b, 300);
    let cfg = flexwan::core::planning::PlannerConfig {
        grid: SpectrumGrid::new(64),
        k_paths: 2,
        ..Default::default()
    };
    (g, ip, cfg)
}

/// A churn service fed an adversarial stream — unknown fiber and link
/// ids, ±∞ and NaN drift, duplicate, stale, skipped and not-yet-logged
/// sequence numbers — never panics, believes only fibers the graph has
/// cut, holds every accumulated drift finite or at a loss of light (−∞),
/// and replaying its journal over the log reproduces its state.
#[test]
fn adversarial_churn_streams_replay_what_they_ran() {
    use flexwan::ctrl::{ChurnService, EventLog, SeqEvent, ServiceConfig};

    let (g, ip, cfg) = triangle();
    let svc_cfg = ServiceConfig::default();
    let mut rng = ChaCha8Rng::seed_from_u64(0xA00E);
    let (mut duplicates, mut gap_fills) = (0, 0);
    for case in 0..8 {
        let mut live =
            ChurnService::new(&g, &ip, Scheme::FlexWan, cfg.clone(), svc_cfg.clone()).unwrap();
        let mut log = EventLog::new();
        for _batch in 0..rng.gen_range(1..6usize) {
            for _ in 0..rng.gen_range(0..5usize) {
                log.append(adversarial_event(&mut rng, &g, &ip));
            }
            // The doorbell: a sample of the log with gaps and duplicates,
            // sometimes a stale sequence number or one not logged yet.
            let mut batch: Vec<SeqEvent> = Vec::new();
            for seq in 0..log.len() {
                let event = log.get(seq).unwrap().clone();
                for _ in 0..rng.gen_range(0..3u32) {
                    batch.push(SeqEvent {
                        seq,
                        event: event.clone(),
                    });
                }
            }
            if rng.gen_bool(0.2) {
                let event = adversarial_event(&mut rng, &g, &ip);
                let seq = log.len() + rng.gen_range(0..3u64);
                batch.push(SeqEvent { seq, event });
            }
            rng.shuffle(&mut batch);
            live.deliver(&log, &batch);
            let state = live.state();
            let fibers = g.num_edges() as u32;
            assert!(
                state.active_cuts.iter().all(|&f| f < fibers),
                "case {case}: {state:?}"
            );
            assert!(
                state
                    .drift_db
                    .iter()
                    .all(|&(_, d)| d.is_finite() || d == f64::NEG_INFINITY),
                "case {case}: {state:?}"
            );
        }
        live.flush(&log);
        duplicates += live.stats().duplicates_ignored;
        gap_fills += live.stats().gap_fills;
        let replayed = ChurnService::replay(
            &g,
            &ip,
            Scheme::FlexWan,
            cfg.clone(),
            svc_cfg.clone(),
            &log,
            live.journal(),
        )
        .unwrap();
        assert_eq!(live.state(), replayed.state(), "case {case}");
    }
    assert!(duplicates > 0 && gap_fills > 0, "{duplicates} {gap_fills}");
}

/// The telemetry loop (`TelemetryStore` → `FiberCutDetector` →
/// `Orchestrator::tick`) fed adversarial samples — fiber ids the graph
/// lacks, NaN and ±∞ power, duplicates and stale re-deliveries shuffled
/// into each tick — never panics, and after every tick the
/// orchestrator's cut set is what the samples say. The reading here is
/// written from the detector's contract, not its code: per fiber the
/// graph has, a reading is kept when it is a measurement (not NaN, not
/// +∞) newer than the fiber's newest kept one, and the fiber is cut when
/// its newest reading is below −40 dBm or 20 dB or more below the one
/// before it.
#[test]
fn adversarial_telemetry_cuts_only_what_the_samples_say() {
    use std::collections::{BTreeSet, HashMap};

    use flexwan::core::planning::plan;
    use flexwan::ctrl::datastream::TelemetrySample;
    use flexwan::ctrl::{Controller, Orchestrator, TelemetryStore};
    use flexwan::optical::WssKind;
    use flexwan::topo::graph::EdgeId;

    const HEALTHY: f64 = -3.0;
    // Healthy (weighted), a 22 dB drop above the −40 dBm floor, the noise
    // floor, a loss of light, and two non-measurements.
    let powers = [
        HEALTHY,
        HEALTHY,
        HEALTHY,
        -25.0,
        -60.0,
        f64::NEG_INFINITY,
        f64::NAN,
        f64::INFINITY,
    ];
    let measured = |p: f64| !p.is_nan() && p != f64::INFINITY;
    let (g, ip, cfg) = triangle();
    let fibers = g.num_edges() as u32;
    let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
    let mut rng = ChaCha8Rng::seed_from_u64(0xA00F);
    let (mut inf_then_healthy, mut nan_then_drop, mut ghost_cuts) = (0, 0, 0);
    for case in 0..48 {
        let mut ctrl = Controller::build(&g, WssKind::PixelWise, cfg.grid);
        assert!(ctrl.apply_plan(&p, &g).is_clean());
        let mut orch = Orchestrator::new(&g, &ip, p.clone(), cfg.clone(), Vec::new());
        let mut store = TelemetryStore::new(rng.gen_range(2..6usize));
        // Per fiber id: the readings kept, and each tick's fresh sample.
        let mut kept: HashMap<u32, Vec<(u64, f64)>> = HashMap::new();
        let mut fresh: HashMap<u32, Vec<Option<f64>>> = HashMap::new();
        for tick in 0..12u64 {
            let mut batch = Vec::new();
            for fiber in 0..fibers + 3 {
                let history = fresh.entry(fiber).or_default();
                if rng.gen_bool(0.15) {
                    history.push(None);
                    continue;
                }
                let power = powers[rng.gen_range(0..powers.len())];
                history.push(Some(power));
                let sample = TelemetrySample {
                    fiber: EdgeId(fiber),
                    tick,
                    rx_power_dbm: power,
                };
                batch.push(sample);
                if rng.gen_bool(0.3) {
                    batch.push(sample);
                }
                if tick > 0 && rng.gen_bool(0.3) {
                    batch.push(TelemetrySample {
                        tick: tick - rng.gen_range(1..=tick.min(3)),
                        rx_power_dbm: powers[rng.gen_range(0..powers.len())],
                        ..sample
                    });
                }
                match history.as_slice() {
                    _ if fiber >= fibers => ghost_cuts += usize::from(power < -40.0),
                    [.., Some(inf), Some(HEALTHY)] if *inf == f64::INFINITY => {
                        inf_then_healthy += 1
                    }
                    [.., Some(HEALTHY), Some(nan), Some(drop)]
                        if nan.is_nan() && *drop == -25.0 =>
                    {
                        nan_then_drop += 1
                    }
                    _ => {}
                }
            }
            rng.shuffle(&mut batch);
            for s in &batch {
                store.ingest(*s);
                let readings = kept.entry(s.fiber.0).or_default();
                if measured(s.rx_power_dbm) && readings.last().is_none_or(|&(t, _)| s.tick > t) {
                    readings.push((s.tick, s.rx_power_dbm));
                }
            }
            orch.tick(&store, &mut ctrl);
            let cut: BTreeSet<EdgeId> = kept
                .iter()
                .filter(|&(&f, readings)| {
                    f < fibers
                        && match readings.as_slice() {
                            [.., (_, before), (_, now)] => *now < -40.0 || before - now >= 20.0,
                            [(_, now)] => *now < -40.0,
                            [] => false,
                        }
                })
                .map(|(&f, _)| EdgeId(f))
                .collect();
            assert_eq!(
                orch.active_cuts(),
                &cut,
                "case {case} tick {tick}: fresh samples {fresh:?}"
            );
        }
    }
    assert!(
        inf_then_healthy > 0 && nan_then_drop > 0 && ghost_cuts > 0,
        "{inf_then_healthy} {nan_then_drop} {ghost_cuts}"
    );
}
