//! PR 4 acceptance: the deterministic pool and the route cache change
//! wall-clock time, never bytes. The sweep outputs (`SchemeCost` and
//! `Restoration` vectors) must be identical at 1, 2 and 4 threads, and a
//! cached cut-fiber query must never be served an uncut route.

use std::collections::HashSet;

use flexwan_bench::experiments::{cost_vs_scale, restoration_report, restoration_results};
use flexwan_bench::instances::{default_config, tbackbone_instance};
use flexwan_core::planning::PlanCtx;
use flexwan_core::restore::conduit_cut_scenarios;
use flexwan_core::Scheme;
use flexwan_topo::cache::RouteCache;

#[test]
fn cost_vs_scale_is_bit_identical_across_thread_counts() {
    let b = tbackbone_instance();
    let cfg = default_config();
    let serial = cost_vs_scale(&b, &cfg, 4, 1);
    for threads in [1, 2, 4] {
        let par = cost_vs_scale(&b, &cfg, 4, threads);
        assert_eq!(
            serial, par,
            "SchemeCost ladder diverged at {threads} threads"
        );
    }
}

#[test]
fn restoration_sweep_is_bit_identical_across_thread_counts() {
    let b = tbackbone_instance();
    let cfg = default_config();
    let fresh = PlanCtx::new(&b.optical, &cfg);
    let serial = restoration_results(&fresh, &b.ip, Scheme::FlexWan, 2, false, 1);
    assert!(
        !serial.is_empty(),
        "conduit-cut scenario set must not be empty"
    );
    for threads in [1, 2, 4] {
        let par = restoration_results(&fresh, &b.ip, Scheme::FlexWan, 2, false, threads);
        assert_eq!(
            serial, par,
            "Restoration vector diverged at {threads} threads"
        );
    }
    // The aggregated report built from a shared warm cache agrees too.
    let cache = RouteCache::new();
    let shared = fresh.sharing(&cache);
    let warm = restoration_report(&shared, &b.ip, Scheme::FlexWan, 2, false, 2);
    let rewarmed = restoration_report(&shared, &b.ip, Scheme::FlexWan, 2, false, 4);
    assert_eq!(
        restoration_report(&fresh, &b.ip, Scheme::FlexWan, 2, false, 1),
        warm
    );
    assert_eq!(warm, rewarmed, "a warm cache must not change the report");
}

#[test]
fn cached_cut_queries_never_see_uncut_routes() {
    let b = tbackbone_instance();
    let cfg = default_config();
    let cache = RouteCache::new();
    let none = HashSet::new();
    let scenarios = conduit_cut_scenarios(&b.optical);
    for link in b.ip.links().iter().take(6) {
        // Warm the cache with the uncut routes first — the poisoning
        // hazard is a later cut query being served this entry.
        let uncut = cache.routes(&b.optical, link.src, link.dst, cfg.k_paths, &none);
        for scenario in scenarios.iter().take(8) {
            let banned = scenario.banned();
            let cut = cache.routes(&b.optical, link.src, link.dst, cfg.k_paths, &banned);
            for route in cut.iter() {
                for hop in &route.hops {
                    assert!(
                        hop.iter().all(|e| !banned.contains(e)),
                        "cut query for {:?}->{:?} returned a route using a cut fiber",
                        link.src,
                        link.dst
                    );
                }
            }
            let uses_cut_fiber = uncut.iter().any(|r| {
                r.hops
                    .iter()
                    .any(|hop| hop.iter().any(|e| banned.contains(e)))
            });
            if uses_cut_fiber {
                assert_ne!(
                    *uncut, *cut,
                    "distinct banned sets must be distinct cache entries"
                );
            }
        }
    }
    // Repeating an earlier query hits the cache and shares the entry.
    let misses_before = cache.misses();
    let link = &b.ip.links()[0];
    let again = cache.routes(&b.optical, link.src, link.dst, cfg.k_paths, &none);
    assert_eq!(
        cache.misses(),
        misses_before,
        "repeat query must not recompute"
    );
    assert!(cache.hits() > 0, "repeated queries should hit the cache");
    assert!(!again.is_empty());
}
