//! Sharded-vs-monolithic cross-validation (DESIGN.md §13).
//!
//! The shrunk parity instances are built so no candidate path crosses a
//! shard line (intra-region spans are tens of km while the only
//! inter-region fibers are the hub mesh ~900 km away, and node-distinct
//! paths cannot leave a region without revisiting its hub). The exact
//! MIP is then block-diagonal across shards, so the sharded optimum must
//! equal the monolithic optimum — and both sides' objectives are
//! recomputed through `canonical_objective`, making the comparison
//! bitwise.

use flexwan::core::planning::{
    canonical_objective, plan, solve_exact, solve_sharded, PlannerConfig, ShardConfig, ShardSolver,
};
use flexwan::core::Scheme;
use flexwan::optical::spectrum::SpectrumGrid;
use flexwan::solver::SolveOptions;
use flexwan::topo::cache::RouteCache;
use flexwan::topo::continental::{continental, Continental, ScaleParams};

fn parity_cfg() -> PlannerConfig {
    PlannerConfig {
        k_paths: 2,
        grid: SpectrumGrid::new(16),
        ..Default::default()
    }
}

/// The exact tests run on an 8-pixel grid: branch-and-bound cost grows
/// steeply with spectrum positions, and 8 pixels keeps the monolithic
/// solve under a second even in debug builds.
fn exact_cfg() -> PlannerConfig {
    PlannerConfig {
        k_paths: 2,
        grid: SpectrumGrid::new(8),
        ..Default::default()
    }
}

fn opts() -> SolveOptions {
    SolveOptions {
        max_nodes: 200_000,
        ..Default::default()
    }
}

fn parity2() -> Continental {
    continental(&ScaleParams::parity())
}

#[test]
fn sharded_exact_matches_monolithic_exact_bitwise() {
    let c = parity2();
    let cfg = exact_cfg();
    let mono = solve_exact(
        Scheme::FlexWan,
        &c.backbone.optical,
        &c.backbone.ip,
        &cfg,
        &opts(),
    )
    .expect("monolithic exact solve feasible on the parity instance");
    let shard = ShardConfig {
        solver: ShardSolver::Exact,
        threads: 2,
        solve: opts(),
    };
    let sharded = solve_sharded(
        Scheme::FlexWan,
        &c.backbone.optical,
        &c.backbone.ip,
        &cfg,
        &c.region_of,
        &c.hubs,
        &shard,
        &RouteCache::new(),
    );
    assert!(
        !sharded.core.fell_back,
        "core exact solve must not fall back"
    );
    assert!(sharded.regions.iter().all(|r| !r.fell_back));
    assert_eq!(sharded.unmet_gbps, 0);
    assert_eq!(
        sharded.repriced_gbps, 0,
        "parity instance needs no re-pricing"
    );
    let mono_obj = canonical_objective(&mono.wavelengths, cfg.epsilon);
    assert_eq!(
        sharded.objective.to_bits(),
        mono_obj.to_bits(),
        "sharded {} vs monolithic {}",
        sharded.objective,
        mono_obj
    );
    assert_eq!(sharded.transponder_count(), mono.wavelengths.len());
}

#[test]
fn sharded_heuristic_matches_monolithic_heuristic_bitwise() {
    // The heuristic decomposes the same way: shards share no fibers, the
    // within-shard link order is the monolithic order restricted to the
    // shard, and first-fit spectrum on disjoint fiber sets cannot
    // interact. Three regions to also exercise the hub-core aggregation
    // over several pairs.
    let c = continental(&ScaleParams::shrunk(3));
    let cfg = parity_cfg();
    let mono = plan(Scheme::FlexWan, &c.backbone.optical, &c.backbone.ip, &cfg);
    let sharded = solve_sharded(
        Scheme::FlexWan,
        &c.backbone.optical,
        &c.backbone.ip,
        &cfg,
        &c.region_of,
        &c.hubs,
        &ShardConfig::default(),
        &RouteCache::new(),
    );
    let mono_obj = canonical_objective(&mono.wavelengths, cfg.epsilon);
    assert_eq!(
        sharded.objective.to_bits(),
        mono_obj.to_bits(),
        "sharded {} vs monolithic {}",
        sharded.objective,
        mono_obj
    );
    assert_eq!(sharded.transponder_count(), mono.wavelengths.len());
    assert_eq!(sharded.unmet_gbps, mono.unmet_gbps());
}

#[test]
fn continental_sharded_solve_converges() {
    let c = continental(&ScaleParams::continental());
    let cfg = PlannerConfig {
        k_paths: 3,
        ..Default::default()
    };
    let cache = RouteCache::new();
    let sharded = solve_sharded(
        Scheme::FlexWan,
        &c.backbone.optical,
        &c.backbone.ip,
        &cfg,
        &c.region_of,
        &c.hubs,
        &ShardConfig::default(),
        &cache,
    );
    assert!(sharded.stats.converged);
    assert_eq!(sharded.stats.regions, 6);
    assert!(sharded.stats.boundary_demands > 0);
    assert!(sharded.transponder_count() > 0);
    assert!(
        !cache.is_empty(),
        "region solves must go through the shared cache"
    );
}

#[test]
fn coordination_reprices_when_a_tail_cannot_carry_the_core_grant() {
    // A deliberately tail-starved configuration: a rich hub core (four
    // fiber pairs) grants direct cross-metro demands their full request,
    // but each metro hangs off a single-fiber spoke that its folded
    // intra-region demand (planned first — same route length, larger
    // demand) nearly fills. The tail then under-realizes its grant, so
    // coordination must shrink the boundary target and re-solve the
    // affected regions.
    let p = ScaleParams {
        metro_fiber_pairs: 1,
        hub_fiber_pairs: 4,
        cross_metro_links: 6,
        users_millions: 3.0,
        ..ScaleParams::shrunk(2)
    };
    let c = continental(&p);
    let cfg = PlannerConfig {
        k_paths: 4,
        grid: SpectrumGrid::new(12),
        ..Default::default()
    };
    let sharded = solve_sharded(
        Scheme::FlexWan,
        &c.backbone.optical,
        &c.backbone.ip,
        &cfg,
        &c.region_of,
        &c.hubs,
        &ShardConfig::default(),
        &RouteCache::new(),
    );
    assert!(
        sharded.stats.coordination_rounds >= 1,
        "expected at least one re-pricing round, stats: {:?}",
        sharded.stats
    );
    assert!(sharded.repriced_gbps > 0);
    // Targets stay consistent: never above the request.
    let part = flexwan::core::planning::partition(
        &c.backbone.optical,
        &c.backbone.ip,
        &c.region_of,
        &c.hubs,
    );
    for (b, &t) in part.boundary.iter().zip(&sharded.boundary_target) {
        assert!(t <= b.gbps);
    }
}
