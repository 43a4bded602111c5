//! Continental sweep (extension): the smallest full continental
//! instance — 6 regions × 7 metros from the multi-region generator —
//! planned end to end by the region-sharded solver (DESIGN.md §13):
//! hub core first, frozen, region subproblems fanned out on the
//! deterministic pool over one shared route cache, boundary demands
//! coordinated to their end-to-end minimum.
//!
//! The run is self-checking: the sharded plan is re-solved at 1, 2 and
//! 4 pool threads and must be bit-identical, and the shrunk 2-region
//! parity instance is cross-validated bitwise against the monolithic
//! exact MIP. The rendered report (instance shape + shard counters —
//! no wall-clock, so it is byte-deterministic) is written to
//! `results/fig_continental.txt`, which CI diffs verbatim.

use flexwan_bench::instances::{continental_instance, parity_instance};
use flexwan_bench::table;
use flexwan_core::planning::{
    canonical_objective, solve_exact, solve_sharded, PlannerConfig, ShardConfig, ShardSolver,
};
use flexwan_core::Scheme;
use flexwan_optical::spectrum::SpectrumGrid;
use flexwan_solver::SolveOptions;
use flexwan_topo::cache::RouteCache;

fn main() {
    table::banner(
        "Continental sweep (extension)",
        "Region-sharded planning at continental scale; frozen hub core + coordinated boundaries.",
    );

    let cont = continental_instance();
    let cfg = PlannerConfig {
        k_paths: 3,
        ..PlannerConfig::default()
    };
    let cache = RouteCache::new();
    let sharded = solve_sharded(
        Scheme::FlexWan,
        &cont.backbone.optical,
        &cont.backbone.ip,
        &cfg,
        &cont.region_of,
        &cont.hubs,
        &ShardConfig::default(),
        &cache,
    );
    assert!(sharded.stats.converged, "coordination must converge");

    // Self-check 1: bit-identical at 1, 2 and 4 pool threads.
    for threads in [1usize, 2, 4] {
        let again = solve_sharded(
            Scheme::FlexWan,
            &cont.backbone.optical,
            &cont.backbone.ip,
            &cfg,
            &cont.region_of,
            &cont.hubs,
            &ShardConfig {
                threads,
                ..ShardConfig::default()
            },
            &RouteCache::new(),
        );
        assert_eq!(
            again.objective.to_bits(),
            sharded.objective.to_bits(),
            "objective changed at {threads} pool threads"
        );
        assert_eq!(again.boundary_target, sharded.boundary_target);
        assert_eq!(again.transponder_count(), sharded.transponder_count());
    }

    // Self-check 2: on the shrunk 2-region parity instance the sharded
    // exact solve must match the monolithic exact MIP bit for bit.
    let par = parity_instance();
    let par_cfg = PlannerConfig {
        k_paths: 2,
        grid: SpectrumGrid::new(8),
        ..PlannerConfig::default()
    };
    let opts = SolveOptions {
        max_nodes: 200_000,
        ..SolveOptions::default()
    };
    let mono = solve_exact(
        Scheme::FlexWan,
        &par.backbone.optical,
        &par.backbone.ip,
        &par_cfg,
        &opts,
    )
    .expect("monolithic exact solve on the parity instance");
    let par_sharded = solve_sharded(
        Scheme::FlexWan,
        &par.backbone.optical,
        &par.backbone.ip,
        &par_cfg,
        &par.region_of,
        &par.hubs,
        &ShardConfig {
            solver: ShardSolver::Exact,
            solve: opts,
            ..ShardConfig::default()
        },
        &RouteCache::new(),
    );
    let mono_bits = canonical_objective(&mono.wavelengths, par_cfg.epsilon).to_bits();
    assert_eq!(
        par_sharded.objective.to_bits(),
        mono_bits,
        "sharded parity solve must match the monolithic exact MIP bitwise"
    );

    let total_demand: u64 = cont.backbone.ip.links().iter().map(|l| l.demand_gbps).sum();
    let shape = vec![
        vec![
            "regions x metros".to_string(),
            format!(
                "{} x {}",
                sharded.stats.regions,
                cont.backbone.optical.num_nodes() / sharded.stats.regions
            ),
        ],
        vec![
            "optical nodes / fibers".to_string(),
            format!(
                "{} / {}",
                cont.backbone.optical.num_nodes(),
                cont.backbone.optical.num_edges()
            ),
        ],
        vec![
            "IP links / total demand (Gbps)".to_string(),
            format!("{} / {}", cont.backbone.ip.num_links(), total_demand),
        ],
    ];
    let counters = vec![
        vec![
            "boundary demands".to_string(),
            sharded.stats.boundary_demands.to_string(),
        ],
        vec![
            "coordination rounds".to_string(),
            sharded.stats.coordination_rounds.to_string(),
        ],
        vec![
            "region solves".to_string(),
            sharded.stats.region_solves.to_string(),
        ],
        vec!["converged".to_string(), sharded.stats.converged.to_string()],
        vec![
            "transponders".to_string(),
            sharded.transponder_count().to_string(),
        ],
        vec!["unmet (Gbps)".to_string(), sharded.unmet_gbps.to_string()],
        vec![
            "repriced (Gbps)".to_string(),
            sharded.repriced_gbps.to_string(),
        ],
        vec!["objective".to_string(), format!("{:.4}", sharded.objective)],
        vec![
            "shared route-cache entries".to_string(),
            cache.len().to_string(),
        ],
    ];
    let mut rendered = String::new();
    rendered.push_str(&table::render(&["instance", ""], &shape));
    rendered.push('\n');
    rendered.push_str(&table::render(&["sharded solve", ""], &counters));
    rendered.push('\n');
    rendered.push_str(&format!(
        "parity: sharded exact == monolithic exact on the 2-region instance \
         (objective {:.4}, bitwise)\n",
        par_sharded.objective
    ));
    rendered.push_str(
        "thread-invariant at 1/2/4 pool workers (objective bits, boundary targets, transponders)\n",
    );

    print!("{rendered}");

    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/fig_continental.txt", &rendered).expect("write results file");
}
