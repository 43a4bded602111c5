//! Ablation (DESIGN.md §5.5): FlexWAN+ spare fraction — how much of the
//! transponder saving to reinvest as restoration spares — plus the
//! uniform-vs-dual-priced placement A/B at the full budget
//! (`flexwan_core::restore::spares`); the `uniform` row is the paper's
//! baseline.

use flexwan_bench::instances::{default_config, tbackbone_instance};
use flexwan_bench::table;
use flexwan_core::planning::PlanCtx;
use flexwan_core::restore::{
    choose_spare_pool, conduit_cut_scenarios, flexwan_plus_extra_spares, restore_report,
};
use flexwan_core::Scheme;
use flexwan_solver::SolveOptions;
use flexwan_topo::cache::RouteCache;
use flexwan_util::pool;

fn main() {
    table::banner(
        "Ablation: FlexWAN+ spare fraction",
        "Mean restoration capability at 5x as the spare pool scales.",
    );
    let b = tbackbone_instance();
    let cfg = default_config();
    let ip5 = b.ip.scaled(5);
    // Detour routes depend only on the cut set, not on the spare pool, so
    // the first fraction row warms the cache for the remaining three.
    let cache = RouteCache::new();
    let ctx = PlanCtx::new(&b.optical, &cfg).sharing(&cache);
    let threads = pool::default_threads();
    let p = ctx.plan(Scheme::FlexWan, &ip5);
    let full = flexwan_plus_extra_spares(&b.optical, &ip5, &cfg);
    let scenarios = conduit_cut_scenarios(&b.optical);
    let rows: Vec<Vec<String>> = [0.0, 0.5, 1.0, 2.0]
        .iter()
        .map(|&frac| {
            let spares: Vec<u32> = full
                .iter()
                .map(|&s| (f64::from(s) * frac).round() as u32)
                .collect();
            let restored =
                pool::par_map(&scenarios, threads, |s| ctx.restore(&p, &ip5, s, &spares));
            let results: Vec<_> = scenarios
                .iter()
                .map(|s| s.probability)
                .zip(restored)
                .collect();
            let rep = restore_report(&results);
            let extra: u32 = spares.iter().sum();
            vec![
                format!("{:.1}x half-saving", frac),
                extra.to_string(),
                format!("{:.3}", rep.mean_capability()),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(
            &["spare pool", "extra transponders", "mean capability"],
            &rows
        )
    );

    // A/B at the full budget: the paper's uniform spread vs the pool
    // priced by restore_count duals from the CG restorer. Same total
    // transponder count; the chosen pool is never worse by construction.
    let choice = choose_spare_pool(&p, &b.optical, &ip5, &cfg, &SolveOptions::default());
    let eval = |spares: &[u32]| -> f64 {
        let restored = pool::par_map(&scenarios, threads, |s| ctx.restore(&p, &ip5, s, spares));
        let results: Vec<_> = scenarios
            .iter()
            .map(|s| s.probability)
            .zip(restored)
            .collect();
        restore_report(&results).mean_capability()
    };
    let ab = vec![
        vec![
            "uniform".to_string(),
            choice.uniform.iter().sum::<u32>().to_string(),
            format!("{:.1}", choice.uniform_expected_gbps),
            format!("{:.3}", eval(&choice.uniform)),
        ],
        vec![
            "dual-priced".to_string(),
            choice.dual.iter().sum::<u32>().to_string(),
            format!("{:.1}", choice.dual_expected_gbps),
            format!("{:.3}", eval(&choice.dual)),
        ],
    ];
    println!(
        "{}",
        table::render(
            &[
                "placement",
                "extra transponders",
                "expected restored Gbps",
                "mean capability"
            ],
            &ab
        )
    );
    println!(
        "chosen: {} (dual {} uniform)",
        if choice.chose_dual {
            "dual-priced"
        } else {
            "uniform"
        },
        if choice.chose_dual { ">" } else { "<=" },
    );
}
