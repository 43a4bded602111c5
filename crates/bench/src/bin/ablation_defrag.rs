//! Ablation (extension): hitless spectrum defragmentation. When a new
//! wavelength finds no contiguous spectrum, the controller may retune up
//! to N existing wavelengths (make-before-break) to make room — possible
//! only because FlexWAN's passbands and spacings are software-defined.

use flexwan_bench::instances::{default_config, tbackbone_instance};
use flexwan_bench::table;
use flexwan_core::planning::{PlanCtx, PlannerConfig};
use flexwan_core::Scheme;

fn main() {
    table::banner(
        "Ablation: spectrum defragmentation",
        "FlexWAN max supported scale as the per-wavelength retune budget grows.",
    );
    let b = tbackbone_instance();
    let cache = flexwan_topo::cache::RouteCache::new(); // routes depend on K only
                                                        // Fragmentation arises under adversarial *arrival order* (incremental
                                                        // operation), not under batch most-constrained-first planning — so the
                                                        // ablation runs the planner in shortest-first order, the order that
                                                        // strands long links behind fragmented spectrum.
    let rows: Vec<Vec<String>> = [0usize, 1, 2, 4]
        .iter()
        .map(|&moves| {
            let cfg = PlannerConfig {
                defrag_moves: moves,
                order: flexwan_core::planning::LinkOrder::ShortestFirst,
                ..default_config()
            };
            let ctx = PlanCtx::new(&b.optical, &cfg).sharing(&cache);
            let p5 = ctx.plan(Scheme::FlexWan, &b.ip.scaled(5));
            let p6 = ctx.plan(Scheme::FlexWan, &b.ip.scaled(6));
            let maxs = ctx.max_feasible_scale(Scheme::FlexWan, &b.ip, 12);
            vec![
                moves.to_string(),
                p5.unmet_gbps().to_string(),
                p6.unmet_gbps().to_string(),
                format!("{maxs}x"),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(
            &[
                "retune budget",
                "unmet @5x (Gbps)",
                "unmet @6x (Gbps)",
                "max scale"
            ],
            &rows
        )
    );
    println!("defragmentation converts stranded free pixels into usable capacity;");
    println!("the fixed-grid baselines cannot defragment at all (rigid passbands).");
}
