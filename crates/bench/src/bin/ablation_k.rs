//! Ablation (DESIGN.md §5.2): the K of K-shortest-routes — how many
//! candidate routes per IP link the planner may split demand across.

use flexwan_bench::instances::{default_config, tbackbone_instance};
use flexwan_bench::table;
use flexwan_core::planning::{PlanCtx, PlannerConfig};
use flexwan_core::Scheme;

fn main() {
    table::banner(
        "Ablation: K candidate routes",
        "FlexWAN cost at scale 1 and max supported scale as K grows.",
    );
    let b = tbackbone_instance();
    let cache = flexwan_topo::cache::RouteCache::new(); // routes depend on K only
    let rows: Vec<Vec<String>> = [1usize, 2, 3, 5, 8]
        .iter()
        .map(|&k| {
            let cfg = PlannerConfig {
                k_paths: k,
                ..default_config()
            };
            let ctx = PlanCtx::new(&b.optical, &cfg).sharing(&cache);
            let p = ctx.plan(Scheme::FlexWan, &b.ip);
            let maxs = ctx.max_feasible_scale(Scheme::FlexWan, &b.ip, 12);
            vec![
                k.to_string(),
                p.transponder_count().to_string(),
                p.unmet_gbps().to_string(),
                format!("{maxs}x"),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(&["K", "transponders", "unmet Gbps", "max scale"], &rows)
    );
    println!("expected: more candidate routes raise the supportable scale, with");
    println!("diminishing returns once route diversity is exhausted.");
}
