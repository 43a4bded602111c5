//! Ablation (DESIGN.md §5.4): WSS placement granularity. FlexWAN's value
//! rests on the 12.5 GHz pixel; coarser placement approaches a fixed grid.

use flexwan_bench::instances::{default_config, tbackbone_instance};
use flexwan_bench::table;
use flexwan_core::planning::{PlanCtx, PlannerConfig};
use flexwan_core::Scheme;

fn main() {
    table::banner(
        "Ablation: placement granularity",
        "FlexWAN with coarser channel-start alignment (pixels of 12.5 GHz).",
    );
    let b = tbackbone_instance();
    let cache = flexwan_topo::cache::RouteCache::new(); // routes depend on K only
    let rows: Vec<Vec<String>> = [1u32, 2, 4, 6]
        .iter()
        .map(|&align| {
            let cfg = PlannerConfig {
                min_alignment: align,
                ..default_config()
            };
            let ctx = PlanCtx::new(&b.optical, &cfg).sharing(&cache);
            let p = ctx.plan(Scheme::FlexWan, &b.ip);
            let maxs = ctx.max_feasible_scale(Scheme::FlexWan, &b.ip, 12);
            vec![
                format!("{} GHz", f64::from(align) * 12.5),
                p.transponder_count().to_string(),
                p.unmet_gbps().to_string(),
                format!("{maxs}x"),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(
            &["alignment", "transponders", "unmet Gbps", "max scale"],
            &rows
        )
    );
    println!("expected: coarser alignment fragments the spectrum and lowers the");
    println!("supportable scale — the value of the pixel-wise WSS.");
}
