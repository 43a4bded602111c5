//! Ablation (extension): incremental growth vs clairvoyant re-planning.
//! Growing 1x → 2x → 3x one step at a time, never touching live
//! wavelengths, costs some optimality versus planning 3x from scratch —
//! but moves zero channels (§9's smooth-evolution requirement).

use flexwan_bench::instances::{default_config, tbackbone_instance};
use flexwan_bench::table;
use flexwan_core::planning::PlanCtx;
use flexwan_core::Scheme;

fn main() {
    table::banner(
        "Ablation: incremental growth",
        "FlexWAN grown 1x→2x→3x incrementally vs re-planned from scratch.",
    );
    let b = tbackbone_instance();
    let cfg = default_config();

    let ctx = PlanCtx::new(&b.optical, &cfg);
    let p1 = ctx.plan(Scheme::FlexWan, &b.ip);
    let p2 = ctx.plan_incremental(&p1, &b.ip.scaled(2));
    let p3 = ctx.plan_incremental(&p2, &b.ip.scaled(3));
    let fresh3 = ctx.plan(Scheme::FlexWan, &b.ip.scaled(3));

    let rows = vec![
        vec![
            "incremental 1x→2x→3x".to_string(),
            p3.transponder_count().to_string(),
            format!("{:.0}", p3.spectrum_usage_ghz()),
            p3.unmet_gbps().to_string(),
            "0 (by construction)".to_string(),
        ],
        vec![
            "fresh plan at 3x".to_string(),
            fresh3.transponder_count().to_string(),
            format!("{:.0}", fresh3.spectrum_usage_ghz()),
            fresh3.unmet_gbps().to_string(),
            "n/a (greenfield)".to_string(),
        ],
    ];
    println!(
        "{}",
        table::render(
            &[
                "strategy",
                "transponders",
                "spectrum GHz",
                "unmet Gbps",
                "wavelengths moved"
            ],
            &rows
        )
    );
    let overhead =
        100.0 * (p3.transponder_count() as f64 / fresh3.transponder_count() as f64 - 1.0);
    println!("incremental overhead: {overhead:+.1}% transponders for zero traffic impact.");
}
