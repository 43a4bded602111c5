//! Figure 15: (a) distribution of restored-vs-original path lengths and
//! (b) mean restoration capability vs capacity scale, per scheme.

use flexwan_bench::experiments::{restoration_report, restoration_vs_scale};
use flexwan_bench::instances::{default_config, tbackbone_instance};
use flexwan_bench::table;
use flexwan_core::planning::PlanCtx;
use flexwan_core::Scheme;
use flexwan_util::pool;

fn main() {
    table::banner(
        "Figure 15",
        "(a) restored path stretch; (b) mean restoration capability vs scale.",
    );
    let b = tbackbone_instance();
    let cfg = default_config();
    let threads = pool::default_threads();

    let ctx = PlanCtx::new(&b.optical, &cfg);
    let rep = restoration_report(&ctx, &b.ip, Scheme::FlexWan, 1, false, threads);
    println!(
        "(a) restored paths longer than original: {:.0}%  (paper: ≈90%)",
        100.0 * rep.fraction_longer()
    );
    println!(
        "    max restored/original length ratio: {:.1}x  (paper: >10x extremes)",
        rep.max_length_ratio()
    );
    println!();

    let rows: Vec<Vec<String>> = restoration_vs_scale(&b, &cfg, &[1, 2, 3, 4, 5], threads)
        .into_iter()
        .map(|(s, caps)| {
            vec![
                format!("{s}x"),
                format!("{:.3}", caps[0]),
                format!("{:.3}", caps[1]),
                format!("{:.3}", caps[2]),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(&["scale", "100G-WAN", "RADWAN", "FlexWAN"], &rows)
    );
    println!("paper: all schemes ≈1.0 when underloaded; in the overloaded network");
    println!("       (5x) FlexWAN revives ≈15% more capacity than RADWAN.");
}
