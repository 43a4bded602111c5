//! Figure 16: restoration capability distribution in the underloaded (1×)
//! and overloaded (5×) backbone, including FlexWAN+ (half the saved
//! transponders kept as spares).

use flexwan_bench::experiments::restoration_report;
use flexwan_bench::instances::{default_config, tbackbone_instance};
use flexwan_bench::table;
use flexwan_core::planning::{cdf, PlanCtx};
use flexwan_core::Scheme;
use flexwan_topo::cache::RouteCache;

fn main() {
    table::banner(
        "Figure 16",
        "Restoration-capability CDF quantiles per scheme, underloaded & overloaded.",
    );
    let b = tbackbone_instance();
    let cfg = default_config();
    let cache = RouteCache::new();
    let ctx = PlanCtx::new(&b.optical, &cfg).sharing(&cache);
    for scale in [1u64, 5] {
        println!("--- scale {scale}x ---");
        let mut rows = Vec::new();
        for (name, scheme, plus) in [
            ("100G-WAN", Scheme::FixedGrid100G, false),
            ("RADWAN", Scheme::Radwan, false),
            ("FlexWAN", Scheme::FlexWan, false),
            ("FlexWAN+", Scheme::FlexWan, true),
        ] {
            let rep = restoration_report(&ctx, &b.ip, scheme, scale, plus, 1);
            let c = cdf(&rep.capabilities);
            let q = |q: f64| {
                let idx = ((c.len() as f64 * q).ceil() as usize).clamp(1, c.len()) - 1;
                format!("{:.3}", c[idx].0)
            };
            rows.push(vec![
                name.to_string(),
                q(0.1),
                q(0.5),
                q(0.9),
                format!("{:.3}", rep.mean_capability()),
            ]);
        }
        println!(
            "{}",
            table::render(&["scheme", "p10", "p50", "p90", "mean"], &rows)
        );
    }
    println!("paper: FlexWAN+ beats RADWAN even underloaded; operators balance");
    println!("       saved transponders against restoration performance.");
}
