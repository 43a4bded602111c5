//! Capacity expansion study: how far each backbone architecture stretches
//! on the evaluation T-backbone as demand grows — a miniature of the §7
//! evaluation (Figure 12) driven through the public API.
//!
//! ```text
//! cargo run --release --example capacity_expansion
//! ```

use flexwan::core::planning::{PlanCtx, PlannerConfig};
use flexwan::core::Scheme;
use flexwan::topo::continental::ScaleParams;
use flexwan::topo::tbackbone::t_backbone;

fn main() {
    let backbone = t_backbone(&ScaleParams::tbackbone());
    let cfg = PlannerConfig {
        k_paths: 5,
        ..PlannerConfig::default()
    };
    println!(
        "T-backbone: {} sites, {} fibers, {} IP links, {:.1} Tbps total demand\n",
        backbone.optical.num_nodes(),
        backbone.optical.num_edges(),
        backbone.ip.num_links(),
        backbone.ip.total_demand_gbps() as f64 / 1000.0
    );

    println!(
        "{:<10} {:>6} {:>14} {:>16} {:>10}",
        "scheme", "scale", "transponders", "spectrum (GHz)", "feasible"
    );
    let ctx = PlanCtx::new(&backbone.optical, &cfg);
    for scheme in Scheme::ALL {
        for scale in [1u64, 3, 5] {
            let p = ctx.plan(scheme, &backbone.ip.scaled(scale));
            println!(
                "{:<10} {:>5}x {:>14} {:>16.0} {:>10}",
                scheme.name(),
                scale,
                p.transponder_count(),
                p.spectrum_usage_ghz(),
                p.is_feasible()
            );
        }
        let max = ctx.max_feasible_scale(scheme, &backbone.ip, 12);
        println!(
            "{:<10} supports up to {max}x the present-day demand\n",
            scheme.name()
        );
    }
}
