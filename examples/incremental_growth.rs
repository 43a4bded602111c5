//! Incremental growth: add demands to a live network without touching a
//! single running wavelength — and, when fragmentation bites, with a
//! bounded budget of hitless retunes (§9's smooth evolution, as an
//! operator would actually run it).
//!
//! ```text
//! cargo run --example incremental_growth
//! ```

use flexwan::core::planning::{PlanCtx, PlannerConfig};
use flexwan::core::Scheme;
use flexwan::topo::graph::Graph;
use flexwan::topo::ip::IpTopology;

fn main() {
    let mut optical = Graph::new();
    let fra = optical.add_node("FRA");
    let ams = optical.add_node("AMS");
    let par = optical.add_node("PAR");
    optical.add_edge(fra, ams, 450);
    optical.add_edge(ams, par, 500);
    optical.add_edge(fra, par, 600);

    // Year 1: two links.
    let mut ip = IpTopology::new();
    ip.add_link(fra, ams, 800);
    ip.add_link(ams, par, 400);
    let cfg = PlannerConfig::default();
    let ctx = PlanCtx::new(&optical, &cfg);
    let year1 = ctx.plan(Scheme::FlexWan, &ip);
    println!(
        "year 1: {} wavelengths, {:.0} GHz",
        year1.transponder_count(),
        year1.spectrum_usage_ghz()
    );

    // Year 2: demands double and FRA–PAR appears. Incremental planning
    // provisions only the deficit.
    let mut ip2 = ip.scaled(2);
    ip2.add_link(fra, par, 600);
    let year2 = ctx.plan_incremental(&year1, &ip2);
    println!(
        "year 2: {} wavelengths (+{} new), {:.0} GHz, feasible: {}",
        year2.transponder_count(),
        year2.transponder_count() - year1.transponder_count(),
        year2.spectrum_usage_ghz(),
        year2.is_feasible()
    );
    // Every year-1 wavelength is untouched — zero traffic impact.
    let untouched = year1
        .wavelengths
        .iter()
        .zip(&year2.wavelengths)
        .all(|(a, b)| a == b);
    println!("year-1 wavelengths untouched: {untouched}");

    println!("\nnew wavelengths lit in year 2:");
    for w in &year2.wavelengths[year1.wavelengths.len()..] {
        println!("  {w}");
    }
}
