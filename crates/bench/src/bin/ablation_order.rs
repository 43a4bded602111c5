//! Ablation (DESIGN.md §5.3): the order links are assigned spectrum.
//! Most-constrained-first protects long links whose formats are scarce.

use flexwan_bench::instances::{default_config, tbackbone_instance};
use flexwan_bench::table;
use flexwan_core::planning::{plan, LinkOrder, PlannerConfig, SpectrumState};
use flexwan_core::Scheme;

fn main() {
    table::banner(
        "Ablation: link order",
        "FlexWAN at 5x demand under different spectrum-assignment orders.",
    );
    let b = tbackbone_instance();
    let ip5 = b.ip.scaled(5);
    let orders: Vec<(&str, LinkOrder)> = vec![
        ("most-constrained-first", LinkOrder::MostConstrainedFirst),
        ("shortest-first", LinkOrder::ShortestFirst),
        ("input order", LinkOrder::InputOrder),
        ("random (seed 1)", LinkOrder::Random(1)),
        ("random (seed 2)", LinkOrder::Random(2)),
    ];
    let rows: Vec<Vec<String>> = orders
        .into_iter()
        .map(|(name, order)| {
            let cfg = PlannerConfig {
                order,
                ..default_config()
            };
            let p = plan(Scheme::FlexWan, &b.optical, &ip5, &cfg);
            let mut spectrum = SpectrumState::new(cfg.grid, b.optical.num_edges());
            for w in &p.wavelengths {
                spectrum
                    .occupy_exact(&w.path, &w.channel)
                    .expect("planned wavelengths are conflict-free");
            }
            vec![
                name.to_string(),
                p.transponder_count().to_string(),
                p.unmet_gbps().to_string(),
                format!("{:.2}", spectrum.peak_utilization()),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(&["order", "transponders", "unmet Gbps", "peak util"], &rows)
    );
}
