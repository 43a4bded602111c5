//! Ablation (DESIGN.md §5.1): the ε of the objective `Σλ + ε·Σλ·Y` trades
//! transponder count (direct cost) against spectrum usage (indirect cost).

use flexwan_bench::instances::{default_config, tbackbone_instance};
use flexwan_bench::table;
use flexwan_core::planning::{plan, PlannerConfig};
use flexwan_core::Scheme;

fn main() {
    table::banner(
        "Ablation: epsilon",
        "FlexWAN at scale 1 as ε sweeps the direct/indirect cost balance.",
    );
    let b = tbackbone_instance();
    let rows: Vec<Vec<String>> = [0.0, 1e-4, 1e-3, 1e-2, 0.1, 1.0]
        .iter()
        .map(|&epsilon| {
            let cfg = PlannerConfig {
                epsilon,
                ..default_config()
            };
            let p = plan(Scheme::FlexWan, &b.optical, &b.ip, &cfg);
            vec![
                format!("{epsilon}"),
                p.transponder_count().to_string(),
                format!("{:.0}", p.spectrum_usage_ghz()),
                if p.is_feasible() {
                    "yes".into()
                } else {
                    "no".into()
                },
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(
            &["epsilon", "transponders", "spectrum GHz", "feasible"],
            &rows
        )
    );
    // The finding is read off the rows: the first ε whose optimum
    // (transponders, GHz) differs from the ε = 0 one, if any.
    let optimum = |row: &[String]| (row[1].clone(), row[2].clone());
    let base = optimum(&rows[0]);
    match rows.iter().find(|row| optimum(row) != base) {
        Some(row) => println!(
            "finding: ε = {} is the first ε that moves the optimum: {} -> {} transponders, {} -> {} GHz.",
            row[0], base.0, row[1], base.1, row[2]
        ),
        None => println!(
            "finding: no ε in the sweep moves the optimum off {} transponders / {} GHz.",
            base.0, base.1
        ),
    }
}
