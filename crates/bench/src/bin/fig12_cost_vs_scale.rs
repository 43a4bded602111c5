//! Figure 12: (a) transponder count and (b) spectrum usage vs bandwidth
//! capacity scale, for 100G-WAN, RADWAN and FlexWAN — plus the §7
//! headline savings and maximum supported scales.

use flexwan_bench::experiments::{cost_vs_scale, headline};
use flexwan_bench::instances::{default_config, tbackbone_instance};
use flexwan_bench::table;
use flexwan_util::pool;

fn main() {
    table::banner(
        "Figure 12",
        "Transponders & spectrum vs capacity scale ('-' = demand not fully met).",
    );
    let b = tbackbone_instance();
    let cfg = default_config();
    // Thread-count-invariant: the deterministic pool makes this table
    // byte-identical whatever FLEXWAN_THREADS says.
    let rows: Vec<Vec<String>> = cost_vs_scale(&b, &cfg, 10, pool::default_threads())
        .into_iter()
        .map(|(s, costs)| {
            let mut row = vec![format!("{s}x")];
            for c in &costs {
                row.push(if c.feasible {
                    c.transponders.to_string()
                } else {
                    "-".into()
                });
            }
            for c in &costs {
                row.push(if c.feasible {
                    format!("{:.0}", c.spectrum_ghz)
                } else {
                    "-".into()
                });
            }
            row
        })
        .collect();
    println!(
        "{}",
        table::render(
            &[
                "scale",
                "100G tr",
                "RADWAN tr",
                "FlexWAN tr",
                "100G GHz",
                "RADWAN GHz",
                "FlexWAN GHz"
            ],
            &rows
        )
    );
    let h = headline(&b, &cfg, 14);
    println!(
        "FlexWAN saves {:.0}% / {:.0}% transponders vs 100G-WAN / RADWAN (paper: 85% / 57%)",
        h.transponder_saving_pct[0], h.transponder_saving_pct[1]
    );
    println!(
        "FlexWAN saves {:.0}% / {:.0}% spectrum     vs 100G-WAN / RADWAN (paper: 67% / 36%)",
        h.spectrum_saving_pct[0], h.spectrum_saving_pct[1]
    );
    println!(
        "max supported scales: 100G-WAN {}x, RADWAN {}x, FlexWAN {}x (paper: 3x / 5x / 8x)",
        h.max_scale[0], h.max_scale[1], h.max_scale[2]
    );
}
