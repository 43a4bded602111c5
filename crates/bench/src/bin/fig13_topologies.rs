//! Figure 13: (a) capacity-weighted optical path length distribution on
//! the T-backbone and CERNET topologies; (b) FlexWAN's reduced costs and
//! improved spectral efficiency on both.

use flexwan_bench::experiments::{capacity_weighted_lengths, gap_and_sse, headline};
use flexwan_bench::instances::{cernet_instance, default_config, tbackbone_instance};
use flexwan_bench::table;
use flexwan_core::planning::mean;
use flexwan_core::Scheme;
use flexwan_topo::continental::{Family, ScaleParams};

fn main() {
    table::banner(
        "Figure 13",
        "Two topologies: path-length distribution and FlexWAN's gains on each.",
    );
    let cfg = default_config();
    let nsfnet = ScaleParams {
        ip_links: 80,
        ..ScaleParams::nsfnet()
    }
    .build(Family::Nsfnet);
    for (name, b) in [
        ("T-backbone", tbackbone_instance()),
        ("Cernet", cernet_instance()),
        ("NSFNET (extension)", nsfnet),
    ] {
        let mut weighted = capacity_weighted_lengths(&b);
        weighted.sort_by_key(|&(len, _)| len);
        let total: u64 = weighted.iter().map(|&(_, w)| w).sum();
        let mut acc = 0u64;
        let mut median = 0;
        for &(len, w) in &weighted {
            acc += w;
            if acc * 2 >= total {
                median = len;
                break;
            }
        }
        let h = headline(&b, &cfg, 1);
        let sse = |scheme| mean(&gap_and_sse(&b, &cfg, scheme).1);
        let flex_sse = sse(Scheme::FlexWan);
        let rows = vec![
            vec![
                "capacity-weighted median path (km)".to_string(),
                median.to_string(),
            ],
            vec![
                "transponders saved vs 100G-WAN / RADWAN (%)".to_string(),
                format!(
                    "{:.0} / {:.0}",
                    h.transponder_saving_pct[0], h.transponder_saving_pct[1]
                ),
            ],
            vec![
                "spectrum saved vs 100G-WAN / RADWAN (%)".to_string(),
                format!(
                    "{:.0} / {:.0}",
                    h.spectrum_saving_pct[0], h.spectrum_saving_pct[1]
                ),
            ],
            vec![
                "spectral efficiency gain vs 100G-WAN / RADWAN (%)".to_string(),
                format!(
                    "{:.0} / {:.0}",
                    100.0 * (flex_sse / sse(Scheme::FixedGrid100G) - 1.0),
                    100.0 * (flex_sse / sse(Scheme::Radwan) - 1.0)
                ),
            ],
        ];
        println!("--- {name} ---");
        println!("{}", table::render(&["metric", "value"], &rows));
    }
    println!("paper: gains consistent on both topologies; larger on the");
    println!("shorter-path T-backbone; SE gain up to 215% vs 100G-WAN.");
}
