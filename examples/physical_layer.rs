//! The physical layer end to end: engineer a line, sweep launch power to
//! its GN-model optimum, measure a transponder format's reach the way the
//! paper's testbed does (§6), and audit a plan's SNR margins.
//!
//! ```text
//! cargo run --release --example physical_layer
//! ```

use flexwan::core::planning::{plan, PlannerConfig};
use flexwan::core::Scheme;
use flexwan::optical::format::FecOverhead;
use flexwan::optical::spectrum::PixelWidth;
use flexwan::physim::link::LinkDesign;
use flexwan::physim::nonlinear::{optimize_launch, snr_db_at_launch, DEFAULT_ETA_PER_MW2};
use flexwan::physim::testbed::{LineConfig, Testbed};
use flexwan::topo::continental::ScaleParams;
use flexwan::topo::tbackbone::t_backbone;
use flexwan::validate::validate_plan;

fn main() {
    // 1. Engineer an 800 km line: ten 80 km spans, one EDFA each.
    let link = LinkDesign::for_length(800.0);
    println!(
        "800 km line: {} spans, {:.0} dB total loss (compensated)",
        link.num_amplifiers(),
        link.total_loss_db()
    );

    // 2. Launch-power dome: the GN-model optimum.
    println!("\nSNR vs per-channel launch power (GN model):");
    for dbm in [-6.0, -4.0, -2.0, 0.0, 2.0, 4.0] {
        println!(
            "  {dbm:>5.1} dBm → {:>5.2} dB",
            snr_db_at_launch(&link, dbm, DEFAULT_ETA_PER_MW2)
        );
    }
    let opt = optimize_launch(&link, DEFAULT_ETA_PER_MW2).unwrap();
    println!("  optimum: {:.2} dBm", opt.launch_dbm);

    // 3. The §6 measurement: push a 400 G / 100 GHz configuration out in
    //    distance until the post-FEC BER goes positive.
    let tb = Testbed::default();
    let cfg400 = LineConfig {
        data_rate_gbps: 400,
        spacing: PixelWidth::from_ghz(100.0).unwrap(),
        fec: FecOverhead::HIGH,
    };
    println!("\n400 Gbps @ 100 GHz reach sweep:");
    for km in [400.0, 800.0, 1000.0, 1200.0, 1600.0] {
        let ber = tb.post_fec_ber(&cfg400, km);
        println!(
            "  {km:>6.0} km → post-FEC BER {}",
            if ber == 0.0 {
                "0 (error-free)".into()
            } else {
                format!("{ber:.1e}")
            }
        );
    }
    println!(
        "  measured max reach: {} km (paper Table 2: 1500 km)",
        tb.max_reach_km(&cfg400)
    );

    // 4. Cross-layer audit of a full plan.
    let b = t_backbone(&ScaleParams::tbackbone());
    let p = plan(
        Scheme::FlexWan,
        &b.optical,
        &b.ip,
        &PlannerConfig {
            k_paths: 5,
            ..Default::default()
        },
    );
    let report = validate_plan(&p, &tb);
    println!(
        "\nFlexWAN plan audit: {} wavelengths, {:.0}% with non-negative SNR margin, mean margin {:+.1} dB",
        report.margins.len(),
        100.0 * report.healthy_fraction(),
        report.mean_margin_db()
    );
}
