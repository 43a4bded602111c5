//! §4.3 / Figure 5: spectrum issues under per-vendor (uncoordinated)
//! control vs FlexWAN's centralized controller, plus the §9 zero-touch
//! misconnection recovery and OLS-evolution comparisons.

use flexwan_bench::experiments::controller_issue_counts;
use flexwan_bench::instances::{default_config, tbackbone_instance};
use flexwan_bench::table;
use flexwan_ctrl::recovery::{evolution_replacements, recover_misconnection, RecoveryOutcome};
use flexwan_optical::spectrum::{PixelRange, PixelWidth};
use flexwan_optical::WssKind;

fn main() {
    table::banner(
        "Controller issues (§4.3, Figure 5)",
        "Channel conflicts & inconsistencies: per-vendor controllers vs centralized.",
    );
    let counts = controller_issue_counts(&tbackbone_instance(), &default_config());
    let rows = vec![
        vec![
            "uncoordinated (per-vendor)".to_string(),
            counts.uncoordinated.0.to_string(),
            counts.uncoordinated.1.to_string(),
        ],
        vec![
            "centralized (FlexWAN)".to_string(),
            counts.centralized.0.to_string(),
            counts.centralized.1.to_string(),
        ],
    ];
    println!(
        "{}",
        table::render(&["control plane", "conflicts", "inconsistencies"], &rows)
    );
    println!(
        "wavelengths compared: {}  (paper: *zero* issues under centralized control)",
        counts.wavelengths
    );
    println!();

    // §9 zero-touch misconnection recovery.
    let channel = PixelRange::new(9, PixelWidth::new(6));
    let fixed = recover_misconnection(
        None,
        WssKind::FixedGrid {
            spacing: PixelWidth::new(6),
        },
        4,
        channel,
    );
    let sliced = recover_misconnection(None, WssKind::PixelWise, 4, channel);
    println!("misconnection drill (transponder wired to the wrong MUX port):");
    println!(
        "  legacy fixed-grid OLS : {}",
        match fixed {
            RecoveryOutcome::ZeroTouch { .. } => "zero-touch".to_string(),
            RecoveryOutcome::ManualIntervention { .. } => "manual on-site intervention".to_string(),
        }
    );
    println!(
        "  spectrum-sliced OLS   : {}",
        match sliced {
            RecoveryOutcome::ZeroTouch { reconfigured_port } =>
                format!("zero-touch (port {reconfigured_port} retuned)"),
            RecoveryOutcome::ManualIntervention { .. } => "manual".to_string(),
        }
    );
    println!();

    // §9 smooth evolution: 50 GHz fleet → 75 GHz wavelengths.
    let n = 120;
    println!("evolving {n} OLS devices to 75 GHz-class wavelengths:");
    println!(
        "  fixed 50 GHz grid OLS : {} replacements",
        evolution_replacements(
            WssKind::FixedGrid {
                spacing: PixelWidth::new(4)
            },
            PixelWidth::new(6),
            n
        )
    );
    println!(
        "  spectrum-sliced OLS   : {} replacements",
        evolution_replacements(WssKind::PixelWise, PixelWidth::new(6), n)
    );
}
