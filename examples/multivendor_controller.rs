//! Multi-vendor control plane: the centralized controller pushes one plan
//! to simulated devices from three vendors — each speaking its own
//! configuration dialect — then audits end-to-end channel consistency and
//! runs the §9 zero-touch misconnection recovery.
//!
//! ```text
//! cargo run --example multivendor_controller
//! ```

use flexwan::core::planning::{plan, PlannerConfig};
use flexwan::core::Scheme;
use flexwan::ctrl::config::StandardConfig;
use flexwan::ctrl::controller::Controller;
use flexwan::ctrl::model::Vendor;
use flexwan::ctrl::recovery::{recover_misconnection, RecoveryOutcome};
use flexwan::ctrl::vendor;
use flexwan::optical::spectrum::{PixelRange, PixelWidth};
use flexwan::optical::WssKind;
use flexwan::topo::graph::Graph;
use flexwan::topo::ip::IpTopology;

fn main() {
    // A three-site backbone; the controller assigns one vendor per site.
    let mut optical = Graph::new();
    let x = optical.add_node("X");
    let y = optical.add_node("Y");
    let z = optical.add_node("Z");
    optical.add_edge(x, y, 150);
    optical.add_edge(y, z, 200);
    optical.add_edge(x, z, 500);

    let mut ip = IpTopology::new();
    ip.add_link(x, z, 600);
    ip.add_link(x, y, 400);

    let cfg = PlannerConfig::default();
    let p = plan(Scheme::FlexWan, &optical, &ip, &cfg);
    println!("planned {} wavelengths", p.transponder_count());

    // One dialect, three renderings: the same standard document encoded
    // for each vendor.
    let sample = StandardConfig::MuxPort {
        port: 0,
        passband: Some(PixelRange::new(4, PixelWidth::new(6))),
    };
    println!("\nthe same passband in each vendor's native dialect:");
    for v in Vendor::ALL {
        println!("  {v:?}: {}", vendor::encode(v, &sample));
    }

    // Build the device plane (spawns device threads) and push the plan.
    let mut ctrl = Controller::build(&optical, WssKind::PixelWise, cfg.grid);
    let report = ctrl.apply_plan(&p, &optical);
    println!(
        "\napplied plan: {} transponder configs, {} MUX ports, {} ROADM expresses, {} rejections",
        report.transponders_configured,
        report.mux_ports_configured,
        report.expresses_configured,
        report.rejections.len()
    );

    // Audit: read back device state and verify channel consistency.
    let findings = ctrl.audit_plan();
    if findings.is_empty() {
        println!("audit: zero channel inconsistency / conflict (§4.3)");
    } else {
        for f in findings {
            println!("audit finding: {f}");
        }
    }

    // §9: a transponder wired to the wrong MUX filter port.
    println!("\nmisconnection drill (wavelength at pixels 9..15, wired to port 4):");
    let channel = PixelRange::new(9, PixelWidth::new(6));
    for (label, wss) in [
        (
            "legacy fixed-grid OLS",
            WssKind::FixedGrid {
                spacing: PixelWidth::new(6),
            },
        ),
        ("spectrum-sliced OLS", WssKind::PixelWise),
    ] {
        match recover_misconnection(None, wss, 4, channel) {
            RecoveryOutcome::ZeroTouch { reconfigured_port } => {
                println!("  {label}: zero-touch — port {reconfigured_port} retuned in software")
            }
            RecoveryOutcome::ManualIntervention { reason } => {
                println!("  {label}: manual intervention — {reason}")
            }
        }
    }
}
