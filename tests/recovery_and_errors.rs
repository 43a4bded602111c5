//! Cross-cutting robustness checks: every fallible subsystem's error type
//! composes behind `Box<dyn Error>`, and zero-touch misconnection
//! recovery behaves per §9 across the WSS generations.

use std::error::Error;

use flexwan::core::planning::{ConfigError, PlannerConfig};
use flexwan::ctrl::model::DeviceId;
use flexwan::ctrl::{recover_misconnection, RecoveryOutcome, SessionError, TxError};
use flexwan::io::LoadError;
use flexwan::optical::spectrum::{PixelRange, PixelWidth};
use flexwan::optical::{OpticalError, WssKind};

// ---- Error-trait composition ----

fn all_errors() -> Vec<Box<dyn Error>> {
    vec![
        Box::new(SessionError::Rejected("slot busy".into())),
        Box::new(SessionError::Unreachable),
        Box::new(TxError {
            failed_device: DeviceId(4),
            cause: "simulated".into(),
            rolled_back: 2,
            rollback_failures: Vec::new(),
        }),
        Box::new(OpticalError::SpectrumConflict {
            range: PixelRange::new(3, PixelWidth::new(6)),
        }),
        Box::new(LoadError::Invalid("no nodes".into())),
        Box::new(
            PlannerConfig {
                k_paths: 0,
                ..PlannerConfig::default()
            }
            .validate()
            .unwrap_err(),
        ),
    ]
}

#[test]
fn every_subsystem_error_composes_behind_dyn_error() {
    for e in all_errors() {
        let msg = e.to_string();
        assert!(!msg.is_empty(), "Display must say something");
        // Debug comes with the Error supertrait bundle.
        assert!(!format!("{e:?}").is_empty());
    }
}

#[test]
fn dyn_errors_downcast_to_their_concrete_types() {
    let errs = all_errors();
    assert!(errs[0].downcast_ref::<SessionError>().is_some());
    assert!(errs[2].downcast_ref::<TxError>().is_some());
    assert!(errs[3].downcast_ref::<OpticalError>().is_some());
    assert!(errs[4].downcast_ref::<LoadError>().is_some());
    assert!(errs[5].downcast_ref::<ConfigError>().is_some());
    assert!(
        errs[0].downcast_ref::<TxError>().is_none(),
        "downcast is type-exact"
    );
}

#[test]
fn load_error_chains_its_json_source() {
    let bad = flexwan::io::TopologyFile::from_json("{ not json").unwrap_err();
    let e: Box<dyn Error> = Box::new(bad);
    assert!(matches!(
        e.downcast_ref::<LoadError>(),
        Some(LoadError::Json(_))
    ));
    assert!(
        e.source().is_some(),
        "the JSON cause is reachable via source()"
    );
    // Semantic errors have no upstream cause.
    let invalid: Box<dyn Error> = Box::new(LoadError::Invalid("empty".into()));
    assert!(invalid.source().is_none());
}

/// Operator input the planner cannot use is a normal CLI error, not a
/// panic: `--k 0` used to reach the planner's assertion, `--scale 0`
/// the demand scaler's, and a scale past `u64` wrapped every demand.
#[test]
fn cli_rejects_an_unusable_planner_config_without_panicking() {
    for bad in [
        ["--k", "0"],
        ["--epsilon", "-1"],
        ["--epsilon", "nan"],
        ["--scale", "0"],
        ["--scale", "18446744073709551615"],
    ] {
        for cmd in ["plan", "restore"] {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_flexwan"))
                .args([cmd, "--builtin", "tbackbone"])
                .args(bad)
                .output()
                .expect("flexwan binary runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{cmd} {bad:?}: {stderr}");
            assert!(stderr.starts_with("error: "), "{cmd} {bad:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{cmd} {bad:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{cmd} {bad:?} printed a plan");
        }
    }
}

#[test]
fn tx_error_display_names_device_and_rollback() {
    let e = TxError {
        failed_device: DeviceId(7),
        cause: "passband overlap".into(),
        rolled_back: 3,
        rollback_failures: Vec::new(),
    };
    let msg = e.to_string();
    assert!(msg.contains("passband overlap"));
    assert!(msg.contains('3'));
}

// ---- Misconnection recovery across WSS generations (§9) ----

#[test]
fn pixel_wise_recovery_matrix_is_all_zero_touch() {
    for port in [0u16, 1, 13, 63] {
        for (start, width) in [(0u32, 4u16), (7, 6), (30, 8), (361, 9)] {
            let out = recover_misconnection(
                None,
                WssKind::PixelWise,
                port,
                PixelRange::new(start, PixelWidth::new(width)),
            );
            assert_eq!(
                out,
                RecoveryOutcome::ZeroTouch {
                    reconfigured_port: port
                }
            );
        }
    }
}

#[test]
fn fixed_grid_recovery_matrix_matches_the_factory_ladder() {
    // On an AWG-style MUX, port p is factory-bound to the slot starting at
    // pixel p·spacing and exactly spacing wide; everything else is a
    // truck roll.
    for spacing in [4u16, 6, 8] {
        let wss = WssKind::FixedGrid {
            spacing: PixelWidth::new(spacing),
        };
        for port in 0u16..6 {
            for slot in 0u16..6 {
                for width in [spacing, spacing - 1] {
                    let channel = PixelRange::new(
                        u32::from(slot) * u32::from(spacing),
                        PixelWidth::new(width),
                    );
                    let out = recover_misconnection(None, wss, port, channel);
                    let lucky = slot == port && width == spacing;
                    match out {
                        RecoveryOutcome::ZeroTouch { reconfigured_port } => {
                            assert!(lucky, "spacing {spacing} port {port} slot {slot} width {width} must not be recoverable");
                            assert_eq!(reconfigured_port, port);
                        }
                        RecoveryOutcome::ManualIntervention { reason } => {
                            assert!(!lucky, "lucky case needs no truck roll");
                            assert!(reason.contains("re-cabling"), "{reason}");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn off_grid_channel_is_never_recoverable_on_fixed_grid() {
    let wss = WssKind::FixedGrid {
        spacing: PixelWidth::new(6),
    };
    // Starts that are not multiples of the spacing can match no port.
    for start in [1u32, 5, 7, 13] {
        for port in 0u16..8 {
            let out =
                recover_misconnection(None, wss, port, PixelRange::new(start, PixelWidth::new(6)));
            assert!(matches!(out, RecoveryOutcome::ManualIntervention { .. }));
        }
    }
}

/// `--cut SRC-DST` splits at whichever `-` leaves two node names, so a
/// node named `SFO-1` can be cut; a spec that reads two ways, or none,
/// is an operator error that names what it could not resolve.
#[test]
fn cli_cut_spec_resolves_hyphenated_node_names() {
    let topo = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("hyphenated_nodes.json");
    std::fs::write(
        &topo,
        r#"{
  "nodes": ["SFO-1", "SJC", "LAX", "A", "A-B", "B-C", "C"],
  "fibers": [
    {"a": "SFO-1", "b": "SJC", "km": 80},
    {"a": "SJC", "b": "LAX", "km": 550},
    {"a": "SFO-1", "b": "LAX", "km": 600},
    {"a": "A", "b": "B-C", "km": 100},
    {"a": "A-B", "b": "C", "km": 100}
  ],
  "links": [{"src": "SFO-1", "dst": "LAX", "gbps": 400}]
}"#,
    )
    .unwrap();
    let restore = |cut: &str| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_flexwan"))
            .args(["restore", "--topology"])
            .arg(&topo)
            .args(["--cut", cut])
            .output()
            .expect("flexwan binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(!stderr.contains("panicked"), "{cut}: {stderr}");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
            stderr,
        )
    };

    let (code, stdout, stderr) = restore("SFO-1-LAX");
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("affected 400 Gbps"), "{stdout}");

    let (code, stdout, stderr) = restore("A-B-C");
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert!(stderr.contains("ambiguous"), "{stderr}");
    assert!(
        stderr.contains("A / B-C") && stderr.contains("A-B / C"),
        "{stderr}"
    );

    let (code, stdout, stderr) = restore("SFO-DEN");
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert!(stderr.contains("SFO-DEN"), "{stderr}");
}
