//! Zero-touch misconnection recovery and smooth backbone evolution (§9).
//!
//! * **Misconnection**: a transponder physically wired to the wrong MUX
//!   filter port. On a legacy AWG/fixed-grid MUX each port passes one
//!   factory-bound grid slot, so the wavelength is clipped until a field
//!   tech re-cables it. On FlexWAN's spectrum-sliced MUX "the passband of
//!   each filter port … supports all spectrum frequencies": the controller
//!   simply retunes the mis-wired port — zero touch.
//! * **Evolution**: moving the fleet from 50 GHz-class to 75 GHz-class
//!   wavelengths requires replacing every fixed-grid OLS unit, but only a
//!   reconfiguration on a pixel-wise OLS.

use flexwan_obs::Obs;
use flexwan_optical::spectrum::{PixelRange, PixelWidth};
use flexwan_optical::WssKind;

/// Outcome of a misconnection-recovery attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryOutcome {
    /// The controller retuned the mis-wired port; traffic flows.
    ZeroTouch {
        /// The port that was reconfigured.
        reconfigured_port: u16,
    },
    /// Software cannot fix it; an on-site manual operation is required.
    ManualIntervention {
        /// Why software recovery is impossible.
        reason: String,
    },
}

/// Attempts to recover from a misconnection: the transponder emitting
/// `channel` was wired to `actual_port` instead of its intended port.
///
/// On a fixed-grid MUX, port `p` is factory-bound to grid slot `p` (the
/// AWG's physical wavelength ladder); recovery succeeds only in the lucky
/// case where the channel happens to be exactly that slot. On a
/// pixel-wise MUX any port can be retuned to any passband.
///
/// With an `obs` the outcome is recorded into it: zero-touch retunes and
/// truck rolls are counted separately (per WSS kind), quantifying the §9
/// operational claim.
pub fn recover_misconnection(
    obs: Option<&Obs>,
    wss: WssKind,
    actual_port: u16,
    channel: PixelRange,
) -> RecoveryOutcome {
    let outcome = match wss {
        WssKind::PixelWise => RecoveryOutcome::ZeroTouch {
            reconfigured_port: actual_port,
        },
        WssKind::FixedGrid { spacing } => {
            let slot_start = u32::from(actual_port) * u32::from(spacing.pixels());
            if channel.start == slot_start && channel.width == spacing {
                RecoveryOutcome::ZeroTouch {
                    reconfigured_port: actual_port,
                }
            } else {
                RecoveryOutcome::ManualIntervention {
                    reason: format!(
                        "fixed-grid port {actual_port} is factory-bound to slot starting at pixel {slot_start}; channel {channel} requires re-cabling on site"
                    ),
                }
            }
        }
    };
    if let Some(obs) = obs {
        let kind = match wss {
            WssKind::PixelWise => "pixel_wise",
            WssKind::FixedGrid { .. } => "fixed_grid",
        };
        let metric = match outcome {
            RecoveryOutcome::ZeroTouch { .. } => "recovery_zero_touch_total",
            RecoveryOutcome::ManualIntervention { .. } => "recovery_manual_total",
        };
        obs.registry().counter_with(metric, &[("wss", kind)]).inc();
    }
    outcome
}

/// Whether an OLS with `wss` equipment can carry a wavelength of
/// `spacing` *without hardware replacement* (the §9 evolution question).
pub fn supports_spacing(wss: WssKind, spacing: PixelWidth) -> bool {
    match wss {
        WssKind::PixelWise => true,
        WssKind::FixedGrid { spacing: grid } => spacing == grid,
    }
}

/// The equipment-replacement bill for evolving an OLS of `num_devices`
/// fixed-grid units to carry `new_spacing` wavelengths: everything must be
/// swapped on a rigid grid, nothing on a pixel-wise OLS.
pub fn evolution_replacements(wss: WssKind, new_spacing: PixelWidth, num_devices: usize) -> usize {
    if supports_spacing(wss, new_spacing) {
        0
    } else {
        num_devices
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn px(n: u16) -> PixelWidth {
        PixelWidth::new(n)
    }

    #[test]
    fn pixel_wise_recovery_is_always_zero_touch() {
        for (start, width) in [(0u32, 6u16), (3, 7), (17, 10)] {
            let out = recover_misconnection(
                None,
                WssKind::PixelWise,
                9,
                PixelRange::new(start, px(width)),
            );
            assert_eq!(
                out,
                RecoveryOutcome::ZeroTouch {
                    reconfigured_port: 9
                }
            );
        }
    }

    #[test]
    fn fixed_grid_misconnection_needs_truck_roll() {
        let wss = WssKind::FixedGrid { spacing: px(6) };
        // Channel sits in slot 2 but got wired to port 5.
        let out = recover_misconnection(None, wss, 5, PixelRange::new(12, px(6)));
        assert!(matches!(out, RecoveryOutcome::ManualIntervention { .. }));
        // Lucky case: wired to the port whose slot it occupies.
        let out = recover_misconnection(None, wss, 2, PixelRange::new(12, px(6)));
        assert!(matches!(out, RecoveryOutcome::ZeroTouch { .. }));
    }

    #[test]
    fn observed_recovery_counts_outcomes_per_wss_kind() {
        let obs = Obs::default();
        let ch = PixelRange::new(12, px(6));
        recover_misconnection(Some(&obs), WssKind::PixelWise, 9, ch);
        recover_misconnection(Some(&obs), WssKind::FixedGrid { spacing: px(6) }, 5, ch);
        let prom = obs.metrics_prometheus();
        assert!(
            prom.contains("recovery_zero_touch_total{wss=\"pixel_wise\"} 1"),
            "{prom}"
        );
        assert!(
            prom.contains("recovery_manual_total{wss=\"fixed_grid\"} 1"),
            "{prom}"
        );
    }

    #[test]
    fn evolution_cost() {
        // Moving to 75 GHz channels: the 50 GHz fleet is fully replaced…
        let legacy = WssKind::FixedGrid { spacing: px(4) };
        assert_eq!(evolution_replacements(legacy, px(6), 120), 120);
        // …a 75 GHz fleet keeps working for 75 GHz only…
        let rigid75 = WssKind::FixedGrid { spacing: px(6) };
        assert_eq!(evolution_replacements(rigid75, px(6), 120), 0);
        assert_eq!(evolution_replacements(rigid75, px(8), 120), 120);
        // …and the spectrum-sliced OLS never needs replacement.
        assert_eq!(evolution_replacements(WssKind::PixelWise, px(12), 120), 0);
    }
}
