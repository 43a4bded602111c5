//! Cross-layer validation: checking a plan against the physical layer.
//!
//! The planner trusts the SVT capability table (Table 2): a wavelength is
//! legal when its format's tabulated reach covers its path. This module
//! closes the loop the paper's testbed closes (§6): every planned
//! wavelength is re-evaluated on the simulated physical layer
//! (`flexwan-physim`) and its **SNR margin** — available SNR minus the
//! SNR its modulation/FEC needs — is reported. Production operators run
//! exactly this audit before lighting channels; wavelengths with thin or
//! negative margin get flagged for re-planning at a more conservative
//! format.

use flexwan_core::planning::Plan;
use flexwan_physim::ber::required_snr_linear;
use flexwan_physim::testbed::{LineConfig, Testbed};
use flexwan_physim::units::ratio_to_db;

/// Physical-layer audit result for one planned wavelength.
#[derive(Debug, Clone)]
pub struct WavelengthMargin {
    /// Index into the plan's wavelength list.
    pub index: usize,
    /// SNR the modulation/FEC needs for error-free decoding, dB.
    pub required_snr_db: f64,
    /// SNR the simulated line delivers over the wavelength's path, dB.
    pub available_snr_db: f64,
}

impl WavelengthMargin {
    /// Margin in dB (negative = the physical layer disagrees with the
    /// capability table for this operating point).
    pub fn margin_db(&self) -> f64 {
        self.available_snr_db - self.required_snr_db
    }
}

/// Summary of a cross-layer audit.
#[derive(Debug, Clone)]
pub struct MarginReport {
    /// Per-wavelength margins.
    pub margins: Vec<WavelengthMargin>,
}

impl MarginReport {
    /// Fraction of wavelengths with non-negative margin.
    pub fn healthy_fraction(&self) -> f64 {
        if self.margins.is_empty() {
            return 1.0;
        }
        self.margins.iter().filter(|m| m.margin_db() >= 0.0).count() as f64
            / self.margins.len() as f64
    }

    /// The thinnest margin in the plan, dB.
    pub fn worst_margin_db(&self) -> f64 {
        self.margins
            .iter()
            .map(WavelengthMargin::margin_db)
            .fold(f64::INFINITY, f64::min)
    }

    /// Mean margin, dB.
    pub fn mean_margin_db(&self) -> f64 {
        if self.margins.is_empty() {
            return 0.0;
        }
        self.margins
            .iter()
            .map(WavelengthMargin::margin_db)
            .sum::<f64>()
            / self.margins.len() as f64
    }
}

/// Audits every wavelength of `plan` on `testbed`'s physical layer.
pub fn validate_plan(plan: &Plan, testbed: &Testbed) -> MarginReport {
    let margins = plan
        .wavelengths
        .iter()
        .enumerate()
        .map(|(index, w)| {
            let cfg = LineConfig {
                data_rate_gbps: w.format.data_rate_gbps,
                spacing: w.format.spacing,
                fec: w.format.fec,
            };
            let available = testbed.snr_linear(&cfg, f64::from(w.path.length_km));
            let required = required_snr_linear(cfg.bits_per_symbol(), cfg.fec);
            WavelengthMargin {
                index,
                required_snr_db: ratio_to_db(required),
                available_snr_db: ratio_to_db(available),
            }
        })
        .collect();
    MarginReport { margins }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexwan_core::planning::{plan, PlannerConfig};
    use flexwan_core::Scheme;
    use flexwan_topo::continental::ScaleParams;
    use flexwan_topo::tbackbone::t_backbone;

    #[test]
    fn planned_wavelengths_mostly_clear_physics() {
        let b = t_backbone(&ScaleParams::tbackbone());
        let cfg = PlannerConfig {
            k_paths: 5,
            ..PlannerConfig::default()
        };
        let testbed = Testbed::default();
        for scheme in Scheme::ALL {
            let p = plan(scheme, &b.optical, &b.ip, &cfg);
            let report = validate_plan(&p, &testbed);
            assert_eq!(report.margins.len(), p.wavelengths.len());
            // The capability table and the simulated physics agree within
            // the EXPERIMENTS.md calibration band: the overwhelming
            // majority of wavelengths clear physics, and no wavelength is
            // deeply under water.
            assert!(
                report.healthy_fraction() > 0.7,
                "{scheme}: only {:.0}% healthy",
                100.0 * report.healthy_fraction()
            );
            assert!(
                report.worst_margin_db() > -4.0,
                "{scheme}: worst margin {:.1} dB",
                report.worst_margin_db()
            );
        }
    }

    #[test]
    fn shorter_paths_have_fatter_margins() {
        let b = t_backbone(&ScaleParams::tbackbone());
        let cfg = PlannerConfig {
            k_paths: 5,
            ..PlannerConfig::default()
        };
        let p = plan(Scheme::FixedGrid100G, &b.optical, &b.ip, &cfg);
        let report = validate_plan(&p, &Testbed::default());
        // 100G-WAN uses one format everywhere, so margin is a pure
        // function of path length: compare the shortest vs longest path.
        let shortest = p
            .wavelengths
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| w.path.length_km)
            .unwrap()
            .0;
        let longest = p
            .wavelengths
            .iter()
            .enumerate()
            .max_by_key(|(_, w)| w.path.length_km)
            .unwrap()
            .0;
        assert!(report.margins[shortest].margin_db() > report.margins[longest].margin_db() + 3.0);
    }

    #[test]
    fn empty_plan_is_trivially_healthy() {
        let report = MarginReport {
            margins: Vec::new(),
        };
        assert_eq!(report.healthy_fraction(), 1.0);
        assert_eq!(report.mean_margin_db(), 0.0);
    }
}
