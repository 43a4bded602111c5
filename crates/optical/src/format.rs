//! Transponder operating points ("formats").
//!
//! A *format* is one row of a transponder's capability table: a data rate,
//! the channel spacing the generated wavelength occupies, and the optical
//! reach up to which the signal still decodes error-free (post-FEC BER = 0).
//! For the SVT (§4.2) each format additionally records which settings of the
//! adjustable internal components realize it: FEC overhead, DSP baud rate,
//! and modulation format.

use crate::modulation::Modulation;
use crate::spectrum::PixelWidth;

/// FEC overhead as a percentage of redundant data added to the signal
/// (§4.2 names 15 % and 27 % as the SVT's selectable ratios).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FecOverhead {
    percent: u8,
}

impl FecOverhead {
    /// The low-overhead FEC option (15 % redundancy).
    pub const LOW: FecOverhead = FecOverhead { percent: 15 };
    /// The high-overhead FEC option (27 % redundancy), for long reach.
    pub const HIGH: FecOverhead = FecOverhead { percent: 27 };

    /// Creates an overhead of `percent` % redundancy.
    pub fn new(percent: u8) -> Self {
        assert!(percent < 100, "FEC overhead is a redundancy percentage");
        FecOverhead { percent }
    }

    /// The redundancy percentage.
    pub fn percent(self) -> u8 {
        self.percent
    }

    /// Line-rate multiplier: information rate × this = transmitted rate.
    pub fn rate_multiplier(self) -> f64 {
        1.0 + f64::from(self.percent) / 100.0
    }
}

/// One operating point of a transponder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransponderFormat {
    /// Net (information) data rate of the wavelength, Gbps.
    pub data_rate_gbps: u32,
    /// Channel spacing occupied by the wavelength.
    pub spacing: PixelWidth,
    /// Maximum error-free transmission distance, km.
    pub reach_km: u32,
    /// Modulation format configured in the DSP.
    pub modulation: Modulation,
    /// Symbol rate, GBd.
    pub baud_gbd: f64,
    /// FEC overhead configured in the FEC module.
    pub fec: FecOverhead,
}

impl TransponderFormat {
    /// Builds a format, deriving the internal component settings
    /// (baud, modulation, FEC) from the external operating point.
    ///
    /// The derivation mirrors how coherent transponders are engineered:
    ///
    /// * the symbol rate fills the spacing minus one 12.5 GHz pixel of
    ///   guard band (50 GHz spacing → 37.5 GBd, 62.5 GHz → 50 GBd — the
    ///   two baud rates §4.2 names — 75 GHz → 62.5 GBd, …);
    /// * long-reach points use the 27 % FEC, short-reach the 15 % FEC
    ///   (more redundancy buys reach at the cost of line rate);
    /// * the modulation then carries
    ///   `rate × FEC-multiplier / (2 polarizations × baud)` bits/symbol —
    ///   realized with PCS when fractional (§4.2: baud, FEC, and modulation
    ///   are "almost fully meshed" in the SVT's DSP).
    pub fn derive(data_rate_gbps: u32, spacing: PixelWidth, reach_km: u32) -> Self {
        // One 12.5 GHz pixel of the spacing is guard band; the symbol rate
        // fills the rest.
        let baud_gbd = spacing.ghz() - 12.5;
        assert!(
            baud_gbd > 0.0,
            "spacing must exceed the 12.5 GHz guard band"
        );
        // Long reach needs the strong code. 800 km is the midpoint of the
        // SVT table's reach spread and matches the paper's description of
        // high-overhead FEC for "long traveling distances".
        let fec = if reach_km >= 800 {
            FecOverhead::HIGH
        } else {
            FecOverhead::LOW
        };
        let bits = f64::from(data_rate_gbps) * fec.rate_multiplier() / (2.0 * baud_gbd);
        let modulation = match Modulation::densest_fixed_at_least(bits) {
            // Exact fixed format if it matches within 0.05 bit; otherwise PCS.
            Some(m) if (m.bits_per_symbol() - bits).abs() < 0.05 => m,
            _ => Modulation::pcs(bits),
        };
        TransponderFormat {
            data_rate_gbps,
            spacing,
            reach_km,
            modulation,
            baud_gbd,
            fec,
        }
    }

    /// Link spectral efficiency: data rate / spacing, in bit/s/Hz (§7.1).
    pub fn spectral_efficiency(&self) -> f64 {
        f64::from(self.data_rate_gbps) / self.spacing.ghz()
    }

    /// Whether this format can serve a path of `distance_km` (reach ≥ path,
    /// the paper's optical-reach constraint (2)).
    pub fn reaches(&self, distance_km: u32) -> bool {
        self.reach_km >= distance_km
    }

    /// Information bits per symbol per polarization implied by the
    /// (rate, baud, FEC) triple.
    pub fn bits_per_symbol(&self) -> f64 {
        f64::from(self.data_rate_gbps) * self.fec.rate_multiplier() / (2.0 * self.baud_gbd)
    }
}

impl std::fmt::Display for TransponderFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} Gbps @ {} ({}; {:.1} GBd; FEC {}%) reach {} km",
            self.data_rate_gbps,
            self.spacing,
            self.modulation,
            self.baud_gbd,
            self.fec.percent(),
            self.reach_km
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fec_multipliers() {
        assert_eq!(FecOverhead::LOW.rate_multiplier(), 1.15);
        assert_eq!(FecOverhead::HIGH.rate_multiplier(), 1.27);
        assert_eq!(FecOverhead::new(20).percent(), 20);
    }

    #[test]
    #[should_panic(expected = "redundancy percentage")]
    fn fec_rejects_absurd_overhead() {
        let _ = FecOverhead::new(100);
    }

    #[test]
    fn derive_picks_high_fec_for_long_reach() {
        let long = TransponderFormat::derive(100, PixelWidth::from_ghz(75.0).unwrap(), 5000);
        let short = TransponderFormat::derive(600, PixelWidth::from_ghz(87.5).unwrap(), 300);
        assert_eq!(long.fec, FecOverhead::HIGH);
        assert_eq!(short.fec, FecOverhead::LOW);
    }

    #[test]
    fn derive_bits_per_symbol_consistent() {
        // Every SVT-table-like point should produce a physically plausible
        // modulation: between BPSK (1 b) and 256QAM (8 b) per symbol.
        for (rate, ghz, reach) in [
            (100, 50.0, 3000),
            (400, 75.0, 600),
            (800, 112.5, 150),
            (800, 150.0, 300),
        ] {
            let f = TransponderFormat::derive(rate, PixelWidth::from_ghz(ghz).unwrap(), reach);
            let b = f.bits_per_symbol();
            assert!(
                (0.9..=8.2).contains(&b),
                "{rate}G@{ghz}GHz gives {b} bits/symbol"
            );
            assert!((f.modulation.bits_per_symbol() - b).abs() < 0.06);
        }
    }

    #[test]
    fn spectral_efficiency_matches_paper_fixed_wan() {
        // §7.1: 100G-WAN link spectral efficiency is fixed at 2 b/s/Hz.
        let f = TransponderFormat::derive(100, PixelWidth::from_ghz(50.0).unwrap(), 3000);
        assert_eq!(f.spectral_efficiency(), 2.0);
    }

    #[test]
    fn reach_constraint() {
        let f = TransponderFormat::derive(300, PixelWidth::from_ghz(75.0).unwrap(), 1100);
        assert!(f.reaches(1100));
        assert!(f.reaches(600));
        assert!(!f.reaches(1101));
    }

    #[test]
    fn display_renders() {
        let f = TransponderFormat::derive(400, PixelWidth::from_ghz(112.5).unwrap(), 1600);
        let s = f.to_string();
        assert!(s.contains("400 Gbps"), "{s}");
        assert!(s.contains("112.5 GHz"), "{s}");
    }
}
