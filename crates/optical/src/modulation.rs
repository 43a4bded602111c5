//! Modulation formats.
//!
//! The paper's motivation (§3.1) rests on the Shannon-Hartley theorem
//! `C = W·log2(1 + S/N)`: a wavelength's achievable data rate is bounded by
//! its channel spacing `W` and its SNR. Short paths have high SNR, so a
//! higher-order modulation (more bits per symbol) can be used; conversely a
//! higher rate at fixed spacing needs exponentially more SNR, which is why
//! FlexWAN instead widens the spacing (the SVT of §4.2).

/// A modulation format of the DSP engine inside a transponder.
///
/// `Pcs` is probabilistic constellation shaping [Cho & Winzer 2019], which
/// the SVT uses for finer-granularity data rates: it realizes a fractional
/// number of information bits per symbol on a QAM template. We store the
/// information rate in tenths of a bit per symbol (per polarization).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modulation {
    /// Binary phase-shift keying: 1 bit/symbol.
    Bpsk,
    /// Quadrature phase-shift keying: 2 bits/symbol.
    Qpsk,
    /// 8-ary QAM: 3 bits/symbol.
    Qam8,
    /// 16-ary QAM: 4 bits/symbol.
    Qam16,
    /// 32-ary QAM: 5 bits/symbol.
    Qam32,
    /// 64-ary QAM: 6 bits/symbol.
    Qam64,
    /// 256-ary QAM: 8 bits/symbol.
    Qam256,
    /// Probabilistically shaped QAM carrying `decibits`/10 bits per symbol.
    Pcs {
        /// Information bits per symbol × 10 (e.g. 35 ⇒ 3.5 bits/symbol).
        decibits: u16,
    },
}

impl Modulation {
    /// Information bits carried per symbol per polarization.
    pub fn bits_per_symbol(self) -> f64 {
        match self {
            Modulation::Bpsk => 1.0,
            Modulation::Qpsk => 2.0,
            Modulation::Qam8 => 3.0,
            Modulation::Qam16 => 4.0,
            Modulation::Qam32 => 5.0,
            Modulation::Qam64 => 6.0,
            Modulation::Qam256 => 8.0,
            Modulation::Pcs { decibits } => f64::from(decibits) / 10.0,
        }
    }

    /// The densest fixed (non-shaped) format carrying at least
    /// `bits_per_symbol`, if one exists within 256QAM.
    pub fn densest_fixed_at_least(bits_per_symbol: f64) -> Option<Modulation> {
        use Modulation::*;
        [Bpsk, Qpsk, Qam8, Qam16, Qam32, Qam64, Qam256]
            .into_iter()
            .find(|m| m.bits_per_symbol() + 1e-9 >= bits_per_symbol)
    }

    /// A PCS format carrying exactly `bits_per_symbol` (rounded to 0.1 bit).
    pub fn pcs(bits_per_symbol: f64) -> Modulation {
        assert!(bits_per_symbol > 0.0, "PCS rate must be positive");
        Modulation::Pcs {
            decibits: (bits_per_symbol * 10.0).round() as u16,
        }
    }

    /// Human-readable name (e.g. `8QAM`, `PCS-3.5b`).
    pub fn name(self) -> String {
        match self {
            Modulation::Bpsk => "BPSK".into(),
            Modulation::Qpsk => "QPSK".into(),
            Modulation::Qam8 => "8QAM".into(),
            Modulation::Qam16 => "16QAM".into(),
            Modulation::Qam32 => "32QAM".into(),
            Modulation::Qam64 => "64QAM".into(),
            Modulation::Qam256 => "256QAM".into(),
            Modulation::Pcs { decibits } => format!("PCS-{:.1}b", f64::from(decibits) / 10.0),
        }
    }
}

impl std::fmt::Display for Modulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_per_symbol_ladder() {
        assert_eq!(Modulation::Bpsk.bits_per_symbol(), 1.0);
        assert_eq!(Modulation::Qpsk.bits_per_symbol(), 2.0);
        assert_eq!(Modulation::Qam8.bits_per_symbol(), 3.0);
        assert_eq!(Modulation::Qam256.bits_per_symbol(), 8.0);
        assert_eq!(Modulation::pcs(3.5).bits_per_symbol(), 3.5);
    }

    #[test]
    fn densest_fixed_selection() {
        assert_eq!(
            Modulation::densest_fixed_at_least(2.0),
            Some(Modulation::Qpsk)
        );
        assert_eq!(
            Modulation::densest_fixed_at_least(2.1),
            Some(Modulation::Qam8)
        );
        assert_eq!(
            Modulation::densest_fixed_at_least(7.2),
            Some(Modulation::Qam256)
        );
        assert_eq!(Modulation::densest_fixed_at_least(8.5), None);
    }

    #[test]
    fn names_render() {
        assert_eq!(Modulation::Qam8.name(), "8QAM");
        assert_eq!(Modulation::pcs(3.5).name(), "PCS-3.5b");
    }
}
