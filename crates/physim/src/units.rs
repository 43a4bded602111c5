//! Unit conversions and special functions for the physical-layer model.

/// Converts a linear power ratio to dB.
pub fn ratio_to_db(linear: f64) -> f64 {
    10.0 * linear.log10()
}

/// Converts dB to a linear power ratio.
pub fn db_to_ratio(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Converts absolute power in dBm to milliwatts.
pub fn dbm_to_mw(dbm: f64) -> f64 {
    10f64.powf(dbm / 10.0)
}

/// Converts milliwatts to dBm.
pub fn mw_to_dbm(mw: f64) -> f64 {
    10.0 * mw.log10()
}

/// Complementary error function, Abramowitz & Stegun 7.1.26 rational
/// approximation (|error| ≤ 1.5e-7 — ample for BER work).
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    poly * (-x * x).exp()
}

/// Gaussian tail probability `Q(x) = P(N(0,1) > x)`.
pub fn q_function(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_round_trips() {
        for v in [0.001, 0.5, 1.0, 3.16, 1000.0] {
            assert!((db_to_ratio(ratio_to_db(v)) - v).abs() / v < 1e-12);
        }
        assert!((dbm_to_mw(0.0) - 1.0).abs() < 1e-12);
        assert!((mw_to_dbm(100.0) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn q_function_known_values() {
        assert!((q_function(0.0) - 0.5).abs() < 1e-7);
        // Q(1.0) ≈ 0.15866, Q(2.0) ≈ 0.02275, Q(3.0) ≈ 0.00135.
        assert!((q_function(1.0) - 0.158655).abs() < 1e-4);
        assert!((q_function(2.0) - 0.022750).abs() < 1e-4);
        assert!((q_function(3.0) - 0.001350).abs() < 1e-4);
    }

    #[test]
    fn erfc_symmetry() {
        for x in [0.1, 0.5, 1.7] {
            assert!((erfc(x) + erfc(-x) - 2.0).abs() < 1e-6);
        }
    }
}
