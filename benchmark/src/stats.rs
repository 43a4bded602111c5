//! Order statistics used by every metric: nearest-rank percentiles, the
//! median, and the quartile spread the acceptance rule is written in.

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// such that at least `q` of the samples are ≤ it. `0.0` on an empty
/// slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sorts `samples` ascending (NaN-free input) and returns them.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    samples
}

/// Median: the middle sample, or the mean of the two middle samples.
/// `0.0` on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The `q`-quantile of `samples` counted from the better side (nearest
/// rank): with `q = 0.1`, the 10th percentile when lower is better, the
/// 90th when higher is. Disturbance on a shared machine is one-sided,
/// so a quantile near the better end holds still where the median does
/// not.
pub fn better_quantile(samples: &[f64], better: crate::metrics::Better, q: f64) -> f64 {
    let mut s = sorted(samples.to_vec());
    if better == crate::metrics::Better::Higher {
        s.reverse();
    }
    percentile(&s, q)
}

/// First and third quartile by the exclusive method — the rule of
/// Python's `statistics.quantiles(values, n=4)`, which is what the
/// acceptance procedure computes.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples.to_vec());
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let at = |p: f64| {
        let pos = p * (n as f64 + 1.0);
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - j as f64).clamp(0.0, 1.0);
        s[j - 1] + frac * (s[j] - s[j - 1])
    };
    (at(0.25), at(0.75))
}

/// Distance between the quartiles as a share of the median: the
/// run-to-run spread the bounds are judged against.
pub fn spread(samples: &[f64]) -> f64 {
    let m = median(samples);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s[..1], 0.95), 1.0);
        assert_eq!(percentile(&[], 0.95), 0.0);
        // 20 samples: p95 is the 19th, one sample beyond it.
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.95), 19.0);
    }

    #[test]
    fn median_of_segments() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // One slow segment does not move the segment median.
        assert_eq!(median(&[10.0, 10.5, 9.5, 10.2, 55.0]), 10.2);
    }

    #[test]
    fn better_quantile_ignores_disturbed_segments() {
        use crate::metrics::Better;
        // Eight cycles, five of them disturbed towards slow.
        let latency = [4.1, 9.0, 9.5, 4.2, 7.7, 4.0, 8.3, 12.0];
        assert_eq!(better_quantile(&latency, Better::Lower, 0.25), 4.1);
        assert_eq!(better_quantile(&latency, Better::Lower, 0.10), 4.0);
        let rate = [120.0, 62.0, 60.0, 118.0, 75.0, 121.0, 70.0, 40.0];
        assert_eq!(better_quantile(&rate, Better::Higher, 0.25), 120.0);
        assert_eq!(better_quantile(&rate, Better::Higher, 0.10), 121.0);
        assert_eq!(better_quantile(&[], Better::Lower, 0.10), 0.0);
        assert_eq!(better_quantile(&[3.0], Better::Higher, 0.10), 3.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&s);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&s) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[7.0, 7.0, 7.0]), 0.0);
    }
}
