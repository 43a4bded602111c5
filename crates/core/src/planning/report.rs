//! Plan metrics: the quantities plotted in §7's figures.

use crate::planning::heuristic::Plan;

/// Aggregated metrics of a [`Plan`].
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// Transponder pairs deployed (Figure 12(a)).
    pub transponders: usize,
    /// Spectrum usage `Σ λ·Y`, GHz (Figure 12(b)).
    pub spectrum_ghz: f64,
    /// Per-wavelength reach gaps `optical reach − path length`, km
    /// (Figure 14(a)).
    pub gaps_km: Vec<i64>,
    /// Per-wavelength link spectral efficiencies, bit/s/Hz (Figure 14(b)).
    pub spectral_efficiency: Vec<f64>,
    /// Total unmet demand, Gbps.
    pub unmet_gbps: u64,
}

/// Computes the report of a plan.
pub fn report(plan: &Plan) -> PlanReport {
    PlanReport {
        transponders: plan.transponder_count(),
        spectrum_ghz: plan.spectrum_usage_ghz(),
        gaps_km: plan.wavelengths.iter().map(|w| w.reach_gap_km()).collect(),
        spectral_efficiency: plan
            .wavelengths
            .iter()
            .map(|w| w.spectral_efficiency())
            .collect(),
        unmet_gbps: plan.unmet_gbps(),
    }
}

impl PlanReport {
    /// Mean spectral efficiency across wavelengths, bit/s/Hz.
    pub fn mean_spectral_efficiency(&self) -> f64 {
        mean(&self.spectral_efficiency)
    }

    /// Fraction of gaps strictly below `km` (a Figure 14(a) CDF point).
    pub fn gap_fraction_below(&self, km: i64) -> f64 {
        if self.gaps_km.is_empty() {
            return 0.0;
        }
        self.gaps_km.iter().filter(|&&g| g < km).count() as f64 / self.gaps_km.len() as f64
    }
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Empirical CDF of `values` as sorted `(value, cumulative fraction)`
/// points — the format the figure-regeneration binaries print.
pub fn cdf<T: Copy + PartialOrd>(values: &[T]) -> Vec<(T, f64)> {
    let mut sorted: Vec<T> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("CDF input must be orderable"));
    let n = sorted.len() as f64;
    sorted
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, (i + 1) as f64 / n))
        .collect()
}

/// Percent saved going from `baseline` to `ours`, e.g.
/// `percent_saved(100.0, 43.0) = 57.0` (the paper's headline metric form).
pub fn percent_saved(baseline: f64, ours: f64) -> f64 {
    assert!(baseline > 0.0, "baseline must be positive");
    100.0 * (baseline - ours) / baseline
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planning::heuristic::{plan, PlannerConfig};
    use crate::scheme::Scheme;
    use flexwan_optical::spectrum::SpectrumGrid;
    use flexwan_topo::graph::Graph;
    use flexwan_topo::ip::IpTopology;

    fn tiny() -> (Graph, IpTopology) {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge(a, b, 150);
        let mut ip = IpTopology::new();
        ip.add_link(a, b, 400);
        (g, ip)
    }

    #[test]
    fn report_totals() {
        let (g, ip) = tiny();
        let cfg = PlannerConfig {
            grid: SpectrumGrid::new(96),
            ..Default::default()
        };
        let p = plan(Scheme::FixedGrid100G, &g, &ip, &cfg);
        let r = report(&p);
        assert_eq!(r.transponders, 4);
        assert_eq!(r.spectrum_ghz, 200.0);
        assert_eq!(r.unmet_gbps, 0);
        // 100G-WAN: SE fixed at 2 (Figure 14(b)).
        assert!(r.spectral_efficiency.iter().all(|&s| s == 2.0));
        // Gaps: 3000 − 150.
        assert!(r.gaps_km.iter().all(|&gp| gp == 2850));
        assert_eq!(r.gap_fraction_below(3000), 1.0);
        assert_eq!(r.gap_fraction_below(100), 0.0);
    }

    #[test]
    fn flexwan_gap_is_small() {
        let (g, ip) = tiny();
        let cfg = PlannerConfig {
            grid: SpectrumGrid::new(96),
            ..Default::default()
        };
        let r = report(&plan(Scheme::FlexWan, &g, &ip, &cfg));
        // 400 G at 150 km → 75 GHz format with reach 600: gap 450 km,
        // far below 100G-WAN's 2850.
        assert!(r.gaps_km.iter().all(|&gp| gp < 1000));
        assert!(r.mean_spectral_efficiency() > 5.0);
    }

    #[test]
    fn cdf_shape() {
        let c = cdf(&[3.0, 1.0, 2.0, 2.0]);
        assert_eq!(c.len(), 4);
        assert_eq!(c[0], (1.0, 0.25));
        assert_eq!(c[3], (3.0, 1.0));
        for w in c.windows(2) {
            assert!(w[0].0 <= w[1].0 && w[0].1 < w[1].1);
        }
    }

    #[test]
    fn percent_saved_math() {
        assert_eq!(percent_saved(100.0, 43.0), 57.0);
        assert_eq!(percent_saved(8.0, 8.0), 0.0);
        assert!(percent_saved(10.0, 12.0) < 0.0);
    }

    #[test]
    fn mean_handles_empty() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }
}
