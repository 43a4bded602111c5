//! Bridge from [`SolverStats`] to the observability registry.
//!
//! The solver keeps its own deterministic counters ([`SolverStats`])
//! because they must be comparable across runs and threads; this module
//! mirrors one solve's counters into a [`Registry`] so they surface next
//! to the controller's metrics in the same Prometheus/JSON exports —
//! the paper tracks Gurobi's node and iteration counts the same way.

use std::time::Duration;

use flexwan_obs::{Registry, LATENCY_SECONDS_BUCKETS};

use crate::model::SolverStats;

/// Records one solve's [`SolverStats`] into `registry`.
///
/// Pivot counters are labeled by simplex phase, solve counters by start
/// kind (`warm`/`cold`); phase wall times land in per-phase latency
/// histograms and the warm-start hit rate of the *most recent* solve is
/// published as a gauge.
pub fn record_solver_stats(registry: &Registry, stats: &SolverStats) {
    registry
        .counter_with("solver_pivots_total", &[("phase", "phase1")])
        .add(stats.phase1_pivots);
    registry
        .counter_with("solver_pivots_total", &[("phase", "phase2")])
        .add(stats.phase2_pivots);
    registry
        .counter_with("solver_pivots_total", &[("phase", "dual")])
        .add(stats.dual_pivots);
    registry
        .counter("solver_bound_flips_total")
        .add(stats.bound_flips);
    registry
        .counter("solver_refactorizations_total")
        .add(stats.refactorizations);
    registry
        .counter("solver_factor_nonzeros_total")
        .add(stats.factor_nonzeros);
    registry
        .counter("solver_priced_nonzeros_total")
        .add(stats.priced_nonzeros);
    registry
        .counter_with("solver_solves_total", &[("start", "cold")])
        .add(stats.cold_solves);
    registry
        .counter_with("solver_solves_total", &[("start", "warm")])
        .add(stats.warm_solves);
    registry.counter("solver_nodes_total").add(stats.nodes);
    registry
        .counter("solver_pricing_rounds_total")
        .add(stats.pricing_rounds);
    registry
        .counter("solver_columns_admitted_total")
        .add(stats.columns_admitted);
    registry
        .gauge("solver_warm_start_hit_rate")
        .set(stats.warm_start_hit_rate());
    observe_phase(registry, "phase1", stats.time_phase1);
    observe_phase(registry, "phase2", stats.time_phase2);
    observe_phase(registry, "dual", stats.time_dual);
    observe_phase(registry, "total", stats.time_total);
}

fn observe_phase(registry: &Registry, phase: &str, t: Duration) {
    registry
        .histogram_with(
            "solver_phase_seconds",
            &[("phase", phase)],
            LATENCY_SECONDS_BUCKETS,
        )
        .observe(t.as_secs_f64());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_mirror_into_labeled_series() {
        let reg = Registry::new();
        let stats = SolverStats {
            phase1_pivots: 3,
            phase2_pivots: 5,
            dual_pivots: 7,
            bound_flips: 2,
            refactorizations: 1,
            factor_nonzeros: 11,
            priced_nonzeros: 13,
            cold_solves: 1,
            warm_solves: 3,
            nodes: 9,
            pricing_rounds: 2,
            columns_admitted: 6,
            time_phase1: Duration::from_micros(10),
            time_phase2: Duration::from_micros(20),
            time_dual: Duration::from_micros(30),
            time_total: Duration::from_micros(70),
        };
        record_solver_stats(&reg, &stats);
        let prom = reg.snapshot().to_prometheus();
        assert!(
            prom.contains("solver_pivots_total{phase=\"dual\"} 7"),
            "{prom}"
        );
        assert!(
            prom.contains("solver_solves_total{start=\"warm\"} 3"),
            "{prom}"
        );
        assert!(prom.contains("solver_nodes_total 9"), "{prom}");
        assert!(prom.contains("solver_factor_nonzeros_total 11"), "{prom}");
        assert!(prom.contains("solver_priced_nonzeros_total 13"), "{prom}");
        assert!(prom.contains("solver_warm_start_hit_rate 0.75"), "{prom}");
        // A second solve accumulates counters, overwrites the rate gauge.
        record_solver_stats(&reg, &stats);
        let prom = reg.snapshot().to_prometheus();
        assert!(prom.contains("solver_nodes_total 18"), "{prom}");
        assert!(prom.contains("solver_warm_start_hit_rate 0.75"), "{prom}");
    }
}
