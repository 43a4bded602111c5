//! The availability-surface experiment: multi-failure × demand-uncertainty
//! scenario sweeps over a backbone, aggregated per (k, spare-budget) cell.
//!
//! A thin harness over [`flexwan_core::scenario`]: it generates the
//! scenario suite (exhaustive k-cuts where they fit, seeded samples
//! past the limit) and the demand-perturbation set, and runs the engine
//! over them. The output is byte-stable — the regeneration binary and
//! the CI sweep gate diff the rendered surface verbatim.

use flexwan_core::planning::PlanCtx;
use flexwan_core::scenario::{
    demand_scenarios, scenario_suite, AvailabilitySurface, EngineConfig, ScenarioEngine,
};
use flexwan_core::Scheme;
use flexwan_topo::ip::IpTopology;

/// Knobs for one availability sweep.
#[derive(Debug, Clone)]
pub struct AvailabilityConfig {
    /// Largest simultaneous-cut count (surface rows are `k ∈ 1..=k_max`).
    pub k_max: usize,
    /// Enumerate a k row exhaustively while `C(fibers, k)` fits here.
    pub exhaustive_limit: usize,
    /// Seeded sample size for rows past the exhaustive limit.
    pub samples: usize,
    /// Seed for sampled cuts and demand perturbations.
    pub seed: u64,
    /// Perturbed demand scenarios alongside the nominal one.
    pub demand_scenarios: usize,
    /// Multiplicative demand spread (factors in `[1 − s, 1 + s]`).
    pub demand_spread: f64,
    /// Engine knobs: spare budgets, threads.
    pub engine: EngineConfig,
}

impl Default for AvailabilityConfig {
    fn default() -> Self {
        AvailabilityConfig {
            k_max: 3,
            exhaustive_limit: 64,
            samples: 24,
            seed: 7,
            demand_scenarios: 2,
            demand_spread: 0.2,
            engine: EngineConfig::default(),
        }
    }
}

/// Runs one availability sweep: suite generation, demand perturbation,
/// engine evaluation. Deterministic for a given
/// `(graph, cfg, ip, scheme, acfg)`; a cache shared on `ctx` is
/// memoization and never changes results.
pub fn availability_surface(
    ctx: &PlanCtx,
    ip: &IpTopology,
    scheme: Scheme,
    acfg: &AvailabilityConfig,
) -> AvailabilitySurface {
    let suite = scenario_suite(
        ctx.optical(),
        acfg.k_max,
        acfg.exhaustive_limit,
        acfg.samples,
        acfg.seed,
    );
    let demands = demand_scenarios(ip, acfg.demand_scenarios, acfg.demand_spread, acfg.seed);
    ScenarioEngine::new(scheme, *ctx, ip, acfg.engine.clone()).evaluate(&suite, &demands)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexwan_core::planning::PlannerConfig;
    use flexwan_topo::continental::ScaleParams;
    use flexwan_topo::tbackbone::{t_backbone, Backbone};

    fn small_backbone() -> Backbone {
        t_backbone(&ScaleParams {
            regions: 2,
            metros_per_region: 3,
            ip_links: 6,
            seed: 35,
            metro_fiber_pairs: 2,
            hub_fiber_pairs: 2,
            ..ScaleParams::tbackbone()
        })
    }

    #[test]
    fn sweep_is_deterministic_and_thread_invariant() {
        let b = small_backbone();
        let cfg = PlannerConfig {
            k_paths: 3,
            ..PlannerConfig::default()
        };
        let acfg = AvailabilityConfig {
            k_max: 2,
            exhaustive_limit: 32,
            samples: 8,
            demand_scenarios: 1,
            ..AvailabilityConfig::default()
        };
        let ctx = PlanCtx::new(&b.optical, &cfg);
        let base = availability_surface(&ctx, &b.ip, Scheme::FlexWan, &acfg);
        for threads in [1usize, 4] {
            let mut a2 = acfg.clone();
            a2.engine.threads = threads;
            let s = availability_surface(&ctx, &b.ip, Scheme::FlexWan, &a2);
            assert_eq!(s.render(), base.render(), "threads={threads}");
        }
    }
}
