//! The metric vocabulary: every name the benchmark can print, with its
//! unit, direction and — for end-to-end metrics — the bound by which it
//! may worsen before `compare` calls it a regression. `BENCHMARK.json`
//! at the repo root lists the same names; a harness test keeps the two
//! in step.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what an operator of the system would see.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Allowed worsening, as a share of the baseline's median.
    pub bound: f64,
}

/// The end-to-end metrics, reported for every workload by an untraced
/// run. See `README.md` for what each means per workload and for the
/// measured spreads the bounds were set from.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "served_ratio",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: "cost_per_tbps",
        unit: "1/Tbps",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// What a per-layer metric is, which decides how `compare` treats it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerKind {
    /// Work counted over the first cycle of a run: a fixed operation
    /// schedule, so the value repeats exactly for one seed and one
    /// commit. `compare` requires equality.
    Count,
    /// A wall-clock time or a ratio of times; informational.
    Time,
}

/// A per-layer metric, reported by a traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layer {
    /// Metric name; the prefix is the module measured.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Count or time.
    pub kind: LayerKind,
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        kind: LayerKind::Count,
    }
}

const fn time(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        kind: LayerKind::Time,
    }
}

use Better::{Higher, Lower};

/// The per-layer metrics. A workload that does not touch a layer
/// reports 0 for it.
pub const PER_LAYER: &[Layer] = &[
    // The operation stream itself.
    count("ops.cycle", "count", Higher),
    count("ops.failed", "count", Lower),
    count("ops.served_gbps", "Gbps", Higher),
    count("ops.asked_gbps", "Gbps", Higher),
    count("ops.plan_cost_total", "cost", Lower),
    time("ops.p99_ms", "ms", Lower),
    time("ops.segment_spread", "ratio", Lower),
    // topo: KSP and the route cache.
    count("topo.ksp.calls", "count", Lower),
    time("topo.ksp.us_per_call", "us", Lower),
    time("topo.ksp.banned_us_per_call", "us", Lower),
    count("topo.cache.hits", "count", Higher),
    count("topo.cache.misses", "count", Lower),
    count("topo.cache.entries", "count", Lower),
    count("topo.cache.hit_ratio", "ratio", Higher),
    time("topo.cache.hit_us", "us", Lower),
    // core.heuristic: format DP + spectrum assignment.
    count("core.heuristic.plans", "count", Higher),
    time("core.heuristic.ms_per_plan.tbackbone", "ms", Lower),
    time("core.heuristic.ms_per_plan.cernet", "ms", Lower),
    time("core.heuristic.ms_per_plan.continental", "ms", Lower),
    time("core.heuristic.cold_ms_per_plan.tbackbone", "ms", Lower),
    time("core.heuristic.wavelengths_per_ms", "1/ms", Higher),
    count("core.heuristic.unmet_gbps", "Gbps", Lower),
    // core.shard: region-sharded planning.
    time("core.shard.ms_per_plan", "ms", Lower),
    time("core.shard.core_ms", "ms", Lower),
    time("core.shard.region_ms_max", "ms", Lower),
    count("core.shard.region_solves", "count", Lower),
    count("core.shard.coordination_rounds", "count", Lower),
    time("core.shard.vs_monolithic_ratio", "ratio", Lower),
    // core.opt / core.mip: model build and the standing exact model.
    time("core.opt.build_ms", "ms", Lower),
    count("core.opt.gammas", "count", Lower),
    time("core.mip.solve_ms", "ms", Lower),
    time("core.mip.warm_restore_ms_per_cut", "ms", Lower),
    // solver: simplex and branch & bound.
    count("solver.pivots", "count", Lower),
    count("solver.dual_pivots", "count", Lower),
    count("solver.nodes", "count", Lower),
    count("solver.refactorizations", "count", Lower),
    count("solver.cold_solves", "count", Lower),
    count("solver.warm_solves", "count", Higher),
    count("solver.warm_ratio", "ratio", Higher),
    time("solver.lp_ms", "ms", Lower),
    time("solver.total_ms", "ms", Lower),
    time("solver.pivots_per_ms", "1/ms", Higher),
    time("solver.nodes_per_s", "1/s", Higher),
    time("solver.bnb.speedup_2t", "ratio", Higher),
    // core.colgen: restricted master + pricing.
    time("core.colgen.ms_per_solve.tbackbone", "ms", Lower),
    time("core.colgen.ms_per_solve.cernet", "ms", Lower),
    count("core.colgen.universe", "count", Lower),
    count("core.colgen.columns_in_master", "count", Lower),
    count("core.colgen.columns_priced_in", "count", Lower),
    count("core.colgen.pricing_rounds", "count", Lower),
    count("core.colgen.gap_rounds", "count", Lower),
    count("core.colgen.conflict_rows", "count", Lower),
    count("core.colgen.certified_ratio", "ratio", Higher),
    time("core.colgen.pricing_ms", "ms", Lower),
    time("core.colgen.universe_per_ms", "1/ms", Higher),
    // core.restore: the §8 greedy restoration.
    time("core.restore.ms_per_cut", "ms", Lower),
    count("core.restore.wavelengths_per_cut", "count", Higher),
    count("core.restore.affected_gbps", "Gbps", Lower),
    count("core.restore.restored_gbps", "Gbps", Higher),
    // ctrl: telemetry, device plane, orchestrator.
    time("ctrl.datastream.scan_us", "us", Lower),
    time("ctrl.controller.build_ms", "ms", Lower),
    time("ctrl.controller.apply_plan_ms", "ms", Lower),
    time("ctrl.controller.push_ms_per_wavelength", "ms", Lower),
    time("ctrl.controller.release_ms_per_wavelength", "ms", Lower),
    count("ctrl.controller.sends", "count", Lower),
    count("ctrl.controller.sends_per_wavelength", "count", Lower),
    count("ctrl.controller.retries", "count", Lower),
    count("ctrl.controller.rejected_ratio", "ratio", Lower),
    time("ctrl.orchestrator.cut_tick_ms", "ms", Lower),
    time("ctrl.orchestrator.repair_tick_ms", "ms", Lower),
    time("ctrl.orchestrator.quiet_tick_us", "us", Lower),
    time("ctrl.orchestrator.cut_tick_p99_ms", "ms", Lower),
    // ctrl.service: the always-on churn service.
    time("ctrl.service.new_ms", "ms", Lower),
    count("ctrl.service.ticks", "count", Lower),
    count("ctrl.service.events_applied", "count", Higher),
    count("ctrl.service.warm_mutations", "count", Lower),
    count("ctrl.service.rebuilds", "count", Lower),
    count("ctrl.service.columns_added", "count", Lower),
    count("ctrl.service.duplicates_ignored", "count", Lower),
    count("ctrl.service.gap_fills", "count", Lower),
    count("ctrl.service.deadline_blown", "count", Lower),
    count("ctrl.service.level_ticks.warm", "count", Higher),
    count("ctrl.service.level_ticks.heuristic", "count", Lower),
    count("ctrl.service.level_ticks.protect", "count", Lower),
    time("ctrl.service.tick_ms.drift", "ms", Lower),
    time("ctrl.service.tick_ms.demand", "ms", Lower),
    time("ctrl.service.tick_ms.cut", "ms", Lower),
    time("ctrl.service.tick_ms.repair", "ms", Lower),
    time("ctrl.service.growth_ratio", "ratio", Lower),
    time("ctrl.service.tick_p99_ms", "ms", Lower),
    // util.pool: the deterministic worker pool.
    time("util.pool.speedup_2t", "ratio", Higher),
    // The tracing itself.
    time("trace.overhead_ratio", "ratio", Lower),
    time("trace.recording_ratio", "ratio", Lower),
    time("trace.coverage_ratio", "ratio", Higher),
    // Share of traced op time spent in each layer (self time of the
    // layer's spans ÷ Σ op spans); the README table is these numbers.
    time("share.topo", "ratio", Lower),
    time("share.core.heuristic", "ratio", Lower),
    time("share.core.shard", "ratio", Lower),
    time("share.core.mip", "ratio", Lower),
    time("share.core.colgen", "ratio", Lower),
    time("share.solver", "ratio", Lower),
    time("share.core.restore", "ratio", Lower),
    time("share.ctrl.datastream", "ratio", Lower),
    time("share.ctrl.controller", "ratio", Lower),
    time("share.ctrl.service", "ratio", Lower),
];

/// The layers of the share table, in stack order, with the span-name
/// prefix that attributes a span to each.
pub const SHARE_LAYERS: &[&str] = &[
    "topo",
    "core.heuristic",
    "core.shard",
    "core.mip",
    "core.colgen",
    "solver",
    "core.restore",
    "ctrl.datastream",
    "ctrl.controller",
    "ctrl.service",
];

/// The per-layer metric called `name`.
pub fn layer(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for n in &names {
            assert!(n.len() <= 64 && n.chars().all(ok), "{n}");
            assert!(n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
        }
        let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(u.len() <= 16 && u.chars().all(unit_ok), "{u}");
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate metric name");
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        for l in SHARE_LAYERS {
            assert!(layer(&format!("share.{l}")).is_some(), "{l}");
        }
    }
}
