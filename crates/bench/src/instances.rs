//! Canonical evaluation instances behind one scale-parametric surface:
//! every experiment binary builds its topology through
//! [`ScaleParams`], and the
//! `FLEXWAN_SCALE` environment variable moves the whole experiment layer
//! between three tiers without touching any binary:
//!
//! * `suite` — the shrunk 4×4 T-backbone, for fast local smoke runs;
//! * `full` (default) — the paper's 8×5 T-backbone; committed
//!   `results/` files are regenerated at this tier, so leaving the
//!   variable unset keeps every output byte-identical;
//! * `continental` — the 6-region × 7-metro continental instance from
//!   the multi-region generator, the scale the sharded planner targets.

use flexwan_core::planning::PlannerConfig;
use flexwan_topo::continental::{continental, Continental, Family, ScaleParams};
use flexwan_topo::tbackbone::Backbone;

/// The experiment scale tier selected by `FLEXWAN_SCALE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleTier {
    /// Shrunk 4×4 T-backbone (`FLEXWAN_SCALE=suite`).
    Suite,
    /// The paper's 8×5 T-backbone (default).
    Full,
    /// The 6-region continental instance (`FLEXWAN_SCALE=continental`).
    Continental,
}

impl ScaleTier {
    /// Reads `FLEXWAN_SCALE` (`suite` | `full` | `continental`,
    /// case-insensitive); unset or empty means [`ScaleTier::Full`].
    pub fn from_env() -> Self {
        match std::env::var("FLEXWAN_SCALE")
            .unwrap_or_default()
            .to_lowercase()
            .as_str()
        {
            "" | "full" => ScaleTier::Full,
            "suite" => ScaleTier::Suite,
            "continental" => ScaleTier::Continental,
            other => panic!("FLEXWAN_SCALE must be suite|full|continental, got {other:?}"),
        }
    }

    /// The generator parameters of the primary (synthetic) backbone at
    /// this tier.
    pub fn params(self) -> ScaleParams {
        match self {
            ScaleTier::Suite => ScaleParams::suite(),
            ScaleTier::Full => ScaleParams::tbackbone(),
            ScaleTier::Continental => ScaleParams::continental(),
        }
    }

    /// The topology family the primary backbone belongs to at this tier.
    pub fn family(self) -> Family {
        match self {
            ScaleTier::Suite | ScaleTier::Full => Family::TBackbone,
            ScaleTier::Continental => Family::Continental,
        }
    }
}

/// The primary synthetic instance at the `FLEXWAN_SCALE` tier (the
/// default `full` tier is [`ScaleParams::tbackbone`]).
pub fn tbackbone_instance() -> Backbone {
    tbackbone_instance_at(ScaleTier::from_env())
}

/// The primary synthetic instance at an explicit tier.
pub fn tbackbone_instance_at(tier: ScaleTier) -> Backbone {
    let p = tier.params();
    p.build(tier.family())
}

/// The default CERNET instance with ARROW-style demands (embedded real
/// topology: the scale tier does not change it).
pub fn cernet_instance() -> Backbone {
    ScaleParams::cernet().build(Family::Cernet)
}

/// The smallest full continental instance with its region/hub metadata,
/// as planned by the sharded solver in the `continental_sweep` CI job.
pub fn continental_instance() -> Continental {
    continental(&ScaleParams::continental())
}

/// The shrunk 2-region instance on which the sharded solve is
/// cross-validated bitwise against the monolithic exact MIP.
pub fn parity_instance() -> Continental {
    continental(&ScaleParams::parity())
}

/// CERNET at its exactly-solvable demand envelope: every demand scaled
/// by `scale` (floored to the 100 G port quantum), links the scheme
/// cannot serve at all dropped. At the default demands two IP links are
/// reach-infeasible — no transponder format closes any of their five
/// candidate routes — so *no* solver, exact or heuristic, can serve
/// them; the envelope keeps the other 148. Beyond scale ≈ 0.7 the
/// C-band saturates on the contested fibers and the column-generation
/// master degenerates (see `flexwan_core::planning::colgen`), so 0.7 is
/// the largest envelope the exact reports pin.
pub fn cernet_envelope_instance(scale: f64) -> Backbone {
    use flexwan_core::{plan, Scheme};
    use flexwan_topo::ip::IpTopology;

    let b = cernet_instance();
    let cfg = default_config();
    let mut scaled = IpTopology::new();
    for l in b.ip.links() {
        let d = ((l.demand_gbps as f64 * scale / 100.0).floor() as u64 * 100).max(100);
        scaled.add_link(l.src, l.dst, d);
    }
    let unserved: std::collections::HashSet<_> = plan(Scheme::FlexWan, &b.optical, &scaled, &cfg)
        .unmet
        .iter()
        .map(|&(link, _)| link)
        .collect();
    let mut ip = IpTopology::new();
    for l in scaled.links() {
        if !unserved.contains(&l.id) {
            ip.add_link(l.src, l.dst, l.demand_gbps);
        }
    }
    Backbone {
        optical: b.optical,
        ip,
    }
}

/// The planner configuration used by every §7–§8 experiment: K = 5
/// candidate routes (the backbone's parallel-conduit structure rewards a
/// slightly deeper route set), ε = 10⁻³, the full C-band.
pub fn default_config() -> PlannerConfig {
    PlannerConfig {
        k_paths: 5,
        ..PlannerConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instances_are_stable() {
        let a = tbackbone_instance_at(ScaleTier::Full);
        let b = tbackbone_instance_at(ScaleTier::Full);
        assert_eq!(a.optical, b.optical);
        let c = cernet_instance();
        assert_eq!(c.optical.num_nodes(), 35);
    }

    #[test]
    fn tiers_scale_the_backbone() {
        let suite = tbackbone_instance_at(ScaleTier::Suite);
        let full = tbackbone_instance_at(ScaleTier::Full);
        let cont = tbackbone_instance_at(ScaleTier::Continental);
        assert!(suite.optical.num_nodes() < full.optical.num_nodes());
        assert!(full.optical.num_nodes() < cont.optical.num_nodes());
        assert_eq!(cont.optical.num_nodes(), 42);
    }
}
