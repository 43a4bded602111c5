//! Canonical evaluation instances behind one scale-parametric surface:
//! every experiment binary builds its topology through [`ScaleParams`].
//! The primary instance is the paper's 8×5 T-backbone
//! ([`ScaleParams::tbackbone`]), the tier the committed `results/` files
//! are regenerated at; CERNET, the continental instance and its parity
//! shrink are the other families the experiments read.

use flexwan_core::planning::PlannerConfig;
use flexwan_topo::continental::{continental, Continental, Family, ScaleParams};
use flexwan_topo::tbackbone::Backbone;

/// The primary synthetic instance: the paper's 8×5 T-backbone.
pub fn tbackbone_instance() -> Backbone {
    ScaleParams::tbackbone().build(Family::TBackbone)
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
        let a = tbackbone_instance();
        let b = tbackbone_instance();
        assert_eq!(a.optical, b.optical);
        let c = cernet_instance();
        assert_eq!(c.optical.num_nodes(), 35);
    }
}
