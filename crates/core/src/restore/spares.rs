//! FlexWAN+ spare placement priced by restoration duals.
//!
//! The paper's FlexWAN+ pool (Figure 16) spreads spares *uniformly*:
//! every link gets half the transponders FlexWAN saved on it, regardless
//! of whether that link ever struggles to restore. The
//! column-generation restorer ([`crate::restore::mip::solve_exact_colgen`])
//! exposes a sharper signal for free: the dual of a link's
//! `restore_count` row is the marginal restored Gbps one extra spare
//! transponder would buy under that failure. Aggregating those duals
//! over the single-conduit-cut suite (probability-weighted) prices every
//! link's spare, and a greedy diminishing-returns allocation of the
//! *same total budget* concentrates spares where restoration is actually
//! transponder-limited.
//!
//! [`choose_spare_pool`] evaluates both pools against the greedy
//! restorer on the same suite and keeps the better one, so the
//! dual-priced placement is never worse than the paper's uniform rule by
//! construction.

use flexwan_solver::SolveOptions;
use flexwan_topo::graph::Graph;
use flexwan_topo::ip::IpTopology;

use crate::planning::heuristic::{Plan, PlannerConfig};
use crate::restore::heuristic::{flexwan_plus_extra_spares, restore};
use crate::restore::mip::restoration_count_duals;
use crate::scenario::conduit_cut_scenarios;

/// Both FlexWAN+ spare pools over the same budget, with their expected
/// restored capacity on the single-conduit-cut suite.
#[derive(Debug, Clone)]
pub struct SparePoolChoice {
    /// The paper's uniform `⌈saved/2⌉` pool.
    pub uniform: Vec<u32>,
    /// The dual-priced pool (same total budget).
    pub dual: Vec<u32>,
    /// Probability-weighted restored Gbps of the uniform pool.
    pub uniform_expected_gbps: f64,
    /// Probability-weighted restored Gbps of the dual-priced pool.
    pub dual_expected_gbps: f64,
    /// Whether the dual-priced pool won the A/B (strictly better).
    pub chose_dual: bool,
}

impl SparePoolChoice {
    /// The winning pool — never worse than uniform by construction.
    pub fn chosen(&self) -> &[u32] {
        if self.chose_dual {
            &self.dual
        } else {
            &self.uniform
        }
    }
}

/// Prices every IP link's spare transponder by its probability-weighted
/// `restore_count` dual over the single-conduit-cut suite, then spends
/// the uniform pool's budget greedily with diminishing returns: the
/// `k`-th spare on a link bids `price/(k+1)`, so high-dual links load up
/// first but cannot monopolize the budget. Links never priced (no
/// scenario makes them transponder-limited) get nothing; if *no* link
/// prices positive the uniform pool comes back unchanged — there is no
/// signal to act on.
fn dual_priced_extra_spares(
    plan: &Plan,
    optical: &Graph,
    ip: &IpTopology,
    cfg: &PlannerConfig,
    opts: &SolveOptions,
) -> Vec<u32> {
    let uniform = flexwan_plus_extra_spares(optical, ip, cfg);
    let budget: u32 = uniform.iter().sum();
    let mut price = vec![0.0f64; ip.num_links()];
    for sc in conduit_cut_scenarios(optical) {
        for &(li, kappa) in &restoration_count_duals(plan, optical, ip, &sc, cfg, opts) {
            price[li] += sc.probability * kappa;
        }
    }
    if budget == 0 || price.iter().all(|&p| p <= 0.0) {
        return uniform;
    }
    let mut alloc = vec![0u32; ip.num_links()];
    for _ in 0..budget {
        // Every bid is a positive price over a positive count, on which
        // `total_cmp` orders as `partial_cmp` does. Ties go to the lower
        // link index — deterministic.
        let bid = |i: usize| price[i] / f64::from(alloc[i] + 1);
        let Some(best) = (0..price.len())
            .filter(|&i| price[i] > 0.0)
            .max_by(|&a, &b| bid(a).total_cmp(&bid(b)).then(b.cmp(&a)))
        else {
            break;
        };
        alloc[best] += 1;
    }
    alloc
}

/// Builds both pools and runs the A/B on the single-conduit-cut suite
/// with the greedy restorer (the production restoration path — spares
/// must help the restorer that actually runs, not just the exact
/// reference).
pub fn choose_spare_pool(
    plan: &Plan,
    optical: &Graph,
    ip: &IpTopology,
    cfg: &PlannerConfig,
    opts: &SolveOptions,
) -> SparePoolChoice {
    let uniform = flexwan_plus_extra_spares(optical, ip, cfg);
    let dual = dual_priced_extra_spares(plan, optical, ip, cfg, opts);
    let scenarios = conduit_cut_scenarios(optical);
    let expected = |spares: &[u32]| -> f64 {
        scenarios
            .iter()
            .map(|s| {
                s.probability * restore(plan, optical, ip, s, spares, cfg).restored_gbps as f64
            })
            .sum()
    };
    let uniform_expected_gbps = expected(&uniform);
    let dual_expected_gbps = expected(&dual);
    SparePoolChoice {
        chose_dual: dual_expected_gbps > uniform_expected_gbps,
        uniform,
        dual,
        uniform_expected_gbps,
        dual_expected_gbps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planning::heuristic::plan;
    use crate::scheme::Scheme;
    use flexwan_optical::spectrum::SpectrumGrid;

    fn instance() -> (Graph, IpTopology) {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, b, 600);
        g.add_edge(a, c, 600);
        g.add_edge(c, b, 600);
        g.add_edge(b, d, 400);
        g.add_edge(c, d, 800);
        let mut ip = IpTopology::new();
        ip.add_link(a, b, 400);
        ip.add_link(b, d, 300);
        (g, ip)
    }

    fn cfg() -> PlannerConfig {
        PlannerConfig {
            grid: SpectrumGrid::new(64),
            k_paths: 2,
            ..Default::default()
        }
    }

    #[test]
    fn dual_pool_preserves_budget() {
        let (g, ip) = instance();
        let c = cfg();
        let p = plan(Scheme::FlexWan, &g, &ip, &c);
        let uniform = flexwan_plus_extra_spares(&g, &ip, &c);
        let dual = dual_priced_extra_spares(&p, &g, &ip, &c, &SolveOptions::default());
        assert_eq!(
            uniform.iter().sum::<u32>(),
            dual.iter().sum::<u32>(),
            "dual-priced pool must spend exactly the uniform budget"
        );
    }

    #[test]
    fn chosen_pool_never_worse_than_uniform() {
        let (g, ip) = instance();
        let c = cfg();
        let p = plan(Scheme::FlexWan, &g, &ip, &c);
        let choice = choose_spare_pool(&p, &g, &ip, &c, &SolveOptions::default());
        let chosen_expected = if choice.chose_dual {
            choice.dual_expected_gbps
        } else {
            choice.uniform_expected_gbps
        };
        assert!(chosen_expected >= choice.uniform_expected_gbps);
        assert_eq!(choice.chosen().len(), ip.num_links());
    }

    #[test]
    fn dual_pool_is_deterministic() {
        let (g, ip) = instance();
        let c = cfg();
        let p = plan(Scheme::FlexWan, &g, &ip, &c);
        let a = dual_priced_extra_spares(&p, &g, &ip, &c, &SolveOptions::default());
        let b = dual_priced_extra_spares(&p, &g, &ip, &c, &SolveOptions::default());
        assert_eq!(a, b);
    }
}
