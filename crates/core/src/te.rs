//! IP-layer traffic engineering: what the optical layer's capacity is
//! *for*.
//!
//! §8 motivates restoration through the IP layer: "The higher restored
//! capacity always reduces the loss of network traffic and the network
//! can achieve higher network availability under failures." This module
//! closes that loop: given the IP-link capacities a plan (or a
//! post-failure restoration) provides, it routes a traffic matrix with a
//! path-based multi-commodity-flow LP (solved by `flexwan-solver`) and
//! reports how much traffic the network can actually carry — the
//! *maximum concurrent flow* `α` (every demand satisfied to fraction α)
//! and the maximum total throughput.
//!
//! The TE formulation follows the classical path-based MCF used by WAN
//! TE systems [32, 33]; candidate IP routes come from KSP over the IP
//! topology, exactly as optical candidate paths come from KSP over the
//! fiber topology.

use std::collections::HashSet;

use flexwan_solver::{Model, Sense, Status};
use flexwan_topo::graph::{Graph, NodeId};
use flexwan_topo::path::Path;

use crate::opt::{candidate_paths, FlowVarSpace};

/// A traffic demand between two routers (distinct from an IP *link*
/// demand: traffic may ride several IP links in sequence).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficDemand {
    /// Ingress router.
    pub src: NodeId,
    /// Egress router.
    pub dst: NodeId,
    /// Offered load, Gbps.
    pub gbps: f64,
}

/// The IP-layer network as the TE solver sees it: routers and capacitated
/// IP links (capacities come from the optical plan).
#[derive(Debug, Clone)]
pub struct IpNetwork {
    /// IP topology: nodes are routers, edges are IP links; edge "length"
    /// is 1 (hop count routing metric).
    pub graph: Graph,
    /// Capacity of each IP link (indexed by edge id), Gbps.
    pub capacity_gbps: Vec<f64>,
}

impl IpNetwork {
    /// Builds an IP network from router count and capacitated links.
    pub fn new(num_routers: usize, links: &[(NodeId, NodeId, f64)]) -> Self {
        let mut graph = Graph::new();
        for i in 0..num_routers {
            graph.add_node(format!("r{i}"));
        }
        let mut capacity = Vec::with_capacity(links.len());
        for &(a, b, cap) in links {
            assert!(cap >= 0.0, "capacity cannot be negative");
            graph.add_edge(a, b, 1); // hop metric
            capacity.push(cap);
        }
        IpNetwork {
            graph,
            capacity_gbps: capacity,
        }
    }
}

/// A TE routing outcome.
#[derive(Debug, Clone)]
pub struct TeOutcome {
    /// Maximum concurrent-flow fraction: every demand is satisfiable to
    /// this fraction simultaneously (≥ 1.0 means all traffic fits).
    pub alpha: f64,
    /// Maximum total throughput when demands may be satisfied unevenly,
    /// Gbps (each demand capped at its offered load).
    pub max_throughput_gbps: f64,
    /// Total offered load, Gbps.
    pub offered_gbps: f64,
}

impl TeOutcome {
    /// Fraction of offered traffic carried under max-throughput routing.
    pub fn carried_fraction(&self) -> f64 {
        if self.offered_gbps == 0.0 {
            1.0
        } else {
            self.max_throughput_gbps / self.offered_gbps
        }
    }
}

/// The up-to-`k` shortest paths of every demand; `None` when some demand
/// has no path at all.
fn demand_paths(net: &IpNetwork, traffic: &[TrafficDemand], k: usize) -> Option<Vec<Vec<Path>>> {
    let none = HashSet::new();
    let queries = traffic.iter().map(|d| (d.src, d.dst, &none));
    let found = candidate_paths(&net.graph, k, queries);
    found
        .map(|paths| (!paths.is_empty()).then_some(paths))
        .collect()
}

/// Routes `traffic` over `net` using up to `k` candidate paths per
/// demand. Returns `None` when some demand has no path at all (the IP
/// topology is partitioned for it).
pub fn route_traffic(net: &IpNetwork, traffic: &[TrafficDemand], k: usize) -> Option<TeOutcome> {
    assert!(k >= 1);
    let offered: f64 = traffic.iter().map(|d| d.gbps).sum();
    if traffic.is_empty() {
        return Some(TeOutcome {
            alpha: f64::INFINITY,
            max_throughput_gbps: 0.0,
            offered_gbps: 0.0,
        });
    }
    let paths_per_demand = demand_paths(net, traffic, k)?;

    // --- Max concurrent flow: maximize α s.t. per-demand flow = α·d. ---
    let alpha = {
        let mut m = Model::new();
        let alpha = m.nonneg("alpha");
        let flows = FlowVarSpace::enumerate(&mut m, &paths_per_demand, net.graph.num_edges());
        // Demand satisfaction: Σ_j f_ij = α·d_i  ⇔  Σ f − d·α = 0.
        m.group("demand");
        for (i, d) in traffic.iter().enumerate() {
            m.eq(flows.demand_expr(i) - d.gbps * alpha, 0.0);
        }
        // Capacity per IP link.
        m.group("capacity");
        for e in net.graph.edges() {
            let expr = flows.edge_expr(e.id);
            if !expr.terms.is_empty() {
                m.le(expr, net.capacity_gbps[e.id.0 as usize]);
            }
        }
        m.end_group();
        m.set_objective(Sense::Maximize, 1.0 * alpha);
        let sol = m.solve();
        match sol.status {
            Status::Optimal => sol.objective,
            Status::Unbounded => f64::INFINITY, // zero-demand edge cases
            _ => return None,
        }
    };

    // --- Max throughput: maximize Σ carried, carried_i ≤ d_i. ---
    let max_throughput = {
        let mut m = Model::new();
        let flows = FlowVarSpace::enumerate(&mut m, &paths_per_demand, net.graph.num_edges());
        m.group("demand");
        for (i, d) in traffic.iter().enumerate() {
            m.le(flows.demand_expr(i), d.gbps);
        }
        m.group("capacity");
        for e in net.graph.edges() {
            let expr = flows.edge_expr(e.id);
            if !expr.terms.is_empty() {
                m.le(expr, net.capacity_gbps[e.id.0 as usize]);
            }
        }
        m.end_group();
        m.set_objective(Sense::Maximize, flows.total_expr());
        let sol = m.solve();
        match sol.status {
            Status::Optimal => sol.objective,
            _ => return None,
        }
    };

    Some(TeOutcome {
        alpha,
        max_throughput_gbps: max_throughput,
        offered_gbps: offered,
    })
}

/// The marginal value of capacity on each IP link: the dual (shadow
/// price) of the link's capacity constraint in the max-throughput LP —
/// "how much more traffic would one extra Gbps on this link carry?".
/// Links whose capacity constraint is slack price at zero. The classic
/// where-to-build-next signal for network planners.
pub fn link_capacity_values(
    net: &IpNetwork,
    traffic: &[TrafficDemand],
    k: usize,
) -> Option<Vec<f64>> {
    assert!(k >= 1);
    if traffic.is_empty() {
        return Some(vec![0.0; net.graph.num_edges()]);
    }
    let paths_per_demand = demand_paths(net, traffic, k)?;
    let mut m = Model::new();
    let flows = FlowVarSpace::enumerate(&mut m, &paths_per_demand, net.graph.num_edges());
    m.group("demand");
    for (i, d) in traffic.iter().enumerate() {
        m.le(flows.demand_expr(i), d.gbps);
    }
    // One capacity row per edge under the named "capacity" group, in edge
    // order; duals are extracted through the group's row handles instead
    // of by raw row position.
    let capacity_group = m.group("capacity");
    for e in net.graph.edges() {
        // Emit the row even when empty so the group stays edge-aligned.
        m.le(flows.edge_expr(e.id), net.capacity_gbps[e.id.0 as usize]);
    }
    m.end_group();
    m.set_objective(Sense::Maximize, flows.total_expr());
    let (sol, duals) = flexwan_solver::solve_lp_with_duals(&m);
    if sol.status != Status::Optimal {
        return None;
    }
    let duals = duals?;
    Some(
        m.group_duals(capacity_group, &duals)
            .into_iter()
            .map(|(_, y)| y)
            .collect(),
    )
}

/// Builds the [`IpNetwork`] provided by a plan — optionally after a
/// failure scenario with a given restoration: each IP link's capacity is
/// the sum of its surviving plus restored wavelengths' data rates.
pub fn network_from_plan(
    num_routers: usize,
    ip: &flexwan_topo::ip::IpTopology,
    plan: &crate::planning::Plan,
    failure: Option<(
        &crate::restore::FailureScenario,
        &crate::restore::Restoration,
    )>,
) -> IpNetwork {
    let mut capacity = vec![0.0f64; ip.num_links()];
    for w in &plan.wavelengths {
        let alive = match failure {
            Some((scenario, _)) => !w.path.edges.iter().any(|e| scenario.cuts.contains(e)),
            None => true,
        };
        if alive {
            capacity[w.link.0 as usize] += f64::from(w.format.data_rate_gbps);
        }
    }
    if let Some((_, restoration)) = failure {
        for rw in &restoration.restored {
            capacity[rw.wavelength.link.0 as usize] +=
                f64::from(rw.wavelength.format.data_rate_gbps);
        }
    }
    let links: Vec<(NodeId, NodeId, f64)> = ip
        .links()
        .iter()
        .map(|l| (l.src, l.dst, capacity[l.id.0 as usize]))
        .collect();
    IpNetwork::new(num_routers, &links)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Square IP network: 4 routers, unit-ish capacities.
    fn square(cap: f64) -> IpNetwork {
        IpNetwork::new(
            4,
            &[
                (NodeId(0), NodeId(1), cap),
                (NodeId(1), NodeId(2), cap),
                (NodeId(2), NodeId(3), cap),
                (NodeId(3), NodeId(0), cap),
            ],
        )
    }

    #[test]
    fn single_demand_two_paths() {
        // 0→2 can split over 0-1-2 and 0-3-2: total 200 over 100-capacity
        // links.
        let net = square(100.0);
        let t = [TrafficDemand {
            src: NodeId(0),
            dst: NodeId(2),
            gbps: 150.0,
        }];
        let out = route_traffic(&net, &t, 3).unwrap();
        assert!((out.max_throughput_gbps - 150.0).abs() < 1e-6);
        assert!(out.alpha > 1.3, "alpha {} should be 200/150", out.alpha);
        assert!((out.alpha - 200.0 / 150.0).abs() < 1e-6);
    }

    #[test]
    fn saturation_caps_alpha() {
        let net = square(100.0);
        let t = [TrafficDemand {
            src: NodeId(0),
            dst: NodeId(2),
            gbps: 400.0,
        }];
        let out = route_traffic(&net, &t, 3).unwrap();
        assert!((out.alpha - 0.5).abs() < 1e-6);
        assert!((out.max_throughput_gbps - 200.0).abs() < 1e-6);
        assert!((out.carried_fraction() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn competing_demands_share_fairly() {
        // Two demands crossing the same links in opposite corners.
        let net = square(100.0);
        let t = [
            TrafficDemand {
                src: NodeId(0),
                dst: NodeId(2),
                gbps: 100.0,
            },
            TrafficDemand {
                src: NodeId(1),
                dst: NodeId(3),
                gbps: 100.0,
            },
        ];
        let out = route_traffic(&net, &t, 3).unwrap();
        // Total ring capacity 400; both demands bidirectionally share it:
        // each can get 100 concurrently (α = 1) but not more than 2.
        assert!(out.alpha >= 1.0 - 1e-9, "alpha {}", out.alpha);
        assert!(out.alpha <= 2.0 + 1e-9);
        assert!((out.max_throughput_gbps - 200.0).abs() < 1e-6);
    }

    #[test]
    fn zero_capacity_link_blocks() {
        let mut net = square(100.0);
        net.capacity_gbps[0] = 0.0; // kill 0–1
        let t = [TrafficDemand {
            src: NodeId(0),
            dst: NodeId(2),
            gbps: 150.0,
        }];
        let out = route_traffic(&net, &t, 3).unwrap();
        // Only the 0-3-2 side remains.
        assert!((out.max_throughput_gbps - 100.0).abs() < 1e-6);
    }

    #[test]
    fn disconnected_demand_is_none() {
        let net = IpNetwork::new(3, &[(NodeId(0), NodeId(1), 100.0)]);
        let t = [TrafficDemand {
            src: NodeId(0),
            dst: NodeId(2),
            gbps: 10.0,
        }];
        assert!(route_traffic(&net, &t, 2).is_none());
    }

    #[test]
    fn empty_traffic_trivially_satisfied() {
        let net = square(10.0);
        let out = route_traffic(&net, &[], 2).unwrap();
        assert_eq!(out.max_throughput_gbps, 0.0);
        assert_eq!(out.carried_fraction(), 1.0);
    }

    #[test]
    fn capacity_values_price_the_bottleneck() {
        // One saturated link on the only path: its shadow price is 1
        // (one more Gbps carries one more Gbps); slack links price 0.
        let net = IpNetwork::new(
            3,
            &[
                (NodeId(0), NodeId(1), 100.0),
                (NodeId(1), NodeId(2), 1000.0),
            ],
        );
        let t = [TrafficDemand {
            src: NodeId(0),
            dst: NodeId(2),
            gbps: 500.0,
        }];
        let values = link_capacity_values(&net, &t, 2).unwrap();
        assert!((values[0] - 1.0).abs() < 1e-6, "{values:?}");
        assert!(values[1].abs() < 1e-6, "{values:?}");
    }

    #[test]
    fn capacity_values_zero_when_uncongested() {
        let net = square(1000.0);
        let t = [TrafficDemand {
            src: NodeId(0),
            dst: NodeId(2),
            gbps: 100.0,
        }];
        let values = link_capacity_values(&net, &t, 3).unwrap();
        assert!(values.iter().all(|v| v.abs() < 1e-6), "{values:?}");
    }

    #[test]
    fn network_from_plan_maps_capacity_and_failure() {
        use crate::planning::{plan, PlannerConfig};
        use crate::restore::{restore, FailureScenario};
        use crate::Scheme;
        use flexwan_optical::spectrum::SpectrumGrid;
        use flexwan_topo::graph::EdgeId;
        use flexwan_topo::ip::IpTopology;

        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge(a, b, 600);
        g.add_edge(a, c, 600);
        g.add_edge(c, b, 600);
        let mut ip = IpTopology::new();
        ip.add_link(a, b, 300);
        let cfg = PlannerConfig {
            grid: SpectrumGrid::new(96),
            ..Default::default()
        };
        let p = plan(Scheme::FlexWan, &g, &ip, &cfg);

        // Healthy: the link has its provisioned 300 G.
        let net = network_from_plan(g.num_nodes(), &ip, &p, None);
        assert_eq!(net.capacity_gbps, vec![300.0]);

        // Cut the primary without restoration: capacity 0.
        let scenario = FailureScenario {
            id: 0,
            cuts: vec![EdgeId(0)],
            probability: 1.0,
        };
        let r = restore(&p, &g, &ip, &scenario, &[], &cfg);
        let dead = network_from_plan(
            g.num_nodes(),
            &ip,
            &p,
            Some((
                &scenario,
                &crate::restore::Restoration {
                    restored: vec![],
                    ..r.clone()
                },
            )),
        );
        assert_eq!(dead.capacity_gbps, vec![0.0]);

        // With restoration: FlexWAN revives the full 300 G (§3.3).
        let alive = network_from_plan(g.num_nodes(), &ip, &p, Some((&scenario, &r)));
        assert_eq!(alive.capacity_gbps, vec![300.0]);
    }
}
