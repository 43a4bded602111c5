//! IP-link demand generators.
//!
//! The paper takes IP-link demands as operator-provided inputs (§4.4). For
//! the CERNET evaluation it generates the IP topology and demands "using
//! distributions in \[49\]" (ARROW). ARROW's public description gives a WAN
//! whose IP links connect nearby POP pairs more often than far ones, with
//! heavy-tailed capacities in 100 Gbps multiples; [`arrow_ip_topology`]
//! reproduces that: node pairs drawn with probability ∝ 1/(1+hops)², and
//! demands log-uniform over 200 G–1.6 T rounded to 100 G.

use flexwan_util::rng::ChaCha8Rng;

use crate::continental::ScaleParams;
use crate::graph::{Graph, NodeId};
use crate::ip::IpTopology;
use crate::ksp::shortest_path;

/// Smallest demand the generator draws, Gbps.
const MIN_GBPS: u64 = 200;
/// Largest demand the generator draws, Gbps.
const MAX_GBPS: u64 = 1600;

/// Hop count of the shortest path between two nodes, if connected.
fn hop_distance(g: &Graph, a: NodeId, b: NodeId) -> Option<usize> {
    shortest_path(g, a, b, &Default::default()).map(|p| p.num_hops())
}

/// Generates an ARROW-style IP topology over the optical graph `g`.
///
/// Draws `cfg.ip_links` links, deterministic given `cfg.seed`. Pairs are
/// sampled with locality bias (probability weight `1/(1+hops)²`) and
/// demands log-uniformly between 200 G and 1.6 T, rounded to 100 Gbps.
pub fn arrow_ip_topology(g: &Graph, cfg: &ScaleParams) -> IpTopology {
    assert!(g.num_nodes() >= 2, "need at least two nodes");
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);

    // Precompute pair weights once (the graph is small: tens of nodes).
    let n = g.num_nodes();
    let mut pairs: Vec<(NodeId, NodeId, f64)> = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            let (a, b) = (NodeId(i as u32), NodeId(j as u32));
            if let Some(h) = hop_distance(g, a, b) {
                let w = 1.0 / ((1 + h) as f64).powi(2);
                pairs.push((a, b, w));
            }
        }
    }
    assert!(
        !pairs.is_empty(),
        "graph must be connected enough to form pairs"
    );
    let total_w: f64 = pairs.iter().map(|p| p.2).sum();

    let mut ip = IpTopology::new();
    for _ in 0..cfg.ip_links {
        // Weighted pair draw.
        let mut t = rng.gen_f64() * total_w;
        let mut chosen = pairs.len() - 1;
        for (idx, p) in pairs.iter().enumerate() {
            if t < p.2 {
                chosen = idx;
                break;
            }
            t -= p.2;
        }
        let (a, b, _) = pairs[chosen];
        // Log-uniform demand rounded to 100 G.
        let lo = (MIN_GBPS as f64).ln();
        let hi = (MAX_GBPS as f64).ln();
        let d = (rng.gen_f64() * (hi - lo) + lo).exp();
        let demand = ((d / 100.0).round().max(1.0) as u64) * 100;
        ip.add_link(a, b, demand.clamp(MIN_GBPS, MAX_GBPS));
    }
    ip
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_graph(n: usize) -> Graph {
        let mut g = Graph::new();
        let nodes: Vec<_> = (0..n).map(|i| g.add_node(format!("n{i}"))).collect();
        for w in nodes.windows(2) {
            g.add_edge(w[0], w[1], 100);
        }
        g
    }

    #[test]
    fn deterministic() {
        let g = line_graph(8);
        let cfg = ScaleParams::cernet();
        assert_eq!(arrow_ip_topology(&g, &cfg), arrow_ip_topology(&g, &cfg));
    }

    #[test]
    fn demands_in_bounds_and_rounded() {
        let g = line_graph(10);
        let cfg = ScaleParams {
            ip_links: 200,
            ..ScaleParams::cernet()
        };
        let ip = arrow_ip_topology(&g, &cfg);
        assert_eq!(ip.num_links(), 200);
        for l in ip.links() {
            assert_eq!(l.demand_gbps % 100, 0);
            assert!((MIN_GBPS..=MAX_GBPS).contains(&l.demand_gbps));
        }
    }

    #[test]
    fn locality_bias_favours_near_pairs() {
        let g = line_graph(12);
        let cfg = ScaleParams {
            ip_links: 600,
            seed: 3,
            ..ScaleParams::cernet()
        };
        let ip = arrow_ip_topology(&g, &cfg);
        let near = ip
            .links()
            .iter()
            .filter(|l| (l.src.0 as i64 - l.dst.0 as i64).abs() <= 2)
            .count();
        let far = ip.num_links() - near;
        assert!(
            near > far,
            "expected locality bias: {near} near vs {far} far links"
        );
    }
}
