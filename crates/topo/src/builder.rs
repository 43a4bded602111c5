//! Shared instance-construction machinery for the embedded geographic
//! topologies (CERNET, NSFNET): a city table plus an adjacency table in,
//! a [`Graph`] with great-circle-derived fiber lengths out.
//!
//! Both embedded topologies follow the same recipe — register every city
//! as a node in table order, then add one fiber per adjacency with
//! [`fiber_km`] of the endpoints' coordinates — so the recipe lives here
//! once and `cernet.rs` / `nsfnet.rs` reduce to their data tables. The
//! construction is byte-for-byte the code each module previously inlined:
//! goldens over either topology are unchanged.

use crate::continental::ScaleParams;
use crate::demand::arrow_ip_topology;
use crate::geo::fiber_km;
use crate::graph::Graph;
use crate::tbackbone::Backbone;

/// A named city with (latitude, longitude), as the embedded topology
/// tables declare them.
pub type GeoCity = (&'static str, f64, f64);

/// Builds an optical topology from a city table and an adjacency table:
/// nodes in table order, one fiber per adjacency with its length derived
/// from the endpoints' great-circle distance times the routing detour
/// factor. `what` names the topology in panic messages for typos in the
/// adjacency table.
fn geo_graph(cities: &[GeoCity], edges: &[(&str, &str)], what: &str) -> Graph {
    let mut g = Graph::new();
    for (name, _, _) in cities {
        g.add_node(*name);
    }
    let coord = |name: &str| -> (f64, f64) {
        cities
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, la, lo)| (la, lo))
            .unwrap_or_else(|| panic!("unknown {what} city {name}"))
    };
    for (a, b) in edges {
        let na = g.node_by_name(a).expect("city registered");
        let nb = g.node_by_name(b).expect("city registered");
        g.add_edge(na, nb, fiber_km(coord(a), coord(b)));
    }
    g
}

/// The optical topology of a city table and an adjacency table (nodes in
/// table order, great-circle-derived fiber lengths) plus an ARROW-style
/// IP topology and demand set over it (`cfg`'s IP link count and seed):
/// the full [`Backbone`] the evaluation instances hand to the planner.
pub fn geo_backbone(
    cities: &[GeoCity],
    edges: &[(&str, &str)],
    what: &str,
    cfg: &ScaleParams,
) -> Backbone {
    let optical = geo_graph(cities, edges, what);
    let ip = arrow_ip_topology(&optical, cfg);
    Backbone { optical, ip }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_in_table_order() {
        let cities: &[GeoCity] = &[("A", 10.0, 20.0), ("B", 11.0, 21.0), ("C", 12.0, 22.0)];
        let g = geo_graph(cities, &[("A", "B"), ("B", "C")], "test");
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.nodes()[0].name, "A");
        assert_eq!(g.nodes()[2].name, "C");
        assert_eq!(g.num_edges(), 2);
        assert!(g.edges().iter().all(|e| e.length_km > 0));
    }

    #[test]
    fn backbone_carries_arrow_demands() {
        let cities: &[GeoCity] = &[("A", 10.0, 20.0), ("B", 11.0, 21.0), ("C", 12.0, 22.0)];
        let edges = &[("A", "B"), ("B", "C"), ("A", "C")];
        let cfg = ScaleParams {
            ip_links: 5,
            ..ScaleParams::cernet()
        };
        let b = geo_backbone(cities, edges, "test", &cfg);
        assert_eq!(b.ip.num_links(), 5);
        assert!(b.ip.links().iter().all(|l| l.demand_gbps > 0));
    }
}
