//! Optical paths: the sequence of fibers a wavelength traverses.

use std::sync::Arc;

use crate::graph::{EdgeId, Graph, NodeId};

/// A loopless path through the optical topology.
///
/// `nodes` has one more element than `edges`; `edges[i]` connects `nodes[i]`
/// to `nodes[i+1]`. `length_km` is the sum of fiber lengths — the
/// `|P_{e,k}|` of the paper's optical-reach constraint (2).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    /// Visited nodes, source first. Shared, not copied, by every path
    /// realized from one [`Route`](crate::route::Route): the wavelengths
    /// of a route differ only in their fibers.
    pub nodes: Arc<[NodeId]>,
    /// Traversed edges, in order.
    pub edges: Vec<EdgeId>,
    /// Total physical length, km.
    pub length_km: u32,
}

impl Path {
    /// Builds a path from its node/edge sequence, validating consistency
    /// against `graph` and computing the length.
    pub fn new(graph: &Graph, nodes: impl Into<Arc<[NodeId]>>, edges: Vec<EdgeId>) -> Self {
        let nodes = nodes.into();
        assert_eq!(nodes.len(), edges.len() + 1, "path shape mismatch");
        let mut length: u32 = 0;
        for (i, &e) in edges.iter().enumerate() {
            let edge = graph.edge(e);
            assert!(
                (edge.a == nodes[i] && edge.b == nodes[i + 1])
                    || (edge.b == nodes[i] && edge.a == nodes[i + 1]),
                "edge {e:?} does not connect consecutive path nodes"
            );
            length += edge.length_km;
        }
        Path {
            nodes,
            edges,
            length_km: length,
        }
    }

    /// The source node.
    pub fn source(&self) -> NodeId {
        *self.nodes.first().expect("path has at least one node")
    }

    /// The destination node.
    pub fn destination(&self) -> NodeId {
        *self.nodes.last().expect("path has at least one node")
    }

    /// Number of fiber hops.
    pub fn num_hops(&self) -> usize {
        self.edges.len()
    }

    /// Whether the path traverses fiber `e` — the `π^{e,k}_φ` indicator of
    /// Algorithm 1.
    pub fn uses_edge(&self, e: EdgeId) -> bool {
        self.edges.contains(&e)
    }

    /// Whether the path revisits any node (should never hold for KSP
    /// output; checked in tests and property tests).
    pub fn has_loop(&self) -> bool {
        let mut seen = std::collections::HashSet::new();
        self.nodes.iter().any(|n| !seen.insert(*n))
    }
}

impl std::fmt::Display for Path {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let hops: Vec<String> = self.nodes.iter().map(|n| n.0.to_string()).collect();
        write!(f, "{} ({} km)", hops.join("→"), self.length_km)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_construction_and_accessors() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let ab = g.add_edge(a, b, 100);
        let bc = g.add_edge(b, c, 250);
        let p = Path::new(&g, vec![a, b, c], vec![ab, bc]);
        assert_eq!(p.length_km, 350);
        assert_eq!(p.source(), a);
        assert_eq!(p.destination(), c);
        assert_eq!(p.num_hops(), 2);
        assert!(p.uses_edge(ab));
        assert!(!p.has_loop());
        assert_eq!(p.to_string(), "0→1→2 (350 km)");
    }

    #[test]
    #[should_panic(expected = "does not connect")]
    fn rejects_disconnected_sequence() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let ab = g.add_edge(a, b, 100);
        let _bc = g.add_edge(b, c, 250);
        // Claims ab connects a→c.
        let _ = Path::new(&g, vec![a, c], vec![ab]);
    }

    #[test]
    fn loop_detection() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let ab = g.add_edge(a, b, 100);
        let ba = g.add_edge(a, b, 120);
        let p = Path::new(&g, vec![a, b, a], vec![ab, ba]);
        assert!(p.has_loop());
    }
}
