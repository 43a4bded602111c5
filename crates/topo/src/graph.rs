//! Undirected weighted multigraph used for both the IP and optical layers.
//!
//! Nodes are ROADM sites (optical layer) or routers (IP layer); edges are
//! fibers with a physical length in km. The graph is append-only — failures
//! are modeled by passing a set of banned edges to the path algorithms
//! rather than by mutating the topology, which keeps failure-scenario
//! evaluation cheap and side-effect free. Append-only also means "memo
//! reset on append": what route enumeration derives from the graph (the
//! [conduit view](crate::route) and its [detour memo](Graph::detours)) is
//! built on first use and kept until the next `add_node` / `add_edge`, the
//! only two mutations there are.

use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

use crate::cache::RouteCache;
use crate::route::ConduitView;

/// Identifier of a node (ROADM site / router).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Identifier of an edge (fiber segment between adjacent sites).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

/// A node with a human-readable site name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// The node's identifier.
    pub id: NodeId,
    /// Site name (city / POP).
    pub name: String,
}

/// An undirected fiber edge with a physical length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// The edge's identifier.
    pub id: EdgeId,
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Physical fiber length, km.
    pub length_km: u32,
}

impl Edge {
    /// The endpoint opposite `n`; panics if `n` is not an endpoint.
    pub fn other(&self, n: NodeId) -> NodeId {
        if n == self.a {
            self.b
        } else {
            assert_eq!(
                n, self.b,
                "node {n:?} is not an endpoint of edge {:?}",
                self.id
            );
            self.a
        }
    }
}

/// An undirected weighted multigraph.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    adjacency: Vec<Vec<EdgeId>>,
    /// Memo of [`Graph::conduit_view`]: a function of the fields above, so
    /// `==` ignores it, `clone` shares it and every append resets it.
    conduits: OnceLock<Arc<ConduitView>>,
}

impl PartialEq for Graph {
    /// Nodes and edges decide: `adjacency` and the memo are derived.
    fn eq(&self, other: &Graph) -> bool {
        self.nodes == other.nodes && self.edges == other.edges
    }
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Adds a node named `name`, returning its id.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            id,
            name: name.into(),
        });
        self.adjacency.push(Vec::new());
        self.conduits = OnceLock::new();
        id
    }

    /// Adds an undirected edge between `a` and `b` with the given length.
    /// Parallel edges (common in real backbones: multiple fiber pairs along
    /// one conduit) are allowed; self-loops are not.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, length_km: u32) -> EdgeId {
        assert!(a != b, "self-loop fibers are not meaningful");
        assert!((a.0 as usize) < self.nodes.len() && (b.0 as usize) < self.nodes.len());
        assert!(length_km > 0, "fiber length must be positive");
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge {
            id,
            a,
            b,
            length_km,
        });
        self.adjacency[a.0 as usize].push(id);
        self.adjacency[b.0 as usize].push(id);
        self.conduits = OnceLock::new();
        id
    }

    /// The conduit-collapsed view of this graph that route enumeration
    /// searches, built on first use (once, also under concurrent first
    /// use) and kept until the next append.
    pub(crate) fn conduit_view(&self) -> &ConduitView {
        self.conduits.get_or_init(|| ConduitView::new(self).into())
    }

    /// The graph's memo of single-conduit detours: a [`RouteCache`] for
    /// the queries whose ban set is one conduit or some of its fibers —
    /// §8's failure unit and its single-fiber subsets. A cut's detours
    /// depend only on the graph and the cut, so whoever restores the same
    /// cut again reads what the first restorer computed. Like the conduit
    /// view it is filled on first use, shared by clones and dropped by
    /// every append; it answers for this graph only.
    ///
    /// `None` — ask a cache of your own — for the empty set, a set that
    /// spans conduits and a set naming a fiber the graph does not have.
    pub fn detours(&self, banned: &HashSet<EdgeId>) -> Option<&RouteCache> {
        self.conduit_view().detours(banned)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The node with id `n`.
    pub fn node(&self, n: NodeId) -> &Node {
        &self.nodes[n.0 as usize]
    }

    /// The edge with id `e`.
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.0 as usize]
    }

    /// Looks a node up by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().find(|n| n.name == name).map(|n| n.id)
    }

    /// Edges incident to `n`.
    pub fn incident_edges(&self, n: NodeId) -> &[EdgeId] {
        &self.adjacency[n.0 as usize]
    }

    /// Neighbor nodes of `n` with the connecting edge, skipping `banned`
    /// edges.
    pub fn neighbors<'a>(
        &'a self,
        n: NodeId,
        banned: &'a HashSet<EdgeId>,
    ) -> impl Iterator<Item = (EdgeId, NodeId)> + 'a {
        self.adjacency[n.0 as usize]
            .iter()
            .filter(move |e| !banned.contains(e))
            .map(move |&e| (e, self.edge(e).other(n)))
    }

    /// Whether the graph is connected when `banned` edges are removed
    /// (single-component check by BFS from node 0).
    pub fn is_connected(&self, banned: &HashSet<EdgeId>) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(n) = stack.pop() {
            for (_, m) in self.neighbors(n, banned) {
                if !seen[m.0 as usize] {
                    seen[m.0 as usize] = true;
                    count += 1;
                    stack.push(m);
                }
            }
        }
        count == self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (Graph, [NodeId; 3], [EdgeId; 3]) {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let ab = g.add_edge(a, b, 100);
        let bc = g.add_edge(b, c, 200);
        let ca = g.add_edge(c, a, 300);
        (g, [a, b, c], [ab, bc, ca])
    }

    #[test]
    fn build_and_lookup() {
        let (g, [a, b, _c], [ab, ..]) = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.node_by_name("b"), Some(b));
        assert_eq!(g.node_by_name("zzz"), None);
        assert_eq!(g.edge(ab).other(a), b);
        assert_eq!(g.edge(ab).other(b), a);
    }

    #[test]
    fn neighbors_respect_banned() {
        let (g, [a, ..], [ab, _, ca]) = triangle();
        let none = HashSet::new();
        assert_eq!(g.neighbors(a, &none).count(), 2);
        let banned: HashSet<_> = [ab].into_iter().collect();
        let n: Vec<_> = g.neighbors(a, &banned).collect();
        assert_eq!(n.len(), 1);
        assert_eq!(n[0].0, ca);
    }

    #[test]
    fn connectivity_under_cuts() {
        let (g, _, [ab, bc, ca]) = triangle();
        assert!(g.is_connected(&HashSet::new()));
        assert!(g.is_connected(&[ab].into_iter().collect()));
        assert!(!g.is_connected(&[ab, ca].into_iter().collect()));
        let _ = bc;
    }

    #[test]
    fn parallel_edges_allowed() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let e1 = g.add_edge(a, b, 80);
        let e2 = g.add_edge(a, b, 90);
        assert_ne!(e1, e2);
        assert_eq!(g.incident_edges(a).len(), 2);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loops_rejected() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        g.add_edge(a, a, 10);
    }

    /// a ==2 fibers== b ==1 fiber== c.
    fn plant() -> (Graph, [NodeId; 3]) {
        let mut g = Graph::new();
        let [a, b, c] = ["a", "b", "c"].map(|n| g.add_node(n));
        g.add_edge(a, b, 50);
        g.add_edge(a, b, 52);
        g.add_edge(b, c, 60);
        (g, [a, b, c])
    }

    #[test]
    fn conduit_view_is_built_once_and_shared() {
        let (g, _) = plant();
        assert!(std::ptr::eq(g.conduit_view(), g.conduit_view()));
        // Concurrent first use: both threads leave the barrier together
        // and must come back with the one allocation.
        let (cold, _) = plant();
        let barrier = std::sync::Barrier::new(2);
        let first_use = || {
            barrier.wait();
            cold.conduit_view() as *const ConduitView as usize
        };
        let (x, y) = std::thread::scope(|s| {
            let other = s.spawn(first_use);
            (first_use(), other.join().ok())
        });
        assert_eq!(Some(x), y);
        // A clone shares the memo instead of rebuilding it.
        assert!(std::ptr::eq(g.clone().conduit_view(), g.conduit_view()));
    }

    #[test]
    fn appends_reset_the_memo() {
        use crate::route::k_shortest_routes;
        let none = HashSet::new();
        let (mut g, [a, b, c]) = plant();
        let (mut fresh, _) = plant();
        let routes = |g: &Graph, dst| k_shortest_routes(g, a, dst, 4, &none);
        // Each append follows a query (so a stale memo would be consulted)
        // and is compared against a graph that was never queried before.
        assert_eq!(routes(&g, c).len(), 1);
        for (x, y, km) in [(a, b, 51), (a, c, 400), (b, c, 75)] {
            // A new parallel on a conduit, a new conduit, a new longest.
            g.add_edge(x, y, km);
            fresh.add_edge(x, y, km);
            assert_eq!(routes(&g, c), routes(&fresh.clone(), c));
        }
        let got = routes(&g, c);
        assert_eq!(got[0].hops[0], vec![EdgeId(0), EdgeId(3), EdgeId(1)]);
        assert_eq!((got[0].length_km, got[1].length_km), (52 + 75, 400));
        let d = g.add_node("d");
        assert!(routes(&g, d).is_empty());
        g.add_edge(c, d, 10);
        assert_eq!(routes(&g, d)[0].length_km, 52 + 75 + 10);
    }

    /// The detour memo takes a ban set inside one conduit and nothing
    /// else, a refused set leaves it as it was, a hit is the very list a
    /// fresh computation returns, and only an append drops it.
    #[test]
    fn detours_are_memoized_per_conduit_and_reset_on_append() {
        use crate::route::k_shortest_routes;
        let (g, [a, _, c]) = plant();
        let ban = |ids: &[u32]| -> HashSet<EdgeId> { ids.iter().map(|&i| EdgeId(i)).collect() };
        let memo = g.detours(&ban(&[0])).expect("one fiber of conduit a-b");
        let counts = |m: &RouteCache| (m.len(), m.hits(), m.misses());
        for accepted in [ban(&[1]), ban(&[0, 1]), ban(&[2])] {
            assert!(std::ptr::eq(g.detours(&accepted).unwrap(), memo));
        }
        let conduit = ban(&[0, 1]);
        let routes = memo.routes(&g, a, c, 3, &conduit);
        assert_eq!(*routes, k_shortest_routes(&g, a, c, 3, &conduit));
        assert!(Arc::ptr_eq(&routes, &memo.routes(&g, a, c, 3, &conduit)));
        assert_eq!(counts(memo), (1, 1, 1));
        // Empty, across conduits, a fiber the graph does not have (alone
        // and beside a real one): refused, and nothing is recorded.
        for refused in [ban(&[]), ban(&[0, 2]), ban(&[3]), ban(&[0, 99])] {
            assert!(g.detours(&refused).is_none(), "{refused:?}");
        }
        assert_eq!(counts(memo), (1, 1, 1));
        // A clone shares the memo until it grows; growing it leaves the
        // original's memo alone.
        let mut grown = g.clone();
        assert!(std::ptr::eq(grown.detours(&conduit).unwrap(), memo));
        grown.add_edge(a, c, 70);
        assert!(grown.detours(&conduit).unwrap().is_empty());
        assert!(
            grown.detours(&ban(&[3])).is_some(),
            "the new fiber is known"
        );
        assert_eq!(counts(g.detours(&conduit).unwrap()), (1, 1, 1));
    }

    #[test]
    fn equality_ignores_the_memo_and_clones_are_independent() {
        use crate::route::k_shortest_routes;
        let none = HashSet::new();
        let (g, [a, _, c]) = plant();
        let cold = g.clone();
        assert_eq!(g, cold);
        let before = k_shortest_routes(&g, a, c, 4, &none);
        assert_eq!(g, cold, "queried vs never queried");
        assert_eq!(cold, g);
        let mut grown = g.clone();
        assert_eq!(g, grown, "both queried");
        grown.add_edge(a, c, 70);
        assert_ne!(g, grown);
        assert_eq!(k_shortest_routes(&grown, a, c, 4, &none).len(), 2);
        assert_eq!(k_shortest_routes(&g, a, c, 4, &none), before);
    }
}
