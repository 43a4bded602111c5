//! Routes: node-distinct paths with per-hop parallel-fiber choice.
//!
//! Production conduits carry several fiber pairs between the same two
//! sites. Treating each pair as an independent KSP edge makes Yen's
//! algorithm enumerate permutations of pairs along one physical route
//! before it ever finds a second route. A [`Route`] collapses the
//! parallels: it fixes the node sequence and records, per hop, *all*
//! usable parallel fibers — the spectrum assigner then picks any free
//! pair per hop.
//!
//! Routes are enumerated on the `ConduitView`: the optical graph with
//! each conduit collapsed to one edge, built once and memoized on the
//! graph. A ban never rebuilds it; it becomes per-query edge states on the
//! caller's [`DijkstraScratch`] — a fully cut conduit is hidden, a partly
//! cut one takes its longest survivor's length. Hiding keeps the relative
//! order of the remaining edge ids, which is all the search's tie-breaks
//! read, so the routes equal those of a graph rebuilt from the survivors.

use std::collections::HashSet;
use std::sync::Arc;

use crate::cache::RouteCache;
use crate::graph::{Edge, EdgeId, Graph, NodeId};
use crate::ksp::{yen, DijkstraScratch, HIDDEN};
use crate::path::Path;

/// A node-distinct route with the parallel-fiber alternatives per hop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Visited nodes, source first; every path realized from the route
    /// shares them.
    pub nodes: Arc<[NodeId]>,
    /// For each hop, the usable parallel fibers (ascending length, then
    /// id — deterministic).
    pub hops: Vec<Vec<EdgeId>>,
    /// Conservative route length: per hop, the *longest* usable parallel
    /// (safe for the optical-reach constraint whatever pair is chosen).
    pub length_km: u32,
}

impl Route {
    /// The source node.
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// The destination node.
    pub fn destination(&self) -> NodeId {
        *self.nodes.last().expect("routes are non-empty")
    }

    /// Materializes a [`Path`] from one chosen fiber per hop, sharing the
    /// route's nodes.
    pub fn realize(&self, graph: &Graph, chosen: &[EdgeId]) -> Path {
        assert_eq!(chosen.len(), self.hops.len(), "one fiber per hop");
        Path::new(graph, Arc::clone(&self.nodes), chosen.to_vec())
    }

    /// Whether any hop can use fiber `e`.
    pub fn may_use(&self, e: EdgeId) -> bool {
        self.hops.iter().any(|h| h.contains(&e))
    }
}

/// An optical graph with every conduit — the parallel fibers between one
/// unordered node pair — collapsed to one edge.
#[derive(Debug)]
pub(crate) struct ConduitView {
    /// Same nodes; one edge per conduit, ids in sorted node-pair order,
    /// length = the conduit's longest fiber (so route ordering matches
    /// the conservative route length).
    collapsed: Graph,
    /// Per collapsed edge, its fibers by ascending `(length_km, id)`.
    members: Vec<Vec<EdgeId>>,
    /// Per fiber, its collapsed edge.
    conduit_of: Vec<EdgeId>,
    /// Routes under ban sets inside one conduit — §8's failure unit and
    /// its single-fiber subsets — filled on first use: a cut seen before
    /// is a lookup, a first-seen cut costs the Yen runs it always did
    /// (see [`Graph::detours`]).
    detours: RouteCache,
}

impl ConduitView {
    /// Collapses `graph`; [`Graph::conduit_view`] is the memoized caller.
    pub(crate) fn new(graph: &Graph) -> ConduitView {
        let pair = |e: &Edge| (e.a.min(e.b), e.a.max(e.b));
        let mut fibers: Vec<&Edge> = graph.edges().iter().collect();
        fibers.sort_by_key(|e| (pair(e), e.length_km, e.id));
        let mut view = ConduitView {
            collapsed: Graph::new(),
            members: Vec::new(),
            conduit_of: vec![EdgeId(0); fibers.len()],
            detours: RouteCache::new(),
        };
        for _ in graph.nodes() {
            view.collapsed.add_node(String::new());
        }
        for conduit in fibers.chunk_by(|x, y| pair(x) == pair(y)) {
            // Chunks are non-empty and sorted by length: the last is longest.
            let (a, b) = pair(conduit[0]);
            let longest = conduit[conduit.len() - 1].length_km;
            let id = view.collapsed.add_edge(a, b, longest);
            for f in conduit {
                view.conduit_of[f.id.0 as usize] = id;
            }
            view.members.push(conduit.iter().map(|f| f.id).collect());
        }
        view
    }

    /// The detour memo when every fiber of `banned` — at least one — is
    /// a fiber of one conduit; see [`Graph::detours`].
    pub(crate) fn detours(&self, banned: &HashSet<EdgeId>) -> Option<&RouteCache> {
        let mut conduits = banned.iter().map(|f| self.conduit_of.get(f.0 as usize));
        let first = conduits.next()??;
        conduits.all(|c| c == Some(first)).then_some(&self.detours)
    }
}

/// The `k` shortest node-distinct routes from `src` to `dst`, avoiding
/// `banned` fibers. Parallel fibers between the same node pair are
/// collapsed into hop alternatives; route length (for ordering and for
/// the reach constraint) uses the longest usable parallel per hop.
pub fn k_shortest_routes(
    graph: &Graph,
    src: NodeId,
    dst: NodeId,
    k: usize,
    banned: &HashSet<EdgeId>,
) -> Vec<Route> {
    k_shortest_routes_scratch(graph, src, dst, k, banned, &mut DijkstraScratch::new())
}

/// [`k_shortest_routes`] over caller-owned search memory — callers that
/// enumerate routes for many endpoint pairs (the planner's per-link loop,
/// restoration's per-hit-link loop) reuse one arena across calls.
pub fn k_shortest_routes_scratch(
    graph: &Graph,
    src: NodeId,
    dst: NodeId,
    k: usize,
    banned: &HashSet<EdgeId>,
    scratch: &mut DijkstraScratch,
) -> Vec<Route> {
    let view = graph.conduit_view();
    scratch.fit(&view.collapsed);
    // Each conduit a banned fiber belongs to is examined once: hidden if
    // no fiber survives, else given its longest survivor's length (set
    // even when unchanged — a non-zero state is also what tells the hop
    // lists below to filter). Ids past the end name no fiber: ignored.
    let cut = banned
        .iter()
        .filter_map(|f| view.conduit_of.get(f.0 as usize));
    for &c in cut {
        if scratch.edge_state(c) == 0 {
            let mut survivors = view.members[c.0 as usize].iter().rev();
            let longest = survivors.find(|m| !banned.contains(m));
            scratch.set_edge(c, longest.map_or(HIDDEN, |&m| graph.edge(m).length_km));
        }
    }
    let paths = yen(&view.collapsed, src, dst, k, scratch);
    let hop = |&c: &EdgeId| {
        let members = view.members[c.0 as usize].iter().copied();
        match scratch.edge_state(c) {
            0 => members.collect(),
            _ => members.filter(|m| !banned.contains(m)).collect(),
        }
    };
    let routes = (paths.into_iter())
        .map(|p| Route {
            length_km: p.length_km,
            hops: p.edges.iter().map(hop).collect(),
            nodes: p.nodes,
        })
        .collect();
    scratch.undo_edges(0);
    routes
}

/// Groups fibers into conduits: parallel fibers between the same node
/// pair share a physical conduit, so a backhoe severs them together.
/// Returns the conduit members, deterministically ordered.
pub fn conduits(graph: &Graph) -> Vec<Vec<EdgeId>> {
    let mut groups = graph.conduit_view().members.clone();
    groups.iter_mut().for_each(|members| members.sort());
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cernet::cernet;
    use crate::continental::ScaleParams;
    use crate::ksp::{k_shortest_paths_scratch, oracle};
    use crate::tbackbone::{t_backbone, Backbone};
    use flexwan_util::rng::ChaCha8Rng;
    use std::collections::HashMap;

    /// a ==2 fibers== b ==2 fibers== c, plus a direct long a–c fiber.
    fn plant() -> (Graph, [NodeId; 3]) {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge(a, b, 50); // e0
        g.add_edge(a, b, 52); // e1
        g.add_edge(b, c, 60); // e2
        g.add_edge(b, c, 62); // e3
        g.add_edge(a, c, 400); // e4
        (g, [a, b, c])
    }

    #[test]
    fn routes_are_node_distinct() {
        let (g, [a, _, c]) = plant();
        let routes = k_shortest_routes(&g, a, c, 5, &HashSet::new());
        // Exactly two node-distinct routes: a-b-c and a-c.
        assert_eq!(routes.len(), 2);
        assert_eq!(routes[0].nodes.len(), 3);
        assert_eq!(routes[0].length_km, 52 + 62, "max parallel lengths");
        assert_eq!(routes[0].hops[0], vec![EdgeId(0), EdgeId(1)]);
        assert_eq!(*routes[1].nodes, [a, c]);
        assert_eq!(routes[1].length_km, 400);
    }

    #[test]
    fn banned_fibers_shrink_hops() {
        let (g, [a, _, c]) = plant();
        let banned: HashSet<_> = [EdgeId(0)].into_iter().collect();
        let routes = k_shortest_routes(&g, a, c, 5, &banned);
        assert_eq!(routes[0].hops[0], vec![EdgeId(1)]);
        // Banning the whole first conduit removes the route.
        let banned: HashSet<_> = [EdgeId(0), EdgeId(1)].into_iter().collect();
        let routes = k_shortest_routes(&g, a, c, 5, &banned);
        assert_eq!(routes.len(), 1);
        assert_eq!(*routes[0].nodes, [a, c]);
    }

    #[test]
    fn realize_builds_concrete_path() {
        let (g, [a, _, c]) = plant();
        let routes = k_shortest_routes(&g, a, c, 1, &HashSet::new());
        let p = routes[0].realize(&g, &[EdgeId(1), EdgeId(2)]);
        assert_eq!(p.length_km, 52 + 60);
        assert_eq!(p.destination(), c);
    }

    #[test]
    fn conduit_grouping() {
        let (g, _) = plant();
        let cs = conduits(&g);
        assert_eq!(cs.len(), 3);
        assert!(cs.contains(&vec![EdgeId(0), EdgeId(1)]));
        assert!(cs.contains(&vec![EdgeId(2), EdgeId(3)]));
        assert!(cs.contains(&vec![EdgeId(4)]));
    }

    #[test]
    fn may_use() {
        let (g, [a, _, c]) = plant();
        let routes = k_shortest_routes(&g, a, c, 1, &HashSet::new());
        assert!(routes[0].may_use(EdgeId(0)));
        assert!(routes[0].may_use(EdgeId(3)));
        assert!(!routes[0].may_use(EdgeId(4)));
    }

    /// The per-call rebuild this module used to run, verbatim: regroup the
    /// surviving fibers, build a fresh collapsed `Graph`, run (the oracle)
    /// Yen on it. The differential sweep compares every production route
    /// against it.
    fn oracle_routes(
        graph: &Graph,
        src: NodeId,
        dst: NodeId,
        k: usize,
        banned: &HashSet<EdgeId>,
        scratch: &mut DijkstraScratch,
    ) -> Vec<Route> {
        // Collapsed graph: one edge per unordered node pair, weight = max
        // usable parallel length (so route ordering matches the conservative
        // route length).
        let mut groups: HashMap<(NodeId, NodeId), Vec<EdgeId>> = HashMap::new();
        for e in graph.edges() {
            if banned.contains(&e.id) {
                continue;
            }
            let key = if e.a <= e.b { (e.a, e.b) } else { (e.b, e.a) };
            groups.entry(key).or_default().push(e.id);
        }
        let mut collapsed = Graph::new();
        for n in graph.nodes() {
            collapsed.add_node(n.name.clone());
        }
        // Map collapsed edge id → parallel group (sorted), in insertion order.
        let mut group_of: Vec<Vec<EdgeId>> = Vec::new();
        let mut keys: Vec<(NodeId, NodeId)> = groups.keys().copied().collect();
        keys.sort();
        for key in keys {
            let mut members = groups.remove(&key).expect("key from map");
            members.sort_by_key(|&e| (graph.edge(e).length_km, e));
            let max_len = members
                .iter()
                .map(|&e| graph.edge(e).length_km)
                .max()
                .expect("non-empty group");
            collapsed.add_edge(key.0, key.1, max_len);
            group_of.push(members);
        }

        oracle::k_shortest_paths_scratch(&collapsed, src, dst, k, &HashSet::new(), scratch)
            .into_iter()
            .map(|p| Route {
                length_km: p.length_km,
                hops: p
                    .edges
                    .iter()
                    .map(|e| group_of[e.0 as usize].clone())
                    .collect(),
                nodes: p.nodes,
            })
            .collect()
    }

    fn cut(fibers: &[&[EdgeId]]) -> HashSet<EdgeId> {
        fibers.iter().flat_map(|f| f.iter().copied()).collect()
    }

    /// No ban, every conduit, every single fiber (a partial cut of its
    /// conduit: the longest parallel either survives or is the one cut,
    /// which changes that hop's weight), seeded two-fiber cuts in
    /// different conduits, seeded two-conduit cuts, and the fibers around
    /// the first link's source (which disconnects that link).
    fn ban_sets(b: &Backbone, pairs: usize, rng: &mut ChaCha8Rng) -> Vec<HashSet<EdgeId>> {
        let groups = conduits(&b.optical);
        let mut sets = vec![HashSet::new()];
        sets.extend(groups.iter().map(|c| cut(&[c])));
        sets.extend(b.optical.edges().iter().map(|e| cut(&[&[e.id]])));
        for _ in 0..pairs {
            let x = rng.gen_range(0..groups.len());
            let y = (x + rng.gen_range(1..groups.len())) % groups.len();
            let (cx, cy) = (&groups[x], &groups[y]);
            let fx = cx[rng.gen_range(0..cx.len())];
            let fy = cy[rng.gen_range(0..cy.len())];
            sets.push(cut(&[&[fx], &[fy]]));
            sets.push(cut(&[cx, cy]));
        }
        sets.push(cut(&[b.optical.incident_edges(b.ip.links()[0].src)]));
        sets
    }

    /// Compares production against the oracles for every ban set of
    /// [`ban_sets`] — routes at k ∈ {1, 3, 5}, raw multigraph paths at
    /// k = 4 — over one reused scratch. Release builds (the CI sweep gate)
    /// run every IP link under every ban; debug builds run a seeded quarter
    /// of the links whose shortest unbanned route crosses the cut (the
    /// restoration query) and 1/64 of the rest.
    /// Returns the number of queries compared.
    fn differential_sweep(b: &Backbone, pairs: usize, seed: u64) -> usize {
        let g = &b.optical;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut scratch = DijkstraScratch::new();
        let none = HashSet::new();
        let unbanned: Vec<Vec<Route>> = (b.ip.links().iter())
            .map(|l| k_shortest_routes(g, l.src, l.dst, 5, &none))
            .collect();
        let mut compared = 0;
        for banned in ban_sets(b, pairs, &mut rng) {
            for (link, lit) in b.ip.links().iter().zip(&unbanned) {
                let crosses = banned.iter().any(|&f| lit[0].may_use(f));
                if cfg!(debug_assertions) && rng.gen_range(0..64) >= if crosses { 16 } else { 1 } {
                    continue;
                }
                let (s, d) = (link.src, link.dst);
                for k in [1, 3, 5] {
                    assert_eq!(
                        k_shortest_routes_scratch(g, s, d, k, &banned, &mut scratch),
                        oracle_routes(g, s, d, k, &banned, &mut scratch),
                        "routes {s:?}->{d:?} k={k} banned={banned:?}"
                    );
                }
                assert_eq!(
                    k_shortest_paths_scratch(g, s, d, 4, &banned, &mut scratch),
                    oracle::k_shortest_paths_scratch(g, s, d, 4, &banned, &mut scratch),
                    "paths {s:?}->{d:?} banned={banned:?}"
                );
                compared += 4;
            }
        }
        compared
    }

    #[test]
    fn differential_tbackbone_matches_the_per_call_rebuild() {
        let b = t_backbone(&ScaleParams::tbackbone());
        let compared = differential_sweep(&b, 48, 21);
        assert!(compared > 1_000, "sweep too thin: {compared}");
    }

    #[test]
    fn differential_cernet_matches_the_per_call_rebuild() {
        let b = cernet(&ScaleParams::cernet());
        let compared = differential_sweep(&b, 48, 22);
        assert!(compared > 1_000, "sweep too thin: {compared}");
    }

    #[test]
    fn disconnecting_ban_yields_no_route() {
        let b = t_backbone(&ScaleParams::tbackbone());
        let l = &b.ip.links()[0];
        let banned = cut(&[b.optical.incident_edges(l.src)]);
        assert!(k_shortest_routes(&b.optical, l.src, l.dst, 5, &banned).is_empty());
        assert!(oracle_routes(
            &b.optical,
            l.src,
            l.dst,
            5,
            &banned,
            &mut DijkstraScratch::new()
        )
        .is_empty());
    }
}
