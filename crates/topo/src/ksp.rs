//! Shortest-path and K-shortest-paths (Yen) algorithms.
//!
//! Algorithm 1's input `P_{e,k}` — "the *k*-th optical path of link *e*" —
//! is a pre-computed set found with the K-shortest-paths algorithm on the
//! optical topology (§5). Restoration (§8) reruns KSP on the post-failure
//! topology, which we express as a set of banned edges. Inside a search a
//! ban is a mark on the caller's [`DijkstraScratch`], never a hash lookup.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::sync::Arc;

use crate::graph::{EdgeId, Graph, NodeId};
use crate::path::Path;

/// Edge state hiding an edge from the search (fiber lengths are km and
/// never reach it).
pub(crate) const HIDDEN: u32 = u32::MAX;

/// Reusable search memory: Dijkstra's distance/predecessor arenas and
/// frontier heap, plus the ban marks of the query in flight. One Yen run
/// performs `O(k · |path|)` spur searches on one graph; allocating arenas
/// per search and hashing a ban set per relaxed edge dominated the KSP
/// profiles. Cleanup is *sparse*: a search resets only the `dist`/`prev`
/// entries it touched, and every mark is recorded in an undo list and
/// taken back from it — `O(work done)`, not `O(|V| + |E|)`. Arrays are
/// sized to the largest graph seen; between queries all marks are clear.
#[derive(Debug, Default)]
pub struct DijkstraScratch {
    dist: Vec<u64>,
    prev: Vec<Option<(EdgeId, NodeId)>>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    touched: Vec<u32>,
    /// Per edge: `0` = as the graph says, [`HIDDEN`] = banned, anything
    /// else = the edge's length for this query.
    edge_state: Vec<u32>,
    /// `(edge, state before)` per `set_edge`, undone newest first.
    edge_undo: Vec<(u32, u32)>,
    node_banned: Vec<bool>,
    node_undo: Vec<u32>,
    /// A found path's `(edge, node before it)` pairs, destination first:
    /// read back in order, each of the path's slices is built once at
    /// its length.
    trail: Vec<(EdgeId, NodeId)>,
}

impl DijkstraScratch {
    /// A fresh scratch; arenas grow lazily to the graphs searched.
    pub fn new() -> DijkstraScratch {
        DijkstraScratch::default()
    }

    /// Sparsely resets the entries dirtied by the previous search.
    fn reset(&mut self) {
        for &u in &self.touched {
            self.dist[u as usize] = u64::MAX;
            self.prev[u as usize] = None;
        }
        self.touched.clear();
        self.heap.clear();
    }

    /// Grows the arrays to cover `graph` if it is larger than any seen
    /// before; required before marking or searching.
    pub(crate) fn fit(&mut self, graph: &Graph) {
        let nodes = self.dist.len().max(graph.num_nodes());
        self.dist.resize(nodes, u64::MAX);
        self.prev.resize(nodes, None);
        self.node_banned.resize(nodes, false);
        let edges = self.edge_state.len().max(graph.num_edges());
        self.edge_state.resize(edges, 0);
    }

    /// Edge `e`'s state in the query in flight.
    pub(crate) fn edge_state(&self, e: EdgeId) -> u32 {
        self.edge_state[e.0 as usize]
    }

    /// Sets edge `e`'s state for the query in flight.
    pub(crate) fn set_edge(&mut self, e: EdgeId, state: u32) {
        let slot = &mut self.edge_state[e.0 as usize];
        self.edge_undo.push((e.0, *slot));
        *slot = state;
    }

    /// Takes back every `set_edge` after the first `keep`.
    pub(crate) fn undo_edges(&mut self, keep: usize) {
        for (e, before) in self.edge_undo.drain(keep..).rev() {
            self.edge_state[e as usize] = before;
        }
    }

    /// Marks node `n`; `false` if it was marked already.
    fn ban_node(&mut self, n: NodeId) -> bool {
        let fresh = !std::mem::replace(&mut self.node_banned[n.0 as usize], true);
        if fresh {
            self.node_undo.push(n.0);
        }
        fresh
    }

    /// Takes back every `ban_node` after the first `keep`.
    fn undo_nodes(&mut self, keep: usize) {
        for n in self.node_undo.drain(keep..) {
            self.node_banned[n as usize] = false;
        }
    }

    /// [`Path::new`] (which validates the hop sequence against `graph`)
    /// with the length summed over this query's edge lengths — the two
    /// differ only where the caller reweighted an edge.
    fn path(&self, graph: &Graph, nodes: Arc<[NodeId]>, edges: Vec<EdgeId>) -> Path {
        let mut path = Path::new(graph, nodes, edges);
        let length = |&e: &EdgeId| match self.edge_state(e) {
            0 => graph.edge(e).length_km,
            reweighted => reweighted,
        };
        path.length_km = path.edges.iter().map(length).sum();
        path
    }
}

/// Dijkstra shortest path from `src` to `dst` avoiding `banned` edges.
///
/// Ties between equal-length paths are broken deterministically by edge id
/// so that planning runs are reproducible.
pub fn shortest_path(
    graph: &Graph,
    src: NodeId,
    dst: NodeId,
    banned: &HashSet<EdgeId>,
) -> Option<Path> {
    shortest_path_scratch(graph, src, dst, banned, &mut DijkstraScratch::new())
}

/// [`shortest_path`] over caller-owned scratch memory — for callers that
/// run many searches on one graph. It is the first of the k shortest.
pub fn shortest_path_scratch(
    graph: &Graph,
    src: NodeId,
    dst: NodeId,
    banned: &HashSet<EdgeId>,
    scratch: &mut DijkstraScratch,
) -> Option<Path> {
    k_shortest_paths_scratch(graph, src, dst, 1, banned, scratch).pop()
}

/// Dijkstra under the scratch's edge states and node marks (which must
/// [`fit`](DijkstraScratch::fit) `graph`) — the spur-path subproblem of
/// Yen's algorithm. A marked node is never entered, except `dst`.
fn search(graph: &Graph, src: NodeId, dst: NodeId, scratch: &mut DijkstraScratch) -> Option<Path> {
    let n = graph.num_nodes();
    if src.0 as usize >= n || dst.0 as usize >= n || scratch.node_banned[src.0 as usize] {
        return None;
    }
    scratch.reset();
    scratch.dist[src.0 as usize] = 0;
    scratch.touched.push(src.0);
    scratch.heap.push(Reverse((0u64, src.0)));
    while let Some(Reverse((d, u))) = scratch.heap.pop() {
        if d > scratch.dist[u as usize] {
            continue;
        }
        // Keep settling until strictly past `dst`'s distance: heap ties
        // carry only `(dist, node-id)`, so on the first pop of `dst` an
        // equal-distance node may still be queued that would re-relax
        // `dst` through a lower — canonical — edge id. Breaking there
        // made the tie-break depend on node numbering; this does not.
        if d > scratch.dist[dst.0 as usize] {
            break;
        }
        if u == dst.0 {
            continue;
        }
        let u_node = NodeId(u);
        for &e in graph.incident_edges(u_node) {
            let state = scratch.edge_state[e.0 as usize];
            if state == HIDDEN {
                continue;
            }
            let edge = graph.edge(e);
            let v = edge.other(u_node).0 as usize;
            if scratch.node_banned[v] && v != dst.0 as usize {
                continue;
            }
            let nd = d + u64::from(if state == 0 { edge.length_km } else { state });
            let tie = || scratch.prev[v].is_some_and(|(pe, _)| e < pe);
            if nd < scratch.dist[v] || (nd == scratch.dist[v] && tie()) {
                if scratch.dist[v] == u64::MAX {
                    scratch.touched.push(v as u32);
                }
                scratch.dist[v] = nd;
                scratch.prev[v] = Some((e, u_node));
                scratch.heap.push(Reverse((nd, v as u32)));
            }
        }
    }
    if scratch.dist[dst.0 as usize] == u64::MAX {
        return None;
    }
    // Reconstruct.
    scratch.trail.clear();
    let mut cur = dst;
    while cur != src {
        let hop = scratch.prev[cur.0 as usize].expect("reachable node has predecessor");
        scratch.trail.push(hop);
        cur = hop.1;
    }
    let hops = scratch.trail.iter().rev();
    let nodes = hops.clone().map(|&(_, n)| n).chain([dst]).collect();
    let edges = hops.map(|&(e, _)| e).collect();
    Some(scratch.path(graph, nodes, edges))
}

/// Yen's algorithm: the `k` shortest loopless paths from `src` to `dst`,
/// avoiding `banned` edges, ordered by ascending length.
///
/// Returns fewer than `k` paths when the graph does not contain that many
/// distinct loopless paths.
pub fn k_shortest_paths(
    graph: &Graph,
    src: NodeId,
    dst: NodeId,
    k: usize,
    banned: &HashSet<EdgeId>,
) -> Vec<Path> {
    k_shortest_paths_scratch(graph, src, dst, k, banned, &mut DijkstraScratch::new())
}

/// [`k_shortest_paths`] over caller-owned scratch memory, shared across
/// every spur search of the Yen run (and across runs, when the caller
/// loops over many endpoint pairs). `banned` is marked once per call.
pub fn k_shortest_paths_scratch(
    graph: &Graph,
    src: NodeId,
    dst: NodeId,
    k: usize,
    banned: &HashSet<EdgeId>,
    scratch: &mut DijkstraScratch,
) -> Vec<Path> {
    scratch.fit(graph);
    // Ids past the end of the graph name no edge of it: ignored.
    for &e in banned.iter().filter(|e| (e.0 as usize) < graph.num_edges()) {
        scratch.set_edge(e, HIDDEN);
    }
    let paths = yen(graph, src, dst, k, scratch);
    scratch.undo_edges(0);
    paths
}

/// Yen's algorithm under the edge states the caller has set on `scratch`
/// (which must [`fit`](DijkstraScratch::fit) `graph`). The caller's
/// states are left in place for it to read and undo; each spur's own
/// marks are taken back before the next.
pub(crate) fn yen(
    graph: &Graph,
    src: NodeId,
    dst: NodeId,
    k: usize,
    scratch: &mut DijkstraScratch,
) -> Vec<Path> {
    if k == 0 {
        return Vec::new();
    }
    let Some(first) = search(graph, src, dst, scratch) else {
        return Vec::new();
    };
    let callers = scratch.edge_undo.len();
    let mut result = vec![first];
    // Candidate pool; every path ever pooled is still here or in `result`,
    // so scanning the two is the dedup check.
    let mut candidates: Vec<Path> = Vec::new();

    while result.len() < k {
        let last = &result[result.len() - 1];
        // Each node of the previous path (except the terminal) is a spur.
        for i in 0..last.edges.len() {
            // Mark root nodes (except the spur) to keep paths loopless:
            // spur `i` adds the one node spur `i - 1` had not marked.
            if i > 0 {
                scratch.ban_node(last.nodes[i - 1]);
            }
            // Hide edges that would recreate any accepted path sharing
            // this root.
            for p in &result {
                if p.edges.len() > i
                    && p.edges[..i] == last.edges[..i]
                    && p.nodes[..=i] == last.nodes[..=i]
                {
                    scratch.set_edge(p.edges[i], HIDDEN);
                }
            }
            let spur = search(graph, last.nodes[i], dst, scratch);
            scratch.undo_edges(callers);
            let Some(spur) = spur else { continue };
            // Loop check: no spur node may repeat or revisit the root.
            let root = scratch.node_undo.len();
            let loopless = spur.nodes.iter().all(|&n| scratch.ban_node(n));
            scratch.undo_nodes(root);
            let edges = [&last.edges[..i], &spur.edges[..]].concat();
            if loopless && !result.iter().chain(&candidates).any(|p| p.edges == edges) {
                let nodes = last.nodes[..i].iter().chain(&spur.nodes[..]).copied();
                candidates.push(scratch.path(graph, nodes.collect(), edges));
            }
        }
        scratch.undo_nodes(0);
        // Extract the best candidate (shortest; ties by edge sequence for
        // determinism).
        let key = |&i: &usize| (candidates[i].length_km, &candidates[i].edges);
        let Some(best) = (0..candidates.len()).min_by_key(key) else {
            break;
        };
        result.push(candidates.swap_remove(best));
    }
    result
}

/// The pre-mark-array Dijkstra and Yen, verbatim: ban sets are
/// `HashSet`s consulted per relaxed edge and rebuilt per spur. Kept as the
/// reference the differential tests (here and in `route.rs`) compare the
/// production search against, path for path.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// Dijkstra avoiding both banned edges and banned (interior) nodes —
    /// the spur-path subproblem of Yen's algorithm.
    pub(crate) fn shortest_path_banning_nodes(
        graph: &Graph,
        src: NodeId,
        dst: NodeId,
        banned_edges: &HashSet<EdgeId>,
        banned_nodes: &HashSet<NodeId>,
        scratch: &mut DijkstraScratch,
    ) -> Option<Path> {
        let n = graph.num_nodes();
        if src.0 as usize >= n || dst.0 as usize >= n || banned_nodes.contains(&src) {
            return None;
        }
        scratch.fit(graph);
        scratch.reset();
        let DijkstraScratch {
            dist,
            prev,
            heap,
            touched,
            ..
        } = scratch;
        dist[src.0 as usize] = 0;
        touched.push(src.0);
        heap.push(Reverse((0u64, src.0)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            // Keep settling until strictly past `dst`'s distance: heap ties
            // carry only `(dist, node-id)`, so on the first pop of `dst` an
            // equal-distance node may still be queued that would re-relax
            // `dst` through a lower — canonical — edge id. Breaking there
            // made the tie-break depend on node numbering; this does not.
            if d > dist[dst.0 as usize] {
                break;
            }
            if u == dst.0 {
                continue;
            }
            let u_node = NodeId(u);
            for (e, v) in graph.neighbors(u_node, banned_edges) {
                if banned_nodes.contains(&v) && v != dst {
                    continue;
                }
                let nd = d + u64::from(graph.edge(e).length_km);
                let better = nd < dist[v.0 as usize]
                    || (nd == dist[v.0 as usize]
                        && prev[v.0 as usize].is_some_and(|(pe, _)| e < pe));
                if better {
                    if dist[v.0 as usize] == u64::MAX {
                        touched.push(v.0);
                    }
                    dist[v.0 as usize] = nd;
                    prev[v.0 as usize] = Some((e, u_node));
                    heap.push(Reverse((nd, v.0)));
                }
            }
        }
        if dist[dst.0 as usize] == u64::MAX {
            return None;
        }
        // Reconstruct.
        let mut nodes = vec![dst];
        let mut edges = Vec::new();
        let mut cur = dst;
        while cur != src {
            let (e, p) = prev[cur.0 as usize].expect("reachable node has predecessor");
            edges.push(e);
            nodes.push(p);
            cur = p;
        }
        nodes.reverse();
        edges.reverse();
        Some(Path::new(graph, nodes, edges))
    }

    /// [`k_shortest_paths`] over caller-owned Dijkstra scratch memory, shared
    /// across every spur search of the Yen run (and across runs, when the
    /// caller loops over many endpoint pairs of one graph).
    pub(crate) fn k_shortest_paths_scratch(
        graph: &Graph,
        src: NodeId,
        dst: NodeId,
        k: usize,
        banned: &HashSet<EdgeId>,
        scratch: &mut DijkstraScratch,
    ) -> Vec<Path> {
        if k == 0 {
            return Vec::new();
        }
        let first =
            match shortest_path_banning_nodes(graph, src, dst, banned, &HashSet::new(), scratch) {
                Some(p) => p,
                None => return Vec::new(),
            };
        let mut result = vec![first];
        // Candidate pool, kept sorted on extraction; (length, path) with a
        // dedup set to avoid inserting identical spur paths repeatedly.
        let mut candidates: Vec<Path> = Vec::new();
        let mut seen: HashSet<Vec<EdgeId>> = HashSet::new();
        seen.insert(result[0].edges.clone());
        // Spur-ban buffer, cleared and refilled per spur instead of cloning
        // the global ban set every iteration.
        let mut banned_edges: HashSet<EdgeId> = HashSet::new();

        while result.len() < k {
            let last = result.last().expect("at least one accepted path").clone();
            // Each node of the previous path (except the terminal) is a spur.
            for i in 0..last.edges.len() {
                let spur_node = last.nodes[i];
                let root_nodes = last.nodes[..=i].to_vec();
                let root_edges = last.edges[..i].to_vec();

                // Ban edges that would recreate any accepted path sharing this
                // root, plus all globally banned edges.
                banned_edges.clear();
                banned_edges.extend(banned.iter().copied());
                for p in result.iter() {
                    if p.edges.len() > i
                        && p.edges[..i] == root_edges[..]
                        && p.nodes[..=i] == root_nodes[..]
                    {
                        banned_edges.insert(p.edges[i]);
                    }
                }
                // Ban root nodes (except the spur) to keep paths loopless.
                let banned_nodes: HashSet<NodeId> = root_nodes[..i].iter().copied().collect();

                if let Some(spur) = shortest_path_banning_nodes(
                    graph,
                    spur_node,
                    dst,
                    &banned_edges,
                    &banned_nodes,
                    scratch,
                ) {
                    let mut nodes = root_nodes;
                    nodes.extend_from_slice(&spur.nodes[1..]);
                    let mut edges = root_edges;
                    edges.extend_from_slice(&spur.edges);
                    let total = Path::new(graph, nodes, edges);
                    if !total.has_loop() && seen.insert(total.edges.clone()) {
                        candidates.push(total);
                    }
                }
            }
            if candidates.is_empty() {
                break;
            }
            // Extract the best candidate (shortest; ties by edge sequence for
            // determinism).
            let best = candidates
                .iter()
                .enumerate()
                .min_by_key(|(_, p)| (p.length_km, p.edges.clone()))
                .map(|(i, _)| i)
                .expect("non-empty");
            result.push(candidates.swap_remove(best));
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic Yen example grid:
    ///
    /// ```text
    ///   c --3-- d --4-- f
    ///  /|      /|      /
    /// 2 |     2 |     2
    /// |  \   /  |    /
    /// e --1-- . |   /
    ///  (c-e:1) g-3-h(via e--3--g? ) ...
    /// ```
    /// We use a simple 6-node graph with known 3 shortest paths.
    fn sample() -> (Graph, NodeId, NodeId) {
        let mut g = Graph::new();
        let c = g.add_node("c");
        let d = g.add_node("d");
        let e = g.add_node("e");
        let f = g.add_node("f");
        let gg = g.add_node("g");
        let h = g.add_node("h");
        g.add_edge(c, d, 3);
        g.add_edge(c, e, 2);
        g.add_edge(d, e, 1);
        g.add_edge(d, f, 4);
        g.add_edge(e, f, 2);
        g.add_edge(e, gg, 3);
        g.add_edge(f, gg, 2);
        g.add_edge(f, h, 1);
        g.add_edge(gg, h, 2);
        (g, c, h)
    }

    #[test]
    fn dijkstra_shortest() {
        let (g, c, h) = sample();
        let p = shortest_path(&g, c, h, &HashSet::new()).unwrap();
        // c-e(2) e-f(2) f-h(1) = 5.
        assert_eq!(p.length_km, 5);
        assert_eq!(p.num_hops(), 3);
    }

    #[test]
    fn dijkstra_respects_bans() {
        let (g, c, h) = sample();
        let best = shortest_path(&g, c, h, &HashSet::new()).unwrap();
        let banned: HashSet<_> = [best.edges[1]].into_iter().collect(); // cut e-f
        let p = shortest_path(&g, c, h, &banned).unwrap();
        assert!(p.length_km > 5 || !p.uses_edge(best.edges[1]));
        assert!(!p.uses_edge(best.edges[1]));
    }

    #[test]
    fn dijkstra_unreachable() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge(a, b, 1);
        assert!(shortest_path(&g, a, c, &HashSet::new()).is_none());
    }

    #[test]
    fn yen_orders_by_length_and_is_loopless() {
        let (g, c, h) = sample();
        let paths = k_shortest_paths(&g, c, h, 5, &HashSet::new());
        assert!(
            paths.len() >= 3,
            "expected ≥3 distinct paths, got {}",
            paths.len()
        );
        for w in paths.windows(2) {
            assert!(w[0].length_km <= w[1].length_km, "not sorted");
        }
        for p in &paths {
            assert!(!p.has_loop());
            assert_eq!(p.source(), c);
            assert_eq!(p.destination(), h);
        }
        // All distinct.
        let set: HashSet<_> = paths.iter().map(|p| p.edges.clone()).collect();
        assert_eq!(set.len(), paths.len());
        assert_eq!(paths[0].length_km, 5);
    }

    #[test]
    fn yen_k1_equals_dijkstra() {
        let (g, c, h) = sample();
        let p1 = k_shortest_paths(&g, c, h, 1, &HashSet::new());
        let d = shortest_path(&g, c, h, &HashSet::new()).unwrap();
        assert_eq!(p1, vec![d]);
    }

    #[test]
    fn yen_exhausts_small_graph() {
        // Two nodes, two parallel fibers: exactly two loopless paths.
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge(a, b, 10);
        g.add_edge(a, b, 20);
        let paths = k_shortest_paths(&g, a, b, 10, &HashSet::new());
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].length_km, 10);
        assert_eq!(paths[1].length_km, 20);
    }

    #[test]
    fn yen_with_global_ban_models_fiber_cut() {
        let (g, c, h) = sample();
        let all = k_shortest_paths(&g, c, h, 3, &HashSet::new());
        let cut = all[0].edges[0];
        let after = k_shortest_paths(&g, c, h, 3, &[cut].into_iter().collect());
        for p in &after {
            assert!(!p.uses_edge(cut), "restored path must avoid the cut fiber");
        }
    }

    /// Every mark array back to its resting state, every undo list empty.
    fn assert_clean(scratch: &DijkstraScratch) {
        assert!(
            scratch.edge_state.iter().all(|&s| s == 0),
            "edge state left"
        );
        assert!(scratch.node_banned.iter().all(|&b| !b), "node mark left");
        assert!(scratch.edge_undo.is_empty() && scratch.node_undo.is_empty());
    }

    #[test]
    fn one_scratch_survives_graph_changes_and_degenerate_queries() {
        use crate::continental::ScaleParams;
        use crate::route::{k_shortest_routes, k_shortest_routes_scratch};
        use crate::tbackbone::t_backbone;

        let big = t_backbone(&ScaleParams::tbackbone());
        let (g, links) = (&big.optical, big.ip.links());
        let (small, c, h) = sample();
        let mut island = small.clone();
        let lonely = island.add_node("lonely");
        let none = HashSet::new();
        let cut: HashSet<EdgeId> = g.incident_edges(links[3].src).iter().copied().collect();
        // Names edges past the end of `small` (9 edges): one inside the
        // arrays T-backbone sized, one past them, next to a real one.
        let stray: HashSet<EdgeId> = [EdgeId(4), EdgeId(200), EdgeId(1 << 20)].into();
        let real: HashSet<EdgeId> = [EdgeId(4)].into();

        let mut scratch = DijkstraScratch::new();
        let check_big = |scratch: &mut DijkstraScratch| {
            for l in &links[..12] {
                for banned in [&none, &cut] {
                    assert_eq!(
                        k_shortest_routes_scratch(g, l.src, l.dst, 5, banned, scratch),
                        k_shortest_routes(g, l.src, l.dst, 5, banned)
                    );
                    assert_clean(scratch);
                    assert_eq!(
                        k_shortest_paths_scratch(g, l.src, l.dst, 4, banned, scratch),
                        k_shortest_paths(g, l.src, l.dst, 4, banned)
                    );
                    assert_clean(scratch);
                }
            }
        };
        check_big(&mut scratch);
        // A 6-node graph on arrays sized for 40 nodes / 252 fibers.
        assert_eq!(
            k_shortest_paths_scratch(&small, c, h, 4, &stray, &mut scratch),
            k_shortest_paths(&small, c, h, 4, &real)
        );
        assert_clean(&scratch);
        assert_eq!(
            k_shortest_routes_scratch(&small, c, h, 4, &stray, &mut scratch),
            k_shortest_routes(&small, c, h, 4, &real)
        );
        assert_clean(&scratch);
        // k = 0, unreachable, src == dst, endpoints that are not nodes.
        assert!(k_shortest_paths_scratch(&small, c, h, 0, &real, &mut scratch).is_empty());
        assert!(k_shortest_routes_scratch(&small, c, h, 0, &real, &mut scratch).is_empty());
        assert!(k_shortest_paths_scratch(&island, c, lonely, 3, &real, &mut scratch).is_empty());
        assert!(k_shortest_routes_scratch(&island, c, lonely, 3, &real, &mut scratch).is_empty());
        let trivial = k_shortest_paths_scratch(&small, c, c, 3, &real, &mut scratch);
        assert_eq!(trivial.len(), 1);
        assert_eq!((&trivial[0].nodes[..], trivial[0].length_km), (&[c][..], 0));
        assert_eq!(
            k_shortest_routes_scratch(&small, c, c, 3, &real, &mut scratch).len(),
            1
        );
        assert!(k_shortest_paths_scratch(&small, c, NodeId(99), 3, &none, &mut scratch).is_empty());
        assert!(
            k_shortest_routes_scratch(&small, NodeId(99), h, 3, &none, &mut scratch).is_empty()
        );
        assert_clean(&scratch);
        check_big(&mut scratch);
    }

    #[test]
    fn production_search_matches_the_hashset_oracle() {
        // The multigraph sample under every single-edge ban, every
        // endpoint pair: paths `==`, one scratch for both sides.
        let (g, _, _) = sample();
        let mut scratch = DijkstraScratch::new();
        let bans =
            std::iter::once(HashSet::new()).chain(g.edges().iter().map(|e| HashSet::from([e.id])));
        for banned in bans {
            for (s, d) in (0..6).flat_map(|s| (0..6).map(move |d| (NodeId(s), NodeId(d)))) {
                assert_eq!(
                    k_shortest_paths_scratch(&g, s, d, 6, &banned, &mut scratch),
                    oracle::k_shortest_paths_scratch(&g, s, d, 6, &banned, &mut scratch),
                    "{s:?}->{d:?} banned={banned:?}"
                );
            }
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        // One arena across repeated Yen runs, bans, and a different
        // (smaller) graph: sparse cleanup must leave no stale state.
        let (g, c, h) = sample();
        let mut scratch = DijkstraScratch::new();
        for _ in 0..3 {
            let reused = k_shortest_paths_scratch(&g, c, h, 4, &HashSet::new(), &mut scratch);
            assert_eq!(reused, k_shortest_paths(&g, c, h, 4, &HashSet::new()));
        }
        let cut: HashSet<_> = [k_shortest_paths(&g, c, h, 1, &HashSet::new())[0].edges[0]]
            .into_iter()
            .collect();
        assert_eq!(
            k_shortest_paths_scratch(&g, c, h, 3, &cut, &mut scratch),
            k_shortest_paths(&g, c, h, 3, &cut)
        );
        let mut g2 = Graph::new();
        let a2 = g2.add_node("a");
        let b2 = g2.add_node("b");
        g2.add_edge(a2, b2, 3);
        let p = shortest_path_scratch(&g2, a2, b2, &HashSet::new(), &mut scratch).unwrap();
        assert_eq!(p.length_km, 3);
    }

    #[test]
    fn yen_deterministic() {
        let (g, c, h) = sample();
        let a = k_shortest_paths(&g, c, h, 4, &HashSet::new());
        let b = k_shortest_paths(&g, c, h, 4, &HashSet::new());
        assert_eq!(a, b);
    }

    #[test]
    fn equal_cost_tie_takes_canonical_lowest_edge_id() {
        // Node ids are chosen so `t` (id 1) sorts before `u` (id 2) among
        // equal heap keys — the ordering the old first-pop break was
        // sensitive to. Two equal-cost ways into `t`: the direct edge e2
        // and the two-hop route ending in e1. The canonical rule (lowest
        // final edge id among equal-cost predecessors) must pick e1 no
        // matter in which order the heap surfaces the ties.
        let mut g = Graph::new();
        let s = g.add_node("s");
        let t = g.add_node("t");
        let u = g.add_node("u");
        g.add_edge(s, u, 4); // e0
        g.add_edge(u, t, 1); // e1
        g.add_edge(s, t, 5); // e2 — same total cost as e0+e1
        let p = shortest_path(&g, s, t, &HashSet::new()).unwrap();
        assert_eq!(p.length_km, 5);
        assert_eq!(
            p.edges.iter().map(|e| e.0).collect::<Vec<_>>(),
            vec![0, 1],
            "equal-cost tie must resolve to the lowest-edge-id predecessor"
        );
    }

    #[test]
    fn yen_deterministic_across_equal_cost_parallel_edges() {
        // A diamond where both the a→b hop and the b→d hop have two
        // parallel fibers of identical length: every complete path has the
        // same total length, so the edge-id canonicalization alone decides
        // the ordering. Yen's spur calls must keep returning the same
        // paths in the same order, run after run.
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let d = g.add_node("d");
        g.add_edge(a, b, 5); // e0
        g.add_edge(a, b, 5); // e1 (parallel, equal cost)
        g.add_edge(b, d, 7); // e2
        g.add_edge(b, d, 7); // e3 (parallel, equal cost)
        let first = k_shortest_paths(&g, a, d, 4, &HashSet::new());
        assert_eq!(first.len(), 4, "2×2 parallel combinations");
        for p in &first {
            assert_eq!(p.length_km, 12);
        }
        // The shortest path must use the canonical (lowest-id) fibers.
        assert_eq!(
            first[0].edges.iter().map(|e| e.0).collect::<Vec<_>>(),
            vec![0, 2]
        );
        for _ in 0..5 {
            assert_eq!(k_shortest_paths(&g, a, d, 4, &HashSet::new()), first);
        }
    }
}
