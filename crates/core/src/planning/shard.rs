//! Region-sharded planning for continental-scale backbones
//! (DESIGN.md §13).
//!
//! A continental instance decomposes along its region structure: metros
//! inside a region exchange traffic over intra-region fibers, and
//! inter-region traffic funnels through each region's hub onto a
//! long-haul hub core. This module exploits that shape:
//!
//! 1. **Partition** ([`partition`]) — every node belongs to exactly one
//!    region; every fiber is intra-region or a core (inter-region) fiber;
//!    every IP link is owned by exactly one region or is a *boundary
//!    demand* (endpoints in different regions). A boundary demand
//!    decomposes into up to three segments: a tail from the source metro
//!    to its hub, a hub-to-hub core segment, and a tail on the
//!    destination side.
//! 2. **Core first** — boundary demands are aggregated per hub pair and
//!    solved over the core fibers (exact MIP, column generation, or the
//!    heuristic — [`ShardSolver`]). The resulting inter-hub wavelength
//!    assignments are *frozen*: regions never touch core fibers, so the
//!    realized hub-to-hub capacity becomes a boundary constraint
//!    distributed to the boundary demands in input order.
//! 3. **Region fan-out** — each region solves its owned links plus the
//!    tail segments of its boundary demands. The core and the regions go
//!    through one dispatch: a heuristic shard runs on the *full* graph
//!    with every fiber outside it banned, so one shared [`RouteCache`]
//!    serves all shards (the cache key is global `(src, dst, k, banned)`
//!    — renumbered subgraphs would alias); an exact shard runs on a
//!    deterministically renumbered subgraph and its wavelengths are
//!    lifted back to global ids. The region fan-out runs on
//!    [`flexwan_util::pool`], whose in-order result collection makes the
//!    outcome bit-identical at any thread count.
//! 4. **Boundary coordination** — a tail that realizes less capacity
//!    than the frozen core granted re-prices the boundary demand down to
//!    the end-to-end minimum of its segments, and every region holding a
//!    tail of a re-priced demand is re-solved against the new targets.
//!    Targets are non-negative integers and strictly decrease whenever a
//!    round re-solves anything, so coordination terminates; a cap of
//!    eight solve waves bounds the worst case.
//!
//! Determinism: the partition is a pure function of the inputs; RNG is
//! never consulted; the pool returns results in input order; and every
//! aggregate the coordination loop reads is keyed canonically. The
//! sharded-vs-monolithic parity tests pin the composition bitwise on
//! instances whose candidate paths never cross shard lines (see
//! DESIGN.md §13 for why that makes the exact problem separable).

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use flexwan_solver::SolveOptions;
use flexwan_topo::cache::RouteCache;
use flexwan_topo::graph::{EdgeId, Graph, NodeId};
use flexwan_topo::ip::{IpLinkId, IpTopology};
use flexwan_topo::path::Path;
use flexwan_util::pool;

use crate::planning::colgen::{canonical_objective, solve_exact_colgen};
use crate::planning::ctx::PlanCtx;
use crate::planning::heuristic::{plan, PlannerConfig};
use crate::planning::mip::solve_exact;
use crate::scheme::Scheme;
use crate::wavelength::Wavelength;

/// Cap on coordination solve waves (first wave included).
const MAX_ROUNDS: usize = 8;

/// One IP link whose endpoints lie in different regions, decomposed into
/// its tail and core segments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundaryDemand {
    /// The original IP link.
    pub link: IpLinkId,
    /// Region of the source endpoint.
    pub src_region: usize,
    /// Region of the destination endpoint.
    pub dst_region: usize,
    /// `(metro, hub)` tail on the source side; `None` when the source is
    /// its region's hub (the demand enters the core directly).
    pub src_tail: Option<(NodeId, NodeId)>,
    /// `(metro, hub)` tail on the destination side.
    pub dst_tail: Option<(NodeId, NodeId)>,
    /// The hub-to-hub core segment `(source hub, destination hub)`.
    pub core_pair: (NodeId, NodeId),
    /// Requested end-to-end capacity, Gbps.
    pub gbps: u64,
}

/// The region decomposition of a backbone: nodes, fibers and IP links
/// assigned to per-region shards plus the inter-region core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Number of regions.
    pub regions: usize,
    /// Nodes of each region, ascending.
    pub region_nodes: Vec<Vec<NodeId>>,
    /// Intra-region fibers of each region, ascending.
    pub region_fibers: Vec<Vec<EdgeId>>,
    /// Fibers whose endpoints lie in different regions, ascending.
    pub core_fibers: Vec<EdgeId>,
    /// Nodes of the core subproblem: every endpoint of a core fiber plus
    /// every hub, ascending and deduplicated.
    pub core_nodes: Vec<NodeId>,
    /// IP links owned by each region (both endpoints inside it), in
    /// input order.
    pub owned_links: Vec<Vec<IpLinkId>>,
    /// Boundary demands, in input order.
    pub boundary: Vec<BoundaryDemand>,
}

/// Partitions `(optical, ip)` along `region_of` (region index per node,
/// indexed by `NodeId.0`) with `hubs[r]` the hub of region `r`. Every
/// node, fiber and IP link lands in exactly one bucket by construction;
/// [`Partition::validate`] checks the properties that are *not* by
/// construction (region connectivity, hub attachment).
pub fn partition(
    optical: &Graph,
    ip: &IpTopology,
    region_of: &[u32],
    hubs: &[NodeId],
) -> Partition {
    assert_eq!(
        region_of.len(),
        optical.num_nodes(),
        "region_of must label every node"
    );
    let regions = hubs.len();
    assert!(regions >= 2, "sharding needs at least two regions");
    for (r, &h) in hubs.iter().enumerate() {
        assert_eq!(
            region_of[h.0 as usize] as usize, r,
            "hub of region {r} must lie in region {r}"
        );
    }
    let region_idx = |n: NodeId| -> usize {
        let r = region_of[n.0 as usize] as usize;
        assert!(r < regions, "node {n:?} labeled with unknown region {r}");
        r
    };

    let mut region_nodes = vec![Vec::new(); regions];
    for node in optical.nodes() {
        region_nodes[region_idx(node.id)].push(node.id);
    }
    for v in &mut region_nodes {
        v.sort_unstable();
    }

    let mut region_fibers = vec![Vec::new(); regions];
    let mut core_fibers = Vec::new();
    for e in optical.edges() {
        let (ra, rb) = (region_idx(e.a), region_idx(e.b));
        if ra == rb {
            region_fibers[ra].push(e.id);
        } else {
            core_fibers.push(e.id);
        }
    }
    let mut core_nodes: Vec<NodeId> = core_fibers
        .iter()
        .flat_map(|&eid| {
            let e = &optical.edges()[eid.0 as usize];
            [e.a, e.b]
        })
        .chain(hubs.iter().copied())
        .collect();
    core_nodes.sort_unstable();
    core_nodes.dedup();

    let mut owned_links = vec![Vec::new(); regions];
    let mut boundary = Vec::new();
    for l in ip.links() {
        let (ra, rb) = (region_idx(l.src), region_idx(l.dst));
        if ra == rb {
            owned_links[ra].push(l.id);
        } else {
            boundary.push(BoundaryDemand {
                link: l.id,
                src_region: ra,
                dst_region: rb,
                src_tail: (l.src != hubs[ra]).then_some((l.src, hubs[ra])),
                dst_tail: (l.dst != hubs[rb]).then_some((l.dst, hubs[rb])),
                core_pair: (hubs[ra], hubs[rb]),
                gbps: l.demand_gbps,
            });
        }
    }
    Partition {
        regions,
        region_nodes,
        region_fibers,
        core_fibers,
        core_nodes,
        owned_links,
        boundary,
    }
}

impl Partition {
    /// Checks the partition invariants that are not true by
    /// construction: every region subgraph is connected over its own
    /// fibers, every hub that carries boundary traffic touches a core
    /// fiber, and the ownership buckets exactly cover the inputs.
    pub fn validate(&self, optical: &Graph, ip: &IpTopology) -> Result<(), String> {
        let node_total: usize = self.region_nodes.iter().map(Vec::len).sum();
        if node_total != optical.num_nodes() {
            return Err(format!(
                "region_nodes cover {node_total} of {} nodes",
                optical.num_nodes()
            ));
        }
        let fiber_total: usize =
            self.region_fibers.iter().map(Vec::len).sum::<usize>() + self.core_fibers.len();
        if fiber_total != optical.num_edges() {
            return Err(format!(
                "fiber buckets cover {fiber_total} of {} fibers",
                optical.num_edges()
            ));
        }
        let link_total: usize =
            self.owned_links.iter().map(Vec::len).sum::<usize>() + self.boundary.len();
        if link_total != ip.num_links() {
            return Err(format!(
                "link buckets cover {link_total} of {} IP links",
                ip.num_links()
            ));
        }
        for r in 0..self.regions {
            if !connected_over(optical, &self.region_nodes[r], &self.region_fibers[r]) {
                return Err(format!("region {r} is not connected over its own fibers"));
            }
        }
        let core = marks(optical.num_edges(), self.core_fibers.iter().map(|e| e.0));
        for b in &self.boundary {
            for hub in [b.core_pair.0, b.core_pair.1] {
                let attached = optical
                    .incident_edges(hub)
                    .iter()
                    .any(|e| core[e.0 as usize]);
                if !attached {
                    return Err(format!(
                        "hub {hub:?} carries boundary demand {:?} but touches no core fiber",
                        b.link
                    ));
                }
            }
        }
        Ok(())
    }
}

/// `len` flags, set at the `ids` below `len` (an id past the graph can
/// match nothing in it).
fn marks(len: usize, ids: impl Iterator<Item = u32>) -> Vec<bool> {
    let mut marked = vec![false; len];
    for id in ids {
        if let Some(m) = marked.get_mut(id as usize) {
            *m = true;
        }
    }
    marked
}

/// Whether `nodes` form one connected component over `fibers` alone.
fn connected_over(optical: &Graph, nodes: &[NodeId], fibers: &[EdgeId]) -> bool {
    let Some(&start) = nodes.first() else {
        return true;
    };
    let allowed = marks(optical.num_edges(), fibers.iter().map(|e| e.0));
    let mut seen = marks(optical.num_nodes(), std::iter::once(start.0));
    let mut stack = vec![start];
    while let Some(x) = stack.pop() {
        for &eid in optical.incident_edges(x) {
            if !allowed[eid.0 as usize] {
                continue;
            }
            let other = optical.edges()[eid.0 as usize].other(x);
            if !std::mem::replace(&mut seen[other.0 as usize], true) {
                stack.push(other);
            }
        }
    }
    nodes.iter().all(|n| seen.get(n.0 as usize) == Some(&true))
}

/// Which solver a shard uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardSolver {
    /// The scalable two-phase heuristic.
    Heuristic,
    /// The exact Algorithm 1 MIP ([`solve_exact`]); falls back to the
    /// heuristic (flagged in [`ShardSolve::fell_back`]) when the solve
    /// returns no incumbent.
    Exact,
    /// Column generation ([`solve_exact_colgen`]); same fallback.
    ColGen,
}

/// Configuration of a sharded solve.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Solver for the hub-core subproblem.
    pub core_solver: ShardSolver,
    /// Solver for the region subproblems.
    pub region_solver: ShardSolver,
    /// Worker threads for the region fan-out (0 = the pool default).
    pub threads: usize,
    /// Options for exact / column-generation solves.
    pub solve: SolveOptions,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            core_solver: ShardSolver::Heuristic,
            region_solver: ShardSolver::Heuristic,
            threads: 0,
            solve: SolveOptions::default(),
        }
    }
}

/// The outcome of one shard's solve. `wavelengths` carry paths in
/// *global* node/edge ids; their `link` field indexes the shard's local
/// demand set (owned links in input order, then tail links in boundary
/// order — or aggregated hub pairs in canonical order for the core).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSolve {
    /// Provisioned wavelengths, paths lifted to global ids.
    pub wavelengths: Vec<Wavelength>,
    /// Capacity provisioned per local demand slot, Gbps.
    pub provisioned: Vec<u64>,
    /// Demand the shard could not place, Gbps.
    pub unmet_gbps: u64,
    /// The canonical objective `N + ε·Σ Y` of this shard's wavelengths.
    pub objective: f64,
    /// Whether an exact solver returned no incumbent and the heuristic
    /// answered instead.
    pub fell_back: bool,
}

impl ShardSolve {
    fn empty() -> Self {
        ShardSolve {
            wavelengths: Vec::new(),
            provisioned: Vec::new(),
            unmet_gbps: 0,
            objective: 0.0,
            fell_back: false,
        }
    }

    /// Transponder pairs deployed by this shard.
    pub fn transponder_count(&self) -> usize {
        self.wavelengths.len()
    }
}

/// Counters of a sharded solve, surfaced through the bench harness.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Number of region shards.
    pub regions: usize,
    /// Number of boundary demands.
    pub boundary_demands: usize,
    /// Coordination rounds beyond the initial fan-out.
    pub coordination_rounds: usize,
    /// Total region solves across all rounds.
    pub region_solves: usize,
    /// Whether coordination reached a fixpoint within the eight solve
    /// waves it is allowed (first wave included).
    pub converged: bool,
    /// Wall time of the core solve, ms.
    pub core_ms: u64,
    /// Wall time of each region's most recent solve, ms.
    pub per_region_ms: Vec<u64>,
    /// End-to-end wall time, ms.
    pub total_ms: u64,
}

/// A complete sharded plan: the frozen core, one solve per region, and
/// the coordinated boundary capacities.
#[derive(Debug, Clone)]
pub struct ShardedPlan {
    /// The hub-core solve (aggregated hub-pair demands in canonical
    /// order).
    pub core: ShardSolve,
    /// One solve per region, in region order.
    pub regions: Vec<ShardSolve>,
    /// Final end-to-end capacity per boundary demand (input order), Gbps.
    pub boundary_target: Vec<u64>,
    /// Total boundary capacity surrendered by coordination:
    /// Σ (requested − final target).
    pub repriced_gbps: u64,
    /// Unmet demand summed over all shards (owned links once coordination
    /// converges; see module docs).
    pub unmet_gbps: u64,
    /// Canonical objective over every wavelength of every shard.
    pub objective: f64,
    /// Counters.
    pub stats: ShardStats,
}

impl ShardedPlan {
    /// Transponder pairs across all shards.
    pub fn transponder_count(&self) -> usize {
        self.core.transponder_count()
            + self
                .regions
                .iter()
                .map(ShardSolve::transponder_count)
                .sum::<usize>()
    }

    /// Every wavelength of every shard (core first, then regions in
    /// order), cloned into one vector.
    pub fn all_wavelengths(&self) -> Vec<Wavelength> {
        let mut all = self.core.wavelengths.clone();
        for r in &self.regions {
            all.extend(r.wavelengths.iter().cloned());
        }
        all
    }
}

/// A deterministically renumbered subgraph: nodes added in ascending
/// global order, fibers in ascending global order, with the maps to lift
/// local ids back to global ones.
struct Subgraph {
    graph: Graph,
    to_global_node: Vec<NodeId>,
    to_global_edge: Vec<EdgeId>,
    local_of: BTreeMap<NodeId, NodeId>,
}

fn subgraph(optical: &Graph, nodes: &[NodeId], fibers: &[EdgeId]) -> Subgraph {
    let mut graph = Graph::new();
    let mut local_of = BTreeMap::new();
    let mut to_global_node = Vec::with_capacity(nodes.len());
    for &nid in nodes {
        let local = graph.add_node(optical.nodes()[nid.0 as usize].name.clone());
        local_of.insert(nid, local);
        to_global_node.push(nid);
    }
    let mut to_global_edge = Vec::with_capacity(fibers.len());
    for &eid in fibers {
        let e = &optical.edges()[eid.0 as usize];
        graph.add_edge(local_of[&e.a], local_of[&e.b], e.length_km);
        to_global_edge.push(eid);
    }
    Subgraph {
        graph,
        to_global_node,
        to_global_edge,
        local_of,
    }
}

/// Lifts subgraph-local wavelength paths back to global node/edge ids.
fn lift_wavelengths(sub: &Subgraph, optical: &Graph, ws: &[Wavelength]) -> Vec<Wavelength> {
    ws.iter()
        .map(|w| Wavelength {
            link: w.link,
            path_index: w.path_index,
            path: Path::new(
                optical,
                w.path
                    .nodes
                    .iter()
                    .map(|n| sub.to_global_node[n.0 as usize])
                    .collect::<std::sync::Arc<[_]>>(),
                w.path
                    .edges
                    .iter()
                    .map(|e| sub.to_global_edge[e.0 as usize])
                    .collect(),
            ),
            format: w.format,
            channel: w.channel,
        })
        .collect()
}

fn per_link_provisioned(ws: &[Wavelength], num_links: usize) -> Vec<u64> {
    let mut out = vec![0u64; num_links];
    for w in ws {
        out[w.link.0 as usize] += u64::from(w.format.data_rate_gbps);
    }
    out
}

/// A shard's outcome from its wavelengths in global ids.
fn finish(
    wavelengths: Vec<Wavelength>,
    num_links: usize,
    epsilon: f64,
    unmet_gbps: u64,
    fell_back: bool,
) -> ShardSolve {
    ShardSolve {
        provisioned: per_link_provisioned(&wavelengths, num_links),
        unmet_gbps,
        objective: canonical_objective(&wavelengths, epsilon),
        fell_back,
        wavelengths,
    }
}

fn ordered(pair: (NodeId, NodeId)) -> (NodeId, NodeId) {
    if pair.0 <= pair.1 {
        pair
    } else {
        (pair.1, pair.0)
    }
}

/// Builds region `r`'s demand set against the current boundary
/// `targets`: owned links first (input order), then one tail link per
/// boundary demand whose tail lies in `r` (boundary order; zero-target
/// tails are dropped — [`IpTopology`] demands are strictly positive).
/// Returns the topology (global node ids) and the `(boundary index,
/// local link)` map of the tails.
fn region_demands(
    part: &Partition,
    ip: &IpTopology,
    r: usize,
    targets: &[u64],
) -> (IpTopology, Vec<(usize, IpLinkId)>) {
    let mut t = IpTopology::new();
    for &lid in &part.owned_links[r] {
        let l = ip.link(lid);
        t.add_link(l.src, l.dst, l.demand_gbps);
    }
    let mut tails = Vec::new();
    for (bi, b) in part.boundary.iter().enumerate() {
        for (tail, side) in [(b.src_tail, b.src_region), (b.dst_tail, b.dst_region)] {
            if side != r || targets[bi] == 0 {
                continue;
            }
            if let Some((metro, hub)) = tail {
                tails.push((bi, t.add_link(metro, hub, targets[bi])));
            }
        }
    }
    (t, tails)
}

/// Plans `scheme` over the backbone by region-sharded decomposition:
/// core first, frozen; regions fanned out on the worker pool over the
/// shared `cache`; boundary demands coordinated to the end-to-end
/// minimum of their segments. Bit-identical at any `threads` setting.
#[allow(clippy::too_many_arguments)]
pub fn solve_sharded(
    scheme: Scheme,
    optical: &Graph,
    ip: &IpTopology,
    cfg: &PlannerConfig,
    region_of: &[u32],
    hubs: &[NodeId],
    shard: &ShardConfig,
    cache: &RouteCache,
) -> ShardedPlan {
    let t0 = Instant::now();
    let part = partition(optical, ip, region_of, hubs);
    part.validate(optical, ip).expect("partition invariant");
    let threads = if shard.threads == 0 {
        pool::default_threads()
    } else {
        shard.threads
    };

    // One dispatch for the core and every region: `ip` in global ids,
    // the shard confined to `nodes` / `fibers`. A heuristic shard plans on
    // the full graph with every other fiber `banned`, so one shared cache
    // serves them all (keys over global ids stay collision-free where
    // renumbered subgraphs would alias); an exact one on the renumbered
    // subgraph, its wavelengths lifted back to global ids.
    let ctx = PlanCtx::new(optical, cfg).sharing(cache);
    let solve_shard = |kind: ShardSolver,
                       nodes: &[NodeId],
                       fibers: &[EdgeId],
                       banned: &HashSet<EdgeId>,
                       ip: &IpTopology| {
        let n = ip.num_links();
        if kind == ShardSolver::Heuristic {
            let p = ctx.plan_avoiding(scheme, ip, banned);
            let unmet = p.unmet_gbps();
            return finish(p.wavelengths, n, cfg.epsilon, unmet, false);
        }
        let sub = subgraph(optical, nodes, fibers);
        let mut local = IpTopology::new();
        for l in ip.links() {
            local.add_link(sub.local_of[&l.src], sub.local_of[&l.dst], l.demand_gbps);
        }
        let exact = if kind == ShardSolver::Exact {
            solve_exact(scheme, &sub.graph, &local, cfg, &shard.solve).map(|xp| xp.wavelengths)
        } else {
            solve_exact_colgen(scheme, &sub.graph, &local, cfg, &shard.solve)
                .map(|cg| cg.plan.wavelengths)
        };
        let (ws, unmet, fell_back) = match exact {
            Some(ws) => (ws, 0, false),
            None => {
                // No incumbent at this node budget: answer with the
                // heuristic and flag the fallback.
                let p = plan(scheme, &sub.graph, &local, cfg);
                let unmet = p.unmet_gbps();
                (p.wavelengths, unmet, true)
            }
        };
        let lifted = lift_wavelengths(&sub, optical, &ws);
        finish(lifted, n, cfg.epsilon, unmet, fell_back)
    };
    // A fiber lies in region r iff both its ends do; every other fiber
    // is a core fiber.
    let region = |n: NodeId| region_of[n.0 as usize] as usize;

    // ---- Hub core: aggregate, solve, freeze. ----
    let core_t = Instant::now();
    let mut core_pairs: BTreeMap<(NodeId, NodeId), u64> = BTreeMap::new();
    for b in &part.boundary {
        *core_pairs.entry(ordered(b.core_pair)).or_default() += b.gbps;
    }
    let core = if part.boundary.is_empty() {
        ShardSolve::empty()
    } else {
        let mut core_ip = IpTopology::new();
        for (&(a, b), &gbps) in &core_pairs {
            core_ip.add_link(a, b, gbps);
        }
        let banned: HashSet<EdgeId> = (optical.edges().iter())
            .filter(|e| region(e.a) == region(e.b))
            .map(|e| e.id)
            .collect();
        let (nodes, fibers) = (&part.core_nodes, &part.core_fibers);
        solve_shard(shard.core_solver, nodes, fibers, &banned, &core_ip)
    };
    let core_ms = core_t.elapsed().as_millis() as u64;

    // Distribute the frozen per-pair capacity to boundary demands in
    // input order: each takes up to its request from what remains.
    let mut pair_cap: BTreeMap<(NodeId, NodeId), u64> = core_pairs
        .keys()
        .enumerate()
        .map(|(i, &k)| (k, core.provisioned.get(i).copied().unwrap_or(0)))
        .collect();
    let mut target: Vec<u64> = part
        .boundary
        .iter()
        .map(|b| {
            let cap = pair_cap.get_mut(&ordered(b.core_pair)).expect("aggregated");
            let grant = b.gbps.min(*cap);
            *cap -= grant;
            grant
        })
        .collect();

    // Every fiber outside region r, as the banned set that confines the
    // shared-cache region solves to their own shard.
    let banned: Vec<HashSet<EdgeId>> = (0..part.regions)
        .map(|r| {
            (optical.edges().iter())
                .filter(|e| region(e.a) != r || region(e.b) != r)
                .map(|e| e.id)
                .collect()
        })
        .collect();

    // ---- Region fan-out + boundary coordination. ----
    type RegionOutcome = (ShardSolve, Vec<(usize, IpLinkId)>);
    let mut solved: Vec<Option<RegionOutcome>> = vec![None; part.regions];
    let mut per_region_ms = vec![0u64; part.regions];
    let mut to_solve: Vec<usize> = (0..part.regions).collect();
    let mut rounds = 0usize;
    let mut region_solves = 0usize;
    while !to_solve.is_empty() && rounds < MAX_ROUNDS {
        rounds += 1;
        region_solves += to_solve.len();
        let wave = pool::par_map(&to_solve, threads, |&r| {
            let rt = Instant::now();
            let (ip_r, tails) = region_demands(&part, ip, r, &target);
            let (nodes, fibers) = (&part.region_nodes[r], &part.region_fibers[r]);
            let solve = solve_shard(shard.region_solver, nodes, fibers, &banned[r], &ip_r);
            (solve, tails, rt.elapsed().as_millis() as u64)
        });
        for (&r, (solve, tails, ms)) in to_solve.iter().zip(wave) {
            per_region_ms[r] = ms;
            solved[r] = Some((solve, tails));
        }
        // Re-price every boundary demand to the end-to-end minimum of
        // its frozen core grant and what each tail actually realized.
        let mut shrunk: Vec<usize> = Vec::new();
        for (bi, b) in part.boundary.iter().enumerate() {
            let mut end_to_end = target[bi];
            for side in [b.src_region, b.dst_region] {
                if let Some((solve, tails)) = &solved[side] {
                    if let Some(&(_, lid)) = tails.iter().find(|&&(x, _)| x == bi) {
                        end_to_end = end_to_end.min(solve.provisioned[lid.0 as usize]);
                    }
                }
            }
            if end_to_end < target[bi] {
                target[bi] = end_to_end;
                shrunk.push(bi);
            }
        }
        to_solve = shrunk
            .iter()
            .flat_map(|&bi| {
                let b = &part.boundary[bi];
                [
                    b.src_tail.is_some().then_some(b.src_region),
                    b.dst_tail.is_some().then_some(b.dst_region),
                ]
            })
            .flatten()
            .collect();
        to_solve.sort_unstable();
        to_solve.dedup();
    }
    let converged = to_solve.is_empty();

    let regions: Vec<ShardSolve> = solved
        .into_iter()
        .map(|o| o.expect("every region solved in round 1").0)
        .collect();
    let mut all = core.wavelengths.clone();
    for r in &regions {
        all.extend(r.wavelengths.iter().cloned());
    }
    let objective = canonical_objective(&all, cfg.epsilon);
    let repriced_gbps = part
        .boundary
        .iter()
        .zip(&target)
        .map(|(b, &t)| b.gbps - t)
        .sum();
    let unmet_gbps = core.unmet_gbps + regions.iter().map(|r| r.unmet_gbps).sum::<u64>();
    ShardedPlan {
        stats: ShardStats {
            regions: part.regions,
            boundary_demands: part.boundary.len(),
            coordination_rounds: rounds.saturating_sub(1),
            region_solves,
            converged,
            core_ms,
            per_region_ms,
            total_ms: t0.elapsed().as_millis() as u64,
        },
        core,
        regions,
        boundary_target: target,
        repriced_gbps,
        unmet_gbps,
        objective,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexwan_optical::spectrum::SpectrumGrid;
    use flexwan_topo::continental::{continental, ScaleParams};

    fn small_cfg(pixels: u32, k: usize) -> PlannerConfig {
        PlannerConfig {
            k_paths: k,
            grid: SpectrumGrid::new(pixels),
            ..Default::default()
        }
    }

    #[test]
    fn partition_buckets_cover_everything() {
        let c = continental(&ScaleParams::shrunk(3));
        let p = partition(&c.backbone.optical, &c.backbone.ip, &c.region_of, &c.hubs);
        p.validate(&c.backbone.optical, &c.backbone.ip).unwrap();
        assert_eq!(p.regions, 3);
        assert!(!p.boundary.is_empty());
        // The shrunk preset routes every boundary demand hub-to-hub.
        assert!(p
            .boundary
            .iter()
            .all(|b| b.src_tail.is_none() && b.dst_tail.is_none()));
    }

    #[test]
    fn sharded_solve_is_thread_invariant() {
        let c = continental(&ScaleParams::shrunk(3));
        let cfg = small_cfg(64, 2);
        let mut plans = Vec::new();
        for threads in [1usize, 2, 4] {
            let shard = ShardConfig {
                threads,
                ..Default::default()
            };
            let cache = RouteCache::new();
            plans.push(solve_sharded(
                Scheme::FlexWan,
                &c.backbone.optical,
                &c.backbone.ip,
                &cfg,
                &c.region_of,
                &c.hubs,
                &shard,
                &cache,
            ));
        }
        for p in &plans[1..] {
            assert_eq!(p.core, plans[0].core);
            assert_eq!(p.regions, plans[0].regions);
            assert_eq!(p.boundary_target, plans[0].boundary_target);
            assert_eq!(p.objective.to_bits(), plans[0].objective.to_bits());
        }
    }

    #[test]
    fn frozen_core_never_uses_region_fibers_and_vice_versa() {
        let c = continental(&ScaleParams::shrunk(3));
        let cfg = small_cfg(64, 2);
        let part = partition(&c.backbone.optical, &c.backbone.ip, &c.region_of, &c.hubs);
        let sp = solve_sharded(
            Scheme::FlexWan,
            &c.backbone.optical,
            &c.backbone.ip,
            &cfg,
            &c.region_of,
            &c.hubs,
            &ShardConfig::default(),
            &RouteCache::new(),
        );
        let core_set: HashSet<EdgeId> = part.core_fibers.iter().copied().collect();
        for w in &sp.core.wavelengths {
            assert!(w.path.edges.iter().all(|e| core_set.contains(e)));
        }
        for r in &sp.regions {
            for w in &r.wavelengths {
                assert!(w.path.edges.iter().all(|e| !core_set.contains(e)));
            }
        }
    }

    #[test]
    fn boundary_targets_never_exceed_requests() {
        let c = continental(&ScaleParams::continental());
        let cfg = small_cfg(96, 2);
        let sp = solve_sharded(
            Scheme::FlexWan,
            &c.backbone.optical,
            &c.backbone.ip,
            &cfg,
            &c.region_of,
            &c.hubs,
            &ShardConfig::default(),
            &RouteCache::new(),
        );
        let part = partition(&c.backbone.optical, &c.backbone.ip, &c.region_of, &c.hubs);
        assert_eq!(sp.boundary_target.len(), part.boundary.len());
        for (b, &t) in part.boundary.iter().zip(&sp.boundary_target) {
            assert!(t <= b.gbps);
        }
        assert_eq!(
            sp.repriced_gbps,
            part.boundary
                .iter()
                .zip(&sp.boundary_target)
                .map(|(b, &t)| b.gbps - t)
                .sum::<u64>()
        );
    }

    /// Everything of a sharded plan but the wall-clock times, objective
    /// bits included.
    fn assert_same_plan(got: &ShardedPlan, want: &ShardedPlan, what: &str) {
        assert_eq!(got.core, want.core, "{what}: core");
        assert_eq!(got.regions, want.regions, "{what}: regions");
        assert_eq!(got.boundary_target, want.boundary_target, "{what}");
        assert_eq!(got.repriced_gbps, want.repriced_gbps, "{what}");
        assert_eq!(got.unmet_gbps, want.unmet_gbps, "{what}");
        assert_eq!(got.objective.to_bits(), want.objective.to_bits(), "{what}");
        let objectives = |p: &ShardedPlan| -> Vec<u64> {
            let shards = std::iter::once(&p.core).chain(&p.regions);
            shards.map(|s| s.objective.to_bits()).collect()
        };
        assert_eq!(
            objectives(got),
            objectives(want),
            "{what}: shard objectives"
        );
        let (g, w) = (&got.stats, &want.stats);
        assert_eq!(
            (g.regions, g.boundary_demands, g.coordination_rounds),
            (w.regions, w.boundary_demands, w.coordination_rounds),
            "{what}"
        );
        assert_eq!(
            (g.region_solves, g.converged),
            (w.region_solves, w.converged)
        );
    }

    /// The heuristic core on the full graph under a ban, through the
    /// shared cache, plans what the subgraph core planned: 3 instances
    /// (the shrunk one, the smallest continental one, the 12 × 10 one the
    /// benchmark plans) × k ∈ {2, 3, 5} × 3 schemes × demand scales 1..3,
    /// each against a cold cache, the same cache warm, and a cache that
    /// already holds the monolithic plan's keys, at 1 / 2 / 4 threads.
    #[test]
    fn the_full_graph_core_plans_what_the_subgraph_core_planned() {
        let bench = ScaleParams {
            regions: 12,
            metros_per_region: 10,
            ..ScaleParams::continental()
        };
        for (params, pixels) in [
            (ScaleParams::shrunk(3), 64),
            (ScaleParams::continental(), 96),
            (bench, 384),
        ] {
            let c = continental(&params);
            let g = &c.backbone.optical;
            for k in [2, 3, 5] {
                let cfg = small_cfg(pixels, k);
                for scheme in Scheme::ALL {
                    for scale in 1..=3 {
                        let ip = c.backbone.ip.scaled(scale);
                        let solve = |threads, cache: &RouteCache| {
                            let shard = ShardConfig {
                                threads,
                                ..Default::default()
                            };
                            let (regions, hubs) = (&c.region_of, &c.hubs);
                            solve_sharded(scheme, g, &ip, &cfg, regions, hubs, &shard, cache)
                        };
                        let want = oracle::solve_sharded(
                            scheme,
                            g,
                            &ip,
                            &cfg,
                            &c.region_of,
                            &c.hubs,
                            &ShardConfig::default(),
                            &RouteCache::new(),
                        );
                        let what = format!("{} regions, k {k}, {scheme}, ×{scale}", params.regions);
                        let shared = RouteCache::new();
                        assert_same_plan(&solve(1, &shared), &want, &format!("{what}, cold"));
                        assert_same_plan(&solve(2, &shared), &want, &format!("{what}, warm"));
                        let mono = RouteCache::new();
                        let _ = PlanCtx::new(g, &cfg).sharing(&mono).plan(scheme, &ip);
                        assert_same_plan(&solve(4, &mono), &want, &format!("{what}, monolithic"));
                    }
                }
            }
        }
        // The exact arm of the same dispatch: the core's hub pairs, now
        // in global ids, renumbered onto the subgraph as before.
        let c = continental(&ScaleParams::parity());
        let cfg = small_cfg(8, 2);
        for core_solver in [ShardSolver::Exact, ShardSolver::ColGen] {
            let shard = ShardConfig {
                core_solver,
                region_solver: ShardSolver::Exact,
                ..Default::default()
            };
            let (g, ip) = (&c.backbone.optical, &c.backbone.ip);
            let (regions, hubs) = (&c.region_of, &c.hubs);
            let cache = RouteCache::new();
            let got = solve_sharded(Scheme::FlexWan, g, ip, &cfg, regions, hubs, &shard, &cache);
            let want =
                oracle::solve_sharded(Scheme::FlexWan, g, ip, &cfg, regions, hubs, &shard, &cache);
            assert_same_plan(&got, &want, &format!("parity, {core_solver:?} core"));
            assert!(!got.core.wavelengths.is_empty());
        }
    }

    /// The sharded solve as it stood with the core planned on its
    /// renumbered subgraph, kept as the reference the one dispatch is
    /// compared against.
    mod oracle {
        use super::super::*;
        use crate::planning::heuristic::Plan;

        fn finish_heuristic(
            p: Plan,
            num_links: usize,
            epsilon: f64,
            lifted: Vec<Wavelength>,
            fell_back: bool,
        ) -> ShardSolve {
            ShardSolve {
                provisioned: per_link_provisioned(&lifted, num_links),
                unmet_gbps: p.unmet_gbps(),
                objective: canonical_objective(&lifted, epsilon),
                fell_back,
                wavelengths: lifted,
            }
        }

        fn solve_on_subgraph(
            scheme: Scheme,
            sub: &Subgraph,
            optical: &Graph,
            ip_local: &IpTopology,
            cfg: &PlannerConfig,
            kind: ShardSolver,
            opts: &SolveOptions,
        ) -> ShardSolve {
            let exact = match kind {
                ShardSolver::Heuristic => None,
                ShardSolver::Exact => solve_exact(scheme, &sub.graph, ip_local, cfg, opts)
                    .map(|xp| (xp.wavelengths, false)),
                ShardSolver::ColGen => solve_exact_colgen(scheme, &sub.graph, ip_local, cfg, opts)
                    .map(|cg| (cg.plan.wavelengths, false)),
            };
            match (kind, exact) {
                (ShardSolver::Heuristic, _) => {
                    let p = plan(scheme, &sub.graph, ip_local, cfg);
                    let lifted = lift_wavelengths(sub, optical, &p.wavelengths);
                    finish_heuristic(p, ip_local.num_links(), cfg.epsilon, lifted, false)
                }
                (_, Some((ws, _))) => {
                    let lifted = lift_wavelengths(sub, optical, &ws);
                    ShardSolve {
                        provisioned: per_link_provisioned(&lifted, ip_local.num_links()),
                        unmet_gbps: 0,
                        objective: canonical_objective(&lifted, cfg.epsilon),
                        fell_back: false,
                        wavelengths: lifted,
                    }
                }
                (_, None) => {
                    let p = plan(scheme, &sub.graph, ip_local, cfg);
                    let lifted = lift_wavelengths(sub, optical, &p.wavelengths);
                    finish_heuristic(p, ip_local.num_links(), cfg.epsilon, lifted, true)
                }
            }
        }

        #[allow(clippy::too_many_arguments)]
        pub(super) fn solve_sharded(
            scheme: Scheme,
            optical: &Graph,
            ip: &IpTopology,
            cfg: &PlannerConfig,
            region_of: &[u32],
            hubs: &[NodeId],
            shard: &ShardConfig,
            cache: &RouteCache,
        ) -> ShardedPlan {
            let part = partition(optical, ip, region_of, hubs);
            part.validate(optical, ip).expect("partition invariant");
            let threads = if shard.threads == 0 {
                pool::default_threads()
            } else {
                shard.threads
            };

            let mut core_pairs: BTreeMap<(NodeId, NodeId), u64> = BTreeMap::new();
            for b in &part.boundary {
                *core_pairs.entry(ordered(b.core_pair)).or_default() += b.gbps;
            }
            let core_sub = subgraph(optical, &part.core_nodes, &part.core_fibers);
            let mut core_ip = IpTopology::new();
            for (&(a, b), &gbps) in &core_pairs {
                core_ip.add_link(core_sub.local_of[&a], core_sub.local_of[&b], gbps);
            }
            let core = if part.boundary.is_empty() {
                ShardSolve::empty()
            } else {
                solve_on_subgraph(
                    scheme,
                    &core_sub,
                    optical,
                    &core_ip,
                    cfg,
                    shard.core_solver,
                    &shard.solve,
                )
            };

            let mut pair_cap: BTreeMap<(NodeId, NodeId), u64> = core_pairs
                .keys()
                .enumerate()
                .map(|(i, &k)| (k, core.provisioned.get(i).copied().unwrap_or(0)))
                .collect();
            let mut target: Vec<u64> = part
                .boundary
                .iter()
                .map(|b| {
                    let cap = pair_cap.get_mut(&ordered(b.core_pair)).expect("aggregated");
                    let grant = b.gbps.min(*cap);
                    *cap -= grant;
                    grant
                })
                .collect();

            let banned: Vec<HashSet<EdgeId>> = (0..part.regions)
                .map(|r| {
                    let own: HashSet<EdgeId> = part.region_fibers[r].iter().copied().collect();
                    optical
                        .edges()
                        .iter()
                        .filter(|e| !own.contains(&e.id))
                        .map(|e| e.id)
                        .collect()
                })
                .collect();

            let regions = PlanCtx::new(optical, cfg).sharing(cache);
            type RegionOutcome = (ShardSolve, Vec<(usize, IpLinkId)>);
            let mut solved: Vec<Option<RegionOutcome>> = vec![None; part.regions];
            let mut to_solve: Vec<usize> = (0..part.regions).collect();
            let mut rounds = 0usize;
            let mut region_solves = 0usize;
            while !to_solve.is_empty() && rounds < MAX_ROUNDS {
                rounds += 1;
                region_solves += to_solve.len();
                let wave = pool::par_map(&to_solve, threads, |&r| {
                    let (ip_r, tails) = region_demands(&part, ip, r, &target);
                    let solve = match shard.region_solver {
                        ShardSolver::Heuristic => {
                            let p = regions.plan_avoiding(scheme, &ip_r, &banned[r]);
                            let lifted = p.wavelengths.clone();
                            finish_heuristic(p, ip_r.num_links(), cfg.epsilon, lifted, false)
                        }
                        _ => {
                            let sub =
                                subgraph(optical, &part.region_nodes[r], &part.region_fibers[r]);
                            let mut local = IpTopology::new();
                            for l in ip_r.links() {
                                local.add_link(
                                    sub.local_of[&l.src],
                                    sub.local_of[&l.dst],
                                    l.demand_gbps,
                                );
                            }
                            solve_on_subgraph(
                                scheme,
                                &sub,
                                optical,
                                &local,
                                cfg,
                                shard.region_solver,
                                &shard.solve,
                            )
                        }
                    };
                    (solve, tails)
                });
                for (&r, (solve, tails)) in to_solve.iter().zip(wave) {
                    solved[r] = Some((solve, tails));
                }
                let mut shrunk: Vec<usize> = Vec::new();
                for (bi, b) in part.boundary.iter().enumerate() {
                    let mut end_to_end = target[bi];
                    for side in [b.src_region, b.dst_region] {
                        if let Some((solve, tails)) = &solved[side] {
                            if let Some(&(_, lid)) = tails.iter().find(|&&(x, _)| x == bi) {
                                end_to_end = end_to_end.min(solve.provisioned[lid.0 as usize]);
                            }
                        }
                    }
                    if end_to_end < target[bi] {
                        target[bi] = end_to_end;
                        shrunk.push(bi);
                    }
                }
                to_solve = shrunk
                    .iter()
                    .flat_map(|&bi| {
                        let b = &part.boundary[bi];
                        [
                            b.src_tail.is_some().then_some(b.src_region),
                            b.dst_tail.is_some().then_some(b.dst_region),
                        ]
                    })
                    .flatten()
                    .collect();
                to_solve.sort_unstable();
                to_solve.dedup();
            }
            let converged = to_solve.is_empty();

            let regions: Vec<ShardSolve> = solved
                .into_iter()
                .map(|o| o.expect("every region solved in round 1").0)
                .collect();
            let mut all = core.wavelengths.clone();
            for r in &regions {
                all.extend(r.wavelengths.iter().cloned());
            }
            let objective = canonical_objective(&all, cfg.epsilon);
            let repriced_gbps = part
                .boundary
                .iter()
                .zip(&target)
                .map(|(b, &t)| b.gbps - t)
                .sum();
            let unmet_gbps = core.unmet_gbps + regions.iter().map(|r| r.unmet_gbps).sum::<u64>();
            ShardedPlan {
                stats: ShardStats {
                    regions: part.regions,
                    boundary_demands: part.boundary.len(),
                    coordination_rounds: rounds.saturating_sub(1),
                    region_solves,
                    converged,
                    core_ms: 0,
                    per_region_ms: vec![0; part.regions],
                    total_ms: 0,
                },
                core,
                regions,
                boundary_target: target,
                repriced_gbps,
                unmet_gbps,
                objective,
            }
        }
    }
}
