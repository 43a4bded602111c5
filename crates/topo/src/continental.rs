//! Continental-scale multi-region backbone generator, and
//! [`ScaleParams`], the one parameter set every evaluation instance is
//! built from (suite → full topology → continental).
//!
//! The paper's evaluation stops at the 40-node T-backbone and the 35-node
//! CERNET; the ROADMAP north-star is a production-scale system planning a
//! continental backbone serving millions of users. This module generates
//! that instance deterministically: N regions of M metros each, a
//! hub-and-spoke metro fabric inside every region, a cross-region
//! hub-mesh core, geo-plausible span lengths (synthetic lat/lon placement
//! run through the same [`fiber_km`] model as the
//! embedded topologies), and a gravity-model traffic matrix calibrated to
//! a user population in the millions.
//!
//! The generator separates *what* exists from *when it is inserted*:
//! every metro is specified by its canonical `(region, index)` key, and
//! the RNG streams for geometry, population and traffic are consumed in
//! canonical key order — only the node-materialization order is permuted
//! by [`ScaleParams::node_order_seed`]. Two runs differing only in that
//! seed therefore describe the identical named topology (same city set,
//! same fiber multiset by endpoints-and-length, same demand set by
//! endpoints-and-Gbps), which is what the sharding layer's
//! permutation-invariance property tests pin.

use std::collections::BTreeMap;

use flexwan_util::rng::ChaCha8Rng;

use crate::cernet::cernet;
use crate::geo::fiber_km;
use crate::graph::{Graph, NodeId};
use crate::ip::IpTopology;
use crate::nsfnet::nsfnet;
use crate::tbackbone::{t_backbone, Backbone};

/// The one parameter set of every instance family: each generator
/// ([`t_backbone`], [`cernet`], [`nsfnet`], [`continental`]) takes it
/// directly and reads the fields its family uses. The presets are the
/// instances the tree evaluates: suite-scale and full-topology
/// T-backbone, CERNET and NSFNET with ARROW demands, and the continental
/// tiers this module generates.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleParams {
    /// Number of regions (continental / T-backbone families).
    pub regions: usize,
    /// Metros (ROADM sites) per region; metro 0 is the region hub.
    pub metros_per_region: usize,
    /// IP link count for the T-backbone and the ARROW-demand families
    /// (CERNET, NSFNET); the continental family derives its IP topology
    /// from the gravity model instead.
    pub ip_links: usize,
    /// Served user population, millions (continental family).
    pub users_millions: f64,
    /// Traffic intensity: total offered Gbps per million users.
    pub gbps_per_million: f64,
    /// RNG seed for geometry/population/demand generation.
    pub seed: u64,
    /// Fiber pairs per metro span.
    pub metro_fiber_pairs: usize,
    /// Fiber pairs per inter-hub long-haul route.
    pub hub_fiber_pairs: usize,
    /// Number of heaviest cross-region metro pairs that get a direct IP
    /// link (boundary demands with tails); the remaining cross-region
    /// traffic is folded onto metro↔hub tails and hub↔hub aggregates.
    pub cross_metro_links: usize,
    /// Whether each region's first satellite metro gets a long-haul fiber
    /// to the next region's hub (a second egress out of the region).
    pub secondary_egress: bool,
    /// Node materialization order: 0 inserts metros in canonical
    /// `(region, index)` order; any other value shuffles the insertion
    /// order with this seed while leaving the described topology
    /// unchanged (see the module docs).
    pub node_order_seed: u64,
}

impl ScaleParams {
    /// The smallest full continental instance: 6 regions × 7 metros =
    /// 42 sites serving 40 M users, the scale tier the `continental_sweep`
    /// CI job plans sharded under its 60 s budget.
    pub fn continental() -> Self {
        ScaleParams {
            regions: 6,
            metros_per_region: 7,
            ip_links: 0,
            users_millions: 40.0,
            gbps_per_million: 2000.0,
            seed: 23,
            metro_fiber_pairs: 2,
            hub_fiber_pairs: 3,
            cross_metro_links: 6,
            secondary_egress: true,
            node_order_seed: 0,
        }
    }

    /// A shrunk continental instance with `regions` regions of 3 metros:
    /// small enough that the scalable heuristic is instant, used by the
    /// sharded-vs-monolithic heuristic parity checks. No direct
    /// cross-metro IP links and no secondary egress: every inter-region
    /// demand is hub-to-hub and the only inter-region fibers are the hub
    /// mesh, so the partition separates the problem cleanly.
    pub fn shrunk(regions: usize) -> Self {
        ScaleParams {
            regions,
            metros_per_region: 3,
            ip_links: 0,
            users_millions: 0.8,
            gbps_per_million: 1000.0,
            seed: 7,
            metro_fiber_pairs: 2,
            hub_fiber_pairs: 2,
            cross_metro_links: 0,
            secondary_egress: false,
            node_order_seed: 0,
        }
    }

    /// The exact-parity instance: two regions of hub + one metro, a
    /// single-fiber hub conduit, and a twin-fiber spoke per region
    /// (6 nodes ⇒ 4 nodes, 5 fibers, 3 IP links). Small enough that the
    /// monolithic branch-and-bound MIP solves in well under a second on
    /// an 8-pixel grid, which is what the bitwise sharded-vs-exact
    /// cross-validation needs. Same separability argument as
    /// [`ScaleParams::shrunk`].
    pub fn parity() -> Self {
        ScaleParams {
            metros_per_region: 2,
            hub_fiber_pairs: 1,
            ..ScaleParams::shrunk(2)
        }
    }

    /// The full-topology T-backbone tier: 8 regions × 5 sites = 40
    /// ROADMs and 140 IP links.
    pub fn tbackbone() -> Self {
        ScaleParams {
            regions: 8,
            metros_per_region: 5,
            ip_links: 140,
            users_millions: 0.0,
            gbps_per_million: 0.0,
            seed: 35,
            metro_fiber_pairs: 4,
            hub_fiber_pairs: 3,
            cross_metro_links: 0,
            secondary_egress: false,
            node_order_seed: 0,
        }
    }

    /// A suite-scale T-backbone: half the regions and a third of the IP
    /// links, for quick iteration.
    pub fn suite() -> Self {
        ScaleParams {
            regions: 4,
            metros_per_region: 4,
            ip_links: 48,
            ..ScaleParams::tbackbone()
        }
    }

    /// The full-topology CERNET tier: 150 ARROW-drawn IP links (seed 11)
    /// over the embedded topology.
    pub fn cernet() -> Self {
        ScaleParams {
            ip_links: 150,
            seed: 11,
            ..ScaleParams::tbackbone()
        }
    }

    /// The NSFNET extension tier (same ARROW-demand defaults as CERNET).
    pub fn nsfnet() -> Self {
        ScaleParams::cernet()
    }

    /// Builds the backbone of `family` at these params.
    pub fn build(&self, family: Family) -> Backbone {
        match family {
            Family::TBackbone => t_backbone(self),
            Family::Cernet => cernet(self),
            Family::Nsfnet => nsfnet(self),
            Family::Continental => continental(self).backbone,
        }
    }
}

/// The instance families [`ScaleParams::build`] can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// The synthetic T-backbone stand-in.
    TBackbone,
    /// The embedded CERNET topology with ARROW demands.
    Cernet,
    /// The embedded NSFNET topology with ARROW demands.
    Nsfnet,
    /// The multi-region continental generator of this module.
    Continental,
}

/// A generated continental backbone plus the region structure the
/// sharding layer partitions on.
#[derive(Debug, Clone)]
pub struct Continental {
    /// Optical + IP topology.
    pub backbone: Backbone,
    /// Region index per optical node (indexed by `NodeId.0`).
    pub region_of: Vec<u32>,
    /// The hub node of each region.
    pub hubs: Vec<NodeId>,
    /// The params that generated the instance.
    pub params: ScaleParams,
}

/// Rounds a gravity-model flow to the 100 Gbps demand granularity every
/// instance family uses; flows under 50 Gbps vanish.
fn q100(gbps: f64) -> u64 {
    ((gbps / 100.0).round() as u64) * 100
}

/// Generates the continental backbone described by `p`. Deterministic:
/// identical params produce byte-identical output, and params differing
/// only in `node_order_seed` produce the same named topology (see the
/// module docs).
pub fn continental(p: &ScaleParams) -> Continental {
    assert!(p.regions >= 2, "a continental backbone spans ≥ 2 regions");
    assert!(p.metros_per_region >= 2, "a region is a hub plus ≥ 1 metro");
    assert!(
        p.metro_fiber_pairs >= 2 || p.metros_per_region >= 3,
        "single-metro spokes need ≥ 2 fiber pairs to survive a cut"
    );
    let (n, m) = (p.regions, p.metros_per_region);
    let mut rng = ChaCha8Rng::seed_from_u64(p.seed);

    // ---- Geometry and population, canonical (region, metro) order. ----
    // Region hubs sit on a two-row continental grid ~780 km apart
    // vertically and ~950 km horizontally; satellite metros ring their
    // hub at 50–120 km. Everything downstream uses the same
    // haversine-times-detour fiber model as the embedded topologies.
    let mut coords = vec![vec![(0.0, 0.0); m]; n];
    let mut pops = vec![vec![0.0f64; m]; n];
    for (r, region_coords) in coords.iter_mut().enumerate() {
        let center = (36.0 + 7.0 * (r % 2) as f64, -120.0 + 11.0 * (r / 2) as f64);
        for (i, slot) in region_coords.iter_mut().enumerate() {
            *slot = if i == 0 {
                center
            } else {
                let angle =
                    std::f64::consts::TAU * (i - 1) as f64 / (m - 1) as f64 + 0.35 * rng.gen_f64();
                let radius = 0.45 + 0.65 * rng.gen_f64();
                (
                    center.0 + radius * angle.sin(),
                    center.1 + radius * angle.cos(),
                )
            };
            // Hubs concentrate population (they are the region's major
            // city); satellides draw a smaller share.
            pops[r][i] = if i == 0 {
                2.5 + rng.gen_f64()
            } else {
                0.6 + 1.2 * rng.gen_f64()
            };
        }
    }
    let total_weight: f64 = pops.iter().flatten().sum();
    for row in pops.iter_mut() {
        for w in row.iter_mut() {
            *w *= p.users_millions / total_weight;
        }
    }

    // ---- Node materialization, optionally permuted. ----
    let name = |r: usize, i: usize| format!("r{r}m{i}");
    let mut insertion: Vec<(usize, usize)> =
        (0..n).flat_map(|r| (0..m).map(move |i| (r, i))).collect();
    if p.node_order_seed != 0 {
        let mut order_rng = ChaCha8Rng::seed_from_u64(p.node_order_seed);
        order_rng.shuffle(&mut insertion);
    }
    let mut g = Graph::new();
    for &(r, i) in &insertion {
        g.add_node(name(r, i));
    }
    let node =
        |g: &Graph, r: usize, i: usize| g.node_by_name(&name(r, i)).expect("metro materialized");

    // ---- Fibers, canonical order. ----
    // Region fabric: hub-and-spoke plus a satellite ring (2-connectivity
    // inside the region); parallel pairs per conduit get +2 km each, like
    // the T-backbone's metro conduits.
    for (r, rc) in coords.iter().enumerate() {
        for i in 1..m {
            let km = fiber_km(rc[0], rc[i]);
            for pair in 0..p.metro_fiber_pairs {
                g.add_edge(node(&g, r, 0), node(&g, r, i), km + 2 * pair as u32);
            }
        }
        let satellites: Vec<usize> = (1..m).collect();
        if satellites.len() >= 2 {
            for (idx, &i) in satellites.iter().enumerate() {
                // Two satellites form a chain, not a doubled ring edge.
                if satellites.len() == 2 && idx == 1 {
                    break;
                }
                let j = satellites[(idx + 1) % satellites.len()];
                let km = fiber_km(rc[i], rc[j]);
                for pair in 0..p.metro_fiber_pairs {
                    g.add_edge(node(&g, r, i), node(&g, r, j), km + 2 * pair as u32);
                }
            }
        }
    }
    // Hub core: a ring over the region hubs plus halving chords; parallel
    // long-haul pairs follow distinct conduits (+7 km each).
    for r in 0..n {
        if n == 2 && r == 1 {
            break; // two hubs: one conduit, not a doubled ring edge
        }
        let s = (r + 1) % n;
        let km = fiber_km(coords[r][0], coords[s][0]);
        for pair in 0..p.hub_fiber_pairs {
            g.add_edge(node(&g, r, 0), node(&g, s, 0), km + 7 * pair as u32);
        }
    }
    if n >= 4 {
        for r in 0..n / 2 {
            let s = r + n / 2;
            let km = fiber_km(coords[r][0], coords[s][0]);
            for pair in 0..p.hub_fiber_pairs {
                g.add_edge(node(&g, r, 0), node(&g, s, 0), km + 7 * pair as u32);
            }
        }
    }
    if p.secondary_egress {
        for r in 0..n {
            let s = (r + 1) % n;
            let km = fiber_km(coords[r][1], coords[s][0]);
            g.add_edge(node(&g, r, 1), node(&g, s, 0), km);
        }
    }

    // ---- Gravity-model traffic, canonical pair order. ----
    // Flow between metros a and b ∝ pop_a · pop_b / (1 + d_ab/100 km),
    // calibrated so the total offered load is users × intensity.
    let metro = |a: usize| (a / m, a % m);
    let mut raw = Vec::with_capacity(n * m * (n * m - 1) / 2);
    let mut raw_total = 0.0f64;
    for a in 0..n * m {
        for b in a + 1..n * m {
            let (ra, ia) = metro(a);
            let (rb, ib) = metro(b);
            let d = fiber_km(coords[ra][ia], coords[rb][ib]) as f64;
            let w = pops[ra][ia] * pops[rb][ib] / (1.0 + d / 100.0);
            raw.push(((ra, ia, rb, ib), w));
            raw_total += w;
        }
    }
    let scale = p.users_millions * p.gbps_per_million / raw_total;

    // Aggregate: intra-region pairs keep their flow; the heaviest
    // cross-region metro pairs become direct IP links; all other
    // cross-region flow is folded onto metro↔hub tails (accumulated into
    // the intra map) and a hub↔hub core aggregate.
    let mut intra: BTreeMap<(usize, usize, usize), f64> = BTreeMap::new();
    let mut core: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    let mut cross: Vec<((usize, usize, usize, usize), f64)> = Vec::new();
    for &((ra, ia, rb, ib), w) in &raw {
        let gbps = w * scale;
        if ra == rb {
            *intra.entry((ra, ia, ib)).or_default() += gbps;
        } else {
            cross.push(((ra, ia, rb, ib), gbps));
        }
    }
    // Heaviest cross pairs first; canonical key breaks (exact) ties.
    let mut by_weight = cross.clone();
    by_weight.sort_by(|x, y| y.1.partial_cmp(&x.1).unwrap().then(x.0.cmp(&y.0)));
    let direct: Vec<(usize, usize, usize, usize)> = by_weight
        .iter()
        .take(p.cross_metro_links)
        .map(|&(key, _)| key)
        .collect();
    let mut direct_links: Vec<((usize, usize, usize, usize), f64)> = Vec::new();
    for ((ra, ia, rb, ib), gbps) in cross {
        if direct.contains(&(ra, ia, rb, ib)) {
            direct_links.push(((ra, ia, rb, ib), gbps));
            continue;
        }
        if ia != 0 {
            *intra.entry((ra, 0, ia)).or_default() += gbps;
        }
        if ib != 0 {
            *intra.entry((rb, 0, ib)).or_default() += gbps;
        }
        *core.entry((ra.min(rb), ra.max(rb))).or_default() += gbps;
    }
    direct_links.sort_by_key(|x| x.0);

    // ---- IP links, canonical order: intra, direct cross, hub core. ----
    let mut ip = IpTopology::new();
    for (&(r, i, j), &gbps) in &intra {
        let q = q100(gbps);
        if q > 0 {
            ip.add_link(node(&g, r, i), node(&g, r, j), q);
        }
    }
    for &((ra, ia, rb, ib), gbps) in &direct_links {
        let q = q100(gbps);
        if q > 0 {
            ip.add_link(node(&g, ra, ia), node(&g, rb, ib), q);
        }
    }
    for (&(r, s), &gbps) in &core {
        let q = q100(gbps);
        if q > 0 {
            ip.add_link(node(&g, r, 0), node(&g, s, 0), q);
        }
    }

    let mut region_of = vec![0u32; g.num_nodes()];
    for r in 0..n {
        for i in 0..m {
            region_of[node(&g, r, i).0 as usize] = r as u32;
        }
    }
    let hubs = (0..n).map(|r| node(&g, r, 0)).collect();
    Continental {
        backbone: Backbone { optical: g, ip },
        region_of,
        hubs,
        params: p.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, HashSet};

    /// The named description of an instance: fibers as
    /// (name, name, km) multiset, demands as (name, name, gbps) multiset.
    #[allow(clippy::type_complexity)]
    fn named(
        c: &Continental,
    ) -> (
        BTreeSet<(String, String, u32, usize)>,
        BTreeSet<(String, String, u64, usize)>,
    ) {
        let g = &c.backbone.optical;
        let nm = |id: NodeId| g.nodes()[id.0 as usize].name.clone();
        let key = |a: NodeId, b: NodeId| {
            let (x, y) = (nm(a), nm(b));
            if x <= y {
                (x, y)
            } else {
                (y, x)
            }
        };
        let mut fibers = BTreeSet::new();
        let mut fiber_count: BTreeMap<(String, String, u32), usize> = BTreeMap::new();
        for e in g.edges() {
            let (x, y) = key(e.a, e.b);
            let slot = fiber_count
                .entry((x.clone(), y.clone(), e.length_km))
                .or_default();
            fibers.insert((x, y, e.length_km, *slot));
            *slot += 1;
        }
        let mut demands = BTreeSet::new();
        let mut link_count: BTreeMap<(String, String, u64), usize> = BTreeMap::new();
        for l in c.backbone.ip.links() {
            let (x, y) = key(l.src, l.dst);
            let slot = link_count
                .entry((x.clone(), y.clone(), l.demand_gbps))
                .or_default();
            demands.insert((x, y, l.demand_gbps, *slot));
            *slot += 1;
        }
        (fibers, demands)
    }

    #[test]
    fn continental_shape() {
        let c = continental(&ScaleParams::continental());
        let g = &c.backbone.optical;
        assert_eq!(g.num_nodes(), 42);
        assert_eq!(c.hubs.len(), 6);
        assert!(g.is_connected(&HashSet::new()));
        assert!(c.backbone.ip.num_links() > 100);
        // Gravity demands land on the 100 G grid. The offered load is
        // calibrated to users × intensity; cross-region flow folded onto
        // tail + core + tail segments is counted once per segment at the
        // IP layer, so the link-demand total lands between 1× and 3× the
        // offered load.
        assert!(c
            .backbone
            .ip
            .links()
            .iter()
            .all(|l| l.demand_gbps % 100 == 0));
        let total = c.backbone.ip.total_demand_gbps() as f64;
        let offered = 40.0 * 2000.0;
        assert!(
            total > offered && total < 3.0 * offered,
            "total {total} vs offered {offered}"
        );
    }

    #[test]
    fn survives_any_single_fiber_cut() {
        let c = continental(&ScaleParams::continental());
        let g = &c.backbone.optical;
        for e in g.edges() {
            assert!(
                g.is_connected(&[e.id].into_iter().collect()),
                "cut of {:?} disconnects",
                e.id
            );
        }
    }

    #[test]
    fn span_lengths_are_geo_plausible() {
        let c = continental(&ScaleParams::continental());
        let g = &c.backbone.optical;
        for e in g.edges() {
            let intra = c.region_of[e.a.0 as usize] == c.region_of[e.b.0 as usize];
            if intra {
                assert!(
                    (20..350).contains(&e.length_km),
                    "metro span {} km",
                    e.length_km
                );
            } else {
                assert!(
                    (500..4000).contains(&e.length_km),
                    "long-haul {} km",
                    e.length_km
                );
            }
        }
    }

    #[test]
    fn deterministic() {
        let a = continental(&ScaleParams::continental());
        let b = continental(&ScaleParams::continental());
        assert_eq!(a.backbone.optical, b.backbone.optical);
        assert_eq!(a.backbone.ip.links(), b.backbone.ip.links());
        assert_eq!(a.region_of, b.region_of);
        assert_eq!(a.hubs, b.hubs);
    }

    #[test]
    fn node_order_permutation_keeps_the_named_topology() {
        let base = continental(&ScaleParams::continental());
        for seed in [1u64, 9, 1234] {
            let p = ScaleParams {
                node_order_seed: seed,
                ..ScaleParams::continental()
            };
            let permuted = continental(&p);
            let names = |c: &Continental| -> Vec<String> {
                c.backbone
                    .optical
                    .nodes()
                    .iter()
                    .map(|x| x.name.clone())
                    .collect()
            };
            assert_ne!(
                names(&base),
                names(&permuted),
                "seed {seed} should actually permute the insertion order"
            );
            assert_eq!(named(&base), named(&permuted), "seed {seed}");
        }
    }

    #[test]
    fn shrunk_instance_is_hub_separable() {
        // The parity preset must route all inter-region demand hub-to-hub
        // with no direct cross-metro links and no secondary egress.
        let c = continental(&ScaleParams::shrunk(2));
        let hubset: HashSet<NodeId> = c.hubs.iter().copied().collect();
        for l in c.backbone.ip.links() {
            let (ra, rb) = (c.region_of[l.src.0 as usize], c.region_of[l.dst.0 as usize]);
            if ra != rb {
                assert!(hubset.contains(&l.src) && hubset.contains(&l.dst));
            }
        }
        for e in c.backbone.optical.edges() {
            let (ra, rb) = (c.region_of[e.a.0 as usize], c.region_of[e.b.0 as usize]);
            if ra != rb {
                assert!(hubset.contains(&e.a) && hubset.contains(&e.b));
            }
        }
    }
}
