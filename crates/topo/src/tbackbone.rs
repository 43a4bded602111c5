//! Synthetic "T-backbone": a production-like optical backbone whose
//! optical-path-length distribution matches the paper's Figure 2(a).
//!
//! The real T-backbone (Tencent's production WAN) is confidential; the paper
//! reports only its *shape*: hundreds of optical paths over thousands of IP
//! links, with ≈50 % of optical paths shorter than 200 km and a tail beyond
//! 2000 km. That shape is what drives every relative result in §7–§8, so we
//! generate a deterministic topology fit to it:
//!
//! * metro **regions** — dense clusters of nearby sites (25–90 km fibers),
//!   joined in a ring plus chords; intra-region IP links dominate the
//!   demand set and produce the short-path mass;
//! * a **long-haul mesh** joining region hubs (350–1100 km fibers),
//!   producing the medium/long tail;
//! * IP links drawn with a locality mix (intra-region / adjacent-region /
//!   far) and demands in 100 Gbps multiples, skewed so that short links
//!   carry more capacity (large metro flows), matching Figure 13(a)'s
//!   capacity-weighted CDF.

use flexwan_util::rng::ChaCha8Rng;

use crate::continental::ScaleParams;
use crate::graph::{Graph, NodeId};
use crate::ip::IpTopology;

/// A generated backbone: the optical fiber plant plus the IP-link demand
/// set riding on it.
#[derive(Debug, Clone)]
pub struct Backbone {
    /// Optical topology (ROADM sites and fibers).
    pub optical: Graph,
    /// IP topology (links with demands).
    pub ip: IpTopology,
}

/// Generates the synthetic T-backbone from `cfg`'s regions, metros per
/// region, IP link count, seed and metro / hub fiber pairs.
/// [`ScaleParams::tbackbone`] is the evaluation instance: 8 regions × 5
/// sites = 40 ROADMs and 140 IP links, "hundreds of optical paths" at
/// K=3 candidate paths each (§3.1).
pub fn t_backbone(cfg: &ScaleParams) -> Backbone {
    assert!(cfg.regions >= 2 && cfg.metros_per_region >= 2 && cfg.ip_links >= 1);
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut g = Graph::new();

    // Region hubs are node index 0 of each region.
    let mut region_nodes: Vec<Vec<NodeId>> = Vec::with_capacity(cfg.regions);
    for r in 0..cfg.regions {
        let mut nodes = Vec::with_capacity(cfg.metros_per_region);
        for i in 0..cfg.metros_per_region {
            nodes.push(g.add_node(format!("r{r}n{i}")));
        }
        // Metro ring: 25–90 km spans, two fiber pairs per span (metro
        // conduits carry multiple pairs; the metro mileage is where the
        // demand concentrates).
        for i in 0..cfg.metros_per_region {
            let j = (i + 1) % cfg.metros_per_region;
            if cfg.metros_per_region == 2 && i == 1 {
                break; // avoid duplicating the single ring edge
            }
            let len = rng.gen_range(25u32..=90);
            for pair in 0..cfg.metro_fiber_pairs {
                g.add_edge(nodes[i], nodes[j], len + 2 * pair as u32);
            }
        }
        // One chord for intra-region diversity (restoration needs ≥2
        // disjoint paths).
        if cfg.metros_per_region >= 4 {
            let len = rng.gen_range(40u32..=120);
            for pair in 0..cfg.metro_fiber_pairs {
                g.add_edge(
                    nodes[0],
                    nodes[cfg.metros_per_region / 2],
                    len + 2 * pair as u32,
                );
            }
        }
        region_nodes.push(nodes);
    }

    // Long-haul ring over region hubs plus cross-country chords.
    for r in 0..cfg.regions {
        let next = (r + 1) % cfg.regions;
        if cfg.regions == 2 && r == 1 {
            break;
        }
        let len = rng.gen_range(350u32..=800);
        for pair in 0..cfg.hub_fiber_pairs {
            g.add_edge(
                region_nodes[r][0],
                region_nodes[next][0],
                len + 5 * pair as u32,
            );
        }
    }
    if cfg.regions >= 4 {
        for r in (0..cfg.regions).step_by(2) {
            let far = (r + cfg.regions / 2) % cfg.regions;
            if far != r {
                let len = rng.gen_range(700u32..=1100);
                for pair in 0..cfg.hub_fiber_pairs {
                    g.add_edge(
                        region_nodes[r][0],
                        region_nodes[far][0],
                        len + 5 * pair as u32,
                    );
                }
            }
        }
    }

    // Secondary egress per region: second metro node links to the next
    // region's hub, so regions stay connected under any single hub-adjacent
    // fiber cut.
    if cfg.metros_per_region >= 2 {
        for r in 0..cfg.regions {
            let next = (r + 1) % cfg.regions;
            if cfg.regions == 2 && r == 1 {
                break;
            }
            let len = rng.gen_range(400u32..=900);
            for pair in 0..cfg.hub_fiber_pairs {
                g.add_edge(
                    region_nodes[r][1],
                    region_nodes[next][0],
                    len + 5 * pair as u32,
                );
            }
        }
    }

    // IP links: locality mix tuned to Figure 2(a)'s path-length CDF.
    //   58 % intra-region (1–2 metro hops, mostly < 200 km),
    //   27 % adjacent-region (one long-haul hop + metro tails),
    //   15 % far (several long-haul hops, the > 1500 km tail).
    let mut ip = IpTopology::new();
    for _ in 0..cfg.ip_links {
        let roll: f64 = rng.gen_f64();
        let (src, dst) = if roll < 0.58 {
            let r = rng.gen_range(0..cfg.regions);
            let i = rng.gen_range(0..cfg.metros_per_region);
            let mut j = rng.gen_range(0..cfg.metros_per_region);
            while j == i {
                j = rng.gen_range(0..cfg.metros_per_region);
            }
            (region_nodes[r][i], region_nodes[r][j])
        } else if roll < 0.85 {
            let r = rng.gen_range(0..cfg.regions);
            let next = (r + 1) % cfg.regions;
            let i = rng.gen_range(0..cfg.metros_per_region);
            let j = rng.gen_range(0..cfg.metros_per_region);
            (region_nodes[r][i], region_nodes[next][j])
        } else {
            let r = rng.gen_range(0..cfg.regions);
            // With < 4 regions every other region is adjacent; fall back to
            // "any different region" so the draw always terminates.
            let mut s = rng.gen_range(0..cfg.regions);
            if cfg.regions >= 4 {
                while s == r || s == (r + 1) % cfg.regions || r == (s + 1) % cfg.regions {
                    s = rng.gen_range(0..cfg.regions);
                }
            } else {
                while s == r {
                    s = rng.gen_range(0..cfg.regions);
                }
            }
            let i = rng.gen_range(0..cfg.metros_per_region);
            let j = rng.gen_range(0..cfg.metros_per_region);
            (region_nodes[r][i], region_nodes[s][j])
        };
        // Demands in 100 G multiples. Metro links are fat (large
        // inter-DC flows): 0.8–2 Tbps; long-haul links 300–800 G.
        // Calibrated jointly with the fiber plant so the fixed 100G-WAN
        // baseline saturates near 3× the present-day demand (Figure 12's
        // 3×/5×/8× ladder) while per-link demands are in the multi-Tbps
        // regime where the paper's §7 savings arise.
        let demand = if roll < 0.58 {
            100 * rng.gen_range(8..=20) as u64
        } else {
            100 * rng.gen_range(3..=8) as u64
        };
        ip.add_link(src, dst, demand);
    }

    Backbone { optical: g, ip }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ksp::shortest_path;
    use std::collections::HashSet;

    #[test]
    fn default_shape() {
        let b = t_backbone(&ScaleParams::tbackbone());
        assert_eq!(b.optical.num_nodes(), 40);
        assert_eq!(b.ip.num_links(), 140);
        assert!(b.optical.is_connected(&HashSet::new()));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = t_backbone(&ScaleParams::tbackbone());
        let b = t_backbone(&ScaleParams::tbackbone());
        assert_eq!(a.optical, b.optical);
        assert_eq!(a.ip, b.ip);
        let c = t_backbone(&ScaleParams {
            seed: 8,
            ..ScaleParams::tbackbone()
        });
        assert_ne!(a.optical, c.optical);
    }

    #[test]
    fn survives_any_single_fiber_cut() {
        // §8 needs restoration paths to exist for every 1-failure scenario.
        let b = t_backbone(&ScaleParams::tbackbone());
        for e in b.optical.edges() {
            let banned: HashSet<_> = [e.id].into_iter().collect();
            assert!(
                b.optical.is_connected(&banned),
                "cutting fiber {:?} disconnects the backbone",
                e.id
            );
        }
    }

    #[test]
    fn path_length_distribution_matches_fig2a() {
        // Figure 2(a): ≈50 % of optical paths are < 200 km, with a tail
        // beyond 2000 km. Allow generous tolerance — the claim is the
        // *shape*, not exact percentages.
        let b = t_backbone(&ScaleParams::tbackbone());
        let none = HashSet::new();
        let lengths: Vec<u32> =
            b.ip.links()
                .iter()
                .map(|l| {
                    shortest_path(&b.optical, l.src, l.dst, &none)
                        .expect("connected")
                        .length_km
                })
                .collect();
        let n = lengths.len() as f64;
        let short = lengths.iter().filter(|&&d| d < 200).count() as f64 / n;
        let long = lengths.iter().filter(|&&d| d > 1200).count() as f64 / n;
        assert!(
            (0.38..=0.62).contains(&short),
            "fraction of paths < 200 km is {short:.2}, expected ≈0.5"
        );
        assert!(long > 0.02, "long-path tail missing: {long:.2}");
        assert!(lengths.iter().any(|&d| d > 1500), "no >1500 km paths");
    }

    #[test]
    fn demands_are_100g_multiples() {
        let b = t_backbone(&ScaleParams::tbackbone());
        for l in b.ip.links() {
            assert_eq!(l.demand_gbps % 100, 0);
            assert!(l.demand_gbps >= 300 && l.demand_gbps <= 2000);
        }
    }

    #[test]
    fn small_configs_work() {
        let b = t_backbone(&ScaleParams {
            regions: 2,
            metros_per_region: 2,
            ip_links: 4,
            seed: 1,
            metro_fiber_pairs: 1,
            hub_fiber_pairs: 1,
            ..ScaleParams::tbackbone()
        });
        assert!(b.optical.is_connected(&HashSet::new()));
        assert_eq!(b.ip.num_links(), 4);
    }
}
