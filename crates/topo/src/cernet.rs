//! The CERNET backbone topology (§7.2).
//!
//! The paper's second evaluation topology is CERNET — the China Education
//! and Research Network — "released in \[4\]", used as the optical topology
//! of a point-to-point backbone. We embed the public CERNET backbone node
//! set (provincial-capital POPs) with fiber lengths derived from
//! great-circle distances between the cities times the standard 1.3 routing
//! detour factor (see [`crate::geo`]). Its median path is much longer than
//! the T-backbone's, reproducing Figure 13(a)'s contrast.

use crate::builder::{geo_backbone, GeoCity};
use crate::continental::ScaleParams;
use crate::tbackbone::Backbone;

/// CERNET POP cities with (latitude, longitude).
pub const CERNET_CITIES: &[GeoCity] = &[
    ("Beijing", 39.90, 116.40),
    ("Tianjin", 39.13, 117.20),
    ("Shijiazhuang", 38.04, 114.51),
    ("Taiyuan", 37.87, 112.55),
    ("Hohhot", 40.84, 111.75),
    ("Shenyang", 41.80, 123.43),
    ("Dalian", 38.91, 121.61),
    ("Changchun", 43.88, 125.32),
    ("Harbin", 45.80, 126.53),
    ("Jinan", 36.65, 117.12),
    ("Qingdao", 36.07, 120.38),
    ("Zhengzhou", 34.75, 113.63),
    ("Shanghai", 31.23, 121.47),
    ("Nanjing", 32.06, 118.80),
    ("Hangzhou", 30.27, 120.15),
    ("Hefei", 31.82, 117.23),
    ("Fuzhou", 26.07, 119.30),
    ("Xiamen", 24.48, 118.09),
    ("Nanchang", 28.68, 115.86),
    ("Wuhan", 30.59, 114.31),
    ("Changsha", 28.23, 112.94),
    ("Guangzhou", 23.13, 113.26),
    ("Shenzhen", 22.54, 114.06),
    ("Nanning", 22.82, 108.32),
    ("Haikou", 20.04, 110.34),
    ("Guiyang", 26.65, 106.63),
    ("Kunming", 25.04, 102.72),
    ("Chengdu", 30.57, 104.07),
    ("Chongqing", 29.56, 106.55),
    ("Xian", 34.34, 108.94),
    ("Lanzhou", 36.06, 103.83),
    ("Xining", 36.62, 101.78),
    ("Yinchuan", 38.49, 106.23),
    ("Urumqi", 43.83, 87.62),
    ("Lhasa", 29.65, 91.14),
];

/// CERNET backbone adjacencies (city-name pairs). Beijing is the national
/// hub; Shanghai, Guangzhou, Wuhan, Nanjing, Xi'an, Chengdu and Shenyang
/// are regional hubs, mirroring the published backbone structure.
pub const CERNET_EDGES: &[(&str, &str)] = &[
    // North / around Beijing
    ("Beijing", "Tianjin"),
    ("Beijing", "Shijiazhuang"),
    ("Beijing", "Taiyuan"),
    ("Beijing", "Hohhot"),
    ("Beijing", "Jinan"),
    ("Beijing", "Zhengzhou"),
    ("Beijing", "Shenyang"),
    ("Beijing", "Shanghai"),
    ("Beijing", "Wuhan"),
    ("Beijing", "Xian"),
    // Northeast chain
    ("Shenyang", "Changchun"),
    ("Changchun", "Harbin"),
    ("Shenyang", "Dalian"),
    ("Tianjin", "Dalian"),
    // East
    ("Jinan", "Qingdao"),
    ("Jinan", "Nanjing"),
    ("Shanghai", "Nanjing"),
    ("Shanghai", "Hangzhou"),
    ("Nanjing", "Hefei"),
    ("Hangzhou", "Nanchang"),
    ("Shanghai", "Wuhan"),
    // Southeast
    ("Nanchang", "Fuzhou"),
    ("Fuzhou", "Xiamen"),
    ("Xiamen", "Guangzhou"),
    // South
    ("Guangzhou", "Shenzhen"),
    ("Guangzhou", "Changsha"),
    ("Guangzhou", "Nanning"),
    ("Nanning", "Haikou"),
    ("Guangzhou", "Wuhan"),
    // Center
    ("Wuhan", "Changsha"),
    ("Wuhan", "Nanchang"),
    ("Wuhan", "Zhengzhou"),
    ("Wuhan", "Chongqing"),
    ("Hefei", "Wuhan"),
    // Southwest
    ("Chongqing", "Chengdu"),
    ("Chongqing", "Guiyang"),
    ("Guiyang", "Kunming"),
    ("Chengdu", "Kunming"),
    ("Chengdu", "Lhasa"),
    ("Chengdu", "Xian"),
    // Northwest
    ("Xian", "Zhengzhou"),
    ("Xian", "Lanzhou"),
    ("Lanzhou", "Xining"),
    ("Lanzhou", "Yinchuan"),
    ("Lanzhou", "Urumqi"),
];

/// Builds the CERNET backbone with an ARROW-style IP topology and demands,
/// as the paper does ("use distributions in \[49\] to generate the IP
/// topology and bandwidth capacity").
pub fn cernet(cfg: &ScaleParams) -> Backbone {
    geo_backbone(CERNET_CITIES, CERNET_EDGES, "CERNET", cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ksp::shortest_path;
    use std::collections::HashSet;

    #[test]
    fn topology_is_connected_and_sized() {
        let g = cernet(&ScaleParams::cernet()).optical;
        assert_eq!(g.num_nodes(), 35);
        assert_eq!(g.num_edges(), CERNET_EDGES.len());
        assert!(g.is_connected(&HashSet::new()));
    }

    #[test]
    fn fiber_lengths_are_geographic() {
        let g = cernet(&ScaleParams::cernet()).optical;
        let bj = g.node_by_name("Beijing").unwrap();
        let sh = g.node_by_name("Shanghai").unwrap();
        let edge = g
            .edges()
            .iter()
            .find(|e| (e.a == bj && e.b == sh) || (e.a == sh && e.b == bj))
            .unwrap();
        // ≈1070 km geodesic × 1.3 ≈ 1390 km of fiber.
        assert!(
            (1300..1500).contains(&edge.length_km),
            "got {}",
            edge.length_km
        );
    }

    #[test]
    fn longest_shortest_path_spans_the_country() {
        let g = cernet(&ScaleParams::cernet()).optical;
        let harbin = g.node_by_name("Harbin").unwrap();
        let urumqi = g.node_by_name("Urumqi").unwrap();
        let p = shortest_path(&g, harbin, urumqi, &HashSet::new()).unwrap();
        assert!(p.length_km > 3500, "Harbin–Urumqi is {} km", p.length_km);
    }

    #[test]
    fn median_path_longer_than_tbackbone() {
        // Figure 13(a): CERNET's median optical path is much longer than
        // T-backbone's.
        use crate::tbackbone::t_backbone;
        let none = HashSet::new();
        let median = |b: &crate::tbackbone::Backbone| -> u32 {
            let mut l: Vec<u32> =
                b.ip.links()
                    .iter()
                    .map(|x| {
                        shortest_path(&b.optical, x.src, x.dst, &none)
                            .unwrap()
                            .length_km
                    })
                    .collect();
            l.sort_unstable();
            l[l.len() / 2]
        };
        let cer = cernet(&ScaleParams::cernet());
        let tb = t_backbone(&ScaleParams::tbackbone());
        assert!(
            median(&cer) > 2 * median(&tb),
            "cernet median {} vs t-backbone {}",
            median(&cer),
            median(&tb)
        );
    }
}
