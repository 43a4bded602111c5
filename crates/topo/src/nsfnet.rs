//! The NSFNET T1 backbone: the 14-node reference topology of the optical
//! networking literature, as a third evaluation topology (the paper
//! argues FlexWAN "can be extended to other network topologies" — NSFNET
//! sits between the metro-heavy T-backbone and the continental CERNET in
//! path-length profile).

use crate::builder::{geo_backbone, GeoCity};
use crate::continental::ScaleParams;
use crate::tbackbone::Backbone;

/// NSFNET node cities with (latitude, longitude).
pub const NSFNET_CITIES: &[GeoCity] = &[
    ("Seattle", 47.61, -122.33),
    ("PaloAlto", 37.44, -122.14),
    ("SanDiego", 32.72, -117.16),
    ("SaltLake", 40.76, -111.89),
    ("Boulder", 40.01, -105.27),
    ("Houston", 29.76, -95.37),
    ("Lincoln", 40.81, -96.68),
    ("Champaign", 40.11, -88.24),
    ("Pittsburgh", 40.44, -79.99),
    ("AnnArbor", 42.28, -83.74),
    ("Ithaca", 42.44, -76.50),
    ("CollegePark", 38.99, -76.94),
    ("Princeton", 40.36, -74.66),
    ("Atlanta", 33.75, -84.39),
];

/// The 21 NSFNET T1 links.
pub const NSFNET_EDGES: &[(&str, &str)] = &[
    ("Seattle", "PaloAlto"),
    ("Seattle", "SaltLake"),
    ("Seattle", "Champaign"),
    ("PaloAlto", "SanDiego"),
    ("PaloAlto", "SaltLake"),
    ("SanDiego", "Houston"),
    ("SaltLake", "Boulder"),
    ("SaltLake", "AnnArbor"),
    ("Boulder", "Lincoln"),
    ("Boulder", "Houston"),
    ("Lincoln", "Champaign"),
    ("Houston", "Atlanta"),
    ("Houston", "CollegePark"),
    ("Champaign", "Pittsburgh"),
    ("AnnArbor", "Ithaca"),
    ("AnnArbor", "Princeton"),
    ("Pittsburgh", "Ithaca"),
    ("Pittsburgh", "Atlanta"),
    ("Ithaca", "Princeton"),
    ("Princeton", "CollegePark"),
    ("Atlanta", "CollegePark"),
];

/// NSFNET with ARROW-style demands.
pub fn nsfnet(cfg: &ScaleParams) -> Backbone {
    geo_backbone(NSFNET_CITIES, NSFNET_EDGES, "NSFNET", cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ksp::shortest_path;
    use std::collections::HashSet;

    #[test]
    fn classic_shape() {
        let g = nsfnet(&ScaleParams::nsfnet()).optical;
        assert_eq!(g.num_nodes(), 14);
        assert_eq!(g.num_edges(), 21);
        assert!(g.is_connected(&HashSet::new()));
    }

    #[test]
    fn survives_any_single_cut() {
        // NSFNET is 2-connected: restoration always has a detour.
        let g = nsfnet(&ScaleParams::nsfnet()).optical;
        for e in g.edges() {
            assert!(g.is_connected(&[e.id].into_iter().collect()));
        }
    }

    #[test]
    fn coast_to_coast_distance() {
        let g = nsfnet(&ScaleParams::nsfnet()).optical;
        let sea = g.node_by_name("Seattle").unwrap();
        let pri = g.node_by_name("Princeton").unwrap();
        let p = shortest_path(&g, sea, pri, &HashSet::new()).unwrap();
        // ~4000 km continental crossing with the 1.3 detour factor.
        assert!((3000..6500).contains(&p.length_km), "{} km", p.length_km);
    }

    #[test]
    fn plannable() {
        let b = nsfnet(&ScaleParams {
            ip_links: 40,
            ..ScaleParams::nsfnet()
        });
        assert_eq!(b.ip.num_links(), 40);
    }
}
