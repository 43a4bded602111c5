//! Spectrum-related issues in a multi-vendor backbone (§3.4, Figure 5) and
//! the uncoordinated-control counterfactual.
//!
//! With per-vendor controllers, "configuring thousands of IP links …
//! increases the likelihood of spectrum-related issues": each vendor's
//! controller assigns spectrum knowing only its own devices, and only
//! configures passbands on OLS sites it owns. [`uncoordinated_assignment`]
//! simulates exactly that; [`find_conflicts`] / [`find_inconsistencies`]
//! audit the result. The centralized planner's output audits clean by
//! construction — the §4.3 "*zero* spectrum inconsistency and conflict"
//! claim, reproduced as a test and as the `tab_ctrl_issues` bench target.

use std::collections::HashMap;

use flexwan_optical::spectrum::{PixelRange, SpectrumGrid, SpectrumMask};
use flexwan_optical::OpticalError;
use flexwan_topo::graph::{EdgeId, NodeId};
use flexwan_topo::path::Path;

use crate::model::Vendor;

/// A wavelength as configured by some control plane: its path and channel.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfiguredChannel {
    /// The optical path.
    pub path: Path,
    /// The spectrum the transponder emits on.
    pub channel: PixelRange,
    /// The vendor whose controller configured it.
    pub vendor: Vendor,
}

/// A detected spectrum issue.
#[derive(Debug, Clone, PartialEq)]
pub enum SpectrumIssue {
    /// Two wavelengths overlap on a fiber (Figure 5(b)).
    Conflict {
        /// The shared fiber.
        fiber: EdgeId,
        /// Indices of the clashing wavelengths.
        wavelengths: (usize, usize),
    },
    /// A wavelength crosses a site whose OLS has no matching passband
    /// (Figure 5(a)): its signal is clipped.
    Inconsistency {
        /// The wavelength affected.
        wavelength: usize,
        /// The site lacking the passband.
        site: NodeId,
    },
}

/// Finds channel conflicts: overlapping channels sharing a fiber.
pub fn find_conflicts(channels: &[ConfiguredChannel]) -> Vec<SpectrumIssue> {
    let mut per_fiber: HashMap<EdgeId, Vec<usize>> = HashMap::new();
    for (i, c) in channels.iter().enumerate() {
        for e in &c.path.edges {
            per_fiber.entry(*e).or_default().push(i);
        }
    }
    let mut issues = Vec::new();
    let mut fibers: Vec<_> = per_fiber.into_iter().collect();
    fibers.sort_by_key(|(e, _)| *e);
    for (fiber, idxs) in fibers {
        for (a_pos, &a) in idxs.iter().enumerate() {
            for &b in &idxs[a_pos + 1..] {
                if channels[a].channel.overlaps(&channels[b].channel) {
                    issues.push(SpectrumIssue::Conflict {
                        fiber,
                        wavelengths: (a, b),
                    });
                }
            }
        }
    }
    issues
}

/// Finds channel inconsistencies given the set of passbands actually
/// configured at each site (`site → configured passbands`).
pub fn find_inconsistencies(
    channels: &[ConfiguredChannel],
    passbands_at: &HashMap<NodeId, Vec<PixelRange>>,
) -> Vec<SpectrumIssue> {
    let mut issues = Vec::new();
    for (i, c) in channels.iter().enumerate() {
        for node in c.path.nodes.iter() {
            let ok = passbands_at
                .get(node)
                .map(|pbs| pbs.iter().any(|pb| pb.contains(&c.channel)))
                .unwrap_or(false);
            if !ok {
                issues.push(SpectrumIssue::Inconsistency {
                    wavelength: i,
                    site: *node,
                });
            }
        }
    }
    issues
}

/// The uncoordinated multi-vendor counterfactual.
///
/// Input: the demands as (path, spacing, vendor) triples — what each
/// vendor's controller is asked to provision. Each vendor controller:
///
/// * assigns spectrum first-fit against **its own wavelengths only** (it
///   cannot see other vendors' usage on shared fibers);
/// * configures passbands **only at sites it owns**.
///
/// Returns the configured channels plus the per-site passbands, ready for
/// the issue finders.
pub fn uncoordinated_assignment(
    demands: &[(Path, flexwan_optical::spectrum::PixelWidth, Vendor)],
    site_owner: &HashMap<NodeId, Vendor>,
    grid: SpectrumGrid,
    num_fibers: usize,
) -> (Vec<ConfiguredChannel>, HashMap<NodeId, Vec<PixelRange>>) {
    let mut per_vendor_masks: HashMap<Vendor, Vec<SpectrumMask>> = HashMap::new();
    let mut channels = Vec::new();
    let mut passbands_at: HashMap<NodeId, Vec<PixelRange>> = HashMap::new();
    for (path, width, vendor) in demands {
        let masks = per_vendor_masks
            .entry(*vendor)
            .or_insert_with(|| vec![SpectrumMask::new(grid); num_fibers]);
        let fibers = path.edges.iter().map(|e| [&masks[e.0 as usize]]);
        let Some(range) = SpectrumMask::first_fit_any_of_each(grid, fibers, *width, 1) else {
            continue; // vendor-local spectrum exhausted; demand dropped
        };
        for e in &path.edges {
            match masks[e.0 as usize].occupy(&range) {
                Ok(()) | Err(OpticalError::SpectrumConflict { .. }) => {}
                Err(other) => panic!("unexpected occupy failure: {other}"),
            }
        }
        // Passbands only at sites this vendor owns.
        for node in path.nodes.iter() {
            if site_owner.get(node) == Some(vendor) {
                passbands_at.entry(*node).or_default().push(range);
            }
        }
        channels.push(ConfiguredChannel {
            path: path.clone(),
            channel: range,
            vendor: *vendor,
        });
    }
    (channels, passbands_at)
}

/// The centralized counterpart: one global first-fit over shared masks,
/// passbands configured at every site of every path (what
/// [`crate::controller::Controller`] does against live devices, in pure
/// form for the counterfactual comparison).
pub fn centralized_assignment(
    demands: &[(Path, flexwan_optical::spectrum::PixelWidth, Vendor)],
    grid: SpectrumGrid,
    num_fibers: usize,
) -> (Vec<ConfiguredChannel>, HashMap<NodeId, Vec<PixelRange>>) {
    let mut masks = vec![SpectrumMask::new(grid); num_fibers];
    let mut channels = Vec::new();
    let mut passbands_at: HashMap<NodeId, Vec<PixelRange>> = HashMap::new();
    for (path, width, vendor) in demands {
        let fibers = path.edges.iter().map(|e| [&masks[e.0 as usize]]);
        let Some(range) = SpectrumMask::first_fit_any_of_each(grid, fibers, *width, 1) else {
            continue;
        };
        for e in &path.edges {
            masks[e.0 as usize].occupy(&range).expect("jointly free");
        }
        for node in path.nodes.iter() {
            passbands_at.entry(*node).or_default().push(range);
        }
        channels.push(ConfiguredChannel {
            path: path.clone(),
            channel: range,
            vendor: *vendor,
        });
    }
    (channels, passbands_at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexwan_optical::spectrum::PixelWidth;
    use flexwan_topo::graph::Graph;

    type CrossingWorld = (
        Graph,
        Vec<(Path, PixelWidth, Vendor)>,
        HashMap<NodeId, Vendor>,
    );

    /// Two paths crossing a shared middle fiber, provisioned by different
    /// vendors (Figure 5(b)'s setup).
    fn crossing() -> CrossingWorld {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        let ab = g.add_edge(a, b, 100);
        let bc = g.add_edge(b, c, 100); // shared
        let cd = g.add_edge(c, d, 100);
        let p1 = Path::new(&g, vec![a, b, c], vec![ab, bc]);
        let p2 = Path::new(&g, vec![b, c, d], vec![bc, cd]);
        // Different spacings so the vendors' first-fit channels overlap
        // without coinciding (a 75 GHz and a 50 GHz wavelength).
        let demands = vec![
            (p1, PixelWidth::new(6), Vendor::VendorA),
            (p2, PixelWidth::new(4), Vendor::VendorB),
        ];
        let owner: HashMap<NodeId, Vendor> = [
            (a, Vendor::VendorA),
            (b, Vendor::VendorA),
            (c, Vendor::VendorB),
            (d, Vendor::VendorB),
        ]
        .into_iter()
        .collect();
        (g, demands, owner)
    }

    #[test]
    fn uncoordinated_control_conflicts_on_shared_fiber() {
        let (g, demands, owner) = crossing();
        let (channels, _) =
            uncoordinated_assignment(&demands, &owner, SpectrumGrid::new(32), g.num_edges());
        // Both vendors first-fit to pixel 0 on the shared fiber.
        let conflicts = find_conflicts(&channels);
        assert_eq!(conflicts.len(), 1);
        assert!(
            matches!(conflicts[0], SpectrumIssue::Conflict { fiber, .. } if fiber == EdgeId(1))
        );
    }

    #[test]
    fn uncoordinated_control_leaves_inconsistencies() {
        let (g, demands, owner) = crossing();
        let (channels, passbands) =
            uncoordinated_assignment(&demands, &owner, SpectrumGrid::new(32), g.num_edges());
        // Wavelength 0 (VendorA) crosses site c owned by VendorB: no
        // passband there.
        let inc = find_inconsistencies(&channels, &passbands);
        assert!(inc.iter().any(
            |i| matches!(i, SpectrumIssue::Inconsistency { wavelength: 0, site } if site.0 == 2)
        ));
    }

    #[test]
    fn centralized_control_is_clean() {
        let (g, demands, _) = crossing();
        let (channels, passbands) =
            centralized_assignment(&demands, SpectrumGrid::new(32), g.num_edges());
        assert_eq!(channels.len(), 2, "both demands placed");
        assert!(find_conflicts(&channels).is_empty());
        assert!(find_inconsistencies(&channels, &passbands).is_empty());
        // And the two wavelengths landed on disjoint spectrum.
        assert!(!channels[0].channel.overlaps(&channels[1].channel));
    }

    #[test]
    fn conflict_finder_ignores_disjoint_spectrum() {
        let (g, demands, _) = crossing();
        let (mut channels, _) =
            centralized_assignment(&demands, SpectrumGrid::new(32), g.num_edges());
        // Force-disjoint channels: no conflicts even on the shared fiber.
        assert!(find_conflicts(&channels).is_empty());
        // Now force both to pixel 0: conflict appears.
        channels[1].channel = channels[0].channel;
        assert_eq!(find_conflicts(&channels).len(), 1);
    }
}
