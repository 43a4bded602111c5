//! IP-layer topology: routers and IP links with bandwidth-capacity demands.
//!
//! Per §4.4, the IP TopoMgr "stores the demands of bandwidth capacity of
//! each pair of two IP nodes (i.e., IP links)"; determining those demands is
//! explicitly out of scope for the paper ("we use the bandwidth capacity of
//! each IP link provided by network operators"), so an [`IpLink`] simply
//! carries its demand. IP nodes map 1:1 onto optical ROADM sites.

use crate::graph::NodeId;

/// Identifier of an IP link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IpLinkId(pub u32);

/// An IP link: a router adjacency needing `demand_gbps` of bandwidth
/// capacity, realized by one or more wavelengths on optical paths between
/// the corresponding ROADM sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IpLink {
    /// The link's identifier.
    pub id: IpLinkId,
    /// Source ROADM site.
    pub src: NodeId,
    /// Destination ROADM site.
    pub dst: NodeId,
    /// Bandwidth-capacity demand `c_e`, Gbps (multiple of 100 G in
    /// production: router ports are 100 G).
    pub demand_gbps: u64,
}

/// The IP topology: the set of IP links over an optical substrate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IpTopology {
    links: Vec<IpLink>,
}

impl IpTopology {
    /// An empty IP topology.
    pub fn new() -> Self {
        IpTopology::default()
    }

    /// Adds an IP link with the given endpoints and demand.
    pub fn add_link(&mut self, src: NodeId, dst: NodeId, demand_gbps: u64) -> IpLinkId {
        assert!(src != dst, "IP link endpoints must differ");
        assert!(demand_gbps > 0, "IP link demand must be positive");
        let id = IpLinkId(self.links.len() as u32);
        self.links.push(IpLink {
            id,
            src,
            dst,
            demand_gbps,
        });
        id
    }

    /// Replaces the bandwidth-capacity demand of an existing link — the
    /// topology-side half of a demand-delta event (operators resize IP
    /// links under churn; endpoints never change in place).
    pub fn set_demand(&mut self, id: IpLinkId, demand_gbps: u64) {
        assert!(demand_gbps > 0, "IP link demand must be positive");
        self.links[id.0 as usize].demand_gbps = demand_gbps;
    }

    /// All IP links.
    pub fn links(&self) -> &[IpLink] {
        &self.links
    }

    /// The link with id `id`.
    pub fn link(&self, id: IpLinkId) -> &IpLink {
        &self.links[id.0 as usize]
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Total demanded capacity across all links, Gbps.
    pub fn total_demand_gbps(&self) -> u64 {
        self.links.iter().map(|l| l.demand_gbps).sum()
    }

    /// A copy with every demand multiplied by `scale` — the capacity-scale
    /// sweep of Figure 12 ("increasing the bandwidth capacity scale").
    /// Panics on a zero scale or a demand that overflows `u64`.
    pub fn scaled(&self, scale: u64) -> IpTopology {
        assert!(scale > 0, "scale must be positive");
        IpTopology {
            links: self
                .links
                .iter()
                .map(|l| IpLink {
                    demand_gbps: l
                        .demand_gbps
                        .checked_mul(scale)
                        .expect("scaled demand overflows u64"),
                    ..*l
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_total() {
        let mut t = IpTopology::new();
        let a = t.add_link(NodeId(0), NodeId(1), 400);
        let b = t.add_link(NodeId(1), NodeId(2), 800);
        assert_eq!(t.num_links(), 2);
        assert_eq!(t.total_demand_gbps(), 1200);
        assert_eq!(t.link(a).demand_gbps, 400);
        assert_eq!(t.link(b).src, NodeId(1));
    }

    #[test]
    fn scaling() {
        let mut t = IpTopology::new();
        t.add_link(NodeId(0), NodeId(1), 400);
        let t5 = t.scaled(5);
        assert_eq!(t5.total_demand_gbps(), 2000);
        assert_eq!(t5.link(IpLinkId(0)).id, IpLinkId(0));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_demand_rejected() {
        let mut t = IpTopology::new();
        t.add_link(NodeId(0), NodeId(1), 0);
    }
}
