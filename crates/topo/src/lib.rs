//! Topology substrate for the FlexWAN reproduction.
//!
//! Provides the inputs of the paper's Algorithm 1: the IP topology
//! `G(V, E)` with per-link bandwidth demands `c_e`, the optical topology
//! `G_o(V_o, E_o)` of ROADM sites and fibers, and the K-shortest-path
//! machinery producing the candidate optical paths `P_{e,k}`.
//!
//! Two evaluation topologies are built in:
//! * [`tbackbone`] — a deterministic synthetic stand-in for the
//!   confidential production T-backbone, fit to the paper's published
//!   path-length distribution (Figure 2(a));
//! * [`cernet`] — the public CERNET backbone with geographically derived
//!   fiber lengths and ARROW-style demands (§7.2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod cache;
pub mod cernet;
pub mod continental;
pub mod demand;
pub mod geo;
pub mod graph;
pub mod ip;
pub mod ksp;
pub mod nsfnet;
pub mod path;
pub mod route;
pub mod tbackbone;

pub use builder::{geo_backbone, GeoCity};
pub use cache::RouteCache;
pub use continental::{continental, Continental, Family, ScaleParams};
pub use demand::arrow_ip_topology;
pub use graph::{Edge, EdgeId, Graph, Node, NodeId};
pub use ip::{IpLink, IpLinkId, IpTopology};
pub use ksp::{k_shortest_paths, shortest_path, DijkstraScratch};
pub use path::Path;
pub use route::{conduits, k_shortest_routes, Route};
pub use tbackbone::{t_backbone, Backbone};
