//! Device identity (§4.3): id, vendor, kind, management address and site.
//!
//! "We utilize a standard device model for each type of device so that the
//! heterogeneous devices across vendors are uniformly abstracted into a
//! group of logic components." The abstraction the controller exercises is
//! the vendor-agnostic [`StandardConfig`](crate::config::StandardConfig)
//! per device kind, which the vendor adapters ([`crate::vendor`])
//! translate into native dialects, so the controller never speaks a
//! vendor-specific language.

use std::net::Ipv4Addr;

use flexwan_topo::graph::NodeId;

/// Controller-wide device identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub u32);

/// Equipment vendor. Vendor diversity is deliberate in production (§9:
/// "essential to prevent monopolies and mitigate concurrent optical
/// failures").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vendor {
    /// Vendor A: configures spectrum in GHz offsets.
    VendorA,
    /// Vendor B: configures spectrum in 12.5 GHz slice indices.
    VendorB,
    /// Vendor C: configures spectrum in MHz with its own field names.
    VendorC,
}

impl Vendor {
    /// All vendors.
    pub const ALL: [Vendor; 3] = [Vendor::VendorA, Vendor::VendorB, Vendor::VendorC];
}

/// Device category in the optical layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// An optical transponder (SVT/BVT/fixed).
    Transponder,
    /// An AWG multiplexer with a WSS filter stage.
    Mux,
    /// A reconfigurable optical add-drop multiplexer.
    Roadm,
}

/// A device registered with the controller: identity, vendor, kind, its
/// management IP (the controller "uses this IP address to locate the
/// optical device", §4.3) and the ROADM site it sits at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceDescriptor {
    /// Controller-wide identifier.
    pub id: DeviceId,
    /// Equipment vendor.
    pub vendor: Vendor,
    /// Device category.
    pub kind: DeviceKind,
    /// Management-plane IPv4 address.
    pub mgmt_ip: Ipv4Addr,
    /// The optical site hosting the device.
    pub site: NodeId,
}

impl DeviceDescriptor {
    /// Allocates the conventional management address for device `id`:
    /// 10.x.y.z from the id (deterministic, collision-free for < 2²⁴
    /// devices).
    pub fn mgmt_ip_for(id: DeviceId) -> Ipv4Addr {
        let n = id.0;
        Ipv4Addr::new(10, (n >> 16) as u8, (n >> 8) as u8, n as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mgmt_ips_unique() {
        let a = DeviceDescriptor::mgmt_ip_for(DeviceId(1));
        let b = DeviceDescriptor::mgmt_ip_for(DeviceId(256));
        let c = DeviceDescriptor::mgmt_ip_for(DeviceId(65536));
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(a, Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(c, Ipv4Addr::new(10, 1, 0, 0));
    }
}
