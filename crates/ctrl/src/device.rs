//! Simulated optical devices: plain state behind a NETCONF-style session,
//! each speaking its vendor's native dialect.
//!
//! A device validates configuration against its *hardware* model from
//! `flexwan-optical` — a fixed-grid MUX rejects off-grid passbands exactly
//! like the real device would — so controller logic is exercised against
//! honest failure modes. A device is state, not a thread: a request is a
//! call on the controller's thread, and a crash is the session dropping
//! that state ([`crate::netconf`]).

use flexwan_optical::devices::{Mux, Roadm};
use flexwan_optical::format::TransponderFormat;
use flexwan_optical::spectrum::PixelRange;

use crate::config::StandardConfig;
use crate::model::DeviceDescriptor;
use crate::netconf::NetconfSession;

/// The line-side state of a transponder device.
#[derive(Debug, Clone, PartialEq)]
pub struct TransponderState {
    /// Programmed operating point.
    pub format: TransponderFormat,
    /// Assigned spectrum.
    pub channel: PixelRange,
    /// Administrative state.
    pub enabled: bool,
}

/// The hardware inside a device.
#[derive(Debug, Clone, PartialEq)]
pub enum Hardware {
    /// A transponder (unconfigured until the first line-config).
    Transponder(Option<TransponderState>),
    /// A MUX with its filter ports.
    Mux(Mux),
    /// A ROADM with its degrees.
    Roadm(Roadm),
}

/// A device's full state snapshot, as returned by get-state.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceState {
    /// Identity and placement.
    pub descriptor: DeviceDescriptor,
    /// Hardware state.
    pub hardware: Hardware,
}

impl DeviceState {
    /// Validates `cfg` against the hardware and puts it into effect.
    pub(crate) fn apply(&mut self, cfg: &StandardConfig) -> Result<(), String> {
        match (&mut self.hardware, cfg) {
            (
                Hardware::Transponder(state),
                StandardConfig::Transponder {
                    format,
                    channel,
                    enabled,
                },
            ) => {
                if format.spacing != channel.width {
                    return Err(format!(
                        "channel width {} does not match format spacing {}",
                        channel.width, format.spacing
                    ));
                }
                *state = Some(TransponderState {
                    format: *format,
                    channel: *channel,
                    enabled: *enabled,
                });
                Ok(())
            }
            (Hardware::Mux(mux), StandardConfig::MuxPort { port, passband }) => match passband {
                Some(r) => mux.set_passband(*port, *r).map_err(|e| e.to_string()),
                None => mux.clear_passband(*port).map_err(|e| e.to_string()),
            },
            (
                Hardware::Roadm(roadm),
                StandardConfig::RoadmExpress {
                    from_degree,
                    to_degree,
                    passband,
                },
            ) => {
                roadm
                    .add_passband(*from_degree, *passband)
                    .map_err(|e| e.to_string())?;
                if let Err(e) = roadm.add_passband(*to_degree, *passband) {
                    // Keep the two degrees atomic.
                    roadm
                        .remove_passband(*from_degree, *passband)
                        .expect("just added");
                    return Err(e.to_string());
                }
                Ok(())
            }
            (
                Hardware::Roadm(roadm),
                StandardConfig::RoadmRelease {
                    from_degree,
                    to_degree,
                    passband,
                },
            ) => {
                roadm
                    .remove_passband(*from_degree, *passband)
                    .map_err(|e| e.to_string())?;
                roadm
                    .remove_passband(*to_degree, *passband)
                    .map_err(|e| e.to_string())
            }
            (hw, cfg) => Err(format!("config {cfg:?} not applicable to {hw:?}")),
        }
    }
}

/// A simulated device: its descriptor and the session that reaches it.
#[derive(Debug)]
pub struct DeviceHandle {
    /// Identity and placement.
    pub descriptor: DeviceDescriptor,
    /// The controller's session to the device.
    pub session: NetconfSession,
}

/// Stands a factory-fresh device up with the given hardware.
pub fn spawn_device(descriptor: DeviceDescriptor, hardware: Hardware) -> DeviceHandle {
    DeviceHandle {
        session: NetconfSession::new(descriptor.clone(), hardware),
        descriptor,
    }
}

/// Whether `state` already reflects `cfg`.
///
/// The retry layer needs this to disambiguate "rejected because already
/// applied": after a reply is lost, the config may well be in effect, and
/// a blind re-send of a non-idempotent config (a ROADM express
/// self-conflicts with its own passband) is rejected even though the
/// intent holds.
pub fn config_in_effect(state: &DeviceState, cfg: &StandardConfig) -> bool {
    match (&state.hardware, cfg) {
        (
            Hardware::Transponder(Some(t)),
            StandardConfig::Transponder {
                format,
                channel,
                enabled,
            },
        ) => t.format == *format && t.channel == *channel && t.enabled == *enabled,
        (Hardware::Mux(m), StandardConfig::MuxPort { port, passband }) => {
            m.passband(*port).ok().as_ref() == Some(passband)
        }
        (
            Hardware::Roadm(r),
            StandardConfig::RoadmExpress {
                from_degree,
                to_degree,
                passband,
            },
        ) => r
            .expresses(*from_degree, *to_degree, passband)
            .unwrap_or(false),
        (
            Hardware::Roadm(r),
            StandardConfig::RoadmRelease {
                from_degree,
                to_degree,
                passband,
            },
        ) => {
            let released = |d: u16| {
                r.passbands(d)
                    .map(|pbs| !pbs.contains(passband))
                    .unwrap_or(false)
            };
            released(*from_degree) && released(*to_degree)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{DeviceId, DeviceKind, Vendor};
    use crate::vendor;
    use flexwan_optical::spectrum::{PixelWidth, SpectrumGrid};
    use flexwan_optical::WssKind;
    use flexwan_topo::graph::NodeId;

    fn descriptor(kind: DeviceKind, vendor: Vendor) -> DeviceDescriptor {
        DeviceDescriptor {
            id: DeviceId(1),
            vendor,
            kind,
            mgmt_ip: DeviceDescriptor::mgmt_ip_for(DeviceId(1)),
            site: NodeId(0),
        }
    }

    #[test]
    fn transponder_configures_over_its_dialect() {
        for vendor in Vendor::ALL {
            let h = spawn_device(
                descriptor(DeviceKind::Transponder, vendor),
                Hardware::Transponder(None),
            );
            let format = TransponderFormat::derive(400, PixelWidth::from_ghz(100.0).unwrap(), 1500);
            let cfg = StandardConfig::Transponder {
                format,
                channel: PixelRange::new(8, PixelWidth::new(8)),
                enabled: true,
            };
            h.session.edit_config(vendor::encode(vendor, &cfg)).unwrap();
            let st = h.session.get_state().unwrap();
            match st.hardware {
                Hardware::Transponder(Some(t)) => {
                    assert_eq!(t.format.data_rate_gbps, 400);
                    assert!(t.enabled);
                }
                other => panic!("unexpected state {other:?}"),
            }
        }
    }

    #[test]
    fn device_rejects_foreign_dialect() {
        // A VendorB device receives a VendorA-encoded document: the field
        // names don't exist in its dialect.
        let h = spawn_device(
            descriptor(DeviceKind::Mux, Vendor::VendorB),
            Hardware::Mux(Mux::new(WssKind::PixelWise, SpectrumGrid::new(64), 8)),
        );
        let cfg = StandardConfig::MuxPort {
            port: 1,
            passband: Some(PixelRange::new(0, PixelWidth::new(6))),
        };
        let foreign = vendor::encode(Vendor::VendorA, &cfg);
        let err = h.session.edit_config(foreign).unwrap_err();
        assert!(matches!(err, crate::netconf::SessionError::Rejected(_)));
        // And accepts its own.
        h.session
            .edit_config(vendor::encode(Vendor::VendorB, &cfg))
            .unwrap();
    }

    #[test]
    fn fixed_grid_mux_rejects_offgrid_passband() {
        let h = spawn_device(
            descriptor(DeviceKind::Mux, Vendor::VendorA),
            Hardware::Mux(Mux::new(
                WssKind::FixedGrid {
                    spacing: PixelWidth::new(6),
                },
                SpectrumGrid::new(48),
                4,
            )),
        );
        let bad = StandardConfig::MuxPort {
            port: 0,
            passband: Some(PixelRange::new(3, PixelWidth::new(6))),
        };
        assert!(h
            .session
            .edit_config(vendor::encode(Vendor::VendorA, &bad))
            .is_err());
        let good = StandardConfig::MuxPort {
            port: 0,
            passband: Some(PixelRange::new(6, PixelWidth::new(6))),
        };
        h.session
            .edit_config(vendor::encode(Vendor::VendorA, &good))
            .unwrap();
    }

    #[test]
    fn roadm_express_is_atomic() {
        let mut roadm = Roadm::new(WssKind::PixelWise, SpectrumGrid::new(32), 2);
        // Pre-occupy degree 1 so the second half of an express fails.
        roadm
            .add_passband(1, PixelRange::new(0, PixelWidth::new(8)))
            .unwrap();
        let h = spawn_device(
            descriptor(DeviceKind::Roadm, Vendor::VendorC),
            Hardware::Roadm(roadm),
        );
        let cfg = StandardConfig::RoadmExpress {
            from_degree: 0,
            to_degree: 1,
            passband: PixelRange::new(4, PixelWidth::new(6)),
        };
        assert!(h
            .session
            .edit_config(vendor::encode(Vendor::VendorC, &cfg))
            .is_err());
        // Degree 0 must have been rolled back.
        let st = h.session.get_state().unwrap();
        match st.hardware {
            Hardware::Roadm(r) => assert!(r.passbands(0).unwrap().is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mismatched_config_kind_rejected() {
        let h = spawn_device(
            descriptor(DeviceKind::Roadm, Vendor::VendorA),
            Hardware::Roadm(Roadm::new(WssKind::PixelWise, SpectrumGrid::new(32), 2)),
        );
        let cfg = StandardConfig::MuxPort {
            port: 0,
            passband: None,
        };
        assert!(h
            .session
            .edit_config(vendor::encode(Vendor::VendorA, &cfg))
            .is_err());
    }
}
