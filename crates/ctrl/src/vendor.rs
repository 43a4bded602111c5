//! Vendor adapters: translating standard configuration into each vendor's
//! native dialect (§4.3, §9 "vendor-agnostic optical backbone").
//!
//! Every vendor ships a different management encoding — units, field
//! names, even how spectrum is addressed — which is exactly the
//! fragmentation the centralized controller hides. A dialect document is
//! a typed record ([`Native`]): the op and its fields, with spectrum in
//! the vendor's own [`Address`] form, which is what differs between
//! vendors. A device decodes its own dialect with its own unit arithmetic
//! and grid checks and rejects another vendor's addressing; the record
//! prints as the JSON the device's management interface shows. The
//! adapters are deliberately lossless: `decode(encode(c)) == c` for every
//! standard config, proven by round-trip and property tests.

use flexwan_optical::format::TransponderFormat;
use flexwan_optical::modulation::Modulation;
use flexwan_optical::spectrum::{PixelRange, PixelWidth, PIXEL_GHZ};
use flexwan_optical::OpticalError;

use crate::config::StandardConfig;
use crate::model::Vendor;

/// Translation error: the native document was malformed or off-grid.
///
/// When the failure originates in the optical layer (an off-grid width
/// or start), the underlying [`OpticalError`] is preserved and exposed
/// through [`std::error::Error::source`] so callers can report — or
/// match on — the root cause instead of a flattened string.
#[derive(Debug, Clone, PartialEq)]
pub struct DialectError {
    msg: String,
    source: Option<OpticalError>,
}

impl DialectError {
    /// A translation error with no deeper cause.
    pub fn new(msg: impl Into<String>) -> Self {
        DialectError {
            msg: msg.into(),
            source: None,
        }
    }

    /// A translation error caused by an optical-layer rejection.
    pub fn with_source(msg: impl Into<String>, source: OpticalError) -> Self {
        DialectError {
            msg: msg.into(),
            source: Some(source),
        }
    }

    /// The dialect-level message (without the source chain).
    pub fn message(&self) -> &str {
        &self.msg
    }
}

impl std::fmt::Display for DialectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vendor dialect error: {}", self.msg)
    }
}

impl std::error::Error for DialectError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.source
            .as_ref()
            .map(|e| e as &(dyn std::error::Error + 'static))
    }
}

/// A spectrum address in one vendor's own form. Each vendor addresses
/// spectrum its own way, and a device reads only its vendor's form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Address {
    /// Vendor A: GHz offsets from band start.
    Ghz {
        /// `low_ghz`: lower edge.
        low_ghz: f64,
        /// `high_ghz`: upper edge.
        high_ghz: f64,
    },
    /// Vendor B: 12.5 GHz slice indices, inclusive start and a count.
    Slices {
        /// `slice_start`: first slice.
        slice_start: u64,
        /// `slice_count`: number of slices.
        slice_count: u64,
    },
    /// Vendor C: MHz integers.
    Mhz {
        /// `f_min_mhz`: lower edge.
        f_min_mhz: u64,
        /// `f_max_mhz`: upper edge.
        f_max_mhz: u64,
    },
}

impl Address {
    /// A pixel range in `vendor`'s addressing.
    fn encode(vendor: Vendor, r: &PixelRange) -> Address {
        match vendor {
            Vendor::VendorA => Address::Ghz {
                low_ghz: r.low_ghz(),
                high_ghz: r.high_ghz(),
            },
            Vendor::VendorB => Address::Slices {
                slice_start: u64::from(r.start),
                slice_count: u64::from(r.width.pixels()),
            },
            Vendor::VendorC => Address::Mhz {
                f_min_mhz: (r.low_ghz() * 1000.0) as u64,
                f_max_mhz: (r.high_ghz() * 1000.0) as u64,
            },
        }
    }

    /// Reads the address back to pixels as a `vendor` device does. An
    /// address in another vendor's form lacks this dialect's first field.
    fn decode(self, vendor: Vendor) -> Result<PixelRange, DialectError> {
        let (low_ghz, width_ghz) = match (vendor, self) {
            (Vendor::VendorA, Address::Ghz { low_ghz, high_ghz }) => (low_ghz, high_ghz - low_ghz),
            (
                Vendor::VendorB,
                Address::Slices {
                    slice_start,
                    slice_count,
                },
            ) => (
                slice_start as f64 * PIXEL_GHZ,
                slice_count as f64 * PIXEL_GHZ,
            ),
            (
                Vendor::VendorC,
                Address::Mhz {
                    f_min_mhz,
                    f_max_mhz,
                },
            ) => {
                let low = f_min_mhz as f64 / 1000.0;
                (low, f_max_mhz as f64 / 1000.0 - low)
            }
            (Vendor::VendorA, _) => return Err(DialectError::new("missing numeric field low_ghz")),
            (Vendor::VendorB, _) => {
                return Err(DialectError::new("missing integer field slice_start"))
            }
            (Vendor::VendorC, _) => {
                return Err(DialectError::new("missing integer field f_min_mhz"))
            }
        };
        let width = PixelWidth::from_ghz(width_ghz).map_err(|e| {
            DialectError::with_source(format!("native width {width_ghz} GHz is off-grid"), e)
        })?;
        let start = low_ghz / PIXEL_GHZ;
        if (start - start.round()).abs() > 1e-6 || start < 0.0 {
            return Err(DialectError::new(format!(
                "native start {low_ghz} GHz off-grid"
            )));
        }
        Ok(PixelRange::new(start.round() as u32, width))
    }
}

/// A vendor-native configuration document: the dialect's op with its
/// fields, spectrum in the vendor's own [`Address`] form. It is plain
/// data — encoding and sending one allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Native {
    /// `line-config`: a transponder's line side. The device re-derives
    /// the internal settings from rate, reach and spectrum width, as
    /// [`TransponderFormat::derive`] does.
    LineConfig {
        /// `rate_gbps`: net data rate.
        rate_gbps: u32,
        /// `reach_km`: the reach the format is engineered for.
        reach_km: u32,
        /// `fec_overhead_pct`: FEC overhead (informational).
        fec_overhead_pct: u8,
        /// `baud_gbd`: symbol rate (informational).
        baud_gbd: f64,
        /// `modulation`: DSP modulation (informational).
        modulation: Modulation,
        /// `spectrum`: the channel the line occupies.
        spectrum: Address,
        /// `admin_up`: administrative state.
        admin_up: bool,
    },
    /// `filter-port`: one MUX filter port's passband; `None` clears it.
    FilterPort {
        /// `port`: the faceplate port.
        port: u16,
        /// `passband`: the port's passband (`null` clears it).
        passband: Option<Address>,
    },
    /// `express-add`: a ROADM express passband between two degrees.
    ExpressAdd {
        /// `ingress`: ingress degree.
        ingress: u16,
        /// `egress`: egress degree.
        egress: u16,
        /// `passband`: the expressed passband.
        passband: Address,
    },
    /// `express-del`: removes a ROADM express passband.
    ExpressDel {
        /// `ingress`: ingress degree.
        ingress: u16,
        /// `egress`: egress degree.
        egress: u16,
        /// `passband`: the expressed passband.
        passband: Address,
    },
}

/// A number the way the dialect writes a float: always with a fraction
/// (`125.0`), and `null` when not finite.
struct Float(f64);

impl std::fmt::Display for Float {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            x if !x.is_finite() => f.write_str("null"),
            x if x.fract() == 0.0 => write!(f, "{x}.0"),
            x => write!(f, "{x}"),
        }
    }
}

impl std::fmt::Display for Address {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Address::Ghz { low_ghz, high_ghz } => write!(
                f,
                r#"{{"high_ghz":{},"low_ghz":{}}}"#,
                Float(high_ghz),
                Float(low_ghz)
            ),
            Address::Slices {
                slice_start,
                slice_count,
            } => write!(
                f,
                r#"{{"slice_count":{slice_count},"slice_start":{slice_start}}}"#
            ),
            Address::Mhz {
                f_min_mhz,
                f_max_mhz,
            } => write!(f, r#"{{"f_max_mhz":{f_max_mhz},"f_min_mhz":{f_min_mhz}}}"#),
        }
    }
}

/// The document as the device's management interface shows it: compact
/// JSON with the dialect's field names, keys in order.
impl std::fmt::Display for Native {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Native::LineConfig {
                rate_gbps,
                reach_km,
                fec_overhead_pct,
                baud_gbd,
                modulation,
                spectrum,
                admin_up,
            } => write!(
                f,
                r#"{{"admin_up":{admin_up},"baud_gbd":{},"fec_overhead_pct":{fec_overhead_pct},"modulation":"{modulation}","op":"line-config","rate_gbps":{rate_gbps},"reach_km":{reach_km},"spectrum":{spectrum}}}"#,
                Float(baud_gbd)
            ),
            Native::FilterPort { port, passband } => {
                f.write_str(r#"{"op":"filter-port","passband":"#)?;
                match passband {
                    Some(a) => write!(f, "{a}")?,
                    None => f.write_str("null")?,
                }
                write!(f, r#","port":{port}}}"#)
            }
            Native::ExpressAdd {
                ingress,
                egress,
                passband,
            }
            | Native::ExpressDel {
                ingress,
                egress,
                passband,
            } => {
                let op = match self {
                    Native::ExpressAdd { .. } => "express-add",
                    _ => "express-del",
                };
                write!(
                    f,
                    r#"{{"egress":{egress},"ingress":{ingress},"op":"{op}","passband":{passband}}}"#
                )
            }
        }
    }
}

/// Encodes a standard config into the vendor's native document.
pub fn encode(vendor: Vendor, cfg: &StandardConfig) -> Native {
    match cfg {
        StandardConfig::Transponder {
            format,
            channel,
            enabled,
        } => Native::LineConfig {
            rate_gbps: format.data_rate_gbps,
            reach_km: format.reach_km,
            fec_overhead_pct: format.fec.percent(),
            baud_gbd: format.baud_gbd,
            modulation: format.modulation,
            spectrum: Address::encode(vendor, channel),
            admin_up: *enabled,
        },
        StandardConfig::MuxPort { port, passband } => Native::FilterPort {
            port: *port,
            passband: passband.as_ref().map(|r| Address::encode(vendor, r)),
        },
        StandardConfig::RoadmExpress {
            from_degree,
            to_degree,
            passband,
        } => Native::ExpressAdd {
            ingress: *from_degree,
            egress: *to_degree,
            passband: Address::encode(vendor, passband),
        },
        StandardConfig::RoadmRelease {
            from_degree,
            to_degree,
            passband,
        } => Native::ExpressDel {
            ingress: *from_degree,
            egress: *to_degree,
            passband: Address::encode(vendor, passband),
        },
    }
}

/// Decodes a vendor-native document back into standard form, as a device
/// of `vendor` reads it before applying it.
pub fn decode(vendor: Vendor, native: &Native) -> Result<StandardConfig, DialectError> {
    Ok(match *native {
        Native::LineConfig {
            rate_gbps,
            reach_km,
            spectrum,
            admin_up,
            ..
        } => {
            let channel = spectrum.decode(vendor)?;
            // What `TransponderFormat::derive` asserts: a symbol rate
            // left past the one-pixel guard band, and a line that carries
            // data. A device answers a document without them, it does
            // not panic on it.
            if channel.width.pixels() < 2 {
                return Err(DialectError::new(format!(
                    "line-config spectrum of {} GHz leaves no symbol rate past the 12.5 GHz guard band",
                    channel.width.ghz()
                )));
            }
            if rate_gbps == 0 {
                return Err(DialectError::new("line-config rate_gbps must be positive"));
            }
            StandardConfig::Transponder {
                format: TransponderFormat::derive(rate_gbps, channel.width, reach_km),
                channel,
                enabled: admin_up,
            }
        }
        Native::FilterPort { port, passband } => StandardConfig::MuxPort {
            port,
            passband: passband.map(|a| a.decode(vendor)).transpose()?,
        },
        Native::ExpressAdd {
            ingress,
            egress,
            passband,
        } => StandardConfig::RoadmExpress {
            from_degree: ingress,
            to_degree: egress,
            passband: passband.decode(vendor)?,
        },
        Native::ExpressDel {
            ingress,
            egress,
            passband,
        } => StandardConfig::RoadmRelease {
            from_degree: ingress,
            to_degree: egress,
            passband: passband.decode(vendor)?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{spawn_device, DeviceHandle, Hardware};
    use crate::model::{DeviceDescriptor, DeviceId, DeviceKind};
    use crate::netconf::SessionError;
    use flexwan_optical::spectrum::SpectrumGrid;
    use flexwan_optical::{Mux, WssKind};
    use flexwan_topo::graph::NodeId;

    fn sample_configs() -> Vec<StandardConfig> {
        let r = PixelRange::new(10, PixelWidth::new(7));
        vec![
            StandardConfig::Transponder {
                format: TransponderFormat::derive(500, PixelWidth::new(7), 600),
                channel: PixelRange::new(10, PixelWidth::new(7)),
                enabled: true,
            },
            StandardConfig::MuxPort {
                port: 5,
                passband: Some(r),
            },
            StandardConfig::MuxPort {
                port: 6,
                passband: None,
            },
            StandardConfig::RoadmExpress {
                from_degree: 1,
                to_degree: 2,
                passband: r,
            },
            StandardConfig::RoadmRelease {
                from_degree: 1,
                to_degree: 2,
                passband: r,
            },
        ]
    }

    #[test]
    fn round_trip_every_vendor_every_config() {
        for vendor in Vendor::ALL {
            for cfg in sample_configs() {
                let native = encode(vendor, &cfg);
                let back = decode(vendor, &native)
                    .unwrap_or_else(|e| panic!("{vendor:?} failed to decode {native}: {e}"));
                match (&cfg, &back) {
                    // Transponder formats re-derive internals; compare the
                    // externally meaningful fields.
                    (
                        StandardConfig::Transponder {
                            format: f1,
                            channel: c1,
                            enabled: e1,
                        },
                        StandardConfig::Transponder {
                            format: f2,
                            channel: c2,
                            enabled: e2,
                        },
                    ) => {
                        assert_eq!(f1.data_rate_gbps, f2.data_rate_gbps);
                        assert_eq!(f1.spacing, f2.spacing);
                        assert_eq!(f1.reach_km, f2.reach_km);
                        assert_eq!(c1, c2);
                        assert_eq!(e1, e2);
                    }
                    _ => assert_eq!(&cfg, &back, "{vendor:?}"),
                }
            }
        }
    }

    #[test]
    fn dialects_actually_differ() {
        let cfg = StandardConfig::MuxPort {
            port: 0,
            passband: Some(PixelRange::new(4, PixelWidth::new(6))),
        };
        let a = encode(Vendor::VendorA, &cfg).to_string();
        let b = encode(Vendor::VendorB, &cfg).to_string();
        let c = encode(Vendor::VendorC, &cfg).to_string();
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert!(a.contains("low_ghz"));
        assert!(b.contains("slice_start"));
        assert!(c.contains("f_min_mhz"));
    }

    #[test]
    fn documents_print_as_the_management_interface_shows_them() {
        let port = StandardConfig::MuxPort {
            port: 0,
            passband: Some(PixelRange::new(4, PixelWidth::new(6))),
        };
        assert_eq!(
            encode(Vendor::VendorA, &port).to_string(),
            r#"{"op":"filter-port","passband":{"high_ghz":125.0,"low_ghz":50.0},"port":0}"#
        );
        assert_eq!(
            encode(Vendor::VendorB, &port).to_string(),
            r#"{"op":"filter-port","passband":{"slice_count":6,"slice_start":4},"port":0}"#
        );
        assert_eq!(
            encode(Vendor::VendorC, &port).to_string(),
            r#"{"op":"filter-port","passband":{"f_max_mhz":125000,"f_min_mhz":50000},"port":0}"#
        );
        assert_eq!(
            encode(Vendor::VendorA, &sample_configs()[0]).to_string(),
            r#"{"admin_up":true,"baud_gbd":75.0,"fec_overhead_pct":15,"modulation":"PCS-3.8b","op":"line-config","rate_gbps":500,"reach_km":600,"spectrum":{"high_ghz":212.5,"low_ghz":125.0}}"#
        );
        assert_eq!(
            encode(Vendor::VendorB, &sample_configs()[2]).to_string(),
            r#"{"op":"filter-port","passband":null,"port":6}"#
        );
        assert_eq!(
            encode(Vendor::VendorC, &sample_configs()[4]).to_string(),
            r#"{"egress":2,"ingress":1,"op":"express-del","passband":{"f_max_mhz":212500,"f_min_mhz":125000}}"#
        );
    }

    /// A Vendor A filter-port document whose passband is 55 GHz wide: not
    /// a pixel multiple.
    fn off_grid_width() -> Native {
        Native::FilterPort {
            port: 1,
            passband: Some(Address::Ghz {
                low_ghz: 0.0,
                high_ghz: 55.0,
            }),
        }
    }

    #[test]
    fn off_grid_native_rejected() {
        // 55 GHz is not a pixel multiple: VendorA document must not decode.
        assert!(decode(Vendor::VendorA, &off_grid_width()).is_err());
        // Nor does a start between two pixels.
        let off_start = Native::ExpressAdd {
            ingress: 0,
            egress: 1,
            passband: Address::Mhz {
                f_min_mhz: 6_000,
                f_max_mhz: 81_000,
            },
        };
        let err = decode(Vendor::VendorC, &off_start).unwrap_err();
        assert_eq!(err.message(), "native start 6 GHz off-grid");
    }

    #[test]
    fn off_grid_width_preserves_optical_source() {
        // The width is off the 12.5 GHz grid, so the optical layer is the
        // root cause and must survive the translation into DialectError.
        let err = decode(Vendor::VendorA, &off_grid_width()).unwrap_err();
        assert!(err.message().contains("off-grid"), "{err}");
        let source = std::error::Error::source(&err).expect("optical cause preserved");
        assert!(source.to_string().contains("12.5"), "root cause: {source}");
    }

    /// A line the format derivation cannot build — one pixel wide, or
    /// carrying 0 Gbps — is a typed rejection at every vendor's
    /// transponder, and the device still answers afterwards: the
    /// derivation's `assert!` used to fire inside the session's device
    /// lock and poison it.
    #[test]
    fn underivable_line_configs_rejected_and_the_device_still_answers() {
        let line = |width: u16, rate_gbps: u32| {
            let format = TransponderFormat::derive(400, PixelWidth::new(6), 600);
            let cfg = StandardConfig::Transponder {
                format,
                channel: PixelRange::new(10, PixelWidth::new(width)),
                enabled: true,
            };
            (cfg, rate_gbps)
        };
        for vendor in Vendor::ALL {
            let device = spawn_device(
                DeviceDescriptor {
                    id: DeviceId(2),
                    vendor,
                    kind: DeviceKind::Transponder,
                    mgmt_ip: DeviceDescriptor::mgmt_ip_for(DeviceId(2)),
                    site: NodeId(0),
                },
                Hardware::Transponder(None),
            );
            for ((cfg, rate), why) in [
                (line(1, 400), "no symbol rate past the 12.5 GHz guard band"),
                (line(6, 0), "rate_gbps must be positive"),
            ] {
                let mut native = encode(vendor, &cfg);
                if let Native::LineConfig { rate_gbps, .. } = &mut native {
                    *rate_gbps = rate;
                }
                match device.session.edit_config(native) {
                    Err(SessionError::Rejected(msg)) => assert!(msg.contains(why), "{msg}"),
                    other => panic!("{vendor:?}: {native} answered {other:?}"),
                }
                let state = device
                    .session
                    .get_state()
                    .expect("the device still answers");
                assert!(matches!(state.hardware, Hardware::Transponder(None)));
            }
            let (valid, _) = line(6, 400);
            assert_eq!(device.session.edit_config(encode(vendor, &valid)), Ok(()));
            let state = device
                .session
                .get_state()
                .expect("the device still answers");
            assert!(matches!(state.hardware, Hardware::Transponder(Some(_))));
        }
    }

    /// A factory-fresh MUX of `vendor`. A document is decoded before it
    /// is applied, so a dialect error is the answer whatever the kind.
    fn mux(vendor: Vendor) -> DeviceHandle {
        spawn_device(
            DeviceDescriptor {
                id: DeviceId(1),
                vendor,
                kind: DeviceKind::Mux,
                mgmt_ip: DeviceDescriptor::mgmt_ip_for(DeviceId(1)),
                site: NodeId(0),
            },
            Hardware::Mux(Mux::new(WssKind::PixelWise, SpectrumGrid::new(64), 8)),
        )
    }

    #[test]
    fn foreign_addressing_rejected_with_the_dialects_message() {
        // A device reads only its own vendor's spectrum addressing: a
        // document of any other vendor lacks the dialect's first field,
        // and the device answers with a typed rejection naming it.
        let missing = |v: Vendor| match v {
            Vendor::VendorA => "missing numeric field low_ghz",
            Vendor::VendorB => "missing integer field slice_start",
            Vendor::VendorC => "missing integer field f_min_mhz",
        };
        for from in Vendor::ALL {
            for to in Vendor::ALL.into_iter().filter(|&to| to != from) {
                for cfg in sample_configs() {
                    let native = encode(from, &cfg);
                    let addressed = !matches!(native, Native::FilterPort { passband: None, .. });
                    let sent = mux(to).session.edit_config(native);
                    if addressed {
                        assert_eq!(
                            decode(to, &native).unwrap_err().message(),
                            missing(to),
                            "{from:?} -> {to:?}: {native}"
                        );
                        assert_eq!(
                            sent,
                            Err(SessionError::Rejected(format!(
                                "vendor dialect error: {}",
                                missing(to)
                            ))),
                            "{from:?} -> {to:?}: {native}"
                        );
                    } else {
                        // A cleared port carries no address: any vendor
                        // reads it.
                        assert_eq!(sent, Ok(()), "{from:?} -> {to:?}: {native}");
                    }
                }
            }
        }
    }
}
