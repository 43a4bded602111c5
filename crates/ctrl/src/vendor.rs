//! Vendor adapters: translating standard configuration into each vendor's
//! native dialect (§4.3, §9 "vendor-agnostic optical backbone").
//!
//! Every vendor ships a different management encoding — units, field
//! names, even how spectrum is addressed — which is exactly the
//! fragmentation the centralized controller hides. The adapters are
//! deliberately lossless: `decode(encode(c)) == c` for every standard
//! config, proven by round-trip and property tests.

use flexwan_util::json;
use flexwan_util::json::Value;

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

/// Encodes a pixel range in the vendor's native spectrum addressing.
fn encode_range(vendor: Vendor, r: &PixelRange) -> Value {
    match vendor {
        // Vendor A: GHz offsets from band start.
        Vendor::VendorA => json!({
            "low_ghz": r.low_ghz(),
            "high_ghz": r.high_ghz(),
        }),
        // Vendor B: 12.5 GHz slice indices, inclusive start, exclusive end.
        Vendor::VendorB => json!({
            "slice_start": r.start,
            "slice_count": r.width.pixels(),
        }),
        // Vendor C: MHz integers with its own field names.
        Vendor::VendorC => json!({
            "f_min_mhz": (r.low_ghz() * 1000.0) as u64,
            "f_max_mhz": (r.high_ghz() * 1000.0) as u64,
        }),
    }
}

fn get_u64(v: &Value, key: &str) -> Result<u64, DialectError> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| DialectError::new(format!("missing integer field {key}")))
}

fn get_f64(v: &Value, key: &str) -> Result<f64, DialectError> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| DialectError::new(format!("missing numeric field {key}")))
}

/// Decodes a vendor-native spectrum address back to pixels.
fn decode_range(vendor: Vendor, v: &Value) -> Result<PixelRange, DialectError> {
    let (low_ghz, width_ghz) = match vendor {
        Vendor::VendorA => {
            let low = get_f64(v, "low_ghz")?;
            (low, get_f64(v, "high_ghz")? - low)
        }
        Vendor::VendorB => {
            let start = get_u64(v, "slice_start")? as f64 * PIXEL_GHZ;
            (start, get_u64(v, "slice_count")? as f64 * PIXEL_GHZ)
        }
        Vendor::VendorC => {
            let low = get_u64(v, "f_min_mhz")? as f64 / 1000.0;
            (low, get_u64(v, "f_max_mhz")? as f64 / 1000.0 - low)
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

/// Encodes a standard config into the vendor's native document.
pub fn encode(vendor: Vendor, cfg: &StandardConfig) -> Value {
    match cfg {
        StandardConfig::Transponder {
            format,
            channel,
            enabled,
        } => json!({
            "op": "line-config",
            "rate_gbps": format.data_rate_gbps,
            "reach_km": format.reach_km,
            "fec_overhead_pct": format.fec.percent(),
            "baud_gbd": format.baud_gbd,
            "modulation": format.modulation.name(),
            "spectrum": encode_range(vendor, channel),
            "admin_up": enabled,
        }),
        StandardConfig::MuxPort { port, passband } => json!({
            "op": "filter-port",
            "port": port,
            "passband": passband.as_ref().map(|r| encode_range(vendor, r)),
        }),
        StandardConfig::RoadmExpress {
            from_degree,
            to_degree,
            passband,
        } => json!({
            "op": "express-add",
            "ingress": from_degree,
            "egress": to_degree,
            "passband": encode_range(vendor, passband),
        }),
        StandardConfig::RoadmRelease {
            from_degree,
            to_degree,
            passband,
        } => json!({
            "op": "express-del",
            "ingress": from_degree,
            "egress": to_degree,
            "passband": encode_range(vendor, passband),
        }),
    }
}

/// Decodes a vendor-native document back into standard form. (Devices use
/// this to apply configs; the controller uses it in audits.)
pub fn decode(vendor: Vendor, v: &Value) -> Result<StandardConfig, DialectError> {
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| DialectError::new("missing op"))?;
    match op {
        "line-config" => {
            let channel = decode_range(
                vendor,
                v.get("spectrum")
                    .ok_or_else(|| DialectError::new("missing spectrum"))?,
            )?;
            let rate = get_u64(v, "rate_gbps")? as u32;
            let reach = get_u64(v, "reach_km")? as u32;
            let format =
                flexwan_optical::format::TransponderFormat::derive(rate, channel.width, reach);
            let enabled = v.get("admin_up").and_then(Value::as_bool).unwrap_or(false);
            Ok(StandardConfig::Transponder {
                format,
                channel,
                enabled,
            })
        }
        "filter-port" => {
            let port = get_u64(v, "port")? as u16;
            let passband = match v.get("passband") {
                None | Some(Value::Null) => None,
                Some(pb) => Some(decode_range(vendor, pb)?),
            };
            Ok(StandardConfig::MuxPort { port, passband })
        }
        "express-add" | "express-del" => {
            let from_degree = get_u64(v, "ingress")? as u16;
            let to_degree = get_u64(v, "egress")? as u16;
            let passband = decode_range(
                vendor,
                v.get("passband")
                    .ok_or_else(|| DialectError::new("missing passband"))?,
            )?;
            Ok(if op == "express-add" {
                StandardConfig::RoadmExpress {
                    from_degree,
                    to_degree,
                    passband,
                }
            } else {
                StandardConfig::RoadmRelease {
                    from_degree,
                    to_degree,
                    passband,
                }
            })
        }
        other => Err(DialectError::new(format!("unknown op {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexwan_optical::format::TransponderFormat;

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
    fn off_grid_native_rejected() {
        // 55 GHz is not a pixel multiple: VendorA document must not decode.
        let bad = json!({
            "op": "filter-port",
            "port": 1,
            "passband": json!({ "low_ghz": 0.0, "high_ghz": 55.0 }),
        });
        assert!(decode(Vendor::VendorA, &bad).is_err());
    }

    #[test]
    fn off_grid_width_preserves_optical_source() {
        // The width is off the 12.5 GHz grid, so the optical layer is the
        // root cause and must survive the translation into DialectError.
        let bad = json!({
            "op": "filter-port",
            "port": 1,
            "passband": json!({ "low_ghz": 0.0, "high_ghz": 55.0 }),
        });
        let err = decode(Vendor::VendorA, &bad).unwrap_err();
        assert!(err.message().contains("off-grid"), "{err}");
        let source = std::error::Error::source(&err).expect("optical cause preserved");
        assert!(source.to_string().contains("12.5"), "root cause: {source}");
    }

    #[test]
    fn unknown_op_rejected() {
        // No device kind speaks `gain`: an amplifier document is as
        // unknown as any other.
        for op in ["self-destruct", "gain"] {
            let bad = json!({ "op": op, "gain_db": 16.0 });
            let err = decode(Vendor::VendorB, &bad).unwrap_err();
            assert!(err.message().contains("unknown op"), "{err}");
        }
    }
}
