//! The standard configuration payload (the "Yang file" of §4.4).
//!
//! The DevMgr "issues a Yang file containing detailed configuration
//! parameters to configure the device through the Netconf protocol".
//! [`StandardConfig`] is the vendor-agnostic payload the controller
//! reasons about; its wire form is the device's vendor dialect, built by
//! [`vendor::encode`](crate::vendor::encode) and read back by
//! [`vendor::decode`](crate::vendor::decode) (substitution recorded in
//! DESIGN.md §1).

use flexwan_optical::format::TransponderFormat;
use flexwan_optical::spectrum::PixelRange;

/// A standard (vendor-agnostic) configuration payload.
#[derive(Debug, Clone, PartialEq)]
pub enum StandardConfig {
    /// Configure a transponder's line side: modulation format, FEC, baud
    /// and the spectrum its wavelength must occupy.
    Transponder {
        /// The operating point to program into FEC/DSP/EOM.
        format: TransponderFormat,
        /// The assigned spectrum.
        channel: PixelRange,
        /// Administratively enable/disable the line.
        enabled: bool,
    },
    /// Configure one MUX filter port's passband.
    MuxPort {
        /// The faceplate port.
        port: u16,
        /// The passband; `None` clears the port.
        passband: Option<PixelRange>,
    },
    /// Add an express passband between two ROADM degrees.
    RoadmExpress {
        /// Ingress degree.
        from_degree: u16,
        /// Egress degree.
        to_degree: u16,
        /// The passband to express.
        passband: PixelRange,
    },
    /// Remove a ROADM express passband.
    RoadmRelease {
        /// Ingress degree.
        from_degree: u16,
        /// Egress degree.
        to_degree: u16,
        /// The passband to remove.
        passband: PixelRange,
    },
}
