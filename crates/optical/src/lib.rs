//! Optical-layer substrate for the FlexWAN reproduction.
//!
//! This crate models the physical building blocks of an optical backbone as
//! described in §2 and §4.2 of *FlexWAN* (SIGCOMM 2023):
//!
//! * [`spectrum`] — the C-band spectrum sliced into 12.5 GHz pixels, with
//!   contiguous pixel ranges (channels/passbands) and per-fiber occupancy
//!   masks. All planning arithmetic is integer pixel arithmetic; floating
//!   point only appears at the GHz presentation boundary.
//! * [`modulation`] — modulation formats (BPSK … 256QAM and probabilistic
//!   constellation shaping) and their bits/symbol.
//! * [`mod@format`] — a transponder *format*: one (data rate, channel spacing,
//!   optical reach) operating point together with the internal component
//!   settings (FEC overhead, baud rate, modulation) that realize it.
//! * [`transponder`] — the three transponder generations the paper
//!   compares: the fixed 100G transponder (100G-WAN), the
//!   bandwidth-variable transponder (BVT, RADWAN) and FlexWAN's
//!   spacing-variable transponder (SVT, Table 2 of the paper).
//! * [`devices`] — optical line system devices: MUX/AWG filter ports,
//!   ROADM degrees, EDFA amplifiers, and the wavelength-selective switch in
//!   both fixed-grid and pixel-wise (LCoS) flavours.
//!
//! The crate is dependency-light and fully deterministic so that the
//! planning and restoration algorithms built on top of it are reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod devices;
pub mod error;
pub mod format;
pub mod modulation;
pub mod spectrum;
pub mod transponder;

pub use devices::{Amplifier, FilterPort, Mux, Roadm, WssKind};
pub use error::OpticalError;
pub use format::{FecOverhead, TransponderFormat};
pub use modulation::Modulation;
pub use spectrum::{PixelRange, PixelWidth, SpectrumGrid, SpectrumMask, PIXEL_GHZ};
pub use transponder::{Bvt, FixedGrid100G, Svt, TransponderModel};
