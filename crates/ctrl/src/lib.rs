//! Centralized, vendor-agnostic optical controller (§4.3–§4.4).
//!
//! * [`model`] — the standard device model abstracting heterogeneous
//!   vendor hardware into logic components;
//! * [`config`] — the standard (vendor-agnostic) configuration payload;
//!   its wire form is the device's vendor dialect (DESIGN.md §1);
//! * [`vendor`] — lossless adapters to three distinct vendor dialects;
//! * [`netconf`] — the edit-config/get-state session layer;
//! * [`device`] — simulated devices: plain state behind a session,
//!   validating configuration against their hardware models;
//! * [`controller`] — global manager + DevMgr: pushes a plan to the
//!   device plane, audits end-to-end channel consistency, and heals
//!   drifted or restarted devices from its one record of intent, the
//!   lightpath ledger;
//! * [`issues`] — the spectrum-issue finders and the uncoordinated
//!   multi-vendor counterfactual (Figure 5);
//! * [`datastream`] — 1 s telemetry and real-time fiber-cut detection;
//! * [`orchestrator`] — the closed telemetry→detection→restoration→
//!   configuration loop;
//! * [`transaction`] — atomic multi-device configuration with rollback;
//! * [`recovery`] — zero-touch misconnection recovery and the OLS
//!   evolution cost model (§9);
//! * [`faults`] — the deterministic fault-injection harness (session
//!   and event-stream faults) driving the chaos tests;
//! * [`service`] — the always-on churn service: a deadline-budgeted
//!   event loop with a graceful-degradation ladder over the standing
//!   incremental planning model (DESIGN.md §10).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod controller;
pub mod datastream;
pub mod device;
pub mod faults;
pub mod issues;
pub mod model;
pub mod netconf;
pub mod orchestrator;
pub mod recovery;
pub mod service;
pub mod transaction;
pub mod vendor;

pub use config::StandardConfig;
pub use controller::{ApplyReport, BreakerState, Controller, ConvergeReport, CtrlStats, DevMgr};
pub use datastream::{FiberCutDetector, TelemetrySim, TelemetryStore};
pub use device::{config_in_effect, spawn_device, DeviceHandle, DeviceState, Hardware};
pub use faults::{DeviceFaults, FaultInjector, FaultPlan, FaultStats};
pub use issues::{find_conflicts, find_inconsistencies, SpectrumIssue};
pub use model::{DeviceDescriptor, DeviceId, DeviceKind, Vendor};
pub use netconf::{NetconfSession, SessionError};
pub use orchestrator::{Orchestrator, TickOutcome};
pub use recovery::{recover_misconnection, RecoveryOutcome};
pub use service::{
    ChurnEvent, ChurnService, EventLog, SeqEvent, ServiceConfig, ServiceState, ServiceStats,
    TickReport, LADDER_HEURISTIC, LADDER_PROTECT, LADDER_WARM,
};
pub use transaction::{Transaction, TxError};
