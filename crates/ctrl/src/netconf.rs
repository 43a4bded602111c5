//! The configuration session layer (NETCONF stand-in).
//!
//! Each managed device is reached through a session with edit-config /
//! get-state semantics. The device at the far end is plain state the
//! session owns: a request is a synchronous call on the controller's
//! thread, because what this crate reproduces is the coordination logic
//! above the session, not a transport (DESIGN.md §1). The payload is the
//! vendor-*native* document, a typed [`Native`] record — translation to
//! the standard model happens at the controller edge ([`crate::vendor`]),
//! so a device only ever sees its own dialect, exactly as in a real
//! multi-vendor backbone. A device holds its configuration and nothing
//! else — no revision, no history: get-state is what is in effect, and
//! what should be in effect is the controller's ledger.
//!
//! A session may be *armed* with a [`FaultInjector`]
//! ([`crate::faults`]): every request then passes through the injector,
//! which can drop it, reject it, discard the reply, serve stale state, or
//! crash the device — the chaos harness's interposition point.

use std::sync::{Arc, Mutex};

use flexwan_obs::Obs;

use crate::device::{DeviceState, Hardware};
use crate::faults::{EditVerdict, FaultInjector, StateVerdict};
use crate::model::{DeviceDescriptor, DeviceId};
use crate::vendor::{self, Native};

/// Session errors at the controller edge.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// The device rejected the configuration.
    Rejected(String),
    /// The device did not answer (request or reply lost, or the device
    /// is down).
    Unreachable,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Rejected(c) => write!(f, "device rejected configuration: {c}"),
            SessionError::Unreachable => write!(f, "device unreachable"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Renders an error with its full `source()` chain, so a rejection cause
/// carries the root failure (e.g. the optical-layer grid violation behind
/// a dialect decode error) and not just the outermost message.
fn error_chain(e: &dyn std::error::Error) -> String {
    let mut cause = e.to_string();
    let mut src = e.source();
    while let Some(s) = src {
        cause.push_str(": ");
        cause.push_str(&s.to_string());
        src = s.source();
    }
    cause
}

/// The controller's end of a device session, and the device behind it.
#[derive(Debug)]
pub struct NetconfSession {
    /// The device's state; `None` while it is crashed. Behind a mutex
    /// because requests take `&self`, as they would over a transport.
    state: Mutex<Option<DeviceState>>,
    /// What a factory-fresh unit of this device looks like.
    factory: DeviceState,
    injector: Option<Arc<FaultInjector>>,
    obs: Option<Obs>,
}

impl NetconfSession {
    /// A session to a factory-fresh device running `hardware`.
    pub(crate) fn new(descriptor: DeviceDescriptor, hardware: Hardware) -> Self {
        let factory = DeviceState {
            descriptor,
            hardware,
        };
        NetconfSession {
            state: Mutex::new(Some(factory.clone())),
            factory,
            injector: None,
            obs: None,
        }
    }

    /// Swaps the device for a factory-fresh unit (no configuration); a
    /// crashed device answers again.
    pub(crate) fn factory_reset(&self) {
        *self.device_state() = Some(self.factory.clone());
    }

    fn device_state(&self) -> std::sync::MutexGuard<'_, Option<DeviceState>> {
        self.state.lock().expect("device state poisoned")
    }

    fn device(&self) -> DeviceId {
        self.factory.descriptor.id
    }

    /// Arms the session with a fault injector; every subsequent request
    /// consults it.
    pub(crate) fn arm(&mut self, injector: Arc<FaultInjector>) {
        self.injector = Some(injector);
    }

    /// Arms the session with an observability bundle: every edit-config /
    /// get-state attempt is counted per device from here on.
    pub(crate) fn observe(&mut self, obs: Obs) {
        self.obs = Some(obs);
    }

    /// Counts one per-device session event.
    fn count(&self, metric: &str) {
        if let Some(obs) = &self.obs {
            let device = self.device().0.to_string();
            obs.registry()
                .counter_with(metric, &[("device", &device)])
                .inc();
        }
    }

    /// Counts one per-device session failure, tagged with the error kind.
    fn count_failure(&self, metric: &str, err: &SessionError) {
        if let Some(obs) = &self.obs {
            let device = self.device().0.to_string();
            let kind = match err {
                SessionError::Rejected(_) => "rejected",
                SessionError::Unreachable => "unreachable",
            };
            obs.registry()
                .counter_with(metric, &[("device", &device), ("kind", kind)])
                .inc();
        }
    }

    /// Sends a native configuration document; `Ok` is the device's
    /// acknowledgement that it is in effect.
    pub fn edit_config(&self, native: Native) -> Result<(), SessionError> {
        self.count("netconf_edit_attempts_total");
        let result = self.edit_config_inner(&native);
        if let Err(e) = &result {
            self.count_failure("netconf_edit_failures_total", e);
        }
        result
    }

    fn edit_config_inner(&self, native: &Native) -> Result<(), SessionError> {
        // A crashed device is down for every request: the injector only
        // decides the fate of requests a live device could answer.
        if self.device_state().is_none() {
            return Err(SessionError::Unreachable);
        }
        if let Some(inj) = &self.injector {
            match inj.on_edit_config(self.device()) {
                EditVerdict::Deliver => {}
                EditVerdict::Drop => return Err(SessionError::Unreachable),
                EditVerdict::Reject => {
                    return Err(SessionError::Rejected(
                        "injected fault: edit-config rejected".into(),
                    ))
                }
                EditVerdict::DelayReply => {
                    // The device applies the config, but the controller
                    // never sees the reply.
                    let _ = self.deliver(native);
                    return Err(SessionError::Unreachable);
                }
                EditVerdict::Crash => {
                    *self.device_state() = None;
                    return Err(SessionError::Unreachable);
                }
            }
        }
        self.deliver(native)
    }

    /// The device's side of an edit-config: decode its own dialect and
    /// validate against the hardware.
    fn deliver(&self, native: &Native) -> Result<(), SessionError> {
        let mut guard = self.device_state();
        let state = guard.as_mut().ok_or(SessionError::Unreachable)?;
        let cfg = vendor::decode(state.descriptor.vendor, native)
            .map_err(|e| SessionError::Rejected(error_chain(&e)))?;
        state.apply(&cfg).map_err(SessionError::Rejected)
    }

    /// Reads the device state.
    pub fn get_state(&self) -> Result<DeviceState, SessionError> {
        self.count("netconf_get_state_total");
        let result = self.get_state_inner();
        if let Err(e) = &result {
            self.count_failure("netconf_get_state_failures_total", e);
        }
        result
    }

    fn get_state_inner(&self) -> Result<DeviceState, SessionError> {
        let state = self
            .device_state()
            .clone()
            .ok_or(SessionError::Unreachable)?;
        if let Some(inj) = &self.injector {
            match inj.on_get_state(self.device()) {
                StateVerdict::Deliver => inj.record_state(self.device(), state.clone()),
                StateVerdict::Drop => return Err(SessionError::Unreachable),
                StateVerdict::Stale(s) => return Ok(*s),
            }
        }
        Ok(state)
    }
}
