//! The centralized optical controller (§4.4): global manager + DevMgr.
//!
//! Builds one MUX and one ROADM (vendor-diverse) per optical site, spawns
//! transponders per planned wavelength, and pushes a [`Plan`] to the
//! devices: line-configs to transponders, filter-port passbands to the
//! endpoint MUXes, and express passbands to every intermediate ROADM —
//! "the centralized controller uses the same configuration parameters as
//! the wavelength's spectrum to configure the passband of these devices"
//! (§4.3), which is what makes channel inconsistency impossible.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use flexwan_core::planning::Plan;
use flexwan_core::Wavelength;
use flexwan_obs::Obs;
use flexwan_optical::devices::{Mux, Roadm};
use flexwan_optical::spectrum::{PixelRange, SpectrumGrid};
use flexwan_optical::WssKind;
use flexwan_topo::graph::{EdgeId, Graph, NodeId};
use flexwan_util::rng::ChaCha8Rng;

use crate::config::StandardConfig;
use crate::device::{config_in_effect, spawn_device, DeviceHandle, Hardware};
use crate::faults::FaultInjector;
use crate::journal::ConfigJournal;
use crate::model::{DeviceDescriptor, DeviceId, DeviceKind, Vendor};
use crate::netconf::SessionError;
use crate::transaction::{Transaction, TxError};
use crate::vendor;

/// Filter ports per site MUX.
const MUX_PORTS: u16 = 64;

/// The device manager: registry plus live sessions.
#[derive(Debug, Default)]
pub struct DevMgr {
    /// Registered devices. The controller indexes this directly, but only
    /// with ids it holds itself — site MUX/ROADM maps, live lightpath
    /// allocations, breakers — and those are all dropped in the same step
    /// that retires the device ([`Controller::retire`]).
    devices: HashMap<DeviceId, DeviceHandle>,
    next_id: u32,
    injector: Option<Arc<FaultInjector>>,
    obs: Option<Obs>,
}

impl DevMgr {
    fn allocate(&mut self, vendor: Vendor, kind: DeviceKind, site: NodeId) -> DeviceDescriptor {
        let id = DeviceId(self.next_id);
        self.next_id += 1;
        DeviceDescriptor {
            id,
            vendor,
            kind,
            mgmt_ip: DeviceDescriptor::mgmt_ip_for(id),
            site,
        }
    }

    /// Stands a factory-fresh device up and registers it.
    pub fn register(
        &mut self,
        vendor: Vendor,
        kind: DeviceKind,
        site: NodeId,
        hw: Hardware,
    ) -> DeviceId {
        let descriptor = self.allocate(vendor, kind, site);
        let id = descriptor.id;
        let mut handle = spawn_device(descriptor, hw);
        if let Some(inj) = &self.injector {
            handle.session.arm(inj.clone());
        }
        if let Some(obs) = &self.obs {
            handle.session.observe(obs.clone());
        }
        self.devices.insert(id, handle);
        id
    }

    /// Arms every session (present and future) with a fault injector: all
    /// requests to the device plane then pass through it.
    pub fn arm_faults(&mut self, injector: Arc<FaultInjector>) {
        for handle in self.devices.values_mut() {
            handle.session.arm(injector.clone());
        }
        self.injector = Some(injector);
    }

    /// Arms every session (present and future) with an observability
    /// bundle: per-device NETCONF attempts and failures are counted.
    pub fn arm_obs(&mut self, obs: Obs) {
        for handle in self.devices.values_mut() {
            handle.session.observe(obs.clone());
        }
        self.obs = Some(obs);
    }

    /// Simulates a field replacement: the device at `id` is swapped for a
    /// factory-fresh unit (same identity, empty configuration) — the
    /// configuration-drift scenario [`Controller::reconcile`] repairs, and
    /// how a crashed device comes back. An `id` nothing is registered
    /// under is [`SessionError::Unreachable`]: there is no device to reset.
    pub fn reset_device(&mut self, id: DeviceId) -> Result<(), SessionError> {
        let handle = self.devices.get(&id).ok_or(SessionError::Unreachable)?;
        handle.session.factory_reset();
        if let Some(inj) = &self.injector {
            inj.device_restarted(id);
        }
        Ok(())
    }

    /// The handle for `id`, if a device is registered under it.
    pub fn device(&self, id: DeviceId) -> Option<&DeviceHandle> {
        self.devices.get(&id)
    }

    /// The ids of the managed devices, ascending. Ids are not dense:
    /// retired transponders leave gaps.
    pub fn ids(&self) -> Vec<DeviceId> {
        let mut ids: Vec<DeviceId> = self.devices.keys().copied().collect();
        ids.sort();
        ids
    }

    /// Number of managed devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether no devices are managed.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }
}

/// Outcome of pushing a plan to the device plane.
#[derive(Debug, Clone, Default)]
pub struct ApplyReport {
    /// Transponder line-configs acknowledged.
    pub transponders_configured: usize,
    /// MUX filter ports acknowledged.
    pub mux_ports_configured: usize,
    /// ROADM expresses acknowledged.
    pub expresses_configured: usize,
    /// Rejections, with device and cause.
    pub rejections: Vec<(DeviceId, String)>,
}

impl ApplyReport {
    /// Whether every configuration was acknowledged.
    pub fn is_clean(&self) -> bool {
        self.rejections.is_empty()
    }
}

/// Outcome of a [`Controller::reconcile`] pass.
#[derive(Debug, Clone, Default)]
pub struct ReconcileReport {
    /// Configurations re-issued to repair drift.
    pub repaired: usize,
    /// Repairs the devices rejected (need escalation).
    pub failures: Vec<(DeviceId, String)>,
}

impl ReconcileReport {
    /// Whether the plane is fully reconciled.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Books the outcome of one repair send.
    fn note(&mut self, sent: Result<(), (DeviceId, String)>) {
        match sent {
            Ok(()) => self.repaired += 1,
            Err(e) => self.failures.push(e),
        }
    }
}

// Retry policy for device sends: capped exponential backoff with full
// jitter. Backoff only spends wall-clock time — it never changes *what*
// the controller sends, so seeded chaos runs stay deterministic.

/// Total attempts per send, including the first.
const MAX_ATTEMPTS: u32 = 4;
/// Backoff before the second attempt.
const BASE_BACKOFF: Duration = Duration::from_millis(1);
/// Backoff ceiling.
const MAX_BACKOFF: Duration = Duration::from_millis(16);

/// Consecutive failed *sends* (after internal retries) that open a
/// device's circuit breaker.
pub const BREAKER_THRESHOLD: u32 = 3;

/// Per-device circuit breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Quarantined: sends fail fast without touching the device.
    Open,
    /// Probing: one request is allowed through to test recovery.
    HalfOpen,
}

#[derive(Debug, Clone)]
struct Breaker {
    state: BreakerState,
    consecutive_failures: u32,
}

impl Default for Breaker {
    fn default() -> Self {
        Breaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
        }
    }
}

/// Controller-side resilience counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CtrlStats {
    /// Sends issued (apply, reconcile, rollback — everything).
    pub sends: u64,
    /// Individual retry attempts beyond each send's first attempt.
    pub retries: u64,
    /// Rejections resolved by reading state back: the config was already
    /// in effect (its ack had been lost).
    pub read_repairs: u64,
    /// Circuit breakers opened.
    pub breaker_trips: u64,
    /// Crashed devices replaced and rolled forward from the journal.
    pub devices_restarted: u64,
}

/// Outcome of a [`Controller::converge`] run.
#[derive(Debug, Clone, Default)]
pub struct ConvergeReport {
    /// Convergence passes executed.
    pub passes: usize,
    /// Configurations re-issued by reconciliation across all passes.
    pub repaired: usize,
    /// Devices replaced and rolled forward from the journal.
    pub restarted: Vec<DeviceId>,
    /// Whether the plane reached the audited-clean fixed point.
    pub converged: bool,
}

/// The device-plane footprint of one applied wavelength, remembered so
/// [`Controller::release_wavelength_atomic`] can undo exactly what the
/// apply did (which transponders were spawned, which MUX ports were
/// claimed — the ROADM expresses are re-derivable from the wavelength).
#[derive(Debug, Clone, Default)]
struct LightpathAlloc {
    transponders: Vec<DeviceId>,
    mux_ports: Vec<(NodeId, u16)>,
}

/// Identity of a lightpath on the device plane: same route + same
/// spectrum ⇒ same footprint shape (allocations stack for duplicates).
type LightpathKey = (Vec<EdgeId>, u32, u16);

fn lightpath_key(w: &Wavelength) -> LightpathKey {
    (
        w.path.edges.clone(),
        w.channel.start,
        w.channel.width.pixels(),
    )
}

/// The centralized controller.
pub struct Controller {
    /// Device manager.
    pub devmgr: DevMgr,
    mux_at: HashMap<NodeId, DeviceId>,
    roadm_at: HashMap<NodeId, DeviceId>,
    next_port: HashMap<NodeId, u16>,
    /// Filter ports handed back by released lightpaths, reused before
    /// `next_port` grows — without this the monotonic counter exhausts
    /// the 64 ports of a site MUX under sustained cut/repair churn.
    free_ports: HashMap<NodeId, Vec<u16>>,
    /// Live lightpath footprints, keyed by route + spectrum.
    live_paths: HashMap<LightpathKey, Vec<LightpathAlloc>>,
    degree_of: HashMap<(NodeId, EdgeId), u16>,
    revision: u64,
    journal: ConfigJournal,
    breakers: HashMap<DeviceId, Breaker>,
    backoff_rng: ChaCha8Rng,
    stats: CtrlStats,
    obs: Option<Obs>,
}

impl Controller {
    /// Builds the OLS device plane for `optical`: per site one MUX and one
    /// ROADM (vendor assigned round-robin by site — multi-vendor by
    /// construction), with `wss`/`grid` equipment.
    pub fn build(optical: &Graph, wss: WssKind, grid: SpectrumGrid) -> Controller {
        let mut devmgr = DevMgr::default();
        let mut mux_at = HashMap::new();
        let mut roadm_at = HashMap::new();
        let mut degree_of = HashMap::new();
        for node in optical.nodes() {
            let vendor = Vendor::ALL[node.id.0 as usize % Vendor::ALL.len()];
            let mux = devmgr.register(
                vendor,
                DeviceKind::Mux,
                node.id,
                Hardware::Mux(Mux::new(wss, grid, MUX_PORTS)),
            );
            mux_at.insert(node.id, mux);
            let incident = optical.incident_edges(node.id);
            for (i, e) in incident.iter().enumerate() {
                degree_of.insert((node.id, *e), i as u16);
            }
            let roadm = devmgr.register(
                vendor,
                DeviceKind::Roadm,
                node.id,
                Hardware::Roadm(Roadm::new(wss, grid, incident.len() as u16)),
            );
            roadm_at.insert(node.id, roadm);
        }
        Controller {
            devmgr,
            mux_at,
            roadm_at,
            next_port: HashMap::new(),
            free_ports: HashMap::new(),
            live_paths: HashMap::new(),
            degree_of,
            revision: 0,
            journal: ConfigJournal::new(),
            breakers: HashMap::new(),
            backoff_rng: ChaCha8Rng::seed_from_u64(0x0C0FFEE),
            stats: CtrlStats::default(),
            obs: None,
        }
    }

    /// The controller's configuration audit trail.
    pub fn journal(&self) -> &ConfigJournal {
        &self.journal
    }

    /// Arms the whole device plane with a fault injector (chaos harness).
    pub fn arm_faults(&mut self, injector: Arc<FaultInjector>) {
        self.devmgr.arm_faults(injector);
    }

    /// Arms the controller (and every device session, present and future)
    /// with an observability bundle: sends, retries, read-repairs, breaker
    /// transitions and transaction lifecycles are recorded from here on.
    pub fn set_obs(&mut self, obs: Obs) {
        self.devmgr.arm_obs(obs.clone());
        self.obs = Some(obs);
    }

    /// Counts one controller-level event.
    fn count(&self, metric: &str) {
        if let Some(obs) = &self.obs {
            obs.registry().counter(metric).inc();
        }
    }

    /// Publishes a breaker transition as a per-device gauge
    /// (0 = closed, 0.5 = half-open probing, 1 = open/quarantined).
    fn note_breaker(&self, id: DeviceId, state: BreakerState) {
        if let Some(obs) = &self.obs {
            let value = match state {
                BreakerState::Closed => 0.0,
                BreakerState::HalfOpen => 0.5,
                BreakerState::Open => 1.0,
            };
            let device = id.0.to_string();
            obs.registry()
                .gauge_with("ctrl_breaker_state", &[("device", &device)])
                .set(value);
        }
    }

    /// Resilience counters.
    pub fn stats(&self) -> &CtrlStats {
        &self.stats
    }

    /// The circuit-breaker state of `id`.
    pub fn breaker_state(&self, id: DeviceId) -> BreakerState {
        self.breakers
            .get(&id)
            .map_or(BreakerState::Closed, |b| b.state)
    }

    /// Devices currently quarantined behind an open breaker.
    pub fn quarantined(&self) -> Vec<DeviceId> {
        let mut q: Vec<DeviceId> = self
            .breakers
            .iter()
            .filter(|(_, b)| b.state == BreakerState::Open)
            .map(|(id, _)| *id)
            .collect();
        q.sort();
        q
    }

    /// Moves `id`'s breaker to `state` and publishes the transition.
    fn set_breaker(&mut self, id: DeviceId, state: BreakerState) {
        self.breakers.entry(id).or_default().state = state;
        self.note_breaker(id, state);
    }

    fn breaker_ok(&mut self, id: DeviceId) {
        let b = self.breakers.entry(id).or_default();
        let was_closed = b.state == BreakerState::Closed;
        b.state = BreakerState::Closed;
        b.consecutive_failures = 0;
        if !was_closed {
            self.note_breaker(id, BreakerState::Closed);
        }
    }

    /// Records a failed send; returns true if the breaker just opened.
    fn breaker_fail(&mut self, id: DeviceId) -> bool {
        let b = self.breakers.entry(id).or_default();
        b.consecutive_failures += 1;
        if b.consecutive_failures < BREAKER_THRESHOLD || b.state == BreakerState::Open {
            return false;
        }
        self.stats.breaker_trips += 1;
        self.count("ctrl_breaker_trips_total");
        self.set_breaker(id, BreakerState::Open);
        true
    }

    /// Sleeps the jittered exponential backoff before retry `attempt`.
    fn backoff(&mut self, attempt: u32) {
        let shift = (attempt - 1).min(10);
        let exp = BASE_BACKOFF.saturating_mul(1u32 << shift);
        let nanos = exp.min(MAX_BACKOFF).as_nanos() as u64;
        // Full jitter over [nanos/2, nanos]: desynchronizes retry storms.
        let jittered = nanos / 2 + self.backoff_rng.gen_range(0..nanos / 2 + 1);
        std::thread::sleep(Duration::from_nanos(jittered));
    }

    /// Claims a MUX filter port at `site`: lowest released port first
    /// (deterministic), else the next never-used one.
    fn alloc_port(&mut self, site: NodeId) -> u16 {
        if let Some(free) = self.free_ports.get_mut(&site) {
            if let Some(pos) = (0..free.len()).min_by_key(|&i| free[i]) {
                return free.swap_remove(pos);
            }
        }
        let p = self.next_port.entry(site).or_insert(0);
        let port = *p;
        *p += 1;
        port
    }

    /// Returns a filter port to `site`'s free list.
    fn release_port(&mut self, site: NodeId, port: u16) {
        self.free_ports.entry(site).or_default().push(port);
    }

    fn send(&mut self, id: DeviceId, cfg: StandardConfig) -> Result<(), (DeviceId, String)> {
        self.stats.sends += 1;
        self.count("ctrl_sends_total");
        if self.breaker_state(id) == BreakerState::Open {
            return Err((id, "circuit open: device quarantined".into()));
        }
        let mut saw_timeout = false;
        let mut attempt = 0;
        loop {
            attempt += 1;
            self.revision += 1;
            let revision = self.revision;
            let handle = &self.devmgr.devices[&id];
            // The controller journals the standard document; the device
            // receives its native dialect.
            let native = vendor::encode(handle.descriptor.vendor, &cfg);
            match handle.session.edit_config(revision, native) {
                Ok(_) => {
                    self.journal.record(revision, id, cfg);
                    self.breaker_ok(id);
                    return Ok(());
                }
                Err(SessionError::Rejected(cause)) => {
                    // The device answered: it is reachable.
                    self.breaker_ok(id);
                    if saw_timeout {
                        // An earlier attempt may have been applied with
                        // its ack lost; re-sending a non-idempotent config
                        // (ROADM express) then self-conflicts. Read the
                        // state back before believing the rejection.
                        if let Ok(state) = self.devmgr.devices[&id].session.get_state() {
                            if config_in_effect(&state, &cfg) {
                                self.stats.read_repairs += 1;
                                self.count("ctrl_read_repairs_total");
                                self.journal.record(revision, id, cfg);
                                return Ok(());
                            }
                        }
                    }
                    return Err((id, cause));
                }
                Err(e @ SessionError::Unreachable) => {
                    saw_timeout = true;
                    if attempt >= MAX_ATTEMPTS {
                        if self.breaker_fail(id) {
                            return Err((
                                id,
                                format!("{e} after {attempt} attempts; circuit opened"),
                            ));
                        }
                        return Err((id, format!("{e} after {attempt} attempts")));
                    }
                    self.stats.retries += 1;
                    self.count("ctrl_retries_total");
                    self.backoff(attempt);
                }
            }
        }
    }

    /// Claims the per-lightpath resources of `w`: a transponder at each
    /// end (vendor follows the site; registered up front, a rollback
    /// disables it) and a filter port on each endpoint MUX.
    fn claim_lightpath(&mut self, w: &Wavelength) -> LightpathAlloc {
        let ends = [w.path.source(), w.path.destination()];
        LightpathAlloc {
            transponders: ends
                .iter()
                .map(|&site| {
                    let vendor = Vendor::ALL[site.0 as usize % Vendor::ALL.len()];
                    self.devmgr.register(
                        vendor,
                        DeviceKind::Transponder,
                        site,
                        Hardware::Transponder(None),
                    )
                })
                .collect(),
            mux_ports: ends
                .iter()
                .map(|&site| (site, self.alloc_port(site)))
                .collect(),
        }
    }

    /// The device-plane footprint of `w` over the resources in `alloc`,
    /// in push order: line-configs on its transponders, the channel as
    /// passband on its endpoint MUX ports, and one express per
    /// intermediate ROADM between the degrees the route enters and leaves
    /// by. Each step is the device, the config that lights it and the
    /// config that darkens it again — "the same configuration parameters
    /// as the wavelength's spectrum" (§4.3), written down once.
    fn footprint(
        &self,
        w: &Wavelength,
        alloc: &LightpathAlloc,
    ) -> Vec<(DeviceId, StandardConfig, StandardConfig)> {
        let mut steps = Vec::new();
        for &t in &alloc.transponders {
            let line = |enabled| StandardConfig::Transponder {
                format: w.format,
                channel: w.channel,
                enabled,
            };
            steps.push((t, line(true), line(false)));
        }
        for &(site, port) in &alloc.mux_ports {
            let filter = |passband| StandardConfig::MuxPort { port, passband };
            steps.push((self.mux_at[&site], filter(Some(w.channel)), filter(None)));
        }
        for i in 1..w.path.nodes.len().saturating_sub(1) {
            let node = w.path.nodes[i];
            let from_degree = self.degree_of[&(node, w.path.edges[i - 1])];
            let to_degree = self.degree_of[&(node, w.path.edges[i])];
            let passband = w.channel;
            steps.push((
                self.roadm_at[&node],
                StandardConfig::RoadmExpress {
                    from_degree,
                    to_degree,
                    passband,
                },
                StandardConfig::RoadmRelease {
                    from_degree,
                    to_degree,
                    passband,
                },
            ));
        }
        steps
    }

    /// Pushes every wavelength of `plan` to the device plane.
    pub fn apply_plan(&mut self, plan: &Plan, _optical: &Graph) -> ApplyReport {
        let span = self.obs.as_ref().map(|o| {
            let s = o.span("ctrl.apply_plan");
            s.field("wavelengths", plan.wavelengths.len());
            s
        });
        let start = self.obs.as_ref().map(|o| o.now_ns());
        let mut report = ApplyReport::default();
        for w in &plan.wavelengths {
            let alloc = self.claim_lightpath(w);
            for (device, up, _) in self.footprint(w, &alloc) {
                let configured = match up {
                    StandardConfig::Transponder { .. } => &mut report.transponders_configured,
                    StandardConfig::MuxPort { port, .. } if port >= MUX_PORTS => {
                        let site = self.devmgr.devices[&device].descriptor.site;
                        report
                            .rejections
                            .push((device, format!("site {site:?} out of filter ports")));
                        continue;
                    }
                    StandardConfig::MuxPort { .. } => &mut report.mux_ports_configured,
                    _ => &mut report.expresses_configured,
                };
                match self.send(device, up) {
                    Ok(()) => *configured += 1,
                    Err(r) => report.rejections.push(r),
                }
            }
        }
        if let Some(s) = &span {
            s.field("rejections", report.rejections.len());
        }
        if let (Some(obs), Some(start)) = (&self.obs, start) {
            obs.registry()
                .counter("ctrl_apply_rejections_total")
                .add(report.rejections.len() as u64);
            obs.observe_since("ctrl_apply_plan_seconds", start);
        }
        report
    }

    /// Applies one wavelength's configuration **atomically**: transponder
    /// line-configs, endpoint MUX passbands and intermediate ROADM
    /// expresses either all land or none do (first rejection rolls the
    /// applied prefix back). See [`crate::transaction`].
    pub fn apply_wavelength_atomic(&mut self, w: &Wavelength) -> Result<usize, TxError> {
        let alloc = self.claim_lightpath(w);
        let mut tx = Transaction::new();
        for (device, up, down) in self.footprint(w, &alloc) {
            tx.step(device, up, down);
        }
        let result = self.execute(tx);
        match &result {
            // Remember the footprint so the lightpath can be released.
            Ok(_) => self
                .live_paths
                .entry(lightpath_key(w))
                .or_default()
                .push(alloc),
            // Rolled back: the rollback already darkened the devices.
            Err(_) => self.retire(alloc),
        }
        result
    }

    /// Hands back what [`Self::claim_lightpath`] claimed once the devices
    /// hold nothing for the lightpath any more: the filter ports return to
    /// the site free lists and the transponders leave the registry, with
    /// their breakers — so nothing ever probes a retired id.
    fn retire(&mut self, alloc: LightpathAlloc) {
        for (site, port) in alloc.mux_ports {
            self.release_port(site, port);
        }
        for t in alloc.transponders {
            self.devmgr.devices.remove(&t);
            self.breakers.remove(&t);
        }
    }

    /// Runs `tx` against the device plane, every step through
    /// [`Self::send`].
    fn execute(&mut self, tx: Transaction) -> Result<usize, TxError> {
        let obs = self.obs.clone();
        tx.execute(obs.as_ref(), |d, cfg| {
            self.send(d, cfg.clone()).map_err(|(_, e)| e)
        })
    }

    /// Tears one wavelength's configuration down **atomically**: disables
    /// its transponders, clears its endpoint MUX filter ports and releases
    /// the intermediate ROADM expresses — the exact inverse of
    /// [`apply_wavelength_atomic`](Self::apply_wavelength_atomic). A
    /// mid-path rejection rolls the already-released prefix back, so the
    /// lightpath is either fully up or fully down. On success the MUX
    /// ports return to the site free list for reuse and the transponders
    /// are retired. Releasing a wavelength this controller never applied
    /// is a counted no-op.
    pub fn release_wavelength_atomic(&mut self, w: &Wavelength) -> Result<usize, TxError> {
        let key = lightpath_key(w);
        let Some(alloc) = self.live_paths.get_mut(&key).and_then(|v| v.pop()) else {
            self.count("ctrl_release_untracked_total");
            return Ok(0);
        };
        let mut tx = Transaction::new();
        // The apply's steps with the roles swapped: what darkens a device
        // is the step, what lights it the undo, so a failed release rolls
        // back to fully-applied.
        for (device, up, down) in self.footprint(w, &alloc) {
            tx.step(device, down, up);
        }
        let result = self.execute(tx);
        match &result {
            Ok(_) => {
                self.retire(alloc);
                self.count("ctrl_releases_total");
            }
            // Rolled back to fully-applied: the footprint is still live.
            Err(_) => self.live_paths.entry(key).or_default().push(alloc),
        }
        result
    }

    /// Whether the MUX at `site` passes `channel` on any filter port.
    fn mux_passes(&self, site: NodeId, channel: &PixelRange) -> Result<bool, SessionError> {
        let state = self.devmgr.devices[&self.mux_at[&site]]
            .session
            .get_state()?;
        Ok(matches!(state.hardware, Hardware::Mux(m)
            if (0..MUX_PORTS).any(|p| m.passes(p, channel).unwrap_or(false))))
    }

    /// Repairs configuration drift: re-audits `plan` against live device
    /// state and re-issues the missing passbands/expresses (e.g. after a
    /// device was swapped for a factory-fresh unit in the field).
    pub fn reconcile(&mut self, plan: &Plan) -> ReconcileReport {
        let mut report = ReconcileReport::default();
        for w in &plan.wavelengths {
            // Which port an endpoint was given is not on record, so any
            // port passing the channel will do; a missing passband is
            // re-lit on a freshly claimed port.
            for site in [w.path.source(), w.path.destination()] {
                if self.mux_passes(site, &w.channel).unwrap_or(false) {
                    continue;
                }
                let relit = LightpathAlloc {
                    transponders: Vec::new(),
                    mux_ports: vec![(site, self.alloc_port(site))],
                };
                if let Some((mux, up, _)) = self.footprint(w, &relit).into_iter().next() {
                    report.note(self.send(mux, up));
                }
            }
            for (roadm, up, _) in self.footprint(w, &LightpathAlloc::default()) {
                let expressed = self.devmgr.devices[&roadm].session.get_state();
                if !expressed.is_ok_and(|state| config_in_effect(&state, &up)) {
                    report.note(self.send(roadm, up));
                }
            }
        }
        report
    }

    /// End-to-end audit: re-reads device state and verifies that every
    /// wavelength's channel is passed by its endpoint MUXes and expressed
    /// by every intermediate ROADM (the §4.3 channel-consistency check).
    pub fn audit_plan(&self, plan: &Plan) -> Vec<String> {
        let mut findings = Vec::new();
        for (wi, w) in plan.wavelengths.iter().enumerate() {
            for site in [w.path.source(), w.path.destination()] {
                match self.mux_passes(site, &w.channel) {
                    Ok(true) => {}
                    Ok(false) => findings.push(format!(
                        "wavelength {wi}: channel {} not passed by any filter port at {site:?} (channel inconsistency)",
                        w.channel
                    )),
                    Err(e) => findings.push(format!("wavelength {wi}: mux at {site:?} unreachable: {e}")),
                }
            }
            for (roadm, up, _) in self.footprint(w, &LightpathAlloc::default()) {
                let handle = &self.devmgr.devices[&roadm];
                let node = handle.descriptor.site;
                match handle.session.get_state() {
                    Ok(state) if config_in_effect(&state, &up) => {}
                    Ok(_) => findings.push(format!(
                        "wavelength {wi}: channel {} not expressed at {node:?} (channel inconsistency)",
                        w.channel
                    )),
                    Err(_) => findings.push(format!("wavelength {wi}: roadm at {node:?} unreachable")),
                }
            }
        }
        findings
    }

    /// Re-pushes the journaled entries of `id` with revision strictly
    /// greater than `after` — rolling a replaced or lagging device forward
    /// to its journaled state. Returns false if any replay send failed
    /// (the device stays quarantined for the next pass).
    fn roll_forward(&self, id: DeviceId, after: u64) -> bool {
        let handle = &self.devmgr.devices[&id];
        // Replays go through the session directly: the entries are
        // already journaled, so journaling them again would duplicate
        // the ledger.
        self.journal
            .history(id)
            .filter(|e| e.revision > after)
            .all(|e| {
                let native = vendor::encode(handle.descriptor.vendor, &e.config);
                handle.session.edit_config(e.revision, native).is_ok()
            })
    }

    /// Half-open probe of one quarantined device: if it answers, close the
    /// breaker (rolling it forward if its revision lags the journal); if
    /// it does not, assume it crashed, replace it with a factory-fresh
    /// unit and replay its journaled history.
    fn probe_quarantined(&mut self, id: DeviceId, report: &mut ConvergeReport) {
        self.set_breaker(id, BreakerState::HalfOpen);
        let latest = self.journal.latest(id).map_or(0, |e| e.revision);
        let caught_up = match self.devmgr.devices[&id].session.get_state() {
            Ok(state) => {
                state.last_revision >= latest || self.roll_forward(id, state.last_revision)
            }
            Err(_) => {
                // Dead or still unreachable: restart from the factory
                // image and roll the whole journaled history forward.
                let reset = self.devmgr.reset_device(id);
                if reset.is_ok() {
                    self.stats.devices_restarted += 1;
                    self.count("ctrl_devices_restarted_total");
                    report.restarted.push(id);
                }
                reset.is_ok() && self.roll_forward(id, 0)
            }
        };
        if caught_up {
            self.breaker_ok(id);
        } else {
            self.set_breaker(id, BreakerState::Open);
        }
    }

    /// The self-healing loop: repeatedly probes quarantined devices
    /// (restarting crashed ones and rolling them forward from the
    /// journal), reconciles drift against `plan`, and audits — until the
    /// plane is clean or `max_passes` passes have run.
    pub fn converge(&mut self, plan: &Plan, max_passes: usize) -> ConvergeReport {
        let span = self.obs.as_ref().map(|o| o.span("ctrl.converge"));
        let start = self.obs.as_ref().map(|o| o.now_ns());
        let mut report = ConvergeReport::default();
        for _ in 0..max_passes {
            report.passes += 1;
            let pass_span = span.as_ref().map(|s| {
                let p = s.child("ctrl.converge_pass");
                p.field("pass", report.passes);
                p
            });
            for id in self.quarantined() {
                self.probe_quarantined(id, &mut report);
            }
            let rec = self.reconcile(plan);
            report.repaired += rec.repaired;
            if let Some(p) = &pass_span {
                p.field("repaired", rec.repaired);
            }
            if rec.is_clean() && self.quarantined().is_empty() && self.audit_plan(plan).is_empty() {
                report.converged = true;
                break;
            }
        }
        if let Some(s) = &span {
            s.field("passes", report.passes);
            s.field("repaired", report.repaired);
            s.field("restarted", report.restarted.len());
            s.field("converged", report.converged);
        }
        if let (Some(obs), Some(start)) = (&self.obs, start) {
            obs.registry()
                .counter("ctrl_reconcile_repairs_total")
                .add(report.repaired as u64);
            obs.observe_since("ctrl_converge_seconds", start);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexwan_core::planning::{plan, PlannerConfig};
    use flexwan_core::Scheme;
    use flexwan_topo::ip::IpTopology;

    fn backbone() -> (Graph, IpTopology) {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge(a, b, 150);
        g.add_edge(b, c, 200);
        g.add_edge(a, c, 500);
        let mut ip = IpTopology::new();
        ip.add_link(a, c, 600);
        ip.add_link(a, b, 400);
        (g, ip)
    }

    #[test]
    fn plan_applies_cleanly_and_audits_consistent() {
        let (g, ip) = backbone();
        let cfg = PlannerConfig {
            grid: SpectrumGrid::new(96),
            ..Default::default()
        };
        let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
        assert!(p.is_feasible());
        let mut ctrl = Controller::build(&g, WssKind::PixelWise, cfg.grid);
        let report = ctrl.apply_plan(&p, &g);
        assert!(report.is_clean(), "rejections: {:?}", report.rejections);
        assert_eq!(report.transponders_configured, 2 * p.wavelengths.len());
        assert_eq!(report.mux_ports_configured, 2 * p.wavelengths.len());
        // §4.3's result: zero inconsistency under centralized control.
        let findings = ctrl.audit_plan(&p);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn radwan_plan_applies_on_fixed_grid_ols() {
        let (g, ip) = backbone();
        let cfg = PlannerConfig {
            grid: SpectrumGrid::new(96),
            ..Default::default()
        };
        let p = plan(Scheme::Radwan, &g, &ip, &cfg);
        assert!(p.is_feasible());
        let mut ctrl = Controller::build(&g, Scheme::Radwan.wss(), cfg.grid);
        let report = ctrl.apply_plan(&p, &g);
        assert!(report.is_clean(), "rejections: {:?}", report.rejections);
        assert!(ctrl.audit_plan(&p).is_empty());
    }

    #[test]
    fn flexwan_plan_rejected_by_legacy_fixed_grid_ols() {
        // Deploying FlexWAN wavelengths over a rigid 75 GHz OLS must fail
        // at the devices — the §9 "smooth evolution" motivation.
        let (g, ip) = backbone();
        let cfg = PlannerConfig {
            grid: SpectrumGrid::new(96),
            ..Default::default()
        };
        let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
        // 600 G at 500 km → 100 GHz spacing: not a 75 GHz slot.
        let mut ctrl = Controller::build(&g, Scheme::Radwan.wss(), cfg.grid);
        let report = ctrl.apply_plan(&p, &g);
        assert!(
            !report.is_clean(),
            "legacy OLS should reject pixel-wise channels"
        );
    }

    #[test]
    fn atomic_apply_rolls_back_on_mid_path_rejection() {
        // Fixed-grid OLS + an off-grid FlexWAN channel: the first MUX step
        // rejects, and the already-configured transponders must be
        // disabled again.
        let (g, ip) = backbone();
        let cfg = PlannerConfig {
            grid: SpectrumGrid::new(96),
            ..Default::default()
        };
        let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
        let off_grid = p
            .wavelengths
            .iter()
            .find(|w| w.channel.start % 6 != 0 || w.channel.width.pixels() != 6)
            .expect("plan contains an off-75GHz-grid channel");
        let mut ctrl = Controller::build(&g, Scheme::Radwan.wss(), cfg.grid);
        let before_devices = ctrl.devmgr.len();
        let err = ctrl.apply_wavelength_atomic(off_grid).unwrap_err();
        assert!(err.rollback_failures.is_empty(), "{err:?}");
        assert!(err.rolled_back >= 2, "transponders were applied first");
        // The registered transponders were retired with the rollback…
        assert_eq!(ctrl.devmgr.len(), before_devices);
        for id in ctrl.devmgr.ids() {
            let state = ctrl.devmgr.device(id).unwrap().session.get_state().unwrap();
            assert!(
                !matches!(state.hardware, Hardware::Transponder(_)),
                "transponder {id:?} outlived its rolled-back lightpath"
            );
        }
        // …after being administratively downed again.
        let downed = |e: &&crate::journal::JournalEntry| {
            matches!(e.config, StandardConfig::Transponder { enabled: false, .. })
        };
        assert_eq!(ctrl.journal().entries().iter().filter(downed).count(), 2);
    }

    #[test]
    fn atomic_apply_succeeds_on_pixel_wise_plane() {
        let (g, ip) = backbone();
        let cfg = PlannerConfig {
            grid: SpectrumGrid::new(96),
            ..Default::default()
        };
        let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
        let mut ctrl = Controller::build(&g, WssKind::PixelWise, cfg.grid);
        for w in &p.wavelengths {
            let steps = ctrl.apply_wavelength_atomic(w).unwrap();
            assert!(steps >= 4, "2 transponders + 2 mux ports at least");
        }
        assert!(ctrl.audit_plan(&p).is_empty());
    }

    #[test]
    fn reconcile_repairs_field_swapped_device() {
        let (g, ip) = backbone();
        let cfg = PlannerConfig {
            grid: SpectrumGrid::new(96),
            ..Default::default()
        };
        let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
        let mut ctrl = Controller::build(&g, WssKind::PixelWise, cfg.grid);
        assert!(ctrl.apply_plan(&p, &g).is_clean());
        assert!(ctrl.audit_plan(&p).is_empty());
        // A MUX is swapped for a factory-fresh unit: drift appears…
        let mux0 = ctrl.mux_at[&p.wavelengths[0].path.source()];
        ctrl.devmgr.reset_device(mux0).unwrap();
        assert!(!ctrl.audit_plan(&p).is_empty(), "drift must be visible");
        // …and reconcile repairs it.
        let rep = ctrl.reconcile(&p);
        assert!(rep.is_clean(), "{:?}", rep.failures);
        assert!(rep.repaired > 0);
        assert!(ctrl.audit_plan(&p).is_empty(), "plane reconciled");
        // A second pass is a no-op (reconcile is idempotent).
        assert_eq!(ctrl.reconcile(&p).repaired, 0);
    }

    #[test]
    fn journal_records_acknowledged_configs_only() {
        let (g, ip) = backbone();
        let cfg = PlannerConfig {
            grid: SpectrumGrid::new(96),
            ..Default::default()
        };
        let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
        let mut ctrl = Controller::build(&g, WssKind::PixelWise, cfg.grid);
        let report = ctrl.apply_plan(&p, &g);
        assert!(report.is_clean());
        let total = report.transponders_configured
            + report.mux_ports_configured
            + report.expresses_configured;
        assert_eq!(ctrl.journal().len(), total);
        // Forensics: what was the first MUX's first port running?
        let mux = ctrl.mux_at[&p.wavelengths[0].path.source()];
        assert!(ctrl.journal().latest(mux).is_some());
        // Rejected configs are absent: a legacy plane rejects everything
        // off-grid and journals nothing for those sends.
        let mut legacy = Controller::build(&g, Scheme::Radwan.wss(), cfg.grid);
        let rep2 = legacy.apply_plan(&p, &g);
        let total2 =
            rep2.transponders_configured + rep2.mux_ports_configured + rep2.expresses_configured;
        assert_eq!(legacy.journal().len(), total2);
        assert!(legacy.journal().len() < ctrl.journal().len());
    }

    #[test]
    fn release_undoes_apply_on_the_device_plane() {
        let (g, ip) = backbone();
        let cfg = PlannerConfig {
            grid: SpectrumGrid::new(96),
            ..Default::default()
        };
        let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
        let mut ctrl = Controller::build(&g, WssKind::PixelWise, cfg.grid);
        for w in &p.wavelengths {
            ctrl.apply_wavelength_atomic(w).unwrap();
        }
        assert!(ctrl.audit_plan(&p).is_empty());
        let released = ctrl.release_wavelength_atomic(&p.wavelengths[0]).unwrap();
        assert!(released >= 4, "2 transponders + 2 mux ports at least");
        // The released wavelength now audits as inconsistent; the rest of
        // the plan is untouched.
        let findings = ctrl.audit_plan(&p);
        assert!(
            findings.iter().all(|f| f.starts_with("wavelength 0")),
            "{findings:?}"
        );
        assert!(!findings.is_empty());
    }

    #[test]
    fn released_ports_are_reused_not_leaked() {
        // Apply/release the same wavelength more times than a site MUX
        // has filter ports: with the free list this cycles port 0/1
        // forever; with the old monotonic counter it exhausts at 64.
        let (g, ip) = backbone();
        let cfg = PlannerConfig {
            grid: SpectrumGrid::new(96),
            ..Default::default()
        };
        let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
        let w = &p.wavelengths[0];
        let mut ctrl = Controller::build(&g, WssKind::PixelWise, cfg.grid);
        for cycle in 0..(MUX_PORTS + 8) {
            ctrl.apply_wavelength_atomic(w)
                .unwrap_or_else(|e| panic!("cycle {cycle}: {e}"));
            ctrl.release_wavelength_atomic(w).unwrap();
        }
        // Only the two endpoint ports were ever claimed.
        for site in [w.path.source(), w.path.destination()] {
            assert!(ctrl.next_port[&site] <= 1, "ports leaked at {site:?}");
        }
    }

    #[test]
    fn lightpath_churn_leaves_no_device_registered() {
        let (g, ip) = backbone();
        let cfg = PlannerConfig {
            grid: SpectrumGrid::new(96),
            ..Default::default()
        };
        let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
        let w = &p.wavelengths[0];
        let mut ctrl = Controller::build(&g, WssKind::PixelWise, cfg.grid);
        let built = ctrl.devmgr.len();
        for _ in 0..200 {
            ctrl.apply_wavelength_atomic(w).unwrap();
            ctrl.release_wavelength_atomic(w).unwrap();
        }
        assert_eq!(ctrl.devmgr.len(), built, "released transponders leaked");
        // Ids are never reused, so the first transponder's is now a gap.
        let retired = DeviceId(built as u32);
        assert!(ctrl.devmgr.device(retired).is_none());
        assert_eq!(
            ctrl.devmgr.reset_device(retired),
            Err(SessionError::Unreachable)
        );

        // A fixed-grid plane rejects the off-grid channel at the first
        // MUX: every apply rolls back.
        let off_grid = p
            .wavelengths
            .iter()
            .find(|w| w.channel.start % 6 != 0 || w.channel.width.pixels() != 6)
            .expect("plan contains an off-75GHz-grid channel");
        let mut legacy = Controller::build(&g, Scheme::Radwan.wss(), cfg.grid);
        for _ in 0..50 {
            legacy.apply_wavelength_atomic(off_grid).unwrap_err();
        }
        assert_eq!(
            legacy.devmgr.len(),
            built,
            "rolled-back transponders leaked"
        );
        assert!(legacy
            .breakers
            .keys()
            .all(|id| legacy.devmgr.device(*id).is_some()));
    }

    #[test]
    fn releasing_an_unapplied_wavelength_is_a_noop() {
        let (g, ip) = backbone();
        let cfg = PlannerConfig {
            grid: SpectrumGrid::new(96),
            ..Default::default()
        };
        let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
        let mut ctrl = Controller::build(&g, WssKind::PixelWise, cfg.grid);
        assert_eq!(
            ctrl.release_wavelength_atomic(&p.wavelengths[0]).unwrap(),
            0
        );
    }

    #[test]
    fn vendor_diversity_is_real() {
        let (g, _) = backbone();
        let ctrl = Controller::build(&g, WssKind::PixelWise, SpectrumGrid::new(96));
        let vendors: std::collections::HashSet<_> = ctrl
            .devmgr
            .devices
            .values()
            .map(|d| d.descriptor.vendor)
            .collect();
        assert_eq!(vendors.len(), 3, "three sites → three vendors");
    }
}
