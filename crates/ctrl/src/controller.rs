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
use flexwan_optical::spectrum::SpectrumGrid;
use flexwan_optical::WssKind;
use flexwan_topo::graph::{EdgeId, Graph, NodeId};
use flexwan_util::rng::ChaCha8Rng;

use crate::config::StandardConfig;
use crate::device::{config_in_effect, spawn_device, DeviceHandle, DeviceState, Hardware};
use crate::faults::FaultInjector;
use crate::model::{DeviceDescriptor, DeviceId, DeviceKind, Vendor};
use crate::netconf::SessionError;
use crate::transaction::{Step, Transaction, TxError};
use crate::vendor;

/// Filter ports per site MUX.
const MUX_PORTS: u16 = 64;

/// The device manager: registry plus live sessions.
#[derive(Debug, Default)]
pub struct DevMgr {
    /// Registered devices. The controller indexes this directly, but only
    /// with ids it holds itself — site MUX/ROADM maps, ledger footprints,
    /// breakers — and those are all dropped in the same step that retires
    /// the device ([`Controller::retire`]).
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
    /// configuration-drift scenario [`Controller::reconcile`] repairs from
    /// the ledger, and how [`Controller::converge`] brings a crashed device
    /// back. An `id` nothing is registered under is
    /// [`SessionError::Unreachable`]: there is no device to reset.
    pub fn reset_device(&mut self, id: DeviceId) -> Result<(), SessionError> {
        let handle = self.devices.get(&id).ok_or(SessionError::Unreachable)?;
        handle.session.factory_reset();
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
    /// Silent quarantined devices replaced with a factory-fresh unit.
    pub devices_restarted: u64,
}

/// Outcome of a [`Controller::converge`] run.
#[derive(Debug, Clone, Default)]
pub struct ConvergeReport {
    /// Convergence passes executed.
    pub passes: usize,
    /// Configurations re-issued by reconciliation across all passes.
    pub repaired: usize,
    /// Devices replaced with a factory-fresh unit, once per restart.
    pub restarted: Vec<DeviceId>,
    /// Whether the plane reached the audited-clean fixed point.
    pub converged: bool,
}

/// One entry of the controller's ledger of intent: a lightpath it was
/// asked to light and the footprint it was given on the device plane, as
/// the transaction that lights it — line-configs on the two transponders
/// registered for it, the channel as passband on the filter port claimed
/// on each endpoint MUX, one express per intermediate ROADM between the
/// degrees the route enters and leaves by; each step's undo darkens the
/// device again. "The same configuration parameters as the wavelength's
/// spectrum" (§4.3), resolved once when the lightpath enters the ledger
/// and read from there by release, audit and reconcile.
#[derive(Debug)]
struct Lightpath {
    wavelength: Wavelength,
    footprint: Transaction,
}

/// The centralized controller.
pub struct Controller {
    /// Device manager.
    pub devmgr: DevMgr,
    mux_at: HashMap<NodeId, DeviceId>,
    roadm_at: HashMap<NodeId, DeviceId>,
    /// Per site MUX, the lowest filter port never handed out.
    next_port: HashMap<DeviceId, u16>,
    /// Filter ports handed back by released lightpaths, reused before
    /// `next_port` grows — without this the monotonic counter exhausts
    /// the 64 ports of a site MUX under sustained cut/repair churn.
    free_ports: HashMap<DeviceId, Vec<u16>>,
    /// The ledger: every lightpath the controller was asked to light and
    /// has not released, in the order lit (duplicates stack). What the
    /// devices *should* hold is read from here and nowhere else.
    live_paths: Vec<Lightpath>,
    degree_of: HashMap<(NodeId, EdgeId), u16>,
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
            live_paths: Vec::new(),
            degree_of,
            breakers: HashMap::new(),
            backoff_rng: ChaCha8Rng::seed_from_u64(0x0C0FFEE),
            stats: CtrlStats::default(),
            obs: None,
        }
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

    /// Claims a filter port on site MUX `mux`: lowest released port first
    /// (deterministic), else the next never-used one; `None` once all
    /// [`MUX_PORTS`] are out.
    fn alloc_port(&mut self, mux: DeviceId) -> Option<u16> {
        if let Some(free) = self.free_ports.get_mut(&mux) {
            if let Some(pos) = (0..free.len()).min_by_key(|&i| free[i]) {
                return Some(free.swap_remove(pos));
            }
        }
        let next = self.next_port.entry(mux).or_insert(0);
        (*next < MUX_PORTS).then(|| {
            *next += 1;
            *next - 1
        })
    }

    /// Whether `cfg` is in effect on `id` after all, read back once.
    /// After a lost reply an earlier attempt may have landed unheard, so
    /// neither a timeout nor a rejection of a non-idempotent re-send (a
    /// ROADM express self-conflicts) proves that the config did not.
    fn read_repaired(&mut self, id: DeviceId, cfg: &StandardConfig) -> bool {
        let state = self.devmgr.devices[&id].session.get_state();
        let repaired = state.is_ok_and(|state| config_in_effect(&state, cfg));
        if repaired {
            self.stats.read_repairs += 1;
            self.count("ctrl_read_repairs_total");
        }
        repaired
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
            let handle = &self.devmgr.devices[&id];
            // The controller holds the standard document; the device
            // receives its native dialect.
            let native = vendor::encode(handle.descriptor.vendor, &cfg);
            match handle.session.edit_config(native) {
                Ok(()) => {
                    self.breaker_ok(id);
                    return Ok(());
                }
                Err(SessionError::Rejected(cause)) => {
                    // The device answered: it is reachable.
                    self.breaker_ok(id);
                    if saw_timeout && self.read_repaired(id, &cfg) {
                        return Ok(());
                    }
                    return Err((id, cause));
                }
                Err(e @ SessionError::Unreachable) => {
                    saw_timeout = true;
                    if attempt >= MAX_ATTEMPTS {
                        if self.read_repaired(id, &cfg) {
                            // The state read answered: it is reachable.
                            self.breaker_ok(id);
                            return Ok(());
                        }
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

    /// Enters `w` into the device plane's books: registers a transponder
    /// at each end (vendor follows the site), claims a filter port on each
    /// endpoint MUX and resolves the footprint. This is the one place a
    /// wavelength meets the topology the controller was built for — one
    /// planned on another graph, or a site out of filter ports, is a
    /// rejection naming the site or fiber, and whatever was claimed for
    /// it is handed back.
    fn admit_lightpath(&mut self, w: &Wavelength) -> Result<Lightpath, (DeviceId, String)> {
        let mut lit = Lightpath {
            wavelength: w.clone(),
            footprint: Transaction::new(),
        };
        match self.claim_lightpath(w, &mut lit.footprint) {
            Ok(()) => Ok(lit),
            Err(rejection) => {
                self.retire(lit);
                Err(rejection)
            }
        }
    }

    /// The claiming itself, step by step into `tx` so that a rejection
    /// half-way leaves behind exactly what [`Self::retire`] hands back.
    fn claim_lightpath(
        &mut self,
        w: &Wavelength,
        tx: &mut Transaction,
    ) -> Result<(), (DeviceId, String)> {
        let ends = [w.path.source(), w.path.destination()];
        for site in ends {
            let vendor = Vendor::ALL[site.0 as usize % Vendor::ALL.len()];
            let hw = Hardware::Transponder(None);
            let device = self
                .devmgr
                .register(vendor, DeviceKind::Transponder, site, hw);
            let line = |enabled| StandardConfig::Transponder {
                format: w.format,
                channel: w.channel,
                enabled,
            };
            tx.step(device, line(true), line(false));
        }
        // A site the controller holds no devices for has nothing to blame
        // but the transponder just stood up for it.
        let blame = tx.steps()[0].device;
        let foreign = |site| (blame, format!("no site {site:?} on this topology"));
        for site in ends {
            let device = *self.mux_at.get(&site).ok_or_else(|| foreign(site))?;
            let port = self
                .alloc_port(device)
                .ok_or_else(|| (device, format!("site {site:?} out of filter ports")))?;
            let filter = |passband| StandardConfig::MuxPort { port, passband };
            tx.step(device, filter(Some(w.channel)), filter(None));
        }
        for (hop, &node) in w.path.edges.windows(2).zip(&w.path.nodes[1..]) {
            let device = *self.roadm_at.get(&node).ok_or_else(|| foreign(node))?;
            let degree = |fiber: EdgeId| {
                let known = self.degree_of.get(&(node, fiber)).copied();
                known.ok_or_else(|| (device, format!("no fiber {fiber:?} at site {node:?}")))
            };
            let (from_degree, to_degree, passband) = (degree(hop[0])?, degree(hop[1])?, w.channel);
            tx.step(
                device,
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
            );
        }
        Ok(())
    }

    /// Hands back what [`Self::claim_lightpath`] claimed once the devices
    /// hold nothing for the lightpath any more: the filter ports return to
    /// their MUX's free list and the transponders leave the registry, with
    /// their breakers — so nothing ever probes a retired id.
    fn retire(&mut self, lit: Lightpath) {
        for step in lit.footprint.steps() {
            match step.apply {
                StandardConfig::Transponder { .. } => {
                    self.devmgr.devices.remove(&step.device);
                    self.breakers.remove(&step.device);
                }
                StandardConfig::MuxPort { port, .. } => {
                    self.free_ports.entry(step.device).or_default().push(port)
                }
                _ => {}
            }
        }
    }

    /// Pushes every wavelength of `plan` to the device plane and enters
    /// it into the ledger. A bulk commit is deliberately *not* atomic: it
    /// keeps going past a rejected step and reports every one, and the
    /// lightpath stays on the ledger either way — the intent stands, and
    /// [`Self::reconcile`] re-sends exactly the steps that did not land.
    pub fn apply_plan(&mut self, plan: &Plan, _optical: &Graph) -> ApplyReport {
        let span = self.obs.as_ref().map(|o| {
            let s = o.span("ctrl.apply_plan");
            s.field("wavelengths", plan.wavelengths.len());
            s
        });
        let start = self.obs.as_ref().map(|o| o.now_ns());
        let mut report = ApplyReport::default();
        for w in &plan.wavelengths {
            let claimed = self.admit_lightpath(w);
            let Ok(lit) = claimed.map_err(|rejection| report.rejections.push(rejection)) else {
                continue;
            };
            for step in lit.footprint.steps() {
                let configured = match step.apply {
                    StandardConfig::Transponder { .. } => &mut report.transponders_configured,
                    StandardConfig::MuxPort { .. } => &mut report.mux_ports_configured,
                    _ => &mut report.expresses_configured,
                };
                match self.send(step.device, step.apply.clone()) {
                    Ok(()) => *configured += 1,
                    Err(r) => report.rejections.push(r),
                }
            }
            self.live_paths.push(lit);
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
    /// expresses either all land — and the lightpath enters the ledger —
    /// or none do (first rejection rolls the applied prefix back). See
    /// [`crate::transaction`].
    pub fn apply_wavelength_atomic(&mut self, w: &Wavelength) -> Result<usize, TxError> {
        let lit = self
            .admit_lightpath(w)
            .map_err(|(device, cause)| TxError::before_send(device, cause))?;
        let result = self.execute(&lit.footprint);
        match &result {
            Ok(_) => self.live_paths.push(lit),
            // Rolled back: the rollback already darkened the devices.
            Err(_) => self.retire(lit),
        }
        result
    }

    /// Runs `tx` against the device plane, every step through
    /// [`Self::send`].
    fn execute(&mut self, tx: &Transaction) -> Result<usize, TxError> {
        let obs = self.obs.clone();
        tx.execute(obs.as_ref(), |d, cfg| {
            self.send(d, cfg.clone()).map_err(|(_, e)| e)
        })
    }

    /// Tears one wavelength's configuration down **atomically**: disables
    /// its transponders, clears its endpoint MUX filter ports and releases
    /// the intermediate ROADM expresses — the inverse of the recorded
    /// footprint of the most recently lit lightpath with `w`'s route and
    /// spectrum, whether [`apply_plan`](Self::apply_plan) or
    /// [`apply_wavelength_atomic`](Self::apply_wavelength_atomic) lit it.
    /// A mid-path rejection rolls the already-released prefix back, so the
    /// lightpath is either fully up or fully down. On success the entry
    /// leaves the ledger, the MUX ports return to the free list for reuse
    /// and the transponders are retired. Releasing a wavelength this
    /// controller never applied is a counted no-op.
    pub fn release_wavelength_atomic(&mut self, w: &Wavelength) -> Result<usize, TxError> {
        let same = |l: &Lightpath| {
            l.wavelength.channel == w.channel && l.wavelength.path.edges == w.path.edges
        };
        let Some(at) = self.live_paths.iter().rposition(same) else {
            self.count("ctrl_release_untracked_total");
            return Ok(0);
        };
        let lit = self.live_paths.remove(at);
        let result = self.execute(&lit.footprint.inverse());
        match &result {
            Ok(_) => {
                self.retire(lit);
                self.count("ctrl_releases_total");
            }
            // Rolled back to fully-applied: the entry is still live.
            Err(_) => self.live_paths.insert(at, lit),
        }
        result
    }

    /// The wavelengths on the ledger, in the order they were lit.
    pub fn lightpaths(&self) -> impl Iterator<Item = &Wavelength> {
        self.live_paths.iter().map(|l| &l.wavelength)
    }

    /// Reads `id`'s state, asking again — as often as a send tries — when
    /// the request is lost: a dropped read is no evidence of drift.
    fn read_state(&self, id: DeviceId) -> Result<DeviceState, SessionError> {
        let handle = self.devmgr.device(id).ok_or(SessionError::Unreachable)?;
        let mut reads = (0..MAX_ATTEMPTS).map(|_| handle.session.get_state());
        let answered = reads.find(Result::is_ok);
        answered.unwrap_or(Err(SessionError::Unreachable))
    }

    /// The one drift traversal — drift is intent minus device state.
    /// Walks the ledger from `cursor` (entry, step), in the order lit and
    /// pushed, to the next step whose lighting config is not in effect
    /// on its device; returns the entry's index, the step and the read
    /// error if the device could not be asked. A device is read when its
    /// step is reached, so a caller repairing as it goes sees its own
    /// repairs. [`Self::audit_plan`] formats these, [`Self::reconcile`]
    /// re-sends them.
    fn next_drift(
        &self,
        cursor: &mut (usize, usize),
    ) -> Option<(usize, Step, Option<SessionError>)> {
        while let Some(lit) = self.live_paths.get(cursor.0) {
            while let Some(step) = lit.footprint.steps().get(cursor.1) {
                cursor.1 += 1;
                match self.read_state(step.device) {
                    Ok(state) if config_in_effect(&state, &step.apply) => {}
                    read => return Some((cursor.0, step.clone(), read.err())),
                }
            }
            *cursor = (cursor.0 + 1, 0);
        }
        None
    }

    /// Repairs configuration drift: re-issues every ledger step that is
    /// not in effect (a device swapped for a factory-fresh unit in the
    /// field, a step of [`Self::apply_plan`] that bounced) to the device
    /// — transponder, filter port or express — it was recorded against.
    pub fn reconcile(&mut self) -> ReconcileReport {
        let mut report = ReconcileReport::default();
        let mut cursor = (0, 0);
        while let Some((_, step, _)) = self.next_drift(&mut cursor) {
            match self.send(step.device, step.apply) {
                Ok(()) => report.repaired += 1,
                Err(e) => report.failures.push(e),
            }
        }
        report
    }

    /// End-to-end audit: re-reads device state and verifies that every
    /// lightpath on the ledger is run by its transponders, passed by its
    /// filter ports and expressed by every intermediate ROADM (the §4.3
    /// channel-consistency check). A finding names the ledger position —
    /// after one [`Self::apply_plan`], the plan's index.
    pub fn audit_plan(&self) -> Vec<String> {
        let mut findings = Vec::new();
        let mut cursor = (0, 0);
        while let Some((wi, step, unreachable)) = self.next_drift(&mut cursor) {
            let channel = self.live_paths[wi].wavelength.channel;
            let what = match step.apply {
                StandardConfig::Transponder { .. } => "not run by transponder",
                StandardConfig::MuxPort { .. } => "not passed by its filter port on",
                _ => "not expressed by",
            };
            let why = unreachable.map_or("channel inconsistency".into(), |e| e.to_string());
            let device = step.device;
            findings.push(format!(
                "wavelength {wi}: channel {channel} {what} {device:?} ({why})"
            ));
        }
        findings
    }

    /// Half-open probe of one quarantined device: one that answers gets
    /// its breaker closed; a silent one is assumed crashed, replaced with
    /// a factory-fresh unit and then closed. Either way the
    /// [`Self::reconcile`] that follows re-sends every ledger step that
    /// is not in effect on it.
    fn probe_quarantined(&mut self, id: DeviceId, report: &mut ConvergeReport) {
        self.set_breaker(id, BreakerState::HalfOpen);
        let silent = self.devmgr.devices[&id].session.get_state().is_err();
        if silent && self.devmgr.reset_device(id).is_ok() {
            self.stats.devices_restarted += 1;
            self.count("ctrl_devices_restarted_total");
            report.restarted.push(id);
        }
        self.breaker_ok(id);
    }

    /// The self-healing loop: repeatedly probes quarantined devices
    /// (restarting silent ones), reconciles the device plane against the
    /// ledger, and audits — until the plane is clean or `max_passes`
    /// passes have run.
    pub fn converge(&mut self, max_passes: usize) -> ConvergeReport {
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
            let rec = self.reconcile();
            report.repaired += rec.repaired;
            if let Some(p) = &pass_span {
                p.field("repaired", rec.repaired);
            }
            if rec.is_clean() && self.quarantined().is_empty() && self.audit_plan().is_empty() {
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
    use crate::device::TransponderState;
    use crate::faults::{DeviceFaults, FaultPlan};
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

    /// What device `id` holds right now.
    fn hardware(ctrl: &Controller, id: DeviceId) -> Hardware {
        let handle = ctrl.devmgr.device(id).expect("registered");
        handle.session.get_state().expect("reachable").hardware
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
        let findings = ctrl.audit_plan();
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
        assert!(ctrl.audit_plan().is_empty());
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
        // …after being administratively downed again: the same
        // transaction, read back before its transponders are retired.
        let lit = ctrl.admit_lightpath(off_grid).unwrap();
        assert!(ctrl.execute(&lit.footprint).is_err());
        let downed = lit.footprint.steps().iter().filter(|step| {
            let state = ctrl.devmgr.device(step.device).unwrap().session.get_state();
            matches!(
                state.unwrap().hardware,
                Hardware::Transponder(Some(TransponderState { enabled: false, .. }))
            )
        });
        assert_eq!(downed.count(), 2);
        ctrl.retire(lit);
        assert_eq!(ctrl.devmgr.len(), before_devices);
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
        assert!(ctrl.audit_plan().is_empty());
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
        assert!(ctrl.audit_plan().is_empty());
        // A MUX is swapped for a factory-fresh unit: drift appears…
        let mux0 = ctrl.mux_at[&p.wavelengths[0].path.source()];
        ctrl.devmgr.reset_device(mux0).unwrap();
        assert!(!ctrl.audit_plan().is_empty(), "drift must be visible");
        // …and reconcile repairs it.
        let rep = ctrl.reconcile();
        assert!(rep.is_clean(), "{:?}", rep.failures);
        assert!(rep.repaired > 0);
        assert!(ctrl.audit_plan().is_empty(), "plane reconciled");
        // A second pass is a no-op (reconcile is idempotent).
        assert_eq!(ctrl.reconcile().repaired, 0);
    }

    #[test]
    fn reconcile_relights_the_recorded_ports_however_often_a_mux_is_swapped() {
        // The MUX at site a terminates both lightpaths. Re-lighting drift
        // on a freshly claimed port leaked two ports per swap and ran the
        // 64-port MUX dry on the 32nd.
        let (g, ip) = backbone();
        let cfg = PlannerConfig {
            grid: SpectrumGrid::new(96),
            ..Default::default()
        };
        let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
        let mut ctrl = Controller::build(&g, WssKind::PixelWise, cfg.grid);
        assert!(ctrl.apply_plan(&p, &g).is_clean());
        let mux = ctrl.mux_at[&NodeId(0)];
        let lit = hardware(&ctrl, mux);
        let claimed = ctrl.next_port.clone();
        for swap in 0..100 {
            ctrl.devmgr.reset_device(mux).unwrap();
            let rep = ctrl.reconcile();
            assert!(rep.is_clean(), "swap {swap}: {:?}", rep.failures);
            assert_eq!(rep.repaired, 2, "swap {swap}");
            assert!(ctrl.audit_plan().is_empty(), "swap {swap}");
        }
        assert_eq!(ctrl.next_port, claimed, "a repair claims no port");
        assert!(ctrl.free_ports.is_empty());
        assert_eq!(
            hardware(&ctrl, mux),
            lit,
            "same passbands on the same ports"
        );
    }

    #[test]
    fn factory_reset_transponder_is_audited_and_reconciled() {
        let (g, ip) = backbone();
        let cfg = PlannerConfig {
            grid: SpectrumGrid::new(96),
            ..Default::default()
        };
        let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
        let mut ctrl = Controller::build(&g, WssKind::PixelWise, cfg.grid);
        let built = ctrl.devmgr.len() as u32;
        assert!(ctrl.apply_plan(&p, &g).is_clean());
        // The first device registered after the plane itself is the first
        // wavelength's source transponder.
        let transponder = DeviceId(built);
        let running = hardware(&ctrl, transponder);
        assert!(matches!(running, Hardware::Transponder(Some(_))));
        ctrl.devmgr.reset_device(transponder).unwrap();
        let findings = ctrl.audit_plan();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].starts_with("wavelength 0:"), "{findings:?}");
        assert!(findings[0].contains("transponder"), "{findings:?}");
        let rep = ctrl.reconcile();
        assert!(rep.is_clean(), "{:?}", rep.failures);
        assert_eq!(rep.repaired, 1);
        assert!(ctrl.audit_plan().is_empty());
        assert_eq!(hardware(&ctrl, transponder), running);
    }

    /// Site b's ROADM: every site registers its MUX, then its ROADM.
    const ROADM_B: DeviceId = DeviceId(3);

    /// The plan's wavelength of link a–c: routed a–b–c, so [`ROADM_B`]
    /// expresses it.
    fn expressed(p: &Plan) -> &Wavelength {
        let through_b = p.wavelengths.iter().find(|w| w.path.nodes.len() == 3);
        through_b.expect("a–c routes a–b–c")
    }

    #[test]
    fn a_quarantined_device_that_holds_its_ledger_steps_heals_in_one_pass() {
        // ROADM b's express lands with its reply lost and the retry is
        // read-repaired. Three dropped sends later ROADM b is quarantined,
        // then the faults lift: the device answers and holds every step
        // the ledger asks of it, so the probe closes its breaker and
        // nothing is re-sent. Replaying sends it already applied would
        // bounce the express off itself and reopen the breaker on every
        // pass.
        let (g, ip) = backbone();
        let cfg = PlannerConfig {
            grid: SpectrumGrid::new(96),
            ..Default::default()
        };
        let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
        let roadm_b = ROADM_B;
        assert_eq!(expressed(&p).path.nodes[1], NodeId(1));
        let lost_reply = DeviceFaults {
            delay_reply_prob: 0.5,
            ..Default::default()
        };
        let mut ctrl = (0..64)
            .find_map(|seed| {
                let mut ctrl = Controller::build(&g, WssKind::PixelWise, cfg.grid);
                let faults = FaultPlan {
                    seed,
                    ..FaultPlan::none()
                };
                let faults = faults.device(roadm_b, lost_reply.clone());
                ctrl.arm_faults(Arc::new(FaultInjector::new(faults)));
                let clean = ctrl.apply_plan(&p, &g).is_clean();
                (clean && ctrl.stats().read_repairs == 1).then_some(ctrl)
            })
            .expect("a seed whose express retry is read-repaired");
        let blackout = FaultPlan::none().device(
            roadm_b,
            DeviceFaults {
                drop_prob: 1.0,
                ..Default::default()
            },
        );
        let injector = Arc::new(FaultInjector::new(blackout));
        ctrl.arm_faults(injector.clone());
        for _ in 0..BREAKER_THRESHOLD {
            ctrl.reconcile();
        }
        assert_eq!(ctrl.quarantined(), [roadm_b]);
        injector.lift();
        let healed = ctrl.converge(8);
        assert!(healed.converged, "{healed:?}, {:?}", ctrl.quarantined());
        assert_eq!((healed.passes, healed.repaired), (1, 0));
        assert!(healed.restarted.is_empty());
        assert!(ctrl.audit_plan().is_empty());
    }

    #[test]
    fn an_atomic_apply_whose_every_reply_is_lost_keeps_what_landed() {
        // Every reply from ROADM b is lost: the express lands on the first
        // attempt and the retries bounce off it unheard. Read back, it is
        // in effect, so the lightpath enters the ledger. Failing the apply
        // would roll back only the prefix and leave an express no
        // lightpath owns, occupying the channel for every later apply.
        let (g, ip) = backbone();
        let cfg = PlannerConfig {
            grid: SpectrumGrid::new(96),
            ..Default::default()
        };
        let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
        let w = expressed(&p);
        let mut ctrl = Controller::build(&g, WssKind::PixelWise, cfg.grid);
        let lost_reply = FaultPlan::none().device(
            ROADM_B,
            DeviceFaults {
                delay_reply_prob: 1.0,
                ..Default::default()
            },
        );
        let injector = Arc::new(FaultInjector::new(lost_reply));
        ctrl.arm_faults(injector.clone());
        ctrl.apply_wavelength_atomic(w).unwrap();
        assert_eq!(ctrl.stats().read_repairs, 1);
        assert!(ctrl.lightpaths().eq([w]));
        injector.lift();
        assert!(ctrl.audit_plan().is_empty());
        ctrl.release_wavelength_atomic(w).unwrap();
        ctrl.apply_wavelength_atomic(w).unwrap();
        assert!(ctrl.audit_plan().is_empty());
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
        assert!(ctrl.audit_plan().is_empty());
        let released = ctrl.release_wavelength_atomic(&p.wavelengths[0]).unwrap();
        assert!(released >= 4, "2 transponders + 2 mux ports at least");
        // The released wavelength left the ledger and the devices — it can
        // be lit again on the spectrum it gave back — and the rest of the
        // plan is untouched.
        assert!(ctrl.lightpaths().eq(&p.wavelengths[1..]));
        assert!(ctrl.audit_plan().is_empty());
        ctrl.apply_wavelength_atomic(&p.wavelengths[0]).unwrap();
        assert!(ctrl.audit_plan().is_empty());
    }

    #[test]
    fn every_lightpath_of_apply_plan_is_on_the_ledger_and_releasable() {
        // One way to light, one record: what `apply_plan` lit is released
        // by the same call that releases an atomic apply, and the plane
        // ends as it was built.
        let (g, ip) = backbone();
        let cfg = PlannerConfig {
            grid: SpectrumGrid::new(96),
            ..Default::default()
        };
        let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
        let mut ctrl = Controller::build(&g, WssKind::PixelWise, cfg.grid);
        let built = ctrl.devmgr.len();
        let factory: Vec<_> = ctrl
            .devmgr
            .ids()
            .into_iter()
            .map(|id| hardware(&ctrl, id))
            .collect();
        assert!(ctrl.apply_plan(&p, &g).is_clean());
        assert!(ctrl.lightpaths().eq(&p.wavelengths));
        for w in &p.wavelengths {
            let released = ctrl.release_wavelength_atomic(w).unwrap();
            assert!(released >= 4, "an untracked release sends nothing");
        }
        assert_eq!(ctrl.lightpaths().count(), 0);
        assert_eq!(ctrl.devmgr.len(), built, "transponders retired");
        let dark: Vec<_> = ctrl
            .devmgr
            .ids()
            .into_iter()
            .map(|id| hardware(&ctrl, id))
            .collect();
        assert_eq!(dark, factory, "every passband and express taken back");
    }

    #[test]
    fn foreign_wavelength_is_a_rejection_not_a_panic() {
        // A wavelength planned on a bigger graph: site d and fiber c–d do
        // not exist on the controller's three-node plane.
        let (g, _) = backbone();
        let mut big = g.clone();
        let d = big.add_node("d");
        big.add_edge(NodeId(2), d, 100);
        big.add_edge(NodeId(1), d, 100);
        let mut ip = IpTopology::new();
        ip.add_link(NodeId(0), d, 100); // a–b–d: ends on an unknown site
        ip.add_link(NodeId(0), NodeId(2), 100); // a–b–c, rerouted below
        let cfg = PlannerConfig {
            grid: SpectrumGrid::new(96),
            ..Default::default()
        };
        let mut p = plan(Scheme::FlexWan, &big, &ip, &cfg);
        assert!(p.is_feasible());
        // Second link: keep the known endpoints, swap the middle for the
        // unknown site — a–b, b–d, d–c.
        let via_d = p
            .wavelengths
            .iter_mut()
            .find(|w| w.path.destination() == NodeId(2));
        let via_d = via_d.expect("a–c is planned");
        via_d.path.nodes = vec![NodeId(0), NodeId(1), d, NodeId(2)].into();
        via_d.path.edges = vec![EdgeId(0), EdgeId(4), EdgeId(3)];

        let mut ctrl = Controller::build(&g, WssKind::PixelWise, cfg.grid);
        let built = ctrl.devmgr.len();
        let report = ctrl.apply_plan(&p, &g);
        assert_eq!(report.rejections.len(), p.wavelengths.len());
        assert!(
            report
                .rejections
                .iter()
                .any(|(_, cause)| cause.contains("no site NodeId(3)")),
            "{:?}",
            report.rejections
        );
        assert!(
            report
                .rejections
                .iter()
                .any(|(_, cause)| cause.contains("no fiber EdgeId(4)")),
            "{:?}",
            report.rejections
        );
        for w in &p.wavelengths {
            let err = ctrl.apply_wavelength_atomic(w).unwrap_err();
            assert_eq!(err.rolled_back, 0, "{err}");
        }
        // Nothing was sent, nothing entered the ledger, nothing leaked.
        assert_eq!(ctrl.stats().sends, 0);
        assert_eq!(ctrl.lightpaths().count(), 0);
        assert_eq!(ctrl.devmgr.len(), built);
        assert!(ctrl.next_port.values().all(|&next| next <= 2));
        let free: usize = ctrl.free_ports.values().map(Vec::len).sum();
        assert_eq!(free, ctrl.next_port.values().map(|&n| n as usize).sum());
    }

    #[test]
    fn a_site_out_of_filter_ports_rejects_before_sending() {
        let (g, ip) = backbone();
        let cfg = PlannerConfig {
            grid: SpectrumGrid::new(96),
            ..Default::default()
        };
        let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
        let w = &p.wavelengths[0];
        let mut ctrl = Controller::build(&g, WssKind::PixelWise, cfg.grid);
        // Hand out every port of the source MUX.
        let mux = ctrl.mux_at[&w.path.source()];
        while ctrl.alloc_port(mux).is_some() {}
        let built = ctrl.devmgr.len();
        let err = ctrl.apply_wavelength_atomic(w).unwrap_err();
        assert_eq!(err.failed_device, mux);
        assert!(err.cause.contains("out of filter ports"), "{err}");
        let mut one = p.clone();
        one.wavelengths.truncate(1);
        let report = ctrl.apply_plan(&one, &g);
        assert_eq!(report.rejections.len(), 1);
        assert_eq!(report.rejections[0].0, mux);
        assert_eq!(ctrl.stats().sends, 0);
        assert_eq!(ctrl.devmgr.len(), built);
        assert_eq!(ctrl.lightpaths().count(), 0);
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
            let mux = ctrl.mux_at[&site];
            assert!(ctrl.next_port[&mux] <= 1, "ports leaked at {site:?}");
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
