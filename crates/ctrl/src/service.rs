//! The always-on churn service: a deadline-budgeted event loop with a
//! graceful-degradation ladder over the standing incremental planning
//! model.
//!
//! The §4.4 loop of [`crate::orchestrator`] reacts to one telemetry tick
//! at a time. Production backbones churn continuously — demand resizes,
//! backhoes, splices, amplifier drift — and the controller must keep a
//! committed plan standing through all of it, inside a reaction deadline.
//! [`ChurnService`] is that loop run as a service:
//!
//! * **Event sourcing.** Every churn event lives in an append-only
//!   [`EventLog`] (the bus); deliveries are doorbells. The service
//!   applies canonical events strictly in sequence order — a duplicate
//!   or stale delivery is ignored, a gap is filled from the log — so the
//!   applied stream equals the canonical stream no matter how the
//!   transport drops, duplicates, reorders or delays
//!   (see [`crate::faults::FaultInjector::perturb_stream`]).
//! * **Classification.** Demand deltas mutate the standing
//!   [`PlanModel`]'s capacity rows in place; cuts and repairs run the §8
//!   restoration mutation (simultaneous cuts generate banned-path columns
//!   on demand instead of rebuilding); telemetry drift is monitored and
//!   escalates to a cut only past a threshold. A full rebuild happens
//!   only when generated columns bloat the model past a factor, or as
//!   self-healing after a solver error.
//! * **Degradation ladder.** Each tick runs under a budget. Level 0 is
//!   the warm incremental MIP; when the budget is blown or the solver
//!   fails, level 1 falls back to the greedy §8 heuristic over the
//!   maintained heuristic baseline; level 2 falls back to the
//!   pre-provisioned 1+1 protection copies with zero computation. Every
//!   ladder decision is journaled, so replaying the journal over the log
//!   reconstructs the live state bit-for-bit.

use std::collections::{BTreeMap, BTreeSet};

use flexwan_core::planning::{ExactPlan, Plan, PlanCtx, PlanModel, PlannerConfig};
use flexwan_core::protect::ProtectedPlan;
use flexwan_core::restore::{restore, FailureScenario};
use flexwan_core::scenario::{LEVEL_EXACT, LEVEL_HEURISTIC, LEVEL_PROTECT};
use flexwan_core::{Scheme, Wavelength};
use flexwan_obs::{Obs, LATENCY_SECONDS_BUCKETS};
use flexwan_solver::{record_solver_stats, SolveOptions};
use flexwan_topo::graph::{EdgeId, Graph};
use flexwan_topo::ip::{IpLinkId, IpTopology};

use crate::datastream::CUT_DROP_DB;

/// One churn event entering the controller.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnEvent {
    /// A fiber went dark.
    FiberCut(EdgeId),
    /// A cut fiber was spliced and came back.
    FiberRepair(EdgeId),
    /// An IP link was resized to a new bandwidth-capacity demand.
    DemandDelta {
        /// The resized link.
        link: IpLinkId,
        /// Its new demand, Gbps.
        demand_gbps: u64,
    },
    /// Receive-power drift on a fiber (dB, signed). Monitored; the
    /// accumulated drift escalates to a cut at 20 dB, the drop that makes
    /// the [`FiberCutDetector`](crate::FiberCutDetector) flag a cut.
    TelemetryDrift {
        /// The drifting fiber.
        fiber: EdgeId,
        /// Power change since the last sample, dB; a loss of light reads
        /// −∞. A NaN or +∞ sample is dropped at ingest.
        delta_db: f64,
    },
    /// Several fibers went dark at once (shared-risk event: a conduit
    /// cut, an amplifier-hut outage). Coalesces exactly like the same
    /// fibers cut as individual [`ChurnEvent::FiberCut`] events in the
    /// same batch — one multi-cut restoration, not one per fiber.
    SimultaneousCuts(Vec<EdgeId>),
}

/// A sequenced event as published by the [`EventLog`].
#[derive(Debug, Clone, PartialEq)]
pub struct SeqEvent {
    /// Position in the canonical log (0-based, gap-free).
    pub seq: u64,
    /// The event.
    pub event: ChurnEvent,
}

/// The canonical, append-only churn event log. Deliveries to the service
/// may be perturbed; the log never is — it is the replay source of truth.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Vec<ChurnEvent>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// Appends an event, returning it stamped with its sequence number.
    pub fn append(&mut self, event: ChurnEvent) -> SeqEvent {
        let seq = self.events.len() as u64;
        self.events.push(event.clone());
        SeqEvent { seq, event }
    }

    /// The event at `seq`.
    pub fn get(&self, seq: u64) -> Option<&ChurnEvent> {
        self.events.get(seq as usize)
    }

    /// Number of events logged.
    pub fn len(&self) -> u64 {
        self.events.len() as u64
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

// The service's ladder is the scenario engine's, rung for rung
// ([`flexwan_core::scenario`] numbers them once), as the `u8` the tick
// reports carry.

/// Degradation-ladder level 0: warm re-solve of the standing MIP.
pub const LADDER_WARM: u8 = LEVEL_EXACT as u8;
/// Level 1: greedy §8 heuristic restoration over the heuristic baseline.
pub const LADDER_HEURISTIC: u8 = LEVEL_HEURISTIC as u8;
/// Level 2: pre-provisioned 1+1 protection, zero computation.
pub const LADDER_PROTECT: u8 = LEVEL_PROTECT as u8;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Per-tick reaction deadline, ns. Checked between ladder steps
    /// (a step in flight is never interrupted); a blown budget drops the
    /// remaining work down the ladder and starts the next tick one level
    /// degraded. `u64::MAX` disables the deadline.
    pub tick_budget_ns: u64,
    /// Options for every standing-model solve.
    pub solve: SolveOptions,
    /// Rebuild the standing model once on-demand restoration columns
    /// exceed this fraction of the base enumeration (compaction).
    pub rebuild_column_factor: f64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            tick_budget_ns: u64::MAX,
            solve: SolveOptions::default(),
            rebuild_column_factor: 0.5,
        }
    }
}

/// What one service tick did. The service journals every report: its
/// watermark and ladder decisions are enough to re-execute the tick
/// deterministically without a clock ([`ChurnService::replay`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TickReport {
    /// Tick number (1-based).
    pub tick: u64,
    /// Canonical sequence watermark after the tick (`next_seq`).
    pub upto_seq: u64,
    /// Canonical events applied this tick (including gap fills).
    pub applied: usize,
    /// Deliveries ignored as duplicate or stale.
    pub duplicates: usize,
    /// Ladder level the planning reaction ran at (`LADDER_WARM` when no
    /// planning re-solve was needed).
    pub demand_level: u8,
    /// Ladder level the restoration reaction ran at.
    pub restore_level: u8,
    /// Whether the tick overran its budget (the next tick starts one
    /// rung degraded — replay reproduces the backpressure from this bit,
    /// never from a clock).
    pub deadline_blown: bool,
    /// Whether the standing model was rebuilt from scratch.
    pub rebuilt: bool,
    /// Capacity lost to the active cuts, Gbps.
    pub affected_gbps: u64,
    /// Capacity restored, Gbps.
    pub restored_gbps: u64,
    /// Banned-path columns generated on demand this tick.
    pub added_columns: usize,
    /// Reaction time, ns (0 without an observability clock).
    pub reaction_ns: u64,
}

/// Cumulative service counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceStats {
    /// Canonical events applied.
    pub events_applied: u64,
    /// Deliveries ignored as duplicate or stale.
    pub duplicates_ignored: u64,
    /// Events applied from the log to fill delivery gaps.
    pub gap_fills: u64,
    /// Warm model mutations (demand RHS changes + restoration mutations).
    pub warm_mutations: u64,
    /// Full standing-model rebuilds.
    pub rebuilds: u64,
    /// Ticks that overran their budget.
    pub deadline_blown: u64,
    /// Ticks whose restoration reaction landed on each ladder level.
    pub level_ticks: [u64; 3],
}

/// Canonical service state: everything the control decisions depend on,
/// in deterministic order. Two services whose states are `==` are in the
/// same state (no NaN reaches the drift: ingest drops it).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceState {
    /// Ticks processed.
    pub tick: u64,
    /// Next canonical sequence number to apply.
    pub next_seq: u64,
    /// Ladder level the next tick starts at.
    pub start_level: u8,
    /// Whether a planning re-solve is pending (deferred by a degraded
    /// tick).
    pub demand_dirty: bool,
    /// Whether the fallback plans are stale (deferred refresh).
    pub fallback_dirty: bool,
    /// Whether the service is currently riding on 1+1 protection.
    pub protection_active: bool,
    /// Per-link demand, Gbps, in link order.
    pub demands: Vec<u64>,
    /// Active cuts (sorted fiber ids), including drift-escalated ones.
    pub active_cuts: Vec<u32>,
    /// Accumulated drift per fiber, dB (sorted by fiber id).
    pub drift_db: Vec<(u32, f64)>,
    /// Committed planning objective.
    pub baseline_objective: f64,
    /// Committed planning wavelengths, canonical keys, sorted.
    pub baseline: Vec<String>,
    /// Live restoration wavelengths, canonical keys, sorted.
    pub restoration: Vec<String>,
}

/// Canonical identity of a wavelength, independent of container order.
fn wl_key(w: &Wavelength) -> String {
    let edges: Vec<String> = w.path.edges.iter().map(|e| e.0.to_string()).collect();
    format!(
        "{}|{}|{}x{}|{}G",
        w.link.0,
        edges.join("-"),
        w.channel.start,
        w.channel.width.pixels(),
        w.format.data_rate_gbps
    )
}

/// Net effect of one tick's event batch, coalesced. Later events win:
/// two resizes of one link keep the last, a cut followed by its repair in
/// the same batch cancels out.
#[derive(Debug, Default)]
struct NetChange {
    demand: BTreeMap<IpLinkId, u64>,
    cuts_added: BTreeSet<EdgeId>,
    cuts_removed: BTreeSet<EdgeId>,
    drift: Vec<(EdgeId, f64)>,
}

/// The always-on churn controller.
pub struct ChurnService<'a> {
    optical: &'a Graph,
    ip: IpTopology,
    scheme: Scheme,
    cfg: PlannerConfig,
    svc: ServiceConfig,
    model: PlanModel,
    baseline: ExactPlan,
    /// Greedy baseline the level-1 heuristic restores over.
    heuristic_plan: Plan,
    /// Pre-provisioned 1+1 fallback (level 2).
    protected: ProtectedPlan,
    active_cuts: BTreeSet<EdgeId>,
    drift_db: BTreeMap<EdgeId, f64>,
    live_restoration: Vec<Wavelength>,
    demand_dirty: bool,
    fallback_dirty: bool,
    protection_active: bool,
    next_seq: u64,
    tick: u64,
    start_level: u8,
    /// γ columns of the standing model as built; anything past this was
    /// generated on demand by a restoration.
    base_columns: usize,
    scenario_counter: usize,
    journal: Vec<TickReport>,
    stats: ServiceStats,
    obs: Option<Obs>,
}

impl<'a> ChurnService<'a> {
    /// Builds the standing model over `ip` and commits the initial plan.
    /// Returns `None` when the initial instance is infeasible.
    pub fn new(
        optical: &'a Graph,
        ip: &IpTopology,
        scheme: Scheme,
        cfg: PlannerConfig,
        svc: ServiceConfig,
    ) -> Option<Self> {
        let mut model = PlanModel::build_restorable(scheme, optical, ip, &cfg);
        let baseline = model.solve(&svc.solve)?;
        let fallback = PlanCtx::new(optical, &cfg);
        let heuristic_plan = fallback.plan(scheme, ip);
        let protected = fallback.plan_protected(scheme, ip);
        let base_columns = model.space().gammas().len();
        Some(ChurnService {
            optical,
            ip: ip.clone(),
            scheme,
            cfg,
            svc,
            model,
            baseline,
            heuristic_plan,
            protected,
            active_cuts: BTreeSet::new(),
            drift_db: BTreeMap::new(),
            live_restoration: Vec::new(),
            demand_dirty: false,
            fallback_dirty: false,
            protection_active: false,
            next_seq: 0,
            tick: 0,
            start_level: LADDER_WARM,
            base_columns,
            scenario_counter: 0,
            journal: Vec::new(),
            stats: ServiceStats::default(),
            obs: None,
        })
    }

    /// Arms the service with an observability bundle: reaction-time
    /// histograms, ladder-level counters and solver warm/cold counters
    /// are published, and the bundle's clock drives the deadline budget.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = Some(obs);
    }

    /// Adjusts the per-tick deadline budget at runtime (operators tune
    /// this as the backbone grows; tests use it to force and then lift
    /// degradation).
    pub fn set_tick_budget_ns(&mut self, ns: u64) {
        self.svc.tick_budget_ns = ns;
    }

    /// Replaces the solve options used for every standing-model solve
    /// (`max_nodes = 0` wedges the solver — the ladder test hook).
    pub fn set_solve_options(&mut self, opts: SolveOptions) {
        self.svc.solve = opts;
    }

    /// Cumulative counters.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// The report of every tick, in tick order: the journal
    /// [`ChurnService::replay`] re-executes.
    pub fn journal(&self) -> &[TickReport] {
        &self.journal
    }

    /// The committed planning baseline.
    pub fn baseline(&self) -> &ExactPlan {
        &self.baseline
    }

    /// The restoration wavelengths currently live.
    pub fn live_restoration(&self) -> &[Wavelength] {
        &self.live_restoration
    }

    /// Fibers currently believed cut (including drift escalations).
    pub fn active_cuts(&self) -> &BTreeSet<EdgeId> {
        &self.active_cuts
    }

    /// The canonical state snapshot.
    pub fn state(&self) -> ServiceState {
        let mut baseline: Vec<String> = self.baseline.wavelengths.iter().map(wl_key).collect();
        baseline.sort();
        let mut restoration: Vec<String> = self.live_restoration.iter().map(wl_key).collect();
        restoration.sort();
        ServiceState {
            tick: self.tick,
            next_seq: self.next_seq,
            start_level: self.start_level,
            demand_dirty: self.demand_dirty,
            fallback_dirty: self.fallback_dirty,
            protection_active: self.protection_active,
            demands: self.ip.links().iter().map(|l| l.demand_gbps).collect(),
            active_cuts: self.active_cuts.iter().map(|e| e.0).collect(),
            drift_db: self.drift_db.iter().map(|(e, &d)| (e.0, d)).collect(),
            baseline_objective: self.baseline.objective,
            baseline,
            restoration,
        }
    }

    /// Delivers one (possibly perturbed) batch. The batch is a doorbell:
    /// canonical events are applied from `log` strictly in order up to
    /// the highest delivered sequence number, so drops inside the batch
    /// are filled and duplicates are ignored. A sequence number past the
    /// end of `log` (a corrupted or early doorbell) rings for what the
    /// log holds; its event is applied once the log has it. Returns what
    /// the tick did.
    pub fn deliver(&mut self, log: &EventLog, batch: &[SeqEvent]) -> TickReport {
        let target = batch
            .iter()
            .map(|e| e.seq.saturating_add(1))
            .max()
            .unwrap_or(self.next_seq);
        let mut seen: BTreeSet<u64> = BTreeSet::new();
        let mut duplicates = 0usize;
        for e in batch {
            if e.seq < self.next_seq || !seen.insert(e.seq) {
                duplicates += 1;
            }
        }
        self.advance(log, target, duplicates, Some(&seen), None)
    }

    /// Applies every canonical event not yet applied (the tail a lossy
    /// transport may never re-signal). Call at end of stream.
    pub fn flush(&mut self, log: &EventLog) -> TickReport {
        self.advance(log, log.len(), 0, None, None)
    }

    /// Core tick: apply canonical events `next_seq..target` (as far as
    /// `log` reaches), coalesce, react under the deadline budget (or
    /// under `forced`, during journal replay). An applied event missing
    /// from `delivered` counts as a gap fill; `None` means nothing was
    /// dropped.
    fn advance(
        &mut self,
        log: &EventLog,
        target: u64,
        duplicates: usize,
        delivered: Option<&BTreeSet<u64>>,
        forced: Option<&TickReport>,
    ) -> TickReport {
        self.tick += 1;
        let start = self.obs.as_ref().map(|o| o.now_ns());
        let span = self.obs.as_ref().map(|o| o.span("service.tick"));

        // 1. Canonical ingest: strictly in order, gaps filled from the
        // log. The applied stream is independent of delivery order.
        let target = target.min(log.len());
        let mut net = NetChange::default();
        let mut applied = 0usize;
        while self.next_seq < target {
            let seq = self.next_seq;
            let ev = log.get(seq).expect("seq < target <= log.len()").clone();
            if delivered.is_some_and(|d| !d.contains(&seq)) {
                self.stats.gap_fills += 1;
            }
            self.coalesce(&mut net, ev);
            self.next_seq += 1;
            applied += 1;
        }
        self.stats.events_applied += applied as u64;
        self.stats.duplicates_ignored += duplicates as u64;

        // 2. Commit cheap state: demands, cut set, drift accumulation
        // (drift past the threshold escalates to a cut; a repair clears
        // the fiber's accumulated drift — new fiber, new baseline).
        let mut demand_changed = false;
        for (&link, &gbps) in &net.demand {
            if self.ip.link(link).demand_gbps != gbps {
                self.ip.set_demand(link, gbps);
                self.model.change_demand(link, gbps);
                self.stats.warm_mutations += 1;
                demand_changed = true;
            }
        }
        for (fiber, delta) in &net.drift {
            let d = self.drift_db.entry(*fiber).or_insert(0.0);
            // An infinite sum (a loss of light) holds until the repair
            // clears it: adding the opposite infinity would make NaN.
            if d.is_finite() {
                *d += *delta;
            }
            if d.abs() >= CUT_DROP_DB {
                net.cuts_added.insert(*fiber);
            }
        }
        let cuts_before = self.active_cuts.clone();
        for f in &net.cuts_removed {
            self.active_cuts.remove(f);
            self.drift_db.remove(f);
        }
        self.active_cuts.extend(net.cuts_added.iter().copied());
        let cuts_changed = self.active_cuts != cuts_before;
        if demand_changed {
            self.demand_dirty = true;
            self.fallback_dirty = true;
        }

        // 3. React under the ladder. During replay `forced` pins the
        // journaled decisions; live, the budget decides.
        let (mut demand_level, mut restore_level, mut rebuilt) = match forced {
            Some(rec) => (rec.demand_level, rec.restore_level, rec.rebuilt),
            None => (self.start_level, self.start_level, false),
        };
        let mut affected = 0u64;
        let mut restored = 0u64;
        let mut added_columns = 0usize;

        // 3a. Planning re-solve (demand churn). Deferred — not dropped —
        // when the tick starts degraded. A journaled rebuild always
        // replays, even when the journaled tick then degraded.
        if forced.is_some() && rebuilt {
            self.rebuild();
        }
        if self.demand_dirty {
            if forced.is_none() {
                demand_level = self.escalate(demand_level, start);
                if demand_level == LADDER_WARM && self.should_rebuild() {
                    rebuilt = true;
                    self.rebuild();
                }
            }
            if demand_level == LADDER_WARM {
                match self.solve_planning() {
                    Some(p) => {
                        self.baseline = p;
                        self.demand_dirty = false;
                    }
                    None if forced.is_none() && !rebuilt => {
                        // Solver error / infeasible: self-heal with one
                        // rebuild, then degrade (the heuristic baseline
                        // absorbs the demand change on a later tick).
                        rebuilt = true;
                        self.rebuild();
                        if let Some(p) = self.solve_planning() {
                            self.baseline = p;
                            self.demand_dirty = false;
                        } else {
                            demand_level = LADDER_HEURISTIC;
                        }
                    }
                    None => demand_level = LADDER_HEURISTIC,
                }
            }
        } else if forced.is_none() {
            demand_level = LADDER_WARM;
        }

        // 3b. Fallback refresh: the lower rungs must track demand churn
        // or they go stale. Heuristic-fast; skipped only by a fully
        // degraded tick (and caught up on the next healthier one). The
        // condition reads only `demand_level`, which is journaled — so
        // replay refreshes on exactly the same ticks live did.
        if self.fallback_dirty && demand_level < LADDER_PROTECT {
            let fallback = PlanCtx::new(self.optical, &self.cfg);
            self.heuristic_plan = fallback.plan(self.scheme, &self.ip);
            self.protected = fallback.plan_protected(self.scheme, &self.ip);
            self.fallback_dirty = false;
        }

        // 3c. Restoration reaction: whenever the cut set changed, or a
        // degraded tick left restoration behind baseline (demand_dirty
        // cleared at level 0 re-derives restoration against the new
        // optimum too).
        let need_restore = cuts_changed || (!self.active_cuts.is_empty() && applied > 0);
        if need_restore {
            if self.active_cuts.is_empty() {
                // All repaired: restoration retires, baseline resumes.
                self.live_restoration.clear();
                self.protection_active = false;
            } else {
                if forced.is_none() {
                    restore_level = self.escalate(restore_level, start);
                }
                self.scenario_counter += 1;
                let scenario = FailureScenario {
                    id: self.scenario_counter,
                    cuts: self.active_cuts.iter().copied().collect(),
                    probability: 1.0,
                };
                if restore_level == LADDER_WARM {
                    match self.solve_restoration(&scenario) {
                        Some(r) => {
                            affected = r.affected_gbps;
                            restored = r.restored_gbps;
                            added_columns = r.added_columns;
                            self.live_restoration = r.wavelengths;
                            self.protection_active = false;
                        }
                        None => {
                            // Solver failure mid-incident: drop a rung.
                            restore_level = LADDER_HEURISTIC;
                        }
                    }
                }
                if restore_level == LADDER_HEURISTIC && forced.is_none() {
                    restore_level = self.escalate(restore_level, start);
                }
                if restore_level == LADDER_HEURISTIC {
                    let r = restore(
                        &self.heuristic_plan,
                        self.optical,
                        &self.ip,
                        &scenario,
                        &[],
                        &self.cfg,
                    );
                    affected = r.affected_gbps;
                    restored = r.restored_gbps;
                    self.live_restoration =
                        r.restored.into_iter().map(|rw| rw.wavelength).collect();
                    self.protection_active = false;
                } else if restore_level == LADDER_PROTECT {
                    // Zero computation: the 1+1 protection copies are
                    // already lit; capacity is whatever they carry.
                    self.live_restoration.clear();
                    self.protection_active = true;
                    if let Some(obs) = &self.obs {
                        let cap = self.protected.capability_under(&self.ip, &scenario);
                        obs.registry().gauge("churn_protection_capability").set(cap);
                    }
                }
            }
        }

        // 4. Deadline accounting + journal + metrics. Replay takes the
        // blown bit from the journal instead of a clock.
        let elapsed = start
            .map(|s| {
                self.obs
                    .as_ref()
                    .map_or(0, |o| o.now_ns().saturating_sub(s))
            })
            .unwrap_or(0);
        let deadline_blown = match forced {
            Some(rec) => rec.deadline_blown,
            None => elapsed > self.svc.tick_budget_ns,
        };
        if deadline_blown {
            self.stats.deadline_blown += 1;
            // Backpressure: the next tick starts one rung down.
            self.start_level = (demand_level.max(restore_level) + 1).min(LADDER_PROTECT);
        } else {
            self.start_level = LADDER_WARM;
        }
        self.stats.level_ticks[restore_level as usize] += 1;
        if rebuilt {
            self.stats.rebuilds += 1;
        }
        if let Some(obs) = &self.obs {
            let reg = obs.registry();
            reg.counter("churn_events_applied_total")
                .add(applied as u64);
            reg.counter("churn_duplicates_total").add(duplicates as u64);
            let level = restore_level.to_string();
            reg.counter_with("churn_ticks_total", &[("level", &level)])
                .inc();
            reg.gauge("churn_ladder_level")
                .set(f64::from(demand_level.max(restore_level)));
            // What a warm tick costs is the size of the standing model:
            // rows ever allocated, rows live, columns.
            let model = self.model.model();
            reg.gauge("churn_model_rows")
                .set(model.num_constraints() as f64);
            reg.gauge("churn_model_active_rows")
                .set(model.num_active_constraints() as f64);
            reg.gauge("churn_model_columns")
                .set(model.num_vars() as f64);
            if deadline_blown {
                reg.counter("churn_deadline_blown_total").inc();
            }
            if rebuilt {
                reg.counter("service_rebuilds_total").inc();
            }
            reg.histogram("churn_reaction_seconds", LATENCY_SECONDS_BUCKETS)
                .observe(elapsed as f64 / 1e9);
            if let Some(s) = &span {
                s.field("applied", applied);
                s.field("restore_level", u64::from(restore_level));
                s.field("restored_gbps", restored);
            }
        }
        let report = TickReport {
            tick: self.tick,
            upto_seq: self.next_seq,
            applied,
            duplicates,
            demand_level,
            restore_level,
            deadline_blown,
            rebuilt,
            affected_gbps: affected,
            restored_gbps: restored,
            added_columns,
            reaction_ns: elapsed,
        };
        self.journal.push(report.clone());
        report
    }

    /// Budget check between ladder steps: elapsed past the budget drops
    /// one rung (never interrupting a step in flight).
    fn escalate(&self, level: u8, start: Option<u64>) -> u8 {
        let (Some(obs), Some(start)) = (&self.obs, start) else {
            return level;
        };
        if obs.now_ns().saturating_sub(start) > self.svc.tick_budget_ns {
            (level + 1).min(LADDER_PROTECT)
        } else {
            level
        }
    }

    /// Whether generated columns bloated the model past the compaction
    /// threshold. The count is read off the model, so columns added by a
    /// mutation whose solve then failed are in it.
    fn should_rebuild(&self) -> bool {
        let generated = self.model.space().gammas().len() - self.base_columns;
        generated as f64 > self.svc.rebuild_column_factor * self.base_columns as f64
    }

    /// Rebuilds the standing model from scratch over the current
    /// topology and demands (compaction / self-heal).
    fn rebuild(&mut self) {
        self.model = PlanModel::build_restorable(self.scheme, self.optical, &self.ip, &self.cfg);
        self.base_columns = self.model.space().gammas().len();
        self.demand_dirty = true;
    }

    fn solve_planning(&mut self) -> Option<ExactPlan> {
        let p = self.model.solve(&self.svc.solve)?;
        if let Some(obs) = &self.obs {
            record_solver_stats(obs.registry(), &p.stats);
        }
        self.stats.warm_mutations += 1;
        Some(p)
    }

    fn solve_restoration(
        &mut self,
        scenario: &FailureScenario,
    ) -> Option<flexwan_core::planning::MutatedRestoration> {
        let r = self
            .model
            .restore_after_cut(self.optical, scenario, &[], &self.svc.solve)?;
        if let Some(obs) = &self.obs {
            record_solver_stats(obs.registry(), &r.stats);
        }
        self.stats.warm_mutations += 1;
        Some(r)
    }

    fn coalesce(&self, net: &mut NetChange, ev: ChurnEvent) {
        // An event naming a fiber the graph does not have is malformed:
        // dropped here, so replay drops it too. A `SimultaneousCuts`
        // loses only its unknown members.
        let known = |f: &EdgeId| (f.0 as usize) < self.optical.num_edges();
        match ev {
            ChurnEvent::FiberCut(f) if known(&f) => {
                net.cuts_removed.remove(&f);
                net.cuts_added.insert(f);
            }
            ChurnEvent::FiberRepair(f) if known(&f) => {
                net.cuts_added.remove(&f);
                net.cuts_removed.insert(f);
            }
            ChurnEvent::FiberCut(_) | ChurnEvent::FiberRepair(_) => {}
            // A resize of a link the service does not have, or to zero
            // (removing a link is not a resize), is malformed: dropped
            // here, so replay drops it too.
            ChurnEvent::DemandDelta { link, demand_gbps } => {
                if (link.0 as usize) < self.ip.num_links() && demand_gbps > 0 {
                    net.demand.insert(link, demand_gbps);
                }
            }
            // A NaN sample would poison the fiber's accumulated drift
            // for good (it never again crosses the cut threshold), and
            // power cannot rise without bound (+∞ would cut the fiber it
            // lit): both dropped the same way. −∞ stays — a loss of light.
            ChurnEvent::TelemetryDrift { fiber, delta_db } => {
                if known(&fiber) && delta_db < f64::INFINITY {
                    net.drift.push((fiber, delta_db));
                }
            }
            ChurnEvent::SimultaneousCuts(fibers) => {
                for f in fibers.into_iter().filter(known) {
                    net.cuts_removed.remove(&f);
                    net.cuts_added.insert(f);
                }
            }
        }
    }

    /// Reconstructs a service by rolling the journal forward over the
    /// canonical log: each journaled tick re-executes at its recorded
    /// ladder levels (no clock, no budget measurement). The result's
    /// `state()` is `==` the live service's. A report whose `upto_seq`
    /// outruns `log` replays as far as the log reaches.
    pub fn replay(
        optical: &'a Graph,
        ip: &IpTopology,
        scheme: Scheme,
        cfg: PlannerConfig,
        svc: ServiceConfig,
        log: &EventLog,
        journal: &[TickReport],
    ) -> Option<Self> {
        let mut s = ChurnService::new(optical, ip, scheme, cfg, svc)?;
        for report in journal {
            s.advance(log, report.upto_seq, 0, None, Some(report));
        }
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexwan_optical::spectrum::SpectrumGrid;

    fn world() -> (Graph, IpTopology, PlannerConfig) {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge(a, b, 600);
        g.add_edge(a, c, 600);
        g.add_edge(c, b, 600);
        let mut ip = IpTopology::new();
        ip.add_link(a, b, 300);
        let cfg = PlannerConfig {
            grid: SpectrumGrid::new(64),
            k_paths: 2,
            ..Default::default()
        };
        (g, ip, cfg)
    }

    #[test]
    fn quiet_stream_is_stable() {
        let (g, ip, cfg) = world();
        let mut svc =
            ChurnService::new(&g, &ip, Scheme::FlexWan, cfg, ServiceConfig::default()).unwrap();
        let mut log = EventLog::new();
        let before = svc.state();
        let ev = log.append(ChurnEvent::TelemetryDrift {
            fiber: EdgeId(0),
            delta_db: -0.5,
        });
        let rep = svc.deliver(&log, &[ev]);
        assert_eq!(rep.applied, 1);
        assert_eq!(rep.restore_level, LADDER_WARM);
        let after = svc.state();
        assert_eq!(after.baseline, before.baseline);
        assert!(after.restoration.is_empty());
    }

    #[test]
    fn cut_then_repair_round_trips() {
        let (g, ip, cfg) = world();
        let mut svc =
            ChurnService::new(&g, &ip, Scheme::FlexWan, cfg, ServiceConfig::default()).unwrap();
        let mut log = EventLog::new();
        let cut_edge = EdgeId(0); // a-b: carries the planned wavelength
        let ev = log.append(ChurnEvent::FiberCut(cut_edge));
        let rep = svc.deliver(&log, &[ev]);
        assert_eq!(rep.restored_gbps, rep.affected_gbps);
        assert!(rep.restored_gbps > 0);
        assert!(!svc.live_restoration().is_empty());
        let ev = log.append(ChurnEvent::FiberRepair(cut_edge));
        let rep = svc.deliver(&log, &[ev]);
        assert_eq!(rep.restored_gbps, 0);
        assert!(svc.live_restoration().is_empty());
        assert!(svc.active_cuts().is_empty());
    }

    #[test]
    fn demand_delta_warm_resolves() {
        let (g, ip, cfg) = world();
        let mut svc = ChurnService::new(
            &g,
            &ip,
            Scheme::FlexWan,
            cfg.clone(),
            ServiceConfig::default(),
        )
        .unwrap();
        let mut log = EventLog::new();
        let ev = log.append(ChurnEvent::DemandDelta {
            link: IpLinkId(0),
            demand_gbps: 500,
        });
        let rep = svc.deliver(&log, &[ev]);
        assert_eq!(rep.demand_level, LADDER_WARM);
        let carried: u64 = svc
            .baseline()
            .wavelengths
            .iter()
            .map(|w| u64::from(w.format.data_rate_gbps))
            .sum();
        assert!(carried >= 500, "carried {carried}");
        // Matches a from-scratch build at the new demand, bit-for-bit.
        let mut ip2 = ip.clone();
        ip2.set_demand(IpLinkId(0), 500);
        let fresh = PlanModel::build_restorable(Scheme::FlexWan, &g, &ip2, &cfg)
            .solve(&SolveOptions::default())
            .unwrap();
        assert_eq!(
            svc.baseline().objective.to_bits(),
            fresh.objective.to_bits()
        );
    }

    #[test]
    fn perturbed_delivery_converges_to_canonical() {
        let (g, ip, cfg) = world();
        let mut live = ChurnService::new(
            &g,
            &ip,
            Scheme::FlexWan,
            cfg.clone(),
            ServiceConfig::default(),
        )
        .unwrap();
        let mut clean =
            ChurnService::new(&g, &ip, Scheme::FlexWan, cfg, ServiceConfig::default()).unwrap();
        let mut log = EventLog::new();
        let e0 = log.append(ChurnEvent::FiberCut(EdgeId(0)));
        let e1 = log.append(ChurnEvent::DemandDelta {
            link: IpLinkId(0),
            demand_gbps: 400,
        });
        let e2 = log.append(ChurnEvent::FiberRepair(EdgeId(0)));
        // Clean service sees the canonical order in one batch each.
        for ev in [e0.clone(), e1.clone(), e2.clone()] {
            clean.deliver(&log, &[ev]);
        }
        // Live service sees chaos: e1 delivered first (gap-fills e0),
        // e0 again (stale), e2 twice.
        live.deliver(&log, std::slice::from_ref(&e1));
        live.deliver(&log, std::slice::from_ref(&e0));
        live.deliver(&log, &[e2.clone(), e2.clone()]);
        assert!(live.stats().gap_fills > 0);
        assert!(live.stats().duplicates_ignored > 0);
        let a = live.state();
        let b = clean.state();
        // Tick counts differ (different batching); the controlled state
        // must not.
        assert_eq!(a.demands, b.demands);
        assert_eq!(a.active_cuts, b.active_cuts);
        assert_eq!(a.baseline, b.baseline);
        assert_eq!(a.restoration, b.restoration);
        assert_eq!(a.next_seq, b.next_seq);
    }

    #[test]
    fn drift_escalates_to_cut_past_threshold() {
        let (g, ip, cfg) = world();
        let mut svc =
            ChurnService::new(&g, &ip, Scheme::FlexWan, cfg, ServiceConfig::default()).unwrap();
        let mut log = EventLog::new();
        for _ in 0..3 {
            let ev = log.append(ChurnEvent::TelemetryDrift {
                fiber: EdgeId(0),
                delta_db: -6.0,
            });
            let rep = svc.deliver(&log, &[ev]);
            assert_eq!(rep.restored_gbps, 0, "below threshold: monitor only");
        }
        // Cumulative −24 dB ≥ 20 dB: the fiber is treated as cut.
        let ev = log.append(ChurnEvent::TelemetryDrift {
            fiber: EdgeId(0),
            delta_db: -6.0,
        });
        let rep = svc.deliver(&log, &[ev]);
        assert!(rep.restored_gbps > 0, "drift escalated to a cut");
        assert!(svc.active_cuts().contains(&EdgeId(0)));
    }

    #[test]
    fn a_nan_drift_sample_does_not_stop_a_later_cut() {
        let (g, ip, cfg) = world();
        let svc_cfg = ServiceConfig::default();
        let mut live =
            ChurnService::new(&g, &ip, Scheme::FlexWan, cfg.clone(), svc_cfg.clone()).unwrap();
        let mut log = EventLog::new();
        for delta_db in [f64::NAN, -25.0] {
            let ev = log.append(ChurnEvent::TelemetryDrift {
                fiber: EdgeId(0),
                delta_db,
            });
            live.deliver(&log, &[ev]);
        }
        assert!(live.active_cuts().contains(&EdgeId(0)), "drift escalated");
        let state = live.state();
        assert!(state.drift_db.iter().all(|(_, d)| !d.is_nan()), "{state:?}");
        let replayed =
            ChurnService::replay(&g, &ip, Scheme::FlexWan, cfg, svc_cfg, &log, live.journal())
                .unwrap();
        assert_eq!(state, replayed.state());
    }

    #[test]
    fn a_loss_of_light_cuts_at_once() {
        let (g, ip, cfg) = world();
        let mut svc =
            ChurnService::new(&g, &ip, Scheme::FlexWan, cfg, ServiceConfig::default()).unwrap();
        let mut log = EventLog::new();
        let ev = log.append(ChurnEvent::TelemetryDrift {
            fiber: EdgeId(0),
            delta_db: f64::NEG_INFINITY,
        });
        svc.deliver(&log, &[ev]);
        assert!(svc.active_cuts().contains(&EdgeId(0)));
    }

    #[test]
    fn an_infinite_drift_holds_until_the_repair() {
        let (g, ip, cfg) = world();
        let svc_cfg = ServiceConfig::default();
        let mut live =
            ChurnService::new(&g, &ip, Scheme::FlexWan, cfg.clone(), svc_cfg.clone()).unwrap();
        let mut log = EventLog::new();
        for delta_db in [f64::NEG_INFINITY, f64::INFINITY] {
            let ev = log.append(ChurnEvent::TelemetryDrift {
                fiber: EdgeId(0),
                delta_db,
            });
            live.deliver(&log, &[ev]);
        }
        let state = live.state();
        assert_eq!(state.drift_db, [(0, f64::NEG_INFINITY)]);
        assert_eq!(state, live.state(), "a state equals itself");
        assert!(live.active_cuts().contains(&EdgeId(0)), "still cut");
        let replayed = ChurnService::replay(
            &g,
            &ip,
            Scheme::FlexWan,
            cfg.clone(),
            svc_cfg.clone(),
            &log,
            live.journal(),
        )
        .unwrap();
        assert_eq!(state, replayed.state());

        let ev = log.append(ChurnEvent::FiberRepair(EdgeId(0)));
        live.deliver(&log, &[ev]);
        assert!(live.state().drift_db.is_empty(), "the repair clears it");
        assert!(live.active_cuts().is_empty());
        let replayed =
            ChurnService::replay(&g, &ip, Scheme::FlexWan, cfg, svc_cfg, &log, live.journal())
                .unwrap();
        assert_eq!(live.state(), replayed.state());
    }

    #[test]
    fn replay_matches_live_bit_for_bit() {
        let (g, ip, cfg) = world();
        let svc_cfg = ServiceConfig::default();
        let mut live =
            ChurnService::new(&g, &ip, Scheme::FlexWan, cfg.clone(), svc_cfg.clone()).unwrap();
        let mut log = EventLog::new();
        let events = [
            ChurnEvent::FiberCut(EdgeId(0)),
            ChurnEvent::DemandDelta {
                link: IpLinkId(0),
                demand_gbps: 500,
            },
            ChurnEvent::FiberCut(EdgeId(1)),
            ChurnEvent::FiberRepair(EdgeId(0)),
            ChurnEvent::TelemetryDrift {
                fiber: EdgeId(2),
                delta_db: -3.0,
            },
            ChurnEvent::FiberRepair(EdgeId(1)),
        ];
        for e in events {
            let ev = log.append(e);
            live.deliver(&log, &[ev]);
        }
        let replayed =
            ChurnService::replay(&g, &ip, Scheme::FlexWan, cfg, svc_cfg, &log, live.journal())
                .unwrap();
        assert_eq!(live.state(), replayed.state());
    }

    #[test]
    fn solver_failure_degrades_to_heuristic() {
        let (g, ip, cfg) = world();
        let mut svc_cfg = ServiceConfig::default();
        let mut svc = ChurnService::new(&g, &ip, Scheme::FlexWan, cfg, svc_cfg.clone()).unwrap();
        // Wedge the MIP: no branch & bound nodes allowed → no incumbent.
        svc_cfg.solve.max_nodes = 0;
        svc.svc = svc_cfg;
        let mut log = EventLog::new();
        let ev = log.append(ChurnEvent::FiberCut(EdgeId(0)));
        let rep = svc.deliver(&log, &[ev]);
        assert_eq!(rep.restore_level, LADDER_HEURISTIC);
        assert!(
            rep.restored_gbps > 0,
            "heuristic rung still revives capacity"
        );
        assert_eq!(svc.stats().level_ticks[LADDER_HEURISTIC as usize], 1);
    }

    /// A 5-node ring whose a–b link has a 2-hop and a 3-hop detour; with
    /// `k_paths = 1` the standing space holds the primary and a–e–b only,
    /// so cutting both at once generates the a–d–c–b columns on demand.
    fn ring5() -> (Graph, IpTopology, PlannerConfig) {
        let mut g = Graph::new();
        let [a, b, c, d, e] = ["a", "b", "c", "d", "e"].map(|n| g.add_node(n));
        g.add_edge(a, b, 300); // 0: primary
        g.add_edge(a, e, 300); // 1
        g.add_edge(e, b, 300); // 2
        g.add_edge(a, d, 300); // 3
        g.add_edge(d, c, 300); // 4
        g.add_edge(c, b, 300); // 5
        let mut ip = IpTopology::new();
        ip.add_link(a, b, 300);
        let cfg = PlannerConfig {
            grid: SpectrumGrid::new(16),
            k_paths: 1,
            ..Default::default()
        };
        (g, ip, cfg)
    }

    #[test]
    fn columns_of_a_failed_restoration_still_count_towards_rebuild() {
        let (g, ip, cfg) = ring5();
        let svc_cfg = ServiceConfig {
            rebuild_column_factor: 0.0,
            ..ServiceConfig::default()
        };
        let mut svc = ChurnService::new(&g, &ip, Scheme::FlexWan, cfg, svc_cfg).unwrap();
        assert!(!svc.should_rebuild());
        // Wedge the MIP: the mutation generates the detour's columns,
        // then its solve finds no incumbent.
        svc.svc.solve.max_nodes = 0;
        let columns = svc.model.space().gammas().len();
        let mut log = EventLog::new();
        let ev = log.append(ChurnEvent::SimultaneousCuts(vec![EdgeId(0), EdgeId(1)]));
        let rep = svc.deliver(&log, &[ev]);
        assert_eq!(rep.restore_level, LADDER_HEURISTIC);
        assert_eq!(rep.added_columns, 0, "a failed solve reports no columns");
        assert!(svc.model.space().gammas().len() > columns);
        assert!(svc.should_rebuild(), "the columns are in the model");
    }

    #[test]
    fn generated_columns_past_the_factor_trip_a_rebuild() {
        let (g, ip, cfg) = ring5();
        let svc_cfg = ServiceConfig {
            rebuild_column_factor: 0.0,
            ..ServiceConfig::default()
        };
        let mut live =
            ChurnService::new(&g, &ip, Scheme::FlexWan, cfg.clone(), svc_cfg.clone()).unwrap();
        let mut log = EventLog::new();
        let cuts = log.append(ChurnEvent::SimultaneousCuts(vec![EdgeId(0), EdgeId(1)]));
        let resize = log.append(ChurnEvent::DemandDelta {
            link: IpLinkId(0),
            demand_gbps: 500,
        });
        let rep = live.deliver(&log, std::slice::from_ref(&cuts));
        assert!(rep.added_columns > 0 && !rep.rebuilt);
        let rep = live.deliver(&log, std::slice::from_ref(&resize));
        assert!(rep.rebuilt);
        assert!(rep.added_columns > 0, "the fresh model regenerates them");
        assert_eq!(live.stats().rebuilds, 1);
        let journaled: Vec<bool> = live.journal().iter().map(|r| r.rebuilt).collect();
        assert_eq!(journaled, [false, true]);

        let replayed = ChurnService::replay(
            &g,
            &ip,
            Scheme::FlexWan,
            cfg.clone(),
            svc_cfg,
            &log,
            live.journal(),
        )
        .unwrap();
        assert_eq!(replayed.state(), live.state());

        // A service stood up at the resized demand and fed the same log
        // (the resize is then a no-op) never rebuilds and ends in the
        // same state, tick for tick.
        let mut ip_resized = ip.clone();
        ip_resized.set_demand(IpLinkId(0), 500);
        let mut fresh = ChurnService::new(
            &g,
            &ip_resized,
            Scheme::FlexWan,
            cfg,
            ServiceConfig::default(),
        )
        .unwrap();
        fresh.deliver(&log, &[cuts]);
        fresh.deliver(&log, &[resize]);
        assert_eq!(fresh.stats().rebuilds, 0);
        assert_eq!(fresh.state(), live.state());
    }

    #[test]
    fn flush_applies_dropped_tail() {
        let (g, ip, cfg) = world();
        let mut svc =
            ChurnService::new(&g, &ip, Scheme::FlexWan, cfg, ServiceConfig::default()).unwrap();
        let mut log = EventLog::new();
        log.append(ChurnEvent::FiberCut(EdgeId(0)));
        log.append(ChurnEvent::DemandDelta {
            link: IpLinkId(0),
            demand_gbps: 400,
        });
        // Both deliveries dropped; flush catches the service up.
        let rep = svc.flush(&log);
        assert_eq!(rep.applied, 2);
        assert_eq!(svc.state().demands, vec![400]);
        assert!(svc.active_cuts().contains(&EdgeId(0)));
        assert!(!svc.live_restoration().is_empty());
    }

    #[test]
    fn simultaneous_cuts_match_individual_cuts_in_one_batch() {
        let (g, ip, cfg) = world();
        let mut multi = ChurnService::new(
            &g,
            &ip,
            Scheme::FlexWan,
            cfg.clone(),
            ServiceConfig::default(),
        )
        .unwrap();
        let mut log_multi = EventLog::new();
        let ev = log_multi.append(ChurnEvent::SimultaneousCuts(vec![EdgeId(0), EdgeId(2)]));
        let rep_multi = multi.deliver(&log_multi, &[ev]);

        let mut single =
            ChurnService::new(&g, &ip, Scheme::FlexWan, cfg, ServiceConfig::default()).unwrap();
        let mut log_single = EventLog::new();
        let e0 = log_single.append(ChurnEvent::FiberCut(EdgeId(0)));
        let e1 = log_single.append(ChurnEvent::FiberCut(EdgeId(2)));
        let rep_single = single.deliver(&log_single, &[e0, e1]);

        assert_eq!(multi.active_cuts(), single.active_cuts());
        assert_eq!(rep_multi.restored_gbps, rep_single.restored_gbps);
        assert_eq!(rep_multi.restore_level, rep_single.restore_level);
        // Same state modulo the log position (one event vs two).
        assert_eq!(multi.live_restoration(), single.live_restoration());
        assert_eq!(multi.state().demands, single.state().demands);
    }

    #[test]
    fn same_tick_cut_and_repair_cancel() {
        let (g, ip, cfg) = world();
        let mut svc =
            ChurnService::new(&g, &ip, Scheme::FlexWan, cfg, ServiceConfig::default()).unwrap();
        let mut log = EventLog::new();
        let e0 = log.append(ChurnEvent::FiberCut(EdgeId(0)));
        let e1 = log.append(ChurnEvent::FiberRepair(EdgeId(0)));
        let rep = svc.deliver(&log, &[e0, e1]);
        assert_eq!(rep.applied, 2);
        assert!(svc.active_cuts().is_empty());
        assert!(svc.live_restoration().is_empty());
    }

    #[test]
    fn ignores_events_for_unknown_targets_gracefully() {
        // A resize of a link the service does not have, a resize to
        // zero, and a cut of a fiber that carries nothing: the service
        // stays healthy, and replay over the same log agrees.
        let (g, ip, cfg) = world();
        let svc_cfg = ServiceConfig::default();
        let mut svc =
            ChurnService::new(&g, &ip, Scheme::FlexWan, cfg.clone(), svc_cfg.clone()).unwrap();
        let before = svc.state();
        let mut log = EventLog::new();
        let bad = [
            ChurnEvent::DemandDelta {
                link: IpLinkId(ip.num_links() as u32),
                demand_gbps: 400,
            },
            ChurnEvent::DemandDelta {
                link: IpLinkId(0),
                demand_gbps: 0,
            },
        ];
        let evs: Vec<SeqEvent> = bad.into_iter().map(|e| log.append(e)).collect();
        let rep = svc.deliver(&log, &evs);
        assert_eq!((rep.applied, rep.demand_level), (2, LADDER_WARM));
        assert_eq!(svc.state().demands, before.demands);
        assert_eq!(svc.stats().warm_mutations, 0);

        let ev = log.append(ChurnEvent::FiberCut(EdgeId(2))); // carries nothing
        let rep = svc.deliver(&log, &[ev]);
        assert_eq!(rep.affected_gbps, 0);
        assert_eq!(rep.restored_gbps, 0);

        let replayed =
            ChurnService::replay(&g, &ip, Scheme::FlexWan, cfg, svc_cfg, &log, svc.journal())
                .unwrap();
        assert_eq!(replayed.state(), svc.state());
    }

    #[test]
    fn events_for_an_unknown_fiber_are_dropped_at_ingest() {
        let (g, ip, cfg) = world();
        let svc_cfg = ServiceConfig::default();
        let mut svc =
            ChurnService::new(&g, &ip, Scheme::FlexWan, cfg.clone(), svc_cfg.clone()).unwrap();
        let before = svc.state();
        let mut log = EventLog::new();
        let ev = log.append(ChurnEvent::FiberCut(EdgeId(99)));
        assert_eq!(svc.deliver(&log, &[ev]).applied, 1);
        assert!(svc.active_cuts().is_empty());

        let bad = [
            ChurnEvent::TelemetryDrift {
                fiber: EdgeId(99),
                delta_db: f64::NEG_INFINITY,
            },
            ChurnEvent::FiberRepair(EdgeId(99)),
        ];
        let evs: Vec<SeqEvent> = bad.into_iter().map(|e| log.append(e)).collect();
        assert_eq!(svc.deliver(&log, &evs).applied, 2);
        assert!(svc.active_cuts().is_empty());
        assert_eq!(svc.state().drift_db, before.drift_db);

        // A shared-risk event keeps its known members.
        let ev = log.append(ChurnEvent::SimultaneousCuts(vec![EdgeId(99), EdgeId(2)]));
        svc.deliver(&log, &[ev]);
        assert_eq!(svc.active_cuts().iter().collect::<Vec<_>>(), [&EdgeId(2)]);

        let replayed =
            ChurnService::replay(&g, &ip, Scheme::FlexWan, cfg, svc_cfg, &log, svc.journal())
                .unwrap();
        assert_eq!(replayed.state(), svc.state());
    }

    #[test]
    fn sequence_number_past_the_log_rings_for_what_the_log_holds() {
        let (g, ip, cfg) = world();
        let mut svc =
            ChurnService::new(&g, &ip, Scheme::FlexWan, cfg, ServiceConfig::default()).unwrap();
        let mut log = EventLog::new();
        let ev = log.append(ChurnEvent::FiberCut(EdgeId(0)));
        for seq in [7, u64::MAX] {
            let future = SeqEvent {
                seq,
                event: ev.event.clone(),
            };
            svc.deliver(&log, &[future]);
            assert_eq!(svc.state().next_seq, log.len());
        }
        assert_eq!(svc.stats().events_applied, 1);
        assert!(svc.active_cuts().contains(&EdgeId(0)));
    }

    #[test]
    fn replay_stops_where_a_shorter_log_ends() {
        let (g, ip, cfg) = world();
        let svc_cfg = ServiceConfig::default();
        let mut live =
            ChurnService::new(&g, &ip, Scheme::FlexWan, cfg.clone(), svc_cfg.clone()).unwrap();
        let mut log = EventLog::new();
        let cut = log.append(ChurnEvent::FiberCut(EdgeId(0)));
        let repair = log.append(ChurnEvent::FiberRepair(EdgeId(0)));
        live.deliver(&log, std::slice::from_ref(&cut));
        live.deliver(&log, &[repair]);

        let mut short = EventLog::new();
        short.append(cut.event);
        let replayed = ChurnService::replay(
            &g,
            &ip,
            Scheme::FlexWan,
            cfg,
            svc_cfg,
            &short,
            live.journal(),
        )
        .unwrap();
        assert_eq!(replayed.state().next_seq, short.len());
        assert!(replayed.active_cuts().contains(&EdgeId(0)));
    }
}
