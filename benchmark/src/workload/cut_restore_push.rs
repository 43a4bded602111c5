//! `cut_restore_push` — fiber cut → restored configuration on devices.
//!
//! Two epochs of the T-backbone under seeded ±10 % demands — one at
//! demand scale 1, one at scale 2 — each planned (`plan_cached`), stood
//! up (`Controller::build`) and committed (`apply_plan`). One cycle
//! sweeps the 66 conduit cuts plus 10 seeded double-fiber cuts, in
//! seeded order, over the scale-1 epoch, and the first quarter of one
//! more such sweep over the scale-2 epoch. Per cut:
//! `TelemetrySim::tick` with the cut, **the operation** —
//! `Orchestrator::tick`: detect → `restore` → `apply_wavelength_atomic`
//! per wavelength — then a repair tick that retires the restoration.
//!
//! The only workload that crosses `flexwan-ctrl`'s device plane (one
//! actor thread per device, NETCONF sessions, transactions) and the only
//! one where KSP runs with banned fiber sets — the same `topo` layer
//! `plan_sweep` uses on the cache-hit path, here on the compute path.
//! Four fifths of the operations hit the small epoch and a fifth the
//! large one, so the median is the scale-1 cut and p95 the scale-2 cut.
//!
//! Every sweep gets a freshly stood-up epoch, torn down when the sweep
//! ends (both outside the timed section). It has to: each pushed
//! restoration wavelength registers two new transponder devices — one
//! actor thread each — that a release never retires, so a standing
//! controller grows by ~1300 threads per sweep and its cut tick slows
//! with it (7.5 → 46 ms over eight sweeps on the reference box's two
//! CPUs).
//! Re-standing bounds that growth to one sweep and makes every sweep the
//! same work; the growth inside a sweep is part of what is measured.
//!
//! The run is confined to one CPU ([`Workload::ONE_CPU`]). One client
//! drives the tick and every push is a chain of hand-offs to device
//! threads and back, so nothing runs side by side; what a second CPU adds
//! is the choice of where each woken thread lands. On the 2-vCPU
//! reference box a hand-off across CPUs wakes a halted vCPU through the
//! hypervisor and every thread stack mapped or unmapped interrupts the
//! other CPU: the same sweep ran at 108–115 op/s, at 325 op/s when the
//! scheduler happened to keep the threads together, and at 12–21 op/s
//! for minutes while the host was busy; on one CPU it runs at 300–430.
//!
//! Device-plane rejections are reported, never asserted: a rejected
//! wavelength is capacity that did not land, so it lowers
//! `served_ratio` and feeds `ctrl.controller.rejected_ratio`.

use std::collections::HashSet;
use std::time::Instant;

use flexwan_core::planning::{plan_cached, Plan, PlannerConfig};
use flexwan_core::restore::{restore, restore_cached, FailureScenario};
use flexwan_core::{Scheme, Wavelength};
use flexwan_ctrl::{
    Controller, FiberCutDetector, Orchestrator, TelemetrySim, TelemetryStore, TickOutcome,
};
use flexwan_topo::cache::RouteCache;
use flexwan_topo::continental::{Family, ScaleParams};
use flexwan_topo::ip::IpTopology;
use flexwan_topo::ksp::DijkstraScratch;
use flexwan_topo::route::k_shortest_routes_scratch;
use flexwan_topo::tbackbone::Backbone;

use crate::harness::Recorder;
use crate::inputs::{self, Digest};
use crate::stats;
use crate::verify::{hardware_cost, Instance};
use crate::workload::{ksp_probe, Workload};

/// `(demand scale, sweeps per cycle, share of the last sweep run)` of
/// each epoch.
const EPOCHS: [(u64, usize, f64); 2] = [(1, 1, 1.0), (2, 1, 0.25)];

/// Double-fiber cuts added to every sweep.
const DOUBLE_CUTS: usize = 10;

/// Telemetry samples the store keeps per fiber.
const TELEMETRY_WINDOW: usize = 30;

/// The workload marker type.
pub struct CutRestorePush;

/// Inputs of a run.
pub struct Statics {
    seed: u64,
    scale: f64,
    tb: Backbone,
    cfg: PlannerConfig,
    /// Demand set of each epoch.
    demands: Vec<IpTopology>,
}

/// One standing epoch: a committed plan guarded by an orchestrator.
struct Epoch<'a> {
    ip: &'a IpTopology,
    plan: Plan,
    ctrl: Controller,
    orch: Orchestrator<'a>,
    sim: TelemetrySim<'a>,
    store: TelemetryStore,
    tick: u64,
}

/// Nothing stands between sweeps; the world is the counted cycle's
/// accumulators behind the ratio metrics.
#[derive(Default)]
pub struct World {
    planned_wavelengths: f64,
    rejected_wavelengths: f64,
    cuts: f64,
    sends: f64,
    retries: f64,
}

/// What one cut operation left behind, verified after its sweep.
struct CutRecord {
    outcome: TickOutcome,
    live: Vec<Wavelength>,
    repair: TickOutcome,
}

impl Statics {
    fn sweep(&self, cycle: u64, epoch: usize, sweep: usize) -> Vec<FailureScenario> {
        let mut rng = inputs::rng(
            self.seed,
            "cut_restore_push.sweep",
            cycle,
            (epoch * 16 + sweep) as u64,
        );
        let mut all = inputs::cut_sweep(&self.tb.optical, DOUBLE_CUTS, &mut rng);
        let (_, sweeps, last_share) = EPOCHS[epoch];
        let share = if sweep + 1 == sweeps { last_share } else { 1.0 };
        all.truncate(inputs::scaled(all.len(), self.scale * share));
        all
    }

    fn instance(&self) -> Instance<'_> {
        Instance {
            graph: &self.tb.optical,
            grid_pixels: self.cfg.grid.pixels(),
            align: Scheme::FlexWan
                .alignment_pixels()
                .max(self.cfg.min_alignment),
        }
    }
}

impl<'a> Epoch<'a> {
    fn stand_up(s: &'a Statics, ip: &'a IpTopology) -> Epoch<'a> {
        let plan = plan_cached(
            Scheme::FlexWan,
            &s.tb.optical,
            ip,
            &s.cfg,
            &RouteCache::new(),
        );
        let mut ctrl = Controller::build(&s.tb.optical, Scheme::FlexWan.wss(), s.cfg.grid);
        let report = ctrl.apply_plan(&plan, &s.tb.optical);
        assert!(
            report.is_clean(),
            "committing the plan was rejected: {:?}",
            report.rejections.first()
        );
        let orch = Orchestrator::new(&s.tb.optical, ip, plan.clone(), s.cfg.clone(), Vec::new());
        let mut epoch = Epoch {
            ip,
            plan,
            ctrl,
            orch,
            sim: TelemetrySim::new(&s.tb.optical),
            store: TelemetryStore::new(TELEMETRY_WINDOW),
            tick: 0,
        };
        // Healthy baseline so the first cut is a drop, not a first sample.
        epoch.telemetry(&[]);
        epoch.orch.tick(&epoch.store, &mut epoch.ctrl);
        epoch
    }

    fn telemetry(&mut self, cuts: &[flexwan_topo::graph::EdgeId]) {
        self.sim.tick(&mut self.store, self.tick, cuts);
        self.tick += 1;
    }

    /// One cut → restore → push → repair round trip. Returns the record
    /// to verify, when the cut tick started, its latency and the repair
    /// tick's, ns.
    fn cut_and_repair(&mut self, scenario: &FailureScenario) -> (CutRecord, Instant, u64, u64) {
        self.telemetry(&scenario.cuts);
        let started = Instant::now();
        let outcome = self.orch.tick(&self.store, &mut self.ctrl);
        let cut_ns = started.elapsed().as_nanos() as u64;
        let live = self.orch.live_restoration().to_vec();
        self.telemetry(&[]);
        let t = Instant::now();
        let repair = self.orch.tick(&self.store, &mut self.ctrl);
        let repair_ns = t.elapsed().as_nanos() as u64;
        (
            CutRecord {
                outcome,
                live,
                repair,
            },
            started,
            cut_ns,
            repair_ns,
        )
    }
}

/// Verifies one cut operation from first principles and against what
/// the orchestrator claimed; returns `(planned, rejected)` wavelengths.
fn verify_cut(
    s: &Statics,
    epoch: &Epoch<'_>,
    scenario: &FailureScenario,
    r: &CutRecord,
    rec: &mut Recorder,
) -> (usize, usize) {
    let what = format!("cut {:?}", scenario.cuts);
    let TickOutcome::Restored {
        cuts,
        lost_gbps,
        revived_gbps,
        apply_rejections,
    } = &r.outcome
    else {
        rec.fail(format!("{what}: orchestrator answered {:?}", r.outcome));
        return (0, 0);
    };
    let mut want = scenario.cuts.clone();
    want.sort();
    if *cuts != want {
        rec.fail(format!("{what}: orchestrator saw cuts {cuts:?}"));
        return (0, 0);
    }
    let (violations, affected, landed) =
        s.instance()
            .check_restoration(epoch.ip, &epoch.plan.wavelengths, &scenario.cuts, &r.live);
    if !violations.is_empty() {
        rec.verified(&what, &violations);
    } else if affected != *lost_gbps
        || landed > *revived_gbps
        || (*apply_rejections == 0 && landed != *revived_gbps)
    {
        rec.fail(format!(
            "{what}: claimed lost {lost_gbps} revived {revived_gbps} with {apply_rejections} \
             rejections, first principles say lost {affected} landed {landed}"
        ));
    } else if !matches!(&r.repair, TickOutcome::Repaired { retired, re_restored: 0, .. } if *retired == r.live.len())
    {
        rec.fail(format!("{what}: repair answered {:?}", r.repair));
    }
    rec.quality(landed, affected, hardware_cost(&r.live, s.cfg.epsilon));
    rec.add("core.restore.affected_gbps", affected as f64);
    rec.add("core.restore.restored_gbps", *revived_gbps as f64);
    (r.live.len() + apply_rejections, *apply_rejections)
}

impl Workload for CutRestorePush {
    const NAME: &'static str = "cut_restore_push";
    const WHY: &'static str = "cut -> restored config on devices: the only path through the ctrl \
        device plane, and KSP with banned fibers (the route-cache miss path)";
    const ONE_CPU: bool = true;
    type Statics = Statics;
    type World = World;

    fn statics(seed: u64, scale: f64) -> Statics {
        let tb = ScaleParams::tbackbone().build(Family::TBackbone);
        let demands = EPOCHS
            .iter()
            .enumerate()
            .map(|(e, &(demand_scale, _, _))| {
                let mut rng = inputs::rng(seed, "cut_restore_push.demand", e as u64, 0);
                inputs::perturb(&tb.ip, &mut rng, 0.1).scaled(demand_scale)
            })
            .collect();
        Statics {
            seed,
            scale,
            tb,
            cfg: PlannerConfig {
                k_paths: 5,
                ..PlannerConfig::default()
            },
            demands,
        }
    }

    fn inputs_digest(s: &Statics) -> u64 {
        let mut d = Digest::new();
        s.demands.iter().for_each(|ip| d.ip(ip));
        for (e, &(_, sweeps, _)) in EPOCHS.iter().enumerate() {
            for k in 0..sweeps {
                d.scenarios(&s.sweep(0, e, k));
            }
        }
        d.finish()
    }

    fn world(s: &Statics) -> World {
        // Set-up is one stand-up of every epoch (plan, build, commit)
        // plus a warm-up cut on each. The sweeps stand their own up.
        let first = s.sweep(0, 0, 0);
        for ip in &s.demands {
            let mut epoch = Epoch::stand_up(s, ip);
            if let Some(cut) = first.first() {
                std::hint::black_box(epoch.cut_and_repair(cut));
            }
        }
        World::default()
    }

    fn cycle(s: &Statics, w: &mut World, cycle: u64, rec: &mut Recorder) {
        if rec.counting() {
            *w = World::default();
        }
        for (e, &(_, sweeps, _)) in EPOCHS.iter().enumerate() {
            for k in 0..sweeps {
                let sweep = s.sweep(cycle, e, k);
                rec.in_flight(format!(
                    "cut_restore_push cycle {cycle} epoch {e} sweep {k}: standing the epoch up"
                ));
                let mut epoch = Epoch::stand_up(s, &s.demands[e]);
                let (sends0, retries0) = (epoch.ctrl.stats().sends, epoch.ctrl.stats().retries);
                rec.in_flight(format!(
                    "cut_restore_push cycle {cycle} epoch {e} sweep {k}: {} cuts",
                    sweep.len()
                ));
                let mut records = Vec::with_capacity(sweep.len());
                let busy = rec.busy_start();
                for scenario in &sweep {
                    records.push(epoch.cut_and_repair(scenario));
                }
                rec.busy_end(busy);

                for (scenario, (record, started, cut_ns, repair_ns)) in sweep.iter().zip(records) {
                    let op = rec.next_op();
                    rec.op_done(cut_ns);
                    let cut_ms = cut_ns as f64 / 1e6;
                    rec.time_ms("ctrl.orchestrator.cut_tick_ms", cut_ms);
                    rec.time_ms("ctrl.orchestrator.repair_tick_ms", repair_ns as f64 / 1e6);
                    rec.sample("cut_tick_ms", cut_ms);
                    let start = rec.tracer.ns_since(started);
                    rec.tracer
                        .record("ctrl.orchestrator.tick", None, op, start, start + cut_ns);
                    let (planned, rejected) = verify_cut(s, &epoch, scenario, &record, rec);
                    if rec.counting() {
                        w.planned_wavelengths += planned as f64;
                        w.rejected_wavelengths += rejected as f64;
                        w.cuts += 1.0;
                    }
                }
                if rec.counting() {
                    w.sends += (epoch.ctrl.stats().sends - sends0) as f64;
                    w.retries += (epoch.ctrl.stats().retries - retries0) as f64;
                }
                if e == 0 && k == 0 && rec.tracer.enabled() {
                    replay_sweep(s, &epoch, &sweep, rec);
                }
                rec.in_flight(format!(
                    "cut_restore_push cycle {cycle} epoch {e} sweep {k}: tearing the epoch down"
                ));
                drop(epoch);
            }
        }
        if rec.counting() {
            rec.add("ctrl.controller.sends", w.sends);
            rec.add("ctrl.controller.retries", w.retries);
            rec.add(
                "ctrl.controller.sends_per_wavelength",
                w.sends / w.planned_wavelengths.max(1.0),
            );
            rec.add(
                "ctrl.controller.rejected_ratio",
                w.rejected_wavelengths / w.planned_wavelengths.max(1.0),
            );
            rec.add(
                "core.restore.wavelengths_per_cut",
                w.planned_wavelengths / w.cuts.max(1.0),
            );
        }
        rec.set(
            "ctrl.orchestrator.cut_tick_p99_ms",
            stats::percentile(&rec.sorted_samples("cut_tick_ms"), 0.99),
        );
    }

    fn probes(s: &Statics, _w: &mut World, rec: &mut Recorder) {
        rec.in_flight("cut_restore_push probe: direct KSP".into());
        ksp_probe(rec, &s.tb.optical, &s.demands[0], s.cfg.k_paths);

        // topo.cache.*: the same restoration sweep through
        // `restore_cached` on a fresh cache — how much a cache would
        // save on this path (keys carry the banned set, so little).
        rec.in_flight("cut_restore_push probe: cached restoration sweep".into());
        let mut epoch = Epoch::stand_up(s, &s.demands[0]);
        let cache = RouteCache::new();
        for scenario in s.sweep(0, 0, 0) {
            std::hint::black_box(restore_cached(
                &epoch.plan,
                &s.tb.optical,
                epoch.ip,
                &scenario,
                &[],
                &s.cfg,
                &cache,
            ));
        }
        let (h, m) = (cache.hits() as f64, cache.misses() as f64);
        rec.set("topo.cache.hits", h);
        rec.set("topo.cache.misses", m);
        rec.set("topo.cache.entries", cache.len() as f64);
        rec.set("topo.cache.hit_ratio", h / (h + m).max(1.0));

        // Quiet ticks: healthy telemetry, nothing to do.
        let quiet = 20;
        let t = Instant::now();
        for _ in 0..quiet {
            epoch.telemetry(&[]);
            let out = epoch.orch.tick(&epoch.store, &mut epoch.ctrl);
            debug_assert_eq!(out, TickOutcome::Quiet);
        }
        rec.set(
            "ctrl.orchestrator.quiet_tick_us",
            t.elapsed().as_secs_f64() * 1e6 / f64::from(quiet),
        );
    }
}

/// The cut path taken apart: the benchmark itself runs scan → `restore`
/// → one `apply_wavelength_atomic` per wavelength (then the releases) on
/// a second controller committed for the purpose, so each stage is a
/// child span of the operation. The KSP inside `restore` is re-run right
/// after it, on the same banned set, and laid into the restore span as
/// a derived child.
fn replay_sweep(s: &Statics, epoch: &Epoch<'_>, sweep: &[FailureScenario], rec: &mut Recorder) {
    rec.in_flight("cut_restore_push replay: second controller".into());
    let span = rec.tracer.open("probe.ctrl.controller.commit", None, 0);
    let t = Instant::now();
    let mut ctrl = Controller::build(&s.tb.optical, Scheme::FlexWan.wss(), s.cfg.grid);
    rec.time_ms("ctrl.controller.build_ms", t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    let report = ctrl.apply_plan(&epoch.plan, &s.tb.optical);
    rec.time_ms(
        "ctrl.controller.apply_plan_ms",
        t.elapsed().as_secs_f64() * 1e3,
    );
    rec.tracer.close(span);
    if !report.is_clean() {
        rec.fail(format!(
            "replay commit rejected: {:?}",
            report.rejections.first()
        ));
    }
    let sim = TelemetrySim::new(&s.tb.optical);
    let mut store = TelemetryStore::new(TELEMETRY_WINDOW);
    let mut tick = 0u64;
    let mut telemetry = |store: &mut TelemetryStore, cuts: &[flexwan_topo::graph::EdgeId]| {
        sim.tick(store, tick, cuts);
        tick += 1;
    };
    telemetry(&mut store, &[]);
    let detector = FiberCutDetector::default();
    let mut scratch = DijkstraScratch::new();
    for scenario in sweep {
        rec.in_flight(format!(
            "cut_restore_push replay of cut {:?}",
            scenario.cuts
        ));
        telemetry(&mut store, &scenario.cuts);

        let root = rec.tracer.open("op.cut_replay", None, scenario.id as u64);
        let span = rec
            .tracer
            .open("ctrl.datastream.scan", Some(root), scenario.id as u64);
        let t = Instant::now();
        let flagged = detector.scan(&store);
        rec.time_ms("ctrl.datastream.scan_us", t.elapsed().as_secs_f64() * 1e6);
        rec.tracer.close(span);
        debug_assert_eq!(flagged.len(), scenario.cuts.len());

        let restore_span = rec
            .tracer
            .open("core.restore.restore", Some(root), scenario.id as u64);
        let t = Instant::now();
        let r = restore(&epoch.plan, &s.tb.optical, epoch.ip, scenario, &[], &s.cfg);
        rec.time_ms("core.restore.ms_per_cut", t.elapsed().as_secs_f64() * 1e3);
        rec.tracer.close(restore_span);

        let mut applied = Vec::with_capacity(r.restored.len());
        for rw in &r.restored {
            let span = rec
                .tracer
                .open("ctrl.controller.push", Some(root), scenario.id as u64);
            let t = Instant::now();
            let ok = ctrl.apply_wavelength_atomic(&rw.wavelength).is_ok();
            rec.time_ms(
                "ctrl.controller.push_ms_per_wavelength",
                t.elapsed().as_secs_f64() * 1e3,
            );
            rec.tracer.close(span);
            if ok {
                applied.push(&rw.wavelength);
            }
        }
        rec.tracer.close(root);

        // KSP share of `restore`: one banned-set query per affected link.
        let banned: HashSet<_> = scenario.cuts.iter().copied().collect();
        let t = Instant::now();
        for &(link, _, _) in &r.per_link {
            let l = epoch.ip.link(link);
            std::hint::black_box(k_shortest_routes_scratch(
                &s.tb.optical,
                l.src,
                l.dst,
                s.cfg.k_paths,
                &banned,
                &mut scratch,
            ));
        }
        rec.tracer.record_derived(
            "topo.ksp.banned",
            restore_span,
            t.elapsed().as_nanos() as u64,
        );

        let root = rec.tracer.open("op.cut_release", None, scenario.id as u64);
        for wl in applied {
            let span = rec
                .tracer
                .open("ctrl.controller.release", Some(root), scenario.id as u64);
            let t = Instant::now();
            let _ = ctrl.release_wavelength_atomic(wl);
            rec.time_ms(
                "ctrl.controller.release_ms_per_wavelength",
                t.elapsed().as_secs_f64() * 1e3,
            );
            rec.tracer.close(span);
        }
        rec.tracer.close(root);
        telemetry(&mut store, &[]);
    }
}
