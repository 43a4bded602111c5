//! `churn_service` — the always-on service loop.
//!
//! One cycle runs `SESSIONS` (2) sessions; a session stands up a fresh
//! `ChurnService` over the 4-node drill backbone (8-pixel grid) and
//! feeds it `EVENTS` (480) seeded events — 50 % drift / 20 % demand / 20 %
//! cut / 10 % repair — in batches of `BATCH` (4) through
//! `FaultInjector::perturb_stream` with the drill's drop / duplicate /
//! reorder / stale rates. **The operation** is one
//! `ChurnService::deliver` (or the final `flush`) tick. The tick budget
//! is unlimited, so every work counter is machine-independent.
//!
//! This is the solver layer used the other way round from `exact_plan`:
//! warm `IncrementalSolver` mutations of a standing `PlanModel` instead
//! of cold solves, so a solver change that speeds `exact_plan` but hurts
//! warm starts shows here. Sessions are long on purpose — every
//! restoration adds columns to the standing model and the slow ticks get
//! slower as a session ages (`ctrl.service.growth_ratio`). Most ticks
//! carry only drift and are cheap: they set the median; the ticks that
//! re-solve with fibers down set p95.

use std::time::Instant;

use flexwan_core::planning::PlannerConfig;
use flexwan_core::{Scheme, Wavelength};
use flexwan_ctrl::faults::StreamFaults;
use flexwan_ctrl::service::{
    ChurnService, EventLog, SeqEvent, ServiceConfig, TickReport, LADDER_WARM,
};
use flexwan_ctrl::{FaultInjector, FaultPlan};
use flexwan_obs::{Obs, LATENCY_SECONDS_BUCKETS};
use flexwan_solver::SolveOptions;
use flexwan_topo::graph::{EdgeId, Graph};
use flexwan_topo::ip::IpTopology;

use crate::harness::{Recorder, THREADS};
use crate::inputs::{self, Digest, EventClass};
use crate::stats;
use crate::verify::{hardware_cost, Instance};
use crate::workload::{book_warm_ratio, ksp_probe, Workload};

/// Sessions per cycle at full scale.
const SESSIONS: usize = 2;

/// Canonical events per session at full scale.
const EVENTS: usize = 480;

/// Events per delivery batch (before faults).
const BATCH: usize = 4;

/// Pixels per fiber of the drill backbone. 8 keeps a warm re-solve at a
/// few ms, so one run holds thousands of ticks and the percentiles do
/// not hinge on a handful of solves (12 pixels: ~10× the solve time,
/// same shape).
const PIXELS: u32 = 8;

/// The workload marker type.
pub struct ChurnServiceLoad;

/// Inputs of a run.
pub struct Statics {
    seed: u64,
    sessions: usize,
    events: usize,
    graph: Graph,
    ip: IpTopology,
    cfg: PlannerConfig,
    svc: ServiceConfig,
}

/// Nothing stands between sessions; the world is the per-class tick
/// samples the medians are taken from.
#[derive(Default)]
pub struct World {
    growth: Vec<f64>,
}

/// What one tick left behind, verified after its session.
struct TickRecord {
    report: TickReport,
    cuts: Vec<EdgeId>,
    live: Vec<Wavelength>,
    baseline: Vec<Wavelength>,
}

/// Solver counters the service publishes into its `Obs` registry.
struct SolverTotals {
    pivots: u64,
    dual_pivots: u64,
    nodes: u64,
    refactorizations: u64,
    cold: u64,
    warm: u64,
    lp_s: f64,
    total_s: f64,
}

/// Seconds the solver has spent in `phase`, as published so far.
fn solver_seconds(obs: &Obs, phase: &str) -> f64 {
    obs.registry()
        .histogram_with(
            "solver_phase_seconds",
            &[("phase", phase)],
            LATENCY_SECONDS_BUCKETS,
        )
        .sum()
}

fn solver_totals(obs: &Obs) -> SolverTotals {
    let reg = obs.registry();
    let pivots = |phase| {
        reg.counter_with("solver_pivots_total", &[("phase", phase)])
            .get()
    };
    let solves = |start| {
        reg.counter_with("solver_solves_total", &[("start", start)])
            .get()
    };
    let seconds = |phase| solver_seconds(obs, phase);
    SolverTotals {
        pivots: pivots("phase1") + pivots("phase2") + pivots("dual"),
        dual_pivots: pivots("dual"),
        nodes: reg.counter("solver_nodes_total").get(),
        refactorizations: reg.counter("solver_refactorizations_total").get(),
        cold: solves("cold"),
        warm: solves("warm"),
        lp_s: seconds("phase1") + seconds("phase2") + seconds("dual"),
        total_s: seconds("total"),
    }
}

impl Statics {
    fn stream(&self, cycle: u64, session: u64) -> Vec<flexwan_ctrl::service::ChurnEvent> {
        inputs::churn_stream(
            self.events,
            &mut inputs::rng(self.seed, "churn_service.stream", cycle, session),
        )
    }

    fn injector(&self, cycle: u64, session: u64) -> FaultInjector {
        FaultInjector::new(
            FaultPlan {
                seed: inputs::rng(self.seed, "churn_service.faults", cycle, session).next_u64(),
                ..FaultPlan::none()
            }
            .with_stream(StreamFaults {
                drop_prob: 0.10,
                duplicate_prob: 0.10,
                reorder_prob: 0.10,
                stale_prob: 0.05,
            }),
        )
    }

    fn service(&self) -> Option<ChurnService<'_>> {
        ChurnService::new(
            &self.graph,
            &self.ip,
            Scheme::FlexWan,
            self.cfg.clone(),
            self.svc.clone(),
        )
    }

    /// One session: a fresh service, the whole stream, then the flush.
    fn session(&self, w: &mut World, cycle: u64, session: u64, rec: &mut Recorder) {
        let t = Instant::now();
        let Some(mut svc) = self.service() else {
            rec.fail("drill backbone infeasible at stand-up".into());
            return;
        };
        rec.time_ms("ctrl.service.new_ms", t.elapsed().as_secs_f64() * 1e3);
        let obs = Obs::new();
        svc.set_obs(obs.clone());
        let injector = self.injector(cycle, session);
        let mut log = EventLog::new();
        let stamped: Vec<SeqEvent> = self
            .stream(cycle, session)
            .into_iter()
            .map(|e| log.append(e))
            .collect();
        let traced = rec.tracer.enabled();
        let solver_s = || {
            if traced {
                solver_seconds(&obs, "total")
            } else {
                0.0
            }
        };

        let mut records: Vec<(TickRecord, Instant, u64, f64)> = Vec::new();
        let busy = rec.busy_start();
        let mut batches = stamped.chunks(BATCH);
        loop {
            let batch = batches.next();
            let perturbed = batch.map(|b| injector.perturb_stream(b));
            let before = solver_s();
            let started = Instant::now();
            let report = match &perturbed {
                Some(p) => svc.deliver(&log, p),
                None => svc.flush(&log),
            };
            let lat_ns = started.elapsed().as_nanos() as u64;
            let solver = solver_s() - before;
            if batch.is_some() || report.applied > 0 {
                records.push((
                    TickRecord {
                        cuts: svc.active_cuts().iter().copied().collect(),
                        live: svc.live_restoration().to_vec(),
                        baseline: svc.baseline().wavelengths.clone(),
                        report,
                    },
                    started,
                    lat_ns,
                    solver,
                ));
            }
            if batch.is_none() {
                break;
            }
        }
        rec.busy_end(busy);

        // Verify and account, tick by tick.
        let inst = Instance {
            graph: &self.graph,
            grid_pixels: self.cfg.grid.pixels(),
            align: 1,
        };
        let mut cursor = 0usize;
        let mut restore_ticks: Vec<f64> = Vec::new();
        let mut columns_added = 0usize;
        for (r, started, lat_ns, solver_s) in &records {
            let op = rec.next_op();
            rec.in_flight(format!(
                "churn_service cycle {cycle} session {session} tick {op}"
            ));
            rec.op_done(*lat_ns);
            let start = rec.tracer.ns_since(*started);
            let span = rec
                .tracer
                .record("ctrl.service.tick", None, op, start, start + lat_ns);
            rec.tracer
                .record_derived("solver.total", span, (solver_s * 1e9) as u64);
            let ms = *lat_ns as f64 / 1e6;
            rec.sample("tick_ms", ms);
            let applied = &stamped[cursor..(cursor + r.report.applied).min(stamped.len())];
            cursor += r.report.applied;
            let class = applied.iter().map(|e| inputs::class_of(&e.event)).max();
            rec.sample(
                match class {
                    Some(EventClass::Cut) => "tick_ms.cut",
                    Some(EventClass::Repair) => "tick_ms.repair",
                    Some(EventClass::Demand) => "tick_ms.demand",
                    Some(EventClass::Drift) | None => "tick_ms.drift",
                },
                ms,
            );
            if !r.cuts.is_empty() && r.report.applied > 0 {
                restore_ticks.push(ms);
            }
            columns_added += r.report.added_columns;

            let warm =
                r.report.demand_level == LADDER_WARM && r.report.restore_level == LADDER_WARM;
            if warm && !r.cuts.is_empty() {
                let (violations, affected, landed) =
                    inst.check_restoration(&self.ip, &r.baseline, &r.cuts, &r.live);
                rec.verified(&format!("tick with cuts {:?}", r.cuts), &violations);
                if r.report.affected_gbps > 0
                    && (affected, landed) != (r.report.affected_gbps, r.report.restored_gbps)
                {
                    rec.fail(format!(
                        "tick with cuts {:?}: claimed {}/{} Gbps restored, first principles say {landed}/{affected}",
                        r.cuts, r.report.restored_gbps, r.report.affected_gbps
                    ));
                }
                if r.report.affected_gbps > 0 {
                    rec.quality(landed, affected, hardware_cost(&r.live, self.cfg.epsilon));
                }
            } else if r.cuts.is_empty() && !r.live.is_empty() {
                rec.fail("restoration still live with every fiber repaired".into());
            }
        }
        if cursor != stamped.len() {
            rec.fail(format!(
                "session did not converge: {cursor} of {} events applied",
                stamped.len()
            ));
        }

        // Growth within the session: restore-tick median, last third ÷
        // first third.
        let third = restore_ticks.len() / 3;
        if third >= 3 {
            let first = stats::median(&restore_ticks[..third]);
            let last = stats::median(&restore_ticks[restore_ticks.len() - third..]);
            w.growth.push(last / first.max(1e-9));
        }

        let st = svc.stats();
        rec.add("ctrl.service.ticks", svc.journal().len() as f64);
        rec.add("ctrl.service.events_applied", st.events_applied as f64);
        rec.add("ctrl.service.warm_mutations", st.warm_mutations as f64);
        rec.add("ctrl.service.rebuilds", st.rebuilds as f64);
        rec.add("ctrl.service.columns_added", columns_added as f64);
        rec.add(
            "ctrl.service.duplicates_ignored",
            st.duplicates_ignored as f64,
        );
        rec.add("ctrl.service.gap_fills", st.gap_fills as f64);
        rec.add("ctrl.service.deadline_blown", st.deadline_blown as f64);
        rec.add("ctrl.service.level_ticks.warm", st.level_ticks[0] as f64);
        rec.add(
            "ctrl.service.level_ticks.heuristic",
            st.level_ticks[1] as f64,
        );
        rec.add("ctrl.service.level_ticks.protect", st.level_ticks[2] as f64);
        let so = solver_totals(&obs);
        rec.add("solver.pivots", so.pivots as f64);
        rec.add("solver.dual_pivots", so.dual_pivots as f64);
        rec.add("solver.nodes", so.nodes as f64);
        rec.add("solver.refactorizations", so.refactorizations as f64);
        rec.add("solver.cold_solves", so.cold as f64);
        rec.add("solver.warm_solves", so.warm as f64);
        let ticks = records.len().max(1) as f64;
        rec.time_ms("solver.lp_ms", so.lp_s * 1e3 / ticks);
        rec.time_ms("solver.total_ms", so.total_s * 1e3 / ticks);
        rec.set(
            "solver.pivots_per_ms",
            so.pivots as f64 / (so.lp_s * 1e3).max(1e-9),
        );
        rec.set("solver.nodes_per_s", so.nodes as f64 / so.total_s.max(1e-9));
    }
}

impl Workload for ChurnServiceLoad {
    const NAME: &'static str = "churn_service";
    const WHY: &'static str = "always-on service under mixed churn over a faulty transport: \
        warm mutations of a standing exact model, the solver used the other way from exact_plan";
    type Statics = Statics;
    type World = World;

    fn statics(seed: u64, scale: f64) -> Statics {
        let (graph, ip, cfg) = inputs::drill_backbone(PIXELS);
        Statics {
            seed,
            sessions: inputs::scaled(SESSIONS, scale),
            events: inputs::scaled(EVENTS, scale),
            graph,
            ip,
            cfg,
            svc: ServiceConfig {
                tick_budget_ns: u64::MAX,
                solve: SolveOptions {
                    threads: THREADS,
                    ..SolveOptions::default()
                },
                ..ServiceConfig::default()
            },
        }
    }

    fn inputs_digest(s: &Statics) -> u64 {
        let mut d = Digest::new();
        for session in 0..s.sessions as u64 {
            inputs::digest_events(&mut d, &s.stream(0, session));
            d.u64(inputs::rng(s.seed, "churn_service.faults", 0, session).next_u64());
        }
        d.finish()
    }

    fn world(s: &Statics) -> World {
        // Stand-up plus a warm-up: one service fed a fifth of a session
        // (long enough for `setup_s` to repeat). The warm-up stream is the
        // same for every seed, so set-up time does not depend on the draw.
        if let Some(mut svc) = s.service() {
            let mut log = EventLog::new();
            let stamped: Vec<SeqEvent> =
                inputs::churn_stream(s.events, &mut inputs::rng(0, "churn_service.warmup", 0, 0))
                    .into_iter()
                    .take((s.events / 5).max(BATCH))
                    .map(|e| log.append(e))
                    .collect();
            for batch in stamped.chunks(BATCH) {
                std::hint::black_box(svc.deliver(&log, batch));
            }
        }
        World::default()
    }

    fn cycle(s: &Statics, w: &mut World, cycle: u64, rec: &mut Recorder) {
        for session in 0..s.sessions as u64 {
            s.session(w, cycle, session, rec);
        }
        book_warm_ratio(rec);
        for (key, metric) in [
            ("tick_ms.drift", "ctrl.service.tick_ms.drift"),
            ("tick_ms.demand", "ctrl.service.tick_ms.demand"),
            ("tick_ms.cut", "ctrl.service.tick_ms.cut"),
            ("tick_ms.repair", "ctrl.service.tick_ms.repair"),
        ] {
            rec.set(metric, stats::percentile(&rec.sorted_samples(key), 0.5));
        }
        rec.set(
            "ctrl.service.tick_p99_ms",
            stats::percentile(&rec.sorted_samples("tick_ms"), 0.99),
        );
        rec.set("ctrl.service.growth_ratio", stats::median(&w.growth));
    }

    fn probes(s: &Statics, _w: &mut World, rec: &mut Recorder) {
        rec.in_flight("churn_service probe: direct KSP".into());
        ksp_probe(rec, &s.graph, &s.ip, s.cfg.k_paths);
    }
}
