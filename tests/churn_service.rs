//! Soak test for the always-on churn service (DESIGN.md §10): a long
//! deterministic stream of mixed events — demand deltas, fiber cuts,
//! repairs, telemetry drift — is delivered through the event-stream
//! fault injector (drops, duplicates, reorders, stale redeliveries) and
//! the service must
//!
//! 1. converge to the canonical state regardless of delivery faults,
//! 2. journal every ladder decision such that replaying the journal
//!    over the canonical log reproduces the live state **bit-for-bit**,
//! 3. take the warm-mutation path for simultaneous cuts (asserted via
//!    `solver_solves_total{start=warm}` — zero rebuilds), and
//! 4. land every deadline-blown tick on a documented ladder level,
//!    never panicking or stalling.
//!
//! Event count defaults small enough for debug builds; the CI release
//! soak raises it via `FLEXWAN_SOAK_EVENTS`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use flexwan::core::planning::PlannerConfig;
use flexwan::core::Scheme;
use flexwan::ctrl::faults::StreamFaults;
use flexwan::ctrl::service::{
    ChurnEvent, ChurnService, EventLog, SeqEvent, ServiceConfig, LADDER_HEURISTIC, LADDER_PROTECT,
    LADDER_WARM,
};
use flexwan::ctrl::{FaultInjector, FaultPlan};
use flexwan::obs::{Clock, Obs};
use flexwan::optical::spectrum::SpectrumGrid;
use flexwan::solver::SolveOptions;
use flexwan::topo::graph::{EdgeId, Graph};
use flexwan::topo::ip::{IpLinkId, IpTopology};

/// 4-node backbone with detour diversity: every single cut — and the
/// (0,1) double cut — leaves an alternate route for each IP link.
fn backbone() -> (Graph, IpTopology, PlannerConfig) {
    let mut g = Graph::new();
    let a = g.add_node("a");
    let b = g.add_node("b");
    let c = g.add_node("c");
    let d = g.add_node("d");
    g.add_edge(a, b, 400); // 0: on the a–c primary a–b–c (800 km)
    g.add_edge(b, c, 400); // 1: on the a–c primary
    g.add_edge(a, c, 900); // 2: the a–c detour (survives a 0+1 double cut)
    g.add_edge(c, d, 400); // 3
    g.add_edge(a, d, 900); // 4: the a–d primary, untouched by cuts of 0/1
    let mut ip = IpTopology::new();
    ip.add_link(a, c, 300);
    ip.add_link(a, d, 200);
    // Deliberately tiny spectrum grid: the restorable model enumerates
    // every single-fiber detour, and exact B&B over that variable space
    // has to stay fast in debug builds (same sizing rationale as
    // `restore_mutation.rs`).
    let cfg = PlannerConfig {
        grid: SpectrumGrid::new(12),
        k_paths: 2,
        ..Default::default()
    };
    (g, ip, cfg)
}

/// Deterministic split-mix generator for the event stream (the service
/// and injector consume their own seeded RNGs; the generator just needs
/// reproducibility).
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A deterministic mixed-churn event stream. Cuts come only from fibers
/// 0/1 (the a–c detour pair) so restoration always has work; every cut
/// is eventually repaired. Roughly one event in twelve is a
/// simultaneous-cut burst taking down both fibers in one event.
fn churn_stream(n: usize, seed: u64) -> Vec<ChurnEvent> {
    let mut mix = Mix(seed);
    let mut cut: Vec<EdgeId> = Vec::new();
    let mut drift = [0.0f64; 5];
    let mut events = Vec::with_capacity(n + 2);
    while events.len() < n {
        match mix.below(12) {
            // 50%: drift. The emitted per-fiber sum is bounded to ±9.5 dB
            // (a delta that would leave the band is flipped): the service
            // resets its accumulator on repair, so its view is a
            // difference of two in-band sums — strictly under the 20 dB
            // cut threshold no matter how long the stream runs.
            0..=4 => {
                let f = mix.below(5) as usize;
                let mut delta = if mix.below(2) == 0 { -0.5 } else { 0.4 };
                if (drift[f] + delta).abs() >= 9.5 {
                    delta = if delta < 0.0 { 0.4 } else { -0.5 };
                }
                drift[f] += delta;
                events.push(ChurnEvent::TelemetryDrift {
                    fiber: EdgeId(f as u32),
                    delta_db: delta,
                });
            }
            // 20%: demand resize (multiples of 100 Gbps, small jumps).
            5 | 6 => events.push(ChurnEvent::DemandDelta {
                link: IpLinkId(mix.below(2) as u32),
                demand_gbps: 100 * (2 + mix.below(2)),
            }),
            // 20%: cut one of fibers {0, 1} not already dark.
            7 | 8 => {
                let f = EdgeId(mix.below(2) as u32);
                if !cut.contains(&f) {
                    cut.push(f);
                    events.push(ChurnEvent::FiberCut(f));
                }
            }
            // ~8%: a shared-risk burst — both fibers go dark in ONE
            // event (only when both are currently up).
            9 => {
                if cut.is_empty() {
                    cut.push(EdgeId(0));
                    cut.push(EdgeId(1));
                    events.push(ChurnEvent::SimultaneousCuts(vec![EdgeId(0), EdgeId(1)]));
                }
            }
            // ~17%: repair the oldest dark fiber.
            _ => {
                if !cut.is_empty() {
                    events.push(ChurnEvent::FiberRepair(cut.remove(0)));
                }
            }
        }
    }
    for f in cut {
        events.push(ChurnEvent::FiberRepair(f));
    }
    events
}

/// The lossy transport every soak delivers through: drops, duplicates,
/// reorders and stale redeliveries, seeded.
fn faulty_transport(seed: u64) -> FaultInjector {
    FaultInjector::new(
        FaultPlan {
            seed,
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

fn soak_events() -> usize {
    std::env::var("FLEXWAN_SOAK_EVENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60)
}

/// The headline soak: thousands of mixed events (in release; a bounded
/// slice in debug) through a faulty transport. Live state must equal
/// the journal roll-forward bit-for-bit, and the faulty delivery must
/// converge to the same state as a clean one.
#[test]
fn soak_faulty_delivery_replays_bit_for_bit() {
    let (g, ip, cfg) = backbone();
    let svc_cfg = ServiceConfig::default();
    let mut live =
        ChurnService::new(&g, &ip, Scheme::FlexWan, cfg.clone(), svc_cfg.clone()).unwrap();
    live.set_obs(Obs::new());

    let events = churn_stream(soak_events(), 7);
    let mut log = EventLog::new();
    let stamped: Vec<SeqEvent> = events.into_iter().map(|e| log.append(e)).collect();

    let injector = faulty_transport(99);

    for batch in stamped.chunks(5) {
        let perturbed = injector.perturb_stream(batch);
        let rep = live.deliver(&log, &perturbed);
        assert!(!rep.deadline_blown, "budget is unlimited here");
        assert!(rep.restore_level <= LADDER_PROTECT, "undocumented level");
    }
    // A lossy transport can eat the tail outright; flush applies it.
    live.flush(&log);

    let fstats = injector.stats();
    assert!(fstats.events_dropped > 0, "streak of luck — raise N");
    assert!(fstats.events_duplicated > 0);
    assert_eq!(live.state().next_seq, log.len(), "no event left behind");
    assert!(live.stats().gap_fills > 0, "drops were healed from the log");
    assert!(live.stats().duplicates_ignored > 0);
    assert!(live.active_cuts().is_empty(), "stream repairs every cut");

    // Clean-channel control: same canonical log, no faults, different
    // batching — the controlled state must be identical.
    let mut clean =
        ChurnService::new(&g, &ip, Scheme::FlexWan, cfg.clone(), svc_cfg.clone()).unwrap();
    for batch in stamped.chunks(3) {
        clean.deliver(&log, batch);
    }
    let live_state = live.state();
    let clean_state = clean.state();
    // Tick cadence (and hence the intermediate solve trajectory)
    // legitimately differs between transports; the converged controlled
    // state must not.
    assert_eq!(live_state.next_seq, clean_state.next_seq);
    assert_eq!(live_state.demands, clean_state.demands);
    assert_eq!(live_state.active_cuts, clean_state.active_cuts);
    assert_eq!(live_state.drift_db, clean_state.drift_db);
    assert_eq!(live_state.restoration, clean_state.restoration);
    assert_eq!(
        live_state.baseline_objective.to_bits(),
        clean_state.baseline_objective.to_bits(),
        "faulty delivery converged to a different plan cost"
    );

    // Journal roll-forward: the replayed state equals the live one.
    let replayed =
        ChurnService::replay(&g, &ip, Scheme::FlexWan, cfg, svc_cfg, &log, live.journal()).unwrap();
    assert_eq!(replayed.state(), live.state(), "journal replay diverged");
}

/// Simultaneous-cut bursts through a faulty transport: the multi-fiber
/// [`ChurnEvent::SimultaneousCuts`] events coalesce into the same
/// single-tick multi-cut restoration as per-fiber cuts, the journal
/// roll-forward reproduces the live state, and every tick's ladder
/// decision lands in the per-level SLO counters of
/// [`ChurnService::stats`].
#[test]
fn soak_bursts_replay_and_record_ladder_slos() {
    let (g, ip, cfg) = backbone();
    let svc_cfg = ServiceConfig::default();
    let mut live =
        ChurnService::new(&g, &ip, Scheme::FlexWan, cfg.clone(), svc_cfg.clone()).unwrap();
    live.set_obs(Obs::new());

    let events = churn_stream(soak_events(), 21);
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ChurnEvent::SimultaneousCuts(_))),
        "stream carries no burst — change the seed"
    );
    let mut log = EventLog::new();
    let stamped: Vec<SeqEvent> = events.into_iter().map(|e| log.append(e)).collect();

    let injector = faulty_transport(4242);
    for batch in stamped.chunks(4) {
        let perturbed = injector.perturb_stream(batch);
        let rep = live.deliver(&log, &perturbed);
        assert!(rep.restore_level <= LADDER_PROTECT, "undocumented level");
    }
    live.flush(&log);
    assert_eq!(live.state().next_seq, log.len(), "no event left behind");
    assert!(live.active_cuts().is_empty(), "stream repairs every cut");

    // Per-level SLOs: every tick is accounted to exactly one rung.
    let stats = live.stats();
    let level_total: u64 = stats.level_ticks.iter().sum();
    assert_eq!(
        level_total,
        live.state().tick,
        "a tick escaped the ladder SLOs"
    );
    assert!(
        stats.level_ticks[LADDER_WARM as usize] > 0,
        "no tick ever took the warm rung"
    );

    // Journal roll-forward over the burst-bearing log.
    let replayed =
        ChurnService::replay(&g, &ip, Scheme::FlexWan, cfg, svc_cfg, &log, live.journal()).unwrap();
    assert_eq!(replayed.state(), live.state(), "journal replay diverged");
}

/// The work one seeded stream costs the service, exact: 40 canonical
/// events in batches of 4 over a faulty transport, on an unlimited
/// budget so nothing depends on the machine. A moved counter means
/// event classification or the ladder changed; the failure prints the
/// new tuple. Re-record only for a deliberate behaviour change.
///
/// The standing model the stream leaves behind is bounded by
/// construction: restorations borrow one cap-row pair per IP link, so
/// all that ever rests inactive is at most `2·links` rows.
#[test]
fn seeded_stream_work_counters_are_pinned() {
    let (g, ip, cfg) = backbone();
    let mut svc =
        ChurnService::new(&g, &ip, Scheme::FlexWan, cfg, ServiceConfig::default()).unwrap();
    let obs = Obs::new();
    svc.set_obs(obs.clone());
    let mut log = EventLog::new();
    let stamped: Vec<SeqEvent> = churn_stream(40, 7)
        .into_iter()
        .map(|e| log.append(e))
        .collect();
    let injector = faulty_transport(316);
    let mut restored_gbps = 0u64;
    for batch in stamped.chunks(4) {
        restored_gbps += svc
            .deliver(&log, &injector.perturb_stream(batch))
            .restored_gbps;
    }
    restored_gbps += svc.flush(&log).restored_gbps;
    assert_eq!(svc.state().next_seq, log.len(), "no event left behind");

    let stats = svc.stats();
    assert_eq!(
        (
            svc.journal().len(),
            stats.events_applied,
            stats.warm_mutations,
            stats.rebuilds,
            stats.level_ticks,
            restored_gbps,
        ),
        (12, 41, 17, 0, [12, 0, 0], 2300),
        "(ticks, events applied, warm mutations, rebuilds, ticks per ladder level, Gbps restored)"
    );

    let gauge = |name| obs.registry().gauge(name).get() as usize;
    let (rows, active) = (gauge("churn_model_rows"), gauge("churn_model_active_rows"));
    assert!(rows > active, "no restoration ever armed a cap row");
    assert!(
        rows <= active + 2 * ip.num_links(),
        "{rows} rows standing, {active} of them active"
    );
}

/// Growth is readable from one run: the service publishes the size of
/// its standing model every tick, and past the first failures of a
/// session the row count does not move.
#[test]
fn standing_model_rows_are_flat_once_every_link_has_failed() {
    let (g, ip, mut cfg) = backbone();
    cfg.grid = SpectrumGrid::new(8); // the benchmark's sizing: ~10× cheaper ticks
    let mut svc =
        ChurnService::new(&g, &ip, Scheme::FlexWan, cfg, ServiceConfig::default()).unwrap();
    let obs = Obs::new();
    svc.set_obs(obs.clone());
    let mut log = EventLog::new();
    let stamped: Vec<SeqEvent> = churn_stream(120, 7)
        .into_iter()
        .map(|e| log.append(e))
        .collect();
    let injector = faulty_transport(316);
    let rows_now = || obs.registry().gauge("churn_model_rows").get();
    let mut rows = Vec::new();
    for batch in stamped.chunks(4) {
        svc.deliver(&log, &injector.perturb_stream(batch));
        rows.push(rows_now());
    }
    svc.flush(&log);
    rows.push(rows_now());

    let settled = &rows[rows.len() / 3..];
    assert!(
        settled.iter().all(|&r| r == settled[0]),
        "churn_model_rows moved late in the session: {rows:?}"
    );
    let reg = obs.registry();
    assert!(
        reg.gauge("churn_model_active_rows").get() < settled[0],
        "the stream never cut a lit fiber"
    );
    assert!(reg.gauge("churn_model_columns").get() > 0.0);
}

/// Simultaneous cuts must take the warm-mutation path of the standing
/// model — banned-path columns are generated on demand, the model is
/// never rebuilt — observable as warm solver starts and a zero rebuild
/// count.
#[test]
fn simultaneous_cuts_take_the_mutation_path() {
    let (g, ip, cfg) = backbone();
    let mut svc =
        ChurnService::new(&g, &ip, Scheme::FlexWan, cfg, ServiceConfig::default()).unwrap();
    let obs = Obs::new();
    svc.set_obs(obs.clone());
    let mut log = EventLog::new();

    let e0 = log.append(ChurnEvent::FiberCut(EdgeId(0)));
    let r0 = svc.deliver(&log, &[e0]);
    assert_eq!(r0.restore_level, LADDER_WARM);

    // Second cut while the first is still dark: the standing model is
    // mutated again (columns for the double-cut scenario appear on
    // demand), not rebuilt.
    let e1 = log.append(ChurnEvent::FiberCut(EdgeId(1)));
    let r1 = svc.deliver(&log, &[e1]);
    assert_eq!(r1.restore_level, LADDER_WARM);
    assert!(!r1.rebuilt);
    assert_eq!(svc.stats().rebuilds, 0, "mutation path must not rebuild");
    assert!(svc.stats().warm_mutations >= 2);

    let warm = obs
        .registry()
        .counter_with("solver_solves_total", &[("start", "warm")])
        .get();
    assert!(warm > 0, "restoration re-solves must start warm");
    let orchestrated = obs.registry().counter("churn_events_applied_total").get();
    assert_eq!(orchestrated, 2);

    // Both IP links still terminate on a — with fibers 0 and 1 dark the
    // a–c link rides its pre-enumerated direct detour; capacity comes
    // back.
    assert!(r1.restored_gbps > 0, "double cut restored nothing");
}

/// A clock that jumps a fixed amount on every read: any tick measured
/// with it takes "too long", deterministically.
#[derive(Debug)]
struct SteppingClock {
    now: AtomicU64,
    step: u64,
}

impl Clock for SteppingClock {
    fn now_ns(&self) -> u64 {
        self.now.fetch_add(self.step, Ordering::Relaxed) + self.step
    }
}

/// Deadline pressure walks the documented ladder: a blown budget lands
/// the tick on the 1+1 protection rung (level 2), the journal records
/// the blown deadline, and — crucially — replaying that journal without
/// any clock still reproduces the state bit-for-bit.
#[test]
fn deadline_blown_lands_on_documented_ladder_level() {
    let (g, ip, cfg) = backbone();
    let svc_cfg = ServiceConfig {
        tick_budget_ns: 1,
        ..ServiceConfig::default()
    };
    let mut svc =
        ChurnService::new(&g, &ip, Scheme::FlexWan, cfg.clone(), svc_cfg.clone()).unwrap();
    // Every clock read advances 10 ms — the 1 ns budget is always blown.
    svc.set_obs(Obs::with_clock(Arc::new(SteppingClock {
        now: AtomicU64::new(0),
        step: 10_000_000,
    })));

    let mut log = EventLog::new();
    let e0 = log.append(ChurnEvent::FiberCut(EdgeId(0)));
    let rep = svc.deliver(&log, &[e0]);
    assert!(rep.deadline_blown);
    assert_eq!(
        rep.restore_level, LADDER_PROTECT,
        "blown budget must land on the protection rung"
    );
    assert!(svc.state().protection_active);
    assert!(
        svc.live_restoration().is_empty(),
        "level 2 computes nothing"
    );
    assert_eq!(svc.stats().level_ticks[LADDER_PROTECT as usize], 1);
    let last = svc.journal().last().unwrap();
    assert!(last.deadline_blown, "the journal must record the decision");

    // Lift the pressure: the next tick still starts degraded
    // (backpressure), the one after returns to the warm path and the
    // MIP restoration replaces the protection fallback.
    svc.set_tick_budget_ns(u64::MAX);
    for _ in 0..2 {
        let ev = log.append(ChurnEvent::TelemetryDrift {
            fiber: EdgeId(3),
            delta_db: -0.1,
        });
        svc.deliver(&log, &[ev]);
    }
    let final_rep = svc.journal().last().unwrap();
    assert_eq!(final_rep.restore_level, LADDER_WARM, "service recovered");
    assert!(!svc.state().protection_active);
    assert!(!svc.live_restoration().is_empty());

    // The nondeterministic part (wall-clock pressure) is journaled, so
    // a clock-free replay still lands on the same bits.
    let replayed =
        ChurnService::replay(&g, &ip, Scheme::FlexWan, cfg, svc_cfg, &log, svc.journal()).unwrap();
    assert_eq!(replayed.state(), svc.state());
}

/// A wedged solver (zero branch-and-bound nodes) must degrade to the
/// heuristic rung — capacity still comes back — and never panic or
/// stall the loop.
#[test]
fn wedged_solver_degrades_but_keeps_restoring() {
    let (g, ip, cfg) = backbone();
    let mut svc =
        ChurnService::new(&g, &ip, Scheme::FlexWan, cfg, ServiceConfig::default()).unwrap();
    svc.set_solve_options(SolveOptions {
        max_nodes: 0,
        ..SolveOptions::default()
    });
    let mut log = EventLog::new();
    let e0 = log.append(ChurnEvent::FiberCut(EdgeId(0)));
    let rep = svc.deliver(&log, &[e0]);
    assert_eq!(rep.restore_level, LADDER_HEURISTIC);
    assert!(rep.restored_gbps > 0, "heuristic rung restored capacity");

    // The loop keeps running ticks after the failure.
    let e1 = log.append(ChurnEvent::FiberRepair(EdgeId(0)));
    svc.deliver(&log, &[e1]);
    assert!(svc.active_cuts().is_empty());
    assert!(svc.live_restoration().is_empty());
}
