//! Chaos tests for the self-healing control plane: seeded fault injection
//! at the session boundary, circuit breakers, restarts healed from the
//! controller's ledger, and orchestrator ticks over faulty telemetry
//! delivery. Every test replays bit-identically — the injector's RNG is
//! consumed in the controller's (single-threaded) request order.

use std::collections::HashMap;
use std::sync::Arc;

use flexwan::core::planning::{plan, Plan, PlannerConfig};
use flexwan::core::Scheme;
use flexwan::ctrl::datastream::TelemetrySample;
use flexwan::ctrl::issues::ConfiguredChannel;
use flexwan::ctrl::model::Vendor;
use flexwan::ctrl::{
    find_conflicts, find_inconsistencies, vendor, BreakerState, Controller, CtrlStats, DevMgr,
    DeviceFaults, DeviceId, DeviceKind, FaultInjector, FaultPlan, FaultStats, Hardware,
    Orchestrator, SessionError, StandardConfig, TelemetrySim, TelemetryStore, TickOutcome,
};
use flexwan::obs::Obs;
use flexwan::optical::spectrum::{PixelRange, SpectrumGrid};
use flexwan::optical::{Mux, WssKind};
use flexwan::topo::graph::{Graph, NodeId};
use flexwan::topo::ip::IpTopology;

/// The 4-node drill backbone (same shape as the `chaos_drill` bench):
/// link a–c routes a–b–c (350 km < the 500 km direct fiber), so ROADM b
/// carries express configuration.
fn backbone() -> (Graph, IpTopology, PlannerConfig) {
    let mut g = Graph::new();
    let a = g.add_node("a");
    let b = g.add_node("b");
    let c = g.add_node("c");
    let d = g.add_node("d");
    g.add_edge(a, b, 150);
    g.add_edge(b, c, 200);
    g.add_edge(c, d, 250);
    g.add_edge(a, c, 500);
    g.add_edge(b, d, 450);
    let mut ip = IpTopology::new();
    ip.add_link(a, c, 600);
    ip.add_link(a, b, 400);
    ip.add_link(b, d, 500);
    let cfg = PlannerConfig {
        grid: SpectrumGrid::new(96),
        ..Default::default()
    };
    (g, ip, cfg)
}

/// Reads every MUX port and ROADM degree back from the live device plane:
/// the passbands actually in effect per site.
fn live_passbands(ctrl: &Controller) -> HashMap<NodeId, Vec<PixelRange>> {
    let mut at: HashMap<NodeId, Vec<PixelRange>> = HashMap::new();
    for handle in ctrl
        .devmgr
        .ids()
        .into_iter()
        .filter_map(|id| ctrl.devmgr.device(id))
    {
        let Ok(state) = handle.session.get_state() else {
            continue;
        };
        let site = state.descriptor.site;
        match state.hardware {
            Hardware::Mux(m) => {
                let mut port = 0u16;
                while let Ok(pb) = m.passband(port) {
                    if let Some(r) = pb {
                        at.entry(site).or_default().push(r);
                    }
                    port += 1;
                }
            }
            Hardware::Roadm(r) => {
                let mut deg = 0u16;
                while let Ok(pbs) = r.passbands(deg) {
                    at.entry(site).or_default().extend(pbs.iter().copied());
                    deg += 1;
                }
            }
            _ => {}
        }
    }
    at
}

/// The plan's wavelengths as configured channels (for the issue finders).
fn channels_of(p: &Plan) -> Vec<ConfiguredChannel> {
    p.wavelengths
        .iter()
        .map(|w| ConfiguredChannel {
            path: w.path.clone(),
            channel: w.channel,
            vendor: Vendor::ALL[0],
        })
        .collect()
}

/// One full seeded chaos run: mixed drops, delayed replies, a rejecting
/// boot on one MUX, and one device crash. Returns everything a
/// determinism comparison needs.
type ChaosRun = (
    bool,
    usize,
    Vec<DeviceId>,
    CtrlStats,
    FaultStats,
    HashMap<NodeId, Vec<PixelRange>>,
);

fn chaos_run(seed: u64) -> ChaosRun {
    let (g, ip, cfg) = backbone();
    let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
    assert!(p.is_feasible());
    let mut ctrl = Controller::build(&g, WssKind::PixelWise, cfg.grid);
    let mixed = DeviceFaults {
        drop_prob: 0.15,
        delay_reply_prob: 0.15,
        ..Default::default()
    };
    let fault_plan = FaultPlan::uniform(seed, mixed.clone())
        // MUX at site a boots slow: its first two edit-configs bounce.
        .device(
            DeviceId(0),
            DeviceFaults {
                reject_first: 2,
                ..mixed.clone()
            },
        )
        // ROADM at site b crashes on its first express edit (link a–c
        // routes a–b–c, so the edit definitely arrives).
        .device(
            DeviceId(3),
            DeviceFaults {
                crash_after: Some(0),
                ..mixed
            },
        );
    let injector = Arc::new(FaultInjector::new(fault_plan));
    ctrl.arm_faults(injector.clone());

    let _ = ctrl.apply_plan(&p, &g);
    let report = ctrl.converge(64);

    // Invariants under fault: audited clean (every ledger step is in
    // effect on its device), no conflicts, no inconsistencies against the
    // live device state. The forensic reads below must see the plane as
    // it is, so lift the faults first (convergence itself ran entirely
    // under fire).
    injector.lift();
    assert!(report.converged, "seed {seed}: did not converge");
    assert!(ctrl.audit_plan().is_empty(), "seed {seed}: audit findings");
    let channels = channels_of(&p);
    assert!(
        find_conflicts(&channels).is_empty(),
        "seed {seed}: conflicts"
    );
    assert!(
        find_inconsistencies(&channels, &live_passbands(&ctrl)).is_empty(),
        "seed {seed}: inconsistencies"
    );
    let stats = ctrl.stats().clone();
    (
        report.converged,
        report.passes,
        report.restarted,
        stats,
        injector.stats(),
        live_passbands(&ctrl),
    )
}

#[test]
fn seeded_mixed_faults_converge_deterministically() {
    let first = chaos_run(0xC4A05);
    let second = chaos_run(0xC4A05);
    assert_eq!(first, second, "same seed must replay bit-identically");

    let (_, _, restarted, stats, faults, _) = first;
    // The scripted faults actually fired and were healed.
    assert_eq!(faults.crashes, 1, "the one-shot crash fired");
    assert!(faults.rejects >= 2, "the rejecting boot fired");
    assert!(
        faults.drops + faults.delayed_replies > 0,
        "mixed faults fired"
    );
    assert!(stats.retries > 0, "faults forced retries");
    assert!(
        stats.devices_restarted >= 1,
        "the crashed ROADM was replaced"
    );
    assert!(restarted.contains(&DeviceId(3)));
}

#[test]
fn different_seeds_are_still_healed() {
    for seed in [1u64, 2, 3] {
        let (converged, ..) = chaos_run(seed);
        assert!(converged);
    }
}

#[test]
fn empty_fault_plan_means_zero_retries() {
    let (g, ip, cfg) = backbone();
    let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
    let mut ctrl = Controller::build(&g, WssKind::PixelWise, cfg.grid);
    let injector = Arc::new(FaultInjector::new(FaultPlan::none()));
    ctrl.arm_faults(injector.clone());
    assert!(ctrl.apply_plan(&p, &g).is_clean());
    let report = ctrl.converge(8);
    assert!(report.converged);
    assert_eq!(report.passes, 1, "a healthy plane converges in one pass");
    assert_eq!(report.repaired, 0);
    let s = ctrl.stats();
    assert_eq!(s.retries, 0, "no faults, no retries");
    assert_eq!(s.read_repairs, 0);
    assert_eq!(s.breaker_trips, 0);
    assert_eq!(s.devices_restarted, 0);
    let f = injector.stats();
    assert_eq!(
        f.drops + f.delayed_replies + f.rejects + f.crashes + f.stale_reads,
        0
    );
}

#[test]
fn total_blackout_trips_breakers_and_heals_after_lift() {
    let (g, ip, cfg) = backbone();
    let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
    let mut ctrl = Controller::build(&g, WssKind::PixelWise, cfg.grid);
    let injector = Arc::new(FaultInjector::new(FaultPlan::uniform(
        11,
        DeviceFaults {
            drop_prob: 1.0,
            ..Default::default()
        },
    )));
    ctrl.arm_faults(injector.clone());

    let report = ctrl.apply_plan(&p, &g);
    assert!(!report.is_clean(), "nothing gets through a total blackout");
    let mid = ctrl.converge(2);
    assert!(!mid.converged, "cannot converge while every request drops");
    assert!(!ctrl.quarantined().is_empty(), "breakers opened");
    assert!(ctrl.stats().breaker_trips > 0);

    // The outage clears; the self-healing loop finishes the job.
    injector.lift();
    let after = ctrl.converge(64);
    assert!(after.converged, "plane heals once faults lift");
    assert!(ctrl.quarantined().is_empty());
    assert!(ctrl.audit_plan().is_empty());
}

#[test]
fn applied_but_unacknowledged_config_converges_without_repair() {
    // Every reply from ROADM b is delayed past the session timeout: the
    // express lands on the device but the controller never hears the ack.
    // The send must discover the config is already in effect by reading
    // it back instead of failing, and convergence must not re-push it
    // (re-pushing a ROADM express self-conflicts).
    let (g, ip, cfg) = backbone();
    let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
    let roadm_b = DeviceId(3);
    let mut ctrl = Controller::build(&g, WssKind::PixelWise, cfg.grid);
    let injector = Arc::new(FaultInjector::new(FaultPlan::none().device(
        roadm_b,
        DeviceFaults {
            delay_reply_prob: 1.0,
            ..Default::default()
        },
    )));
    ctrl.arm_faults(injector.clone());

    let report = ctrl.apply_plan(&p, &g);
    assert!(
        injector.stats().delayed_replies > 0,
        "acks to ROADM b are lost"
    );
    assert!(report.is_clean(), "{:?}", report.rejections);
    assert!(report.expresses_configured > 0);
    assert_eq!(
        ctrl.stats().read_repairs,
        report.expresses_configured as u64,
        "every express was read back, none re-pushed"
    );

    injector.lift();
    let after = ctrl.converge(8);
    assert!(after.converged);
    assert_eq!(
        after.repaired, 0,
        "the express was already in effect: nothing to re-push"
    );
    assert!(ctrl.audit_plan().is_empty());
}

#[test]
fn breaker_fast_fails_while_open() {
    let (g, ip, cfg) = backbone();
    let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
    let mut ctrl = Controller::build(&g, WssKind::PixelWise, cfg.grid);
    let mux_a = DeviceId(0);
    let injector = Arc::new(FaultInjector::new(FaultPlan::none().device(
        mux_a,
        DeviceFaults {
            drop_prob: 1.0,
            ..Default::default()
        },
    )));
    ctrl.arm_faults(injector);
    assert_eq!(ctrl.breaker_state(mux_a), BreakerState::Closed);

    // Two apply passes accumulate enough consecutive failed sends to MUX a
    // to cross BREAKER_THRESHOLD (each pass sends it a port per wavelength
    // terminating at site a).
    let _ = ctrl.apply_plan(&p, &g);
    let _ = ctrl.apply_plan(&p, &g);
    assert_eq!(
        ctrl.breaker_state(mux_a),
        BreakerState::Open,
        "persistent failure opens"
    );
    assert_eq!(ctrl.quarantined(), vec![mux_a]);
    let sends_before = ctrl.stats().sends;
    let retries_before = ctrl.stats().retries;
    // Another apply: sends to the quarantined MUX fail fast, no retries.
    let _ = ctrl.apply_plan(&p, &g);
    assert!(ctrl.stats().sends > sends_before);
    let new_retries = ctrl.stats().retries - retries_before;
    // Retries happened only against healthy devices (none are faulted).
    assert_eq!(
        new_retries, 0,
        "open breaker must fast-fail without retrying"
    );
}

/// A crashed device's requests are session failures, not injector
/// decisions: [`FaultStats`] counts only what the injector decided about
/// live devices, the session's failure counters count the crashed
/// device's requests as `kind="unreachable"`, and they draw nothing from
/// the injector's RNG (the verdicts after the restart are those of a run
/// that never sent them).
#[test]
fn a_crashed_devices_requests_are_unreachable_failures_not_faults() {
    let faults = DeviceFaults {
        crash_after: Some(0),
        drop_prob: 0.5,
        stale_state_prob: 0.5,
        ..Default::default()
    };
    let clear = vendor::encode(
        Vendor::VendorA,
        &StandardConfig::MuxPort {
            port: 0,
            passband: None,
        },
    );
    // Crash the MUX on its first edit-config, send `while_down` requests
    // of each kind to the dead device, restart it, then send 20 more.
    let run = |while_down: u64| {
        let obs = Obs::new();
        let injector = Arc::new(FaultInjector::new(FaultPlan::uniform(9, faults.clone())));
        let mut devmgr = DevMgr::default();
        devmgr.arm_obs(obs.clone());
        devmgr.arm_faults(injector.clone());
        let id = devmgr.register(
            Vendor::VendorA,
            DeviceKind::Mux,
            NodeId(0),
            Hardware::Mux(Mux::new(WssKind::PixelWise, SpectrumGrid::new(64), 4)),
        );
        let session = &devmgr.device(id).expect("registered").session;
        assert_eq!(session.edit_config(clear), Err(SessionError::Unreachable));
        let at_crash = injector.stats();
        assert_eq!(at_crash.crashes, 1);
        for _ in 0..while_down {
            assert_eq!(session.edit_config(clear), Err(SessionError::Unreachable));
            assert_eq!(session.get_state().err(), Some(SessionError::Unreachable));
        }
        assert_eq!(injector.stats(), at_crash, "a dead device moved FaultStats");
        let device = id.0.to_string();
        let unreachable = |metric: &str| {
            obs.registry()
                .counter_with(metric, &[("device", &device), ("kind", "unreachable")])
                .get()
        };
        assert_eq!(unreachable("netconf_edit_failures_total"), 1 + while_down);
        assert_eq!(unreachable("netconf_get_state_failures_total"), while_down);

        devmgr.reset_device(id).expect("registered");
        let session = &devmgr.device(id).expect("registered").session;
        let verdicts: Vec<(bool, bool)> = (0..20)
            .map(|_| {
                (
                    session.edit_config(clear).is_ok(),
                    session.get_state().is_ok(),
                )
            })
            .collect();
        (verdicts, injector.stats())
    };
    let (verdicts, stats) = run(5);
    assert_eq!((verdicts, stats.clone()), run(0));
    assert_eq!(stats.crashes, 1, "the crash is one-shot");
    assert!(stats.drops > 0, "the restarted device is faulted again");
}

/// One seeded run that mixes every device verdict in a single
/// [`FaultPlan`] — request drops, delayed replies, a rejecting boot, stale
/// state reads, an immediate crash and a mid-life crash — through
/// `apply_plan` → `converge` → a cut/repair cycle → `converge`, rendered
/// as text: controller and injector counters, the apply report, every
/// tick outcome and the passbands left on the devices. The other tests exercise each
/// verdict alone; this one pins their interleaving.
fn interleaved_chaos_run() -> String {
    use std::fmt::Write;

    let (g, ip, cfg) = backbone();
    let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
    let primary = p.wavelengths[0].path.edges[0];
    let mut ctrl = Controller::build(&g, WssKind::PixelWise, cfg.grid);
    let mixed = DeviceFaults {
        drop_prob: 0.25,
        delay_reply_prob: 0.2,
        stale_state_prob: 0.2,
        ..Default::default()
    };
    let fault_plan = FaultPlan::uniform(0x5AFE_7E5B, mixed.clone())
        // MUX a boots slow: its first two edit-configs bounce.
        .device(
            DeviceId(0),
            DeviceFaults {
                reject_first: 2,
                ..mixed.clone()
            },
        )
        // ROADM b crashes on its first express edit…
        .device(
            DeviceId(3),
            DeviceFaults {
                crash_after: Some(0),
                ..mixed.clone()
            },
        )
        // …and MUX b — both ends of the cut fiber's restoration pass it,
        // so its edits keep coming — after it already holds
        // configuration, so the restart has ledger steps to re-send.
        .device(
            DeviceId(2),
            DeviceFaults {
                crash_after: Some(9),
                ..mixed
            },
        );
    let injector = Arc::new(FaultInjector::new(fault_plan));
    ctrl.arm_faults(injector.clone());

    let applied = ctrl.apply_plan(&p, &g);
    let first = ctrl.converge(64);

    let mut orch = Orchestrator::new(&g, &ip, p.clone(), cfg.clone(), Vec::new());
    let mut store = TelemetryStore::new(30);
    let sim = TelemetrySim::new(&g);
    let mut ticks = Vec::new();
    for (t, cuts) in [
        (1, vec![]),
        (2, vec![primary]),
        (3, vec![]),
        (4, vec![primary]),
        (5, vec![]),
    ] {
        sim.tick(&mut store, t, &cuts);
        ticks.push(orch.tick(&store, &mut ctrl));
    }
    let second = ctrl.converge(64);
    // Read the plane back as it is, not as the injector would show it.
    injector.lift();

    let mut out = String::new();
    writeln!(out, "ctrl {:?}", ctrl.stats()).unwrap();
    writeln!(out, "faults {:?}", injector.stats()).unwrap();
    writeln!(
        out,
        "apply transponders {} mux {} express {} rejections {:?}",
        applied.transponders_configured,
        applied.mux_ports_configured,
        applied.expresses_configured,
        applied.rejections
    )
    .unwrap();
    for c in [&first, &second] {
        writeln!(
            out,
            "converge passes {} repaired {} restarted {:?} converged {}",
            c.passes, c.repaired, c.restarted, c.converged
        )
        .unwrap();
    }
    for t in &ticks {
        writeln!(out, "tick {t:?}").unwrap();
    }
    writeln!(
        out,
        "restoration live {} ledger {}",
        orch.live_restoration().len(),
        ctrl.lightpaths().count()
    )
    .unwrap();
    let mut live: Vec<(NodeId, Vec<(u32, u16)>)> = live_passbands(&ctrl)
        .into_iter()
        .map(|(site, pbs)| {
            let mut pbs: Vec<(u32, u16)> =
                pbs.iter().map(|r| (r.start, r.width.pixels())).collect();
            pbs.sort();
            (site, pbs)
        })
        .collect();
    live.sort();
    writeln!(out, "live {live:?}").unwrap();
    out
}

#[test]
fn interleaved_verdicts_replay_the_pinned_run() {
    let run = interleaved_chaos_run();
    assert_eq!(run, interleaved_chaos_run(), "same seed, same run");
    let faults = run.lines().nth(1).unwrap();
    for fired in [
        "drops",
        "delayed_replies",
        "rejects",
        "crashes",
        "stale_reads",
    ] {
        assert!(
            !faults.contains(&format!("{fired}: 0,")),
            "{fired} never fired: {faults}"
        );
    }
    assert_eq!(run, PINNED_INTERLEAVED_RUN, "\n{run}");
}

/// What [`interleaved_chaos_run`] produced with the lightpath ledger as
/// the one record of intent: reconcile re-lights recorded ports and
/// repairs transponders, lost reads are asked again, and a restarted
/// device is re-lit by reconcile (the second converge restarts MUX b
/// and repairs three steps); any device-plane change must reproduce it. The
/// last tick's release dies with MUX b and rolls back, so one restoration
/// lightpath is still live — on the orchestrator's list and on the
/// ledger — when the final converge heals the plane around it.
const PINNED_INTERLEAVED_RUN: &str = "\
ctrl CtrlStats { sends: 44, retries: 36, read_repairs: 2, breaker_trips: 2, devices_restarted: 2 }\n\
faults FaultStats { delivered: 141, drops: 58, delayed_replies: 8, rejects: 2, crashes: 2, stale_reads: 22, events_dropped: 0, events_duplicated: 0, events_reordered: 0, events_stale: 0 }\n\
apply transponders 6 mux 4 express 0 rejections [(DeviceId(0), \"injected fault: edit-config rejected\"), (DeviceId(3), \"device unreachable after 4 attempts\"), (DeviceId(0), \"injected fault: edit-config rejected\")]\n\
converge passes 4 repaired 3 restarted [DeviceId(3)] converged true\n\
converge passes 2 repaired 3 restarted [DeviceId(2)] converged true\n\
tick Quiet\n\
tick Restored { cuts: [EdgeId(4)], lost_gbps: 500, revived_gbps: 500, apply_rejections: 0 }\n\
tick Repaired { fibers: [EdgeId(4)], retired: 1, re_restored: 0 }\n\
tick Restored { cuts: [EdgeId(4)], lost_gbps: 500, revived_gbps: 500, apply_rejections: 0 }\n\
tick Repaired { fibers: [EdgeId(4)], retired: 0, re_restored: 0 }\n\
restoration live 1 ledger 4\n\
live [(NodeId(0), [(0, 8), (8, 6)]), (NodeId(1), [(0, 7), (0, 8), (0, 8), (8, 6), (8, 7)]), (NodeId(2), [(0, 8), (8, 7), (8, 7)]), (NodeId(3), [(0, 7), (8, 7)])]\n\
";

// ---------------------------------------------------------------------------
// Orchestrator-tick idempotence under faulty telemetry delivery: the
// store drops duplicate and stale samples instead of asserting, so the
// closed loop never double-restores a cut and never un-restores one on
// the strength of old data.
// ---------------------------------------------------------------------------

/// Shared setup: plan the backbone, build the device plane, return the
/// closed-loop pieces plus the first planned fiber (the cut target).
fn closed_loop<'a>(
    g: &'a Graph,
    ip: &'a IpTopology,
    cfg: &PlannerConfig,
) -> (
    Controller,
    Orchestrator<'a>,
    TelemetryStore,
    flexwan::topo::graph::EdgeId,
) {
    let p = plan(Scheme::FlexWan, g, ip, cfg);
    let primary = p.wavelengths[0].path.edges[0];
    let ctrl = Controller::build(g, WssKind::PixelWise, cfg.grid);
    let orch = Orchestrator::new(g, ip, p, cfg.clone(), Vec::new());
    let store = TelemetryStore::new(30);
    (ctrl, orch, store, primary)
}

#[test]
fn duplicate_cut_telemetry_never_double_restores() {
    let (g, ip, cfg) = backbone();
    let (mut ctrl, mut orch, mut store, primary) = closed_loop(&g, &ip, &cfg);
    let sim = TelemetrySim::new(&g);

    sim.tick(&mut store, 1, &[]);
    assert_eq!(orch.tick(&store, &mut ctrl), TickOutcome::Quiet);

    sim.tick(&mut store, 2, &[primary]);
    let restored = match orch.tick(&store, &mut ctrl) {
        TickOutcome::Restored { revived_gbps, .. } => revived_gbps,
        other => panic!("expected restoration, got {other:?}"),
    };
    assert!(restored > 0);
    let live_before = orch.live_restoration().to_vec();

    // The transport redelivers tick 2's samples verbatim (duplicate) and
    // tick 1's healthy samples (stale). The store drops both classes;
    // the next orchestrator tick must be a no-op, not a second
    // restoration and not a spurious repair.
    for fiber in 0..g.num_edges() {
        let fiber = flexwan::topo::graph::EdgeId(fiber as u32);
        store.ingest(TelemetrySample {
            fiber,
            tick: 2,
            rx_power_dbm: if fiber == primary { -60.0 } else { -3.0 },
        });
        store.ingest(TelemetrySample {
            fiber,
            tick: 1,
            rx_power_dbm: -3.0,
        });
    }
    assert!(
        store.stale_dropped() > 0,
        "store must count dropped samples"
    );
    assert_eq!(orch.tick(&store, &mut ctrl), TickOutcome::Quiet);
    assert_eq!(
        orch.live_restoration(),
        &live_before[..],
        "duplicate telemetry changed the restoration set"
    );

    // The cut persisting across later ticks is equally idempotent.
    sim.tick(&mut store, 3, &[primary]);
    assert_eq!(orch.tick(&store, &mut ctrl), TickOutcome::Quiet);
}

#[test]
fn stale_healthy_sample_does_not_unrestore_a_cut() {
    let (g, ip, cfg) = backbone();
    let (mut ctrl, mut orch, mut store, primary) = closed_loop(&g, &ip, &cfg);
    let sim = TelemetrySim::new(&g);

    // Healthy history, then the cut.
    for t in 1..=4 {
        sim.tick(&mut store, t, &[]);
        orch.tick(&store, &mut ctrl);
    }
    sim.tick(&mut store, 5, &[primary]);
    assert!(matches!(
        orch.tick(&store, &mut ctrl),
        TickOutcome::Restored { .. }
    ));

    // A healthy reading from BEFORE the cut arrives late. If the store
    // accepted it as current, the detector would see a repair and the
    // orchestrator would tear down a restoration that is still needed.
    store.ingest(TelemetrySample {
        fiber: primary,
        tick: 3,
        rx_power_dbm: -3.0,
    });
    assert_eq!(orch.tick(&store, &mut ctrl), TickOutcome::Quiet);
    assert!(
        !orch.live_restoration().is_empty(),
        "stale healthy sample un-restored a live cut"
    );
    assert!(orch.active_cuts().contains(&primary));
}

#[test]
fn reordered_telemetry_converges_to_the_newest_tick() {
    let (g, ip, cfg) = backbone();
    let (mut ctrl, mut orch, mut store, primary) = closed_loop(&g, &ip, &cfg);
    let sim = TelemetrySim::new(&g);

    sim.tick(&mut store, 1, &[]);
    orch.tick(&store, &mut ctrl);
    sim.tick(&mut store, 2, &[primary]);
    assert!(matches!(
        orch.tick(&store, &mut ctrl),
        TickOutcome::Restored { .. }
    ));

    // Ticks 4 (repaired) and 3 (still cut) arrive out of order. The
    // store keeps tick 4 and drops tick 3 as stale, so the loop sees
    // exactly one repair and no cut/repair flapping.
    sim.tick(&mut store, 4, &[]);
    sim.tick(&mut store, 3, &[primary]);
    match orch.tick(&store, &mut ctrl) {
        TickOutcome::Repaired { fibers, .. } => assert_eq!(fibers, vec![primary]),
        other => panic!("expected repair, got {other:?}"),
    }
    assert!(orch.live_restoration().is_empty());
    assert_eq!(orch.tick(&store, &mut ctrl), TickOutcome::Quiet);
}
