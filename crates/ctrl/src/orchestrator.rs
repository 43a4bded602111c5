//! The closed loop of §4.4: telemetry → fiber-cut detection → optical
//! restoration → device configuration.
//!
//! "Once an optical failure happens, the optical TopoMgr will notify the
//! optical restoration module to generate the optimal restoration plan."
//! The [`Orchestrator`] owns that loop: each telemetry tick it runs the
//! cut detector; whenever the set of cut fibers changes it computes the
//! restoration wanted now (the §8 algorithm over the live plan and every
//! fiber still cut; nothing once all are back) and moves the device
//! plane from the restoration that is live to that one — releasing what
//! left, lighting what arrived, atomically per wavelength, and leaving
//! what stayed alone.
//!
//! The plan an orchestrator guards never changes, so it builds the plan's
//! restoration [`Footprint`] once, in [`Orchestrator::new`]: every tick
//! restores against it ([`PlanCtx::restore_against`]) and a cut costs
//! the wavelengths it severs, not a rescan of the plan and a rebuild of
//! its spectrum.

use std::collections::BTreeSet;

use flexwan_core::planning::{Plan, PlanCtx, PlannerConfig};
use flexwan_core::restore::{FailureScenario, Footprint};
use flexwan_core::Wavelength;
use flexwan_obs::Obs;
use flexwan_topo::graph::{EdgeId, Graph};
use flexwan_topo::ip::IpTopology;

use crate::controller::Controller;
use crate::datastream::{FiberCutDetector, TelemetryStore};

/// What the orchestrator did on one tick. A tick that changes the cut
/// set re-plans restoration for *every* fiber still cut and applies the
/// difference to what is live, so when cuts overlap the capacity figures
/// are totals over the standing cuts while the wavelength counts are what
/// this tick moved.
#[derive(Debug, Clone, PartialEq)]
pub enum TickOutcome {
    /// Telemetry healthy, nothing to do.
    Quiet,
    /// New cuts detected (fibers repaired on the same tick, if any, are
    /// not reported) and restoration applied.
    Restored {
        /// The newly cut fibers.
        cuts: Vec<EdgeId>,
        /// Capacity down across every fiber cut now, Gbps — not only
        /// this tick's `cuts`.
        lost_gbps: u64,
        /// Capacity the restoration plan revives across every fiber cut
        /// now, Gbps, including what earlier ticks already lit.
        revived_gbps: u64,
        /// Wavelengths this tick tried to light that the device plane
        /// rejected (should be none); what stayed live is not re-pushed.
        apply_rejections: usize,
    },
    /// Previously cut fibers recovered and no new cut arrived.
    Repaired {
        /// The fibers that came back.
        fibers: Vec<EdgeId>,
        /// Restoration wavelengths released on this tick (spectrum, MUX
        /// ports and transponders returned): all of them on a full
        /// repair, on a partial one those the surviving cuts' restoration
        /// no longer contains.
        retired: usize,
        /// Restoration wavelengths lit on this tick for fibers still cut.
        /// Those that stayed live across a partial repair count in
        /// neither field.
        re_restored: usize,
    },
}

/// The telemetry-driven restoration loop.
pub struct Orchestrator<'a> {
    optical: &'a Graph,
    ip: &'a IpTopology,
    cfg: PlannerConfig,
    plan: Plan,
    /// What a cut can take from `plan`, built once.
    footprint: Footprint,
    extra_spares: Vec<u32>,
    /// Fibers currently believed cut.
    active_cuts: BTreeSet<EdgeId>,
    /// Restoration wavelengths currently live.
    restoration: Vec<Wavelength>,
    scenario_counter: usize,
    obs: Option<Obs>,
}

impl<'a> Orchestrator<'a> {
    /// An orchestrator guarding `plan`.
    ///
    /// # Panics
    /// As [`Footprint::new`]: if two of `plan`'s wavelengths share a
    /// pixel of a fiber.
    pub fn new(
        optical: &'a Graph,
        ip: &'a IpTopology,
        plan: Plan,
        cfg: PlannerConfig,
        extra_spares: Vec<u32>,
    ) -> Self {
        Orchestrator {
            optical,
            ip,
            footprint: Footprint::new(&plan, optical, &cfg),
            cfg,
            plan,
            extra_spares,
            active_cuts: BTreeSet::new(),
            restoration: Vec::new(),
            scenario_counter: 0,
            obs: None,
        }
    }

    /// Arms the orchestrator with an observability bundle: each tick
    /// records a span plus restoration/repair counters and the
    /// active-cut gauge.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = Some(obs);
    }

    /// The restoration wavelengths currently live.
    pub fn live_restoration(&self) -> &[Wavelength] {
        &self.restoration
    }

    /// Fibers currently believed cut.
    pub fn active_cuts(&self) -> &BTreeSet<EdgeId> {
        &self.active_cuts
    }

    /// Processes one telemetry tick: detect state changes and react.
    /// `controller` receives the resulting device configuration.
    pub fn tick(&mut self, store: &TelemetryStore, controller: &mut Controller) -> TickOutcome {
        let span = self.obs.as_ref().map(|o| o.span("orch.tick"));
        let start = self.obs.as_ref().map(|o| o.now_ns());
        let outcome = self.tick_inner(store, controller, span.as_ref());
        if let (Some(obs), Some(span), Some(start)) = (&self.obs, &span, start) {
            let reg = obs.registry();
            match &outcome {
                TickOutcome::Quiet => span.field("outcome", "quiet"),
                TickOutcome::Restored {
                    cuts,
                    lost_gbps,
                    revived_gbps,
                    apply_rejections,
                } => {
                    span.field("outcome", "restored");
                    span.field("cuts", cuts.len());
                    span.field("lost_gbps", *lost_gbps);
                    span.field("revived_gbps", *revived_gbps);
                    reg.counter("orchestrator_restorations_total").inc();
                    reg.counter("orchestrator_revived_gbps_total")
                        .add(*revived_gbps);
                    reg.counter("orchestrator_apply_rejections_total")
                        .add(*apply_rejections as u64);
                }
                TickOutcome::Repaired {
                    fibers,
                    retired,
                    re_restored,
                } => {
                    span.field("outcome", "repaired");
                    span.field("fibers", fibers.len());
                    span.field("retired", *retired);
                    span.field("re_restored", *re_restored);
                    reg.counter("orchestrator_repairs_total").inc();
                }
            }
            reg.gauge("orchestrator_active_cuts")
                .set(self.active_cuts.len() as f64);
            obs.observe_since("orchestrator_tick_seconds", start);
        }
        outcome
    }

    fn tick_inner(
        &mut self,
        store: &TelemetryStore,
        controller: &mut Controller,
        span: Option<&flexwan_obs::Span>,
    ) -> TickOutcome {
        // Telemetry for a fiber the graph does not have is malformed, not
        // a cut: dropped here, as the churn service drops it at ingest.
        let known = |f: &EdgeId| (f.0 as usize) < self.optical.num_edges();
        let flagged: BTreeSet<EdgeId> = FiberCutDetector
            .scan(store)
            .into_iter()
            .filter(known)
            .collect();
        let repaired: Vec<EdgeId> = self.active_cuts.difference(&flagged).copied().collect();
        let new_cuts: Vec<EdgeId> = flagged.difference(&self.active_cuts).copied().collect();
        if repaired.is_empty() && new_cuts.is_empty() {
            return TickOutcome::Quiet;
        }
        self.active_cuts = flagged;

        // The restoration wanted now: over every fiber still cut, or
        // nothing once all are back (the plan's own wavelengths resume).
        let wanted = (!self.active_cuts.is_empty()).then(|| {
            self.scenario_counter += 1;
            let scenario = FailureScenario {
                id: self.scenario_counter,
                cuts: self.active_cuts.iter().copied().collect(),
                probability: 1.0,
            };
            let plan_span = span.map(|s| s.child("orch.restore_plan"));
            let r = PlanCtx::new(self.optical, &self.cfg).restore_against(
                &mut self.footprint,
                &self.plan,
                self.ip,
                &scenario,
                &self.extra_spares,
            );
            if let Some(p) = &plan_span {
                p.field("restored", r.restored.len());
            }
            r
        });
        let target: Vec<&Wavelength> = wanted
            .iter()
            .flat_map(|r| r.restored.iter().map(|rw| &rw.wavelength))
            .collect();

        // Live → wanted is one difference. Release what left first, so
        // its spectrum and ports are free for what arrives…
        let mut retired = 0;
        for w in std::mem::take(&mut self.restoration) {
            if !target.contains(&&w) && controller.release_wavelength_atomic(&w).is_ok() {
                retired += 1;
            } else {
                // Stayed — or its release rolled back to fully lit, and
                // the next tick that changes the cut set retries it.
                self.restoration.push(w);
            }
        }
        // …then light what arrived; what stayed is not sent again.
        let stayed = self.restoration.len();
        let mut apply_rejections = 0;
        for w in target {
            if self.restoration[..stayed].contains(w) {
                continue;
            }
            match controller.apply_wavelength_atomic(w) {
                Ok(_) => self.restoration.push(w.clone()),
                Err(_) => apply_rejections += 1,
            }
        }
        match wanted {
            Some(r) if !new_cuts.is_empty() => TickOutcome::Restored {
                cuts: new_cuts,
                lost_gbps: r.affected_gbps,
                revived_gbps: r.restored_gbps,
                apply_rejections,
            },
            _ => TickOutcome::Repaired {
                fibers: repaired,
                retired,
                re_restored: self.restoration.len() - stayed,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datastream::TelemetrySim;
    use flexwan_core::planning::plan;
    use flexwan_core::Scheme;
    use flexwan_optical::spectrum::SpectrumGrid;
    use flexwan_optical::WssKind;
    use flexwan_topo::graph::Graph;

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
            grid: SpectrumGrid::new(96),
            ..Default::default()
        };
        (g, ip, cfg)
    }

    #[test]
    fn cut_restore_repair_cycle() {
        let (g, ip, cfg) = world();
        let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
        let primary = p.wavelengths[0].path.edges[0];
        let mut ctrl = Controller::build(&g, WssKind::PixelWise, cfg.grid);
        let mut orch = Orchestrator::new(&g, &ip, p, cfg, Vec::new());
        let sim = TelemetrySim::new(&g);
        let mut store = TelemetryStore::new(30);

        // Healthy ticks.
        for t in 0..5 {
            sim.tick(&mut store, t, &[]);
            assert_eq!(orch.tick(&store, &mut ctrl), TickOutcome::Quiet);
        }
        // The backhoe strikes.
        sim.tick(&mut store, 5, &[primary]);
        match orch.tick(&store, &mut ctrl) {
            TickOutcome::Restored {
                cuts,
                lost_gbps,
                revived_gbps,
                apply_rejections,
            } => {
                assert_eq!(cuts, vec![primary]);
                assert_eq!(lost_gbps, 300);
                assert_eq!(revived_gbps, 300, "FlexWAN revives fully (§3.3)");
                assert_eq!(apply_rejections, 0);
            }
            other => panic!("expected restoration, got {other:?}"),
        }
        assert_eq!(orch.live_restoration().len(), 1);
        assert!(!orch.live_restoration()[0].path.uses_edge(primary));

        // Sustained outage: no duplicate restoration.
        sim.tick(&mut store, 6, &[primary]);
        assert_eq!(orch.tick(&store, &mut ctrl), TickOutcome::Quiet);
        assert_eq!(orch.live_restoration().len(), 1);

        // Repair.
        sim.tick(&mut store, 7, &[]);
        match orch.tick(&store, &mut ctrl) {
            TickOutcome::Repaired {
                fibers,
                retired,
                re_restored,
            } => {
                assert_eq!(fibers, vec![primary]);
                assert_eq!(retired, 1);
                assert_eq!(re_restored, 0);
            }
            other => panic!("expected repair, got {other:?}"),
        }
        assert!(orch.active_cuts().is_empty());
        assert!(orch.live_restoration().is_empty());
    }

    #[test]
    fn cut_repair_cut_of_same_fiber_leaks_nothing() {
        // The satellite regression: churn the same fiber through many
        // cut → repair cycles. Every cycle must restore afresh (the
        // repair released the previous restoration's spectrum and MUX
        // ports back to the pool) — before the release path existed the
        // monotonic port counter exhausted the 64-port site MUX.
        let (g, ip, cfg) = world();
        let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
        let primary = p.wavelengths[0].path.edges[0];
        let mut ctrl = Controller::build(&g, WssKind::PixelWise, cfg.grid);
        let mut orch = Orchestrator::new(&g, &ip, p, cfg, Vec::new());
        let sim = TelemetrySim::new(&g);
        let mut store = TelemetryStore::new(30);
        let mut t = 0;
        sim.tick(&mut store, t, &[]);
        assert_eq!(orch.tick(&store, &mut ctrl), TickOutcome::Quiet);
        for cycle in 0..80 {
            t += 1;
            sim.tick(&mut store, t, &[primary]);
            match orch.tick(&store, &mut ctrl) {
                TickOutcome::Restored {
                    revived_gbps,
                    apply_rejections,
                    ..
                } => {
                    assert_eq!(revived_gbps, 300, "cycle {cycle}: revival degraded");
                    assert_eq!(apply_rejections, 0, "cycle {cycle}: device plane leaked");
                }
                other => panic!("cycle {cycle}: expected restoration, got {other:?}"),
            }
            assert_eq!(orch.live_restoration().len(), 1);
            t += 1;
            sim.tick(&mut store, t, &[]);
            match orch.tick(&store, &mut ctrl) {
                TickOutcome::Repaired {
                    retired,
                    re_restored,
                    ..
                } => {
                    assert_eq!(retired, 1, "cycle {cycle}");
                    assert_eq!(re_restored, 0, "cycle {cycle}");
                }
                other => panic!("cycle {cycle}: expected repair, got {other:?}"),
            }
            assert!(orch.active_cuts().is_empty(), "cycle {cycle}");
            assert!(orch.live_restoration().is_empty(), "cycle {cycle}");
        }
    }

    #[test]
    fn partial_repair_re_restores_surviving_cut() {
        // Two fibers cut; one comes back. The repair must not strand the
        // still-cut fiber without restoration (the old early return
        // cleared everything and forgot the survivor).
        let (g, ip, cfg) = world();
        let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
        let primary = p.wavelengths[0].path.edges[0];
        let spare = EdgeId(1); // carries no planned traffic
        let mut ctrl = Controller::build(&g, WssKind::PixelWise, cfg.grid);
        let mut orch = Orchestrator::new(&g, &ip, p, cfg, Vec::new());
        let sim = TelemetrySim::new(&g);
        let mut store = TelemetryStore::new(30);
        sim.tick(&mut store, 0, &[]);
        assert_eq!(orch.tick(&store, &mut ctrl), TickOutcome::Quiet);
        sim.tick(&mut store, 1, &[primary, spare]);
        match orch.tick(&store, &mut ctrl) {
            // Both the working fiber and the only detour are down:
            // nothing can be revived yet.
            TickOutcome::Restored { revived_gbps, .. } => assert_eq!(revived_gbps, 0),
            other => panic!("expected restoration, got {other:?}"),
        }
        assert!(orch.live_restoration().is_empty());
        // The spare repairs; primary stays cut — and its repair is what
        // makes the detour restorable again.
        sim.tick(&mut store, 2, &[primary]);
        match orch.tick(&store, &mut ctrl) {
            TickOutcome::Repaired {
                fibers,
                retired,
                re_restored,
            } => {
                assert_eq!(fibers, vec![spare]);
                assert_eq!(retired, 0, "nothing was live to retire");
                assert_eq!(re_restored, 1, "surviving cut must get restored");
            }
            other => panic!("expected partial repair, got {other:?}"),
        }
        assert_eq!(orch.active_cuts().len(), 1);
        assert!(orch.active_cuts().contains(&primary));
        assert_eq!(orch.live_restoration().len(), 1);
        assert!(!orch.live_restoration()[0].path.uses_edge(primary));
    }

    #[test]
    fn repair_and_new_cut_on_the_same_tick() {
        // The repaired fiber's restoration is released and the new cut is
        // restored in one tick — the old repair-first early return would
        // have skipped the new cut entirely until the next tick.
        let (g, ip, cfg) = world();
        let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
        let primary = p.wavelengths[0].path.edges[0];
        let spare = EdgeId(1);
        let mut ctrl = Controller::build(&g, WssKind::PixelWise, cfg.grid);
        let mut orch = Orchestrator::new(&g, &ip, p, cfg, Vec::new());
        let sim = TelemetrySim::new(&g);
        let mut store = TelemetryStore::new(30);
        sim.tick(&mut store, 0, &[]);
        assert_eq!(orch.tick(&store, &mut ctrl), TickOutcome::Quiet);
        sim.tick(&mut store, 1, &[spare]);
        assert!(matches!(
            orch.tick(&store, &mut ctrl),
            TickOutcome::Restored { .. }
        ));
        // spare repairs exactly as primary goes down.
        sim.tick(&mut store, 2, &[primary]);
        match orch.tick(&store, &mut ctrl) {
            TickOutcome::Restored {
                cuts, revived_gbps, ..
            } => {
                assert_eq!(cuts, vec![primary]);
                assert_eq!(revived_gbps, 300);
            }
            other => panic!("expected restoration, got {other:?}"),
        }
        assert_eq!(orch.active_cuts().len(), 1);
        assert!(orch.active_cuts().contains(&primary));
    }

    /// Two triangles that share nothing: link a–b detours over c, link
    /// d–e over f.
    fn two_islands() -> (Graph, IpTopology, PlannerConfig, [EdgeId; 2]) {
        let mut g = Graph::new();
        let n: Vec<_> = ["a", "b", "c", "d", "e", "f"].map(|s| g.add_node(s)).into();
        let mut ip = IpTopology::new();
        let mut primaries = [EdgeId(0); 2];
        for (island, primary) in primaries.iter_mut().enumerate() {
            let (x, y, z) = (n[3 * island], n[3 * island + 1], n[3 * island + 2]);
            *primary = g.add_edge(x, y, 300);
            g.add_edge(x, z, 300);
            g.add_edge(z, y, 300);
            ip.add_link(x, y, 300);
        }
        let cfg = PlannerConfig {
            grid: SpectrumGrid::new(96),
            ..Default::default()
        };
        (g, ip, cfg, primaries)
    }

    /// Every MUX and ROADM of the plane with what it holds.
    fn line_system(ctrl: &Controller) -> Vec<(crate::DeviceId, crate::Hardware)> {
        let held = |id| {
            let handle = ctrl.devmgr.device(id).expect("listed");
            (id, handle.session.get_state().expect("unfaulted").hardware)
        };
        let all = ctrl.devmgr.ids().into_iter().map(held);
        all.filter(|(_, hw)| !matches!(hw, crate::Hardware::Transponder(_)))
            .collect()
    }

    #[test]
    fn second_cut_lights_only_its_own_restoration() {
        // A second cut arriving while the first is live used to re-push
        // the first cut's restoration: its express at c bounced off
        // itself (one rejection), and a detour without a ROADM on the way
        // would have been lit twice.
        let (g, ip, cfg, [ab, de]) = two_islands();
        let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
        let mut ctrl = Controller::build(&g, WssKind::PixelWise, cfg.grid);
        let built = ctrl.devmgr.len();
        let mut orch = Orchestrator::new(&g, &ip, p, cfg, Vec::new());
        let sim = TelemetrySim::new(&g);
        let mut store = TelemetryStore::new(30);
        sim.tick(&mut store, 0, &[]);
        assert_eq!(orch.tick(&store, &mut ctrl), TickOutcome::Quiet);
        sim.tick(&mut store, 1, &[ab]);
        assert!(matches!(
            orch.tick(&store, &mut ctrl),
            TickOutcome::Restored {
                apply_rejections: 0,
                revived_gbps: 300,
                ..
            }
        ));
        assert_eq!(ctrl.devmgr.len(), built + 2);
        let first = orch.live_restoration().to_vec();
        let sends = ctrl.stats().sends;

        sim.tick(&mut store, 2, &[ab, de]);
        assert_eq!(
            orch.tick(&store, &mut ctrl),
            TickOutcome::Restored {
                cuts: vec![de],
                // Totals over both standing cuts.
                lost_gbps: 600,
                revived_gbps: 600,
                apply_rejections: 0,
            }
        );
        assert_eq!(
            ctrl.devmgr.len(),
            built + 4,
            "two transponders per new restoration"
        );
        assert_eq!(
            ctrl.stats().sends - sends,
            5,
            "2 line-configs, 2 ports, 1 express"
        );
        assert_eq!(orch.live_restoration().len(), 2);
        assert_eq!(
            orch.live_restoration()[..1],
            first[..],
            "the first stayed as it was"
        );
        // The ledger and the orchestrator agree, nothing is on it twice.
        assert!(ctrl.lightpaths().eq(orch.live_restoration()));
        assert_ne!(orch.live_restoration()[0], orch.live_restoration()[1]);
        assert!(ctrl.audit_plan().is_empty());
    }

    #[test]
    fn partial_repair_sends_nothing_for_restoration_that_stays() {
        let (g, ip, cfg, [ab, de]) = two_islands();
        let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
        let mut ctrl = Controller::build(&g, WssKind::PixelWise, cfg.grid);
        let mut orch = Orchestrator::new(&g, &ip, p, cfg, Vec::new());
        let sim = TelemetrySim::new(&g);
        let mut store = TelemetryStore::new(30);
        sim.tick(&mut store, 0, &[]);
        assert_eq!(orch.tick(&store, &mut ctrl), TickOutcome::Quiet);
        sim.tick(&mut store, 1, &[ab, de]);
        assert!(matches!(
            orch.tick(&store, &mut ctrl),
            TickOutcome::Restored {
                apply_rejections: 0,
                ..
            }
        ));
        let live = orch.live_restoration().to_vec();
        assert_eq!(live.len(), 2);
        let sends = ctrl.stats().sends;

        // d–e comes back, a–b stays cut: one lightpath is released (five
        // sends), the other is not touched — not released, not re-lit.
        sim.tick(&mut store, 2, &[ab]);
        assert_eq!(
            orch.tick(&store, &mut ctrl),
            TickOutcome::Repaired {
                fibers: vec![de],
                retired: 1,
                re_restored: 0,
            }
        );
        assert_eq!(ctrl.stats().sends - sends, 5);
        let stayed: Vec<_> = live
            .into_iter()
            .filter(|w| !w.path.uses_edge(EdgeId(4)))
            .collect();
        assert_eq!(orch.live_restoration(), &stayed[..]);
        assert!(ctrl.lightpaths().eq(orch.live_restoration()));
    }

    #[test]
    fn cut_then_repair_leaves_the_plane_as_apply_plan_left_it() {
        // The safety net for turning restoration into a retune (ROADMAP
        // item 1): whatever a cut tick lights, the repair tick takes back
        // — every MUX and ROADM holds exactly its post-`apply_plan` state
        // and the ledger exactly the plan.
        let (g, ip, cfg, [ab, _]) = two_islands();
        let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
        let mut ctrl = Controller::build(&g, WssKind::PixelWise, cfg.grid);
        assert!(ctrl.apply_plan(&p, &g).is_clean());
        let committed = line_system(&ctrl);
        let devices = ctrl.devmgr.len();
        let mut orch = Orchestrator::new(&g, &ip, p.clone(), cfg, Vec::new());
        let sim = TelemetrySim::new(&g);
        let mut store = TelemetryStore::new(30);
        sim.tick(&mut store, 0, &[]);
        assert_eq!(orch.tick(&store, &mut ctrl), TickOutcome::Quiet);
        sim.tick(&mut store, 1, &[ab]);
        let cut = orch.tick(&store, &mut ctrl);
        let landed = TickOutcome::Restored {
            cuts: vec![ab],
            lost_gbps: 300,
            revived_gbps: 300,
            apply_rejections: 0,
        };
        assert_eq!(cut, landed);
        assert_ne!(
            line_system(&ctrl),
            committed,
            "the restoration is on the devices"
        );
        sim.tick(&mut store, 2, &[]);
        let repair = orch.tick(&store, &mut ctrl);
        assert!(matches!(repair, TickOutcome::Repaired { .. }), "{repair:?}");
        assert_eq!(line_system(&ctrl), committed);
        assert_eq!(ctrl.devmgr.len(), devices);
        assert!(ctrl.lightpaths().eq(&p.wavelengths));
        assert!(ctrl.audit_plan().is_empty());
    }

    #[test]
    fn unaffected_cut_restores_nothing() {
        let (g, ip, cfg) = world();
        let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
        let unused = flexwan_topo::graph::EdgeId(1); // detour fiber, no traffic
        assert!(!p.wavelengths.iter().any(|w| w.path.uses_edge(unused)));
        let mut ctrl = Controller::build(&g, WssKind::PixelWise, cfg.grid);
        let mut orch = Orchestrator::new(&g, &ip, p, cfg, Vec::new());
        let sim = TelemetrySim::new(&g);
        let mut store = TelemetryStore::new(30);
        sim.tick(&mut store, 0, &[]);
        sim.tick(&mut store, 1, &[unused]);
        match orch.tick(&store, &mut ctrl) {
            TickOutcome::Restored {
                lost_gbps,
                revived_gbps,
                ..
            } => {
                assert_eq!(lost_gbps, 0);
                assert_eq!(revived_gbps, 0);
            }
            other => panic!("expected (empty) restoration, got {other:?}"),
        }
        assert!(orch.live_restoration().is_empty());
    }

    /// Telemetry for a fiber the graph lacks is malformed, not a cut: a
    /// ghost's loss of light alone leaves the tick quiet, beside a real
    /// cut only the real fiber is restored around, and the repair retires
    /// that restoration, without a panic. The cut set the restorer sees is
    /// then one conduit of the graph, so its detours are memoized.
    #[test]
    fn a_cut_of_an_unknown_fiber_does_not_panic() {
        use crate::datastream::TelemetrySample;
        let (g, ip, cfg) = world();
        let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
        let primary = p.wavelengths[0].path.edges[0];
        let ghost = EdgeId(g.num_edges() as u32 + 5);
        let mut ctrl = Controller::build(&g, WssKind::PixelWise, cfg.grid);
        assert!(ctrl.apply_plan(&p, &g).is_clean());
        let mut orch = Orchestrator::new(&g, &ip, p, cfg, Vec::new());
        let sim = TelemetrySim::new(&g);
        let mut store = TelemetryStore::new(30);
        let tick = |store: &mut TelemetryStore, t, cuts: &[EdgeId]| {
            sim.tick(store, t, cuts);
            let rx_power_dbm = if cuts.contains(&ghost) { -60.0 } else { -3.0 };
            store.ingest(TelemetrySample {
                fiber: ghost,
                tick: t,
                rx_power_dbm,
            });
        };
        tick(&mut store, 0, &[]);
        assert_eq!(orch.tick(&store, &mut ctrl), TickOutcome::Quiet);
        tick(&mut store, 1, &[ghost]);
        assert_eq!(orch.tick(&store, &mut ctrl), TickOutcome::Quiet);
        assert!(orch.active_cuts().is_empty());
        tick(&mut store, 2, &[ghost, primary]);
        match orch.tick(&store, &mut ctrl) {
            TickOutcome::Restored {
                cuts, lost_gbps, ..
            } => assert_eq!((cuts, lost_gbps), (vec![primary], 300)),
            other => panic!("expected restoration, got {other:?}"),
        }
        assert_eq!(orch.active_cuts(), &BTreeSet::from([primary]));
        assert_eq!(orch.live_restoration().len(), 1);
        tick(&mut store, 3, &[]);
        let repair = orch.tick(&store, &mut ctrl);
        assert!(
            matches!(repair, TickOutcome::Repaired { retired: 1, .. }),
            "{repair:?}"
        );
        assert!(!g.detours(&[primary].into()).unwrap().is_empty());
    }
}
