//! An `Orchestrator` restores every tick against the restoration
//! footprint it built once, in `Orchestrator::new`. On the T-backbone at
//! demand ×1 and ×2 it is driven through overlapping cut, partial-repair
//! and repair ticks beside the loop it ran before, which restored each
//! tick from scratch: every tick answers alike and leaves the same
//! restoration live. (That one standing footprint restores every cut as a
//! fresh one does is `flexwan-core`'s `restore::footprint` unit test.)

use std::collections::BTreeSet;

use flexwan::core::planning::{plan, Plan, PlannerConfig};
use flexwan::core::restore::{conduit_cut_scenarios, restore, FailureScenario};
use flexwan::core::{Scheme, Wavelength};
use flexwan::ctrl::controller::Controller;
use flexwan::ctrl::datastream::{FiberCutDetector, TelemetrySim, TelemetryStore};
use flexwan::ctrl::orchestrator::{Orchestrator, TickOutcome};
use flexwan::topo::continental::ScaleParams;
use flexwan::topo::graph::{EdgeId, Graph};
use flexwan::topo::ip::IpTopology;
use flexwan::topo::tbackbone::{t_backbone, Backbone};
use flexwan_util::rng::ChaCha8Rng;

fn instance() -> (Backbone, PlannerConfig) {
    let cfg = PlannerConfig {
        k_paths: 5,
        ..PlannerConfig::default()
    };
    (t_backbone(&ScaleParams::tbackbone()), cfg)
}

/// The orchestrator loop as it ran before the footprint: detect, restore
/// the standing cut set from scratch, move the device plane from what is
/// live to that.
struct PerCall<'a> {
    optical: &'a Graph,
    ip: &'a IpTopology,
    plan: &'a Plan,
    cfg: &'a PlannerConfig,
    active: BTreeSet<EdgeId>,
    live: Vec<Wavelength>,
}

impl PerCall<'_> {
    fn tick(&mut self, store: &TelemetryStore, ctrl: &mut Controller) -> TickOutcome {
        let flagged: BTreeSet<EdgeId> = FiberCutDetector.scan(store).into_iter().collect();
        let repaired: Vec<EdgeId> = self.active.difference(&flagged).copied().collect();
        let new_cuts: Vec<EdgeId> = flagged.difference(&self.active).copied().collect();
        if repaired.is_empty() && new_cuts.is_empty() {
            return TickOutcome::Quiet;
        }
        self.active = flagged;
        let wanted = (!self.active.is_empty()).then(|| {
            let scenario = FailureScenario {
                id: 0,
                cuts: self.active.iter().copied().collect(),
                probability: 1.0,
            };
            restore(self.plan, self.optical, self.ip, &scenario, &[], self.cfg)
        });
        let target: Vec<&Wavelength> = wanted
            .iter()
            .flat_map(|r| r.restored.iter().map(|rw| &rw.wavelength))
            .collect();
        let mut retired = 0;
        for w in std::mem::take(&mut self.live) {
            if !target.contains(&&w) && ctrl.release_wavelength_atomic(&w).is_ok() {
                retired += 1;
            } else {
                self.live.push(w);
            }
        }
        let stayed = self.live.len();
        let mut apply_rejections = 0;
        for w in target {
            if self.live[..stayed].contains(w) {
                continue;
            }
            match ctrl.apply_wavelength_atomic(w) {
                Ok(_) => self.live.push(w.clone()),
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
                re_restored: self.live.len() - stayed,
            },
        }
    }
}

#[test]
fn an_orchestrator_answers_every_tick_as_per_call_restoration_did() {
    let (tb, cfg) = instance();
    let g = &tb.optical;
    let conduits = conduit_cut_scenarios(g);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    for scale in [1, 2] {
        let ip = tb.ip.scaled(scale);
        let p = plan(Scheme::FlexWan, g, &ip, &cfg);
        let commit = || {
            let mut ctrl = Controller::build(g, Scheme::FlexWan.wss(), cfg.grid);
            assert!(ctrl.apply_plan(&p, g).is_clean());
            ctrl
        };
        let (mut ctrl, mut per_call_ctrl) = (commit(), commit());
        let mut orch = Orchestrator::new(g, &ip, p.clone(), cfg.clone(), Vec::new());
        let mut per_call = PerCall {
            optical: g,
            ip: &ip,
            plan: &p,
            cfg: &cfg,
            active: BTreeSet::new(),
            live: Vec::new(),
        };
        let sim = TelemetrySim::new(g);
        let mut store = TelemetryStore::new(30);
        // Each tick cuts one or two more conduits, repairs one of those
        // down, or repairs all: cuts overlap, repairs are partial, and
        // now and then everything comes back.
        let mut down: BTreeSet<usize> = BTreeSet::new();
        let (mut restored, mut partial, mut full) = (0, 0, 0);
        for tick in 0..60u64 {
            match rng.gen_range(0u32..6) {
                _ if tick == 0 => {}
                0 => down.clear(),
                1 | 2 if !down.is_empty() => {
                    let gone = *down.iter().nth(rng.gen_range(0..down.len())).unwrap();
                    down.remove(&gone);
                }
                _ => {
                    for _ in 0..rng.gen_range(1u32..=2) {
                        down.insert(rng.gen_range(0..conduits.len()));
                    }
                }
            }
            let cuts: Vec<EdgeId> = down
                .iter()
                .flat_map(|&c| conduits[c].cuts.clone())
                .collect();
            sim.tick(&mut store, tick, &cuts);
            let want = per_call.tick(&store, &mut per_call_ctrl);
            let got = orch.tick(&store, &mut ctrl);
            assert_eq!(got, want, "×{scale} tick {tick}: cut {cuts:?}");
            assert_eq!(
                orch.live_restoration(),
                &per_call.live[..],
                "×{scale} tick {tick}"
            );
            match got {
                TickOutcome::Restored { .. } => restored += 1,
                TickOutcome::Repaired { .. } if down.is_empty() => full += 1,
                TickOutcome::Repaired { .. } => partial += 1,
                TickOutcome::Quiet => {}
            }
        }
        assert!(
            restored > 5 && partial > 2 && full > 2,
            "×{scale}: {restored} cut, {partial} partial-repair, {full} repair ticks"
        );
    }
}
