//! A graph's detour memo (`Graph::detours`) changes no restoration. On
//! the T-backbone at demand ×1 and ×2, under every conduit cut, every
//! single fiber and a seeded sample of two-conduit cuts, `restore` with
//! no shared cache — cold memo, then warm — returns what a restoration on
//! a fresh `RouteCache` returns; a second sweep runs Yen's algorithm for
//! no single-conduit cut; and one `Orchestrator` driven over a sweep twice
//! answers both passes alike.

use flexwan::core::planning::{plan, Plan, PlanCtx, PlannerConfig};
use flexwan::core::restore::{
    conduit_cut_scenarios, one_fiber_scenarios, restore, FailureScenario, Restoration,
};
use flexwan::core::{Scheme, Wavelength};
use flexwan::ctrl::controller::Controller;
use flexwan::ctrl::datastream::{TelemetrySim, TelemetryStore};
use flexwan::ctrl::orchestrator::{Orchestrator, TickOutcome};
use flexwan::topo::cache::RouteCache;
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

/// The graph's one detour memo, reached through its first fiber.
fn memo(g: &Graph) -> &RouteCache {
    g.detours(&[EdgeId(0)].into())
        .expect("a fiber is a single-conduit cut")
}

/// `(entries, misses)`: what a Yen run would move.
fn work(memo: &RouteCache) -> (usize, u64) {
    (memo.len(), memo.misses())
}

/// Ten seeded cuts of two whole conduits each, ids after `first_id`.
fn two_conduit_cuts(g: &Graph, first_id: usize) -> Vec<FailureScenario> {
    let conduits = conduit_cut_scenarios(g);
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let mut cuts = Vec::new();
    while cuts.len() < 10 {
        let x = rng.gen_range(0..conduits.len());
        let y = rng.gen_range(0..conduits.len());
        if x != y {
            let mut fibers = conduits[x].cuts.clone();
            fibers.extend(&conduits[y].cuts);
            cuts.push(FailureScenario {
                id: first_id + cuts.len(),
                cuts: fibers,
                probability: 1.0,
            });
        }
    }
    cuts
}

/// Restores every scenario of `cuts` with no shared cache: the memo path
/// for a single-conduit cut, a call-local cache otherwise.
fn through_memo(
    g: &Graph,
    p: &Plan,
    ip: &IpTopology,
    cuts: &[FailureScenario],
    cfg: &PlannerConfig,
) -> Vec<Restoration> {
    cuts.iter()
        .map(|s| restore(p, g, ip, s, &[], cfg))
        .collect()
}

#[test]
fn the_memo_restores_every_cut_as_a_fresh_cache_does() {
    let (tb, cfg) = instance();
    let g = &tb.optical;
    let mut single = conduit_cut_scenarios(g);
    single.extend(one_fiber_scenarios(g));
    let across = two_conduit_cuts(g, single.len());
    assert!(across.iter().all(|s| g.detours(&s.banned()).is_none()));
    let memo = memo(g);
    for scale in [1, 2] {
        let ip = tb.ip.scaled(scale);
        let before = (work(memo), memo.hits());
        let p = plan(Scheme::FlexWan, g, &ip, &cfg);
        assert_eq!(
            (work(memo), memo.hits()),
            before,
            "×{scale}: planning reads no memo"
        );
        for (cuts, memoized) in [(&single, true), (&across, false)] {
            let fresh = |s| {
                let ctx = PlanCtx::new(g, &cfg);
                ctx.sharing(&RouteCache::new()).restore(&p, &ip, s, &[])
            };
            let want: Vec<Restoration> = cuts.iter().map(fresh).collect();
            assert!(want.iter().any(|r| r.restored_gbps > 0));
            let start = (work(memo), memo.hits());
            let cold = through_memo(g, &p, &ip, cuts, &cfg);
            assert_eq!(cold, want, "×{scale}: cold pass");
            let after_cold = (work(memo), memo.hits());
            let warm = through_memo(g, &p, &ip, cuts, &cfg);
            assert_eq!(warm, want, "×{scale}: warm pass");
            assert_eq!(work(memo), after_cold.0, "×{scale}: a second sweep ran Yen");
            if memoized {
                assert!(memo.hits() > after_cold.1, "×{scale}: the warm pass hit");
            } else {
                assert_eq!(
                    (work(memo), memo.hits()),
                    start,
                    "×{scale}: a two-conduit cut"
                );
            }
        }
    }
    // Bounded by the conduits and pairs asked for: every single-conduit
    // cut × every IP link × one depth at most.
    let (entries, misses) = work(memo);
    assert_eq!(entries as u64, misses, "every entry computed once");
    assert!(entries > 0 && entries <= single.len() * tb.ip.num_links());
}

#[test]
fn a_shared_cache_keeps_precedence_over_the_memo() {
    let (tb, cfg) = instance();
    let g = &tb.optical;
    let p = plan(Scheme::FlexWan, g, &tb.ip, &cfg);
    let cache = RouteCache::new();
    let ctx = PlanCtx::new(g, &cfg).sharing(&cache);
    for s in conduit_cut_scenarios(g).iter().take(8) {
        ctx.restore(&p, &tb.ip, s, &[]);
    }
    assert!(cache.misses() > 0);
    assert_eq!(
        work(memo(g)),
        (0, 0),
        "the memo was read beside a shared cache"
    );
}

/// What one orchestrator tick pair reports: the cut tick, the
/// restoration it left live, the repair tick.
type Record = (TickOutcome, Vec<Wavelength>, TickOutcome);

#[test]
fn an_orchestrator_answers_a_repeated_sweep_alike() {
    let (tb, cfg) = instance();
    let g = &tb.optical;
    let p = plan(Scheme::FlexWan, g, &tb.ip, &cfg);
    let mut ctrl = Controller::build(g, Scheme::FlexWan.wss(), cfg.grid);
    assert!(ctrl.apply_plan(&p, g).is_clean());
    let mut orch = Orchestrator::new(g, &tb.ip, p, cfg, Vec::new());
    let sim = TelemetrySim::new(g);
    let mut store = TelemetryStore::new(30);
    let mut tick = 0;
    let mut telemetry = |store: &mut TelemetryStore, cuts: &[EdgeId]| {
        sim.tick(store, tick, cuts);
        tick += 1;
    };
    telemetry(&mut store, &[]);
    assert_eq!(orch.tick(&store, &mut ctrl), TickOutcome::Quiet);
    let mut sweep = conduit_cut_scenarios(g);
    sweep.extend(two_conduit_cuts(g, sweep.len()));
    let mut pass = |orch: &mut Orchestrator, ctrl: &mut Controller| -> Vec<Record> {
        let mut records = Vec::new();
        for s in &sweep {
            telemetry(&mut store, &s.cuts);
            let cut = orch.tick(&store, ctrl);
            let live = orch.live_restoration().to_vec();
            telemetry(&mut store, &[]);
            records.push((cut, live, orch.tick(&store, ctrl)));
        }
        records
    };
    let first = pass(&mut orch, &mut ctrl);
    let warm = work(memo(g));
    assert!(warm.0 > 0);
    let second = pass(&mut orch, &mut ctrl);
    assert_eq!(work(memo(g)), warm, "the second sweep ran Yen");
    assert!(first.iter().any(|(_, live, _)| !live.is_empty()));
    for (i, (a, b)) in first.iter().zip(&second).enumerate() {
        assert_eq!(a, b, "cut {i} ({:?})", sweep[i].cuts);
    }
    assert_eq!(first.len(), second.len());
}
