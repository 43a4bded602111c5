//! Golden-output regression tests: the headline numbers of the paper's
//! evaluation, pinned to checked-in expected files.
//!
//! `paper_claims.rs` asserts *ranges* (orderings, rough factors) so the
//! reproduction tracks the paper's qualitative claims; this suite pins the
//! *exact* values our deterministic pipeline produces on the canonical
//! T-backbone instance. Any change to planning, restoration, the solver,
//! or the topology generator that moves a headline number — even within
//! the qualitative ranges — shows up here as a one-line diff.
//!
//! To bless an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p flexwan --test golden_outputs
//! git diff tests/golden/        # review the number movement, then commit
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use flexwan::core::planning::{percent_saved, plan, PlanCtx, PlanModel, PlannerConfig};
use flexwan::core::restore::{
    choose_spare_pool, conduit_cut_scenarios, one_fiber_scenarios, restore, restore_report,
};
use flexwan::core::Scheme;
use flexwan::optical::spectrum::SpectrumGrid;
use flexwan::solver::SolveOptions;
use flexwan::topo::cache::RouteCache;
use flexwan::topo::continental::ScaleParams;
use flexwan::topo::graph::Graph;
use flexwan::topo::ip::IpTopology;
use flexwan::topo::tbackbone::{t_backbone, Backbone};

fn instance() -> (Backbone, PlannerConfig) {
    (
        t_backbone(&ScaleParams::tbackbone()),
        PlannerConfig {
            k_paths: 5,
            ..PlannerConfig::default()
        },
    )
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `got` against the checked-in golden file, or rewrites the file
/// when `UPDATE_GOLDEN` is set.
fn assert_golden(name: &str, got: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, got).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); bless with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        got,
        want,
        "golden output {} changed; if intentional, re-bless with \
         `UPDATE_GOLDEN=1 cargo test -p flexwan --test golden_outputs` \
         and commit the diff",
        path.display()
    );
}

/// The paper's headline numbers (§7 cost savings, §8 restoration), exact.
#[test]
fn headline_numbers_match_golden() {
    let (b, cfg) = instance();
    let mut out = String::new();
    writeln!(
        out,
        "# Headline numbers, T-backbone default instance, k_paths=5."
    )
    .unwrap();
    writeln!(
        out,
        "# Blessed output of tests/golden_outputs.rs; see that file for how to update."
    )
    .unwrap();

    // §7 / Figure 12: deployed cost per scheme at scale 1.
    let plans: Vec<_> = Scheme::ALL
        .iter()
        .map(|&s| plan(s, &b.optical, &b.ip, &cfg))
        .collect();
    for (scheme, p) in Scheme::ALL.iter().zip(&plans) {
        assert!(p.is_feasible(), "{scheme} must stay feasible at scale 1");
        writeln!(out, "transponders[{scheme}] = {}", p.transponder_count()).unwrap();
        writeln!(
            out,
            "spectrum_ghz[{scheme}] = {:.2}",
            p.spectrum_usage_ghz()
        )
        .unwrap();
    }

    // The headline savings percentages (paper: 85 % / 57 % transponders,
    // 67 % / 36 % spectrum).
    let (fixed, radwan, flex) = (&plans[0], &plans[1], &plans[2]);
    let pct = |baseline: f64, ours: f64| format!("{:.2}", percent_saved(baseline, ours));
    writeln!(
        out,
        "transponder_saving_vs_100g_pct = {}",
        pct(
            fixed.transponder_count() as f64,
            flex.transponder_count() as f64
        )
    )
    .unwrap();
    writeln!(
        out,
        "transponder_saving_vs_radwan_pct = {}",
        pct(
            radwan.transponder_count() as f64,
            flex.transponder_count() as f64
        )
    )
    .unwrap();
    writeln!(
        out,
        "spectrum_saving_vs_100g_pct = {}",
        pct(fixed.spectrum_usage_ghz(), flex.spectrum_usage_ghz())
    )
    .unwrap();
    writeln!(
        out,
        "spectrum_saving_vs_radwan_pct = {}",
        pct(radwan.spectrum_usage_ghz(), flex.spectrum_usage_ghz())
    )
    .unwrap();

    // §8 / Figure 15(b): mean restoration capability under 5x overload,
    // conduit-cut scenario set (paper: FlexWAN +15 % over RADWAN).
    let scenarios = conduit_cut_scenarios(&b.optical);
    let ip5 = b.ip.scaled(5);
    for &scheme in Scheme::ALL.iter() {
        let p = plan(scheme, &b.optical, &ip5, &cfg);
        let results: Vec<_> = scenarios
            .iter()
            .map(|s| (s.probability, restore(&p, &b.optical, &ip5, s, &[], &cfg)))
            .collect();
        let rep = restore_report(&results);
        writeln!(
            out,
            "restore_capability_5x[{scheme}] = {:.4}",
            rep.mean_capability()
        )
        .unwrap();
    }

    // §8 / Figure 15(a): restored paths are longer than the originals
    // (scale 1, FlexWAN). Plan and sweep share one route cache, whose
    // counters are pinned below.
    let cache = RouteCache::new();
    let ctx = PlanCtx::new(&b.optical, &cfg).sharing(&cache);
    let flex = ctx.plan(Scheme::FlexWan, &b.ip);
    let results: Vec<_> = scenarios
        .iter()
        .map(|s| (s.probability, ctx.restore(&flex, &b.ip, s, &[])))
        .collect();
    let rep = restore_report(&results);
    writeln!(
        out,
        "restore_capability_1x[{}] = {:.4}",
        Scheme::FlexWan,
        rep.mean_capability()
    )
    .unwrap();
    writeln!(
        out,
        "restored_paths_longer_fraction = {:.4}",
        rep.fraction_longer()
    )
    .unwrap();
    writeln!(
        out,
        "restored_path_max_length_ratio = {:.4}",
        rep.max_length_ratio()
    )
    .unwrap();

    // Deterministic work counters: a moved count means the route-cache
    // keying or the exact model's γ enumeration changed, not the machine.
    writeln!(
        out,
        "conduit_sweep_route_cache = {} hits / {} misses / {} entries",
        cache.hits(),
        cache.misses(),
        cache.len()
    )
    .unwrap();
    // The standing Algorithm 1 model on the 4-node ring-plus-chord
    // instance, and its single-fiber restoration sweep as warm mutations.
    let (g, ip, ecfg) = exact_instance();
    let opts = SolveOptions {
        max_nodes: 200_000,
        ..Default::default()
    };
    let mut pm = PlanModel::build_restorable(Scheme::FlexWan, &g, &ip, &ecfg);
    pm.solve(&opts).expect("exact instance is feasible");
    let restored: u64 = one_fiber_scenarios(&g)
        .iter()
        .map(|s| {
            pm.restore_after_cut(&g, s, &[], &opts)
                .expect("mutated re-solve")
                .restored_gbps
        })
        .sum();
    writeln!(out, "exact_model_gammas = {}", pm.space().gammas().len()).unwrap();
    writeln!(out, "exact_model_restored_gbps_total = {restored}").unwrap();

    assert_golden("headline_numbers.txt", &out);
}

/// 4-node ring plus chord on a 12-pixel grid: small enough that exact
/// branch & bound over the restorable model stays fast in debug builds.
fn exact_instance() -> (Graph, IpTopology, PlannerConfig) {
    let mut g = Graph::new();
    let a = g.add_node("a");
    let b = g.add_node("b");
    let c = g.add_node("c");
    let d = g.add_node("d");
    g.add_edge(a, b, 420);
    g.add_edge(b, c, 360);
    g.add_edge(c, d, 510);
    g.add_edge(d, a, 280);
    g.add_edge(a, c, 760);
    let mut ip = IpTopology::new();
    ip.add_link(a, b, 300);
    ip.add_link(a, c, 200);
    let cfg = PlannerConfig {
        grid: SpectrumGrid::new(12),
        k_paths: 2,
        ..Default::default()
    };
    (g, ip, cfg)
}

/// The availability surface on the suite backbone, exact: a scenario
/// suite (exhaustive single cuts, sampled 2- and 3-cuts) crossed with
/// demand perturbations and spare budgets under the FlexWAN ladder.
/// Any movement in scenario generation, the restorers, protection, or
/// the budget-allowance fold shows up as a one-line diff.
#[test]
fn availability_surface_matches_golden() {
    use flexwan::core::scenario::{demand_scenarios, scenario_suite, EngineConfig, ScenarioEngine};

    let (b, cfg) = instance();
    // The §8 overloaded regime — same 5x scaling as the headline
    // restoration numbers — so the surface has structure to pin.
    let ip5 = b.ip.scaled(5);
    let suite = scenario_suite(&b.optical, 3, 256, 16, 7);
    let demands = demand_scenarios(&ip5, 2, 0.2, 7);
    let cache = RouteCache::new();
    let ctx = PlanCtx::new(&b.optical, &cfg).sharing(&cache);
    let engine = ScenarioEngine::new(Scheme::FlexWan, ctx, &ip5, EngineConfig::default());
    let surface = engine.evaluate(&suite, &demands);

    let mut out = String::new();
    writeln!(
        out,
        "# Availability surface, T-backbone default instance at 5x, k_paths=5."
    )
    .unwrap();
    writeln!(
        out,
        "# k=1 exhaustive (252 cuts); k=2,3 sampled (16 each, seed 7); 3 demand scenarios."
    )
    .unwrap();
    out.push_str(&surface.render());
    assert_golden("availability_surface.txt", &out);
}

/// Figure 14 shapes as exact numbers: median reach gap and mean spectral
/// efficiency per scheme.
#[test]
fn reach_gap_and_spectral_efficiency_match_golden() {
    let (b, cfg) = instance();
    let mut out = String::new();
    writeln!(
        out,
        "# Reach-gap / spectral-efficiency summary (Figure 14), exact."
    )
    .unwrap();
    for &scheme in Scheme::ALL.iter() {
        let p = plan(scheme, &b.optical, &b.ip, &cfg);
        let mut gaps: Vec<i64> = p.wavelengths.iter().map(|w| w.reach_gap_km()).collect();
        gaps.sort_unstable();
        let ses: Vec<f64> = p
            .wavelengths
            .iter()
            .map(|w| w.spectral_efficiency())
            .collect();
        let mean_se = ses.iter().sum::<f64>() / ses.len() as f64;
        writeln!(
            out,
            "median_reach_gap_km[{scheme}] = {}",
            gaps[gaps.len() / 2]
        )
        .unwrap();
        writeln!(out, "mean_spectral_efficiency[{scheme}] = {mean_se:.4}").unwrap();
    }
    assert_golden("reach_gap_se.txt", &out);
}

/// The FlexWAN+ spare-placement A/B (uniform vs dual-priced), exact:
/// both pools, their expected restored capacity on the conduit-cut
/// suite, and the winner. Deterministic — the dual prices come from the
/// CG restorer's LP duals. Runs on a reduced T-backbone (the full
/// instance prices 66 scenarios and takes minutes in debug builds; the
/// full-scale A/B lives in the release-built `ablation_spares` report).
#[test]
fn spare_pool_ab_matches_golden() {
    let b = t_backbone(&ScaleParams {
        regions: 3,
        metros_per_region: 3,
        ip_links: 24,
        ..ScaleParams::tbackbone()
    });
    let cfg = PlannerConfig {
        k_paths: 5,
        ..PlannerConfig::default()
    };
    let p = plan(Scheme::FlexWan, &b.optical, &b.ip, &cfg);
    let choice = choose_spare_pool(&p, &b.optical, &b.ip, &cfg, &SolveOptions::default());
    let mut out = String::new();
    writeln!(
        out,
        "# FlexWAN+ spare placement A/B, reduced T-backbone (3x3, 24 links)."
    )
    .unwrap();
    writeln!(
        out,
        "# Blessed output of tests/golden_outputs.rs; see that file for how to update."
    )
    .unwrap();
    writeln!(out, "budget {}", choice.uniform.iter().sum::<u32>()).unwrap();
    writeln!(
        out,
        "uniform_expected_gbps {:.4}",
        choice.uniform_expected_gbps
    )
    .unwrap();
    writeln!(out, "dual_expected_gbps {:.4}", choice.dual_expected_gbps).unwrap();
    writeln!(out, "chose_dual {}", choice.chose_dual).unwrap();
    let nonzero: Vec<String> = choice
        .dual
        .iter()
        .enumerate()
        .filter(|&(_, &s)| s > 0)
        .map(|(i, &s)| format!("{i}:{s}"))
        .collect();
    writeln!(out, "dual_pool {}", nonzero.join(" ")).unwrap();
    assert!(
        choice.dual_expected_gbps.max(choice.uniform_expected_gbps) >= choice.uniform_expected_gbps,
        "chosen pool must never be worse than uniform"
    );
    assert_golden("spare_pool_ab.txt", &out);
}
