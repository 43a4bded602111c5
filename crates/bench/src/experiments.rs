//! One function per paper table/figure (the experiment index of
//! DESIGN.md §4). Binaries print these; integration tests assert their
//! shapes against the paper's claims.

use std::collections::HashSet;

use flexwan_core::planning::{plan, PlanCtx, PlannerConfig};
use flexwan_core::restore::{
    choose_spare_pool, conduit_cut_scenarios, restore_report, Restoration, RestoreReport,
};
use flexwan_core::Scheme;
use flexwan_optical::spectrum::PixelWidth;
use flexwan_optical::transponder::{Bvt, FixedGrid100G, Svt, TransponderModel, SVT_TABLE};
use flexwan_physim::testbed::Testbed;
use flexwan_topo::cache::RouteCache;
use flexwan_topo::ip::IpTopology;
use flexwan_topo::ksp::shortest_path;
use flexwan_topo::tbackbone::Backbone;
use flexwan_util::pool;

/// Cost outcome of planning one scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeCost {
    /// The scheme planned.
    pub scheme: Scheme,
    /// Whether the full demand set was provisioned.
    pub feasible: bool,
    /// Transponder pairs deployed.
    pub transponders: usize,
    /// Spectrum usage `Σ λ·Y`, GHz.
    pub spectrum_ghz: f64,
    /// Demand left unmet, Gbps.
    pub unmet_gbps: u64,
}

/// Plans all three schemes at `scale` × the demand set `ip`.
///
/// Candidate routes depend only on the optical graph and the IP link
/// endpoints — not on the scheme or the demand scale — so with a cache
/// shared on `ctx` they are enumerated once (first scheme) and reused
/// (remaining schemes, and the caller's wider sweep) instead of
/// re-running Yen per scheme.
pub fn plan_costs(ctx: &PlanCtx, ip: &IpTopology, scale: u64) -> Vec<SchemeCost> {
    let ip = ip.scaled(scale);
    Scheme::ALL
        .iter()
        .map(|&scheme| {
            let p = ctx.plan(scheme, &ip);
            SchemeCost {
                scheme,
                feasible: p.is_feasible(),
                transponders: p.transponder_count(),
                spectrum_ghz: p.spectrum_usage_ghz(),
                unmet_gbps: p.unmet_gbps(),
            }
        })
        .collect()
}

/// Figure 12: cost vs capacity scale for every scheme, `1..=max_scale`,
/// fanned out over the scale ladder on `threads` workers (0 = auto,
/// 1 = serial). Each scale is an independent planning problem; one
/// shared [`RouteCache`] serves all of them, and the deterministic pool
/// keeps the output bit-identical at any thread count.
pub fn cost_vs_scale(
    backbone: &Backbone,
    cfg: &PlannerConfig,
    max_scale: u64,
    threads: usize,
) -> Vec<(u64, Vec<SchemeCost>)> {
    let cache = RouteCache::new();
    let ctx = PlanCtx::new(&backbone.optical, cfg).sharing(&cache);
    let scales: Vec<u64> = (1..=max_scale).collect();
    let costs = pool::par_map(&scales, threads, |&s| plan_costs(&ctx, &backbone.ip, s));
    scales.into_iter().zip(costs).collect()
}

/// §7 headline numbers.
#[derive(Debug, Clone)]
pub struct Headline {
    /// % transponders FlexWAN saves vs [100G-WAN, RADWAN] at scale 1.
    pub transponder_saving_pct: [f64; 2],
    /// % spectrum FlexWAN saves vs [100G-WAN, RADWAN] at scale 1.
    pub spectrum_saving_pct: [f64; 2],
    /// Max feasible scale per scheme ([100G-WAN, RADWAN, FlexWAN]).
    pub max_scale: [u64; 3],
}

/// Computes the §7 headline: savings at scale 1 and max supported scales.
pub fn headline(backbone: &Backbone, cfg: &PlannerConfig, scale_cap: u64) -> Headline {
    // Every planning run below shares one candidate-route set: routes are
    // scale- and scheme-independent, so the cache misses once per IP link.
    let cache = RouteCache::new();
    let ctx = PlanCtx::new(&backbone.optical, cfg).sharing(&cache);
    let at1 = plan_costs(&ctx, &backbone.ip, 1);
    let find = |s: Scheme| {
        at1.iter()
            .find(|c| c.scheme == s)
            .expect("all schemes planned")
    };
    let flex = find(Scheme::FlexWan);
    let pct = |base: f64, ours: f64| 100.0 * (base - ours) / base;
    let fixed = find(Scheme::FixedGrid100G);
    let radwan = find(Scheme::Radwan);
    let cap = |s| ctx.max_feasible_scale(s, &backbone.ip, scale_cap);
    Headline {
        transponder_saving_pct: [
            pct(fixed.transponders as f64, flex.transponders as f64),
            pct(radwan.transponders as f64, flex.transponders as f64),
        ],
        spectrum_saving_pct: [
            pct(fixed.spectrum_ghz, flex.spectrum_ghz),
            pct(radwan.spectrum_ghz, flex.spectrum_ghz),
        ],
        max_scale: [
            cap(Scheme::FixedGrid100G),
            cap(Scheme::Radwan),
            cap(Scheme::FlexWan),
        ],
    }
}

/// Figure 2(a): shortest-optical-path length per IP link, km.
pub fn path_lengths(backbone: &Backbone) -> Vec<u32> {
    let none = HashSet::new();
    backbone
        .ip
        .links()
        .iter()
        .filter_map(|l| shortest_path(&backbone.optical, l.src, l.dst, &none))
        .map(|p| p.length_km)
        .collect()
}

/// Figure 13(a): path lengths weighted by demanded capacity —
/// `(length km, weight Gbps)` pairs.
pub fn capacity_weighted_lengths(backbone: &Backbone) -> Vec<(u32, u64)> {
    let none = HashSet::new();
    backbone
        .ip
        .links()
        .iter()
        .filter_map(|l| {
            shortest_path(&backbone.optical, l.src, l.dst, &none)
                .map(|p| (p.length_km, l.demand_gbps))
        })
        .collect()
}

/// One Figure 2(b) sample: (distance km, SVT, BVT, fixed-grid 100G max rates).
pub type RateCurveRow = (u32, Option<u32>, Option<u32>, Option<u32>);

/// Figure 2(b): max data rate per transponder generation vs distance.
pub fn max_rate_curves(distances_km: &[u32]) -> Vec<RateCurveRow> {
    distances_km
        .iter()
        .map(|&d| {
            (
                d,
                Svt.max_rate_at(d),
                Bvt.max_rate_at(d),
                FixedGrid100G.max_rate_at(d),
            )
        })
        .collect()
}

/// One Figure 3 row: cost of provisioning 800 Gbps at one path length.
#[derive(Debug, Clone)]
pub struct ProvisionCost {
    /// Path length, km.
    pub length_km: u32,
    /// (transponder pairs, spectrum GHz) with the SVT; `None` = no format
    /// reaches.
    pub svt: Option<(usize, f64)>,
    /// Same with the BVT.
    pub bvt: Option<(usize, f64)>,
}

/// Figure 3: hardware cost of 800 Gbps vs path length, SVT vs BVT.
pub fn provision_800g(lengths_km: &[u32]) -> Vec<ProvisionCost> {
    use flexwan_core::planning::format_dp::select_formats;
    let cost = |model: &dyn TransponderModel, len: u32| -> Option<(usize, f64)> {
        select_formats(model, 800, len, 1e-3)
            .map(|fs| (fs.len(), fs.iter().map(|f| f.spacing.ghz()).sum()))
    };
    lengths_km
        .iter()
        .map(|&len| ProvisionCost {
            length_km: len,
            svt: cost(&Svt, len),
            bvt: cost(&Bvt, len),
        })
        .collect()
}

/// One Figure 11 / Table 2 row: paper vs simulator-derived reach.
#[derive(Debug, Clone)]
pub struct ReachRow {
    /// Data rate, Gbps.
    pub rate_gbps: u32,
    /// Channel spacing, GHz.
    pub spacing_ghz: f64,
    /// The paper's measured reach, km.
    pub paper_km: u32,
    /// Our simulated testbed's reach, km.
    pub derived_km: u32,
}

/// Figure 11 / Table 2: regenerate the SVT reach table on the simulated
/// testbed and pair it with the paper's measurements.
pub fn svt_reach_table() -> Vec<ReachRow> {
    let tb = Testbed::default();
    SVT_TABLE
        .iter()
        .map(|&(rate, ghz, paper)| ReachRow {
            rate_gbps: rate,
            spacing_ghz: ghz,
            paper_km: paper,
            derived_km: tb.best_reach_km(rate, PixelWidth::from_ghz(ghz).expect("on grid")),
        })
        .collect()
}

/// Figure 14 inputs: per-wavelength reach gaps and spectral efficiencies
/// for one scheme at scale 1.
pub fn gap_and_sse(
    backbone: &Backbone,
    cfg: &PlannerConfig,
    scheme: Scheme,
) -> (Vec<i64>, Vec<f64>) {
    let p = plan(scheme, &backbone.optical, &backbone.ip, cfg);
    (
        p.wavelengths.iter().map(|w| w.reach_gap_km()).collect(),
        p.wavelengths
            .iter()
            .map(|w| w.spectral_efficiency())
            .collect(),
    )
}

/// Runs every conduit-cut scenario against a scheme's plan at `scale` ×
/// `ip` and reports. `plus` enables the FlexWAN+ spare pool (only
/// meaningful for [`Scheme::FlexWan`]). The scenario sweep fans out on
/// `threads` workers (0 = auto, 1 = serial), sharing `ctx`'s cache across
/// scenarios and with the caller's wider sweep. Restoration routes are
/// keyed by the scenario's cut set, so a cut fiber can never be served a
/// cached uncut route.
pub fn restoration_report(
    ctx: &PlanCtx,
    ip: &IpTopology,
    scheme: Scheme,
    scale: u64,
    plus: bool,
    threads: usize,
) -> RestoreReport {
    restore_report(&restoration_results(ctx, ip, scheme, scale, plus, threads))
}

/// The per-scenario restorations behind [`restoration_report`]:
/// `(scenario probability, restoration)` in [`conduit_cut_scenarios`]
/// order, bit-identical at any `threads` count. Exposed so determinism
/// tests can compare the full vectors, not just the aggregated report.
pub fn restoration_results(
    ctx: &PlanCtx,
    ip: &IpTopology,
    scheme: Scheme,
    scale: u64,
    plus: bool,
    threads: usize,
) -> Vec<(f64, Restoration)> {
    let ip = ip.scaled(scale);
    let p = ctx.plan(scheme, &ip);
    // The FlexWAN+ pool is the A/B winner (dual-priced vs uniform, see
    // `restore::spares`).
    let extra = if plus {
        choose_spare_pool(&p, ctx.optical(), &ip, ctx.cfg(), &Default::default())
            .chosen()
            .to_vec()
    } else {
        Vec::new()
    };
    let scenarios = conduit_cut_scenarios(ctx.optical());
    let restored = pool::par_map(&scenarios, threads, |s| ctx.restore(&p, &ip, s, &extra));
    scenarios
        .iter()
        .map(|s| s.probability)
        .zip(restored)
        .collect()
}

/// Figure 15(b): mean restoration capability per scheme per scale, with
/// every scenario sweep on `threads` workers (0 = auto, 1 = serial) and
/// one [`RouteCache`] shared across all scales × schemes — the planner's
/// uncut routes miss once total, and each cut set's detour routes miss
/// once across the whole figure.
pub fn restoration_vs_scale(
    backbone: &Backbone,
    cfg: &PlannerConfig,
    scales: &[u64],
    threads: usize,
) -> Vec<(u64, [f64; 3])> {
    let cache = RouteCache::new();
    let ctx = PlanCtx::new(&backbone.optical, cfg).sharing(&cache);
    scales
        .iter()
        .map(|&s| {
            let report = |scheme| {
                restoration_report(&ctx, &backbone.ip, scheme, s, false, threads).mean_capability()
            };
            let caps = [
                report(Scheme::FixedGrid100G),
                report(Scheme::Radwan),
                report(Scheme::FlexWan),
            ];
            (s, caps)
        })
        .collect()
}

/// The §4.3 controller-issues experiment: counts of spectrum issues under
/// uncoordinated per-vendor control vs centralized control, on the
/// backbone's FlexWAN demand set.
#[derive(Debug, Clone)]
pub struct IssueCounts {
    /// (conflicts, inconsistencies) with per-vendor controllers.
    pub uncoordinated: (usize, usize),
    /// (conflicts, inconsistencies) with the centralized controller.
    pub centralized: (usize, usize),
    /// Wavelengths in the comparison.
    pub wavelengths: usize,
}

/// Runs the uncoordinated-vs-centralized comparison (Figure 5 /
/// §4.3's "zero spectrum inconsistency and conflict").
pub fn controller_issue_counts(backbone: &Backbone, cfg: &PlannerConfig) -> IssueCounts {
    use flexwan_ctrl::issues::{
        centralized_assignment, find_conflicts, find_inconsistencies, uncoordinated_assignment,
    };
    use flexwan_ctrl::model::Vendor;

    // The demand set: the FlexWAN plan's (path, spacing) pairs, with the
    // provisioning vendor following the source site (round-robin).
    let p = plan(Scheme::FlexWan, &backbone.optical, &backbone.ip, cfg);
    let demands: Vec<_> = p
        .wavelengths
        .iter()
        .map(|w| {
            let vendor = Vendor::ALL[w.path.source().0 as usize % Vendor::ALL.len()];
            (w.path.clone(), w.format.spacing, vendor)
        })
        .collect();
    let site_owner = backbone
        .optical
        .nodes()
        .iter()
        .map(|n| (n.id, Vendor::ALL[n.id.0 as usize % Vendor::ALL.len()]))
        .collect();

    let (ch_u, pb_u) = uncoordinated_assignment(
        &demands,
        &site_owner,
        cfg.grid,
        backbone.optical.num_edges(),
    );
    let (ch_c, pb_c) = centralized_assignment(&demands, cfg.grid, backbone.optical.num_edges());
    IssueCounts {
        uncoordinated: (
            find_conflicts(&ch_u).len(),
            find_inconsistencies(&ch_u, &pb_u).len(),
        ),
        centralized: (
            find_conflicts(&ch_c).len(),
            find_inconsistencies(&ch_c, &pb_c).len(),
        ),
        wavelengths: demands.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::{default_config, tbackbone_instance};

    #[test]
    fn fig2b_rows_shape() {
        let rows = max_rate_curves(&[100, 1000, 3000, 5000, 6000]);
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0], (100, Some(800), Some(300), Some(100)));
        assert_eq!(rows[4], (6000, None, None, None));
    }

    #[test]
    fn fig3_rows_match_motivation() {
        let rows = provision_800g(&[250, 1800]);
        assert_eq!(rows[0].svt.unwrap().0, 1);
        assert_eq!(rows[0].bvt.unwrap().0, 3);
        assert_eq!(rows[1].svt.unwrap().0, 2);
        assert_eq!(rows[1].bvt.unwrap().0, 4);
    }

    #[test]
    fn plan_costs_enumerates_routes_once_across_schemes() {
        let b = tbackbone_instance();
        let cfg = default_config();
        let cache = RouteCache::new();
        let ctx = PlanCtx::new(&b.optical, &cfg);
        let cached = plan_costs(&ctx.sharing(&cache), &b.ip, 1);
        // The hoist: Yen runs once per distinct endpoint pair (parallel
        // IP links share a candidate-route set), everything else —
        // including schemes 2–3 wholesale — is a cache hit.
        let pairs: HashSet<_> = b.ip.links().iter().map(|l| (l.src, l.dst)).collect();
        assert_eq!(cache.misses() as usize, pairs.len());
        assert_eq!(
            (cache.hits() + cache.misses()) as usize,
            3 * b.ip.num_links()
        );
        assert_eq!(cached, plan_costs(&ctx, &b.ip, 1));
    }

    #[test]
    fn issue_counts_reproduce_section_4_3() {
        let b = tbackbone_instance();
        let counts = controller_issue_counts(&b, &default_config());
        assert_eq!(counts.centralized, (0, 0), "centralized must be clean");
        let (conf, incons) = counts.uncoordinated;
        assert!(conf > 0, "uncoordinated control must conflict");
        assert!(incons > 0, "uncoordinated control must be inconsistent");
    }
}
