//! Availability surface (extension): multi-failure × demand-uncertainty
//! scenario sweep over the T-backbone. Every k ∈ 1..=3 row is crossed
//! with spare-transponder budgets and three demand scenarios (nominal
//! plus two seeded ±20% perturbations); each evaluation runs the
//! degradation ladder (heuristic restoration, then 1+1 protection).
//!
//! The run is self-checking: the surface is re-evaluated at 1, 2 and 4
//! pool threads and must render byte-identically, and the k = 1 row is
//! cross-checked cell by cell against a direct single-fiber restoration
//! sweep. The rendered surface is written to
//! `results/fig_availability.txt`, which CI diffs verbatim.

use flexwan_bench::availability::{availability_surface, AvailabilityConfig};
use flexwan_bench::instances::{default_config, tbackbone_instance};
use flexwan_bench::table;
use flexwan_core::planning::PlanCtx;
use flexwan_core::scenario::{demand_scenarios, one_fiber_scenarios, LEVEL_PROTECT};
use flexwan_core::Scheme;
use flexwan_topo::cache::RouteCache;

fn main() {
    table::banner(
        "Availability surface (extension)",
        "Survived/total scenarios per k simultaneous cuts x spare budget, FlexWAN ladder.",
    );
    // The §8 'overloaded' regime (5x demand): restoration contends for
    // spectrum, so the surface actually moves with k and spare budget.
    let b = {
        let mut b = tbackbone_instance();
        b.ip = b.ip.scaled(5);
        b
    };
    let cfg = default_config();
    // Exhaustive k = 1 (all 252 single-fiber cuts — the row the direct
    // sweep cross-checks); k = 2 and 3 fall past the limit and sample.
    let acfg = AvailabilityConfig {
        exhaustive_limit: 256,
        ..AvailabilityConfig::default()
    };
    let cache = RouteCache::new();
    let ctx = PlanCtx::new(&b.optical, &cfg).sharing(&cache);

    let surface = availability_surface(&ctx, &b.ip, Scheme::FlexWan, &acfg);

    // Self-check 1: byte-identical at 1, 2 and 4 pool threads.
    for threads in [1usize, 2, 4] {
        let mut a = acfg.clone();
        a.engine.threads = threads;
        let again = availability_surface(&ctx, &b.ip, Scheme::FlexWan, &a);
        assert_eq!(
            again.render(),
            surface.render(),
            "surface changed at {threads} pool threads"
        );
    }

    // Self-check 2: the k = 1 row equals a direct single-fiber sweep
    // running the same ladder by hand (restore, then 1+1 protection).
    let demands = demand_scenarios(&b.ip, acfg.demand_scenarios, acfg.demand_spread, acfg.seed);
    for &budget in &acfg.engine.spare_budgets {
        let cell = surface.cell(1, budget).expect("k=1 row present");
        let (mut survived, mut affected, mut restored) = (0u64, 0u64, 0u64);
        for d in &demands {
            let ip = d.apply(&b.ip);
            let p = ctx.plan(Scheme::FlexWan, &ip);
            let prot = ctx.plan_protected(Scheme::FlexWan, &ip);
            let spares = vec![budget; ip.num_links()];
            for s in one_fiber_scenarios(&b.optical) {
                let r = ctx.restore(&p, &ip, &s, &spares);
                let mut got = r.restored_gbps;
                if got < r.affected_gbps && prot.capability_under(&ip, &s) >= 1.0 {
                    got = r.affected_gbps;
                }
                affected += r.affected_gbps;
                restored += got;
                if got >= r.affected_gbps {
                    survived += 1;
                }
            }
        }
        assert_eq!(
            cell.affected_gbps, affected,
            "k=1 spares+{budget}: affected"
        );
        if budget == 0 {
            // No allowance below budget 0: the cell IS the direct sweep.
            assert_eq!(cell.survived, survived, "k=1 spares+0: survived");
            assert_eq!(cell.restored_gbps, restored, "k=1 spares+0: restored");
        } else {
            // Budgets are allowances (running max over smaller budgets),
            // so a cell can only improve on the fixed-budget sweep.
            assert!(cell.survived >= survived, "k=1 spares+{budget}: survived");
            assert!(
                cell.restored_gbps >= restored,
                "k=1 spares+{budget}: restored"
            );
        }
    }

    let protect_lifts: u64 = surface
        .cells
        .iter()
        .map(|c| c.level_scenarios[LEVEL_PROTECT])
        .sum();
    let rendered = surface.render();
    print!("{rendered}");
    println!();
    println!("self-checks: thread-invariant at 1/2/4 workers; k=1 row matches the");
    println!("direct single-fiber sweep. {protect_lifts} evaluations were held by 1+1 protection.");

    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/fig_availability.txt", &rendered).expect("write results file");
}
