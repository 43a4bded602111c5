//! Column-generation report: exact Algorithm 1 optima on the **full**
//! T-backbone and CERNET topologies via the restricted master + pricing
//! oracle (`flexwan_core::planning::colgen`) — the instances whose
//! enumerated γ universe (millions of binaries) the enumerated
//! `solve_exact` cannot build. Prints the convergence trace and writes
//! the pinned objectives to `results/colgen_report.txt`; CI re-runs this
//! binary and diffs the file, so an optimum drifting by one bit fails
//! the build.

use std::time::Instant;

use flexwan_bench::instances::{cernet_envelope_instance, default_config, tbackbone_instance};
use flexwan_bench::table;
use flexwan_core::planning::{canonical_objective, solve_exact_colgen};
use flexwan_core::{plan, Scheme};
use flexwan_solver::SolveOptions;

fn main() {
    table::banner(
        "Column generation",
        "Exact planning on the full topologies: restricted master + dual-based pricing.",
    );
    let cfg = default_config();
    let opts = SolveOptions::default();
    let mut out = String::new();
    let mut rows = Vec::new();
    // T-backbone runs at full demand; CERNET at its exactly-solvable
    // envelope (×0.7 demand, two reach-infeasible links dropped — see
    // `cernet_envelope_instance`). Past that envelope the C-band
    // saturates and no solver, enumerated or CG, certifies an optimum.
    for (name, b) in [
        ("T-backbone", tbackbone_instance()),
        ("CERNET x0.7", cernet_envelope_instance(0.7)),
    ] {
        let started = Instant::now();
        let cg = solve_exact_colgen(Scheme::FlexWan, &b.optical, &b.ip, &cfg, &opts)
            .expect("full instance is feasible");
        let elapsed = started.elapsed();
        assert!(!cg.colgen.fell_back, "{name}: seed must not fall back");
        let heuristic = plan(Scheme::FlexWan, &b.optical, &b.ip, &cfg);
        let heuristic_obj = canonical_objective(&heuristic.wavelengths, cfg.epsilon);
        let c = &cg.colgen;
        rows.push(vec![
            name.to_string(),
            format!("{:.4}", cg.plan.objective),
            format!("{:.4}", heuristic_obj),
            c.columns_in_master.to_string(),
            c.universe_size.to_string(),
            c.pricing_rounds.to_string(),
            format!("{:.0} ms", elapsed.as_secs_f64() * 1e3),
        ]);
        println!(
            "{name}: LP bound {:.4}, integer {:.4}, {} seeded + {} priced in \
             over {} rounds ({} gap), {} conflict rows, min reduced {:.4}",
            c.lp_objective,
            cg.plan.objective,
            c.columns_seeded,
            c.columns_priced_in,
            c.pricing_rounds,
            c.gap_rounds,
            c.conflict_rows,
            c.reduced_cost_min,
        );
        // The pinned reference: objective bits and the deterministic
        // column/universe/round counters (timings stay out —
        // machine-dependent).
        out.push_str(&format!(
            "{name} objective {} ({:.4}) columns {} universe {} rounds {} gap_rounds {}\n",
            cg.plan.objective.to_bits(),
            cg.plan.objective,
            c.columns_in_master,
            c.universe_size,
            c.pricing_rounds,
            c.gap_rounds,
        ));
    }
    println!(
        "{}",
        table::render(
            &[
                "topology",
                "exact obj",
                "heuristic obj",
                "columns",
                "universe",
                "rounds",
                "time"
            ],
            &rows,
        )
    );
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/colgen_report.txt", out).expect("write report");
}
