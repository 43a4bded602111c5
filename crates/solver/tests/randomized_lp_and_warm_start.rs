//! Randomized LP regression sweep plus [`SolverStats`] warm-start
//! accounting. Grown out of an ad-hoc review scratch file: the random
//! chain LPs stay as a regression net over the sparse simplex, and the
//! branch & bound stats assertions pin the warm-start behaviour the
//! observability layer reports (`solver_solves_total{start=...}`,
//! `solver_warm_start_hit_rate`).

use flexwan_solver::{LinExpr, Model, Sense, SolveOptions, SolverStats, Status};

fn build(k: usize, seed: u64) -> Model {
    let mut m = Model::new();
    let mut st = seed;
    let mut rnd = move || {
        st = st
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((st >> 33) % 5) as f64
    };
    let vars: Vec<_> = (0..k)
        .map(|i| m.continuous(format!("x{i}"), 1.0, 3.0))
        .collect();
    for w in vars.windows(2) {
        m.le(w[0] + w[1], 4.0 + rnd());
    }
    for w in vars.windows(4) {
        m.le(w[0] + w[1] + (w[2] + w[3]), 9.0 + rnd());
    }
    let obj = LinExpr::sum(
        vars.iter()
            .enumerate()
            .map(|(i, &v)| (1.0 + ((i * 7) % 5) as f64) * v),
    );
    m.set_objective(Sense::Maximize, obj);
    m
}

#[test]
fn randomized_lps_stay_feasible_and_consistent() {
    for seed in 0..30u64 {
        let m = build(150, seed);
        let s = m.solve();
        assert_eq!(s.status, Status::Optimal, "seed {seed}");
        assert!(
            m.is_feasible(&s.values, 1e-6),
            "seed {seed}: solver returned an infeasible point, obj={}",
            s.objective
        );
        // objective must match the reported values
        let recomputed: f64 = (0..150)
            .map(|i| (1.0 + ((i * 7) % 5) as f64) * s.values[i])
            .sum();
        assert!(
            (recomputed - s.objective).abs() < 1e-6,
            "seed {seed}: objective {} vs recomputed {}",
            s.objective,
            recomputed
        );
    }
}

/// A strongly correlated two-row knapsack whose LP relaxation stays
/// fractional through many branchings (≈200 nodes), so almost every node
/// LP warm-starts from its parent basis; the only cold solve is the root
/// node itself.
fn branching_knapsack() -> Model {
    let n = 14usize;
    let mut m = Model::new();
    let vars: Vec<_> = (0..n).map(|i| m.binary(format!("b{i}"))).collect();
    let w1: Vec<f64> = (0..n).map(|i| 3.0 + ((i * 5) % 11) as f64).collect();
    let w2: Vec<f64> = (0..n).map(|i| 2.0 + ((i * 7) % 9) as f64).collect();
    let val: Vec<f64> = (0..n).map(|i| w1[i] + 5.0 + ((i * 3) % 4) as f64).collect();
    m.le(
        LinExpr::sum(vars.iter().zip(&w1).map(|(&v, &w)| w * v)),
        40.0,
    );
    m.le(
        LinExpr::sum(vars.iter().zip(&w2).map(|(&v, &w)| w * v)),
        30.0,
    );
    m.set_objective(
        Sense::Maximize,
        LinExpr::sum(vars.iter().zip(&val).map(|(&v, &c)| c * v)),
    );
    m
}

#[test]
fn branch_and_bound_warm_starts_node_lps() {
    let m = branching_knapsack();
    let (sol, stats) = m.solve_with_stats(&SolveOptions::default());
    assert_eq!(sol.status, Status::Optimal);
    assert!(m.is_feasible(&sol.values, 1e-6));

    // The root LP is the one cold solve; descendants reuse the parent
    // basis.
    assert!(
        stats.nodes >= 20,
        "expected real branching, nodes = {}",
        stats.nodes
    );
    assert_eq!(stats.cold_solves, 1, "the root LP is the only cold solve");
    assert!(
        stats.warm_solves >= 20,
        "descendant nodes must warm-start, stats: {stats}"
    );

    // Hit rate is exactly warm / (warm + cold), bounded by (0, 1), and
    // dominated by warm solves once branching happens.
    let rate = stats.warm_start_hit_rate();
    let expect = stats.warm_solves as f64 / (stats.warm_solves + stats.cold_solves) as f64;
    assert!((rate - expect).abs() < 1e-12);
    assert!(rate > 0.5, "warm starts should dominate, hit rate = {rate}");
    assert!(rate < 1.0, "the root solve is never warm");

    // Pivot accounting: the totals helper matches the per-phase fields,
    // and warm starts imply dual-simplex work.
    assert_eq!(
        stats.total_pivots(),
        stats.phase1_pivots + stats.phase2_pivots + stats.dual_pivots
    );
    assert!(
        stats.dual_pivots > 0,
        "warm starts re-optimize with the dual simplex"
    );
}

/// Stats are deterministic for a fixed model (the `time_*` fields are
/// wall-clock and explicitly excluded), and `merge` adds counters.
#[test]
fn solver_stats_are_deterministic_and_merge_adds() {
    let counters = |stats: &SolverStats| {
        (
            stats.phase1_pivots,
            stats.phase2_pivots,
            stats.dual_pivots,
            stats.bound_flips,
            stats.refactorizations,
            stats.cold_solves,
            stats.warm_solves,
            stats.nodes,
        )
    };
    let m = branching_knapsack();
    let (_, a) = m.solve_with_stats(&SolveOptions::default());
    let (_, b) = m.solve_with_stats(&SolveOptions::default());
    assert_eq!(
        counters(&a),
        counters(&b),
        "solver counters must be run-to-run deterministic"
    );

    let mut merged = a;
    merged.merge(&b);
    assert_eq!(merged.nodes, a.nodes + b.nodes);
    assert_eq!(merged.total_pivots(), a.total_pivots() + b.total_pivots());
    assert_eq!(merged.warm_solves, a.warm_solves + b.warm_solves);
}
