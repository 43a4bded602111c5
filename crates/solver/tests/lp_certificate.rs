//! LP optimality certificates, checked from the returned `(x, duals)`
//! alone against the test's own copy of the data — nothing here shares
//! code with the simplex, its factorization or `Model::is_feasible`.
//!
//! Seeded random LPs over {min, max} × {≤, =, ≥} rows whose status is
//! known by construction (a planted feasible point and finite bounds; two
//! rows that contradict each other; a free ray that improves the
//! objective). An `Optimal` answer must be primal feasible, dual feasible
//! (each structural's reduced cost has the sign its resting bound allows,
//! each row's dual the sign its comparison allows), complementary, and
//! its primal and dual objectives must agree; the other two draws must
//! report their status and no point.

use flexwan_solver::{solve_lp_with_duals, LinExpr, Model, Sense, Status};
use flexwan_util::rng::ChaCha8Rng;

const TOL: f64 = 1e-7;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Cmp {
    Le,
    Eq,
    Ge,
}

/// The LP as plain data: what the certificate is checked against.
#[derive(Debug)]
struct Lp {
    maximize: bool,
    cost: Vec<f64>,
    lo: Vec<f64>,
    up: Vec<f64>,
    /// `(coefficients by variable, comparison, rhs)`.
    rows: Vec<(Vec<f64>, Cmp, f64)>,
}

impl Lp {
    fn model(&self) -> Model {
        let mut m = Model::new();
        let vars: Vec<_> = (0..self.cost.len())
            .map(|j| m.continuous(format!("x{j}"), self.lo[j], self.up[j]))
            .collect();
        let lin = |coef: &[f64]| {
            LinExpr::sum(
                coef.iter()
                    .zip(&vars)
                    .filter(|(&a, _)| a != 0.0)
                    .map(|(&a, &v)| a * v),
            )
        };
        for (coef, cmp, rhs) in &self.rows {
            match cmp {
                Cmp::Le => m.le(lin(coef), *rhs),
                Cmp::Eq => m.eq(lin(coef), *rhs),
                Cmp::Ge => m.ge(lin(coef), *rhs),
            };
        }
        let sense = if self.maximize {
            Sense::Maximize
        } else {
            Sense::Minimize
        };
        m.set_objective(sense, lin(&self.cost));
        m
    }
}

fn dot(a: &[f64], x: &[f64]) -> f64 {
    a.iter().zip(x).map(|(a, x)| a * x).sum()
}

/// A feasible LP: rows hold at a planted point inside the bounds. With
/// `open_top`, some variables lose their upper bound but only where the
/// objective pushes them down, so the optimum stays finite.
fn feasible_lp(rng: &mut ChaCha8Rng, open_top: bool) -> Lp {
    let n = rng.gen_range(2..=12usize);
    let m = rng.gen_range(1..=10usize);
    let maximize = rng.gen_bool(0.5);
    let mut lp = Lp {
        maximize,
        cost: (0..n).map(|_| rng.gen_range(-6..=6i32) as f64).collect(),
        lo: (0..n).map(|_| rng.gen_range(-5..=5i32) as f64).collect(),
        up: Vec::new(),
        rows: Vec::new(),
    };
    // Width 0 is a fixed variable.
    lp.up = (0..n)
        .map(|j| lp.lo[j] + rng.gen_range(0..=10u32) as f64)
        .collect();
    let planted: Vec<f64> = (0..n)
        .map(|j| lp.lo[j] + (lp.up[j] - lp.lo[j]) * rng.gen_range(0..=4u32) as f64 / 4.0)
        .collect();
    for _ in 0..m {
        let coef: Vec<f64> = (0..n)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    rng.gen_range(-5..=5i32) as f64
                } else {
                    0.0
                }
            })
            .collect();
        let at = dot(&coef, &planted);
        // Slack 0 makes the row binding at the planted point.
        let slack = rng.gen_range(0..=3u32) as f64 * 1.5;
        let row = match rng.gen_range(0..3u32) {
            0 => (coef, Cmp::Le, at + slack),
            1 => (coef, Cmp::Eq, at),
            _ => (coef, Cmp::Ge, at - slack),
        };
        lp.rows.push(row);
    }
    if open_top {
        for j in 0..n {
            let pushes_down = if maximize {
                lp.cost[j] <= 0.0
            } else {
                lp.cost[j] >= 0.0
            };
            if pushes_down && rng.gen_bool(0.5) {
                lp.up[j] = f64::INFINITY;
            }
        }
    }
    lp
}

/// Checks the optimality certificate of `(x, y)` for `lp`.
fn certify(lp: &Lp, x: &[f64], y: &[f64], reported: f64, tag: &str) {
    let n = lp.cost.len();
    assert_eq!((x.len(), y.len()), (n, lp.rows.len()), "{tag}");
    // Everything below is written for a minimization; a maximization is
    // the minimization of −c with duals −y.
    let sign = if lp.maximize { -1.0 } else { 1.0 };

    // Primal feasibility.
    for (j, &xj) in x.iter().enumerate() {
        assert!(
            xj >= lp.lo[j] - TOL && xj <= lp.up[j] + TOL,
            "{tag}: x{j} = {xj} outside [{}, {}]",
            lp.lo[j],
            lp.up[j]
        );
    }
    let mut dual_obj = 0.0;
    for (i, (coef, cmp, rhs)) in lp.rows.iter().enumerate() {
        let lhs = dot(coef, x);
        let scale = 1.0 + rhs.abs();
        let holds = match cmp {
            Cmp::Le => lhs <= rhs + TOL * scale,
            Cmp::Eq => (lhs - rhs).abs() <= TOL * scale,
            Cmp::Ge => lhs >= rhs - TOL * scale,
        };
        assert!(holds, "{tag}: row {i} violated: {lhs} {cmp:?} {rhs}");
        // Row dual sign (min sense): one more unit of a ≤ row's rhs can
        // only lower the optimum, of a ≥ row's only raise it.
        let yi = sign * y[i];
        match cmp {
            Cmp::Le => assert!(yi <= TOL, "{tag}: ≤ row {i} has dual {yi}"),
            Cmp::Ge => assert!(yi >= -TOL, "{tag}: ≥ row {i} has dual {yi}"),
            Cmp::Eq => {}
        }
        // Complementary slackness: a priced row is tight.
        if yi.abs() > TOL {
            assert!(
                (lhs - rhs).abs() <= TOL * scale,
                "{tag}: row {i} has dual {yi} but slack {}",
                lhs - rhs
            );
        }
        dual_obj += yi * rhs;
    }

    // Dual feasibility of the structurals and their share of the dual
    // objective: d_j > 0 prices the lower bound, d_j < 0 the upper.
    for j in 0..n {
        let mut d = sign * lp.cost[j];
        for (i, (coef, _, _)) in lp.rows.iter().enumerate() {
            d -= sign * y[i] * coef[j];
        }
        let rest = if d > TOL {
            lp.lo[j]
        } else if d < -TOL {
            lp.up[j]
        } else {
            x[j]
        };
        assert!(
            rest.is_finite(),
            "{tag}: x{j} has reduced cost {d} against an infinite bound"
        );
        assert!(
            (x[j] - rest).abs() <= TOL * (1.0 + rest.abs()),
            "{tag}: x{j} = {} has reduced cost {d} but does not rest at {rest}",
            x[j]
        );
        dual_obj += d * rest;
    }

    let primal_obj = sign * dot(&lp.cost, x);
    let scale = 1.0 + primal_obj.abs();
    assert!(
        (primal_obj - dual_obj).abs() <= TOL * scale,
        "{tag}: primal objective {primal_obj} vs dual objective {dual_obj}"
    );
    assert!(
        (sign * reported - primal_obj).abs() <= TOL * scale,
        "{tag}: reported objective {reported} vs c·x {}",
        sign * primal_obj
    );
}

#[test]
fn optimal_answers_carry_a_valid_certificate() {
    let mut rng = ChaCha8Rng::seed_from_u64(20);
    let (mut binding_rows, mut interior) = (0u32, 0u32);
    for draw in 0..600 {
        let lp = feasible_lp(&mut rng, draw % 3 == 2);
        let tag = format!("draw {draw}: {lp:?}");
        let (sol, duals) = solve_lp_with_duals(&lp.model());
        assert_eq!(sol.status, Status::Optimal, "{tag}");
        let duals = duals.unwrap_or_else(|| panic!("{tag}: optimal without duals"));
        certify(&lp, &sol.values, &duals, sol.objective, &tag);
        binding_rows += duals.iter().filter(|y| y.abs() > TOL).count() as u32;
        interior += (0..lp.cost.len())
            .filter(|&j| sol.values[j] > lp.lo[j] + TOL && sol.values[j] < lp.up[j] - TOL)
            .count() as u32;
    }
    // The draws must reach past trivial vertices: priced rows and basic
    // structurals both occur in numbers.
    assert!(
        binding_rows > 300 && interior > 300,
        "{binding_rows} / {interior}"
    );
}

#[test]
fn infeasible_and_unbounded_draws_report_their_status_not_a_point() {
    let mut rng = ChaCha8Rng::seed_from_u64(2023);
    for draw in 0..200 {
        // Two rows that cannot both hold: a·x ≤ b and a·x ≥ b + gap.
        let mut lp = feasible_lp(&mut rng, false);
        let n = lp.cost.len();
        let mut coef = vec![0.0; n];
        for _ in 0..3 {
            coef[rng.gen_range(0..n)] = rng.gen_range(1..=5u32) as f64;
        }
        let b = rng.gen_range(-20..=20i32) as f64;
        lp.rows.push((coef.clone(), Cmp::Le, b));
        let at = rng.gen_range(0..=lp.rows.len());
        lp.rows
            .insert(at, (coef, Cmp::Ge, b + rng.gen_range(1..=4u32) as f64));
        let (sol, duals) = solve_lp_with_duals(&lp.model());
        assert_eq!(sol.status, Status::Infeasible, "draw {draw}: {lp:?}");
        assert!(duals.is_none(), "draw {draw}");
        assert!(sol.values.iter().all(|v| v.is_nan()), "draw {draw}");

        // A ray: a new variable with no upper bound that improves the
        // objective and that every row tolerates growing forever.
        let mut lp = feasible_lp(&mut rng, false);
        lp.cost.push(if lp.maximize { 2.0 } else { -2.0 });
        lp.lo.push(0.0);
        lp.up.push(f64::INFINITY);
        for (coef, cmp, _) in &mut lp.rows {
            let a = rng.gen_range(0..=3u32) as f64;
            coef.push(match cmp {
                Cmp::Le => -a,
                Cmp::Eq => 0.0,
                Cmp::Ge => a,
            });
        }
        let (sol, duals) = solve_lp_with_duals(&lp.model());
        assert_eq!(sol.status, Status::Unbounded, "draw {draw}: {lp:?}");
        assert!(duals.is_none(), "draw {draw}");
        assert!(sol.values.iter().all(|v| v.is_nan()), "draw {draw}");
    }
}
