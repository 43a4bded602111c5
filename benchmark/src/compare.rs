//! `compare A.json B.json`: is B worse than A by more than the bounds?
//!
//! A is the baseline, B the candidate. Every end-to-end metric of every
//! workload may worsen by at most its bound (as a share of A's value);
//! B may not fail more operations than A. When both files were made
//! from the same seed and scale their inputs and every deterministic
//! counter must be identical, and inside each file the counters of the
//! traced run must equal those of the untraced run.

use flexwan_util::json::Value;

use crate::metrics::{Better, END_TO_END};

/// One reason `compare` does not pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Workload concerned.
    pub workload: String,
    /// Metric or counter concerned.
    pub metric: String,
    /// What is wrong.
    pub detail: String,
}

fn finding(workload: &str, metric: &str, detail: String) -> Finding {
    Finding {
        workload: workload.to_string(),
        metric: metric.to_string(),
        detail,
    }
}

fn members(v: Option<&Value>) -> Vec<(&String, &Value)> {
    match v {
        Some(Value::Object(m)) => m.iter().collect(),
        _ => Vec::new(),
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    delta / a.abs().max(f64::MIN_POSITIVE)
}

/// Counters of the traced run that differ from the untraced run's, in
/// one output file.
fn traced_vs_untraced(file: &Value, label: &str, out: &mut Vec<Finding>) {
    for (name, w) in members(file.get("workloads")) {
        let Some(traced) = w.get("per_layer") else {
            continue;
        };
        for (counter, v) in members(w.get("counters")) {
            if traced.get(counter).is_some_and(|t| t != v) {
                out.push(finding(
                    name,
                    counter,
                    format!(
                        "file {label}: untraced run counted {v}, traced run {}",
                        traced.get(counter).expect("checked above")
                    ),
                ));
            }
        }
    }
}

/// Every reason B does not pass against A; empty means it passes.
pub fn compare(a: &Value, b: &Value) -> Vec<Finding> {
    let mut out = Vec::new();
    let same_inputs = ["seed", "scale"].iter().all(|k| {
        let of = |f: &Value| f.get("meta").and_then(|m| m.get(k)).cloned();
        of(a).is_some() && of(a) == of(b)
    });
    for (name, wa) in members(a.get("workloads")) {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            out.push(finding(name, "*", "workload missing from B".into()));
            continue;
        };
        for m in END_TO_END {
            let of = |w: &Value| w.get("end_to_end")?.get(m.name)?.as_f64();
            let (Some(va), Some(vb)) = (of(wa), of(wb)) else {
                out.push(finding(name, m.name, "metric missing".into()));
                continue;
            };
            let worse = worsening(m.better, va, vb);
            if worse > m.bound {
                out.push(finding(
                    name,
                    m.name,
                    format!(
                        "regression: {va} -> {vb} {} is {:.1} % worse, bound {:.1} %",
                        m.unit,
                        worse * 100.0,
                        m.bound * 100.0
                    ),
                ));
            }
        }
        let failed = |w: &Value| w.get("failed").and_then(Value::as_u64).unwrap_or(0);
        if failed(wb) > failed(wa) {
            out.push(finding(
                name,
                "failed",
                format!("{} operations failed, {} in A", failed(wb), failed(wa)),
            ));
        }
        if !same_inputs {
            continue;
        }
        if wa.get("inputs_digest") != wb.get("inputs_digest") {
            out.push(finding(
                name,
                "inputs_digest",
                "same seed, different generated inputs".into(),
            ));
        }
        for (counter, va) in members(wa.get("counters")) {
            let vb = wb.get("counters").and_then(|c| c.get(counter));
            if vb != Some(va) {
                out.push(finding(
                    name,
                    counter,
                    format!(
                        "deterministic counter changed: {va} -> {}",
                        vb.map_or("missing".to_string(), Value::to_string)
                    ),
                ));
            }
        }
    }
    traced_vs_untraced(a, "A", &mut out);
    traced_vs_untraced(b, "B", &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexwan_util::json::{parse, Num};

    /// A two-workload output file shaped like the real one.
    fn file() -> Value {
        let workload = |ops: f64, p50: f64| {
            let e2e: Vec<(&str, Value)> = END_TO_END
                .iter()
                .map(|m| {
                    let v = match m.name {
                        "ops_per_s" => ops,
                        "op_p50_ms" => p50,
                        "served_ratio" => 0.98,
                        _ => 10.0,
                    };
                    (m.name, Value::Number(Num::F(v)))
                })
                .collect();
            Value::obj([
                ("failed", Value::Number(Num::U(0))),
                ("inputs_digest", Value::String("00ff".into())),
                ("end_to_end", Value::obj(e2e)),
                (
                    "counters",
                    parse(r#"{"solver.pivots": 1234.0, "ops.cycle": 29.0}"#).unwrap(),
                ),
                (
                    "per_layer",
                    parse(r#"{"solver.pivots": 1234.0, "ops.cycle": 29.0, "solver.lp_ms": 3.5}"#)
                        .unwrap(),
                ),
            ])
        };
        Value::obj([
            ("meta", parse(r#"{"seed": 1, "scale": 1.0}"#).unwrap()),
            (
                "workloads",
                Value::obj([
                    ("exact_plan", workload(60.0, 30.0)),
                    ("plan_sweep", workload(400.0, 2.0)),
                ]),
            ),
        ])
    }

    fn set(file: &mut Value, workload: &str, section: &str, key: &str, v: f64) {
        let Value::Object(root) = file else { panic!() };
        let Some(Value::Object(ws)) = root.get_mut("workloads") else {
            panic!()
        };
        let Some(Value::Object(w)) = ws.get_mut(workload) else {
            panic!()
        };
        let Some(Value::Object(s)) = w.get_mut(section) else {
            panic!()
        };
        s.insert(key.to_string(), Value::Number(Num::F(v)));
    }

    #[test]
    fn identical_files_pass() {
        assert_eq!(compare(&file(), &file()), vec![]);
    }

    #[test]
    fn a_planted_slowdown_past_the_bound_is_flagged_on_its_workload_only() {
        let mut slow = file();
        set(
            &mut slow,
            "exact_plan",
            "end_to_end",
            "op_p50_ms",
            30.0 * 1.50,
        );
        set(
            &mut slow,
            "exact_plan",
            "end_to_end",
            "ops_per_s",
            60.0 / 1.50,
        );
        let found = compare(&file(), &slow);
        let hit: Vec<(&str, &str)> = found
            .iter()
            .map(|f| (f.workload.as_str(), f.metric.as_str()))
            .collect();
        assert_eq!(
            hit,
            [("exact_plan", "ops_per_s"), ("exact_plan", "op_p50_ms")]
        );
        assert!(
            found[1].detail.contains("50.0 % worse"),
            "{}",
            found[1].detail
        );
        // The same change read the other way is an improvement.
        assert_eq!(compare(&slow, &file()), vec![]);
        // 15 % is inside the 25 % bound.
        let mut ok = file();
        set(
            &mut ok,
            "exact_plan",
            "end_to_end",
            "op_p50_ms",
            30.0 * 1.15,
        );
        assert_eq!(compare(&file(), &ok), vec![]);
    }

    #[test]
    fn a_planted_counter_change_is_flagged() {
        let mut changed = file();
        set(
            &mut changed,
            "plan_sweep",
            "counters",
            "solver.pivots",
            1235.0,
        );
        set(
            &mut changed,
            "plan_sweep",
            "per_layer",
            "solver.pivots",
            1235.0,
        );
        let found = compare(&file(), &changed);
        assert_eq!(found.len(), 1);
        assert_eq!(
            (found[0].workload.as_str(), found[0].metric.as_str()),
            ("plan_sweep", "solver.pivots")
        );

        // Traced and untraced runs of one file disagreeing is flagged too.
        let mut torn = file();
        set(&mut torn, "plan_sweep", "per_layer", "ops.cycle", 30.0);
        let found = compare(&torn, &torn);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found[0].detail.contains("traced run"));

        // A different seed excuses the counters, not the bounds.
        let mut other = changed.clone();
        let Value::Object(root) = &mut other else {
            panic!()
        };
        root.insert(
            "meta".into(),
            parse(r#"{"seed": 2, "scale": 1.0}"#).unwrap(),
        );
        assert_eq!(compare(&file(), &other), vec![]);
    }

    #[test]
    fn more_failures_or_a_small_quality_loss_are_regressions() {
        let mut worse = file();
        set(&mut worse, "plan_sweep", "end_to_end", "served_ratio", 0.75);
        let found = compare(&file(), &worse);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].metric, "served_ratio");
        assert_eq!(worsening(Better::Higher, 100.0, 90.0), 0.1);
        assert_eq!(worsening(Better::Lower, 100.0, 90.0), -0.1);
    }
}
