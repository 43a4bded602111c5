//! Harness tests at smoke size (`scale = 0.05`): every workload runs end
//! to end, its inputs and deterministic counters repeat for one seed —
//! across two runs and across the untraced and traced run — and differ
//! for another seed; and `BENCHMARK.json` names what the harness prints.

use std::collections::BTreeMap;

use flexwan_benchmark::harness::{Outcome, RunConfig};
use flexwan_benchmark::metrics::{Better, END_TO_END, PER_LAYER};
use flexwan_benchmark::report;
use flexwan_benchmark::workload::{run_named, WORKLOADS};
use flexwan_util::json::{self, Value};

fn smoke(workload: &str, seed: u64, trace: bool) -> Outcome {
    let cfg = RunConfig {
        seed,
        seconds: 0.0,
        trace,
        scale: 0.05,
        out_dir: None,
    };
    run_named(workload, &cfg).expect("known workload")
}

/// One workload: untraced and traced run of seed 1, untraced run of
/// seed 2.
fn check(workload: &str) {
    let untraced = smoke(workload, 1, false);
    let traced = smoke(workload, 1, true);
    let other = smoke(workload, 2, false);

    for out in [&untraced, &traced, &other] {
        assert!(out.attempted >= 1, "{workload}: nothing attempted");
        assert_eq!(out.failed, 0, "{workload}: {:?}", out.first_failure);
        assert!(out.correct || !out.invariant_breaks.is_empty());
        assert_eq!(out.end_to_end.len(), END_TO_END.len());
        assert_eq!(out.per_layer.len(), PER_LAYER.len());
        for b in &out.invariant_breaks {
            // At smoke size a run can be too short for a cut with lost
            // capacity; nothing else may break.
            assert!(
                b.contains("served_ratio") || b.contains("cost_per_tbps"),
                "{workload}: {b}"
            );
        }
    }

    // Same seed: same inputs, same counters — on two runs, and with
    // tracing on. The traced run may add probe-only counters.
    assert_eq!(untraced.inputs_digest, traced.inputs_digest, "{workload}");
    assert!(!untraced.counters.is_empty(), "{workload}");
    for (name, v) in &untraced.counters {
        assert_eq!(
            traced.counters.get(name).map(|t| t.to_bits()),
            Some(v.to_bits()),
            "{workload}: counter {name} differs between untraced and traced run"
        );
        assert_eq!(
            traced.per_layer[name].to_bits(),
            v.to_bits(),
            "{workload}: {name}"
        );
    }
    assert_eq!(
        untraced.attempted, other.attempted,
        "{workload}: op count is fixed"
    );

    // Another seed: other inputs.
    assert_ne!(untraced.inputs_digest, other.inputs_digest, "{workload}");

    // The traced run reports its own overhead and every metric by name.
    assert!(traced.per_layer["trace.overhead_ratio"].is_finite());
    let printed = report::lines(
        &traced,
        &RunConfig {
            seed: 1,
            seconds: 0.0,
            trace: true,
            scale: 0.05,
            out_dir: None,
        },
    );
    for m in PER_LAYER {
        assert!(
            printed
                .iter()
                .any(|l| l.starts_with(&format!("{workload} {} ", m.name)) && l.ends_with(m.unit)),
            "{workload}: {} not printed",
            m.name
        );
    }
    assert!(printed[0].contains("seed=1") && printed[0].contains("threads=2"));

    // The driver's object: exactly the four keys, every end-to-end
    // metric with value and unit.
    let Value::Object(obj) = report::result_object(&untraced, false) else {
        panic!("result is an object")
    };
    let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    let Value::Object(metrics) = &obj["metrics"] else {
        panic!("metrics is an object")
    };
    assert_eq!(metrics.len(), END_TO_END.len());
    for m in END_TO_END {
        assert_eq!(
            metrics[m.name].get("unit"),
            Some(&Value::String(m.unit.into()))
        );
        assert!(metrics[m.name]
            .get("value")
            .and_then(Value::as_f64)
            .is_some());
    }
}

#[test]
fn plan_sweep_smoke() {
    check("plan_sweep");
}

#[test]
fn exact_plan_smoke() {
    check("exact_plan");
}

#[test]
fn cut_restore_push_smoke() {
    check("cut_restore_push");
}

#[test]
fn churn_service_smoke() {
    check("churn_service");
}

#[test]
fn benchmark_json_names_what_the_harness_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let Value::Object(top) = &doc else {
        panic!("BENCHMARK.json is an object")
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let list = |key: &str| doc.get(key).and_then(Value::as_array).expect(key).to_vec();
    let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).expect(k).to_string();

    let names: Vec<(String, String)> = list("workloads")
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    let want: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|(n, w)| (n.to_string(), w.to_string()))
        .collect();
    assert_eq!(names, want);
    assert!(names
        .iter()
        .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

    let dir = |b: Better| b.as_str().to_string();
    let e2e: Vec<(String, String, String, f64)> = list("end_to_end")
        .iter()
        .map(|m| {
            (
                field(m, "name"),
                field(m, "unit"),
                field(m, "better"),
                m.get("bound").and_then(Value::as_f64).expect("bound"),
            )
        })
        .collect();
    let want: Vec<(String, String, String, f64)> = END_TO_END
        .iter()
        .map(|m| (m.name.into(), m.unit.into(), dir(m.better), m.bound))
        .collect();
    assert_eq!(e2e, want);

    let layers: BTreeMap<String, (String, String)> = list("per_layer")
        .iter()
        .map(|m| (field(m, "name"), (field(m, "unit"), field(m, "better"))))
        .collect();
    let want: BTreeMap<String, (String, String)> = PER_LAYER
        .iter()
        .map(|m| (m.name.into(), (m.unit.into(), dir(m.better))))
        .collect();
    assert_eq!(layers, want);

    assert_eq!(list("paths"), [Value::String("benchmark".into())]);
    let seconds = doc
        .get("run_seconds")
        .and_then(Value::as_u64)
        .expect("run_seconds");
    assert!((1..=60).contains(&seconds));
    let command: Vec<String> = list("command")
        .iter()
        .map(|c| c.as_str().expect("string").to_string())
        .collect();
    assert_eq!(command.last().map(String::as_str), Some("run"));
    assert!(command.contains(&"benchmark/Cargo.toml".to_string()));
}
