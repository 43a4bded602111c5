//! What a run prints and writes: one line per metric, the driver's
//! result object, and the per-seed output file `compare` reads.

use std::collections::BTreeMap;

use flexwan_util::json::{Num, Value};

use crate::harness::{Outcome, RunConfig, THREADS};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::sys;

fn num(v: f64) -> Value {
    Value::Number(Num::F(v))
}

fn uint(v: u64) -> Value {
    Value::Number(Num::U(v))
}

/// Where and how a run was made: everything needed to regenerate it.
pub fn meta(cfg: &RunConfig) -> Value {
    let root = std::env::current_dir().unwrap_or_default();
    Value::obj([
        ("seed", uint(cfg.seed)),
        ("seconds", num(cfg.seconds)),
        ("scale", num(cfg.scale)),
        ("threads", uint(THREADS as u64)),
        ("nproc", uint(sys::nproc() as u64)),
        ("commit", Value::String(sys::git_commit(&root))),
        ("rustc", Value::String(sys::rustc_version().to_string())),
    ])
}

/// The metrics a run of this kind reports: end-to-end for an untraced
/// run, per-layer for a traced one — `(name, value, unit)`.
pub fn reported(out: &Outcome, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
    if trace {
        PER_LAYER
            .iter()
            .map(|m| (m.name, out.per_layer[m.name], m.unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name, out.end_to_end[m.name], m.unit))
            .collect()
    }
}

/// The human-readable part: a header naming seed, threads, cores and
/// commit, then `<workload> <metric> <value> <unit>` per metric.
pub fn lines(out: &Outcome, cfg: &RunConfig) -> Vec<String> {
    let mut lines = vec![format!(
        "# {} {} seed={} threads={THREADS} nproc={} cpus={} commit={} rustc=\"{}\" cycles={} \
         samples={} failed={} inputs={:016x}",
        out.workload,
        if cfg.trace { "traced" } else { "untraced" },
        cfg.seed,
        sys::nproc(),
        out.cpus,
        sys::git_commit(&std::env::current_dir().unwrap_or_default()),
        sys::rustc_version(),
        out.cycles,
        out.attempted,
        out.failed,
        out.inputs_digest,
    )];
    if let Some(f) = &out.first_failure {
        lines.push(format!("# first failed operation: {f}"));
    }
    for b in &out.invariant_breaks {
        lines.push(format!("# harness invariant broken: {b}"));
    }
    for (name, value, unit) in reported(out, cfg.trace) {
        lines.push(format!("{} {name} {value} {unit}", out.workload));
    }
    lines
}

/// The driver's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_object(out: &Outcome, trace: bool) -> Value {
    let metrics = reported(out, trace)
        .into_iter()
        .map(|(name, value, unit)| {
            (
                name,
                Value::obj([("value", num(value)), ("unit", Value::String(unit.into()))]),
            )
        })
        .collect::<Vec<_>>();
    Value::obj([
        ("correct", Value::Bool(out.correct)),
        ("attempted", uint(out.attempted)),
        ("failed", uint(out.failed)),
        ("metrics", Value::obj(metrics)),
    ])
}

/// Everything one run of one workload measured, for the output file.
pub fn detail(out: &Outcome, trace: bool) -> Value {
    let flat = |m: &BTreeMap<&'static str, f64>| {
        Value::obj(m.iter().map(|(k, v)| (*k, num(*v))).collect::<Vec<_>>())
    };
    let mut pairs = vec![
        ("workload", Value::String(out.workload.into())),
        ("trace", Value::Bool(trace)),
        ("correct", Value::Bool(out.correct)),
        ("attempted", uint(out.attempted)),
        ("failed", uint(out.failed)),
        ("cycles", uint(out.cycles)),
        ("cpus", uint(out.cpus as u64)),
        (
            "inputs_digest",
            Value::String(format!("{:016x}", out.inputs_digest)),
        ),
        ("counters", flat(&out.counters)),
    ];
    if trace {
        pairs.push(("per_layer", flat(&out.per_layer)));
    } else {
        pairs.push(("end_to_end", flat(&out.end_to_end)));
    }
    if let Some(f) = &out.first_failure {
        pairs.push(("first_failure", Value::String(f.clone())));
    }
    Value::obj(pairs)
}

/// Prefix of the line carrying [`detail`] from a child run to the
/// all-workloads parent.
pub const DETAIL_PREFIX: &str = "#detail ";

/// The per-layer share table of one output file, as Markdown: one row
/// per layer, one column per workload.
pub fn share_table(file: &Value) -> String {
    let workloads: Vec<(&String, &Value)> = match file.get("workloads") {
        Some(Value::Object(m)) => m.iter().collect(),
        _ => Vec::new(),
    };
    let mut table = String::from("| layer |");
    for (name, _) in &workloads {
        table.push_str(&format!(" `{name}` |"));
    }
    table.push_str("\n|---|");
    table.push_str(&"---:|".repeat(workloads.len()));
    table.push('\n');
    for layer in crate::metrics::SHARE_LAYERS {
        table.push_str(&format!("| `{layer}` |"));
        for (_, w) in &workloads {
            let share = w
                .get("per_layer")
                .and_then(|p| p.get(&format!("share.{layer}")))
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            table.push_str(&format!(" {:.1} % |", share * 100.0));
        }
        table.push('\n');
    }
    for (label, metric) in [
        ("*tracing: traced ÷ untraced − 1*", "trace.overhead_ratio"),
        ("*tracing: span recording ÷ busy*", "trace.recording_ratio"),
    ] {
        table.push_str(&format!("| {label} |"));
        for (_, w) in &workloads {
            let o = w
                .get("per_layer")
                .and_then(|p| p.get(metric))
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            table.push_str(&format!(" {:+.2} % |", o * 100.0));
        }
        table.push('\n');
    }
    table
}
