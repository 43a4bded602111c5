//! Command line: `run`, `compare`, `shares`.
//!
//! ```text
//! run --seed <u64> [--workload <name>] [--seconds <s>] [--trace 0|1]
//!     [--traced] [--scale <x>] [--out-dir <dir>]
//! compare <A.json> <B.json>
//! shares <out.json>
//! ```
//!
//! `run --workload W` measures one workload in this process and prints,
//! last, the result object the driver reads. `run` without `--workload`
//! runs every workload, each in a fresh process (peak memory is per
//! workload), untraced — and traced too with `--traced` — and writes
//! `<out-dir>/<seed>.json`.

use std::path::PathBuf;
use std::process::Command;

use flexwan_util::json::{self, Value};

use crate::compare::compare;
use crate::harness::RunConfig;
use crate::report::{self, DETAIL_PREFIX};
use crate::workload::{run_named, WORKLOADS};

const USAGE: &str = "usage:
  run --seed <u64> [--workload <name>] [--seconds <s>] [--trace 0|1] [--traced]
      [--scale <x>] [--out-dir <dir>]
  compare <A.json> <B.json>
  shares <out.json>";

/// Exit code of a usage error.
const EXIT_USAGE: i32 = 2;
/// Exit code of a failed run or a failed comparison.
const EXIT_FAILED: i32 = 1;

struct RunArgs {
    workload: Option<String>,
    traced_too: bool,
    cfg: RunConfig,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: None,
        traced_too: false,
        cfg: RunConfig {
            seed: 1,
            seconds: 30.0,
            trace: false,
            scale: 1.0,
            out_dir: Some(PathBuf::from("benchmark/out")),
        },
    };
    let mut seen_seed = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            out.traced_too = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: not {what}");
        match flag.as_str() {
            "--workload" => out.workload = Some(value.clone()),
            "--seed" => {
                out.cfg.seed = value.parse().map_err(|_| bad("an unsigned integer"))?;
                seen_seed = true;
            }
            "--seconds" => {
                out.cfg.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a number of seconds"))?;
            }
            "--scale" => {
                out.cfg.scale = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 1.0)
                    .ok_or_else(|| bad("a scale in (0, 1]"))?;
            }
            "--trace" => {
                out.cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out-dir" => out.cfg.out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !seen_seed {
        return Err("--seed is required".into());
    }
    if let Some(w) = &out.workload {
        if !WORKLOADS.iter().any(|(name, _)| name == w) {
            let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            return Err(format!("unknown workload {w}; one of {}", names.join(", ")));
        }
    }
    Ok(out)
}

/// One workload, in this process. The last line printed is the result
/// object; the line before it carries the full detail for a parent.
fn run_one(workload: &str, cfg: &RunConfig) -> i32 {
    let out = run_named(workload, cfg).expect("workload name was validated");
    for line in report::lines(&out, cfg) {
        println!("{line}");
    }
    println!("{DETAIL_PREFIX}{}", report::detail(&out, cfg.trace));
    println!("{}", report::result_object(&out, cfg.trace));
    if out.invariant_breaks.is_empty() {
        0
    } else {
        EXIT_FAILED
    }
}

/// Runs this executable again for one workload and returns its detail.
fn spawn_one(workload: &str, args: &RunArgs, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &args.cfg.seed.to_string()])
        .args(["--seconds", &args.cfg.seconds.to_string()])
        .args(["--scale", &args.cfg.scale.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(dir) = &args.cfg.out_dir {
        cmd.arg("--out-dir").arg(dir);
    }
    // `output` waits for the child to end.
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    for line in stdout.lines() {
        match line.strip_prefix(DETAIL_PREFIX) {
            Some(d) => detail = Some(d.to_string()),
            None if line.starts_with('{') => {}
            None => println!("{line}"),
        }
    }
    if !output.status.success() {
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        return Err(format!("{workload} exited with {}", output.status));
    }
    let detail = detail.ok_or_else(|| format!("{workload} printed no detail line"))?;
    json::parse(&detail).map_err(|e| format!("{workload} detail: {e:?}"))
}

/// Every workload, each in a fresh process; writes `<seed>.json`.
fn run_all(args: &RunArgs) -> i32 {
    let mut workloads = Vec::new();
    let mut failed = false;
    for (name, _) in WORKLOADS {
        let untraced = match spawn_one(name, args, false) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("error: {e}");
                failed = true;
                continue;
            }
        };
        let Value::Object(mut merged) = untraced else {
            eprintln!("error: {name} detail is not an object");
            failed = true;
            continue;
        };
        if args.traced_too {
            match spawn_one(name, args, true) {
                Ok(traced) => {
                    if let Some(layers) = traced.get("per_layer") {
                        merged.insert("per_layer".into(), layers.clone());
                    }
                    failed |= traced.get("correct") != Some(&Value::Bool(true));
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    failed = true;
                }
            }
        }
        failed |= merged.get("correct") != Some(&Value::Bool(true));
        merged.remove("trace");
        workloads.push((name, Value::Object(merged)));
    }
    let file = Value::obj([
        ("meta", report::meta(&args.cfg)),
        ("claim", Value::Null),
        ("workloads", Value::obj(workloads)),
    ]);
    if args.traced_too {
        println!("\nShare of traced operation time per layer:\n");
        print!("{}", report::share_table(&file));
    }
    let dir = args.cfg.out_dir.clone().expect("parse_run always sets it");
    let path = dir.join(format!("{}.json", args.cfg.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, format!("{}\n", json::to_string_pretty(&file))));
    match written {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("error: cannot write {}: {e}", path.display());
            failed = true;
        }
    }
    if failed {
        EXIT_FAILED
    } else {
        0
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e:?}"))
}

/// Entry point; returns the process exit code.
pub fn main(args: Vec<String>) -> i32 {
    let fail = |msg: String| {
        eprintln!("error: {msg}\n{USAGE}");
        EXIT_USAGE
    };
    match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]) {
            Ok(a) => match &a.workload {
                Some(w) => run_one(w, &a.cfg),
                None => run_all(&a),
            },
            Err(e) => fail(e),
        },
        Some("compare") if args.len() == 3 => match (load(&args[1]), load(&args[2])) {
            (Ok(a), Ok(b)) => {
                let found = compare(&a, &b);
                for f in &found {
                    println!("{} {}: {}", f.workload, f.metric, f.detail);
                }
                if found.is_empty() {
                    println!("ok: B is within every bound of A");
                    0
                } else {
                    EXIT_FAILED
                }
            }
            (Err(e), _) | (_, Err(e)) => fail(e),
        },
        Some("shares") if args.len() == 2 => match load(&args[1]) {
            Ok(file) => {
                print!("{}", report::share_table(&file));
                0
            }
            Err(e) => fail(e),
        },
        _ => fail("expected run, compare or shares".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse_run(&args(
            "--workload exact_plan --seed 7 --seconds 30 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("exact_plan"));
        assert_eq!((a.cfg.seed, a.cfg.seconds, a.cfg.trace), (7, 30.0, true));
        assert_eq!(a.cfg.scale, 1.0);
        let a = parse_run(&args("--seed 1 --traced --scale 0.05")).unwrap();
        assert!(a.workload.is_none() && a.traced_too && !a.cfg.trace);
    }

    #[test]
    fn bad_command_lines_are_usage_errors() {
        for bad in [
            "--workload exact_plan",
            "--seed x",
            "--seed 1 --trace 2",
            "--seed 1 --workload nope",
            "--seed 1 --scale 0",
            "--seed 1 --seconds",
            "--seed 1 --bogus 3",
        ] {
            assert!(parse_run(&args(bad)).is_err(), "{bad}");
        }
        assert_eq!(main(args("frobnicate")), EXIT_USAGE);
        assert_eq!(main(args("compare only-one.json")), EXIT_USAGE);
    }
}
