//! `flexwan` — command-line front-end to the FlexWAN reproduction.
//!
//! ```text
//! flexwan plan     --topology net.json [--scheme flexwan|radwan|100g] [--scale N] [--k K] [--defrag N]
//! flexwan restore  --topology net.json [--scheme …] --cut A-B [--cut C-D] [--plus]
//! flexwan export   --builtin tbackbone|cernet [--out net.json]
//! flexwan svt-table
//! flexwan help
//! ```
//!
//! Argument parsing is hand-rolled (the workspace carries no CLI
//! dependency); see `flexwan help` for the full reference.

use std::collections::HashMap;
use std::process::ExitCode;

use flexwan::core::planning::{plan, PlannerConfig};
use flexwan::core::restore::{flexwan_plus_extra_spares, restore, FailureScenario};
use flexwan::core::Scheme;
use flexwan::io::TopologyFile;
use flexwan::optical::transponder::SVT_TABLE;
use flexwan::topo::continental::{Family, ScaleParams};
use flexwan::topo::graph::{Graph, NodeId};
use flexwan::topo::ip::IpTopology;
use flexwan::topo::tbackbone::Backbone;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("run `flexwan help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err("missing command".into());
    };
    let opts = parse_flags(&args[1..])?;
    match cmd.as_str() {
        "plan" => cmd_plan(&opts),
        "restore" => cmd_restore(&opts),
        "export" => cmd_export(&opts),
        "svt-table" => {
            cmd_svt_table();
            Ok(())
        }
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(format!("unknown command {other}")),
    }
}

/// Parsed `--flag value` pairs (repeatable flags collect).
struct Opts(HashMap<String, Vec<String>>);

impl Opts {
    fn one(&self, key: &str) -> Option<&str> {
        self.0.get(key).and_then(|v| v.last()).map(String::as_str)
    }
    fn many(&self, key: &str) -> &[String] {
        self.0.get(key).map(Vec::as_slice).unwrap_or(&[])
    }
    fn flag(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }
}

fn parse_flags(args: &[String]) -> Result<Opts, String> {
    let mut map: HashMap<String, Vec<String>> = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("expected --flag, got {a}"));
        };
        // Boolean flags: --plus; valued flags take the next token.
        if matches!(key, "plus") {
            map.entry(key.to_string()).or_default();
            i += 1;
        } else {
            let v = args
                .get(i + 1)
                .ok_or_else(|| format!("--{key} needs a value"))?;
            map.entry(key.to_string()).or_default().push(v.clone());
            i += 2;
        }
    }
    Ok(Opts(map))
}

fn load_backbone(opts: &Opts) -> Result<Backbone, String> {
    if let Some(path) = opts.one("topology") {
        let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        TopologyFile::from_json(&json)
            .and_then(|tf| tf.build())
            .map_err(|e| e.to_string())
    } else if let Some(builtin) = opts.one("builtin") {
        builtin_backbone(builtin)
    } else {
        Err("need --topology FILE or --builtin NAME".into())
    }
}

fn builtin_backbone(name: &str) -> Result<Backbone, String> {
    match name {
        "tbackbone" => Ok(ScaleParams::tbackbone().build(Family::TBackbone)),
        "cernet" => Ok(ScaleParams::cernet().build(Family::Cernet)),
        other => Err(format!("unknown builtin {other} (tbackbone|cernet)")),
    }
}

fn parse_scheme(opts: &Opts) -> Result<Scheme, String> {
    match opts.one("scheme").unwrap_or("flexwan") {
        "flexwan" => Ok(Scheme::FlexWan),
        "radwan" => Ok(Scheme::Radwan),
        "100g" | "100g-wan" => Ok(Scheme::FixedGrid100G),
        other => Err(format!("unknown scheme {other} (flexwan|radwan|100g)")),
    }
}

fn parse_config(opts: &Opts) -> Result<PlannerConfig, String> {
    let mut cfg = PlannerConfig::default();
    if let Some(k) = opts.one("k") {
        cfg.k_paths = k.parse().map_err(|_| format!("bad --k {k}"))?;
    }
    if let Some(d) = opts.one("defrag") {
        cfg.defrag_moves = d.parse().map_err(|_| format!("bad --defrag {d}"))?;
    }
    if let Some(e) = opts.one("epsilon") {
        cfg.epsilon = e.parse().map_err(|_| format!("bad --epsilon {e}"))?;
    }
    cfg.validate().map_err(|e| e.to_string())?;
    Ok(cfg)
}

/// `ip` with every demand multiplied by `--scale N` (default 1). A zero
/// scale, or one that overflows a link's demand or the total, is an
/// error.
fn scaled_ip(opts: &Opts, ip: &IpTopology) -> Result<IpTopology, String> {
    let scale: u64 = opts
        .one("scale")
        .unwrap_or("1")
        .parse()
        .map_err(|_| "bad --scale")?;
    if scale == 0 {
        return Err("--scale must be at least 1".into());
    }
    let total = ip.links().iter().try_fold(0u64, |total, l| {
        l.demand_gbps.checked_mul(scale)?.checked_add(total)
    });
    if total.is_none() {
        return Err(format!("--scale {scale} overflows the demand"));
    }
    Ok(ip.scaled(scale))
}

fn cmd_plan(opts: &Opts) -> Result<(), String> {
    let b = load_backbone(opts)?;
    let scheme = parse_scheme(opts)?;
    let cfg = parse_config(opts)?;
    let ip = scaled_ip(opts, &b.ip)?;
    let p = plan(scheme, &b.optical, &ip, &cfg);
    println!(
        "{}: {} wavelengths, {:.1} GHz spectrum, demand {} Gbps, unmet {} Gbps",
        scheme.name(),
        p.transponder_count(),
        p.spectrum_usage_ghz(),
        ip.total_demand_gbps(),
        p.unmet_gbps()
    );
    for w in &p.wavelengths {
        println!("  {w}");
    }
    if !p.is_feasible() {
        println!("NOT FEASIBLE: {} links unmet", p.unmet.len());
    }
    Ok(())
}

fn cmd_restore(opts: &Opts) -> Result<(), String> {
    let b = load_backbone(opts)?;
    let scheme = parse_scheme(opts)?;
    let cfg = parse_config(opts)?;
    let ip = scaled_ip(opts, &b.ip)?;
    // Cuts are named A-B (all parallel fibers between A and B are cut).
    let mut cuts = Vec::new();
    for spec in opts.many("cut") {
        let (na, nb) = parse_cut(&b.optical, spec)?;
        let members: Vec<_> = b
            .optical
            .edges()
            .iter()
            .filter(|e| (e.a == na && e.b == nb) || (e.a == nb && e.b == na))
            .map(|e| e.id)
            .collect();
        if members.is_empty() {
            let (a, z) = (&b.optical.node(na).name, &b.optical.node(nb).name);
            return Err(format!("no fiber between {a} and {z}"));
        }
        cuts.extend(members);
    }
    if cuts.is_empty() {
        return Err("need at least one --cut SRC-DST".into());
    }
    let p = plan(scheme, &b.optical, &ip, &cfg);
    let spares = if opts.flag("plus") {
        flexwan_plus_extra_spares(&b.optical, &ip, &cfg)
    } else {
        Vec::new()
    };
    let scenario = FailureScenario {
        id: 0,
        cuts,
        probability: 1.0,
    };
    let r = restore(&p, &b.optical, &ip, &scenario, &spares, &cfg);
    println!(
        "{}: affected {} Gbps, restored {} Gbps (capability {:.1}%)",
        scheme.name(),
        r.affected_gbps,
        r.restored_gbps,
        100.0 * r.capability()
    );
    for rw in &r.restored {
        println!("  {}", rw.wavelength);
    }
    Ok(())
}

/// Reads a `--cut SRC-DST` spec. Node names may themselves contain `-`,
/// so every split at a `-` is tried: exactly one must name two nodes.
fn parse_cut(g: &Graph, spec: &str) -> Result<(NodeId, NodeId), String> {
    let readings: Vec<(&str, &str, NodeId, NodeId)> = spec
        .match_indices('-')
        .filter_map(|(i, _)| {
            let (a, b) = (&spec[..i], &spec[i + 1..]);
            Some((a, b, g.node_by_name(a)?, g.node_by_name(b)?))
        })
        .collect();
    match readings[..] {
        [(_, _, a, b)] => Ok((a, b)),
        [] => Err(format!(
            "--cut {spec} does not split into two known nodes SRC-DST"
        )),
        _ => Err(format!(
            "--cut {spec} is ambiguous: it reads as {}",
            readings
                .iter()
                .map(|(a, b, ..)| format!("{a} / {b}"))
                .collect::<Vec<_>>()
                .join(" or ")
        )),
    }
}

fn cmd_export(opts: &Opts) -> Result<(), String> {
    let name = opts
        .one("builtin")
        .ok_or("need --builtin tbackbone|cernet")?;
    let b = builtin_backbone(name)?;
    let json = TopologyFile::from_backbone(&b).to_json();
    match opts.one("out") {
        Some(path) => {
            std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
            println!("wrote {path}");
        }
        None => println!("{json}"),
    }
    Ok(())
}

fn cmd_svt_table() {
    println!("SVT capability table (Table 2): rate, spacing → optical reach");
    for &(rate, ghz, reach) in SVT_TABLE {
        println!("  {rate:>4} Gbps @ {ghz:>6.1} GHz → {reach:>5} km");
    }
}

fn print_help() {
    println!(
        "flexwan — FlexWAN (SIGCOMM 2023) reproduction CLI

USAGE:
  flexwan plan     --topology FILE | --builtin NAME
                   [--scheme flexwan|radwan|100g] [--scale N]
                   [--k K] [--epsilon E] [--defrag MOVES]
  flexwan restore  --topology FILE | --builtin NAME --cut SRC-DST ...
                   [--scheme …] [--scale N] [--plus]
  flexwan export   --builtin tbackbone|cernet [--out FILE]
  flexwan svt-table
  flexwan help

The topology FILE is JSON: {{nodes, fibers: [{{a,b,km}}], links: [{{src,dst,gbps}}]}}."
    );
}
