//! The measurement loop shared by the four workloads.
//!
//! A run sets the workload up [`SETUP_REPS`] times (reporting the median
//! set-up time), then drives whole *cycles* — a cycle is the workload's
//! fixed operation schedule for `(seed, cycle index)` — until
//! `--seconds` have been measured. Timing metrics are taken over the
//! cycles, at the decile on the better side; deterministic counters
//! and the quality metrics are taken over cycle 0 only, whose schedule
//! does not depend on how fast the machine is, so they repeat exactly
//! for one seed and one commit.
//!
//! All parallelism is explicit and fixed at [`THREADS`]; the
//! `FLEXWAN_THREADS` variable is never consulted because no call here
//! passes `threads = 0`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::metrics::{self, Better, LayerKind, END_TO_END, PER_LAYER, SHARE_LAYERS};
use crate::stats;
use crate::sys;
use crate::trace::Tracer;
use crate::verify::Violation;
use crate::workload::Workload;

/// Client threads, solver threads and shard threads of every run.
pub const THREADS: usize = 2;

/// Times a run sets its workload up; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Where, counted from the better side, a timing metric is read off its
/// per-cycle values.
pub const CYCLE_QUANTILE: f64 = 0.10;

/// Parameters of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure (whole cycles; at least one).
    pub seconds: f64,
    /// Traced run: spans on, layer probes run, per-layer metrics out.
    pub trace: bool,
    /// Thins every cycle (1.0 = full size; tests use 0.05).
    pub scale: f64,
    /// Where the trace file goes; `None` keeps it in memory only.
    pub out_dir: Option<std::path::PathBuf>,
}

/// Busy-window bookmark: wall clock and process CPU at its start.
#[derive(Debug, Clone, Copy)]
pub struct Busy {
    wall: Instant,
    cpu_ms: f64,
}

#[derive(Debug, Clone, Default)]
struct CycleTotals {
    /// Latency of every operation of the cycle, ms.
    lat_ms: Vec<f64>,
    busy_ns: u64,
    cpu_ms: f64,
}

impl CycleTotals {
    fn ops(&self) -> u64 {
        self.lat_ms.len() as u64
    }
}

/// What a workload reports into while it runs.
#[derive(Debug)]
pub struct Recorder {
    /// Span recorder (disabled in untraced runs).
    pub tracer: Tracer,
    counting: bool,
    cycles: Vec<CycleTotals>,
    cur: CycleTotals,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
    counts: BTreeMap<&'static str, f64>,
    timers: BTreeMap<&'static str, (f64, u64)>,
    values: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    next_op: u64,
    flight: Arc<Mutex<String>>,
}

impl Recorder {
    fn new(workload: &str, flight: Arc<Mutex<String>>) -> Self {
        Recorder {
            tracer: Tracer::new(workload, false),
            counting: false,
            cycles: Vec::new(),
            cur: CycleTotals::default(),
            attempted: 0,
            failed: 0,
            first_failure: None,
            counts: BTreeMap::new(),
            timers: BTreeMap::new(),
            values: BTreeMap::new(),
            samples: BTreeMap::new(),
            next_op: 0,
            flight,
        }
    }

    /// Whether this cycle's counters are being kept (cycle 0).
    pub fn counting(&self) -> bool {
        self.counting
    }

    /// Names the operation in flight, for the watchdog's last words.
    pub fn in_flight(&self, what: String) {
        *self
            .flight
            .lock()
            .expect("watchdog never panics holding it") = what;
    }

    /// Opens a busy window: time from here to [`Recorder::busy_end`] is
    /// the program under test working (verification stays outside).
    pub fn busy_start(&self) -> Busy {
        Busy {
            cpu_ms: sys::cpu_ms(),
            wall: Instant::now(),
        }
    }

    /// Closes a busy window into the current cycle.
    pub fn busy_end(&mut self, b: Busy) {
        self.cur.busy_ns += b.wall.elapsed().as_nanos() as u64;
        self.cur.cpu_ms += sys::cpu_ms() - b.cpu_ms;
    }

    /// Reserves the id of the next operation (spans carry it).
    pub fn next_op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Records one attempted operation and its latency.
    pub fn op_done(&mut self, latency_ns: u64) {
        self.cur.lat_ms.push(latency_ns as f64 / 1e6);
        self.attempted += 1;
    }

    /// Counts the operation as failed when `violations` is not empty.
    pub fn verified(&mut self, what: &str, violations: &[Violation]) {
        if let Some(v) = violations.first() {
            self.fail(format!("{what}: {:?}: {}", v.kind, v.detail));
        }
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.counting {
            *self.counts.entry("ops.failed").or_default() += 1.0;
        }
        self.first_failure.get_or_insert(why);
    }

    /// Adds to a deterministic counter (kept over cycle 0 only).
    pub fn add(&mut self, name: &'static str, v: f64) {
        debug_assert!(
            metrics::layer(name).is_some_and(|l| l.kind == LayerKind::Count),
            "{name} is not a count metric"
        );
        if self.counting {
            *self.counts.entry(name).or_default() += v;
        }
    }

    /// Adds one observation to a timer; the metric is the mean.
    pub fn time_ms(&mut self, name: &'static str, ms: f64) {
        debug_assert!(
            metrics::layer(name).is_some_and(|l| l.kind == LayerKind::Time),
            "{name} is not a time metric"
        );
        let t = self.timers.entry(name).or_default();
        t.0 += ms;
        t.1 += 1;
    }

    /// Sets a time/ratio metric to a value computed by the workload.
    pub fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(metrics::layer(name).is_some(), "{name} is not a metric");
        self.values.insert(name, v);
    }

    /// Keeps a raw sample under `key` for a percentile taken later.
    pub fn sample(&mut self, key: &'static str, v: f64) {
        self.samples.entry(key).or_default().push(v);
    }

    /// The samples kept under `key`, sorted ascending.
    pub fn sorted_samples(&self, key: &str) -> Vec<f64> {
        stats::sorted(self.samples.get(key).cloned().unwrap_or_default())
    }

    /// Quality of one operation's answer: Gbps it serves of the Gbps
    /// asked, and the hardware cost of the wavelengths it returned.
    pub fn quality(&mut self, served_gbps: u64, asked_gbps: u64, cost: f64) {
        self.add("ops.served_gbps", served_gbps as f64);
        self.add("ops.asked_gbps", asked_gbps as f64);
        self.add("ops.plan_cost_total", cost);
    }

    /// A timer's mean so far, ms (0 when never observed).
    pub fn timer_mean(&self, name: &str) -> f64 {
        self.timers
            .get(name)
            .map_or(0.0, |&(sum, n)| sum / n.max(1) as f64)
    }

    /// A counter's value so far.
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    fn end_cycle(&mut self) {
        self.cycles.push(std::mem::take(&mut self.cur));
    }

    fn busy_s(&self) -> f64 {
        self.cycles.iter().map(|c| c.busy_ns as f64 / 1e9).sum()
    }
}

/// The result of one run of one workload.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Every attempted operation verified and every harness invariant
    /// held.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed verification, was uncertified, or
    /// that errored.
    pub failed: u64,
    /// The first failure, for the log.
    pub first_failure: Option<String>,
    /// End-to-end metrics (meaningful in an untraced run).
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (times and shares meaningful in a traced run;
    /// counters identical in both).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// The deterministic counters this run recorded over cycle 0 (the
    /// subset of `per_layer` that must repeat exactly).
    pub counters: BTreeMap<&'static str, f64>,
    /// Cycles measured.
    pub cycles: u64,
    /// CPUs the run could use: `nproc`, or 1 for a confined workload.
    pub cpus: usize,
    /// Fingerprint of the generated inputs.
    pub inputs_digest: u64,
    /// Harness invariants that broke (non-empty ⇒ exit non-zero).
    pub invariant_breaks: Vec<String>,
}

/// Kills the process when a workload overruns its budget, printing the
/// operation in flight: a solver hang must fail loudly, not stall the
/// pipeline.
pub struct Watchdog {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    /// Starts a watchdog that calls `on_timeout(op in flight)` once
    /// `budget` has passed without [`Watchdog`] being dropped.
    pub fn start(
        budget: Duration,
        flight: Arc<Mutex<String>>,
        on_timeout: impl FnOnce(String) + Send + 'static,
    ) -> Watchdog {
        let stop = Arc::new(AtomicBool::new(false));
        let seen = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let started = Instant::now();
            while !seen.load(Ordering::SeqCst) {
                if started.elapsed() >= budget {
                    let what = flight
                        .lock()
                        .map_or_else(|e| e.into_inner().clone(), |g| g.clone());
                    on_timeout(what);
                    return;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        Watchdog {
            stop,
            handle: Some(handle),
        }
    }

    /// The production watchdog: prints and exits with code 3.
    pub fn start_fatal(
        workload: &'static str,
        budget: Duration,
        flight: Arc<Mutex<String>>,
    ) -> Watchdog {
        Watchdog::start(budget, flight, move |what| {
            eprintln!(
                "watchdog: {workload} exceeded {:.0} s (4x its sized budget); in flight: {what}",
                budget.as_secs_f64()
            );
            std::process::exit(3);
        })
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            // The thread only sleeps and reads flags; a panic there is
            // not worth propagating out of a destructor.
            let _ = h.join();
        }
    }
}

/// Sized budget of a run: the measured seconds, one cycle of overrun,
/// and set-up. The watchdog fires at 4× this.
pub fn sized_budget(seconds: f64) -> Duration {
    Duration::from_secs_f64(seconds + 10.0)
}

/// What recording one span costs, ns: an open/close pair on a scratch
/// tracer, timed over a batch.
fn span_cost_ns() -> f64 {
    const BATCH: u32 = 20_000;
    let mut scratch = Tracer::new("scratch", true);
    let t = Instant::now();
    for op in 0..BATCH {
        let id = scratch.open("probe.span", None, u64::from(op));
        scratch.close(id);
    }
    t.elapsed().as_nanos() as f64 / f64::from(BATCH)
}

/// Runs workload `W` once — on a thread of its own, confined to one CPU,
/// when the workload asks for that (the caller's affinity is left alone).
pub fn run<W: Workload>(cfg: &RunConfig) -> Outcome {
    if !W::ONE_CPU {
        return measure::<W>(cfg);
    }
    std::thread::scope(|s| {
        s.spawn(|| {
            // Where the kernel refuses, the run goes on unpinned and its
            // `cpus` says so.
            sys::pin_to_one_cpu();
            measure::<W>(cfg)
        })
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

fn measure<W: Workload>(cfg: &RunConfig) -> Outcome {
    let flight = Arc::new(Mutex::new(String::from("set-up")));
    let _watchdog =
        Watchdog::start_fatal(W::NAME, sized_budget(cfg.seconds) * 4, Arc::clone(&flight));
    let mut rec = Recorder::new(W::NAME, flight);

    // Set-up, SETUP_REPS times: input generation, stand-up, warm-up.
    // The last one is kept.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let t = Instant::now();
        let statics = W::statics(cfg.seed, cfg.scale);
        let world = W::world(&statics);
        setup_s.push(t.elapsed().as_secs_f64());
        kept = Some((statics, world));
    }
    let (statics, mut world) = kept.expect("SETUP_REPS > 0");

    let (mut overhead, mut recording) = (0.0, 0.0);
    let started = Instant::now();
    if cfg.trace {
        // Cycle 0 once untraced (the overhead base), the layer probes,
        // then cycle 0 again with spans on.
        let mut base = Recorder::new(W::NAME, Arc::clone(&rec.flight));
        W::cycle(&statics, &mut world, 0, &mut base);
        base.end_cycle();
        rec.tracer.set_enabled(true);
        W::probes(&statics, &mut world, &mut rec);
        let spans_before = rec.tracer.spans().len();
        rec.counting = true;
        W::cycle(&statics, &mut world, 0, &mut rec);
        rec.end_cycle();
        rec.counting = false;
        overhead = rec.busy_s() / base.busy_s().max(1e-9) - 1.0;
        let spans = (rec.tracer.spans().len() - spans_before) as f64;
        recording = spans * span_cost_ns() / (rec.busy_s() * 1e9).max(1.0);
    } else {
        rec.counting = true;
        W::cycle(&statics, &mut world, 0, &mut rec);
        rec.end_cycle();
        rec.counting = false;
    }
    let mut cycle = 1;
    while started.elapsed().as_secs_f64() < cfg.seconds {
        W::cycle(&statics, &mut world, cycle, &mut rec);
        rec.end_cycle();
        cycle += 1;
    }
    rec.in_flight("tear-down".into());
    drop(world);

    let mut out = summarize(
        W::NAME,
        &rec,
        stats::median(&setup_s),
        W::inputs_digest(&statics),
    );
    out.per_layer.insert("trace.overhead_ratio", overhead);
    out.per_layer.insert("trace.recording_ratio", recording);
    if cfg.trace {
        if let Some(dir) = &cfg.out_dir {
            let path = dir.join(format!("trace-{}.json", W::NAME));
            if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| rec.tracer.write_json(&path))
            {
                out.invariant_breaks
                    .push(format!("cannot write {}: {e}", path.display()));
            }
        }
    }
    out
}

/// The layer a span name belongs to: the longest [`SHARE_LAYERS`] entry
/// that prefixes it.
fn layer_of(span: &str) -> Option<&'static str> {
    SHARE_LAYERS
        .iter()
        .copied()
        .filter(|l| {
            span.strip_prefix(l)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
        })
        .max_by_key(|l| l.len())
}

/// Each layer's share of traced operation time: Σ self time of the
/// layer's spans ÷ Σ duration of the operation spans. An operation span
/// is a root span that is decomposed (has a child) or is itself a call
/// into a layer; roots under `probe.` and bare roots of no layer (the
/// orchestrator's monolithic tick) are left out, with their subtrees.
///
/// Also returns the coverage of the decomposed operations: the part of
/// their duration their child spans cover (`trace.coverage_ratio`).
pub fn layer_shares(tracer: &Tracer) -> (Vec<(&'static str, f64)>, f64) {
    let spans = tracer.spans();
    let selfs = tracer.self_times();
    let mut has_child = vec![false; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            has_child[p as usize] = true;
        }
    }
    // Spans are recorded parents-first, so a root's verdict is known
    // before its descendants ask for it.
    let mut counted = vec![false; spans.len()];
    let mut total = 0u64;
    let (mut decomposed, mut uncovered) = (0u64, 0u64);
    let mut per_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        counted[i] = match s.parent {
            Some(p) => counted[p as usize],
            None => !s.name.starts_with("probe.") && (has_child[i] || layer_of(s.name).is_some()),
        };
        if !counted[i] {
            continue;
        }
        if s.parent.is_none() {
            total += s.duration_ns();
            if has_child[i] {
                decomposed += s.duration_ns();
                uncovered += selfs[i];
            }
        }
        if let Some(layer) = layer_of(s.name) {
            *per_layer.entry(layer).or_default() += selfs[i];
        }
    }
    let shares = SHARE_LAYERS
        .iter()
        .map(|&l| {
            let ns = per_layer.get(l).copied().unwrap_or(0);
            (l, ns as f64 / total.max(1) as f64)
        })
        .collect();
    let coverage = if decomposed == 0 {
        0.0
    } else {
        1.0 - uncovered as f64 / decomposed as f64
    };
    (shares, coverage)
}

fn summarize(workload: &'static str, rec: &Recorder, setup_s: f64, inputs_digest: u64) -> Outcome {
    // Every timing metric is taken over the run's cycles (equal-op
    // segments) of the cycle's own statistic, at the decile on the
    // better side: the machine only ever disturbs a cycle towards slow
    // (a stolen vCPU, a busy sibling hyperthread), so that decile holds
    // still while up to nine tenths of a run are disturbed, and a real
    // regression moves every cycle alike. Cycle 0 is left out when
    // there are others: it runs on cold allocator arenas and page tables
    // and is reliably the slowest.
    let ops: u64 = rec.cycles.iter().map(CycleTotals::ops).sum();
    let timed = &rec.cycles[usize::from(rec.cycles.len() > 1)..];
    let per_cycle = |f: &dyn Fn(&CycleTotals) -> f64| -> Vec<f64> { timed.iter().map(f).collect() };
    let rates = per_cycle(&|c| c.ops() as f64 / (c.busy_ns as f64 / 1e9).max(1e-12));
    let cycle_percentile =
        |q: f64| per_cycle(&|c| stats::percentile(&stats::sorted(c.lat_ms.clone()), q));
    let cpu_per_op = per_cycle(&|c| c.cpu_ms / c.ops().max(1) as f64);
    let lat = stats::sorted(
        rec.cycles
            .iter()
            .flat_map(|c| c.lat_ms.iter().copied())
            .collect(),
    );

    let served = rec.count("ops.served_gbps");
    let asked = rec.count("ops.asked_gbps");

    let mut e2e: BTreeMap<&'static str, f64> = BTreeMap::new();
    e2e.insert("setup_s", setup_s);
    let over_cycles =
        |values: &[f64], better| stats::better_quantile(values, better, CYCLE_QUANTILE);
    e2e.insert("ops_per_s", over_cycles(&rates, Better::Higher));
    e2e.insert(
        "op_p50_ms",
        over_cycles(&cycle_percentile(0.50), Better::Lower),
    );
    e2e.insert(
        "op_p95_ms",
        over_cycles(&cycle_percentile(0.95), Better::Lower),
    );
    e2e.insert("cpu_ms_per_op", over_cycles(&cpu_per_op, Better::Lower));
    e2e.insert("peak_rss_mib", sys::peak_rss_mib());
    e2e.insert("served_ratio", served / asked.max(1.0));
    e2e.insert(
        "cost_per_tbps",
        rec.count("ops.plan_cost_total") / (served / 1000.0).max(1e-9),
    );

    let mut layers: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|l| (l.name, 0.0)).collect();
    for (name, v) in &rec.counts {
        layers.insert(name, *v);
    }
    for name in rec.timers.keys() {
        layers.insert(name, rec.timer_mean(name));
    }
    for (name, v) in &rec.values {
        layers.insert(name, *v);
    }
    let mut counters = rec.counts.clone();
    counters.insert(
        "ops.cycle",
        rec.cycles.first().map_or(0.0, |c| c.ops() as f64),
    );
    layers.insert("ops.cycle", counters["ops.cycle"]);
    layers.insert("ops.p99_ms", stats::percentile(&lat, 0.99));
    layers.insert("ops.segment_spread", stats::spread(&rates));
    let (shares, coverage) = layer_shares(&rec.tracer);
    layers.insert("trace.coverage_ratio", coverage);
    for (layer, share) in shares {
        let name = PER_LAYER
            .iter()
            .map(|l| l.name)
            .find(|n| n.strip_prefix("share.") == Some(layer))
            .expect("every share layer has a metric");
        layers.insert(name, share);
    }

    let mut breaks = Vec::new();
    if ops == 0 {
        breaks.push("no operation was attempted".to_string());
    }
    for m in END_TO_END {
        let v = e2e[m.name];
        if !(v.is_finite() && v > 0.0) {
            breaks.push(format!(
                "end-to-end metric {} = {v} is not a positive number",
                m.name
            ));
        }
    }
    for (name, v) in &layers {
        if !v.is_finite() {
            breaks.push(format!("per-layer metric {name} = {v} is not finite"));
        }
    }
    Outcome {
        workload,
        correct: rec.failed == 0 && breaks.is_empty(),
        attempted: rec.attempted,
        failed: rec.failed,
        first_failure: rec.first_failure.clone(),
        end_to_end: e2e,
        per_layer: layers,
        counters,
        cycles: rec.cycles.len() as u64,
        cpus: sys::nproc(),
        inputs_digest,
        invariant_breaks: breaks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn watchdog_names_the_op_in_flight_and_stays_quiet_when_stopped() {
        let flight = Arc::new(Mutex::new(String::from("set-up")));
        let (tx, rx) = mpsc::channel();
        let dog = Watchdog::start(
            Duration::from_millis(60),
            Arc::clone(&flight),
            move |what| {
                tx.send(what).expect("test is listening");
            },
        );
        *flight.lock().unwrap() = "exact_plan op 7: colgen tbackbone v7".into();
        let said = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("watchdog fired");
        assert_eq!(said, "exact_plan op 7: colgen tbackbone v7");
        drop(dog);

        let (tx, rx) = mpsc::channel::<String>();
        let dog = Watchdog::start(Duration::from_secs(3600), flight, move |what| {
            let _ = tx.send(what);
        });
        drop(dog); // joins promptly without firing
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
    }

    #[test]
    fn shares_attribute_self_time_to_layers_over_decomposed_ops() {
        let mut t = Tracer::new("w", true);
        // A decomposed op: 1000 ns, 300 in restore (100 of it KSP), 500
        // pushing, 200 unattributed.
        let op = t.record("op.cut_replay", None, 1, 0, 1000);
        let r = t.record("core.restore.restore", Some(op), 1, 0, 300);
        t.record_derived("topo.ksp.banned", r, 100);
        t.record("ctrl.controller.push", Some(op), 1, 300, 800);
        // A bare layer call is an op too; a bare non-layer root and a
        // probe are not.
        t.record("core.heuristic.plan_cached", None, 2, 2000, 3000);
        t.record("ctrl.orchestrator.tick", None, 3, 4000, 9000);
        let p = t.record("probe.topo.ksp", None, 0, 9000, 9900);
        t.record("topo.ksp.banned", Some(p), 0, 9000, 9900);
        let (shares, coverage) = layer_shares(&t);
        let share = |l: &str| shares.iter().find(|(n, _)| *n == l).unwrap().1;
        assert_eq!(share("topo"), 100.0 / 2000.0);
        assert_eq!(share("core.restore"), 200.0 / 2000.0);
        assert_eq!(share("ctrl.controller"), 500.0 / 2000.0);
        assert_eq!(share("core.heuristic"), 1000.0 / 2000.0);
        assert_eq!(share("solver"), 0.0);
        assert_eq!(coverage, 0.8);
        assert_eq!(
            layer_of("core.heuristic.plan_cached"),
            Some("core.heuristic")
        );
        assert_eq!(layer_of("core.heuristics"), None);
    }

    #[test]
    fn recorder_keeps_counters_for_the_counted_cycle_only() {
        let mut rec = Recorder::new("w", Arc::new(Mutex::new(String::new())));
        rec.counting = true;
        rec.add("solver.pivots", 5.0);
        rec.quality(900, 1000, 3.5);
        rec.op_done(2_000_000);
        rec.end_cycle();
        rec.counting = false;
        rec.add("solver.pivots", 7.0);
        rec.quality(1, 1, 1.0);
        rec.op_done(4_000_000);
        rec.fail("late failure".into());
        rec.end_cycle();
        let out = summarize("w", &rec, 0.5, 9);
        assert_eq!(out.per_layer["solver.pivots"], 5.0);
        assert_eq!(out.per_layer["ops.failed"], 0.0);
        assert_eq!(out.end_to_end["served_ratio"], 0.9);
        assert_eq!(out.end_to_end["cost_per_tbps"], 3.5 / 0.9);
        assert_eq!(out.end_to_end["op_p50_ms"], 4.0);
        assert_eq!((out.attempted, out.failed, out.cycles), (2, 1, 2));
        assert!(!out.correct);
        assert_eq!(out.per_layer.len(), PER_LAYER.len());
    }
}
