//! `plan_sweep` — demand matrix → committed plan, heuristic path.
//!
//! Each round draws a ±10 % per-link demand perturbation (100 G
//! quantised) for every topology and issues [`REQUESTS`] plan requests
//! through `par_map` with [`THREADS`] clients over warm route caches:
//! `plan_cached` × 3 schemes × scale 1..6 on the T-backbone, × 3 schemes
//! × scale 1..2 on CERNET, plus one `solve_sharded` and two monolithic
//! `plan_cached` (FlexWAN, RADWAN) on a 12-region × 10-metro continental
//! instance.
//!
//! `core::planning::heuristic` (format DP + spectrum assignment) and
//! warm-cache route lookup do nearly all the work; the solver and
//! `ctrl` do none, so a solver or controller change must leave this
//! workload flat, and sharded-vs-monolithic on one instance shows
//! whether sharding pays.

use std::collections::HashSet;
use std::time::Instant;

use flexwan_core::planning::{
    plan_cached, solve_sharded, Plan, PlannerConfig, ShardConfig, ShardedPlan,
};
use flexwan_core::Scheme;
use flexwan_topo::cache::RouteCache;
use flexwan_topo::continental::{continental, Continental, Family, ScaleParams};
use flexwan_topo::graph::Graph;
use flexwan_topo::ip::IpTopology;
use flexwan_topo::tbackbone::Backbone;
use flexwan_util::pool::par_map;

use crate::harness::{Recorder, THREADS};
use crate::inputs::{self, Digest};
use crate::verify::{hardware_cost, Instance};
use crate::workload::{book_plan, ksp_probe, Workload};

/// Plan requests per round.
/// An odd count on purpose: the median then falls on one request kind,
/// not on the boundary between two kinds 30 % apart.
pub const REQUESTS: usize = 27;

/// Rounds per cycle at full scale.
const ROUNDS: usize = 10;

const TB_SCALES: u64 = 6;
const CERNET_SCALES: u64 = 2;

/// The workload marker type.
pub struct PlanSweep;

/// Which topology a request plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    Tbackbone,
    Cernet,
    /// Continental instance, monolithic `plan_cached`.
    Continental,
    /// Continental instance, `solve_sharded`.
    Sharded,
}

/// One plan request: scheme, topology, and which of the round's demand
/// sets it plans.
#[derive(Debug, Clone, Copy)]
struct Request {
    target: Target,
    scheme: Scheme,
    demand: usize,
}

enum Answer {
    Plan(Plan),
    Sharded(ShardedPlan),
}

/// Inputs of a run.
pub struct Statics {
    seed: u64,
    rounds: usize,
    tb: Backbone,
    cernet: Backbone,
    cont: Continental,
    /// K = 5 candidate routes, as in every §7 experiment.
    cfg: PlannerConfig,
    /// K = 3 on the continental instance, as in the sharding suite.
    cont_cfg: PlannerConfig,
    shard: ShardConfig,
}

/// Standing state: one route cache per topology (a cache key does not
/// name its graph), warmed by the set-up round.
pub struct World {
    tb_cache: RouteCache,
    cernet_cache: RouteCache,
    cont_cache: RouteCache,
    /// Route fetch + clone time of each request kind on the warm cache,
    /// ns; measured by the probes, 0 before.
    fetch_ns: Vec<u64>,
    wavelengths: f64,
    heuristic_ms: f64,
}

impl Statics {
    fn requests() -> Vec<Request> {
        let mut reqs = Vec::with_capacity(REQUESTS);
        for scale in 0..TB_SCALES as usize {
            for scheme in Scheme::ALL {
                reqs.push(Request {
                    target: Target::Tbackbone,
                    scheme,
                    demand: scale,
                });
            }
        }
        for scale in 0..CERNET_SCALES as usize {
            for scheme in Scheme::ALL {
                reqs.push(Request {
                    target: Target::Cernet,
                    scheme,
                    demand: TB_SCALES as usize + scale,
                });
            }
        }
        let cont = (TB_SCALES + CERNET_SCALES) as usize;
        reqs.push(Request {
            target: Target::Sharded,
            scheme: Scheme::FlexWan,
            demand: cont,
        });
        for scheme in [Scheme::FlexWan, Scheme::Radwan] {
            reqs.push(Request {
                target: Target::Continental,
                scheme,
                demand: cont,
            });
        }
        debug_assert_eq!(reqs.len(), REQUESTS);
        reqs
    }

    /// The demand sets of round `(cycle, round)`: one ±10 % draw per
    /// topology, scaled up the ladder.
    fn demands(&self, cycle: u64, round: u64) -> Vec<IpTopology> {
        let draw = |base: &IpTopology, stream: &str| {
            inputs::perturb(base, &mut inputs::rng(self.seed, stream, cycle, round), 0.1)
        };
        ladder(
            &draw(&self.tb.ip, "plan_sweep.tbackbone"),
            &draw(&self.cernet.ip, "plan_sweep.cernet"),
            draw(&self.cont.backbone.ip, "plan_sweep.continental"),
        )
    }

    fn graph(&self, target: Target) -> &Graph {
        match target {
            Target::Tbackbone => &self.tb.optical,
            Target::Cernet => &self.cernet.optical,
            Target::Continental | Target::Sharded => &self.cont.backbone.optical,
        }
    }

    fn planner(&self, target: Target) -> &PlannerConfig {
        match target {
            Target::Tbackbone | Target::Cernet => &self.cfg,
            Target::Continental | Target::Sharded => &self.cont_cfg,
        }
    }
}

/// The demand sets a round's requests index: the T-backbone at scale
/// 1..6, CERNET at scale 1..2, the continental instance.
fn ladder(tb: &IpTopology, cernet: &IpTopology, cont: IpTopology) -> Vec<IpTopology> {
    let mut sets: Vec<IpTopology> = (1..=TB_SCALES).map(|s| tb.scaled(s)).collect();
    sets.extend((1..=CERNET_SCALES).map(|s| cernet.scaled(s)));
    sets.push(cont);
    sets
}

impl World {
    fn cache(&self, target: Target) -> &RouteCache {
        match target {
            Target::Tbackbone => &self.tb_cache,
            Target::Cernet => &self.cernet_cache,
            Target::Continental | Target::Sharded => &self.cont_cache,
        }
    }

    fn cache_totals(&self) -> (u64, u64, usize) {
        [&self.tb_cache, &self.cernet_cache, &self.cont_cache]
            .iter()
            .fold((0, 0, 0), |(h, m, n), c| {
                (h + c.hits(), m + c.misses(), n + c.len())
            })
    }
}

fn answer(s: &Statics, w: &World, req: &Request, ip: &IpTopology) -> Answer {
    let (graph, cfg, cache) = (
        s.graph(req.target),
        s.planner(req.target),
        w.cache(req.target),
    );
    match req.target {
        Target::Sharded => Answer::Sharded(solve_sharded(
            req.scheme,
            graph,
            ip,
            cfg,
            &s.cont.region_of,
            &s.cont.hubs,
            &s.shard,
            cache,
        )),
        _ => Answer::Plan(plan_cached(req.scheme, graph, ip, cfg, cache)),
    }
}

/// One round: the requests fanned out over `clients` closed-loop
/// clients. Returns each answer with the instant its call started and
/// its latency.
fn round(
    s: &Statics,
    w: &World,
    reqs: &[Request],
    demands: &[IpTopology],
    clients: usize,
) -> Vec<(Answer, Instant, u64)> {
    par_map(reqs, clients, |req| {
        let t = Instant::now();
        let a = answer(s, w, req, &demands[req.demand]);
        (a, t, t.elapsed().as_nanos() as u64)
    })
}

fn span_name(target: Target) -> &'static str {
    match target {
        Target::Sharded => "core.shard.solve_sharded",
        _ => "core.heuristic.plan_cached",
    }
}

impl Workload for PlanSweep {
    const NAME: &'static str = "plan_sweep";
    const WHY: &'static str = "matrix -> plan on the heuristic path over warm route caches: \
        format DP + spectrum assignment do the work, solver and ctrl none";
    type Statics = Statics;
    type World = World;

    fn statics(seed: u64, scale: f64) -> Statics {
        Statics {
            seed,
            rounds: inputs::scaled(ROUNDS, scale),
            tb: ScaleParams::tbackbone().build(Family::TBackbone),
            cernet: ScaleParams::cernet().build(Family::Cernet),
            cont: continental(&ScaleParams {
                regions: 12,
                metros_per_region: 10,
                ..ScaleParams::continental()
            }),
            cfg: PlannerConfig {
                k_paths: 5,
                ..PlannerConfig::default()
            },
            cont_cfg: PlannerConfig {
                k_paths: 3,
                ..PlannerConfig::default()
            },
            // One thread inside the sharded solve: the two clients are
            // the parallelism; the request itself stays serial.
            shard: ShardConfig {
                threads: 1,
                ..ShardConfig::default()
            },
        }
    }

    fn inputs_digest(s: &Statics) -> u64 {
        let mut d = Digest::new();
        for ip in s.demands(0, 0) {
            d.ip(&ip);
        }
        d.finish()
    }

    fn world(s: &Statics) -> World {
        let w = World {
            tb_cache: RouteCache::new(),
            cernet_cache: RouteCache::new(),
            cont_cache: RouteCache::new(),
            fetch_ns: vec![0; REQUESTS],
            wavelengths: 0.0,
            heuristic_ms: 0.0,
        };
        // Warm-up round on the unperturbed demands: fills every cache
        // key the timed rounds will ask for (routes do not depend on
        // demand).
        let reqs = Statics::requests();
        let demands = ladder(&s.tb.ip, &s.cernet.ip, s.cont.backbone.ip.clone());
        std::hint::black_box(round(s, &w, &reqs, &demands, THREADS));
        w
    }

    fn cycle(s: &Statics, w: &mut World, cycle: u64, rec: &mut Recorder) {
        let reqs = Statics::requests();
        let (hits0, misses0, _) = w.cache_totals();
        for r in 0..s.rounds as u64 {
            let demands = s.demands(cycle, r);
            rec.in_flight(format!(
                "plan_sweep cycle {cycle} round {r}: {REQUESTS} plan requests"
            ));
            let busy = rec.busy_start();
            let answers = round(s, w, &reqs, &demands, THREADS);
            rec.busy_end(busy);

            for (i, (req, (ans, started, lat_ns))) in reqs.iter().zip(answers).enumerate() {
                let op = rec.next_op();
                rec.op_done(lat_ns);
                let start = rec.tracer.ns_since(started);
                let span =
                    rec.tracer
                        .record(span_name(req.target), None, op, start, start + lat_ns);
                let ip = &demands[req.demand];
                let cfg = s.planner(req.target);
                let inst = Instance {
                    graph: s.graph(req.target),
                    grid_pixels: cfg.grid.pixels(),
                    align: req.scheme.alignment_pixels().max(cfg.min_alignment),
                };
                let ms = lat_ns as f64 / 1e6;
                match ans {
                    Answer::Plan(p) => {
                        rec.tracer
                            .record_derived("topo.cache.fetch", span, w.fetch_ns[i]);
                        book_plan(
                            rec,
                            &format!(
                                "plan_cached {} {:?} demand set {}",
                                req.scheme, req.target, req.demand
                            ),
                            &inst,
                            ip,
                            &p.wavelengths,
                            &p.unmet,
                            cfg.epsilon,
                        );
                        rec.time_ms(
                            match req.target {
                                Target::Tbackbone => "core.heuristic.ms_per_plan.tbackbone",
                                Target::Cernet => "core.heuristic.ms_per_plan.cernet",
                                _ => "core.heuristic.ms_per_plan.continental",
                            },
                            ms,
                        );
                        w.wavelengths += p.wavelengths.len() as f64;
                        w.heuristic_ms += ms;
                        rec.add("core.heuristic.plans", 1.0);
                        rec.add("core.heuristic.unmet_gbps", p.unmet_gbps() as f64);
                    }
                    Answer::Sharded(sp) => {
                        rec.verified("solve_sharded continental", &inst.check_sharded(&sp));
                        rec.time_ms("core.shard.ms_per_plan", ms);
                        rec.time_ms("core.shard.core_ms", sp.stats.core_ms as f64);
                        rec.time_ms(
                            "core.shard.region_ms_max",
                            sp.stats.per_region_ms.iter().copied().max().unwrap_or(0) as f64,
                        );
                        rec.add("core.shard.region_solves", sp.stats.region_solves as f64);
                        rec.add(
                            "core.shard.coordination_rounds",
                            sp.stats.coordination_rounds as f64,
                        );
                        let all = sp.all_wavelengths();
                        let asked = ip.total_demand_gbps();
                        rec.quality(
                            asked.saturating_sub(sp.unmet_gbps),
                            asked,
                            hardware_cost(&all, cfg.epsilon),
                        );
                    }
                }
            }
        }
        if rec.counting() {
            let (hits, misses, entries) = w.cache_totals();
            let (h, m) = ((hits - hits0) as f64, (misses - misses0) as f64);
            rec.add("topo.cache.hits", h);
            rec.add("topo.cache.misses", m);
            rec.add("topo.cache.entries", entries as f64);
            rec.add("topo.cache.hit_ratio", h / (h + m).max(1.0));
        }
        rec.set(
            "core.heuristic.wavelengths_per_ms",
            w.wavelengths / w.heuristic_ms.max(1e-9),
        );
        rec.set(
            "core.shard.vs_monolithic_ratio",
            rec.timer_mean("core.shard.ms_per_plan")
                / rec
                    .timer_mean("core.heuristic.ms_per_plan.continental")
                    .max(1e-9),
        );
    }

    fn probes(s: &Statics, w: &mut World, rec: &mut Recorder) {
        let none = HashSet::new();
        let links = s.tb.ip.links();
        let k = s.cfg.k_paths;

        rec.in_flight("plan_sweep probe: direct KSP".into());
        ksp_probe(rec, &s.tb.optical, &s.tb.ip, k);

        // topo.cache.hit_us: a lookup of a resident key.
        let reps = 50;
        let t = Instant::now();
        for _ in 0..reps {
            for l in links {
                std::hint::black_box(w.tb_cache.routes(&s.tb.optical, l.src, l.dst, k, &none));
            }
        }
        rec.set(
            "topo.cache.hit_us",
            t.elapsed().as_secs_f64() * 1e6 / (reps * links.len()) as f64,
        );

        // Route share of a warm plan: what `plan_cached` does before it
        // plans — one lookup and one deep clone per link.
        let reqs = Statics::requests();
        let demands = s.demands(0, 0);
        for (i, req) in reqs.iter().enumerate() {
            if req.target == Target::Sharded {
                continue;
            }
            let (graph, cfg, cache) = (
                s.graph(req.target),
                s.planner(req.target),
                w.cache(req.target),
            );
            let t = Instant::now();
            for _ in 0..5 {
                for l in demands[req.demand].links() {
                    std::hint::black_box(
                        (*cache.routes(graph, l.src, l.dst, cfg.k_paths, &none)).clone(),
                    );
                }
            }
            w.fetch_ns[i] = t.elapsed().as_nanos() as u64 / 5;
        }

        // Cold plan: fresh cache, so cold − warm is the KSP share.
        rec.in_flight("plan_sweep probe: cold-cache plan".into());
        for _ in 0..3 {
            let t = Instant::now();
            std::hint::black_box(plan_cached(
                Scheme::FlexWan,
                &s.tb.optical,
                &s.tb.ip,
                &s.cfg,
                &RouteCache::new(),
            ));
            rec.time_ms(
                "core.heuristic.cold_ms_per_plan.tbackbone",
                t.elapsed().as_secs_f64() * 1e3,
            );
        }

        // util.pool.speedup_2t: a quarter-length sweep at 1 vs 2 clients.
        rec.in_flight("plan_sweep probe: pool speed-up".into());
        let quarter = (s.rounds / 4).max(1) as u64;
        let wall = |clients: usize| {
            let t = Instant::now();
            for r in 0..quarter {
                std::hint::black_box(round(s, w, &reqs, &s.demands(0, r), clients));
            }
            t.elapsed().as_secs_f64()
        };
        let serial = wall(1);
        let parallel = wall(THREADS);
        rec.set("util.pool.speedup_2t", serial / parallel.max(1e-9));
    }
}
