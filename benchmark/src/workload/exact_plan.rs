//! `exact_plan` — demand matrix → certified-optimal plan.
//!
//! One cycle solves the vetted table of [`crate::inputs::EXACT_TABLE`]
//! in seeded order, one client: 26 enumerated branch & bound solves
//! (`PlanModel::build` then `PlanModel::solve` on the 4-node
//! ring-plus-chord, 12- and 16-pixel grids, k = 2) and 5
//! `solve_exact_colgen` solves (T-backbone ×2, CERNET envelope ×3).
//!
//! The branch & bound half is `flexwan-solver` cold (simplex +
//! branch_bound); the colgen half is `core::planning::colgen` — seeding,
//! pricing, separation — around warm re-solves of a restricted master.
//! Every colgen solve is slower than every branch & bound solve, and
//! they are 5 of 31 operations, so the median latency sits in the
//! branch & bound operations and p95 in the colgen operations: the two
//! layers move different end-to-end numbers.

use std::collections::BTreeMap;
use std::time::Instant;

use flexwan_core::planning::{plan, solve_exact_colgen, PlanModel, PlannerConfig};
use flexwan_core::restore::one_fiber_scenarios;
use flexwan_core::Scheme;
use flexwan_solver::{SolveOptions, SolverStats};
use flexwan_topo::continental::{Family, ScaleParams};
use flexwan_topo::ip::{IpLinkId, IpTopology};
use flexwan_topo::tbackbone::Backbone;

use crate::harness::{Recorder, THREADS};
use crate::inputs::{self, Digest, ExactOp};
use crate::verify::Instance;
use crate::workload::{book_plan, book_warm_ratio, ksp_probe, Workload};

/// Node cap of every exact solve; reaching it leaves the answer
/// uncertified, which counts as a failed operation.
const MAX_NODES: usize = 200_000;

/// The workload marker type.
pub struct ExactPlan;

/// Inputs of a run.
pub struct Statics {
    seed: u64,
    scale: f64,
    tb: Backbone,
    cernet: Backbone,
    cfg: PlannerConfig,
    opts: SolveOptions,
    /// T-backbone demand set per vetted variant id.
    tb_demands: BTreeMap<u64, IpTopology>,
    /// CERNET envelope demand set per vetted percentage.
    cernet_demands: BTreeMap<u32, IpTopology>,
}

/// Running totals behind the ratio metrics.
#[derive(Default)]
pub struct World {
    pivots: f64,
    lp_ms: f64,
    nodes: f64,
    total_ms: f64,
    universe_scanned: f64,
    pricing_ms: f64,
    /// Certified colgen solves of the counted cycle.
    certified: f64,
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e3
}

fn lp_ms(st: &SolverStats) -> f64 {
    (st.time_phase1 + st.time_phase2 + st.time_dual).as_secs_f64() * 1e3
}

/// Counters every exact solve feeds, whichever path produced it.
fn record_solver(rec: &mut Recorder, w: &mut World, st: &SolverStats) {
    rec.add("solver.pivots", st.total_pivots() as f64);
    rec.add("solver.dual_pivots", st.dual_pivots as f64);
    rec.add("solver.nodes", st.nodes as f64);
    rec.add("solver.refactorizations", st.refactorizations as f64);
    rec.add("solver.cold_solves", st.cold_solves as f64);
    rec.add("solver.warm_solves", st.warm_solves as f64);
    let total_ms = st.time_total.as_secs_f64() * 1e3;
    rec.time_ms("solver.lp_ms", lp_ms(st));
    rec.time_ms("solver.total_ms", total_ms);
    w.pivots += st.total_pivots() as f64;
    w.lp_ms += lp_ms(st);
    w.nodes += st.nodes as f64;
    w.total_ms += total_ms;
}

impl Statics {
    fn run_op(&self, w: &mut World, op: ExactOp, cycle: u64, rec: &mut Recorder) {
        let id = rec.next_op();
        let what = format!("{op:?}");
        rec.in_flight(format!("exact_plan cycle {cycle} op {id}: {what}"));
        match op {
            ExactOp::Bnb { pixels, ab, ac } => self.run_bnb(w, id, &what, (pixels, ab, ac), rec),
            ExactOp::ColgenTbackbone { variant } => self.run_colgen(
                w,
                id,
                &what,
                (&self.tb, &self.tb_demands[&variant]),
                "core.colgen.ms_per_solve.tbackbone",
                rec,
            ),
            ExactOp::ColgenCernet { pct } => self.run_colgen(
                w,
                id,
                &what,
                (&self.cernet, &self.cernet_demands[&pct]),
                "core.colgen.ms_per_solve.cernet",
                rec,
            ),
        }
    }

    /// `PlanModel::build` then `PlanModel::solve` on the ring instance
    /// `(pixels, a→b Gbps, a→c Gbps)`.
    fn run_bnb(
        &self,
        w: &mut World,
        id: u64,
        what: &str,
        (pixels, ab, ac): (u32, u64, u64),
        rec: &mut Recorder,
    ) {
        let (g, ip, cfg) = inputs::ring_instance(pixels, ab, ac);
        let busy = rec.busy_start();
        let t0 = Instant::now();
        let mut pm = PlanModel::build(Scheme::FlexWan, &g, &ip, &cfg);
        let t1 = Instant::now();
        let solved = pm.solve(&self.opts);
        let t2 = Instant::now();
        rec.busy_end(busy);
        rec.op_done(t2.duration_since(t0).as_nanos() as u64);

        let tr = &mut rec.tracer;
        let (n0, n1, n2) = (tr.ns_since(t0), tr.ns_since(t1), tr.ns_since(t2));
        let root = tr.record("op.exact.bnb", None, id, n0, n2);
        tr.record("core.mip.build", Some(root), id, n0, n1);
        let solve = tr.record("core.mip.solve", Some(root), id, n1, n2);
        rec.time_ms("core.opt.build_ms", ms(t0, t1));
        rec.time_ms("core.mip.solve_ms", ms(t1, t2));
        rec.add("core.opt.gammas", pm.space().gammas().len() as f64);
        let Some(p) = solved else {
            rec.fail(format!("{what}: no incumbent"));
            return;
        };
        rec.tracer
            .record_derived("solver.total", solve, p.stats.time_total.as_nanos() as u64);
        record_solver(rec, w, &p.stats);
        if p.stats.nodes >= MAX_NODES as u64 {
            rec.fail(format!("{what}: node limit reached, optimum uncertified"));
        }
        let inst = Instance {
            graph: &g,
            grid_pixels: pixels,
            align: 1,
        };
        book_plan(rec, what, &inst, &ip, &p.wavelengths, &[], cfg.epsilon);
    }

    /// `solve_exact_colgen` of demand set `ip` on backbone `b`.
    fn run_colgen(
        &self,
        w: &mut World,
        id: u64,
        what: &str,
        (b, ip): (&Backbone, &IpTopology),
        timer: &'static str,
        rec: &mut Recorder,
    ) {
        let busy = rec.busy_start();
        let t0 = Instant::now();
        let solved = solve_exact_colgen(Scheme::FlexWan, &b.optical, ip, &self.cfg, &self.opts);
        let t1 = Instant::now();
        rec.busy_end(busy);
        rec.op_done(t1.duration_since(t0).as_nanos() as u64);

        let (n0, n1) = (rec.tracer.ns_since(t0), rec.tracer.ns_since(t1));
        let root = rec
            .tracer
            .record("core.colgen.solve_exact_colgen", None, id, n0, n1);
        rec.time_ms(timer, ms(t0, t1));
        let Some(cg) = solved else {
            rec.fail(format!("{what}: infeasible"));
            return;
        };
        let st = &cg.plan.stats;
        rec.tracer
            .record_derived("solver.total", root, st.time_total.as_nanos() as u64);
        record_solver(rec, w, st);
        // Everything in the span that is not inside a solver call:
        // seeding, pricing scans, separation, extraction.
        let pricing_ms = (ms(t0, t1) - st.time_total.as_secs_f64() * 1e3).max(0.0);
        rec.time_ms("core.colgen.pricing_ms", pricing_ms);
        let c = &cg.colgen;
        w.universe_scanned += c.universe_size as f64 * (c.pricing_rounds + c.gap_rounds) as f64;
        w.pricing_ms += pricing_ms;
        rec.add("core.colgen.universe", c.universe_size as f64);
        rec.add("core.colgen.columns_in_master", c.columns_in_master as f64);
        rec.add("core.colgen.columns_priced_in", c.columns_priced_in as f64);
        rec.add("core.colgen.pricing_rounds", c.pricing_rounds as f64);
        rec.add("core.colgen.gap_rounds", c.gap_rounds as f64);
        rec.add("core.colgen.conflict_rows", c.conflict_rows as f64);
        if c.fell_back {
            rec.fail(format!(
                "{what}: column generation fell back, optimum uncertified"
            ));
        } else if rec.counting() {
            w.certified += 1.0;
        }
        let inst = Instance {
            graph: &b.optical,
            grid_pixels: self.cfg.grid.pixels(),
            align: 1,
        };
        book_plan(
            rec,
            what,
            &inst,
            ip,
            &cg.plan.wavelengths,
            &[],
            self.cfg.epsilon,
        );
    }

    fn order(&self, cycle: u64) -> Vec<ExactOp> {
        inputs::exact_cycle(
            self.scale,
            &mut inputs::rng(self.seed, "exact_plan.order", cycle, 0),
        )
    }
}

impl Workload for ExactPlan {
    const NAME: &'static str = "exact_plan";
    const WHY: &'static str = "matrix -> certified optimum: cold branch & bound (solver) sets \
        the median, column generation over the full topologies (core.colgen) sets p95";
    type Statics = Statics;
    type World = World;

    fn statics(seed: u64, scale: f64) -> Statics {
        let tb = ScaleParams::tbackbone().build(Family::TBackbone);
        let cernet = ScaleParams::cernet().build(Family::Cernet);
        let cfg = PlannerConfig {
            k_paths: 5,
            ..PlannerConfig::default()
        };
        let mut tb_demands = BTreeMap::new();
        let mut cernet_demands = BTreeMap::new();
        for op in inputs::EXACT_TABLE {
            match op {
                ExactOp::ColgenTbackbone { variant } => {
                    tb_demands.insert(variant, inputs::tbackbone_variant(&tb.ip, variant));
                }
                ExactOp::ColgenCernet { pct } => {
                    // The envelope: links no format reaches at all are
                    // dropped, found by one heuristic plan.
                    let scaled = inputs::cernet_scaled(&cernet.ip, f64::from(pct) / 100.0);
                    let unserved: Vec<IpLinkId> =
                        plan(Scheme::FlexWan, &cernet.optical, &scaled, &cfg)
                            .unmet
                            .iter()
                            .map(|&(l, _)| l)
                            .collect();
                    cernet_demands.insert(pct, inputs::without_links(&scaled, &unserved));
                }
                ExactOp::Bnb { .. } => {}
            }
        }
        Statics {
            seed,
            scale,
            tb,
            cernet,
            cfg,
            opts: SolveOptions {
                max_nodes: MAX_NODES,
                threads: THREADS,
                ..SolveOptions::default()
            },
            tb_demands,
            cernet_demands,
        }
    }

    fn inputs_digest(s: &Statics) -> u64 {
        let mut d = Digest::new();
        // The seed drives only the order; a few cycles of it, so that two
        // seeds differ even when a thinned cycle holds two operations.
        for op in (0..8).flat_map(|cycle| s.order(cycle)) {
            d.bytes(format!("{op:?}").as_bytes());
        }
        s.tb_demands.values().for_each(|ip| d.ip(ip));
        s.cernet_demands.values().for_each(|ip| d.ip(ip));
        d.finish()
    }

    fn world(s: &Statics) -> World {
        // Warm-up: two branch & bound instances (~0.1 s), so lazy set-up
        // in the solver path is paid before timing and `setup_s` is long
        // enough to repeat.
        for demand in [100, 200] {
            let (g, ip, cfg) = inputs::ring_instance(12, demand, demand);
            std::hint::black_box(PlanModel::build(Scheme::FlexWan, &g, &ip, &cfg).solve(&s.opts));
        }
        World::default()
    }

    fn cycle(s: &Statics, w: &mut World, cycle: u64, rec: &mut Recorder) {
        let ops = s.order(cycle);
        let colgen = ops
            .iter()
            .filter(|op| !matches!(op, ExactOp::Bnb { .. }))
            .count();
        for op in ops {
            s.run_op(w, op, cycle, rec);
        }
        if rec.counting() {
            rec.add(
                "core.colgen.certified_ratio",
                w.certified / colgen.max(1) as f64,
            );
        }
        book_warm_ratio(rec);
        rec.set("solver.pivots_per_ms", w.pivots / w.lp_ms.max(1e-9));
        rec.set("solver.nodes_per_s", w.nodes / (w.total_ms / 1e3).max(1e-9));
        rec.set(
            "core.colgen.universe_per_ms",
            w.universe_scanned / w.pricing_ms.max(1e-9),
        );
    }

    fn probes(s: &Statics, _w: &mut World, rec: &mut Recorder) {
        rec.in_flight("exact_plan probe: direct KSP".into());
        ksp_probe(rec, &s.tb.optical, &s.tb.ip, s.cfg.k_paths);

        // core.mip.warm_restore_ms_per_cut: §8 restoration as a warm
        // mutation of a standing model, over every single-fiber cut.
        rec.in_flight("exact_plan probe: warm restoration sweep".into());
        let (g, ip, cfg) = inputs::ring_instance(12, 300, 200);
        let mut pm = PlanModel::build_restorable(Scheme::FlexWan, &g, &ip, &cfg);
        if pm.solve(&s.opts).is_some() {
            for scenario in one_fiber_scenarios(&g) {
                let t = Instant::now();
                std::hint::black_box(pm.restore_after_cut(&g, &scenario, &[], &s.opts));
                rec.time_ms(
                    "core.mip.warm_restore_ms_per_cut",
                    t.elapsed().as_secs_f64() * 1e3,
                );
            }
        }

        // solver.bnb.speedup_2t: a branch & bound subset at 1 vs 2
        // solver threads (the search is deterministic at any count).
        rec.in_flight("exact_plan probe: branch & bound at 1 vs 2 threads".into());
        let wall = |threads: usize| {
            let opts = SolveOptions {
                threads,
                ..s.opts.clone()
            };
            let t = Instant::now();
            for demand in [200, 300, 400] {
                let (g, ip, cfg) = inputs::ring_instance(16, demand, demand);
                std::hint::black_box(PlanModel::build(Scheme::FlexWan, &g, &ip, &cfg).solve(&opts));
            }
            t.elapsed().as_secs_f64()
        };
        let serial = wall(1);
        let parallel = wall(THREADS);
        rec.set("solver.bnb.speedup_2t", serial / parallel.max(1e-9));
    }
}
