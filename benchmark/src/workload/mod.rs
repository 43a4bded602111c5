//! The four workloads. Each is closed-loop (a client issues its next
//! request only when the previous one has returned) and every operation
//! is verified before it counts.

use std::collections::HashSet;
use std::time::Instant;

use flexwan_core::Wavelength;
use flexwan_topo::graph::Graph;
use flexwan_topo::ip::{IpLinkId, IpTopology};
use flexwan_topo::route::{conduits, k_shortest_routes};

use crate::harness::{Outcome, Recorder, RunConfig};
use crate::verify::{hardware_cost, served_gbps, Instance};

pub mod churn_service;
pub mod cut_restore_push;
pub mod exact_plan;
pub mod plan_sweep;

/// One workload: how to generate its inputs, stand it up, and run one
/// cycle of its operation schedule.
pub trait Workload {
    /// Name, as in `BENCHMARK.json`.
    const NAME: &'static str;
    /// One line on why the workload exists.
    const WHY: &'static str;
    /// Whether the run is confined to one CPU. For a workload with one
    /// client whose work is hand-offs between threads: where those
    /// threads land decides its speed, and on one CPU they land in one
    /// place.
    const ONE_CPU: bool = false;
    /// Inputs generated from the seed (topologies, demand sets, orders).
    type Statics;
    /// What stands between cycles (warm caches, running totals).
    type World;

    /// Generates the run's inputs. `scale` thins every cycle.
    fn statics(seed: u64, scale: f64) -> Self::Statics;
    /// Fingerprint of the generated inputs.
    fn inputs_digest(statics: &Self::Statics) -> u64;
    /// Stands the workload up and warms it (untimed round included).
    fn world(statics: &Self::Statics) -> Self::World;
    /// Runs cycle `cycle` of the schedule, reporting into `rec`.
    fn cycle(statics: &Self::Statics, world: &mut Self::World, cycle: u64, rec: &mut Recorder);
    /// Traced-run extras: direct calls into single layers whose cost the
    /// monolithic operations hide.
    fn probes(statics: &Self::Statics, world: &mut Self::World, rec: &mut Recorder);
}

/// Name and rationale of every workload, in running order.
pub const WORKLOADS: [(&str, &str); 4] = [
    (plan_sweep::PlanSweep::NAME, plan_sweep::PlanSweep::WHY),
    (exact_plan::ExactPlan::NAME, exact_plan::ExactPlan::WHY),
    (
        cut_restore_push::CutRestorePush::NAME,
        cut_restore_push::CutRestorePush::WHY,
    ),
    (
        churn_service::ChurnServiceLoad::NAME,
        churn_service::ChurnServiceLoad::WHY,
    ),
];

/// Runs the workload called `name`; `None` for an unknown name.
pub fn run_named(name: &str, cfg: &RunConfig) -> Option<Outcome> {
    use crate::harness::run;
    Some(match name {
        plan_sweep::PlanSweep::NAME => run::<plan_sweep::PlanSweep>(cfg),
        exact_plan::ExactPlan::NAME => run::<exact_plan::ExactPlan>(cfg),
        cut_restore_push::CutRestorePush::NAME => run::<cut_restore_push::CutRestorePush>(cfg),
        churn_service::ChurnServiceLoad::NAME => run::<churn_service::ChurnServiceLoad>(cfg),
        _ => return None,
    })
}

/// Verifies the plan an operation returned for `ip` and books what it
/// serves and costs. `unmet` is the shortfall the planner declared
/// (empty for an exact plan, which must cover every demand).
pub fn book_plan(
    rec: &mut Recorder,
    what: &str,
    inst: &Instance<'_>,
    ip: &IpTopology,
    wavelengths: &[Wavelength],
    unmet: &[(IpLinkId, u64)],
    epsilon: f64,
) {
    rec.verified(what, &inst.check_plan(ip, wavelengths, unmet));
    rec.quality(
        served_gbps(ip, wavelengths),
        ip.total_demand_gbps(),
        hardware_cost(wavelengths, epsilon),
    );
}

/// `solver.warm_ratio` of the counted cycle, from the solve counters
/// booked so far.
pub fn book_warm_ratio(rec: &mut Recorder) {
    if rec.counting() {
        let (warm, cold) = (
            rec.count("solver.warm_solves"),
            rec.count("solver.cold_solves"),
        );
        rec.add("solver.warm_ratio", warm / (warm + cold).max(1.0));
    }
}

/// `topo.ksp.*`: Yen's algorithm called directly over the endpoint pairs
/// of `ip`, once with no fiber banned and once with the first conduit of
/// `graph` banned (the shape of a restoration query).
pub fn ksp_probe(rec: &mut Recorder, graph: &Graph, ip: &IpTopology, k: usize) {
    let none = HashSet::new();
    let banned: HashSet<_> = conduits(graph)
        .into_iter()
        .next()
        .unwrap_or_default()
        .into_iter()
        .collect();
    let links = ip.links();
    for (set, metric) in [
        (&none, "topo.ksp.us_per_call"),
        (&banned, "topo.ksp.banned_us_per_call"),
    ] {
        let span = rec.tracer.open("probe.topo.ksp", None, 0);
        let t = Instant::now();
        for l in links {
            std::hint::black_box(k_shortest_routes(graph, l.src, l.dst, k, set));
        }
        rec.set(
            metric,
            t.elapsed().as_secs_f64() * 1e6 / links.len().max(1) as f64,
        );
        rec.tracer.close(span);
    }
    rec.set("topo.ksp.calls", 2.0 * links.len() as f64);
}
