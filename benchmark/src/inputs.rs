//! Seeded input generation. The seed drives only what is built here —
//! demand perturbations, scenario orders, event streams — and the
//! program under test receives the generated inputs, never the seed.
//!
//! Every generator is a pure function of its arguments, so the same
//! seed gives byte-identical inputs ([`Digest`] pins that in the
//! harness tests and in every output file).

use flexwan_core::planning::PlannerConfig;
use flexwan_core::restore::{conduit_cut_scenarios, FailureScenario};
use flexwan_ctrl::service::ChurnEvent;
use flexwan_optical::spectrum::SpectrumGrid;
use flexwan_topo::graph::{EdgeId, Graph};
use flexwan_topo::ip::{IpLinkId, IpTopology};
use flexwan_util::rng::ChaCha8Rng;

/// A generator for one named input stream of one run: the stream name
/// and indices are mixed into the seed so streams never share draws.
pub fn rng(seed: u64, stream: &str, a: u64, b: u64) -> ChaCha8Rng {
    let mut d = Digest::new();
    d.u64(seed);
    d.bytes(stream.as_bytes());
    d.u64(a);
    d.u64(b);
    ChaCha8Rng::seed_from_u64(d.finish())
}

/// FNV-1a over the generated inputs: a cheap fingerprint that two runs
/// were handed the same bytes.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

impl Digest {
    /// The FNV offset basis.
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes one integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Mixes a demand set (endpoints and Gbps of every link, in order).
    pub fn ip(&mut self, ip: &IpTopology) {
        for l in ip.links() {
            self.u64(u64::from(l.src.0));
            self.u64(u64::from(l.dst.0));
            self.u64(l.demand_gbps);
        }
    }

    /// Mixes a scenario list (cut fibers of every scenario, in order).
    pub fn scenarios(&mut self, scenarios: &[FailureScenario]) {
        for s in scenarios {
            self.u64(s.cuts.len() as u64);
            for c in &s.cuts {
                self.u64(u64::from(c.0));
            }
        }
    }

    /// The fingerprint.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// `ip` with every demand scaled by an independent uniform factor in
/// `[1 − spread, 1 + spread]`, rounded to the 100 Gbps port quantum
/// (never below one port). Endpoints and link order are unchanged.
pub fn perturb(ip: &IpTopology, rng: &mut ChaCha8Rng, spread: f64) -> IpTopology {
    let mut out = IpTopology::new();
    for l in ip.links() {
        let factor = 1.0 + spread * (2.0 * rng.gen_f64() - 1.0);
        let ports = ((l.demand_gbps as f64 * factor) / 100.0).round() as u64;
        out.add_link(l.src, l.dst, ports.max(1) * 100);
    }
    out
}

/// One restoration sweep over `graph`: every conduit cut plus
/// `double_cuts` two-fiber cuts (two fibers of different conduits), in
/// seeded order. Scenario ids are positions in the returned list.
pub fn cut_sweep(graph: &Graph, double_cuts: usize, rng: &mut ChaCha8Rng) -> Vec<FailureScenario> {
    let mut sweep = conduit_cut_scenarios(graph);
    let target = sweep.len() + double_cuts;
    let conduit_of = |e: EdgeId| {
        let edge = graph.edge(e);
        (edge.a.min(edge.b), edge.a.max(edge.b))
    };
    let fibers = graph.num_edges() as u32;
    while sweep.len() < target && fibers >= 2 {
        let a = EdgeId(rng.gen_range(0..fibers));
        let b = EdgeId(rng.gen_range(0..fibers));
        if conduit_of(a) == conduit_of(b) {
            continue;
        }
        sweep.push(FailureScenario {
            id: 0,
            cuts: vec![a.min(b), a.max(b)],
            probability: 0.0,
        });
    }
    rng.shuffle(&mut sweep);
    let n = sweep.len() as f64;
    for (i, s) in sweep.iter_mut().enumerate() {
        s.id = i;
        s.probability = 1.0 / n;
    }
    sweep
}

/// One exact-planning operation, from the vetted table below.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExactOp {
    /// Enumerated branch & bound on the 4-node ring-plus-chord instance:
    /// `PlanModel::build` then `PlanModel::solve`, demands `(a→b, a→c)`.
    Bnb {
        /// Pixels per fiber.
        pixels: u32,
        /// Demand a→b, Gbps.
        ab: u64,
        /// Demand a→c, Gbps.
        ac: u64,
    },
    /// `solve_exact_colgen` on the T-backbone; `variant` 0 is the
    /// unperturbed demand set, `v > 0` the ±10 % perturbation drawn from
    /// generator `v` ([`tbackbone_variant`]).
    ColgenTbackbone {
        /// Pinned perturbation id.
        variant: u64,
    },
    /// `solve_exact_colgen` on the CERNET envelope at `pct` % of the
    /// default demands ([`cernet_scaled`] + [`without_links`]).
    ColgenCernet {
        /// Demand scale, percent.
        pct: u32,
    },
}

/// The vetted exact-instance table: one cycle of `exact_plan` solves
/// exactly these, in seeded order. Every entry was solved to a
/// certified optimum on the reference box (times in `README.md`); the
/// exclusions are listed there too. The seed never perturbs an exact
/// instance: a ±10 % draw can cost 5× the time of its neighbour
/// (variants 5 and 7: 1.2 s and 0.9 s against 0.23 s) and a ±20 % draw
/// has been seen not to finish, so a seeded demand set would turn a
/// solver hang into a benchmark failure. The three CERNET envelopes are
/// the slowest operations and sit close together (290–360 ms), so p95
/// falls inside a cluster, not on the edge of one; and the table holds
/// an odd number of operations, so the median is one instance, not the
/// boundary between two.
pub const EXACT_TABLE: [ExactOp; 31] = {
    const fn b(pixels: u32, ab: u64, ac: u64) -> ExactOp {
        ExactOp::Bnb { pixels, ab, ac }
    }
    [
        b(12, 100, 100),
        b(12, 100, 200),
        b(12, 100, 300),
        b(12, 100, 400),
        b(12, 200, 100),
        b(12, 200, 200),
        b(12, 200, 300),
        b(12, 200, 400),
        b(12, 300, 100),
        b(12, 300, 200),
        b(12, 300, 300),
        b(12, 300, 400),
        b(12, 400, 100),
        b(12, 400, 200),
        b(12, 400, 300),
        b(12, 400, 400),
        b(16, 200, 200),
        b(16, 200, 300),
        b(16, 200, 400),
        b(16, 300, 200),
        b(16, 300, 300),
        b(16, 300, 400),
        b(16, 400, 100),
        b(16, 400, 200),
        b(16, 400, 300),
        b(16, 400, 400),
        ExactOp::ColgenTbackbone { variant: 0 },
        ExactOp::ColgenTbackbone { variant: 9 },
        ExactOp::ColgenCernet { pct: 50 },
        ExactOp::ColgenCernet { pct: 60 },
        ExactOp::ColgenCernet { pct: 70 },
    ]
};

/// One cycle of `exact_plan`: the vetted table thinned to `scale` (at
/// least one branch & bound and one column-generation solve), shuffled.
pub fn exact_cycle(scale: f64, rng: &mut ChaCha8Rng) -> Vec<ExactOp> {
    let (bnb, colgen): (Vec<ExactOp>, Vec<ExactOp>) = EXACT_TABLE
        .iter()
        .partition(|op| matches!(op, ExactOp::Bnb { .. }));
    // Thinning keeps the cheapest instances of each kind: within a grid
    // size the table runs from the costliest demand pair to the cheapest,
    // and the unperturbed T-backbone is the cheapest colgen solve.
    let mut ops: Vec<ExactOp> = bnb[..16]
        .iter()
        .rev()
        .chain(bnb[16..].iter().rev())
        .take(scaled(bnb.len(), scale))
        .copied()
        .collect();
    ops.extend(colgen.iter().take(scaled(colgen.len(), scale)));
    rng.shuffle(&mut ops);
    ops
}

/// `n` thinned by `scale`, never below one.
pub fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale).round() as usize).clamp(1, n.max(1))
}

/// The 4-node ring-plus-chord instance of the exact validation suite.
pub fn ring_instance(pixels: u32, ab: u64, ac: u64) -> (Graph, IpTopology, PlannerConfig) {
    let mut g = Graph::new();
    let a = g.add_node("a");
    let b = g.add_node("b");
    let c = g.add_node("c");
    let d = g.add_node("d");
    g.add_edge(a, b, 420);
    g.add_edge(b, c, 360);
    g.add_edge(c, d, 510);
    g.add_edge(d, a, 280);
    g.add_edge(a, c, 760);
    let mut ip = IpTopology::new();
    ip.add_link(a, b, ab);
    ip.add_link(a, c, ac);
    let cfg = PlannerConfig {
        grid: SpectrumGrid::new(pixels),
        k_paths: 2,
        ..Default::default()
    };
    (g, ip, cfg)
}

/// T-backbone demand variant `v` of the vetted table.
pub fn tbackbone_variant(base: &IpTopology, variant: u64) -> IpTopology {
    if variant == 0 {
        return base.clone();
    }
    perturb(base, &mut ChaCha8Rng::seed_from_u64(variant), 0.1)
}

/// CERNET at `scale` × its default demands, floored to the port quantum
/// (never below one port). With [`without_links`] applied to the links
/// no format can reach at all — which the caller finds by planning the
/// scaled demands heuristically once — this is the exactly-solvable
/// envelope of `flexwan_bench::instances`, rebuilt here because the
/// benchmark does not depend on `crates/bench`.
pub fn cernet_scaled(base: &IpTopology, scale: f64) -> IpTopology {
    let mut scaled = IpTopology::new();
    for l in base.links() {
        let d = ((l.demand_gbps as f64 * scale / 100.0).floor() as u64 * 100).max(100);
        scaled.add_link(l.src, l.dst, d);
    }
    scaled
}

/// `ip` without the links in `unserved` (ids are renumbered densely).
pub fn without_links(ip: &IpTopology, unserved: &[IpLinkId]) -> IpTopology {
    let mut out = IpTopology::new();
    for l in ip.links() {
        if !unserved.contains(&l.id) {
            out.add_link(l.src, l.dst, l.demand_gbps);
        }
    }
    out
}

/// The churn drill backbone: 4 nodes with detour diversity, so every cut
/// the stream can issue — including the double cut of fibers 0 and 1 —
/// leaves an alternate route. `pixels` sizes the exact model the
/// service keeps standing.
pub fn drill_backbone(pixels: u32) -> (Graph, IpTopology, PlannerConfig) {
    let mut g = Graph::new();
    let a = g.add_node("a");
    let b = g.add_node("b");
    let c = g.add_node("c");
    let d = g.add_node("d");
    g.add_edge(a, b, 400);
    g.add_edge(b, c, 400);
    g.add_edge(a, c, 900);
    g.add_edge(c, d, 400);
    g.add_edge(a, d, 900);
    let mut ip = IpTopology::new();
    ip.add_link(a, c, 300);
    ip.add_link(a, d, 200);
    let cfg = PlannerConfig {
        grid: SpectrumGrid::new(pixels),
        k_paths: 2,
        ..Default::default()
    };
    (g, ip, cfg)
}

/// The dominant class of a churn event, for per-class tick times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventClass {
    /// Sub-threshold telemetry drift.
    Drift,
    /// An IP link resized.
    Demand,
    /// A fiber repaired.
    Repair,
    /// A fiber cut.
    Cut,
}

/// The class of `e`.
pub fn class_of(e: &ChurnEvent) -> EventClass {
    match e {
        ChurnEvent::TelemetryDrift { .. } => EventClass::Drift,
        ChurnEvent::DemandDelta { .. } => EventClass::Demand,
        ChurnEvent::FiberRepair(_) => EventClass::Repair,
        ChurnEvent::FiberCut(_) | ChurnEvent::SimultaneousCuts(_) => EventClass::Cut,
    }
}

/// A mixed-churn stream over the drill backbone: 50 % sub-threshold
/// drift, 20 % demand resizes, 20 % cuts of fibers {0, 1}, 10 % repairs;
/// every cut is repaired before the stream ends. The per-fiber drift sum
/// stays inside ±9.5 dB (an out-of-band delta is flipped), so drift
/// never escalates to a cut however long the stream is.
pub fn churn_stream(events: usize, rng: &mut ChaCha8Rng) -> Vec<ChurnEvent> {
    let mut cut: Vec<EdgeId> = Vec::new();
    let mut drift = [0.0f64; 5];
    let mut out = Vec::with_capacity(events + 2);
    while out.len() < events {
        match rng.gen_range(0..10u32) {
            0..=4 => {
                let f = rng.gen_range(0..5usize);
                let mut delta = if rng.gen_bool(0.5) { -0.5 } else { 0.4 };
                if (drift[f] + delta).abs() >= 9.5 {
                    delta = if delta < 0.0 { 0.4 } else { -0.5 };
                }
                drift[f] += delta;
                out.push(ChurnEvent::TelemetryDrift {
                    fiber: EdgeId(f as u32),
                    delta_db: delta,
                });
            }
            5 | 6 => out.push(ChurnEvent::DemandDelta {
                link: IpLinkId(rng.gen_range(0..2u32)),
                demand_gbps: 100 * rng.gen_range(2..4u64),
            }),
            7 | 8 => {
                let f = EdgeId(rng.gen_range(0..2u32));
                if !cut.contains(&f) {
                    cut.push(f);
                    out.push(ChurnEvent::FiberCut(f));
                }
            }
            _ => {
                if !cut.is_empty() {
                    out.push(ChurnEvent::FiberRepair(cut.remove(0)));
                }
            }
        }
    }
    out.extend(cut.into_iter().map(ChurnEvent::FiberRepair));
    out
}

/// Fingerprint of an event stream.
pub fn digest_events(d: &mut Digest, events: &[ChurnEvent]) {
    for e in events {
        match e {
            ChurnEvent::FiberCut(f) => {
                d.u64(1);
                d.u64(u64::from(f.0));
            }
            ChurnEvent::FiberRepair(f) => {
                d.u64(2);
                d.u64(u64::from(f.0));
            }
            ChurnEvent::DemandDelta { link, demand_gbps } => {
                d.u64(3);
                d.u64(u64::from(link.0));
                d.u64(*demand_gbps);
            }
            ChurnEvent::TelemetryDrift { fiber, delta_db } => {
                d.u64(4);
                d.u64(u64::from(fiber.0));
                d.u64(delta_db.to_bits());
            }
            ChurnEvent::SimultaneousCuts(fs) => {
                d.u64(5);
                for f in fs {
                    d.u64(u64::from(f.0));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexwan_topo::continental::{Family, ScaleParams};

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let tb = ScaleParams::tbackbone().build(Family::TBackbone);
        let fingerprint = |seed: u64| {
            let mut d = Digest::new();
            d.ip(&perturb(&tb.ip, &mut rng(seed, "demand", 0, 0), 0.1));
            d.scenarios(&cut_sweep(&tb.optical, 10, &mut rng(seed, "sweep", 0, 0)));
            digest_events(&mut d, &churn_stream(64, &mut rng(seed, "churn", 0, 0)));
            for op in exact_cycle(1.0, &mut rng(seed, "exact", 0, 0)) {
                d.bytes(format!("{op:?}").as_bytes());
            }
            d.finish()
        };
        assert_eq!(fingerprint(1), fingerprint(1));
        assert_ne!(fingerprint(1), fingerprint(2));
        // Streams of one seed do not share draws.
        let a = rng(1, "demand", 0, 0).next_u64();
        assert_ne!(a, rng(1, "demand", 0, 1).next_u64());
        assert_ne!(a, rng(1, "sweep", 0, 0).next_u64());
    }

    #[test]
    fn perturbation_stays_on_the_port_grid_within_its_spread() {
        let tb = ScaleParams::tbackbone().build(Family::TBackbone);
        let p = perturb(&tb.ip, &mut rng(3, "demand", 0, 0), 0.1);
        assert_eq!(p.num_links(), tb.ip.num_links());
        for (a, b) in tb.ip.links().iter().zip(p.links()) {
            assert_eq!((a.src, a.dst), (b.src, b.dst));
            assert!(b.demand_gbps >= 100 && b.demand_gbps % 100 == 0);
            let off = (b.demand_gbps as f64 - a.demand_gbps as f64).abs();
            assert!(off <= 0.1 * a.demand_gbps as f64 + 50.0);
        }
    }

    #[test]
    fn sweep_holds_every_conduit_once_plus_the_double_cuts() {
        let tb = ScaleParams::tbackbone().build(Family::TBackbone);
        let conduits = conduit_cut_scenarios(&tb.optical).len();
        let sweep = cut_sweep(&tb.optical, 10, &mut rng(1, "sweep", 0, 0));
        assert_eq!(sweep.len(), conduits + 10);
        let two_fiber = sweep
            .iter()
            .filter(|s| {
                s.cuts.len() == 2 && {
                    let (a, b) = (tb.optical.edge(s.cuts[0]), tb.optical.edge(s.cuts[1]));
                    (a.a.min(a.b), a.a.max(a.b)) != (b.a.min(b.b), b.a.max(b.b))
                }
            })
            .count();
        assert_eq!(two_fiber, 10);
        assert!(sweep.iter().enumerate().all(|(i, s)| s.id == i));
    }

    #[test]
    fn exact_cycle_is_the_table_or_a_thinned_mix_of_both_kinds() {
        let full = exact_cycle(1.0, &mut rng(1, "exact", 0, 0));
        assert_eq!(full.len(), EXACT_TABLE.len());
        for op in EXACT_TABLE {
            assert!(full.contains(&op));
        }
        let smoke = exact_cycle(0.05, &mut rng(1, "exact", 0, 0));
        assert_eq!(smoke.len(), 2);
        assert!(smoke.iter().any(|op| matches!(op, ExactOp::Bnb { .. })));
        assert!(smoke.iter().any(|op| !matches!(op, ExactOp::Bnb { .. })));
    }

    #[test]
    fn churn_stream_repairs_every_cut_and_bounds_drift() {
        let events = churn_stream(480, &mut rng(5, "churn", 0, 0));
        assert!(events.len() >= 480);
        let mut open: Vec<EdgeId> = Vec::new();
        let mut drift = [0.0f64; 5];
        for e in &events {
            match e {
                ChurnEvent::FiberCut(f) => open.push(*f),
                ChurnEvent::FiberRepair(f) => open.retain(|c| c != f),
                ChurnEvent::TelemetryDrift { fiber, delta_db } => {
                    drift[fiber.0 as usize] += delta_db;
                    assert!(drift[fiber.0 as usize].abs() < 9.5);
                }
                _ => {}
            }
        }
        assert!(open.is_empty());
    }
}
