//! First-principles checker for every artefact an operation returns.
//!
//! Shares no code with the planners: it reads only the data types
//! (`Graph`, `IpTopology`, `Wavelength`) and re-derives each constraint
//! of Algorithm 1 / §8 from the raw fields —
//!
//! * a wavelength's path is a loop-free walk over real fibers between
//!   its IP link's endpoints, and its recorded length is the fiber sum;
//! * optical reach ≥ path length (constraint (2));
//! * the channel is as wide as the format's spacing, lies inside the
//!   grid and starts on the scheme's alignment;
//! * on every fiber the channels of the wavelengths crossing it are
//!   pairwise disjoint (spectrum non-overlap + consistency);
//! * every demand is covered, or the shortfall is declared unmet;
//! * a restoration avoids every cut fiber, fits beside the surviving
//!   wavelengths, revives no more capacity than was lost (7) and lights
//!   no more transponders than failed (8).
//!
//! An operation whose output has a violation counts as failed.

use std::collections::{BTreeMap, HashSet};

use flexwan_core::planning::{ShardSolve, ShardedPlan};
use flexwan_core::Wavelength;
use flexwan_topo::graph::{EdgeId, Graph};
use flexwan_topo::ip::{IpLinkId, IpTopology};

/// Which constraint a [`Violation`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The path is not a loop-free walk over the graph's fibers, or its
    /// recorded length is not the sum of its fibers.
    BrokenPath,
    /// The path does not join the IP link's endpoints (or the link id is
    /// unknown).
    WrongEndpoints,
    /// Optical reach is shorter than the path.
    Reach,
    /// The channel leaves the grid, is misaligned, or is not as wide as
    /// the format's spacing.
    Channel,
    /// Two wavelengths share a pixel on one fiber.
    Overlap,
    /// Provisioned + declared-unmet capacity is below the demand, or the
    /// declaration itself is inconsistent.
    Cover,
    /// A restoration path crosses a cut fiber.
    CutFiber,
    /// A restoration revives more than was lost, or lights more
    /// transponders than failed.
    OverRestored,
    /// A result's own totals disagree with its wavelengths.
    Accounting,
}

/// One broken constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The constraint.
    pub kind: Kind,
    /// What exactly is wrong.
    pub detail: String,
}

fn violation(kind: Kind, detail: String) -> Violation {
    Violation { kind, detail }
}

/// The physical instance answers are checked against.
#[derive(Debug, Clone, Copy)]
pub struct Instance<'a> {
    /// The fiber plant.
    pub graph: &'a Graph,
    /// Pixels per fiber.
    pub grid_pixels: u32,
    /// Channel-start alignment of the scheme, pixels.
    pub align: u32,
}

impl Instance<'_> {
    /// Checks one wavelength in isolation: path, reach, channel. `ends`
    /// are its IP link's endpoints when known. Returns whether the path
    /// held, i.e. whether the spectrum check may walk it.
    fn check_wavelength(
        &self,
        w: &Wavelength,
        ends: Option<(u32, u32)>,
        out: &mut Vec<Violation>,
    ) -> bool {
        let g = self.graph;
        let p = &w.path;
        let mut path_ok = p.nodes.len() == p.edges.len() + 1 && !p.edges.is_empty();
        if path_ok {
            let mut km = 0u64;
            for (i, e) in p.edges.iter().enumerate() {
                if e.0 as usize >= g.num_edges() {
                    path_ok = false;
                    break;
                }
                let edge = g.edge(*e);
                let (a, b) = (p.nodes[i], p.nodes[i + 1]);
                path_ok &= (edge.a == a && edge.b == b) || (edge.a == b && edge.b == a);
                km += u64::from(edge.length_km);
            }
            let distinct: HashSet<_> = p.nodes.iter().collect();
            path_ok &= distinct.len() == p.nodes.len() && km == u64::from(p.length_km);
        }
        if !path_ok {
            out.push(violation(
                Kind::BrokenPath,
                format!("link {}: path {:?} over {:?}", w.link.0, p.nodes, p.edges),
            ));
            return false;
        }
        if let Some((src, dst)) = ends {
            let (a, b) = (p.nodes[0].0, p.nodes[p.nodes.len() - 1].0);
            if !((a == src && b == dst) || (a == dst && b == src)) {
                out.push(violation(
                    Kind::WrongEndpoints,
                    format!("link {} joins {src}-{dst}, path joins {a}-{b}", w.link.0),
                ));
            }
        }
        if w.format.reach_km < p.length_km {
            out.push(violation(
                Kind::Reach,
                format!(
                    "link {}: reach {} km < path {} km",
                    w.link.0, w.format.reach_km, p.length_km
                ),
            ));
        }
        let width = u32::from(w.channel.width.pixels());
        let end = u64::from(w.channel.start) + u64::from(width);
        if width == 0
            || w.channel.width != w.format.spacing
            || end > u64::from(self.grid_pixels)
            || !w.channel.start.is_multiple_of(self.align.max(1))
        {
            out.push(violation(
                Kind::Channel,
                format!(
                    "link {}: channel [{}, {end}) spacing {} px on a {} px grid aligned to {}",
                    w.link.0,
                    w.channel.start,
                    w.format.spacing.pixels(),
                    self.grid_pixels,
                    self.align
                ),
            ));
        }
        true
    }

    /// Per-fiber non-overlap over `wavelengths` (paths already checked).
    fn check_spectrum<'w>(
        &self,
        wavelengths: impl Iterator<Item = &'w Wavelength>,
        out: &mut Vec<Violation>,
    ) {
        let mut per_fiber: Vec<Vec<(u32, u32)>> = vec![Vec::new(); self.graph.num_edges()];
        for w in wavelengths {
            let span = (
                w.channel.start,
                w.channel.start + u32::from(w.channel.width.pixels()),
            );
            for e in &w.path.edges {
                if let Some(slot) = per_fiber.get_mut(e.0 as usize) {
                    slot.push(span);
                }
            }
        }
        for (fiber, spans) in per_fiber.iter_mut().enumerate() {
            spans.sort_unstable();
            if let Some(pair) = spans.windows(2).find(|p| p[1].0 < p[0].1) {
                out.push(violation(
                    Kind::Overlap,
                    format!(
                        "fiber {fiber}: [{}, {}) overlaps [{}, {})",
                        pair[0].0, pair[0].1, pair[1].0, pair[1].1
                    ),
                ));
            }
        }
    }

    /// Checks a plan: every wavelength, the shared spectrum, and demand
    /// cover. `declared_unmet` is the shortfall the planner admits to
    /// (empty for an exact plan, which must cover every demand).
    pub fn check_plan(
        &self,
        ip: &IpTopology,
        wavelengths: &[Wavelength],
        declared_unmet: &[(IpLinkId, u64)],
    ) -> Vec<Violation> {
        let mut out = Vec::new();
        let links = ip.links();
        let mut provisioned = vec![0u64; links.len()];
        let mut sound = Vec::with_capacity(wavelengths.len());
        for w in wavelengths {
            let Some(link) = links.get(w.link.0 as usize) else {
                out.push(violation(
                    Kind::WrongEndpoints,
                    format!("unknown link {}", w.link.0),
                ));
                continue;
            };
            if self.check_wavelength(w, Some((link.src.0, link.dst.0)), &mut out) {
                sound.push(w);
            }
            provisioned[w.link.0 as usize] += u64::from(w.format.data_rate_gbps);
        }
        self.check_spectrum(sound.into_iter(), &mut out);
        let mut unmet = vec![0u64; links.len()];
        for &(link, gbps) in declared_unmet {
            match unmet.get_mut(link.0 as usize) {
                Some(slot) => *slot += gbps,
                None => out.push(violation(
                    Kind::Cover,
                    format!("unmet declared for unknown link {}", link.0),
                )),
            }
        }
        for (i, link) in links.iter().enumerate() {
            if provisioned[i] + unmet[i] < link.demand_gbps {
                out.push(violation(
                    Kind::Cover,
                    format!(
                        "link {i}: demand {} > provisioned {} + declared unmet {}",
                        link.demand_gbps, provisioned[i], unmet[i]
                    ),
                ));
            }
        }
        out
    }

    /// Checks a sharded plan. Shard wavelengths index their shard's
    /// local demand slots, so endpoints and per-link cover cannot be
    /// re-derived from outside; what can is: every wavelength is
    /// physically sound, all shards together share the spectrum without
    /// overlap, and each shard's totals match its wavelengths.
    pub fn check_sharded(&self, plan: &ShardedPlan) -> Vec<Violation> {
        let mut out = Vec::new();
        let shards = || std::iter::once(&plan.core).chain(plan.regions.iter());
        for (s, shard) in shards().enumerate() {
            for w in &shard.wavelengths {
                self.check_wavelength(w, None, &mut out);
            }
            self.check_shard_accounting(s, shard, &mut out);
        }
        self.check_spectrum(shards().flat_map(|s| s.wavelengths.iter()), &mut out);
        let unmet: u64 = shards().map(|s| s.unmet_gbps).sum();
        if unmet != plan.unmet_gbps {
            out.push(violation(
                Kind::Accounting,
                format!(
                    "plan declares {} Gbps unmet, shards sum to {unmet}",
                    plan.unmet_gbps
                ),
            ));
        }
        out
    }

    fn check_shard_accounting(&self, s: usize, shard: &ShardSolve, out: &mut Vec<Violation>) {
        let mut per_slot = vec![0u64; shard.provisioned.len()];
        for w in &shard.wavelengths {
            match per_slot.get_mut(w.link.0 as usize) {
                Some(slot) => *slot += u64::from(w.format.data_rate_gbps),
                None => {
                    out.push(violation(
                        Kind::Accounting,
                        format!("shard {s}: wavelength on unknown slot {}", w.link.0),
                    ));
                    return;
                }
            }
        }
        if per_slot != shard.provisioned {
            out.push(violation(
                Kind::Accounting,
                format!("shard {s}: provisioned totals disagree with its wavelengths"),
            ));
        }
    }

    /// Checks a restoration of `cuts` against the plan `base` it
    /// restores: `restored` must avoid the cuts, fit beside the
    /// surviving wavelengths of `base`, and respect (7) and (8) per
    /// link. Returns the violations and the first-principles
    /// `(affected, restored)` Gbps.
    pub fn check_restoration(
        &self,
        ip: &IpTopology,
        base: &[Wavelength],
        cuts: &[EdgeId],
        restored: &[Wavelength],
    ) -> (Vec<Violation>, u64, u64) {
        let mut out = Vec::new();
        let cut: HashSet<EdgeId> = cuts.iter().copied().collect();
        let crosses = |w: &Wavelength| w.path.edges.iter().any(|e| cut.contains(e));
        // link → (lost Gbps, failed transponder pairs).
        let mut lost: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for w in base.iter().filter(|w| crosses(w)) {
            let l = lost.entry(w.link.0).or_default();
            l.0 += u64::from(w.format.data_rate_gbps);
            l.1 += 1;
        }
        let mut revived: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        let mut sound = Vec::with_capacity(restored.len());
        for w in restored {
            let ends = ip
                .links()
                .get(w.link.0 as usize)
                .map(|l| (l.src.0, l.dst.0));
            if ends.is_none() {
                out.push(violation(
                    Kind::WrongEndpoints,
                    format!("unknown link {}", w.link.0),
                ));
                continue;
            }
            if self.check_wavelength(w, ends, &mut out) {
                sound.push(w);
            }
            if crosses(w) {
                out.push(violation(
                    Kind::CutFiber,
                    format!("link {}: restoration path crosses a cut fiber", w.link.0),
                ));
            }
            let r = revived.entry(w.link.0).or_default();
            r.0 += u64::from(w.format.data_rate_gbps);
            r.1 += 1;
        }
        self.check_spectrum(base.iter().filter(|w| !crosses(w)).chain(sound), &mut out);
        for (link, &(gbps, count)) in &revived {
            let (lost_gbps, failed) = lost.get(link).copied().unwrap_or((0, 0));
            if gbps > lost_gbps || count > failed {
                out.push(violation(
                    Kind::OverRestored,
                    format!(
                        "link {link}: revived {gbps} Gbps on {count} transponders, \
                         lost {lost_gbps} Gbps on {failed}"
                    ),
                ));
            }
        }
        let affected = lost.values().map(|l| l.0).sum();
        let restored_gbps = revived.values().map(|r| r.0).sum();
        (out, affected, restored_gbps)
    }
}

/// Capacity a plan serves: per link, provisioned capacity capped at the
/// demand, summed — the numerator of `served_ratio`.
pub fn served_gbps(ip: &IpTopology, wavelengths: &[Wavelength]) -> u64 {
    let mut provisioned = vec![0u64; ip.num_links()];
    for w in wavelengths {
        if let Some(slot) = provisioned.get_mut(w.link.0 as usize) {
            *slot += u64::from(w.format.data_rate_gbps);
        }
    }
    ip.links()
        .iter()
        .zip(provisioned)
        .map(|(l, p)| p.min(l.demand_gbps))
        .sum()
}

/// The Algorithm 1 objective of a wavelength set, `N + ε·Σ GHz`,
/// recomputed here from the raw fields (12.5 GHz per pixel).
pub fn hardware_cost(wavelengths: &[Wavelength], epsilon: f64) -> f64 {
    let pixels: u64 = wavelengths
        .iter()
        .map(|w| u64::from(w.format.spacing.pixels()))
        .sum();
    wavelengths.len() as f64 + epsilon * 12.5 * pixels as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexwan_core::planning::{plan, PlannerConfig};
    use flexwan_core::restore::{restore, FailureScenario};
    use flexwan_core::Scheme;
    use flexwan_optical::spectrum::{PixelRange, PixelWidth, SpectrumGrid};

    /// Triangle a-b-c with a long detour; one 300 G demand a→b.
    fn world() -> (Graph, IpTopology, PlannerConfig) {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge(a, b, 600);
        g.add_edge(a, c, 600);
        g.add_edge(c, b, 600);
        let mut ip = IpTopology::new();
        ip.add_link(a, b, 300);
        ip.add_link(a, c, 200);
        let cfg = PlannerConfig {
            grid: SpectrumGrid::new(96),
            ..Default::default()
        };
        (g, ip, cfg)
    }

    fn instance<'a>(g: &'a Graph, cfg: &PlannerConfig) -> Instance<'a> {
        Instance {
            graph: g,
            grid_pixels: cfg.grid.pixels(),
            align: 1,
        }
    }

    fn kinds(v: &[Violation]) -> Vec<Kind> {
        v.iter().map(|v| v.kind).collect()
    }

    #[test]
    fn a_real_plan_is_clean_and_each_hand_broken_plan_is_caught() {
        let (g, ip, cfg) = world();
        let inst = instance(&g, &cfg);
        let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
        assert!(p.is_feasible());
        assert_eq!(inst.check_plan(&ip, &p.wavelengths, &p.unmet), vec![]);
        assert_eq!(served_gbps(&ip, &p.wavelengths), 500);

        // Reach: claim a format that cannot span the path.
        let mut broken = p.wavelengths.clone();
        broken[0].format.reach_km = broken[0].path.length_km - 1;
        assert_eq!(kinds(&inst.check_plan(&ip, &broken, &[])), [Kind::Reach]);

        // Channel pushed off the end of the grid.
        let mut broken = p.wavelengths.clone();
        broken[0].channel.start = 96 - u32::from(broken[0].channel.width.pixels()) + 1;
        assert!(kinds(&inst.check_plan(&ip, &broken, &[])).contains(&Kind::Channel));

        // Channel narrower than the format's spacing.
        let mut broken = p.wavelengths.clone();
        broken[0].channel.width = PixelWidth::new(broken[0].channel.width.pixels() - 1);
        assert!(kinds(&inst.check_plan(&ip, &broken, &[])).contains(&Kind::Channel));

        // Misaligned start on a fixed-grid scheme.
        let rigid = Instance { align: 4, ..inst };
        let mut broken = p.wavelengths.clone();
        broken[0].channel.start = 1;
        assert!(kinds(&rigid.check_plan(&ip, &broken, &[])).contains(&Kind::Channel));

        // Two wavelengths on the same pixels of the same fiber.
        let mut broken = p.wavelengths.clone();
        let twin = broken[0].clone();
        broken.push(twin);
        assert!(kinds(&inst.check_plan(&ip, &broken, &[])).contains(&Kind::Overlap));

        // A wavelength dropped: demand uncovered unless declared unmet.
        let mut broken = p.wavelengths.clone();
        let gone = broken.remove(0);
        assert_eq!(kinds(&inst.check_plan(&ip, &broken, &[])), [Kind::Cover]);
        let rate = u64::from(gone.format.data_rate_gbps);
        assert_eq!(inst.check_plan(&ip, &broken, &[(gone.link, rate)]), vec![]);

        // Path teleports: edge does not join consecutive nodes.
        let mut broken = p.wavelengths.clone();
        let (a, b) = (broken[0].path.nodes[0], broken[0].path.nodes[1]);
        let elsewhere = g
            .edges()
            .iter()
            .find(|e| (e.a, e.b) != (a, b) && (e.a, e.b) != (b, a))
            .expect("the triangle has other fibers");
        broken[0].path.edges[0] = elsewhere.id;
        assert!(kinds(&inst.check_plan(&ip, &broken, &[])).contains(&Kind::BrokenPath));

        // Recorded length understates the fibers.
        let mut broken = p.wavelengths.clone();
        broken[0].path.length_km -= 1;
        assert!(kinds(&inst.check_plan(&ip, &broken, &[])).contains(&Kind::BrokenPath));

        // A sound path between the wrong sites.
        let mut broken = p.wavelengths.clone();
        let other = p
            .wavelengths
            .iter()
            .find(|w| w.link != broken[0].link)
            .expect("two links planned")
            .path
            .clone();
        broken[0].path = other;
        assert!(kinds(&inst.check_plan(&ip, &broken, &[])).contains(&Kind::WrongEndpoints));
    }

    #[test]
    fn a_real_restoration_is_clean_and_each_hand_broken_one_is_caught() {
        let (g, ip, cfg) = world();
        let inst = instance(&g, &cfg);
        let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
        let cut = p.wavelengths[0].path.edges[0];
        let scenario = FailureScenario {
            id: 0,
            cuts: vec![cut],
            probability: 1.0,
        };
        let r = restore(&p, &g, &ip, &scenario, &[], &cfg);
        let restored: Vec<Wavelength> = r.restored.iter().map(|w| w.wavelength.clone()).collect();
        assert!(!restored.is_empty());
        let (v, affected, revived) =
            inst.check_restoration(&ip, &p.wavelengths, &scenario.cuts, &restored);
        assert_eq!(v, vec![]);
        assert_eq!((affected, revived), (r.affected_gbps, r.restored_gbps));

        // "Restored" straight back onto the cut fiber.
        let mut broken = restored.clone();
        let dead = p
            .wavelengths
            .iter()
            .find(|w| w.path.edges.contains(&cut))
            .expect("the cut hits a wavelength");
        broken[0].path = dead.path.clone();
        let (v, _, _) = inst.check_restoration(&ip, &p.wavelengths, &scenario.cuts, &broken);
        assert!(kinds(&v).contains(&Kind::CutFiber));

        // Restoration placed on a surviving wavelength's pixels.
        let survivor = p
            .wavelengths
            .iter()
            .find(|w| !w.path.edges.contains(&cut))
            .expect("one link survives");
        let mut broken = restored.clone();
        let shared = broken[0]
            .path
            .edges
            .iter()
            .any(|e| survivor.path.edges.contains(e));
        assert!(shared, "detour shares a fiber with the surviving link");
        broken[0].channel = PixelRange::new(survivor.channel.start, broken[0].channel.width);
        let (v, _, _) = inst.check_restoration(&ip, &p.wavelengths, &scenario.cuts, &broken);
        assert!(kinds(&v).contains(&Kind::Overlap));

        // One transponder more than failed (free spectrum, own pixels).
        let mut broken = restored.clone();
        let mut extra = broken[0].clone();
        extra.channel.start = 96 - u32::from(extra.channel.width.pixels());
        broken.push(extra);
        let (v, _, _) = inst.check_restoration(&ip, &p.wavelengths, &scenario.cuts, &broken);
        assert_eq!(kinds(&v), [Kind::OverRestored]);
    }

    #[test]
    fn hardware_cost_counts_transponders_and_spectrum() {
        let (g, ip, cfg) = world();
        let p = plan(Scheme::FlexWan, &g, &ip, &cfg);
        let ghz: f64 = p.wavelengths.iter().map(|w| w.format.spacing.ghz()).sum();
        let want = p.wavelengths.len() as f64 + cfg.epsilon * ghz;
        assert_eq!(hardware_cost(&p.wavelengths, cfg.epsilon), want);
    }
}
