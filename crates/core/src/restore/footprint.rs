//! The standing footprint of a committed plan: what any cut can take
//! from it, built once per plan (DESIGN.md §3.3).
//!
//! A cut severs the wavelengths crossing a cut fiber and hands their
//! spectrum back to restoration (§8's residual `φ_w`). The plan does not
//! change between cuts, so the footprint keeps what every cut reads:
//!
//! * a fiber → lit-wavelength index in CSR form, so a cut visits only the
//!   wavelengths it severs;
//! * the plan's whole occupied [`SpectrumState`], from which a cut
//!   releases exactly the severed channels, and to which the restorer
//!   returns it once it has placed its own;
//! * the plan's format table, whose reach classes give each
//!   restoration route its revival formats once per class.
//!
//! A long-lived restorer (the `Orchestrator`) builds one per committed
//! plan and restores every cut against it through
//! [`PlanCtx::restore_against`](crate::planning::PlanCtx::restore_against);
//! a one-shot restoration builds one and restores once.

use flexwan_topo::graph::Graph;

use crate::planning::format_dp::FormatTable;
use crate::planning::heuristic::{Plan, PlannerConfig};
use crate::planning::spectrum::SpectrumState;
use crate::restore::heuristic::RestoredWavelength;
use crate::scenario::{FailureLedger, FailureScenario};
use crate::wavelength::Wavelength;

/// What a cut can take from one committed plan: see the
/// [module docs](self).
pub struct Footprint {
    /// `offsets[f]..offsets[f + 1]` is fiber `f`'s run of `lit`.
    offsets: Vec<u32>,
    /// Plan positions of the wavelengths crossing each fiber, ascending
    /// within a fiber's run.
    lit: Vec<u32>,
    /// Every plan channel occupied, less what the cut in progress
    /// severed.
    pub(crate) spectrum: SpectrumState,
    /// The plan's format table: revival formats per reach class.
    pub(crate) formats: FormatTable<'static>,
    /// Plan positions the last cut severed, ascending.
    severed: Vec<u32>,
    /// Wavelengths of the plan the footprint was built from.
    wavelengths: usize,
}

impl Footprint {
    /// The footprint of `plan` over `optical`.
    ///
    /// # Panics
    /// If two of `plan`'s wavelengths share a pixel of a fiber: such a
    /// plan is refused.
    pub fn new(plan: &Plan, optical: &Graph, cfg: &PlannerConfig) -> Footprint {
        let fibers = optical.num_edges();
        let crossings = || plan.wavelengths.iter().flat_map(|w| &w.path.edges);
        let mut offsets = vec![0u32; fibers + 1];
        for e in crossings() {
            offsets[e.0 as usize + 1] += 1;
        }
        for f in 0..fibers {
            offsets[f + 1] += offsets[f];
        }
        let mut next = offsets[..fibers].to_vec();
        let mut lit = vec![0u32; offsets[fibers] as usize];
        let mut spectrum = SpectrumState::new(cfg.grid, fibers);
        for (at, w) in plan.wavelengths.iter().enumerate() {
            for e in &w.path.edges {
                let slot = &mut next[e.0 as usize];
                lit[*slot as usize] = at as u32;
                *slot += 1;
            }
            occupy(&mut spectrum, w);
        }
        Footprint {
            offsets,
            lit,
            spectrum,
            formats: FormatTable::new(plan.scheme.transponder(), cfg.epsilon),
            severed: Vec::new(),
            wavelengths: plan.wavelengths.len(),
        }
    }

    /// What `scenario` takes from `plan` (its wavelengths severed in
    /// ascending plan position, the order [`FailureScenario::assess`]
    /// first sees them in a full scan), with their channels released
    /// from the spectrum. Cut fibers the graph does not have sever
    /// nothing.
    ///
    /// # Panics
    /// If `plan` is not the plan the footprint was built from (by its
    /// wavelength count), or as [`FailureScenario::assess`] does.
    pub(crate) fn sever(
        &mut self,
        plan: &Plan,
        scenario: &FailureScenario,
        extra_spares: &[u32],
        num_links: usize,
    ) -> FailureLedger {
        assert_eq!(
            plan.wavelengths.len(),
            self.wavelengths,
            "a footprint restores the plan it was built from"
        );
        self.severed.clear();
        for cut in &scenario.cuts {
            let f = cut.0 as usize;
            if let (Some(&from), Some(&to)) = (self.offsets.get(f), self.offsets.get(f + 1)) {
                self.severed
                    .extend_from_slice(&self.lit[from as usize..to as usize]);
            }
        }
        if scenario.cuts.len() > 1 {
            self.severed.sort_unstable();
            self.severed.dedup();
        }
        let severed = self
            .severed
            .iter()
            .map(|&at| &plan.wavelengths[at as usize]);
        let lit = severed
            .clone()
            .map(|w| (w.link.0 as usize, w.format.data_rate_gbps, &w.path));
        let ledger = scenario.assess(lit, extra_spares, num_links);
        for w in severed {
            self.spectrum.release(&w.path, &w.channel);
        }
        ledger
    }

    /// Undoes a cut: takes `restored` (placed in the residual spectrum
    /// since [`sever`](Self::sever)) back out and re-occupies what the
    /// cut severed.
    pub(crate) fn heal(&mut self, plan: &Plan, restored: &[RestoredWavelength]) {
        for rw in restored {
            let w = &rw.wavelength;
            self.spectrum.release(&w.path, &w.channel);
        }
        for &at in &self.severed {
            occupy(&mut self.spectrum, &plan.wavelengths[at as usize]);
        }
    }
}

/// Occupies `w`'s channel along its path.
fn occupy(spectrum: &mut SpectrumState, w: &Wavelength) {
    spectrum
        .occupy_exact(&w.path, &w.channel)
        .expect("plan channels are conflict-free");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planning::heuristic::plan;
    use crate::planning::PlanCtx;
    use crate::restore::heuristic::{flexwan_plus_extra_spares, restore};
    use crate::scenario::{conduit_cut_scenarios, one_fiber_scenarios};
    use crate::scheme::Scheme;
    use flexwan_topo::continental::ScaleParams;
    use flexwan_topo::graph::EdgeId;
    use flexwan_topo::tbackbone::t_backbone;
    use flexwan_util::rng::ChaCha8Rng;

    /// What a cut took before the footprint: a scan of every wavelength,
    /// and the survivors' spectrum rebuilt from an empty state.
    fn rescan(
        plan: &Plan,
        optical: &Graph,
        scenario: &FailureScenario,
        cfg: &PlannerConfig,
        num_links: usize,
    ) -> (FailureLedger, SpectrumState) {
        let lit = (plan.wavelengths.iter())
            .map(|w| (w.link.0 as usize, w.format.data_rate_gbps, &w.path));
        let ledger = scenario.assess(lit, &[], num_links);
        let mut spectrum = SpectrumState::new(cfg.grid, optical.num_edges());
        for &at in &ledger.survivors {
            occupy(&mut spectrum, &plan.wavelengths[at]);
        }
        (ledger, spectrum)
    }

    fn hits(ledger: &FailureLedger) -> Vec<(usize, u64, u32, u32)> {
        (ledger.hit.iter())
            .map(|h| (h.link, h.lost_gbps, h.spares, h.longest_km))
            .collect()
    }

    /// Ten seeded cuts of two whole conduits each.
    fn two_conduit_cuts(g: &Graph) -> Vec<FailureScenario> {
        let conduits = conduit_cut_scenarios(g);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mut cuts = Vec::new();
        while cuts.len() < 10 {
            let x = rng.gen_range(0..conduits.len());
            let y = rng.gen_range(0..conduits.len());
            if x != y {
                let mut fibers = conduits[x].cuts.clone();
                fibers.extend(&conduits[y].cuts);
                cuts.push(fibers);
            }
        }
        cuts.into_iter()
            .map(|cuts| FailureScenario {
                id: 0,
                cuts,
                probability: 1.0,
            })
            .collect()
    }

    /// On the T-backbone at demand ×1 and ×2, one standing footprint is
    /// driven in sequence through every conduit cut, every single fiber,
    /// ten seeded two-conduit cuts, a cut naming one fiber twice, one
    /// naming a fiber the graph does not have, and nothing. Each cut
    /// severs exactly what a full rescan finds, in the rescan's order,
    /// and leaves exactly the survivors' spectrum; restored against the
    /// footprint, with and without FlexWAN+ spares, it equals `restore`
    /// from scratch; and after each the footprint's spectrum equals a
    /// fresh build.
    #[test]
    fn a_standing_footprint_answers_every_cut_as_a_fresh_one_does() {
        let tb = t_backbone(&ScaleParams::tbackbone());
        let g = &tb.optical;
        let cfg = PlannerConfig {
            k_paths: 5,
            ..PlannerConfig::default()
        };
        let mut cuts = conduit_cut_scenarios(g);
        cuts.extend(one_fiber_scenarios(g));
        cuts.extend(two_conduit_cuts(g));
        let odd = [
            vec![EdgeId(3), EdgeId(3)],
            vec![EdgeId(g.num_edges() as u32), EdgeId(0)],
            vec![],
        ];
        cuts.extend(odd.into_iter().map(|cuts| FailureScenario {
            id: 0,
            cuts,
            probability: 1.0,
        }));
        let ctx = PlanCtx::new(g, &cfg);
        for scale in [1, 2] {
            let ip = tb.ip.scaled(scale);
            let p = plan(Scheme::FlexWan, g, &ip, &cfg);
            let plus = flexwan_plus_extra_spares(g, &ip, &cfg);
            let mut footprint = Footprint::new(&p, g, &cfg);
            let whole = Footprint::new(&p, g, &cfg).spectrum;
            let (mut severed, mut revived) = (0, 0);
            for s in &cuts {
                let (want, residual) = rescan(&p, g, s, &cfg, ip.num_links());
                let got = footprint.sever(&p, s, &[], ip.num_links());
                assert_eq!(hits(&got), hits(&want), "×{scale}: {:?}", s.cuts);
                assert_eq!(got.affected_gbps, want.affected_gbps);
                assert!(footprint.spectrum == residual, "×{scale}: {:?}", s.cuts);
                severed += footprint.severed.len();
                footprint.heal(&p, &[]);
                assert!(footprint.spectrum == whole, "×{scale}: {:?}", s.cuts);
                for spares in [&[][..], &plus] {
                    let fresh = restore(&p, g, &ip, s, spares, &cfg);
                    let standing = ctx.restore_against(&mut footprint, &p, &ip, s, spares);
                    assert_eq!(standing, fresh, "×{scale}: {:?}", s.cuts);
                    assert!(footprint.spectrum == whole, "×{scale}: {:?}", s.cuts);
                    revived += standing.restored.len();
                }
            }
            assert!(severed > 0 && revived > 0, "×{scale}");
        }
    }

    #[test]
    #[should_panic(expected = "plan channels are conflict-free")]
    fn a_plan_whose_wavelengths_share_a_pixel_is_refused() {
        let tb = t_backbone(&ScaleParams::tbackbone());
        let cfg = PlannerConfig::default();
        let mut p = plan(Scheme::FlexWan, &tb.optical, &tb.ip, &cfg);
        p.wavelengths.push(p.wavelengths[0].clone());
        let _ = Footprint::new(&p, &tb.optical, &cfg);
    }
}
