//! Exact per-link transponder-format selection (phase 1 of the planning
//! heuristic; DESIGN.md §3.2).
//!
//! For one IP link on one candidate path, choose a multiset of transponder
//! formats whose rates sum to at least the demand, among formats whose
//! reach covers the path length, minimizing the paper's per-link objective
//! slice `Σ_j (1 + ε·Y_j)·λ_j`.
//!
//! Demands and data rates are multiples of 100 Gbps, so a dynamic program
//! over residual demand units solves this *exactly* (it is an unbounded
//! knapsack-cover). Tie-breaks are deterministic: lower cost, then fewer
//! transponders, then narrower total spectrum.
//!
//! The DP depends on the path only through the formats that reach over it,
//! and those are nested: a format reaching `d` km reaches every shorter
//! path. So the distances fall into *reach classes* — the intervals between
//! consecutive distinct reaches of the model — with one candidate list
//! each, and `dp[t]` reads only `dp[<t]` and that list: a table solved to
//! the largest demand asked answers every smaller one, cell for cell.
//! `FormatTable` keeps one such table per class for as long as its owner
//! (a plan) lives.

use flexwan_optical::format::TransponderFormat;
use flexwan_optical::transponder::TransponderModel;

/// Cost of a format under the paper's objective: `1 + ε·Y_j` with `Y_j`
/// the channel spacing in GHz.
fn format_cost(f: &TransponderFormat, epsilon: f64) -> f64 {
    1.0 + epsilon * f.spacing.ghz()
}

/// Demand units (of 100 Gbps) a format carries.
fn rate_units(f: &TransponderFormat) -> u32 {
    f.data_rate_gbps / 100
}

/// `dp[t]`: the cheapest multiset found covering ≥ `t` demand units.
/// Tie-break order: cost, transponder count, total spectrum, total rate
/// (prefer not overshooting the demand — matters to restoration, whose
/// constraint (7) caps revived capacity at what was lost).
#[derive(Clone, Copy)]
struct Cell {
    cost: f64,
    count: u32,
    spectrum_px: u32,
    rate_units: u32,
    /// Index of the last format added, into the class's candidates.
    choice: usize,
}

impl Cell {
    /// `dp[0]`: nothing to cover, nothing chosen.
    const EMPTY: Cell = Cell {
        cost: 0.0,
        count: 0,
        spectrum_px: 0,
        rate_units: 0,
        choice: usize::MAX,
    };

    fn better_than(&self, other: &Cell) -> bool {
        if self.cost < other.cost - 1e-12 {
            return true;
        }
        if (self.cost - other.cost).abs() > 1e-12 {
            return false;
        }
        (self.count, self.spectrum_px, self.rate_units)
            < (other.count, other.spectrum_px, other.rate_units)
    }
}

/// One reach class: what reaches over its paths and the DP over it,
/// solved as far as any demand has asked.
struct Class {
    candidates: Vec<TransponderFormat>,
    dp: Vec<Option<Cell>>,
}

impl Class {
    /// Solves `dp[t]` for every `t ≤ units` not solved yet. Each cell is
    /// the one a table built for `units` from scratch would hold: it reads
    /// only cells below it and the candidates, in the same order.
    fn extend(&mut self, units: usize, epsilon: f64) {
        for t in self.dp.len()..=units {
            let mut best: Option<Cell> = None;
            for (idx, f) in self.candidates.iter().enumerate() {
                let rate = rate_units(f);
                let Some(prev) = self.dp[t.saturating_sub(rate as usize)] else {
                    continue;
                };
                let cand = Cell {
                    cost: prev.cost + format_cost(f, epsilon),
                    count: prev.count + 1,
                    spectrum_px: prev.spectrum_px + u32::from(f.spacing.pixels()),
                    rate_units: prev.rate_units + rate,
                    choice: idx,
                };
                if best.is_none_or(|b| cand.better_than(&b)) {
                    best = Some(cand);
                }
            }
            self.dp.push(best);
        }
    }
}

/// The format DP of one (model, ε), solved once per reach class and
/// extended lazily to the largest demand asked: the one DP in the tree
/// ([`select_formats`] is a fresh table's answer).
pub(crate) struct FormatTable<'m> {
    model: &'m dyn TransponderModel,
    epsilon: f64,
    /// The model's distinct reaches, ascending. The class of a distance
    /// is its partition point here: the formats reaching it are exactly
    /// those reaching the first reach at or above it, and past the last
    /// none reach.
    reaches: Vec<u32>,
    /// Per class, built on first use.
    classes: Vec<Option<Class>>,
}

impl<'m> FormatTable<'m> {
    /// An empty table for `model` under the objective's `epsilon`.
    pub(crate) fn new(model: &'m dyn TransponderModel, epsilon: f64) -> Self {
        let mut reaches: Vec<u32> = model.formats().iter().map(|f| f.reach_km).collect();
        reaches.sort_unstable();
        reaches.dedup();
        FormatTable {
            model,
            epsilon,
            classes: reaches.iter().map(|_| None).collect(),
            reaches,
        }
    }

    /// [`select_formats`] into `out` (cleared first): `false`, with `out`
    /// empty, when no format reaches `distance_km`.
    pub(crate) fn select_into(
        &mut self,
        demand_gbps: u64,
        distance_km: u32,
        out: &mut Vec<TransponderFormat>,
    ) -> bool {
        assert!(demand_gbps > 0, "demand must be positive");
        assert!(
            demand_gbps.is_multiple_of(100),
            "demands are multiples of 100 Gbps"
        );
        out.clear();
        let epsilon = self.epsilon;
        let Some(class) = self.class(distance_km) else {
            return false; // past the longest reach
        };
        let units = (demand_gbps / 100) as usize;
        class.extend(units, epsilon);

        let mut t = units;
        while t > 0 {
            let cell = class.dp[t].expect("dp[t] reachable when any format exists");
            let f = class.candidates[cell.choice];
            out.push(f);
            t = t.saturating_sub(rate_units(&f) as usize);
        }
        out.sort_by_key(|f| std::cmp::Reverse((f.spacing, f.data_rate_gbps)));
        true
    }

    /// [`reachable_formats`] over `distance_km`, ascending by rate then
    /// spacing: the candidate list of the distance's reach class, built
    /// once per class. Empty past the longest reach.
    pub(crate) fn candidates(&mut self, distance_km: u32) -> &[TransponderFormat] {
        self.class(distance_km)
            .map_or(&[], |class| class.candidates.as_slice())
    }

    /// The reach class of `distance_km`, built on first use; `None` past
    /// the longest reach.
    fn class(&mut self, distance_km: u32) -> Option<&mut Class> {
        let at = self.reaches.partition_point(|&r| r < distance_km);
        let (model, reach) = (self.model, *self.reaches.get(at)?);
        Some(self.classes[at].get_or_insert_with(|| Class {
            candidates: reachable_formats(model, reach),
            dp: vec![Some(Cell::EMPTY)],
        }))
    }

    /// Reach classes built so far.
    #[cfg(test)]
    fn classes_built(&self) -> usize {
        self.classes.iter().flatten().count()
    }
}

/// The exact optimal format multiset covering `demand_gbps` over a path of
/// `distance_km`, or `None` when no format reaches that far.
///
/// Returned formats are sorted widest-spacing first (the order the
/// spectrum assigner wants to place them in). A caller asking many times
/// for one model keeps a format table instead, as a plan does.
pub fn select_formats(
    model: &dyn TransponderModel,
    demand_gbps: u64,
    distance_km: u32,
    epsilon: f64,
) -> Option<Vec<TransponderFormat>> {
    let mut out = Vec::new();
    FormatTable::new(model, epsilon)
        .select_into(demand_gbps, distance_km, &mut out)
        .then_some(out)
}

/// The formats of `model` whose reach covers `distance_km`, dominated
/// entries removed: a format is dominated when another carries at least
/// its rate over *strictly narrower* spacing. Equal-spacing higher-rate
/// formats are kept so the DP can avoid overshooting demands (its final
/// tie-break).
pub fn reachable_formats(model: &dyn TransponderModel, distance_km: u32) -> Vec<TransponderFormat> {
    let all = model.formats_reaching(distance_km);
    let mut keep: Vec<TransponderFormat> = Vec::with_capacity(all.len());
    for f in &all {
        let dominated = all
            .iter()
            .any(|g| g.data_rate_gbps >= f.data_rate_gbps && g.spacing < f.spacing);
        if !dominated {
            keep.push(*f);
        }
    }
    keep.sort_by_key(|f| (f.data_rate_gbps, f.spacing));
    keep
}

/// `select_formats` as it stood before the format table (f18df52),
/// verbatim: a candidate list and a DP table per call. The table and the
/// planner are compared against it.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    pub(crate) fn select_formats(
        model: &dyn TransponderModel,
        demand_gbps: u64,
        distance_km: u32,
        epsilon: f64,
    ) -> Option<Vec<TransponderFormat>> {
        assert!(demand_gbps > 0, "demand must be positive");
        assert!(
            demand_gbps.is_multiple_of(100),
            "demands are multiples of 100 Gbps"
        );
        let candidates = reachable_formats(model, distance_km);
        if candidates.is_empty() {
            return None;
        }
        let units = (demand_gbps / 100) as usize;

        // dp[t] = cheapest way to cover ≥ t demand units; dp[0] trivial.
        // Tie-break order: cost, transponder count, total spectrum, total
        // rate (prefer not overshooting the demand — matters to restoration,
        // whose constraint (7) caps revived capacity at what was lost).
        #[derive(Clone, Copy)]
        struct Cell {
            cost: f64,
            count: u32,
            spectrum_px: u32,
            rate_units: u32,
            choice: usize,
        }
        impl Cell {
            fn better_than(&self, other: &Cell) -> bool {
                if self.cost < other.cost - 1e-12 {
                    return true;
                }
                if (self.cost - other.cost).abs() > 1e-12 {
                    return false;
                }
                (self.count, self.spectrum_px, self.rate_units)
                    < (other.count, other.spectrum_px, other.rate_units)
            }
        }
        let mut dp: Vec<Option<Cell>> = vec![None; units + 1];
        dp[0] = Some(Cell {
            cost: 0.0,
            count: 0,
            spectrum_px: 0,
            rate_units: 0,
            choice: usize::MAX,
        });
        for t in 1..=units {
            let mut best: Option<Cell> = None;
            for (idx, f) in candidates.iter().enumerate() {
                let rate_units = f.data_rate_gbps / 100;
                let prev_t = t.saturating_sub(rate_units as usize);
                let Some(prev) = dp[prev_t] else { continue };
                let cand = Cell {
                    cost: prev.cost + format_cost(f, epsilon),
                    count: prev.count + 1,
                    spectrum_px: prev.spectrum_px + u32::from(f.spacing.pixels()),
                    rate_units: prev.rate_units + rate_units,
                    choice: idx,
                };
                if best.is_none_or(|b| cand.better_than(&b)) {
                    best = Some(cand);
                }
            }
            dp[t] = best;
        }

        // Reconstruct.
        let mut out = Vec::new();
        let mut t = units;
        while t > 0 {
            let cell = dp[t].expect("dp[t] reachable when any format exists");
            let f = candidates[cell.choice];
            out.push(f);
            t = t.saturating_sub((f.data_rate_gbps / 100) as usize);
        }
        out.sort_by_key(|f| std::cmp::Reverse((f.spacing, f.data_rate_gbps)));
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexwan_optical::transponder::{Bvt, FixedGrid100G, Svt};

    const EPS: f64 = 1e-3;

    #[test]
    fn fig3a_transponder_pairs_for_800g() {
        // Figure 3(a): 800 Gbps at <300 km needs 1 SVT pair vs 3 BVT pairs.
        let svt = select_formats(&Svt, 800, 250, EPS).unwrap();
        assert_eq!(svt.len(), 1);
        assert_eq!(svt[0].data_rate_gbps, 800);
        let bvt = select_formats(&Bvt, 800, 250, EPS).unwrap();
        assert_eq!(bvt.len(), 3); // 300+300+200
                                  // And 8 pairs of fixed 100G transponders.
        let fixed = select_formats(&FixedGrid100G, 800, 250, EPS).unwrap();
        assert_eq!(fixed.len(), 8);
    }

    #[test]
    fn fig3a_long_path_1800km() {
        // Figure 3(a) at 1800 km: SVT uses half the transponders of BVT.
        // BVT: only 200 G (2000 km) and 100 G (5000 km) reach → 4 × 200 G.
        let bvt = select_formats(&Bvt, 800, 1800, EPS).unwrap();
        assert_eq!(bvt.len(), 4);
        // SVT: 400 G reaches 1800 km at 137.5 GHz → 2 transponders.
        let svt = select_formats(&Svt, 800, 1800, EPS).unwrap();
        assert_eq!(svt.len(), 2);
        assert!(svt.iter().all(|f| f.data_rate_gbps == 400));
    }

    #[test]
    fn fig3b_spectrum_for_800g_short() {
        // Figure 3(b): at <300 km, 3 BVT pairs occupy 225 GHz while one
        // SVT pair occupies at most 150 GHz.
        let bvt = select_formats(&Bvt, 800, 250, EPS).unwrap();
        let bvt_ghz: f64 = bvt.iter().map(|f| f.spacing.ghz()).sum();
        assert_eq!(bvt_ghz, 225.0);
        let svt = select_formats(&Svt, 800, 250, EPS).unwrap();
        let svt_ghz: f64 = svt.iter().map(|f| f.spacing.ghz()).sum();
        assert!(svt_ghz <= 150.0, "SVT uses {svt_ghz} GHz");
    }

    #[test]
    fn epsilon_trades_count_for_spectrum() {
        // 600 G at 350 km: SVT can use one 600 G @ 87.5 GHz... (reach 300,
        // too short at 350) → at 100 GHz (reach 400). With large ε the DP
        // may prefer narrower spectrum with more transponders
        // (2×300G@75GHz = 150 GHz vs 1×600G@100GHz = 100 GHz — here the
        // single 600 G also wins on spectrum, so use a case with a real
        // trade-off: 700 G at 180 km).
        // 1×700G@100GHz (reach 200) = 100 GHz, cost 1+100ε.
        // vs 7×100G@50GHz = 350 GHz, cost 7+350ε — count dominates for all
        // sane ε; check the DP picks the single transponder.
        let res = select_formats(&Svt, 700, 180, EPS).unwrap();
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].data_rate_gbps, 700);
        assert_eq!(res[0].spacing.ghz(), 100.0);
    }

    #[test]
    fn prefers_narrow_spacing_among_equal_count() {
        // 400 G at 500 km: both 75 GHz (reach 600) and 150 GHz (reach
        // 1900) work with one transponder; ε must pick 75 GHz.
        let res = select_formats(&Svt, 400, 500, EPS).unwrap();
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].spacing.ghz(), 75.0);
    }

    #[test]
    fn overshoot_when_cheaper() {
        // 300 G demand at 200 km: one 300 G @ 75 GHz beats 3 × 100 G; also
        // beats overshooting with 400 G? 400 G @ 75 GHz costs the same
        // count but same spacing — DP must not pick a higher rate than
        // needed when equal cost (tie-break on spectrum is equal here; the
        // cheaper *cost* is equal too). Accept either 300 or 400 at 75 GHz
        // but exactly one transponder.
        let res = select_formats(&Svt, 300, 200, EPS).unwrap();
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].spacing.ghz(), 75.0);
        assert!(res[0].data_rate_gbps >= 300);
    }

    #[test]
    fn none_when_out_of_reach() {
        assert!(select_formats(&Bvt, 400, 5001, EPS).is_none());
        assert!(select_formats(&FixedGrid100G, 100, 3001, EPS).is_none());
        assert!(select_formats(&Svt, 100, 5001, EPS).is_none());
    }

    #[test]
    fn fixed_100g_count_is_demand_over_100() {
        for demand in [100u64, 400, 1500, 2000] {
            let res = select_formats(&FixedGrid100G, demand, 1000, EPS).unwrap();
            assert_eq!(res.len(), (demand / 100) as usize);
        }
    }

    #[test]
    fn dominated_formats_pruned() {
        // At 150 km every SVT format reaches; the frontier keeps exactly
        // one format per data rate (the narrowest spacing).
        let frontier = reachable_formats(&Svt, 150);
        let mut rates: Vec<u32> = frontier.iter().map(|f| f.data_rate_gbps).collect();
        rates.dedup();
        assert_eq!(rates.len(), frontier.len(), "one entry per rate");
        assert_eq!(rates, vec![100, 200, 300, 400, 500, 600, 700, 800]);
        // And each is the narrowest spacing carrying that rate at 150 km.
        let f800 = frontier.iter().find(|f| f.data_rate_gbps == 800).unwrap();
        assert_eq!(f800.spacing.ghz(), 112.5);
    }

    #[test]
    fn selected_formats_cost_the_objective() {
        let fs = select_formats(&Bvt, 600, 1000, EPS).unwrap();
        let cost: f64 = fs.iter().map(|f| format_cost(f, EPS)).sum();
        assert!((cost - (2.0 + EPS * 150.0)).abs() < 1e-9); // 2×300G@75GHz
    }

    #[test]
    fn results_sorted_widest_first() {
        let fs = select_formats(&Svt, 1100, 550, EPS).unwrap();
        for w in fs.windows(2) {
            assert!(w[0].spacing >= w[1].spacing);
        }
    }

    /// One long-lived table per model answers what the per-call DP
    /// answers, `Vec` for `Vec`: distances 0, every reach ± 1 and 6,000 km;
    /// demands 100 … 20,000 Gbps in a seeded shuffle, so most queries
    /// extend a class's table mid-stream and the rest read a prefix of
    /// it. A class is built once for all the distances that share it, and
    /// its candidates are the formats reaching any distance in it.
    #[test]
    fn one_table_answers_what_the_per_call_dp_answers() {
        let models: [&dyn TransponderModel; 3] = [&FixedGrid100G, &Bvt, &Svt];
        let mut rng = flexwan_util::rng::ChaCha8Rng::seed_from_u64(0xF0D9);
        for model in models {
            let mut distances = vec![0, 6_000];
            for f in model.formats() {
                distances.extend([f.reach_km - 1, f.reach_km, f.reach_km + 1]);
            }
            let mut queries: Vec<(u64, u32)> = (1..=200u64)
                .flat_map(|units| distances.iter().map(move |&d| (units * 100, d)))
                .collect();
            rng.shuffle(&mut queries);
            let mut table = FormatTable::new(model, EPS);
            let mut out = Vec::new();
            let mut unreachable = 0;
            for &(demand, distance) in &queries {
                let want = oracle::select_formats(model, demand, distance, EPS);
                let got = table.select_into(demand, distance, &mut out);
                unreachable += usize::from(!got);
                assert_eq!(
                    got.then(|| out.clone()),
                    want,
                    "{}: {demand} G over {distance} km",
                    model.name()
                );
            }
            assert!(
                unreachable > 0,
                "{}: no distance out of reach",
                model.name()
            );
            let reaches = table.reaches.len();
            assert_eq!(table.classes_built(), reaches, "{}", model.name());
            // A class's candidates are what reaches over any distance in
            // it: the restorer's revival formats.
            for &distance in &distances {
                assert_eq!(
                    table.candidates(distance),
                    reachable_formats(model, distance).as_slice(),
                    "{}: {distance} km",
                    model.name()
                );
            }
        }
    }
}
