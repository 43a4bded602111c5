//! Network-wide spectrum bookkeeping (phase 2 of the planning heuristic).
//!
//! One [`SpectrumMask`] per fiber; a wavelength is placed with a joint
//! first-fit across every fiber of its path, which enforces the paper's
//! constraints by construction:
//!
//! * **spectrum conflict (3)** — a pixel is occupied at most once per
//!   fiber, because allocation only succeeds on jointly free runs;
//! * **spectrum consistency (4)** — the same pixel range is occupied on
//!   every fiber of the path;
//! * **grid discipline** — fixed-grid schemes only start channels on grid
//!   boundaries (the `align` parameter).

use flexwan_optical::spectrum::{FitStarts, PixelRange, PixelWidth, SpectrumGrid, SpectrumMask};
use flexwan_topo::graph::EdgeId;
use flexwan_topo::path::Path;
use flexwan_topo::route::Route;

/// Per-fiber spectrum occupancy for a whole optical topology.
#[derive(Debug, Clone, PartialEq)]
pub struct SpectrumState {
    grid: SpectrumGrid,
    masks: Vec<SpectrumMask>,
}

impl SpectrumState {
    /// All-free state for `num_fibers` fibers on `grid`.
    pub fn new(grid: SpectrumGrid, num_fibers: usize) -> Self {
        SpectrumState {
            grid,
            masks: vec![SpectrumMask::new(grid); num_fibers],
        }
    }

    /// The grid in use.
    pub fn grid(&self) -> SpectrumGrid {
        self.grid
    }

    /// The occupancy mask of fiber `e`.
    pub fn mask(&self, e: EdgeId) -> &SpectrumMask {
        &self.masks[e.0 as usize]
    }

    /// Finds the lowest `align`-aligned channel of `width` jointly free on
    /// every fiber of `path`, without allocating it.
    pub fn find(&self, path: &Path, width: PixelWidth, align: u32) -> Option<PixelRange> {
        let fibers = path.edges.iter().map(|&e| [self.mask(e)]);
        SpectrumMask::first_fit_any_of_each(self.grid, fibers, width, align)
    }

    /// Finds and occupies a channel along `path`; `None` (state unchanged)
    /// when no aligned joint run exists.
    pub fn allocate(&mut self, path: &Path, width: PixelWidth, align: u32) -> Option<PixelRange> {
        let range = self.find(path, width, align)?;
        for e in &path.edges {
            self.masks[e.0 as usize]
                .occupy(&range)
                .expect("jointly free range must occupy cleanly");
        }
        Some(range)
    }

    /// Releases `range` on every fiber of `path` (e.g. when a failed
    /// wavelength's spectrum is reclaimed for restoration).
    pub fn release(&mut self, path: &Path, range: &PixelRange) {
        for e in &path.edges {
            self.masks[e.0 as usize]
                .release(range)
                .expect("release must match a prior allocation");
        }
    }

    /// Occupies an explicit `range` along `path` (used when replaying a
    /// plan into a fresh state); fails if any pixel is taken.
    pub fn occupy_exact(
        &mut self,
        path: &Path,
        range: &PixelRange,
    ) -> Result<(), flexwan_optical::OpticalError> {
        for (i, e) in path.edges.iter().enumerate() {
            if let Err(err) = self.masks[e.0 as usize].occupy(range) {
                // Roll back the fibers already occupied.
                for undone in &path.edges[..i] {
                    self.masks[undone.0 as usize]
                        .release(range)
                        .expect("rollback of fresh occupation");
                }
                return Err(err);
            }
        }
        Ok(())
    }

    /// Finds the lowest `align`-aligned channel of `width` placeable along
    /// `route`, choosing one free parallel fiber per hop; returns the
    /// channel and the chosen fibers without allocating.
    ///
    /// The spectrum-consistency constraint applies to the *chosen* fibers:
    /// the same pixel range must be free on one parallel of every hop.
    pub fn find_route(
        &self,
        route: &Route,
        width: PixelWidth,
        align: u32,
    ) -> Option<(PixelRange, Vec<EdgeId>)> {
        let hops = route
            .hops
            .iter()
            .map(|hop| hop.iter().map(|&e| self.mask(e)));
        #[cfg(test)]
        tally::add(|t| t.stateless += tally::fibers(route));
        let range = SpectrumMask::first_fit_any_of_each(self.grid, hops, width, align)?;
        let chosen = route
            .hops
            .iter()
            .map(|hop| hop.iter().copied().find(|&e| self.mask(e).is_free(&range)))
            .collect::<Option<Vec<EdgeId>>>()
            .expect("a start in the set fits on one parallel of every hop");
        Some((range, chosen))
    }

    /// [`SpectrumState::find_route`] + allocation on the chosen fibers.
    pub fn allocate_route(
        &mut self,
        route: &Route,
        width: PixelWidth,
        align: u32,
    ) -> Option<(PixelRange, Vec<EdgeId>)> {
        let (range, chosen) = self.find_route(route, width, align)?;
        for e in &chosen {
            self.masks[e.0 as usize]
                .occupy(&range)
                .expect("found range is free");
        }
        Some((range, chosen))
    }

    /// Starts a run of `width`-wide channels on `route`: what repeated
    /// [`allocate_route`](Self::allocate_route) calls place, from fit-starts
    /// bitmaps built here once and kept current by [`Run::place`].
    pub(crate) fn run<'a>(
        &self,
        scratch: &'a mut RunScratch,
        route: &'a Route,
        width: PixelWidth,
        align: u32,
    ) -> Run<'a> {
        let mut run = Run {
            scratch,
            route,
            width,
            align,
        };
        run.rebuild(self);
        run
    }

    /// Highest per-fiber occupancy fraction (the bottleneck fiber).
    pub fn peak_utilization(&self) -> f64 {
        self.masks
            .iter()
            .map(|m| f64::from(m.occupied_pixels()) / f64::from(m.pixels()))
            .fold(0.0, f64::max)
    }
}

/// The buffers of the run placement, reused from run to run; one lives
/// for a plan. Not part of [`SpectrumState`], which is `Clone` and
/// `PartialEq`.
#[derive(Debug, Default)]
pub(crate) struct RunScratch {
    fits: FitStarts,
    chosen: Vec<EdgeId>,
}

/// Equal-width channels being placed back to back on one route (see
/// [`SpectrumState::run`]).
pub(crate) struct Run<'a> {
    scratch: &'a mut RunScratch,
    route: &'a Route,
    width: PixelWidth,
    align: u32,
}

impl Run<'_> {
    /// Re-reads `state`. Required after anything but [`Run::place`]
    /// touched it: the bitmaps are patched for pixels this run occupies,
    /// never for pixels anyone frees.
    pub(crate) fn rebuild(&mut self, state: &SpectrumState) {
        let hops = self.route.hops.iter();
        let masks = hops.map(|hop| hop.iter().map(|&e| state.mask(e)));
        #[cfg(test)]
        let reserved = self.scratch.fits.reserved_words();
        self.scratch.fits.build(state.grid, masks, self.width);
        #[cfg(test)]
        tally::add(|t| {
            t.built += tally::fibers(self.route);
            t.grown += usize::from(self.scratch.fits.reserved_words() != reserved);
        });
    }

    /// [`SpectrumState::allocate_route`] for the next channel of the run:
    /// the same channel on the same fibers, `None` (state unchanged) when
    /// the route has no room left for this width.
    pub(crate) fn place(&mut self, state: &mut SpectrumState) -> Option<(PixelRange, &[EdgeId])> {
        let RunScratch { fits, chosen } = &mut *self.scratch;
        let range = fits.first_fit(self.align)?;
        chosen.clear();
        for (h, hop) in self.route.hops.iter().enumerate() {
            let fiber = fits
                .take(h, &range)
                .expect("a start in the set fits on one parallel of every hop");
            state.masks[hop[fiber].0 as usize]
                .occupy(&range)
                .expect("found range is free");
            chosen.push(hop[fiber]);
        }
        #[cfg(test)]
        tally::add(|t| t.patched += chosen.len());
        Some((range, chosen))
    }
}

/// Test-only work counters of the two placement paths, per thread.
#[cfg(test)]
pub(crate) mod tally {
    use std::cell::Cell;

    /// Fit-starts bitmaps asked for since the last [`take`].
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub(crate) struct Tally {
        /// Built by [`super::Run::rebuild`].
        pub built: usize,
        /// Builds that had to grow the scratch.
        pub grown: usize,
        /// Patched by [`super::Run::place`].
        pub patched: usize,
        /// Handed to the stateless [`super::SpectrumState::find_route`].
        pub stateless: usize,
    }

    thread_local!(static TALLY: Cell<Tally> = const { Cell::new(Tally { built: 0, grown: 0, patched: 0, stateless: 0 }) });

    pub(crate) fn add(f: impl FnOnce(&mut Tally)) {
        TALLY.with(|c| {
            let mut t = c.get();
            f(&mut t);
            c.set(t);
        });
    }

    /// One fit-starts bitmap per parallel fiber of every hop.
    pub(crate) fn fibers(route: &super::Route) -> usize {
        route.hops.iter().map(Vec::len).sum()
    }

    /// Reads the counters and zeroes them.
    pub(crate) fn take() -> Tally {
        TALLY.with(Cell::take)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexwan_topo::graph::{Graph, NodeId};
    use flexwan_topo::route::Route;
    use flexwan_util::rng::ChaCha8Rng;

    fn chain() -> (Graph, Path) {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let e1 = g.add_edge(a, b, 100);
        let e2 = g.add_edge(b, c, 100);
        let p = Path::new(&g, vec![a, b, c], vec![e1, e2]);
        (g, p)
    }

    fn w(px: u16) -> PixelWidth {
        PixelWidth::new(px)
    }

    #[test]
    fn allocate_is_consistent_across_fibers() {
        let (g, p) = chain();
        let mut s = SpectrumState::new(SpectrumGrid::new(32), g.num_edges());
        let r1 = s.allocate(&p, w(6), 1).unwrap();
        assert_eq!(r1.start, 0);
        // Both fibers show the same occupation.
        assert!(!s.mask(EdgeId(0)).is_free(&r1));
        assert!(!s.mask(EdgeId(1)).is_free(&r1));
        let r2 = s.allocate(&p, w(6), 1).unwrap();
        assert_eq!(r2.start, 6);
    }

    #[test]
    fn allocation_failure_leaves_state_untouched() {
        let (g, p) = chain();
        let mut s = SpectrumState::new(SpectrumGrid::new(8), g.num_edges());
        assert!(s.allocate(&p, w(6), 1).is_some());
        let before = s.clone();
        assert!(s.allocate(&p, w(6), 1).is_none());
        assert_eq!(s, before);
    }

    #[test]
    fn release_round_trip() {
        let (g, p) = chain();
        let mut s = SpectrumState::new(SpectrumGrid::new(16), g.num_edges());
        let r = s.allocate(&p, w(4), 1).unwrap();
        s.release(&p, &r);
        assert_eq!(s, SpectrumState::new(SpectrumGrid::new(16), g.num_edges()));
        // The freed run is reusable.
        assert_eq!(s.allocate(&p, w(4), 1), Some(r));
    }

    #[test]
    fn aligned_allocation_for_fixed_grid() {
        let (g, p) = chain();
        let mut s = SpectrumState::new(SpectrumGrid::new(24), g.num_edges());
        // A pixel-wise allocation of 3 px leaves the grid misaligned …
        let _ = s.allocate(&p, w(3), 1).unwrap();
        // … and a 6-aligned 6 px channel must start at 6, not 3.
        let r = s.allocate(&p, w(6), 6).unwrap();
        assert_eq!(r.start, 6);
    }

    #[test]
    fn occupy_exact_rolls_back_on_conflict() {
        let (g, p) = chain();
        let mut s = SpectrumState::new(SpectrumGrid::new(16), g.num_edges());
        // Occupy on the second fiber only, via a one-hop path.
        let p2 = Path::new(
            &g,
            vec![g.node_by_name("b").unwrap(), g.node_by_name("c").unwrap()],
            vec![EdgeId(1)],
        );
        let r = PixelRange::new(0, w(4));
        s.occupy_exact(&p2, &r).unwrap();
        // Whole-path exact occupation now conflicts on fiber 1 and must
        // leave fiber 0 untouched.
        assert!(s.occupy_exact(&p, &r).is_err());
        assert!(s.mask(EdgeId(0)).is_free(&r));
    }

    #[test]
    fn route_allocation_spills_to_parallel_fiber() {
        // Two parallel fibers a–b: second wavelength lands on the second
        // pair at the same pixels.
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge(a, b, 100);
        g.add_edge(a, b, 102);
        let routes = flexwan_topo::route::k_shortest_routes(&g, a, b, 2, &Default::default());
        assert_eq!(routes.len(), 1, "one node-distinct route");
        let mut s = SpectrumState::new(SpectrumGrid::new(8), g.num_edges());
        let (r1, f1) = s.allocate_route(&routes[0], w(8), 1).unwrap();
        let (r2, f2) = s.allocate_route(&routes[0], w(8), 1).unwrap();
        assert_eq!(r1, r2, "same pixels, different pair");
        assert_ne!(f1, f2);
        assert!(
            s.allocate_route(&routes[0], w(8), 1).is_none(),
            "conduit full"
        );
    }

    #[test]
    fn route_allocation_mixes_pairs_per_hop() {
        // Hop 1 pair A full, hop 2 pair B full: the route still fits by
        // choosing (pair B, pair A).
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let e0 = g.add_edge(a, b, 50);
        let _e1 = g.add_edge(a, b, 52);
        let _e2 = g.add_edge(b, c, 60);
        let e3 = g.add_edge(b, c, 62);
        let mut s = SpectrumState::new(SpectrumGrid::new(8), g.num_edges());
        // Fill e0 and e3 fully.
        for e in [e0, e3] {
            let p = Path::new(&g, vec![g.edge(e).a, g.edge(e).b], vec![e]);
            s.occupy_exact(&p, &PixelRange::new(0, w(8))).unwrap();
        }
        let routes = flexwan_topo::route::k_shortest_routes(&g, a, c, 1, &Default::default());
        let (range, chosen) = s.find_route(&routes[0], w(8), 1).unwrap();
        assert_eq!(range.start, 0);
        assert_eq!(chosen, vec![EdgeId(1), EdgeId(2)]);
    }

    /// The per-pixel route search the bitmap kernel replaced, kept as the
    /// reference `find_route` is tested against: try every aligned start
    /// from pixel 0, per hop take the first parallel free at every pixel
    /// of the window.
    fn find_route_reference(
        s: &SpectrumState,
        route: &Route,
        width: PixelWidth,
        align: u32,
    ) -> Option<(PixelRange, Vec<EdgeId>)> {
        let pixels = s.grid.pixels();
        let need = u32::from(width.pixels());
        let mut start = 0u32;
        while start + need <= pixels {
            let range = PixelRange::new(start, width);
            let free = |e: &&EdgeId| range.pixels().all(|p| !s.mask(**e).is_occupied(p));
            let chosen: Vec<EdgeId> = route
                .hops
                .iter()
                .map_while(|hop| hop.iter().find(free).copied())
                .collect();
            if chosen.len() == route.hops.len() {
                return Some((range, chosen));
            }
            start += align;
        }
        None
    }

    /// A state over `pixels` and a route of 0–4 hops with 1–3 parallel
    /// fibers each, every fiber filled to a random density with short
    /// runs (the last, partial word included).
    fn random_state_and_route(rng: &mut ChaCha8Rng, pixels: u32) -> (SpectrumState, Route) {
        let hops: Vec<Vec<EdgeId>> = (0..rng.gen_range(0u32..5))
            .scan(0u32, |next, _| {
                let hop = (*next..*next + rng.gen_range(1u32..4))
                    .map(EdgeId)
                    .collect();
                *next += 3;
                Some(hop)
            })
            .collect();
        let mut s = SpectrumState::new(SpectrumGrid::new(pixels), 3 * hops.len());
        for mask in &mut s.masks {
            let density = rng.gen_range(0.0f64..0.8);
            let mut p = 0;
            while p < pixels {
                let run = rng.gen_range(1u32..12).min(pixels - p);
                if rng.gen_bool(density) {
                    mask.occupy(&PixelRange::new(p, w(run as u16))).unwrap();
                }
                p += run;
            }
        }
        let route = Route {
            nodes: (0..=hops.len() as u32).map(NodeId).collect(),
            hops,
            length_km: 0,
        };
        (s, route)
    }

    #[test]
    fn find_route_matches_per_pixel_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x20F7);
        for pixels in [8u32, 63, 64, 65, 100, 384, 400, 600] {
            for _case in 0..16 {
                let (s, route) = random_state_and_route(&mut rng, pixels);
                for width in 1..=70u16 {
                    for align in [1u32, 4, 6] {
                        assert_eq!(
                            s.find_route(&route, w(width), align),
                            find_route_reference(&s, &route, w(width), align),
                            "{pixels} px, hops {:?}, width {width}, align {align}",
                            route.hops
                        );
                    }
                }
            }
        }
    }

    /// The run kernel against the stateless search, channel by channel:
    /// the same pixels on the same fibers after every placement, until
    /// the route is full and both say so.
    #[test]
    fn a_run_places_what_repeated_find_route_finds() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x2A17);
        let mut scratch = RunScratch::default();
        let mut placed = 0;
        for pixels in [8u32, 63, 64, 65, 100, 384, 400, 600] {
            for _case in 0..12 {
                let (start, route) = random_state_and_route(&mut rng, pixels);
                // No hop constrains nothing: pixel 0 fits for ever.
                let cap = if route.hops.is_empty() { 3 } else { usize::MAX };
                for width in 1..=70u16 {
                    for align in [1u32, 4, 6] {
                        let (mut by_run, mut stateless) = (start.clone(), start.clone());
                        let mut run = by_run.run(&mut scratch, &route, w(width), align);
                        for nth in 0..cap {
                            let expected = stateless.allocate_route(&route, w(width), align);
                            let got = run.place(&mut by_run);
                            assert_eq!(
                                got.map(|(range, chosen)| (range, chosen.to_vec())),
                                expected,
                                "{pixels} px, hops {:?}, width {width}, align {align}, channel {nth}",
                                route.hops
                            );
                            if expected.is_none() {
                                break;
                            }
                            placed += 1;
                        }
                        assert_eq!(by_run, stateless);
                    }
                }
            }
        }
        assert!(placed > 50_000, "{placed} channels placed");
    }

    /// What lets the planner skip a width at least as wide as one that
    /// already failed on a route: while pixels are only ever occupied, a
    /// search that failed keeps failing, for that width and every wider.
    #[test]
    fn a_failed_width_stays_failed_while_occupancy_grows() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x0CC0);
        for _case in 0..40 {
            let pixels = [64u32, 100, 384][rng.gen_range(0usize..3)];
            let (mut s, route) = random_state_and_route(&mut rng, pixels);
            let align = [1u32, 4, 6][rng.gen_range(0usize..3)];
            let mut failed: Option<u16> = None;
            for _step in 0..60 {
                let width = rng.gen_range(1u16..40);
                let found = s.find_route(&route, w(width), align).is_some();
                if failed.is_some_and(|f| width >= f) {
                    assert!(!found, "width {width} fits after {failed:?} failed");
                } else if !found {
                    failed = Some(width);
                }
                // Occupy more: on the route when the search found room,
                // anywhere free otherwise.
                if found {
                    s.allocate_route(&route, w(width), align).unwrap();
                } else {
                    let r = PixelRange::new(rng.gen_range(0..pixels), w(1));
                    let fiber = rng.gen_range(0..s.masks.len().max(1));
                    if let Some(mask) = s.masks.get_mut(fiber) {
                        let _ = mask.occupy(&r);
                    }
                }
            }
        }
    }

    #[test]
    fn peak_utilization_tracks_bottleneck() {
        let (g, p) = chain();
        let mut s = SpectrumState::new(SpectrumGrid::new(16), g.num_edges());
        s.allocate(&p, w(8), 1).unwrap();
        assert!((s.peak_utilization() - 0.5).abs() < 1e-12);
    }
}
