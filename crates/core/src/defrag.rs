//! Spectrum defragmentation: hitless retuning to make room.
//!
//! Long-lived flex-grid networks fragment: free pixels exist but no
//! contiguous run is wide enough for a new wavelength. Because FlexWAN's
//! OLS passbands and SVT spacings are software-defined (§4.2–§4.3), the
//! controller can *retune* existing wavelengths — make-before-break, so
//! each moved wavelength's new channel must be free while its old channel
//! is still live — to consolidate free spectrum. This module implements
//! the greedy window-clearing defragmenter used by the planner's
//! optional defrag mode and the `ablation_defrag` experiment.

use flexwan_optical::spectrum::{PixelRange, PixelWidth};
use flexwan_topo::graph::{EdgeId, Graph};
use flexwan_topo::route::Route;

use crate::planning::spectrum::SpectrumState;
use crate::wavelength::Wavelength;

/// One hitless retuning step.
#[derive(Debug, Clone, PartialEq)]
pub struct RetuneStep {
    /// Index of the moved wavelength in the plan's wavelength list.
    pub wavelength: usize,
    /// Channel before the move.
    pub from: PixelRange,
    /// Channel after the move (disjoint from `from`: make-before-break).
    pub to: PixelRange,
}

/// The outcome of a successful defragmentation.
#[derive(Debug, Clone)]
pub struct DefragOutcome {
    /// Retuning steps executed, in order.
    pub steps: Vec<RetuneStep>,
    /// The channel freed for the new wavelength.
    pub channel: PixelRange,
    /// The chosen fiber per hop of the new wavelength's route.
    pub chosen_fibers: Vec<EdgeId>,
}

/// Tries to make room for a `width`-wide channel along `route` by
/// retuning at most `max_moves` existing wavelengths; on success the
/// moves are applied to `spectrum`/`wavelengths` and the cleared channel
/// is **allocated** on the returned fibers.
///
/// Returns `None` (state untouched) when no window can be cleared within
/// the move budget.
pub fn make_room(
    spectrum: &mut SpectrumState,
    wavelengths: &mut [Wavelength],
    route: &Route,
    width: PixelWidth,
    align: u32,
    max_moves: usize,
    optical: &Graph,
) -> Option<DefragOutcome> {
    assert!(align >= 1);
    let pixels = spectrum.grid().pixels();
    let need = u32::from(width.pixels());
    if need > pixels {
        return None;
    }

    let mut start = 0u32;
    while start + need <= pixels {
        let window = PixelRange::new(start, width);
        if let Some(outcome) = try_window(spectrum, wavelengths, route, &window, max_moves, optical)
        {
            return Some(outcome);
        }
        start += align;
    }
    None
}

/// Attempts to clear one window: pick per hop the fiber with the fewest
/// blockers, check the blocker budget, then retune each blocker
/// make-before-break. All-or-nothing: failures roll back.
fn try_window(
    spectrum: &mut SpectrumState,
    wavelengths: &mut [Wavelength],
    route: &Route,
    window: &PixelRange,
    max_moves: usize,
    optical: &Graph,
) -> Option<DefragOutcome> {
    // Choose fibers and collect blockers.
    let mut chosen: Vec<EdgeId> = Vec::with_capacity(route.hops.len());
    let mut blockers: Vec<usize> = Vec::new();
    for hop in &route.hops {
        let best = hop
            .iter()
            .map(|&e| {
                let b: Vec<usize> = wavelengths
                    .iter()
                    .enumerate()
                    .filter(|(_, w)| w.path.uses_edge(e) && w.channel.overlaps(window))
                    .map(|(i, _)| i)
                    .collect();
                (e, b)
            })
            .min_by_key(|(_, b)| b.len())?;
        chosen.push(best.0);
        for i in best.1 {
            if !blockers.contains(&i) {
                blockers.push(i);
            }
        }
    }
    if blockers.len() > max_moves {
        return None;
    }

    let one_px_path = |e: EdgeId| {
        flexwan_topo::path::Path::new(optical, vec![optical.edge(e).a, optical.edge(e).b], vec![e])
    };
    // Guard every currently-free window pixel on the chosen fibers so no
    // retuned blocker can land inside the window there. Guards are
    // per-pixel because blockers may cover the window only partially.
    let mut guards: Vec<(EdgeId, u32)> = Vec::new();
    let guard_free = |spectrum: &mut SpectrumState, guards: &mut Vec<(EdgeId, u32)>| {
        for &e in &chosen {
            for px in window.pixels() {
                let r = PixelRange::new(px, PixelWidth::new(1));
                if spectrum.mask(e).is_free(&r) {
                    spectrum
                        .occupy_exact(&one_px_path(e), &r)
                        .expect("pixel free");
                    guards.push((e, px));
                }
            }
        }
    };
    guard_free(spectrum, &mut guards);

    let rollback = |spectrum: &mut SpectrumState,
                    wavelengths: &mut [Wavelength],
                    steps: &[RetuneStep],
                    guards: &[(EdgeId, u32)]| {
        // Guards go first: they may sit on pixels the moved wavelengths
        // are about to re-occupy.
        for &(e, px) in guards {
            spectrum.release(&one_px_path(e), &PixelRange::new(px, PixelWidth::new(1)));
        }
        for step in steps.iter().rev() {
            let w = &mut wavelengths[step.wavelength];
            spectrum.release(&w.path, &step.to);
            spectrum
                .occupy_exact(&w.path, &step.from)
                .expect("rollback to original channel");
            w.channel = step.from;
        }
    };

    // Retune each blocker make-before-break: the new channel is searched
    // while the old one is still occupied (so old ∩ new = ∅ by
    // construction), with window pixels guarded against re-entry.
    let mut steps: Vec<RetuneStep> = Vec::new();
    for &bi in &blockers {
        let (path, from, w_width) = {
            let w = &wavelengths[bi];
            (w.path.clone(), w.channel, w.channel.width)
        };
        let Some(to) = spectrum.find(&path, w_width, 1) else {
            rollback(spectrum, wavelengths, &steps, &guards);
            return None;
        };
        debug_assert!(!to.overlaps(&from), "make-before-break violated");
        spectrum
            .occupy_exact(&path, &to)
            .expect("first-fit target is free");
        spectrum.release(&path, &from);
        wavelengths[bi].channel = to;
        steps.push(RetuneStep {
            wavelength: bi,
            from,
            to,
        });
        // Guard the window pixels this blocker just vacated.
        guard_free(spectrum, &mut guards);
    }

    // The window is clear iff every (chosen fiber, window pixel) is ours.
    let expected = chosen.len() * usize::from(window.width.pixels());
    if guards.len() != expected {
        rollback(spectrum, wavelengths, &steps, &guards);
        return None;
    }

    // The guards collectively *are* the allocation: the window is now
    // occupied on exactly the chosen fibers.
    Some(DefragOutcome {
        steps,
        channel: *window,
        chosen_fibers: chosen,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexwan_optical::format::TransponderFormat;
    use flexwan_optical::spectrum::SpectrumGrid;
    use flexwan_topo::ip::IpLinkId;
    use flexwan_topo::route::k_shortest_routes;

    fn w(px: u16) -> PixelWidth {
        PixelWidth::new(px)
    }

    /// One fiber a–b of 20 px with two 4-px wavelengths at [2..6) and
    /// [11..15): free runs of 2, 5 and 5 px — fragmented, but with room
    /// for a hitless move.
    fn fragmented() -> (Graph, SpectrumState, Vec<Wavelength>, Route) {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let e = g.add_edge(a, b, 100);
        let mut s = SpectrumState::new(SpectrumGrid::new(20), 1);
        let path = flexwan_topo::path::Path::new(&g, vec![a, b], vec![e]);
        let mk = |start: u32| Wavelength {
            link: IpLinkId(0),
            path_index: 0,
            path: path.clone(),
            format: TransponderFormat::derive(100, w(4), 3000),
            channel: PixelRange::new(start, w(4)),
        };
        let wl = vec![mk(2), mk(11)];
        for x in &wl {
            s.occupy_exact(&x.path, &x.channel).unwrap();
        }
        let route = k_shortest_routes(&g, a, b, 1, &Default::default()).remove(0);
        (g, s, wl, route)
    }

    #[test]
    fn defrag_clears_a_window() {
        let (g, mut s, mut wl, route) = fragmented();
        // An 8-px channel cannot fit without moves…
        assert!(s.find_route(&route, w(8), 1).is_none());
        // …but one retune makes room.
        let out = make_room(&mut s, &mut wl, &route, w(8), 1, 2, &g).expect("defrag succeeds");
        assert!(!out.steps.is_empty());
        // The returned channel is allocated and consistent.
        assert_eq!(out.channel.width, w(8));
        // No overlaps among the new layout.
        for (i, a) in wl.iter().enumerate() {
            assert!(
                !a.channel.overlaps(&out.channel),
                "wavelength {i} overlaps new channel"
            );
            for b in &wl[i + 1..] {
                assert!(!a.channel.overlaps(&b.channel));
            }
        }
        // Make-before-break: every step's target disjoint from its source.
        for st in &out.steps {
            assert!(!st.from.overlaps(&st.to));
        }
    }

    #[test]
    fn budget_zero_only_succeeds_without_blockers() {
        let (g, mut s, mut wl, route) = fragmented();
        assert!(make_room(&mut s, &mut wl, &route, w(8), 1, 0, &g).is_none());
        // A 3-px channel fits without any move (free run [6..11)).
        let out = make_room(&mut s, &mut wl, &route, w(3), 1, 0, &g).expect("fits as-is");
        assert!(out.steps.is_empty());
        // Free runs are [0..2), [6..11), [15..20): the first 3-px run
        // starts at 6.
        assert_eq!(out.channel.start, 6);
    }

    #[test]
    fn impossible_when_spectrum_truly_full() {
        let (g, mut s, mut wl, route) = fragmented();
        // Ask for 13 px: total free is 12 px — impossible with any moves.
        let before_s = s.clone();
        let before_wl = wl.clone();
        assert!(make_room(&mut s, &mut wl, &route, w(13), 1, 4, &g).is_none());
        // State untouched on failure.
        assert_eq!(s, before_s);
        assert_eq!(wl, before_wl);
    }

    #[test]
    fn full_pack_with_two_moves() {
        // 12 px + two 4-px wavelengths = the whole 20-px fiber: succeeding
        // requires relocating *both* wavelengths to the band edges. Along
        // the way several windows fail mid-move, exercising rollback.
        let (g, mut s, mut wl, route) = fragmented();
        let out = make_room(&mut s, &mut wl, &route, w(12), 1, 4, &g).expect("full pack");
        assert_eq!(out.steps.len(), 2);
        assert_eq!(out.channel.width, w(12));
        // The fiber is now completely occupied and overlap-free.
        assert_eq!(s.mask(flexwan_topo::graph::EdgeId(0)).occupied_pixels(), 20);
        assert!(!wl[0].channel.overlaps(&wl[1].channel));
        assert!(!wl[0].channel.overlaps(&out.channel));
        assert!(!wl[1].channel.overlaps(&out.channel));
    }

    #[test]
    fn failed_search_rolls_back_partial_moves() {
        // 13 px exceeds the total free spectrum: every window fails — some
        // after moving a blocker — and the original layout must be
        // restored bit for bit.
        let (g, mut s, mut wl, route) = fragmented();
        let orig: Vec<PixelRange> = wl.iter().map(|x| x.channel).collect();
        let orig_spectrum = s.clone();
        assert!(make_room(&mut s, &mut wl, &route, w(13), 1, 4, &g).is_none());
        let after: Vec<PixelRange> = wl.iter().map(|x| x.channel).collect();
        assert_eq!(orig, after);
        assert_eq!(s, orig_spectrum);
    }
}
