//! Spectrum model: the C-band sliced into 12.5 GHz pixels.
//!
//! FlexWAN's spectrum-sliced optical line system (§4.2) replaces the rigid
//! 50/75 GHz grid with an LCoS-based pixel-wise WSS whose granularity is a
//! 12.5 GHz *pixel*. A wavelength occupies a run of **contiguous** pixels
//! ([`PixelRange`]); the number of pixels is its channel spacing
//! ([`PixelWidth`]). Per-fiber occupancy is tracked with a bitmap
//! ([`SpectrumMask`]) supporting the first-fit contiguous searches used by
//! the planning and restoration algorithms.
//!
//! All spacings in the paper (50, 62.5, 75, …, 150 GHz — Table 2) are exact
//! multiples of 12.5 GHz, so the whole planning problem is integer pixel
//! arithmetic: no floating-point comparisons decide feasibility.

use crate::error::OpticalError;

/// Width of one spectrum pixel in GHz (the LCoS WSS granularity, §4.2).
pub const PIXEL_GHZ: f64 = 12.5;

/// Total C-band width modeled by default, in GHz (ITU-T C-band ≈ 4.8 THz).
pub const C_BAND_GHZ: f64 = 4800.0;

/// Default number of pixels in the C-band: 4800 / 12.5.
pub const C_BAND_PIXELS: u32 = (C_BAND_GHZ / PIXEL_GHZ) as u32;

/// A channel spacing expressed as a whole number of 12.5 GHz pixels.
///
/// Examples: 50 GHz = 4 pixels, 75 GHz = 6 pixels, 150 GHz = 12 pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PixelWidth(u16);

impl PixelWidth {
    /// Creates a spacing of `pixels` pixels. Must be non-zero.
    pub fn new(pixels: u16) -> Self {
        assert!(pixels > 0, "channel spacing must be at least one pixel");
        PixelWidth(pixels)
    }

    /// Converts a GHz spacing to pixels; fails unless it is a positive exact
    /// multiple of 12.5 GHz (the grid the hardware can realize).
    pub fn from_ghz(ghz: f64) -> Result<Self, OpticalError> {
        if ghz.is_nan() || ghz <= 0.0 {
            return Err(OpticalError::NotOnPixelGrid { ghz });
        }
        let pixels = ghz / PIXEL_GHZ;
        let rounded = pixels.round();
        if (pixels - rounded).abs() > 1e-9 || rounded < 1.0 || rounded > f64::from(u16::MAX) {
            return Err(OpticalError::NotOnPixelGrid { ghz });
        }
        Ok(PixelWidth(rounded as u16))
    }

    /// The spacing in pixels.
    pub fn pixels(self) -> u16 {
        self.0
    }

    /// The spacing in GHz.
    pub fn ghz(self) -> f64 {
        f64::from(self.0) * PIXEL_GHZ
    }
}

impl std::fmt::Display for PixelWidth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} GHz", self.ghz())
    }
}

/// A contiguous run of pixels `[start, start + width)` within a fiber's
/// spectrum: the spectrum occupied by one wavelength, or the passband
/// configured on one WSS/filter port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PixelRange {
    /// Index of the first pixel occupied.
    pub start: u32,
    /// Number of contiguous pixels occupied (the channel spacing).
    pub width: PixelWidth,
}

impl PixelRange {
    /// Creates the range `[start, start + width)`.
    pub fn new(start: u32, width: PixelWidth) -> Self {
        PixelRange { start, width }
    }

    /// One-past-the-last pixel index.
    pub fn end(&self) -> u32 {
        self.start + u32::from(self.width.pixels())
    }

    /// Whether two ranges share at least one pixel.
    pub fn overlaps(&self, other: &PixelRange) -> bool {
        self.start < other.end() && other.start < self.end()
    }

    /// Whether `self` fully contains `other`.
    pub fn contains(&self, other: &PixelRange) -> bool {
        self.start <= other.start && other.end() <= self.end()
    }

    /// Iterates over the pixel indices in the range.
    pub fn pixels(&self) -> impl Iterator<Item = u32> {
        self.start..self.end()
    }

    /// Lower frequency bound of the range relative to the band start, GHz.
    pub fn low_ghz(&self) -> f64 {
        f64::from(self.start) * PIXEL_GHZ
    }

    /// Upper frequency bound of the range relative to the band start, GHz.
    pub fn high_ghz(&self) -> f64 {
        f64::from(self.end()) * PIXEL_GHZ
    }
}

impl std::fmt::Display for PixelRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}..{})px ({:.1}-{:.1} GHz)",
            self.start,
            self.end(),
            self.low_ghz(),
            self.high_ghz()
        )
    }
}

/// The spectrum dimensioning of a fiber/band: how many pixels exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpectrumGrid {
    pixels: u32,
}

impl SpectrumGrid {
    /// A grid with `pixels` pixels of 12.5 GHz each.
    pub fn new(pixels: u32) -> Self {
        assert!(pixels > 0, "spectrum grid must have at least one pixel");
        SpectrumGrid { pixels }
    }

    /// The full ITU-T C-band (4.8 THz → 384 pixels), the deployment default.
    pub fn c_band() -> Self {
        SpectrumGrid {
            pixels: C_BAND_PIXELS,
        }
    }

    /// Number of pixels in the band.
    pub fn pixels(&self) -> u32 {
        self.pixels
    }

    /// Whether `range` lies entirely within the band.
    pub fn contains(&self, range: &PixelRange) -> bool {
        range.end() <= self.pixels
    }
}

impl Default for SpectrumGrid {
    fn default() -> Self {
        SpectrumGrid::c_band()
    }
}

/// Per-fiber spectrum occupancy bitmap.
///
/// Bit `i` set means pixel `i` is occupied by some wavelength. The planner
/// allocates wavelengths with [`SpectrumMask::first_fit_any_of_each`] (or
/// the [`FitStarts`] it keeps current), which by construction enforces the
/// paper's spectrum-conflict constraint (3) (each pixel used at most once
/// per fiber) and — via the joint search — the spectrum-consistency
/// constraint (4) (same pixels on every fiber of a path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpectrumMask {
    words: Vec<u64>,
    pixels: u32,
}

impl SpectrumMask {
    /// An all-free mask over `grid`.
    pub fn new(grid: SpectrumGrid) -> Self {
        let words = vec![0u64; grid.pixels().div_ceil(64) as usize];
        SpectrumMask {
            words,
            pixels: grid.pixels(),
        }
    }

    /// Number of pixels tracked by the mask.
    pub fn pixels(&self) -> u32 {
        self.pixels
    }

    fn check_range(&self, range: &PixelRange) -> Result<(), OpticalError> {
        if range.end() > self.pixels {
            return Err(OpticalError::OutOfBand {
                range: *range,
                band_pixels: self.pixels,
            });
        }
        Ok(())
    }

    /// Whether pixel `i` is occupied.
    pub fn is_occupied(&self, pixel: u32) -> bool {
        debug_assert!(pixel < self.pixels);
        self.words[(pixel / 64) as usize] & (1u64 << (pixel % 64)) != 0
    }

    /// Whether every pixel in `range` is free.
    pub fn is_free(&self, range: &PixelRange) -> bool {
        range.end() <= self.pixels && spans(range).all(|(w, m)| self.words[w] & m == 0)
    }

    /// Marks every pixel in `range` occupied; fails if any is already
    /// occupied (a channel conflict) or out of band.
    pub fn occupy(&mut self, range: &PixelRange) -> Result<(), OpticalError> {
        self.check_range(range)?;
        if !self.is_free(range) {
            return Err(OpticalError::SpectrumConflict { range: *range });
        }
        for (w, m) in spans(range) {
            self.words[w] |= m;
        }
        Ok(())
    }

    /// Frees every pixel in `range`; fails if any was already free (double
    /// release indicates a bookkeeping bug) or out of band.
    pub fn release(&mut self, range: &PixelRange) -> Result<(), OpticalError> {
        self.check_range(range)?;
        if spans(range).any(|(w, m)| self.words[w] & m != m) {
            return Err(OpticalError::DoubleRelease { range: *range });
        }
        for (w, m) in spans(range) {
            self.words[w] &= !m;
        }
        Ok(())
    }

    /// Count of occupied pixels.
    pub fn occupied_pixels(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Lowest `align`-aligned channel of `width` that, in every group of
    /// `groups`, is free on at least one mask: the groups are the hops of a
    /// route, the masks of a group that hop's parallel fibers. One mask
    /// per group is the joint search along a path: the spectrum-consistency
    /// constraint puts a wavelength on the *same* pixels of every fiber.
    ///
    /// `align = 1` is the pixel-wise WSS of FlexWAN; `align = grid width`
    /// models the rigid-grid OLS of the 100G-WAN and RADWAN baselines,
    /// where every passband must sit on the fixed grid.
    ///
    /// Works on whole bitmaps, 64 pixels a word: the fit-starts bitmaps of
    /// the masks (bit `i` set iff pixels `i..i + width` are free) are ORed
    /// within a group and ANDed across groups, and the answer is the first
    /// aligned bit left.
    ///
    /// # Panics
    /// When a mask is not over `grid`.
    pub fn first_fit_any_of_each<'a, G>(
        grid: SpectrumGrid,
        groups: G,
        width: PixelWidth,
        align: u32,
    ) -> Option<PixelRange>
    where
        G: IntoIterator,
        G::Item: IntoIterator<Item = &'a SpectrumMask>,
    {
        assert!(align >= 1, "alignment must be at least one pixel");
        if u32::from(width.pixels()) > grid.pixels {
            return None;
        }
        // Three bitmaps — the route's starts, one hop's, one fiber's — on
        // the stack up to 512 pixels (the C-band has 384).
        const STACK_WORDS: usize = 8;
        let n = grid.pixels.div_ceil(64) as usize;
        let mut stack = [0u64; 3 * STACK_WORDS];
        let mut heap = Vec::new();
        let buf = if n <= STACK_WORDS {
            &mut stack[..3 * n]
        } else {
            heap.resize(3 * n, 0);
            &mut heap[..]
        };
        let (route, rest) = buf.split_at_mut(n);
        let (hop, fiber) = rest.split_at_mut(n);
        // Every start until a group says otherwise; with no group at all,
        // pixel 0 — in band, by the check above.
        route.fill(!0);
        for group in groups {
            hop.fill(0);
            for mask in group {
                assert_eq!(mask.pixels, grid.pixels, "masks must share a grid");
                mask.fit_starts(width, fiber);
                hop.iter_mut().zip(&*fiber).for_each(|(h, f)| *h |= f);
            }
            route.iter_mut().zip(&*hop).for_each(|(r, h)| *r &= h);
            if route.iter().all(|&r| r == 0) {
                return None;
            }
        }
        first_aligned(route, 0, width, align)
    }

    /// Writes this fiber's fit-starts bitmap for `width`: bit `i` of
    /// `starts` is set iff pixels `i..i + width` are all in band and free.
    fn fit_starts(&self, width: PixelWidth, starts: &mut [u64]) {
        for (s, occupied) in starts.iter_mut().zip(&self.words) {
            *s = !occupied;
        }
        // Pixels past the band count as occupied.
        if !self.pixels.is_multiple_of(64) {
            starts[self.words.len() - 1] &= !(!0 << (self.pixels % 64));
        }
        // Shift-doubling: with `starts` marking the free runs of `have`
        // pixels, `starts & (starts >> step)` marks those of `have + step`
        // for any `step <= have` (the two windows overlap or abut).
        let need = u32::from(width.pixels());
        let mut have = 1;
        while have < need {
            let step = have.min(need - have);
            let (skip, shift) = ((step / 64) as usize, step % 64);
            for i in 0..starts.len() {
                let lo = starts.get(i + skip).copied().unwrap_or(0);
                let hi = starts.get(i + skip + 1).copied().unwrap_or(0);
                starts[i] &= if shift == 0 {
                    lo
                } else {
                    (lo >> shift) | (hi << (64 - shift))
                };
            }
            have += step;
        }
    }

    /// All maximal free runs as (start, length-in-pixels) pairs, in order.
    ///
    /// Used by fragmentation diagnostics and the restoration report.
    pub fn free_runs(&self) -> Vec<(u32, u32)> {
        let mut runs = Vec::new();
        let mut start = None;
        for p in 0..self.pixels {
            if self.is_occupied(p) {
                if let Some(s) = start.take() {
                    runs.push((s, p - s));
                }
            } else if start.is_none() {
                start = Some(p);
            }
        }
        if let Some(s) = start {
            runs.push((s, self.pixels - s));
        }
        runs
    }
}

/// The fit-starts bitmaps of a route's fibers for one width, kept current
/// while channels of that width are placed on the route: what
/// [`SpectrumMask::first_fit_any_of_each`] derives per call, built once
/// and patched after each placement (DESIGN.md §3.2).
///
/// Valid only while pixels are *occupied* on the fibers it was built
/// over, each occupation reported through [`FitStarts::take`]; after
/// anything else — a release, an occupation made elsewhere —
/// [`FitStarts::build`] it again. The buffers are reused across builds.
#[derive(Debug, Clone, Default)]
pub struct FitStarts {
    /// Channel width in pixels; 0 until the first build.
    width: u16,
    pixels: u32,
    /// Words per bitmap.
    words: usize,
    /// Per group, one past its last fiber.
    ends: Vec<usize>,
    /// The route's accumulator — the AND over groups of each group's
    /// fibers ORed — then one bitmap per fiber in group order.
    bits: Vec<u64>,
    /// No start is set in an accumulator word below this one.
    floor: usize,
}

impl FitStarts {
    /// Rebuilds the bitmaps for `width`-wide channels over `groups` — the
    /// hops of a route, each the masks of that hop's parallel fibers.
    ///
    /// # Panics
    /// When a mask is not over `grid`.
    pub fn build<'a, G>(&mut self, grid: SpectrumGrid, groups: G, width: PixelWidth)
    where
        G: IntoIterator,
        G::Item: IntoIterator<Item = &'a SpectrumMask>,
    {
        let n = grid.pixels.div_ceil(64) as usize;
        (self.width, self.pixels, self.words) = (width.pixels(), grid.pixels, n);
        self.ends.clear();
        self.bits.clear();
        // Every start until a group says otherwise; with no group at all,
        // pixel 0 — in band whenever the width is.
        self.bits.resize(n, !0);
        self.floor = 0;
        for group in groups {
            let first = self.bits.len();
            for mask in group {
                assert_eq!(mask.pixels, grid.pixels, "masks must share a grid");
                let at = self.bits.len();
                self.bits.resize(at + n, 0);
                mask.fit_starts(width, &mut self.bits[at..]);
            }
            self.ends.push(self.bits.len() / n - 1);
            let (route, fibers) = self.bits.split_at_mut(n);
            let group = &fibers[first - n..];
            for (i, r) in route.iter_mut().enumerate() {
                *r &= group.chunks_exact(n).fold(0, |hop, f| hop | f[i]);
            }
        }
    }

    /// Words the bitmap buffer holds without reallocating: a caller that
    /// keeps one `FitStarts` for many builds can pin that they reuse it.
    pub fn reserved_words(&self) -> usize {
        self.bits.capacity()
    }

    /// What [`SpectrumMask::first_fit_any_of_each`] answers on the masks
    /// as they stand: fibers ORed within a group, groups ANDed, first
    /// aligned bit — read off the accumulator, from the floor up.
    pub fn first_fit(&mut self, align: u32) -> Option<PixelRange> {
        assert!(align >= 1, "alignment must be at least one pixel");
        if u32::from(self.width) > self.pixels {
            return None;
        }
        let route = &self.bits[..self.words];
        self.floor += route[self.floor..].iter().take_while(|&&r| r == 0).count();
        first_aligned(route, self.floor, PixelWidth(self.width), align)
    }

    /// The first fiber of `group` (by position in it) on which `range`
    /// fits, its bitmap brought up to date with `range` occupied there:
    /// exactly the starts whose window meets `range`,
    /// `(start − width, start + width)`, stop fitting. The accumulator
    /// loses, on those words, what the group no longer offers.
    pub fn take(&mut self, group: usize, range: &PixelRange) -> Option<usize> {
        assert_eq!(range.width.pixels(), self.width, "one width per build");
        let n = self.words;
        let first = group.checked_sub(1).map_or(0, |g| self.ends[g]);
        let (route, fibers) = self.bits.split_at_mut(n);
        let fibers = &mut fibers[first * n..self.ends[group] * n];
        let (word, bit) = ((range.start / 64) as usize, 1u64 << (range.start % 64));
        let fiber = fibers.chunks_exact(n).position(|f| f[word] & bit != 0)?;
        let from = (range.start + 1).saturating_sub(u32::from(self.width));
        for (i, m) in bit_spans(from, range.end()) {
            fibers[fiber * n + i] &= !m;
            route[i] &= fibers.chunks_exact(n).fold(0, |hop, f| hop | f[i]);
        }
        Some(fiber)
    }
}

/// The channel at the first set bit of the fit-starts bitmap `starts`, in
/// word `from` or later, that is a multiple of `align`. The alignment
/// test is on the absolute pixel index, whatever word the scan starts in.
fn first_aligned(starts: &[u64], from: usize, width: PixelWidth, align: u32) -> Option<PixelRange> {
    for (i, &word) in starts.iter().enumerate().skip(from) {
        let mut left = word;
        while left != 0 {
            let start = i as u32 * 64 + left.trailing_zeros();
            if start.is_multiple_of(align) {
                return Some(PixelRange::new(start, width));
            }
            left &= left - 1;
        }
    }
    None
}

/// The (word index, bit mask) pieces of `range` in a 64-pixels-per-word
/// bitmap.
fn spans(range: &PixelRange) -> impl Iterator<Item = (usize, u64)> {
    bit_spans(range.start, range.end())
}

/// The (word index, bit mask) pieces of bits `[start, end)`.
fn bit_spans(start: u32, end: u32) -> impl Iterator<Item = (usize, u64)> {
    ((start / 64)..end.div_ceil(64)).map(move |w| {
        let lo = start.max(w * 64) - w * 64;
        let hi = end.min((w + 1) * 64) - w * 64;
        (w as usize, (!0u64 >> (64 - (hi - lo))) << lo)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexwan_util::rng::ChaCha8Rng;

    fn w(px: u16) -> PixelWidth {
        PixelWidth::new(px)
    }

    #[test]
    fn pixel_width_ghz_round_trip() {
        for ghz in [50.0, 62.5, 75.0, 87.5, 100.0, 112.5, 125.0, 137.5, 150.0] {
            let pw = PixelWidth::from_ghz(ghz).unwrap();
            assert_eq!(pw.ghz(), ghz);
        }
    }

    #[test]
    fn pixel_width_rejects_off_grid() {
        assert!(PixelWidth::from_ghz(55.0).is_err());
        assert!(PixelWidth::from_ghz(0.0).is_err());
        assert!(PixelWidth::from_ghz(-12.5).is_err());
        assert!(PixelWidth::from_ghz(12.4).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one pixel")]
    fn pixel_width_rejects_zero() {
        let _ = PixelWidth::new(0);
    }

    #[test]
    fn range_overlap_and_contains() {
        let a = PixelRange::new(0, w(4));
        let b = PixelRange::new(4, w(4));
        let c = PixelRange::new(3, w(4));
        assert!(!a.overlaps(&b));
        assert!(a.overlaps(&c));
        assert!(b.overlaps(&c));
        let big = PixelRange::new(0, w(8));
        assert!(big.contains(&a));
        assert!(big.contains(&b));
        assert!(!a.contains(&big));
    }

    #[test]
    fn range_frequency_bounds() {
        let r = PixelRange::new(4, w(6)); // 75 GHz channel starting at 50 GHz
        assert_eq!(r.low_ghz(), 50.0);
        assert_eq!(r.high_ghz(), 125.0);
    }

    #[test]
    fn c_band_has_384_pixels() {
        assert_eq!(SpectrumGrid::c_band().pixels(), 384);
    }

    #[test]
    fn occupy_then_conflict() {
        let mut m = SpectrumMask::new(SpectrumGrid::new(16));
        m.occupy(&PixelRange::new(0, w(6))).unwrap();
        assert!(matches!(
            m.occupy(&PixelRange::new(5, w(4))),
            Err(OpticalError::SpectrumConflict { .. })
        ));
        // Adjacent (non-overlapping) allocation succeeds.
        m.occupy(&PixelRange::new(6, w(4))).unwrap();
        assert_eq!(m.occupied_pixels(), 10);
    }

    #[test]
    fn occupy_out_of_band() {
        let mut m = SpectrumMask::new(SpectrumGrid::new(8));
        assert!(matches!(
            m.occupy(&PixelRange::new(6, w(4))),
            Err(OpticalError::OutOfBand { .. })
        ));
    }

    #[test]
    fn release_round_trip_and_double_release() {
        let mut m = SpectrumMask::new(SpectrumGrid::new(64));
        let r = PixelRange::new(10, w(6));
        m.occupy(&r).unwrap();
        assert_eq!(m.occupied_pixels(), 6);
        m.release(&r).unwrap();
        assert_eq!(m.occupied_pixels(), 0);
        assert!(matches!(
            m.release(&r),
            Err(OpticalError::DoubleRelease { .. })
        ));
    }

    /// The joint first fit along a path: one group per mask.
    fn joint_fit(masks: &[&SpectrumMask], width: PixelWidth, align: u32) -> Option<PixelRange> {
        let grid = SpectrumGrid::new(masks[0].pixels);
        SpectrumMask::first_fit_any_of_each(grid, masks.iter().map(|&m| [m]), width, align)
    }

    #[test]
    fn first_fit_finds_lowest_gap() {
        let mut m = SpectrumMask::new(SpectrumGrid::new(32));
        m.occupy(&PixelRange::new(0, w(4))).unwrap();
        m.occupy(&PixelRange::new(6, w(4))).unwrap();
        // Gap [4,6) is too small for 4 px; next free run starts at 10.
        assert_eq!(joint_fit(&[&m], w(4), 1), Some(PixelRange::new(10, w(4))));
        // But a 2 px request fits in the gap.
        assert_eq!(joint_fit(&[&m], w(2), 1), Some(PixelRange::new(4, w(2))));
    }

    #[test]
    fn first_fit_none_when_fragmented() {
        let mut m = SpectrumMask::new(SpectrumGrid::new(12));
        // Occupy every other pair: free runs of 2 px only.
        for s in [2u32, 6, 10] {
            m.occupy(&PixelRange::new(s, w(2))).unwrap();
        }
        assert!(joint_fit(&[&m], w(3), 1).is_none());
        assert_eq!(m.free_runs(), vec![(0, 2), (4, 2), (8, 2)]);
    }

    #[test]
    fn joint_first_fit_respects_all_masks() {
        let grid = SpectrumGrid::new(16);
        let mut a = SpectrumMask::new(grid);
        let mut b = SpectrumMask::new(grid);
        a.occupy(&PixelRange::new(0, w(6))).unwrap();
        b.occupy(&PixelRange::new(6, w(6))).unwrap();
        // Individually each has a 6 px run below 12, jointly only [12,16) —
        // too small for 6 px.
        assert_eq!(joint_fit(&[&a, &b], w(6), 1), None);
        assert_eq!(
            joint_fit(&[&a, &b], w(4), 1),
            Some(PixelRange::new(12, w(4)))
        );
    }

    #[test]
    fn joint_first_fit_crosses_word_boundary() {
        let grid = SpectrumGrid::new(384);
        let mut a = SpectrumMask::new(grid);
        a.occupy(&PixelRange::new(0, PixelWidth::new(62))).unwrap();
        // Next fit must straddle the 64-bit word boundary at pixel 64.
        assert_eq!(joint_fit(&[&a], w(6), 1), Some(PixelRange::new(62, w(6))));
    }

    #[test]
    fn aligned_first_fit_respects_grid() {
        let grid = SpectrumGrid::new(32);
        let mut m = SpectrumMask::new(grid);
        // Occupy [0,3): a pixel-wise fit for 4 px starts at 3; a 4-aligned
        // fit must start at 4.
        m.occupy(&PixelRange::new(0, w(3))).unwrap();
        assert_eq!(joint_fit(&[&m], w(4), 1), Some(PixelRange::new(3, w(4))));
        assert_eq!(joint_fit(&[&m], w(4), 4), Some(PixelRange::new(4, w(4))));
    }

    #[test]
    fn aligned_first_fit_skips_blocked_grid_slots() {
        let grid = SpectrumGrid::new(24);
        let mut m = SpectrumMask::new(grid);
        // Pixel 5 blocks the grid slot [4,10); slots [0,6) blocked at 0.
        m.occupy(&PixelRange::new(0, w(1))).unwrap();
        m.occupy(&PixelRange::new(11, w(1))).unwrap();
        // 6-aligned, 6 wide: slot [0,6) blocked (pixel 0), [6,12) blocked
        // (pixel 11), so [12,18).
        assert_eq!(joint_fit(&[&m], w(6), 6), Some(PixelRange::new(12, w(6))));
    }

    /// The per-pixel first-fit the bitmap kernel replaced, kept as the
    /// reference the kernel is tested against: scan the candidate window,
    /// on a collision jump to the next aligned start past it.
    fn first_fit_reference(
        masks: &[&SpectrumMask],
        width: PixelWidth,
        align: u32,
    ) -> Option<PixelRange> {
        let pixels = masks.first()?.pixels;
        let need = u32::from(width.pixels());
        let mut start = 0u32;
        while start + need <= pixels {
            match (start..start + need).find(|&p| masks.iter().any(|m| m.is_occupied(p))) {
                Some(p) => start = (p + 1).div_ceil(align) * align,
                None => return Some(PixelRange::new(start, width)),
            }
        }
        None
    }

    /// Grids around the word boundaries, the C-band, a partial last word,
    /// and one past the kernel's stack buffers.
    const GRIDS: [u32; 8] = [8, 63, 64, 65, 100, 384, 400, 600];

    /// A mask filled to a random density with short runs, the last
    /// (partial) word included.
    fn random_mask(rng: &mut ChaCha8Rng, pixels: u32) -> SpectrumMask {
        let mut m = SpectrumMask::new(SpectrumGrid::new(pixels));
        let density = rng.gen_range(0.0f64..0.9);
        let mut p = 0;
        while p < pixels {
            let run = rng.gen_range(1u32..12).min(pixels - p);
            if rng.gen_bool(density) {
                m.occupy(&PixelRange::new(p, w(run as u16))).unwrap();
            }
            p += run;
        }
        if rng.gen_bool(0.5) && !m.is_occupied(pixels - 1) {
            m.occupy(&PixelRange::new(pixels - 1, w(1))).unwrap();
        }
        m
    }

    #[test]
    fn kernel_matches_per_pixel_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5EC7);
        for pixels in GRIDS {
            for _case in 0..24 {
                let masks: Vec<SpectrumMask> = (0..rng.gen_range(1usize..4))
                    .map(|_| random_mask(&mut rng, pixels))
                    .collect();
                let views: Vec<&SpectrumMask> = masks.iter().collect();
                for width in 1..=70u16 {
                    for align in [1u32, 4, 6] {
                        assert_eq!(
                            joint_fit(&views, w(width), align),
                            first_fit_reference(&views, w(width), align),
                            "{pixels} px, {} masks, width {width}, align {align}",
                            masks.len()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fit_starts_marks_exactly_the_free_windows() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xF175);
        for pixels in GRIDS {
            let m = random_mask(&mut rng, pixels);
            for width in [1u16, 2, 5, 12, 63, 64, 65, 70, 130] {
                let mut starts = vec![!0u64; m.words.len()];
                m.fit_starts(w(width), &mut starts);
                for i in 0..m.words.len() as u32 * 64 {
                    let fits = i + u32::from(width) <= pixels
                        && (i..i + u32::from(width)).all(|p| !m.is_occupied(p));
                    let bit = starts[(i / 64) as usize] >> (i % 64) & 1 == 1;
                    assert_eq!(bit, fits, "{pixels} px, width {width}, start {i}");
                }
            }
        }
    }

    /// What a `FitStarts` keeps between calls: the accumulator and the
    /// fiber bitmaps, and the floor.
    fn kept_state(f: &FitStarts) -> (Vec<usize>, Vec<u64>, usize) {
        (f.ends.clone(), f.bits.clone(), f.floor)
    }

    /// Placing through a `FitStarts` — first fit, take a fiber per group,
    /// occupy it — leaves every bitmap as a build from the masks would
    /// make it, so the next answer is `first_fit_any_of_each`'s: after
    /// every take the accumulator and the fibers' bitmaps, after every
    /// `first_fit` the floor too. Asking twice with nothing taken in
    /// between changes nothing; no group at all leaves pixel 0 for ever.
    #[test]
    fn a_patched_fit_starts_equals_a_rebuilt_one() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x9A7C);
        let (mut kept, mut fresh) = (FitStarts::default(), FitStarts::default());
        for pixels in GRIDS {
            let grid = SpectrumGrid::new(pixels);
            for _case in 0..8 {
                let mut groups: Vec<Vec<SpectrumMask>> = (0..rng.gen_range(0usize..4))
                    .map(|_| {
                        let fibers = rng.gen_range(1usize..4);
                        (0..fibers).map(|_| random_mask(&mut rng, pixels)).collect()
                    })
                    .collect();
                let width = w([1u16, 2, 4, 9, 12, 63, 64, 65, 70][rng.gen_range(0usize..9)]);
                let align = [1u32, 4, 6][rng.gen_range(0usize..3)];
                kept.build(grid, &groups, width);
                loop {
                    let stateless =
                        SpectrumMask::first_fit_any_of_each(grid, &groups, width, align);
                    let range = kept.first_fit(align);
                    assert_eq!(range, stateless, "{pixels} px, {width}, align {align}");
                    let asked = kept_state(&kept);
                    assert_eq!(kept.first_fit(align), range, "asked again");
                    assert_eq!(kept_state(&kept), asked, "asked again");
                    fresh.build(grid, &groups, width);
                    assert_eq!(fresh.first_fit(align), range);
                    assert_eq!(
                        kept_state(&kept),
                        kept_state(&fresh),
                        "{pixels} px, {width}"
                    );
                    let Some(range) = range else { break };
                    if groups.is_empty() {
                        assert_eq!(range.start, 0);
                        break;
                    }
                    for g in 0..groups.len() {
                        let first_free = groups[g].iter().position(|m| m.is_free(&range));
                        let taken = kept.take(g, &range);
                        assert_eq!(taken, first_free);
                        groups[g][taken.unwrap()].occupy(&range).unwrap();
                        fresh.build(grid, &groups, width);
                        assert_eq!(kept.bits, fresh.bits, "after {range}, hop {g}");
                    }
                }
            }
        }
        // A channel across the word boundary at pixel 64 patches two
        // words of the accumulator, and the next one starts past it.
        let grid = SpectrumGrid::new(130);
        let mut low = SpectrumMask::new(grid);
        low.occupy(&PixelRange::new(0, w(60))).unwrap();
        let mut groups = vec![vec![low], vec![SpectrumMask::new(grid)]];
        kept.build(grid, &groups, w(8));
        for start in [60, 68] {
            let range = kept.first_fit(1).unwrap();
            assert_eq!(range, PixelRange::new(start, w(8)));
            for (g, group) in groups.iter_mut().enumerate() {
                assert_eq!(kept.take(g, &range), Some(0));
                group[0].occupy(&range).unwrap();
            }
        }
        assert_eq!(kept.first_fit(1), Some(PixelRange::new(76, w(8))));
        // No group: pixel 0 whenever the band holds the width.
        let none: [&[SpectrumMask]; 0] = [];
        kept.build(grid, none, w(130));
        assert_eq!(kept.first_fit(1), Some(PixelRange::new(0, w(130))));
        assert_eq!(kept.first_fit(6), Some(PixelRange::new(0, w(130))));
        kept.build(grid, none, w(131));
        assert_eq!(kept.first_fit(1), None);
    }

    #[test]
    fn any_of_each_takes_one_mask_per_group() {
        let grid = SpectrumGrid::new(130);
        let full = {
            let mut m = SpectrumMask::new(grid);
            m.occupy(&PixelRange::new(0, w(130))).unwrap();
            m
        };
        let mut low = SpectrumMask::new(grid);
        low.occupy(&PixelRange::new(0, w(60))).unwrap();
        let empty = SpectrumMask::new(grid);
        let fit = |groups: &[&[&SpectrumMask]], width, align| {
            let groups = groups.iter().map(|g| g.iter().copied());
            SpectrumMask::first_fit_any_of_each(grid, groups, w(width), align)
        };
        // One free parallel is enough; the full one never helps.
        assert_eq!(
            fit(&[&[&full, &low], &[&empty]], 8, 1),
            Some(PixelRange::new(60, w(8)))
        );
        assert_eq!(
            fit(&[&[&full, &low], &[&empty]], 8, 6),
            Some(PixelRange::new(60, w(8)))
        );
        assert_eq!(
            fit(&[&[&full, &low], &[&empty]], 8, 64),
            Some(PixelRange::new(64, w(8)))
        );
        // A group with no free mask, or with no mask, blocks the route.
        assert_eq!(fit(&[&[&low], &[&full]], 1, 1), None);
        assert_eq!(fit(&[&[&low], &[]], 1, 1), None);
        // No group at all constrains nothing; the band still does.
        assert_eq!(fit(&[], 130, 1), Some(PixelRange::new(0, w(130))));
        assert_eq!(fit(&[], 131, 1), None);
    }

    #[test]
    #[should_panic(expected = "masks must share a grid")]
    fn joint_first_fit_refuses_mixed_grids() {
        let a = SpectrumMask::new(SpectrumGrid::new(128));
        let b = SpectrumMask::new(SpectrumGrid::new(64));
        let _ = joint_fit(&[&a, &b], w(4), 1);
    }

    #[test]
    fn ranges_spanning_two_and_three_words() {
        let mut m = SpectrumMask::new(SpectrumGrid::new(400));
        // (start, width): inside one word, across one boundary, ending on
        // a boundary, covering a whole middle word, into the partial tail.
        for (start, width) in [
            (3u32, 7u16),
            (60, 8),
            (120, 8),
            (190, 70),
            (250, 140),
            (390, 10),
        ] {
            let r = PixelRange::new(start, w(width));
            assert!(m.is_free(&r));
            m.occupy(&r).unwrap();
            for p in 0..400 {
                assert_eq!(
                    m.is_occupied(p),
                    r.pixels().any(|q| q == p),
                    "pixel {p} after occupying {r}"
                );
            }
            assert_eq!(m.occupied_pixels(), u32::from(width));
            // A probe is free iff it misses the range — one pixel either
            // side included.
            for probe_start in start.saturating_sub(2)..=r.end().min(398) {
                let probe = PixelRange::new(probe_start, w(2));
                assert_eq!(m.is_free(&probe), !probe.overlaps(&r), "{probe} vs {r}");
            }
            assert!(matches!(
                m.occupy(&PixelRange::new(r.end() - 1, w(1))),
                Err(OpticalError::SpectrumConflict { .. })
            ));
            // Releasing a range only partly occupied is a double release
            // and changes nothing.
            if r.end() < 400 {
                let over = PixelRange::new(start, w(width + 1));
                assert!(matches!(
                    m.release(&over),
                    Err(OpticalError::DoubleRelease { .. })
                ));
                assert_eq!(m.occupied_pixels(), u32::from(width));
            }
            m.release(&r).unwrap();
            assert_eq!(m.occupied_pixels(), 0);
        }
        assert!(!m.is_free(&PixelRange::new(396, w(5))), "past the band");
    }

    #[test]
    fn free_runs_reports_maximal_runs() {
        let mut m = SpectrumMask::new(SpectrumGrid::new(16));
        m.occupy(&PixelRange::new(4, w(4))).unwrap();
        assert_eq!(m.free_runs(), vec![(0, 4), (8, 8)]);
    }
}
