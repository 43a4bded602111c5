//! The shared optimization-model layer: typed variable spaces over which
//! the exact planning MIP (Algorithm 1), the exact restoration MIP (§8)
//! and the TE LPs are all built.
//!
//! Before this module each formulation hand-rolled its own private
//! variable registry and built every constraint row by scanning the whole
//! registry (`gammas.iter().filter(...)` per row — O(vars × rows) model
//! construction). [`WavelengthVarSpace`] enumerates the γ variables
//! *once*, in the exact order the individual formulations used, and
//! prebuilds three index buckets:
//!
//! * per **slot** (IP link for planning, affected-link slot for
//!   restoration) — capacity / transponder-count rows;
//! * per **(fiber, pixel)** — spectrum-conflict rows;
//! * per **path** (via [`GammaVar::path_index`]) — extraction and
//!   path-level queries.
//!
//! Row construction becomes a bucket lookup, so building the model is
//! linear in its nonzero count. [`FlowVarSpace`] does the same for the
//! path-based multi-commodity-flow variables of `te`.
//!
//! The paths these spaces enumerate over come from one source,
//! `candidate_paths`: K shortest paths per endpoint pair under a ban
//! set, one search arena per call.
//!
//! The enumeration order (slot-major, then candidate path, then format,
//! then aligned start pixel) and the diagnostic variable names are part of
//! the contract: `tests/opt_roundtrip.rs` pins solver outputs against
//! goldens blessed on the pre-refactor formulations.

use std::collections::HashSet;

use flexwan_optical::format::TransponderFormat;
use flexwan_optical::spectrum::PixelRange;
use flexwan_solver::{LinExpr, Model, RowId, Solution, Var};
use flexwan_topo::graph::{EdgeId, Graph, NodeId};
use flexwan_topo::ip::IpLinkId;
use flexwan_topo::ksp::{k_shortest_paths_scratch, DijkstraScratch};
use flexwan_topo::path::Path;

use crate::planning::format_dp::reachable_formats;
use crate::scheme::Scheme;
use crate::wavelength::Wavelength;

/// The candidate paths of every exact formulation: for each
/// `(src, dst, banned)` query, in order, the `k` shortest paths of `g`
/// avoiding `banned` — Algorithm 1's `P_{e,k}` under no ban, §8's
/// `P'_{e,k}` under a cut set — all over one search arena. Lazy, so a
/// caller that folds many queries per slot never holds them all.
pub(crate) fn candidate_paths<'a>(
    g: &'a Graph,
    k: usize,
    queries: impl IntoIterator<Item = (NodeId, NodeId, &'a HashSet<EdgeId>)> + 'a,
) -> impl Iterator<Item = Vec<Path>> + 'a {
    let mut scratch = DijkstraScratch::new();
    (queries.into_iter()).map(move |(src, dst, banned)| {
        k_shortest_paths_scratch(g, src, dst, k, banned, &mut scratch)
    })
}

/// Typed handle to one γ variable inside a [`WavelengthVarSpace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GammaId(pub usize);

/// One γ variable: a candidate wavelength of `format` starting at pixel
/// `start` on candidate path `path_index` of slot `slot`.
#[derive(Debug, Clone)]
pub struct GammaVar {
    /// Caller-defined slot: the IP-link index for planning, the
    /// affected-link slot for restoration.
    pub slot: usize,
    /// Index into the slot's candidate-path list (the `k` of `P_{e,k}`).
    pub path_index: usize,
    /// The transponder operating point.
    pub format: TransponderFormat,
    /// First occupied pixel.
    pub start: u32,
    /// The solver variable (binary).
    pub var: Var,
}

impl GammaVar {
    /// The spectrum the candidate would occupy on every fiber of its path.
    pub fn channel(&self) -> PixelRange {
        PixelRange::new(self.start, self.format.spacing)
    }
}

/// One-pass enumeration of the γ variables of a wavelength-assignment
/// formulation, with prebuilt per-slot and per-(fiber, pixel) buckets.
#[derive(Debug)]
pub struct WavelengthVarSpace {
    gammas: Vec<GammaVar>,
    paths_per_slot: Vec<Vec<Path>>,
    pixels: u32,
    by_slot: Vec<Vec<GammaId>>,
    /// `fiber.0 * pixels + pixel` → every γ occupying that pixel on that
    /// fiber. Bucket order equals γ-id order (enumeration order), so rows
    /// built from buckets are term-for-term identical to the scan-built
    /// rows they replaced.
    by_fiber_pixel: Vec<Vec<GammaId>>,
}

impl WavelengthVarSpace {
    /// Enumerates every admissible γ for `paths_per_slot` into `m`, in
    /// slot-major order: an empty space, then one
    /// [`extend_slot`](Self::extend_slot) per slot. For each slot's path
    /// `ki` and each reachable format, aligned starts `q` walk the grid;
    /// `admit` filters starts (planning admits everything; restoration
    /// pre-filters against the residual spectrum — §8 constraint (9)).
    /// Variables are named
    /// `{prefix}{slot}_k{ki}_d{rate}_y{spacing_px}_q{q}`.
    pub fn enumerate(
        m: &mut Model,
        scheme: Scheme,
        pixels: u32,
        num_fibers: usize,
        prefix: &str,
        paths_per_slot: Vec<Vec<Path>>,
        mut admit: impl FnMut(&Path, &PixelRange) -> bool,
    ) -> WavelengthVarSpace {
        let mut space = WavelengthVarSpace {
            gammas: Vec::new(),
            by_slot: vec![Vec::new(); paths_per_slot.len()],
            by_fiber_pixel: vec![Vec::new(); num_fibers * pixels as usize],
            pixels,
            paths_per_slot: vec![Vec::new(); paths_per_slot.len()],
        };
        for (slot, paths) in paths_per_slot.into_iter().enumerate() {
            space.extend_slot(m, scheme, prefix, slot, paths, &mut admit);
        }
        space
    }

    /// Appends candidate paths to `slot`, enumerating their admissible γ
    /// columns into `m` (`ki` continuing the slot's candidate numbering)
    /// — the one path × format × aligned-start walk of the space.
    /// Existing γ ids keep their positions and every bucket grows
    /// strictly at its tail, so the pinned enumeration-order contract
    /// over the space so far is untouched. Returns the new γ handles.
    ///
    /// Beyond building the space, this is the column-generation hook
    /// behind on-demand restoration candidates: a simultaneous-cut
    /// scenario whose detours were not pre-enumerated extends the
    /// standing space instead of rebuilding it.
    pub fn extend_slot(
        &mut self,
        m: &mut Model,
        scheme: Scheme,
        prefix: &str,
        slot: usize,
        new_paths: Vec<Path>,
        mut admit: impl FnMut(&Path, &PixelRange) -> bool,
    ) -> Vec<GammaId> {
        let align = scheme.alignment_pixels();
        let model_t = scheme.transponder();
        let mut added = Vec::new();
        for path in new_paths {
            let ki = self.paths_per_slot[slot].len();
            let length_km = path.length_km;
            self.paths_per_slot[slot].push(path);
            for format in reachable_formats(model_t, length_km) {
                let w = u32::from(format.spacing.pixels());
                let mut q = 0u32;
                while q + w <= self.pixels {
                    let range = PixelRange::new(q, format.spacing);
                    if admit(&self.paths_per_slot[slot][ki], &range) {
                        let var = m.binary(format!(
                            "{prefix}{slot}_k{ki}_d{}_y{}_q{q}",
                            format.data_rate_gbps,
                            format.spacing.pixels()
                        ));
                        added.push(self.push_gamma_var(slot, ki, format, q, var));
                    }
                    q += align;
                }
            }
        }
        added
    }

    /// All γ variables, in enumeration order (`GammaId` order).
    pub fn gammas(&self) -> &[GammaVar] {
        &self.gammas
    }

    /// The γ behind a handle.
    pub fn get(&self, id: GammaId) -> &GammaVar {
        &self.gammas[id.0]
    }

    /// Number of slots (IP links / affected links).
    pub fn num_slots(&self) -> usize {
        self.paths_per_slot.len()
    }

    /// The candidate paths of a slot.
    pub fn paths(&self, slot: usize) -> &[Path] {
        &self.paths_per_slot[slot]
    }

    /// The path a γ rides.
    pub fn path_of(&self, g: &GammaVar) -> &Path {
        &self.paths_per_slot[g.slot][g.path_index]
    }

    /// γ handles occupying `pixel` on `fiber`, in enumeration order.
    pub fn fiber_pixel_gammas(&self, fiber: EdgeId, pixel: u32) -> &[GammaId] {
        &self.by_fiber_pixel[fiber.0 as usize * self.pixels as usize + pixel as usize]
    }

    /// `Σ_slot rate·γ` — the capacity carried on a slot.
    pub fn rate_expr(&self, slot: usize) -> LinExpr {
        LinExpr::sum(
            self.by_slot[slot].iter().map(|&id| {
                f64::from(self.gammas[id.0].format.data_rate_gbps) * self.gammas[id.0].var
            }),
        )
    }

    /// `Σ_slot γ` — the transponder count on a slot.
    pub fn count_expr(&self, slot: usize) -> LinExpr {
        LinExpr::sum(
            self.by_slot[slot]
                .iter()
                .map(|&id| 1.0 * self.gammas[id.0].var),
        )
    }

    /// An objective (or any) expression with per-γ coefficients.
    pub fn weighted_expr(&self, mut coeff: impl FnMut(&GammaVar) -> f64) -> LinExpr {
        LinExpr::sum(self.gammas.iter().map(|g| coeff(g) * g.var))
    }

    /// Emits the per-(fiber, pixel) spectrum-conflict rows `Σ γ ≤ 1` for
    /// the given fibers, returning the rows grouped per fiber (aligned
    /// with the input order). Rows with fewer than `min_terms` occupying
    /// candidates are skipped — the planning formulation emits every
    /// non-empty row, restoration only genuinely conflicting ones.
    pub fn conflict_rows(
        &self,
        m: &mut Model,
        fibers: impl IntoIterator<Item = EdgeId>,
        min_terms: usize,
    ) -> Vec<(EdgeId, Vec<RowId>)> {
        let mut out = Vec::new();
        for fiber in fibers {
            let mut rows = Vec::new();
            for w in 0..self.pixels {
                let bucket = self.fiber_pixel_gammas(fiber, w);
                if bucket.len() >= min_terms {
                    let expr = LinExpr::sum(bucket.iter().map(|&id| 1.0 * self.gammas[id.0].var));
                    rows.push(m.le(expr, 1.0));
                }
            }
            out.push((fiber, rows));
        }
        out
    }

    /// Appends one γ with an explicit `(slot, ki, format, start)` tuple
    /// for a variable the caller already created — the admission
    /// primitive of the column-generation masters, where the variable
    /// must be born with its row entries in one [`IncrementalSolver`]
    /// mutation. `ki` must reference an existing candidate path of the
    /// slot, and every bucket grows at its tail (id order = admission
    /// order, the lazy space's enumeration-order contract).
    ///
    /// [`IncrementalSolver`]: flexwan_solver::IncrementalSolver
    pub fn push_gamma_var(
        &mut self,
        slot: usize,
        ki: usize,
        format: TransponderFormat,
        start: u32,
        var: Var,
    ) -> GammaId {
        let w = u32::from(format.spacing.pixels());
        let id = GammaId(self.gammas.len());
        self.by_slot[slot].push(id);
        for e in &self.paths_per_slot[slot][ki].edges {
            for px in start..start + w {
                self.by_fiber_pixel[e.0 as usize * self.pixels as usize + px as usize].push(id);
            }
        }
        self.gammas.push(GammaVar {
            slot,
            path_index: ki,
            format,
            start,
            var,
        });
        id
    }

    /// Extracts the selected wavelengths (`γ > 0.5`) of a solution, in
    /// enumeration order; `link_of_slot` maps slots back to IP links.
    pub fn extract(
        &self,
        sol: &Solution,
        mut link_of_slot: impl FnMut(usize) -> IpLinkId,
    ) -> Vec<Wavelength> {
        self.gammas
            .iter()
            .filter(|g| sol.value(g.var) > 0.5)
            .map(|g| Wavelength {
                link: link_of_slot(g.slot),
                path_index: g.path_index,
                path: self.path_of(g).clone(),
                format: g.format,
                channel: g.channel(),
            })
            .collect()
    }
}

/// One candidate column surfaced by a pricing scan: the γ it would
/// become, plus its reduced cost under the duals the scan was run with.
#[derive(Debug, Clone)]
pub struct PricedColumn {
    /// Slot (IP link / affected link) the column serves.
    pub slot: usize,
    /// Candidate-path index within the slot.
    pub path_index: usize,
    /// Transponder operating point.
    pub format: TransponderFormat,
    /// First occupied pixel.
    pub start: u32,
    /// Reduced cost in *minimization* orientation (negative ⇒ improving).
    pub reduced: f64,
}

impl PricedColumn {
    /// The spectrum the column would occupy on every fiber of its path.
    pub fn channel(&self) -> PixelRange {
        PixelRange::new(self.start, self.format.spacing)
    }
}

/// One pricing scan's result: the admissible candidates (capped per
/// slot), plus the scan-wide minimum reduced cost *before* capping — the
/// convergence gauge a pricing loop watches go to zero.
#[derive(Debug, Clone)]
pub struct PricingScan {
    /// Candidates with `reduced < threshold`, at most `per_slot_cap` per
    /// slot (most negative first, ties in universe order), concatenated
    /// in slot order.
    pub candidates: Vec<PricedColumn>,
    /// Minimum reduced cost over the whole un-capped universe scan
    /// (`+∞` when no column beat the threshold).
    pub reduced_min: f64,
    /// Columns examined (admissible, not yet admitted).
    pub scanned: usize,
}

/// The lazy variant of [`WavelengthVarSpace`]: the full γ universe stays
/// implicit (per-slot candidate paths × reachable formats × aligned
/// starts — millions of columns on the full T-backbone) and columns are
/// admitted one by one as a pricing oracle proves them useful.
///
/// The struct owns
///
/// * an inner [`WavelengthVarSpace`] holding only the *admitted* columns
///   (id order = admission order), so every bucket accessor, expression
///   builder and [`WavelengthVarSpace::extract`] works unchanged on the
///   restricted master;
/// * the per-`(slot, path)` format menus, precomputed once with
///   [`reachable_formats`] in enumeration order;
/// * per-`(slot, path, format)` admitted-start bitsets, so a scan skips
///   already-admitted columns in O(1) and never admits a duplicate.
///
/// **Determinism.** [`price`](Self::price) walks the universe in the
/// exact order [`WavelengthVarSpace::enumerate`] would have created the
/// columns (slot-major, then path, then format, then aligned start) and
/// breaks reduced-cost ties by that universe order, so a pricing loop
/// admits an identical column sequence on every run — the worker-thread
/// count never enters the scan.
#[derive(Debug)]
pub struct LazyWavelengthVarSpace {
    space: WavelengthVarSpace,
    scheme: Scheme,
    /// `menus[slot][ki]` — reachable formats of the slot's `ki`-th path.
    menus: Vec<Vec<Vec<TransponderFormat>>>,
    /// Bitset of admitted starts per flattened `(slot, ki, format)`.
    admitted: Vec<Vec<u64>>,
    /// `flat[slot][ki]` — base index of the `(slot, ki)` menu's bitsets.
    flat: Vec<Vec<usize>>,
}

/// Bit `i` of a start bitset.
fn bit(bits: &[u64], i: u32) -> bool {
    bits[i as usize / 64] >> (i % 64) & 1 == 1
}

impl LazyWavelengthVarSpace {
    /// Builds the lazy space over `paths_per_slot` with an empty admitted
    /// set. No solver variables are created; `num_fibers`/`pixels` size
    /// the conflict buckets exactly as in
    /// [`WavelengthVarSpace::enumerate`].
    pub fn new(
        scheme: Scheme,
        pixels: u32,
        num_fibers: usize,
        paths_per_slot: Vec<Vec<Path>>,
    ) -> LazyWavelengthVarSpace {
        let model_t = scheme.transponder();
        let menus: Vec<Vec<Vec<TransponderFormat>>> = paths_per_slot
            .iter()
            .map(|paths| {
                paths
                    .iter()
                    .map(|p| reachable_formats(model_t, p.length_km))
                    .collect()
            })
            .collect();
        let words = (pixels as usize).div_ceil(64);
        let mut flat = Vec::with_capacity(menus.len());
        let mut total = 0usize;
        for slot_menu in &menus {
            let mut bases = Vec::with_capacity(slot_menu.len());
            for path_menu in slot_menu {
                bases.push(total);
                total += path_menu.len();
            }
            flat.push(bases);
        }
        LazyWavelengthVarSpace {
            space: WavelengthVarSpace {
                gammas: Vec::new(),
                by_slot: vec![Vec::new(); paths_per_slot.len()],
                by_fiber_pixel: vec![Vec::new(); num_fibers * pixels as usize],
                pixels,
                paths_per_slot,
            },
            scheme,
            menus,
            admitted: vec![vec![0u64; words]; total],
            flat,
        }
    }

    /// The admitted-column space (all [`WavelengthVarSpace`] accessors).
    pub fn space(&self) -> &WavelengthVarSpace {
        &self.space
    }

    /// Columns admitted so far.
    pub fn num_admitted(&self) -> usize {
        self.space.gammas().len()
    }

    /// Size of the implicit column universe (before any admission
    /// filter) — what [`WavelengthVarSpace::enumerate`] would create.
    pub fn universe_size(&self) -> usize {
        let align = self.scheme.alignment_pixels() as usize;
        let pixels = self.space.pixels as usize;
        let mut total = 0usize;
        for slot_menu in &self.menus {
            for path_menu in slot_menu {
                for f in path_menu {
                    let w = usize::from(f.spacing.pixels());
                    if w <= pixels {
                        total += (pixels - w) / align + 1;
                    }
                }
            }
        }
        total
    }

    /// The reachable formats of the slot's `ki`-th path, in enumeration
    /// order.
    pub(crate) fn menu(&self, slot: usize, ki: usize) -> &[TransponderFormat] {
        &self.menus[slot][ki]
    }

    /// Index of the `(slot, ki, format)` admitted-start bitset; `None`
    /// for a format off the `(slot, ki)` menu.
    fn start_bits(&self, slot: usize, ki: usize, format: TransponderFormat) -> Option<usize> {
        let fi = self.menus[slot][ki].iter().position(|f| *f == format)?;
        Some(self.flat[slot][ki] + fi)
    }

    /// The candidate-path index under which wavelength `w` is a
    /// not-yet-admitted column of `slot`'s universe — same path by edge
    /// identity, aligned in-grid start, on-menu format — the test a
    /// seeder applies before admitting another planner's wavelength.
    pub(crate) fn unadmitted_column(&self, slot: usize, w: &Wavelength) -> Option<usize> {
        let paths = &self.space.paths_per_slot[slot];
        let ki = paths.iter().position(|p| p.edges == w.path.edges)?;
        let bits = self.start_bits(slot, ki, w.format)?;
        let start = w.channel.start;
        (start.is_multiple_of(self.scheme.alignment_pixels())
            && start + u32::from(w.format.spacing.pixels()) <= self.space.pixels
            && !bit(&self.admitted[bits], start))
        .then_some(ki)
    }

    /// The dense `cell_duals` buffer [`price`](Self::price) reads, zero
    /// except for the given `((fiber, pixel), contribution)` cells.
    pub(crate) fn dense_cell_duals(
        &self,
        cells: impl IntoIterator<Item = ((EdgeId, u32), f64)>,
    ) -> Vec<f64> {
        let pixels = self.space.pixels as usize;
        let mut dense = vec![0.0f64; self.space.by_fiber_pixel.len()];
        for ((e, px), dual) in cells {
            dense[e.0 as usize * pixels + px as usize] = dual;
        }
        dense
    }

    /// Marks the column admitted and registers its γ (whose solver
    /// variable the caller created, together with its row entries) in the
    /// inner space. The format is located in the `(slot, ki)` menu by
    /// value; panics if it is not on the menu or was already admitted —
    /// both are driver bugs.
    pub fn admit(
        &mut self,
        slot: usize,
        ki: usize,
        format: TransponderFormat,
        start: u32,
        var: Var,
    ) -> GammaId {
        let bits = self
            .start_bits(slot, ki, format)
            .expect("admitted format must be on the (slot, path) menu");
        let bits = &mut self.admitted[bits];
        assert!(!bit(bits, start), "column admitted twice");
        bits[start as usize / 64] |= 1 << (start % 64);
        self.space.push_gamma_var(slot, ki, format, start, var)
    }

    /// Prices the not-yet-admitted universe under the given duals and
    /// returns the improving candidates.
    ///
    /// `base(slot, ki, format)` is the start-independent part of the
    /// column's reduced cost — objective coefficient minus every
    /// slot-level row credit — in *minimization* orientation (a
    /// maximization master negates). `cell_duals` is the dense
    /// per-`fiber.0 × pixels + pixel` conflict-row contribution, already
    /// oriented so the oracle can *add* the covered window: a
    /// minimization master passes `−ν` (its conflict duals `ν ≤ 0`), a
    /// maximization master passes `+ν` (`ν ≥ 0`). `admit_start` is the
    /// per-start admissibility filter (planning admits everything;
    /// restoration pre-filters against the residual spectrum, exactly as
    /// the admission filter of the enumerated reference model).
    ///
    /// A column with `reduced < threshold` becomes a candidate; each
    /// slot keeps its `per_slot_cap` best (most negative reduced cost,
    /// ties in universe order). Per `(slot, path)` the scan precomputes
    /// the pixel-wise dual load of the path once and walks each format's
    /// aligned starts with a prefix-sum window — O(pixels) per format
    /// after an O(path-edges × pixels) setup, independent of how many
    /// columns the universe holds.
    pub fn price(
        &self,
        mut base: impl FnMut(usize, usize, &TransponderFormat) -> f64,
        cell_duals: &[f64],
        mut admit_start: impl FnMut(&Path, &PixelRange) -> bool,
        threshold: f64,
        per_slot_cap: usize,
    ) -> PricingScan {
        let pixels = self.space.pixels;
        let align = self.scheme.alignment_pixels();
        let mut candidates = Vec::new();
        let mut reduced_min = f64::INFINITY;
        let mut scanned = 0usize;
        // Prefix sums of the path's pixel-wise dual load: prefix[q] =
        // Σ_{px<q} Σ_{e∈path} cell_duals[e, px].
        let mut prefix = vec![0.0f64; pixels as usize + 1];
        let mut slot_best: Vec<PricedColumn> = Vec::new();
        for slot in 0..self.menus.len() {
            slot_best.clear();
            for ki in 0..self.menus[slot].len() {
                let path = &self.space.paths_per_slot[slot][ki];
                let mut acc = 0.0f64;
                for px in 0..pixels as usize {
                    let mut load = 0.0f64;
                    for e in &path.edges {
                        load += cell_duals[e.0 as usize * pixels as usize + px];
                    }
                    acc += load;
                    prefix[px + 1] = acc;
                }
                for (fi, format) in self.menus[slot][ki].iter().enumerate() {
                    let w = u32::from(format.spacing.pixels());
                    if w > pixels {
                        continue;
                    }
                    let b = base(slot, ki, format);
                    let admitted = &self.admitted[self.flat[slot][ki] + fi];
                    let mut q = 0u32;
                    while q + w <= pixels {
                        if !bit(admitted, q) {
                            let range = PixelRange::new(q, format.spacing);
                            if admit_start(path, &range) {
                                scanned += 1;
                                let reduced = b + prefix[(q + w) as usize] - prefix[q as usize];
                                // Non-finite reduced costs (poisoned duals)
                                // are dropped here, so the sorts downstream
                                // only ever order finite values.
                                if reduced < threshold && reduced.is_finite() {
                                    reduced_min = reduced_min.min(reduced);
                                    slot_best.push(PricedColumn {
                                        slot,
                                        path_index: ki,
                                        format: *format,
                                        start: q,
                                        reduced,
                                    });
                                }
                            }
                        }
                        q += align;
                    }
                }
            }
            if slot_best.len() > per_slot_cap {
                // Keep the cap's most negative candidates. The push order
                // is the universe order, so a stable sort on reduced cost
                // alone leaves ties universe-ordered.
                slot_best.sort_by(|a, b| a.reduced.total_cmp(&b.reduced));
                slot_best.truncate(per_slot_cap);
            }
            candidates.append(&mut slot_best);
        }
        PricingScan {
            candidates,
            reduced_min,
            scanned,
        }
    }
}

/// Typed handle to one flow variable inside a [`FlowVarSpace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub usize);

/// One path-flow variable of the TE LPs: traffic of demand `demand`
/// carried on its candidate path `path_index`.
#[derive(Debug, Clone, Copy)]
pub struct FlowVar {
    /// Index into the traffic-demand list.
    pub demand: usize,
    /// Index into the demand's candidate-path list.
    pub path_index: usize,
    /// The solver variable (nonnegative continuous).
    pub var: Var,
}

/// One-pass enumeration of path-flow variables with per-demand and
/// per-edge buckets (the TE analogue of [`WavelengthVarSpace`]).
#[derive(Debug)]
pub struct FlowVarSpace {
    flows: Vec<FlowVar>,
    by_demand: Vec<Vec<FlowId>>,
    by_edge: Vec<Vec<FlowId>>,
}

impl FlowVarSpace {
    /// Enumerates `f_{i}_{j}` variables in demand-major order and buckets
    /// them by demand and by traversed IP-link edge.
    pub fn enumerate(
        m: &mut Model,
        paths_per_demand: &[Vec<Path>],
        num_edges: usize,
    ) -> FlowVarSpace {
        let mut space = FlowVarSpace {
            flows: Vec::new(),
            by_demand: vec![Vec::new(); paths_per_demand.len()],
            by_edge: vec![Vec::new(); num_edges],
        };
        for (i, paths) in paths_per_demand.iter().enumerate() {
            for (j, path) in paths.iter().enumerate() {
                let var = m.nonneg(format!("f_{i}_{j}"));
                let id = FlowId(space.flows.len());
                space.by_demand[i].push(id);
                for e in &path.edges {
                    space.by_edge[e.0 as usize].push(id);
                }
                space.flows.push(FlowVar {
                    demand: i,
                    path_index: j,
                    var,
                });
            }
        }
        space
    }

    /// All flow variables, in enumeration order.
    pub fn flows(&self) -> &[FlowVar] {
        &self.flows
    }

    /// `Σ_j f_ij` — total flow of one demand.
    pub fn demand_expr(&self, demand: usize) -> LinExpr {
        LinExpr::sum(
            self.by_demand[demand]
                .iter()
                .map(|&id| 1.0 * self.flows[id.0].var),
        )
    }

    /// `Σ f` over every flow whose path crosses `edge`.
    pub fn edge_expr(&self, edge: EdgeId) -> LinExpr {
        LinExpr::sum(
            self.by_edge[edge.0 as usize]
                .iter()
                .map(|&id| 1.0 * self.flows[id.0].var),
        )
    }

    /// `Σ f` over all flows — the total-throughput objective.
    pub fn total_expr(&self) -> LinExpr {
        LinExpr::sum(self.flows.iter().map(|f| 1.0 * f.var))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexwan_topo::graph::Graph;
    use flexwan_topo::ksp::k_shortest_paths;

    fn two_hop() -> (Graph, Vec<Vec<Path>>) {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge(a, b, 100);
        g.add_edge(b, c, 100);
        let none = std::collections::HashSet::new();
        let paths = vec![k_shortest_paths(&g, a, c, 2, &none)];
        (g, paths)
    }

    #[test]
    fn buckets_agree_with_full_scans() {
        let (g, paths) = two_hop();
        let mut m = Model::new();
        let space = WavelengthVarSpace::enumerate(
            &mut m,
            Scheme::FlexWan,
            12,
            g.num_edges(),
            "g_e",
            paths,
            |_, _| true,
        );
        assert!(!space.gammas().is_empty());
        // Slot bucket == scan by slot, read through the rows it builds.
        for slot in 0..space.num_slots() {
            let scan: Vec<_> = space
                .gammas()
                .iter()
                .filter(|g| g.slot == slot)
                .map(|g| g.var)
                .collect();
            let vars = |e: LinExpr| e.terms.iter().map(|&(v, _)| v).collect::<Vec<_>>();
            assert_eq!(scan, vars(space.count_expr(slot)), "count slot {slot}");
            assert_eq!(scan, vars(space.rate_expr(slot)), "rate slot {slot}");
        }
        // Fiber-pixel bucket == scan by coverage, for every (fiber, pixel).
        for fiber in g.edges() {
            for px in 0..12u32 {
                let scan: Vec<usize> = space
                    .gammas()
                    .iter()
                    .enumerate()
                    .filter(|(_, gm)| {
                        space.path_of(gm).uses_edge(fiber.id)
                            && gm.start <= px
                            && px < gm.start + u32::from(gm.format.spacing.pixels())
                    })
                    .map(|(i, _)| i)
                    .collect();
                let bucket: Vec<usize> = space
                    .fiber_pixel_gammas(fiber.id, px)
                    .iter()
                    .map(|id| id.0)
                    .collect();
                assert_eq!(scan, bucket, "fiber {:?} pixel {px}", fiber.id);
            }
        }
    }

    #[test]
    fn admit_filter_prunes_starts() {
        let (g, paths) = two_hop();
        let mut m = Model::new();
        let all = WavelengthVarSpace::enumerate(
            &mut m,
            Scheme::FlexWan,
            12,
            g.num_edges(),
            "g_e",
            paths.clone(),
            |_, _| true,
        );
        let mut m2 = Model::new();
        let pruned = WavelengthVarSpace::enumerate(
            &mut m2,
            Scheme::FlexWan,
            12,
            g.num_edges(),
            "h_e",
            paths,
            |_, range| range.start >= 4,
        );
        assert!(pruned.gammas().len() < all.gammas().len());
        assert!(pruned.gammas().iter().all(|g| g.start >= 4));
    }

    #[test]
    fn conflict_rows_respect_min_terms() {
        let (g, paths) = two_hop();
        let mut m1 = Model::new();
        let s1 = WavelengthVarSpace::enumerate(
            &mut m1,
            Scheme::FlexWan,
            12,
            g.num_edges(),
            "g_e",
            paths.clone(),
            |_, _| true,
        );
        let fibers: Vec<EdgeId> = g.edges().iter().map(|e| e.id).collect();
        let any = s1.conflict_rows(&mut m1, fibers.iter().copied(), 1);
        let mut m2 = Model::new();
        let s2 = WavelengthVarSpace::enumerate(
            &mut m2,
            Scheme::FlexWan,
            12,
            g.num_edges(),
            "g_e",
            paths,
            |_, _| true,
        );
        let pairs = s2.conflict_rows(&mut m2, fibers.iter().copied(), 2);
        let n_any: usize = any.iter().map(|(_, r)| r.len()).sum();
        let n_pairs: usize = pairs.iter().map(|(_, r)| r.len()).sum();
        assert!(n_pairs <= n_any);
        for (_, rows) in &pairs {
            for &r in rows {
                assert!(m2.row(r).expr.terms.len() >= 2);
            }
        }
    }

    #[test]
    fn lazy_universe_matches_enumeration_order() {
        let (g, paths) = two_hop();
        let mut m = Model::new();
        let dense = WavelengthVarSpace::enumerate(
            &mut m,
            Scheme::FlexWan,
            12,
            g.num_edges(),
            "g_e",
            paths.clone(),
            |_, _| true,
        );
        let lazy = LazyWavelengthVarSpace::new(Scheme::FlexWan, 12, g.num_edges(), paths);
        assert_eq!(lazy.universe_size(), dense.gammas().len());
        // With zero duals and a uniformly negative base, every column
        // prices in, in exactly the dense enumeration order.
        let duals = vec![0.0; g.num_edges() * 12];
        let scan = lazy.price(|_, _, _| -1.0, &duals, |_, _| true, 0.0, usize::MAX);
        assert_eq!(scan.scanned, dense.gammas().len());
        assert_eq!(scan.candidates.len(), dense.gammas().len());
        assert_eq!(scan.reduced_min, -1.0);
        for (c, d) in scan.candidates.iter().zip(dense.gammas()) {
            assert_eq!(
                (c.slot, c.path_index, c.format, c.start),
                (d.slot, d.path_index, d.format, d.start)
            );
        }
    }

    #[test]
    fn lazy_admission_skips_and_caps() {
        let (g, paths) = two_hop();
        let mut lazy = LazyWavelengthVarSpace::new(Scheme::FlexWan, 12, g.num_edges(), paths);
        let duals = vec![0.0; g.num_edges() * 12];
        let scan = lazy.price(|_, _, _| -1.0, &duals, |_, _| true, 0.0, usize::MAX);
        let universe = scan.candidates.len();
        // Admit the first candidate; it must vanish from the next scan.
        let mut m = Model::new();
        let first = scan.candidates[0].clone();
        let v = m.binary("probe");
        lazy.admit(first.slot, first.path_index, first.format, first.start, v);
        assert_eq!(lazy.num_admitted(), 1);
        let rescan = lazy.price(|_, _, _| -1.0, &duals, |_, _| true, 0.0, usize::MAX);
        assert_eq!(rescan.candidates.len(), universe - 1);
        assert!(!rescan.candidates.iter().any(|c| c.slot == first.slot
            && c.path_index == first.path_index
            && c.format == first.format
            && c.start == first.start));
        // Per-slot cap keeps the most negative candidates: make start 0
        // cheaper than everything else via the cell duals.
        let mut favored = vec![0.0; g.num_edges() * 12];
        for e in 0..g.num_edges() {
            for px in 1..12 {
                favored[e * 12 + px] = 1.0; // penalize any window off pixel 0
            }
        }
        let capped = lazy.price(|_, _, _| -0.5, &favored, |_, _| true, 0.0, 1);
        for c in &capped.candidates {
            assert_eq!(c.start, 0, "cap must keep the cheapest start: {c:?}");
        }
    }

    #[test]
    fn flow_space_edge_buckets_match_uses_edge() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge(a, b, 1);
        g.add_edge(b, c, 1);
        g.add_edge(a, c, 1);
        let none = std::collections::HashSet::new();
        let paths = vec![k_shortest_paths(&g, a, c, 3, &none)];
        let mut m = Model::new();
        let space = FlowVarSpace::enumerate(&mut m, &paths, g.num_edges());
        assert_eq!(space.flows().len(), paths[0].len());
        for e in g.edges() {
            let scan: Vec<usize> = space
                .flows()
                .iter()
                .enumerate()
                .filter(|(_, f)| paths[f.demand][f.path_index].uses_edge(e.id))
                .map(|(i, _)| i)
                .collect();
            let bucket: Vec<usize> = space.by_edge[e.id.0 as usize]
                .iter()
                .map(|id| id.0)
                .collect();
            assert_eq!(scan, bucket);
        }
    }
}
