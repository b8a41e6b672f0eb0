//! The SIMD kernels of the suite: the register-tiled stage-1 diagonal
//! walk (a width-generic, FMA-based rewrite of VALMOD's hottest loop)
//! plus the shared dot-product *advance* lanes — [`advance_entry_dots`]
//! for the pipelined stage-2 length steps, and [`advance_dots_extend`] /
//! [`advance_dots_append`], the same recurrence machinery reused by the
//! streaming engine's per-append shifts. Every kernel body is written
//! **once** against [`valmod_fft::simd::F64Lanes`] and instantiated at
//! the lane width the dispatch picks:
//!
//! | [`SimdLevel`] | stage-1 walk | entry-dot advance | streaming shifts |
//! |---|---|---|---|
//! | `Avx512` (8 lanes) | tiled walk, `zmm` | 8-entry masked gather | 8-wide blocks |
//! | `Avx2` (4 lanes) | tiled walk, `ymm` | 4-entry masked gather | 4-wide blocks |
//! | `Portable8` | tiled walk, scalar lanes | scalar loop | scalar reverse loop |
//! | `Portable4` | tiled walk, scalar lanes | scalar loop | scalar reverse loop |
//! | (ragged remainders) | scalar cells | scalar loop | scalar reverse loop |
//!
//! The level is resolved **once** per stage ([`valmod_fft::simd::simd_level`]:
//! `VALMOD_FORCE_PORTABLE` / `VALMOD_FORCE_WIDTH`, then the in-process
//! test override, then CPU capability) and passed down explicitly, so a
//! mid-run override flip can never tear a multi-worker partitioning.
//!
//! # The register tiling
//!
//! Stage 1 walks every diagonal of the QT matrix at `ℓmin`, and per cell
//! does one fused multiply-add (the dot-product recurrence), one
//! correlation conversion, two best-so-far tests and two top-`p`
//! selector offers. On the paper's workloads this is ~90% of end-to-end
//! time. The walk processes `2W` **adjacent** diagonals per block
//! (`j = i + k0 + c`, a pair of lane vectors — two vectors per row halve
//! the fixed per-row costs per cell), and the block's column-side offer
//! state lives in *registers* that slide along with the rows instead of
//! round-tripping through memory each iteration:
//!
//! * `col_thresh` — each live column's [`TopRhoSelector`] rejection
//!   threshold, reloaded only on the rare offer that changes it;
//! * `col_rej` — each live column's prefiltered-offer count (exact
//!   integers in f64 lanes), credited in bulk at retirement.
//!
//! Advancing from row `i` to `i+1` slides the column window by one: lane
//! 0 of the low vector (column `j0`) is *retired* — its threshold stored
//! back, its rejected count credited to a deferred per-row array — the
//! register pairs shift down one lane ([`F64Lanes::shift_concat`] across
//! the pair, [`F64Lanes::shift_in_high`] at the top), and the entering
//! column `j0+2W` is initialized from memory. Rejected-count credits are
//! deferred into a flat per-row array and flushed through
//! [`TopRhoSelector::count_rejected`] once per walk — exact, because the
//! count only feeds the final truncation flag, never the threshold.
//!
//! # Bests in y-space
//!
//! A cell's distance is `d = sqrt(y)` with `y = max(2ℓ·(1−ρ), 0)`, and
//! `d` only matters when it beats (or ties) a row's or column's best —
//! which it almost never does. So the walk stops at `y` and compares it
//! against a per-row mirror `ybound[i] = sq_ceiling(best_d[i])`, the
//! largest double whose square root is `≤ best_d[i]` ([`sq_ceiling`]).
//! IEEE `sqrt` is correctly rounded, hence monotone, so
//! `y ≤ ybound[i] ⇔ sqrt(y) ≤ best_d[i]` holds exactly, ties included.
//! Only a hit takes the square root and folds `(d, offset)` into the
//! structure-of-arrays best under "(d asc, offset asc)"; every best
//! update goes through one helper that refreshes the mirror. The row
//! side tests one splat of `ybound[i]` against both vectors (the slow
//! path is the horizontal min of the distances); the column side loads
//! `ybound[j0 .. j0+2W]` straight from the mirror. Per row that leaves:
//! two fused multiply-add vectors, two ρ/y conversions with one divide
//! each and no square root, a handful of compare/select folds, and a
//! couple of scalar stores — no per-lane selector or SoA
//! read-modify-writes on the fast path.
//!
//! # Bit-identity
//!
//! The kernel produces **byte-identical** merged results to the scalar
//! cell-at-a-time walk (and hence to the engine as it existed before
//! this module), for every lane width, thread count, and batch width,
//! because
//!
//! 1. every cell's arithmetic is the *same expression tree* as the
//!    scalar path (the per-row hoists `ℓμᵢ`, `ℓσᵢ`, `2ℓ` keep the
//!    original association order), evaluated in IEEE-754 double
//!    precision either way — vector lanes round exactly like scalars,
//!    `sqrt` is correctly rounded in a lane and in a scalar alike, and
//!    `mul_add` is a fused multiply-add on every path. In particular,
//!    the recurrence's `qt − t_drop·t_drop_j` stays a **mul-then-sub**
//!    (two roundings) everywhere: fusing it into an `fnmadd` (one
//!    rounding) would be faster but would diverge from the scalar tail
//!    cells, so it is deliberately split on all paths;
//! 2. grouping cells into `W`-lane rows only changes the *order* in
//!    which candidates reach the per-row reductions, and both reductions
//!    are order-independent: the per-row best uses the total order
//!    "(distance asc, neighbor offset asc)" — a lexicographic min,
//!    whichever cell reaches it first — and the selector's kept set is a
//!    pure function of the offered set under "(ρ desc, offset asc)" (see
//!    [`crate::partial`]);
//! 3. the y-space test `y ≤ ybound` admits exactly the cells with
//!    `d ≤ best_d` (the lemma above), so the fold sees every cell that
//!    could change a best, ties included;
//! 4. the prefilter only skips offers the selector is guaranteed to
//!    reject, while keeping the offered count exact
//!    ([`TopRhoSelector::count_rejected`]); a register-cached threshold
//!    — and a column's `ybound` entry, which the column side reads and
//!    writes in place — is never stale because, while a column is live
//!    in the window, nothing else can touch its row's state (live
//!    columns satisfy `j ≥ i + first_diag > i`, and blocks run
//!    sequentially per worker);
//! 5. the runtime-dispatched packed instantiations compile the *same
//!    lane-generic Rust code* as the portable fallback — dispatch
//!    selects an instruction encoding and a width, never an algorithm.
//!
//! The anytime tier's warm start ([`stage1_walk_listed`]) only seeds the
//! thresholds and `ybound` from an already-merged state; why that leaves
//! the merged state unchanged is argued there.
//!
//! The `kernel_differential` harness (`tests/kernel_differential.rs`)
//! pins exactly this: every variant × thread count over adversarial
//! proptest series, byte-equal merged selector state, bests, and
//! end-to-end checksums; the in-module tests pin the kernel against the
//! pre-kernel closure-based scalar walk.
//!
//! # Vectorization notes
//!
//! The pure-math steps go through [`F64Lanes`]' `#[inline(always)]`
//! intrinsic wrappers inside a `#[target_feature]` outer instantiation
//! per backend, so they compile to bare `vfmadd132pd` / `vdivpd` /
//! `vsqrtpd` / `vmaxpd` / `vminpd` on ymm/zmm registers (verified with
//! `objdump -d`; LLVM does not SLP-pack the divide chain on its own
//! under generic tuning, which is why the lanes are explicit). The
//! branchy steps (row-side offers, best hits, retirement, tails) stay
//! shared scalar code. Scalar `mul_add` on non-FMA hardware lowers to a libm `fma`
//! call — slower, but bit-identical, and no slower than the pre-kernel
//! engine, which used `mul_add` per cell already.

#![deny(unsafe_op_in_unsafe_fn)]

use valmod_fft::simd::{self, F64Lanes, SimdLevel};
use valmod_mp::stomp::StompEngine;
use valmod_obs as obs;

use crate::partial::TopRhoSelector;

/// One stage-1 worker's partition result: per-row top-`p` selectors and
/// per-row bests in structure-of-arrays form (`u32::MAX` = no best yet),
/// merged row-wise by `algo::stage_one` under the usual total orders.
pub(crate) struct Stage1Part {
    /// Per-row top-`p` candidate selectors.
    pub selectors: Vec<TopRhoSelector>,
    /// Per-row best distance (`INFINITY` = none seen).
    pub best_d: Vec<f64>,
    /// Per-row best neighbor offset (`u32::MAX` = none seen).
    pub best_j: Vec<u32>,
}

impl Stage1Part {
    /// Empty worker state for `m` rows with top-`p` capacity.
    pub(crate) fn new(m: usize, profile_size: usize) -> Self {
        Self {
            selectors: (0..m).map(|_| TopRhoSelector::new(profile_size)).collect(),
            best_d: vec![f64::INFINITY; m],
            best_j: vec![u32::MAX; m],
        }
    }

    /// Merges another part built from a *disjoint* partition of the QT
    /// cells: row-wise [`TopRhoSelector::absorb`] plus the best fold
    /// under "(d asc, j asc)" — exactly the merge `algo::stage_one`
    /// performs. Because both reductions are pure functions of the
    /// contributed multiset, absorbing parts in any order or grouping
    /// (workers, anytime rounds) yields byte-identical merged state.
    pub(crate) fn absorb(&mut self, other: &Stage1Part) {
        debug_assert_eq!(self.best_d.len(), other.best_d.len());
        for i in 0..self.best_d.len() {
            self.selectors[i].absorb(&other.selectors[i]);
            let (cd, cj) = (other.best_d[i], other.best_j[i]);
            if cd < self.best_d[i] || (cd == self.best_d[i] && cj < self.best_j[i]) {
                self.best_d[i] = cd;
                self.best_j[i] = cj;
            }
        }
    }
}

/// Narrows a subsequence offset to the `u32` the SoA state stores.
/// Profiles beyond `u32::MAX` windows are out of scope (the partial
/// profile entries store `u32` offsets already), so this is a hard assert
/// rather than a debug one: a ≥ 2^32-window series must fail loudly, not
/// silently wrap offsets in release builds. The check is one predictable
/// compare per best hit — noise next to the square root and fold it
/// guards (and every row's first cell is a hit, so an oversized series
/// still trips it at once).
#[inline]
#[allow(clippy::cast_possible_truncation)]
pub(crate) fn idx32(j: usize) -> u32 {
    assert!(j < u32::MAX as usize, "subsequence offset {j} exceeds the u32 profile index space");
    j as u32
}

/// The y-space ceiling of a best distance: the largest double `y` with
/// `sqrt(y) ≤ d`. IEEE `sqrt` is correctly rounded, hence monotone, so
/// for every `y ≥ 0`
///
/// ```text
/// y ≤ sq_ceiling(d)  ⇔  sqrt(y) ≤ d
/// ```
///
/// holds exactly, ties included — the kernel tests cells against this
/// bound and takes the square root only on a hit. `d*d` lands within an
/// ulp of the true square, so the two stepping loops run at most a few
/// iterations (each `d` has at most three `y` preimages under `sqrt`).
#[inline]
pub(crate) fn sq_ceiling(d: f64) -> f64 {
    if d == f64::INFINITY {
        return f64::INFINITY;
    }
    let mut y = d * d;
    while y.sqrt() > d {
        y = y.next_down();
    }
    while y.next_up().sqrt() <= d {
        y = y.next_up();
    }
    y
}

/// `clamp(raw, −1, 1)` with the exact select semantics of the packed
/// `vmaxpd`/`vminpd` pair: `max(a, b) = if a > b { a } else { b }`, then
/// `min` likewise. For every non-NaN input this is `f64::clamp`; for a
/// NaN input — reachable when huge (~1e170) but finite samples overflow
/// the dot products to `inf` and the numerator becomes `inf − inf` — it
/// lands on `−1.0`, matching what the x86 min/max convention produces in
/// the packed lanes (and what [`F64Lanes::max`]/[`F64Lanes::min`] define
/// for the portable ones). One shared definition across the scalar
/// remainder and all lane widths is what keeps the dispatch bit-identical
/// in the NaN corner too, where `f64::clamp` (NaN-propagating) would
/// diverge.
#[inline(always)]
fn clamp_rho(raw: f64) -> f64 {
    let lo = if raw > -1.0 { raw } else { -1.0 };
    if lo < 1.0 {
        lo
    } else {
        1.0
    }
}

/// Read-only inputs of one worker's walk.
struct Ctx<'a> {
    /// Mean-shifted series values.
    t: &'a [f64],
    /// `QT(0, k)` — the start of every diagonal.
    first_row: &'a [f64],
    means: &'a [f64],
    stds: &'a [f64],
    l: usize,
    m: usize,
    /// `ℓ` as f64.
    lf: f64,
    /// `2ℓ` as f64 (hoisted with the original association `2.0 * lf`).
    two_lf: f64,
}

impl<'a> Ctx<'a> {
    fn new(engine: &'a StompEngine) -> Self {
        let l = engine.window();
        let lf = l as f64;
        Self {
            t: engine.values(),
            first_row: engine.first_row(),
            means: engine.means(),
            stds: engine.stds(),
            l,
            m: engine.num_windows(),
            lf,
            two_lf: 2.0 * lf,
        }
    }
}

/// Mutable per-worker state: the output part, two flat per-row mirrors
/// the fast paths load instead of touching the part — the selector
/// rejection thresholds (`thresh`) and the y-space best bounds
/// (`ybound[i] = sq_ceiling(best_d[i])`) — plus the warm-start threshold
/// floor and the deferred rejected-offer credits (flushed into the
/// selectors once per walk — the count only feeds the truncation flag,
/// so timing is irrelevant).
struct WalkState {
    part: Stage1Part,
    thresh: Vec<f64>,
    /// Per-row lower limit of `thresh`: the merged threshold of the
    /// earlier anytime rounds (`NEG_INFINITY` on a cold walk).
    floor: Vec<f64>,
    ybound: Vec<f64>,
    rej: Vec<u64>,
}

impl WalkState {
    /// Fresh state for `m` rows; `warm` seeds the thresholds (and their
    /// floor) and the y-space bounds from an already-merged accumulator,
    /// so the walk skips what that state rejects anyway (see
    /// [`stage1_walk_listed`] for why this is exact).
    fn new(m: usize, profile_size: usize, warm: Option<&Stage1Part>) -> Self {
        let (floor, ybound) = match warm {
            Some(acc) => (
                acc.selectors.iter().map(TopRhoSelector::threshold).collect(),
                acc.best_d.iter().map(|&d| sq_ceiling(d)).collect(),
            ),
            None => (vec![f64::NEG_INFINITY; m], vec![f64::INFINITY; m]),
        };
        Self {
            part: Stage1Part::new(m, profile_size),
            thresh: floor.clone(),
            floor,
            ybound,
            rej: vec![0; m],
        }
    }

    /// The single best update of the walk: folds `(d, cand)` into row
    /// `row`'s best under "(d asc, candidate asc)" and refreshes the
    /// row's y-space bound. Callers reach it only on a y-space hit.
    #[inline(always)]
    fn fold_best(&mut self, row: usize, d: f64, cand: u32) {
        let part = &mut self.part;
        if d < part.best_d[row] || (d == part.best_d[row] && cand < part.best_j[row]) {
            part.best_d[row] = d;
            part.best_j[row] = cand;
            self.ybound[row] = sq_ceiling(d);
        }
    }

    /// Offers candidate `cand` to row `row`'s selector and returns the
    /// row's new cached threshold — never below the warm-start floor.
    #[inline(always)]
    fn offer(&mut self, row: usize, cand: usize, rho: f64, qt: f64) -> f64 {
        let selector = &mut self.part.selectors[row];
        selector.offer(cand, rho, qt);
        selector.threshold().max(self.floor[row])
    }
}

/// Walks this worker's share of the upper-triangle diagonals at the base
/// length, `2W` adjacent diagonals per register-pair tile, producing the
/// worker's selectors and bests. Blocks of `2W` consecutive diagonals are
/// dealt round-robin: worker `w` of `num_workers` takes blocks `w, w +
/// num_workers, …` starting at `first_diag`. Any partitioning (including
/// the width-dependent blocking) yields the same merged result (see the
/// module docs), so the blocking is purely a locality/SIMD choice.
///
/// `level` is the dispatch decision resolved once by the caller; passing
/// it explicitly keeps every worker of a stage on the same instantiation
/// and lets the differential harness drive each variant directly.
///
/// Caller contract: no flat (σ ≈ 0) window exists at this length —
/// `algo::stage_one` routes those series to the scalar distance-space
/// walk instead.
pub(crate) fn stage1_walk(
    engine: &StompEngine,
    first_diag: usize,
    w: usize,
    num_workers: usize,
    profile_size: usize,
    level: SimdLevel,
) -> Stage1Part {
    let _walk_span = obs::span("stage1_walk", obs::Layer::Kernel);
    let ctx = Ctx::new(engine);
    let m = ctx.m;
    let mut state = WalkState::new(m, profile_size, None);
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => {
            let b = simd::Avx512::new().expect("dispatch resolved AVX-512 without CPU support");
            // SAFETY: the `Avx512` token proves the target features.
            unsafe { walk_avx512(b, &ctx, first_diag, w, num_workers, &mut state) }
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            let b = simd::Avx2::new().expect("dispatch resolved AVX2 without CPU support");
            // SAFETY: the `Avx2` token proves the target features.
            unsafe { walk_avx2(b, &ctx, first_diag, w, num_workers, &mut state) }
        }
        SimdLevel::Portable8 => {
            walk_lanes::<8, _>(simd::Portable, &ctx, first_diag, w, num_workers, &mut state);
        }
        // Portable4, plus (on non-x86 targets, where `simd_level` never
        // resolves a packed level) the unreachable packed arms.
        _ => walk_lanes::<4, _>(simd::Portable, &ctx, first_diag, w, num_workers, &mut state),
    }
    // Cell count — a pure function of the blocked partition geometry
    // (each diagonal `k` holds `m − k` cells).
    let tile = 2 * level.width();
    let stride = num_workers * tile;
    let mut cells: u64 = 0;
    let mut k0 = first_diag + w * tile;
    while k0 < m {
        for k in k0..(k0 + tile).min(m) {
            cells += (m - k) as u64;
        }
        k0 += stride;
    }
    finish_walk(state, cells, level)
}

/// Walks an explicit list of diagonal blocks instead of the eager
/// round-robin stride — the anytime tier's entry point, reusing the same
/// register-tiled kernel per block. `blocks` holds block *starts*: each
/// entry `k0` covers diagonals `k0 .. min(k0 + 2W, m)` where `W` is
/// `level`'s lane width. Starts must come from the tile grid
/// `first_diag + q·2W` (the same grid [`stage1_walk`] walks) and be
/// mutually distinct so the union of any set of listed walks partitions
/// the cells; order within the list is irrelevant to the merged result
/// (see the module docs) and only shapes preview timing.
///
/// `warm` is the merged state of the cells walked before (disjoint from
/// `blocks`) that the returned part will be absorbed into. The walk
/// starts from its thresholds and bests instead of from scratch, which
/// changes what the *part* holds but never what `warm.absorb(part)`
/// yields:
///
/// * an offer with `ρ` strictly below `warm`'s threshold for its row
///   ranks below `warm`'s `p` kept entries, so it cannot enter the
///   merged top-`p`; skipping it through
///   [`TopRhoSelector::count_rejected`] keeps the offered count, and
///   with it the truncation flag, exact;
/// * a cell with `d` above `warm`'s best for its row cannot win the
///   merged "(d asc, j asc)" min; every `d` equal to it still reaches
///   the fold, so ties resolve by offset as before.
///
/// Same caller contract as [`stage1_walk`]: no flat window at this
/// length.
pub(crate) fn stage1_walk_listed(
    engine: &StompEngine,
    blocks: &[usize],
    profile_size: usize,
    level: SimdLevel,
    warm: Option<&Stage1Part>,
) -> Stage1Part {
    let _walk_span = obs::span("stage1_walk", obs::Layer::Kernel);
    let ctx = Ctx::new(engine);
    let m = ctx.m;
    let mut state = WalkState::new(m, profile_size, warm);
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => {
            let b = simd::Avx512::new().expect("dispatch resolved AVX-512 without CPU support");
            // SAFETY: the `Avx512` token proves the target features.
            unsafe { walk_avx512_listed(b, &ctx, blocks, &mut state) }
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            let b = simd::Avx2::new().expect("dispatch resolved AVX2 without CPU support");
            // SAFETY: the `Avx2` token proves the target features.
            unsafe { walk_avx2_listed(b, &ctx, blocks, &mut state) }
        }
        SimdLevel::Portable8 => {
            walk_lanes_listed::<8, _>(simd::Portable, &ctx, blocks, &mut state);
        }
        _ => walk_lanes_listed::<4, _>(simd::Portable, &ctx, blocks, &mut state),
    }
    let tile = 2 * level.width();
    let mut cells: u64 = 0;
    for &k0 in blocks {
        for k in k0..(k0 + tile).min(m) {
            cells += (m - k) as u64;
        }
    }
    finish_walk(state, cells, level)
}

/// Shared tail of every walk entry point: flushes the deferred prefilter
/// credits into the selectors, then the metrics — once per walk, never
/// per cell. Every cell makes exactly two offers (row- and column-side),
/// so the accepted-offer count follows arithmetically from `cells` and
/// the deferred rejected count: four relaxed adds total.
fn finish_walk(mut state: WalkState, cells: u64, level: SimdLevel) -> Stage1Part {
    let mut rejected: u64 = 0;
    for (selector, &r) in state.part.selectors.iter_mut().zip(&state.rej) {
        if r > 0 {
            rejected += r;
            #[allow(clippy::cast_possible_truncation)]
            selector.count_rejected(r as usize);
        }
    }
    obs::count!(stage1_cells, cells);
    obs::count!(stage1_prefilter_rejected, rejected);
    obs::count!(stage1_offers, (2 * cells).saturating_sub(rejected));
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => obs::count!(stage1_dispatch_w8_packed, 1),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => obs::count!(stage1_dispatch_w4_packed, 1),
        SimdLevel::Portable8 => obs::count!(stage1_dispatch_w8_portable, 1),
        _ => obs::count!(stage1_dispatch_w4_portable, 1),
    }
    state.part
}

/// The AVX2+FMA instantiation of [`walk_lanes`] at W=4: the
/// `#[inline(always)]` lane ops compile to bare 256-bit instructions
/// under this function's target features.
///
/// # Safety
///
/// The `Avx2` token proves the CPU supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn walk_avx2(
    b: simd::Avx2,
    ctx: &Ctx<'_>,
    first_diag: usize,
    w: usize,
    num_workers: usize,
    state: &mut WalkState,
) {
    walk_lanes::<4, _>(b, ctx, first_diag, w, num_workers, state);
}

/// The AVX-512 instantiation of [`walk_lanes`] at W=8.
///
/// # Safety
///
/// The `Avx512` token proves the CPU supports AVX-512 F/DQ/VL (+AVX2+FMA).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl,avx2,fma")]
unsafe fn walk_avx512(
    b: simd::Avx512,
    ctx: &Ctx<'_>,
    first_diag: usize,
    w: usize,
    num_workers: usize,
    state: &mut WalkState,
) {
    walk_lanes::<8, _>(b, ctx, first_diag, w, num_workers, state);
}

/// Body shared by every instantiation: blocks of `2W` adjacent diagonals
/// (a register-pair tile) through the tiled walk, ragged final blocks
/// through the scalar cells.
#[inline(always)]
fn walk_lanes<const W: usize, B: F64Lanes<W>>(
    b: B,
    ctx: &Ctx<'_>,
    first_diag: usize,
    w: usize,
    num_workers: usize,
    state: &mut WalkState,
) {
    let m = ctx.m;
    let tile = 2 * W;
    let stride = num_workers * tile;
    let mut k0 = first_diag + w * tile;
    while k0 < m {
        if k0 + tile <= m {
            process_block(b, ctx, k0, state);
        } else {
            // Ragged last block: fewer than 2W diagonals remain.
            for k in k0..m {
                let qt0 = ctx.first_row[k];
                process_cell(ctx, 0, k, qt0, state);
                tail_scalar(ctx, k, 1, qt0, state);
            }
        }
        k0 += stride;
    }
}

/// The AVX2+FMA instantiation of [`walk_lanes_listed`] at W=4.
///
/// # Safety
///
/// The `Avx2` token proves the CPU supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn walk_avx2_listed(b: simd::Avx2, ctx: &Ctx<'_>, blocks: &[usize], state: &mut WalkState) {
    walk_lanes_listed::<4, _>(b, ctx, blocks, state);
}

/// The AVX-512 instantiation of [`walk_lanes_listed`] at W=8.
///
/// # Safety
///
/// The `Avx512` token proves the CPU supports AVX-512 F/DQ/VL (+AVX2+FMA).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl,avx2,fma")]
unsafe fn walk_avx512_listed(
    b: simd::Avx512,
    ctx: &Ctx<'_>,
    blocks: &[usize],
    state: &mut WalkState,
) {
    walk_lanes_listed::<8, _>(b, ctx, blocks, state);
}

/// [`walk_lanes`] over an explicit block list: each listed start goes
/// through the identical tiled/ragged split, so a listed walk over the
/// blocks a strided walk would visit performs exactly the same cell
/// operations in the same per-block order.
#[inline(always)]
fn walk_lanes_listed<const W: usize, B: F64Lanes<W>>(
    b: B,
    ctx: &Ctx<'_>,
    blocks: &[usize],
    state: &mut WalkState,
) {
    let m = ctx.m;
    let tile = 2 * W;
    for &k0 in blocks {
        debug_assert!(k0 < m);
        if k0 + tile <= m {
            process_block(b, ctx, k0, state);
        } else {
            for k in k0..m {
                let qt0 = ctx.first_row[k];
                process_cell(ctx, 0, k, qt0, state);
                tail_scalar(ctx, k, 1, qt0, state);
            }
        }
    }
}

/// One full register-pair tile: diagonals `k0 .. k0 + 2W` in two lane
/// vectors (lo = `k0..k0+W`, hi = `k0+W..k0+2W`), all lanes live for rows
/// `0 .. m − k0 − 2W + 1`, then per-lane scalar tails. Two vectors per
/// row halve the once-per-row costs (retire, slide, best/offer mask
/// checks, scalar stores) per cell relative to a single-vector tile,
/// while the per-cell math is width-independent.
///
/// The column-side offer state (`col_*` register pairs) slides with the
/// rows; the bests live in y-space behind the `ybound` mirror — see the
/// module docs for the retirement discipline and the exactness argument.
#[inline(always)]
fn process_block<const W: usize, B: F64Lanes<W>>(
    b: B,
    ctx: &Ctx<'_>,
    k0: usize,
    state: &mut WalkState,
) {
    let (t, l, m) = (ctx.t, ctx.l, ctx.m);
    let tile = 2 * W;
    let lane_mask: u32 = (1u32 << W) - 1;
    let one = b.splat(1.0);
    let zero = b.splat(0.0);
    let neg_one = b.splat(-1.0);
    let two_lf = b.splat(ctx.two_lf);
    let km = k0 + W;

    let mut qt_lo = b.load(&ctx.first_row[k0..]);
    let mut qt_hi = b.load(&ctx.first_row[km..]);
    // Column-side register pairs for the live columns `j0 .. j0 + 2W`.
    let mut ct_lo = b.load(&state.thresh[k0..]);
    let mut ct_hi = b.load(&state.thresh[km..]);
    let mut cr_lo = zero;
    let mut cr_hi = zero;

    // Rows where all 2W diagonals are still inside the triangle: lane c
    // ends at row m − (k0 + c), so the shortest lane (c = 2W − 1) bounds
    // the vector region.
    let full_rows = m - (k0 + tile - 1);
    for i in 0..full_rows {
        let j0 = i + k0;
        let jm = j0 + W;
        if i > 0 {
            // Per lane: `qt = t_head·t[j+ℓ−1] + (qt − t_drop·t[j−1])`,
            // multiply-add fused, drop product rounded separately —
            // exactly the scalar recurrence's rounding (mul-then-sub
            // deliberately split, see the module docs).
            let head = b.splat(t[i + l - 1]);
            let drop = b.splat(t[i - 1]);
            let dropped_lo = b.mul(drop, b.load(&t[j0 - 1..]));
            qt_lo = b.mul_add(head, b.load(&t[j0 + l - 1..]), b.sub(qt_lo, dropped_lo));
            let dropped_hi = b.mul(drop, b.load(&t[jm - 1..]));
            qt_hi = b.mul_add(head, b.load(&t[jm + l - 1..]), b.sub(qt_hi, dropped_hi));
        }

        // ρ = clamp((qt − ℓμᵢ·μⱼ) / (ℓσᵢ·σⱼ)), y = max(2ℓ·(1−ρ), 0) — the
        // scalar expression tree per lane, up to the distance's square
        // root, which only a best hit takes; hoists preserve the
        // association ℓμᵢμⱼ = (ℓμᵢ)·μⱼ and ℓσᵢσⱼ = (ℓσᵢ)·σⱼ.
        let av = b.splat(ctx.lf * ctx.means[i]);
        let sv = b.splat(ctx.lf * ctx.stds[i]);
        let num_lo = b.sub(qt_lo, b.mul(av, b.load(&ctx.means[j0..])));
        let den_lo = b.mul(sv, b.load(&ctx.stds[j0..]));
        let rho_lo = b.min(b.max(b.div(num_lo, den_lo), neg_one), one);
        let y_lo = b.max(b.mul(two_lf, b.sub(one, rho_lo)), zero);
        let num_hi = b.sub(qt_hi, b.mul(av, b.load(&ctx.means[jm..])));
        let den_hi = b.mul(sv, b.load(&ctx.stds[jm..]));
        let rho_hi = b.min(b.max(b.div(num_hi, den_hi), neg_one), one);
        let y_hi = b.max(b.mul(two_lf, b.sub(one, rho_hi)), zero);

        // Per-row best for row i. Fast path: unless some lane's y is ≤
        // the row's y-space bound (⇔ its distance is ≤ the running best),
        // the fold cannot change anything and the whole reduction is
        // skipped (the common case once the best warms up). Slow path:
        // the distances, then the horizontal min under "(d asc, j asc)" —
        // the first lane attaining the min across the concatenated pair
        // is the smallest j — folded into the running best. `y` is never
        // NaN (ρ is clamped first), so the quiet ≤ is exact.
        let ybv = b.splat(state.ybound[i]);
        if (b.mask_bits(b.ge(ybv, y_lo)) | b.mask_bits(b.ge(ybv, y_hi))) != 0 {
            let (d_lo, d_hi) = (b.sqrt(y_lo), b.sqrt(y_hi));
            let bd = b.hmin(b.min(d_lo, d_hi));
            let bdv = b.splat(bd);
            let eq_bits = b.mask_bits(b.eq(d_lo, bdv)) | (b.mask_bits(b.eq(d_hi, bdv)) << W);
            let bc = eq_bits.trailing_zeros() as usize;
            state.fold_best(i, bd, idx32(j0 + bc));
        }

        // Column bests (candidate i into columns j0..j0+2W): the same
        // y-space test against the columns' bounds, straight from the
        // mirror — only hit lanes take a square root and a fold.
        let col_hits = b.mask_bits(b.ge(b.load(&state.ybound[j0..]), y_lo))
            | (b.mask_bits(b.ge(b.load(&state.ybound[jm..]), y_hi)) << W);
        if col_hits != 0 {
            col_side_bests(b, y_lo, y_hi, col_hits, i, j0, state);
        }

        // Row-side offers: candidates j0..j0+2W into row i's selector.
        // One lane compare per half against the row threshold prefilters
        // the common all-rejected case into a single deferred credit; a
        // lane below the threshold now stays below it on the sequential
        // path too (offers only raise thresholds), so pre-rejecting by
        // mask sees exactly the per-lane-in-order outcomes.
        let mut t_i = state.thresh[i];
        let tv = b.splat(t_i);
        if (b.mask_bits(b.lt(rho_lo, tv)) & b.mask_bits(b.lt(rho_hi, tv))) == lane_mask {
            state.rej[i] += tile as u64;
        } else {
            for (h, (rho, qt)) in [(rho_lo, qt_lo), (rho_hi, qt_hi)].into_iter().enumerate() {
                let rho_a = b.to_array(rho);
                let qt_a = b.to_array(qt);
                for c in 0..W {
                    if rho_a[c] < t_i {
                        state.rej[i] += 1;
                    } else {
                        t_i = state.offer(i, j0 + h * W + c, rho_a[c], qt_a[c]);
                    }
                }
            }
            state.thresh[i] = t_i;
        }

        // Column-side offers (candidate i into rows j0..j0+2W): rejected
        // lanes bump the register counters; the rare surviving lanes take
        // the scalar offer path and refresh their cached thresholds.
        (ct_lo, cr_lo) =
            col_side_offers(b, rho_lo, qt_lo, ct_lo, cr_lo, one, lane_mask, i, j0, state);
        (ct_hi, cr_hi) =
            col_side_offers(b, rho_hi, qt_hi, ct_hi, cr_hi, one, lane_mask, i, jm, state);

        if i + 1 < full_rows {
            // Slide the column window: retire lane 0 (column j0 gets no
            // further offers from this tile), shift the pair one lane,
            // admit column j0+2W at the top.
            retire_column(j0, b.extract0(ct_lo), b.extract0(cr_lo), state);
            ct_lo = b.shift_concat(ct_lo, ct_hi);
            ct_hi = b.shift_in_high(ct_hi, state.thresh[j0 + tile]);
            cr_lo = b.shift_concat(cr_lo, cr_hi);
            cr_hi = b.shift_in_high(cr_hi, 0.0);
        } else {
            // Last full row: retire every live column before the scalar
            // tails touch the shared state.
            for (h, (th, cr)) in [(ct_lo, cr_lo), (ct_hi, cr_hi)].into_iter().enumerate() {
                let (th, cr) = (b.to_array(th), b.to_array(cr));
                for c in 0..W {
                    retire_column(j0 + h * W + c, th[c], cr[c], state);
                }
            }
        }
    }

    // Lane tails: lanes 0..2W−1 outlive the vector region by 2W−1−c rows
    // each; finish them with the scalar cell.
    let qt_a_lo = b.to_array(qt_lo);
    let qt_a_hi = b.to_array(qt_hi);
    for c in 0..tile - 1 {
        let qt_c = if c < W { qt_a_lo[c] } else { qt_a_hi[c - W] };
        tail_scalar(ctx, k0 + c, full_rows, qt_c, state);
    }
}

/// The column-best slow path: each lane set in `hits` (bit `c` =
/// column `j0 + c` across the concatenated pair) has its `y` within its
/// column's y-space bound and folds `(sqrt(y), i)` into that column's
/// best. Reading and writing the mirror directly is safe for the same
/// reason the cached thresholds are: while column `j` is live in the
/// window, nothing else writes it.
#[inline(always)]
fn col_side_bests<const W: usize, B: F64Lanes<W>>(
    b: B,
    y_lo: B::V,
    y_hi: B::V,
    mut hits: u32,
    i: usize,
    j0: usize,
    state: &mut WalkState,
) {
    let (y_lo, y_hi) = (b.to_array(y_lo), b.to_array(y_hi));
    let iu = idx32(i);
    while hits != 0 {
        let c = hits.trailing_zeros() as usize;
        hits &= hits - 1;
        let y = if c < W { y_lo[c] } else { y_hi[c - W] };
        state.fold_best(j0 + c, y.sqrt(), iu);
    }
}

/// One vector half's column-side offer step: rejected lanes bump the
/// register counter, surviving lanes take the scalar offer path and
/// refresh their cached thresholds. Returns the updated
/// `(col_thresh, col_rej)` pair.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn col_side_offers<const W: usize, B: F64Lanes<W>>(
    b: B,
    rho: B::V,
    qt: B::V,
    col_thresh: B::V,
    col_rej: B::V,
    one: B::V,
    lane_mask: u32,
    i: usize,
    j0: usize,
    state: &mut WalkState,
) -> (B::V, B::V) {
    let rejm = b.lt(rho, col_thresh);
    let col_rej = b.select(rejm, b.add(col_rej, one), col_rej);
    let offer_bits = !b.mask_bits(rejm) & lane_mask;
    let mut col_thresh = col_thresh;
    if offer_bits != 0 {
        let rho_a = b.to_array(rho);
        let qt_a = b.to_array(qt);
        let mut th_a = b.to_array(col_thresh);
        let mut bits = offer_bits;
        while bits != 0 {
            let c = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            th_a[c] = state.offer(j0 + c, i, rho_a[c], qt_a[c]);
        }
        col_thresh = b.pack(th_a);
    }
    (col_thresh, col_rej)
}

/// Stores one retired column's register state back: threshold written
/// verbatim, rejected count credited to the deferred array.
#[inline(always)]
fn retire_column(j: usize, th: f64, cr: f64, state: &mut WalkState) {
    state.thresh[j] = th;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    {
        state.rej[j] += cr as u64;
    }
}

/// Continues diagonal `k` from row `start_i` (with `qt` holding the value
/// at `start_i − 1`, or `QT(0, k)` when `start_i` is 1) to its end.
#[inline(always)]
fn tail_scalar(ctx: &Ctx<'_>, k: usize, start_i: usize, mut qt: f64, state: &mut WalkState) {
    let (t, l) = (ctx.t, ctx.l);
    for i in start_i..ctx.m - k {
        let j = i + k;
        qt = t[i + l - 1].mul_add(t[j + l - 1], qt - t[i - 1] * t[j - 1]);
        process_cell(ctx, i, j, qt, state);
    }
}

/// One scalar cell `(i, j)` — the remainder path. Bit-identical to a lane
/// of the tiled rows: same expression tree, same y-space best test, same
/// total orders, same prefilter contract (credits go to the same
/// deferred array).
#[inline(always)]
fn process_cell(ctx: &Ctx<'_>, i: usize, j: usize, qt: f64, state: &mut WalkState) {
    let rho = clamp_rho(
        (qt - ctx.lf * ctx.means[i] * ctx.means[j]) / (ctx.lf * ctx.stds[i] * ctx.stds[j]),
    );
    let y = (ctx.two_lf * (1.0 - rho)).max(0.0);
    if y <= state.ybound[i] {
        state.fold_best(i, y.sqrt(), idx32(j));
    }
    if y <= state.ybound[j] {
        state.fold_best(j, y.sqrt(), idx32(i));
    }

    if rho < state.thresh[i] {
        state.rej[i] += 1;
    } else {
        state.thresh[i] = state.offer(i, j, rho, qt);
    }
    if rho < state.thresh[j] {
        state.rej[j] += 1;
    } else {
        state.thresh[j] = state.offer(j, i, rho, qt);
    }
}

/// Advances the stored partial-profile dot products of one row from length
/// `ℓ` to `ℓ+1`: for each entry `e`,
///
/// ```text
/// dst[e] = if j[e] < limit { head.mul_add(t_next[j[e]], src[e]) } else { src[e] }
/// ```
///
/// where `head = t[i + ℓ]`, `t_next = &t[ℓ..]` (so `t_next[j] = t[j + ℓ]`)
/// and `limit` is the window count at `ℓ+1` (entries whose candidate no
/// longer fits keep their last dot, exactly as the scalar per-entry loop
/// left them). `src` and `dst` may be the same buffer contents-wise but
/// must be distinct slices (the double-buffered stage-2 scratch always
/// passes the shadow as `dst`).
///
/// The packed paths run `W` entries per iteration (W=4 under AVX2, W=8
/// under AVX-512, one shared driver): the `j` guard becomes an unsigned
/// lane compare, `t_next[j]` a masked gather (masked-off lanes perform no
/// memory access), the advance a single `vfmadd`, and the keep-else
/// branch a blend that copies `src`'s bits verbatim — so the result is
/// byte-identical to the scalar loop, `−0.0` and overflowed (±∞) dots
/// included. Falls back to the scalar loop on portable levels and for
/// `limit` beyond the gathers' signed-index space.
///
/// # Panics
///
/// Panics when `j`/`src`/`dst` lengths differ, or when `limit` exceeds
/// `t_next.len()` — every in-range lane must have a head product to
/// gather (the scalar path would hit the same indexing panic lane by
/// lane; asserting it up front keeps the packed gathers in bounds).
pub fn advance_entry_dots(
    head: f64,
    t_next: &[f64],
    j: &[u32],
    limit: u32,
    src: &[f64],
    dst: &mut [f64],
) {
    assert_eq!(j.len(), src.len());
    assert_eq!(j.len(), dst.len());
    assert!(
        limit as usize <= t_next.len(),
        "limit {limit} exceeds the {} head products available",
        t_next.len()
    );
    #[cfg(target_arch = "x86_64")]
    {
        if i32::try_from(limit).is_ok() {
            match simd::simd_level() {
                SimdLevel::Avx512 => {
                    let b = simd::Avx512::new().expect("dispatch resolved AVX-512");
                    // SAFETY: token proves the features; `limit` fits i32
                    // and is bounded by `t_next.len()` (asserted above),
                    // so every gathered lane stays in bounds.
                    unsafe { entry_dots_avx512(b, head, t_next, j, limit, src, dst) };
                    return;
                }
                SimdLevel::Avx2 => {
                    let b = simd::Avx2::new().expect("dispatch resolved AVX2");
                    // SAFETY: as above.
                    unsafe { entry_dots_avx2(b, head, t_next, j, limit, src, dst) };
                    return;
                }
                _ => {}
            }
        }
    }
    entry_dots_scalar(head, t_next, j, limit, src, dst, 0);
}

/// The scalar entry-dot advance from entry `start` on.
#[inline(always)]
fn entry_dots_scalar(
    head: f64,
    t_next: &[f64],
    j: &[u32],
    limit: u32,
    src: &[f64],
    dst: &mut [f64],
    start: usize,
) {
    for e in start..j.len() {
        dst[e] = if j[e] < limit { head.mul_add(t_next[j[e] as usize], src[e]) } else { src[e] };
    }
}

/// A width's masked-gather step for [`advance_entry_dots`]: exactly `W`
/// entries starting at `e`. Implemented per packed backend (the gather
/// and the index compare are the only genuinely ISA-specific ops in this
/// module); [`entry_dots_lanes`] is the single shared driver.
#[cfg(target_arch = "x86_64")]
trait EntryGather<const W: usize>: F64Lanes<W> {
    /// # Contract
    ///
    /// `j[e..e+W]`, `src[e..e+W]`, `dst[e..e+W]` in bounds; every lane
    /// with `j < limit` has `t_next[j]` in bounds; lanes with `j ≥ limit`
    /// copy `src`'s exact bits and touch no memory.
    #[allow(clippy::too_many_arguments)]
    fn gather_advance(
        self,
        head: Self::V,
        t_next: &[f64],
        j: &[u32],
        limit: u32,
        src: &[f64],
        dst: &mut [f64],
        e: usize,
    );
}

#[cfg(target_arch = "x86_64")]
impl EntryGather<4> for simd::Avx2 {
    #[inline(always)]
    fn gather_advance(
        self,
        head: Self::V,
        t_next: &[f64],
        j: &[u32],
        limit: u32,
        src: &[f64],
        dst: &mut [f64],
        e: usize,
    ) {
        use core::arch::x86_64::{
            __m128i, _mm256_blendv_pd, _mm256_castsi256_pd, _mm256_cvtepi32_epi64, _mm256_fmadd_pd,
            _mm256_loadu_pd, _mm256_mask_i32gather_pd, _mm256_setzero_pd, _mm256_storeu_pd,
            _mm_cmplt_epi32, _mm_loadu_si128, _mm_set1_epi32, _mm_xor_si128,
        };
        // SAFETY: the `Avx2` token proves AVX2+FMA; the caller contract
        // bounds every access (see the trait docs). Unsigned `j < limit`
        // via sign-bias + signed compare; masked-off gather lanes read no
        // memory and the blend keeps `src`'s bits verbatim.
        unsafe {
            let bias = _mm_set1_epi32(i32::MIN);
            #[allow(clippy::cast_possible_wrap)]
            let limit_biased = _mm_set1_epi32((limit as i32).wrapping_add(i32::MIN));
            let jv = _mm_loadu_si128(j.as_ptr().add(e).cast::<__m128i>());
            let in_range = _mm_cmplt_epi32(_mm_xor_si128(jv, bias), limit_biased);
            let mask = _mm256_castsi256_pd(_mm256_cvtepi32_epi64(in_range));
            let heads =
                _mm256_mask_i32gather_pd::<8>(_mm256_setzero_pd(), t_next.as_ptr(), jv, mask);
            let src_v = _mm256_loadu_pd(src.as_ptr().add(e));
            let advanced = _mm256_fmadd_pd(head, heads, src_v);
            _mm256_storeu_pd(dst.as_mut_ptr().add(e), _mm256_blendv_pd(src_v, advanced, mask));
        }
    }
}

#[cfg(target_arch = "x86_64")]
impl EntryGather<8> for simd::Avx512 {
    #[inline(always)]
    fn gather_advance(
        self,
        head: Self::V,
        t_next: &[f64],
        j: &[u32],
        limit: u32,
        src: &[f64],
        dst: &mut [f64],
        e: usize,
    ) {
        use core::arch::x86_64::{
            __m256i, _mm256_cmplt_epu32_mask, _mm256_loadu_si256, _mm256_set1_epi32,
            _mm512_fmadd_pd, _mm512_loadu_pd, _mm512_mask_blend_pd, _mm512_mask_i32gather_pd,
            _mm512_setzero_pd, _mm512_storeu_pd,
        };
        // SAFETY: the `Avx512` token proves AVX-512 F/DQ/VL; the caller
        // contract bounds every access. AVX-512VL gives the unsigned
        // 32-bit compare directly; masked-off gather lanes read no memory
        // and the mask blend keeps `src`'s bits verbatim.
        unsafe {
            #[allow(clippy::cast_possible_wrap)]
            let limit_v = _mm256_set1_epi32(limit as i32);
            let jv = _mm256_loadu_si256(j.as_ptr().add(e).cast::<__m256i>());
            let mask = _mm256_cmplt_epu32_mask(jv, limit_v);
            let heads =
                _mm512_mask_i32gather_pd::<8>(_mm512_setzero_pd(), mask, jv, t_next.as_ptr());
            let src_v = _mm512_loadu_pd(src.as_ptr().add(e));
            let advanced = _mm512_fmadd_pd(head, heads, src_v);
            _mm512_storeu_pd(dst.as_mut_ptr().add(e), _mm512_mask_blend_pd(mask, src_v, advanced));
        }
    }
}

/// The shared packed driver of [`advance_entry_dots`]: whole `W`-blocks
/// through [`EntryGather::gather_advance`], ragged tail through the
/// scalar loop.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn entry_dots_lanes<const W: usize, B: EntryGather<W>>(
    b: B,
    head: f64,
    t_next: &[f64],
    j: &[u32],
    limit: u32,
    src: &[f64],
    dst: &mut [f64],
) {
    let head_v = b.splat(head);
    let len = j.len();
    let mut e = 0;
    while e + W <= len {
        b.gather_advance(head_v, t_next, j, limit, src, dst, e);
        e += W;
    }
    entry_dots_scalar(head, t_next, j, limit, src, dst, e);
}

/// [`entry_dots_lanes`] under AVX2+FMA.
///
/// # Safety
///
/// The `Avx2` token proves the CPU supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn entry_dots_avx2(
    b: simd::Avx2,
    head: f64,
    t_next: &[f64],
    j: &[u32],
    limit: u32,
    src: &[f64],
    dst: &mut [f64],
) {
    entry_dots_lanes::<4, _>(b, head, t_next, j, limit, src, dst);
}

/// [`entry_dots_lanes`] under AVX-512.
///
/// # Safety
///
/// The `Avx512` token proves the CPU supports AVX-512 F/DQ/VL (+AVX2+FMA).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl,avx2,fma")]
unsafe fn entry_dots_avx512(
    b: simd::Avx512,
    head: f64,
    t_next: &[f64],
    j: &[u32],
    limit: u32,
    src: &[f64],
    dst: &mut [f64],
) {
    entry_dots_lanes::<8, _>(b, head, t_next, j, limit, src, dst);
}

/// The streaming engine's in-place per-append dot-product shift
/// (fused-multiply-add form, used for batched appends):
///
/// ```text
/// qt[j] = v.mul_add(t[j + l − 1], qt[j − 1] − dropped · t[j − 1])   for j in (1..qt.len()).rev()
/// ```
///
/// This is the stage-1 kernel's diagonal recurrence applied to a shifted,
/// contiguous row, so the packed paths literally reuse those lanes:
/// blocks of `W` are staged through a register copy (read `qt[j−1..j−1+W]`,
/// advance, write `qt[j..j+W]`), processed from the high end down exactly
/// like the scalar reverse loop, hence byte-identical to it. One shared
/// lane-generic body serves W=4 (AVX2) and W=8 (AVX-512); portable levels
/// take the scalar reverse loop, which is the same expression tree.
///
/// # Panics
///
/// Panics if `t` is shorter than `qt.len() + l − 1` (the highest head
/// index read).
pub fn advance_dots_extend(v: f64, dropped: f64, t: &[f64], l: usize, qt: &mut [f64]) {
    let m = qt.len();
    if m <= 1 {
        return;
    }
    assert!(t.len() >= m + l - 1, "series too short for the append recurrence");
    #[allow(unused_mut)]
    let mut hi = m;
    #[cfg(target_arch = "x86_64")]
    {
        match simd::simd_level() {
            SimdLevel::Avx512 => {
                let b = simd::Avx512::new().expect("dispatch resolved AVX-512");
                // SAFETY: the token proves the target features.
                hi = unsafe { dots_extend_avx512(b, v, dropped, t, l, qt) };
            }
            SimdLevel::Avx2 => {
                let b = simd::Avx2::new().expect("dispatch resolved AVX2");
                // SAFETY: the token proves the target features.
                hi = unsafe { dots_extend_avx2(b, v, dropped, t, l, qt) };
            }
            _ => {}
        }
    }
    for j in (1..hi).rev() {
        qt[j] = v.mul_add(t[j + l - 1], qt[j - 1] - dropped * t[j - 1]);
    }
}

/// The lane-generic blocked-backward body of [`advance_dots_extend`]:
/// processes whole `W`-blocks from the high end down, returns the
/// exclusive upper bound the scalar remainder should continue from.
#[inline(always)]
fn dots_extend_lanes<const W: usize, B: F64Lanes<W>>(
    b: B,
    v: f64,
    dropped: f64,
    t: &[f64],
    l: usize,
    qt: &mut [f64],
) -> usize {
    let vv = b.splat(v);
    let dv = b.splat(dropped);
    let mut hi = qt.len();
    while hi > W {
        let j0 = hi - W;
        // Read qt[j0−1..j0−1+W] fully into the register before writing
        // qt[j0..j0+W] — the overlap is safe because the store happens
        // after the load.
        let prev = b.load(&qt[j0 - 1..]);
        let dropv = b.mul(dv, b.load(&t[j0 - 1..]));
        let next = b.mul_add(vv, b.load(&t[j0 + l - 1..]), b.sub(prev, dropv));
        b.store(next, &mut qt[j0..]);
        hi = j0;
    }
    hi
}

/// [`dots_extend_lanes`] under AVX2+FMA.
///
/// # Safety
///
/// The `Avx2` token proves the CPU supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn dots_extend_avx2(
    b: simd::Avx2,
    v: f64,
    dropped: f64,
    t: &[f64],
    l: usize,
    qt: &mut [f64],
) -> usize {
    dots_extend_lanes::<4, _>(b, v, dropped, t, l, qt)
}

/// [`dots_extend_lanes`] under AVX-512.
///
/// # Safety
///
/// The `Avx512` token proves the CPU supports AVX-512 F/DQ/VL (+AVX2+FMA).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl,avx2,fma")]
unsafe fn dots_extend_avx512(
    b: simd::Avx512,
    v: f64,
    dropped: f64,
    t: &[f64],
    l: usize,
    qt: &mut [f64],
) -> usize {
    dots_extend_lanes::<8, _>(b, v, dropped, t, l, qt)
}

/// The streaming engine's in-place per-append dot-product shift (add
/// form, used for single appends, where the head products come from the
/// shared cross row `cross[x] = v·t[x]`):
///
/// ```text
/// qt[j] = cross[j + l − 1] + (qt[j − 1] − dropped · t[j − 1])   for j in (1..qt.len()).rev()
/// ```
///
/// Same blocked-backward in-place scheme as [`advance_dots_extend`]; the
/// packed lanes evaluate the identical `add(cross, sub(q, mul(dropped,
/// t)))` expression tree, so the result is byte-identical to the scalar
/// reverse loop. (The add form rounds the head product separately — that
/// is the *existing* single-append semantics, kept as-is; this function
/// only vectorizes it.)
///
/// # Panics
///
/// Panics if `t` or `cross` is shorter than `qt.len() + l − 1`.
pub fn advance_dots_append(cross: &[f64], dropped: f64, t: &[f64], l: usize, qt: &mut [f64]) {
    let m = qt.len();
    if m <= 1 {
        return;
    }
    assert!(t.len() >= m + l - 1, "series too short for the append recurrence");
    assert!(cross.len() >= m + l - 1, "cross row too short for the append recurrence");
    #[allow(unused_mut)]
    let mut hi = m;
    #[cfg(target_arch = "x86_64")]
    {
        match simd::simd_level() {
            SimdLevel::Avx512 => {
                let b = simd::Avx512::new().expect("dispatch resolved AVX-512");
                // SAFETY: the token proves the target features.
                hi = unsafe { dots_append_avx512(b, cross, dropped, t, l, qt) };
            }
            SimdLevel::Avx2 => {
                let b = simd::Avx2::new().expect("dispatch resolved AVX2");
                // SAFETY: the token proves the target features.
                hi = unsafe { dots_append_avx2(b, cross, dropped, t, l, qt) };
            }
            _ => {}
        }
    }
    for j in (1..hi).rev() {
        qt[j] = cross[j + l - 1] + (qt[j - 1] - dropped * t[j - 1]);
    }
}

/// The lane-generic blocked-backward body of [`advance_dots_append`].
#[inline(always)]
fn dots_append_lanes<const W: usize, B: F64Lanes<W>>(
    b: B,
    cross: &[f64],
    dropped: f64,
    t: &[f64],
    l: usize,
    qt: &mut [f64],
) -> usize {
    let dv = b.splat(dropped);
    let mut hi = qt.len();
    while hi > W {
        let j0 = hi - W;
        let prev = b.load(&qt[j0 - 1..]);
        let dropv = b.mul(dv, b.load(&t[j0 - 1..]));
        let next = b.add(b.load(&cross[j0 + l - 1..]), b.sub(prev, dropv));
        b.store(next, &mut qt[j0..]);
        hi = j0;
    }
    hi
}

/// [`dots_append_lanes`] under AVX2+FMA.
///
/// # Safety
///
/// The `Avx2` token proves the CPU supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn dots_append_avx2(
    b: simd::Avx2,
    cross: &[f64],
    dropped: f64,
    t: &[f64],
    l: usize,
    qt: &mut [f64],
) -> usize {
    dots_append_lanes::<4, _>(b, cross, dropped, t, l, qt)
}

/// [`dots_append_lanes`] under AVX-512.
///
/// # Safety
///
/// The `Avx512` token proves the CPU supports AVX-512 F/DQ/VL (+AVX2+FMA).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl,avx2,fma")]
unsafe fn dots_append_avx512(
    b: simd::Avx512,
    cross: &[f64],
    dropped: f64,
    t: &[f64],
    l: usize,
    qt: &mut [f64],
) -> usize {
    dots_append_lanes::<8, _>(b, cross, dropped, t, l, qt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{part_snapshot, test_levels};
    use valmod_series::gen;

    /// The pre-kernel scalar reference: the closure-based diagonal walk
    /// with per-cell offers and no prefilter, exactly as `stage_one`
    /// computed it before this module existed.
    fn reference_walk(
        engine: &StompEngine,
        first_diag: usize,
        w: usize,
        num_workers: usize,
        profile_size: usize,
    ) -> Stage1Part {
        let m = engine.num_windows();
        let (means, stds) = (engine.means(), engine.stds());
        let lf = engine.window() as f64;
        let mut part = Stage1Part::new(m, profile_size);
        engine.walk_diagonals(first_diag + w, num_workers, |i, j, qt| {
            let rho = ((qt - lf * means[i] * means[j]) / (lf * stds[i] * stds[j])).clamp(-1.0, 1.0);
            let d = (2.0 * lf * (1.0 - rho)).max(0.0).sqrt();
            part.selectors[i].offer(j, rho, qt);
            part.selectors[j].offer(i, rho, qt);
            let ju = idx32(j);
            if d < part.best_d[i] || (d == part.best_d[i] && ju < part.best_j[i]) {
                part.best_d[i] = d;
                part.best_j[i] = ju;
            }
            let iu = idx32(i);
            if d < part.best_d[j] || (d == part.best_d[j] && iu < part.best_j[j]) {
                part.best_d[j] = d;
                part.best_j[j] = iu;
            }
        });
        part
    }

    /// Comparable per-row state: best (distance bits, offset) plus the
    /// selector's kept entries as (offset, rho bits).
    type MergedRow = (u64, u32, Vec<(u32, u64)>);

    /// Merges worker parts row-wise under the engine's total orders,
    /// returning comparable per-row state.
    fn merged(mut parts: Vec<Stage1Part>, base_len: usize) -> Vec<MergedRow> {
        let rest = parts.split_off(1);
        let first = parts.pop().unwrap();
        let m = first.best_d.len();
        let mut out = Vec::with_capacity(m);
        for (i, (mut selector, (mut bd, mut bj))) in
            first.selectors.into_iter().zip(first.best_d.into_iter().zip(first.best_j)).enumerate()
        {
            for part in &rest {
                selector.absorb(&part.selectors[i]);
                let (cd, cj) = (part.best_d[i], part.best_j[i]);
                if cd < bd || (cd == bd && cj < bj) {
                    bd = cd;
                    bj = cj;
                }
            }
            let row = selector.into_row(base_len);
            let entries: Vec<(u32, u64)> =
                row.entries.iter().map(|e| (e.j, e.rho_base.to_bits())).collect();
            out.push((bd.to_bits(), bj, entries));
        }
        out
    }

    /// The kernel against the pre-kernel scalar walk: byte-identical
    /// selectors and bests for every available lane level and several
    /// worker counts, despite the blocked partitioning, register tiling,
    /// and offer prefilter.
    #[test]
    fn kernel_is_byte_identical_to_the_scalar_reference() {
        for (series, l) in [
            (gen::random_walk(400, 11), 16usize),
            (gen::ecg(500, &gen::EcgConfig::default(), 5), 32),
            (gen::sine_mix(300, &[(30.0, 1.0)], 0.05, 9), 12),
            (repeated(360, 9, 4), 20),
        ] {
            let engine = StompEngine::new(&series, l).unwrap();
            assert!(!engine.has_flat_windows(), "kernel contract");
            let first_diag = l.div_ceil(4) + 1;
            for workers in [1usize, 2, 3, 8] {
                let reference: Vec<Stage1Part> = (0..workers)
                    .map(|w| reference_walk(&engine, first_diag, w, workers, 4))
                    .collect();
                let want = merged(reference, l);
                for level in test_levels() {
                    let kernel: Vec<Stage1Part> = (0..workers)
                        .map(|w| stage1_walk(&engine, first_diag, w, workers, 4, level))
                        .collect();
                    assert_eq!(
                        merged(kernel, l),
                        want,
                        "kernel diverged at l={l}, workers={workers}, level={level:?}"
                    );
                }
            }
        }
    }

    /// Tile-boundary shapes: every remainder count of diagonals per tile
    /// (1..=2W−1 for the widest tile, i.e. 1..=15 at width 8) and window
    /// sizes straddling tile columns. `first_diag` is swept so the
    /// worker's share leaves exactly `r` ragged diagonals.
    #[test]
    fn tile_remainders_match_the_reference() {
        let series = gen::random_walk(120, 7);
        for l in [8usize, 12] {
            let engine = StompEngine::new(&series, l).unwrap();
            let m = engine.num_windows();
            // Sweep first_diag so m − first_diag mod 2W hits 0..=15 for
            // both widths.
            for first_diag in 1..=(l + 9).min(m - 1) {
                let reference = merged(vec![reference_walk(&engine, first_diag, 0, 1, 3)], l);
                for level in test_levels() {
                    let part = stage1_walk(&engine, first_diag, 0, 1, 3, level);
                    assert_eq!(
                        merged(vec![part], l),
                        reference,
                        "diverged at l={l}, first_diag={first_diag}, level={level:?} \
                         (remainder {})",
                        (m - first_diag) % (2 * level.width())
                    );
                }
            }
        }
    }

    /// An exactly periodic series (a `period`-point random-walk pattern
    /// tiled end to end): windows a period apart are bit-identical, so
    /// many distinct `y` share one square root and equal-distance ties
    /// meet across tile seams.
    fn repeated(n: usize, period: usize, seed: u64) -> Vec<f64> {
        let pattern = gen::random_walk(period, seed);
        (0..n).map(|i| pattern[i % period]).collect()
    }

    /// The y-space lemma behind the kernel's best tests: for every
    /// `y ≥ 0`, `y ≤ sq_ceiling(d)` exactly when `sqrt(y) ≤ d` — checked
    /// at the ceiling itself and its neighbors, on the edge distances
    /// (zero, the square root of the smallest subnormal, one, the
    /// largest z-normalized distance `sqrt(4ℓ)`, infinity) and a seeded
    /// sweep of distances that are themselves square roots.
    #[test]
    fn sq_ceiling_decides_exactly_like_the_square_root() {
        let check = |d: f64| {
            let c = sq_ceiling(d);
            assert!(c.sqrt() <= d, "ceiling {c:e} of {d:e} overshoots");
            for y in [c.next_down(), c, c.next_up()] {
                if y >= 0.0 {
                    assert_eq!(y <= c, y.sqrt() <= d, "lemma fails at y = {y:e}, d = {d:e}");
                }
            }
        };
        for l in [8.0f64, 64.0, 1000.0] {
            check((4.0 * l).sqrt());
        }
        for d in [0.0, f64::from_bits(1).sqrt(), 1.0, f64::INFINITY] {
            check(d);
        }
        let mut state = 0x5eed_u64;
        for _ in 0..20_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // y' spread over [0, 256): the distances of ℓ ≤ 64 windows.
            let y = (state >> 11) as f64 / (1u64 << 53) as f64 * 256.0;
            check(y.sqrt());
            check(y.sqrt().next_up());
        }
    }

    /// Absorbs `rounds` into a fresh accumulator the way the anytime
    /// scheduler does, each round split across two workers at `cuts[r]`
    /// and walked warm from the pre-round accumulator, or cold.
    fn accumulate(
        engine: &StompEngine,
        rounds: &[&[usize]],
        cuts: &[usize],
        p: usize,
        level: SimdLevel,
        warm: bool,
    ) -> Stage1Part {
        let mut acc = Stage1Part::new(engine.num_windows(), p);
        for (round, &cut) in rounds.iter().zip(cuts) {
            let (a, b) = round.split_at(cut);
            let parts: Vec<Stage1Part> = [a, b]
                .iter()
                .map(|share| stage1_walk_listed(engine, share, p, level, warm.then_some(&acc)))
                .collect();
            for part in &parts {
                acc.absorb(part);
            }
        }
        acc
    }

    /// Warm start is exact: over random block lists split into rounds,
    /// absorbing each round's walks started warm from the accumulator
    /// gives byte-identical selectors and bests to absorbing the same
    /// rounds walked cold — after every round, not just the last — and
    /// the settled state equals the eager walk's.
    #[test]
    fn warm_rounds_absorb_to_the_cold_state() {
        let mut state = 0x9e37_79b9_u64;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for (series, l, p) in [
            (gen::random_walk(420, 21), 12usize, 3usize),
            (gen::ecg(500, &gen::EcgConfig::default(), 8), 24, 5),
            (repeated(400, 7, 2), 16, 4),
        ] {
            let engine = StompEngine::new(&series, l).unwrap();
            let m = engine.num_windows();
            let first_diag = l.div_ceil(4) + 1;
            for level in test_levels() {
                let tile = 2 * level.width();
                let mut blocks: Vec<usize> = (first_diag..m).step_by(tile).collect();
                for i in (1..blocks.len()).rev() {
                    blocks.swap(i, next(i + 1));
                }
                let chunk = blocks.len().div_ceil(2 + next(4));
                let rounds: Vec<&[usize]> = blocks.chunks(chunk).collect();
                let cuts: Vec<usize> = rounds.iter().map(|r| next(r.len() + 1)).collect();
                for upto in 1..=rounds.len() {
                    let (rounds, cuts) = (&rounds[..upto], &cuts[..upto]);
                    assert_eq!(
                        part_snapshot(accumulate(&engine, rounds, cuts, p, level, true), l),
                        part_snapshot(accumulate(&engine, rounds, cuts, p, level, false), l),
                        "warm and cold diverged after round {upto} at l={l}, {level:?}"
                    );
                }
                let settled = accumulate(&engine, &rounds, &cuts, p, level, true);
                let eager = stage1_walk(&engine, first_diag, 0, 1, p, level);
                assert_eq!(
                    part_snapshot(settled, l),
                    part_snapshot(eager, l),
                    "settled warm state differs from the eager walk at l={l}, {level:?}"
                );
            }
        }
    }

    /// Deterministic pseudo-random values with sign variety and a few
    /// planted corner cases (`−0.0`, huge magnitudes).
    fn pseudo_values(n: usize, seed: u64) -> Vec<f64> {
        let mut v: Vec<f64> = (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(seed);
                (h % 2000) as f64 / 100.0 - 10.0
            })
            .collect();
        if n > 8 {
            v[3] = -0.0;
            v[7] = 1e150;
        }
        v
    }

    /// [`advance_entry_dots`] against the scalar per-entry loop:
    /// byte-identical on every lane level, including out-of-range
    /// candidates (`j >= limit` must keep `src`'s exact bits — `−0.0`
    /// included) and ragged tails.
    #[test]
    fn entry_dot_advance_matches_the_scalar_loop() {
        let t_next = pseudo_values(500, 17);
        for len in [1usize, 3, 4, 7, 8, 11, 64, 129] {
            let j: Vec<u32> = (0..len)
                .map(|e| {
                    let h = (e as u64).wrapping_mul(0x2545_f491_4f6c_dd1d);
                    (h % 600) as u32 // some beyond limit
                })
                .collect();
            let mut src = pseudo_values(len, 23);
            if len > 2 {
                src[1] = -0.0;
                src[2] = f64::INFINITY; // overflowed dot, must survive verbatim
            }
            for limit in [0u32, 1, 250, 500] {
                let head = 1.75f64;
                let mut expect = vec![0.0f64; len];
                for e in 0..len {
                    expect[e] = if j[e] < limit {
                        head.mul_add(t_next[j[e] as usize], src[e])
                    } else {
                        src[e]
                    };
                }
                for level in test_levels() {
                    let _g = crate::testkit::force_level(level);
                    let mut dst = vec![0.0f64; len];
                    advance_entry_dots(head, &t_next, &j, limit, &src, &mut dst);
                    for (e, (a, b)) in dst.iter().zip(&expect).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "entry {e} diverged at len={len} limit={limit} {level:?}: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    /// The streaming shift kernels against the scalar reverse loops they
    /// replace: byte-identical in-place results for both the fused
    /// (extend) and the add (append) form, across ragged lengths and
    /// every lane level.
    #[test]
    fn streaming_shift_kernels_match_the_scalar_reverse_loops() {
        let l = 9usize;
        for m in [1usize, 2, 4, 5, 8, 9, 17, 31, 130] {
            let t = pseudo_values(m + l - 1 + 8, 5);
            let cross: Vec<f64> = t.iter().map(|&x| 0.37 * x).collect();
            let (v, dropped) = (t[m + l - 2], t[m - 1]);

            let base = pseudo_values(m, 99);
            let mut expect_ext = base.clone();
            for j in (1..m).rev() {
                expect_ext[j] = v.mul_add(t[j + l - 1], expect_ext[j - 1] - dropped * t[j - 1]);
            }
            let mut expect_app = base.clone();
            for j in (1..m).rev() {
                expect_app[j] = cross[j + l - 1] + (expect_app[j - 1] - dropped * t[j - 1]);
            }

            for level in test_levels() {
                let _g = crate::testkit::force_level(level);
                let mut got = base.clone();
                advance_dots_extend(v, dropped, &t, l, &mut got);
                assert!(
                    got.iter().zip(&expect_ext).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "extend shift diverged at m={m} {level:?}: {got:?} vs {expect_ext:?}"
                );

                let mut got = base.clone();
                advance_dots_append(&cross, dropped, &t, l, &mut got);
                assert!(
                    got.iter().zip(&expect_app).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "append shift diverged at m={m} {level:?}: {got:?} vs {expect_app:?}"
                );
            }
        }
    }

    /// Tiny triangles: every ragged shape (fewer diagonals than lanes,
    /// one-cell diagonals) goes through the remainder paths.
    #[test]
    fn ragged_edges_match_the_reference() {
        let series = gen::random_walk(40, 3);
        for l in [4usize, 6, 8] {
            let engine = StompEngine::new(&series, l).unwrap();
            let m = engine.num_windows();
            for first_diag in [1usize, 2, m.saturating_sub(3).max(1), m.saturating_sub(1).max(1)] {
                if first_diag >= m {
                    continue;
                }
                for workers in [1usize, 2, 5] {
                    let reference: Vec<Stage1Part> = (0..workers)
                        .map(|w| reference_walk(&engine, first_diag, w, workers, 2))
                        .collect();
                    let want = merged(reference, l);
                    for level in test_levels() {
                        let kernel: Vec<Stage1Part> = (0..workers)
                            .map(|w| stage1_walk(&engine, first_diag, w, workers, 2, level))
                            .collect();
                        assert_eq!(
                            merged(kernel, l),
                            want,
                            "diverged at l={l}, first_diag={first_diag}, workers={workers}, \
                             {level:?}"
                        );
                    }
                }
            }
        }
    }

    /// The `idx32` hard-assert: a mocked dimension at the u32 boundary
    /// must panic loudly instead of wrapping — in release builds too.
    #[test]
    fn idx32_asserts_instead_of_wrapping() {
        assert_eq!(idx32(0), 0);
        assert_eq!(idx32(u32::MAX as usize - 1), u32::MAX - 1);
        let err = std::panic::catch_unwind(|| idx32(u32::MAX as usize)).unwrap_err();
        let msg = err.downcast_ref::<String>().map(String::as_str).unwrap_or_default();
        assert!(msg.contains("exceeds the u32 profile index space"), "unexpected panic: {msg}");
        assert!(std::panic::catch_unwind(|| idx32(usize::MAX)).is_err());
    }
}
