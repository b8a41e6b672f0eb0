//! Anytime stage 1: the SCRIMP++-style seeded-shuffle diagonal
//! scheduler behind [`Quality::Anytime`](crate::Quality).
//!
//! The eager stage 1 walks every diagonal block of the QT matrix in one
//! pass. The anytime tier walks the *same* blocks — the register-tiled
//! kernel per block, never a scalar fork — but in a seeded shuffled
//! order split into `budget` rounds, emitting after each round an
//! [`AnytimePreview`]: the interim VALMAP built from the cells retired
//! so far, plus a convergence estimate (fraction of cells retired,
//! VALMAP entry churn against the previous round).
//!
//! # Why the settled result is byte-identical
//!
//! Stage 1's merged state is a pure function of the *set* of retired
//! cells, not their order: per-row selectors reduce under the total
//! order "(ρ desc, offset asc)" and per-row bests under "(d asc, offset
//! asc)" (see [`crate::partial`] and [`crate::kernel`]). The shuffled
//! rounds partition exactly the diagonal blocks the eager walk visits,
//! each worker part merges through the same
//! [`Stage1Part::absorb`](crate::kernel) reduction, and the final
//! profile/rows come from the same [`crate::algo::rows_from_part`]
//! tail — so once every block retires, the output bits equal the eager
//! walk's for every seed, budget, SIMD lane width, and worker count
//! (pinned by the `anytime_settles_to_exact` proptest).
//!
//! # Warm rounds
//!
//! Each round's workers start from the merged accumulator of the rounds
//! before, not from scratch: their selector thresholds (kept as a floor
//! the cached thresholds never drop below) and their y-space best bounds
//! are seeded from it, so a round skips the offers and best folds the
//! merged state already rejects. This is exact after *every* round, not
//! only the last:
//!
//! * an offer with `ρ` strictly below the merged threshold ranks below
//!   the `p` entries the accumulator keeps, so it cannot enter the
//!   merged top-`p` — and it is still counted through
//!   `count_rejected`, so the offered count and truncation flag match;
//! * a cell whose distance is above the merged best cannot win the
//!   lexicographic "(d asc, j asc)" min, while every equal distance
//!   still reaches the fold.
//!
//! So `acc.absorb(part)` yields the same state for a warm part as for a
//! cold one, and every preview is bit-identical to what cold rounds
//! would show. The round's blocks are split across workers into
//! contiguous runs balanced by cell count, the same rule that splits the
//! shuffled list into rounds.

use valmod_mp::stomp::StompEngine;
use valmod_mp::MatrixProfile;
use valmod_obs as obs;

use crate::algo::{flat_stage1_cell, rows_from_part, stage1_worker_count};
use crate::config::ValmodConfig;
use crate::kernel::{self, Stage1Part};
use crate::partial::{PartialRow, TopRhoSelector};
use crate::valmap::Valmap;

/// One improving VALMAP preview emitted after an anytime stage-1 round.
#[derive(Debug, Clone)]
pub struct AnytimePreview {
    /// 1-based index of the round that just retired.
    pub round: usize,
    /// Total number of rounds this run is split into (≤ the requested
    /// budget when there are fewer diagonal blocks than rounds).
    pub rounds: usize,
    /// QT cells retired so far, across all rounds.
    pub cells_retired: u64,
    /// Total QT cells stage 1 will retire.
    pub cells_total: u64,
    /// Fraction of VALMAP entries whose (distance bits, match offset)
    /// changed versus the previous round's preview; `1.0` for the first
    /// round. A churn near zero means the preview has stopped moving
    /// even though cells remain.
    pub churn: f64,
    /// The interim VALMAP at `ℓmin`, built from the per-row bests of
    /// every cell retired so far. Settles to the exact base VALMAP.
    pub valmap: Valmap,
}

impl AnytimePreview {
    /// Fraction of stage-1 cells retired — the primary convergence
    /// estimate, in `[0, 1]`.
    #[must_use]
    pub fn convergence(&self) -> f64 {
        if self.cells_total == 0 {
            1.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.cells_retired as f64 / self.cells_total as f64
            }
        }
    }

    /// Whether every diagonal block has retired (the preview VALMAP now
    /// *is* the exact base VALMAP).
    #[must_use]
    pub fn settled(&self) -> bool {
        self.cells_retired == self.cells_total
    }
}

/// `splitmix64` — the seed expander behind the shuffled block order.
/// Small, fast, and dependency-free; preview orders only need to be
/// deterministic and well-spread, not cryptographic.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded Fisher–Yates shuffle of the diagonal-block starts.
fn shuffle(blocks: &mut [usize], seed: u64) {
    let mut state = seed;
    for i in (1..blocks.len()).rev() {
        #[allow(clippy::cast_possible_truncation)]
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        blocks.swap(i, j);
    }
}

/// Cells on the diagonals of the block starting at `k0` (tile `t`,
/// matrix of `m` windows): each diagonal `k` holds `m − k` cells.
fn block_cells(k0: usize, tile: usize, m: usize) -> u64 {
    (k0..(k0 + tile).min(m)).map(|k| (m - k) as u64).sum()
}

/// Splits a block list, order kept, into at most `parts` contiguous
/// runs balanced by *cell* count (blocks near the diagonal's start carry
/// far more cells). It cuts the shuffled list into rounds, so the first
/// preview lands after ≈ `1/budget` of the work wherever the shuffle put
/// the heavy blocks, and each round into its workers' shares.
fn split_by_cells(blocks: &[usize], tile: usize, m: usize, parts: usize) -> Vec<Vec<usize>> {
    let total: u64 = blocks.iter().map(|&k0| block_cells(k0, tile, m)).sum();
    let parts = parts.min(blocks.len()).max(1) as u64;
    let mut out: Vec<Vec<usize>> = Vec::new();
    let mut cur: Vec<usize> = Vec::new();
    let mut retired: u64 = 0;
    for &k0 in blocks {
        cur.push(k0);
        retired += block_cells(k0, tile, m);
        // Close the run once the cumulative cell count crosses the next
        // 1/parts boundary (the final run takes the remainder).
        let r = out.len() as u64 + 1;
        if r < parts && retired * parts >= total * r {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// The anytime tier's scalar worker for series with flat (σ ≈ 0)
/// windows: the listed diagonals through the exact per-cell body the
/// eager flat walk uses ([`flat_stage1_cell`]), one
/// [`StompEngine::walk_diagonals`] pass per diagonal.
fn flat_listed_worker(
    engine: &StompEngine,
    config: &ValmodConfig,
    blocks: &[usize],
    tile: usize,
) -> Stage1Part {
    let l0 = config.l_min;
    let m = engine.num_windows();
    let means = engine.means();
    let stds = engine.stds();
    let mut part = Stage1Part::new(m, config.profile_size);
    for &k0 in blocks {
        for k in k0..(k0 + tile).min(m) {
            // Stride `m` visits exactly the one diagonal `k`.
            engine.walk_diagonals(k, m, |i, j, qt| {
                flat_stage1_cell(&mut part, l0, means, stds, i, j, qt);
            });
        }
    }
    part
}

/// The interim VALMAP after some rounds: the per-row bests accumulated
/// so far, through the same profile/VALMAP constructors the exact path
/// uses, so the settled preview is bitwise the exact base VALMAP.
fn preview_valmap(acc: &Stage1Part, l0: usize, excl: usize, m: usize) -> Valmap {
    let mut mp = MatrixProfile::unfilled(l0, excl, m);
    for i in 0..m {
        if acc.best_j[i] != u32::MAX {
            mp.offer(i, acc.best_d[i], acc.best_j[i] as usize);
        }
    }
    Valmap::from_base_profile(&mp)
}

/// Fraction of VALMAP entries that differ between consecutive previews,
/// comparing distance *bits* and match offsets — the churn estimate.
fn valmap_churn(prev: &Valmap, cur: &Valmap) -> f64 {
    let m = cur.mpn.len();
    if m == 0 {
        return 0.0;
    }
    let changed = (0..m)
        .filter(|&i| prev.mpn[i].to_bits() != cur.mpn[i].to_bits() || prev.ip[i] != cur.ip[i])
        .count();
    #[allow(clippy::cast_precision_loss)]
    {
        changed as f64 / m as f64
    }
}

/// Clamped permille encoding for the convergence/churn gauges.
#[allow(clippy::cast_possible_truncation)]
fn permille(x: f64) -> i64 {
    (x * 1000.0).clamp(0.0, 1000.0) as i64
}

/// Anytime stage 1: walks the diagonal blocks in a seeded shuffled
/// order across at most `budget` rounds, invoking `on_preview` after
/// each, and returns **the same** `(MatrixProfile, Vec<PartialRow>)`
/// bits the eager [`crate::algo::stage_one`] would (see the module
/// docs for the argument).
pub(crate) fn stage_one_anytime(
    engine: &StompEngine,
    config: &ValmodConfig,
    budget: usize,
    on_preview: &mut dyn FnMut(&AnytimePreview),
) -> (MatrixProfile, Vec<PartialRow>) {
    let l0 = config.l_min;
    let m = engine.num_windows();
    let excl = config.exclusion(l0);
    let mut mp = MatrixProfile::unfilled(l0, excl, m);
    let first_diag = excl + 1;
    if first_diag >= m {
        // No admissible pair at all — nothing to preview.
        let rows = (0..m).map(|_| TopRhoSelector::new(config.profile_size).into_row(l0)).collect();
        return (mp, rows);
    }

    // One dispatch decision for the whole stage (the tile grid depends
    // on the lane width), exactly like the eager walk.
    let level = valmod_fft::simd::simd_level();
    let tile = 2 * level.width();
    let mut blocks: Vec<usize> = (first_diag..m).step_by(tile).collect();
    shuffle(&mut blocks, config.seed);
    let rounds = split_by_cells(&blocks, tile, m, budget);
    let cells_total: u64 = blocks.iter().map(|&k0| block_cells(k0, tile, m)).sum();

    let num_workers = stage1_worker_count(config, m, first_diag);
    let has_flat = engine.has_flat_windows();

    let mut acc = Stage1Part::new(m, config.profile_size);
    let mut cells_retired: u64 = 0;
    let mut prev_valmap: Option<Valmap> = None;
    let total_rounds = rounds.len();
    for (r, round_blocks) in rounds.iter().enumerate() {
        // Each worker claims a contiguous, cell-balanced run of the
        // round's shuffled list and starts warm from the rounds before:
        // any split, warm or cold, merges to the same state (see the
        // module docs).
        let shares = split_by_cells(round_blocks, tile, m, num_workers);
        let parts = config.pool().run(shares.len(), |w| {
            if has_flat {
                flat_listed_worker(engine, config, &shares[w], tile)
            } else {
                kernel::stage1_walk_listed(
                    engine,
                    &shares[w],
                    config.profile_size,
                    level,
                    Some(&acc),
                )
            }
        });
        for part in &parts {
            acc.absorb(part);
        }
        let round_cells: u64 = round_blocks.iter().map(|&k0| block_cells(k0, tile, m)).sum();
        cells_retired += round_cells;

        let valmap = preview_valmap(&acc, l0, excl, m);
        let churn = prev_valmap.as_ref().map_or(1.0, |prev| valmap_churn(prev, &valmap));
        let preview = AnytimePreview {
            round: r + 1,
            rounds: total_rounds,
            cells_retired,
            cells_total,
            churn,
            valmap,
        };
        obs::count!(anytime_rounds, 1);
        obs::count!(anytime_cells_retired, round_cells);
        obs::metrics().anytime_convergence_permille.set(permille(preview.convergence()));
        obs::metrics().anytime_churn_permille.set(permille(churn));
        on_preview(&preview);
        prev_valmap = Some(preview.valmap);
    }
    debug_assert_eq!(cells_retired, cells_total);

    let rows = rows_from_part(acc, &mut mp, l0);
    (mp, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let base: Vec<usize> = (0..37).map(|q| 5 + q * 16).collect();
        let mut a = base.clone();
        let mut b = base.clone();
        shuffle(&mut a, 42);
        shuffle(&mut b, 42);
        assert_eq!(a, b, "same seed, same order");
        let mut c = base.clone();
        shuffle(&mut c, 43);
        assert_ne!(a, c, "different seed moves something");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, base, "shuffle is a permutation");
    }

    #[test]
    fn rounds_partition_the_blocks_and_balance_cells() {
        let m = 5000usize;
        let tile = 16usize;
        let first_diag = 13usize;
        let mut blocks: Vec<usize> = (first_diag..m).step_by(tile).collect();
        shuffle(&mut blocks, 7);
        let total: u64 = blocks.iter().map(|&k0| block_cells(k0, tile, m)).sum();
        for budget in [1usize, 2, 4, 9, 1000] {
            let rounds = split_by_cells(&blocks, tile, m, budget);
            assert!(rounds.len() <= budget.min(blocks.len()));
            let mut flat: Vec<usize> = rounds.iter().flatten().copied().collect();
            assert_eq!(flat, blocks, "rounds keep the shuffled order");
            flat.sort_unstable();
            let mut want = blocks.clone();
            want.sort_unstable();
            assert_eq!(flat, want, "rounds partition the blocks");
            // The first round retires at most its 1/rounds share plus
            // one block (the boundary crosser).
            let first: u64 = rounds[0].iter().map(|&k0| block_cells(k0, tile, m)).sum();
            let max_block: u64 = blocks.iter().map(|&k0| block_cells(k0, tile, m)).max().unwrap();
            assert!(
                first <= total / rounds.len() as u64 + max_block,
                "budget {budget}: first round {first} of {total}"
            );
        }
    }

    #[test]
    fn permille_clamps() {
        assert_eq!(permille(0.0), 0);
        assert_eq!(permille(0.253), 253);
        assert_eq!(permille(1.0), 1000);
        assert_eq!(permille(7.5), 1000);
        assert_eq!(permille(-0.5), 0);
    }
}
