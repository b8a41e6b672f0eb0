//! The cross-kernel differential harness: every stage-1 kernel variant ×
//! lane override × thread count, over proptest-generated adversarial
//! series, asserting **byte-equal** merged selector state, bests, and
//! end-to-end checksums.
//!
//! Variants come from `testkit::test_levels()` — both portable widths
//! plus whichever packed backends (AVX2 4-lane, AVX-512 8-lane) the CPU
//! offers; on machines without AVX-512 the 8-lane slot is the portable
//! stand-in at the same width, so the width-dependent blocking is always
//! differenced even when the instruction encoding can't be. The scalar
//! cells are exercised through every ragged `first_diag`/tail shape the
//! generator produces, and the in-crate `kernel` tests additionally pin
//! all of this against the pre-kernel closure-based scalar walk.
//!
//! Adversarial shapes covered: planted motifs (selector churn), exactly
//! repeated windows (distinct `y` sharing one square root, equal-distance
//! ties across tile seams), ±0.0 runs (sign-sensitive bit comparisons), overflow-scale values whose
//! dot products reach ±∞ and whose correlations go NaN (stage-1 only —
//! the NaN-clamp convention is the kernel's, see `kernel::clamp_rho`),
//! flat windows (kernel bypass, differenced end-to-end), and series
//! lengths leaving every remainder of diagonals per register tile.
//!
//! Case count respects `PROPTEST_CASES` (the nightly CI job raises it);
//! the default keeps the suite inside a tier-1 budget.

use proptest::prelude::*;
use valmod_core::testkit::{
    force_level, has_flat_windows, output_checksum, stage1_snapshot, test_levels,
};
use valmod_core::{run_valmod, ValmodConfig};
use valmod_series::gen;

/// Explicit `PROPTEST_CASES` support: the proptest macro's `with_cases`
/// overrides the env var, so read it ourselves to let nightly CI scale
/// this harness up without rebuilding.
fn cases(default_n: u32) -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default_n)
}

/// Deterministic adversarial series: a structured base (walk / ECG /
/// sines) with seed-driven mutations — a planted motif pair, a ±0.0 run,
/// and optionally overflow-scale spikes (`1e150`, whose ℓ-term dot
/// products overflow to ±∞ and whose correlations divide to NaN).
fn adversarial(kind: usize, n: usize, seed: u64, spikes: bool) -> Vec<f64> {
    let mut v = match kind % 4 {
        0 => gen::random_walk(n, seed),
        1 => gen::ecg(n, &gen::EcgConfig::default(), seed),
        2 => gen::sine_mix(n, &[(n as f64 / 7.0, 1.0), (n as f64 / 3.0, 0.4)], 0.05, seed),
        _ => repeated(n, seed),
    };
    // Plant an exact motif pair (identical windows far apart).
    let w = 8 + (seed as usize) % 9;
    if n > 4 * w {
        let (a, b) = (seed as usize % (n / 3), n / 2 + seed as usize % (n / 3 - w));
        let pat: Vec<f64> = v[a..a + w].to_vec();
        v[b..b + w].copy_from_slice(&pat);
    }
    // A ±0.0 run: sign-sensitive for the bitwise comparisons downstream.
    let z = (seed as usize).wrapping_mul(31) % n.saturating_sub(4);
    v[z] = 0.0;
    v[z + 1] = -0.0;
    v[z + 2] = -0.0;
    if spikes {
        // Overflow-scale spikes: windows containing them drive QT to ±∞
        // and ρ to NaN — the clamp convention must agree on every path.
        let s = (seed as usize).wrapping_mul(17) % n;
        v[s] = 1e150;
        v[(s + n / 3) % n] = -1e150;
    }
    v
}

/// An exactly periodic series: one short random-walk pattern tiled end
/// to end, so windows a whole period apart are bit-identical. Their
/// correlations round to many distinct `y = 2ℓ(1−ρ)` values that share
/// one square root, and equal-distance ties land on many diagonals at
/// once — across register-tile seams and worker partitions — which is
/// where the kernel's y-space best test and its "(d asc, offset asc)"
/// tie-break must agree with the scalar walk.
fn repeated(n: usize, seed: u64) -> Vec<f64> {
    let period = 5 + (seed as usize) % 11;
    let pattern = gen::random_walk(period, seed);
    (0..n).map(|i| pattern[i % period]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(12)))]

    /// Stage 1, differenced at the source: byte-equal merged selector
    /// state (kept entries, ρ and qt bits, truncation flags) and per-row
    /// bests across every lane variant × worker count, on adversarial
    /// series including NaN-correlation spikes and ragged tile tails.
    #[test]
    fn stage1_state_is_byte_equal_across_variants(
        kind in 0usize..4,
        n in 150usize..400,
        seed in 0u64..1_000_000,
        spikes_bit in 0u64..2,
    ) {
        let spikes = spikes_bit == 1;
        let series = adversarial(kind, n, seed, spikes);
        let l = 8 + (seed as usize) % 17;          // straddles tile columns
        if has_flat_windows(&series, l) {
            return Ok(());                          // covered end-to-end below
        }
        let m = series.len() - l + 1;
        // Sweep the ragged shapes: anywhere from "everything vectorized"
        // to "last blocks all scalar".
        let first_diag = 1 + (seed as usize / 31) % (m - 1).max(1);
        let profile_size = 1 + (seed as usize / 7) % 6;

        let levels = test_levels();
        let reference = stage1_snapshot(&series, l, first_diag, 1, profile_size, levels[0]);
        for level in levels {
            for workers in [1usize, 2, 8] {
                let got = stage1_snapshot(&series, l, first_diag, workers, profile_size, level);
                prop_assert!(
                    got == reference,
                    "stage-1 state diverged: level={level:?} workers={workers} \
                     l={l} first_diag={first_diag} n={n} kind={kind} spikes={spikes}"
                );
            }
        }
    }

    /// End to end, differenced at the outputs: the motif checksum of a
    /// full VALMOD run is invariant under every lane override × thread
    /// count — covering stage 2 (entry-dot advance, MASS re-seeding with
    /// the prefilter) and the flat-window kernel bypass, which the
    /// stage-1 snapshot cannot.
    #[test]
    fn end_to_end_checksum_is_lane_invariant(
        kind in 0usize..4,
        n in 200usize..400,
        seed in 0u64..1_000_000,
        flat_bit in 0u64..2,
    ) {
        let flat_patch = flat_bit == 1;
        let mut series = adversarial(kind, n, seed, false);
        if flat_patch {
            // A constant stretch: flat windows route stage 1 to the
            // scalar distance-space walk.
            let at = (seed as usize).wrapping_mul(13) % (n / 2);
            let len = 24 + (seed as usize) % 16;
            for x in &mut series[at..(at + len).min(n)] {
                *x = 3.25;
            }
        }
        let l_min = 12 + (seed as usize) % 5;
        let config = ValmodConfig::new(l_min, l_min + 4).with_k(3).with_profile_size(4);

        let levels = test_levels();
        let reference = {
            let _g = force_level(levels[0]);
            output_checksum(&run_valmod(&series, &config).expect("valid workload"))
        };
        for level in levels {
            for threads in [1usize, 2, 8] {
                let _g = force_level(level);
                let config = config.clone().with_threads(threads);
                let got = output_checksum(&run_valmod(&series, &config).expect("valid workload"));
                prop_assert!(
                    got == reference,
                    "checksum diverged: level={level:?} threads={threads} \
                     l_min={l_min} n={n} kind={kind} flat={flat_patch} \
                     ({got:#018x} vs {reference:#018x})"
                );
            }
        }
    }
}
