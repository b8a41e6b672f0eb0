//! Property tests for the quality tiers: the anytime tier settles to
//! the byte-identical exact output across seeded orders × SIMD lanes ×
//! worker counts, and the screen tier's lower bounds are admissible
//! against true z-normalized distances.

use proptest::prelude::*;
use valmod_core::testkit::{force_level, output_checksum, test_levels};
use valmod_core::{
    run_valmod, run_valmod_observed, screen_series, Quality, Query, ValmodConfig, ValmodOutput,
};
use valmod_series::gen;
use valmod_series::znorm::zdist;

fn test_series(kind: usize, n: usize, seed: u64) -> Vec<f64> {
    match kind {
        0 => gen::random_walk(n, seed),
        1 => gen::ecg(n, &gen::EcgConfig::default(), seed),
        2 => {
            let pattern: Vec<f64> =
                (0..32).map(|i| (i as f64 / 32.0 * std::f64::consts::TAU * 2.0).sin()).collect();
            gen::planted_pair(n, &pattern, &[n / 7, n / 2 + n / 5], 0.02, seed).0
        }
        _ => {
            let mut s = gen::white_noise(n, seed, 1.0);
            for v in &mut s[n / 3..n / 3 + 60] {
                *v = 1.0; // plateau: exercise the scalar flat-path walk
            }
            s
        }
    }
}

/// Byte-equality of two outputs: pairs, VALMAP, and the pair checksum.
fn assert_outputs_identical(a: &ValmodOutput, b: &ValmodOutput) -> Result<(), TestCaseError> {
    prop_assert_eq!(output_checksum(a), output_checksum(b), "pair checksum differs");
    prop_assert_eq!(a.per_length.len(), b.per_length.len());
    for (ra, rb) in a.per_length.iter().zip(&b.per_length) {
        prop_assert_eq!(ra.length, rb.length);
        prop_assert_eq!(ra.pairs.len(), rb.pairs.len(), "pair count at length {}", ra.length);
        for (pa, pb) in ra.pairs.iter().zip(&rb.pairs) {
            prop_assert_eq!(
                (pa.a, pa.b, pa.distance.to_bits()),
                (pb.a, pb.b, pb.distance.to_bits()),
                "pair differs at length {}",
                ra.length
            );
        }
    }
    prop_assert_eq!(&a.valmap.ip, &b.valmap.ip);
    prop_assert_eq!(&a.valmap.lp, &b.valmap.lp);
    let a_bits: Vec<u64> = a.valmap.mpn.iter().map(|v| v.to_bits()).collect();
    let b_bits: Vec<u64> = b.valmap.mpn.iter().map(|v| v.to_bits()).collect();
    prop_assert_eq!(a_bits, b_bits, "VALMAP mpn differs");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The anytime tier settles to the byte-identical exact result for
    /// every seed, budget, SIMD lane width, and worker count — and its
    /// preview stream is well-formed: monotone retired cells, a settled
    /// final preview whose VALMAP bit-equals the exact base VALMAP.
    #[test]
    fn anytime_settles_to_exact(
        seed in 0u64..100_000,
        order_seed in 0u64..100_000,
        budget in 1usize..7,
        kind in 0usize..4,
    ) {
        let series = test_series(kind, 700, seed);
        let config = ValmodConfig::new(18, 26).with_k(3).with_profile_size(4).with_threads(1);
        let exact = run_valmod(&series, &config).unwrap();
        // The settled preview is the VALMAP *at the base length* — the
        // state before any stage-2 length step touched it.
        let exact_base = valmod_core::Valmap::from_base_profile(&exact.base_profile);
        let exact_base_bits: Vec<u64> = exact_base.mpn.iter().map(|v| v.to_bits()).collect();

        for level in test_levels() {
            let _guard = force_level(level);
            let mut one_thread_previews = Vec::new();
            for threads in [1usize, 3] {
                let anytime_config = Query::from_config(config.clone())
                    .threads(threads)
                    .quality(Quality::Anytime { budget })
                    .seed(order_seed)
                    .into_config();
                let mut previews: Vec<(usize, u64, u64, f64, Vec<u64>)> = Vec::new();
                let out = run_valmod_observed(&series, &anytime_config, &mut |p| {
                    previews.push((
                        p.round,
                        p.cells_retired,
                        p.cells_total,
                        p.churn,
                        p.valmap.mpn.iter().map(|v| v.to_bits()).collect(),
                    ));
                })
                .unwrap();
                assert_outputs_identical(&out, &exact)?;

                prop_assert!(!previews.is_empty());
                prop_assert!(previews.len() <= budget, "more rounds than the budget");
                let mut prev_retired = 0;
                for (i, p) in previews.iter().enumerate() {
                    prop_assert_eq!(p.0, i + 1, "round numbering");
                    prop_assert!(p.1 > prev_retired, "cells retired must grow");
                    prev_retired = p.1;
                }
                let last = previews.last().unwrap();
                prop_assert_eq!(last.1, last.2, "final preview must be settled");
                prop_assert_eq!(
                    &last.4, &exact_base_bits,
                    "settled preview VALMAP differs from the exact base \
                     (level {:?}, threads {}, seed {})",
                    level, threads, order_seed
                );
                prop_assert!((previews[0].3 - 1.0).abs() < 1e-12, "first churn is 1.0");
                // Every round, not just the settled one, is a pure
                // function of the blocks retired so far: each worker
                // starts warm from the merged state of the earlier
                // rounds, and how the round's blocks are split across
                // workers must not show in any preview — retired cells,
                // churn, or VALMAP bits (so neither does the first
                // preview's agreement with the exact base).
                let preview_bits: Vec<_> = previews
                    .iter()
                    .map(|p| (p.0, p.1, p.2, p.3.to_bits(), p.4.clone()))
                    .collect();
                if threads == 1 {
                    one_thread_previews = preview_bits;
                } else {
                    prop_assert!(
                        preview_bits == one_thread_previews,
                        "previews depend on the worker split (level {:?}, seed {})",
                        level, order_seed
                    );
                }
            }
        }
    }

    /// Screen-tier admissibility: every screened candidate's lower bound
    /// is ≤ the true z-normalized distance of that pair at that length,
    /// on random-walk / ECG / planted-motif series.
    #[test]
    fn screen_bounds_are_admissible(seed in 0u64..100_000, kind in 0usize..3) {
        let series = test_series(kind, 500, seed);
        let config = ValmodConfig::new(14, 24).with_k(3).with_profile_size(4);
        let report = screen_series(&series, &config).unwrap();
        prop_assert_eq!(report.lengths.len(), 10);
        for sl in &report.lengths {
            for c in &sl.candidates {
                let true_d = zdist(
                    &series[c.offset..c.offset + c.length],
                    &series[c.match_offset..c.match_offset + c.length],
                );
                prop_assert!(
                    c.lower_bound <= true_d + 1e-5,
                    "screen bound {} above true distance {} at length {} ({}, {})",
                    c.lower_bound, true_d, c.length, c.offset, c.match_offset
                );
            }
        }
    }
}
