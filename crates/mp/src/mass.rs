//! MASS — Mueen's Algorithm for Similarity Search.
//!
//! A *distance profile* is the vector of z-normalized distances between one
//! query window and every window of a series. MASS v2 computes it with a
//! single FFT-based sliding dot product plus O(1)-per-window statistics,
//! for O(n log n) total — the primitive behind STAMP and behind VALMOD's
//! recomputation fallback.

use std::sync::atomic::{AtomicU64, Ordering};

use valmod_fft::{
    naive_is_faster, sliding_dot_product_naive, sliding_dot_product_naive_into, SlidingDotPlan,
    SlidingDotScratch,
};
use valmod_series::znorm::zdist_from_dot;
use valmod_series::{Result, RollingStats};

use crate::{shifted, validate_window};

/// Reusable buffers for [`DistanceProfiler::self_profile_into`] — one per
/// thread. Holds the FFT working set plus the dot-product and profile
/// vectors, so repeated profile computations (VALMOD's recomputation
/// fallback, STAMP's row loop) allocate nothing per row.
#[derive(Debug)]
pub struct ProfileScratch {
    /// FFT working set, built on first use — profiles dispatched to the
    /// naive kernel (short windows) never pay for it.
    dots: Option<SlidingDotScratch>,
    qt: Vec<f64>,
    profile: Vec<f64>,
    /// The window means and standard deviations of the profiler and
    /// length in `stats_key` (`(profiler id, l)`; `None`: nothing yet), so
    /// rows of one length pay the division and square root per window
    /// once. They are the profiler's own `mean`/`std` calls, so the same
    /// bits.
    stats_key: Option<(u64, usize)>,
    means: Vec<f64>,
    stds: Vec<f64>,
}

/// Reusable distance-profile engine for one series.
///
/// Construction costs one FFT of the (padded) series and one prefix-sum
/// pass; each subsequent profile costs one forward+inverse FFT.
///
/// # Example
///
/// ```
/// use valmod_mp::DistanceProfiler;
///
/// let series: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).sin()).collect();
/// let profiler = DistanceProfiler::new(&series).unwrap();
/// let profile = profiler.self_profile(0, 16).unwrap();
/// assert_eq!(profile.len(), 64 - 16 + 1);
/// assert!(profile[0] < 1e-6); // a window matches itself exactly
/// ```
#[derive(Debug)]
pub struct DistanceProfiler {
    values: Vec<f64>,
    plan: SlidingDotPlan,
    stats: RollingStats,
    /// Process-unique, so a [`ProfileScratch`] handed to another profiler
    /// never serves it this one's window statistics.
    id: u64,
}

impl DistanceProfiler {
    /// Builds the engine (FFT plan + rolling statistics).
    ///
    /// # Errors
    ///
    /// [`valmod_series::SeriesError::TooShort`] for series shorter than the
    /// minimal window.
    pub fn new(series: &[f64]) -> Result<Self> {
        validate_window(series.len(), crate::MIN_WINDOW)?;
        let values = shifted(series);
        let plan = SlidingDotPlan::new(&values);
        let stats = RollingStats::new(&values);
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        Ok(Self { values, plan, stats, id })
    }

    /// Length of the underlying series.
    #[must_use]
    pub fn series_len(&self) -> usize {
        self.values.len()
    }

    /// The rolling statistics of the (mean-shifted) series.
    #[must_use]
    pub fn stats(&self) -> &RollingStats {
        &self.stats
    }

    /// Allocates scratch buffers sized for this profiler, for use with
    /// [`Self::self_profile_into`]. One instance per thread.
    #[must_use]
    pub fn scratch(&self) -> ProfileScratch {
        ProfileScratch {
            dots: None,
            qt: Vec::new(),
            profile: Vec::new(),
            stats_key: None,
            means: Vec::new(),
            stds: Vec::new(),
        }
    }

    /// Distance profile of the series' own subsequence `(offset, l)`
    /// against every window of length `l`.
    ///
    /// Trivial matches are **not** excluded here — entry `offset` is 0 —
    /// because different callers need different exclusion policies.
    ///
    /// Allocates per call; hot loops should hold a [`ProfileScratch`] and
    /// use [`Self::self_profile_into`], which computes exactly the same
    /// values.
    ///
    /// # Errors
    ///
    /// [`valmod_series::SeriesError::InvalidSubsequence`] when the query
    /// window does not fit, [`valmod_series::SeriesError::TooShort`] for
    /// windows below the minimum.
    pub fn self_profile(&self, offset: usize, l: usize) -> Result<Vec<f64>> {
        let mut scratch = self.scratch();
        self.self_profile_into(offset, l, &mut scratch)?;
        Ok(std::mem::take(&mut scratch.profile))
    }

    /// [`Self::self_profile`] into reusable buffers: the allocation-free
    /// variant for per-row loops. The profile is returned as a borrow of
    /// `scratch`.
    ///
    /// # Errors
    ///
    /// Same as [`Self::self_profile`].
    pub fn self_profile_into<'a>(
        &self,
        offset: usize,
        l: usize,
        scratch: &'a mut ProfileScratch,
    ) -> Result<&'a [f64]> {
        validate_window(self.values.len(), l)?;
        if offset + l > self.values.len() {
            return Err(valmod_series::SeriesError::InvalidSubsequence {
                offset,
                length: l,
                series_len: self.values.len(),
            });
        }
        let query = &self.values[offset..offset + l];
        if naive_is_faster(l, self.values.len(), 2) {
            sliding_dot_product_naive_into(query, &self.values, &mut scratch.qt);
        } else {
            let dots = scratch.dots.get_or_insert_with(|| self.plan.scratch());
            self.plan.dot_into(query, dots, &mut scratch.qt);
        }
        if scratch.stats_key != Some((self.id, l)) {
            let windows = 0..=self.values.len() - l;
            scratch.means.clear();
            scratch.means.extend(windows.clone().map(|j| self.stats.mean(j, l)));
            scratch.stds.clear();
            scratch.stds.extend(windows.map(|j| self.stats.std(j, l)));
            scratch.stats_key = Some((self.id, l));
        }
        let (mu_q, sig_q) = (scratch.means[offset], scratch.stds[offset]);
        profile_from_dots_into(
            &scratch.qt,
            l,
            (mu_q, sig_q),
            (&scratch.means, &scratch.stds),
            &mut scratch.profile,
        );
        Ok(&scratch.profile)
    }

    /// Distance profile of an *external* query against every window of the
    /// series (`query.len()` determines the window length).
    ///
    /// # Errors
    ///
    /// [`valmod_series::SeriesError::TooShort`] when the query is shorter
    /// than the minimal window or longer than the series.
    pub fn query_profile(&self, query: &[f64]) -> Result<Vec<f64>> {
        let l = query.len();
        if l < crate::MIN_WINDOW {
            return Err(valmod_series::SeriesError::TooShort { len: l, needed: crate::MIN_WINDOW });
        }
        if l > self.values.len() {
            return Err(valmod_series::SeriesError::TooShort { len: self.values.len(), needed: l });
        }
        // The engine's series is mean-shifted; shifting the query by any
        // constant leaves z-normalized distances unchanged, so we can use
        // the query as-is.
        let qt = if naive_is_faster(l, self.values.len(), 2) {
            sliding_dot_product_naive(query, &self.values)
        } else {
            self.plan.dot(query)
        };
        let mu_q = query.iter().sum::<f64>() / l as f64;
        let var_q = query.iter().map(|x| (x - mu_q) * (x - mu_q)).sum::<f64>() / l as f64;
        let windows = (&self.stats.means_for_length(l)[..], &self.stats.stds_for_length(l)[..]);
        let mut out = Vec::new();
        profile_from_dots_into(&qt, l, (mu_q, var_q.sqrt()), windows, &mut out);
        Ok(out)
    }
}

/// The z-normalized distances from a query, with mean and standard
/// deviation `(mu_q, sig_q)` and sliding dots `qt`, to every window, with
/// means and standard deviations `(means, stds)`.
fn profile_from_dots_into(
    qt: &[f64],
    l: usize,
    (mu_q, sig_q): (f64, f64),
    (means, stds): (&[f64], &[f64]),
    out: &mut Vec<f64>,
) {
    out.clear();
    out.extend(
        qt.iter()
            .zip(means.iter().zip(stds))
            .map(|(&dot, (&mu, &sig))| zdist_from_dot(dot, l, mu_q, sig_q, mu, sig)),
    );
}

/// Brute-force distance profile used as the correctness reference: directly
/// z-normalizes each pair of windows. O(n·ℓ).
///
/// # Errors
///
/// Same validation as [`DistanceProfiler::self_profile`].
pub fn distance_profile_brute(series: &[f64], offset: usize, l: usize) -> Result<Vec<f64>> {
    validate_window(series.len(), l)?;
    if offset + l > series.len() {
        return Err(valmod_series::SeriesError::InvalidSubsequence {
            offset,
            length: l,
            series_len: series.len(),
        });
    }
    let query = &series[offset..offset + l];
    Ok((0..=series.len() - l)
        .map(|j| valmod_series::znorm::zdist(query, &series[j..j + l]))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use valmod_series::gen;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < tol, "mismatch at {i}: {x} vs {y}");
        }
    }

    #[test]
    fn self_profile_matches_brute_force() {
        let series = gen::random_walk(400, 11);
        let profiler = DistanceProfiler::new(&series).unwrap();
        for &(offset, l) in &[(0usize, 16usize), (100, 50), (350, 50), (0, 300)] {
            let fast = profiler.self_profile(offset, l).unwrap();
            let slow = distance_profile_brute(&series, offset, l).unwrap();
            assert_close(&fast, &slow, 1e-6);
        }
    }

    #[test]
    fn self_match_distance_is_zero() {
        let series = gen::sine_mix(300, &[(37.0, 1.0)], 0.05, 3);
        let profiler = DistanceProfiler::new(&series).unwrap();
        for offset in [0usize, 13, 250] {
            let p = profiler.self_profile(offset, 32).unwrap();
            assert!(p[offset] < 1e-6, "self-distance at {offset} is {}", p[offset]);
        }
    }

    #[test]
    fn query_profile_matches_self_profile_for_internal_query() {
        let series = gen::random_walk(500, 5);
        let profiler = DistanceProfiler::new(&series).unwrap();
        let l = 64;
        let offset = 123;
        let by_offset = profiler.self_profile(offset, l).unwrap();
        let by_query = profiler.query_profile(&series[offset..offset + l]).unwrap();
        assert_close(&by_offset, &by_query, 1e-6);
    }

    #[test]
    fn query_profile_is_shift_invariant() {
        let series = gen::random_walk(300, 9);
        let profiler = DistanceProfiler::new(&series).unwrap();
        let query: Vec<f64> = series[40..104].to_vec();
        let shifted_query: Vec<f64> = query.iter().map(|v| v + 1000.0).collect();
        let a = profiler.query_profile(&query).unwrap();
        let b = profiler.query_profile(&shifted_query).unwrap();
        assert_close(&a, &b, 1e-5);
    }

    #[test]
    fn flat_windows_follow_convention() {
        // Series with a flat plateau: windows inside the plateau are flat.
        let mut series = gen::white_noise(200, 2, 1.0);
        for v in &mut series[50..100] {
            *v = 3.0;
        }
        let profiler = DistanceProfiler::new(&series).unwrap();
        let l = 16;
        // flat query
        let p = profiler.self_profile(60, l).unwrap();
        // Flat query vs flat window -> 0; vs wavy window -> sqrt(l).
        assert!(p[70] < 1e-9);
        assert!((p[0] - (l as f64).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn scratch_variant_matches_allocating_profile() {
        let series = gen::random_walk(600, 21);
        let profiler = DistanceProfiler::new(&series).unwrap();
        let mut scratch = profiler.scratch();
        for &(offset, l) in &[(0usize, 16usize), (123, 64), (250, 300), (0, 450), (40, 64), (3, 64)]
        {
            let fast = profiler.self_profile_into(offset, l, &mut scratch).unwrap().to_vec();
            let slow = profiler.self_profile(offset, l).unwrap();
            assert_eq!(fast.len(), slow.len());
            for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "scratch path diverged at ({offset},{l}),{i}");
            }
        }
        assert!(profiler.self_profile_into(595, 16, &mut scratch).is_err());
        // Handed to another profiler of the same series length, the
        // scratch must not serve the first one's window statistics.
        let other = DistanceProfiler::new(&gen::random_walk(600, 22)).unwrap();
        let shared = other.self_profile_into(40, 64, &mut scratch).unwrap().to_vec();
        let fresh = other.self_profile(40, 64).unwrap();
        assert!(shared.iter().zip(&fresh).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn errors_on_bad_inputs() {
        let series = gen::random_walk(100, 1);
        let profiler = DistanceProfiler::new(&series).unwrap();
        assert!(profiler.self_profile(0, 2).is_err()); // below MIN_WINDOW
        assert!(profiler.self_profile(97, 8).is_err()); // window does not fit
        assert!(profiler.query_profile(&[1.0; 200]).is_err()); // query longer than series
        assert!(DistanceProfiler::new(&[1.0, 2.0]).is_err()); // tiny series
    }

    #[test]
    fn brute_profile_validates_inputs() {
        let series = gen::random_walk(50, 1);
        assert!(distance_profile_brute(&series, 49, 4).is_err());
        assert!(distance_profile_brute(&series, 0, 3).is_err());
        assert!(distance_profile_brute(&series, 0, 4).is_ok());
    }
}
