//! Sliding dot products — the core primitive of the MASS algorithm.
//!
//! Given a query `q` of length `m` and a series `t` of length `n ≥ m`, the
//! sliding dot product is the vector `QT` with
//! `QT[i] = Σ_{k<m} q[k]·t[i+k]` for `i in 0..=n-m`. Computing it as a
//! cross-correlation in the frequency domain costs O(n log n) instead of
//! O(n·m); both inputs are real, so the transforms run on the half-size
//! real-input path ([`crate::RealFft`]).

use crate::simd::{dispatch, F64Lanes, LaneKernel};
use crate::{next_pow2, PackedBuffer, RealFft};

/// Direct O(n·m) sliding dot product, used as a reference and for short
/// queries where it beats the FFT path.
///
/// Returns an empty vector when the query is empty or longer than the series.
#[must_use]
pub fn sliding_dot_product_naive(query: &[f64], series: &[f64]) -> Vec<f64> {
    let mut out = Vec::new();
    sliding_dot_product_naive_into(query, series, &mut out);
    out
}

/// [`sliding_dot_product_naive`] writing into a caller-provided vector
/// (cleared first), so hot loops can reuse the allocation.
///
/// # Performance
///
/// Each output is a fused multiply-add *chain* over the query — a serial
/// dependency, so a scalar loop is FMA-latency-bound (~4–5 cycles per
/// element, which at paper scale made a single VALMOD recomputation row
/// cost tens of milliseconds). The hot path therefore computes **2·W
/// outputs at once** (two width-`W` accumulators, written once against
/// [`crate::simd::F64Lanes`] and instantiated at W=4 under AVX2+FMA and
/// W=8 under AVX-512): the independent chains hide the latency, and every
/// `series` load serves `W` adjacent outputs. Lane `i` still accumulates
/// `q[0]·t[i]`, `q[1]·t[i+1]`, … in exactly the scalar order, one fused
/// operation per term, so the vectorized outputs are **byte-identical**
/// to the scalar loop's at every width — the dispatch
/// ([`crate::simd::simd_level`]) selects an instruction encoding, never a
/// summation order.
pub fn sliding_dot_product_naive_into(query: &[f64], series: &[f64], out: &mut Vec<f64>) {
    out.clear();
    let m = query.len();
    let n = series.len();
    if m == 0 || m > n {
        return;
    }
    out.reserve(n - m + 1);
    dispatch(NaiveDot { query, series, out }, n - m + 1);
}

/// The naive kernel as a dispatchable kernel.
struct NaiveDot<'a> {
    query: &'a [f64],
    series: &'a [f64],
    out: &'a mut Vec<f64>,
}

impl LaneKernel for NaiveDot<'_> {
    type Output = ();

    #[inline(always)]
    fn run<const W: usize, B: F64Lanes<W>>(self, b: B) {
        naive_into_lanes::<W, B>(b, self.query, self.series, self.out);
    }
}

/// The lane-generic naive kernel body: `2·W` output positions per
/// iteration (two accumulators to hide FMA latency), each lane running
/// the scalar accumulation chain verbatim (see
/// [`sliding_dot_product_naive_into`] for the bit-identity argument).
#[inline(always)]
fn naive_into_lanes<const W: usize, B: F64Lanes<W>>(
    b: B,
    query: &[f64],
    series: &[f64],
    out: &mut Vec<f64>,
) {
    let m = query.len();
    let n = series.len();
    let outputs = n - m + 1;
    let block = 2 * W;
    let mut buf_lo = [0.0f64; W];
    let mut buf_hi = [0.0f64; W];
    let mut i = 0;
    while i + block <= outputs {
        let mut acc_lo = b.splat(0.0);
        let mut acc_hi = b.splat(0.0);
        // Term `k` loads `series[i + k .. i + k + 2W]`; the highest index
        // touched is `i + (m − 1) + 2W − 1 ≤ (outputs − 2W) + m + 2W − 2 =
        // n − 1`, so the slice-checked lane loads never panic.
        for (k, &q) in query.iter().enumerate() {
            let qv = b.splat(q);
            acc_lo = b.mul_add(qv, b.load(&series[i + k..]), acc_lo);
            acc_hi = b.mul_add(qv, b.load(&series[i + k + W..]), acc_hi);
        }
        b.store(acc_lo, &mut buf_lo);
        b.store(acc_hi, &mut buf_hi);
        out.extend_from_slice(&buf_lo);
        out.extend_from_slice(&buf_hi);
        i += block;
    }
    // Remainder outputs: the scalar chain (identical arithmetic).
    for i in i..outputs {
        let window = &series[i..i + m];
        let mut acc = 0.0;
        for (q, w) in query.iter().zip(window) {
            acc = q.mul_add(*w, acc);
        }
        out.push(acc);
    }
}

/// Cost-model dispatch between the naive and FFT sliding-dot paths.
///
/// `transforms` is how many size-`S` transforms the FFT path pays: 3 for a
/// one-shot product (series forward, query forward, one inverse) and 2 when
/// a prebuilt [`SlidingDotPlan`] amortizes the series transform. The naive
/// path costs one fused multiply-add per `(query, window)` pair; the FFT
/// path costs ~`S·log2(S)` butterfly-equivalents per transform with
/// `S = next_pow2(2n)`. Short queries always go naive: their inner loop
/// vectorizes and has no setup cost.
///
/// # Bit contract
///
/// The cutoff is part of every caller's output bits, not only of its
/// speed: the naive and FFT paths round differently, so moving a query
/// length across it changes the dot products, then the distances, and
/// with them the pinned result checksums. Routing the ℓ = 80 rows of a
/// 30k-point ECG series to the naive path, for instance, changes a
/// benchmark series' pinned checksum. Do not retune it for speed; a move
/// is a change of results.
#[must_use]
pub fn naive_is_faster(m: usize, n: usize, transforms: u32) -> bool {
    if m == 0 || m > n || m <= 32 {
        return true;
    }
    let size = next_pow2((2 * n).max(2)) as u64;
    let naive_cost = (m as u64).saturating_mul((n - m + 1) as u64);
    let fft_cost = u64::from(transforms).saturating_mul(size * u64::from(size.trailing_zeros()));
    naive_cost <= fft_cost
}

/// Sliding dot product of `query` against every window of `series`.
///
/// Picks the naive or the FFT algorithm based on [`naive_is_faster`] with
/// the one-shot cost (3 transforms). For repeated queries against the same
/// series, prefer [`SlidingDotPlan`], which reuses the series spectrum.
#[must_use]
pub fn sliding_dot_product(query: &[f64], series: &[f64]) -> Vec<f64> {
    let m = query.len();
    let n = series.len();
    if m == 0 || m > n {
        return Vec::new();
    }
    if naive_is_faster(m, n, 3) {
        return sliding_dot_product_naive(query, series);
    }
    SlidingDotPlan::new(series).dot(query)
}

/// A reusable plan holding the real-input FFT of a series, so that many
/// queries (as in STAMP, or VALMOD's per-row recomputation) each cost one
/// forward and one inverse half-size transform instead of two full complex
/// forward ones.
///
/// A query of `m` samples fills `⌈m/2⌉` of the forward transform's `N/2`
/// slots, so its forward skips the stages a sparse input does not need
/// (see [`RealFft`]). Output bits equal the scalar [`crate::Fft`]
/// formulation at every SIMD dispatch level.
#[derive(Debug, Clone)]
pub struct SlidingDotPlan {
    rfft: RealFft,
    /// Forward half-spectrum of the (zero-padded) series, split planes.
    series_re: Vec<f64>,
    series_im: Vec<f64>,
    series_len: usize,
}

/// Reusable buffers for [`SlidingDotPlan::dot_into`]. One instance per
/// thread; create with [`SlidingDotPlan::scratch`].
#[derive(Debug, Clone)]
pub struct SlidingDotScratch {
    /// The query's packed transform, then the correlation.
    packed: PackedBuffer,
    /// The correlation spectrum, before the inverse transform.
    spectrum: PackedBuffer,
}

impl SlidingDotPlan {
    /// Builds a plan for the given series.
    ///
    /// The FFT size is the next power of two of `2 * series.len()`, large
    /// enough for any query length up to the series length.
    #[must_use]
    pub fn new(series: &[f64]) -> Self {
        let n = series.len();
        let rfft = RealFft::new(next_pow2((2 * n).max(2)));
        let mut packed = rfft.packed_buffer();
        let mut spectrum = rfft.spectrum_buffer();
        rfft.forward(series, &mut packed, &mut spectrum);
        let (series_re, series_im) = spectrum.iter().map(|z| (z.re, z.im)).unzip();
        Self { rfft, series_re, series_im, series_len: n }
    }

    /// Length of the series this plan was built for.
    #[inline]
    #[must_use]
    pub fn series_len(&self) -> usize {
        self.series_len
    }

    /// Allocates scratch buffers sized for this plan.
    #[must_use]
    pub fn scratch(&self) -> SlidingDotScratch {
        SlidingDotScratch { packed: self.rfft.packed_buffer(), spectrum: self.rfft.packed_buffer() }
    }

    /// Sliding dot product of `query` against the planned series.
    ///
    /// Returns an empty vector when the query is empty or longer than the
    /// series. Allocates fresh buffers per call — use [`Self::dot_into`]
    /// with a reused [`SlidingDotScratch`] on hot paths.
    #[must_use]
    pub fn dot(&self, query: &[f64]) -> Vec<f64> {
        let mut scratch = self.scratch();
        let mut out = Vec::new();
        self.dot_into(query, &mut scratch, &mut out);
        out
    }

    /// Sliding dot product written into `out` (cleared first), reusing
    /// `scratch` — the allocation-free variant for per-row recomputation
    /// loops.
    ///
    /// The dot products are computed as a cross-correlation,
    /// `IFFT(conj(Q)·T)`, which needs no reversed-query copy.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` was built for a different plan size.
    pub fn dot_into(&self, query: &[f64], scratch: &mut SlidingDotScratch, out: &mut Vec<f64>) {
        out.clear();
        let m = query.len();
        let n = self.series_len;
        if m == 0 || m > n {
            return;
        }
        let SlidingDotScratch { packed, spectrum } = scratch;
        self.rfft.pack_transform(query, packed);
        self.rfft.correlate(packed, &self.series_re, &self.series_im, spectrum);
        out.resize(n - m + 1, 0.0);
        self.rfft.unpack(packed, out);
    }
}

#[cfg(test)]
mod tests {
    use super::{naive_is_faster, sliding_dot_product, sliding_dot_product_naive, SlidingDotPlan};
    use crate::next_pow2;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < tol, "mismatch at {i}: {x} vs {y}");
        }
    }

    fn pseudo_series(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 2654435761) % 1000) as f64 / 100.0 - 5.0).collect()
    }

    #[test]
    fn empty_and_oversized_queries() {
        assert!(sliding_dot_product(&[], &[1.0, 2.0]).is_empty());
        assert!(sliding_dot_product(&[1.0, 2.0, 3.0], &[1.0, 2.0]).is_empty());
        assert!(sliding_dot_product_naive(&[], &[]).is_empty());
        assert!(SlidingDotPlan::new(&[1.0, 2.0]).dot(&[1.0, 2.0, 3.0]).is_empty());
    }

    #[test]
    fn naive_matches_hand_computation() {
        let qt = sliding_dot_product_naive(&[1.0, 2.0], &[3.0, 4.0, 5.0]);
        assert_close(&qt, &[11.0, 14.0], 1e-12); // 1*3+2*4, 1*4+2*5
    }

    #[test]
    fn query_equal_to_series_gives_single_dot() {
        let s = [1.0, -2.0, 3.0];
        let qt = sliding_dot_product(&s, &s);
        assert_close(&qt, &[14.0], 1e-9);
    }

    #[test]
    fn fft_plan_matches_naive() {
        let series = pseudo_series(700);
        for &m in &[1usize, 2, 33, 128, 400, 700] {
            let query = &series[7.min(700 - m)..7.min(700 - m) + m];
            let plan = SlidingDotPlan::new(&series);
            let fast = plan.dot(query);
            let slow = sliding_dot_product_naive(query, &series);
            assert_close(&fast, &slow, 1e-5);
        }
    }

    #[test]
    fn dispatcher_matches_naive_across_cutoff() {
        let series = pseudo_series(1200);
        for &m in &[8usize, 32, 33, 64, 256] {
            let query: Vec<f64> = series[100..100 + m].to_vec();
            let fast = sliding_dot_product(&query, &series);
            let slow = sliding_dot_product_naive(&query, &series);
            assert_close(&fast, &slow, 1e-5);
        }
    }

    #[test]
    fn plan_is_reusable_across_queries() {
        let series = pseudo_series(512);
        let plan = SlidingDotPlan::new(&series);
        assert_eq!(plan.series_len(), 512);
        for &m in &[40usize, 41, 100] {
            let query: Vec<f64> = series[3..3 + m].to_vec();
            assert_close(&plan.dot(&query), &sliding_dot_product_naive(&query, &series), 1e-6);
        }
    }

    #[test]
    fn scratch_variant_matches_allocating_dot() {
        let series = pseudo_series(900);
        let plan = SlidingDotPlan::new(&series);
        let mut scratch = plan.scratch();
        let mut out = Vec::new();
        for &m in &[50usize, 51, 300, 900] {
            let query: Vec<f64> = series[0..m].to_vec();
            plan.dot_into(&query, &mut scratch, &mut out);
            assert_eq!(out, plan.dot(&query), "scratch path diverged at m={m}");
            assert_close(&out, &sliding_dot_product_naive(&query, &series), 1e-5);
        }
        // Oversized query clears the output instead of leaving stale data.
        plan.dot_into(&vec![0.0; 901], &mut scratch, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn vectorized_naive_is_byte_identical_to_scalar() {
        // Every width's lanes each run the scalar accumulation chain
        // verbatim, so every output must match the scalar chain bit for
        // bit — including ragged tails (outputs % 2W ≠ 0) and queries
        // spanning the whole series. The override sweeps the dispatch
        // levels in-process; levels the CPU cannot encode fall back to
        // the portable lanes at the same width.
        for forced in crate::real::reference::LEVELS {
            let _g = crate::simd::override_simd(forced);
            for n in [9usize, 64, 257, 1000] {
                let series = pseudo_series(n);
                for m in [1usize, 2, 7, 33, 80, n] {
                    if m > n {
                        continue;
                    }
                    let query: Vec<f64> = series[(n - m) / 2..(n - m) / 2 + m].to_vec();
                    let scalar: Vec<f64> = series
                        .windows(m)
                        .map(|w| query.iter().zip(w).fold(0.0, |acc, (q, x)| q.mul_add(*x, acc)))
                        .collect();
                    let dispatched = super::sliding_dot_product_naive(&query, &series);
                    assert_eq!(scalar.len(), dispatched.len());
                    for (i, (a, b)) in scalar.iter().zip(&dispatched).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "lane output diverged at {forced:?} n={n} m={m} i={i}: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fft_dot_is_bit_identical_to_scalar_fft_path() {
        // `dot_into` (sparse query forward, fused untangle-product-retangle
        // pass, split-plane inverse) against the scalar interleaved `Fft`
        // formulation of the same cross-correlation, at every dispatch
        // level. The last query carries a `−0.0`, which must route the
        // forward through the full transform.
        use crate::real::reference;
        for level in reference::LEVELS {
            let _g = crate::simd::override_simd(level);
            for n in [700usize, 4096, 30_000] {
                let series = pseudo_series(n);
                let plan = SlidingDotPlan::new(&series);
                let size = next_pow2(2 * n);
                let series_spectrum = reference::forward(&series, size);
                let mut scratch = plan.scratch();
                let mut out = Vec::new();
                for m in [33usize, 64, 80, 400] {
                    let start = (n - m) / 3;
                    let mut query = series[start..start + m].to_vec();
                    if m == 400 {
                        query[7] = -0.0;
                    }
                    plan.dot_into(&query, &mut scratch, &mut out);
                    let product: Vec<_> = reference::forward(&query, size)
                        .iter()
                        .zip(&series_spectrum)
                        .map(|(q, s)| q.conj() * *s)
                        .collect();
                    let want = reference::inverse(&product, size);
                    assert_eq!(out.len(), n - m + 1);
                    for (i, (a, b)) in out.iter().zip(&want).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{level:?} n={n} m={m} i={i}: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cost_model_prefers_naive_for_short_series() {
        // The regression the model fixes: a mid-size query over a short
        // series (m·n above the old 2^14 area threshold) where the padded
        // FFT clearly loses to m·(n−m+1) fused multiply-adds.
        assert!(naive_is_faster(40, 500, 3));
        // Tiny queries are always naive.
        assert!(naive_is_faster(8, 1_000_000, 3));
        // Long queries over long series belong to the FFT.
        assert!(!naive_is_faster(1024, 16_384, 3));
        assert!(!naive_is_faster(4096, 100_000, 2));
        // Degenerate shapes fall back to naive (which returns empty).
        assert!(naive_is_faster(0, 10, 3));
        assert!(naive_is_faster(20, 10, 3));
    }
}
