#![warn(missing_docs)]

//! Self-contained FFT substrate for the VALMOD suite.
//!
//! The MASS distance-profile algorithm (used by STAMP and by VALMOD's
//! recomputation fallback) needs sliding dot products of a query against a
//! long series, which are most efficiently computed as an FFT-based
//! convolution. This crate provides everything required, from scratch:
//!
//! * [`Complex64`] — minimal complex arithmetic,
//! * [`Fft`] — a planned, iterative radix-2 FFT (forward and inverse) on
//!   interleaved complex buffers: scalar, and the bit-for-bit reference
//!   of the lane-parallel transform below,
//! * [`RealFft`] — real-input transforms at half-size complex cost. The
//!   half-size transform runs on split real/imaginary planes, so every
//!   butterfly is lane-wise arithmetic on [`simd::F64Lanes`] at the width
//!   [`simd::simd_level`] selects; pairs of radix-2 stages share one
//!   memory pass, and a forward of a short (zero-padded) input skips the
//!   stages that only copy values. Every output bit equals [`Fft`]'s,
//! * [`convolve`] / [`convolve_naive`] — real linear convolution,
//! * [`sliding_dot_product`] — the MASS primitive: all dot products of a
//!   query with every window of a series.
//!
//! # Example
//!
//! ```
//! use valmod_fft::sliding_dot_product;
//!
//! let series = [1.0, 2.0, 3.0, 4.0, 5.0];
//! let query = [1.0, 1.0];
//! let qt = sliding_dot_product(&query, &series);
//! assert_eq!(qt.len(), 4);
//! assert!((qt[0] - 3.0).abs() < 1e-9); // 1*1 + 1*2
//! assert!((qt[3] - 9.0).abs() < 1e-9); // 1*4 + 1*5
//! ```

mod complex;
mod convolve;
mod fft;
mod real;
pub mod simd;
mod sliding;
mod split;

pub use complex::Complex64;
pub use convolve::{convolve, convolve_naive};
pub use fft::Fft;
pub use real::{PackedBuffer, RealFft};
pub use sliding::{
    naive_is_faster, sliding_dot_product, sliding_dot_product_naive,
    sliding_dot_product_naive_into, SlidingDotPlan, SlidingDotScratch,
};

/// Whether the portable (non-`core::arch`) code paths are currently
/// forced — by the `VALMOD_FORCE_PORTABLE` environment knob (read once
/// per process and cached; see [`simd::env_force_portable`]) or by an
/// in-process [`simd::override_simd`] guard.
///
/// Every SIMD dispatch site in the suite — the stage-1 diagonal kernel
/// and stage-2 dot-advance in `valmod-core`, and the vectorized naive
/// sliding dot here — routes through [`simd::simd_level`], which folds
/// this in before its CPU-feature check, so CI can exercise the portable
/// lanes on AVX2/AVX-512 runners (`VALMOD_FORCE_PORTABLE=1`) instead of
/// shipping them untested. The portable paths are byte-identical to the
/// packed ones by construction, so forcing them must never change
/// results — which is exactly what the forced rerun of the equality
/// suites pins.
#[must_use]
pub fn force_portable() -> bool {
    simd::portable_forced()
}

/// Smallest power of two greater than or equal to `n`.
///
/// Used to size FFT buffers for linear convolution.
///
/// # Panics
///
/// Panics if `n` exceeds `1 << 62` (far beyond any series this suite
/// processes).
#[must_use]
pub fn next_pow2(n: usize) -> usize {
    assert!(n <= (1usize << 62), "FFT size overflow: {n}");
    n.next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::next_pow2;

    #[test]
    fn next_pow2_basics() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(4), 4);
        assert_eq!(next_pow2(5), 8);
        assert_eq!(next_pow2(1023), 1024);
        assert_eq!(next_pow2(1024), 1024);
        assert_eq!(next_pow2(1025), 2048);
    }
}
