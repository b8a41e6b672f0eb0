//! Width-generic `f64` SIMD lanes and the suite-wide dispatch state.
//!
//! Every vectorized hot path in the suite — the stage-1 diagonal walk and
//! the dot-advance kernels in `valmod-core`, the streaming shifts reusing
//! them, and the naive sliding dot in this crate — is written **once**
//! against the [`F64Lanes`] trait and instantiated at whatever lane width
//! the dispatch picks:
//!
//! | [`SimdLevel`]          | backend      | width | requires                  |
//! |------------------------|--------------|-------|---------------------------|
//! | [`SimdLevel::Avx512`]  | [`Avx512`]   | 8     | AVX-512 F/DQ/VL + AVX2+FMA|
//! | [`SimdLevel::Avx2`]    | [`Avx2`]     | 4     | AVX2 + FMA                |
//! | [`SimdLevel::Portable8`] | [`Portable`] | 8   | nothing (lane-exact stand-in) |
//! | [`SimdLevel::Portable4`] | [`Portable`] | 4   | nothing                   |
//!
//! The portable backend evaluates the *same expression tree* per lane in
//! scalar IEEE-754 arithmetic (`mul_add` where the packed op is a fused
//! multiply-add, x86 select semantics for min/max), so every instantiation
//! of a lane-generic kernel is byte-identical to every other — which is
//! what the `kernel_differential` harness in `valmod-core` pins across
//! widths, encodings, and thread counts.
//!
//! # Dispatch
//!
//! [`simd_level`] resolves, in priority order:
//!
//! 1. the `VALMOD_FORCE_PORTABLE` / `VALMOD_FORCE_WIDTH` environment knobs
//!    (each read **once per process** and cached — flipping them later has
//!    no effect, keeping the chosen paths consistent for the whole run);
//! 2. the in-process test override installed via [`override_simd`] (the
//!    environment always wins over the override, so a CI matrix entry
//!    exporting `VALMOD_FORCE_PORTABLE=1` pins the portable lanes even
//!    while a differential test flips widths);
//! 3. the CPU: the widest supported packed encoding, AVX-512 before AVX2
//!    before portable.
//!
//! Forcing a width the CPU cannot encode packed (e.g. `Width8` on an
//! AVX2-only machine) selects the portable stand-in at that width, so the
//! 8-lane *tiling structure* stays testable everywhere.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Lane-width-generic `f64` vector operations.
///
/// Implementors are zero-sized *capability tokens*: holding a value of a
/// packed backend type proves the required CPU features were verified at
/// runtime (their safe constructors check; the `unsafe` escape hatches
/// document the obligation), which is what makes the trait's methods safe
/// to call.
///
/// Semantics contract (what makes instantiations byte-identical):
///
/// * [`F64Lanes::mul_add`] is a *fused* multiply-add on every backend;
/// * [`F64Lanes::max`] is `if a > b { a } else { b }` per lane and
///   [`F64Lanes::min`] is `if a < b { a } else { b }` — the x86
///   `vmaxpd`/`vminpd` select convention, which lands NaN inputs on the
///   second operand instead of propagating;
/// * comparisons are IEEE quiet predicates (false on NaN);
/// * every other op is the exactly-rounded IEEE-754 double operation.
pub trait F64Lanes<const W: usize>: Copy {
    /// The vector of `W` lanes.
    type V: Copy;
    /// The per-lane comparison mask.
    type M: Copy;

    /// All lanes set to `x`.
    fn splat(self, x: f64) -> Self::V;
    /// Loads lanes from `src[..W]`.
    ///
    /// # Panics
    ///
    /// Panics if `src` holds fewer than `W` elements.
    fn load(self, src: &[f64]) -> Self::V;
    /// Stores lanes to `dst[..W]`.
    ///
    /// # Panics
    ///
    /// Panics if `dst` holds fewer than `W` elements.
    fn store(self, v: Self::V, dst: &mut [f64]);
    /// The lanes as an array.
    fn to_array(self, v: Self::V) -> [f64; W];
    /// A vector from an array.
    fn pack(self, a: [f64; W]) -> Self::V;

    /// Lane-wise `a + b`.
    fn add(self, a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise `a - b`.
    fn sub(self, a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise `a * b`.
    fn mul(self, a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise `a / b`.
    fn div(self, a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise square root.
    fn sqrt(self, a: Self::V) -> Self::V;
    /// Lane-wise fused `a * b + c` (one rounding).
    fn mul_add(self, a: Self::V, b: Self::V, c: Self::V) -> Self::V;
    /// Lane-wise `if a > b { a } else { b }` (x86 `vmaxpd` semantics).
    fn max(self, a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise `if a < b { a } else { b }` (x86 `vminpd` semantics).
    fn min(self, a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise `-a`: a sign-bit flip, exact for every input (NaN
    /// included), like scalar `-x`.
    fn neg(self, a: Self::V) -> Self::V;

    /// Lane-wise `a < b` (quiet: false on NaN).
    fn lt(self, a: Self::V, b: Self::V) -> Self::M;
    /// Lane-wise `a >= b` (quiet: false on NaN).
    fn ge(self, a: Self::V, b: Self::V) -> Self::M;
    /// Lane-wise `a == b` (quiet: false on NaN).
    fn eq(self, a: Self::V, b: Self::V) -> Self::M;
    /// Per lane: `if m { t } else { f }`.
    fn select(self, m: Self::M, t: Self::V, f: Self::V) -> Self::V;
    /// Lane-wise mask conjunction.
    fn mask_and(self, a: Self::M, b: Self::M) -> Self::M;
    /// Lane-wise mask disjunction.
    fn mask_or(self, a: Self::M, b: Self::M) -> Self::M;
    /// Bit `c` set iff lane `c` of the mask is set.
    fn mask_bits(self, m: Self::M) -> u32;

    /// Lanes shifted down one place with `x` inserted at the top:
    /// `[v[1], …, v[W−1], x]`.
    fn shift_in_high(self, v: Self::V, x: f64) -> Self::V;

    /// The lanes in reverse order, `[v[W−1], …, v[0]]` (exact bit move).
    fn reverse(self, v: Self::V) -> Self::V;

    /// One-lane shift across a register pair viewed as `2W` lanes:
    /// `[lo[1], …, lo[W−1], hi[0]]` — the low half of `(lo, hi)` shifted
    /// down with the high half's bottom lane pulled in (exact bit move,
    /// like [`F64Lanes::shift_in_high`]).
    #[inline(always)]
    fn shift_concat(self, lo: Self::V, hi: Self::V) -> Self::V {
        self.shift_in_high(lo, self.extract0(hi))
    }

    /// Lane 0.
    #[inline(always)]
    fn extract0(self, v: Self::V) -> f64 {
        self.to_array(v)[0]
    }
    /// Horizontal fold under the [`F64Lanes::max`] select convention. The
    /// fold order is unspecified — for the non-NaN inputs the kernels
    /// feed it, every order produces the same value.
    #[inline(always)]
    fn hmax(self, v: Self::V) -> f64 {
        let a = self.to_array(v);
        let mut acc = a[0];
        for &x in &a[1..] {
            acc = if x > acc { x } else { acc };
        }
        acc
    }
    /// Horizontal fold under the [`F64Lanes::min`] select convention; same
    /// order caveat as [`F64Lanes::hmax`].
    #[inline(always)]
    fn hmin(self, v: Self::V) -> f64 {
        let a = self.to_array(v);
        let mut acc = a[0];
        for &x in &a[1..] {
            acc = if x < acc { x } else { acc };
        }
        acc
    }
}

/// The portable backend: plain `[f64; W]` arrays, scalar IEEE-754 ops per
/// lane — the lane-exact stand-in every packed backend is measured
/// against. Works at any width on any architecture.
#[derive(Clone, Copy, Debug, Default)]
pub struct Portable;

impl<const W: usize> F64Lanes<W> for Portable {
    type V = [f64; W];
    type M = [bool; W];

    #[inline(always)]
    fn splat(self, x: f64) -> Self::V {
        [x; W]
    }
    #[inline(always)]
    fn load(self, src: &[f64]) -> Self::V {
        let mut v = [0.0; W];
        v.copy_from_slice(&src[..W]);
        v
    }
    #[inline(always)]
    fn store(self, v: Self::V, dst: &mut [f64]) {
        dst[..W].copy_from_slice(&v);
    }
    #[inline(always)]
    fn to_array(self, v: Self::V) -> [f64; W] {
        v
    }
    #[inline(always)]
    fn pack(self, a: [f64; W]) -> Self::V {
        a
    }

    #[inline(always)]
    fn add(self, a: Self::V, b: Self::V) -> Self::V {
        std::array::from_fn(|c| a[c] + b[c])
    }
    #[inline(always)]
    fn sub(self, a: Self::V, b: Self::V) -> Self::V {
        std::array::from_fn(|c| a[c] - b[c])
    }
    #[inline(always)]
    fn mul(self, a: Self::V, b: Self::V) -> Self::V {
        std::array::from_fn(|c| a[c] * b[c])
    }
    #[inline(always)]
    fn div(self, a: Self::V, b: Self::V) -> Self::V {
        std::array::from_fn(|c| a[c] / b[c])
    }
    #[inline(always)]
    fn sqrt(self, a: Self::V) -> Self::V {
        std::array::from_fn(|c| a[c].sqrt())
    }
    #[inline(always)]
    fn mul_add(self, a: Self::V, b: Self::V, c: Self::V) -> Self::V {
        std::array::from_fn(|l| a[l].mul_add(b[l], c[l]))
    }
    #[inline(always)]
    fn max(self, a: Self::V, b: Self::V) -> Self::V {
        std::array::from_fn(|c| if a[c] > b[c] { a[c] } else { b[c] })
    }
    #[inline(always)]
    fn min(self, a: Self::V, b: Self::V) -> Self::V {
        std::array::from_fn(|c| if a[c] < b[c] { a[c] } else { b[c] })
    }
    #[inline(always)]
    fn neg(self, a: Self::V) -> Self::V {
        std::array::from_fn(|c| -a[c])
    }

    #[inline(always)]
    fn lt(self, a: Self::V, b: Self::V) -> Self::M {
        std::array::from_fn(|c| a[c] < b[c])
    }
    #[inline(always)]
    fn ge(self, a: Self::V, b: Self::V) -> Self::M {
        std::array::from_fn(|c| a[c] >= b[c])
    }
    #[inline(always)]
    fn eq(self, a: Self::V, b: Self::V) -> Self::M {
        std::array::from_fn(|c| a[c] == b[c])
    }
    #[inline(always)]
    fn select(self, m: Self::M, t: Self::V, f: Self::V) -> Self::V {
        std::array::from_fn(|c| if m[c] { t[c] } else { f[c] })
    }
    #[inline(always)]
    fn mask_and(self, a: Self::M, b: Self::M) -> Self::M {
        std::array::from_fn(|c| a[c] && b[c])
    }
    #[inline(always)]
    fn mask_or(self, a: Self::M, b: Self::M) -> Self::M {
        std::array::from_fn(|c| a[c] || b[c])
    }
    #[inline(always)]
    fn mask_bits(self, m: Self::M) -> u32 {
        m.iter().enumerate().fold(0u32, |bits, (c, &lane)| bits | (u32::from(lane) << c))
    }

    #[inline(always)]
    fn shift_in_high(self, v: Self::V, x: f64) -> Self::V {
        std::array::from_fn(|c| if c + 1 < W { v[c + 1] } else { x })
    }
    #[inline(always)]
    fn reverse(self, v: Self::V) -> Self::V {
        std::array::from_fn(|c| v[W - 1 - c])
    }
}

/// The AVX2+FMA backend: 4 lanes in one 256-bit register.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug)]
pub struct Avx2 {
    _token: (),
}

#[cfg(target_arch = "x86_64")]
impl Avx2 {
    /// The backend, if this CPU supports AVX2 and FMA.
    #[must_use]
    pub fn new() -> Option<Self> {
        (std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma"))
            .then_some(Self { _token: () })
    }

    /// The backend without a runtime check.
    ///
    /// # Safety
    ///
    /// The caller must have verified that the CPU supports AVX2 and FMA;
    /// holding the returned token is the proof every method relies on.
    #[must_use]
    pub unsafe fn new_unchecked() -> Self {
        Self { _token: () }
    }
}

// SAFETY of every method body below: the `Avx2` token is only
// constructible after AVX2+FMA detection (`new`) or under the caller
// obligation of `new_unchecked`, so the intrinsics are supported;
// loads/stores use unaligned ops on slices whose length is checked by the
// `[..W]` reslice.
#[cfg(target_arch = "x86_64")]
impl F64Lanes<4> for Avx2 {
    type V = core::arch::x86_64::__m256d;
    type M = core::arch::x86_64::__m256d;

    #[inline(always)]
    fn splat(self, x: f64) -> Self::V {
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm256_set1_pd(x) }
    }
    #[inline(always)]
    fn load(self, src: &[f64]) -> Self::V {
        let src = &src[..4];
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm256_loadu_pd(src.as_ptr()) }
    }
    #[inline(always)]
    fn store(self, v: Self::V, dst: &mut [f64]) {
        let dst = &mut dst[..4];
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm256_storeu_pd(dst.as_mut_ptr(), v) }
    }
    #[inline(always)]
    fn to_array(self, v: Self::V) -> [f64; 4] {
        let mut a = [0.0; 4];
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm256_storeu_pd(a.as_mut_ptr(), v) };
        a
    }
    #[inline(always)]
    fn pack(self, a: [f64; 4]) -> Self::V {
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm256_loadu_pd(a.as_ptr()) }
    }

    #[inline(always)]
    fn add(self, a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm256_add_pd(a, b) }
    }
    #[inline(always)]
    fn sub(self, a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm256_sub_pd(a, b) }
    }
    #[inline(always)]
    fn mul(self, a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm256_mul_pd(a, b) }
    }
    #[inline(always)]
    fn div(self, a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm256_div_pd(a, b) }
    }
    #[inline(always)]
    fn sqrt(self, a: Self::V) -> Self::V {
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm256_sqrt_pd(a) }
    }
    #[inline(always)]
    fn mul_add(self, a: Self::V, b: Self::V, c: Self::V) -> Self::V {
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm256_fmadd_pd(a, b, c) }
    }
    #[inline(always)]
    fn max(self, a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm256_max_pd(a, b) }
    }
    #[inline(always)]
    fn min(self, a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm256_min_pd(a, b) }
    }
    #[inline(always)]
    fn neg(self, a: Self::V) -> Self::V {
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm256_xor_pd(a, core::arch::x86_64::_mm256_set1_pd(-0.0)) }
    }

    #[inline(always)]
    fn lt(self, a: Self::V, b: Self::V) -> Self::M {
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm256_cmp_pd::<{ core::arch::x86_64::_CMP_LT_OQ }>(a, b) }
    }
    #[inline(always)]
    fn ge(self, a: Self::V, b: Self::V) -> Self::M {
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm256_cmp_pd::<{ core::arch::x86_64::_CMP_GE_OQ }>(a, b) }
    }
    #[inline(always)]
    fn eq(self, a: Self::V, b: Self::V) -> Self::M {
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm256_cmp_pd::<{ core::arch::x86_64::_CMP_EQ_OQ }>(a, b) }
    }
    #[inline(always)]
    fn select(self, m: Self::M, t: Self::V, f: Self::V) -> Self::V {
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm256_blendv_pd(f, t, m) }
    }
    #[inline(always)]
    fn mask_and(self, a: Self::M, b: Self::M) -> Self::M {
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm256_and_pd(a, b) }
    }
    #[inline(always)]
    fn mask_or(self, a: Self::M, b: Self::M) -> Self::M {
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm256_or_pd(a, b) }
    }
    #[inline(always)]
    fn mask_bits(self, m: Self::M) -> u32 {
        // SAFETY: see the impl-level comment.
        #[allow(clippy::cast_sign_loss)]
        unsafe {
            core::arch::x86_64::_mm256_movemask_pd(m) as u32
        }
    }

    #[inline(always)]
    fn shift_in_high(self, v: Self::V, x: f64) -> Self::V {
        // SAFETY: see the impl-level comment.
        unsafe {
            // Lanes (1, 2, 3, ·) then insert `x` into the top lane.
            let rot = core::arch::x86_64::_mm256_permute4x64_pd::<0b11_11_10_01>(v);
            core::arch::x86_64::_mm256_blend_pd::<0b1000>(
                rot,
                core::arch::x86_64::_mm256_set1_pd(x),
            )
        }
    }

    #[inline(always)]
    fn reverse(self, v: Self::V) -> Self::V {
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm256_permute4x64_pd::<0b00_01_10_11>(v) }
    }

    #[inline(always)]
    fn shift_concat(self, lo: Self::V, hi: Self::V) -> Self::V {
        // SAFETY: see the impl-level comment.
        unsafe {
            // Lanes (lo1, lo2, lo3, ·) then insert hi0 into the top lane.
            let rot = core::arch::x86_64::_mm256_permute4x64_pd::<0b11_11_10_01>(lo);
            let hi0 = core::arch::x86_64::_mm256_permute4x64_pd::<0b00_00_00_00>(hi);
            core::arch::x86_64::_mm256_blend_pd::<0b1000>(rot, hi0)
        }
    }

    #[inline(always)]
    fn extract0(self, v: Self::V) -> f64 {
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm256_cvtsd_f64(v) }
    }

    // Tree reductions instead of the default store-and-scalar-chain fold:
    // a different fold order, which the trait contract allows (the value
    // is order-independent for the non-NaN inputs the kernels feed).
    #[inline(always)]
    fn hmax(self, v: Self::V) -> f64 {
        // SAFETY: see the impl-level comment.
        unsafe {
            use core::arch::x86_64::{
                _mm256_castpd256_pd128, _mm256_extractf128_pd, _mm_cvtsd_f64, _mm_max_pd,
                _mm_max_sd, _mm_unpackhi_pd,
            };
            let m = _mm_max_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd::<1>(v));
            _mm_cvtsd_f64(_mm_max_sd(m, _mm_unpackhi_pd(m, m)))
        }
    }
    #[inline(always)]
    fn hmin(self, v: Self::V) -> f64 {
        // SAFETY: see the impl-level comment.
        unsafe {
            use core::arch::x86_64::{
                _mm256_castpd256_pd128, _mm256_extractf128_pd, _mm_cvtsd_f64, _mm_min_pd,
                _mm_min_sd, _mm_unpackhi_pd,
            };
            let m = _mm_min_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd::<1>(v));
            _mm_cvtsd_f64(_mm_min_sd(m, _mm_unpackhi_pd(m, m)))
        }
    }
}

/// The AVX-512 backend: 8 lanes in one 512-bit register.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug)]
pub struct Avx512 {
    _token: (),
}

#[cfg(target_arch = "x86_64")]
impl Avx512 {
    /// The backend, if this CPU supports the required AVX-512 subsets
    /// (F/DQ/VL) plus AVX2+FMA for the 256-bit index arithmetic the
    /// gather kernels mix in.
    #[must_use]
    pub fn new() -> Option<Self> {
        (std::is_x86_feature_detected!("avx512f")
            && std::is_x86_feature_detected!("avx512dq")
            && std::is_x86_feature_detected!("avx512vl")
            && std::is_x86_feature_detected!("avx2")
            && std::is_x86_feature_detected!("fma"))
        .then_some(Self { _token: () })
    }

    /// The backend without a runtime check.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX-512 F/DQ/VL plus AVX2 and FMA;
    /// holding the returned token is the proof every method relies on.
    #[must_use]
    pub unsafe fn new_unchecked() -> Self {
        Self { _token: () }
    }
}

// SAFETY of every method body below: the `Avx512` token is only
// constructible after AVX-512 F/DQ/VL (+AVX2+FMA) detection (`new`) or
// under the caller obligation of `new_unchecked`; loads/stores use
// unaligned ops on slices whose length is checked by the `[..W]` reslice.
#[cfg(target_arch = "x86_64")]
impl F64Lanes<8> for Avx512 {
    type V = core::arch::x86_64::__m512d;
    type M = core::arch::x86_64::__mmask8;

    #[inline(always)]
    fn splat(self, x: f64) -> Self::V {
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm512_set1_pd(x) }
    }
    #[inline(always)]
    fn load(self, src: &[f64]) -> Self::V {
        let src = &src[..8];
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm512_loadu_pd(src.as_ptr()) }
    }
    #[inline(always)]
    fn store(self, v: Self::V, dst: &mut [f64]) {
        let dst = &mut dst[..8];
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm512_storeu_pd(dst.as_mut_ptr(), v) }
    }
    #[inline(always)]
    fn to_array(self, v: Self::V) -> [f64; 8] {
        let mut a = [0.0; 8];
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm512_storeu_pd(a.as_mut_ptr(), v) };
        a
    }
    #[inline(always)]
    fn pack(self, a: [f64; 8]) -> Self::V {
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm512_loadu_pd(a.as_ptr()) }
    }

    #[inline(always)]
    fn add(self, a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm512_add_pd(a, b) }
    }
    #[inline(always)]
    fn sub(self, a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm512_sub_pd(a, b) }
    }
    #[inline(always)]
    fn mul(self, a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm512_mul_pd(a, b) }
    }
    #[inline(always)]
    fn div(self, a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm512_div_pd(a, b) }
    }
    #[inline(always)]
    fn sqrt(self, a: Self::V) -> Self::V {
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm512_sqrt_pd(a) }
    }
    #[inline(always)]
    fn mul_add(self, a: Self::V, b: Self::V, c: Self::V) -> Self::V {
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm512_fmadd_pd(a, b, c) }
    }
    #[inline(always)]
    fn max(self, a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm512_max_pd(a, b) }
    }
    #[inline(always)]
    fn min(self, a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm512_min_pd(a, b) }
    }
    #[inline(always)]
    fn neg(self, a: Self::V) -> Self::V {
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm512_xor_pd(a, core::arch::x86_64::_mm512_set1_pd(-0.0)) }
    }

    #[inline(always)]
    fn lt(self, a: Self::V, b: Self::V) -> Self::M {
        // SAFETY: see the impl-level comment.
        unsafe {
            core::arch::x86_64::_mm512_cmp_pd_mask::<{ core::arch::x86_64::_CMP_LT_OQ }>(a, b)
        }
    }
    #[inline(always)]
    fn ge(self, a: Self::V, b: Self::V) -> Self::M {
        // SAFETY: see the impl-level comment.
        unsafe {
            core::arch::x86_64::_mm512_cmp_pd_mask::<{ core::arch::x86_64::_CMP_GE_OQ }>(a, b)
        }
    }
    #[inline(always)]
    fn eq(self, a: Self::V, b: Self::V) -> Self::M {
        // SAFETY: see the impl-level comment.
        unsafe {
            core::arch::x86_64::_mm512_cmp_pd_mask::<{ core::arch::x86_64::_CMP_EQ_OQ }>(a, b)
        }
    }
    #[inline(always)]
    fn select(self, m: Self::M, t: Self::V, f: Self::V) -> Self::V {
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm512_mask_blend_pd(m, f, t) }
    }
    #[inline(always)]
    fn mask_and(self, a: Self::M, b: Self::M) -> Self::M {
        a & b
    }
    #[inline(always)]
    fn mask_or(self, a: Self::M, b: Self::M) -> Self::M {
        a | b
    }
    #[inline(always)]
    fn mask_bits(self, m: Self::M) -> u32 {
        u32::from(m)
    }

    #[inline(always)]
    fn shift_in_high(self, v: Self::V, x: f64) -> Self::V {
        // SAFETY: see the impl-level comment.
        unsafe {
            use core::arch::x86_64::{
                _mm512_alignr_epi64, _mm512_castpd_si512, _mm512_castsi512_pd, _mm512_set1_pd,
            };
            // Concat(insert, v) >> 64 bits · 1: lanes (v1..v7, x).
            let ins = _mm512_castpd_si512(_mm512_set1_pd(x));
            _mm512_castsi512_pd(_mm512_alignr_epi64::<1>(ins, _mm512_castpd_si512(v)))
        }
    }

    #[inline(always)]
    fn reverse(self, v: Self::V) -> Self::V {
        // SAFETY: see the impl-level comment.
        unsafe {
            use core::arch::x86_64::{_mm512_permutexvar_pd, _mm512_set_epi64};
            _mm512_permutexvar_pd(_mm512_set_epi64(0, 1, 2, 3, 4, 5, 6, 7), v)
        }
    }

    #[inline(always)]
    fn shift_concat(self, lo: Self::V, hi: Self::V) -> Self::V {
        // SAFETY: see the impl-level comment.
        unsafe {
            use core::arch::x86_64::{
                _mm512_alignr_epi64, _mm512_castpd_si512, _mm512_castsi512_pd,
            };
            // Concat(hi, lo) >> one 64-bit lane: (lo1..lo7, hi0).
            _mm512_castsi512_pd(_mm512_alignr_epi64::<1>(
                _mm512_castpd_si512(hi),
                _mm512_castpd_si512(lo),
            ))
        }
    }

    #[inline(always)]
    fn extract0(self, v: Self::V) -> f64 {
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm512_cvtsd_f64(v) }
    }

    // Tree reductions (see the AVX2 note): order-free by the trait
    // contract, one `vminpd`/`vmaxpd` cascade instead of a scalar chain.
    #[inline(always)]
    fn hmax(self, v: Self::V) -> f64 {
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm512_reduce_max_pd(v) }
    }
    #[inline(always)]
    fn hmin(self, v: Self::V) -> f64 {
        // SAFETY: see the impl-level comment.
        unsafe { core::arch::x86_64::_mm512_reduce_min_pd(v) }
    }
}

/// A resolved dispatch decision: which backend, at which lane width, every
/// lane-generic kernel in the suite should instantiate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable backend at 4 lanes.
    Portable4,
    /// Portable backend at 8 lanes — the lane-exact stand-in for AVX-512
    /// on machines (or matrix entries) without it.
    Portable8,
    /// AVX2+FMA packed backend, 4 lanes.
    Avx2,
    /// AVX-512 packed backend, 8 lanes.
    Avx512,
}

impl SimdLevel {
    /// The lane width of this level (4 or 8).
    #[must_use]
    pub fn width(self) -> usize {
        match self {
            Self::Portable4 | Self::Avx2 => 4,
            Self::Portable8 | Self::Avx512 => 8,
        }
    }

    /// Whether this level uses a packed (`core::arch`) encoding.
    #[must_use]
    pub fn packed(self) -> bool {
        matches!(self, Self::Avx2 | Self::Avx512)
    }
}

/// A forced lane width (the `VALMOD_FORCE_WIDTH` axis).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaneWidth {
    /// 4 lanes (the AVX2-era width).
    W4,
    /// 8 lanes (the AVX-512 width).
    W8,
}

/// An in-process dispatch override — the injectable test knob.
///
/// Both axes compose with the environment, and the environment wins:
/// `VALMOD_FORCE_PORTABLE` forces `portable` regardless of the override,
/// and `VALMOD_FORCE_WIDTH` pins the width. Install via [`override_simd`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct SimdOverride {
    /// Force the portable backend (as `VALMOD_FORCE_PORTABLE` would).
    pub portable: bool,
    /// Force a lane width (as `VALMOD_FORCE_WIDTH` would).
    pub width: Option<LaneWidth>,
}

/// Encoded override state: 0 = none, else `1 + portable + (width << 1)`
/// with width 0 = unset, 1 = W4, 2 = W8.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Serializes override installation across tests in one process.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

fn decode_override(raw: u8) -> Option<SimdOverride> {
    if raw == 0 {
        return None;
    }
    let bits = raw - 1;
    Some(SimdOverride {
        portable: bits & 1 != 0,
        width: match bits >> 1 {
            1 => Some(LaneWidth::W4),
            2 => Some(LaneWidth::W8),
            _ => None,
        },
    })
}

fn encode_override(o: SimdOverride) -> u8 {
    let width = match o.width {
        None => 0u8,
        Some(LaneWidth::W4) => 1,
        Some(LaneWidth::W8) => 2,
    };
    1 + u8::from(o.portable) + (width << 1)
}

/// RAII guard of an installed [`SimdOverride`]; restores the previous
/// override state on drop. Holds a process-global lock so concurrent
/// tests cannot interleave their forced dispatch states.
pub struct SimdOverrideGuard {
    prev: u8,
    _lock: std::sync::MutexGuard<'static, ()>,
}

impl Drop for SimdOverrideGuard {
    fn drop(&mut self) {
        OVERRIDE.store(self.prev, Ordering::SeqCst);
    }
}

/// Installs an in-process dispatch override for the guard's lifetime.
///
/// This is the testability seam for the read-once environment knobs: the
/// differential harness flips lane widths and the portable backend
/// in-process, without subprocess spawns — while an actually-exported
/// `VALMOD_FORCE_PORTABLE`/`VALMOD_FORCE_WIDTH` still wins, so a CI
/// matrix entry keeps its meaning even while the harness runs under it.
#[must_use]
pub fn override_simd(o: SimdOverride) -> SimdOverrideGuard {
    let lock = OVERRIDE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let prev = OVERRIDE.swap(encode_override(o), Ordering::SeqCst);
    SimdOverrideGuard { prev, _lock: lock }
}

/// Whether the `VALMOD_FORCE_PORTABLE` environment knob demands the
/// portable lanes. Read **once per process** (first call) and cached;
/// flipping the variable afterwards has no effect — the in-process
/// alternative is [`override_simd`].
#[must_use]
pub fn env_force_portable() -> bool {
    static FORCED: OnceLock<bool> = OnceLock::new();
    *FORCED.get_or_init(|| {
        std::env::var("VALMOD_FORCE_PORTABLE").map(|v| !v.is_empty() && v != "0").unwrap_or(false)
    })
}

/// The `VALMOD_FORCE_WIDTH` environment knob (`4` or `8`; anything else
/// is ignored). Read once per process and cached, like
/// [`env_force_portable`].
#[must_use]
pub fn env_force_width() -> Option<LaneWidth> {
    static FORCED: OnceLock<Option<LaneWidth>> = OnceLock::new();
    *FORCED.get_or_init(|| match std::env::var("VALMOD_FORCE_WIDTH").ok().as_deref() {
        Some("4") => Some(LaneWidth::W4),
        Some("8") => Some(LaneWidth::W8),
        _ => None,
    })
}

/// Whether the portable axis is currently forced — by the
/// `VALMOD_FORCE_PORTABLE` environment knob (read-once semantics) or by
/// an installed [`override_simd`] guard.
#[must_use]
pub fn portable_forced() -> bool {
    env_force_portable()
        || decode_override(OVERRIDE.load(Ordering::SeqCst)).unwrap_or_default().portable
}

/// Whether the AVX2+FMA backend is encodable on this CPU.
#[must_use]
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        Avx2::new().is_some()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the AVX-512 backend is encodable on this CPU.
#[must_use]
pub fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        Avx512::new().is_some()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Resolves the dispatch decision every SIMD site in the suite follows:
/// environment knobs (cached at first read) over the in-process override
/// ([`override_simd`]) over CPU capability, widest packed encoding first.
/// A width forced beyond the CPU's packed capability selects the portable
/// stand-in at that width.
#[must_use]
pub fn simd_level() -> SimdLevel {
    let o = decode_override(OVERRIDE.load(Ordering::SeqCst)).unwrap_or_default();
    let portable = env_force_portable() || o.portable;
    let width = env_force_width().or(o.width);
    let width = width.unwrap_or(if avx512_available() { LaneWidth::W8 } else { LaneWidth::W4 });
    match (portable, width) {
        (true, LaneWidth::W4) => SimdLevel::Portable4,
        (true, LaneWidth::W8) => SimdLevel::Portable8,
        (false, LaneWidth::W4) => {
            if avx2_available() {
                SimdLevel::Avx2
            } else {
                SimdLevel::Portable4
            }
        }
        (false, LaneWidth::W8) => {
            if avx512_available() {
                SimdLevel::Avx512
            } else {
                SimdLevel::Portable8
            }
        }
    }
}

/// A lane-generic kernel body that [`dispatch`] instantiates at the width
/// and backend [`simd_level`] selects.
pub(crate) trait LaneKernel {
    /// What the kernel returns.
    type Output;
    /// The kernel body at width `W` on backend `b`. Implementations mark it
    /// `#[inline(always)]` so it compiles inside the `#[target_feature]`
    /// wrapper of each packed backend.
    fn run<const W: usize, B: F64Lanes<W>>(self, b: B) -> Self::Output;
}

/// Runs `kernel` at the level [`simd_level`] resolves, or on one portable
/// lane when `len` (the elements the kernel walks) is below that level's
/// width — the one dispatch seam of this crate's lane-generic kernels, so
/// the override sweep of the differential tests reaches all of them.
pub(crate) fn dispatch<K: LaneKernel>(kernel: K, len: usize) -> K::Output {
    let level = simd_level();
    if len < level.width() {
        return kernel.run::<1, _>(Portable);
    }
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => {
            let b = Avx512::new().expect("dispatch verified AVX-512");
            // SAFETY: the `Avx512` token proves the target features.
            unsafe { run_avx512(b, kernel) }
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            let b = Avx2::new().expect("dispatch verified AVX2+FMA");
            // SAFETY: the `Avx2` token proves the target features.
            unsafe { run_avx2(b, kernel) }
        }
        SimdLevel::Portable8 => kernel.run::<8, _>(Portable),
        _ => kernel.run::<4, _>(Portable),
    }
}

/// [`LaneKernel::run`] at W=8 under AVX-512.
///
/// # Safety
///
/// The `Avx512` token proves the CPU supports AVX-512 F/DQ/VL (+AVX2+FMA).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl,avx2,fma")]
unsafe fn run_avx512<K: LaneKernel>(b: Avx512, kernel: K) -> K::Output {
    kernel.run::<8, _>(b)
}

/// [`LaneKernel::run`] at W=4 under AVX2+FMA.
///
/// # Safety
///
/// The `Avx2` token proves the CPU supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn run_avx2<K: LaneKernel>(b: Avx2, kernel: K) -> K::Output {
    kernel.run::<4, _>(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-exact op equivalence between every available packed backend and
    /// the portable one, adversarial lanes included (NaN, ±0.0, ±∞,
    /// overflow-scale magnitudes) — the micro-level statement of the
    /// suite-wide byte-identity contract.
    #[test]
    fn packed_backends_match_portable_ops_bitwise() {
        let a8 = [1.5, -0.0, f64::NAN, f64::INFINITY, -3.25, 1e170, -1e-300, 0.0];
        let b8 = [-2.5, 0.0, 1.0, f64::NEG_INFINITY, -3.25, 1e170, 7.0, -0.0];
        let c8 = [0.5, -1.0, 2.0, 1.0, 0.125, -1e170, 3.0, 9.75];

        fn check<const W: usize, B: F64Lanes<W>, P: F64Lanes<W>>(
            b: B,
            p: P,
            a: [f64; W],
            x: [f64; W],
            c: [f64; W],
        ) {
            // Opaque inputs: with constants visible, LLVM folds the
            // portable side at compile time (e.g. `inf + -inf` to a NaN
            // whose sign differs from the one the hardware produces), and
            // the comparison would pit the optimizer against the CPU.
            let (a, x, c) =
                (std::hint::black_box(a), std::hint::black_box(x), std::hint::black_box(c));
            let (va, vx, vc) = (b.pack(a), b.pack(x), b.pack(c));
            let (pa, px, pc) = (p.pack(a), p.pack(x), p.pack(c));
            let pairs: [([f64; W], [f64; W]); 10] = [
                (b.to_array(b.add(va, vx)), p.to_array(p.add(pa, px))),
                (b.to_array(b.sub(va, vx)), p.to_array(p.sub(pa, px))),
                (b.to_array(b.mul(va, vx)), p.to_array(p.mul(pa, px))),
                (b.to_array(b.div(va, vx)), p.to_array(p.div(pa, px))),
                (b.to_array(b.sqrt(va)), p.to_array(p.sqrt(pa))),
                (b.to_array(b.mul_add(va, vx, vc)), p.to_array(p.mul_add(pa, px, pc))),
                (b.to_array(b.max(va, vx)), p.to_array(p.max(pa, px))),
                (b.to_array(b.min(va, vx)), p.to_array(p.min(pa, px))),
                (b.to_array(b.neg(va)), p.to_array(p.neg(pa))),
                (b.to_array(b.reverse(va)), p.to_array(p.reverse(pa))),
            ];
            for (op, (got, want)) in pairs.iter().enumerate() {
                for l in 0..W {
                    assert_eq!(
                        got[l].to_bits(),
                        want[l].to_bits(),
                        "op {op} lane {l}: {} vs {}",
                        got[l],
                        want[l]
                    );
                }
            }
            assert_eq!(b.mask_bits(b.lt(va, vx)), p.mask_bits(p.lt(pa, px)), "lt mask");
            assert_eq!(b.mask_bits(b.ge(va, vx)), p.mask_bits(p.ge(pa, px)), "ge mask");
            assert_eq!(b.mask_bits(b.eq(va, vx)), p.mask_bits(p.eq(pa, px)), "eq mask");
            let (ma, mb) = (b.lt(va, vx), b.ge(va, vc));
            let (pma, pmb) = (p.lt(pa, px), p.ge(pa, pc));
            assert_eq!(b.mask_bits(b.mask_and(ma, mb)), p.mask_bits(p.mask_and(pma, pmb)), "and");
            assert_eq!(b.mask_bits(b.mask_or(ma, mb)), p.mask_bits(p.mask_or(pma, pmb)), "or");
            let m = b.lt(va, vx);
            let pm = p.lt(pa, px);
            let (sel, psel) = (b.to_array(b.select(m, va, vx)), p.to_array(p.select(pm, pa, px)));
            for l in 0..W {
                assert_eq!(sel[l].to_bits(), psel[l].to_bits(), "select lane {l}");
            }
            let (sh, psh) =
                (b.to_array(b.shift_in_high(va, 42.5)), p.to_array(p.shift_in_high(pa, 42.5)));
            for l in 0..W {
                assert_eq!(sh[l].to_bits(), psh[l].to_bits(), "shift lane {l}");
            }
            let (sc, psc) =
                (b.to_array(b.shift_concat(va, vx)), p.to_array(p.shift_concat(pa, px)));
            for l in 0..W {
                assert_eq!(sc[l].to_bits(), psc[l].to_bits(), "concat shift lane {l}");
            }
            assert_eq!(b.extract0(va).to_bits(), p.extract0(pa).to_bits(), "extract0");
            // hmax/hmin: NaN-free slice only — the fold order is
            // unspecified under NaN, and the kernels never feed one.
            let clean: [f64; W] = std::array::from_fn(|l| if a[l].is_nan() { 1.0 } else { a[l] });
            let (vclean, pclean) = (b.pack(clean), p.pack(clean));
            assert_eq!(b.hmax(vclean).to_bits(), p.hmax(pclean).to_bits(), "hmax");
            assert_eq!(b.hmin(vclean).to_bits(), p.hmin(pclean).to_bits(), "hmin");
        }

        #[cfg(target_arch = "x86_64")]
        {
            if let Some(avx2) = Avx2::new() {
                let take4 = |s: [f64; 8]| -> [f64; 4] { [s[0], s[1], s[2], s[3]] };
                check::<4, _, _>(avx2, Portable, take4(a8), take4(b8), take4(c8));
            }
            if let Some(avx512) = Avx512::new() {
                check::<8, _, _>(avx512, Portable, a8, b8, c8);
            }
        }
        // Portable against itself still sanity-checks the test harness on
        // machines without any packed backend.
        check::<4, _, _>(Portable, Portable, [1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0], [0.0; 4]);
    }

    #[test]
    fn override_forces_levels_and_restores() {
        // Capture the environment-resolved default first (also caches the
        // env knobs, making the rest of the test deterministic).
        let auto = simd_level();
        {
            let _g = override_simd(SimdOverride { portable: true, width: Some(LaneWidth::W4) });
            // Unless the *environment* pins a different width, the
            // override must win.
            if env_force_width().is_none() && !env_force_portable() {
                assert_eq!(simd_level(), SimdLevel::Portable4);
            }
            if env_force_width().is_none() {
                assert!(!simd_level().packed(), "portable override ignored");
            }
        }
        assert_eq!(simd_level(), auto, "override guard failed to restore");
        {
            let _g = override_simd(SimdOverride { portable: true, width: Some(LaneWidth::W8) });
            if env_force_width().is_none() {
                assert_eq!(simd_level().width(), 8);
                assert!(!simd_level().packed());
            }
        }
        assert_eq!(simd_level(), auto);
    }

    #[test]
    fn forced_width_without_packed_support_falls_back_to_portable() {
        let _g = override_simd(SimdOverride { portable: false, width: Some(LaneWidth::W8) });
        if env_force_width().is_none() && env_force_portable() {
            // Forced-portable env entry: width override composes with it.
            assert_eq!(simd_level(), SimdLevel::Portable8);
        }
        if env_force_width().is_none() && !env_force_portable() && !avx512_available() {
            assert_eq!(
                simd_level(),
                SimdLevel::Portable8,
                "8-lane without AVX-512 must use the portable stand-in"
            );
        }
    }

    /// The read-once contract of the environment knobs: mutating the
    /// environment after the first read must not change the cached
    /// decision — that is exactly why [`override_simd`] exists.
    #[test]
    fn env_knobs_are_read_once_per_process() {
        let portable_before = env_force_portable();
        let width_before = env_force_width();
        let level_before = simd_level();
        std::env::set_var("VALMOD_FORCE_PORTABLE", "1");
        std::env::set_var("VALMOD_FORCE_WIDTH", "8");
        assert_eq!(env_force_portable(), portable_before, "env portable knob re-read");
        assert_eq!(env_force_width(), width_before, "env width knob re-read");
        assert_eq!(simd_level(), level_before, "dispatch re-read the environment");
        std::env::remove_var("VALMOD_FORCE_PORTABLE");
        std::env::remove_var("VALMOD_FORCE_WIDTH");
        assert_eq!(env_force_portable(), portable_before);
        assert_eq!(env_force_width(), width_before);
    }
}
