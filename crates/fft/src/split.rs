//! The lane-parallel half-size transform behind [`crate::RealFft`].
//!
//! The same radix-2 decimation-in-time algorithm as [`crate::Fft`], on
//! split real/imaginary planes instead of interleaved [`Complex64`]s. With
//! the planes split, every butterfly is pure lane-wise arithmetic:
//! `v·w` is `re = vr·wr − vi·wi`, `im = vr·wi + vi·wr` (separate
//! multiplies, then one subtract or add — never a fused multiply-add),
//! and `u ± v·w` is one lane-wise add or subtract. The kernel is written
//! once against [`F64Lanes`] and runs at the width
//! [`crate::simd::simd_level`] selects.
//!
//! **Bit contract.** Every element goes through exactly the operations,
//! operand order and rounding [`crate::Fft`] applies to it, so the output
//! bits equal the scalar interleaved transform's at every width. What
//! changes is only how the work is scheduled:
//!
//! * twiddles live in contiguous per-stage tables (stage `h` at
//!   `[h, 2h)`), copied from the very values `Fft` reads at a stride;
//! * the inverse conjugates a twiddle by an exact sign flip
//!   ([`F64Lanes::neg`]), as `Complex64::conj` does;
//! * stages run as fused pairs — stages `h` and `2h` in one memory pass,
//!   each element still taking its two butterflies in stage order;
//! * there is no separate bit-reversal pass: [`SplitFft::stages`] takes
//!   planes its caller filled in bit-reversed order, and
//!   [`SplitFft::transform_from`] gathers natural-order planes through the
//!   permutation in its first pass.

use crate::simd::{dispatch, F64Lanes, LaneKernel, Portable};
use crate::Complex64;

/// A lane vector of complex numbers, as split planes.
#[derive(Clone, Copy)]
pub(crate) struct Cx<V> {
    pub(crate) re: V,
    pub(crate) im: V,
}

impl<V: Copy> Cx<V> {
    #[inline(always)]
    pub(crate) fn load<const W: usize, B: F64Lanes<W, V = V>>(
        b: B,
        re: &[f64],
        im: &[f64],
        i: usize,
    ) -> Self {
        Self { re: b.load(&re[i..]), im: b.load(&im[i..]) }
    }

    #[inline(always)]
    pub(crate) fn store<const W: usize, B: F64Lanes<W, V = V>>(
        self,
        b: B,
        re: &mut [f64],
        im: &mut [f64],
        i: usize,
    ) {
        b.store(self.re, &mut re[i..]);
        b.store(self.im, &mut im[i..]);
    }
}

/// `x·y` exactly as `Complex64`'s `Mul` evaluates it: `x.re·y.re −
/// x.im·y.im` and `x.re·y.im + x.im·y.re`.
#[inline(always)]
pub(crate) fn cmul<const W: usize, B: F64Lanes<W>>(b: B, x: Cx<B::V>, y: Cx<B::V>) -> Cx<B::V> {
    Cx {
        re: b.sub(b.mul(x.re, y.re), b.mul(x.im, y.im)),
        im: b.add(b.mul(x.re, y.im), b.mul(x.im, y.re)),
    }
}

/// `conj(x)`: the imaginary plane's sign flipped.
#[inline(always)]
pub(crate) fn conj<const W: usize, B: F64Lanes<W>>(b: B, x: Cx<B::V>) -> Cx<B::V> {
    Cx { re: x.re, im: b.neg(x.im) }
}

/// One radix-2 butterfly, `(u + v·w, u − v·w)`.
#[inline(always)]
fn butterfly<const W: usize, B: F64Lanes<W>>(
    b: B,
    u: Cx<B::V>,
    v: Cx<B::V>,
    w: Cx<B::V>,
) -> (Cx<B::V>, Cx<B::V>) {
    let t = cmul(b, v, w);
    (
        Cx { re: b.add(u.re, t.re), im: b.add(u.im, t.im) },
        Cx { re: b.sub(u.re, t.re), im: b.sub(u.im, t.im) },
    )
}

/// Bit-reversal permutation of `0..size`: `rev[i]` is `i` with
/// `log2(size)` bits reversed.
pub(crate) fn bit_reversal(size: usize) -> Vec<u32> {
    let bits = size.trailing_zeros();
    if bits == 0 {
        return vec![0; size];
    }
    (0..size as u32).map(|i| i.reverse_bits() >> (32 - bits)).collect()
}

/// A planned split-plane transform of a fixed power-of-two size.
#[derive(Debug, Clone)]
pub(crate) struct SplitFft {
    size: usize,
    /// Per-stage twiddles: stage `h` (butterflies spanning `h`) reads
    /// `e^{-2πik/(2h)}` for `k in 0..h` at `[h + k]`. Entry 0 is unused.
    tw_re: Vec<f64>,
    tw_im: Vec<f64>,
    /// Bit-reversal permutation of `0..size`.
    rev: Vec<u32>,
}

impl SplitFft {
    /// Builds the plan. The per-stage twiddles are copied from the same
    /// `Complex64::cis(step · j)` values [`crate::Fft::new`] computes, so
    /// the two plans multiply by identical bits.
    pub(crate) fn new(size: usize) -> Self {
        assert!(size.is_power_of_two(), "FFT size must be a power of two, got {size}");
        assert!(size <= u32::MAX as usize, "FFT size too large: {size}");
        let step = -2.0 * std::f64::consts::PI / size as f64;
        let base: Vec<Complex64> = (0..size / 2).map(|j| Complex64::cis(step * j as f64)).collect();
        let mut tw_re = vec![0.0; size];
        let mut tw_im = vec![0.0; size];
        let mut h = 1;
        while h < size {
            let stride = size / (2 * h);
            for k in 0..h {
                tw_re[h + k] = base[k * stride].re;
                tw_im[h + k] = base[k * stride].im;
            }
            h *= 2;
        }
        Self { size, tw_re, tw_im, rev: bit_reversal(size) }
    }

    /// The bit-reversal permutation callers fold into their fill passes.
    pub(crate) fn rev(&self) -> &[u32] {
        &self.rev
    }

    /// Runs the butterfly stages spanning `first_h, 2·first_h, …, size/2`
    /// in place over bit-reversed planes — all of them for `first_h = 1`.
    /// `inverse` conjugates the twiddles (no `1/N` scaling here).
    ///
    /// # Panics
    ///
    /// Panics if a plane's length differs from the plan size.
    pub(crate) fn stages(&self, re: &mut [f64], im: &mut [f64], first_h: usize, inverse: bool) {
        assert!(re.len() == self.size && im.len() == self.size, "plane length != FFT plan size");
        if first_h < self.size {
            dispatch(Stages { plan: self, re, im, first_h, src: None, inverse }, self.size);
        }
    }

    /// The whole transform of the natural-order planes `src` into `re`,
    /// `im`: the bit reversal folds into the loads of the first pass.
    ///
    /// # Panics
    ///
    /// Panics if a plane's length differs from the plan size.
    pub(crate) fn transform_from(
        &self,
        src: (&[f64], &[f64]),
        re: &mut [f64],
        im: &mut [f64],
        inverse: bool,
    ) {
        let n = self.size;
        assert!(re.len() == n && im.len() == n, "plane length != FFT plan size");
        assert!(src.0.len() == n && src.1.len() == n, "plane length != FFT plan size");
        if n >= 64 {
            dispatch(Stages { plan: self, re, im, first_h: 1, src: Some(src), inverse }, n);
        } else {
            for (i, &j) in self.rev.iter().enumerate() {
                re[i] = src.0[j as usize];
                im[i] = src.1[j as usize];
            }
            self.stages(re, im, 1, inverse);
        }
    }
}

/// The stage loop as a dispatchable kernel.
struct Stages<'a> {
    plan: &'a SplitFft,
    re: &'a mut [f64],
    im: &'a mut [f64],
    first_h: usize,
    /// Natural-order input of at least 64 points to gather from; `None`
    /// runs in place.
    src: Option<(&'a [f64], &'a [f64])>,
    inverse: bool,
}

impl LaneKernel for Stages<'_> {
    type Output = ();

    #[inline(always)]
    fn run<const W: usize, B: F64Lanes<W>>(self, b: B) {
        if self.inverse {
            stages_lanes::<W, B, true>(b, self);
        } else {
            stages_lanes::<W, B, false>(b, self);
        }
    }
}

/// The twiddles of stage `h` at `k..k + W`, conjugated for the inverse.
#[inline(always)]
fn twiddles<const W: usize, B: F64Lanes<W>, const INV: bool>(
    b: B,
    plan: &SplitFft,
    i: usize,
) -> Cx<B::V> {
    let w = Cx::load(b, &plan.tw_re, &plan.tw_im, i);
    if INV {
        conj(b, w)
    } else {
        w
    }
}

#[inline(always)]
fn stages_lanes<const W: usize, B: F64Lanes<W>, const INV: bool>(b: B, task: Stages<'_>) {
    let Stages { plan, re, im, first_h, src, .. } = task;
    let n = re.len();
    let mut h = first_h;
    if let Some(src) = src {
        gather_tiles::<W, B, INV>(b, plan, re, im, src);
        h = 8;
    }
    // A stage spanning less than a vector pairs lanes of one vector: run
    // it one lane at a time. Only forwards whose sparse fill skips fewer
    // than log2(W) stages start this low, so this is off the row path.
    while h < W {
        single::<1, Portable, INV>(Portable, plan, re, im, h);
        h *= 2;
    }
    while h < n {
        if 4 * h <= n {
            fused_pair::<W, B, INV>(b, plan, re, im, h);
            h *= 4;
        } else {
            single::<W, B, INV>(b, plan, re, im, h);
            h *= 2;
        }
    }
}

/// The bit reversal of the natural-order `src` and stages 1, 2 and 4,
/// into `re`, `im` (of at least 64 points), tile by tile.
///
/// View the planes as 8 rows of `n/8`. The 8-element runs at one column
/// of every row form a tile, and bit reversal maps it onto 8 runs of
/// `src` with a run's row and lane bits swapped: element `l` of the run
/// in row `r` comes from run `rev3(l)`, element `rev3(r)`. So each tile
/// reads whole runs of `src` (they sit `n/8` apart, all on one cache set,
/// which would thrash under element-wise gathers). Loaded that way, each
/// vector holds one destination lane `l` of several destination runs, so
/// the three stages inside a run pair whole vectors `l` and `l + h` with
/// one twiddle each; the tile is then transposed on the stack into its
/// destination runs.
#[inline(always)]
fn gather_tiles<const W: usize, B: F64Lanes<W>, const INV: bool>(
    b: B,
    plan: &SplitFft,
    re: &mut [f64],
    im: &mut [f64],
    (sr, si): (&[f64], &[f64]),
) {
    const REV3: [usize; 8] = [0, 4, 2, 6, 1, 5, 3, 7];
    let row = re.len() / 8;
    // Stage `h`'s twiddle `k` at `[h + k]` (entry 0 unused), splatted.
    let tw: [Cx<B::V>; 8] = std::array::from_fn(|i| {
        let w = Cx { re: b.splat(plan.tw_re[i]), im: b.splat(plan.tw_im[i]) };
        if INV {
            conj(b, w)
        } else {
            w
        }
    });
    let (mut t_re, mut t_im) = ([[0.0f64; 8]; 8], [[0.0f64; 8]; 8]);
    for col in (0..row).step_by(8) {
        let base = plan.rev[col] as usize;
        // `y[l]` lane `c`: lane `l` of the destination run in row
        // `rev3(v + c)`.
        for v in (0..8).step_by(W) {
            let mut y: [Cx<B::V>; 8] =
                std::array::from_fn(|l| Cx::load(b, sr, si, base + REV3[l] * row + v));
            for h in [1, 2, 4] {
                for l in (0..8).filter(|l| l & h == 0) {
                    (y[l], y[l + h]) = butterfly(b, y[l], y[l + h], tw[h + (l & (h - 1))]);
                }
            }
            for (l, y) in y.iter().enumerate() {
                b.store(y.re, &mut t_re[l][v..]);
                b.store(y.im, &mut t_im[l][v..]);
            }
        }
        for r in 0..8 {
            for v in (0..8).step_by(W) {
                let x = Cx {
                    re: b.pack(std::array::from_fn(|c| t_re[v + c][REV3[r]])),
                    im: b.pack(std::array::from_fn(|c| t_im[v + c][REV3[r]])),
                };
                x.store(b, re, im, r * row + col + v);
            }
        }
    }
}

/// One stage `h ≥ W`: butterflies `(s + k, s + k + h)` with twiddle `k`.
#[inline(always)]
fn single<const W: usize, B: F64Lanes<W>, const INV: bool>(
    b: B,
    plan: &SplitFft,
    re: &mut [f64],
    im: &mut [f64],
    h: usize,
) {
    for (br, bi) in re.chunks_exact_mut(2 * h).zip(im.chunks_exact_mut(2 * h)) {
        let (r0, r1) = br.split_at_mut(h);
        let (i0, i1) = bi.split_at_mut(h);
        for k in (0..h).step_by(W) {
            let w = twiddles::<W, B, INV>(b, plan, h + k);
            let (a0, a1) = butterfly(b, Cx::load(b, r0, i0, k), Cx::load(b, r1, i1, k), w);
            a0.store(b, r0, i0, k);
            a1.store(b, r1, i1, k);
        }
    }
}

/// Stages `h` and `2h ≥ 2W` in one memory pass: per block of `4h`, the
/// quarters `a0..a3` at `k` take their stage-`h` butterflies `(a0, a1)`
/// and `(a2, a3)`, then their stage-`2h` butterflies `(a0, a2)` and
/// `(a1, a3)` — the order the two separate stages apply.
#[inline(always)]
fn fused_pair<const W: usize, B: F64Lanes<W>, const INV: bool>(
    b: B,
    plan: &SplitFft,
    re: &mut [f64],
    im: &mut [f64],
    h: usize,
) {
    for (br, bi) in re.chunks_exact_mut(4 * h).zip(im.chunks_exact_mut(4 * h)) {
        let (r01, r23) = br.split_at_mut(2 * h);
        let (i01, i23) = bi.split_at_mut(2 * h);
        let ((r0, r1), (r2, r3)) = (r01.split_at_mut(h), r23.split_at_mut(h));
        let ((i0, i1), (i2, i3)) = (i01.split_at_mut(h), i23.split_at_mut(h));
        for k in (0..h).step_by(W) {
            let w1 = twiddles::<W, B, INV>(b, plan, h + k);
            let w2a = twiddles::<W, B, INV>(b, plan, 2 * h + k);
            let w2b = twiddles::<W, B, INV>(b, plan, 3 * h + k);
            let (a0, a1) = butterfly(b, Cx::load(b, r0, i0, k), Cx::load(b, r1, i1, k), w1);
            let (a2, a3) = butterfly(b, Cx::load(b, r2, i2, k), Cx::load(b, r3, i3, k), w1);
            let (a0, a2) = butterfly(b, a0, a2, w2a);
            let (a1, a3) = butterfly(b, a1, a3, w2b);
            a0.store(b, r0, i0, k);
            a1.store(b, r1, i1, k);
            a2.store(b, r2, i2, k);
            a3.store(b, r3, i3, k);
        }
    }
}
