//! Real-input FFT: a length-`N` transform of real data at the cost of one
//! length-`N/2` complex transform.
//!
//! The classic packing trick: interleave the even- and odd-indexed samples
//! into a half-size complex signal `z[k] = x[2k] + i·x[2k+1]`, transform it
//! once, and *untangle* the result into the spectrum of `x` using the
//! Hermitian symmetry of real-input DFTs. Since `X[N−k] = conj(X[k])`, the
//! full spectrum is represented by its first `N/2 + 1` bins.
//!
//! The inverse runs the same algebra backwards: re-tangle the half
//! spectrum, one half-size inverse transform, de-interleave. Both
//! directions write into caller-provided buffers, so repeated transforms
//! (the sliding-dot-product hot path) allocate nothing.
//!
//! The half-size transform is the split-plane lane kernel of
//! [`crate::split`], bit-identical to [`crate::Fft`]. The passes around it
//! absorb the work the scalar transform did separately: packing writes the
//! signal straight into bit-reversed order, the inverse's first butterfly
//! pass gathers the re-tangled spectrum through the bit reversal, and the
//! de-interleave applies the inverse's `1/(N/2)` scale.
//!
//! **Sparse forward.** A signal of `len` samples packs to `c = ⌈len/2⌉`
//! nonzeros. After bit reversal each one opens its own block of
//! `N/2 / next_pow2(c)` slots, the rest of the block being `+0.0`. The
//! butterflies inside such a block only ever combine its value `x` with
//! `+0.0` times a finite twiddle, so they copy `x` over the whole block:
//! `x ± (±0) = x` exactly — unless `x` is `−0.0` (which `+0.0` turns
//! positive) or a NaN (a signaling one would be quieted). So, barring
//! those, the forward fills each block with its value and starts at the
//! first stage that spans blocks, with the very bits the full transform
//! produces.

use crate::simd::{dispatch, F64Lanes, LaneKernel, Portable};
use crate::split::{cmul, conj, Cx, SplitFft};
use crate::{next_pow2, Complex64};

/// A reusable plan for forward/inverse DFTs of real signals of a fixed
/// power-of-two length.
///
/// # Example
///
/// ```
/// use valmod_fft::RealFft;
///
/// let rfft = RealFft::new(8);
/// let input = [1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0];
/// let mut packed = rfft.packed_buffer();
/// let mut spectrum = rfft.spectrum_buffer();
/// rfft.forward(&input, &mut packed, &mut spectrum);
/// // Bin 0 is the plain sum of the signal.
/// assert!((spectrum[0].re - 10.0).abs() < 1e-12);
/// let mut back = [0.0f64; 8];
/// rfft.inverse(&spectrum, &mut packed, &mut back);
/// for (a, b) in back.iter().zip(&input) {
///     assert!((a - b).abs() < 1e-9);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct RealFft {
    size: usize,
    /// Split-plane plan of size `N/2` operating on the packed signal.
    half: SplitFft,
    /// `e^{-2πik/N}` for `k in 0..=N/2` — the untangling twiddles.
    tw_re: Vec<f64>,
    tw_im: Vec<f64>,
}

/// The packed half-size signal `z` of a [`RealFft`], held as split real
/// and imaginary planes — the transform's working buffer. Create with
/// [`RealFft::packed_buffer`].
#[derive(Debug, Clone)]
pub struct PackedBuffer {
    re: Vec<f64>,
    im: Vec<f64>,
}

impl RealFft {
    /// Builds a plan for real transforms of length `size`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a power of two or is smaller than 2.
    #[must_use]
    pub fn new(size: usize) -> Self {
        assert!(size.is_power_of_two() && size >= 2, "RealFft size must be a power of two >= 2");
        let half = SplitFft::new(size / 2);
        let step = -2.0 * std::f64::consts::PI / size as f64;
        let (tw_re, tw_im) = (0..=size / 2)
            .map(|k| {
                let w = Complex64::cis(step * k as f64);
                (w.re, w.im)
            })
            .unzip();
        Self { size, half, tw_re, tw_im }
    }

    /// The real transform length `N` this plan was built for.
    #[inline]
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of spectrum bins, `N/2 + 1` (the rest follow by Hermitian
    /// symmetry).
    #[inline]
    #[must_use]
    pub fn spectrum_len(&self) -> usize {
        self.size / 2 + 1
    }

    /// A correctly sized scratch buffer for the packed half-size signal.
    #[must_use]
    pub fn packed_buffer(&self) -> PackedBuffer {
        PackedBuffer { re: vec![0.0; self.size / 2], im: vec![0.0; self.size / 2] }
    }

    /// A correctly sized spectrum buffer.
    #[must_use]
    pub fn spectrum_buffer(&self) -> Vec<Complex64> {
        vec![Complex64::ZERO; self.spectrum_len()]
    }

    /// Forward DFT of `input` (zero-padded to `N` when shorter) into
    /// `spectrum[0..=N/2]`, using `packed` as scratch.
    ///
    /// # Panics
    ///
    /// Panics when `input` is longer than the plan, or the buffers have
    /// the wrong size (`packed`: from this plan, `spectrum`: `N/2 + 1`).
    pub fn forward(&self, input: &[f64], packed: &mut PackedBuffer, spectrum: &mut [Complex64]) {
        let h = self.size / 2;
        assert_eq!(spectrum.len(), h + 1, "spectrum buffer must have length N/2 + 1");
        self.pack_transform(input, packed);
        let z = &*packed;
        for (k, out) in spectrum.iter_mut().enumerate() {
            let x = untangle::<1, _>(
                Portable,
                Cx::load(Portable, &z.re, &z.im, k % h),
                Cx::load(Portable, &z.re, &z.im, (h - k) % h),
                Cx::load(Portable, &self.tw_re, &self.tw_im, k),
            );
            *out = Complex64::new(x.re[0], x.im[0]);
        }
    }

    /// Inverse DFT of a Hermitian half `spectrum` into the real `output`
    /// (length `N`), using `packed` as scratch.
    ///
    /// Includes the `1/N` scaling, so `inverse(forward(x)) == x` up to
    /// floating-point error.
    ///
    /// # Panics
    ///
    /// Panics on wrongly sized buffers (`spectrum`: `N/2 + 1`, `packed`:
    /// from this plan, `output`: `N`).
    pub fn inverse(&self, spectrum: &[Complex64], packed: &mut PackedBuffer, output: &mut [f64]) {
        let h = self.size / 2;
        assert_eq!(spectrum.len(), h + 1, "spectrum buffer must have length N/2 + 1");
        assert_eq!(packed.re.len(), h, "packed buffer must come from this plan");
        assert_eq!(output.len(), self.size, "output buffer must have length N");
        // Re-tangle in natural order, staged in `output`'s two halves,
        // which the transform then gathers through the bit reversal.
        let (z_re, z_im) = output.split_at_mut(h);
        let x = |k: usize| Cx { re: [spectrum[k].re], im: [spectrum[k].im] };
        for k in 0..h {
            let w = Cx::load(Portable, &self.tw_re, &self.tw_im, k);
            retangle::<1, _>(Portable, x(k), x(h - k), w).store(Portable, z_re, z_im, k);
        }
        self.half.transform_from((z_re, z_im), &mut packed.re, &mut packed.im, true);
        self.unpack(packed, output);
    }

    /// Packs `input` into bit-reversed order and runs the forward stages:
    /// `packed` then holds the half-size transform `Z`. Takes the sparse
    /// fill (see the module docs) whenever it skips a stage.
    pub(crate) fn pack_transform(&self, input: &[f64], packed: &mut PackedBuffer) {
        let h = self.size / 2;
        assert!(
            input.len() <= self.size,
            "input length {} exceeds plan size {}",
            input.len(),
            self.size
        );
        assert_eq!(packed.re.len(), h, "packed buffer must come from this plan");
        // The values a block fill would not reproduce (see the module docs).
        let exact_copy = !input.iter().any(|&x| x.is_nan() || (x == 0.0 && x.is_sign_negative()));
        let block = if exact_copy { h / next_pow2(input.len().div_ceil(2)).min(h) } else { 1 };
        let rev = self.half.rev();
        for (j, (br, bi)) in
            packed.re.chunks_exact_mut(block).zip(packed.im.chunks_exact_mut(block)).enumerate()
        {
            let k = 2 * rev[j * block] as usize;
            br.fill(input.get(k).copied().unwrap_or(0.0));
            bi.fill(input.get(k + 1).copied().unwrap_or(0.0));
        }
        self.half.stages(&mut packed.re, &mut packed.im, block, false);
    }

    /// The cross-correlation of the signal transformed into `z` (by
    /// [`Self::pack_transform`]) with the half spectrum `s`: `conj(X)·S`
    /// carried back through the inverse transform, left unscaled in `z` for
    /// [`Self::unpack`]. `spectrum` is scratch.
    ///
    /// One pass does untangle, product and re-tangle per mirrored bin pair
    /// `(k, N/2 − k)` — each bin with the operations the separate passes
    /// apply — and the inverse gathers its result through the bit reversal.
    pub(crate) fn correlate(
        &self,
        z: &mut PackedBuffer,
        s_re: &[f64],
        s_im: &[f64],
        spectrum: &mut PackedBuffer,
    ) {
        let h = self.size / 2;
        assert!(s_re.len() == h + 1 && s_im.len() == h + 1, "spectrum must have N/2 + 1 bins");
        assert!(
            z.re.len() == h && spectrum.re.len() == h,
            "packed buffers must come from this plan"
        );
        dispatch(Correlate { rfft: self, z, s_re, s_im, out: &mut *spectrum }, h);
        self.half.transform_from((&spectrum.re, &spectrum.im), &mut z.re, &mut z.im, true);
    }

    /// De-interleaves the inverse-transformed `packed` into `output`
    /// (`output[2k] = Re z[k]`, `output[2k+1] = Im z[k]`) with the inverse
    /// transform's `1/(N/2)` scale; `output` may be shorter than `N`.
    pub(crate) fn unpack(&self, packed: &PackedBuffer, output: &mut [f64]) {
        let scale = 1.0 / (self.size / 2) as f64;
        for (pair, (re, im)) in output.chunks_mut(2).zip(packed.re.iter().zip(&packed.im)) {
            pair[0] = re * scale;
            if let Some(o) = pair.get_mut(1) {
                *o = im * scale;
            }
        }
    }
}

/// `X[k] = (Z[k] + conj(Z[H−k]))/2 − (i/2)·W^k·(Z[k] − conj(Z[H−k]))`,
/// from `zk = Z[k]`, `zm = Z[H−k]` and `w = W^k`, in the scalar
/// `Complex64` evaluation order.
#[inline(always)]
fn untangle<const W: usize, B: F64Lanes<W>>(
    b: B,
    zk: Cx<B::V>,
    zm: Cx<B::V>,
    w: Cx<B::V>,
) -> Cx<B::V> {
    let zmk = conj(b, zm);
    let half = b.splat(0.5);
    let a = Cx { re: b.mul(b.add(zk.re, zmk.re), half), im: b.mul(b.add(zk.im, zmk.im), half) };
    let d = Cx { re: b.sub(zk.re, zmk.re), im: b.sub(zk.im, zmk.im) };
    let d = cmul(b, d, Cx { re: b.splat(0.0), im: b.splat(-0.5) });
    let t = cmul(b, w, d);
    Cx { re: b.add(a.re, t.re), im: b.add(a.im, t.im) }
}

/// `Z[k] = (X[k] + conj(X[H−k]))/2 + i·conj(W^k)·(X[k] − conj(X[H−k]))/2`,
/// from `xk = X[k]`, `xm = X[H−k]` and `w = W^k`, in the scalar
/// `Complex64` evaluation order.
#[inline(always)]
fn retangle<const W: usize, B: F64Lanes<W>>(
    b: B,
    xk: Cx<B::V>,
    xm: Cx<B::V>,
    w: Cx<B::V>,
) -> Cx<B::V> {
    let xmk = conj(b, xm);
    let half = b.splat(0.5);
    let a = Cx { re: b.mul(b.add(xk.re, xmk.re), half), im: b.mul(b.add(xk.im, xmk.im), half) };
    let d = Cx { re: b.mul(b.sub(xk.re, xmk.re), half), im: b.mul(b.sub(xk.im, xmk.im), half) };
    let iw = cmul(b, Cx { re: b.splat(0.0), im: b.splat(1.0) }, conj(b, w));
    let t = cmul(b, iw, d);
    Cx { re: b.add(a.re, t.re), im: b.add(a.im, t.im) }
}

/// The fused untangle → product → re-tangle pass as a dispatchable kernel.
struct Correlate<'a> {
    rfft: &'a RealFft,
    z: &'a PackedBuffer,
    s_re: &'a [f64],
    s_im: &'a [f64],
    out: &'a mut PackedBuffer,
}

impl LaneKernel for Correlate<'_> {
    type Output = ();

    #[inline(always)]
    fn run<const W: usize, B: F64Lanes<W>>(mut self, b: B) {
        let mid = self.rfft.size / 4;
        // Bin pair (0, N/2): both bins untangle from z[0], so it takes the
        // wrapping one-lane path.
        self.pair::<1, _>(Portable, 0);
        let mut k = 1;
        while k + W - 1 <= mid {
            self.pair::<W, B>(b, k);
            k += W;
        }
        for k in k..=mid {
            self.pair::<1, _>(Portable, k);
        }
    }
}

impl Correlate<'_> {
    /// Bins `k..k + W` and their mirrors `H − k − c`, read with reversed
    /// lanes so lane `c` of every vector belongs to the pair `(k + c,
    /// H − k − c)`. Only the one-lane call may pass `k = 0`, whose mirror
    /// `H` wraps to `z[0]` and is not written back (`z` has `H` bins).
    #[inline(always)]
    fn pair<const W: usize, B: F64Lanes<W>>(&mut self, b: B, k: usize) {
        let h = self.rfft.size / 2;
        let m = h - k - (W - 1);
        let reversed = |x: Cx<B::V>| Cx { re: b.reverse(x.re), im: b.reverse(x.im) };
        let (tw_re, tw_im) = (&self.rfft.tw_re, &self.rfft.tw_im);
        let zk = Cx::load(b, &self.z.re, &self.z.im, k);
        let zm = reversed(Cx::load(b, &self.z.re, &self.z.im, if m < h { m } else { 0 }));
        let wk = Cx::load(b, tw_re, tw_im, k);
        let wm = reversed(Cx::load(b, tw_re, tw_im, m));
        let xk = untangle(b, zk, zm, wk);
        let xm = untangle(b, zm, zk, wm);
        let pk = cmul(b, conj(b, xk), Cx::load(b, self.s_re, self.s_im, k));
        let pm = cmul(b, conj(b, xm), reversed(Cx::load(b, self.s_re, self.s_im, m)));
        retangle(b, pk, pm, wk).store(b, &mut self.out.re, &mut self.out.im, k);
        if m < h {
            reversed(retangle(b, pm, pk, wm)).store(b, &mut self.out.re, &mut self.out.im, m);
        }
    }
}

/// The scalar formulation every transform of this module must match bit
/// for bit: interleaved [`Complex64`] buffers through [`crate::Fft`], with
/// separate pack, bit-reversal, untangle, re-tangle, scale and unpack
/// passes.
#[cfg(test)]
pub(crate) mod reference {
    use crate::simd::{LaneWidth, SimdOverride};
    use crate::{Complex64, Fft};

    /// Every dispatch level the override can force; levels the CPU cannot
    /// encode fall back to the portable stand-in at the same width.
    pub(crate) const LEVELS: [SimdOverride; 4] = [
        SimdOverride { portable: true, width: Some(LaneWidth::W4) },
        SimdOverride { portable: true, width: Some(LaneWidth::W8) },
        SimdOverride { portable: false, width: Some(LaneWidth::W4) },
        SimdOverride { portable: false, width: Some(LaneWidth::W8) },
    ];

    fn untangle_twiddles(size: usize) -> Vec<Complex64> {
        let step = -2.0 * std::f64::consts::PI / size as f64;
        (0..=size / 2).map(|k| Complex64::cis(step * k as f64)).collect()
    }

    /// Forward real DFT of `input` zero-padded to `size`: bins `0..=size/2`.
    pub(crate) fn forward(input: &[f64], size: usize) -> Vec<Complex64> {
        let h = size / 2;
        let mut packed = vec![Complex64::ZERO; h];
        for (p, pair) in packed.iter_mut().zip(input.chunks(2)) {
            *p = Complex64::new(pair[0], pair.get(1).copied().unwrap_or(0.0));
        }
        Fft::new(h).forward(&mut packed);
        untangle_twiddles(size)
            .iter()
            .enumerate()
            .map(|(k, &w)| {
                let zk = packed[k % h];
                let zmk = packed[(h - k) % h].conj();
                let a = (zk + zmk).scale(0.5);
                let b = (zk - zmk) * Complex64::new(0.0, -0.5);
                a + w * b
            })
            .collect()
    }

    /// Inverse real DFT of the half spectrum `spectrum` (`size/2 + 1` bins).
    pub(crate) fn inverse(spectrum: &[Complex64], size: usize) -> Vec<f64> {
        let h = size / 2;
        let twiddles = untangle_twiddles(size);
        let mut packed: Vec<Complex64> = (0..h)
            .map(|k| {
                let xk = spectrum[k];
                let xmk = spectrum[h - k].conj();
                let a = (xk + xmk).scale(0.5);
                let d = (xk - xmk).scale(0.5);
                a + Complex64::new(0.0, 1.0) * twiddles[k].conj() * d
            })
            .collect();
        Fft::new(h).inverse(&mut packed);
        packed.iter().flat_map(|z| [z.re, z.im]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{self, LEVELS};
    use super::RealFft;
    use crate::simd::override_simd;
    use crate::{Complex64, Fft};

    /// Deterministic values spanning signs and magnitudes.
    fn mixed(n: usize, seed: u64) -> Vec<f64> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let unit = (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                unit * [1.0, 1e-3, 250.0, 7.5][(x & 3) as usize]
            })
            .collect()
    }

    fn assert_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: index {i}: {g} vs {w}");
        }
    }

    fn spectrum_bits(s: &[Complex64]) -> Vec<f64> {
        s.iter().flat_map(|z| [z.re, z.im]).collect()
    }

    /// The split-plane transform against the scalar interleaved `Fft`
    /// formulation, bit for bit, at every dispatch level: half-size
    /// complex transforms of 1..=2^16 points, forward on dense inputs and
    /// on sparse prefixes (odd lengths, and a `−0.0` or NaN entry, which
    /// must take the full transform), inverse on arbitrary spectra.
    #[test]
    fn split_transform_is_bit_identical_to_scalar_fft() {
        for level in LEVELS {
            let _g = override_simd(level);
            for log in 1..=17 {
                let n = 1usize << log;
                let rfft = RealFft::new(n);
                let mut packed = rfft.packed_buffer();
                let mut spectrum = rfft.spectrum_buffer();
                let dense = mixed(n, log);
                let mut inputs = vec![dense.clone()];
                for m in [1, 3, 33, 80, n / 8 + 1, n / 4, n / 4 + 1, n / 2 - 1] {
                    if m >= 1 && m <= n && (log < 12 || m == 33) {
                        inputs.push(dense[..m].to_vec());
                    }
                }
                // A −0.0 only shows in the output bits where zeros meet
                // zeros, so besides a −0.0 among values, all-zero inputs.
                let mut signed_zero = dense[..(n / 2).max(1)].to_vec();
                signed_zero[0] = -0.0;
                inputs.push(signed_zero);
                inputs.push(vec![-0.0]);
                inputs.push(vec![0.0, -0.0, -0.0][..n.min(3)].to_vec());
                let mut nan = dense[..(n / 2).max(1)].to_vec();
                let mid = nan.len() / 2;
                nan[mid] = f64::NAN;
                inputs.push(nan);
                for input in &inputs {
                    rfft.forward(input, &mut packed, &mut spectrum);
                    let want = reference::forward(input, n);
                    let what = format!("{level:?} forward n={n} len={}", input.len());
                    assert_bits(&spectrum_bits(&spectrum), &spectrum_bits(&want), &what);
                }
                let arbitrary: Vec<Complex64> =
                    mixed(n + 2, log + 99).chunks(2).map(|p| Complex64::new(p[0], p[1])).collect();
                for s in [reference::forward(&dense, n), arbitrary] {
                    let mut back = vec![0.0; n];
                    rfft.inverse(&s, &mut packed, &mut back);
                    let what = format!("{level:?} inverse n={n}");
                    assert_bits(&back, &reference::inverse(&s, n), &what);
                }
            }
        }
    }

    #[test]
    fn reference_matches_the_complex_fft_of_the_real_signal() {
        // Pins the oracle itself: its bins equal a full complex FFT's.
        let n = 64;
        let input = mixed(n, 5);
        let mut full: Vec<Complex64> = input.iter().map(|&x| Complex64::from_real(x)).collect();
        Fft::new(n).forward(&mut full);
        for (k, (a, b)) in reference::forward(&input, n).iter().zip(&full).enumerate() {
            assert!((a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9, "bin {k}");
        }
    }

    fn pseudo(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 2654435761) % 997) as f64 / 99.0 - 5.0).collect()
    }

    /// Reference: full complex FFT of the real input.
    fn complex_spectrum(input: &[f64], size: usize) -> Vec<Complex64> {
        let mut buf = vec![Complex64::ZERO; size];
        for (b, &x) in buf.iter_mut().zip(input) {
            b.re = x;
        }
        Fft::new(size).forward(&mut buf);
        buf
    }

    #[test]
    fn forward_matches_complex_fft() {
        for &n in &[2usize, 4, 8, 64, 256, 1024] {
            let input = pseudo(n);
            let rfft = RealFft::new(n);
            let mut packed = rfft.packed_buffer();
            let mut spectrum = rfft.spectrum_buffer();
            rfft.forward(&input, &mut packed, &mut spectrum);
            let reference = complex_spectrum(&input, n);
            for (k, (got, want)) in spectrum.iter().zip(&reference).enumerate() {
                assert!(
                    (got.re - want.re).abs() < 1e-8 && (got.im - want.im).abs() < 1e-8,
                    "size {n} bin {k}: {got:?} vs {want:?}"
                );
            }
        }
    }

    #[test]
    fn forward_zero_pads_short_input() {
        let n = 32;
        let short = pseudo(13); // odd length: exercises the half-filled pair
        let mut padded = short.clone();
        padded.resize(n, 0.0);
        let rfft = RealFft::new(n);
        let mut packed = rfft.packed_buffer();
        let mut a = rfft.spectrum_buffer();
        rfft.forward(&short, &mut packed, &mut a);
        let mut b = rfft.spectrum_buffer();
        rfft.forward(&padded, &mut packed, &mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((x.re - y.re).abs() < 1e-12 && (x.im - y.im).abs() < 1e-12);
        }
    }

    #[test]
    fn roundtrip_recovers_input() {
        for &n in &[2usize, 8, 128, 4096] {
            let input = pseudo(n);
            let rfft = RealFft::new(n);
            let mut packed = rfft.packed_buffer();
            let mut spectrum = rfft.spectrum_buffer();
            rfft.forward(&input, &mut packed, &mut spectrum);
            let mut back = vec![0.0; n];
            rfft.inverse(&spectrum, &mut packed, &mut back);
            for (i, (a, b)) in back.iter().zip(&input).enumerate() {
                assert!((a - b).abs() < 1e-9, "size {n} sample {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn edge_bins_are_real() {
        // X[0] and X[N/2] of a real signal are real-valued.
        let n = 64;
        let input = pseudo(n);
        let rfft = RealFft::new(n);
        let mut packed = rfft.packed_buffer();
        let mut spectrum = rfft.spectrum_buffer();
        rfft.forward(&input, &mut packed, &mut spectrum);
        assert!(spectrum[0].im.abs() < 1e-9);
        assert!(spectrum[n / 2].im.abs() < 1e-9);
        let sum: f64 = input.iter().sum();
        assert!((spectrum[0].re - sum).abs() < 1e-8);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = RealFft::new(6);
    }

    #[test]
    #[should_panic(expected = "exceeds plan size")]
    fn rejects_oversized_input() {
        let rfft = RealFft::new(4);
        let mut packed = rfft.packed_buffer();
        let mut spectrum = rfft.spectrum_buffer();
        rfft.forward(&[0.0; 5], &mut packed, &mut spectrum);
    }
}
