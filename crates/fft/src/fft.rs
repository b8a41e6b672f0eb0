//! Planned, iterative radix-2 FFT.
//!
//! A [`Fft`] instance precomputes the bit-reversal permutation and twiddle
//! factors for a fixed power-of-two size, so repeated transforms of the same
//! size pay the trigonometry cost once.
//!
//! This scalar, interleaved transform is also the bit-for-bit reference of
//! the lane-parallel split-plane kernel behind [`crate::RealFft`] (and so
//! behind every sliding dot product): that kernel applies the same
//! operations to every element, and the differential tests compare the
//! two bit for bit at every SIMD dispatch level.

use crate::Complex64;

/// A reusable FFT plan for a fixed power-of-two size.
///
/// # Example
///
/// ```
/// use valmod_fft::{Complex64, Fft};
///
/// let fft = Fft::new(8);
/// let mut buf: Vec<Complex64> =
///     (0..8).map(|i| Complex64::from_real(i as f64)).collect();
/// let orig = buf.clone();
/// fft.forward(&mut buf);
/// fft.inverse(&mut buf);
/// for (a, b) in buf.iter().zip(&orig) {
///     assert!((a.re - b.re).abs() < 1e-9);
///     assert!(a.im.abs() < 1e-9);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Fft {
    size: usize,
    /// Twiddle factors e^{-2πik/size} for k in 0..size/2 (forward direction).
    twiddles: Vec<Complex64>,
    /// Bit-reversal permutation: `rev[i]` is `i` with log2(size) bits reversed.
    rev: Vec<u32>,
}

impl Fft {
    /// Builds a plan for transforms of length `size`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or not a power of two.
    #[must_use]
    pub fn new(size: usize) -> Self {
        assert!(size.is_power_of_two(), "FFT size must be a power of two, got {size}");
        assert!(size <= u32::MAX as usize, "FFT size too large: {size}");
        let half = size / 2;
        let mut twiddles = Vec::with_capacity(half.max(1));
        let step = -2.0 * std::f64::consts::PI / size as f64;
        for k in 0..half.max(1) {
            twiddles.push(Complex64::cis(step * k as f64));
        }
        Self { size, twiddles, rev: crate::split::bit_reversal(size) }
    }

    /// The transform length this plan was built for.
    #[inline]
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// In-place forward DFT: `X[k] = Σ_n x[n] e^{-2πikn/N}`.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the planned size.
    pub fn forward(&self, buf: &mut [Complex64]) {
        self.transform(buf, false);
    }

    /// In-place inverse DFT, including the `1/N` scaling, so that
    /// `inverse(forward(x)) == x` up to floating-point error.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the planned size.
    pub fn inverse(&self, buf: &mut [Complex64]) {
        self.transform(buf, true);
        let scale = 1.0 / self.size as f64;
        for v in buf.iter_mut() {
            *v = v.scale(scale);
        }
    }

    fn transform(&self, buf: &mut [Complex64], invert: bool) {
        assert_eq!(
            buf.len(),
            self.size,
            "buffer length {} does not match FFT plan size {}",
            buf.len(),
            self.size
        );
        let n = self.size;
        if n <= 1 {
            return;
        }

        // Bit-reversal permutation.
        for i in 0..n {
            let j = self.rev[i] as usize;
            if i < j {
                buf.swap(i, j);
            }
        }

        // Iterative Cooley-Tukey butterflies.
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            for start in (0..n).step_by(len) {
                for k in 0..half {
                    let mut w = self.twiddles[k * stride];
                    if invert {
                        w = w.conj();
                    }
                    let u = buf[start + k];
                    let v = buf[start + k + half] * w;
                    buf[start + k] = u + v;
                    buf[start + k + half] = u - v;
                }
            }
            len *= 2;
        }
    }
}

/// Reference O(n²) DFT used only by tests to validate the FFT.
#[cfg(test)]
pub(crate) fn dft_naive(input: &[Complex64]) -> Vec<Complex64> {
    let n = input.len();
    let mut out = vec![Complex64::ZERO; n];
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = Complex64::ZERO;
        for (t, &x) in input.iter().enumerate() {
            let angle = -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
            acc += x * Complex64::cis(angle);
        }
        *o = acc;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::{dft_naive, Fft};
    use crate::Complex64;

    fn assert_close(a: &[Complex64], b: &[Complex64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x.re - y.re).abs() < tol && (x.im - y.im).abs() < tol,
                "mismatch at {i}: {x:?} vs {y:?}"
            );
        }
    }

    fn ramp(n: usize) -> Vec<Complex64> {
        (0..n).map(|i| Complex64::new(i as f64 * 0.7 - 3.0, (i as f64).sin())).collect()
    }

    #[test]
    fn size_one_is_identity() {
        let fft = Fft::new(1);
        let mut buf = vec![Complex64::new(4.2, -1.0)];
        fft.forward(&mut buf);
        assert_eq!(buf[0], Complex64::new(4.2, -1.0));
        fft.inverse(&mut buf);
        assert_eq!(buf[0], Complex64::new(4.2, -1.0));
    }

    #[test]
    fn size_two_butterfly() {
        let fft = Fft::new(2);
        let mut buf = vec![Complex64::from_real(1.0), Complex64::from_real(2.0)];
        fft.forward(&mut buf);
        assert!((buf[0].re - 3.0).abs() < 1e-12);
        assert!((buf[1].re + 1.0).abs() < 1e-12);
    }

    #[test]
    fn matches_naive_dft_on_multiple_sizes() {
        for &n in &[2usize, 4, 8, 16, 64, 256] {
            let input = ramp(n);
            let mut buf = input.clone();
            let fft = Fft::new(n);
            fft.forward(&mut buf);
            let expected = dft_naive(&input);
            assert_close(&buf, &expected, 1e-8 * n as f64);
        }
    }

    #[test]
    fn forward_then_inverse_roundtrips() {
        for &n in &[1usize, 2, 8, 128, 1024] {
            let input = ramp(n);
            let mut buf = input.clone();
            let fft = Fft::new(n);
            fft.forward(&mut buf);
            fft.inverse(&mut buf);
            assert_close(&buf, &input, 1e-9 * (n as f64).max(1.0));
        }
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let n = 16;
        let fft = Fft::new(n);
        let mut buf = vec![Complex64::ZERO; n];
        buf[0] = Complex64::ONE;
        fft.forward(&mut buf);
        for v in &buf {
            assert!((v.re - 1.0).abs() < 1e-12 && v.im.abs() < 1e-12);
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 256;
        let input = ramp(n);
        let time_energy: f64 = input.iter().map(|z| z.norm_sqr()).sum();
        let mut buf = input;
        let fft = Fft::new(n);
        fft.forward(&mut buf);
        let freq_energy: f64 = buf.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-6 * time_energy.abs().max(1.0));
    }

    #[test]
    fn linearity() {
        let n = 64;
        let a = ramp(n);
        let b: Vec<Complex64> =
            (0..n).map(|i| Complex64::new((i as f64).cos(), 0.25 * i as f64)).collect();
        let fft = Fft::new(n);

        let mut fa = a.clone();
        fft.forward(&mut fa);
        let mut fb = b.clone();
        fft.forward(&mut fb);

        let mut sum: Vec<Complex64> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        fft.forward(&mut sum);

        for i in 0..n {
            let expect = fa[i] + fb[i];
            assert!((sum[i].re - expect.re).abs() < 1e-8);
            assert!((sum[i].im - expect.im).abs() < 1e-8);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = Fft::new(12);
    }

    #[test]
    #[should_panic(expected = "does not match FFT plan size")]
    fn rejects_mismatched_buffer() {
        let fft = Fft::new(8);
        let mut buf = vec![Complex64::ZERO; 4];
        fft.forward(&mut buf);
    }
}
