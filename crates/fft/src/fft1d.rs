//! Planned 1-D complex FFT.
//!
//! Powers of two go through a self-sorting Stockham radix-2 kernel with
//! per-stage precomputed twiddle tables (no bit-reversal permutation, all
//! loads/stores sequential — the property that made Spiral attractive on
//! Blue Gene/Q's QPX units). Every other length goes through Bluestein's
//! chirp-z algorithm, which re-expresses the DFT as a circular convolution of
//! the next power-of-two size.

use mqmd_util::flops::{count_flops, fft_flops};
use mqmd_util::Complex64;

/// A planned forward/inverse complex FFT of fixed length.
pub struct Fft1d {
    n: usize,
    /// Analytic FLOPs of one transform (see [`Fft1d::flops`]).
    flops: u64,
    kind: Kind,
}

enum Kind {
    /// Radix-2 Stockham; one twiddle table per stage.
    Pow2 { stages: Vec<Vec<Complex64>> },
    /// Bluestein chirp-z: internal power-of-two FFT of length `m`.
    Bluestein {
        m: usize,
        inner: Box<Fft1d>,
        /// chirp a_k = exp(−iπk²/n)
        chirp: Vec<Complex64>,
        /// FFT of the zero-padded conjugate-chirp kernel
        kernel_hat: Vec<Complex64>,
    },
}

impl Fft1d {
    /// Plans a transform of length `n ≥ 1`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "FFT length must be at least 1");
        if n.is_power_of_two() {
            let mut stages = Vec::new();
            let mut len = n;
            while len > 1 {
                let m = len / 2;
                let theta = -std::f64::consts::TAU / len as f64;
                let tw: Vec<Complex64> = (0..m).map(|p| Complex64::cis(theta * p as f64)).collect();
                stages.push(tw);
                len = m;
            }
            Self {
                n,
                flops: fft_flops(n as u64),
                kind: Kind::Pow2 { stages },
            }
        } else {
            // Bluestein: need a circular convolution of length ≥ 2n − 1.
            let m = (2 * n - 1).next_power_of_two();
            let inner = Box::new(Fft1d::new(m));
            // Chirp with double-angle bookkeeping: πk²/n computed modulo 2π via
            // exact integer reduction of k² mod 2n to avoid precision loss.
            let chirp: Vec<Complex64> = (0..n)
                .map(|k| {
                    let kk = (k as u128 * k as u128 % (2 * n as u128)) as f64;
                    Complex64::cis(-std::f64::consts::PI * kk / n as f64)
                })
                .collect();
            let mut kernel = vec![Complex64::ZERO; m];
            for k in 0..n {
                let v = chirp[k].conj();
                kernel[k] = v;
                if k != 0 {
                    kernel[m - k] = v;
                }
            }
            inner.forward(&mut kernel);
            Self {
                n,
                flops: fft_flops(n as u64) + 2 * inner.flops,
                kind: Kind::Bluestein {
                    m,
                    inner,
                    chirp,
                    kernel_hat: kernel,
                },
            }
        }
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns true for the degenerate length-1 transform.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Analytic FLOPs one forward or inverse transform adds to the tally:
    /// `5·n·log₂n`, plus, for a Bluestein length, the two power-of-two
    /// transforms of the padded convolution inside it.
    pub fn flops(&self) -> u64 {
        self.flops
    }

    /// In-place forward DFT: `X_k = Σ_j x_j·exp(−2πi·jk/n)`.
    ///
    /// Dispatches to the vectorized Stockham butterflies when the `simd`
    /// feature is compiled in and the CPU supports AVX2+FMA; the vector
    /// path replicates the scalar operation order per lane and is bitwise
    /// identical to [`Fft1d::forward_scalar`].
    ///
    /// # Panics
    /// Panics if `x.len() != self.len()`.
    pub fn forward(&self, x: &mut [Complex64]) {
        count_flops(self.flops);
        self.forward_untallied(x);
    }

    /// [`Fft1d::forward`] without the FLOP tally, for [`crate::Fft3d`]: it
    /// tallies a whole 3-D transform in one addition, where one per pencil
    /// made the tally's cache line the busiest in a threaded run.
    pub(crate) fn forward_untallied(&self, x: &mut [Complex64]) {
        self.forward_impl(x, mqmd_util::simd::simd_available());
    }

    /// Scalar reference for [`Fft1d::forward`] — always compiled, used by
    /// the differential tests.
    pub fn forward_scalar(&self, x: &mut [Complex64]) {
        count_flops(self.flops);
        self.forward_impl(x, false);
    }

    fn forward_impl(&self, x: &mut [Complex64], use_simd: bool) {
        assert_eq!(x.len(), self.n, "buffer length mismatch");
        match &self.kind {
            Kind::Pow2 { stages } => {
                let mut scratch = vec![Complex64::ZERO; self.n];
                stockham(x, &mut scratch, stages, use_simd);
            }
            Kind::Bluestein {
                m,
                inner,
                chirp,
                kernel_hat,
            } => {
                let n = self.n;
                let mut a = vec![Complex64::ZERO; *m];
                for k in 0..n {
                    a[k] = x[k] * chirp[k];
                }
                inner.forward_impl(&mut a, use_simd);
                for (ai, ki) in a.iter_mut().zip(kernel_hat) {
                    *ai *= *ki;
                }
                inner.inverse_impl(&mut a, use_simd);
                for k in 0..n {
                    x[k] = a[k] * chirp[k];
                }
            }
        }
    }

    /// In-place inverse DFT (unitary up to the conventional 1/n scaling):
    /// `x_j = (1/n)·Σ_k X_k·exp(+2πi·jk/n)`.
    pub fn inverse(&self, x: &mut [Complex64]) {
        count_flops(self.flops);
        self.inverse_untallied(x);
    }

    /// [`Fft1d::inverse`] without the FLOP tally (see
    /// [`Fft1d::forward_untallied`]).
    pub(crate) fn inverse_untallied(&self, x: &mut [Complex64]) {
        self.inverse_impl(x, mqmd_util::simd::simd_available());
    }

    /// Scalar reference for [`Fft1d::inverse`].
    pub fn inverse_scalar(&self, x: &mut [Complex64]) {
        count_flops(self.flops);
        self.inverse_impl(x, false);
    }

    fn inverse_impl(&self, x: &mut [Complex64], use_simd: bool) {
        assert_eq!(x.len(), self.n, "buffer length mismatch");
        // ifft(x) = conj(fft(conj(x)))/n — reuses the forward machinery.
        for z in x.iter_mut() {
            *z = z.conj();
        }
        self.forward_impl(x, use_simd);
        let inv_n = 1.0 / self.n as f64;
        for z in x.iter_mut() {
            *z = z.conj().scale(inv_n);
        }
    }
}

/// Self-sorting Stockham radix-2 driver. `x` holds the input and receives the
/// output; `y` is same-length scratch. `stages[t]` holds the twiddles
/// `exp(−2πi·p/len_t)` for stage `t` with `len_t = n >> t`. `use_simd`
/// selects the vectorized butterflies (a no-op request on builds without
/// the backend).
fn stockham(x: &mut [Complex64], y: &mut [Complex64], stages: &[Vec<Complex64>], use_simd: bool) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if use_simd && mqmd_util::simd::simd_available() {
        // SAFETY: `simd_available` verified AVX2+FMA.
        unsafe { avx::stockham_avx2(x, y, stages) };
        return;
    }
    let _ = use_simd;
    stockham_scalar(x, y, stages);
}

/// Scalar reference butterflies — the twin every vectorized stage is
/// differentially tested against.
#[allow(clippy::needless_range_loop)] // twiddle index doubles as output base
fn stockham_scalar(x: &mut [Complex64], y: &mut [Complex64], stages: &[Vec<Complex64>]) {
    let n = x.len();
    if n == 1 {
        return;
    }
    let mut len = n; // current sub-transform length
    let mut s = 1; // current stride
    let mut src_is_x = true;
    for tw in stages {
        let m = len / 2;
        let (src, dst): (&[Complex64], &mut [Complex64]) = if src_is_x {
            (&*x, &mut *y)
        } else {
            (&*y, &mut *x)
        };
        for p in 0..m {
            let w = tw[p];
            let base0 = s * p;
            let base1 = s * (p + m);
            let out0 = s * 2 * p;
            let out1 = s * (2 * p + 1);
            for q in 0..s {
                let a = src[q + base0];
                let b = src[q + base1];
                dst[q + out0] = a + b;
                dst[q + out1] = (a - b) * w;
            }
        }
        src_is_x = !src_is_x;
        len = m;
        s *= 2;
    }
    if !src_is_x {
        x.copy_from_slice(y);
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx {
    use super::Complex64;
    use mqmd_util::simd::F64x4;

    /// Vectorized Stockham butterflies: stages with stride `s ≥ 2` process
    /// two complex values per `f64x4` register. The twiddle multiply is
    /// built from `mul`/`addsub`, which is lane-for-lane the operation
    /// order of the scalar `Complex64` multiply — the whole transform is
    /// **bitwise identical** to [`super::stockham_scalar`]. The first
    /// stage (`s = 1`, scattered outputs) stays scalar.
    ///
    /// # Safety
    /// Requires AVX2+FMA at runtime.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::needless_range_loop)]
    pub unsafe fn stockham_avx2(
        x: &mut [Complex64],
        y: &mut [Complex64],
        stages: &[Vec<Complex64>],
    ) {
        let n = x.len();
        if n == 1 {
            return;
        }
        let mut len = n;
        let mut s = 1;
        let mut src_is_x = true;
        for tw in stages {
            let m = len / 2;
            let (src, dst): (&[Complex64], &mut [Complex64]) = if src_is_x {
                (&*x, &mut *y)
            } else {
                (&*y, &mut *x)
            };
            if s >= 2 {
                // Complex64 is #[repr(C)] {re, im}: the rows reinterpret
                // as interleaved [re, im] f64 streams.
                let sp = src.as_ptr() as *const f64;
                let dp = dst.as_mut_ptr() as *mut f64;
                for p in 0..m {
                    let w = tw[p];
                    let wv = F64x4::new(w.re, w.im, w.re, w.im);
                    let wsw = wv.swap_pairs();
                    let base0 = s * p;
                    let base1 = s * (p + m);
                    let out0 = s * 2 * p;
                    let out1 = s * (2 * p + 1);
                    // s is a power of two ≥ 2, so the q-loop has no tail.
                    let mut q = 0;
                    while q < s {
                        let a = F64x4::load(sp.add(2 * (q + base0)));
                        let b = F64x4::load(sp.add(2 * (q + base1)));
                        a.add(b).store(dp.add(2 * (q + out0)));
                        let d = a.sub(b);
                        let dsw = d.swap_pairs();
                        let dre = d.blend_odd_from(dsw); // [re, re, re, re]
                        let dim = d.blend_even_from(dsw); // [im, im, im, im]
                                                          // even lanes: re·w.re − im·w.im; odd: re·w.im + im·w.re
                        dre.mul(wv)
                            .addsub(dim.mul(wsw))
                            .store(dp.add(2 * (q + out1)));
                        q += 2;
                    }
                }
            } else {
                for p in 0..m {
                    let w = tw[p];
                    let a = src[p];
                    let b = src[p + m];
                    dst[2 * p] = a + b;
                    dst[2 * p + 1] = (a - b) * w;
                }
            }
            src_is_x = !src_is_x;
            len = m;
            s *= 2;
        }
        if !src_is_x {
            x.copy_from_slice(y);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dft(x: &[Complex64]) -> Vec<Complex64> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut s = Complex64::ZERO;
                for (j, &xj) in x.iter().enumerate() {
                    s +=
                        xj * Complex64::cis(-std::f64::consts::TAU * (j * k % n) as f64 / n as f64);
                }
                s
            })
            .collect()
    }

    fn random_signal(n: usize, seed: u64) -> Vec<Complex64> {
        let mut rng = mqmd_util::Xoshiro256pp::seed_from_u64(seed);
        (0..n)
            .map(|_| Complex64::new(rng.normal(), rng.normal()))
            .collect()
    }

    fn max_err(a: &[Complex64], b: &[Complex64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn matches_naive_dft_pow2() {
        for n in [1usize, 2, 4, 8, 16, 64, 256] {
            let x = random_signal(n, n as u64);
            let expect = naive_dft(&x);
            let mut got = x.clone();
            Fft1d::new(n).forward(&mut got);
            assert!(max_err(&got, &expect) < 1e-9 * n as f64, "n = {n}");
        }
    }

    #[test]
    fn matches_naive_dft_arbitrary() {
        for n in [3usize, 5, 6, 7, 12, 15, 17, 31, 45, 100] {
            let x = random_signal(n, 1000 + n as u64);
            let expect = naive_dft(&x);
            let mut got = x.clone();
            Fft1d::new(n).forward(&mut got);
            assert!(max_err(&got, &expect) < 1e-8 * n as f64, "n = {n}");
        }
    }

    #[test]
    fn round_trip_identity() {
        for n in [8usize, 10, 27, 128, 384] {
            let x = random_signal(n, 7 * n as u64);
            let plan = Fft1d::new(n);
            let mut y = x.clone();
            plan.forward(&mut y);
            plan.inverse(&mut y);
            assert!(max_err(&x, &y) < 1e-10 * n as f64, "n = {n}");
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let n = 64;
        let x = random_signal(n, 9);
        let mut y = x.clone();
        Fft1d::new(n).forward(&mut y);
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let freq_energy: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-9 * time_energy);
    }

    #[test]
    fn delta_transforms_to_constant() {
        let n = 32;
        let mut x = vec![Complex64::ZERO; n];
        x[0] = Complex64::ONE;
        Fft1d::new(n).forward(&mut x);
        for z in &x {
            assert!((*z - Complex64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn pure_tone_has_single_peak() {
        let n = 64;
        let k0 = 5;
        let mut x: Vec<Complex64> = (0..n)
            .map(|j| Complex64::cis(std::f64::consts::TAU * (k0 * j) as f64 / n as f64))
            .collect();
        Fft1d::new(n).forward(&mut x);
        for (k, z) in x.iter().enumerate() {
            if k == k0 {
                assert!((z.abs() - n as f64).abs() < 1e-9);
            } else {
                assert!(z.abs() < 1e-9, "leakage at bin {k}: {}", z.abs());
            }
        }
    }

    #[test]
    fn linearity() {
        let n = 48; // exercises Bluestein
        let a = random_signal(n, 21);
        let b = random_signal(n, 22);
        let plan = Fft1d::new(n);
        let mut fa = a.clone();
        let mut fb = b.clone();
        plan.forward(&mut fa);
        plan.forward(&mut fb);
        let mut sum: Vec<Complex64> = a.iter().zip(&b).map(|(&x, &y)| x + y.scale(2.0)).collect();
        plan.forward(&mut sum);
        let expect: Vec<Complex64> = fa
            .iter()
            .zip(&fb)
            .map(|(&x, &y)| x + y.scale(2.0))
            .collect();
        assert!(max_err(&sum, &expect) < 1e-9);
    }

    #[test]
    fn simd_butterflies_are_bitwise_scalar() {
        // Pow2 goes through the vector butterflies directly; 48/100 route
        // through Bluestein, whose inner pow2 transforms must also match.
        for n in [2usize, 4, 16, 64, 256, 48, 100] {
            let x = random_signal(n, 33 + n as u64);
            let plan = Fft1d::new(n);
            let mut fwd = x.clone();
            let mut fwd_ref = x.clone();
            plan.forward(&mut fwd);
            plan.forward_scalar(&mut fwd_ref);
            for (u, v) in fwd.iter().zip(&fwd_ref) {
                assert_eq!(u.re.to_bits(), v.re.to_bits(), "n = {n}");
                assert_eq!(u.im.to_bits(), v.im.to_bits(), "n = {n}");
            }
            plan.inverse(&mut fwd);
            plan.inverse_scalar(&mut fwd_ref);
            for (u, v) in fwd.iter().zip(&fwd_ref) {
                assert_eq!(u.re.to_bits(), v.re.to_bits(), "n = {n}");
                assert_eq!(u.im.to_bits(), v.im.to_bits(), "n = {n}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn length_mismatch_panics() {
        let plan = Fft1d::new(8);
        let mut x = vec![Complex64::ZERO; 4];
        plan.forward(&mut x);
    }
}
