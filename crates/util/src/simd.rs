//! Portable 4-wide `f64` SIMD primitives and the ULP machinery that keeps
//! them honest.
//!
//! The paper's 50.5%-of-peak number (Table 1) came from hand-vectorizing the
//! dense inner loops with Blue Gene/Q's 4-wide QPX FMA unit. This module is
//! our equivalent: a [`F64x4`] value type that maps to one AVX2 `ymm`
//! register on `x86_64` (and to a plain `[f64; 4]` everywhere else), plus
//! the runtime-dispatch helper the kernel crates use to pick between their
//! scalar reference path and the vectorized one.
//!
//! Design rules, in order of importance:
//!
//! 1. **The scalar path is the reference.** Every vectorized kernel in
//!    `mqmd-linalg`, `mqmd-fft` and `mqmd-multigrid` keeps its scalar twin
//!    compiled unconditionally and is differentially tested against it
//!    under an explicit ULP bound (see [`ulp_diff`]).
//! 2. **Lane ops are IEEE-exact per lane.** [`F64x4::add`] etc. perform the
//!    same rounding as the corresponding scalar `f64` op, so a vector
//!    kernel that replicates the scalar operation order lane-by-lane is
//!    *bitwise identical* to its reference (the FFT butterflies and the
//!    red-black smoother do exactly this). Only kernels that deliberately
//!    change the operation mix — the FMA-accumulating GEMM microkernel —
//!    can drift, and those carry the ULP-bound property tests.
//! 3. **Dispatch is per-call and cached.** [`dispatch_simd`] reads a cached
//!    `cpuid` probe; the `simd` cargo feature compiles the vector paths in,
//!    the probe decides at runtime whether they run. A build without the
//!    feature contains scalar code only.
//!
//! The wider `f64x8` shape the GEMM microkernel wants (8 accumulator
//! columns) is expressed as a [`F64x4`] pair — on AVX2 that is two `ymm`
//! registers, which is exactly how an 8-column register block is held.

#![allow(clippy::missing_safety_doc)]

/// True when the running CPU can execute the AVX2+FMA vector paths *and*
/// the `simd` feature compiled them in. Cached after the first probe.
#[inline]
pub fn simd_available() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        use std::sync::atomic::{AtomicU8, Ordering};
        // 0 = unknown, 1 = no, 2 = yes
        static PROBE: AtomicU8 = AtomicU8::new(0);
        match PROBE.load(Ordering::Relaxed) {
            2 => true,
            1 => false,
            _ => {
                let ok = std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma");
                PROBE.store(if ok { 2 } else { 1 }, Ordering::Relaxed);
                ok
            }
        }
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        false
    }
}

/// Number of `f64` lanes in the vector type (4 — one AVX2 `ymm`).
pub const LANES: usize = 4;

// ---------------------------------------------------------------------------
// F64x4: AVX2 backend
// ---------------------------------------------------------------------------

/// A 4-wide `f64` vector.
///
/// On `x86_64` this wraps `__m256d`; elsewhere it is `[f64; 4]` with the
/// same API, so vector kernels compile (and stay correct) on every target.
/// Executing the x86 backend requires AVX2+FMA — callers must guard with
/// [`simd_available`] (the kernel crates' dispatchers do).
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug)]
#[repr(transparent)]
pub struct F64x4(pub std::arch::x86_64::__m256d);

#[cfg(target_arch = "x86_64")]
mod imp {
    use super::F64x4;
    use std::arch::x86_64::*;

    // Inherent `add`/`mul`/… rather than the `std::ops` traits: every
    // call site spells the lane arithmetic as an explicit method chain,
    // which keeps the scalar-twin comparison auditable and the two
    // backends textually identical.
    #[allow(clippy::should_implement_trait)]
    impl F64x4 {
        /// All four lanes set to `v`.
        #[inline(always)]
        pub fn splat(v: f64) -> Self {
            unsafe { Self(_mm256_set1_pd(v)) }
        }

        /// Lanes `[a, b, c, d]` (lane 0 first in memory order).
        #[inline(always)]
        pub fn new(a: f64, b: f64, c: f64, d: f64) -> Self {
            unsafe { Self(_mm256_setr_pd(a, b, c, d)) }
        }

        /// Unaligned load of `s[0..4]`.
        ///
        /// # Safety
        /// `s` must have at least 4 elements readable.
        #[inline(always)]
        pub unsafe fn load(s: *const f64) -> Self {
            Self(_mm256_loadu_pd(s))
        }

        /// Unaligned store into `d[0..4]`.
        ///
        /// # Safety
        /// `d` must have at least 4 elements writable.
        #[inline(always)]
        pub unsafe fn store(self, d: *mut f64) {
            _mm256_storeu_pd(d, self.0)
        }

        /// Lane-wise `self + o` (same rounding as scalar `+`).
        #[inline(always)]
        pub fn add(self, o: Self) -> Self {
            unsafe { Self(_mm256_add_pd(self.0, o.0)) }
        }

        /// Lane-wise `self - o`.
        #[inline(always)]
        pub fn sub(self, o: Self) -> Self {
            unsafe { Self(_mm256_sub_pd(self.0, o.0)) }
        }

        /// Lane-wise `self * o`.
        #[inline(always)]
        pub fn mul(self, o: Self) -> Self {
            unsafe { Self(_mm256_mul_pd(self.0, o.0)) }
        }

        /// Lane-wise `self / o`.
        #[inline(always)]
        pub fn div(self, o: Self) -> Self {
            unsafe { Self(_mm256_div_pd(self.0, o.0)) }
        }

        /// Fused `self * a + b` — one rounding, the QPX/AVX2 FMA primitive.
        #[inline(always)]
        pub fn mul_add(self, a: Self, b: Self) -> Self {
            unsafe { Self(_mm256_fmadd_pd(self.0, a.0, b.0)) }
        }

        /// Swaps the two halves of each complex pair:
        /// `[a, b, c, d] → [b, a, d, c]`.
        #[inline(always)]
        pub fn swap_pairs(self) -> Self {
            unsafe { Self(_mm256_permute_pd::<0b0101>(self.0)) }
        }

        /// Conjugates each interleaved complex pair by flipping the sign
        /// of the odd lanes: `[a, b, c, d] → [a, −b, c, −d]`.
        #[inline(always)]
        pub fn conj_pairs(self) -> Self {
            unsafe { Self(_mm256_xor_pd(self.0, _mm256_setr_pd(0.0, -0.0, 0.0, -0.0))) }
        }

        /// `[a0·b0 − a1·b1, a0·b1 + a1·b0, …]` for interleaved complex
        /// pairs: even lanes get `mul` results subtracted, odd lanes added —
        /// exactly the scalar complex-multiply op order per lane.
        #[inline(always)]
        pub fn addsub(self, o: Self) -> Self {
            unsafe { Self(_mm256_addsub_pd(self.0, o.0)) }
        }

        /// Keeps even-index lanes of `self`, replaces odd-index lanes with
        /// `o`'s: `[s0, o1, s2, o3]`.
        #[inline(always)]
        pub fn blend_odd_from(self, o: Self) -> Self {
            unsafe { Self(_mm256_blend_pd::<0b1010>(self.0, o.0)) }
        }

        /// Keeps odd-index lanes of `self`, replaces even-index lanes with
        /// `o`'s: `[o0, s1, o2, s3]`.
        #[inline(always)]
        pub fn blend_even_from(self, o: Self) -> Self {
            unsafe { Self(_mm256_blend_pd::<0b0101>(self.0, o.0)) }
        }

        /// Splits two consecutive registers (8 lanes in memory order,
        /// `self` first) into stride-2 streams:
        /// `([x0,x2,x4,x6], [x1,x3,x5,x7])`.
        #[inline(always)]
        pub fn deinterleave(self, hi: Self) -> (Self, Self) {
            unsafe {
                let t0 = _mm256_permute2f128_pd::<0x20>(self.0, hi.0); // [x0,x1,x4,x5]
                let t1 = _mm256_permute2f128_pd::<0x31>(self.0, hi.0); // [x2,x3,x6,x7]
                (
                    Self(_mm256_unpacklo_pd(t0, t1)), // [x0,x2,x4,x6]
                    Self(_mm256_unpackhi_pd(t0, t1)), // [x1,x3,x5,x7]
                )
            }
        }

        /// Inverse of [`Self::deinterleave`]: merges an even-lane stream
        /// `self` and an odd-lane stream `o` back into two consecutive
        /// registers in memory order.
        #[inline(always)]
        pub fn interleave(self, o: Self) -> (Self, Self) {
            unsafe {
                let lo = _mm256_unpacklo_pd(self.0, o.0); // [e0,o0,e2,o2]
                let hi = _mm256_unpackhi_pd(self.0, o.0); // [e1,o1,e3,o3]
                (
                    Self(_mm256_permute2f128_pd::<0x20>(lo, hi)), // [e0,o0,e1,o1]
                    Self(_mm256_permute2f128_pd::<0x31>(lo, hi)), // [e2,o2,e3,o3]
                )
            }
        }

        /// Extracts the four lanes.
        #[inline(always)]
        pub fn to_array(self) -> [f64; 4] {
            let mut out = [0.0; 4];
            unsafe { _mm256_storeu_pd(out.as_mut_ptr(), self.0) };
            out
        }

        /// Horizontal sum `lane0 + lane1 + lane2 + lane3`, summed in lane
        /// order (deterministic, matches a scalar left-to-right reduction).
        #[inline(always)]
        pub fn hsum_ordered(self) -> f64 {
            let a = self.to_array();
            ((a[0] + a[1]) + a[2]) + a[3]
        }
    }
}

// ---------------------------------------------------------------------------
// F64x4: portable lane-array backend
// ---------------------------------------------------------------------------

/// A 4-wide `f64` vector (portable lane-array backend).
#[cfg(not(target_arch = "x86_64"))]
#[derive(Clone, Copy, Debug)]
#[repr(transparent)]
pub struct F64x4(pub [f64; 4]);

#[cfg(not(target_arch = "x86_64"))]
mod imp {
    use super::F64x4;

    #[allow(clippy::should_implement_trait)]
    impl F64x4 {
        /// All four lanes set to `v`.
        #[inline(always)]
        pub fn splat(v: f64) -> Self {
            Self([v; 4])
        }

        /// Lanes `[a, b, c, d]`.
        #[inline(always)]
        pub fn new(a: f64, b: f64, c: f64, d: f64) -> Self {
            Self([a, b, c, d])
        }

        /// Unaligned load of `s[0..4]`.
        ///
        /// # Safety
        /// `s` must have at least 4 elements readable.
        #[inline(always)]
        pub unsafe fn load(s: *const f64) -> Self {
            Self([*s, *s.add(1), *s.add(2), *s.add(3)])
        }

        /// Unaligned store into `d[0..4]`.
        ///
        /// # Safety
        /// `d` must have at least 4 elements writable.
        #[inline(always)]
        pub unsafe fn store(self, d: *mut f64) {
            for (i, v) in self.0.iter().enumerate() {
                *d.add(i) = *v;
            }
        }

        /// Lane-wise `self + o`.
        #[inline(always)]
        pub fn add(self, o: Self) -> Self {
            let mut r = self.0;
            for (a, b) in r.iter_mut().zip(o.0) {
                *a += b;
            }
            Self(r)
        }

        /// Lane-wise `self - o`.
        #[inline(always)]
        pub fn sub(self, o: Self) -> Self {
            let mut r = self.0;
            for (a, b) in r.iter_mut().zip(o.0) {
                *a -= b;
            }
            Self(r)
        }

        /// Lane-wise `self * o`.
        #[inline(always)]
        pub fn mul(self, o: Self) -> Self {
            let mut r = self.0;
            for (a, b) in r.iter_mut().zip(o.0) {
                *a *= b;
            }
            Self(r)
        }

        /// Lane-wise `self / o`.
        #[inline(always)]
        pub fn div(self, o: Self) -> Self {
            let mut r = self.0;
            for (a, b) in r.iter_mut().zip(o.0) {
                *a /= b;
            }
            Self(r)
        }

        /// Fused `self * a + b` per lane.
        #[inline(always)]
        pub fn mul_add(self, a: Self, b: Self) -> Self {
            let mut r = [0.0; 4];
            for i in 0..4 {
                r[i] = self.0[i].mul_add(a.0[i], b.0[i]);
            }
            Self(r)
        }

        /// `[a, b, c, d] → [b, a, d, c]`.
        #[inline(always)]
        pub fn swap_pairs(self) -> Self {
            Self([self.0[1], self.0[0], self.0[3], self.0[2]])
        }

        /// `[a, b, c, d] → [a, −b, c, −d]`.
        #[inline(always)]
        pub fn conj_pairs(self) -> Self {
            Self([self.0[0], -self.0[1], self.0[2], -self.0[3]])
        }

        /// Even lanes `self - o`, odd lanes `self + o`.
        #[inline(always)]
        pub fn addsub(self, o: Self) -> Self {
            Self([
                self.0[0] - o.0[0],
                self.0[1] + o.0[1],
                self.0[2] - o.0[2],
                self.0[3] + o.0[3],
            ])
        }

        /// `[s0, o1, s2, o3]`.
        #[inline(always)]
        pub fn blend_odd_from(self, o: Self) -> Self {
            Self([self.0[0], o.0[1], self.0[2], o.0[3]])
        }

        /// `[o0, s1, o2, s3]`.
        #[inline(always)]
        pub fn blend_even_from(self, o: Self) -> Self {
            Self([o.0[0], self.0[1], o.0[2], self.0[3]])
        }

        /// Splits two consecutive registers (8 lanes in memory order,
        /// `self` first) into stride-2 streams:
        /// `([x0,x2,x4,x6], [x1,x3,x5,x7])`.
        #[inline(always)]
        pub fn deinterleave(self, hi: Self) -> (Self, Self) {
            let (a, b) = (self.0, hi.0);
            (
                Self([a[0], a[2], b[0], b[2]]),
                Self([a[1], a[3], b[1], b[3]]),
            )
        }

        /// Inverse of [`Self::deinterleave`]: merges an even-lane stream
        /// `self` and an odd-lane stream `o` back into two consecutive
        /// registers in memory order.
        #[inline(always)]
        pub fn interleave(self, o: Self) -> (Self, Self) {
            let (e, d) = (self.0, o.0);
            (
                Self([e[0], d[0], e[1], d[1]]),
                Self([e[2], d[2], e[3], d[3]]),
            )
        }

        /// Extracts the four lanes.
        #[inline(always)]
        pub fn to_array(self) -> [f64; 4] {
            self.0
        }

        /// Horizontal sum in lane order.
        #[inline(always)]
        pub fn hsum_ordered(self) -> f64 {
            ((self.0[0] + self.0[1]) + self.0[2]) + self.0[3]
        }
    }
}

// ---------------------------------------------------------------------------
// ULP distance — the currency of the differential-testing harness
// ---------------------------------------------------------------------------

/// Distance between two finite `f64`s in units-in-the-last-place: the
/// number of representable doubles strictly between them (0 for bitwise
/// equality, 1 for adjacent values). `u64::MAX` when either input is NaN
/// or the values differ in a way no finite ULP count describes
/// (infinities of opposite sign).
///
/// Implemented on the monotone integer mapping of IEEE-754 doubles
/// (sign-magnitude → offset binary), so the distance is exact across the
/// ±0 boundary and monotone across the whole finite range.
pub fn ulp_diff(a: f64, b: f64) -> u64 {
    if a.is_nan() || b.is_nan() {
        return u64::MAX;
    }
    // Map to a monotone ordering of all doubles: negative values are
    // reflected below the (doubled) zero point.
    fn key(x: f64) -> i128 {
        let bits = x.to_bits();
        let sign = bits >> 63;
        let mag = (bits & 0x7fff_ffff_ffff_ffff) as i128;
        if sign == 0 {
            mag
        } else {
            -mag
        }
    }
    key(a).abs_diff(key(b)).try_into().unwrap_or(u64::MAX)
}

/// Maximum [`ulp_diff`] over two equal-length slices.
///
/// # Panics
/// Panics when the slices differ in length.
pub fn max_ulp_diff(a: &[f64], b: &[f64]) -> u64 {
    assert_eq!(a.len(), b.len(), "ULP comparison needs equal lengths");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| ulp_diff(x, y))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The x86 backend executes AVX2/FMA instructions whether or not the
    /// `simd` cargo feature is on, so the tests probe the CPU directly and
    /// skip on hardware that cannot run them.
    fn can_run_vector_backend() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            true
        }
    }

    #[test]
    fn lane_ops_match_scalar_bitwise() {
        if !can_run_vector_backend() {
            return;
        }
        let a = F64x4::new(1.5, -2.25, 3.125e10, -7.5e-12);
        let b = F64x4::new(0.3, 4.75, -1.125e-3, 9.0e7);
        let (aa, ba) = (a.to_array(), b.to_array());
        for i in 0..4 {
            assert_eq!(a.add(b).to_array()[i].to_bits(), (aa[i] + ba[i]).to_bits());
            assert_eq!(a.sub(b).to_array()[i].to_bits(), (aa[i] - ba[i]).to_bits());
            assert_eq!(a.mul(b).to_array()[i].to_bits(), (aa[i] * ba[i]).to_bits());
            assert_eq!(a.div(b).to_array()[i].to_bits(), (aa[i] / ba[i]).to_bits());
        }
    }

    #[test]
    fn fma_is_single_rounding() {
        if !can_run_vector_backend() {
            return;
        }
        // A case where fused and unfused differ: fma(a, b, c) keeps the
        // low product bits that a*b+c drops.
        let (a, b, c) = (1.0 + 2f64.powi(-30), 1.0 + 2f64.powi(-30), -1.0);
        let fused = F64x4::splat(a)
            .mul_add(F64x4::splat(b), F64x4::splat(c))
            .to_array()[0];
        assert_eq!(fused.to_bits(), a.mul_add(b, c).to_bits());
        assert_ne!(fused.to_bits(), (a * b + c).to_bits());
    }

    #[test]
    fn shuffles_and_blends() {
        if !can_run_vector_backend() {
            return;
        }
        let a = F64x4::new(1.0, 2.0, 3.0, 4.0);
        let b = F64x4::new(-1.0, -2.0, -3.0, -4.0);
        assert_eq!(a.swap_pairs().to_array(), [2.0, 1.0, 4.0, 3.0]);
        assert_eq!(a.blend_odd_from(b).to_array(), [1.0, -2.0, 3.0, -4.0]);
        assert_eq!(a.blend_even_from(b).to_array(), [-1.0, 2.0, -3.0, 4.0]);
        assert_eq!(a.addsub(b).to_array(), [2.0, 0.0, 6.0, 0.0]);
    }

    #[test]
    fn deinterleave_and_interleave_round_trip() {
        if !can_run_vector_backend() {
            return;
        }
        let lo = F64x4::new(0.0, 1.0, 2.0, 3.0);
        let hi = F64x4::new(4.0, 5.0, 6.0, 7.0);
        let (evens, odds) = lo.deinterleave(hi);
        assert_eq!(evens.to_array(), [0.0, 2.0, 4.0, 6.0]);
        assert_eq!(odds.to_array(), [1.0, 3.0, 5.0, 7.0]);
        let (rlo, rhi) = evens.interleave(odds);
        assert_eq!(rlo.to_array(), lo.to_array());
        assert_eq!(rhi.to_array(), hi.to_array());
    }

    #[test]
    fn addsub_is_the_complex_multiply_shape() {
        if !can_run_vector_backend() {
            return;
        }
        // (x.re + i·x.im)(w.re + i·w.im) with interleaved lanes, the exact
        // op order of `Complex64::mul`.
        let (xr, xi, wr, wi) = (0.3, -1.7, 0.6, 2.2);
        let t0 = F64x4::new(xr, xr, xr, xr).mul(F64x4::new(wr, wi, wr, wi));
        let t1 = F64x4::new(xi, xi, xi, xi).mul(F64x4::new(wi, wr, wi, wr));
        let prod = t0.addsub(t1).to_array();
        assert_eq!(prod[0].to_bits(), (xr * wr - xi * wi).to_bits());
        assert_eq!(prod[1].to_bits(), (xr * wi + xi * wr).to_bits());
    }

    #[test]
    fn load_store_round_trip() {
        if !can_run_vector_backend() {
            return;
        }
        let src = [9.5, -8.25, 7.0, 6.625, 5.0];
        let mut dst = [0.0; 5];
        unsafe {
            let v = F64x4::load(src.as_ptr().add(1));
            v.store(dst.as_mut_ptr().add(1));
        }
        assert_eq!(&dst[1..], &src[1..]);
        assert_eq!(dst[0], 0.0);
    }

    #[test]
    fn ulp_distance_basics() {
        assert_eq!(ulp_diff(1.0, 1.0), 0);
        assert_eq!(ulp_diff(1.0, f64::from_bits(1.0f64.to_bits() + 1)), 1);
        assert_eq!(ulp_diff(0.0, -0.0), 0);
        // Adjacent across zero: smallest positive and negative subnormals
        // are 2 ULP apart (one step to each side of ±0).
        assert_eq!(ulp_diff(f64::from_bits(1), -f64::from_bits(1)), 2);
        assert_eq!(ulp_diff(f64::NAN, 1.0), u64::MAX);
        assert!(ulp_diff(1.0, 2.0) > 1_000_000);
        assert_eq!(max_ulp_diff(&[1.0, 2.0], &[1.0, 2.0]), 0);
    }

    #[test]
    fn hsum_is_lane_ordered() {
        if !can_run_vector_backend() {
            return;
        }
        let v = F64x4::new(1e16, 1.0, -1e16, 1.0);
        // ((1e16 + 1) - 1e16) + 1 = 1 in f64 (the +1 is absorbed), which
        // pins the left-to-right order.
        assert_eq!(v.hsum_ordered(), 1.0);
    }

    #[test]
    fn simd_available_is_stable() {
        assert_eq!(simd_available(), simd_available());
    }
}
