//! Planned 1-D complex FFT over a lane-batched panel.
//!
//! Powers of two go through a self-sorting Stockham radix-2 kernel with
//! per-stage precomputed twiddle tables (no bit-reversal permutation, all
//! loads/stores sequential — the property that made Spiral attractive on
//! Blue Gene/Q's QPX units). Every other length goes through Bluestein's
//! chirp-z algorithm, which re-expresses the DFT as a circular convolution of
//! the next power-of-two size.
//!
//! Every transform is of a **panel**: `len()` rows, each holding the same
//! index of `width` independent signals (*lanes*) next to each other, rows
//! `stride` elements apart. A butterfly combines two rows with one twiddle,
//! so its inner loop runs along the lanes at unit stride, and every lane
//! sees exactly the operations, in exactly the order, that a one-signal
//! transform applies to it: results are bitwise independent of how signals
//! are batched. Where rows are packed (`stride == width`) the rows one
//! twiddle covers are adjacent and form a single run, which at one lane is
//! the classic Stockham inner loop. Scratch is the caller's; the kernel
//! allocates nothing.
//!
//! The staged Stockham driver runs the butterflies of one stage at a time,
//! ping-ponging between two scratch panels. On the vector path a line of
//! 2, 4 or 8 points — every line of the 8³ grids of an H₂ cell or a SiC
//! domain — has a second, **register** form: the rows of a pair of lanes are
//! loaded into `N` registers, the same butterflies with the same twiddles
//! run on them stage after stage (the inverse's conjugations and `1/N` on
//! the same stages), and each value is stored once; an odd last lane goes
//! through the scalar butterfly. Each lane thus sees the staged kernel's
//! operations in its order, so the two forms are bitwise equal, and the
//! register form needs no scratch.
//!
//! [`Fft1d::forward`] and friends are the one-signal case on scratch the
//! plan owns; [`crate::Fft3d`] drives the kernel over the lines of a 3-D
//! field.

use mqmd_util::flops::{count_flops, fft_flops};
use mqmd_util::simd::simd_available;
use mqmd_util::workspace::Workspace;
use mqmd_util::Complex64;
use std::ops::Range;

/// Longest line the vector path holds in registers: eight points are eight
/// `f64x4` registers for a pair of lanes.
const REGISTER_MAX: usize = 8;

/// A planned forward/inverse complex FFT of fixed length.
pub struct Fft1d {
    n: usize,
    /// Analytic FLOPs of one transform (see [`Fft1d::flops`]).
    flops: u64,
    kind: Kind,
    /// Scratch of the one-signal entry points.
    arena: Workspace,
}

enum Kind {
    /// Radix-2 Stockham; one twiddle table per stage.
    Pow2 { stages: Vec<Vec<Complex64>> },
    /// Bluestein chirp-z over a power-of-two convolution of length `m`.
    Bluestein {
        m: usize,
        /// Twiddle tables of the length-`m` transform.
        stages: Vec<Vec<Complex64>>,
        /// chirp a_k = exp(−iπk²/n)
        chirp: Vec<Complex64>,
        /// FFT of the zero-padded conjugate-chirp kernel
        kernel_hat: Vec<Complex64>,
    },
}

/// Transform direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// `X_k = Σ_j x_j·exp(−2πi·jk/n)`.
    Forward,
    /// `x_j = (1/n)·Σ_k X_k·exp(+2πi·jk/n)`.
    Inverse,
}

/// Twiddle tables `exp(−2πi·p/len_t)`, `len_t = n >> t`, of a power-of-two
/// length.
fn stockham_stages(n: usize) -> Vec<Vec<Complex64>> {
    let mut stages = Vec::new();
    let mut len = n;
    while len > 1 {
        let m = len / 2;
        let theta = -std::f64::consts::TAU / len as f64;
        stages.push((0..m).map(|p| Complex64::cis(theta * p as f64)).collect());
        len = m;
    }
    stages
}

impl Fft1d {
    /// Plans a transform of length `n ≥ 1`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "FFT length must be at least 1");
        let (flops, kind) = if n.is_power_of_two() {
            let stages = stockham_stages(n);
            (fft_flops(n as u64), Kind::Pow2 { stages })
        } else {
            // Bluestein: need a circular convolution of length ≥ 2n − 1.
            let m = (2 * n - 1).next_power_of_two();
            let stages = stockham_stages(m);
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
            let mut scratch = vec![Complex64::ZERO; 2 * m];
            count_flops(fft_flops(m as u64));
            // SAFETY: `kernel` is one packed lane of `m` rows, `scratch` twice
            // as long.
            unsafe {
                pow2(
                    Rows::packed(&mut kernel, 1),
                    1,
                    scratch.as_mut_ptr(),
                    &stages,
                    Direction::Forward,
                    simd_available(),
                );
            }
            (
                fft_flops(n as u64) + 2 * fft_flops(m as u64),
                Kind::Bluestein {
                    m,
                    stages,
                    chirp,
                    kernel_hat: kernel,
                },
            )
        };
        Self {
            n,
            flops,
            kind,
            arena: Workspace::new(),
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

    /// Rows of scratch a panel transform may need: `scratch_rows()·width`
    /// elements for `width` lanes are always enough (a line the registers
    /// hold uses none).
    pub fn scratch_rows(&self) -> usize {
        match &self.kind {
            Kind::Pow2 { .. } => 2 * self.n,
            Kind::Bluestein { m, .. } => 3 * m,
        }
    }

    /// Lanes per block for which a block's rows and the scratch panels the
    /// stages ping-pong between stay in the first-level cache: 512 values
    /// (8 KiB) each.
    pub(crate) fn block_lanes(&self) -> usize {
        let rows = match &self.kind {
            Kind::Pow2 { .. } => self.n,
            Kind::Bluestein { m, .. } => *m,
        };
        (512 / rows).max(4)
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
        self.line(x, Direction::Forward, simd_available());
    }

    /// Scalar reference for [`Fft1d::forward`] — always compiled, used by
    /// the differential tests.
    pub fn forward_scalar(&self, x: &mut [Complex64]) {
        self.line(x, Direction::Forward, false);
    }

    /// In-place inverse DFT (unitary up to the conventional 1/n scaling):
    /// `x_j = (1/n)·Σ_k X_k·exp(+2πi·jk/n)`.
    pub fn inverse(&self, x: &mut [Complex64]) {
        self.line(x, Direction::Inverse, simd_available());
    }

    /// Scalar reference for [`Fft1d::inverse`].
    pub fn inverse_scalar(&self, x: &mut [Complex64]) {
        self.line(x, Direction::Inverse, false);
    }

    /// One signal: a one-lane panel on scratch borrowed from the plan
    /// (none for a line the registers hold).
    fn line(&self, x: &mut [Complex64], dir: Direction, simd: bool) {
        if self.in_registers(simd) {
            return self.panel_impl(x, 1, 0..1, &mut [], dir, simd);
        }
        let mut scratch = self.arena.borrow_c64(self.scratch_rows());
        self.panel_impl(x, 1, 0..1, &mut scratch, dir, simd);
    }

    /// Whether a transform with `simd` requested runs in registers: a
    /// power-of-two line of 2 to [`REGISTER_MAX`] points on the vector
    /// path. Such a line needs no scratch.
    pub(crate) fn in_registers(&self, simd: bool) -> bool {
        cfg!(all(feature = "simd", target_arch = "x86_64"))
            && simd
            && simd_available()
            && matches!(self.kind, Kind::Pow2 { .. })
            && (2..=REGISTER_MAX).contains(&self.n)
    }

    /// Values of scratch a panel of `width` lanes needs with `simd`
    /// requested: [`Self::scratch_rows`]`·width`, or none in registers.
    pub(crate) fn scratch_len(&self, width: usize, simd: bool) -> usize {
        if self.in_registers(simd) {
            0
        } else {
            self.scratch_rows() * width
        }
    }

    /// Transforms, in place, lanes `lanes` of the panel `x` of `len()` rows
    /// of `stride` values: each lane is one signal, `x[r·stride + l]` its
    /// `r`-th sample. The other lanes are left alone. `scratch` holds at
    /// least [`Self::scratch_rows`]`·lanes.len()` values, whose contents
    /// on entry and on return mean nothing. Every lane comes out bitwise as
    /// [`Self::forward`] / [`Self::inverse`] would leave it.
    ///
    /// # Panics
    /// Panics if `x.len() != len()·stride`, `lanes` reaches past `stride`,
    /// or `scratch` is too short.
    pub fn panel(
        &self,
        x: &mut [Complex64],
        stride: usize,
        lanes: Range<usize>,
        scratch: &mut [Complex64],
        dir: Direction,
    ) {
        self.panel_impl(x, stride, lanes, scratch, dir, simd_available());
    }

    /// Scalar reference for [`Fft1d::panel`].
    pub fn panel_scalar(
        &self,
        x: &mut [Complex64],
        stride: usize,
        lanes: Range<usize>,
        scratch: &mut [Complex64],
        dir: Direction,
    ) {
        self.panel_impl(x, stride, lanes, scratch, dir, false);
    }

    fn panel_impl(
        &self,
        x: &mut [Complex64],
        stride: usize,
        lanes: Range<usize>,
        scratch: &mut [Complex64],
        dir: Direction,
        simd: bool,
    ) {
        count_flops(lanes.len() as u64 * self.flops);
        self.panel_untallied(x, stride, lanes, scratch, dir, simd);
    }

    /// [`Fft1d::panel`] without the FLOP tally.
    pub(crate) fn panel_untallied(
        &self,
        x: &mut [Complex64],
        stride: usize,
        lanes: Range<usize>,
        scratch: &mut [Complex64],
        dir: Direction,
        simd: bool,
    ) {
        assert_eq!(x.len(), self.n * stride, "buffer length mismatch");
        assert!(
            lanes.start <= lanes.end && lanes.end <= stride,
            "lanes outside the rows"
        );
        // SAFETY: `x` is borrowed exclusively and holds `n` rows of
        // `stride` values; lane `lanes.end − 1` of the last row is its
        // element `n·stride − stride + lanes.end − 1 < x.len()`.
        unsafe {
            let rows = Rows {
                ptr: x.as_mut_ptr().add(lanes.start),
                stride,
            };
            self.lanes_raw(rows, lanes.len(), scratch, dir, simd);
        }
    }

    /// The kernel behind every entry point, untallied: transforms the
    /// `width` lanes of `rows` in place.
    ///
    /// # Safety
    /// For every `r < len()` the `width` values from `rows.ptr + r·stride`
    /// must be valid for reads and writes, not overlap `scratch`, and not be
    /// accessed by anything else during the call.
    pub(crate) unsafe fn lanes_raw(
        &self,
        rows: Rows,
        width: usize,
        scratch: &mut [Complex64],
        dir: Direction,
        simd: bool,
    ) {
        assert!(
            scratch.len() >= self.scratch_len(width, simd),
            "scratch too short"
        );
        let n = self.n;
        match &self.kind {
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            Kind::Pow2 { stages } if self.in_registers(simd) => {
                // SAFETY: `in_registers` verified AVX2+FMA and 2 ≤ n ≤ 8.
                avx::lines(rows, width, stages, dir)
            }
            Kind::Pow2 { stages } => pow2(rows, width, scratch.as_mut_ptr(), stages, dir, simd),
            Kind::Bluestein {
                m,
                stages,
                chirp,
                kernel_hat,
            } => {
                // The chirp-z transform, forward; the conjugations of
                // ifft(x) = conj(fft(conj(x)))/n ride on its two chirp
                // multiplications.
                let inverse = dir == Direction::Inverse;
                let inv_n = 1.0 / n as f64;
                let (a, inner_scratch) = scratch.split_at_mut(m * width);
                a[n * width..].fill(Complex64::ZERO);
                let a = Rows::packed(a, width);
                let inner = inner_scratch.as_mut_ptr();
                map_rows(rows, a, n, width, |x, k| {
                    (if inverse { x.conj() } else { x }) * chirp[k]
                });
                pow2(a, width, inner, stages, Direction::Forward, simd);
                map_rows(a, a, *m, width, |z, k| z * kernel_hat[k]);
                pow2(a, width, inner, stages, Direction::Inverse, simd);
                map_rows(a, rows, n, width, |z, k| {
                    let x = z * chirp[k];
                    if inverse {
                        x.conj().scale(inv_n)
                    } else {
                        x
                    }
                });
            }
        }
    }
}

/// Where a panel's rows are: lane `l` of row `r` is `ptr.add(r·stride + l)`.
#[derive(Clone, Copy)]
pub(crate) struct Rows {
    pub(crate) ptr: *mut Complex64,
    pub(crate) stride: usize,
}

impl Rows {
    /// The rows of a packed `[rows][width]` panel.
    fn packed(panel: &mut [Complex64], width: usize) -> Self {
        Self {
            ptr: panel.as_mut_ptr(),
            stride: width,
        }
    }
}

/// `dst[r][l] = f(src[r][l], r)` over `n` rows of `width` lanes.
///
/// # Safety
/// Both sets of rows must be valid; they may be the same rows, and must not
/// overlap otherwise.
#[inline(always)]
unsafe fn map_rows(
    src: Rows,
    dst: Rows,
    n: usize,
    width: usize,
    f: impl Fn(Complex64, usize) -> Complex64,
) {
    for r in 0..n {
        let (from, to) = (src.ptr.add(r * src.stride), dst.ptr.add(r * dst.stride));
        for l in 0..width {
            *to.add(l) = f(*from.add(l), r);
        }
    }
}

/// Power-of-two transform of the `width` lanes of `data`, `scratch` two
/// packed panels of the same shape. `simd` selects the vectorized
/// butterflies (a no-op request on builds without the backend).
///
/// # Safety
/// As [`Fft1d::lanes_raw`], with `2^stages.len()` rows and `scratch` valid
/// for twice that many rows of `width` values.
unsafe fn pow2(
    data: Rows,
    width: usize,
    scratch: *mut Complex64,
    stages: &[Vec<Complex64>],
    dir: Direction,
    simd: bool,
) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd && simd_available() {
        // SAFETY: `simd_available` verified AVX2+FMA.
        return avx::pow2(data, width, scratch, stages, dir);
    }
    let _ = simd;
    pow2_with::<Scalar>(data, width, scratch, stages, dir);
}

/// The butterflies of one twiddle over a run of adjacent values.
trait Butterflies {
    /// `o0[i] = a[i] + b[i]`, `o1[i] = (a[i] − b[i])·w` for `i < len`. With
    /// `PRE` the inputs are conjugated first, with `POST` the outputs are
    /// conjugated and scaled by `scale` last: the two ends of
    /// `ifft(x) = conj(fft(conj(x)))/n`, folded into the first and the last
    /// stage.
    ///
    /// # Safety
    /// The four runs of `len` values must be valid, the outputs disjoint
    /// from the inputs and from each other.
    unsafe fn run<const PRE: bool, const POST: bool>(
        a: *const Complex64,
        b: *const Complex64,
        o0: *mut Complex64,
        o1: *mut Complex64,
        w: Complex64,
        scale: f64,
        len: usize,
    );
}

/// One butterfly, the expression both implementations share for the
/// values they do not vectorize.
#[inline(always)]
fn butterfly<const PRE: bool, const POST: bool>(
    mut x: Complex64,
    mut y: Complex64,
    w: Complex64,
    scale: f64,
) -> (Complex64, Complex64) {
    if PRE {
        (x, y) = (x.conj(), y.conj());
    }
    let (mut u, mut v) = (x + y, (x - y) * w);
    if POST {
        (u, v) = (u.conj().scale(scale), v.conj().scale(scale));
    }
    (u, v)
}

/// Scalar reference butterflies — the twin every vectorized run is
/// differentially tested against.
struct Scalar;

impl Butterflies for Scalar {
    #[inline(always)]
    unsafe fn run<const PRE: bool, const POST: bool>(
        a: *const Complex64,
        b: *const Complex64,
        o0: *mut Complex64,
        o1: *mut Complex64,
        w: Complex64,
        scale: f64,
        len: usize,
    ) {
        for i in 0..len {
            let (u, v) = butterfly::<PRE, POST>(*a.add(i), *b.add(i), w, scale);
            *o0.add(i) = u;
            *o1.add(i) = v;
        }
    }
}

/// One Stockham stage: sub-transforms of length `2m` interleaved at row
/// stride `s` in `src` become, in `dst`, sub-transforms of length `m` at
/// row stride `2s`.
///
/// # Safety
/// `src` and `dst` must each be valid for `2·m·s` rows of `width` values
/// and not overlap.
#[inline(always)]
unsafe fn stage<B: Butterflies, const PRE: bool, const POST: bool>(
    src: Rows,
    dst: Rows,
    tw: &[Complex64],
    s: usize,
    width: usize,
    scale: f64,
) {
    let m = tw.len();
    if src.stride == width && dst.stride == width {
        // Packed on both sides, the `s` adjacent rows one twiddle covers
        // are a single run (at one lane, the classic Stockham inner loop).
        let run = s * width;
        let (mut a, mut b, mut o) = (src.ptr, src.ptr.add(m * run), dst.ptr);
        for &w in tw {
            B::run::<PRE, POST>(a, b, o, o.add(run), w, scale, run);
            (a, b, o) = (a.add(run), b.add(run), o.add(2 * run));
        }
    } else {
        for (p, &w) in tw.iter().enumerate() {
            for q in 0..s {
                B::run::<PRE, POST>(
                    src.ptr.add((q + s * p) * src.stride),
                    src.ptr.add((q + s * (p + m)) * src.stride),
                    dst.ptr.add((q + s * 2 * p) * dst.stride),
                    dst.ptr.add((q + s * (2 * p + 1)) * dst.stride),
                    w,
                    scale,
                    width,
                );
            }
        }
    }
}

/// Self-sorting Stockham radix-2 driver. Stage `t` reads sub-transforms of
/// length `n >> t` interleaved at row stride `2^t` and writes them half as
/// long and twice as far apart. The first stage reads `data` and the last
/// writes it; the stages between ping-pong between the two halves of
/// `scratch`, so the caller's rows — strided, in a 3-D field, by a power of
/// two that maps them all to the same cache sets — are touched once each
/// way, and the middle stages run packed. The inverse is
/// `conj(fft(conj(x)))/n`, the conjugations riding on the first stage's
/// loads and the last stage's stores.
///
/// # Safety
/// As [`pow2`].
#[inline(always)]
unsafe fn pow2_with<B: Butterflies>(
    data: Rows,
    width: usize,
    scratch: *mut Complex64,
    stages: &[Vec<Complex64>],
    dir: Direction,
) {
    let Some(last) = stages.len().checked_sub(1) else {
        return;
    };
    let n = 1usize << stages.len();
    let inverse = dir == Direction::Inverse;
    let scale = 1.0 / n as f64;
    let half = |i: usize| Rows {
        ptr: scratch.add(i * n * width),
        stride: width,
    };
    let mut src = data;
    for (t, tw) in stages.iter().enumerate() {
        // A lone stage (n = 2) has nowhere to land but scratch.
        let dst = if t == last && last > 0 {
            data
        } else {
            half(t % 2)
        };
        let s = 1 << t;
        match (inverse && t == 0, inverse && t == last) {
            (false, false) => stage::<B, false, false>(src, dst, tw, s, width, scale),
            (true, false) => stage::<B, true, false>(src, dst, tw, s, width, scale),
            (false, true) => stage::<B, false, true>(src, dst, tw, s, width, scale),
            (true, true) => stage::<B, true, true>(src, dst, tw, s, width, scale),
        }
        src = dst;
    }
    if last == 0 {
        for r in 0..n {
            let (from, to) = (src.ptr.add(r * width), data.ptr.add(r * data.stride));
            std::ptr::copy_nonoverlapping(from, to, width);
        }
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx {
    use super::{butterfly, Butterflies, Complex64, Direction, Rows};
    use mqmd_util::simd::F64x4;

    /// [`super::pow2_with`] compiled for AVX2 over [`Avx2`] butterflies.
    ///
    /// # Safety
    /// As [`super::pow2`]; requires AVX2+FMA at runtime.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn pow2(
        data: Rows,
        width: usize,
        scratch: *mut Complex64,
        stages: &[Vec<Complex64>],
        dir: Direction,
    ) {
        super::pow2_with::<Avx2>(data, width, scratch, stages, dir);
    }

    /// The butterfly of one twiddle on two lanes at once: the twiddle
    /// multiply is built from `mul`/`addsub`, which is lane-for-lane the
    /// operation order of the scalar `Complex64` multiply, and the
    /// conjugations are sign flips — bitwise [`butterfly`] on each lane.
    /// `wv` is `[w.re, w.im, w.re, w.im]`, `wsw` its pair swap and `sv`
    /// the scale in every lane.
    #[inline(always)]
    fn pair_butterfly<const PRE: bool, const POST: bool>(
        mut x: F64x4,
        mut y: F64x4,
        wv: F64x4,
        wsw: F64x4,
        sv: F64x4,
    ) -> (F64x4, F64x4) {
        if PRE {
            (x, y) = (x.conj_pairs(), y.conj_pairs());
        }
        let mut u = x.add(y);
        let d = x.sub(y);
        let dsw = d.swap_pairs();
        let dre = d.blend_odd_from(dsw); // [re, re, re, re]
        let dim = d.blend_even_from(dsw); // [im, im, im, im]

        // even lanes: re·w.re − im·w.im; odd: re·w.im + im·w.re
        let mut v = dre.mul(wv).addsub(dim.mul(wsw));
        if POST {
            (u, v) = (u.conj_pairs().mul(sv), v.conj_pairs().mul(sv));
        }
        (u, v)
    }

    /// Vectorized butterflies: two complex values per `f64x4` register
    /// through [`pair_butterfly`], an odd run's last value through the
    /// scalar expression — every run is **bitwise identical** to
    /// [`super::Scalar`]'s.
    struct Avx2;

    impl Butterflies for Avx2 {
        #[inline(always)]
        unsafe fn run<const PRE: bool, const POST: bool>(
            a: *const Complex64,
            b: *const Complex64,
            o0: *mut Complex64,
            o1: *mut Complex64,
            w: Complex64,
            scale: f64,
            len: usize,
        ) {
            // Complex64 is #[repr(C)] {re, im}: a run reinterprets as an
            // interleaved [re, im] f64 stream.
            let (ap, bp) = (a as *const f64, b as *const f64);
            let (p0, p1) = (o0 as *mut f64, o1 as *mut f64);
            let wv = F64x4::new(w.re, w.im, w.re, w.im);
            let wsw = wv.swap_pairs();
            let sv = F64x4::splat(scale);
            let pairs = len & !1;
            let mut i = 0;
            while i < pairs {
                let x = F64x4::load(ap.add(2 * i));
                let y = F64x4::load(bp.add(2 * i));
                let (u, v) = pair_butterfly::<PRE, POST>(x, y, wv, wsw, sv);
                u.store(p0.add(2 * i));
                v.store(p1.add(2 * i));
                i += 2;
            }
            if pairs < len {
                let (u, v) = butterfly::<PRE, POST>(*a.add(pairs), *b.add(pairs), w, scale);
                *o0.add(pairs) = u;
                *o1.add(pairs) = v;
            }
        }
    }

    /// What a line of the register form is held in: one lane as a
    /// `Complex64`, or a pair of lanes as an `f64x4`.
    trait Lanes: Copy {
        /// Loads row `r` of the lanes at `at`.
        unsafe fn load(at: *const Complex64) -> Self;
        unsafe fn store(self, at: *mut Complex64);
        /// The butterfly of one twiddle, bitwise [`butterfly`] per lane.
        fn butterfly<const PRE: bool, const POST: bool>(
            x: Self,
            y: Self,
            w: Complex64,
            scale: f64,
        ) -> (Self, Self);
    }

    impl Lanes for Complex64 {
        #[inline(always)]
        unsafe fn load(at: *const Complex64) -> Self {
            *at
        }
        #[inline(always)]
        unsafe fn store(self, at: *mut Complex64) {
            *at = self;
        }
        #[inline(always)]
        fn butterfly<const PRE: bool, const POST: bool>(
            x: Self,
            y: Self,
            w: Complex64,
            scale: f64,
        ) -> (Self, Self) {
            butterfly::<PRE, POST>(x, y, w, scale)
        }
    }

    impl Lanes for F64x4 {
        #[inline(always)]
        unsafe fn load(at: *const Complex64) -> Self {
            F64x4::load(at as *const f64)
        }
        #[inline(always)]
        unsafe fn store(self, at: *mut Complex64) {
            F64x4::store(self, at as *mut f64)
        }
        #[inline(always)]
        fn butterfly<const PRE: bool, const POST: bool>(
            x: Self,
            y: Self,
            w: Complex64,
            scale: f64,
        ) -> (Self, Self) {
            let wv = F64x4::new(w.re, w.im, w.re, w.im);
            let sv = F64x4::splat(scale);
            pair_butterfly::<PRE, POST>(x, y, wv, wv.swap_pairs(), sv)
        }
    }

    /// One stage of [`super::pow2_with`] on a line of `N` values held in
    /// registers: values `q + s·p` and `q + s·(p + m)` go through the
    /// butterfly of twiddle `p` of the same table into `q + 2s·p` and
    /// `q + s·(2p + 1)` (`m = N/2s`) — what [`super::stage`] does with
    /// rows, with the ping-pong between scratch panels gone.
    #[inline(always)]
    fn stage_in_registers<V: Lanes, const N: usize, const PRE: bool, const POST: bool>(
        x: &mut [V; N],
        tw: &[Complex64],
        s: usize,
    ) {
        let m = N / (2 * s);
        let scale = 1.0 / N as f64;
        let src = *x;
        for p in 0..m {
            let w = tw[p];
            for q in 0..s {
                let (u, v) =
                    V::butterfly::<PRE, POST>(src[q + s * p], src[q + s * (p + m)], w, scale);
                x[q + 2 * s * p] = u;
                x[q + s * (2 * p + 1)] = v;
            }
        }
    }

    /// Every stage of a line of `N` values in registers, the inverse's
    /// conjugations on the first stage's inputs and the last's outputs.
    /// Each stage's size and flags are constants, so its loops unroll and
    /// the line never leaves the registers.
    #[inline(always)]
    fn stages_in_registers<V: Lanes, const N: usize, const INV: bool>(
        x: &mut [V; N],
        stages: &[Vec<Complex64>],
    ) {
        match stages {
            [t0] if N == 2 => stage_in_registers::<V, N, INV, INV>(x, t0, 1),
            [t0, t1] if N == 4 => {
                stage_in_registers::<V, N, INV, false>(x, t0, 1);
                stage_in_registers::<V, N, false, INV>(x, t1, 2);
            }
            [t0, t1, t2] if N == 8 => {
                stage_in_registers::<V, N, INV, false>(x, t0, 1);
                stage_in_registers::<V, N, false, false>(x, t1, 2);
                stage_in_registers::<V, N, false, INV>(x, t2, 4);
            }
            _ => unreachable!("a line of {N} has log2({N}) stages"),
        }
    }

    /// Transforms the `width` lanes of `data`, `N` rows, a pair of lanes
    /// at a time in `N` registers and an odd last lane as `N` scalars.
    ///
    /// # Safety
    /// As [`super::Fft1d::lanes_raw`] with `N` rows; requires AVX2+FMA.
    #[inline(always)]
    unsafe fn lines_of<const N: usize, const INV: bool>(
        data: Rows,
        width: usize,
        stages: &[Vec<Complex64>],
    ) {
        unsafe fn line<V: Lanes, const N: usize, const INV: bool>(
            data: Rows,
            l: usize,
            stages: &[Vec<Complex64>],
        ) {
            let row = |r: usize| data.ptr.add(r * data.stride + l);
            let mut x: [V; N] = std::array::from_fn(|r| V::load(row(r)));
            stages_in_registers::<V, N, INV>(&mut x, stages);
            for (r, v) in x.into_iter().enumerate() {
                v.store(row(r));
            }
        }
        let pairs = width & !1;
        for l in (0..pairs).step_by(2) {
            line::<F64x4, N, INV>(data, l, stages);
        }
        if pairs < width {
            line::<Complex64, N, INV>(data, pairs, stages);
        }
    }

    /// The register form of a power-of-two transform of 2, 4 or 8 points
    /// over the `width` lanes of `data`: no scratch, each value loaded
    /// and stored once, bitwise [`super::pow2_with`] over either
    /// butterflies.
    ///
    /// # Safety
    /// As [`super::Fft1d::lanes_raw`] with `2^stages.len() ≤ 8` rows;
    /// requires AVX2+FMA at runtime.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn lines(data: Rows, width: usize, stages: &[Vec<Complex64>], dir: Direction) {
        match (stages.len(), dir == Direction::Inverse) {
            (1, false) => lines_of::<2, false>(data, width, stages),
            (1, true) => lines_of::<2, true>(data, width, stages),
            (2, false) => lines_of::<4, false>(data, width, stages),
            (2, true) => lines_of::<4, true>(data, width, stages),
            (3, false) => lines_of::<8, false>(data, width, stages),
            (3, true) => lines_of::<8, true>(data, width, stages),
            (len, _) => unreachable!("a {len}-stage line is not held in registers"),
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
