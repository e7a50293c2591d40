//! BLAS2/BLAS3-style multiply kernels.
//!
//! The paper's §3.4 describes transforming band-by-band conjugate-gradient
//! updates (DGEMV-shaped, BLAS2) into all-band matrix–matrix products
//! (DGEMM-shaped, BLAS3) to expose parallelism and increase arithmetic
//! intensity. Both paths are implemented here on our own data structures:
//!
//! * [`dgemv`]/[`zgemv`] — the band-by-band reference path;
//! * [`dgemm`]/[`zgemm`] — the all-band path, with rayon parallelism over
//!   output row blocks (no synchronisation: each task owns disjoint rows of
//!   C); the scalar references walk each row of C in `i-k-j` order;
//! * [`zgemm_dagger_a_into`] — `A†·B`, the overlap-matrix kernel of the band
//!   orthonormalisation (§3.3).
//!
//! ## SIMD microkernels (Table 1's QPX vectorization, on AVX2)
//!
//! With the `simd` feature each public kernel dispatches at runtime between
//! its **scalar reference** (`*_scalar`, always compiled, retained verbatim)
//! and a vectorized path:
//!
//! * [`dgemm_simd`] — a packed, register-blocked `f64` microkernel: the
//!   α-scaled A panel is packed k-major into a thread-local buffer
//!   ([`MR`] = 4 rows per panel), and the inner loop holds an
//!   [`MR`]×[`NR`] = 4×8 block of C in eight `f64x4` accumulators (an
//!   `f64x8` pair per row), updated with fused multiply-adds. FMA fuses
//!   what the scalar path rounds twice, so results can differ from the
//!   reference by a bounded number of ULPs — the property tests in
//!   `tests/simd_differential.rs` pin that bound.
//! * [`zgemm_simd`] / the vector path inside [`zgemm_dagger_a_into`] —
//!   register tiles of up to 4 rows × 2 `f64x4` column pairs (two
//!   `Complex64` each), plus an odd last column, held in registers for the
//!   whole inner dimension and stored once. Every element keeps the scalar
//!   [`Complex64::mul_add`] chain — the same steps, in the same order, with
//!   the same `s == 0` skip — lane-by-lane, so these are **bitwise
//!   identical** to the reference. What the tile changes is the cost per
//!   call at the small shapes of an H₂ cell (a few bands, ~100 plane
//!   waves): one call per tile instead of one per (row, k) pair.
//!
//! Both paths are deterministic for any rayon thread count: row blocks are
//! data-parallel with no shared accumulation, and the `A†·B` chunk reduction
//! uses a thread-count-independent chunk size summed sequentially in chunk
//! order.
//!
//! Every kernel tallies analytic FLOPs via `mqmd_util::flops`.

use crate::cmatrix::CMatrix;
use crate::matrix::Matrix;
use mqmd_util::flops::{count_flops, gemm_flops, par_min_len, zgemm_flops};
use mqmd_util::workspace::Workspace;
use mqmd_util::Complex64;
use rayon::prelude::*;

/// Row-block size for parallel GEMM. Small enough to give rayon work-stealing
/// granularity on thousands-row matrices, big enough to amortise task
/// overhead.
const ROW_BLOCK: usize = 32;

/// Rows per packed A panel in the SIMD microkernel.
pub const MR: usize = 4;
/// Columns per register block in the SIMD microkernel (two `f64x4`
/// accumulators per row — the `f64x8` shape).
pub const NR: usize = 8;

/// Dense real GEMM: `C ← α·A·B + β·C`.
///
/// Dispatches to the packed SIMD microkernel when the `simd` feature is
/// compiled in and the CPU supports it, and to the scalar reference
/// otherwise.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn dgemm(alpha: f64, a: &Matrix, b: &Matrix, beta: f64, c: &mut Matrix) {
    if mqmd_util::simd::simd_available() {
        dgemm_simd(alpha, a, b, beta, c);
    } else {
        dgemm_scalar(alpha, a, b, beta, c);
    }
}

/// Scalar reference for [`dgemm`] — the always-compiled path every SIMD
/// result is differentially tested against.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn dgemm_scalar(alpha: f64, a: &Matrix, b: &Matrix, beta: f64, c: &mut Matrix) {
    let _span = mqmd_util::trace::span("gemm");
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    assert_eq!(b.rows(), k, "inner dimension mismatch");
    assert_eq!(c.rows(), m, "C row mismatch");
    assert_eq!(c.cols(), n, "C col mismatch");
    count_flops(gemm_flops(m as u64, n as u64, k as u64));
    mqmd_util::trace::add_bytes(8 * (m * k + k * n + 2 * m * n) as u64);

    if m == 0 || n == 0 {
        // Empty C: nothing to scale or accumulate (and a zero-sized
        // parallel chunk is rejected by rayon).
        return;
    }
    let a_data = a.data();
    let b_data = b.data();
    c.data_mut()
        .par_chunks_mut(ROW_BLOCK * n)
        .with_min_len(par_min_len(gemm_flops(
            ROW_BLOCK as u64,
            n as u64,
            k as u64,
        )))
        .enumerate()
        .for_each(|(blk, c_rows)| {
            let i0 = blk * ROW_BLOCK;
            for (di, c_row) in c_rows.chunks_mut(n).enumerate() {
                let i = i0 + di;
                if beta == 0.0 {
                    c_row.fill(0.0);
                } else if beta != 1.0 {
                    for x in c_row.iter_mut() {
                        *x *= beta;
                    }
                }
                let a_row = &a_data[i * k..(i + 1) * k];
                for (kk, &aik) in a_row.iter().enumerate() {
                    let s = alpha * aik;
                    if s == 0.0 {
                        continue;
                    }
                    let b_row = &b_data[kk * n..(kk + 1) * n];
                    for (cj, &bj) in c_row.iter_mut().zip(b_row) {
                        *cj += s * bj;
                    }
                }
            }
        });
}

/// Packed, register-blocked SIMD form of [`dgemm`]. Falls back to the
/// scalar reference when the vector backend cannot run (feature off,
/// non-x86 target, or missing AVX2/FMA).
///
/// # Panics
/// Panics on dimension mismatch.
pub fn dgemm_simd(alpha: f64, a: &Matrix, b: &Matrix, beta: f64, c: &mut Matrix) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if mqmd_util::simd::simd_available() {
        let _span = mqmd_util::trace::span("gemm");
        let (m, k) = (a.rows(), a.cols());
        let n = b.cols();
        assert_eq!(b.rows(), k, "inner dimension mismatch");
        assert_eq!(c.rows(), m, "C row mismatch");
        assert_eq!(c.cols(), n, "C col mismatch");
        count_flops(gemm_flops(m as u64, n as u64, k as u64));
        mqmd_util::trace::add_bytes(8 * (m * k + k * n + 2 * m * n) as u64);

        if m == 0 || n == 0 {
            // Empty C: nothing to scale or accumulate (and a zero-sized
            // parallel chunk is rejected by rayon).
            return;
        }
        let a_data = a.data();
        let b_data = b.data();
        c.data_mut()
            .par_chunks_mut(ROW_BLOCK * n)
            .with_min_len(par_min_len(gemm_flops(
                ROW_BLOCK as u64,
                n as u64,
                k as u64,
            )))
            .enumerate()
            .for_each(|(blk, c_rows)| {
                avx::with_pack(k * MR, |pack| {
                    // SAFETY: `simd_available` verified AVX2+FMA above.
                    unsafe {
                        avx::dgemm_rows_avx2(
                            alpha,
                            beta,
                            a_data,
                            b_data,
                            c_rows,
                            blk * ROW_BLOCK,
                            k,
                            n,
                            pack,
                        );
                    }
                });
            });
        return;
    }
    dgemm_scalar(alpha, a, b, beta, c);
}

/// Dense real GEMV: `y ← α·A·x + β·y` (the BLAS2 band-by-band path).
#[allow(clippy::needless_range_loop)]
pub fn dgemv(alpha: f64, a: &Matrix, x: &[f64], beta: f64, y: &mut [f64]) {
    let (m, k) = (a.rows(), a.cols());
    assert_eq!(x.len(), k);
    assert_eq!(y.len(), m);
    count_flops(gemm_flops(m as u64, 1, k as u64));
    for i in 0..m {
        let row = a.row(i);
        let mut acc = 0.0;
        for (aij, xj) in row.iter().zip(x) {
            acc += aij * xj;
        }
        y[i] = alpha * acc + if beta == 0.0 { 0.0 } else { beta * y[i] };
    }
}

/// Dense complex GEMM: `C ← α·A·B + β·C`.
///
/// Dispatches to the vectorized kernel (bitwise identical to the scalar
/// reference) when available.
///
/// Every element of C is one chain of [`Complex64::mul_add`] over `k` in
/// order, after the β pass (`β = 0` clears C, `β = 1` leaves it). A step
/// whose coefficient `s = α·A[i][k]` is zero is **skipped**, not
/// multiplied: `0·NaN` and `0·∞` are never formed, so a NaN or ∞ in a row
/// of B that only zero coefficients scale does not reach C. Both paths keep
/// the skip, which is part of what makes them bitwise equal.
pub fn zgemm(alpha: Complex64, a: &CMatrix, b: &CMatrix, beta: Complex64, c: &mut CMatrix) {
    if mqmd_util::simd::simd_available() {
        zgemm_simd(alpha, a, b, beta, c);
    } else {
        zgemm_scalar(alpha, a, b, beta, c);
    }
}

/// Scalar reference for [`zgemm`].
pub fn zgemm_scalar(alpha: Complex64, a: &CMatrix, b: &CMatrix, beta: Complex64, c: &mut CMatrix) {
    let _span = mqmd_util::trace::span("gemm");
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    assert_eq!(b.rows(), k, "inner dimension mismatch");
    assert_eq!(c.rows(), m, "C row mismatch");
    assert_eq!(c.cols(), n, "C col mismatch");
    count_flops(zgemm_flops(m as u64, n as u64, k as u64));
    mqmd_util::trace::add_bytes(16 * (m * k + k * n + 2 * m * n) as u64);

    if m == 0 || n == 0 {
        // Empty C: nothing to scale or accumulate (and a zero-sized
        // parallel chunk is rejected by rayon).
        return;
    }
    let a_data = a.data();
    let b_data = b.data();
    c.data_mut()
        .par_chunks_mut(ROW_BLOCK * n)
        .with_min_len(par_min_len(zgemm_flops(
            ROW_BLOCK as u64,
            n as u64,
            k as u64,
        )))
        .enumerate()
        .for_each(|(blk, c_rows)| {
            let i0 = blk * ROW_BLOCK;
            for (di, c_row) in c_rows.chunks_mut(n).enumerate() {
                let i = i0 + di;
                if beta == Complex64::ZERO {
                    c_row.fill(Complex64::ZERO);
                } else if beta != Complex64::ONE {
                    for z in c_row.iter_mut() {
                        *z *= beta;
                    }
                }
                let a_row = &a_data[i * k..(i + 1) * k];
                for (kk, &aik) in a_row.iter().enumerate() {
                    let s = alpha * aik;
                    if s == Complex64::ZERO {
                        continue;
                    }
                    let b_row = &b_data[kk * n..(kk + 1) * n];
                    for (cj, &bj) in c_row.iter_mut().zip(b_row) {
                        *cj = cj.mul_add(s, bj);
                    }
                }
            }
        });
}

/// Vectorized form of [`zgemm`]: register tiles of C, two `Complex64` per
/// `f64x4` register, replicating the scalar [`Complex64::mul_add`] chain
/// and its `s == 0` skip per lane — **bitwise identical** to
/// [`zgemm_scalar`]. Falls back to the scalar reference when the vector
/// backend cannot run.
pub fn zgemm_simd(alpha: Complex64, a: &CMatrix, b: &CMatrix, beta: Complex64, c: &mut CMatrix) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if mqmd_util::simd::simd_available() {
        let _span = mqmd_util::trace::span("gemm");
        let (m, k) = (a.rows(), a.cols());
        let n = b.cols();
        assert_eq!(b.rows(), k, "inner dimension mismatch");
        assert_eq!(c.rows(), m, "C row mismatch");
        assert_eq!(c.cols(), n, "C col mismatch");
        count_flops(zgemm_flops(m as u64, n as u64, k as u64));
        mqmd_util::trace::add_bytes(16 * (m * k + k * n + 2 * m * n) as u64);

        if m == 0 || n == 0 {
            // Empty C: nothing to scale or accumulate (and a zero-sized
            // parallel chunk is rejected by rayon).
            return;
        }
        let a_data = a.data();
        let b_data = b.data();
        c.data_mut()
            .par_chunks_mut(ROW_BLOCK * n)
            .with_min_len(par_min_len(zgemm_flops(
                ROW_BLOCK as u64,
                n as u64,
                k as u64,
            )))
            .enumerate()
            .for_each(|(blk, c_rows)| {
                for c_row in c_rows.chunks_mut(n) {
                    if beta == Complex64::ZERO {
                        c_row.fill(Complex64::ZERO);
                    } else if beta != Complex64::ONE {
                        for z in c_row.iter_mut() {
                            *z *= beta;
                        }
                    }
                }
                // SAFETY: `simd_available` verified AVX2+FMA above.
                unsafe {
                    avx::zgemm_rows_avx2(alpha, a_data, b_data, c_rows, blk * ROW_BLOCK, k, n)
                };
            });
        return;
    }
    zgemm_scalar(alpha, a, b, beta, c);
}

/// Dense complex GEMV: `y ← α·A·x + β·y`.
#[allow(clippy::needless_range_loop)]
pub fn zgemv(alpha: Complex64, a: &CMatrix, x: &[Complex64], beta: Complex64, y: &mut [Complex64]) {
    let (m, k) = (a.rows(), a.cols());
    assert_eq!(x.len(), k);
    assert_eq!(y.len(), m);
    count_flops(zgemm_flops(m as u64, 1, k as u64));
    for i in 0..m {
        let row = a.row(i);
        let mut acc = Complex64::ZERO;
        for (&aij, &xj) in row.iter().zip(x) {
            acc = acc.mul_add(aij, xj);
        }
        y[i] = alpha * acc
            + if beta == Complex64::ZERO {
                Complex64::ZERO
            } else {
                beta * y[i]
            };
    }
}

/// Computes `A†·B` into `out` (which must already be `A.cols × B.cols`),
/// drawing the per-chunk partial accumulators from `ws`. With `A = B = Ψ`
/// this is the band overlap matrix `S = Ψ†Ψ` that feeds the Cholesky
/// orthonormalisation.
///
/// Every element is one [`Complex64::mul_add`] chain over the plane-wave
/// index `g`, in order, from `+0`. The plane-wave range is split into
/// fixed-size chunks of 1024 rows or more and the per-chunk partials are
/// summed *sequentially in chunk order*. The chunk size depends only on the
/// problem shape — never on the rayon pool width — so the result is
/// bitwise identical for any thread count, on both the scalar and the
/// vector path (which holds a tile of the accumulator in registers and
/// replicates the scalar op order lane-by-lane). A single chunk is
/// accumulated straight into `out` and borrows nothing: adding it to `+0`
/// would change no bit, because a chain that starts at `+0` never holds
/// `−0`.
pub fn zgemm_dagger_a_into(a: &CMatrix, b: &CMatrix, out: &mut CMatrix, ws: &Workspace) {
    let _span = mqmd_util::trace::span("gemm");
    let (np, na) = (a.rows(), a.cols());
    let nb = b.cols();
    assert_eq!(b.rows(), np, "row mismatch");
    assert_eq!(out.rows(), na, "out row mismatch");
    assert_eq!(out.cols(), nb, "out col mismatch");
    count_flops(zgemm_flops(na as u64, nb as u64, np as u64));

    let out_data = out.data_mut();
    out_data.fill(Complex64::ZERO);
    if np == 0 || na * nb == 0 {
        return;
    }
    let (a_data, b_data) = (a.data(), b.data());
    // The chunk size is a pure function of np, so chunk boundaries (and
    // hence the sequential chunk-order reduction) are identical for every
    // rayon pool width.
    let chunk = 1024usize.max(np.div_ceil(64));
    let rows = |c: usize| c * chunk..((c + 1) * chunk).min(np);
    if np <= chunk {
        dagger_chunk(a_data, b_data, na, nb, rows(0), out_data);
        return;
    }
    // One partial product per chunk, side by side in one pooled buffer.
    let mut partials = ws.borrow_c64(np.div_ceil(chunk) * na * nb);
    partials
        .par_chunks_mut(na * nb)
        .with_min_len(par_min_len(zgemm_flops(na as u64, nb as u64, 1)).div_ceil(chunk))
        .enumerate()
        .for_each(|(c, acc)| dagger_chunk(a_data, b_data, na, nb, rows(c), acc));
    for p in partials.chunks_exact(na * nb) {
        for (o, &v) in out_data.iter_mut().zip(p) {
            *o += v;
        }
    }
}

/// `acc[i][j] ← acc[i][j] + Σ_{g ∈ rows} conj(A[g][i])·B[g][j]`, one
/// [`Complex64::mul_add`] per `g` in order: the vector tiles when they can
/// run, else the scalar reference loop.
fn dagger_chunk(
    a: &[Complex64],
    b: &[Complex64],
    na: usize,
    nb: usize,
    rows: std::ops::Range<usize>,
    acc: &mut [Complex64],
) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if mqmd_util::simd::simd_available() {
        // SAFETY: `simd_available` verified AVX2+FMA.
        unsafe { avx::dagger_chunk_avx2(a, b, na, nb, rows, acc) };
        return;
    }
    for g in rows {
        let a_row = &a[g * na..(g + 1) * na];
        let b_row = &b[g * nb..(g + 1) * nb];
        for (i, &ai) in a_row.iter().enumerate() {
            let ai_c = ai.conj();
            let out = &mut acc[i * nb..(i + 1) * nb];
            for (o, &bj) in out.iter_mut().zip(b_row) {
                *o = o.mul_add(ai_c, bj);
            }
        }
    }
}

/// Column-by-column emulation of GEMM via repeated GEMV — the BLAS2 baseline
/// for the §3.4 ablation (`bench/ablations.rs`). Computes `C = A·B` one
/// column of B at a time, exactly how the original band-by-band code applied
/// the Hamiltonian to one band at a time.
pub fn zgemm_via_gemv(a: &CMatrix, b: &CMatrix) -> CMatrix {
    let (m, _k) = (a.rows(), a.cols());
    let n = b.cols();
    let mut c = CMatrix::zeros(m, n);
    let mut ycol = vec![Complex64::ZERO; m];
    for j in 0..n {
        let xcol = b.col(j);
        zgemv(Complex64::ONE, a, &xcol, Complex64::ZERO, &mut ycol);
        c.set_col(j, &ycol);
    }
    c
}

// ---------------------------------------------------------------------------
// AVX2 microkernels
// ---------------------------------------------------------------------------

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx {
    use super::{Complex64, MR, NR};
    use mqmd_util::simd::F64x4;
    use std::cell::RefCell;

    thread_local! {
        /// Per-thread packed-A panel reused across GEMM calls — the SIMD
        /// analogue of the FFT gather line: steady-state packing never
        /// touches the allocator.
        static PACK_A: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    }

    /// Runs `f` on a thread-local packing buffer of `len` elements,
    /// recording the (one-time) allocation when the buffer first grows.
    pub(super) fn with_pack<R>(len: usize, f: impl FnOnce(&mut Vec<f64>) -> R) -> R {
        PACK_A.with(|cell| {
            let mut v = cell.borrow_mut();
            if v.capacity() < len {
                mqmd_util::trace::add_alloc(1, (len * size_of::<f64>()) as u64);
            }
            v.clear();
            v.resize(len, 0.0);
            f(&mut v)
        })
    }

    /// Computes one ROW_BLOCK slab of `C ← α·A·B + β·C` with the packed
    /// 4×8 register-blocked FMA microkernel.
    ///
    /// `c_rows` is this task's slab of C (`rows_here × n`, starting at
    /// absolute row `i0`); `pack` holds at least `k·MR` elements.
    ///
    /// # Safety
    /// Requires AVX2+FMA at runtime.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn dgemm_rows_avx2(
        alpha: f64,
        beta: f64,
        a: &[f64],
        b: &[f64],
        c_rows: &mut [f64],
        i0: usize,
        k: usize,
        n: usize,
        pack: &mut [f64],
    ) {
        let rows = c_rows.len().checked_div(n).unwrap_or(0);
        // β pre-scale, same op order as the scalar reference.
        for c_row in c_rows.chunks_mut(n.max(1)) {
            if beta == 0.0 {
                c_row.fill(0.0);
            } else if beta != 1.0 {
                for x in c_row.iter_mut() {
                    *x *= beta;
                }
            }
        }
        if n == 0 || k == 0 {
            return;
        }
        let bp = b.as_ptr();
        let mut r = 0;
        // Full MR-row panels: pack α·A k-major, then walk NR-column
        // register blocks.
        while r + MR <= rows {
            for kk in 0..k {
                for q in 0..MR {
                    pack[kk * MR + q] = alpha * a[(i0 + r + q) * k + kk];
                }
            }
            let c_base = c_rows[r * n..(r + MR) * n].as_mut_ptr();
            let mut j = 0;
            while j + NR <= n {
                // 4 rows × 8 columns of C in eight f64x4 accumulators.
                let mut acc00 = F64x4::splat(0.0);
                let mut acc01 = F64x4::splat(0.0);
                let mut acc10 = F64x4::splat(0.0);
                let mut acc11 = F64x4::splat(0.0);
                let mut acc20 = F64x4::splat(0.0);
                let mut acc21 = F64x4::splat(0.0);
                let mut acc30 = F64x4::splat(0.0);
                let mut acc31 = F64x4::splat(0.0);
                for kk in 0..k {
                    let b0 = F64x4::load(bp.add(kk * n + j));
                    let b1 = F64x4::load(bp.add(kk * n + j + 4));
                    let s0 = F64x4::splat(pack[kk * MR]);
                    let s1 = F64x4::splat(pack[kk * MR + 1]);
                    let s2 = F64x4::splat(pack[kk * MR + 2]);
                    let s3 = F64x4::splat(pack[kk * MR + 3]);
                    acc00 = s0.mul_add(b0, acc00);
                    acc01 = s0.mul_add(b1, acc01);
                    acc10 = s1.mul_add(b0, acc10);
                    acc11 = s1.mul_add(b1, acc11);
                    acc20 = s2.mul_add(b0, acc20);
                    acc21 = s2.mul_add(b1, acc21);
                    acc30 = s3.mul_add(b0, acc30);
                    acc31 = s3.mul_add(b1, acc31);
                }
                for (q, (lo, hi)) in [
                    (acc00, acc01),
                    (acc10, acc11),
                    (acc20, acc21),
                    (acc30, acc31),
                ]
                .into_iter()
                .enumerate()
                {
                    let cq = c_base.add(q * n + j);
                    F64x4::load(cq).add(lo).store(cq);
                    F64x4::load(cq.add(4)).add(hi).store(cq.add(4));
                }
                j += NR;
            }
            // Column tail: scalar, same `c += s·b` shape as the reference.
            if j < n {
                for q in 0..MR {
                    let c_row = &mut c_rows[(r + q) * n..(r + q + 1) * n];
                    for kk in 0..k {
                        let s = pack[kk * MR + q];
                        if s == 0.0 {
                            continue;
                        }
                        for jj in j..n {
                            c_row[jj] += s * b[kk * n + jj];
                        }
                    }
                }
            }
            r += MR;
        }
        // Row tail: the scalar reference loop.
        for q in r..rows {
            let i = i0 + q;
            let c_row = &mut c_rows[q * n..(q + 1) * n];
            let a_row = &a[i * k..(i + 1) * k];
            for (kk, &aik) in a_row.iter().enumerate() {
                let s = alpha * aik;
                if s == 0.0 {
                    continue;
                }
                let b_row = &b[kk * n..(kk + 1) * n];
                for (cj, &bj) in c_row.iter_mut().zip(b_row) {
                    *cj += s * bj;
                }
            }
        }
    }

    /// Rows of C (of `A†B`: of A's columns) per register tile.
    const TILE_ROWS: usize = 4;
    /// Column pairs (`f64x4` registers) per row of a register tile: a 4×2
    /// tile is eight accumulators, and with the two B loads, their two
    /// swaps and the coefficient's two vectors it stays within the sixteen
    /// `ymm` registers.
    const TILE_PAIRS: usize = 2;
    /// Inner-dimension steps whose coefficients one pass of `zgemm` packs
    /// (24 KiB on the stack).
    const KC: usize = 64;

    /// A coefficient `s` as a tile multiplies by it: `s.re` in every lane,
    /// and `[-s.im, +s.im, -s.im, +s.im]`, whose even lanes build the real
    /// part `fma(-s.im, y.im, c.re)` and odd lanes `fma(+s.im, y.re, c.im)`
    /// — the inner step of [`Complex64::mul_add`].
    #[derive(Clone, Copy)]
    struct Coef {
        s: Complex64,
        re: F64x4,
        im: F64x4,
    }

    impl Coef {
        #[inline(always)]
        fn new(s: Complex64) -> Self {
            Self {
                s,
                re: F64x4::splat(s.re),
                im: F64x4::new(-s.im, s.im, -s.im, s.im),
            }
        }
    }

    /// `c ← c + Σ_t x(t, q)·y_t` for a tile of `R` rows of `P` column
    /// pairs, and with `ODD` one column more: `y_t` is the row `t` of Y at
    /// `y + t·ldy` (`f64` units) and row `q` of the tile is at `c + q·ldc`.
    /// Each element runs the scalar `c = c.mul_add(x, y)` chain over `t` in
    /// order — lane for lane in the pair registers, as that very expression
    /// in the odd column — in a register that is loaded once and stored
    /// once: bitwise the reference loop. The tile's `R·(P + ODD)` chains are
    /// independent, so their latencies overlap. With `SKIP`, a step whose
    /// coefficient is zero is skipped, as the reference `zgemm` skips it.
    ///
    /// # Safety
    /// Requires AVX2+FMA; every row of Y and of the tile must hold
    /// `2·P + ODD` complex values.
    #[inline(always)]
    unsafe fn tile<const R: usize, const P: usize, const ODD: bool, const SKIP: bool>(
        steps: usize,
        x: impl Fn(usize, usize) -> Coef,
        y: *const f64,
        ldy: usize,
        c: *mut f64,
        ldc: usize,
    ) {
        let odd_at = |row: *mut f64| row.add(4 * P) as *mut Complex64;
        let mut acc = [[F64x4::splat(0.0); P]; R];
        let mut odd = [Complex64::ZERO; R];
        for q in 0..R {
            let cq = c.add(q * ldc);
            acc[q] = std::array::from_fn(|p| F64x4::load(cq.add(4 * p)));
            if ODD {
                odd[q] = *odd_at(cq);
            }
        }
        for t in 0..steps {
            let yt = y.add(t * ldy);
            let yv: [F64x4; P] = std::array::from_fn(|p| F64x4::load(yt.add(4 * p)));
            let ys = yv.map(F64x4::swap_pairs);
            let yo = if ODD {
                *odd_at(yt as *mut f64)
            } else {
                Complex64::ZERO
            };
            for q in 0..R {
                let x = x(t, q);
                if SKIP && x.s == Complex64::ZERO {
                    continue;
                }
                for p in 0..P {
                    acc[q][p] = x.re.mul_add(yv[p], x.im.mul_add(ys[p], acc[q][p]));
                }
                if ODD {
                    odd[q] = odd[q].mul_add(x.s, yo);
                }
            }
        }
        for q in 0..R {
            let cq = c.add(q * ldc);
            for (p, v) in acc[q].iter().enumerate() {
                v.store(cq.add(4 * p));
            }
            if ODD {
                *odd_at(cq) = odd[q];
            }
        }
    }

    /// The tiles of a block of `rows ≤ TILE_ROWS` rows of C over `n`
    /// columns: 2×[`TILE_PAIRS`] columns at a time, then the last one to
    /// three columns in one tile.
    ///
    /// # Safety
    /// As [`tile`], for `rows` rows of `n` values at `y` and `c` (complex
    /// strides `ldy`, `ldc`).
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn row_block<const SKIP: bool>(
        rows: usize,
        n: usize,
        steps: usize,
        x: impl Fn(usize, usize) -> Coef + Copy,
        y: *const Complex64,
        ldy: usize,
        c: *mut Complex64,
        ldc: usize,
    ) {
        let (yf, cf) = (y as *const f64, c as *mut f64);
        let (ldyf, ldcf) = (2 * ldy, 2 * ldc);
        let mut j = 0;
        macro_rules! tiles {
            ($p:expr, $odd:expr) => {{
                let (yj, cj) = (yf.add(2 * j), cf.add(2 * j));
                match rows {
                    4 => tile::<4, $p, $odd, SKIP>(steps, x, yj, ldyf, cj, ldcf),
                    3 => tile::<3, $p, $odd, SKIP>(steps, x, yj, ldyf, cj, ldcf),
                    2 => tile::<2, $p, $odd, SKIP>(steps, x, yj, ldyf, cj, ldcf),
                    _ => tile::<1, $p, $odd, SKIP>(steps, x, yj, ldyf, cj, ldcf),
                }
            }};
        }
        while n - j > 2 * TILE_PAIRS {
            tiles!(TILE_PAIRS, false);
            j += 2 * TILE_PAIRS;
        }
        match n - j {
            4 => tiles!(2, false),
            3 => tiles!(1, true),
            2 => tiles!(1, false),
            1 => tiles!(0, true),
            _ => {}
        }
    }

    /// `C ← C + α·A·B` over one ROW_BLOCK slab of C (`c_rows`, starting at
    /// absolute row `i0`, already β-scaled) in register tiles. The
    /// coefficients `s = α·A[i][kk]` of a tile's rows are packed, as the
    /// vectors a tile multiplies by, once per [`KC`] steps of the inner
    /// dimension and shared by the slab's column tiles; each element of C
    /// keeps the reference chain over `kk` in order, with its `s == 0` skip.
    ///
    /// # Safety
    /// Requires AVX2+FMA at runtime.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn zgemm_rows_avx2(
        alpha: Complex64,
        a: &[Complex64],
        b: &[Complex64],
        c_rows: &mut [Complex64],
        i0: usize,
        k: usize,
        n: usize,
    ) {
        let rows = c_rows.len() / n;
        assert!(a.len() >= (i0 + rows) * k && b.len() >= k * n);
        let c = c_rows.as_mut_ptr();
        if n <= 2 * TILE_PAIRS {
            // One tile spans the row: each coefficient is used once, so
            // it is formed where it is used.
            for r in (0..rows).step_by(TILE_ROWS) {
                let h = (rows - r).min(TILE_ROWS);
                let x = |t: usize, q: usize| Coef::new(alpha * a[(i0 + r + q) * k + t]);
                row_block::<true>(h, n, k, x, b.as_ptr(), n, c.add(r * n), n);
            }
            return;
        }
        // Only the entries a pass writes are read back.
        let mut pack = std::mem::MaybeUninit::<[Coef; KC * TILE_ROWS]>::uninit();
        let pk = pack.as_mut_ptr() as *mut Coef;
        for r in (0..rows).step_by(TILE_ROWS) {
            let h = (rows - r).min(TILE_ROWS);
            for k0 in (0..k).step_by(KC) {
                let kc = (k - k0).min(KC);
                for t in 0..kc {
                    for q in 0..h {
                        let s = alpha * a[(i0 + r + q) * k + k0 + t];
                        pk.add(t * TILE_ROWS + q).write(Coef::new(s));
                    }
                }
                let x = |t: usize, q: usize| *pk.add(t * TILE_ROWS + q);
                row_block::<true>(h, n, kc, x, b.as_ptr().add(k0 * n), n, c.add(r * n), n);
            }
        }
    }

    /// `acc ← acc + Σ_{g ∈ rows} conj(A[g][i])·B[g][j]` (`acc` is
    /// `na × nb`) in register tiles of `TILE_ROWS` values of `i`; each
    /// element keeps the reference chain over `g` in order.
    ///
    /// # Safety
    /// Requires AVX2+FMA at runtime.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dagger_chunk_avx2(
        a: &[Complex64],
        b: &[Complex64],
        na: usize,
        nb: usize,
        rows: std::ops::Range<usize>,
        acc: &mut [Complex64],
    ) {
        assert!(a.len() >= rows.end * na && b.len() >= rows.end * nb && acc.len() >= na * nb);
        let (a0, b0) = (
            a.as_ptr().add(rows.start * na),
            b.as_ptr().add(rows.start * nb),
        );
        let out = acc.as_mut_ptr();
        for i in (0..na).step_by(TILE_ROWS) {
            let h = (na - i).min(TILE_ROWS);
            let x = |g: usize, q: usize| Coef::new((*a0.add(g * na + i + q)).conj());
            row_block::<false>(h, nb, rows.len(), x, b0, nb, out.add(i * nb), nb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dgemm(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for k in 0..a.cols() {
                    s += a[(i, k)] * b[(k, j)];
                }
                c[(i, j)] = s;
            }
        }
        c
    }

    #[test]
    fn dgemm_matches_naive() {
        let a = Matrix::from_fn(17, 9, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
        let b = Matrix::from_fn(9, 23, |i, j| ((i * 5 + j) % 7) as f64 * 0.5);
        let mut c = Matrix::zeros(17, 23);
        dgemm(1.0, &a, &b, 0.0, &mut c);
        assert!(c.max_abs_diff(&naive_dgemm(&a, &b)) < 1e-12);
    }

    #[test]
    fn dgemm_scalar_and_simd_match_naive() {
        let a = Matrix::from_fn(13, 11, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
        let b = Matrix::from_fn(11, 19, |i, j| ((i * 5 + j) % 7) as f64 * 0.5);
        let expect = naive_dgemm(&a, &b);
        let mut c = Matrix::zeros(13, 19);
        dgemm_scalar(1.0, &a, &b, 0.0, &mut c);
        assert!(c.max_abs_diff(&expect) < 1e-12);
        let mut c = Matrix::zeros(13, 19);
        dgemm_simd(1.0, &a, &b, 0.0, &mut c);
        assert!(c.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn dgemm_alpha_beta() {
        let a = Matrix::identity(4);
        let b = Matrix::from_fn(4, 4, |i, j| (i + j) as f64);
        let mut c = Matrix::from_fn(4, 4, |_, _| 1.0);
        dgemm(2.0, &a, &b, 3.0, &mut c);
        // c = 2*b + 3*ones
        for i in 0..4 {
            for j in 0..4 {
                assert!((c[(i, j)] - (2.0 * (i + j) as f64 + 3.0)).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn dgemv_matches_gemm_column() {
        let a = Matrix::from_fn(6, 5, |i, j| (i as f64 - j as f64) * 0.3);
        let x: Vec<f64> = (0..5).map(|i| i as f64 + 0.5).collect();
        let mut y = vec![0.0; 6];
        dgemv(1.0, &a, &x, 0.0, &mut y);
        let xb = Matrix::from_vec(5, 1, x.clone());
        let mut c = Matrix::zeros(6, 1);
        dgemm(1.0, &a, &xb, 0.0, &mut c);
        for i in 0..6 {
            assert!((y[i] - c[(i, 0)]).abs() < 1e-13);
        }
    }

    #[test]
    fn zgemm_matches_via_gemv() {
        let a = CMatrix::from_fn(13, 7, |i, j| {
            Complex64::new(i as f64 * 0.1, j as f64 * -0.2)
        });
        let b = CMatrix::from_fn(7, 11, |i, j| Complex64::new((i + j) as f64 * 0.05, 0.3));
        let mut c = CMatrix::zeros(13, 11);
        zgemm(Complex64::ONE, &a, &b, Complex64::ZERO, &mut c);
        let c2 = zgemm_via_gemv(&a, &b);
        assert!(c.max_abs_diff(&c2) < 1e-12);
    }

    #[test]
    fn zgemm_simd_is_bitwise_scalar() {
        // The vector complex kernel replicates the scalar FMA chain per
        // lane, so the two paths must agree to the bit — including the odd
        // trailing column handled by the scalar tail.
        let a = CMatrix::from_fn(21, 9, |i, j| {
            Complex64::new((i as f64 * 1.3).sin(), (j as f64 - 2.0).cos())
        });
        let b = CMatrix::from_fn(9, 13, |i, j| {
            Complex64::new((i + 2 * j) as f64 * 0.07, (i as f64).cos())
        });
        let alpha = Complex64::new(0.8, -0.3);
        let beta = Complex64::new(-0.1, 0.4);
        let mut cs = CMatrix::from_fn(21, 13, |i, j| Complex64::new(i as f64, j as f64));
        let mut cv = cs.clone();
        zgemm_scalar(alpha, &a, &b, beta, &mut cs);
        zgemm_simd(alpha, &a, &b, beta, &mut cv);
        for (x, y) in cs.data().iter().zip(cv.data()) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }

    #[test]
    fn dagger_a_is_overlap() {
        let psi = CMatrix::from_fn(40, 5, |i, j| {
            Complex64::new(
                ((i * 3 + j) % 7) as f64 * 0.1,
                ((i + 2 * j) % 5) as f64 * -0.1,
            )
        });
        let mut s = CMatrix::zeros(5, 5);
        zgemm_dagger_a_into(&psi, &psi, &mut s, &Workspace::new());
        assert!(s.is_hermitian(1e-12), "overlap must be Hermitian");
        // Compare against dagger+zgemm.
        let mut s2 = CMatrix::zeros(5, 5);
        zgemm(
            Complex64::ONE,
            &psi.dagger(),
            &psi,
            Complex64::ZERO,
            &mut s2,
        );
        assert!(s.max_abs_diff(&s2) < 1e-12);
    }

    #[test]
    fn dagger_a_warm_workspace_is_bitwise_fresh() {
        // 1100 plane waves are two 1024-row chunks: the partials are pooled.
        let a = CMatrix::from_fn(1100, 6, |i, j| {
            Complex64::new((i as f64).sin() * 0.2, (j as f64 + 1.0).cos())
        });
        let b = CMatrix::from_fn(1100, 4, |i, j| {
            Complex64::new((i + j) as f64 * 0.01, (i as f64) * -0.03)
        });
        let mut fresh = CMatrix::zeros(6, 4);
        zgemm_dagger_a_into(&a, &b, &mut fresh, &Workspace::new());
        let ws = Workspace::new();
        let mut pooled = CMatrix::zeros(6, 4);
        for _ in 0..3 {
            zgemm_dagger_a_into(&a, &b, &mut pooled, &ws);
            for (x, y) in fresh.data().iter().zip(pooled.data()) {
                assert_eq!(x.re.to_bits(), y.re.to_bits());
                assert_eq!(x.im.to_bits(), y.im.to_bits());
            }
        }
        assert!(
            ws.stats().snapshot().hits > 0,
            "repeated calls must reuse pooled accumulators"
        );
    }

    #[test]
    fn single_chunk_dagger_a_borrows_nothing() {
        let a = CMatrix::from_fn(130, 6, |i, j| Complex64::new((i as f64).sin(), j as f64));
        let ws = Workspace::new();
        let mut s = CMatrix::zeros(6, 6);
        zgemm_dagger_a_into(&a, &a, &mut s, &ws);
        let stats = ws.stats().snapshot();
        assert_eq!(
            (stats.hits, stats.misses),
            (0, 0),
            "one chunk goes straight into out"
        );
    }

    #[test]
    fn flop_accounting() {
        mqmd_util::flops::take_flops();
        let a = Matrix::zeros(8, 4);
        let b = Matrix::zeros(4, 6);
        let mut c = Matrix::zeros(8, 6);
        dgemm(1.0, &a, &b, 0.0, &mut c);
        assert_eq!(mqmd_util::flops::take_flops(), 2 * 8 * 6 * 4);
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let mut c = Matrix::zeros(2, 3);
        dgemm(1.0, &a, &b, 0.0, &mut c);
    }
}
