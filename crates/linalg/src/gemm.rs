//! BLAS2/BLAS3-style multiply kernels.
//!
//! The paper's §3.4 describes transforming band-by-band conjugate-gradient
//! updates (DGEMV-shaped, BLAS2) into all-band matrix–matrix products
//! (DGEMM-shaped, BLAS3) to expose parallelism and increase arithmetic
//! intensity. Both paths are implemented here on our own data structures:
//!
//! * [`dgemv`]/[`zgemv`] — the band-by-band reference path;
//! * [`dgemm`]/[`zgemm`] — the all-band path, using the cache-friendly
//!   `i-k-j` loop order on row-major data and rayon parallelism over output
//!   row blocks (no synchronisation: each task owns disjoint rows of C);
//! * [`zgemm_dagger_a`] — `A†·B`, the overlap-matrix kernel of the band
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
//!   complex kernels processing two `Complex64` per `f64x4` register.
//!   These replicate the scalar [`Complex64::mul_add`] operation order
//!   lane-by-lane, so they are **bitwise identical** to the reference.
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

/// Vectorized form of [`zgemm`]: two `Complex64` per `f64x4` register,
/// replicating the scalar [`Complex64::mul_add`] op order per lane —
/// **bitwise identical** to [`zgemm_scalar`]. Falls back to the scalar
/// reference when the vector backend cannot run.
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
                        // SAFETY: `simd_available` verified AVX2+FMA above.
                        unsafe { avx::zaxpy_mul_add_avx2(s, b_row, c_row) };
                    }
                }
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

/// Computes `A†·B` (an `A.cols × B.cols` matrix). With `A = B = Ψ` this is
/// the band overlap matrix `S = Ψ†Ψ` that feeds the Cholesky
/// orthonormalisation.
pub fn zgemm_dagger_a(a: &CMatrix, b: &CMatrix) -> CMatrix {
    let ws = Workspace::new();
    let mut out = CMatrix::zeros(a.cols(), b.cols());
    zgemm_dagger_a_into(a, b, &mut out, &ws);
    out
}

/// Allocation-free form of [`zgemm_dagger_a`]: writes `A†·B` into `out`
/// (which must already be `A.cols × B.cols`) and draws the per-chunk partial
/// accumulators from `ws`.
///
/// The plane-wave range is split into fixed-size chunks and the per-chunk
/// partials are summed *sequentially in chunk order*. The chunk size
/// depends only on the problem shape — never on the rayon pool width — so
/// the result is bitwise identical to the owned-return path for any thread
/// count, on both the scalar and the vector path (which replicates the
/// scalar op order lane-by-lane).
pub fn zgemm_dagger_a_into(a: &CMatrix, b: &CMatrix, out: &mut CMatrix, ws: &Workspace) {
    let _span = mqmd_util::trace::span("gemm");
    let (np, na) = (a.rows(), a.cols());
    let nb = b.cols();
    assert_eq!(b.rows(), np, "row mismatch");
    assert_eq!(out.rows(), na, "out row mismatch");
    assert_eq!(out.cols(), nb, "out col mismatch");
    count_flops(zgemm_flops(na as u64, nb as u64, np as u64));

    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    let use_simd = mqmd_util::simd::simd_available();
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    let use_simd = false;

    // Accumulate over rows of A/B (the plane-wave index); parallelise by
    // splitting the plane-wave range and reducing partial products. The
    // chunk size is a pure function of np so chunk boundaries (and hence
    // the sequential chunk-order reduction) are identical for every rayon
    // pool width.
    let out_data = out.data_mut();
    out_data.fill(Complex64::ZERO);
    if np == 0 || na * nb == 0 {
        return;
    }
    let a_data = a.data();
    let b_data = b.data();
    let chunk = 1024usize.max(np.div_ceil(64));
    // One partial product per chunk, side by side in one pooled buffer.
    let mut partials = ws.borrow_c64(np.div_ceil(chunk) * na * nb);
    partials
        .par_chunks_mut(na * nb)
        .with_min_len(par_min_len(zgemm_flops(na as u64, nb as u64, 1)).div_ceil(chunk))
        .enumerate()
        .for_each(|(c, acc)| {
            let g0 = c * chunk;
            let g1 = (g0 + chunk).min(np);
            for g in g0..g1 {
                let a_row = &a_data[g * na..(g + 1) * na];
                let b_row = &b_data[g * nb..(g + 1) * nb];
                for (i, &ai) in a_row.iter().enumerate() {
                    let ai_c = ai.conj();
                    let out = &mut acc[i * nb..(i + 1) * nb];
                    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
                    if use_simd {
                        // SAFETY: `simd_available` verified AVX2+FMA.
                        unsafe { avx::zaxpy_mul_add_avx2(ai_c, b_row, out) };
                        continue;
                    }
                    let _ = use_simd;
                    for (o, &bj) in out.iter_mut().zip(b_row) {
                        *o = o.mul_add(ai_c, bj);
                    }
                }
            }
        });

    for p in partials.chunks_exact(na * nb) {
        for (o, &v) in out_data.iter_mut().zip(p) {
            *o += v;
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
    pub fn with_pack<R>(len: usize, f: impl FnOnce(&mut Vec<f64>) -> R) -> R {
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

    /// `c[j] = c[j].mul_add(s, b[j])` over a complex row, two complex per
    /// `f64x4`. Replicates the scalar [`Complex64::mul_add`] FMA chain per
    /// lane — bitwise identical to the reference loop.
    ///
    /// # Safety
    /// Requires AVX2+FMA at runtime.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn zaxpy_mul_add_avx2(s: Complex64, b: &[Complex64], c: &mut [Complex64]) {
        let n = c.len().min(b.len());
        // Complex64 is two contiguous f64s, so the rows reinterpret as
        // interleaved [re, im] f64 streams.
        let bp = b.as_ptr() as *const f64;
        let cp = c.as_mut_ptr() as *mut f64;
        let sr = F64x4::splat(s.re);
        // [-im, +im, -im, +im]: even lanes build the real part
        // fma(-s.im, b.im, c.re), odd lanes fma(+s.im, b.re, c.im).
        let si = F64x4::new(-s.im, s.im, -s.im, s.im);
        let pairs = n / 2;
        for p in 0..pairs {
            let bv = F64x4::load(bp.add(4 * p));
            let cv = F64x4::load(cp.add(4 * p));
            let inner = si.mul_add(bv.swap_pairs(), cv);
            sr.mul_add(bv, inner).store(cp.add(4 * p));
        }
        if n % 2 == 1 {
            c[n - 1] = c[n - 1].mul_add(s, b[n - 1]);
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
        let s = zgemm_dagger_a(&psi, &psi);
        assert_eq!(s.rows(), 5);
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
    fn dagger_a_into_matches_owned_bitwise() {
        let a = CMatrix::from_fn(130, 6, |i, j| {
            Complex64::new((i as f64).sin() * 0.2, (j as f64 + 1.0).cos())
        });
        let b = CMatrix::from_fn(130, 4, |i, j| {
            Complex64::new((i + j) as f64 * 0.01, (i as f64) * -0.03)
        });
        let owned = zgemm_dagger_a(&a, &b);
        let ws = Workspace::new();
        let mut pooled = CMatrix::zeros(6, 4);
        for _ in 0..3 {
            zgemm_dagger_a_into(&a, &b, &mut pooled, &ws);
            for (x, y) in owned.data().iter().zip(pooled.data()) {
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
