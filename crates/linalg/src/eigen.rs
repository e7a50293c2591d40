//! Hermitian eigensolver (cyclic Jacobi).
//!
//! Subspace (Rayleigh–Ritz) diagonalisation inside the per-domain Kohn–Sham
//! solver works on `Nband × Nband` matrices with `Nband` of order 10²;
//! cyclic Jacobi is simple, unconditionally stable, and delivers orthogonal
//! eigenvectors to machine precision at that size, which is exactly what the
//! SCF loop needs. The paper's §3.1 names the orthonormalisation as the
//! asymptotic bottleneck, but at this code's band counts Jacobi is the
//! dominant cost of a domain solve: the `eigen` span took 70–72 % of the
//! `domain_solve` thread-seconds of the profiled QMD steps and 84–85 % of
//! the Fig-5 domain solve (`repro_profile`) with the scalar form alone, and
//! 64–65 % and 81–83 % with the vector form below.
//!
//! [`zheev`] has two forms that return the same bits. [`zheev_scalar`]
//! rotates the row-major complex matrix in place, one complex element at a
//! time, two of its three passes strided. [`zheev_simd`] keeps A as separate
//! re/im planes and the eigenvectors transposed, so the row pass of A and
//! the eigenvector pass both stream two contiguous rows through `F64x4`
//! lanes. It applies the same rotations in the same order with the same
//! per-element arithmetic (the column pass first, then the row pass; every
//! complex product as `re·re − im·im`, `re·im + im·re`, no FMA), so every
//! eigenvalue and eigenvector bit agrees (`tests/simd_differential.rs`).

use crate::cmatrix::CMatrix;
use mqmd_util::flops::count_flops;
use mqmd_util::{Complex64, MqmdError, Result};

/// Maximum number of Jacobi sweeps before conceding non-convergence.
const MAX_SWEEPS: usize = 64;

/// Smallest order [`zheev`] hands to the planar vector form. Below order 4
/// a row is shorter than one 4-lane vector, the row passes run only their
/// scalar tail, and splitting the planes costs more than it saves: the
/// scalar form's time over the planar one measured 0.86–0.94 at order 2,
/// 0.88–1.01 at order 3, 1.01–1.08 at order 4 and 1.2–1.5 at orders 36–48.
const PLANAR_MIN_N: usize = 4;

/// FLOPs one sweep tallies, whether or not its rotations are skipped.
fn sweep_flops(n: usize) -> u64 {
    24 * (n as u64).pow(3) / 2
}

/// Bytes one executed rotation moves: three passes (the columns and the
/// rows of A, the columns of V), each reading and writing two length-`n`
/// complex vectors.
fn rotation_bytes(n: usize) -> u64 {
    3 * 2 * 2 * 16 * n as u64
}

/// Eigen-decomposition of a complex Hermitian matrix.
///
/// Returns `(eigenvalues, eigenvectors)` with eigenvalues ascending (they are
/// real for Hermitian input) and eigenvectors in columns, unitary to machine
/// precision. Dispatches to [`zheev_simd`] from order 4 on and to
/// [`zheev_scalar`] below it; the two are bitwise equal.
pub fn zheev(a: &CMatrix) -> Result<(Vec<f64>, CMatrix)> {
    if a.rows() >= PLANAR_MIN_N {
        zheev_simd(a)
    } else {
        zheev_scalar(a)
    }
}

/// Checks that `a` is square and Hermitian to rounding, and returns the
/// convergence tolerance on the off-diagonal norm.
fn tolerance(a: &CMatrix) -> Result<f64> {
    if a.cols() != a.rows() {
        return Err(MqmdError::Invalid(
            "eigensolver needs a square matrix".into(),
        ));
    }
    let norm = a.frobenius_norm();
    if !a.is_hermitian(1e-9 * (1.0 + norm)) {
        return Err(MqmdError::Invalid("zheev needs a Hermitian matrix".into()));
    }
    Ok(1e-14 * (1.0 + norm))
}

/// The rotation that zeroes `A[p][q]`: `(c, s, u)` with `u` the unit phase
/// of `apq`, or `None` when `|apq|` is below `floor` and the pair is
/// skipped.
#[inline(always)]
fn jacobi_angle(apq: Complex64, app: f64, aqq: f64, floor: f64) -> Option<(f64, f64, Complex64)> {
    let beta = apq.abs();
    if beta < floor {
        return None;
    }
    let u = apq / beta; // unit phase of the off-diagonal element
    let tau = (aqq - app) / (2.0 * beta);
    let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
    let c = 1.0 / (1.0 + t * t).sqrt();
    let s = t * c;
    Some((c, s, u))
}

/// The eigenvalue order: indices of `diag` stably sorted ascending, and the
/// sorted values.
fn ascending(diag: impl Fn(usize) -> f64, n: usize) -> (Vec<usize>, Vec<f64>) {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&i, &j| diag(i).partial_cmp(&diag(j)).unwrap());
    let vals = idx.iter().map(|&i| diag(i)).collect();
    (idx, vals)
}

/// Scalar reference for [`zheev`]: rotates the row-major complex matrix in
/// place.
pub fn zheev_scalar(a: &CMatrix) -> Result<(Vec<f64>, CMatrix)> {
    let _span = mqmd_util::trace::span("eigen");
    let tol = tolerance(a)?;
    let n = a.rows();
    let mut m = a.clone();
    let mut v = CMatrix::identity(n);
    let floor = tol / (n * n) as f64;

    for _sweep in 0..MAX_SWEEPS {
        let off = off_diag_norm_complex(&m);
        if off < tol {
            return Ok(sorted_complex(m, v));
        }
        count_flops(sweep_flops(n));
        let mut rotations = 0;
        for p in 0..n {
            for q in (p + 1)..n {
                let Some((c, s, u)) = jacobi_angle(m[(p, q)], m[(p, p)].re, m[(q, q)].re, floor)
                else {
                    continue;
                };
                rotate_complex(&mut m, &mut v, p, q, c, s, u);
                rotations += 1;
            }
        }
        mqmd_util::trace::add_bytes(rotations * rotation_bytes(n));
    }
    Err(MqmdError::Convergence {
        what: "Jacobi (zheev)".into(),
        iterations: MAX_SWEEPS,
        residual: off_diag_norm_complex(&m),
    })
}

fn off_diag_norm_complex(m: &CMatrix) -> f64 {
    let n = m.rows();
    let mut s = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            s += 2.0 * m[(i, j)].norm_sqr();
        }
    }
    s.sqrt()
}

/// Applies the unitary plane rotation G (G_pp = c, G_pq = s·u, G_qp = −s·ū,
/// G_qq = c) as `A ← G†·A·G`, `V ← V·G`.
fn rotate_complex(
    m: &mut CMatrix,
    v: &mut CMatrix,
    p: usize,
    q: usize,
    c: f64,
    s: f64,
    u: Complex64,
) {
    let n = m.rows();
    let su = u.scale(s);
    let su_conj = u.conj().scale(s);
    // Columns: A ← A·G.
    for i in 0..n {
        let aip = m[(i, p)];
        let aiq = m[(i, q)];
        m[(i, p)] = aip.scale(c) - su_conj * aiq;
        m[(i, q)] = su * aip + aiq.scale(c);
    }
    // Rows: A ← G†·A.
    for j in 0..n {
        let apj = m[(p, j)];
        let aqj = m[(q, j)];
        m[(p, j)] = apj.scale(c) - su * aqj;
        m[(q, j)] = su_conj * apj + aqj.scale(c);
    }
    // Eigenvector accumulation: V ← V·G.
    for i in 0..n {
        let vip = v[(i, p)];
        let viq = v[(i, q)];
        v[(i, p)] = vip.scale(c) - su_conj * viq;
        v[(i, q)] = su * vip + viq.scale(c);
    }
}

fn sorted_complex(m: CMatrix, v: CMatrix) -> (Vec<f64>, CMatrix) {
    let n = m.rows();
    let (idx, vals) = ascending(|i| m[(i, i)].re, n);
    let mut vecs = CMatrix::zeros(n, n);
    for (newj, &oldj) in idx.iter().enumerate() {
        for i in 0..n {
            vecs[(i, newj)] = v[(i, oldj)];
        }
    }
    (vals, vecs)
}

/// Planar vector form of [`zheev`], **bitwise identical** to
/// [`zheev_scalar`]: A as re/im planes, V transposed, the contiguous row
/// passes in `F64x4` lanes. Falls back to the scalar reference when the
/// vector backend cannot run (feature off, non-x86 target, or no AVX2).
pub fn zheev_simd(a: &CMatrix) -> Result<(Vec<f64>, CMatrix)> {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if mqmd_util::simd::simd_available() {
        let _span = mqmd_util::trace::span("eigen");
        let tol = tolerance(a)?;
        // SAFETY: `simd_available` verified AVX2 above.
        return unsafe { planar::jacobi_avx2(a, tol) };
    }
    zheev_scalar(a)
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod planar {
    use super::*;
    use mqmd_util::simd::F64x4;

    /// One pass's update of a pair of complex vectors,
    /// `x ← x·c − a·y`, `y ← b·x + y·c`: the element update of every pass
    /// of [`rotate_complex`], whose columns and eigenvector passes take
    /// `(a, b) = (s·ū, s·u)` and whose row pass takes `(s·u, s·ū)`.
    #[derive(Clone, Copy)]
    struct Pass {
        c: f64,
        a: Complex64,
        b: Complex64,
    }

    impl Pass {
        fn new(c: f64, a: Complex64, b: Complex64) -> Self {
            Self { c, a, b }
        }

        /// Four elements held as planes, each lane in the operation order
        /// of [`Self::one`].
        #[inline(always)]
        fn lanes(self, [x_re, x_im, y_re, y_im]: [F64x4; 4]) -> [F64x4; 4] {
            let c = F64x4::splat(self.c);
            let (a_re, a_im) = (F64x4::splat(self.a.re), F64x4::splat(self.a.im));
            let (b_re, b_im) = (F64x4::splat(self.b.re), F64x4::splat(self.b.im));
            let ay_re = a_re.mul(y_re).sub(a_im.mul(y_im));
            let ay_im = a_re.mul(y_im).add(a_im.mul(y_re));
            let bx_re = b_re.mul(x_re).sub(b_im.mul(x_im));
            let bx_im = b_re.mul(x_im).add(b_im.mul(x_re));
            [
                x_re.mul(c).sub(ay_re),
                x_im.mul(c).sub(ay_im),
                bx_re.add(y_re.mul(c)),
                bx_im.add(y_im.mul(c)),
            ]
        }

        /// Rows `p` and `q` (`p < q`) of a row-major `n × n` matrix held
        /// as planes: four elements per vector step, the tail one at a
        /// time.
        ///
        /// # Safety
        /// Requires AVX2 at runtime.
        #[inline(always)]
        unsafe fn rows(self, re: &mut [f64], im: &mut [f64], n: usize, [p, q]: [usize; 2]) {
            assert!(re.len() == n * n && im.len() == n * n && p < q && q < n);
            let (re, im) = (re.as_mut_ptr(), im.as_mut_ptr());
            let at = |k: usize| {
                [
                    re.add(p * n + k),
                    im.add(p * n + k),
                    re.add(q * n + k),
                    im.add(q * n + k),
                ]
            };
            let body = n - n % 4;
            for k in (0..body).step_by(4) {
                let ptrs = at(k);
                let out = self.lanes(ptrs.map(|ptr| F64x4::load(ptr)));
                for (v, ptr) in out.into_iter().zip(ptrs) {
                    v.store(ptr);
                }
            }
            for k in body..n {
                self.one(at(k));
            }
        }

        /// Columns `p` and `q` (`p < q`) of the same matrix, one row at a
        /// time: each row's two elements sit `q − p` apart, so there is
        /// nothing contiguous to load four of.
        ///
        /// # Safety
        /// Requires AVX2 at runtime.
        #[inline(always)]
        unsafe fn columns(self, re: &mut [f64], im: &mut [f64], n: usize, [p, q]: [usize; 2]) {
            assert!(re.len() == n * n && im.len() == n * n && p < q && q < n);
            let (re, im) = (re.as_mut_ptr(), im.as_mut_ptr());
            for i in 0..n {
                self.one([
                    re.add(i * n + p),
                    im.add(i * n + p),
                    re.add(i * n + q),
                    im.add(i * n + q),
                ]);
            }
        }

        /// One element, in the scalar form's own complex arithmetic: the
        /// `[x.re, x.im, y.re, y.im]` that sit at `ptrs`.
        ///
        /// # Safety
        /// Each pointer must be valid for a read and a write.
        #[inline(always)]
        unsafe fn one(self, ptrs: [*mut f64; 4]) {
            let [xr, xi, yr, yi] = ptrs.map(|ptr| *ptr);
            let (x, y) = (Complex64::new(xr, xi), Complex64::new(yr, yi));
            let x_new = x.scale(self.c) - self.a * y;
            let y_new = self.b * x + y.scale(self.c);
            for (ptr, v) in ptrs
                .into_iter()
                .zip([x_new.re, x_new.im, y_new.re, y_new.im])
            {
                *ptr = v;
            }
        }
    }

    /// The Jacobi sweeps of [`zheev_scalar`] on planes: `ar`/`ai` hold A
    /// row-major, `vr`/`vi` hold Vᵀ, so `V ← V·G` rotates rows `p` and `q`
    /// of Vᵀ.
    ///
    /// # Safety
    /// Requires AVX2 at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn jacobi_avx2(a: &CMatrix, tol: f64) -> Result<(Vec<f64>, CMatrix)> {
        let n = a.rows();
        let nn = n * n;
        // One buffer for both matrices: it replaces the scalar form's
        // clone of A and identity V.
        let mut planes = vec![0.0; 4 * nn];
        let (ar, rest) = planes.split_at_mut(nn);
        let (ai, rest) = rest.split_at_mut(nn);
        let (vr, vi) = rest.split_at_mut(nn);
        for (k, z) in a.data().iter().enumerate() {
            (ar[k], ai[k]) = (z.re, z.im);
        }
        for k in 0..n {
            vr[k * n + k] = 1.0;
        }
        let floor = tol / nn as f64;

        for _sweep in 0..MAX_SWEEPS {
            let off = off_diag_norm(ar, ai, n);
            if off < tol {
                let (idx, vals) = ascending(|i| ar[i * n + i], n);
                let mut vecs = CMatrix::zeros(n, n);
                for (newj, &oldj) in idx.iter().enumerate() {
                    for i in 0..n {
                        let k = oldj * n + i;
                        vecs[(i, newj)] = Complex64::new(vr[k], vi[k]);
                    }
                }
                return Ok((vals, vecs));
            }
            count_flops(sweep_flops(n));
            let mut rotations = 0;
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = Complex64::new(ar[p * n + q], ai[p * n + q]);
                    let Some((c, s, u)) = jacobi_angle(apq, ar[p * n + p], ar[q * n + q], floor)
                    else {
                        continue;
                    };
                    let (su, su_conj) = (u.scale(s), u.conj().scale(s));
                    let by_g = Pass::new(c, su_conj, su);
                    // Columns: A ← A·G. It writes the 2×2 corner the row
                    // pass then reads.
                    by_g.columns(ar, ai, n, [p, q]);
                    // Rows: A ← G†·A.
                    Pass::new(c, su, su_conj).rows(ar, ai, n, [p, q]);
                    // Eigenvectors: V ← V·G, rows p and q of Vᵀ.
                    by_g.rows(vr, vi, n, [p, q]);
                    rotations += 1;
                }
            }
            mqmd_util::trace::add_bytes(rotations * rotation_bytes(n));
        }
        Err(MqmdError::Convergence {
            what: "Jacobi (zheev)".into(),
            iterations: MAX_SWEEPS,
            residual: off_diag_norm(ar, ai, n),
        })
    }

    /// [`off_diag_norm_complex`] on planes: the same sum in the same order.
    fn off_diag_norm(ar: &[f64], ai: &[f64], n: usize) -> f64 {
        let mut s = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                let k = i * n + j;
                s += 2.0 * Complex64::new(ar[k], ai[k]).norm_sqr();
            }
        }
        s.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::zgemm;

    #[test]
    fn zheev_hermitian_reconstructs() {
        let n = 8;
        let b = CMatrix::from_fn(n, n, |i, j| {
            Complex64::new(
                ((i + 3 * j) % 5) as f64 * 0.2,
                ((2 * i + j) % 7) as f64 * 0.15,
            )
        });
        let mut a = CMatrix::zeros(n, n);
        zgemm(Complex64::ONE, &b.dagger(), &b, Complex64::ZERO, &mut a);
        let (vals, v) = zheev(&a).unwrap();
        let mut av = CMatrix::zeros(n, n);
        zgemm(Complex64::ONE, &a, &v, Complex64::ZERO, &mut av);
        for j in 0..n {
            for i in 0..n {
                let expect = v[(i, j)].scale(vals[j]);
                assert!((av[(i, j)] - expect).abs() < 1e-9, "column {j}");
            }
        }
        // V unitary
        let mut vdv = CMatrix::zeros(n, n);
        zgemm(Complex64::ONE, &v.dagger(), &v, Complex64::ZERO, &mut vdv);
        assert!(vdv.max_abs_diff(&CMatrix::identity(n)) < 1e-11);
    }

    #[test]
    fn zheev_known_pauli_x() {
        // σ_x has eigenvalues ±1.
        let mut a = CMatrix::zeros(2, 2);
        a[(0, 1)] = Complex64::ONE;
        a[(1, 0)] = Complex64::ONE;
        let (vals, _) = zheev(&a).unwrap();
        assert!((vals[0] + 1.0).abs() < 1e-12);
        assert!((vals[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zheev_known_pauli_y() {
        // σ_y = [[0, -i], [i, 0]] has eigenvalues ±1 (genuinely complex case).
        let mut a = CMatrix::zeros(2, 2);
        a[(0, 1)] = -Complex64::I;
        a[(1, 0)] = Complex64::I;
        let (vals, v) = zheev(&a).unwrap();
        assert!((vals[0] + 1.0).abs() < 1e-12);
        assert!((vals[1] - 1.0).abs() < 1e-12);
        let mut vdv = CMatrix::zeros(2, 2);
        zgemm(Complex64::ONE, &v.dagger(), &v, Complex64::ZERO, &mut vdv);
        assert!(vdv.max_abs_diff(&CMatrix::identity(2)) < 1e-12);
    }

    #[test]
    fn non_hermitian_rejected() {
        let mut a = CMatrix::zeros(2, 2);
        a[(0, 1)] = Complex64::ONE;
        assert!(zheev(&a).is_err());
        assert!(zheev_simd(&a).is_err());
    }
}
