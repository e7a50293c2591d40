//! Symmetric / Hermitian eigensolvers (cyclic Jacobi).
//!
//! Subspace (Rayleigh–Ritz) diagonalisation inside the per-domain Kohn–Sham
//! solver works on `Nband × Nband` matrices with `Nband` of order 10²;
//! cyclic Jacobi is simple, unconditionally stable, and delivers orthogonal
//! eigenvectors to machine precision at that size, which is exactly what the
//! SCF loop needs (eigen-decomposition is *not* the asymptotic bottleneck —
//! the paper's §3.1 puts that in the orthonormalisation, which goes through
//! Cholesky instead).

use crate::cmatrix::CMatrix;
use crate::matrix::Matrix;
use mqmd_util::flops::count_flops;
use mqmd_util::{Complex64, MqmdError, Result};

/// Maximum number of Jacobi sweeps before conceding non-convergence.
const MAX_SWEEPS: usize = 64;

/// Eigen-decomposition of a real symmetric matrix.
///
/// Returns `(eigenvalues, eigenvectors)` with eigenvalues ascending and the
/// k-th column of the eigenvector matrix corresponding to the k-th value.
pub fn dsyev(a: &Matrix) -> Result<(Vec<f64>, Matrix)> {
    let _span = mqmd_util::trace::span("eigen");
    let n = a.rows();
    if a.cols() != n {
        return Err(MqmdError::Invalid(
            "eigensolver needs a square matrix".into(),
        ));
    }
    if !a.is_symmetric(1e-9 * (1.0 + a.frobenius_norm())) {
        return Err(MqmdError::Invalid("dsyev needs a symmetric matrix".into()));
    }
    let mut m = a.clone();
    let mut v = Matrix::identity(n);
    let tol = 1e-14 * (1.0 + a.frobenius_norm());

    for _sweep in 0..MAX_SWEEPS {
        let off = off_diag_norm_real(&m);
        if off < tol {
            return Ok(sorted_real(m, v));
        }
        count_flops(12 * (n as u64).pow(3) / 2);
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() < tol / (n * n) as f64 {
                    continue;
                }
                let tau = (m[(q, q)] - m[(p, p)]) / (2.0 * apq);
                let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                rotate_real(&mut m, &mut v, p, q, c, s);
            }
        }
    }
    Err(MqmdError::Convergence {
        what: "Jacobi (dsyev)".into(),
        iterations: MAX_SWEEPS,
        residual: off_diag_norm_real(&m),
    })
}

fn off_diag_norm_real(m: &Matrix) -> f64 {
    let n = m.rows();
    let mut s = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            s += 2.0 * m[(i, j)] * m[(i, j)];
        }
    }
    s.sqrt()
}

fn rotate_real(m: &mut Matrix, v: &mut Matrix, p: usize, q: usize, c: f64, s: f64) {
    let n = m.rows();
    // A ← Gᵀ A G  (columns then rows), V ← V G.
    for i in 0..n {
        let aip = m[(i, p)];
        let aiq = m[(i, q)];
        m[(i, p)] = c * aip - s * aiq;
        m[(i, q)] = s * aip + c * aiq;
    }
    for j in 0..n {
        let apj = m[(p, j)];
        let aqj = m[(q, j)];
        m[(p, j)] = c * apj - s * aqj;
        m[(q, j)] = s * apj + c * aqj;
    }
    for i in 0..n {
        let vip = v[(i, p)];
        let viq = v[(i, q)];
        v[(i, p)] = c * vip - s * viq;
        v[(i, q)] = s * vip + c * viq;
    }
}

fn sorted_real(m: Matrix, v: Matrix) -> (Vec<f64>, Matrix) {
    let n = m.rows();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&i, &j| m[(i, i)].partial_cmp(&m[(j, j)]).unwrap());
    let vals: Vec<f64> = idx.iter().map(|&i| m[(i, i)]).collect();
    let mut vecs = Matrix::zeros(n, n);
    for (newj, &oldj) in idx.iter().enumerate() {
        for i in 0..n {
            vecs[(i, newj)] = v[(i, oldj)];
        }
    }
    (vals, vecs)
}

/// Eigen-decomposition of a complex Hermitian matrix.
///
/// Returns `(eigenvalues, eigenvectors)` with eigenvalues ascending (they are
/// real for Hermitian input) and eigenvectors in columns, unitary to machine
/// precision.
pub fn zheev(a: &CMatrix) -> Result<(Vec<f64>, CMatrix)> {
    let _span = mqmd_util::trace::span("eigen");
    let n = a.rows();
    if a.cols() != n {
        return Err(MqmdError::Invalid(
            "eigensolver needs a square matrix".into(),
        ));
    }
    if !a.is_hermitian(1e-9 * (1.0 + a.frobenius_norm())) {
        return Err(MqmdError::Invalid("zheev needs a Hermitian matrix".into()));
    }
    let mut m = a.clone();
    let mut v = CMatrix::identity(n);
    let tol = 1e-14 * (1.0 + a.frobenius_norm());

    for _sweep in 0..MAX_SWEEPS {
        let off = off_diag_norm_complex(&m);
        if off < tol {
            return Ok(sorted_complex(m, v));
        }
        count_flops(24 * (n as u64).pow(3) / 2);
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                let beta = apq.abs();
                if beta < tol / (n * n) as f64 {
                    continue;
                }
                let u = apq / beta; // unit phase of the off-diagonal element
                let tau = (m[(q, q)].re - m[(p, p)].re) / (2.0 * beta);
                let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                rotate_complex(&mut m, &mut v, p, q, c, s, u);
            }
        }
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
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&i, &j| m[(i, i)].re.partial_cmp(&m[(j, j)].re).unwrap());
    let vals: Vec<f64> = idx.iter().map(|&i| m[(i, i)].re).collect();
    let mut vecs = CMatrix::zeros(n, n);
    for (newj, &oldj) in idx.iter().enumerate() {
        for i in 0..n {
            vecs[(i, newj)] = v[(i, oldj)];
        }
    }
    (vals, vecs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{dgemm, zgemm};

    #[test]
    fn dsyev_diagonal() {
        let mut a = Matrix::zeros(3, 3);
        a[(0, 0)] = 3.0;
        a[(1, 1)] = -1.0;
        a[(2, 2)] = 2.0;
        let (vals, _) = dsyev(&a).unwrap();
        assert_eq!(vals, vec![-1.0, 2.0, 3.0]);
    }

    #[test]
    fn dsyev_reconstructs() {
        let n = 10;
        let b = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 13) % 17) as f64 * 0.1);
        let mut a = Matrix::zeros(n, n);
        dgemm(1.0, &b.transpose(), &b, 0.0, &mut a);
        let (vals, v) = dsyev(&a).unwrap();
        // A·V = V·Λ
        let mut av = Matrix::zeros(n, n);
        dgemm(1.0, &a, &v, 0.0, &mut av);
        for j in 0..n {
            for i in 0..n {
                assert!(
                    (av[(i, j)] - vals[j] * v[(i, j)]).abs() < 1e-9,
                    "column {j}"
                );
            }
        }
        // V orthogonal
        let mut vtv = Matrix::zeros(n, n);
        dgemm(1.0, &v.transpose(), &v, 0.0, &mut vtv);
        assert!(vtv.max_abs_diff(&Matrix::identity(n)) < 1e-11);
        // eigenvalues of BᵀB are non-negative and sorted
        for w in vals.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        assert!(vals[0] > -1e-10);
    }

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
    fn non_symmetric_rejected() {
        let mut a = Matrix::zeros(2, 2);
        a[(0, 1)] = 1.0;
        assert!(dsyev(&a).is_err());
    }
}
