//! Cholesky factorisation, real and complex (Hermitian).
//!
//! The paper orthonormalises Kohn–Sham wave functions by "first constructing
//! an overlap matrix … followed by parallel Cholesky decomposition of the
//! overlap matrix" (§3.3). [`zpotrf`] is that kernel; `mqmd-linalg::orthonorm`
//! combines it with the triangular inverse to realise `Ψ ← Ψ·L⁻†`.

use crate::cmatrix::CMatrix;
use crate::matrix::Matrix;
use mqmd_util::flops::count_flops;
use mqmd_util::{Complex64, MqmdError, Result};

/// Real Cholesky: factors a symmetric positive-definite `A = L·Lᵀ`,
/// returning lower-triangular `L`.
pub fn dpotrf(a: &Matrix) -> Result<Matrix> {
    let n = a.rows();
    if a.cols() != n {
        return Err(MqmdError::Invalid("Cholesky needs a square matrix".into()));
    }
    count_flops((n as u64).pow(3) / 3);
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if s <= 0.0 {
                    return Err(MqmdError::Numerical(format!(
                        "matrix not positive definite at pivot {i} (value {s:.3e})"
                    )));
                }
                l[(i, j)] = s.sqrt();
            } else {
                l[(i, j)] = s / l[(j, j)];
            }
        }
    }
    Ok(l)
}

/// Complex (Hermitian) Cholesky: factors `A = L·L†`, returning lower-
/// triangular `L` with real positive diagonal.
pub fn zpotrf(a: &CMatrix) -> Result<CMatrix> {
    let n = a.rows();
    if a.cols() != n {
        return Err(MqmdError::Invalid("Cholesky needs a square matrix".into()));
    }
    count_flops(4 * (n as u64).pow(3) / 3);
    let mut l = CMatrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)].conj();
            }
            if i == j {
                // The diagonal of a Hermitian PD matrix is real positive.
                if s.re <= 0.0 || s.im.abs() > 1e-8 * s.re.abs().max(1.0) {
                    return Err(MqmdError::Numerical(format!(
                        "matrix not Hermitian positive definite at pivot {i} (value {s})"
                    )));
                }
                l[(i, j)] = Complex64::from_re(s.re.sqrt());
            } else {
                l[(i, j)] = s / l[(j, j)];
            }
        }
    }
    Ok(l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{dgemm, zgemm};

    fn spd(n: usize) -> Matrix {
        // A = Mᵀ·M + n·I is SPD for any M.
        let m = Matrix::from_fn(n, n, |i, j| ((i * 3 + j * 5) % 7) as f64 * 0.3 - 0.8);
        let mut a = Matrix::zeros(n, n);
        dgemm(1.0, &m.transpose(), &m, 0.0, &mut a);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    fn hpd(n: usize) -> CMatrix {
        let m = CMatrix::from_fn(n, n, |i, j| {
            Complex64::new(
                ((i + 2 * j) % 5) as f64 * 0.2,
                ((3 * i + j) % 7) as f64 * 0.1,
            )
        });
        let mut a = CMatrix::zeros(n, n);
        zgemm(Complex64::ONE, &m.dagger(), &m, Complex64::ZERO, &mut a);
        for i in 0..n {
            a[(i, i)] += Complex64::from_re(n as f64);
        }
        a
    }

    #[test]
    fn dpotrf_reconstructs() {
        let a = spd(8);
        let l = dpotrf(&a).unwrap();
        let mut r = Matrix::zeros(8, 8);
        dgemm(1.0, &l, &l.transpose(), 0.0, &mut r);
        assert!(a.max_abs_diff(&r) < 1e-10);
        // L is lower triangular.
        for i in 0..8 {
            for j in (i + 1)..8 {
                assert_eq!(l[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn zpotrf_reconstructs() {
        let a = hpd(6);
        let l = zpotrf(&a).unwrap();
        let mut r = CMatrix::zeros(6, 6);
        zgemm(Complex64::ONE, &l, &l.dagger(), Complex64::ZERO, &mut r);
        assert!(a.max_abs_diff(&r) < 1e-10);
        for i in 0..6 {
            assert!(l[(i, i)].im.abs() < 1e-14, "real diagonal");
            assert!(l[(i, i)].re > 0.0, "positive diagonal");
        }
    }

    #[test]
    fn non_pd_rejected() {
        let mut a = Matrix::identity(3);
        a[(2, 2)] = -1.0;
        assert!(matches!(dpotrf(&a), Err(MqmdError::Numerical(_))));
    }
}
