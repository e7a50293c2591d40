//! Complex lower-triangular inversion, the `L⁻¹` of the Cholesky
//! orthonormalisation.

use crate::cmatrix::CMatrix;
use mqmd_util::flops::count_flops;
use mqmd_util::Complex64;

/// Inverts a complex lower-triangular matrix in O(n³/3).
pub fn ztrtri_lower(l: &CMatrix) -> CMatrix {
    let n = l.rows();
    assert_eq!(l.cols(), n);
    count_flops(4 * (n as u64).pow(3) / 3);
    let mut inv = CMatrix::zeros(n, n);
    // Solve L·X = I column by column; X is lower triangular too.
    for j in 0..n {
        for i in j..n {
            let mut s = if i == j {
                Complex64::ONE
            } else {
                Complex64::ZERO
            };
            for k in j..i {
                s -= l[(i, k)] * inv[(k, j)];
            }
            inv[(i, j)] = s / l[(i, i)];
        }
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::zgemm;

    #[test]
    fn triangular_inverse() {
        let mut l = CMatrix::identity(4);
        l[(1, 0)] = Complex64::new(0.5, 0.25);
        l[(2, 0)] = Complex64::new(-1.0, 0.0);
        l[(2, 1)] = Complex64::new(0.0, 1.0);
        l[(3, 2)] = Complex64::new(2.0, -0.5);
        l[(3, 3)] = Complex64::new(0.5, 0.0);
        let inv = ztrtri_lower(&l);
        let mut prod = CMatrix::zeros(4, 4);
        zgemm(Complex64::ONE, &l, &inv, Complex64::ZERO, &mut prod);
        assert!(prod.max_abs_diff(&CMatrix::identity(4)) < 1e-12);
        // inverse of lower triangular stays lower triangular
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_eq!(inv[(i, j)], Complex64::ZERO);
            }
        }
    }
}
