//! Property-based tests of the dense linear-algebra kernels.

use mqmd_linalg::cholesky::{dpotrf, zpotrf};
use mqmd_linalg::eigen::{dsyev, zheev};
use mqmd_linalg::gemm::{dgemm, dgemv, zgemm, zgemm_dagger_a_into, zgemv};
use mqmd_linalg::orthonorm::{cholesky_orthonormalize_with, orthonormality_defect};
use mqmd_linalg::{CMatrix, Matrix};
use mqmd_util::workspace::Workspace;
use mqmd_util::{Complex64, Xoshiro256pp};
use proptest::prelude::*;

fn random_matrix(n: usize, m: usize, seed: u64) -> Matrix {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    Matrix::from_fn(n, m, |_, _| rng.normal())
}

fn random_cmatrix(n: usize, m: usize, seed: u64) -> CMatrix {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    CMatrix::from_fn(n, m, |_, _| Complex64::new(rng.normal(), rng.normal()))
}

/// `A†·B`.
fn dagger_a(a: &CMatrix, b: &CMatrix) -> CMatrix {
    let mut out = CMatrix::zeros(a.cols(), b.cols());
    zgemm_dagger_a_into(a, b, &mut out, &Workspace::new());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gemm_is_associative(n in 2usize..10, seed in any::<u64>()) {
        let a = random_matrix(n, n, seed);
        let b = random_matrix(n, n, seed ^ 1);
        let c = random_matrix(n, n, seed ^ 2);
        let mut ab = Matrix::zeros(n, n);
        dgemm(1.0, &a, &b, 0.0, &mut ab);
        let mut ab_c = Matrix::zeros(n, n);
        dgemm(1.0, &ab, &c, 0.0, &mut ab_c);
        let mut bc = Matrix::zeros(n, n);
        dgemm(1.0, &b, &c, 0.0, &mut bc);
        let mut a_bc = Matrix::zeros(n, n);
        dgemm(1.0, &a, &bc, 0.0, &mut a_bc);
        prop_assert!(ab_c.max_abs_diff(&a_bc) < 1e-9 * (1.0 + ab_c.frobenius_norm()));
    }

    #[test]
    fn transpose_of_product(n in 2usize..9, m in 2usize..9, seed in any::<u64>()) {
        // (A·B)ᵀ = Bᵀ·Aᵀ
        let a = random_matrix(n, m, seed);
        let b = random_matrix(m, n, seed ^ 3);
        let mut ab = Matrix::zeros(n, n);
        dgemm(1.0, &a, &b, 0.0, &mut ab);
        let mut btat = Matrix::zeros(n, n);
        dgemm(1.0, &b.transpose(), &a.transpose(), 0.0, &mut btat);
        prop_assert!(ab.transpose().max_abs_diff(&btat) < 1e-10);
    }

    #[test]
    fn cholesky_reconstructs_random_spd(n in 2usize..10, seed in any::<u64>()) {
        let m = random_matrix(n, n, seed);
        let mut a = Matrix::zeros(n, n);
        dgemm(1.0, &m.transpose(), &m, 0.0, &mut a);
        for i in 0..n { a[(i, i)] += n as f64; }
        let l = dpotrf(&a).unwrap();
        let mut r = Matrix::zeros(n, n);
        dgemm(1.0, &l, &l.transpose(), 0.0, &mut r);
        prop_assert!(a.max_abs_diff(&r) < 1e-8 * (1.0 + a.frobenius_norm()));
    }

    #[test]
    fn zpotrf_reconstructs_random_hpd(n in 2usize..8, seed in any::<u64>()) {
        let m = random_cmatrix(n, n, seed);
        let s = dagger_a(&m, &m);
        let mut a = s.clone();
        for i in 0..n { a[(i, i)] += Complex64::from_re(n as f64); }
        let l = zpotrf(&a).unwrap();
        let mut r = CMatrix::zeros(n, n);
        zgemm(Complex64::ONE, &l, &l.dagger(), Complex64::ZERO, &mut r);
        prop_assert!(a.max_abs_diff(&r) < 1e-8 * (1.0 + a.frobenius_norm()));
    }

    #[test]
    fn eigenvalue_sum_equals_trace(n in 2usize..9, seed in any::<u64>()) {
        let m = random_matrix(n, n, seed);
        let mut a = Matrix::zeros(n, n);
        dgemm(1.0, &m.transpose(), &m, 0.0, &mut a);
        let (vals, _) = dsyev(&a).unwrap();
        let trace: f64 = (0..n).map(|i| a[(i, i)]).sum();
        prop_assert!((vals.iter().sum::<f64>() - trace).abs() < 1e-8 * (1.0 + trace.abs()));
    }

    #[test]
    fn hermitian_eigenvalues_are_real_and_sorted(n in 2usize..7, seed in any::<u64>()) {
        let m = random_cmatrix(n, n, seed);
        let a = dagger_a(&m, &m);
        let (vals, v) = zheev(&a).unwrap();
        for w in vals.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-10);
        }
        // Unitary eigenvectors.
        let vdv = dagger_a(&v, &v);
        prop_assert!(vdv.max_abs_diff(&CMatrix::identity(n)) < 1e-9);
    }

    #[test]
    fn orthonormalisation_always_succeeds_on_random_bands(np in 10usize..80, nb in 1usize..8, seed in any::<u64>()) {
        prop_assume!(nb < np);
        let mut psi = random_cmatrix(np, nb, seed);
        cholesky_orthonormalize_with(&mut psi, &Workspace::new()).unwrap();
        prop_assert!(orthonormality_defect(&psi) < 1e-8);
    }

    // §3.4 BLAS2 → BLAS3 refactoring safety: the all-band GEMM path must
    // agree with the band-by-band GEMV path it replaced, for arbitrary
    // shapes including the parallel ROW_BLOCK split.
    #[test]
    fn dgemm_matches_band_by_band_dgemv(m in 1usize..70, k in 1usize..20, n in 1usize..10, seed in any::<u64>()) {
        let a = random_matrix(m, k, seed);
        let b = random_matrix(k, n, seed ^ 11);
        let mut c = Matrix::zeros(m, n);
        dgemm(1.0, &a, &b, 0.0, &mut c);
        for j in 0..n {
            let x: Vec<f64> = (0..k).map(|i| b[(i, j)]).collect();
            let mut y = vec![0.0; m];
            dgemv(1.0, &a, &x, 0.0, &mut y);
            for i in 0..m {
                prop_assert!((c[(i, j)] - y[i]).abs() < 1e-12 * (1.0 + y[i].abs()));
            }
        }
    }

    #[test]
    fn zgemm_matches_band_by_band_zgemv(m in 1usize..70, k in 1usize..16, n in 1usize..8, seed in any::<u64>()) {
        let a = random_cmatrix(m, k, seed);
        let b = random_cmatrix(k, n, seed ^ 13);
        let mut c = CMatrix::zeros(m, n);
        zgemm(Complex64::ONE, &a, &b, Complex64::ZERO, &mut c);
        for j in 0..n {
            let x = b.col(j);
            let mut y = vec![Complex64::ZERO; m];
            zgemv(Complex64::ONE, &a, &x, Complex64::ZERO, &mut y);
            for i in 0..m {
                prop_assert!((c[(i, j)] - y[i]).abs() < 1e-12 * (1.0 + y[i].abs()));
            }
        }
    }

    #[test]
    fn dagger_a_matches_explicit_conjugate_transpose(np in 1usize..90, na in 1usize..9, nb in 1usize..9, seed in any::<u64>()) {
        let a = random_cmatrix(np, na, seed);
        let b = random_cmatrix(np, nb, seed ^ 17);
        let s = dagger_a(&a, &b);
        let mut expect = CMatrix::zeros(na, nb);
        zgemm(Complex64::ONE, &a.dagger(), &b, Complex64::ZERO, &mut expect);
        prop_assert!(s.max_abs_diff(&expect) < 1e-12 * (1.0 + expect.frobenius_norm()));
    }
}

/// The parallel GEMM splits C into ROW_BLOCK(=32)-row tasks; the sizes that
/// straddle that boundary are where a blocking bug would live.
#[test]
fn gemm_row_block_boundaries_match_band_by_band() {
    for m in [1usize, 31, 32, 33, 63, 64, 65] {
        let (k, n) = (13usize, 7usize);
        let a = random_matrix(m, k, 1000 + m as u64);
        let b = random_matrix(k, n, 2000 + m as u64);
        let mut c = Matrix::zeros(m, n);
        dgemm(1.0, &a, &b, 0.0, &mut c);
        for j in 0..n {
            let x: Vec<f64> = (0..k).map(|i| b[(i, j)]).collect();
            let mut y = vec![0.0; m];
            dgemv(1.0, &a, &x, 0.0, &mut y);
            for i in 0..m {
                assert!((c[(i, j)] - y[i]).abs() < 1e-12, "m={m} ({i},{j})");
            }
        }

        let az = random_cmatrix(m, k, 3000 + m as u64);
        let bz = random_cmatrix(k, n, 4000 + m as u64);
        let mut cz = CMatrix::zeros(m, n);
        zgemm(Complex64::ONE, &az, &bz, Complex64::ZERO, &mut cz);
        for j in 0..n {
            let x = bz.col(j);
            let mut y = vec![Complex64::ZERO; m];
            zgemv(Complex64::ONE, &az, &x, Complex64::ZERO, &mut y);
            for i in 0..m {
                assert!((cz[(i, j)] - y[i]).abs() < 1e-12, "zgemm m={m} ({i},{j})");
            }
        }
    }
}
