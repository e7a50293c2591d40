//! Differential tests of the SIMD microkernels against their scalar
//! twins (the tentpole acceptance harness).
//!
//! Contract under test:
//!
//! * `dgemm_simd` re-associates the k-loop through FMA accumulators, so it
//!   is *not* bitwise scalar — it must instead stay within a documented
//!   per-element ULP bound of `dgemm_scalar` (cancellation-free inputs,
//!   bound proportional to the reduction depth).
//! * `zgemm_simd` replicates the scalar complex FMA chain lane-for-lane,
//!   so it must be **bitwise** identical to `zgemm_scalar` for every
//!   shape, including the tails the vector loop cannot cover.
//! * Results are bitwise reproducible run-to-run and across rayon thread
//!   counts: the parallel split is a pure function of the problem shape.
//!
//! Tail shapes are the point: dims `1..=2·LANES+1` (LANES = 4 for AVX2
//! `f64x4`) sweep every remainder class of the 4×8 register block, and the
//! explicit empty/unit cases pin the degenerate early-outs.

use mqmd_linalg::gemm::{dgemm_scalar, dgemm_simd, zgemm_dagger_a, zgemm_scalar, zgemm_simd};
use mqmd_linalg::orthonorm::cholesky_orthonormalize;
use mqmd_linalg::{CMatrix, Matrix};
use mqmd_util::simd::max_ulp_diff;
use mqmd_util::{Complex64, Xoshiro256pp};
use proptest::prelude::*;

/// Per-element ULP budget for the re-associated real GEMM. The two paths
/// share every multiply (α is folded into the packed panel exactly as the
/// scalar path folds it into `s`); they differ only in the order the ≤ k+1
/// partial sums round. With positive, cancellation-free inputs each
/// reordering costs at most one ULP of the running sum, so the bound is a
/// small multiple of the reduction depth.
fn ulp_budget(k: usize) -> u64 {
    4 * (k as u64 + 1).max(8)
}

/// Positive, well-scaled entries: no cancellation, so ULP distances
/// measure re-association error and nothing else.
fn positive_matrix(n: usize, m: usize, seed: u64) -> Matrix {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    Matrix::from_fn(n, m, |_, _| rng.uniform_in(0.5, 1.5))
}

fn random_cmatrix(n: usize, m: usize, seed: u64) -> CMatrix {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    CMatrix::from_fn(n, m, |_, _| Complex64::new(rng.normal(), rng.normal()))
}

fn assert_cmatrix_bits_eq(a: &CMatrix, b: &CMatrix, ctx: &str) {
    for (x, y) in a.data().iter().zip(b.data()) {
        assert_eq!(x.re.to_bits(), y.re.to_bits(), "{ctx}: re");
        assert_eq!(x.im.to_bits(), y.im.to_bits(), "{ctx}: im");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // LANES = 4, so 1..=9 = 1..=2·LANES+1 covers every remainder class of
    // both the MR=4 row block and (with k in the same range) short
    // reduction depths; beta exercises the pre-scale path.
    #[test]
    fn dgemm_simd_matches_scalar_within_ulp_bound(
        m in 1usize..10, k in 1usize..10, n in 1usize..10,
        beta_sel in 0usize..3, seed in any::<u64>(),
    ) {
        let beta = [0.0, 1.0, 0.75][beta_sel];
        let a = positive_matrix(m, k, seed);
        let b = positive_matrix(k, n, seed ^ 0x9e37);
        let c0 = positive_matrix(m, n, seed ^ 0x79b9);
        let mut cs = c0.clone();
        let mut cv = c0.clone();
        dgemm_scalar(1.25, &a, &b, beta, &mut cs);
        dgemm_simd(1.25, &a, &b, beta, &mut cv);
        let ulp = max_ulp_diff(cs.data(), cv.data());
        prop_assert!(
            ulp <= ulp_budget(k),
            "m={m} k={k} n={n} beta={beta}: {ulp} ULPs > budget {}",
            ulp_budget(k)
        );
    }

    // The complex kernel promises bitwise identity, so the proptest can
    // demand exact bits for arbitrary tails and both beta classes.
    #[test]
    fn zgemm_simd_is_bitwise_scalar_for_tail_shapes(
        m in 1usize..10, k in 1usize..10, n in 1usize..10,
        zero_beta in any::<bool>(), seed in any::<u64>(),
    ) {
        let alpha = Complex64::new(0.8, -0.3);
        let beta = if zero_beta { Complex64::ZERO } else { Complex64::new(-0.1, 0.4) };
        let a = random_cmatrix(m, k, seed);
        let b = random_cmatrix(k, n, seed ^ 0x51ed);
        let c0 = random_cmatrix(m, n, seed ^ 0x2c13);
        let mut cs = c0.clone();
        let mut cv = c0.clone();
        zgemm_scalar(alpha, &a, &b, beta, &mut cs);
        zgemm_simd(alpha, &a, &b, beta, &mut cv);
        for (x, y) in cs.data().iter().zip(cv.data()) {
            prop_assert_eq!(x.re.to_bits(), y.re.to_bits(), "m={} k={} n={}", m, k, n);
            prop_assert_eq!(x.im.to_bits(), y.im.to_bits(), "m={} k={} n={}", m, k, n);
        }
    }
}

/// Degenerate shapes: any zero dimension must reduce both paths to the
/// same early-out (`C ← β·C` when k = 0, untouched/empty buffers when
/// m·n = 0), and 1×1×1 pins the all-tail corner.
#[test]
fn empty_and_unit_edges_agree() {
    for (m, k, n) in [
        (0usize, 3usize, 3usize),
        (3, 0, 3),
        (3, 3, 0),
        (0, 0, 0),
        (1, 1, 1),
    ] {
        let a = positive_matrix(m, k, 11);
        let b = positive_matrix(k, n, 12);
        let c0 = positive_matrix(m, n, 13);
        let mut cs = c0.clone();
        let mut cv = c0.clone();
        dgemm_scalar(2.0, &a, &b, 0.5, &mut cs);
        dgemm_simd(2.0, &a, &b, 0.5, &mut cv);
        assert_eq!(max_ulp_diff(cs.data(), cv.data()), 0, "dgemm {m}x{k}x{n}");

        let az = random_cmatrix(m, k, 14);
        let bz = random_cmatrix(k, n, 15);
        let cz0 = random_cmatrix(m, n, 16);
        let mut czs = cz0.clone();
        let mut czv = cz0.clone();
        let beta = Complex64::new(0.5, -0.5);
        zgemm_scalar(Complex64::ONE, &az, &bz, beta, &mut czs);
        zgemm_simd(Complex64::ONE, &az, &bz, beta, &mut czv);
        assert_cmatrix_bits_eq(&czs, &czv, &format!("zgemm {m}x{k}x{n}"));
    }
}

/// Runs `f` on rayon pools of 1, 2, and 4 threads and asserts every run
/// produces bitwise identical output — the parallel GEMM splits and the
/// daggered-GEMM reduction chunking are pure functions of the shape, so
/// the schedule may differ but the arithmetic may not. `pooled` says the
/// shape is above the kernels' grain cut-off: its multi-thread runs must
/// then really have gone to the thread pool, or the pin would compare the
/// inline loop with itself.
fn assert_thread_count_invariant<T: PartialEq + std::fmt::Debug>(
    label: &str,
    pooled: bool,
    f: impl Fn() -> T + Send + Sync,
) {
    let reference = f();
    for threads in [1usize, 2, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("test pool");
        let dispatched = rayon::pool_dispatches();
        let got = pool.install(&f);
        assert_eq!(got, reference, "{label}: {threads}-thread run diverged");
        assert!(
            rayon::pool_dispatches() > dispatched || !pooled || threads == 1,
            "{label}: {threads}-thread run never reached the thread pool"
        );
    }
}

fn bits_of(c: &CMatrix) -> Vec<(u64, u64)> {
    c.data()
        .iter()
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

#[test]
fn dgemm_is_bitwise_deterministic_across_thread_counts() {
    // 70 rows straddles the ROW_BLOCK=32 parallel split twice.
    let a = positive_matrix(70, 17, 21);
    let b = positive_matrix(17, 9, 22);
    assert_thread_count_invariant("dgemm", false, || {
        let mut c = Matrix::zeros(70, 9);
        dgemm_simd(1.0, &a, &b, 0.0, &mut c);
        c.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
    });
    // Sixteen row blocks of 131 kFLOP each: above the grain cut-off.
    let a = positive_matrix(512, 64, 26);
    let b = positive_matrix(64, 32, 27);
    assert_thread_count_invariant("dgemm 512x64x32", true, || {
        let mut c = Matrix::zeros(512, 32);
        dgemm_simd(1.0, &a, &b, 0.0, &mut c);
        c.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
    });
}

#[test]
fn zgemm_dagger_a_is_bitwise_deterministic_across_thread_counts() {
    // Tall-skinny overlap S = Ψ†Ψ: the shape whose parallel reduction
    // chunking must be a pure function of np, not of the worker count.
    let psi = random_cmatrix(3000, 6, 23);
    let phi = random_cmatrix(3000, 5, 24);
    assert_thread_count_invariant("zgemm_dagger_a", true, || {
        bits_of(&zgemm_dagger_a(&psi, &phi))
    });
}

#[test]
fn orthonormalization_is_bitwise_deterministic_across_thread_counts() {
    // The second shape, 4096 plane waves by 16 bands, has its overlap
    // reduction and its back-substitution GEMM above the grain cut-off.
    for (np, nb, pooled) in [(400, 7, false), (4096, 16, true)] {
        let psi0 = random_cmatrix(np, nb, 25);
        assert_thread_count_invariant("cholesky_orthonormalize", pooled, || {
            let mut psi = psi0.clone();
            cholesky_orthonormalize(&mut psi).expect("random bands orthonormalize");
            bits_of(&psi)
        });
    }
}
