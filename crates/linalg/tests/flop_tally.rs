//! The analytic FLOP and byte tallies of the dense kernels, pinned to their
//! closed forms.
//!
//! `dgemm` tallies `2·m·n·k`. `zheev` tallies `24·n³/2` FLOPs per Jacobi
//! sweep, whether or not the sweep's rotations are skipped, and per
//! executed rotation the bytes of its three passes (the columns and rows of
//! A, the columns of V), each reading and writing two length-`n` complex
//! vectors: `3 · 2 · 2 · 16 · n` B. The sweep and rotation counts are known
//! for the structured inputs below; on a dense Ritz matrix the two forms
//! must tally alike.
//!
//! The tally and the trace tree are process-wide, so the tests of this file
//! take one lock and never count at the same time.

use mqmd_linalg::eigen::{zheev, zheev_scalar, zheev_simd};
use mqmd_linalg::gemm::{dgemm, zgemm_dagger_a_into};
use mqmd_linalg::{CMatrix, Matrix};
use mqmd_util::flops::take_flops;
use mqmd_util::workspace::Workspace;
use mqmd_util::{trace, Complex64, Xoshiro256pp};
use std::sync::Mutex;

static TALLY: Mutex<()> = Mutex::new(());

#[test]
fn dgemm_tallies_two_m_n_k() {
    let _tally = TALLY.lock().unwrap_or_else(|e| e.into_inner());
    take_flops();
    let a = Matrix::zeros(8, 4);
    let b = Matrix::zeros(4, 6);
    let mut c = Matrix::zeros(8, 6);
    dgemm(1.0, &a, &b, 0.0, &mut c);
    assert_eq!(take_flops(), 2 * 8 * 6 * 4);
}

type Zheev = fn(&CMatrix) -> mqmd_util::Result<(Vec<f64>, CMatrix)>;

/// `(flops, bytes)` the `eigen` span of one call tallied, also checked
/// against the global FLOP tally.
fn tally(form: Zheev, a: &CMatrix) -> (u64, u64) {
    trace::set_enabled(true);
    trace::take();
    take_flops();
    form(a).expect("Hermitian input");
    let flops = take_flops();
    let tree = trace::take();
    trace::set_enabled(false);
    let eigen = tree.aggregate("eigen").expect("zheev opens an eigen span");
    assert_eq!(eigen.calls, 1);
    assert_eq!(eigen.flops, flops, "span and global tally");
    (flops, eigen.bytes)
}

/// The closed form of `sweeps` sweeps executing `rotations` rotations.
fn closed_form(n: usize, sweeps: u64, rotations: u64) -> (u64, u64) {
    let n64 = n as u64;
    (sweeps * 24 * n64.pow(3) / 2, rotations * 192 * n64)
}

/// A diagonal matrix with the given off-diagonal Hermitian pairs.
fn with_pairs(n: usize, pairs: &[(usize, usize)]) -> CMatrix {
    let mut a = CMatrix::from_fn(n, n, |i, j| {
        Complex64::from_re(if i == j { 1.0 + i as f64 } else { 0.0 })
    });
    for &(p, q) in pairs {
        a[(p, q)] = Complex64::new(0.5, -0.25);
        a[(q, p)] = Complex64::new(0.5, 0.25);
    }
    a
}

#[test]
fn zheev_tallies_sweeps_and_executed_rotations() {
    let _tally = TALLY.lock().unwrap_or_else(|e| e.into_inner());
    let forms: [(&str, Zheev); 3] = [
        ("zheev", zheev),
        ("zheev_scalar", zheev_scalar),
        ("zheev_simd", zheev_simd),
    ];
    // (input, sweeps, rotations): a diagonal matrix converges before the
    // first sweep; disjoint 2×2 blocks each take one rotation, after which
    // the second sweep finds the off-diagonal norm under tolerance and
    // never starts. Orders 2 and 4 run the scalar form under `zheev`,
    // 7 and 8 the planar one.
    let cases = [
        (with_pairs(6, &[]), 0, 0),
        (with_pairs(2, &[(0, 1)]), 1, 1),
        (with_pairs(4, &[(0, 3), (1, 2)]), 1, 2),
        (with_pairs(7, &[(0, 6)]), 1, 1),
        (with_pairs(8, &[(0, 1), (2, 3), (4, 5), (6, 7)]), 1, 4),
    ];
    for (a, sweeps, rotations) in &cases {
        let n = a.rows();
        for (name, form) in forms {
            assert_eq!(
                tally(form, a),
                closed_form(n, *sweeps, *rotations),
                "{name} at n = {n}"
            );
        }
    }

    // A dense Ritz matrix: whole sweeps, whole rotations, and the same
    // tally from both forms.
    let mut rng = Xoshiro256pp::seed_from_u64(5);
    let x = CMatrix::from_fn(40, 36, |_, _| Complex64::new(rng.normal(), rng.normal()));
    let mut a = CMatrix::zeros(36, 36);
    zgemm_dagger_a_into(&x, &x, &mut a, &Workspace::new());
    let (flops, bytes) = tally(zheev_scalar, &a);
    let (sweep, rotation) = closed_form(36, 1, 1);
    let (sweeps, rotations) = (flops / sweep, bytes / rotation);
    assert_eq!((flops % sweep, bytes % rotation), (0, 0));
    assert!(sweeps >= 2 && rotations > 0 && rotations <= sweeps * 35 * 36 / 2);
    assert_eq!(tally(zheev_simd, &a), (flops, bytes));
}
