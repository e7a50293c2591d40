//! Band orthonormalisation.
//!
//! The paper (§3.3): "the KS wave functions are orthonormalized by first
//! constructing an overlap matrix between them … followed by parallel
//! Cholesky decomposition of the overlap matrix." Given the band matrix
//! `Ψ (Np × Nb)` with overlap `S = Ψ†Ψ = L·L†`, the orthonormalised bands
//! are `Ψ' = Ψ·(L†)⁻¹ = Ψ·(L⁻¹)†`, since then `Ψ'†Ψ' = L⁻¹·S·(L⁻¹)† = I`.
//!
//! A modified-Gram–Schmidt fallback is provided both as a cross-check and as
//! the "approximate orthonormality" path used between full orthonormalisation
//! steps during band-decomposed CG minimisation.

use crate::cholesky::zpotrf;
use crate::cmatrix::CMatrix;
use crate::gemm::{zgemm, zgemm_dagger_a_into};
use crate::triangular::ztrtri_lower;
use mqmd_util::workspace::Workspace;
use mqmd_util::{Complex64, Result};

/// Orthonormalises the columns of `psi` in place via overlap + Cholesky
/// (the paper's §3.3 kernel). Returns the overlap matrix's departure from
/// identity before the update, `‖S − I‖_F`, a useful convergence diagnostic.
///
/// The overlap matrix and the rotated-band buffer are drawn from `ws`, so a
/// warm arena makes the per-iteration orthonormalisation free of hot-path
/// allocations. The small triangular factors (`Nb × Nb`) remain plain owned
/// values.
pub fn cholesky_orthonormalize_with(psi: &mut CMatrix, ws: &Workspace) -> Result<f64> {
    let _span = mqmd_util::trace::span("orthonorm");
    let nb = psi.cols();
    let mut s = CMatrix::from_vec(nb, nb, ws.take_c64(nb * nb));
    zgemm_dagger_a_into(psi, psi, &mut s, ws);
    let mut dev = 0.0;
    for i in 0..nb {
        for j in 0..nb {
            let target = if i == j {
                Complex64::ONE
            } else {
                Complex64::ZERO
            };
            dev += (s[(i, j)] - target).norm_sqr();
        }
    }
    let chol = zpotrf(&s);
    ws.give_c64(s.into_data());
    let l = chol?;
    let linv = ztrtri_lower(&l);
    // Ψ' = Ψ·(L⁻¹)†  — one BLAS3 call.
    let linv_dag = linv.dagger();
    let mut out = CMatrix::from_vec(psi.rows(), nb, ws.take_c64(psi.rows() * nb));
    zgemm(Complex64::ONE, psi, &linv_dag, Complex64::ZERO, &mut out);
    psi.data_mut().copy_from_slice(out.data());
    ws.give_c64(out.into_data());
    Ok(dev.sqrt())
}

/// Modified Gram–Schmidt orthonormalisation of the columns of `psi`.
pub fn mgs_orthonormalize(psi: &mut CMatrix) {
    let _span = mqmd_util::trace::span("orthonorm");
    let (np, nb) = (psi.rows(), psi.cols());
    for j in 0..nb {
        // Project out previous columns.
        for k in 0..j {
            let mut proj = Complex64::ZERO;
            for g in 0..np {
                proj = proj.mul_add(psi[(g, k)].conj(), psi[(g, j)]);
            }
            for g in 0..np {
                let pk = psi[(g, k)];
                psi[(g, j)] -= proj * pk;
            }
        }
        // Normalise.
        let mut norm = 0.0;
        for g in 0..np {
            norm += psi[(g, j)].norm_sqr();
        }
        let inv = 1.0 / norm.sqrt();
        for g in 0..np {
            psi[(g, j)] = psi[(g, j)].scale(inv);
        }
    }
}

/// Measures `‖Ψ†Ψ − I‖_F`, the orthonormality defect of a band matrix.
pub fn orthonormality_defect(psi: &CMatrix) -> f64 {
    let nb = psi.cols();
    let mut s = CMatrix::zeros(nb, nb);
    zgemm_dagger_a_into(psi, psi, &mut s, &Workspace::new());
    let mut dev = 0.0;
    for i in 0..nb {
        for j in 0..nb {
            let target = if i == j {
                Complex64::ONE
            } else {
                Complex64::ZERO
            };
            dev += (s[(i, j)] - target).norm_sqr();
        }
    }
    dev.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_bands(np: usize, nb: usize) -> CMatrix {
        let mut rng = mqmd_util::Xoshiro256pp::seed_from_u64(1234);
        CMatrix::from_fn(np, nb, |_, _| Complex64::new(rng.normal(), rng.normal()))
    }

    /// Orthonormalises through a fresh arena.
    fn orthonormalize(psi: &mut CMatrix) -> Result<f64> {
        cholesky_orthonormalize_with(psi, &Workspace::new())
    }

    #[test]
    fn cholesky_orthonormalize_yields_identity_overlap() {
        let mut psi = random_bands(200, 8);
        let dev_before = orthonormalize(&mut psi).unwrap();
        assert!(dev_before > 1.0, "random bands start far from orthonormal");
        assert!(orthonormality_defect(&psi) < 1e-10);
    }

    #[test]
    fn cholesky_orthonormalize_preserves_span() {
        // Orthonormalisation must not change the subspace: projecting the new
        // bands onto the old span should preserve their norm.
        let mut psi = random_bands(64, 4);
        let orig = psi.clone();
        orthonormalize(&mut psi).unwrap();

        // Build an orthonormal basis of the original span via MGS, then check
        // each new band has unit norm within that span.
        let mut basis = orig.clone();
        mgs_orthonormalize(&mut basis);
        let mut coeffs = CMatrix::zeros(4, 4);
        zgemm_dagger_a_into(&basis, &psi, &mut coeffs, &Workspace::new());
        for j in 0..4 {
            let mut norm = 0.0;
            for i in 0..4 {
                norm += coeffs[(i, j)].norm_sqr();
            }
            assert!(
                (norm - 1.0).abs() < 1e-10,
                "band {j} leaked out of the span: {norm}"
            );
        }
    }

    #[test]
    fn mgs_matches_cholesky_defect() {
        let mut a = random_bands(128, 6);
        let mut b = a.clone();
        orthonormalize(&mut a).unwrap();
        mgs_orthonormalize(&mut b);
        assert!(orthonormality_defect(&a) < 1e-10);
        assert!(orthonormality_defect(&b) < 1e-10);
    }

    /// A warm workspace must give bitwise the result of a fresh one — the
    /// arena is unobservable in the numerics.
    #[test]
    fn warm_workspace_is_bitwise_fresh() {
        let psi0 = random_bands(96, 5);
        let mut fresh = psi0.clone();
        let dev_fresh = orthonormalize(&mut fresh).unwrap();
        let ws = Workspace::new();
        for _ in 0..2 {
            // First pass misses (cold arena), second hits — same bits.
            let mut pooled = psi0.clone();
            let dev_pooled = cholesky_orthonormalize_with(&mut pooled, &ws).unwrap();
            assert_eq!(dev_fresh.to_bits(), dev_pooled.to_bits());
            for (a, b) in fresh.data().iter().zip(pooled.data()) {
                assert_eq!(a.re.to_bits(), b.re.to_bits());
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
        assert!(ws.stats().snapshot().hits > 0, "warm pass must reuse");
    }

    #[test]
    fn idempotent_on_orthonormal_input() {
        let mut psi = random_bands(100, 5);
        orthonormalize(&mut psi).unwrap();
        let before = psi.clone();
        let dev = orthonormalize(&mut psi).unwrap();
        assert!(dev < 1e-9, "already orthonormal: defect {dev}");
        assert!(psi.max_abs_diff(&before) < 1e-9);
    }
}
