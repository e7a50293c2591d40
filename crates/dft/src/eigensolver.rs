//! Iterative eigensolvers for the domain Kohn–Sham problem.
//!
//! The production algorithm (paper §3.4) is an all-band preconditioned
//! conjugate-gradient minimisation recast in BLAS3 form; we implement its
//! modern equivalent, a preconditioned **block Davidson** iteration
//! ([`block_davidson_with`]) whose hot operations are exactly the all-band
//! `H·Ψ` and `Ψ†·Ψ`-type BLAS3 kernels. The BLAS2 baseline of the §3.4
//! ablation is measured on the kernels themselves (`benches/ablations.rs`:
//! `zgemm_via_gemv` against `zgemm`, band-at-a-time `apply_band_into`
//! against all-band `apply_into`).
//!
//! The FFT-based `H·ψ` is paid once per vector: Davidson applies `H` to the
//! bands it is handed and to each augmented block, carries `H·Ψ` through
//! its Ritz rotations as plain GEMMs, and leaves the pair `(Ψ, H·Ψ)` to its
//! caller ([`EigWorkspace::h_psi`]) — for [`ritz_recovery`] when the
//! iteration budget ran out, and for the domain solver's band weights
//! (DESIGN §4l).
//!
//! Preconditioning uses the Teter–Payne–Allan polynomial filter, the
//! standard choice for plane-wave CG (paper refs [2, 47]).

use crate::hamiltonian::KsHamiltonian;
use mqmd_linalg::eigen::zheev;
use mqmd_linalg::gemm::{zgemm, zgemm_dagger_a_into};
use mqmd_linalg::orthonorm::{cholesky_orthonormalize_with, mgs_orthonormalize};
use mqmd_linalg::CMatrix;
use mqmd_util::workspace::{self, Workspace};
use mqmd_util::{Complex64, MqmdError, Result};

/// Convergence report of an eigensolve.
#[derive(Clone, Debug)]
pub struct EigenReport {
    /// Ritz values (ascending).
    pub eigenvalues: Vec<f64>,
    /// Outer iterations used.
    pub iterations: usize,
    /// Final maximum residual norm `max_n ‖H·ψ_n − ε_n·ψ_n‖`.
    pub residual: f64,
}

/// Teter–Payne–Allan preconditioner factor for relative kinetic energy `x`.
#[inline]
pub fn tpa_factor(x: f64) -> f64 {
    let num = 27.0 + 18.0 * x + 12.0 * x * x + 8.0 * x * x * x;
    num / (num + 16.0 * x * x * x * x)
}

/// Preplanned storage for the eigensolvers: the fixed-shape block matrices
/// of one Davidson iteration plus a [`Workspace`] arena for everything
/// transient (FFT scratch, bands, subspace matrices). Built once per domain
/// and reused across SCF iterations and MD steps, so steady-state iterations
/// allocate nothing on the hot path.
pub struct EigWorkspace {
    /// Arena for transient buffers (bands, FFT fields, subspace matrices).
    pub ws: Workspace,
    h_psi: CMatrix,
    psi_rot: CMatrix,
    h_psi_rot: CMatrix,
    res: CMatrix,
    aug: CMatrix,
    h_aug: CMatrix,
    v_keep: CMatrix,
}

impl Default for EigWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl EigWorkspace {
    /// Creates an empty workspace; buffers are shaped on first use.
    pub fn new() -> Self {
        Self {
            ws: Workspace::new(),
            h_psi: CMatrix::zeros(0, 0),
            psi_rot: CMatrix::zeros(0, 0),
            h_psi_rot: CMatrix::zeros(0, 0),
            res: CMatrix::zeros(0, 0),
            aug: CMatrix::zeros(0, 0),
            h_aug: CMatrix::zeros(0, 0),
            v_keep: CMatrix::zeros(0, 0),
        }
    }

    /// `H·Ψ` of the bands the last [`block_davidson_with`] call (and a
    /// [`ritz_recovery`] after it) left in `psi`, for the Hamiltonian of
    /// that call: the carried half of the `(Ψ, H·Ψ)` pair, rotated along
    /// with Ψ rather than re-applied. The next call overwrites it.
    pub fn h_psi(&self) -> &CMatrix {
        &self.h_psi
    }

    /// Shapes every block matrix for an `Np × Nb` problem, reallocating only
    /// on shape change (counted as plan allocations in the global stats).
    fn ensure(&mut self, np: usize, nb: usize) {
        Self::ensure_mat(&mut self.h_psi, np, nb);
        Self::ensure_mat(&mut self.psi_rot, np, nb);
        Self::ensure_mat(&mut self.h_psi_rot, np, nb);
        Self::ensure_mat(&mut self.res, np, nb);
        Self::ensure_mat(&mut self.aug, np, 2 * nb);
        Self::ensure_mat(&mut self.h_aug, np, 2 * nb);
        Self::ensure_mat(&mut self.v_keep, 2 * nb, nb);
    }

    fn ensure_mat(m: &mut CMatrix, rows: usize, cols: usize) {
        if m.rows() == rows && m.cols() == cols {
            workspace::record_reuse();
        } else {
            *m = CMatrix::zeros(rows, cols);
            workspace::record_plan_alloc((rows * cols * size_of::<Complex64>()) as u64);
        }
    }
}

/// Preconditioned block-Davidson eigensolver: refines the `Nb` bands of
/// `psi` toward the lowest eigenpairs of `h`.
///
/// Each outer iteration performs a Rayleigh–Ritz step in
/// `span{Ψ, K·(H·Ψ − Ψ·Θ)}`: one all-band `H` application, to the `2·Nb`
/// columns of the augmented block, and a handful of BLAS3 products — the
/// paper's computational profile, `H·ψ` paid once per vector.
///
/// All block matrices live in `ew` and rotations land in `psi` via buffer
/// swaps, so steady-state iterations of a warm workspace perform no
/// hot-path allocations.
///
/// `(Ψ, H·Ψ)` is a pair for the length of the call. `H` is applied to the
/// incoming Ψ once on entry and to the augmented block `[Ψ, K·R]` once per
/// iteration; every other `H·Ψ` is a rotation of one already held
/// (`H·(Ψ·V) = (H·Ψ)·V`, `H·(A·V_keep) = (H·A)·V_keep`). A solve that
/// converges in iteration `k` therefore makes `k` applications, one that
/// exhausts its budget `max_iter + 1`. On return — `Ok`, or the
/// `Convergence` error of an exhausted budget — [`EigWorkspace::h_psi`]
/// holds `H·Ψ` of the bands left in `psi`. Nothing is carried *between*
/// calls: the Hamiltonian changes with every SCF iteration.
pub fn block_davidson_with(
    h: &KsHamiltonian,
    psi: &mut CMatrix,
    max_iter: usize,
    tol: f64,
    ew: &mut EigWorkspace,
) -> Result<EigenReport> {
    let np = psi.rows();
    let nb = psi.cols();
    assert_eq!(np, h.basis().len());
    ew.ensure(np, nb);
    let mut last_res = f64::INFINITY;

    h.apply_into(psi, &mut ew.h_psi, &ew.ws);
    for iter in 1..=max_iter {
        // Rayleigh–Ritz on the current block.
        let theta = rayleigh_ritz(psi, ew)?;

        // Residuals R = H·Ψ − Ψ·Θ.
        let mut max_res: f64 = 0.0;
        for (n, &theta_n) in theta.iter().enumerate() {
            let mut norm2 = 0.0;
            for g in 0..np {
                let r = ew.h_psi[(g, n)] - psi[(g, n)].scale(theta_n);
                norm2 += r.norm_sqr();
                ew.res[(g, n)] = r;
            }
            max_res = max_res.max(norm2.sqrt());
        }
        last_res = max_res;
        if max_res < tol {
            return Ok(EigenReport {
                eigenvalues: theta,
                iterations: iter,
                residual: max_res,
            });
        }

        // TPA-precondition the residuals band-wise.
        {
            let mut band = ew.ws.borrow_c64(np);
            for n in 0..nb {
                psi.col_into(n, &mut band);
                let ke = h.basis().kinetic_expectation(&band).max(1e-6);
                for g in 0..np {
                    let x = 0.5 * h.basis().g2()[g] / ke;
                    ew.res[(g, n)] = ew.res[(g, n)].scale(tpa_factor(x));
                }
            }
        }

        // Augmented Rayleigh–Ritz in span{Ψ, K·R}.
        for g in 0..np {
            for n in 0..nb {
                ew.aug[(g, n)] = psi[(g, n)];
                ew.aug[(g, nb + n)] = ew.res[(g, n)];
            }
        }
        if cholesky_orthonormalize_with(&mut ew.aug, &ew.ws).is_err() {
            // Rank-deficient augmentation (residuals almost in span Ψ):
            // fall back to modified Gram–Schmidt, which simply renormalises.
            mgs_orthonormalize(&mut ew.aug);
        }
        h.apply_into(&ew.aug, &mut ew.h_aug, &ew.ws);
        let mut hs2 = CMatrix::from_vec(2 * nb, 2 * nb, ew.ws.take_c64(4 * nb * nb));
        zgemm_dagger_a_into(&ew.aug, &ew.h_aug, &mut hs2, &ew.ws);
        let eig2 = zheev(&hs2);
        ew.ws.give_c64(hs2.into_data());
        let (_, v2) = eig2?;
        // Keep the lowest nb Ritz vectors, and the same combination of the
        // H·aug columns as their H·Ψ.
        for i in 0..2 * nb {
            for n in 0..nb {
                ew.v_keep[(i, n)] = v2[(i, n)];
            }
        }
        zgemm(
            Complex64::ONE,
            &ew.aug,
            &ew.v_keep,
            Complex64::ZERO,
            &mut ew.psi_rot,
        );
        std::mem::swap(psi, &mut ew.psi_rot);
        zgemm(
            Complex64::ONE,
            &ew.h_aug,
            &ew.v_keep,
            Complex64::ZERO,
            &mut ew.h_psi,
        );
    }

    Err(MqmdError::Convergence {
        what: "block Davidson".into(),
        iterations: max_iter,
        residual: last_res,
    })
}

/// Rayleigh–Ritz within span Ψ on the carried pair: diagonalises
/// `Ψ†·(H·Ψ)` and rotates Ψ and `H·Ψ` by the same eigenvectors, adopting
/// both by swapping storage — no copy, no allocation, no `H` application.
/// Returns the Ritz values (ascending).
fn rayleigh_ritz(psi: &mut CMatrix, ew: &mut EigWorkspace) -> Result<Vec<f64>> {
    let nb = psi.cols();
    let mut hs = CMatrix::from_vec(nb, nb, ew.ws.take_c64(nb * nb));
    zgemm_dagger_a_into(psi, &ew.h_psi, &mut hs, &ew.ws);
    let eig = zheev(&hs);
    ew.ws.give_c64(hs.into_data());
    let (theta, v) = eig?;
    zgemm(Complex64::ONE, psi, &v, Complex64::ZERO, &mut ew.psi_rot);
    zgemm(
        Complex64::ONE,
        &ew.h_psi,
        &v,
        Complex64::ZERO,
        &mut ew.h_psi_rot,
    );
    std::mem::swap(psi, &mut ew.psi_rot);
    std::mem::swap(&mut ew.h_psi, &mut ew.h_psi_rot);
    Ok(theta)
}

/// What both SCF loops do when [`block_davidson_with`] runs out of
/// iterations: the partially converged bands still advance the SCF, so
/// rotate the pair it left in `psi` and `ew` to its Ritz vectors and report
/// the Ritz values. `iterations` is passed through; `residual` is `NaN`,
/// the marker of a recovered report. `psi` must be the block that call
/// returned, untouched since.
pub fn ritz_recovery(
    psi: &mut CMatrix,
    iterations: usize,
    ew: &mut EigWorkspace,
) -> Result<EigenReport> {
    assert_eq!(
        (ew.h_psi.rows(), ew.h_psi.cols()),
        (psi.rows(), psi.cols()),
        "ritz_recovery needs the H·Ψ of a block_davidson_with call on this block"
    );
    Ok(EigenReport {
        eigenvalues: rayleigh_ritz(psi, ew)?,
        iterations,
        residual: f64::NAN,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pw::PlaneWaveBasis;
    use mqmd_grid::UniformGrid3;

    fn small_basis() -> PlaneWaveBasis {
        // ~ 60 plane waves: small enough for a dense cross-check.
        PlaneWaveBasis::new(UniformGrid3::cubic(8, 8.0), 2.2)
    }

    fn dense_eigenvalues(h: &KsHamiltonian, count: usize) -> Vec<f64> {
        let np = h.basis().len();
        let mut dense = CMatrix::zeros(np, np);
        let mut col = vec![Complex64::ZERO; np];
        for g in 0..np {
            let mut e = vec![Complex64::ZERO; np];
            e[g] = Complex64::ONE;
            h.apply_band_into(&e, &mut col, &Workspace::new());
            for i in 0..np {
                dense[(i, g)] = col[i];
            }
        }
        // Symmetrise tiny numerical asymmetry before Jacobi.
        let mut sym = CMatrix::zeros(np, np);
        for i in 0..np {
            for j in 0..np {
                sym[(i, j)] = (dense[(i, j)] + dense[(j, i)].conj()).scale(0.5);
            }
        }
        let (vals, _) = zheev(&sym).unwrap();
        vals[..count].to_vec()
    }

    #[test]
    fn tpa_limits() {
        assert!((tpa_factor(0.0) - 1.0).abs() < 1e-14, "no damping at low G");
        assert!(tpa_factor(10.0) < 0.06, "strong damping at high G");
        assert!(tpa_factor(100.0) < 6e-3, "asymptotic 1/(2x) decay");
    }

    #[test]
    fn free_electron_spectrum() {
        let b = small_basis();
        let h = KsHamiltonian::new(&b, vec![0.0; b.grid().len()], None);
        let mut psi = b.random_bands(5, 1);
        let report = block_davidson_with(&h, &mut psi, 60, 1e-9, &mut EigWorkspace::new()).unwrap();
        let mut exact: Vec<f64> = b.g2().iter().map(|&g2| 0.5 * g2).collect();
        exact.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (got, want) in report.eigenvalues.iter().zip(&exact[..5]) {
            assert!((got - want).abs() < 1e-7, "{got} vs {want}");
        }
    }

    #[test]
    fn davidson_matches_dense_diagonalisation() {
        let b = small_basis();
        // A smooth cosine potential well.
        let grid = b.grid();
        let l = grid.lengths().0;
        let v = grid.sample(|r| {
            -0.8 * ((std::f64::consts::TAU * r.x / l).cos()
                + (std::f64::consts::TAU * r.y / l).cos()
                + (std::f64::consts::TAU * r.z / l).cos())
        });
        let h = KsHamiltonian::new(&b, v, None);
        let exact = dense_eigenvalues(&h, 4);
        let mut psi = b.random_bands(4, 5);
        let report =
            block_davidson_with(&h, &mut psi, 100, 1e-8, &mut EigWorkspace::new()).unwrap();
        for (got, want) in report.eigenvalues.iter().zip(&exact) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal_after_solve() {
        let b = small_basis();
        let grid = b.grid();
        let v = grid.sample(|r| -0.4 * (std::f64::consts::TAU * r.x / 8.0).cos());
        let h = KsHamiltonian::new(&b, v, None);
        let mut psi = b.random_bands(4, 8);
        block_davidson_with(&h, &mut psi, 80, 1e-8, &mut EigWorkspace::new()).unwrap();
        assert!(mqmd_linalg::orthonorm::orthonormality_defect(&psi) < 1e-8);
    }

    /// Re-running a solve through one warm [`EigWorkspace`] must be bitwise
    /// identical to the first run — pooled buffers and swapped blocks are
    /// unobservable in the numerics.
    #[test]
    fn warm_workspace_solve_is_bitwise_identical() {
        let b = small_basis();
        let grid = b.grid();
        let l = grid.lengths().0;
        let v = grid.sample(|r| -0.5 * (std::f64::consts::TAU * r.x / l).cos());
        let h = KsHamiltonian::new(&b, v, None);
        let psi0 = b.random_bands(3, 23);
        let mut ew = EigWorkspace::new();
        let mut psi_a = psi0.clone();
        let rep_a = block_davidson_with(&h, &mut psi_a, 100, 1e-7, &mut ew).unwrap();
        let mut psi_b = psi0.clone();
        let rep_b = block_davidson_with(&h, &mut psi_b, 100, 1e-7, &mut ew).unwrap();
        assert_eq!(rep_a.iterations, rep_b.iterations);
        for (i, (x, y)) in psi_a.data().iter().zip(psi_b.data()).enumerate() {
            assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "warm vs cold mismatch at {i}"
            );
        }
        assert!(
            ew.ws.stats().snapshot().hits > 0,
            "second solve must reuse pooled buffers"
        );
    }

    #[test]
    fn residual_below_tolerance_on_success() {
        let b = small_basis();
        let h = KsHamiltonian::new(&b, vec![0.0; b.grid().len()], None);
        let mut psi = b.random_bands(3, 17);
        let report = block_davidson_with(&h, &mut psi, 60, 1e-9, &mut EigWorkspace::new()).unwrap();
        assert!(report.residual < 1e-9);
        assert!(report.iterations <= 60);
    }
}
