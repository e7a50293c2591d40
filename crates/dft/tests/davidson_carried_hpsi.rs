//! Block Davidson carries `H·Ψ` through its Ritz rotations instead of
//! re-applying `H`; this file holds that carried block to an explicit
//! application, and the solver to the algorithm it replaced.
//!
//! * **The carried block is `H·Ψ`.** After every iteration count 1..=12, on
//!   random smooth potentials with and without projectors,
//!   `‖HΨ_carried − H·Ψ‖_max ≤ 1e-12·(1 + ‖H‖)` against `apply_into` on the
//!   bands the solver returned — before and after the Ritz recovery rotates
//!   the pair once more. The carried block is two GEMM rotations away from a
//!   fresh application whatever the iteration count, so the bound does not
//!   grow with it.
//! * **Same Ritz values as the parent algorithm.** [`parent_davidson`] is the
//!   reference twin: the solver as it was, applying `H` to Ψ at the top of
//!   every iteration and once more to recover the Ritz values. Both run the
//!   same number of iterations from the same bands and agree to 1e-10
//!   (measured over 400 cases: 1.4e-13). The potentials are 0.2–1.0 Ha deep,
//!   enough to split the free-electron shells: inside an almost degenerate
//!   shell the last band kept is an arbitrary member, its unconverged Ritz
//!   value amplifies *any* rounding difference between two runs (4.9e-9 at
//!   0.08 Ha), and that says nothing about the carried block.

use mqmd_dft::eigensolver::{block_davidson_with, ritz_recovery, tpa_factor, EigWorkspace};
use mqmd_dft::hamiltonian::{build_projectors, KsHamiltonian};
use mqmd_dft::pw::PlaneWaveBasis;
use mqmd_dft::species::Pseudopotential;
use mqmd_grid::UniformGrid3;
use mqmd_linalg::eigen::zheev;
use mqmd_linalg::gemm::{zgemm, zgemm_dagger_a_into};
use mqmd_linalg::orthonorm::{cholesky_orthonormalize_with, mgs_orthonormalize};
use mqmd_linalg::CMatrix;
use mqmd_util::constants::Element;
use mqmd_util::workspace::Workspace;
use mqmd_util::{Complex64, MqmdError, Vec3, Xoshiro256pp};
use proptest::prelude::*;

/// A power-of-two grid, a Bluestein grid and an anisotropic one.
fn basis(kind: usize) -> PlaneWaveBasis {
    let (dims, lens, ecut) = [
        ((8, 8, 8), (7.0, 7.0, 7.0), 3.0),
        ((6, 6, 6), (6.0, 6.0, 6.0), 2.5),
        ((8, 4, 6), (9.0, 5.0, 6.5), 2.0),
    ][kind];
    PlaneWaveBasis::new(UniformGrid3::new(dims, lens), ecut)
}

/// A random smooth potential: the lowest cosine of each axis and three
/// diagonal ones, amplitudes and phases drawn from `rng`.
fn smooth_potential(basis: &PlaneWaveBasis, scale: f64, rng: &mut Xoshiro256pp) -> Vec<f64> {
    let (lx, ly, lz) = basis.grid().lengths();
    let tau = std::f64::consts::TAU;
    let amp: Vec<f64> = (0..6).map(|_| scale * rng.normal()).collect();
    let phase: Vec<f64> = (0..6).map(|_| tau * rng.uniform()).collect();
    basis.grid().sample(|r| {
        let (x, y, z) = (tau * r.x / lx, tau * r.y / ly, tau * r.z / lz);
        let args = [x, y, z, x + y, y + z, x - z];
        (0..6).map(|i| amp[i] * (args[i] + phase[i]).cos()).sum()
    })
}

fn product(a: &CMatrix, b: &CMatrix) -> CMatrix {
    let mut c = CMatrix::zeros(a.rows(), b.cols());
    zgemm(Complex64::ONE, a, b, Complex64::ZERO, &mut c);
    c
}

fn apply(h: &KsHamiltonian, psi: &CMatrix) -> CMatrix {
    let mut out = CMatrix::zeros(psi.rows(), psi.cols());
    h.apply_into(psi, &mut out, &Workspace::new());
    out
}

/// `A†·B`.
fn dagger_a(a: &CMatrix, b: &CMatrix) -> CMatrix {
    let mut out = CMatrix::zeros(a.cols(), b.cols());
    zgemm_dagger_a_into(a, b, &mut out, &Workspace::new());
    out
}

/// The parent algorithm, kept as the reference twin: `iters` iterations of
/// block Davidson that apply `H` to Ψ at the top of each, then the Ritz
/// recovery that applies it once more. Returns the recovered Ritz values.
fn parent_davidson(h: &KsHamiltonian, psi: &mut CMatrix, iters: usize) -> Vec<f64> {
    let (np, nb) = (psi.rows(), psi.cols());
    let g2 = h.basis().g2();
    for _ in 0..iters {
        let h_psi = apply(h, psi);
        let (theta, v) = zheev(&dagger_a(psi, &h_psi)).expect("nb × nb Ritz problem");
        let h_psi = product(&h_psi, &v);
        *psi = product(psi, &v);
        let mut aug = CMatrix::zeros(np, 2 * nb);
        for n in 0..nb {
            let ke = h.basis().kinetic_expectation(&psi.col(n)).max(1e-6);
            for g in 0..np {
                let r = h_psi[(g, n)] - psi[(g, n)].scale(theta[n]);
                aug[(g, n)] = psi[(g, n)];
                aug[(g, nb + n)] = r.scale(tpa_factor(0.5 * g2[g] / ke));
            }
        }
        if cholesky_orthonormalize_with(&mut aug, &Workspace::new()).is_err() {
            mgs_orthonormalize(&mut aug);
        }
        let h_aug = apply(h, &aug);
        let (_, v2) = zheev(&dagger_a(&aug, &h_aug)).expect("2nb × 2nb Ritz problem");
        let v_keep = CMatrix::from_fn(2 * nb, nb, |i, n| v2[(i, n)]);
        *psi = product(&aug, &v_keep);
    }
    let h_psi = apply(h, psi);
    let (theta, _) = zheev(&dagger_a(psi, &h_psi)).expect("nb × nb Ritz problem");
    theta
}

fn max_abs_diff(a: &CMatrix, b: &CMatrix) -> f64 {
    a.data()
        .iter()
        .zip(b.data())
        .map(|(x, y)| (*x - *y).abs())
        .fold(0.0, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn carried_h_psi_is_h_psi_and_ritz_values_match_the_parent(
        kind in 0usize..3,
        n_bands in 2usize..9,
        with_projectors in any::<bool>(),
        v_scale in 0.2..1.0f64,
        seed in any::<u64>(),
    ) {
        let basis = basis(kind);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let v_local = smooth_potential(&basis, v_scale, &mut rng);
        let (lx, ly, lz) = basis.grid().lengths();
        let si = Pseudopotential::for_element(Element::Si);
        let atoms = [(si, Vec3::new(0.3 * lx, 0.5 * ly, 0.4 * lz))];
        let nonlocal = if with_projectors { build_projectors(&basis, &atoms) } else { None };
        // ‖H‖ ≤ max ½G² + max|V| + Σ|d_p| (the projector columns are normalised).
        let h_norm = 0.5 * basis.g2().iter().cloned().fold(0.0, f64::max)
            + v_local.iter().map(|v| v.abs()).fold(0.0, f64::max)
            + nonlocal.as_ref().map_or(0.0, |nl| nl.d.iter().map(|d| d.abs()).sum());
        let h = KsHamiltonian::new(&basis, v_local, nonlocal.as_ref());
        let psi0 = basis.random_bands(n_bands, seed ^ 0xD0);
        // One workspace for the whole sweep: whatever an earlier, shorter
        // solve left in it must not show.
        let mut ew = EigWorkspace::new();

        for iters in 1..=12usize {
            let mut psi = psi0.clone();
            // A zero tolerance is never met: the budget is always exhausted.
            let out = block_davidson_with(&h, &mut psi, iters, 0.0, &mut ew);
            prop_assert!(
                matches!(out, Err(MqmdError::Convergence { iterations, .. }) if iterations == iters),
                "{} iterations: {:?}", iters, out.map(|r| r.iterations)
            );
            let bound = 1e-12 * (1.0 + h_norm);
            let off = max_abs_diff(ew.h_psi(), &apply(&h, &psi));
            prop_assert!(off <= bound, "{} iterations: carried H·Ψ off by {} (bound {})", iters, off, bound);

            let report = ritz_recovery(&mut psi, iters, &mut ew).expect("nb × nb Ritz problem");
            let off = max_abs_diff(ew.h_psi(), &apply(&h, &psi));
            prop_assert!(off <= bound, "{} iterations: recovered H·Ψ off by {} (bound {})", iters, off, bound);

            let mut psi_parent = psi0.clone();
            let parent = parent_davidson(&h, &mut psi_parent, iters);
            for (n, (got, want)) in report.eigenvalues.iter().zip(&parent).enumerate() {
                prop_assert!(
                    (got - want).abs() <= 1e-10,
                    "{} iterations, band {}: {} vs the parent's {}", iters, n, got, want
                );
            }
        }
    }
}
