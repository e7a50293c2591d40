//! The Kohn–Sham Hamiltonian stated as properties, over arbitrary real local
//! potentials, band counts and grids (ROADMAP item 5: the physics invariants
//! no test stated as a property).
//!
//! * **Hermiticity.** `Ψ†·(H·Ψ)` is a Hermitian matrix for any set of bands
//!   `Ψ` — also bands that are neither normalised nor orthogonal — and any
//!   real `V_loc`, with and without the nonlocal projectors.
//! * **One operator, two paths.** The all-band (batched FFT, BLAS3)
//!   application equals the band-by-band (one-lane FFT, BLAS2) one column by
//!   column. The local part goes through the same FFT kernel at different
//!   lane counts and must agree **bitwise**; with projectors the two paths
//!   order the nonlocal sums differently and agree to rounding.

use mqmd_dft::hamiltonian::{build_projectors, KsHamiltonian};
use mqmd_dft::pw::PlaneWaveBasis;
use mqmd_dft::species::Pseudopotential;
use mqmd_grid::UniformGrid3;
use mqmd_linalg::gemm::zgemm_dagger_a;
use mqmd_linalg::CMatrix;
use mqmd_util::constants::Element;
use mqmd_util::workspace::Workspace;
use mqmd_util::{Complex64, Vec3, Xoshiro256pp};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn apply_into_is_hermitian_and_equals_apply_band_into(
        kind in 0usize..3,
        n_bands in 1usize..30,
        with_projectors in any::<bool>(),
        v_scale in 0.1..5.0f64,
        seed in any::<u64>(),
    ) {
        let basis = basis(kind);
        let np = basis.len();
        let n_bands = n_bands.min(np);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let v_local: Vec<f64> = (0..basis.grid().len()).map(|_| v_scale * rng.normal()).collect();
        let (lx, ly, lz) = basis.grid().lengths();
        let si = Pseudopotential::for_element(Element::Si);
        let atoms = [(si, Vec3::new(0.3 * lx, 0.5 * ly, 0.4 * lz))];
        let nonlocal = if with_projectors { build_projectors(&basis, &atoms) } else { None };
        let h = KsHamiltonian::new(&basis, v_local, nonlocal.as_ref());
        let psi = CMatrix::from_fn(np, n_bands, |_, _| Complex64::new(rng.normal(), rng.normal()));
        let ws = Workspace::new();

        let mut h_psi = CMatrix::zeros(np, n_bands);
        h.apply_into(&psi, &mut h_psi, &ws);

        // ⟨ψ_i|H ψ_j⟩ = conj ⟨ψ_j|H ψ_i⟩.
        let m = zgemm_dagger_a(&psi, &h_psi);
        let size = m.data().iter().map(|z| z.abs()).fold(1.0, f64::max);
        for i in 0..n_bands {
            for j in 0..=i {
                let defect = (m[(i, j)] - m[(j, i)].conj()).abs();
                prop_assert!(defect < 1e-11 * size, "({}, {}): {} of {}", i, j, defect, size);
            }
        }

        let mut band = vec![Complex64::ZERO; np];
        let mut h_band = vec![Complex64::ZERO; np];
        for n in 0..n_bands {
            psi.col_into(n, &mut band);
            h.apply_band_into(&band, &mut h_band, &ws);
            for (g, one) in h_band.iter().enumerate() {
                let all = h_psi[(g, n)];
                if with_projectors {
                    prop_assert!((all - *one).abs() < 1e-11 * size, "band {} g {}", n, g);
                } else {
                    prop_assert!(
                        all.re.to_bits() == one.re.to_bits() && all.im.to_bits() == one.im.to_bits(),
                        "band {} g {}: {:?} vs {:?}", n, g, all, one
                    );
                }
            }
        }
    }
}
