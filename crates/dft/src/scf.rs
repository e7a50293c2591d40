//! Starting point of a self-consistent-field solve.
//!
//! The SCF loop itself is `mqmd_core::global::LdcSolver::solve_on`: with one
//! domain and no buffer it is the conventional plane-wave Kohn–Sham solve of
//! the paper's §5.5 verification, and with more it is LDC-DFT. This module
//! keeps what that loop starts from.

use crate::species::Pseudopotential;
use mqmd_util::Vec3;

/// Initial guess: superposition of atomic Gaussian densities, normalised to
/// the electron count.
pub fn initial_density(
    grid: &mqmd_grid::UniformGrid3,
    atoms: &[(Pseudopotential, Vec3)],
    n_electrons: f64,
) -> Vec<f64> {
    let cell = grid.lengths_vec();
    let mut rho = grid.sample(|r| {
        let mut acc = 1e-8; // tiny positive floor
        for (psp, pos) in atoms {
            let d = (r - *pos).min_image(cell).norm_sqr();
            let w = 1.5 * psp.r_core;
            acc += psp.z_val * (-d / (w * w)).exp();
        }
        acc
    });
    let total = grid.integrate(&rho);
    let s = n_electrons / total;
    for r in &mut rho {
        *r *= s;
    }
    rho
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqmd_grid::UniformGrid3;
    use mqmd_util::constants::Element;

    #[test]
    fn initial_density_normalised_and_peaked_on_atoms() {
        let grid = UniformGrid3::cubic(10, 8.0);
        let p = Pseudopotential::for_element(Element::H);
        let atoms = vec![(p, Vec3::new(3.3, 4.0, 4.0)), (p, Vec3::new(4.7, 4.0, 4.0))];
        let rho = initial_density(&grid, &atoms, 2.0);
        assert!((grid.integrate(&rho) - 2.0).abs() < 1e-9);
        let at_atom = grid.interpolate(&rho, atoms[0].1);
        let far = grid.interpolate(&rho, Vec3::new(0.0, 0.0, 0.0));
        assert!(at_atom > far);
    }
}
