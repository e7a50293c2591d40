//! Hellmann–Feynman ionic forces.
//!
//! For a plane-wave basis (origin-independent, no Pulay terms) the force on
//! ion `I` is the sum of
//!
//! * the **local** term `F_I = −(1/V)·Σ_G G·v̂_I(G)·Im[e^{−iG·R_I}·ρ̂*(G)]`,
//! * the **nonlocal** projector term from `∂⟨b_I|ψ_n⟩/∂R_I = +iG`-weighted
//!   overlaps, and
//! * the point-ion **Ewald** term.
//!
//! The match against the numerical gradient of the self-consistent total
//! energy, on the production SCF loop, is the gold-standard test in
//! `crates/core/tests/forces_gradient.rs`.

use crate::ewald::ewald;
use crate::pw::PlaneWaveBasis;
use crate::species::Pseudopotential;
use mqmd_linalg::CMatrix;
use mqmd_util::{Complex64, Vec3};

/// Local-pseudopotential force contribution on every ion. Needs only the
/// real-space grid (the density is a grid quantity), so the LDC path can
/// call it with the global grid without building a global plane-wave basis.
pub fn local_forces(
    grid: &mqmd_grid::UniformGrid3,
    atoms: &[(Pseudopotential, Vec3)],
    rho: &[f64],
) -> Vec<Vec3> {
    assert_eq!(rho.len(), grid.len());
    let (nx, ny, nz) = grid.dims();
    let lens = grid.lengths();
    let fft = mqmd_fft::Fft3d::new(nx, ny, nz);
    // ρ̂(G) = Σ_j ρ_j e^{−iG·r_j}·dv
    let mut rho_g: Vec<Complex64> = rho.iter().map(|&x| Complex64::from_re(x)).collect();
    fft.forward(&mut rho_g);
    let dv = grid.dv();

    let mut forces = vec![Vec3::ZERO; atoms.len()];
    for ix in 0..nx {
        for iy in 0..ny {
            for iz in 0..nz {
                let g = Vec3::new(
                    mqmd_fft::freq::bin_g(ix, nx, lens.0),
                    mqmd_fft::freq::bin_g(iy, ny, lens.1),
                    mqmd_fft::freq::bin_g(iz, nz, lens.2),
                );
                let g2 = g.norm_sqr();
                if g2 == 0.0 {
                    continue;
                }
                let rg = rho_g[fft.index(ix, iy, iz)].scale(dv);
                for (a, (psp, r)) in atoms.iter().enumerate() {
                    let v = psp.vloc_g(g2);
                    let phase = Complex64::cis(-g.dot(*r));
                    let im = (phase * rg.conj()).im;
                    forces[a] -= g * (v * im / grid.volume());
                }
            }
        }
    }
    forces
}

/// Nonlocal-projector force contribution.
///
/// `proj_owner[p]` maps projector column `p` to its atom index; `b` and `d`
/// are the projector matrix and strengths from
/// [`crate::hamiltonian::build_projectors`].
pub fn nonlocal_forces(
    basis: &PlaneWaveBasis,
    n_atoms: usize,
    proj_owner: &[usize],
    b: &CMatrix,
    d: &[f64],
    psi: &CMatrix,
    occ: &[f64],
) -> Vec<Vec3> {
    let np = basis.len();
    let nb = psi.cols();
    assert_eq!(b.rows(), np);
    assert_eq!(proj_owner.len(), d.len());
    let mut forces = vec![Vec3::ZERO; n_atoms];

    for (p_idx, (&owner, &dp)) in proj_owner.iter().zip(d).enumerate() {
        for n in 0..nb {
            if occ[n] <= 1e-14 {
                continue;
            }
            // ⟨b|ψ⟩ and its gradient Σ_G iG·b*(G)·c_G.
            let mut overlap = Complex64::ZERO;
            let mut grad = [Complex64::ZERO; 3];
            for g in 0..np {
                let bc = b[(g, p_idx)].conj() * psi[(g, n)];
                overlap += bc;
                let gv = basis.g_vectors()[g];
                let i_bc = Complex64::new(-bc.im, bc.re); // i·bc
                grad[0] += i_bc.scale(gv.x);
                grad[1] += i_bc.scale(gv.y);
                grad[2] += i_bc.scale(gv.z);
            }
            // F = −f·d·2Re[⟨b|ψ⟩*·∂⟨b|ψ⟩/∂R]
            let pref = -2.0 * occ[n] * dp;
            forces[owner] += Vec3::new(
                pref * (overlap.conj() * grad[0]).re,
                pref * (overlap.conj() * grad[1]).re,
                pref * (overlap.conj() * grad[2]).re,
            );
        }
    }
    forces
}

/// Total ionic forces: local + nonlocal + Ewald.
pub fn total_forces(
    basis: &PlaneWaveBasis,
    atoms: &[(Pseudopotential, Vec3)],
    rho: &[f64],
    psi: &CMatrix,
    occ: &[f64],
) -> Vec<Vec3> {
    let mut forces = local_forces(basis.grid(), atoms, rho);

    // Nonlocal: one force contribution per projector column, routed to its
    // owning atom.
    if let Some(nl) = crate::hamiltonian::build_projectors(basis, atoms) {
        let f_nl = nonlocal_forces(basis, atoms.len(), &nl.owner, &nl.b, &nl.d, psi, occ);
        for (f, fnl) in forces.iter_mut().zip(f_nl) {
            *f += fnl;
        }
    }

    // Ewald.
    let positions: Vec<Vec3> = atoms.iter().map(|(_, r)| *r).collect();
    let charges: Vec<f64> = atoms.iter().map(|(p, _)| p.z_val).collect();
    let ew = ewald(basis.grid().lengths_vec(), &positions, &charges, None);
    for (f, fe) in forces.iter_mut().zip(ew.forces) {
        *f += fe;
    }
    forces
}
