use super::{time_us, DomainProblem, Shape};
use crate::workloads::Layers;
use metascale_qmd::dft::density::density_into;
use metascale_qmd::dft::eigensolver::{block_davidson_with, EigWorkspace};
use metascale_qmd::dft::ewald::ewald;
use metascale_qmd::dft::forces::total_forces;
use metascale_qmd::dft::hamiltonian::KsHamiltonian;
use metascale_qmd::dft::scf::initial_density;
use metascale_qmd::dft::solver::atoms_of;
use metascale_qmd::dft::xc::vxc_field;
use metascale_qmd::linalg::CMatrix;
use metascale_qmd::util::workspace::Workspace;
use std::hint::black_box;

pub fn probe(shape: &Shape, p: &DomainProblem, layers: &mut Layers) {
    let (setup, cfg) = (&p.setup, &shape.cfg);
    let (np, nb) = (setup.basis.len(), setup.n_bands);
    let h = KsHamiltonian::new(&setup.basis, setup.v_ion.clone(), setup.nonlocal.as_ref());
    let ws = Workspace::new();

    let mut h_psi = CMatrix::zeros(np, nb);
    layers.set(
        "dft.apply_into_us_p50",
        time_us(|| h.apply_into(black_box(&p.psi0), &mut h_psi, &ws)),
    );

    // The domain eigensolve of one SCF iteration, from the same start
    // every time. Running out of iterations is the normal outcome from a
    // random start and costs the same work, so the result is not examined.
    let mut ew = EigWorkspace::new();
    let mut psi = p.psi0.clone();
    let davidson_us = time_us(|| {
        psi.data_mut().copy_from_slice(p.psi0.data());
        let _ = black_box(block_davidson_with(
            &h,
            &mut psi,
            cfg.davidson_iters,
            cfg.davidson_tol,
            &mut ew,
        ));
    });
    layers.set("dft.davidson_ms_p50", davidson_us * 1e-3);

    let occ = vec![2.0; nb];
    let mut rho = vec![0.0; setup.grid.len()];
    layers.set(
        "dft.density_us_p50",
        time_us(|| density_into(&setup.basis, black_box(&psi), &occ, &mut rho, &ws)),
    );

    let atoms = atoms_of(&shape.system);
    let n_electrons = shape.system.valence_electrons() as f64;
    let rho_global = initial_density(&p.global_grid, &atoms, n_electrons);
    let mut vxc = vec![0.0; rho_global.len()];
    layers.set(
        "dft.vxc_us_p50",
        time_us(|| vxc_field(black_box(&rho_global), &mut vxc)),
    );

    let charges: Vec<f64> = atoms.iter().map(|(psp, _)| psp.z_val).collect();
    layers.set(
        "dft.ewald_us_p50",
        time_us(|| {
            black_box(ewald(
                shape.system.cell,
                black_box(&shape.system.positions),
                &charges,
                None,
            ));
        }),
    );

    let domain_atoms = setup.dft_atoms();
    layers.set(
        "dft.forces_us_p50",
        time_us(|| {
            black_box(total_forces(
                &setup.basis,
                &domain_atoms,
                black_box(&rho),
                &psi,
                &occ,
            ));
        }),
    );
}
