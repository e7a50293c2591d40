use super::{time_us, Shape};
use crate::workloads::Layers;
use metascale_qmd::core::domain_solver::DomainSetup;
use metascale_qmd::dft::hamiltonian::ionic_local_potential;
use metascale_qmd::dft::solver::{atoms_of, grid_for_cell};
use metascale_qmd::grid::DomainDecomposition;
use std::hint::black_box;

/// The geometry phase every cold solve pays before its first SCF
/// iteration: global grid, ionic potential, and every domain's set-up.
pub fn probe(shape: &Shape, layers: &mut Layers) {
    let (sys, cfg) = (&shape.system, &shape.cfg);
    let us = time_us(|| {
        let dd = DomainDecomposition::new(sys.cell, cfg.nd, cfg.buffer);
        let global_grid = grid_for_cell(sys.cell, cfg.global_spacing);
        let v_ion = ionic_local_potential(&global_grid, &atoms_of(sys));
        for d in dd.domains() {
            black_box(DomainSetup::build(
                d,
                &dd,
                sys,
                cfg.domain_spacing,
                cfg.ecut,
                cfg.extra_bands,
                &global_grid,
                &v_ion,
            ));
        }
    });
    layers.set("core.cold_setup_s", us * 1e-6);
}
