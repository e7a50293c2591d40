use super::{time_us, DomainProblem, Shape};
use crate::workloads::Layers;
use metascale_qmd::dft::scf::initial_density;
use metascale_qmd::dft::solver::atoms_of;
use metascale_qmd::multigrid::{FftPoisson, PoissonMultigrid};
use metascale_qmd::util::workspace::Workspace;
use std::hint::black_box;

/// Both Hartree solvers on the workload's global grid, fed the
/// superposition-of-atoms density every cold solve starts from.
pub fn probe(shape: &Shape, p: &DomainProblem, layers: &mut Layers) {
    let rho = initial_density(
        &p.global_grid,
        &atoms_of(&shape.system),
        shape.system.valence_electrons() as f64,
    );
    let mut v = vec![0.0; rho.len()];

    let mg = PoissonMultigrid::with_defaults(p.global_grid.clone());
    let mut hier = mg.plan();
    let mut cycles = 0;
    layers.set(
        "multigrid.hartree_mg_us_p50",
        time_us(|| {
            if let Ok(report) = mg.hartree_with(black_box(&rho), &mut v, &mut hier) {
                cycles = report.cycles;
            }
        }),
    );
    layers.set("multigrid.vcycles_per_solve", cycles as f64);

    let fft = FftPoisson::new(p.global_grid.clone());
    let ws = Workspace::new();
    layers.set(
        "multigrid.hartree_fft_us_p50",
        time_us(|| fft.hartree_into(black_box(&rho), &mut v, &ws)),
    );
}
