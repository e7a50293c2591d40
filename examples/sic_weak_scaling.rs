//! Weak scaling on the simulated Blue Gene/Q: measure the real per-domain
//! kernel on this host, then predict the paper's Fig 5 sweep with the
//! machine model.
//!
//! Run with: `cargo run --release --example sic_weak_scaling`

use metascale_qmd::core::domain_solver::{solve_domain_with, DomainSetup};
use metascale_qmd::dft::eigensolver::EigWorkspace;
use metascale_qmd::grid::DomainDecomposition;
use metascale_qmd::md::builders::sic_supercell;
use metascale_qmd::parallel::WeakScalingModel;
use metascale_qmd::util::timer::Stopwatch;

fn main() {
    // The paper's weak-scaling unit of work: a 64-atom SiC block per core.
    let system = sic_supercell((2, 2, 2));
    println!(
        "workload: {} SiC atoms per core (Fig 5 granularity)\n",
        system.len()
    );

    // Measure the actual Rust domain Kohn-Sham solve.
    let dd = DomainDecomposition::new(system.cell, (1, 1, 1), 0.0);
    let global_grid = metascale_qmd::dft::solver::grid_for_cell(system.cell, 1.1);
    let v_ion = metascale_qmd::dft::hamiltonian::ionic_local_potential(
        &global_grid,
        &metascale_qmd::dft::solver::atoms_of(&system),
    );
    let setup = DomainSetup::build(
        &dd.domains()[0],
        &dd,
        &system,
        1.1,
        2.2,
        4,
        &global_grid,
        &v_ion,
    )
    .expect("non-empty domain");
    println!(
        "domain solver: {} plane waves, {} bands, {} grid points",
        setup.basis.len(),
        setup.n_bands,
        setup.grid.len()
    );
    let zeros = vec![0.0; setup.grid.len()];
    let sw = Stopwatch::start();
    let mut ew = EigWorkspace::new();
    let bands = solve_domain_with(&setup, &zeros, &zeros, None, 9, 1e-6, &mut ew).expect("solve");
    let t_domain = sw.seconds();
    println!(
        "measured per-domain solve: {:.3} s (lowest eigenvalue {:.4} Ha)\n",
        t_domain, bands.eigenvalues[0]
    );

    // Feed the measurement into the Blue Gene/Q model and sweep Fig 5.
    let model = WeakScalingModel::fig5(t_domain);
    println!(
        "{:<14}{:>16}{:>14}{:>18}",
        "P (cores)", "atoms", "s/QMD step", "efficiency"
    );
    for (p, t) in model.sweep() {
        println!(
            "{:<14}{:>16}{:>14.3}{:>18.4}",
            p,
            64usize * p,
            t,
            model.efficiency(p, 16)
        );
    }
    println!(
        "\nfull-machine efficiency: {:.4} (paper: 0.984 at 786,432 cores, 50.3M atoms)",
        model.efficiency(786_432, 16)
    );
}
