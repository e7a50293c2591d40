//! Quickstart: solve a small system with LDC-DFT, inspect the result, and
//! take a few steps of quantum molecular dynamics.
//!
//! Run with: `cargo run --release --example quickstart`

use metascale_qmd::core::global::{BoundaryMode, HartreeSolver, LdcConfig, LdcSolver};
use metascale_qmd::core::qmd::QmdDriver;
use metascale_qmd::md::thermostat::Berendsen;
use metascale_qmd::md::AtomicSystem;
use metascale_qmd::util::constants::Element;
use metascale_qmd::util::{Vec3, Xoshiro256pp};

fn main() {
    // 1. Build a system: an H2 molecule in a periodic box (Bohr units).
    let mut system = AtomicSystem::new(
        Vec3::splat(8.0),
        vec![Element::H, Element::H],
        vec![Vec3::new(3.3, 4.0, 4.0), Vec3::new(4.7, 4.0, 4.0)],
    );
    println!(
        "system: H2, {} valence electrons, cell {:?} Bohr",
        system.valence_electrons(),
        system.cell
    );

    // 2. Configure the lean divide-and-conquer DFT solver. With one domain
    //    and no buffer this is equivalent to conventional DFT; real runs
    //    split the cell into domains with a buffer (Fig 7's rows of
    //    `repro_paper`).
    let mut solver = LdcSolver::new(LdcConfig {
        nd: (1, 1, 1),
        buffer: 0.0,
        mode: BoundaryMode::Periodic,
        hartree: HartreeSolver::Fft,
        ..Default::default()
    });

    // 3. Solve the electronic structure.
    let state = solver.solve(&system).expect("SCF converges");
    println!("\ntotal energy:        {:.6} Ha", state.energy);
    println!("chemical potential:  {:.6} Ha", state.mu);
    println!("SCF iterations:      {}", state.scf_iterations);
    for (i, f) in state.forces.iter().enumerate() {
        println!(
            "force on atom {i}:   ({:+.4}, {:+.4}, {:+.4}) Ha/Bohr",
            f.x, f.y, f.z
        );
    }

    // 4. Run three QMD steps at 300 K with the paper's 0.242 fs time step.
    let mut rng = Xoshiro256pp::seed_from_u64(42);
    system.thermalize(300.0, &mut rng);
    let thermostat = Berendsen {
        t_target: 300.0,
        tau: 20.0,
    };
    let mut driver = QmdDriver::new(10.0, Some(thermostat));
    let report = driver.run(&mut system, &mut solver, 3);
    println!(
        "\nQMD: {} steps, {} SCF iterations ({:.1} per step)",
        report.steps,
        report.scf_iterations,
        report.scf_per_step()
    );
    println!(
        "time-to-solution metric: {:.1} atom·iteration/s",
        report.atom_iterations_per_sec
    );
    for (i, (e, t)) in report.energies.iter().zip(&report.temperatures).enumerate() {
        println!("  step {}: E = {:.6} Ha, T = {:.0} K", i + 1, e, t);
    }
}
