//! The forces the dynamics uses, against the numerical gradient of the
//! self-consistent free energy — on the production SCF loop: `LdcSolver` at
//! one domain, no buffer and the spectral Hartree solver (the conventional
//! plane-wave solve), converged tightly so that only the force formula is on
//! trial.
//!
//! * H₂ (local pseudopotential only) and Li₂ (with the non-local channel):
//!   the central difference of the energy against the analytic force on the
//!   displaced atom, and ΣF = 0 on both dimers;
//! * a symmetric H₂ dimer: equal and opposite forces, no transverse part;
//! * Al on a simple-cubic lattice: every atom is an inversion centre, so it
//!   feels no force.

use mqmd_core::global::{BoundaryMode, HartreeSolver, LdcConfig, LdcSolver, LdcState};
use mqmd_md::AtomicSystem;
use mqmd_util::constants::Element;
use mqmd_util::Vec3;

/// One domain at `spacing`/`ecut`, converged to `tol_density` 1e-9 with a
/// Davidson of 40 iterations to 1e-10 per SCF iteration.
fn tight(spacing: f64, ecut: f64) -> LdcConfig {
    LdcConfig {
        nd: (1, 1, 1),
        buffer: 0.0,
        mode: BoundaryMode::Periodic,
        hartree: HartreeSolver::Fft,
        global_spacing: spacing,
        domain_spacing: spacing,
        ecut,
        tol_density: 1e-9,
        davidson_iters: 40,
        davidson_tol: 1e-10,
        max_scf: 200,
        ..Default::default()
    }
}

fn solve(cfg: LdcConfig, system: &AtomicSystem) -> LdcState {
    LdcSolver::new(cfg)
        .solve(system)
        .expect("tight one-domain SCF converges")
}

/// A dimer along x at height `y` in a cubic cell of edge `cell`.
fn dimer(element: Element, cell: f64, y: f64, x0: f64, x1: f64) -> AtomicSystem {
    AtomicSystem::new(
        Vec3::splat(cell),
        vec![element, element],
        vec![Vec3::new(x0, y, y), Vec3::new(x1, y, y)],
    )
}

/// Moves the second atom of the dimer by ±0.02 Bohr along the bond and
/// compares `−ΔE/Δx` with the analytic force at the centre, within
/// `rel_tol` of the larger of `|F|` and 0.05 Ha/Bohr.
fn check_gradient(element: Element, cell: f64, y: f64, x0: f64, x1: f64, rel_tol: f64) {
    let cfg = tight(0.9, 3.0);
    let forces = solve(cfg, &dimer(element, cell, y, x0, x1)).forces;
    let h = 0.02;
    let ep = solve(cfg, &dimer(element, cell, y, x0, x1 + h)).energy;
    let em = solve(cfg, &dimer(element, cell, y, x0, x1 - h)).energy;
    let f_num = -(ep - em) / (2.0 * h);
    let f_ana = forces[1].x;
    assert!(
        (f_num - f_ana).abs() < rel_tol * f_num.abs().max(0.05),
        "{element:?}: numerical {f_num} vs analytic {f_ana}"
    );
    let sum = forces[0] + forces[1];
    assert!(sum.norm() < 1e-8, "{element:?}: ΣF = {sum:?}");
}

#[test]
fn hf_force_matches_numerical_gradient_h2() {
    check_gradient(Element::H, 8.0, 4.0, 3.3, 4.9, 0.02);
}

#[test]
fn hf_force_matches_numerical_gradient_with_nonlocal() {
    // Li has an active non-local channel: exercises the projector force.
    check_gradient(Element::Li, 9.0, 4.5, 3.5, 6.0, 0.03);
}

#[test]
fn symmetric_dimer_forces_opposite() {
    let forces = solve(tight(0.9, 3.0), &dimer(Element::H, 8.0, 4.0, 3.0, 5.0)).forces;
    let sum = forces[0] + forces[1];
    assert!(sum.norm() < 1e-3, "sum {sum:?}");
    // Transverse components vanish by symmetry.
    assert!(forces[0].y.abs() < 1e-3 && forces[0].z.abs() < 1e-3);
}

#[test]
fn crystal_equilibrium_forces_vanish() {
    // Simple cubic, one atom per cell: every atom is an inversion centre.
    let al = AtomicSystem::new(Vec3::splat(8.0), vec![Element::Al], vec![Vec3::splat(4.0)]);
    let f = solve(tight(1.0, 2.5), &al).forces;
    assert!(f[0].norm() < 1e-4, "symmetric site force {:?}", f[0]);
}
