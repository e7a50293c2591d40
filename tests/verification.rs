//! §5.5-style verification across crates: the one-domain LDC-DFT solve
//! (the conventional O(N³) plane-wave solve) pinned to the conventional
//! reference, the divided solve against the undivided one, and the
//! quantity-of-interest (H₂ count) reproducibility check.

use metascale_qmd::chem::kinetics::{HodParams, HodSimulation, HodState};
use metascale_qmd::core::global::{BoundaryMode, HartreeSolver, LdcConfig, LdcSolver};
use metascale_qmd::md::AtomicSystem;
use metascale_qmd::util::constants::Element;
use metascale_qmd::util::Vec3;

fn h2_system() -> AtomicSystem {
    AtomicSystem::new(
        Vec3::splat(8.0),
        vec![Element::H, Element::H],
        vec![Vec3::new(3.3, 4.0, 4.0), Vec3::new(4.7, 4.0, 4.0)],
    )
}

fn ldc_base() -> LdcConfig {
    LdcConfig {
        nd: (1, 1, 1),
        buffer: 0.0,
        mode: BoundaryMode::Periodic,
        hartree: HartreeSolver::Fft,
        tol_density: 1e-5,
        ..Default::default()
    }
}

/// One domain, no buffer and the spectral Hartree solver make the LDC
/// solve the conventional plane-wave solve. The reference values were
/// recorded from the separate conventional SCF loop `mqmd-dft` carried up
/// to commit 15abdfc (grid spacing 0.9, ecut 3.0, `tol_density` 1e-5, the
/// other settings at their defaults), run at that commit; the one-domain
/// LDC solve reproduced them to 8.7e-14 Ha and 2.7e-9 Ha/Bohr in the same
/// 22 SCF iterations.
#[test]
fn ldc_matches_conventional_dft_on_h2() {
    const ENERGY: f64 = -0.586694326455002;
    const MU: f64 = -0.112030589291186;
    const FORCE_X: [f64; 2] = [-0.39927463133107277, 0.39927463133105634];

    let state = LdcSolver::new(ldc_base())
        .solve(&h2_system())
        .expect("LDC SCF");
    assert!(
        (state.energy - ENERGY).abs() < 1e-9,
        "E {} vs conventional {ENERGY}",
        state.energy
    );
    assert!(
        (state.mu - MU).abs() < 1e-7,
        "μ {} vs conventional {MU}",
        state.mu
    );
    for (f, fx) in state.forces.iter().zip(FORCE_X) {
        let df = (*f - Vec3::new(fx, 0.0, 0.0)).norm();
        assert!(
            df <= 1e-7,
            "force {f:?} vs conventional ({fx}, 0, 0): |ΔF| {df:.2e}"
        );
    }
    // At self-consistency the double-counting integral ∫ρ·V_H is 2·E_H.
    let b = state.breakdown;
    assert!(
        (b.hartree_dc - 2.0 * b.e_h).abs() < 1e-6,
        "∫ρV_H {} vs 2·E_H {}",
        b.hartree_dc,
        2.0 * b.e_h
    );
}

#[test]
fn divided_ldc_stays_close_to_undivided() {
    // The actual DC-approximation error with a healthy buffer must be at
    // the 1e-2 Ha/atom level even at this reduced resolution.
    let sys = h2_system();
    let mut whole = LdcSolver::new(ldc_base());
    let e_ref = whole.solve(&sys).unwrap().energy;

    let mut divided = LdcSolver::new(LdcConfig {
        nd: (2, 1, 1),
        buffer: 2.0,
        mode: BoundaryMode::ldc_default(),
        ..ldc_base()
    });
    let state = divided.solve(&sys).unwrap();
    assert_eq!(state.n_domains, 2);
    let per_atom = (state.energy - e_ref).abs() / sys.len() as f64;
    assert!(per_atom < 1.5e-2, "DC error {per_atom} Ha/atom");
}

#[test]
fn ldc_energy_is_translation_invariant() {
    let sys = h2_system();
    let shifted = AtomicSystem::new(
        sys.cell,
        sys.species.clone(),
        sys.positions
            .iter()
            .map(|&r| r + Vec3::new(0.27, -0.31, 0.13))
            .collect(),
    );
    let mut a = LdcSolver::new(ldc_base());
    let mut b = LdcSolver::new(ldc_base());
    let ea = a.solve(&sys).unwrap().energy;
    let eb = b.solve(&shifted).unwrap().energy;
    assert!(
        (ea - eb).abs() < 5e-3,
        "translation changed E: {ea} vs {eb}"
    );
}

#[test]
fn quantity_of_interest_is_identical_across_backends() {
    // §5.5: "the quantity-of-interest (i.e., the number of H2 molecules
    // produced) in these two simulations is identical". The surrogate
    // chemistry is a function of (site counts, T, seed): identical inputs
    // from either electronic-structure backend give identical H2 counts.
    let run = || {
        let mut sim = HodSimulation::new(
            HodParams::default(),
            1500.0,
            HodState::new(30, 0, 30, 182),
            2014,
        );
        sim.run(f64::INFINITY, 100_000);
        sim.state.h2_produced
    };
    assert_eq!(run(), run());
}

#[test]
fn weighted_spectrum_covers_all_electrons() {
    // The Fig 2 global-μ machinery: Σ f(ε;μ)·w = N over the assembled
    // spectrum of a divided system.
    let sys = h2_system();
    let mut divided = LdcSolver::new(LdcConfig {
        nd: (2, 1, 1),
        buffer: 2.0,
        mode: BoundaryMode::ldc_default(),
        ..ldc_base()
    });
    let state = divided.solve(&sys).unwrap();
    let kt = divided.config.kt;
    let total: f64 = state
        .spectrum
        .iter()
        .map(|&(e, w)| w * metascale_qmd::dft::density::fermi(e, state.mu, kt))
        .sum();
    assert!((total - 2.0).abs() < 1e-6, "Σ f·w = {total}, expected 2");
}
