//! The per-domain Kohn–Sham solve (the "conquer" step).
//!
//! Each DC domain is treated as its own periodic box (the artificial
//! boundary condition whose error the buffer and the LDC boundary potential
//! control): atoms inside the box are mapped to domain-local coordinates,
//! the ionic potential and Kleinman–Bylander projectors are rebuilt on the
//! domain grid, the *globally informed* parts of the potential (Hartree +
//! XC of the global density, plus the LDC `v^bc`) are sampled from the
//! global grid, and the lowest bands are found with the preconditioned
//! block-Davidson solver of `mqmd-dft`.

use crate::transfer::DomainGeometry;
use mqmd_dft::eigensolver::{block_davidson_with, ritz_recovery, EigWorkspace};
use mqmd_dft::hamiltonian::{build_projectors, KsHamiltonian, Nonlocal};
use mqmd_dft::pw::band_panel;
use mqmd_dft::species::Pseudopotential;
use mqmd_grid::{Domain, DomainDecomposition, UniformGrid3};
use mqmd_linalg::CMatrix;
use mqmd_md::AtomicSystem;
use mqmd_util::{events, faults, MqmdError, Result, Vec3};
use std::ops::Deref;
use std::sync::Arc;

/// Geometry-dependent, SCF-independent data of one domain: the shared
/// position-independent [`DomainGeometry`] (box, local grid, basis, pα,
/// transfer tables — read through `Deref`, so `setup.grid`, `setup.basis`)
/// plus what the atoms of one configuration add to it.
pub struct DomainSetup {
    /// The position-independent half, shared with the solver's
    /// [`TransferPlan`](crate::transfer::TransferPlan) when there is one.
    pub geometry: Arc<DomainGeometry>,
    /// Atoms inside the domain box: pseudopotential, local position, global
    /// atom index.
    pub atoms: Vec<(Pseudopotential, Vec3, usize)>,
    /// Which of those atoms lie in the core Ω₀α (owned by this domain).
    pub core_atoms: Vec<bool>,
    /// Global ionic local potential sampled onto the local grid (Eq. 3's
    /// V_ion is a global quantity; only the basis is domain-periodic).
    pub v_ion: Vec<f64>,
    /// Kleinman–Bylander projectors on the domain basis, built once per
    /// geometry and reused across every SCF iteration's Hamiltonian.
    pub nonlocal: Option<Nonlocal>,
    /// Number of bands to solve for.
    pub n_bands: usize,
    /// Valence electrons contributed by core atoms (bookkeeping).
    pub core_electrons: f64,
}

impl Deref for DomainSetup {
    type Target = DomainGeometry;

    fn deref(&self) -> &DomainGeometry {
        &self.geometry
    }
}

impl DomainSetup {
    /// Builds the setup for one domain from nothing, or `None` if the
    /// domain box holds no atoms.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        domain: &Domain,
        dd: &DomainDecomposition,
        system: &AtomicSystem,
        spacing: f64,
        ecut: f64,
        extra_bands: usize,
        global_grid: &UniformGrid3,
        v_ion_global: &[f64],
    ) -> Option<Self> {
        Self::place_atoms(domain, system, extra_bands, v_ion_global, || {
            Arc::new(DomainGeometry::new(domain, dd, spacing, ecut, global_grid))
        })
    }

    /// Builds the setup for one domain on a geometry planned earlier, or
    /// `None` if the domain box holds no atoms.
    pub fn on(
        geometry: &Arc<DomainGeometry>,
        system: &AtomicSystem,
        extra_bands: usize,
        v_ion_global: &[f64],
    ) -> Option<Self> {
        Self::place_atoms(&geometry.domain, system, extra_bands, v_ion_global, || {
            Arc::clone(geometry)
        })
    }

    /// The position-dependent half; `geometry` is asked for only once the
    /// box is known to hold an atom.
    fn place_atoms(
        domain: &Domain,
        system: &AtomicSystem,
        extra_bands: usize,
        v_ion_global: &[f64],
        geometry: impl FnOnce() -> Arc<DomainGeometry>,
    ) -> Option<Self> {
        let mut atoms = Vec::new();
        let mut core_atoms = Vec::new();
        let mut electrons_in_box = 0.0;
        let mut core_electrons = 0.0;
        for (i, (&e, &r)) in system.species.iter().zip(&system.positions).enumerate() {
            if let Some(local) = domain.to_local(r) {
                let psp = Pseudopotential::for_element(e);
                let in_core = domain.core_contains(r);
                electrons_in_box += psp.z_val;
                if in_core {
                    core_electrons += psp.z_val;
                }
                atoms.push((psp, local, i));
                core_atoms.push(in_core);
            }
        }
        if atoms.is_empty() {
            return None;
        }
        let geometry = geometry();
        let mut v_ion = vec![0.0; geometry.grid.len()];
        geometry.sample_global_field(v_ion_global, &mut v_ion);
        // 30% headroom on top of the box electron count: the global μ solve
        // needs the core-weighted capacity Σ 2·w_n to exceed the electron
        // count even though the mean core weight is only
        // core-volume/box-volume.
        let n_bands = ((electrons_in_box / 2.0 * 1.3).ceil() as usize + extra_bands).max(1);
        let dft_atoms: Vec<(Pseudopotential, Vec3)> =
            atoms.iter().map(|(p, r, _)| (*p, *r)).collect();
        let nonlocal = build_projectors(&geometry.basis, &dft_atoms);
        Some(Self {
            geometry,
            atoms,
            core_atoms,
            v_ion,
            nonlocal,
            n_bands,
            core_electrons,
        })
    }

    /// The `(pseudopotential, local position)` pairs for the dft-layer APIs.
    pub fn dft_atoms(&self) -> Vec<(Pseudopotential, Vec3)> {
        self.atoms.iter().map(|(p, r, _)| (*p, *r)).collect()
    }
}

/// Result of one domain's eigenproblem.
pub struct DomainBands {
    /// Domain Kohn–Sham eigenvalues ε^α_n (ascending).
    pub eigenvalues: Vec<f64>,
    /// Per-band densities |ψ^α_n(r)|² on the local grid (each integrates to
    /// 1 over the domain box).
    pub band_densities: Vec<Vec<f64>>,
    /// Core weights w^α_n = ∫ pα·|ψ^α_n|² — the fraction of each band that
    /// counts toward the global electron number.
    pub weights: Vec<f64>,
    /// Partition-weighted Hamiltonian expectations
    /// `h^α_n = ∫ pα·Re[ψ*_n·(H·ψ_n)]` — the per-band energy contribution in
    /// Yang's divide-and-conquer energy functional. (Using `w_n·ε_n` instead
    /// would double-count buffer-region potential energy, since pα and H do
    /// not commute.)
    pub h_weights: Vec<f64>,
    /// Converged plane-wave coefficients (cached for the next SCF step).
    pub psi: CMatrix,
    /// Davidson iterations used.
    pub iterations: usize,
}

/// Solves the domain Kohn–Sham problem given the globally informed local
/// potential pieces: `v_hxc` (Hartree+XC of the *global* density, sampled on
/// the local grid) and `v_bc` (the LDC boundary potential; zeros for plain
/// DC).
///
/// Every scratch buffer (the effective potential, Davidson block matrices,
/// FFT fields, per-band analysis buffers) comes from `ew`, so a warm
/// per-domain workspace makes steady-state SCF iterations allocation-free
/// on the hot path.
#[allow(clippy::too_many_arguments)]
pub fn solve_domain_with(
    setup: &DomainSetup,
    v_hxc: &[f64],
    v_bc: &[f64],
    psi0: Option<CMatrix>,
    max_iter: usize,
    tol: f64,
    ew: &mut EigWorkspace,
) -> Result<DomainBands> {
    let _span = mqmd_util::trace::span("domain_solve");
    let sw = mqmd_util::timer::Stopwatch::start();
    assert_eq!(v_hxc.len(), setup.grid.len());
    assert_eq!(v_bc.len(), setup.grid.len());
    // Fault plane: one relaxed load when idle. An injected eigensolver
    // breakdown surfaces as a typed error *before* any workspace buffers
    // are taken; a NaN injection poisons the warm-start bands below so the
    // corruption flows through the numerics and must be caught by the
    // output validation at the end of this function.
    let mut poison_psi = false;
    match faults::poll(faults::Site::Domain(setup.domain.id as u64)) {
        Some(faults::FaultKind::DavidsonDiverge) => {
            return Err(MqmdError::Convergence {
                what: format!("domain {} Davidson (injected fault)", setup.domain.id),
                iterations: 0,
                residual: f64::INFINITY,
            });
        }
        Some(faults::FaultKind::DensityNan) => poison_psi = true,
        _ => {}
    }
    // Build the starting bands before borrowing workspace buffers so the
    // fallible draw cannot strand a taken buffer outside the arena.
    let mut psi = match psi0 {
        Some(p) if p.rows() == setup.basis.len() && p.cols() == setup.n_bands => p,
        _ => setup
            .basis
            .try_random_bands(setup.n_bands, 0xC0DE ^ setup.domain.id as u64)?,
    };
    if poison_psi {
        psi.data_mut()[0] = mqmd_util::Complex64::new(f64::NAN, 0.0);
    }
    let mut v_eff = ew.ws.take_f64(setup.grid.len());
    for (o, ((a, b), c)) in v_eff
        .iter_mut()
        .zip(setup.v_ion.iter().zip(v_hxc).zip(v_bc))
    {
        *o = a + b + c;
    }
    let h = KsHamiltonian::new(&setup.basis, v_eff, setup.nonlocal.as_ref());
    let nb = setup.n_bands;
    let solved = match block_davidson_with(&h, &mut psi, max_iter, tol, ew) {
        Err(MqmdError::Convergence {
            iterations,
            residual,
            ..
        }) => {
            // Partially converged bands still advance the SCF; extract the
            // current Ritz values — but tell the telemetry stream, since
            // the recovered report's `residual: NaN` marker is otherwise
            // invisible.
            events::emit(events::Event::WatchdogTrip {
                watchdog: "davidson_failure",
                message: format!(
                    "domain {} Davidson failed to converge; recovering Ritz values",
                    setup.domain.id
                ),
                value: residual,
                bound: tol,
            });
            ritz_recovery(&mut psi, iterations, ew)
        }
        other => other,
    };
    let report = match solved {
        Ok(r) => r,
        Err(e) => {
            ew.ws.give_f64(h.v_local);
            return Err(e);
        }
    };

    let dv = setup.grid.dv();
    let grid_len = setup.grid.len();
    let mut band_densities = Vec::with_capacity(setup.n_bands);
    let mut weights = Vec::with_capacity(setup.n_bands);
    let mut h_weights = Vec::with_capacity(setup.n_bands);
    // ψ and the H·ψ Davidson carried for it, to real space a panel of bands
    // at a time.
    let h_psi = ew.h_psi();
    let width = band_panel(nb);
    for first in (0..nb).step_by(width) {
        let bands = first..(first + width).min(nb);
        let lanes = bands.len();
        let mut real = ew.ws.borrow_c64(grid_len * lanes);
        let mut h_real = ew.ws.borrow_c64(grid_len * lanes);
        let basis = &setup.basis;
        basis.to_real_panel(&psi, bands.clone(), &mut real, None, &ew.ws);
        basis.to_real_panel(h_psi, bands, &mut h_real, None, &ew.ws);
        for l in 0..lanes {
            let band = || real.iter().skip(l).step_by(lanes);
            let dens: Vec<f64> = band().map(|z| z.norm_sqr()).collect();
            let w: f64 = dens
                .iter()
                .zip(&setup.p_alpha)
                .map(|(d, p)| d * p)
                .sum::<f64>()
                * dv;
            let hw: f64 = band()
                .zip(h_real.iter().skip(l).step_by(lanes))
                .zip(&setup.p_alpha)
                .map(|((psi_r, h_r), p)| p * (psi_r.conj() * *h_r).re)
                .sum::<f64>()
                * dv;
            band_densities.push(dens);
            weights.push(w);
            h_weights.push(hw);
        }
    }
    ew.ws.give_f64(h.v_local);
    // Output validation: NaN anywhere in the bands poisons the weights
    // (w = Σ |ψ|²·pα), so the O(n_bands) scan below catches corrupted
    // densities too. A non-finite result must surface as a typed error the
    // per-domain retry ladder in `global.rs` can handle — never flow into
    // the global density assembly.
    let finite = report.eigenvalues.iter().all(|e| e.is_finite())
        && weights.iter().all(|w| w.is_finite())
        && h_weights.iter().all(|h| h.is_finite());
    if !finite {
        return Err(MqmdError::Convergence {
            what: format!("domain {} produced non-finite bands", setup.domain.id),
            iterations: report.iterations,
            residual: f64::NAN,
        });
    }
    events::emit(events::Event::DomainSolve {
        domain: setup.domain.id as u32,
        bands: setup.n_bands as u32,
        iterations: report.iterations as u32,
        seconds: sw.seconds(),
    });
    Ok(DomainBands {
        eigenvalues: report.eigenvalues,
        band_densities,
        weights,
        h_weights,
        psi,
        iterations: report.iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqmd_dft::pw::PlaneWaveBasis;
    use mqmd_util::constants::Element;
    use mqmd_util::workspace::Workspace;
    use mqmd_util::Complex64;

    /// A cold solve on the bare ions: zero Hxc and boundary potentials.
    fn solve_bare(setup: &DomainSetup, max_iter: usize, tol: f64) -> Result<DomainBands> {
        let zeros = vec![0.0; setup.grid.len()];
        solve_domain_with(
            setup,
            &zeros,
            &zeros,
            None,
            max_iter,
            tol,
            &mut EigWorkspace::new(),
        )
    }

    /// Builds the global grid + V_ion pair the production path supplies.
    fn global_ionic(sys: &AtomicSystem, spacing: f64) -> (UniformGrid3, Vec<f64>) {
        let grid = mqmd_dft::solver::grid_for_cell(sys.cell, spacing);
        let v =
            mqmd_dft::hamiltonian::ionic_local_potential(&grid, &mqmd_dft::solver::atoms_of(sys));
        (grid, v)
    }

    fn h2_system(cell: f64) -> AtomicSystem {
        AtomicSystem::new(
            Vec3::splat(cell),
            vec![Element::H, Element::H],
            vec![Vec3::new(3.3, 4.0, 4.0), Vec3::new(4.7, 4.0, 4.0)],
        )
    }

    #[test]
    fn single_domain_reduces_to_conventional() {
        // One domain, zero buffer: the domain problem IS the global problem.
        let sys = h2_system(8.0);
        let dd = DomainDecomposition::new(sys.cell, (1, 1, 1), 0.0);
        let (gg, vion) = global_ionic(&sys, 0.9);
        let setup =
            DomainSetup::build(&dd.domains()[0], &dd, &sys, 0.9, 3.0, 3, &gg, &vion).unwrap();
        assert_eq!(setup.atoms.len(), 2);
        assert!((setup.core_electrons - 2.0).abs() < 1e-12);
        // pα ≡ 1 for a single domain.
        for &p in &setup.p_alpha {
            assert!((p - 1.0).abs() < 1e-12);
        }
        let bands = solve_bare(&setup, 80, 1e-6).unwrap();
        // Weights = 1 (whole band is core).
        for &w in &bands.weights {
            assert!((w - 1.0).abs() < 1e-8, "weight {w}");
        }
        // With pα ≡ 1 the weighted Hamiltonian expectation IS the eigenvalue.
        for (hw, e) in bands.h_weights.iter().zip(&bands.eigenvalues) {
            assert!((hw - e).abs() < 1e-6, "h_weight {hw} vs ε {e}");
        }
        // Cross-check the lowest eigenvalue against the conventional path on
        // the same potential (bare ions, no Hxc). In the single-domain case
        // the sampled global V_ion equals the potential built directly on
        // the (identical) domain grid.
        let basis = PlaneWaveBasis::new(setup.grid.clone(), 3.0);
        let atoms = setup.dft_atoms();
        let v = mqmd_dft::hamiltonian::ionic_local_potential(&setup.grid, &atoms);
        let nl = build_projectors(&basis, &atoms);
        let h = KsHamiltonian::new(&basis, v, nl.as_ref());
        let mut psi = basis.random_bands(setup.n_bands, 1);
        let rep = block_davidson_with(&h, &mut psi, 80, 1e-6, &mut EigWorkspace::new()).unwrap();
        assert!(
            (bands.eigenvalues[0] - rep.eigenvalues[0]).abs() < 1e-6,
            "{} vs {}",
            bands.eigenvalues[0],
            rep.eigenvalues[0]
        );
    }

    #[test]
    fn band_densities_normalised_over_domain() {
        let sys = h2_system(8.0);
        let dd = DomainDecomposition::new(sys.cell, (1, 1, 1), 0.0);
        let (gg, vion) = global_ionic(&sys, 0.9);
        let setup =
            DomainSetup::build(&dd.domains()[0], &dd, &sys, 0.9, 3.0, 2, &gg, &vion).unwrap();
        let bands = solve_bare(&setup, 60, 1e-6).unwrap();
        for dens in &bands.band_densities {
            let total: f64 = dens.iter().sum::<f64>() * setup.grid.dv();
            assert!((total - 1.0).abs() < 1e-8, "band norm {total}");
        }
    }

    #[test]
    fn two_domains_split_atoms_and_weights() {
        // Two domains along x with buffer: both see both H atoms (they sit
        // near the x-centre), but each owns one side of the cell.
        let sys = h2_system(8.0);
        let dd = DomainDecomposition::new(sys.cell, (2, 1, 1), 1.5);
        let (gg, vion) = global_ionic(&sys, 0.9);
        let setups: Vec<DomainSetup> = dd
            .domains()
            .iter()
            .filter_map(|d| DomainSetup::build(d, &dd, &sys, 0.9, 2.5, 2, &gg, &vion))
            .collect();
        assert_eq!(setups.len(), 2);
        // Atom at x=3.3 is in core of domain 0 (core x ∈ [0,4)); atom at
        // x=4.7 in core of domain 1. Both are within 1.5 of the boundary, so
        // both appear in both domain boxes.
        assert_eq!(setups[0].atoms.len(), 2);
        assert_eq!(setups[1].atoms.len(), 2);
        assert!((setups[0].core_electrons - 1.0).abs() < 1e-12);
        assert!((setups[1].core_electrons - 1.0).abs() < 1e-12);
        // pα ≤ 1 everywhere, with a nontrivial ramp.
        for s in &setups {
            let max = s.p_alpha.iter().cloned().fold(0.0, f64::max);
            let min = s.p_alpha.iter().cloned().fold(1.0, f64::min);
            assert!((max - 1.0).abs() < 1e-12);
            assert!(min < 0.6, "buffer region should have reduced support");
        }
    }

    #[test]
    fn sample_global_field_matches_interpolation() {
        let sys = h2_system(8.0);
        let dd = DomainDecomposition::new(sys.cell, (2, 1, 1), 1.0);
        let (gg, vion) = global_ionic(&sys, 0.9);
        let setup =
            DomainSetup::build(&dd.domains()[0], &dd, &sys, 0.9, 2.5, 1, &gg, &vion).unwrap();
        let field = gg.sample(|r| (0.3 * r.x).sin() + 0.1 * r.y);
        let mut sampled = vec![0.0; setup.grid.len()];
        setup.sample_global_field(&field, &mut sampled);
        // The table walk is the pointwise interpolation, bit for bit.
        let pointwise = setup
            .grid
            .sample(|local| gg.interpolate(&field, setup.domain.to_global(local)));
        assert_eq!(sampled, pointwise);
        assert_eq!(
            setup.v_ion,
            setup
                .grid
                .sample(|local| gg.interpolate(&vion, setup.domain.to_global(local)))
        );
    }

    /// The two overlapping domains of the benchmark's divided SiC-8 cell.
    fn sic8_setups() -> Vec<DomainSetup> {
        let sys = mqmd_md::builders::sic_supercell((1, 1, 1));
        let dd = DomainDecomposition::new(sys.cell, (2, 1, 1), 1.0);
        let (gg, vion) = global_ionic(&sys, 1.2);
        dd.domains()
            .iter()
            .filter_map(|d| DomainSetup::build(d, &dd, &sys, 1.2, 2.0, 2, &gg, &vion))
            .collect()
    }

    /// `h_weights` come from the `H·ψ` Davidson carried through its
    /// rotations; an explicit application to the returned bands must give
    /// the same `∫pα·Re[ψ*·Hψ]`, whether the solve converged or went
    /// through the Ritz recovery.
    #[test]
    fn h_weights_match_explicit_application_on_divided_sic8() {
        let setups = sic8_setups();
        assert_eq!(setups.len(), 2);
        for setup in &setups {
            let h = KsHamiltonian::new(&setup.basis, setup.v_ion.clone(), setup.nonlocal.as_ref());
            for (max_iter, tol) in [(80, 1e-2), (4, 0.0)] {
                let bands = solve_bare(setup, max_iter, tol).unwrap();
                let ws = Workspace::new();
                let mut h_psi = CMatrix::zeros(bands.psi.rows(), bands.psi.cols());
                h.apply_into(&bands.psi, &mut h_psi, &ws);
                let mut psi_r = vec![Complex64::ZERO; setup.grid.len()];
                let mut h_r = vec![Complex64::ZERO; setup.grid.len()];
                for (n, &hw) in bands.h_weights.iter().enumerate() {
                    setup.basis.to_real_into(&bands.psi.col(n), &mut psi_r, &ws);
                    setup.basis.to_real_into(&h_psi.col(n), &mut h_r, &ws);
                    let explicit: f64 = psi_r
                        .iter()
                        .zip(&h_r)
                        .zip(&setup.p_alpha)
                        .map(|((a, b), p)| p * (a.conj() * *b).re)
                        .sum::<f64>()
                        * setup.grid.dv();
                    assert!(
                        (hw - explicit).abs() < 1e-10,
                        "domain {} band {n} (max_iter {max_iter}): {hw} vs {explicit}",
                        setup.domain.id
                    );
                }
            }
        }
    }

    /// A one-iteration budget always ends in the shared Ritz recovery, which
    /// must hand back orthonormal bands and ascending Ritz values.
    #[test]
    fn budget_exhausted_domain_solve_recovers_orthonormal_ascending_bands() {
        let setup = &sic8_setups()[0];
        let bands = solve_bare(setup, 1, 1e-30).unwrap();
        assert_eq!(bands.iterations, 1);
        assert!(mqmd_linalg::orthonorm::orthonormality_defect(&bands.psi) < 1e-10);
        assert!(bands.eigenvalues.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn empty_domain_returns_none() {
        // All atoms in one octant; far domain sees nothing with a small
        // buffer.
        let sys = AtomicSystem::new(Vec3::splat(16.0), vec![Element::H], vec![Vec3::splat(1.0)]);
        let dd = DomainDecomposition::new(sys.cell, (4, 4, 4), 0.5);
        // Domain with lattice (2,2,2) is centred at 10,10,10 — far from the
        // atom.
        let far = &dd.domains()[(2 * 4 + 2) * 4 + 2];
        let (gg, vion) = global_ionic(&sys, 1.0);
        assert!(DomainSetup::build(far, &dd, &sys, 1.0, 2.0, 2, &gg, &vion).is_none());
    }
}
