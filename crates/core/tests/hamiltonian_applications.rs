//! `H` is applied once per vector: counts the `hamiltonian` spans (one per
//! `apply_into` / `apply_band_into` call) of eigensolves and domain solves.
//!
//! Block Davidson applies `H` to the incoming block on entry and to each
//! augmented block; everything else is a rotation of a block it already
//! holds. So a solve that converges in iteration `k` opens exactly `k`
//! spans, one that exhausts `max_iter` opens `max_iter + 1`, and neither the
//! shared Ritz recovery nor `solve_domain_with`'s band weights add any — at
//! 1, 2 and 4 threads alike.
//!
//! One test, its own binary: the span registry is process-global.

use mqmd_core::domain_solver::{solve_domain_with, DomainSetup};
use mqmd_dft::eigensolver::{block_davidson_with, ritz_recovery, EigWorkspace};
use mqmd_dft::hamiltonian::{ionic_local_potential, KsHamiltonian};
use mqmd_dft::solver::{atoms_of, grid_for_cell};
use mqmd_grid::DomainDecomposition;
use mqmd_md::builders::sic_supercell;
use mqmd_util::{trace, MqmdError};

/// `hamiltonian` spans opened while `f` runs.
fn applications<R>(f: impl FnOnce() -> R) -> (R, u64) {
    trace::take();
    let out = f();
    let calls = trace::take()
        .aggregate("hamiltonian")
        .map_or(0, |n| n.calls);
    (out, calls)
}

#[test]
fn davidson_applies_h_once_per_vector_at_any_thread_count() {
    // The benchmark's divided SiC-8: 18 bands on an 8³ domain grid, three
    // band panels an application, so two and four threads do share them.
    let system = sic_supercell((1, 1, 1));
    let dd = DomainDecomposition::new(system.cell, (2, 1, 1), 1.0);
    let global_grid = grid_for_cell(system.cell, 1.2);
    let v_ion = ionic_local_potential(&global_grid, &atoms_of(&system));
    let setup = DomainSetup::build(
        &dd.domains()[0],
        &dd,
        &system,
        1.2,
        2.0,
        2,
        &global_grid,
        &v_ion,
    )
    .expect("domain 0 of SiC-8 holds atoms");
    let zeros = vec![0.0; setup.grid.len()];
    let h = KsHamiltonian::new(&setup.basis, setup.v_ion.clone(), setup.nonlocal.as_ref());
    let psi0 = setup.basis.random_bands(setup.n_bands, 7);

    trace::set_enabled(true);
    for threads in [1, 2, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("the shim's pool construction cannot fail");
        pool.install(|| {
            let mut ew = EigWorkspace::new();

            // Converging eigensolve: one application per iteration.
            let mut psi = psi0.clone();
            let (report, calls) =
                applications(|| block_davidson_with(&h, &mut psi, 80, 1e-2, &mut ew));
            let report = report.expect("80 iterations reach 1e-2 on the bare-ion domain");
            assert!(report.iterations > 1, "converged on entry: nothing counted");
            assert_eq!(
                calls, report.iterations as u64,
                "{threads} threads: converged in iteration {}",
                report.iterations
            );

            // Exhausted budget: entry plus one per augmented block, and the
            // recovery rotates what is there.
            let mut psi = psi0.clone();
            let (out, calls) = applications(|| block_davidson_with(&h, &mut psi, 3, 0.0, &mut ew));
            assert!(matches!(out, Err(MqmdError::Convergence { .. })));
            assert_eq!(calls, 4, "{threads} threads: max_iter = 3");
            let (recovered, calls) = applications(|| ritz_recovery(&mut psi, 3, &mut ew));
            recovered.expect("18 × 18 Ritz problem");
            assert_eq!(calls, 0, "{threads} threads: recovery applied H");

            // The domain solve adds none for its band weights, converged …
            let (bands, calls) = applications(|| {
                solve_domain_with(
                    &setup,
                    &zeros,
                    &zeros,
                    Some(psi0.clone()),
                    80,
                    1e-2,
                    &mut ew,
                )
            });
            let bands = bands.expect("domain solve");
            assert_eq!(bands.iterations, report.iterations);
            assert_eq!(calls, bands.iterations as u64, "{threads} threads: domain");

            // … or recovered.
            let (bands, calls) = applications(|| {
                solve_domain_with(&setup, &zeros, &zeros, Some(psi0.clone()), 3, 0.0, &mut ew)
            });
            assert_eq!(bands.expect("recovered domain solve").iterations, 3);
            assert_eq!(calls, 4, "{threads} threads: recovered domain");
        });
    }
    trace::set_enabled(false);
}
