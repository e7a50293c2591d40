//! A solve that fails must not cost the solver its plan scratch: the
//! per-domain eigensolver workspaces, the multigrid hierarchy and the
//! Hartree arena stay in the solver on every exit path, so the solve after
//! a failure is as allocation-free as the one after a success. `mqmd-serve`
//! depends on this — it returns a solver to its pool after every attempt,
//! cancelled ones included, and the pool exists to share those plans.
//!
//! One test in a binary of its own, on a one-thread pool: it reads the
//! process-wide allocation ledger, which any concurrent test would move.

use metascale_qmd::core::global::{HartreeSolver, LdcConfig, LdcSolver};
use metascale_qmd::md::AtomicSystem;
use metascale_qmd::util::cancel::{CancelReason, CancelScope, CancelToken};
use metascale_qmd::util::constants::Element;
use metascale_qmd::util::{workspace, MqmdError, Vec3};

#[test]
fn solve_after_a_cancelled_solve_misses_no_workspace() {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the shim's pool construction cannot fail");
    let sys = AtomicSystem::new(
        Vec3::splat(8.0),
        vec![Element::H, Element::H],
        vec![Vec3::new(3.3, 4.0, 4.0), Vec3::new(4.7, 4.0, 4.0)],
    );
    for hartree in [HartreeSolver::Multigrid, HartreeSolver::Fft] {
        let mut ldc = LdcSolver::new(LdcConfig {
            nd: (2, 1, 1),
            buffer: 2.0,
            hartree,
            tol_density: 1e-4,
            ..Default::default()
        });
        pool.install(|| {
            let misses_of = |ldc: &mut LdcSolver| {
                let before = workspace::global_stats().snapshot();
                let state = ldc.solve(&sys).expect("the solve converges");
                let delta = workspace::global_stats().snapshot().since(&before);
                (state, delta)
            };
            let (warm, cold) = misses_of(&mut ldc);
            assert!(cold.misses > 0, "the first solve plans its scratch");

            // What losing the bands alone costs: random start vectors are
            // orthonormalised on a throw-away arena, nothing is re-planned.
            ldc.reset_job_state();
            let (_, bands_only) = misses_of(&mut ldc);
            assert!(bands_only.misses < cold.misses);

            let token = CancelToken::new();
            token.cancel(CancelReason::Shutdown);
            let scope = CancelScope::install(token);
            assert!(matches!(ldc.solve(&sys), Err(MqmdError::Cancelled { .. })));
            drop(scope);

            // The failed solve dropped the warm bands and nothing else: the
            // next one starts as cold as the first, walks the same
            // trajectory, and allocates exactly what a band reset costs.
            let (again, after_failure) = misses_of(&mut ldc);
            assert_eq!(
                (after_failure.misses, after_failure.miss_bytes),
                (bands_only.misses, bands_only.miss_bytes),
                "{hartree:?}: the solve after a cancelled one re-planned scratch"
            );
            assert_eq!(again.energy.to_bits(), warm.energy.to_bits());
            assert_eq!(again.scf_iterations, warm.scf_iterations);

            let (_, steady) = misses_of(&mut ldc);
            assert_eq!(
                steady.misses, 0,
                "{hartree:?}: steady state hit the allocator: {} misses ({} bytes)",
                steady.misses, steady.miss_bytes
            );
            assert!(steady.hits > 0, "it must borrow from the warm arenas");
        });
    }
}
