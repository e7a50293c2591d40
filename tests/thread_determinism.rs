//! Solver-level thread-count pin: total energy, forces and density of one
//! LDC-DFT solve are bitwise the same whatever the width of the thread
//! pool. The kernel crates pin FFT, GEMM and smoother one by one; this
//! covers what sits above them — the domain loop, the partition-of-unity
//! density assembly, the index-ordered reductions between them — on the
//! 8-atom SiC cell of the repo benchmark's `qmd_sic8_*` workloads, at a
//! discretisation coarse enough for the unoptimised tier-1 build.

use metascale_qmd::core::global::{LdcConfig, LdcSolver, LdcState};
use metascale_qmd::md::builders::sic_supercell;

fn solve_at(threads: usize) -> (LdcState, u64) {
    let system = sic_supercell((1, 1, 1));
    let mut solver = LdcSolver::new(LdcConfig {
        nd: (2, 1, 1),
        buffer: 1.0,
        global_spacing: 1.2,
        domain_spacing: 1.2,
        ecut: 2.0,
        tol_density: 5e-3,
        davidson_iters: 6,
        davidson_tol: 1e-4,
        extra_bands: 2,
        ..Default::default()
    });
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the shim's pool construction cannot fail")
        .install(|| {
            let dispatched = rayon::pool_dispatches();
            let state = solver.solve(&system).expect("8-atom SiC converges");
            (state, rayon::pool_dispatches() - dispatched)
        })
}

#[test]
fn ldc_solve_is_bitwise_identical_at_one_to_four_threads() {
    let (one, dispatched) = solve_at(1);
    assert_eq!(dispatched, 0, "one thread must never reach the pool");
    assert_eq!(one.n_domains, 2);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for threads in [2, 3, 4] {
        let (many, dispatched) = solve_at(threads);
        assert!(dispatched > 0, "{threads} threads never reached the pool");
        assert_eq!(many.scf_iterations, one.scf_iterations, "{threads} threads");
        assert_eq!(
            many.energy.to_bits(),
            one.energy.to_bits(),
            "energy at {threads} threads: {} vs {}",
            many.energy,
            one.energy
        );
        for (a, (f, g)) in many.forces.iter().zip(&one.forces).enumerate() {
            assert_eq!(
                bits(&[f.x, f.y, f.z]),
                bits(&[g.x, g.y, g.z]),
                "force on atom {a} at {threads} threads"
            );
        }
        assert_eq!(
            bits(&many.density),
            bits(&one.density),
            "density at {threads} threads"
        );
    }
}
