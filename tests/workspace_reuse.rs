//! Tier-1 acceptance for the plan/workspace refactor: once the first
//! SCF pass (or QMD step) has warmed every plan and workspace, further
//! steady-state work performs **zero** hot-path workspace misses — every
//! transient buffer is served from the arena and every plan-shaped buffer
//! is reused, all the way from the QMD step down to FFT scratch.
//!
//! The tests run the exact measurement `repro_profile` gates on (it exits
//! 1 on a non-zero gauge): snapshot the global allocation
//! ledger after a warm-up run, do one more unit of steady-state work, and
//! assert the miss delta is zero. They pin the rayon pool to one thread so
//! the arena's high-water mark is deterministic (concurrent borrows can
//! legitimately widen the pool on first contention) — except the last one,
//! which runs two domains on two threads: each domain has an arena of its
//! own, and the pool's worker keeps its thread-local scratch from one call
//! to the next, so the steady state is as allocation-free as at one thread.

use metascale_qmd::core::global::{BoundaryMode, HartreeSolver, LdcConfig, LdcSolver};
use metascale_qmd::core::qmd::QmdDriver;
use metascale_qmd::grid::UniformGrid3;
use metascale_qmd::md::thermostat::Berendsen;
use metascale_qmd::md::AtomicSystem;
use metascale_qmd::util::constants::Element;
use metascale_qmd::util::{workspace, Vec3};

/// Serialises the tests in this binary: they all read the global
/// allocation ledger, and a concurrent test's arena traffic would leak
/// into the measured window.
fn ledger_lock() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` with the rayon pool held to `threads` and returns the global
/// workspace hit/miss delta it produced.
fn alloc_delta(
    threads: usize,
    f: impl FnOnce() + Send,
) -> metascale_qmd::util::workspace::AllocSnapshot {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the shim's pool construction cannot fail");
    let before = workspace::global_stats().snapshot();
    pool.install(f);
    workspace::global_stats().snapshot().since(&before)
}

fn h2_system() -> AtomicSystem {
    AtomicSystem::new(
        Vec3::splat(8.0),
        vec![Element::H, Element::H],
        vec![Vec3::new(3.3, 4.0, 4.0), Vec3::new(4.7, 4.0, 4.0)],
    )
}

/// The one-domain plane-wave SCF (the conventional solve): a second `solve`
/// of a solver that kept its workspaces — the unit of work every
/// steady-state QMD step repeats, without the integrator — must not miss
/// the arena once.
#[test]
fn steady_state_scf_has_zero_workspace_misses() {
    let _g = ledger_lock();
    let system = h2_system();
    let mut ldc = LdcSolver::new(LdcConfig {
        nd: (1, 1, 1),
        buffer: 0.0,
        mode: BoundaryMode::Periodic,
        hartree: HartreeSolver::Fft,
        ..Default::default()
    });

    let warm = alloc_delta(1, || {
        ldc.solve(&system).expect("cold H2 SCF must converge");
    });
    assert!(warm.misses > 0, "cold run must populate the arena");

    let steady = alloc_delta(1, || {
        ldc.solve(&system).expect("warm H2 SCF must converge");
    });
    assert_eq!(
        steady.misses, 0,
        "steady-state SCF hit the allocator: {} misses ({} bytes)",
        steady.misses, steady.miss_bytes
    );
    assert_eq!(steady.miss_bytes, 0);
    assert!(
        steady.hits > 0,
        "steady-state SCF must actually borrow from the warm arena"
    );
}

/// Full QMD step through the LDC pipeline: after one warm-up step the
/// solver's persisted caches (per-domain eigensolver workspaces, global
/// Hartree scratch, multigrid hierarchy) serve the next step entirely.
fn qmd_second_step_is_miss_free(hartree: HartreeSolver) {
    let _g = ledger_lock();
    let mut system = h2_system();
    let mut ldc = LdcSolver::new(LdcConfig {
        nd: (1, 1, 1),
        buffer: 0.0,
        mode: BoundaryMode::Periodic,
        hartree,
        tol_density: 1e-4,
        ..Default::default()
    });
    let mut driver = QmdDriver::new(
        10.0,
        Some(Berendsen {
            t_target: 300.0,
            tau: 50.0,
        }),
    );

    let warm = alloc_delta(1, || {
        driver.run(&mut system, &mut ldc, 1);
    });
    assert!(warm.misses > 0, "first QMD step must populate the arena");

    let steady = alloc_delta(1, || {
        driver.run(&mut system, &mut ldc, 1);
    });
    assert_eq!(
        steady.misses, 0,
        "steady-state QMD step ({hartree:?} Hartree) hit the allocator: \
         {} misses ({} bytes)",
        steady.misses, steady.miss_bytes
    );
    assert!(steady.hits > 0, "second step must reuse the warm arena");
}

/// SIMD packing buffers are thread-locals (the GEMM packed-A panel, the
/// FFT gather line) whose one-time growth is recorded through the trace
/// ledger rather than the workspace arena. Once a worker is warm,
/// repeated kernel calls must attribute **zero** further allocations to
/// the `gemm`/`fft` spans — the vector paths may not conjure fresh Vecs
/// per call. Runs on a pinned single-thread pool so "warm" is
/// deterministic (thread-locals are per worker).
#[test]
fn steady_state_simd_kernels_have_zero_traced_allocs() {
    use metascale_qmd::fft::Fft3d;
    use metascale_qmd::linalg::gemm::dgemm;
    use metascale_qmd::linalg::Matrix;
    use metascale_qmd::multigrid::smoother::rbgs_sweep;
    use metascale_qmd::util::{trace, Complex64};

    let _g = ledger_lock();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("single-thread pool");
    pool.install(|| {
        let n = 48;
        let a = Matrix::from_fn(n, n, |i, j| (i + 2 * j) as f64 * 0.01);
        let b = Matrix::from_fn(n, n, |i, j| (3 * i + j) as f64 * 0.01);
        let mut c = Matrix::zeros(n, n);
        let plan = Fft3d::new(8, 8, 8);
        let mut x = vec![Complex64::new(1.0, -0.5); plan.len()];
        let grid = UniformGrid3::cubic(8, 6.0);
        let f = vec![1.0; grid.len()];
        let mut u = vec![0.0; grid.len()];

        trace::set_enabled(true);
        // Warm-up: populates this worker's packing/gather thread-locals.
        dgemm(1.0, &a, &b, 0.0, &mut c);
        plan.forward(&mut x);
        rbgs_sweep(&grid, &mut u, &f);
        trace::take();

        for _ in 0..3 {
            dgemm(1.0, &a, &b, 0.0, &mut c);
            plan.forward(&mut x);
            plan.inverse(&mut x);
            rbgs_sweep(&grid, &mut u, &f);
        }
        let t = trace::take();
        trace::set_enabled(false);
        for name in ["gemm", "fft", "poisson"] {
            if let Some(node) = t.aggregate(name) {
                assert_eq!(
                    node.alloc_count, 0,
                    "steady-state {name} hit the allocator: {} allocs ({} bytes)",
                    node.alloc_count, node.alloc_bytes
                );
            }
        }
        assert!(
            t.aggregate("gemm").is_some() && t.aggregate("fft").is_some(),
            "measurement window must actually contain the kernel spans"
        );
    });
}

#[test]
fn steady_state_qmd_step_fft_hartree_has_zero_workspace_misses() {
    qmd_second_step_is_miss_free(HartreeSolver::Fft);
}

#[test]
fn steady_state_qmd_step_multigrid_hartree_has_zero_workspace_misses() {
    qmd_second_step_is_miss_free(HartreeSolver::Multigrid);
}

/// The 8-atom SiC cell in two domains on two threads, one domain each (the
/// repo benchmark's `qmd_sic8_t2`, coarser). After a warm-up step a further
/// step misses no arena and — with every parallel call served by the same
/// pooled worker instead of a fresh thread — grows no thread-local FFT
/// gather line or GEMM packing panel either.
#[test]
fn steady_state_two_thread_qmd_step_has_zero_misses_and_zero_traced_allocs() {
    use metascale_qmd::md::builders::sic_supercell;
    use metascale_qmd::util::trace;

    let _g = ledger_lock();
    let mut system = sic_supercell((1, 1, 1));
    let mut ldc = LdcSolver::new(LdcConfig {
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
    let mut driver: QmdDriver<Berendsen> = QmdDriver::new(10.0, None);

    let warm = alloc_delta(2, || {
        driver.run(&mut system, &mut ldc, 1);
    });
    assert!(warm.misses > 0, "first QMD step must populate the arenas");

    let mut dispatched = 0;
    trace::set_enabled(true);
    trace::take();
    let steady = alloc_delta(2, || {
        let before = rayon::pool_dispatches();
        driver.run(&mut system, &mut ldc, 1);
        dispatched = rayon::pool_dispatches() - before;
    });
    let tree = trace::take();
    trace::set_enabled(false);

    assert!(dispatched > 0, "the domain loop must go to the thread pool");
    assert_eq!(
        steady.misses, 0,
        "steady-state two-thread QMD step hit the allocator: {} misses ({} bytes)",
        steady.misses, steady.miss_bytes
    );
    assert!(steady.hits > 0, "second step must reuse the warm arenas");
    for name in ["gemm", "fft", "poisson", "hamiltonian"] {
        let node = tree.aggregate(name).expect("the step runs every kernel");
        assert_eq!(
            node.alloc_count, 0,
            "steady-state {name} hit the allocator: {} allocs ({} bytes)",
            node.alloc_count, node.alloc_bytes
        );
    }
}

/// The two-thread leg of [`steady_state_simd_kernels_have_zero_traced_allocs`],
/// on shapes above the kernels' grain cut-off, so that every call really
/// fans out. The pool's worker is a thread that lives on: once its packing
/// panel and gather line have grown, no later call pays for them again
/// (a thread spawned per call paid on every call). Every parallel call of
/// this test binary runs under an `install` of at most two, so that worker
/// is the only one there is.
#[test]
fn steady_state_pooled_kernels_have_zero_traced_allocs_at_two_threads() {
    use metascale_qmd::fft::Fft3d;
    use metascale_qmd::linalg::gemm::dgemm;
    use metascale_qmd::linalg::Matrix;
    use metascale_qmd::util::{trace, Complex64};
    use rayon::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    let _g = ledger_lock();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("the shim's pool construction cannot fail");
    pool.install(|| {
        let a = Matrix::from_fn(512, 64, |i, j| (i + 2 * j) as f64 * 0.01);
        let b = Matrix::from_fn(64, 32, |i, j| (3 * i + j) as f64 * 0.01);
        let plan = Fft3d::new(32, 24, 20);
        let kernels = || {
            let mut c = Matrix::zeros(512, 32);
            dgemm(1.0, &a, &b, 0.0, &mut c);
            let mut x = vec![Complex64::new(1.0, -0.5); plan.len()];
            plan.forward(&mut x);
            plan.inverse(&mut x);
        };

        trace::set_enabled(true);
        // Warm-up on both threads at once: each of the two items waits for
        // the other, then runs the kernels — inline, being inside a
        // parallel region already — on the thread that holds it.
        let arrived = AtomicUsize::new(0);
        (0..2).into_par_iter().for_each(|_| {
            arrived.fetch_add(1, Ordering::SeqCst);
            while arrived.load(Ordering::SeqCst) < 2 {
                std::thread::yield_now();
            }
            kernels();
        });
        trace::take();

        let dispatched = rayon::pool_dispatches();
        for _ in 0..20 {
            kernels();
        }
        let t = trace::take();
        trace::set_enabled(false);
        // One GEMM and two transforms of three sweeps each, twenty times.
        assert_eq!(rayon::pool_dispatches() - dispatched, 20 * 7);
        for name in ["gemm", "fft"] {
            let node = t.aggregate(name).expect("the window contains the kernel");
            assert_eq!(
                node.alloc_count, 0,
                "steady-state {name} hit the allocator: {} allocs ({} bytes)",
                node.alloc_count, node.alloc_bytes
            );
        }
    });
}
