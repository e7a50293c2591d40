//! Bit-for-bit determinism of the parallel pencil FFT.
//!
//! The 3-D transform parallelises over pencils, but every pencil is an
//! independent 1-D transform writing a disjoint index set — so the result
//! must be *bitwise* identical run to run and across thread counts. This
//! pins down the reproducibility the tracing/metrics pipeline assumes
//! (profiles from different hosts must differ only in timings, never in
//! numerics).

use mqmd_fft::{Fft1d, Fft3d};
use mqmd_util::workspace::Workspace;
use mqmd_util::Complex64;
use rayon::ThreadPoolBuilder;

fn random_field(n: usize, seed: u64) -> Vec<Complex64> {
    let mut rng = mqmd_util::Xoshiro256pp::seed_from_u64(seed);
    (0..n)
        .map(|_| Complex64::new(rng.normal(), rng.normal()))
        .collect()
}

/// Exact bit comparison — no tolerance.
fn assert_bits_eq(a: &[Complex64], b: &[Complex64], what: &str) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{what}: bit mismatch at {i}: {x:?} vs {y:?}"
        );
    }
}

fn forward_with_threads(
    plan: &Fft3d,
    input: &[Complex64],
    threads: Option<usize>,
) -> Vec<Complex64> {
    let mut data = input.to_vec();
    match threads {
        None => plan.forward(&mut data),
        Some(t) => ThreadPoolBuilder::new()
            .num_threads(t)
            .build()
            .expect("pool")
            .install(|| plan.forward(&mut data)),
    }
    data
}

#[test]
fn fft3d_repeated_runs_are_bitwise_identical() {
    // Power-of-two, mixed-radix, and Bluestein (prime) dimensions.
    for (nx, ny, nz) in [(16, 16, 16), (8, 4, 2), (3, 5, 7), (12, 10, 6)] {
        let plan = Fft3d::new(nx, ny, nz);
        let input = random_field(plan.len(), (nx * 100 + ny * 10 + nz) as u64);
        let first = forward_with_threads(&plan, &input, None);
        for rep in 0..5 {
            let again = forward_with_threads(&plan, &input, None);
            assert_bits_eq(&first, &again, &format!("{nx}x{ny}x{nz} rep {rep}"));
        }
    }
}

#[test]
fn fft3d_is_thread_count_invariant() {
    // The first three are at or below the grain cut-off and run (mostly)
    // inline; 32×24×20 has all three of its sweeps handed to the pool.
    for (nx, ny, nz) in [(16, 16, 16), (3, 5, 7), (9, 8, 4), (32, 24, 20)] {
        let plan = Fft3d::new(nx, ny, nz);
        let input = random_field(plan.len(), (nx + ny + nz) as u64);
        let serial = forward_with_threads(&plan, &input, Some(1));
        for threads in [2, 3, 8] {
            let dispatched = rayon::pool_dispatches();
            let parallel = forward_with_threads(&plan, &input, Some(threads));
            assert_bits_eq(&serial, &parallel, &format!("{nx}x{ny}x{nz} @ {threads}t"));
            if nx == 32 {
                assert_eq!(rayon::pool_dispatches() - dispatched, 3);
            }
        }
        let default_pool = forward_with_threads(&plan, &input, None);
        assert_bits_eq(&serial, &default_pool, &format!("{nx}x{ny}x{nz} @ default"));
    }
}

#[test]
fn fft3d_inverse_is_thread_count_invariant() {
    let plan = Fft3d::new(6, 15, 4);
    let mut freq = random_field(plan.len(), 77);
    plan.forward(&mut freq);
    let one = {
        let mut d = freq.clone();
        ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("pool")
            .install(|| plan.inverse(&mut d));
        d
    };
    let many = {
        let mut d = freq.clone();
        ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .expect("pool")
            .install(|| plan.inverse(&mut d));
        d
    };
    assert_bits_eq(&one, &many, "inverse 1t vs 4t");
}

/// Regression test for the gather-scratch reuse: warm (reused) scratch
/// must give bit-identical results to cold scratch, across thread counts.
/// Before the thread-local line existed, every pencil task allocated a
/// fresh `vec!`; reuse must not be observable in the numerics.
#[test]
fn fft3d_scratch_reuse_is_bitwise_deterministic() {
    // The last shape is above the grain cut-off, so that pool workers'
    // scratch lines are among the reused ones.
    for (nx, ny, nz) in [(16, 16, 16), (3, 5, 7), (12, 10, 6), (32, 24, 20)] {
        let plan = Fft3d::new(nx, ny, nz);
        let input = random_field(plan.len(), (nx * 7 + ny * 5 + nz) as u64);
        // Cold reference on a fresh 1-thread pool (fresh worker threads =
        // fresh thread-local scratch).
        let cold = forward_with_threads(&plan, &input, Some(1));
        for threads in [1usize, 2, 4] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            pool.install(|| {
                // Warm the scratch with unrelated data of the same and of a
                // *different* size, then transform the real input twice.
                let mut junk = random_field(plan.len(), 999);
                plan.forward(&mut junk);
                let small = Fft3d::new(4, 4, 4);
                let mut junk_small = random_field(small.len(), 998);
                small.forward(&mut junk_small);
                for rep in 0..2 {
                    let mut warm = input.to_vec();
                    plan.forward(&mut warm);
                    assert_bits_eq(
                        &cold,
                        &warm,
                        &format!("{nx}x{ny}x{nz} warm rep {rep} @ {threads}t"),
                    );
                }
            });
        }
    }
}

/// The workspace-borrowing entry points must be bitwise identical to the
/// thread-local ones, for both transform directions, and reusing one
/// workspace across many transforms must not be observable.
#[test]
fn fft3d_workspace_path_matches_owned_path_bitwise() {
    let ws = Workspace::new();
    for (nx, ny, nz) in [(16, 16, 16), (3, 5, 7), (8, 4, 2)] {
        let plan = Fft3d::new(nx, ny, nz);
        let input = random_field(plan.len(), (nx * 31 + ny * 3 + nz) as u64);
        for rep in 0..3 {
            let mut owned = input.clone();
            plan.forward(&mut owned);
            let mut pooled = input.clone();
            plan.forward_with(&mut pooled, &ws);
            assert_bits_eq(&owned, &pooled, &format!("fwd {nx}x{ny}x{nz} rep {rep}"));
            plan.inverse(&mut owned);
            plan.inverse_with(&mut pooled, &ws);
            assert_bits_eq(&owned, &pooled, &format!("inv {nx}x{ny}x{nz} rep {rep}"));
        }
    }
    let s = ws.stats().snapshot();
    assert!(s.hits > 0, "repeated transforms must reuse pooled scratch");
}

#[test]
fn fft1d_repeated_runs_are_bitwise_identical() {
    for n in [1usize, 2, 13, 64, 100, 127] {
        let plan = Fft1d::new(n);
        let input = random_field(n, n as u64);
        let mut first = input.clone();
        plan.forward(&mut first);
        for _ in 0..3 {
            let mut again = input.clone();
            plan.forward(&mut again);
            assert_bits_eq(&first, &again, &format!("1d n={n}"));
        }
    }
}
