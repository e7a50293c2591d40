//! Differential tests of the vectorized Stockham butterflies against the
//! always-compiled scalar reference.
//!
//! The vector butterflies replicate the scalar complex-multiply op order
//! per lane, so the dispatcher path must be **bitwise** identical to
//! `forward_scalar`/`inverse_scalar` for every length — power-of-two
//! Stockham lengths and Bluestein lengths alike (Bluestein recurses into
//! vectorized inner transforms). On top of the bitwise pin, the classic
//! analytic checks (round trip, Parseval) run on the SIMD path so a
//! future relaxation of the bitwise contract still has a correctness
//! floor, and the 3-D pencil transform must be bitwise reproducible
//! across rayon thread counts.

use mqmd_fft::{Fft1d, Fft3d};
use mqmd_util::{Complex64, Xoshiro256pp};
use proptest::prelude::*;

fn random_signal(n: usize, seed: u64) -> Vec<Complex64> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    (0..n)
        .map(|_| Complex64::new(rng.normal(), rng.normal()))
        .collect()
}

fn bits_eq(a: &[Complex64], b: &[Complex64]) -> bool {
    a.iter()
        .zip(b)
        .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dispatcher_is_bitwise_scalar_any_length(n in 1usize..300, seed in any::<u64>()) {
        let plan = Fft1d::new(n);
        let x = random_signal(n, seed);

        let mut fwd = x.clone();
        let mut fwd_ref = x.clone();
        plan.forward(&mut fwd);
        plan.forward_scalar(&mut fwd_ref);
        prop_assert!(bits_eq(&fwd, &fwd_ref), "forward n={}", n);

        plan.inverse(&mut fwd);
        plan.inverse_scalar(&mut fwd_ref);
        prop_assert!(bits_eq(&fwd, &fwd_ref), "inverse n={}", n);
    }

    // Mixed-path round trip: SIMD forward undone by the scalar inverse
    // (and vice versa) recovers the signal — the two paths implement the
    // same transform, not merely two self-consistent ones.
    #[test]
    fn mixed_path_round_trip(n in 1usize..200, seed in any::<u64>()) {
        let plan = Fft1d::new(n);
        let x = random_signal(n, seed);

        let mut y = x.clone();
        plan.forward(&mut y);
        plan.inverse_scalar(&mut y);
        for (a, b) in x.iter().zip(&y) {
            prop_assert!((*a - *b).abs() < 1e-8 * (1.0 + a.abs()));
        }

        let mut z = x.clone();
        plan.forward_scalar(&mut z);
        plan.inverse(&mut z);
        for (a, b) in x.iter().zip(&z) {
            prop_assert!((*a - *b).abs() < 1e-8 * (1.0 + a.abs()));
        }
    }

    #[test]
    fn simd_path_preserves_parseval(n in 1usize..200, seed in any::<u64>()) {
        let x = random_signal(n, seed);
        let mut y = x.clone();
        Fft1d::new(n).forward(&mut y);
        let e_t: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let e_f: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        prop_assert!((e_t - e_f).abs() < 1e-7 * (1.0 + e_t));
    }
}

/// The 3-D transform fans pencils out over rayon; each pencil is an
/// independent 1-D transform, so the result must not depend on how many
/// workers the pool happens to have.
#[test]
fn fft3d_is_bitwise_deterministic_across_thread_counts() {
    // 32×24×20 (one power-of-two and two Bluestein axes) is above the grain
    // cut-off on all three sweeps of both transforms.
    for ((nx, ny, nz), pooled) in [((12, 8, 10), false), ((32, 24, 20), true)] {
        let plan = Fft3d::new(nx, ny, nz);
        let x = random_signal(plan.len(), 42);
        let round_trip = || {
            let mut y = x.clone();
            plan.forward(&mut y);
            plan.inverse(&mut y);
            y
        };
        let reference = round_trip();
        for threads in [1usize, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("test pool");
            let dispatched = rayon::pool_dispatches();
            let got = pool.install(round_trip);
            assert!(
                bits_eq(&got, &reference),
                "{threads}-thread {nx}x{ny}x{nz} round trip diverged"
            );
            if pooled && threads > 1 {
                assert_eq!(
                    rayon::pool_dispatches() - dispatched,
                    6,
                    "{threads}-thread {nx}x{ny}x{nz}: sweeps handed to the pool"
                );
            }
        }
    }
}
