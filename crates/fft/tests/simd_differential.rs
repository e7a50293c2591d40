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
//!
//! The same pins hold for the lane-batched kernel: a panel of any number of
//! lanes, packed or strided, is bitwise its scalar twin and bitwise the
//! one-signal transform of each lane; and a batched, pruned 3-D transform is
//! bitwise the full one-field transform of each band, at every thread
//! count.

use mqmd_fft::{Direction, Fft1d, Fft3d};
use mqmd_util::workspace::Workspace;
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

/// Lane `l` of a `[rows][lanes]` panel.
fn lane(panel: &[Complex64], lanes: usize, l: usize) -> Vec<Complex64> {
    panel.iter().skip(l).step_by(lanes).copied().collect()
}

/// The two kinds of 1-D plan, and the lengths next to a kind change.
const PANEL_LENGTHS: [usize; 12] = [1, 2, 3, 4, 5, 8, 12, 16, 17, 31, 32, 64];

/// A support for the pruned transforms: `kind` 0 is empty, 1 the whole
/// grid, 2 a single point, anything else a random subset (a third of the
/// points, or one in sixteen).
fn random_support(len: usize, kind: u64, rng: &mut Xoshiro256pp) -> Vec<usize> {
    match kind {
        0 => Vec::new(),
        1 => (0..len).collect(),
        2 => vec![(rng.next_u64() % len as u64) as usize],
        _ => {
            let one_in = if kind < 5 { 3 } else { 16 };
            (0..len)
                .filter(|_| rng.next_u64().is_multiple_of(one_in))
                .collect()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The panel kernel, vector against scalar twin and against the
    // one-signal transform of each lane: lane counts 1..=9 take every
    // vector/tail split, `pad` makes the rows strided (the 3-D y and x
    // sweeps) and `first` starts the lanes off the row's edge.
    #[test]
    fn panel_is_bitwise_scalar_and_bitwise_per_lane(
        n_idx in 0usize..12,
        lanes in 1usize..10,
        pad in 0usize..4,
        first in 0usize..3,
        inverse in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let n = PANEL_LENGTHS[n_idx];
        let plan = Fft1d::new(n);
        let dir = if inverse { Direction::Inverse } else { Direction::Forward };
        let (first, stride) = if pad == 0 { (0, lanes) } else { (first, first + lanes + pad) };
        let x = random_signal(n * stride, seed);
        let mut scratch = vec![Complex64::ZERO; plan.scratch_rows() * lanes];

        let mut simd = x.clone();
        plan.panel(&mut simd, stride, first..first + lanes, &mut scratch, dir);
        let mut scalar = x.clone();
        plan.panel_scalar(&mut scalar, stride, first..first + lanes, &mut scratch, dir);
        prop_assert!(bits_eq(&simd, &scalar), "n={} lanes={} stride={}", n, lanes, stride);

        for l in 0..stride {
            let mut one = lane(&x, stride, l);
            if (first..first + lanes).contains(&l) {
                match dir {
                    Direction::Forward => plan.forward_scalar(&mut one),
                    Direction::Inverse => plan.inverse_scalar(&mut one),
                }
            }
            prop_assert!(
                bits_eq(&lane(&simd, stride, l), &one),
                "n={} lanes={} stride={} lane {}", n, lanes, stride, l
            );
        }
    }

    // Batched and pruned against one full transform per band. The inverse
    // must agree at every grid point, zeros and their signs included (an
    // empty or one-point support leaves lines of exact zeros); the forward
    // transform at every support point.
    #[test]
    fn pruned_batch_is_bitwise_the_full_transform_of_each_band(
        dims_idx in 0usize..8,
        lanes in 1usize..10,
        kind in 0u64..8,
        seed in any::<u64>(),
    ) {
        let (nx, ny, nz) = [
            (8, 8, 8), (4, 6, 5), (1, 1, 16), (1, 12, 1), (5, 1, 3), (2, 3, 4), (16, 4, 2), (3, 8, 8),
        ][dims_idx];
        let plan = Fft3d::new(nx, ny, nz);
        let len = plan.len();
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let support = random_support(len, kind, &mut rng);
        let pruning = plan.pruning(&support);
        let ws = Workspace::new();

        // Inverse: values on the support, +0 everywhere else.
        let mut panel = vec![Complex64::ZERO; len * lanes];
        for &g in &support {
            for z in &mut panel[g * lanes..(g + 1) * lanes] {
                *z = Complex64::new(rng.normal(), rng.normal());
            }
        }
        let bands: Vec<Vec<Complex64>> = (0..lanes).map(|l| lane(&panel, lanes, l)).collect();
        plan.inverse_batch(&mut panel, lanes, Some(&pruning), &ws);
        for (l, band) in bands.iter().enumerate() {
            let mut full = band.clone();
            plan.inverse(&mut full);
            prop_assert!(
                bits_eq(&lane(&panel, lanes, l), &full),
                "inverse {}x{}x{} lanes={} kind={} band {}", nx, ny, nz, lanes, kind, l
            );
        }

        // Forward: a dense field in; only the support is read afterwards.
        let dense = random_signal(len * lanes, seed ^ 0x5eed);
        let mut panel = dense.clone();
        plan.forward_batch(&mut panel, lanes, Some(&pruning), &ws);
        let mut unpruned = dense.clone();
        plan.forward_batch(&mut unpruned, lanes, None, &ws);
        for l in 0..lanes {
            let mut full = lane(&dense, lanes, l);
            plan.forward(&mut full);
            prop_assert!(bits_eq(&lane(&unpruned, lanes, l), &full), "unpruned batch band {}", l);
            let got = lane(&panel, lanes, l);
            for &g in &support {
                prop_assert!(
                    bits_eq(&got[g..g + 1], &full[g..g + 1]),
                    "forward {}x{}x{} lanes={} kind={} band {} point {}", nx, ny, nz, lanes, kind, l, g
                );
            }
        }
    }

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

/// The batched, pruned transform at 1, 2 and 4 threads: every sweep of the
/// larger shape is above the grain cut-off and must reach the pool, and
/// neither shape's bits may depend on it.
#[test]
fn pruned_batch_is_bitwise_deterministic_across_thread_counts() {
    for ((nx, ny, nz), lanes, pooled) in [((8, 8, 8), 5, false), ((32, 24, 20), 3, true)] {
        let plan = Fft3d::new(nx, ny, nz);
        let len = plan.len();
        // A ball in frequency space, as a plane-wave cutoff leaves.
        let support: Vec<usize> = (0..len)
            .filter(|&g| {
                let (ix, iy, iz) = (g / (ny * nz), g / nz % ny, g % nz);
                let f = |i: usize, n: usize| (i.min(n - i) as f64 / n as f64).powi(2);
                f(ix, nx) + f(iy, ny) + f(iz, nz) < 0.04
            })
            .collect();
        assert!(!support.is_empty() && support.len() < len / 8);
        let pruning = plan.pruning(&support);
        let mut input = vec![Complex64::ZERO; len * lanes];
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        for &g in &support {
            for z in &mut input[g * lanes..(g + 1) * lanes] {
                *z = Complex64::new(rng.normal(), rng.normal());
            }
        }
        let ws = Workspace::new();
        let round_trip = || {
            let mut panel = input.clone();
            plan.inverse_batch(&mut panel, lanes, Some(&pruning), &ws);
            let real = panel.clone();
            plan.forward_batch(&mut panel, lanes, Some(&pruning), &ws);
            let recip: Vec<Complex64> = support
                .iter()
                .flat_map(|&g| panel[g * lanes..(g + 1) * lanes].to_vec())
                .collect();
            (real, recip)
        };
        let (real, recip) = round_trip();
        for threads in [1usize, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("test pool");
            let dispatched = rayon::pool_dispatches();
            let (real_t, recip_t) = pool.install(round_trip);
            assert!(
                bits_eq(&real_t, &real) && bits_eq(&recip_t, &recip),
                "{threads}-thread {nx}x{ny}x{nz} batch diverged"
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
