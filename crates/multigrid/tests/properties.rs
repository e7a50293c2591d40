//! Property-based tests of the multigrid solver against the spectral
//! reference on random band-limited densities.

use mqmd_grid::UniformGrid3;
use mqmd_multigrid::stencil::{norm, remove_mean, residual};
use mqmd_multigrid::{FftPoisson, PoissonMultigrid};
use mqmd_util::workspace::Workspace;
use mqmd_util::Xoshiro256pp;
use proptest::prelude::*;

/// Random smooth periodic field: a few low-frequency Fourier modes.
fn smooth_field(grid: &UniformGrid3, seed: u64) -> Vec<f64> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let (lx, ly, lz) = grid.lengths();
    let modes: Vec<(f64, f64, f64, f64, f64)> = (0..4)
        .map(|_| {
            (
                rng.below(3) as f64,
                rng.below(3) as f64,
                rng.below(3) as f64,
                rng.normal(),
                rng.uniform_in(0.0, std::f64::consts::TAU),
            )
        })
        .collect();
    let tau = std::f64::consts::TAU;
    grid.sample(|r| {
        modes
            .iter()
            .map(|&(kx, ky, kz, amp, phase)| {
                amp * (tau * (kx * r.x / lx + ky * r.y / ly + kz * r.z / lz) + phase).cos()
            })
            .sum()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn multigrid_converges_on_random_smooth_rhs(seed in any::<u64>(), l in 4.0..12.0f64) {
        let grid = UniformGrid3::cubic(16, l);
        let mut f = smooth_field(&grid, seed);
        remove_mean(&mut f);
        prop_assume!(norm(&f) > 1e-8);
        let mg = PoissonMultigrid::with_defaults(grid.clone());
        let mut u = vec![0.0; grid.len()];
        let report = mg.solve_with(&mut u, &f, &mut mg.plan()).unwrap();
        prop_assert!(report.rel_residual < 1e-8);
        // Verify against the operator directly.
        let mut r = vec![0.0; grid.len()];
        residual(&grid, &u, &f, &mut r);
        prop_assert!(norm(&r) < 1e-7 * (1.0 + norm(&f)));
    }

    #[test]
    fn multigrid_tracks_fft_solution(seed in any::<u64>()) {
        let grid = UniformGrid3::cubic(16, 8.0);
        let mut rho = smooth_field(&grid, seed);
        remove_mean(&mut rho);
        prop_assume!(norm(&rho) > 1e-8);
        let mg = PoissonMultigrid::with_defaults(grid.clone());
        let mut v_mg = vec![0.0; grid.len()];
        mg.hartree_with(&rho, &mut v_mg, &mut mg.plan()).unwrap();
        let mut v_fft = vec![0.0; grid.len()];
        FftPoisson::new(grid).hartree_into(&rho, &mut v_fft, &Workspace::new());
        let scale = v_fft.iter().map(|x| x.abs()).fold(1e-12, f64::max);
        for (a, b) in v_mg.iter().zip(&v_fft) {
            // Discretisation difference only: O(h²) of the 16³ grid.
            prop_assert!((a - b).abs() < 0.12 * scale, "{} vs {}", a, b);
        }
    }

    #[test]
    fn solution_is_linear_in_rhs(seed in any::<u64>(), alpha in -3.0..3.0f64) {
        let grid = UniformGrid3::cubic(8, 6.0);
        let mut f = smooth_field(&grid, seed);
        remove_mean(&mut f);
        prop_assume!(norm(&f) > 1e-8);
        let mg = PoissonMultigrid::with_defaults(grid.clone());
        let mut u1 = vec![0.0; grid.len()];
        mg.solve_with(&mut u1, &f, &mut mg.plan()).unwrap();
        let f2: Vec<f64> = f.iter().map(|&x| alpha * x).collect();
        prop_assume!(alpha.abs() > 1e-3);
        let mut u2 = vec![0.0; grid.len()];
        mg.solve_with(&mut u2, &f2, &mut mg.plan()).unwrap();
        let scale = u1.iter().map(|x| x.abs()).fold(1e-12, f64::max);
        for (a, b) in u1.iter().zip(&u2) {
            prop_assert!((alpha * a - b).abs() < 1e-5 * scale * (1.0 + alpha.abs()));
        }
    }
}
