//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * §3.4 BLAS2 vs BLAS3: band-by-band GEMV emulation vs all-band GEMM;
//! * Eq. (4) vs Eq. (5): per-band nonlocal projector application vs the
//!   packed B.D.B^T matrix form;
//! * GSLF: multigrid vs FFT global Poisson solve;
//! * LDC boundary potential on vs off (one SCF solve each).

use criterion::{criterion_group, criterion_main, Criterion};
use mqmd_bench::tiny_ldc_config;
use mqmd_core::global::{BoundaryMode, LdcConfig, LdcSolver};
use mqmd_dft::hamiltonian::{build_projectors, ionic_local_potential, KsHamiltonian};
use mqmd_dft::pw::PlaneWaveBasis;
use mqmd_dft::species::Pseudopotential;
use mqmd_grid::UniformGrid3;
use mqmd_linalg::gemm::{zgemm, zgemm_via_gemv};
use mqmd_linalg::CMatrix;
use mqmd_md::builders::sic_supercell;
use mqmd_multigrid::{FftPoisson, PoissonMultigrid};
use mqmd_util::constants::Element;
use mqmd_util::workspace::Workspace;
use mqmd_util::{Complex64, Vec3};
use std::hint::black_box;

fn blas_paths(c: &mut Criterion) {
    // The paper's headline transformation: matrix-vector sequences vs one
    // matrix-matrix product.
    let np = 1024;
    let nb = 32;
    let a = CMatrix::from_fn(np, np / 8, |i, j| {
        Complex64::new(
            ((i + j) % 13) as f64 * 0.03,
            ((i * 3 + j) % 7) as f64 * 0.02,
        )
    });
    let x = CMatrix::from_fn(np / 8, nb, |i, j| {
        Complex64::new(i as f64 * 0.01, j as f64 * 0.01)
    });
    let mut g = c.benchmark_group("ablation_blas2_vs_blas3");
    g.bench_function("blas3_zgemm", |b| {
        b.iter(|| {
            let mut out = CMatrix::zeros(np, nb);
            zgemm(Complex64::ONE, &a, &x, Complex64::ZERO, &mut out);
            black_box(out.data()[0])
        })
    });
    g.bench_function("blas2_gemv_loop", |b| {
        b.iter(|| black_box(zgemm_via_gemv(&a, &x).data()[0]))
    });
    g.finish();
}

fn nonlocal_paths(c: &mut Criterion) {
    let basis = PlaneWaveBasis::new(UniformGrid3::cubic(12, 9.0), 4.0);
    let p = Pseudopotential::for_element(Element::Si);
    let atoms: Vec<(Pseudopotential, Vec3)> = (0..8)
        .map(|i| {
            (
                p,
                Vec3::new(
                    1.0 + (i % 2) as f64 * 4.0,
                    1.0 + ((i / 2) % 2) as f64 * 4.0,
                    1.0 + (i / 4) as f64 * 4.0,
                ),
            )
        })
        .collect();
    let v = ionic_local_potential(basis.grid(), &atoms);
    let nl = build_projectors(&basis, &atoms);
    let h = KsHamiltonian::new(&basis, v, nl.as_ref());
    let psi = basis.random_bands(16, 9);
    let ws = Workspace::new();
    let mut all = CMatrix::zeros(psi.rows(), psi.cols());
    let mut one = vec![Complex64::ZERO; psi.rows()];
    let mut g = c.benchmark_group("ablation_eq4_vs_eq5");
    g.sample_size(20);
    g.bench_function("eq5_allband_apply", |b| {
        b.iter(|| {
            h.apply_into(&psi, &mut all, &ws);
            black_box(all.data()[0])
        })
    });
    g.bench_function("eq4_band_by_band_apply", |b| {
        b.iter(|| {
            let mut acc = Complex64::ZERO;
            for n in 0..psi.cols() {
                h.apply_band_into(&psi.col(n), &mut one, &ws);
                acc += one[0];
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn poisson_paths(c: &mut Criterion) {
    let grid = UniformGrid3::cubic(32, 12.0);
    let rho = grid.sample(|r| {
        (std::f64::consts::TAU * r.x / 12.0).sin() * (std::f64::consts::TAU * r.y / 12.0).cos()
    });
    let mg = PoissonMultigrid::with_defaults(grid.clone());
    let mut hier = mg.plan();
    let fftp = FftPoisson::new(grid);
    let ws = Workspace::new();
    let mut v = vec![0.0; rho.len()];
    let mut g = c.benchmark_group("ablation_gslf_poisson");
    g.sample_size(20);
    g.bench_function("multigrid", |b| {
        b.iter(|| {
            mg.hartree_with(&rho, &mut v, &mut hier).unwrap();
            black_box(v[0])
        })
    });
    g.bench_function("fft", |b| {
        b.iter(|| {
            fftp.hartree_into(&rho, &mut v, &ws);
            black_box(v[0])
        })
    });
    g.finish();
}

fn boundary_modes(c: &mut Criterion) {
    let sys = sic_supercell((1, 1, 1));
    let mut g = c.benchmark_group("ablation_ldc_vs_dc");
    g.sample_size(10);
    g.bench_function("dc_periodic", |b| {
        b.iter(|| {
            let mut s = LdcSolver::new(LdcConfig {
                mode: BoundaryMode::Periodic,
                ..tiny_ldc_config()
            });
            black_box(s.solve(&sys).map(|st| st.scf_iterations).unwrap_or(0))
        })
    });
    g.bench_function("ldc_density_adaptive", |b| {
        b.iter(|| {
            let mut s = LdcSolver::new(LdcConfig {
                mode: BoundaryMode::ldc_default(),
                ..tiny_ldc_config()
            });
            black_box(s.solve(&sys).map(|st| st.scf_iterations).unwrap_or(0))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    blas_paths,
    nonlocal_paths,
    poisson_paths,
    boundary_modes
);
criterion_main!(benches);
