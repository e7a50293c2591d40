//! Micro-benchmarks of the numerical substrates: FFT, GEMM, multigrid
//! V-cycle, Cholesky band orthonormalisation, Ewald, Hilbert encoding and
//! the space-filling-curve trajectory codec, the LDC transfer plan's two
//! table walks, and the domain block-Davidson solve.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mqmd_bench::tiny_ldc_config;
use mqmd_core::domain_solver::DomainSetup;
use mqmd_core::transfer::TransferPlan;
use mqmd_dft::eigensolver::{block_davidson_with, EigWorkspace};
use mqmd_dft::ewald::ewald;
use mqmd_dft::hamiltonian::{ionic_local_potential, KsHamiltonian};
use mqmd_dft::solver::atoms_of;
use mqmd_fft::Fft3d;
use mqmd_grid::hilbert::hilbert_encode;
use mqmd_grid::UniformGrid3;
use mqmd_linalg::gemm::dgemm;
use mqmd_linalg::orthonorm::cholesky_orthonormalize_with;
use mqmd_linalg::{CMatrix, Matrix};
use mqmd_md::builders::sic_supercell;
use mqmd_md::io::CompressedFrame;
use mqmd_md::AtomicSystem;
use mqmd_multigrid::PoissonMultigrid;
use mqmd_serve::JobSpec;
use mqmd_util::constants::Element;
use mqmd_util::workspace::Workspace;
use mqmd_util::{Complex64, Vec3, Xoshiro256pp};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    // 3-D FFT, the per-domain hot kernel.
    let fft = Fft3d::cubic(32);
    let mut rng = Xoshiro256pp::seed_from_u64(1);
    let field: Vec<Complex64> = (0..fft.len())
        .map(|_| Complex64::new(rng.normal(), rng.normal()))
        .collect();
    let mut g = c.benchmark_group("kernels");
    g.throughput(Throughput::Elements(fft.len() as u64));
    g.bench_function("fft3d_32cubed", |b| {
        b.iter(|| {
            let mut data = field.clone();
            fft.forward(&mut data);
            black_box(data[0])
        })
    });

    // Band orthonormalisation (overlap + Cholesky + triangular solve).
    // Random bands: structured modular fills are rank-deficient (singular
    // overlap), which Cholesky rightly rejects.
    let mut rng_psi = Xoshiro256pp::seed_from_u64(4);
    let psi0 = CMatrix::from_fn(2048, 64, |_, _| {
        Complex64::new(rng_psi.normal(), rng_psi.normal())
    });
    let ws = Workspace::new();
    g.bench_function("cholesky_orthonormalise_2048x64", |b| {
        b.iter(|| {
            let mut psi = psi0.clone();
            black_box(cholesky_orthonormalize_with(&mut psi, &ws).unwrap())
        })
    });

    // Multigrid V-cycle Poisson solve.
    let grid = UniformGrid3::cubic(32, 10.0);
    let rho = grid.sample(|r| (std::f64::consts::TAU * r.x / 10.0).sin());
    let mg = PoissonMultigrid::with_defaults(grid);
    let mut hier = mg.plan();
    let mut v = vec![0.0; rho.len()];
    g.bench_function("multigrid_poisson_32cubed", |b| {
        b.iter(|| {
            mg.hartree_with(&rho, &mut v, &mut hier).unwrap();
            black_box(v[0])
        })
    });

    // Ewald on a 64-atom cell.
    let mut rng2 = Xoshiro256pp::seed_from_u64(2);
    let pos: Vec<Vec3> = (0..64)
        .map(|_| {
            Vec3::new(
                rng2.uniform_in(0.0, 12.0),
                rng2.uniform_in(0.0, 12.0),
                rng2.uniform_in(0.0, 12.0),
            )
        })
        .collect();
    let q: Vec<f64> = (0..64)
        .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    g.bench_function("ewald_64_atoms", |b| {
        b.iter(|| black_box(ewald(Vec3::splat(12.0), &pos, &q, None).energy))
    });

    // Hilbert curve encoding throughput (I/O compression hot loop).
    g.throughput(Throughput::Elements(4096));
    g.bench_function("hilbert_encode_4096", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..4096u32 {
                acc ^= hilbert_encode(i % 16, (i / 16) % 16, i / 256, 4);
            }
            black_box(acc)
        })
    });

    // Dense real GEMM, the BLAS3 kernel of Table 1's FLOP mix.
    let n = 256;
    let a = Matrix::from_fn(n, n, |i, j| ((i * 3 + j) % 7) as f64 * 0.1);
    let bm = Matrix::from_fn(n, n, |i, j| ((i + 5 * j) % 11) as f64 * 0.05);
    let mut out = Matrix::zeros(n, n);
    g.throughput(Throughput::Elements((2 * n * n * n) as u64));
    g.bench_function("dgemm_256", |b| {
        b.iter(|| {
            dgemm(1.0, &a, &bm, 0.0, &mut out);
            black_box(out.data()[0])
        })
    });

    // §4.4 trajectory codec on a 512-atom SiC frame.
    let crystal = sic_supercell((4, 4, 4));
    g.throughput(Throughput::Elements(crystal.len() as u64));
    g.bench_function("sfc_compress_512", |b| {
        b.iter(|| black_box(CompressedFrame::compress(&crystal, 12).compressed_bytes()))
    });
    let frame = CompressedFrame::compress(&crystal, 12);
    g.bench_function("sfc_decompress_512", |b| {
        b.iter(|| black_box(frame.decompress().unwrap().len()))
    });
    g.finish();
}

/// Global → domain sampling and `ρ = Σα pα·ρα` on the repo benchmark's two
/// decompositions: SiC-8 split `(2,1,1)` and H₂ in one whole-cell domain.
fn bench_transfer(c: &mut Criterion) {
    let cfg = tiny_ldc_config();
    let mut g = c.benchmark_group("transfer");
    for (name, cell, nd, buffer) in [
        (
            "sic8_2x1x1",
            sic_supercell((1, 1, 1)).cell,
            cfg.nd,
            cfg.buffer,
        ),
        ("h2_1x1x1", Vec3::splat(8.0), (1, 1, 1), 0.0),
    ] {
        let plan = TransferPlan::new(
            cell,
            nd,
            buffer,
            cfg.global_spacing,
            cfg.domain_spacing,
            cfg.ecut,
        );
        let field = plan
            .global_grid()
            .sample(|r| (0.7 * r.x).sin() + 0.2 * r.y - 0.1 * r.z);
        let mut locals: Vec<Vec<f64>> = plan
            .domains()
            .iter()
            .map(|d| vec![0.0; d.grid.len()])
            .collect();
        g.throughput(Throughput::Elements(
            locals.iter().map(|l| l.len() as u64).sum(),
        ));
        g.bench_function(&format!("gather_{name}"), |b| {
            b.iter(|| {
                for (geometry, local) in plan.domains().iter().zip(&mut locals) {
                    geometry.sample_global_field(black_box(&field), local);
                }
                black_box(locals[0][0])
            })
        });
        let rho_of: Vec<Option<&[f64]>> = locals.iter().map(|l| Some(l.as_slice())).collect();
        let mut out = vec![0.0; field.len()];
        g.throughput(Throughput::Elements(out.len() as u64));
        g.bench_function(&format!("recombine_{name}"), |b| {
            b.iter(|| {
                plan.partial_density(black_box(&rho_of), &mut out);
                black_box(out[0])
            })
        });
    }
    g.finish();
}

/// One domain eigensolve of an SCF iteration — the bare-ion Hamiltonian of
/// domain 0, `davidson_iters` sweeps from the same random bands every time
/// (running out of iterations is the normal outcome and costs the same
/// work) — on the repo benchmark's two shapes: the SiC-8 `(2,1,1)` domain
/// (18 bands on 8³) and the whole-cell H₂ domain at the service's band
/// count (3 bands on 8³).
fn bench_davidson(c: &mut Criterion) {
    let cfg = tiny_ldc_config();
    let h2 = AtomicSystem::new(
        Vec3::splat(8.0),
        vec![Element::H, Element::H],
        vec![Vec3::new(3.3, 4.0, 4.0), Vec3::new(4.7, 4.0, 4.0)],
    );
    let mut g = c.benchmark_group("davidson");
    for (name, system, nd, buffer, extra_bands) in [
        (
            "sic8_2x1x1",
            sic_supercell((1, 1, 1)),
            cfg.nd,
            cfg.buffer,
            cfg.extra_bands,
        ),
        (
            "h2_1x1x1",
            h2,
            (1, 1, 1),
            0.0,
            JobSpec::default().ldc_config().extra_bands,
        ),
    ] {
        let plan = TransferPlan::new(
            system.cell,
            nd,
            buffer,
            cfg.global_spacing,
            cfg.domain_spacing,
            cfg.ecut,
        );
        let v_ion = ionic_local_potential(plan.global_grid(), &atoms_of(&system));
        let setup = DomainSetup::on(&plan.domains()[0], &system, extra_bands, &v_ion)
            .expect("domain 0 holds atoms");
        let h = KsHamiltonian::new(&setup.basis, setup.v_ion.clone(), setup.nonlocal.as_ref());
        let psi0 = setup.basis.random_bands(setup.n_bands, 7);
        let mut psi = psi0.clone();
        let mut ew = EigWorkspace::new();
        g.throughput(Throughput::Elements(
            (setup.n_bands * cfg.davidson_iters) as u64,
        ));
        g.bench_function(
            &format!("{name}_{}bands_{}cubed", setup.n_bands, setup.grid.dims().0),
            |b| {
                b.iter(|| {
                    psi.data_mut().copy_from_slice(psi0.data());
                    let _ = black_box(block_davidson_with(
                        black_box(&h),
                        &mut psi,
                        cfg.davidson_iters,
                        cfg.davidson_tol,
                        &mut ew,
                    ));
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench, bench_transfer, bench_davidson);
criterion_main!(benches);
