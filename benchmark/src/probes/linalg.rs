use super::{time_us, DomainProblem};
use crate::workloads::Layers;
use metascale_qmd::linalg::eigen::zheev;
use metascale_qmd::linalg::gemm::zgemm_dagger_a_into;
use metascale_qmd::linalg::orthonorm::cholesky_orthonormalize_with;
use metascale_qmd::linalg::CMatrix;
use metascale_qmd::util::workspace::Workspace;
use metascale_qmd::util::{Complex64, Xoshiro256pp};
use std::hint::black_box;

/// The dense kernels at the sizes of Davidson's augmented Rayleigh–Ritz
/// step: an `Np × 2Nb` block and its `2Nb × 2Nb` subspace matrix.
pub fn probe(p: &DomainProblem, layers: &mut Layers) {
    let (np, m) = (p.setup.basis.len(), 2 * p.setup.n_bands);
    let mut rng = Xoshiro256pp::seed_from_u64(0x11AA);
    let block = CMatrix::from_fn(np, m, |_, _| Complex64::new(rng.normal(), rng.normal()));
    let ws = Workspace::new();

    let mut sub = CMatrix::zeros(m, m);
    layers.set(
        "linalg.zgemm_dagger_us_p50",
        time_us(|| zgemm_dagger_a_into(black_box(&block), &block, &mut sub, &ws)),
    );
    // `sub` = block†·block is Hermitian, the shape and conditioning zheev
    // sees in the solver.
    layers.set(
        "linalg.zheev_us_p50",
        time_us(|| {
            black_box(zheev(black_box(&sub)).expect("Hermitian input"));
        }),
    );
    let mut work = block.clone();
    layers.set(
        "linalg.chol_orthonorm_us_p50",
        time_us(|| {
            work.data_mut().copy_from_slice(block.data());
            black_box(cholesky_orthonormalize_with(&mut work, &ws).expect("full-rank block"));
        }),
    );
}
