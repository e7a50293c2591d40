//! Plane-wave basis over a periodic orthorhombic cell.
//!
//! A wave function is expanded as `ψ(r) = (1/√V)·Σ_G c_G·e^{iG·r}` over all
//! reciprocal-lattice vectors with kinetic energy `|G|²/2 ≤ E_cut`. The
//! coefficient vector is the `Np`-element representation the paper's §3.4
//! packs band-wise into `Np × Nband` matrices; transforms to and from the
//! real-space grid go through `mqmd-fft`.

use mqmd_fft::freq::g_norm_sqr;
use mqmd_fft::{Fft3d, Pruning};
use mqmd_grid::UniformGrid3;
use mqmd_linalg::CMatrix;
use mqmd_util::workspace::Workspace;
use mqmd_util::{Complex64, Vec3};
use std::ops::Range;

/// Most bands the all-band paths (`H·Ψ`, the density) transform together:
/// one `[grid point][band]` panel of up to this many lanes per FFT call.
/// Measured (EXPERIMENTS "Batched, pruned wavefunction FFT"): on the 8³
/// domain grid a band costs less the wider its panel, up to the widest tried
/// (18 lanes against 9 and 6: −10 %, −18 %); on 16×8×8, two panels of 14
/// beat one of 28 by 4 %; on 16³ to 32³ grids 8 to 24 lanes differ by no
/// more than the run-to-run spread, and wider is slower.
const BAND_PANEL: usize = 24;

/// Lanes per panel for `n_bands` bands: the fewest panels of at most
/// `BAND_PANEL` lanes, of equal width — 28 bands are 14 + 14, not 24 + 4:
/// a narrow panel costs more per band, and equal panels share out evenly
/// between threads.
pub fn band_panel(n_bands: usize) -> usize {
    n_bands.div_ceil(n_bands.div_ceil(BAND_PANEL).max(1)).max(1)
}

/// A plane-wave basis bound to one grid and kinetic-energy cutoff.
pub struct PlaneWaveBasis {
    grid: UniformGrid3,
    fft: Fft3d,
    /// The FFT lines the cutoff sphere makes necessary.
    pruning: Pruning,
    ecut: f64,
    /// Flat grid index of each basis G-vector.
    grid_index: Vec<usize>,
    /// Cartesian G-vectors (Bohr⁻¹).
    g_vectors: Vec<Vec3>,
    /// Squared magnitudes |G|².
    g2: Vec<f64>,
}

impl PlaneWaveBasis {
    /// Builds the basis of all grid-representable plane waves with
    /// `|G|²/2 ≤ ecut` (Hartree).
    pub fn new(grid: UniformGrid3, ecut: f64) -> Self {
        assert!(ecut > 0.0);
        let (nx, ny, nz) = grid.dims();
        let lens = grid.lengths();
        let fft = Fft3d::new(nx, ny, nz);
        let mut grid_index = Vec::new();
        let mut g_vectors = Vec::new();
        let mut g2s = Vec::new();
        for ix in 0..nx {
            for iy in 0..ny {
                for iz in 0..nz {
                    let g2 = g_norm_sqr((ix, iy, iz), (nx, ny, nz), lens);
                    if 0.5 * g2 <= ecut {
                        grid_index.push(fft.index(ix, iy, iz));
                        g_vectors.push(Vec3::new(
                            mqmd_fft::freq::bin_g(ix, nx, lens.0),
                            mqmd_fft::freq::bin_g(iy, ny, lens.1),
                            mqmd_fft::freq::bin_g(iz, nz, lens.2),
                        ));
                        g2s.push(g2);
                    }
                }
            }
        }
        Self {
            grid,
            pruning: fft.pruning(&grid_index),
            fft,
            ecut,
            grid_index,
            g_vectors,
            g2: g2s,
        }
    }

    /// The real-space grid.
    pub fn grid(&self) -> &UniformGrid3 {
        &self.grid
    }

    /// Kinetic-energy cutoff (Hartree).
    pub fn ecut(&self) -> f64 {
        self.ecut
    }

    /// Number of plane waves `Np`.
    pub fn len(&self) -> usize {
        self.grid_index.len()
    }

    /// True when no plane wave fits the cutoff (impossible: G = 0 always
    /// qualifies).
    pub fn is_empty(&self) -> bool {
        self.grid_index.is_empty()
    }

    /// Squared magnitudes |G|² per basis vector.
    pub fn g2(&self) -> &[f64] {
        &self.g2
    }

    /// Cartesian G-vectors per basis member.
    pub fn g_vectors(&self) -> &[Vec3] {
        &self.g_vectors
    }

    /// Transforms one coefficient vector to real space:
    /// `ψ(r_j) = (1/√V)·Σ_G c_G·e^{iG·r_j}` on the grid.
    pub fn to_real(&self, coeffs: &[Complex64]) -> Vec<Complex64> {
        let mut data = vec![Complex64::ZERO; self.grid.len()];
        let ws = Workspace::new();
        self.to_real_into(coeffs, &mut data, &ws);
        data
    }

    /// Allocation-free form of [`Self::to_real`]: writes the real-space field
    /// into `out` (one grid's worth) and borrows FFT scratch from `ws`.
    pub fn to_real_into(&self, coeffs: &[Complex64], out: &mut [Complex64], ws: &Workspace) {
        assert_eq!(coeffs.len(), self.len());
        out.fill(Complex64::ZERO);
        self.real_panel(coeffs, 1, 0..1, out, None, ws);
    }

    /// Real-space panel of the bands `bands` of `psi` (`Np × Nb`): overwrites
    /// the zeroed `[grid point][band]` panel `panel` (a fresh workspace
    /// borrow) with `ψ_n(r_j)`, times `factor[j]` where a real field is
    /// given (the fused `V_loc·ψ`). Each band comes out bitwise as
    /// [`Self::to_real_into`] computes it alone.
    pub fn to_real_panel(
        &self,
        psi: &CMatrix,
        bands: Range<usize>,
        panel: &mut [Complex64],
        factor: Option<&[f64]>,
        ws: &Workspace,
    ) {
        assert_eq!(psi.rows(), self.len());
        assert!(bands.end <= psi.cols());
        self.real_panel(psi.data(), psi.cols(), bands, panel, factor, ws);
    }

    /// [`Self::to_real_panel`] for the lanes `cols` of the rows of `coeffs`
    /// (`stride` values each) — a matrix's data, or one band at stride 1.
    fn real_panel(
        &self,
        coeffs: &[Complex64],
        stride: usize,
        cols: Range<usize>,
        panel: &mut [Complex64],
        factor: Option<&[f64]>,
        ws: &Workspace,
    ) {
        let n = self.grid.len();
        let lanes = cols.len();
        assert_eq!(panel.len(), n * lanes);
        debug_assert!(panel.iter().all(|z| z.re == 0.0 && z.im == 0.0));
        for (row, &gi) in coeffs.chunks_exact(stride).zip(&self.grid_index) {
            panel[gi * lanes..(gi + 1) * lanes].copy_from_slice(&row[cols.clone()]);
        }
        self.fft
            .inverse_batch(panel, lanes, Some(&self.pruning), ws);
        let scale = n as f64 / self.grid.volume().sqrt();
        match factor {
            None => panel.iter_mut().for_each(|z| *z = z.scale(scale)),
            Some(f) => {
                assert_eq!(f.len(), n);
                for (row, &v) in panel.chunks_exact_mut(lanes).zip(f) {
                    row.iter_mut().for_each(|z| *z = z.scale(scale).scale(v));
                }
            }
        }
    }

    /// Projects a real-space function back onto the basis (adjoint of
    /// [`Self::to_real`]): `c_G = (√V/N)·FFT(ψ)_G`.
    pub fn to_recip(&self, real: &[Complex64]) -> Vec<Complex64> {
        let mut out = vec![Complex64::ZERO; self.len()];
        let ws = Workspace::new();
        self.to_recip_into(real, &mut out, &ws);
        out
    }

    /// Allocation-free form of [`Self::to_recip`]: writes the `Np`
    /// coefficients into `out`, borrowing the grid-sized FFT buffer from `ws`.
    pub fn to_recip_into(&self, real: &[Complex64], out: &mut [Complex64], ws: &Workspace) {
        assert_eq!(real.len(), self.grid.len());
        let mut data = ws.borrow_c64(self.grid.len());
        data.copy_from_slice(real);
        self.to_recip_panel(&mut data, 1, out, ws);
    }

    /// Projects the `lanes` fields of the `[grid point][band]` panel `real`
    /// onto the basis, as an `Np × lanes` row-major block in `out`. The
    /// panel is transformed in place and holds nothing of use afterwards.
    /// Each band comes out bitwise as [`Self::to_recip_into`] computes it.
    pub fn to_recip_panel(
        &self,
        real: &mut [Complex64],
        lanes: usize,
        out: &mut [Complex64],
        ws: &Workspace,
    ) {
        assert_eq!(out.len(), self.len() * lanes);
        self.fft.forward_batch(real, lanes, Some(&self.pruning), ws);
        let scale = self.grid.volume().sqrt() / self.grid.len() as f64;
        for (row, &gi) in out.chunks_exact_mut(lanes).zip(&self.grid_index) {
            for (o, z) in row.iter_mut().zip(&real[gi * lanes..(gi + 1) * lanes]) {
                *o = z.scale(scale);
            }
        }
    }

    /// Random normalised starting bands (deterministic given the seed), with
    /// coefficients damped at high |G| so the eigensolver starts smooth.
    ///
    /// Panicking convenience over [`Self::try_random_bands`] for tests and
    /// benches; library paths use the fallible form so a degenerate draw
    /// (or `n_bands > len()`) surfaces as a typed error, not a worker
    /// panic.
    pub fn random_bands(&self, n_bands: usize, seed: u64) -> CMatrix {
        self.try_random_bands(n_bands, seed)
            .expect("random bands are linearly independent with probability 1")
    }

    /// Fallible form of [`Self::random_bands`]: a Cholesky breakdown on
    /// the random draw (measure zero, but possible for `n_bands` close to
    /// the basis size at coarse cutoffs) retries with a reseeded draw
    /// before surfacing a typed error.
    pub fn try_random_bands(&self, n_bands: usize, seed: u64) -> mqmd_util::Result<CMatrix> {
        if n_bands > self.len() {
            return Err(mqmd_util::MqmdError::Invalid(format!(
                "{n_bands} bands exceed basis size {}",
                self.len()
            )));
        }
        let np = self.len();
        let mut last = None;
        for attempt in 0..3u64 {
            let mut rng = mqmd_util::Xoshiro256pp::seed_from_u64(seed ^ (attempt * 0x9E3779B9));
            let mut psi = CMatrix::from_fn(np, n_bands, |g, _| {
                let damp = 1.0 / (1.0 + self.g2[g]);
                Complex64::new(rng.normal() * damp, rng.normal() * damp)
            });
            match mqmd_linalg::orthonorm::cholesky_orthonormalize(&mut psi) {
                Ok(_) => return Ok(psi),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            mqmd_util::MqmdError::Numerical("random band orthonormalisation failed".into())
        }))
    }

    /// Applies the diagonal kinetic operator: `out[g, n] += ½|G|²·ψ[g, n]`.
    pub fn add_kinetic(&self, psi: &CMatrix, out: &mut CMatrix) {
        assert_eq!(psi.rows(), self.len());
        assert_eq!(out.rows(), self.len());
        assert_eq!(psi.cols(), out.cols());
        let nb = psi.cols();
        for g in 0..self.len() {
            let t = 0.5 * self.g2[g];
            for n in 0..nb {
                let v = psi[(g, n)].scale(t);
                out[(g, n)] += v;
            }
        }
        mqmd_util::flops::count_flops((self.len() * nb * 4) as u64);
    }

    /// Kinetic energy expectation `Σ_G ½|G|²·|c_G|²` of one band.
    pub fn kinetic_expectation(&self, band: &[Complex64]) -> f64 {
        band.iter()
            .zip(&self.g2)
            .map(|(c, &g2)| 0.5 * g2 * c.norm_sqr())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn basis() -> PlaneWaveBasis {
        PlaneWaveBasis::new(UniformGrid3::cubic(12, 8.0), 6.0)
    }

    #[test]
    fn g0_is_in_basis_and_count_below_grid() {
        let b = basis();
        assert!(b.len() > 1);
        assert!(b.len() < b.grid().len(), "cutoff must prune the grid");
        assert!(b.g2().contains(&0.0), "G = 0 present");
        for &g2 in b.g2() {
            assert!(0.5 * g2 <= b.ecut() + 1e-12);
        }
    }

    #[test]
    fn round_trip_real_recip() {
        let b = basis();
        let mut rng = mqmd_util::Xoshiro256pp::seed_from_u64(4);
        let coeffs: Vec<Complex64> = (0..b.len())
            .map(|_| Complex64::new(rng.normal(), rng.normal()))
            .collect();
        let real = b.to_real(&coeffs);
        let back = b.to_recip(&real);
        for (a, c) in back.iter().zip(&coeffs) {
            assert!((*a - *c).abs() < 1e-10);
        }
    }

    #[test]
    fn constant_band_is_normalised() {
        let b = basis();
        // c = δ_{G,0} → ψ(r) = 1/√V → ∫|ψ|² dV = 1.
        let mut coeffs = vec![Complex64::ZERO; b.len()];
        let g0 = b.g2().iter().position(|&g| g == 0.0).unwrap();
        coeffs[g0] = Complex64::ONE;
        let real = b.to_real(&coeffs);
        let norm: f64 = real.iter().map(|z| z.norm_sqr()).sum::<f64>() * b.grid().dv();
        assert!((norm - 1.0).abs() < 1e-10);
        let expect = 1.0 / b.grid().volume().sqrt();
        for z in &real {
            assert!((z.re - expect).abs() < 1e-12 && z.im.abs() < 1e-12);
        }
    }

    #[test]
    fn coefficient_norm_equals_real_space_norm() {
        let b = basis();
        let mut rng = mqmd_util::Xoshiro256pp::seed_from_u64(8);
        let coeffs: Vec<Complex64> = (0..b.len())
            .map(|_| Complex64::new(rng.normal(), rng.normal()))
            .collect();
        let c_norm: f64 = coeffs.iter().map(|z| z.norm_sqr()).sum();
        let real = b.to_real(&coeffs);
        let r_norm: f64 = real.iter().map(|z| z.norm_sqr()).sum::<f64>() * b.grid().dv();
        assert!((c_norm - r_norm).abs() < 1e-9 * c_norm);
    }

    #[test]
    fn random_bands_are_orthonormal() {
        let b = basis();
        let psi = b.random_bands(6, 99);
        assert!(mqmd_linalg::orthonorm::orthonormality_defect(&psi) < 1e-10);
    }

    #[test]
    fn kinetic_of_single_plane_wave() {
        let b = basis();
        // Find some G ≠ 0 and check T = |G|²/2.
        let gi = b.g2().iter().position(|&g| g > 0.0).unwrap();
        let mut coeffs = vec![Complex64::ZERO; b.len()];
        coeffs[gi] = Complex64::ONE;
        let t = b.kinetic_expectation(&coeffs);
        assert!((t - 0.5 * b.g2()[gi]).abs() < 1e-14);
    }

    #[test]
    fn add_kinetic_matches_expectation() {
        let b = basis();
        let psi = b.random_bands(3, 12);
        let mut out = CMatrix::zeros(b.len(), 3);
        b.add_kinetic(&psi, &mut out);
        // ⟨ψ_n|T|ψ_n⟩ via the matrix path vs the scalar path.
        for n in 0..3 {
            let band = psi.col(n);
            let expect = b.kinetic_expectation(&band);
            let mut got = 0.0;
            for g in 0..b.len() {
                got += (psi[(g, n)].conj() * out[(g, n)]).re;
            }
            assert!((got - expect).abs() < 1e-10);
        }
    }
}
