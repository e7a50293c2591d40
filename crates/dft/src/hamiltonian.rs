//! The Kohn–Sham Hamiltonian `H = −½∇² + V_loc(r) + V_nl` and its
//! application to wave functions.
//!
//! Two application paths mirror the paper's §3.4 transformation:
//!
//! * **BLAS2 / band-by-band** ([`KsHamiltonian::apply_band`]) — one band at a
//!   time, projector overlaps as matrix–vector products;
//! * **BLAS3 / all-band** ([`KsHamiltonian::apply`]) — all bands at once, the
//!   nonlocal part evaluated exactly as Eq. (5): `V_nl·Ψ = B·D·(B†·Ψ)` with
//!   the projector matrix `B (Np × N_proj)` packed column-wise.
//!
//! Both must agree to machine precision; the ablation bench measures their
//! speed difference.

use crate::pw::{band_panel, PlaneWaveBasis};
use crate::species::Pseudopotential;
use mqmd_linalg::gemm::{zgemm, zgemm_dagger_a_into};
use mqmd_linalg::CMatrix;
use mqmd_util::flops::{fft_flops, par_min_len};
use mqmd_util::workspace::Workspace;
use mqmd_util::{Complex64, Vec3};
use rayon::prelude::*;

/// Separable nonlocal pseudopotential data: `V_nl = Σ_p |b_p⟩ d_p ⟨b_p|`
/// — the `B·D·B†` of the paper's Eq. (5), with one column per (atom,
/// angular-momentum) channel.
pub struct Nonlocal {
    /// Projector matrix, `Np × N_proj`, columns normalised.
    pub b: CMatrix,
    /// Diagonal strengths `d_p` (Hartree).
    pub d: Vec<f64>,
    /// Atom index owning each projector column (for the force term).
    pub owner: Vec<usize>,
}

/// A Kohn–Sham Hamiltonian bound to a basis, with the *total* local
/// potential sampled on the real-space grid.
pub struct KsHamiltonian<'a> {
    basis: &'a PlaneWaveBasis,
    /// Total local potential (ionic local + Hartree + XC + any boundary
    /// potential) on the grid (Hartree). Public so SCF loops can update it
    /// in place between iterations without rebuilding the Hamiltonian (the
    /// projectors in `nonlocal` depend only on the ionic geometry).
    pub v_local: Vec<f64>,
    /// Optional separable nonlocal channel, borrowed so callers can build
    /// the projector matrix once per geometry and reuse it across SCF
    /// iterations.
    pub nonlocal: Option<&'a Nonlocal>,
}

impl<'a> KsHamiltonian<'a> {
    /// Creates a Hamiltonian from a local potential field (and optional
    /// nonlocal projectors).
    pub fn new(
        basis: &'a PlaneWaveBasis,
        v_local: Vec<f64>,
        nonlocal: Option<&'a Nonlocal>,
    ) -> Self {
        assert_eq!(v_local.len(), basis.grid().len());
        Self {
            basis,
            v_local,
            nonlocal,
        }
    }

    /// The basis this Hamiltonian acts on.
    pub fn basis(&self) -> &PlaneWaveBasis {
        self.basis
    }

    /// All-band application `H·Ψ` (BLAS3 path, paper Eq. (5)).
    pub fn apply(&self, psi: &CMatrix) -> CMatrix {
        let ws = Workspace::new();
        let mut out = CMatrix::zeros(psi.rows(), psi.cols());
        self.apply_into(psi, &mut out, &ws);
        out
    }

    /// Allocation-free all-band application: overwrites `out` with `H·Ψ`,
    /// borrowing every intermediate (the band panels, the projector overlap
    /// matrix) from `ws`. Bitwise identical to [`Self::apply`].
    pub fn apply_into(&self, psi: &CMatrix, out: &mut CMatrix, ws: &Workspace) {
        let _span = mqmd_util::trace::span("hamiltonian");
        let np = self.basis.len();
        let nb = psi.cols();
        assert_eq!(psi.rows(), np);
        assert_eq!(out.rows(), np);
        assert_eq!(out.cols(), nb);
        out.data_mut().fill(Complex64::ZERO);

        // Kinetic: diagonal in G.
        self.basis.add_kinetic(psi, out);

        // Local: per panel of bands, sphere → grid, V_loc·, grid → sphere,
        // parallel over panels. Each writes its own `Np × lanes` block, and
        // the blocks are added to `out` afterwards, in order.
        let grid_len = self.basis.grid().len();
        let width = band_panel(nb);
        let mut local = ws.borrow_c64(np * nb);
        let panel_flops = 2 * width as u64 * fft_flops(grid_len as u64);
        local
            .par_chunks_mut(np * width)
            .with_min_len(par_min_len(panel_flops))
            .enumerate()
            .for_each(|(p, block)| {
                let lanes = block.len() / np;
                let bands = p * width..p * width + lanes;
                let mut real = ws.borrow_c64(grid_len * lanes);
                self.basis
                    .to_real_panel(psi, bands, &mut real, Some(&self.v_local), ws);
                mqmd_util::flops::count_flops((2 * grid_len * lanes) as u64);
                self.basis.to_recip_panel(&mut real, lanes, block, ws);
            });
        for (p, block) in local.chunks(np * width).enumerate() {
            let lanes = block.len() / np;
            for (g, row) in block.chunks_exact(lanes).enumerate() {
                for (l, &v) in row.iter().enumerate() {
                    out[(g, p * width + l)] += v;
                }
            }
        }
        drop(local);

        // Nonlocal: B·D·(B†·Ψ) — two BLAS3 calls, overlap matrix pooled.
        if let Some(nl) = self.nonlocal {
            let nproj = nl.d.len();
            let mut p = CMatrix::from_vec(nproj, nb, ws.take_c64(nproj * nb));
            zgemm_dagger_a_into(&nl.b, psi, &mut p, ws); // N_proj × Nb
            for (i, &di) in nl.d.iter().enumerate() {
                for n in 0..nb {
                    p[(i, n)] = p[(i, n)].scale(di);
                }
            }
            zgemm(Complex64::ONE, &nl.b, &p, Complex64::ONE, out);
            ws.give_c64(p.into_data());
        }
    }

    /// Single-band application `H·ψ` (BLAS2 path).
    pub fn apply_band(&self, band: &[Complex64]) -> Vec<Complex64> {
        let ws = Workspace::new();
        let mut out = vec![Complex64::ZERO; band.len()];
        self.apply_band_into(band, &mut out, &ws);
        out
    }

    /// Allocation-free single-band application: overwrites `out` with `H·ψ`,
    /// borrowing FFT intermediates from `ws`. Bitwise identical to
    /// [`Self::apply_band`].
    #[allow(clippy::needless_range_loop)] // lockstep walk of b, band, out
    pub fn apply_band_into(&self, band: &[Complex64], out: &mut [Complex64], ws: &Workspace) {
        let _span = mqmd_util::trace::span("hamiltonian");
        let np = self.basis.len();
        assert_eq!(band.len(), np);
        assert_eq!(out.len(), np);
        for ((o, c), &g2) in out.iter_mut().zip(band).zip(self.basis.g2()) {
            *o = c.scale(0.5 * g2);
        }
        {
            let mut real = ws.borrow_c64(self.basis.grid().len());
            self.basis.to_real_into(band, &mut real, ws);
            for (z, &v) in real.iter_mut().zip(&self.v_local) {
                *z = z.scale(v);
            }
            mqmd_util::flops::count_flops(2 * real.len() as u64);
            let mut local = ws.borrow_c64(np);
            self.basis.to_recip_into(&real, &mut local, ws);
            for (o, l) in out.iter_mut().zip(local.iter()) {
                *o += *l;
            }
        }
        if let Some(nl) = self.nonlocal {
            let nproj = nl.d.len();
            for p_idx in 0..nproj {
                // ⟨b_p|ψ⟩ then out += d_p·⟨b_p|ψ⟩·|b_p⟩ — vector ops only.
                let mut overlap = Complex64::ZERO;
                for g in 0..np {
                    overlap = overlap.mul_add(nl.b[(g, p_idx)].conj(), band[g]);
                }
                let s = overlap.scale(nl.d[p_idx]);
                for g in 0..np {
                    let b = nl.b[(g, p_idx)];
                    out[g] = out[g].mul_add(s, b);
                }
                mqmd_util::flops::count_flops(16 * np as u64);
            }
        }
    }

    /// Rayleigh quotient `⟨ψ|H|ψ⟩` of a normalised band.
    pub fn expectation(&self, band: &[Complex64]) -> f64 {
        let h_band = self.apply_band(band);
        band.iter()
            .zip(&h_band)
            .map(|(c, h)| (c.conj() * *h).re)
            .sum()
    }

    /// Approximate diagonal of H in the plane-wave basis (kinetic + mean
    /// local potential + nonlocal diagonal), used by preconditioners and
    /// diagnostics.
    #[allow(clippy::needless_range_loop)]
    pub fn diagonal_estimate(&self) -> Vec<f64> {
        let v_mean = self.v_local.iter().sum::<f64>() / self.v_local.len() as f64;
        let mut diag: Vec<f64> = self
            .basis
            .g2()
            .iter()
            .map(|&g2| 0.5 * g2 + v_mean)
            .collect();
        if let Some(nl) = &self.nonlocal {
            for (p_idx, &dp) in nl.d.iter().enumerate() {
                for g in 0..self.basis.len() {
                    diag[g] += dp * nl.b[(g, p_idx)].norm_sqr();
                }
            }
        }
        diag
    }
}

/// Builds the ionic local potential on a periodic grid for a set of atoms:
/// `V(r) = (1/V)·Σ_G [Σ_I v̂_I(G)·e^{−iG·R_I}]·e^{iG·r}`.
///
/// Takes the grid (not a basis): the LDC path evaluates this once on the
/// *global* grid and samples it onto domain grids, exactly like V_Hxc — the
/// `V_ion` of the paper's Eq. (3) is a global quantity.
pub fn ionic_local_potential(
    grid: &mqmd_grid::UniformGrid3,
    atoms: &[(Pseudopotential, Vec3)],
) -> Vec<f64> {
    let (nx, ny, nz) = grid.dims();
    let lens = grid.lengths();
    let fft = mqmd_fft::Fft3d::new(nx, ny, nz);
    let mut field = vec![Complex64::ZERO; grid.len()];
    for ix in 0..nx {
        for iy in 0..ny {
            for iz in 0..nz {
                let g = Vec3::new(
                    mqmd_fft::freq::bin_g(ix, nx, lens.0),
                    mqmd_fft::freq::bin_g(iy, ny, lens.1),
                    mqmd_fft::freq::bin_g(iz, nz, lens.2),
                );
                let g2 = g.norm_sqr();
                let mut acc = Complex64::ZERO;
                for (psp, r) in atoms {
                    acc += Complex64::cis(-g.dot(*r)).scale(psp.vloc_g(g2));
                }
                field[fft.index(ix, iy, iz)] = acc;
            }
        }
    }
    fft.inverse(&mut field);
    let scale = grid.len() as f64 / grid.volume();
    field.into_iter().map(|z| z.re * scale).collect()
}

/// Builds normalised Gaussian Kleinman–Bylander projectors for every atom
/// with an active nonlocal channel: one s column
/// `b(G) ∝ exp(−G²r²/4)·e^{−iG·R}` per atom with `d0 ≠ 0`, plus three
/// p columns `b_m(G) ∝ G_m·exp(−G²r²/4)·e^{−iG·R}` per atom with `d1 ≠ 0`
/// — the multi-angular-momentum structure of the paper's Eq. (4) packed
/// into Eq. (5)'s matrix form.
pub fn build_projectors(
    basis: &PlaneWaveBasis,
    atoms: &[(Pseudopotential, Vec3)],
) -> Option<Nonlocal> {
    let n_cols: usize = atoms.iter().map(|(p, _)| p.n_projectors()).sum();
    if n_cols == 0 {
        return None;
    }
    let np = basis.len();
    let mut b = CMatrix::zeros(np, n_cols);
    let mut d = Vec::with_capacity(n_cols);
    let mut owner = Vec::with_capacity(n_cols);
    let mut col = 0;

    // Fill one column from a radial profile evaluated per G, normalised.
    let fill = |col: usize, b: &mut CMatrix, profile: &dyn Fn(usize) -> f64, r: Vec3| {
        let mut norm = 0.0;
        for g in 0..np {
            let p = profile(g);
            norm += p * p;
        }
        let inv_norm = 1.0 / norm.sqrt().max(1e-300);
        for g in 0..np {
            let p = profile(g) * inv_norm;
            b[(g, col)] = Complex64::cis(-basis.g_vectors()[g].dot(r)).scale(p);
        }
    };

    for (atom_idx, (psp, r)) in atoms.iter().enumerate() {
        if psp.d0 != 0.0 {
            fill(col, &mut b, &|g| psp.projector_g(basis.g2()[g]), *r);
            d.push(psp.d0);
            owner.push(atom_idx);
            col += 1;
        }
        if psp.d1 != 0.0 {
            for axis in 0..3usize {
                fill(
                    col,
                    &mut b,
                    &|g| basis.g_vectors()[g][axis] * psp.projector_g(basis.g2()[g]),
                    *r,
                );
                d.push(psp.d1);
                owner.push(atom_idx);
                col += 1;
            }
        }
    }
    debug_assert_eq!(col, n_cols);
    Some(Nonlocal { b, d, owner })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqmd_grid::UniformGrid3;
    use mqmd_util::constants::Element;

    fn basis() -> PlaneWaveBasis {
        PlaneWaveBasis::new(UniformGrid3::cubic(12, 9.0), 5.0)
    }

    fn si_dimer(b: &PlaneWaveBasis) -> Vec<(Pseudopotential, Vec3)> {
        let _ = b;
        let p = Pseudopotential::for_element(Element::Si);
        vec![(p, Vec3::new(2.0, 4.5, 4.5)), (p, Vec3::new(6.2, 4.5, 4.5))]
    }

    #[test]
    fn blas2_and_blas3_paths_agree() {
        let b = basis();
        let atoms = si_dimer(&b);
        let v = ionic_local_potential(b.grid(), &atoms);
        let nl = build_projectors(&b, &atoms);
        let h = KsHamiltonian::new(&b, v, nl.as_ref());
        let psi = b.random_bands(4, 3);
        let all = h.apply(&psi);
        for n in 0..4 {
            let one = h.apply_band(&psi.col(n));
            for g in 0..b.len() {
                assert!((all[(g, n)] - one[g]).abs() < 1e-10, "band {n} g {g}");
            }
        }
    }

    /// The workspace-borrowing application paths must be *bitwise* identical
    /// to the owned-return paths, including when the workspace is reused
    /// across repeated applications (warm buffers must be unobservable).
    #[test]
    fn apply_into_matches_owned_paths_bitwise() {
        let b = basis();
        let atoms = si_dimer(&b);
        let v = ionic_local_potential(b.grid(), &atoms);
        let nl = build_projectors(&b, &atoms);
        let h = KsHamiltonian::new(&b, v, nl.as_ref());
        let psi = b.random_bands(4, 17);
        let ws = Workspace::new();
        let mut out = CMatrix::zeros(b.len(), 4);
        let mut band_out = vec![Complex64::ZERO; b.len()];
        for rep in 0..3 {
            let owned = h.apply(&psi);
            h.apply_into(&psi, &mut out, &ws);
            for (i, (a, p)) in owned.data().iter().zip(out.data()).enumerate() {
                assert!(
                    a.re.to_bits() == p.re.to_bits() && a.im.to_bits() == p.im.to_bits(),
                    "apply rep {rep} entry {i}: {a:?} vs {p:?}"
                );
            }
            for n in 0..psi.cols() {
                let band = psi.col(n);
                let owned_b = h.apply_band(&band);
                h.apply_band_into(&band, &mut band_out, &ws);
                for (g, (a, p)) in owned_b.iter().zip(&band_out).enumerate() {
                    assert!(
                        a.re.to_bits() == p.re.to_bits() && a.im.to_bits() == p.im.to_bits(),
                        "apply_band rep {rep} band {n} g {g}"
                    );
                }
            }
        }
        assert!(
            ws.stats().snapshot().hits > 0,
            "repeated applications must reuse pooled buffers"
        );
    }

    #[test]
    fn hamiltonian_is_hermitian() {
        let b = basis();
        let atoms = si_dimer(&b);
        let v = ionic_local_potential(b.grid(), &atoms);
        let nl = build_projectors(&b, &atoms);
        let h = KsHamiltonian::new(&b, v, nl.as_ref());
        let psi = b.random_bands(2, 7);
        let phi = psi.col(0);
        let chi = psi.col(1);
        let h_chi = h.apply_band(&chi);
        let h_phi = h.apply_band(&phi);
        let lhs: Complex64 = phi.iter().zip(&h_chi).map(|(a, b)| a.conj() * *b).sum();
        let rhs: Complex64 = h_phi.iter().zip(&chi).map(|(a, b)| a.conj() * *b).sum();
        assert!(
            (lhs - rhs).abs() < 1e-10,
            "⟨φ|Hχ⟩ = {lhs} vs ⟨Hφ|χ⟩ = {rhs}"
        );
    }

    #[test]
    fn free_electron_eigenvalues() {
        // Zero potential: plane waves are exact eigenstates with ε = ½G².
        let b = basis();
        let h = KsHamiltonian::new(&b, vec![0.0; b.grid().len()], None);
        for gi in [0usize, 1, 5, 20] {
            let mut band = vec![Complex64::ZERO; b.len()];
            band[gi] = Complex64::ONE;
            let e = h.expectation(&band);
            assert!((e - 0.5 * b.g2()[gi]).abs() < 1e-10);
        }
    }

    #[test]
    fn constant_potential_shifts_spectrum() {
        let b = basis();
        let shift = 0.37;
        let h0 = KsHamiltonian::new(&b, vec![0.0; b.grid().len()], None);
        let h1 = KsHamiltonian::new(&b, vec![shift; b.grid().len()], None);
        let psi = b.random_bands(1, 21);
        let band = psi.col(0);
        let e0 = h0.expectation(&band);
        let e1 = h1.expectation(&band);
        assert!((e1 - e0 - shift).abs() < 1e-9);
    }

    #[test]
    fn ionic_potential_attractive_shell_around_atom() {
        // Model pseudopotentials are repulsive at the very nucleus (the
        // Gaussian core correction) but attractive in the bonding shell —
        // check the shell at ~1.5 Bohr is well below the cell average.
        let b = basis();
        let atoms = si_dimer(&b);
        let v = ionic_local_potential(b.grid(), &atoms);
        let grid = b.grid();
        let shell = grid.interpolate(&v, atoms[0].1 + Vec3::new(0.0, 1.5, 0.0));
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        assert!(shell < mean - 0.5, "shell {shell} vs mean {mean}");
        // And the global minimum sits near one of the atoms.
        let (imin, _) = v
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        let (ix, iy, iz) = grid.coords(imin);
        let rmin = grid.position(ix, iy, iz);
        let dist = atoms
            .iter()
            .map(|(_, r)| (rmin - *r).min_image(grid.lengths_vec()).norm())
            .fold(f64::INFINITY, f64::min);
        assert!(
            dist < 3.0,
            "potential minimum {dist} Bohr from nearest atom"
        );
    }

    #[test]
    fn ionic_potential_is_real_and_periodic_symmetric() {
        // A single atom at the cell centre gives a potential symmetric under
        // reflection through the centre.
        let b = basis();
        let p = Pseudopotential::for_element(Element::Al);
        let centre = Vec3::splat(4.5);
        let v = ionic_local_potential(b.grid(), &[(p, centre)]);
        let g = b.grid();
        let (nx, ny, nz) = g.dims();
        for ix in 0..nx {
            let jx = (nx - ix) % nx;
            for iy in 0..ny {
                let jy = (ny - iy) % ny;
                for iz in 0..nz {
                    let jz = (nz - iz) % nz;
                    // reflection through the atom at grid position (nx/2,…):
                    // v(i) = v(2c − i) with c = n/2 → index (n − i + 2c mod n)
                    let a = v[g.index(ix, iy, iz)];
                    let bb = v[g.index((jx + nx) % nx, (jy + ny) % ny, (jz + nz) % nz)];
                    assert!((a - bb).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn projectors_are_normalised() {
        let b = basis();
        let atoms = si_dimer(&b);
        let nl = build_projectors(&b, &atoms).expect("Si has nonlocal channels");
        // Si has s + 3p channels per atom.
        assert_eq!(nl.d.len(), 8);
        assert_eq!(nl.owner, vec![0, 0, 0, 0, 1, 1, 1, 1]);
        for col in 0..nl.d.len() {
            let norm: f64 = (0..b.len()).map(|g| nl.b[(g, col)].norm_sqr()).sum();
            assert!((norm - 1.0).abs() < 1e-12, "column {col}: {norm}");
        }
    }

    #[test]
    fn s_and_p_projectors_are_orthogonal() {
        // ⟨b_s|b_px⟩ ∝ Σ_G G_x·|p(G)|² = 0 by parity on the symmetric grid.
        let b = basis();
        let p = Pseudopotential::for_element(Element::Si);
        let nl = build_projectors(&b, &[(p, Vec3::splat(4.5))]).unwrap();
        for pcol in 1..4 {
            let mut overlap = Complex64::ZERO;
            for g in 0..b.len() {
                overlap += nl.b[(g, 0)].conj() * nl.b[(g, pcol)];
            }
            assert!(overlap.abs() < 1e-10, "s·p{pcol} overlap {overlap}");
        }
    }

    #[test]
    fn hydrogen_only_system_has_no_projectors() {
        let b = basis();
        let p = Pseudopotential::for_element(Element::H);
        assert!(build_projectors(&b, &[(p, Vec3::splat(4.0))]).is_none());
    }
}
