//! Electron density and Fermi occupations.
//!
//! The chemical potential μ is determined from the total valence-electron
//! count through `N = ∫ρ(r) dr` by Newton–Raphson (Fig 2, Eq. (c) of the
//! paper), with occupations `f(ε) = 2/(1 + exp((ε − μ)/k_B·T))` (spin
//! degeneracy 2, Fermi–Dirac smearing replacing the sharp step Θ for
//! robustness — standard in metallic systems like LiAl).

use crate::pw::{band_panel, PlaneWaveBasis};
use mqmd_linalg::CMatrix;
use mqmd_util::flops::{fft_flops, par_min_len};
use mqmd_util::workspace::Workspace;
use rayon::prelude::*;

/// Occupation solution.
#[derive(Clone, Debug)]
pub struct Occupations {
    /// Chemical potential μ (Hartree).
    pub mu: f64,
    /// Occupation per band, in `[0, 2]`.
    pub f: Vec<f64>,
}

/// Spin-degenerate Fermi–Dirac occupation of one level.
#[inline]
pub fn fermi(eps: f64, mu: f64, kt: f64) -> f64 {
    if kt <= 0.0 {
        return if eps < mu {
            2.0
        } else if eps == mu {
            1.0
        } else {
            0.0
        };
    }
    let x = (eps - mu) / kt;
    // Clamp to avoid exp overflow; the tails are exactly 2 and 0.
    if x > 40.0 {
        0.0
    } else if x < -40.0 {
        2.0
    } else {
        2.0 / (1.0 + x.exp())
    }
}

/// Finds μ such that `Σ_n f(ε_n; μ) = n_electrons` over the supplied levels
/// (Newton–Raphson with bisection safeguarding), then returns the
/// occupations.
///
/// # Panics
/// Panics if `n_electrons` exceeds the capacity `2·len` of the levels.
pub fn fermi_occupations(eigenvalues: &[f64], n_electrons: f64, kt: f64) -> Occupations {
    assert!(n_electrons >= 0.0);
    assert!(
        n_electrons <= 2.0 * eigenvalues.len() as f64 + 1e-9,
        "not enough bands: {} electrons > 2×{} levels",
        n_electrons,
        eigenvalues.len()
    );
    if kt <= 0.0 {
        // Zero temperature: aufbau filling, fractional remainder on the next
        // level (the Θ limit of Eq. (c), resolved deterministically).
        let mut idx: Vec<usize> = (0..eigenvalues.len()).collect();
        // total_cmp: a NaN eigenvalue (upstream solver failure) must sort
        // deterministically, not panic the worker — downstream validation
        // rejects the non-finite density it produces.
        idx.sort_by(|&a, &b| eigenvalues[a].total_cmp(&eigenvalues[b]));
        let mut f = vec![0.0; eigenvalues.len()];
        let mut remaining = n_electrons;
        let mut homo = eigenvalues[idx[0]];
        let mut lumo = None;
        for &i in &idx {
            let take = remaining.min(2.0);
            f[i] = take;
            remaining -= take;
            if take > 0.0 {
                homo = eigenvalues[i];
            } else if lumo.is_none() {
                lumo = Some(eigenvalues[i]);
            }
        }
        // μ in the gap (midpoint) when a gap exists, else at the HOMO.
        let mu = match lumo {
            Some(l) if l > homo => 0.5 * (homo + l),
            _ => homo,
        };
        return Occupations { mu, f };
    }
    let count = |mu: f64| -> f64 { eigenvalues.iter().map(|&e| fermi(e, mu, kt)).sum() };

    // Bracket μ.
    let mut lo = eigenvalues.iter().cloned().fold(f64::INFINITY, f64::min) - 10.0 * kt.max(1.0);
    let mut hi = eigenvalues
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max)
        + 10.0 * kt.max(1.0);
    let mut mu = 0.5 * (lo + hi);
    for _ in 0..200 {
        let n = count(mu);
        let err = n - n_electrons;
        if err.abs() < 1e-12 {
            break;
        }
        if err > 0.0 {
            hi = mu;
        } else {
            lo = mu;
        }
        // Newton step from the analytic derivative dN/dμ = Σ f(2−f)/(2kT).
        if kt > 0.0 {
            let dn: f64 = eigenvalues
                .iter()
                .map(|&e| {
                    let f = fermi(e, mu, kt);
                    f * (2.0 - f) / (2.0 * kt)
                })
                .sum();
            if dn > 1e-14 {
                let newton = mu - err / dn;
                if newton > lo && newton < hi {
                    mu = newton;
                    continue;
                }
            }
        }
        mu = 0.5 * (lo + hi);
    }
    Occupations {
        mu,
        f: eigenvalues.iter().map(|&e| fermi(e, mu, kt)).collect(),
    }
}

/// Builds the real-space density `ρ(r_j) = Σ_n f_n·|ψ_n(r_j)|²` from band
/// coefficients; integrates to `Σ_n f_n` by the basis normalisation.
///
/// Overwrites `out` with the density, borrowing the band panels from `ws`.
/// The occupied bands go to real space a panel at a time, in parallel;
/// their `f_n·|ψ_n|²` are then summed band by band, so the result is
/// bitwise independent of the thread schedule (and of the panel width).
pub fn density_into(
    basis: &PlaneWaveBasis,
    psi: &CMatrix,
    occ: &[f64],
    out: &mut [f64],
    ws: &Workspace,
) {
    assert_eq!(psi.cols(), occ.len());
    let n_grid = basis.grid().len();
    assert_eq!(out.len(), n_grid);
    let occupied = |n: usize| occ[n] > 1e-14;
    // One [grid point][band] block of partial densities per panel.
    let width = band_panel(occ.len());
    let mut partial = ws.borrow_f64(n_grid * occ.len());
    let panel_flops = width as u64 * fft_flops(n_grid as u64);
    partial
        .par_chunks_mut(n_grid * width)
        .with_min_len(par_min_len(panel_flops))
        .enumerate()
        .for_each(|(p, block)| {
            let lanes = block.len() / n_grid;
            let bands = p * width..p * width + lanes;
            if !bands.clone().any(occupied) {
                return;
            }
            let mut real = ws.borrow_c64(n_grid * lanes);
            basis.to_real_panel(psi, bands.clone(), &mut real, None, ws);
            for (o, z) in block.chunks_exact_mut(lanes).zip(real.chunks_exact(lanes)) {
                for ((o, z), n) in o.iter_mut().zip(z).zip(bands.clone()) {
                    if occupied(n) {
                        *o = occ[n] * z.norm_sqr();
                    }
                }
            }
        });
    out.fill(0.0);
    for block in partial.chunks(n_grid * width) {
        let lanes = block.len() / n_grid;
        for (r, row) in out.iter_mut().zip(block.chunks_exact(lanes)) {
            for &v in row {
                *r += v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqmd_grid::UniformGrid3;

    fn density(basis: &PlaneWaveBasis, psi: &CMatrix, occ: &[f64]) -> Vec<f64> {
        let mut rho = vec![0.0; basis.grid().len()];
        density_into(basis, psi, occ, &mut rho, &Workspace::new());
        rho
    }

    #[test]
    fn occupations_sum_to_electron_count() {
        let eps = vec![-0.5, -0.3, -0.1, 0.0, 0.2, 0.4];
        for kt in [0.0, 0.001, 0.01, 0.1] {
            for ne in [2.0, 4.0, 5.0, 7.5] {
                let occ = fermi_occupations(&eps, ne, kt);
                let total: f64 = occ.f.iter().sum();
                assert!((total - ne).abs() < 1e-9, "kt={kt} ne={ne}: {total}");
            }
        }
    }

    #[test]
    fn zero_temperature_fills_lowest() {
        let eps = vec![-1.0, -0.5, 0.0, 0.5];
        let occ = fermi_occupations(&eps, 4.0, 0.0);
        assert!((occ.f[0] - 2.0).abs() < 1e-9);
        assert!((occ.f[1] - 2.0).abs() < 1e-9);
        assert!(occ.f[2] < 1e-9);
        assert!(
            occ.mu > -0.5 && occ.mu < 0.5,
            "μ between HOMO and LUMO: {}",
            occ.mu
        );
    }

    #[test]
    fn occupations_monotone_in_energy() {
        let eps = vec![-0.8, -0.4, -0.2, 0.1, 0.3];
        let occ = fermi_occupations(&eps, 5.0, 0.02);
        for w in occ.f.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn high_temperature_spreads_occupation() {
        let eps = vec![-0.1, 0.0, 0.1];
        let cold = fermi_occupations(&eps, 2.0, 0.001);
        let hot = fermi_occupations(&eps, 2.0, 0.5);
        assert!(
            hot.f[2] > cold.f[2],
            "hot tail {} vs cold {}",
            hot.f[2],
            cold.f[2]
        );
        assert!(hot.f[0] < cold.f[0]);
    }

    #[test]
    fn density_integrates_to_electron_count() {
        let basis = crate::pw::PlaneWaveBasis::new(UniformGrid3::cubic(10, 7.0), 4.0);
        let psi = basis.random_bands(4, 31);
        let occ = vec![2.0, 2.0, 1.5, 0.5];
        let rho = density(&basis, &psi, &occ);
        let total = basis.grid().integrate(&rho);
        assert!((total - 6.0).abs() < 1e-9, "∫ρ = {total}");
        assert!(rho.iter().all(|&r| r >= 0.0), "density non-negative");
    }

    #[test]
    fn empty_bands_contribute_nothing() {
        let basis = crate::pw::PlaneWaveBasis::new(UniformGrid3::cubic(8, 6.0), 3.0);
        let psi = basis.random_bands(3, 37);
        let rho_a = density(&basis, &psi, &[2.0, 0.0, 0.0]);
        let single = CMatrix::from_fn(psi.rows(), 1, |g, _| psi[(g, 0)]);
        let rho_b = density(&basis, &single, &[2.0]);
        for (a, b) in rho_a.iter().zip(&rho_b) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic]
    fn too_few_bands_panics() {
        fermi_occupations(&[0.0], 3.0, 0.01);
    }
}
