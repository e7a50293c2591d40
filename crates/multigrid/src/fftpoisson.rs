//! FFT-based periodic Poisson reference solver.
//!
//! In reciprocal space `∇²V = −4πρ` becomes `−G²·V(G) = −4π·ρ(G)`, so
//! `V(G) = 4π·ρ(G)/G²` with the `G = 0` (uniform-background) component set to
//! zero — the standard jellium-compensated convention for charged periodic
//! systems. Spectral accuracy makes it the verification oracle for the
//! multigrid solver, and it doubles as the in-domain Hartree path of the
//! plane-wave solver in `mqmd-dft`.

use mqmd_fft::freq::g_norm_sqr;
use mqmd_fft::Fft3d;
use mqmd_grid::UniformGrid3;
use mqmd_util::workspace::Workspace;
use mqmd_util::Complex64;

/// A planned FFT Poisson solver bound to one grid.
pub struct FftPoisson {
    grid: UniformGrid3,
    fft: Fft3d,
}

impl FftPoisson {
    /// Plans a solver for the given grid.
    pub fn new(grid: UniformGrid3) -> Self {
        let (nx, ny, nz) = grid.dims();
        Self {
            grid,
            fft: Fft3d::new(nx, ny, nz),
        }
    }

    /// The grid this solver is bound to.
    pub fn grid(&self) -> &UniformGrid3 {
        &self.grid
    }

    /// Solves `∇²V = −4πρ` for the Hartree potential `V` (zero mean): writes
    /// the potential into `out`, borrowing the complex FFT field from `ws`.
    pub fn hartree_into(&self, rho: &[f64], out: &mut [f64], ws: &Workspace) {
        let _span = mqmd_util::trace::span("poisson");
        assert_eq!(rho.len(), self.grid.len());
        assert_eq!(out.len(), self.grid.len());
        let mut data = ws.borrow_c64(self.grid.len());
        for (z, &x) in data.iter_mut().zip(rho) {
            *z = Complex64::from_re(x);
        }
        self.fft.forward_with(&mut data, ws);
        self.apply_greens_function(&mut data);
        self.fft.inverse_with(&mut data, ws);
        for (o, z) in out.iter_mut().zip(data.iter()) {
            *o = z.re;
        }
    }

    /// Multiplies by the periodic Coulomb Green's function `4π/G²` in place
    /// (`G = 0` zeroed).
    fn apply_greens_function(&self, data: &mut [Complex64]) {
        let (nx, ny, nz) = self.grid.dims();
        let lens = self.grid.lengths();
        for ix in 0..nx {
            for iy in 0..ny {
                for iz in 0..nz {
                    let idx = self.fft.index(ix, iy, iz);
                    let g2 = g_norm_sqr((ix, iy, iz), (nx, ny, nz), lens);
                    if g2 == 0.0 {
                        data[idx] = Complex64::ZERO;
                    } else {
                        data[idx] = data[idx].scale(4.0 * std::f64::consts::PI / g2);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::TAU;

    fn hartree(solver: &FftPoisson, rho: &[f64]) -> Vec<f64> {
        let mut v = vec![0.0; rho.len()];
        solver.hartree_into(rho, &mut v, &Workspace::new());
        v
    }

    #[test]
    fn single_mode_analytic() {
        // ρ = cos(Gx) → V = (4π/G²)·cos(Gx).
        let l = 7.0;
        let g = UniformGrid3::cubic(16, l);
        let gx = TAU / l;
        let rho = g.sample(|r| (gx * r.x).cos());
        let solver = FftPoisson::new(g.clone());
        let v = hartree(&solver, &rho);
        let scale = 4.0 * std::f64::consts::PI / (gx * gx);
        let expect = g.sample(|r| scale * (gx * r.x).cos());
        for (a, b) in v.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn solution_satisfies_poisson_spectrally() {
        let g = UniformGrid3::cubic(16, 5.0);
        let mut rng = mqmd_util::Xoshiro256pp::seed_from_u64(3);
        let mut rho: Vec<f64> = (0..g.len()).map(|_| rng.normal()).collect();
        // Zero-mean (jellium) density.
        crate::stencil::remove_mean(&mut rho);
        let solver = FftPoisson::new(g.clone());
        let v = hartree(&solver, &rho);
        // Check in reciprocal space: −G²·V(G) = −4π·ρ(G) for all G ≠ 0.
        let fft = mqmd_fft::Fft3d::cubic(16);
        let mut vg: Vec<Complex64> = v.iter().map(|&x| Complex64::from_re(x)).collect();
        let mut rg: Vec<Complex64> = rho.iter().map(|&x| Complex64::from_re(x)).collect();
        fft.forward(&mut vg);
        fft.forward(&mut rg);
        for ix in 0..16 {
            for iy in 0..16 {
                for iz in 0..16 {
                    let g2 = g_norm_sqr((ix, iy, iz), (16, 16, 16), g.lengths());
                    if g2 == 0.0 {
                        continue;
                    }
                    let lhs = vg[fft.index(ix, iy, iz)].scale(g2);
                    let rhs = rg[fft.index(ix, iy, iz)].scale(4.0 * std::f64::consts::PI);
                    assert!((lhs - rhs).abs() < 1e-6 * (1.0 + rhs.abs()));
                }
            }
        }
    }

    #[test]
    fn output_has_zero_mean() {
        let g = UniformGrid3::cubic(8, 4.0);
        let rho = g.sample(|r| r.x * r.y * 0.1 + 1.0);
        let v = hartree(&FftPoisson::new(g), &rho);
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean.abs() < 1e-10);
    }
}
