//! V-cycle multigrid driver for the periodic Poisson problem.

use crate::smoother::rbgs_sweep;
use crate::stencil::{norm, remove_mean, residual};
use crate::transfer::{coarsen, prolong_add, restrict_into};
use mqmd_grid::UniformGrid3;
use mqmd_util::{workspace, MqmdError, Result};

/// Configuration of the multigrid solver.
#[derive(Clone, Copy, Debug)]
pub struct MgConfig {
    /// Pre-smoothing sweeps per level.
    pub pre_smooth: usize,
    /// Post-smoothing sweeps per level.
    pub post_smooth: usize,
    /// Relaxation sweeps on the coarsest level.
    pub coarse_sweeps: usize,
    /// Smallest grid dimension kept in the hierarchy.
    pub min_dim: usize,
    /// Relative residual reduction target.
    pub tol: f64,
    /// Maximum V-cycles.
    pub max_cycles: usize,
}

impl Default for MgConfig {
    fn default() -> Self {
        Self {
            pre_smooth: 2,
            post_smooth: 2,
            coarse_sweeps: 60,
            min_dim: 4,
            tol: 1e-8,
            max_cycles: 40,
        }
    }
}

/// Convergence report of a multigrid solve.
#[derive(Clone, Copy, Debug)]
pub struct MgReport {
    /// V-cycles executed.
    pub cycles: usize,
    /// Final relative residual ‖f − ∇²u‖ / ‖f‖.
    pub rel_residual: f64,
    /// Geometric-mean per-cycle contraction factor.
    pub contraction: f64,
}

/// Geometric multigrid Poisson solver bound to one periodic grid hierarchy.
pub struct PoissonMultigrid {
    levels: Vec<UniformGrid3>,
    config: MgConfig,
}

/// Per-level scratch of one non-coarsest V-cycle level.
struct LevelBufs {
    r: Vec<f64>,
    coarse_rhs: Vec<f64>,
    coarse_u: Vec<f64>,
}

/// Preplanned scratch for [`PoissonMultigrid::solve_with`]: the residual and
/// coarse-correction buffers of every V-cycle level plus the fine-level
/// rhs/residual pair, allocated once by [`PoissonMultigrid::plan`] and reused
/// across cycles, solves, and SCF iterations.
pub struct MgHierarchy {
    levels: Vec<LevelBufs>,
    rhs: Vec<f64>,
    r: Vec<f64>,
    scratch: Vec<f64>,
    factors: Vec<f64>,
}

impl PoissonMultigrid {
    /// Builds the grid hierarchy under the given fine grid.
    pub fn new(fine: UniformGrid3, config: MgConfig) -> Self {
        let mut levels = vec![fine];
        loop {
            let g = levels.last().expect("at least the fine level");
            let (nx, ny, nz) = g.dims();
            if nx % 2 != 0 || ny % 2 != 0 || nz % 2 != 0 {
                break;
            }
            if nx / 2 < config.min_dim || ny / 2 < config.min_dim || nz / 2 < config.min_dim {
                break;
            }
            levels.push(coarsen(g));
        }
        Self { levels, config }
    }

    /// Builds with default configuration.
    pub fn with_defaults(fine: UniformGrid3) -> Self {
        Self::new(fine, MgConfig::default())
    }

    /// Number of levels in the hierarchy (≥ 1).
    pub fn levels(&self) -> usize {
        self.levels.len()
    }

    /// Plans the per-level scratch buffers for [`Self::solve_with`] /
    /// [`Self::hartree_with`]. Build once per solver, reuse across solves.
    pub fn plan(&self) -> MgHierarchy {
        let mut bufs = Vec::with_capacity(self.levels.len().saturating_sub(1));
        let mut doubles = 3 * self.levels[0].len();
        for w in self.levels.windows(2) {
            doubles += w[0].len() + 2 * w[1].len();
            bufs.push(LevelBufs {
                r: vec![0.0; w[0].len()],
                coarse_rhs: vec![0.0; w[1].len()],
                coarse_u: vec![0.0; w[1].len()],
            });
        }
        workspace::record_plan_alloc((doubles * size_of::<f64>()) as u64);
        MgHierarchy {
            levels: bufs,
            rhs: vec![0.0; self.levels[0].len()],
            r: vec![0.0; self.levels[0].len()],
            scratch: vec![0.0; self.levels[0].len()],
            factors: Vec::new(),
        }
    }

    /// Solves `∇²u = f` (periodic, `f` projected to zero mean), writing the
    /// zero-mean solution into `u` (used as the initial guess). All
    /// per-level scratch comes from a hierarchy planned by [`Self::plan`].
    pub fn solve_with(&self, u: &mut [f64], f: &[f64], hier: &mut MgHierarchy) -> Result<MgReport> {
        let fine = &self.levels[0];
        assert_eq!(u.len(), fine.len());
        assert_eq!(f.len(), fine.len());
        assert_eq!(
            hier.levels.len() + 1,
            self.levels.len(),
            "hierarchy was planned for a different solver"
        );
        hier.rhs.copy_from_slice(f);
        remove_mean(&mut hier.rhs);
        let f_norm = norm(&hier.rhs).max(1e-300);

        residual(fine, u, &hier.rhs, &mut hier.r);
        let mut prev = norm(&hier.r);
        let first = prev;
        hier.factors.clear();

        for cycle in 1..=self.config.max_cycles {
            self.vcycle(0, u, &hier.rhs, &mut hier.levels);
            remove_mean(u);
            residual(fine, u, &hier.rhs, &mut hier.r);
            let cur = norm(&hier.r);
            if prev > 0.0 {
                hier.factors.push((cur / prev).max(1e-16));
            }
            prev = cur;
            if cur / f_norm < self.config.tol {
                let contraction = geometric_mean(&hier.factors, first, cur);
                return Ok(MgReport {
                    cycles: cycle,
                    rel_residual: cur / f_norm,
                    contraction,
                });
            }
        }
        Err(MqmdError::Convergence {
            what: "multigrid Poisson".into(),
            iterations: self.config.max_cycles,
            residual: prev / f_norm,
        })
    }

    /// Solves the Hartree problem `∇²V = −4πρ`, writing the potential into
    /// `v` (zeroed first, so a warm hierarchy gives the bits of a fresh
    /// one).
    pub fn hartree_with(
        &self,
        rho: &[f64],
        v: &mut [f64],
        hier: &mut MgHierarchy,
    ) -> Result<MgReport> {
        let _span = mqmd_util::trace::span("poisson");
        assert_eq!(rho.len(), self.levels[0].len());
        let mut rhs = std::mem::take(&mut hier.scratch);
        for (s, &x) in rhs.iter_mut().zip(rho) {
            *s = -4.0 * std::f64::consts::PI * x;
        }
        v.fill(0.0);
        let out = self.solve_with(v, &rhs, hier);
        hier.scratch = rhs;
        out
    }

    fn vcycle(&self, level: usize, u: &mut [f64], f: &[f64], bufs: &mut [LevelBufs]) {
        let grid = &self.levels[level];
        if level + 1 == self.levels.len() {
            for _ in 0..self.config.coarse_sweeps {
                rbgs_sweep(grid, u, f);
            }
            remove_mean(u);
            return;
        }
        let (b, rest) = bufs
            .split_first_mut()
            .expect("one buffer set per non-coarsest level");
        for _ in 0..self.config.pre_smooth {
            rbgs_sweep(grid, u, f);
        }
        residual(grid, u, f, &mut b.r);
        let coarse_grid = &self.levels[level + 1];
        restrict_into(grid, &b.r, coarse_grid, &mut b.coarse_rhs);
        remove_mean(&mut b.coarse_rhs);
        b.coarse_u.fill(0.0);
        self.vcycle(level + 1, &mut b.coarse_u, &b.coarse_rhs, rest);
        prolong_add(coarse_grid, &b.coarse_u, grid, u);
        for _ in 0..self.config.post_smooth {
            rbgs_sweep(grid, u, f);
        }
    }
}

fn geometric_mean(factors: &[f64], first: f64, last: f64) -> f64 {
    if factors.is_empty() {
        return 0.0;
    }
    if first > 0.0 && last > 0.0 {
        (last / first).powf(1.0 / factors.len() as f64)
    } else {
        factors
            .iter()
            .product::<f64>()
            .powf(1.0 / factors.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fftpoisson::FftPoisson;
    use mqmd_util::workspace::Workspace;
    use std::f64::consts::TAU;

    fn hartree(mg: &PoissonMultigrid, rho: &[f64]) -> Vec<f64> {
        let mut v = vec![0.0; rho.len()];
        mg.hartree_with(rho, &mut v, &mut mg.plan()).unwrap();
        v
    }

    #[test]
    fn hierarchy_depth() {
        let mg = PoissonMultigrid::with_defaults(UniformGrid3::cubic(32, 8.0));
        assert_eq!(mg.levels(), 4); // 32 → 16 → 8 → 4
    }

    #[test]
    fn converges_on_smooth_rhs() {
        let l = 6.0;
        let g = UniformGrid3::cubic(32, l);
        let k = TAU / l;
        let f = g.sample(|r| (k * r.x).sin() * (k * r.y).cos() + 0.5 * (2.0 * k * r.z).sin());
        let mg = PoissonMultigrid::with_defaults(g);
        let mut u = vec![0.0; f.len()];
        let report = mg
            .solve_with(&mut u, &f, &mut mg.plan())
            .expect("must converge");
        assert!(report.rel_residual < 1e-8);
        assert!(
            report.contraction < 0.35,
            "textbook MG contraction, got {}",
            report.contraction
        );
        assert!(report.cycles < 25);
    }

    #[test]
    fn matches_fft_solver() {
        let l = 5.0;
        let g = UniformGrid3::cubic(32, l);
        let k = TAU / l;
        // Zero-mean smooth density.
        let rho = g.sample(|r| (k * r.x).cos() * (k * r.y).sin() + 0.3 * (2.0 * k * r.z).cos());
        let mg = PoissonMultigrid::with_defaults(g.clone());
        let v_mg = hartree(&mg, &rho);
        let mut v_fft = vec![0.0; rho.len()];
        FftPoisson::new(g.clone()).hartree_into(&rho, &mut v_fft, &Workspace::new());
        // The FFT solves the continuous (spectral) operator, MG the 7-point
        // discrete one: they agree to discretisation error O(h²).
        let scale = v_fft.iter().map(|x| x.abs()).fold(0.0, f64::max);
        for (a, b) in v_mg.iter().zip(&v_fft) {
            assert!((a - b).abs() < 0.02 * scale, "{a} vs {b}");
        }
    }

    #[test]
    fn discrete_exactness_single_mode() {
        // For an eigenfunction of the discrete Laplacian the MG solution must
        // match the discrete eigenvalue relation essentially exactly.
        let l = 4.0;
        let n = 16;
        let g = UniformGrid3::cubic(n, l);
        let k = TAU / l;
        let f = g.sample(|r| (k * r.x).sin());
        let mg = PoissonMultigrid::with_defaults(g.clone());
        let mut u = vec![0.0; f.len()];
        mg.solve_with(&mut u, &f, &mut mg.plan()).unwrap();
        let h = l / n as f64;
        let eig = -(2.0 / (h * h)) * (1.0 - (k * h).cos());
        let expect = g.sample(|r| (k * r.x).sin() / eig);
        for (a, b) in u.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-7);
        }
    }

    #[test]
    fn anisotropic_grid_converges() {
        let g = UniformGrid3::new((16, 32, 8), (4.0, 8.0, 2.0));
        let f = g.sample(|r| (TAU * r.x / 4.0).sin() * (TAU * r.y / 8.0).cos());
        let mg = PoissonMultigrid::with_defaults(g);
        let mut u = vec![0.0; f.len()];
        let report = mg
            .solve_with(&mut u, &f, &mut mg.plan())
            .expect("must converge");
        assert!(report.rel_residual < 1e-8);
    }

    /// A warm (reused) hierarchy must give bitwise-identical solutions to a
    /// freshly planned one — pooled level buffers are unobservable.
    #[test]
    fn warm_hierarchy_is_bitwise_identical() {
        let l = 6.0;
        let g = UniformGrid3::cubic(16, l);
        let k = TAU / l;
        let rho_a = g.sample(|r| (k * r.x).cos() * (k * r.y).sin());
        let rho_b = g.sample(|r| 0.7 * (2.0 * k * r.z).cos() + (k * r.x).sin());
        let mg = PoissonMultigrid::with_defaults(g.clone());
        let mut hier = mg.plan();
        let mut warm = vec![0.0; g.len()];
        // Dirty the hierarchy with an unrelated solve, then compare.
        mg.hartree_with(&rho_b, &mut warm, &mut hier).unwrap();
        for rho in [&rho_a, &rho_b] {
            let cold = hartree(&mg, rho);
            mg.hartree_with(rho, &mut warm, &mut hier).unwrap();
            for (i, (a, b)) in cold.iter().zip(&warm).enumerate() {
                assert!(a.to_bits() == b.to_bits(), "mismatch at {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn initial_guess_reuse_speeds_convergence() {
        // SCF loops re-solve with slowly varying rhs: warm starts must help.
        let l = 6.0;
        let g = UniformGrid3::cubic(16, l);
        let k = TAU / l;
        let f = g.sample(|r| (k * r.x).sin());
        let mg = PoissonMultigrid::with_defaults(g);
        let mut cold = vec![0.0; f.len()];
        let r1 = mg.solve_with(&mut cold, &f, &mut mg.plan()).unwrap();
        let mut warm = cold.clone();
        let r2 = mg.solve_with(&mut warm, &f, &mut mg.plan()).unwrap();
        assert!(r2.cycles <= r1.cycles);
        assert_eq!(
            r2.cycles, 1,
            "already-converged start needs one confirming cycle"
        );
    }
}
