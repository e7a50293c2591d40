//! The accuracy contract of a service job, and the measurement that the
//! choice of [`JobSpec::ldc_config`](crate::JobSpec::ldc_config) rests on.
//!
//! A job's SCF settings decide what its MD steps cost (SCF iterations ×
//! work per iteration, which grows with the band count) and how far its
//! energies and forces sit from the converged answer. The service fixes the
//! second and minimises the first: on every geometry it serves, a force
//! evaluation at the attempt-1 configuration must land within
//! [`ENERGY_TOL`] and [`FORCE_TOL`] of the same evaluation at
//! [`reference_config`]. `repro_serve --sweep` prints the table of
//! candidates measured with [`evaluate`]; `--sweep --check` and
//! `tests/scf_contract.rs` gate the committed choice against it.

use std::time::Instant;

use mqmd_core::global::{LdcConfig, LdcSolver};
use mqmd_md::AtomicSystem;
use mqmd_util::flops::read_flops;
use mqmd_util::{Result, Vec3};

/// Largest |ΔE| (Hartree) of a force evaluation against the reference.
pub const ENERGY_TOL: f64 = 1e-8;
/// Largest |ΔF| (Hartree/Bohr, any component of any atom) against the
/// reference.
pub const FORCE_TOL: f64 = 1e-6;

/// Extra bands per domain of [`reference_config`]: its own constant, so
/// the reference stays put when a candidate carries fewer bands.
pub const REFERENCE_EXTRA_BANDS: usize = 4;

/// The tight configuration the contract is stated against: `cfg`'s grids,
/// cutoff and decomposition, converged four orders of magnitude further in
/// the density and to 1e-10 in the bands, with the retry rung's
/// conservative mixing, [`REFERENCE_EXTRA_BANDS`] and an iteration budget
/// that cannot bind.
pub fn reference_config(cfg: &LdcConfig) -> LdcConfig {
    LdcConfig {
        mix_alpha: crate::spec::RETRY_MIX_ALPHA,
        max_scf: 400,
        tol_density: 1e-8,
        davidson_iters: 40,
        davidson_tol: 1e-10,
        extra_bands: REFERENCE_EXTRA_BANDS,
        ..*cfg
    }
}

/// One geometry solved twice by one solver: cold (random bands), then again
/// with the bands the first solve left — the state every force evaluation
/// of a job after its first starts from.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// Energy of the warm solve (Hartree).
    pub energy: f64,
    /// Forces of the warm solve (Hartree/Bohr).
    pub forces: Vec<Vec3>,
    /// SCF iterations of the cold solve.
    pub cold_iterations: usize,
    /// SCF iterations of the warm solve.
    pub warm_iterations: usize,
    /// Analytic FLOPs of the cold solve ([`mqmd_util::flops`]).
    pub cold_flops: u64,
    /// Analytic FLOPs of the warm solve.
    pub warm_flops: u64,
    /// Wall seconds of the warm solve.
    pub warm_seconds: f64,
}

/// Solves `system` cold and then warm at `cfg`. Iteration counts, FLOP
/// counts, energy and forces are deterministic in the inputs; only
/// `warm_seconds` is a measurement. The FLOPs are the change of the
/// process-wide tally around each solve, so they are this evaluation's
/// alone only while nothing else in the process runs kernels.
pub fn evaluate(system: &AtomicSystem, cfg: LdcConfig) -> Result<Evaluation> {
    let mut solver = LdcSolver::new(cfg);
    let flops0 = read_flops();
    let cold = solver.solve(system)?;
    let flops1 = read_flops();
    let began = Instant::now();
    let warm = solver.solve(system)?;
    let warm_seconds = began.elapsed().as_secs_f64();
    Ok(Evaluation {
        energy: warm.energy,
        forces: warm.forces,
        cold_iterations: cold.scf_iterations,
        warm_iterations: warm.scf_iterations,
        cold_flops: flops1 - flops0,
        warm_flops: read_flops() - flops1,
        warm_seconds,
    })
}

/// Distance of one [`Evaluation`] from another.
#[derive(Clone, Copy, Debug)]
pub struct Deviation {
    /// |ΔE| (Hartree).
    pub energy: f64,
    /// Largest |ΔF| component of any atom (Hartree/Bohr).
    pub force: f64,
}

impl Deviation {
    /// Whether this distance, taken from the reference, is inside the
    /// contract.
    pub fn within_contract(&self) -> bool {
        self.energy <= ENERGY_TOL && self.force <= FORCE_TOL
    }
}

impl Evaluation {
    /// This evaluation's distance from `reference`.
    pub fn deviation(&self, reference: &Evaluation) -> Deviation {
        let force = self
            .forces
            .iter()
            .zip(&reference.forces)
            .flat_map(|(a, b)| [a.x - b.x, a.y - b.y, a.z - b.z])
            .fold(0.0, |m: f64, d| m.max(d.abs()));
        Deviation {
            energy: (self.energy - reference.energy).abs(),
            force,
        }
    }
}
