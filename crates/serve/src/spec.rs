//! Job specifications: what a tenant asks the service to simulate.

use std::time::Duration;

use mqmd_core::global::{BoundaryMode, HartreeSolver, LdcConfig};
use mqmd_md::builders::sic_supercell;
use mqmd_md::AtomicSystem;
use mqmd_util::constants::Element;
use mqmd_util::{MqmdError, Result, Vec3, Xoshiro256pp};

/// Initial geometry of a job. Kept to parametrised built-ins so a spec is
/// a few scalars, fully validatable, and cheap to hash into a plan key.
#[derive(Clone, Debug, PartialEq)]
pub enum Geometry {
    /// One H₂ molecule centred in a cubic cell (`cell` Bohr on a side)
    /// with the given bond length (Bohr).
    H2 { cell: f64, bond: f64 },
    /// A 3C-SiC zinc-blende supercell with `nc` conventional cells per
    /// axis (8 atoms per cell) — the paper's Fig 4/5 material.
    SiC { nc: (usize, usize, usize) },
}

/// A tenant's simulation request. Everything the runtime needs to build
/// the system and solver is in here, so jobs are reproducible from the
/// spec alone (plus the service seed).
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Owning tenant (quota bucket).
    pub tenant: u32,
    /// Scheduling priority; higher runs first and may preempt lower.
    pub priority: u8,
    /// Initial geometry.
    pub geometry: Geometry,
    /// MD steps to integrate.
    pub steps: u32,
    /// MD timestep (a.u.).
    pub dt: f64,
    /// Plane-wave cutoff for the domain solver (Hartree).
    pub ecut: f64,
    /// Grid spacing target (Bohr), global and domain.
    pub spacing: f64,
    /// Thermalisation temperature (Kelvin) and velocity seed.
    pub temperature: f64,
    /// Seed for the initial Maxwell–Boltzmann draw.
    pub seed: u64,
    /// Wall-clock budget for the whole job, across attempts. `None` means
    /// unbounded; `Some(0)` is rejected at admission as already over
    /// deadline.
    pub deadline: Option<Duration>,
    /// Write a resume checkpoint every this many completed steps.
    pub checkpoint_every: u32,
}

impl Default for JobSpec {
    fn default() -> Self {
        Self {
            tenant: 0,
            priority: 0,
            geometry: Geometry::H2 {
                cell: 8.0,
                bond: 1.4,
            },
            steps: 2,
            dt: 10.0,
            ecut: 2.0,
            spacing: 1.2,
            temperature: 300.0,
            seed: 5,
            deadline: None,
            checkpoint_every: 1,
        }
    }
}

impl JobSpec {
    /// Validates the spec's physical and resource parameters. Anything
    /// rejected here surfaces as [`crate::RejectReason::InvalidSpec`].
    pub fn validate(&self) -> Result<()> {
        fn bounded(name: &str, v: f64, lo: f64, hi: f64) -> Result<()> {
            if !v.is_finite() || v < lo || v > hi {
                return Err(MqmdError::Invalid(format!(
                    "{name} = {v} outside [{lo}, {hi}]"
                )));
            }
            Ok(())
        }
        if self.steps == 0 || self.steps > 10_000 {
            return Err(MqmdError::Invalid(format!(
                "steps = {} outside [1, 10000]",
                self.steps
            )));
        }
        if self.checkpoint_every == 0 {
            return Err(MqmdError::Invalid("checkpoint_every must be >= 1".into()));
        }
        bounded("dt", self.dt, 1e-3, 1e3)?;
        bounded("ecut", self.ecut, 0.5, 50.0)?;
        bounded("spacing", self.spacing, 0.3, 4.0)?;
        bounded("temperature", self.temperature, 0.0, 1e5)?;
        match self.geometry {
            Geometry::H2 { cell, bond } => {
                bounded("cell", cell, 4.0, 64.0)?;
                bounded("bond", bond, 0.2, 6.0)?;
                if bond >= cell / 2.0 {
                    return Err(MqmdError::Invalid(format!(
                        "bond {bond} does not fit in cell {cell}"
                    )));
                }
            }
            Geometry::SiC { nc } => {
                for (axis, n) in ["x", "y", "z"].iter().zip([nc.0, nc.1, nc.2]) {
                    if n == 0 || n > 2 {
                        return Err(MqmdError::Invalid(format!(
                            "SiC nc.{axis} = {n} outside [1, 2] (service-tier size cap)"
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Key under which this job's solver (with its geometry-shaped plan
    /// caches: eigensolver workspaces, MG hierarchy, FFT arena) can be
    /// pooled. Jobs with equal keys produce identical grid/basis shapes,
    /// so a pooled solver's scratch is reusable; job-dependent state is
    /// wiped by [`mqmd_core::global::LdcSolver::reset_job_state`].
    pub fn plan_key(&self) -> String {
        let g = match &self.geometry {
            Geometry::H2 { cell, bond: _ } => format!("h2:{cell:e}"),
            Geometry::SiC { nc } => format!("sic:{}x{}x{}", nc.0, nc.1, nc.2),
        };
        format!("{g}|ecut{:e}|h{:e}", self.ecut, self.spacing)
    }

    /// Builds the initial atomic system. Deterministic in the spec: the
    /// same spec always yields bitwise-identical positions and velocities.
    pub fn build_system(&self) -> AtomicSystem {
        let mut sys = match self.geometry {
            Geometry::H2 { cell, bond } => {
                let mid = cell / 2.0;
                AtomicSystem::new(
                    Vec3::splat(cell),
                    vec![Element::H, Element::H],
                    vec![
                        Vec3::new(mid - bond / 2.0, mid, mid),
                        Vec3::new(mid + bond / 2.0, mid, mid),
                    ],
                )
            }
            Geometry::SiC { nc } => sic_supercell(nc),
        };
        let mut rng = Xoshiro256pp::seed_from_u64(self.seed);
        sys.thermalize(self.temperature, &mut rng);
        sys
    }

    /// The LDC solver configuration of this spec's first attempt (the retry
    /// ladder's later rungs are [`escalate`]'s). Every field is written
    /// out, so a change of `LdcConfig::default()` cannot retune the
    /// service: the SCF settings are the ones `repro_serve --sweep` selects
    /// under the accuracy contract of [`crate::contract`] — the least work
    /// per force evaluation (SCF iterations × FLOPs per iteration, which
    /// the band count sets) that keeps energy and forces inside it on every
    /// geometry the service admits.
    pub fn ldc_config(&self) -> LdcConfig {
        let nd = match self.geometry {
            Geometry::H2 { .. } => (1, 1, 1),
            Geometry::SiC { nc } => (nc.0.min(2), 1, 1),
        };
        LdcConfig {
            nd,
            buffer: 0.0,
            mode: BoundaryMode::Periodic,
            hartree: HartreeSolver::Fft,
            global_spacing: self.spacing,
            domain_spacing: self.spacing,
            ecut: self.ecut,
            kt: 0.01,
            // Linear mixing contracts fastest near 0.8 on these cells (the
            // SCF loop's sloshing back-off is the guard above it), and a
            // density converged to 1e-4 needs bands no tighter than 1e-5.
            mix_alpha: 0.8,
            max_scf: 60,
            tol_density: 1e-4,
            davidson_iters: 6,
            davidson_tol: 1e-5,
            extra_bands: EXTRA_BANDS,
        }
    }
}

/// Extra bands per domain, the same on every rung of the retry ladder: a
/// retried job may resume from a checkpoint whose bands an earlier attempt
/// wrote. One empty band above the occupied ones keeps the contract and
/// halves an H₂ job's work against four; none leaves it.
pub(crate) const EXTRA_BANDS: usize = 1;
/// Density mixing of the first retry (attempt 2); each later attempt halves
/// it.
pub(crate) const RETRY_MIX_ALPHA: f64 = 0.4;
/// Davidson budget and residual tolerance of every retry.
pub(crate) const RETRY_DAVIDSON: (usize, f64) = (12, 1e-7);

/// The retry ladder's configuration escalation. Attempt 1 is the spec's
/// own configuration, tuned for speed inside the accuracy contract; every
/// retry falls back to conservative settings — `RETRY_MIX_ALPHA` halved
/// per further attempt, the tight `RETRY_DAVIDSON` eigensolver, an SCF
/// iteration budget that grows with the attempt — so a job the tuned
/// settings cannot converge re-enters the solver's own retry ladder with
/// more headroom. Grid shapes and band counts are untouched: an escalated config
/// still matches the spec's plan key and its checkpoints.
pub fn escalate(base: &LdcConfig, attempt: u32) -> LdcConfig {
    if attempt <= 1 {
        return *base;
    }
    LdcConfig {
        mix_alpha: RETRY_MIX_ALPHA * 0.5f64.powi(attempt as i32 - 2),
        max_scf: base.max_scf * attempt as usize,
        davidson_iters: RETRY_DAVIDSON.0,
        davidson_tol: RETRY_DAVIDSON.1,
        ..*base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_validates() {
        JobSpec::default().validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        for spec in [
            JobSpec {
                steps: 0,
                ..Default::default()
            },
            JobSpec {
                dt: f64::NAN,
                ..Default::default()
            },
            JobSpec {
                ecut: 500.0,
                ..Default::default()
            },
            JobSpec {
                checkpoint_every: 0,
                ..Default::default()
            },
            JobSpec {
                geometry: Geometry::H2 {
                    cell: 8.0,
                    bond: 7.9,
                },
                ..Default::default()
            },
            JobSpec {
                geometry: Geometry::SiC { nc: (9, 1, 1) },
                ..Default::default()
            },
        ] {
            assert!(spec.validate().is_err(), "{spec:?} should be invalid");
        }
    }

    #[test]
    fn build_system_is_deterministic() {
        let spec = JobSpec::default();
        let a = spec.build_system();
        let b = spec.build_system();
        for (p, q) in a.velocities.iter().zip(&b.velocities) {
            assert_eq!(p.x.to_bits(), q.x.to_bits());
        }
    }

    #[test]
    fn plan_key_separates_shapes_not_bonds() {
        let a = JobSpec::default();
        let mut b = a.clone();
        b.geometry = Geometry::H2 {
            cell: 8.0,
            bond: 1.5,
        };
        assert_eq!(a.plan_key(), b.plan_key());
        let mut c = a.clone();
        c.ecut = 3.0;
        assert_ne!(a.plan_key(), c.plan_key());
    }

    #[test]
    fn escalation_grows_budget_and_softens_mixing() {
        let base = JobSpec::default().ldc_config();
        let scf = |c: &LdcConfig| (c.mix_alpha, c.max_scf, c.davidson_iters, c.davidson_tol);
        assert_eq!(scf(&escalate(&base, 1)), scf(&base));
        // Attempt 2 is the configuration every job ran at before the first
        // attempt was tuned, attempt 3 its halved-mixing successor.
        let (e2, e3) = (escalate(&base, 2), escalate(&base, 3));
        assert_eq!(scf(&e2), (0.4, 120, 12, 1e-7));
        assert_eq!(scf(&e3), (0.2, 180, 12, 1e-7));
        for e in [e2, e3] {
            assert!(e.mix_alpha < base.mix_alpha && e.davidson_tol < base.davidson_tol);
            // Shape- and checkpoint-relevant fields untouched.
            assert_eq!(e.extra_bands, base.extra_bands);
            assert_eq!(e.ecut, base.ecut);
            assert_eq!(e.nd, base.nd);
            assert_eq!(e.tol_density, base.tol_density);
        }
    }
}
