//! Velocity-Verlet integration.
//!
//! The QMD production runs of the paper advance 16,661 atoms for 21,140
//! steps of 0.242 fs with forces recomputed from DFT every step; the
//! integrator itself is the standard velocity-Verlet scheme implemented
//! here. It is symplectic and time-reversible, which the tests check
//! directly along with energy conservation on classical potentials.

use crate::forcefield::{ForceField, ForceResult};
use crate::structure::AtomicSystem;
use mqmd_util::Result;

/// Velocity-Verlet propagator owning the force cache between steps.
pub struct VelocityVerlet {
    /// Time step in a.u. of time (0.242 fs ≈ 10 a.u. in the paper).
    pub dt: f64,
    cached: Option<ForceResult>,
}

impl VelocityVerlet {
    /// Creates an integrator with the given time step (a.u.).
    pub fn new(dt: f64) -> Self {
        assert!(dt > 0.0);
        Self { dt, cached: None }
    }

    /// Invalidates the force cache (call after externally modifying
    /// positions).
    pub fn reset(&mut self) {
        self.cached = None;
    }

    /// The cached end-of-step forces, if any (checkpointing reads these so
    /// a resumed run replays bitwise instead of recomputing the half-kick).
    pub fn cached_forces(&self) -> Option<&ForceResult> {
        self.cached.as_ref()
    }

    /// Preloads the force cache (checkpoint restore).
    pub fn preload_forces(&mut self, forces: ForceResult) {
        self.cached = Some(forces);
    }

    /// Advances one step; returns the potential energy after the step.
    /// Panics if the force field fails — quantum backends should use
    /// [`VelocityVerlet::try_step`] and recover.
    pub fn step<F: ForceField>(&mut self, system: &mut AtomicSystem, field: &mut F) -> f64 {
        self.try_step(system, field)
            .expect("force field failed inside the MD step; use try_step to recover")
    }

    /// Fallible form of [`VelocityVerlet::step`]. On error the force cache
    /// is left empty and the system may sit mid-step (positions advanced,
    /// second half-kick missing) — callers recover by restoring a
    /// checkpointed state, not by re-stepping.
    pub fn try_step<F: ForceField>(
        &mut self,
        system: &mut AtomicSystem,
        field: &mut F,
    ) -> Result<f64> {
        let n = system.len();
        let dt = self.dt;
        let forces_old = match self.cached.take() {
            Some(f) => f,
            None => field.try_compute(system)?,
        };

        // v(t+dt/2), r(t+dt)
        for i in 0..n {
            let a = forces_old.forces[i] / system.mass(i);
            system.velocities[i] += a * (0.5 * dt);
            system.positions[i] =
                (system.positions[i] + system.velocities[i] * dt).wrap(system.cell);
        }
        // v(t+dt)
        let forces_new = field.try_compute(system)?;
        for i in 0..n {
            let a = forces_new.forces[i] / system.mass(i);
            system.velocities[i] += a * (0.5 * dt);
        }
        let e_pot = forces_new.energy;
        self.cached = Some(forces_new);
        Ok(e_pot)
    }

    /// Runs `steps` steps, returning the per-step total energies
    /// (kinetic + potential) for conservation monitoring.
    pub fn run<F: ForceField>(
        &mut self,
        system: &mut AtomicSystem,
        field: &mut F,
        steps: usize,
    ) -> Vec<f64> {
        let mut energies = Vec::with_capacity(steps);
        for _ in 0..steps {
            let e_pot = self.step(system, field);
            energies.push(e_pot + system.kinetic_energy());
        }
        energies
    }
}

/// Flips all velocities — composing `run(n); reverse; run(n)` must return to
/// the start for a time-reversible integrator.
#[cfg(test)]
fn reverse_velocities(system: &mut AtomicSystem) {
    for v in &mut system.velocities {
        *v = -*v;
    }
}

/// Maximum relative total-energy drift over a trajectory, the conservation
/// metric quoted by QMD verification studies.
#[cfg(test)]
fn energy_drift(energies: &[f64]) -> f64 {
    if energies.len() < 2 {
        return 0.0;
    }
    let e0 = energies[0];
    let scale = e0.abs().max(1e-12);
    energies.iter().map(|e| (e - e0).abs()).fold(0.0, f64::max) / scale
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forcefield::{HarmonicPair, LennardJones};
    use mqmd_util::constants::Element;
    use mqmd_util::Vec3;

    fn lj_crystal() -> (AtomicSystem, LennardJones) {
        // A small FCC-ish cluster of "argon-like" LJ atoms near equilibrium.
        // Cutoff stays below half the (2a ≈ 19 Bohr) cell.
        let sigma = 6.0;
        let lj = LennardJones {
            epsilon: 4e-4,
            sigma,
            cutoff: 9.0,
        };
        let a = sigma * 2f64.powf(1.0 / 6.0) * 2f64.sqrt();
        let mut species = Vec::new();
        let mut positions = Vec::new();
        for cx in 0..2 {
            for cy in 0..2 {
                for cz in 0..2 {
                    for f in [
                        [0.0, 0.0, 0.0],
                        [0.0, 0.5, 0.5],
                        [0.5, 0.0, 0.5],
                        [0.5, 0.5, 0.0],
                    ] {
                        species.push(Element::Al);
                        positions.push(Vec3::new(
                            (cx as f64 + f[0]) * a,
                            (cy as f64 + f[1]) * a,
                            (cz as f64 + f[2]) * a,
                        ));
                    }
                }
            }
        }
        let cell = Vec3::splat(2.0 * a);
        (AtomicSystem::new(cell, species, positions), lj)
    }

    #[test]
    fn harmonic_dimer_oscillates_at_analytic_frequency() {
        // Two equal masses on a spring: ω = √(2k/m) (reduced mass m/2).
        let k = 0.1;
        let m = Element::H.mass_au();
        let mut field = HarmonicPair {
            k,
            r0: 2.0,
            cutoff: 8.0,
        };
        let mut sys = AtomicSystem::new(
            Vec3::splat(20.0),
            vec![Element::H, Element::H],
            vec![Vec3::splat(8.0), Vec3::new(10.2, 8.0, 8.0)], // stretched by 0.2
        );
        let omega = (2.0 * k / m).sqrt();
        let period = std::f64::consts::TAU / omega;
        let steps_per_period = 2000usize;
        let mut vv = VelocityVerlet::new(period / steps_per_period as f64);
        // After one full period the bond length returns to the start.
        let r_start = sys.distance(0, 1);
        vv.run(&mut sys, &mut field, steps_per_period);
        let r_end = sys.distance(0, 1);
        assert!((r_end - r_start).abs() < 1e-4, "{r_start} vs {r_end}");
        // After half a period it is compressed to r₀ − 0.2.
        let mut sys2 = AtomicSystem::new(
            Vec3::splat(20.0),
            vec![Element::H, Element::H],
            vec![Vec3::splat(8.0), Vec3::new(10.2, 8.0, 8.0)],
        );
        let mut vv2 = VelocityVerlet::new(period / steps_per_period as f64);
        vv2.run(&mut sys2, &mut field, steps_per_period / 2);
        assert!((sys2.distance(0, 1) - 1.8).abs() < 1e-3);
    }

    #[test]
    fn energy_conservation_lj() {
        let (mut sys, mut lj) = lj_crystal();
        let mut rng = mqmd_util::Xoshiro256pp::seed_from_u64(11);
        sys.thermalize(50.0, &mut rng);
        let mut vv = VelocityVerlet::new(20.0);
        let energies = vv.run(&mut sys, &mut lj, 400);
        let drift = energy_drift(&energies);
        assert!(drift < 1e-4, "energy drift {drift}");
    }

    #[test]
    fn time_reversibility() {
        let (mut sys, mut lj) = lj_crystal();
        let mut rng = mqmd_util::Xoshiro256pp::seed_from_u64(13);
        sys.thermalize(40.0, &mut rng);
        let start = sys.positions.clone();
        let mut vv = VelocityVerlet::new(20.0);
        vv.run(&mut sys, &mut lj, 100);
        reverse_velocities(&mut sys);
        vv.reset();
        vv.run(&mut sys, &mut lj, 100);
        for (a, b) in sys.positions.iter().zip(&start) {
            assert!((*a - *b).min_image(sys.cell).norm() < 1e-8);
        }
    }

    #[test]
    fn momentum_conservation() {
        let (mut sys, mut lj) = lj_crystal();
        let mut rng = mqmd_util::Xoshiro256pp::seed_from_u64(17);
        sys.thermalize(80.0, &mut rng);
        let p0: Vec3 = (0..sys.len())
            .map(|i| sys.velocities[i] * sys.mass(i))
            .sum();
        let mut vv = VelocityVerlet::new(20.0);
        vv.run(&mut sys, &mut lj, 200);
        let p1: Vec3 = (0..sys.len())
            .map(|i| sys.velocities[i] * sys.mass(i))
            .sum();
        assert!((p1 - p0).norm() < 1e-9);
    }

    #[test]
    fn smaller_timestep_conserves_better() {
        let build = || {
            let (mut sys, lj) = lj_crystal();
            let mut rng = mqmd_util::Xoshiro256pp::seed_from_u64(19);
            sys.thermalize(100.0, &mut rng);
            (sys, lj)
        };
        let (mut s1, mut lj1) = build();
        let (mut s2, mut lj2) = build();
        let d1 = energy_drift(&VelocityVerlet::new(40.0).run(&mut s1, &mut lj1, 100));
        let d2 = energy_drift(&VelocityVerlet::new(10.0).run(&mut s2, &mut lj2, 400));
        assert!(d2 < d1, "dt/4 should conserve better: {d2} vs {d1}");
    }
}
