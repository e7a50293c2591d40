//! Force-field abstraction and classical reference potentials.
//!
//! The QMD driver is generic over [`ForceField`]; `mqmd-core`'s O(N)
//! LDC-DFT solver implements it (with one domain, the conventional O(N³)
//! plane-wave DFT).
//! The classical pair potentials here serve three purposes: integration
//! tests of the MD machinery with strict energy-conservation budgets, the
//! water bath dynamics of the science application, and a cheap stand-in
//! force when benchmarking pure-MD costs.

use crate::neighbor::NeighborList;
use crate::structure::AtomicSystem;
use mqmd_util::{Result, Vec3};

/// Potential energy and per-atom forces, both in atomic units.
#[derive(Clone, Debug)]
pub struct ForceResult {
    /// Potential energy (Hartree).
    pub energy: f64,
    /// Force on each atom (Hartree/Bohr).
    pub forces: Vec<Vec3>,
}

/// Anything that can produce energies and forces for an atomic system.
///
/// Implementors provide the fallible [`ForceField::try_compute`]; quantum
/// backends propagate SCF/eigensolver failures through it so the MD loop
/// can checkpoint-recover instead of crashing. The infallible
/// [`ForceField::compute`] convenience panics on failure and is fine for
/// classical potentials, which cannot fail.
pub trait ForceField {
    /// Computes the potential energy and forces for the current positions,
    /// propagating any solver failure.
    fn try_compute(&mut self, system: &AtomicSystem) -> Result<ForceResult>;

    /// Infallible convenience wrapper; panics if the force computation
    /// fails (classical potentials never do).
    fn compute(&mut self, system: &AtomicSystem) -> ForceResult {
        self.try_compute(system)
            .expect("force computation failed; use try_compute to recover")
    }
}

/// Truncated-and-shifted Lennard-Jones 12-6 pair potential.
///
/// The energy is shifted so `V(r_cut) = 0`, keeping the total energy
/// continuous as pairs cross the cutoff (forces retain the usual small
/// discontinuity of the unsmoothed truncation — the energy-conservation
/// tests budget for it).
#[derive(Clone, Copy, Debug)]
pub struct LennardJones {
    /// Well depth ε (Hartree).
    pub epsilon: f64,
    /// Zero-crossing distance σ (Bohr).
    pub sigma: f64,
    /// Cutoff radius (Bohr).
    pub cutoff: f64,
}

impl LennardJones {
    /// Pair energy at distance `r` (shifted).
    pub fn pair_energy(&self, r: f64) -> f64 {
        if r >= self.cutoff {
            return 0.0;
        }
        let v = |x: f64| {
            let s6 = (self.sigma / x).powi(6);
            4.0 * self.epsilon * (s6 * s6 - s6)
        };
        v(r) - v(self.cutoff)
    }

    /// Magnitude of `dV/dr` at distance `r` (unshifted derivative).
    pub fn pair_dvdr(&self, r: f64) -> f64 {
        if r >= self.cutoff {
            return 0.0;
        }
        let s6 = (self.sigma / r).powi(6);
        4.0 * self.epsilon * (-12.0 * s6 * s6 + 6.0 * s6) / r
    }
}

impl ForceField for LennardJones {
    fn try_compute(&mut self, system: &AtomicSystem) -> Result<ForceResult> {
        let list = NeighborList::build(system, self.cutoff);
        let mut energy = 0.0;
        let mut forces = vec![Vec3::ZERO; system.len()];
        for &(i, j) in list.pairs() {
            let (i, j) = (i as usize, j as usize);
            let d = system.displacement(i, j); // from i to j
            let r = d.norm();
            if r >= self.cutoff || r == 0.0 {
                continue;
            }
            energy += self.pair_energy(r);
            // F_j = −dV/dr · r̂(i→j); F_i = −F_j.
            let f = d * (-self.pair_dvdr(r) / r);
            forces[j] += f;
            forces[i] -= f;
        }
        Ok(ForceResult { energy, forces })
    }
}

/// Harmonic pair potential `½k(r − r₀)²` applied to *all* pairs below the
/// cutoff — a trivially smooth field used by integrator unit tests where an
/// analytic solution exists.
#[derive(Clone, Copy, Debug)]
pub struct HarmonicPair {
    /// Spring constant (Hartree/Bohr²).
    pub k: f64,
    /// Rest length (Bohr).
    pub r0: f64,
    /// Cutoff (Bohr).
    pub cutoff: f64,
}

impl ForceField for HarmonicPair {
    fn try_compute(&mut self, system: &AtomicSystem) -> Result<ForceResult> {
        let list = NeighborList::build(system, self.cutoff);
        let mut energy = 0.0;
        let mut forces = vec![Vec3::ZERO; system.len()];
        for &(i, j) in list.pairs() {
            let (i, j) = (i as usize, j as usize);
            let d = system.displacement(i, j);
            let r = d.norm();
            let x = r - self.r0;
            energy += 0.5 * self.k * x * x;
            let f = d * (-self.k * x / r);
            forces[j] += f;
            forces[i] -= f;
        }
        Ok(ForceResult { energy, forces })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqmd_util::constants::Element;

    fn dimer(r: f64) -> AtomicSystem {
        AtomicSystem::new(
            Vec3::splat(20.0),
            vec![Element::Al, Element::Al],
            vec![Vec3::splat(5.0), Vec3::new(5.0 + r, 5.0, 5.0)],
        )
    }

    #[test]
    fn lj_minimum_at_sigma_2_to_sixth() {
        let lj = LennardJones {
            epsilon: 0.01,
            sigma: 3.0,
            cutoff: 9.0,
        };
        let r_min = 3.0 * 2f64.powf(1.0 / 6.0);
        // Force vanishes at the minimum.
        assert!(lj.pair_dvdr(r_min).abs() < 1e-12);
        // Energy at the minimum is −ε + shift.
        let shift = lj.pair_energy(r_min) + lj.epsilon;
        assert!(shift.abs() < 1e-4, "cutoff shift should be tiny at 3σ");
    }

    #[test]
    fn forces_are_newtons_third_law() {
        let mut lj = LennardJones {
            epsilon: 0.01,
            sigma: 3.0,
            cutoff: 9.0,
        };
        let s = dimer(3.2);
        let out = lj.compute(&s);
        assert!((out.forces[0] + out.forces[1]).norm() < 1e-14);
    }

    #[test]
    fn force_matches_numerical_gradient() {
        let mut lj = LennardJones {
            epsilon: 0.02,
            sigma: 3.0,
            cutoff: 8.0,
        };
        let h = 1e-6;
        for r in [2.9, 3.37, 4.5, 6.0] {
            let e_plus = lj.compute(&dimer(r + h)).energy;
            let e_minus = lj.compute(&dimer(r - h)).energy;
            let f_num = -(e_plus - e_minus) / (2.0 * h);
            let f_ana = lj.compute(&dimer(r)).forces[1].x;
            assert!((f_num - f_ana).abs() < 1e-6, "r = {r}: {f_num} vs {f_ana}");
        }
    }

    #[test]
    fn repulsive_inside_attractive_outside() {
        let mut lj = LennardJones {
            epsilon: 0.01,
            sigma: 3.0,
            cutoff: 9.0,
        };
        let r_min = 3.0 * 2f64.powf(1.0 / 6.0);
        let inside = lj.compute(&dimer(r_min * 0.8));
        let outside = lj.compute(&dimer(r_min * 1.2));
        assert!(inside.forces[1].x > 0.0, "pushes atom 1 away");
        assert!(outside.forces[1].x < 0.0, "pulls atom 1 back");
    }

    #[test]
    fn energy_zero_beyond_cutoff() {
        let mut lj = LennardJones {
            epsilon: 0.01,
            sigma: 3.0,
            cutoff: 6.0,
        };
        let out = lj.compute(&dimer(6.5));
        assert_eq!(out.energy, 0.0);
        assert_eq!(out.forces[1], Vec3::ZERO);
    }

    #[test]
    fn harmonic_dimer_force() {
        let mut hp = HarmonicPair {
            k: 0.5,
            r0: 2.0,
            cutoff: 8.0,
        };
        let out = hp.compute(&dimer(3.0));
        assert!((out.energy - 0.25).abs() < 1e-12); // ½·0.5·1²
        assert!((out.forces[1].x + 0.5).abs() < 1e-12); // −k(r−r₀)
    }
}
