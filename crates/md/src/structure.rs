//! Atomic system container.

use mqmd_util::constants::{Element, KB_HARTREE_PER_K};
use mqmd_util::{Vec3, Xoshiro256pp};

/// A periodic collection of atoms in an orthorhombic cell, in Hartree atomic
/// units (positions in Bohr, velocities in Bohr per a.u. of time, masses in
/// electron masses).
#[derive(Clone, Debug)]
pub struct AtomicSystem {
    /// Cell side lengths (Bohr).
    pub cell: Vec3,
    /// Chemical species per atom.
    pub species: Vec<Element>,
    /// Wrapped positions (Bohr).
    pub positions: Vec<Vec3>,
    /// Velocities (Bohr / a.u. time).
    pub velocities: Vec<Vec3>,
}

impl AtomicSystem {
    /// Creates a system with zero velocities, wrapping positions into the
    /// cell.
    pub fn new(cell: Vec3, species: Vec<Element>, positions: Vec<Vec3>) -> Self {
        assert_eq!(
            species.len(),
            positions.len(),
            "species/position length mismatch"
        );
        assert!(cell.x > 0.0 && cell.y > 0.0 && cell.z > 0.0);
        let positions = positions
            .into_iter()
            .map(|r| r.wrap(cell))
            .collect::<Vec<_>>();
        let n = species.len();
        Self {
            cell,
            species,
            positions,
            velocities: vec![Vec3::ZERO; n],
        }
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.species.len()
    }

    /// True when the system has no atoms.
    pub fn is_empty(&self) -> bool {
        self.species.is_empty()
    }

    /// Mass of atom `i` in electron masses.
    pub fn mass(&self, i: usize) -> f64 {
        self.species[i].mass_au()
    }

    /// Total number of valence electrons (the DFT electron count).
    pub fn valence_electrons(&self) -> usize {
        self.species.iter().map(|e| e.valence() as usize).sum()
    }

    /// Cell volume (Bohr³).
    pub fn volume(&self) -> f64 {
        self.cell.x * self.cell.y * self.cell.z
    }

    /// Minimum-image displacement from atom `i` to atom `j`.
    pub fn displacement(&self, i: usize, j: usize) -> Vec3 {
        (self.positions[j] - self.positions[i]).min_image(self.cell)
    }

    /// Minimum-image distance between atoms `i` and `j`.
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        self.displacement(i, j).norm()
    }

    /// Kinetic energy `Σ ½·m·v²` (Hartree).
    pub fn kinetic_energy(&self) -> f64 {
        self.velocities
            .iter()
            .enumerate()
            .map(|(i, v)| 0.5 * self.mass(i) * v.norm_sqr())
            .sum()
    }

    /// Instantaneous temperature from the equipartition theorem,
    /// `T = 2·E_kin / (3·N·k_B)` (Kelvin).
    pub fn temperature(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        2.0 * self.kinetic_energy() / (3.0 * self.len() as f64 * KB_HARTREE_PER_K)
    }

    /// Draws Maxwell–Boltzmann velocities at temperature `t_kelvin`, removes
    /// centre-of-mass drift, and rescales to hit the target exactly.
    pub fn thermalize(&mut self, t_kelvin: f64, rng: &mut Xoshiro256pp) {
        assert!(t_kelvin >= 0.0);
        if t_kelvin == 0.0 || self.is_empty() {
            self.velocities.iter_mut().for_each(|v| *v = Vec3::ZERO);
            return;
        }
        for i in 0..self.len() {
            let sd = (KB_HARTREE_PER_K * t_kelvin / self.mass(i)).sqrt();
            self.velocities[i] = Vec3::new(
                rng.normal_scaled(0.0, sd),
                rng.normal_scaled(0.0, sd),
                rng.normal_scaled(0.0, sd),
            );
        }
        self.remove_drift();
        let t_now = self.temperature();
        if t_now > 0.0 {
            let s = (t_kelvin / t_now).sqrt();
            self.velocities.iter_mut().for_each(|v| *v *= s);
        }
    }

    /// Removes centre-of-mass momentum.
    fn remove_drift(&mut self) {
        let mut p = Vec3::ZERO;
        let mut m_tot = 0.0;
        for i in 0..self.len() {
            p += self.velocities[i] * self.mass(i);
            m_tot += self.mass(i);
        }
        let v_com = p / m_tot;
        self.velocities.iter_mut().for_each(|v| *v -= v_com);
    }

    /// Counts atoms of one element.
    pub fn count(&self, e: Element) -> usize {
        self.species.iter().filter(|&&s| s == e).count()
    }

    /// Merges another system into this one (same cell required).
    pub fn extend_with(&mut self, other: &AtomicSystem) {
        assert!((self.cell - other.cell).norm() < 1e-12, "cells must match");
        self.species.extend_from_slice(&other.species);
        self.positions.extend_from_slice(&other.positions);
        self.velocities.extend_from_slice(&other.velocities);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_atom() -> AtomicSystem {
        AtomicSystem::new(
            Vec3::splat(10.0),
            vec![Element::Si, Element::C],
            vec![Vec3::splat(1.0), Vec3::new(9.5, 1.0, 1.0)],
        )
    }

    #[test]
    fn construction_wraps_positions() {
        let s = AtomicSystem::new(
            Vec3::splat(5.0),
            vec![Element::H],
            vec![Vec3::new(6.0, -1.0, 2.5)],
        );
        assert!((s.positions[0] - Vec3::new(1.0, 4.0, 2.5)).norm() < 1e-12);
    }

    #[test]
    fn min_image_distance() {
        let s = two_atom();
        // 1.0 → 9.5 across the boundary is 1.5, not 8.5.
        assert!((s.distance(0, 1) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn valence_electron_count() {
        let s = two_atom();
        assert_eq!(s.valence_electrons(), 8); // Si(4) + C(4)
    }

    #[test]
    fn thermalize_hits_target_temperature() {
        let mut s = AtomicSystem::new(
            Vec3::splat(20.0),
            vec![Element::Al; 64],
            (0..64)
                .map(|i| Vec3::new((i % 4) as f64, ((i / 4) % 4) as f64, (i / 16) as f64) * 4.0)
                .collect(),
        );
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        s.thermalize(600.0, &mut rng);
        assert!((s.temperature() - 600.0).abs() < 1e-9);
        // No centre-of-mass drift.
        let p: Vec3 = (0..s.len()).map(|i| s.velocities[i] * s.mass(i)).sum();
        assert!(p.norm() < 1e-9);
    }

    #[test]
    fn zero_temperature_freezes() {
        let mut s = two_atom();
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        s.thermalize(300.0, &mut rng);
        assert!(s.temperature() > 0.0);
        s.thermalize(0.0, &mut rng);
        assert_eq!(s.kinetic_energy(), 0.0);
    }

    #[test]
    fn extend_concatenates() {
        let mut a = two_atom();
        let b = two_atom();
        a.extend_with(&b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.count(Element::Si), 2);
    }

    #[test]
    #[should_panic]
    fn mismatched_cells_rejected() {
        let mut a = two_atom();
        let b = AtomicSystem::new(Vec3::splat(11.0), vec![Element::H], vec![Vec3::ZERO]);
        a.extend_with(&b);
    }
}
