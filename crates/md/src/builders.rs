//! Workload builders for the paper's benchmark systems.
//!
//! * SiC zinc-blende supercells — the weak-scaling workload (Fig 5, 64 atoms
//!   per core) and the FLOP/s measurement systems (Tables 1–2);
//! * CdSe (zinc-blende and amorphised) — the buffer-convergence study of
//!   Fig 7 (512 atoms in a 45.664 a.u. box, i.e. 4³ conventional cells of
//!   lattice constant 11.416 a.u.);
//! * LiAl B32 (Zintl) crystal — the seed lattice from which `mqmd-chem` cuts
//!   the LiₙAlₙ nanoparticles of the hydrogen-on-demand study (§6).

use crate::structure::AtomicSystem;
use mqmd_util::constants::Element;
use mqmd_util::{Vec3, Xoshiro256pp};

/// Zinc-blende lattice constant of SiC: 4.3596 Å ≈ 8.239 Bohr.
pub const SIC_LATTICE_BOHR: f64 = 8.239;

/// Zinc-blende lattice constant of CdSe chosen to match the paper's Fig 7
/// geometry: 512 atoms in a cubic box of 45.664 a.u. → a = 11.416 a.u.
pub const CDSE_LATTICE_BOHR: f64 = 11.416;

/// B32 (NaTl-type) lattice constant of LiAl: 6.37 Å ≈ 12.037 Bohr.
pub const LIAL_LATTICE_BOHR: f64 = 12.037;

/// FCC basis sites in fractional coordinates.
const FCC: [[f64; 3]; 4] = [
    [0.0, 0.0, 0.0],
    [0.0, 0.5, 0.5],
    [0.5, 0.0, 0.5],
    [0.5, 0.5, 0.0],
];

/// Builds an `ncx × ncy × ncz` supercell of a zinc-blende AB crystal with
/// conventional lattice constant `a` (8 atoms per conventional cell).
fn zincblende(
    a: f64,
    elem_a: Element,
    elem_b: Element,
    (ncx, ncy, ncz): (usize, usize, usize),
) -> AtomicSystem {
    assert!(ncx > 0 && ncy > 0 && ncz > 0);
    let cell = Vec3::new(ncx as f64 * a, ncy as f64 * a, ncz as f64 * a);
    let mut species = Vec::new();
    let mut positions = Vec::new();
    for cx in 0..ncx {
        for cy in 0..ncy {
            for cz in 0..ncz {
                let origin = Vec3::new(cx as f64, cy as f64, cz as f64) * a;
                for f in FCC {
                    species.push(elem_a);
                    positions.push(origin + Vec3::new(f[0], f[1], f[2]) * a);
                    species.push(elem_b);
                    positions.push(origin + Vec3::new(f[0] + 0.25, f[1] + 0.25, f[2] + 0.25) * a);
                }
            }
        }
    }
    AtomicSystem::new(cell, species, positions)
}

/// SiC zinc-blende supercell (the scaling workload).
pub fn sic_supercell(nc: (usize, usize, usize)) -> AtomicSystem {
    zincblende(SIC_LATTICE_BOHR, Element::Si, Element::C, nc)
}

/// CdSe zinc-blende supercell; `sic_supercell`'s analogue for Fig 7.
pub fn cdse_supercell(nc: (usize, usize, usize)) -> AtomicSystem {
    zincblende(CDSE_LATTICE_BOHR, Element::Cd, Element::Se, nc)
}

/// B32 (NaTl) LiAl supercell: Li and Al each occupy one of two
/// interpenetrating diamond sublattices (16 atoms per conventional cell).
pub fn lial_b32(nc: (usize, usize, usize)) -> AtomicSystem {
    let a = LIAL_LATTICE_BOHR;
    let (ncx, ncy, ncz) = nc;
    assert!(ncx > 0 && ncy > 0 && ncz > 0);
    let cell = Vec3::new(ncx as f64 * a, ncy as f64 * a, ncz as f64 * a);
    let mut species = Vec::new();
    let mut positions = Vec::new();
    for cx in 0..ncx {
        for cy in 0..ncy {
            for cz in 0..ncz {
                let origin = Vec3::new(cx as f64, cy as f64, cz as f64) * a;
                for f in FCC {
                    // Diamond sublattice A (Li): fcc + fcc offset by ¼¼¼.
                    for off in [[0.0, 0.0, 0.0], [0.25, 0.25, 0.25]] {
                        species.push(Element::Li);
                        positions.push(
                            origin + Vec3::new(f[0] + off[0], f[1] + off[1], f[2] + off[2]) * a,
                        );
                    }
                    // Diamond sublattice B (Al): shifted by ½½½.
                    for off in [[0.5, 0.5, 0.5], [0.75, 0.75, 0.75]] {
                        species.push(Element::Al);
                        positions.push(
                            origin + Vec3::new(f[0] + off[0], f[1] + off[1], f[2] + off[2]) * a,
                        );
                    }
                }
            }
        }
    }
    AtomicSystem::new(cell, species, positions)
}

/// Adds zero-mean Gaussian displacements of width `sigma` (Bohr) to every
/// atom — the cheap amorphisation used for the a-CdSe convergence study.
pub fn amorphize(system: &mut AtomicSystem, sigma: f64, rng: &mut Xoshiro256pp) {
    let cell = system.cell;
    for r in &mut system.positions {
        *r = (*r
            + Vec3::new(
                rng.normal_scaled(0.0, sigma),
                rng.normal_scaled(0.0, sigma),
                rng.normal_scaled(0.0, sigma),
            ))
        .wrap(cell);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sic_counts_and_stoichiometry() {
        let s = sic_supercell((2, 2, 2));
        assert_eq!(s.len(), 64); // 8 atoms × 8 cells
        assert_eq!(s.count(Element::Si), 32);
        assert_eq!(s.count(Element::C), 32);
    }

    #[test]
    fn paper_weak_scaling_granularity() {
        // 64 atoms per core means one 2×2×2-cell SiC block per core (Fig 5).
        let s = sic_supercell((2, 2, 2));
        assert_eq!(s.len(), 64);
    }

    #[test]
    fn zincblende_nearest_neighbour_distance() {
        // In zinc blende the A–B nearest-neighbour distance is a·√3/4.
        let s = sic_supercell((2, 2, 2));
        let expect = SIC_LATTICE_BOHR * 3f64.sqrt() / 4.0;
        // Atom 0 is Si at origin; find its closest C.
        let mut dmin = f64::INFINITY;
        for j in 1..s.len() {
            if s.species[j] == Element::C {
                dmin = dmin.min(s.distance(0, j));
            }
        }
        assert!((dmin - expect).abs() < 1e-9);
    }

    #[test]
    fn lial_b32_counts() {
        let s = lial_b32((2, 2, 2));
        assert_eq!(s.len(), 128);
        assert_eq!(s.count(Element::Li), 64);
        assert_eq!(s.count(Element::Al), 64);
    }

    #[test]
    fn lial_b32_no_overlapping_sites() {
        let s = lial_b32((1, 1, 1));
        for i in 0..s.len() {
            for j in (i + 1)..s.len() {
                assert!(
                    s.distance(i, j) > 1.0,
                    "atoms {i},{j} too close: {}",
                    s.distance(i, j)
                );
            }
        }
    }

    #[test]
    fn amorphize_moves_atoms_but_keeps_count() {
        let mut s = sic_supercell((1, 1, 1));
        let before = s.positions.clone();
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        amorphize(&mut s, 0.2, &mut rng);
        assert_eq!(s.len(), 8);
        let moved = s
            .positions
            .iter()
            .zip(&before)
            .filter(|(a, b)| (**a - **b).min_image(s.cell).norm() > 1e-6)
            .count();
        assert_eq!(moved, 8);
    }
}
