//! Nanoparticle and water-box builders for the §6 workloads.
//!
//! The paper simulates Li₃₀Al₃₀ (+182 H₂O, 606 atoms), Li₁₃₅Al₁₃₅ (4,836
//! atoms) and Li₄₄₁Al₄₄₁ (16,611 atoms) particles in water. Particles are
//! cut from the B32 LiAl crystal by taking the n Li and n Al sites closest
//! to the lattice centre — deterministic and stoichiometric by
//! construction.

use mqmd_md::builders::{lial_b32, LIAL_LATTICE_BOHR};
use mqmd_md::AtomicSystem;
use mqmd_util::constants::{Element, BOHR_ANGSTROM};
use mqmd_util::{Vec3, Xoshiro256pp};

/// Cuts a stoichiometric LiₙAlₙ nanoparticle from the B32 crystal, centred
/// in a cubic cell of side `cell` Bohr.
///
/// # Panics
/// Panics if the particle does not fit the requested cell with ~4 Bohr of
/// clearance.
pub fn lial_nanoparticle(n_pairs: usize, cell: f64) -> AtomicSystem {
    assert!(n_pairs >= 1);
    // A B32 supercell comfortably larger than the particle.
    let cells_needed = ((2.0 * n_pairs as f64).powf(1.0 / 3.0) / 1.6).ceil() as usize + 2;
    let lattice = lial_b32((cells_needed, cells_needed, cells_needed));
    let centre = lattice.cell * 0.5;

    // Rank all sites of each species by distance to the centre.
    let mut li: Vec<(f64, usize)> = Vec::new();
    let mut al: Vec<(f64, usize)> = Vec::new();
    for (i, (&e, &r)) in lattice.species.iter().zip(&lattice.positions).enumerate() {
        let d = (r - centre).min_image(lattice.cell).norm();
        match e {
            Element::Li => li.push((d, i)),
            Element::Al => al.push((d, i)),
            _ => unreachable!("B32 lattice contains only Li and Al"),
        }
    }
    li.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    al.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    assert!(
        li.len() >= n_pairs && al.len() >= n_pairs,
        "supercell too small"
    );

    let mut species = Vec::with_capacity(2 * n_pairs);
    let mut positions = Vec::with_capacity(2 * n_pairs);
    let target_centre = Vec3::splat(cell * 0.5);
    let mut r_max: f64 = 0.0;
    for &(d, i) in li.iter().take(n_pairs).chain(al.iter().take(n_pairs)) {
        species.push(lattice.species[i]);
        let rel = (lattice.positions[i] - centre).min_image(lattice.cell);
        positions.push(target_centre + rel);
        r_max = r_max.max(d);
    }
    assert!(
        2.0 * r_max + 4.0 <= cell,
        "particle radius {r_max:.1} Bohr does not fit cell {cell}"
    );
    AtomicSystem::new(Vec3::splat(cell), species, positions)
}

/// Estimated radius (Bohr) of a LiₙAlₙ particle from the B32 atom density.
pub fn particle_radius(n_pairs: usize) -> f64 {
    // 16 atoms per a³ cell.
    let density = 16.0 / LIAL_LATTICE_BOHR.powi(3);
    (3.0 * (2 * n_pairs) as f64 / (4.0 * std::f64::consts::PI * density)).cbrt()
}

/// O–H bond length of the rigid water model (0.9572 Å).
pub const WATER_OH_BOHR: f64 = 0.9572 / BOHR_ANGSTROM;
/// H–O–H angle (104.52°) in radians.
pub const WATER_ANGLE_RAD: f64 = 104.52 * std::f64::consts::PI / 180.0;

/// Builds one water molecule (O, H, H) at `origin` with a rotation drawn
/// from `rng`.
fn water_molecule(origin: Vec3, rng: &mut Xoshiro256pp) -> (Vec<Element>, Vec<Vec3>) {
    // Random orientation: pick a random unit vector u and an in-plane
    // perpendicular v.
    let u = random_unit(rng);
    let mut v = random_unit(rng);
    v = (v - u * u.dot(v)).normalized();
    let half = 0.5 * WATER_ANGLE_RAD;
    let h1 = origin + (u * half.cos() + v * half.sin()) * WATER_OH_BOHR;
    let h2 = origin + (u * half.cos() - v * half.sin()) * WATER_OH_BOHR;
    (
        vec![Element::O, Element::H, Element::H],
        vec![origin, h1, h2],
    )
}

fn random_unit(rng: &mut Xoshiro256pp) -> Vec3 {
    loop {
        let v = Vec3::new(
            rng.uniform_in(-1.0, 1.0),
            rng.uniform_in(-1.0, 1.0),
            rng.uniform_in(-1.0, 1.0),
        );
        let n = v.norm();
        if n > 1e-3 && n <= 1.0 {
            return v / n;
        }
    }
}

/// Fills the cell with `n_molecules` water molecules, rejecting placements
/// closer than `min_sep` Bohr to existing atoms (including the particle's).
pub fn water_box(
    base: &AtomicSystem,
    n_molecules: usize,
    min_sep: f64,
    rng: &mut Xoshiro256pp,
) -> AtomicSystem {
    let mut out = base.clone();
    let cell = out.cell;
    let mut attempts = 0usize;
    let max_attempts = 2000 * n_molecules.max(1);
    let mut placed = 0;
    while placed < n_molecules {
        attempts += 1;
        assert!(
            attempts < max_attempts,
            "could not place {n_molecules} waters at separation {min_sep} \
             (placed {placed}); cell too crowded"
        );
        let o = Vec3::new(
            rng.uniform_in(0.0, cell.x),
            rng.uniform_in(0.0, cell.y),
            rng.uniform_in(0.0, cell.z),
        );
        let ok = out
            .positions
            .iter()
            .all(|&r| (r - o).min_image(cell).norm() >= min_sep);
        if !ok {
            continue;
        }
        let (sp, pos) = water_molecule(o, rng);
        let mol = AtomicSystem::new(cell, sp, pos);
        out.extend_with(&mol);
        placed += 1;
    }
    out
}

/// The paper's solvated-particle workloads: LiₙAlₙ + `n_water` H₂O.
pub fn solvated_particle(n_pairs: usize, n_water: usize, cell: f64, seed: u64) -> AtomicSystem {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let particle = lial_nanoparticle(n_pairs, cell);
    water_box(&particle, n_water, 4.0, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn particle_is_stoichiometric() {
        for n in [5usize, 30] {
            let p = lial_nanoparticle(n, 60.0);
            assert_eq!(p.count(Element::Li), n);
            assert_eq!(p.count(Element::Al), n);
            assert_eq!(p.len(), 2 * n);
        }
    }

    #[test]
    fn paper_606_atom_system() {
        // Li₃₀Al₃₀ + 182 H₂O = 60 + 546 = 606 atoms (§5.5 / Fig 9a).
        let s = solvated_particle(30, 182, 50.0, 1);
        assert_eq!(s.len(), 606);
        assert_eq!(s.count(Element::O), 182);
        assert_eq!(s.count(Element::H), 364);
    }

    #[test]
    fn particle_is_compact() {
        let p = lial_nanoparticle(30, 60.0);
        let centre = Vec3::splat(30.0);
        let r_est = particle_radius(30);
        for &r in &p.positions {
            let d = (r - centre).min_image(p.cell).norm();
            assert!(d < r_est * 1.6, "atom {d} Bohr out vs estimate {r_est}");
        }
    }

    #[test]
    fn radius_scales_with_cube_root() {
        let r30 = particle_radius(30);
        let r441 = particle_radius(441);
        assert!((r441 / r30 - (441.0f64 / 30.0).cbrt()).abs() < 1e-12);
    }

    #[test]
    fn water_geometry_correct() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let (sp, pos) = water_molecule(Vec3::splat(5.0), &mut rng);
        assert_eq!(sp, vec![Element::O, Element::H, Element::H]);
        let d1 = (pos[1] - pos[0]).norm();
        let d2 = (pos[2] - pos[0]).norm();
        assert!((d1 - WATER_OH_BOHR).abs() < 1e-12);
        assert!((d2 - WATER_OH_BOHR).abs() < 1e-12);
        let cos = (pos[1] - pos[0]).dot(pos[2] - pos[0]) / (d1 * d2);
        assert!((cos.acos() - WATER_ANGLE_RAD).abs() < 1e-10);
    }

    #[test]
    fn water_box_respects_separation() {
        let base = lial_nanoparticle(10, 40.0);
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let s = water_box(&base, 20, 4.0, &mut rng);
        assert_eq!(s.count(Element::O), 20);
        // No O atom within 4 Bohr of a metal atom.
        for i in 0..s.len() {
            if s.species[i] != Element::O {
                continue;
            }
            for j in 0..base.len() {
                assert!(s.distance(i, j) >= 4.0 - 1e-9);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = solvated_particle(5, 10, 40.0, 42);
        let b = solvated_particle(5, 10, 40.0, 42);
        assert_eq!(a.positions.len(), b.positions.len());
        for (x, y) in a.positions.iter().zip(&b.positions) {
            assert_eq!(x, y);
        }
    }

    #[test]
    #[should_panic]
    fn oversized_particle_rejected() {
        lial_nanoparticle(441, 30.0); // r ≈ 17 Bohr cannot fit a 30 Bohr cell
    }
}
