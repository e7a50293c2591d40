//! Surface-site and Lewis-pair detection.
//!
//! Fig 9(b) normalises the H₂ production rate by the number of *surface*
//! atoms N_surf; the paper's mechanistic finding is that the reactive sites
//! are **neighbouring Lewis acid–base pairs** — surface Al (acid) adjacent
//! to surface Li (base). Both are detected geometrically here:
//! a metal atom is "surface" when its metal coordination number falls below
//! the bulk value, and a Lewis pair is a surface Li–Al bond.

use mqmd_md::neighbor::NeighborList;
use mqmd_md::AtomicSystem;
use mqmd_util::constants::Element;

/// Coordination cutoff for the B32 LiAl lattice: nearest Li–Al neighbours
/// sit at a·√3/4 ≈ 5.21 Bohr; 6.5 captures the first shell only.
const METAL_BOND_CUTOFF: f64 = 6.5;

/// Bulk coordination threshold. In B32 each atom has 4 like + 4 unlike
/// neighbours at √3a/4 ≈ 5.21 Bohr plus 6 unlike at a/2 ≈ 6.02 Bohr — 14
/// within the cutoff; atoms below this threshold are classified as surface.
const SURFACE_COORDINATION_THRESHOLD: usize = 12;

/// Result of the surface analysis of a nanoparticle.
#[derive(Clone, Debug)]
pub struct SurfaceAnalysis {
    /// Per-atom flag: is this metal atom on the surface?
    pub is_surface: Vec<bool>,
    /// Number of surface atoms N_surf.
    pub n_surface: usize,
    /// Indices of (surface Li, surface Al) bonded pairs — the Lewis
    /// acid–base sites.
    pub lewis_pairs: Vec<(usize, usize)>,
    /// Number of metal atoms considered.
    pub n_metal: usize,
}

/// Analyses the metal subsystem of `system` (water is ignored).
pub fn analyze_surface(system: &AtomicSystem) -> SurfaceAnalysis {
    let metal: Vec<usize> = (0..system.len())
        .filter(|&i| matches!(system.species[i], Element::Li | Element::Al))
        .collect();
    // Build a metal-only subsystem for the neighbour list.
    let sub = AtomicSystem::new(
        system.cell,
        metal.iter().map(|&i| system.species[i]).collect(),
        metal.iter().map(|&i| system.positions[i]).collect(),
    );
    let cutoff = METAL_BOND_CUTOFF.min(0.49 * system.cell.x.min(system.cell.y).min(system.cell.z));
    let list = NeighborList::build(&sub, cutoff);
    let coord = list.coordination(sub.len());

    let is_surface_local: Vec<bool> = coord
        .iter()
        .map(|&z| z < SURFACE_COORDINATION_THRESHOLD)
        .collect();

    let mut lewis_pairs = Vec::new();
    for &(a, b) in list.pairs() {
        let (a, b) = (a as usize, b as usize);
        if !(is_surface_local[a] && is_surface_local[b]) {
            continue;
        }
        match (sub.species[a], sub.species[b]) {
            (Element::Li, Element::Al) => lewis_pairs.push((metal[a], metal[b])),
            (Element::Al, Element::Li) => lewis_pairs.push((metal[b], metal[a])),
            _ => {}
        }
    }

    let mut is_surface = vec![false; system.len()];
    let mut n_surface = 0;
    for (local, &global) in metal.iter().enumerate() {
        if is_surface_local[local] {
            is_surface[global] = true;
            n_surface += 1;
        }
    }
    SurfaceAnalysis {
        is_surface,
        n_surface,
        lewis_pairs,
        n_metal: metal.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nanoparticle::lial_nanoparticle;

    #[test]
    fn small_particle_is_all_surface() {
        let p = lial_nanoparticle(5, 40.0);
        let s = analyze_surface(&p);
        assert_eq!(s.n_metal, 10);
        assert!(
            s.n_surface >= 9,
            "a 10-atom cluster is (almost) all surface: {}",
            s.n_surface
        );
    }

    #[test]
    fn large_particle_has_bulk_core() {
        let p = lial_nanoparticle(135, 70.0);
        let s = analyze_surface(&p);
        assert!(
            s.n_surface < s.n_metal,
            "bulk atoms must exist: {}",
            s.n_surface
        );
        assert!(
            s.n_surface > s.n_metal / 3,
            "but the surface is substantial"
        );
    }

    #[test]
    fn surface_fraction_decreases_with_size() {
        let f30 = {
            let p = lial_nanoparticle(30, 50.0);
            let s = analyze_surface(&p);
            s.n_surface as f64 / s.n_metal as f64
        };
        let f441 = {
            let p = lial_nanoparticle(441, 100.0);
            let s = analyze_surface(&p);
            s.n_surface as f64 / s.n_metal as f64
        };
        assert!(f441 < f30, "surface/volume shrinks: {f30} vs {f441}");
    }

    #[test]
    fn surface_scales_like_n_to_two_thirds() {
        let ns: Vec<f64> = [30usize, 135, 441]
            .iter()
            .map(|&n| {
                let p = lial_nanoparticle(
                    n,
                    (crate::nanoparticle::particle_radius(n) * 2.0 + 20.0).max(50.0),
                );
                analyze_surface(&p).n_surface as f64
            })
            .collect();
        // Fit N_surf ~ (2n)^α: α should be near 2/3 (within the noise of
        // small discrete clusters).
        let x: Vec<f64> = [30.0f64, 135.0, 441.0]
            .iter()
            .map(|n| (2.0 * n).ln())
            .collect();
        let y: Vec<f64> = ns.iter().map(|v| v.ln()).collect();
        let fit = mqmd_util::fit::linear_fit(&x, &y);
        assert!(
            (0.45..=0.95).contains(&fit.slope),
            "surface exponent {} (expected ≈ 2/3)",
            fit.slope
        );
    }

    #[test]
    fn lewis_pairs_exist_and_are_li_al() {
        let p = lial_nanoparticle(30, 50.0);
        let s = analyze_surface(&p);
        assert!(!s.lewis_pairs.is_empty(), "B32 surface has Li–Al contacts");
        for &(li, al) in &s.lewis_pairs {
            assert_eq!(p.species[li], Element::Li);
            assert_eq!(p.species[al], Element::Al);
            assert!(s.is_surface[li] && s.is_surface[al]);
            assert!(p.distance(li, al) <= METAL_BOND_CUTOFF);
        }
    }

    #[test]
    fn water_does_not_count_as_surface() {
        let base = lial_nanoparticle(10, 45.0);
        let mut rng = mqmd_util::Xoshiro256pp::seed_from_u64(5);
        let solvated = crate::nanoparticle::water_box(&base, 15, 4.0, &mut rng);
        let s = analyze_surface(&solvated);
        assert_eq!(s.n_metal, 20);
        for i in 0..solvated.len() {
            if matches!(solvated.species[i], Element::O | Element::H) {
                assert!(!s.is_surface[i]);
            }
        }
    }
}
