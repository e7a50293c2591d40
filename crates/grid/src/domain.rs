//! Divide-and-conquer domain decomposition (paper Fig 1).
//!
//! The periodic global cell is tiled by `ndx × ndy × ndz` non-overlapping
//! cubic cores Ω₀α of side `l = L/nd`; each core is padded by a buffer of
//! thickness `b` into an overlapping domain Ωα of side `l + 2b`. Physical
//! fields live on each domain's own local grid (with periodic boundary
//! conditions on the *domain*, per the LDC treatment of §3.1), and the
//! partition-of-unity support functions `pα` stitch domain fields back into
//! global ones.

use crate::support::weight_3d;
use crate::ugrid::UniformGrid3;
use mqmd_util::vec3::wrap_coord;
use mqmd_util::Vec3;

/// One DC domain: core box plus buffer shell.
#[derive(Clone, Debug)]
pub struct Domain {
    /// Index of this domain within its decomposition.
    pub id: usize,
    /// Integer coordinates of the core within the domain lattice.
    pub lattice: (usize, usize, usize),
    /// Corner of the core box in global coordinates (Bohr).
    pub core_origin: Vec3,
    /// Core side lengths `l` (Bohr).
    pub core_len: Vec3,
    /// Buffer thickness per axis (Bohr). Axes spanned by a single domain
    /// get zero buffer (the domain already covers the cell periodically);
    /// otherwise the requested buffer, clamped so the domain fits the cell.
    pub buffer: Vec3,
    /// Global cell side lengths (Bohr), for periodic wrapping.
    pub cell: Vec3,
}

impl Domain {
    /// Domain side lengths `l + 2b`.
    pub fn domain_len(&self) -> Vec3 {
        self.core_len + self.buffer * 2.0
    }

    /// Corner of the domain box (core origin minus buffer) in global
    /// coordinates, possibly negative before wrapping.
    pub fn domain_origin(&self) -> Vec3 {
        self.core_origin - self.buffer
    }

    /// Volume of the domain box.
    pub fn volume(&self) -> f64 {
        let d = self.domain_len();
        d.x * d.y * d.z
    }

    /// Maps a global position to domain-local coordinates in
    /// `[0, l+2b)³` if the (periodically wrapped) point lies inside the
    /// domain box, else `None`.
    pub fn to_local(&self, r: Vec3) -> Option<Vec3> {
        Some(Vec3::new(
            self.to_local_axis(0, r.x)?,
            self.to_local_axis(1, r.y)?,
            self.to_local_axis(2, r.z)?,
        ))
    }

    /// One axis (`0`, `1`, `2` = x, y, z) of [`Self::to_local`]: the box is
    /// a product of intervals, so each coordinate maps on its own.
    pub fn to_local_axis(&self, axis: usize, x: f64) -> Option<f64> {
        // Relative to the domain corner, minimum-image style.
        let rel = wrap_coord(x - self.domain_origin()[axis], self.cell[axis]);
        (rel < self.domain_len()[axis]).then_some(rel)
    }

    /// Maps domain-local coordinates back to a wrapped global position.
    pub fn to_global(&self, local: Vec3) -> Vec3 {
        Vec3::new(
            self.to_global_axis(0, local.x),
            self.to_global_axis(1, local.y),
            self.to_global_axis(2, local.z),
        )
    }

    /// One axis of [`Self::to_global`].
    pub fn to_global_axis(&self, axis: usize, local: f64) -> f64 {
        wrap_coord(self.domain_origin()[axis] + local, self.cell[axis])
    }

    /// Returns whether the wrapped point lies in the (half-open) core box.
    pub fn core_contains(&self, r: Vec3) -> bool {
        match self.to_local(r) {
            None => false,
            Some(loc) => {
                let b = self.buffer;
                loc.x >= b.x
                    && loc.x < b.x + self.core_len.x
                    && loc.y >= b.y
                    && loc.y < b.y + self.core_len.y
                    && loc.z >= b.z
                    && loc.z < b.z + self.core_len.z
            }
        }
    }

    /// Un-normalised support weight `wα(r)` (1 on the core, smooth decay to 0
    /// across the buffer).
    pub fn weight(&self, r: Vec3) -> f64 {
        match self.to_local(r) {
            None => 0.0,
            Some(loc) => {
                // support::profile_1d uses core-relative coordinates.
                let x = [
                    loc.x - self.buffer.x,
                    loc.y - self.buffer.y,
                    loc.z - self.buffer.z,
                ];
                weight_3d(x, self.core_len.to_array(), self.buffer.to_array())
            }
        }
    }

    /// Builds this domain's local grid with approximately the requested grid
    /// spacing, rounding the point count up to the next power of two per axis
    /// (so the local FFT solver always hits the fast radix-2 path).
    pub fn local_grid(&self, target_spacing: f64) -> UniformGrid3 {
        let d = self.domain_len();
        let pick = |len: f64| {
            ((len / target_spacing).ceil() as usize)
                .next_power_of_two()
                .max(4)
        };
        UniformGrid3::new((pick(d.x), pick(d.y), pick(d.z)), (d.x, d.y, d.z))
    }
}

/// A full decomposition of the global cell into DC domains.
#[derive(Clone, Debug)]
pub struct DomainDecomposition {
    domains: Vec<Domain>,
    nd: (usize, usize, usize),
    cell: Vec3,
    buffer: f64,
}

impl DomainDecomposition {
    /// Decomposes a periodic cell of side lengths `cell` into
    /// `ndx × ndy × ndz` domains with requested buffer thickness `buffer`.
    ///
    /// The effective buffer is clamped per axis to `(cell − core)/2` so a
    /// domain never overlaps its own periodic image; in particular an axis
    /// spanned by a single domain gets zero buffer (the domain already
    /// covers that axis periodically).
    pub fn new(cell: Vec3, nd: (usize, usize, usize), buffer: f64) -> Self {
        let (ndx, ndy, ndz) = nd;
        assert!(
            ndx > 0 && ndy > 0 && ndz > 0,
            "need at least one domain per axis"
        );
        assert!(buffer >= 0.0, "buffer must be non-negative");
        let core = Vec3::new(
            cell.x / ndx as f64,
            cell.y / ndy as f64,
            cell.z / ndz as f64,
        );
        let buffer_vec = Vec3::new(
            buffer.min(0.5 * (cell.x - core.x)),
            buffer.min(0.5 * (cell.y - core.y)),
            buffer.min(0.5 * (cell.z - core.z)),
        );
        let mut domains = Vec::with_capacity(ndx * ndy * ndz);
        for ix in 0..ndx {
            for iy in 0..ndy {
                for iz in 0..ndz {
                    let id = (ix * ndy + iy) * ndz + iz;
                    domains.push(Domain {
                        id,
                        lattice: (ix, iy, iz),
                        core_origin: Vec3::new(
                            ix as f64 * core.x,
                            iy as f64 * core.y,
                            iz as f64 * core.z,
                        ),
                        core_len: core,
                        buffer: buffer_vec,
                        cell,
                    });
                }
            }
        }
        Self {
            domains,
            nd,
            cell,
            buffer,
        }
    }

    /// The domains, ordered by flat lattice index.
    pub fn domains(&self) -> &[Domain] {
        &self.domains
    }

    /// Number of domains.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// True if the decomposition has no domains (never: constructor forbids).
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// Domain lattice dimensions.
    pub fn nd(&self) -> (usize, usize, usize) {
        self.nd
    }

    /// Requested (nominal) buffer thickness; per-axis effective values live
    /// on each [`Domain`].
    pub fn buffer(&self) -> f64 {
        self.buffer
    }

    /// Global cell lengths.
    pub fn cell(&self) -> Vec3 {
        self.cell
    }

    /// The domain whose *core* contains the wrapped point (unique since the
    /// cores tile the cell).
    pub fn core_owner(&self, r: Vec3) -> &Domain {
        let w = r.wrap(self.cell);
        let (ndx, ndy, ndz) = self.nd;
        let ix = ((w.x / self.cell.x * ndx as f64) as usize).min(ndx - 1);
        let iy = ((w.y / self.cell.y * ndy as f64) as usize).min(ndy - 1);
        let iz = ((w.z / self.cell.z * ndz as f64) as usize).min(ndz - 1);
        &self.domains[(ix * ndy + iy) * ndz + iz]
    }

    /// All domains whose box (core + buffer) contains the point.
    pub fn domains_containing(&self, r: Vec3) -> Vec<&Domain> {
        // Only the core owner and its lattice neighbours can contain r.
        let owner = self.core_owner(r).lattice;
        let (ndx, ndy, ndz) = self.nd;
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for dx in -1i64..=1 {
            for dy in -1i64..=1 {
                for dz in -1i64..=1 {
                    let ix = (owner.0 as i64 + dx).rem_euclid(ndx as i64) as usize;
                    let iy = (owner.1 as i64 + dy).rem_euclid(ndy as i64) as usize;
                    let iz = (owner.2 as i64 + dz).rem_euclid(ndz as i64) as usize;
                    let id = (ix * ndy + iy) * ndz + iz;
                    if seen.insert(id) && self.domains[id].to_local(r).is_some() {
                        out.push(&self.domains[id]);
                    }
                }
            }
        }
        out
    }

    /// Normalised partition-of-unity values `pα(r)` for every domain whose
    /// support contains `r`. The returned `(domain id, pα)` pairs sum to 1.
    pub fn support_at(&self, r: Vec3) -> Vec<(usize, f64)> {
        let cands = self.domains_containing(r);
        let mut weights: Vec<(usize, f64)> = cands
            .iter()
            .map(|d| (d.id, d.weight(r)))
            .filter(|&(_, w)| w > 0.0)
            .collect();
        let total: f64 = weights.iter().map(|&(_, w)| w).sum();
        debug_assert!(
            total > 0.0,
            "cores tile space, so some weight must be positive"
        );
        for (_, w) in &mut weights {
            *w /= total;
        }
        weights
    }

    /// Nearest-neighbour domain ids (face neighbours on the periodic domain
    /// lattice) — the point-to-point communication pattern of §5.1.
    pub fn face_neighbors(&self, id: usize) -> Vec<usize> {
        let d = &self.domains[id];
        let (ndx, ndy, ndz) = self.nd;
        let (ix, iy, iz) = d.lattice;
        let mut out = Vec::new();
        for (dx, dy, dz) in [
            (-1i64, 0i64, 0i64),
            (1, 0, 0),
            (0, -1, 0),
            (0, 1, 0),
            (0, 0, -1),
            (0, 0, 1),
        ] {
            let jx = (ix as i64 + dx).rem_euclid(ndx as i64) as usize;
            let jy = (iy as i64 + dy).rem_euclid(ndy as i64) as usize;
            let jz = (iz as i64 + dz).rem_euclid(ndz as i64) as usize;
            let j = (jx * ndy + jy) * ndz + jz;
            if j != id && !out.contains(&j) {
                out.push(j);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decomp() -> DomainDecomposition {
        DomainDecomposition::new(Vec3::splat(12.0), (3, 3, 3), 1.0)
    }

    #[test]
    fn cores_tile_cell() {
        let dd = decomp();
        assert_eq!(dd.len(), 27);
        // Every sample point is in exactly one core.
        let mut rng = mqmd_util::Xoshiro256pp::seed_from_u64(0);
        for _ in 0..500 {
            let r = Vec3::new(
                rng.uniform_in(0.0, 12.0),
                rng.uniform_in(0.0, 12.0),
                rng.uniform_in(0.0, 12.0),
            );
            let owners = dd.domains().iter().filter(|d| d.core_contains(r)).count();
            assert_eq!(owners, 1, "point {r:?} owned by {owners} cores");
            assert!(dd.core_owner(r).core_contains(r));
        }
    }

    #[test]
    fn partition_of_unity_sums_to_one() {
        let dd = decomp();
        let mut rng = mqmd_util::Xoshiro256pp::seed_from_u64(1);
        for _ in 0..500 {
            let r = Vec3::new(
                rng.uniform_in(-5.0, 20.0),
                rng.uniform_in(-5.0, 20.0),
                rng.uniform_in(-5.0, 20.0),
            );
            let p = dd.support_at(r);
            let sum: f64 = p.iter().map(|&(_, w)| w).sum();
            assert!((sum - 1.0).abs() < 1e-12, "sum rule broken at {r:?}: {sum}");
            for &(_, w) in &p {
                assert!((0.0..=1.0 + 1e-12).contains(&w));
            }
        }
    }

    #[test]
    fn deep_core_point_has_unit_support() {
        let dd = decomp();
        // Centre of domain (0,0,0)'s core, far (> b) from all boundaries.
        let r = Vec3::splat(2.0);
        let p = dd.support_at(r);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].0, dd.core_owner(r).id);
        assert!((p[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn local_global_round_trip() {
        let dd = decomp();
        let d = &dd.domains()[13];
        let mut rng = mqmd_util::Xoshiro256pp::seed_from_u64(2);
        for _ in 0..200 {
            let dl = d.domain_len();
            let local = Vec3::new(
                rng.uniform_in(0.0, dl.x - 1e-9),
                rng.uniform_in(0.0, dl.y - 1e-9),
                rng.uniform_in(0.0, dl.z - 1e-9),
            );
            let g = d.to_global(local);
            let back = d
                .to_local(g)
                .expect("global point must map back into the domain");
            assert!((back - local).norm() < 1e-9);
        }
    }

    #[test]
    fn buffer_point_shared_between_domains() {
        let dd = decomp();
        // A point just across the x-boundary of domain (0,·,·)'s core at
        // x = 4 lies in the buffer overlap of two domains.
        let r = Vec3::new(4.2, 2.0, 2.0);
        let p = dd.support_at(r);
        assert!(p.len() >= 2, "expected overlap, got {p:?}");
    }

    #[test]
    fn periodic_wrap_across_cell_edge() {
        let dd = decomp();
        // A point just outside the cell maps into domain (0,0,0)'s core.
        let r = Vec3::new(12.5, 0.5, 0.5);
        assert!(dd.core_owner(r).lattice == (0, 0, 0));
        // And a point at −0.5 (wrapped: 11.5) belongs to the last domain.
        let r2 = Vec3::new(-0.5, 0.5, 0.5);
        assert_eq!(dd.core_owner(r2).lattice.0, 2);
    }

    #[test]
    fn face_neighbors_on_periodic_lattice() {
        let dd = decomp();
        let n = dd.face_neighbors(0);
        assert_eq!(n.len(), 6);
        // 2-domain axes: the ±x neighbours coincide, so only 3 distinct
        // face neighbours remain.
        let dd2 = DomainDecomposition::new(Vec3::splat(8.0), (2, 2, 2), 1.0);
        let n2 = dd2.face_neighbors(0);
        assert_eq!(n2.len(), 3);
        assert!(n2.contains(&4) && n2.contains(&2) && n2.contains(&1));
    }

    #[test]
    fn local_grid_is_pow2_and_covers_domain() {
        let dd = decomp();
        let g = dd.domains()[0].local_grid(0.5);
        let (nx, ny, nz) = g.dims();
        assert!(nx.is_power_of_two() && ny.is_power_of_two() && nz.is_power_of_two());
        let (lx, _, _) = g.lengths();
        assert!((lx - 6.0).abs() < 1e-12, "domain length l+2b = 4+2 = 6");
        let (hx, _, _) = g.spacing();
        assert!(hx <= 0.5 + 1e-12);
    }

    #[test]
    fn oversized_buffer_clamped() {
        // core 4 + 2×3 = 10 > cell 8 per axis with nd = 2: the buffer is
        // clamped to (8 − 4)/2 = 2 so domains exactly span the cell.
        let dd = DomainDecomposition::new(Vec3::splat(8.0), (2, 2, 2), 3.0);
        let d = &dd.domains()[0];
        assert!((d.buffer - Vec3::splat(2.0)).norm() < 1e-12);
        assert!((d.domain_len() - Vec3::splat(8.0)).norm() < 1e-12);
    }

    #[test]
    fn point_a_hair_below_zero_belongs_to_a_domain() {
        // x − origin = −ε wraps to the cell length under a bare
        // `rem_euclid`, which a whole-cell domain's `x < len` then rejects:
        // no domain held the point and `support_at` divided by zero.
        // (Not asserted here: with nd > 1 a point half an ulp below a
        // *core* face can still round onto the face from both sides and
        // have no core owner. MD positions are wrapped into [0, l) by the
        // integrator, so the solver never sees one.)
        let eps = -f64::EPSILON;
        for nd in [(1, 1, 1), (2, 1, 1), (3, 3, 3)] {
            let dd = DomainDecomposition::new(Vec3::splat(8.0), nd, 1.0);
            for r in [
                Vec3::new(eps, 4.0, 4.0),
                Vec3::new(4.0, eps, 4.0),
                Vec3::new(4.0, 4.0, -1e-18),
                Vec3::splat(eps),
            ] {
                let p = dd.support_at(r);
                let sum: f64 = p.iter().map(|&(_, w)| w).sum();
                assert!((sum - 1.0).abs() < 1e-12, "nd {nd:?}, {r:?}: Σpα = {sum}");
            }
        }
    }

    #[test]
    fn single_domain_axis_gets_zero_buffer() {
        let dd = DomainDecomposition::new(Vec3::splat(8.0), (2, 1, 1), 1.0);
        let d = &dd.domains()[0];
        assert_eq!(d.buffer.x, 1.0);
        assert_eq!(d.buffer.y, 0.0);
        assert_eq!(d.buffer.z, 0.0);
        // The y/z extent is the whole cell; the partition of unity still
        // sums to one everywhere.
        let r = Vec3::new(3.9, 7.9, 0.1);
        let sum: f64 = dd.support_at(r).iter().map(|&(_, w)| w).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }
}
