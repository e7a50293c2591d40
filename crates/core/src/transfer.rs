//! The two grid transfers of LDC-DFT, planned once.
//!
//! *Gather* samples a field of the global grid (V_Hxc, V_ion, and ρ for
//! Eq. (2)'s boundary potential) onto a domain's local grid; *recombine* is
//! Eq. (1), `ρ(r) = Σα pα(r)·ρα(r)`, from the local grids back onto the
//! global one. Both are fixed linear maps of the cell, the domain lattice,
//! the buffer and the two grid spacings — nothing in them depends on where
//! the atoms are or on the SCF iteration — so a [`TransferPlan`] tabulates
//! them when a solver first meets that geometry and every SCF iteration, MD
//! step and pooled job after that walks the tables.
//!
//! Trilinear weights are separable, and so are the positions involved (a
//! grid point's x depends on its x index alone, and a domain box is a
//! product of intervals): each direction stores one [`AxisTap`] per *axis
//! index*, not eight weights per point, and forms `wx·wy·wz` on the fly with
//! [`UniformGrid3::apply_taps`] — the loop [`UniformGrid3::interpolate`]
//! itself runs. The partition-of-unity weights `pα` are not separable (they
//! are normalised by a sum over domains), so recombine keeps them per global
//! grid point, in CSR form, in the order
//! [`DomainDecomposition::support_at`] lists them. A table walk therefore
//! adds the same products in the same order as the pointwise
//! `support_at` + `to_local` + `interpolate` evaluation the tables were built
//! from, and the two are bitwise equal.

use mqmd_dft::pw::PlaneWaveBasis;
use mqmd_dft::solver::grid_for_cell;
use mqmd_grid::ugrid::AxisTap;
use mqmd_grid::{Domain, DomainDecomposition, UniformGrid3};
use mqmd_util::flops::par_min_len;
use mqmd_util::Vec3;
use rayon::prelude::*;
use std::sync::Arc;

/// The coordinate of grid plane `i` along `axis`, as
/// [`UniformGrid3::position`] computes it.
fn plane_coord(grid: &UniformGrid3, axis: usize, i: usize) -> f64 {
    let mut idx = [0; 3];
    idx[axis] = i;
    grid.position(idx[0], idx[1], idx[2])[axis]
}

/// The position-independent half of a domain's set-up: its box, local grid,
/// plane-wave basis and support function, and its side of the two transfer
/// tables. Shared (`Arc`) between the solver's [`TransferPlan`] and the
/// [`DomainSetup`](crate::domain_solver::DomainSetup) of each solve.
pub struct DomainGeometry {
    /// The domain box.
    pub domain: Domain,
    /// The domain's local real-space grid.
    pub grid: UniformGrid3,
    /// Plane-wave basis on the local grid.
    pub basis: PlaneWaveBasis,
    /// Support function pα sampled on the local grid.
    pub p_alpha: Vec<f64>,
    /// The global grid the tables refer to.
    global_grid: UniformGrid3,
    /// Gather: per axis, local plane index → global-grid tap.
    gather: [Vec<AxisTap>; 3],
    /// Recombine: per axis, global plane index → local-grid tap, `None`
    /// where the plane lies outside the domain box.
    scatter: [Vec<Option<AxisTap>>; 3],
}

impl DomainGeometry {
    /// Tabulates one domain of `dd` against `global_grid`.
    pub fn new(
        domain: &Domain,
        dd: &DomainDecomposition,
        spacing: f64,
        ecut: f64,
        global_grid: &UniformGrid3,
    ) -> Self {
        let grid = domain.local_grid(spacing);
        let local_dims: [usize; 3] = grid.dims().into();
        let global_dims: [usize; 3] = global_grid.dims().into();
        let gather = [0, 1, 2].map(|axis| {
            (0..local_dims[axis])
                .map(|i| {
                    let x = domain.to_global_axis(axis, plane_coord(&grid, axis, i));
                    global_grid.axis_tap(axis, x)
                })
                .collect()
        });
        let scatter = [0, 1, 2].map(|axis| {
            (0..global_dims[axis])
                .map(|i| {
                    let local = domain.to_local_axis(axis, plane_coord(global_grid, axis, i))?;
                    Some(grid.axis_tap(axis, local))
                })
                .collect()
        });
        // pα at the global position of every local grid point.
        let p_alpha = grid.sample(|local| {
            dd.support_at(domain.to_global(local))
                .into_iter()
                .find(|&(id, _)| id == domain.id)
                .map_or(0.0, |(_, w)| w)
        });
        Self {
            domain: domain.clone(),
            basis: PlaneWaveBasis::new(grid.clone(), ecut),
            grid,
            p_alpha,
            global_grid: global_grid.clone(),
            gather,
            scatter,
        }
    }

    /// Samples a field of the global grid onto this domain's local grid
    /// (trilinear, periodic) into `out`. Allocates nothing.
    pub fn sample_global_field(&self, field: &[f64], out: &mut [f64]) {
        assert_eq!(field.len(), self.global_grid.len());
        assert_eq!(out.len(), self.grid.len());
        let [gx, gy, gz] = &self.gather;
        let mut out = out.iter_mut();
        for tx in gx {
            for ty in gy {
                for (tz, o) in gz.iter().zip(&mut out) {
                    *o = self.global_grid.apply_taps(field, [tx, ty, tz]);
                }
            }
        }
    }

    /// A field of the local grid interpolated at global grid point
    /// `(ix, iy, iz)`; `None` if the point lies outside the domain box.
    fn local_field_at(&self, field: &[f64], (ix, iy, iz): (usize, usize, usize)) -> Option<f64> {
        let [sx, sy, sz] = &self.scatter;
        let taps = [sx[ix].as_ref()?, sy[iy].as_ref()?, sz[iz].as_ref()?];
        Some(self.grid.apply_taps(field, taps))
    }
}

/// Every domain's [`DomainGeometry`] of one `(cell, nd, buffer, spacings,
/// ecut)`, and the recombination table over them.
pub struct TransferPlan {
    global_grid: UniformGrid3,
    /// One geometry per domain, in domain-id order.
    domains: Vec<Arc<DomainGeometry>>,
    /// CSR row starts into `cover`, one row per global grid point.
    row_start: Vec<usize>,
    /// `(domain id, pα)` of every domain whose support covers the row's
    /// grid point, in `support_at` order.
    cover: Vec<(usize, f64)>,
}

impl TransferPlan {
    /// Builds the decomposition, the global grid and every domain's
    /// geometry, and tabulates the partition of unity on the global grid.
    pub fn new(
        cell: Vec3,
        nd: (usize, usize, usize),
        buffer: f64,
        global_spacing: f64,
        domain_spacing: f64,
        ecut: f64,
    ) -> Self {
        let dd = DomainDecomposition::new(cell, nd, buffer);
        let global_grid = grid_for_cell(cell, global_spacing);
        let domains = dd
            .domains()
            .par_iter()
            .map(|d| {
                Arc::new(DomainGeometry::new(
                    d,
                    &dd,
                    domain_spacing,
                    ecut,
                    &global_grid,
                ))
            })
            .collect();
        let rows: Vec<Vec<(usize, f64)>> = (0..global_grid.len())
            .into_par_iter()
            .with_min_len(par_min_len(256))
            .map(|flat| {
                let (ix, iy, iz) = global_grid.coords(flat);
                dd.support_at(global_grid.position(ix, iy, iz))
            })
            .collect();
        let mut row_start = Vec::with_capacity(rows.len() + 1);
        let mut cover = Vec::with_capacity(rows.iter().map(Vec::len).sum());
        for row in rows {
            row_start.push(cover.len());
            cover.extend(row);
        }
        row_start.push(cover.len());
        Self {
            global_grid,
            domains,
            row_start,
            cover,
        }
    }

    /// The global grid.
    pub fn global_grid(&self) -> &UniformGrid3 {
        &self.global_grid
    }

    /// Every domain's geometry, in domain-id order.
    pub fn domains(&self) -> &[Arc<DomainGeometry>] {
        &self.domains
    }

    /// The share of the global density `ρ(r) = Σα pα(r)·ρα(r)` that the
    /// domains present in `rho_of` contribute, before clamping, into `out`:
    /// `rho_of[id]` is domain `id`'s density on its local grid, or `None`
    /// for a domain that is empty or solved by another rank. Summing the
    /// shares over ranks, clamping at zero and rescaling to the electron
    /// count is the caller's. Allocates nothing.
    pub fn partial_density(&self, rho_of: &[Option<&[f64]>], out: &mut [f64]) {
        assert_eq!(rho_of.len(), self.domains.len());
        assert_eq!(out.len(), self.global_grid.len());
        for (rho_a, geometry) in rho_of.iter().zip(&self.domains) {
            assert!(rho_a.is_none_or(|r| r.len() == geometry.grid.len()));
        }
        let (_, ny, nz) = self.global_grid.dims();
        // A grid point costs one eight-corner stencil per covering domain.
        out.par_chunks_mut(nz)
            .with_min_len(par_min_len(32 * nz as u64))
            .enumerate()
            .for_each(|(row, out_row)| {
                let (ix, iy) = (row / ny, row % ny);
                for (iz, o) in out_row.iter_mut().enumerate() {
                    let flat = row * nz + iz;
                    let entries = self.row_start[flat]..self.row_start[flat + 1];
                    let mut acc = 0.0;
                    for &(id, p) in &self.cover[entries] {
                        if let Some(rho_a) = rho_of[id] {
                            let rho_at = self.domains[id]
                                .local_field_at(rho_a, (ix, iy, iz))
                                .expect("support_at lists only domains whose box holds the point");
                            acc += p * rho_at;
                        }
                    }
                    *o = acc;
                }
            });
    }
}
