//! Periodic uniform real-space grid over an orthorhombic cell.

use mqmd_util::Vec3;

/// A uniform grid of `(nx, ny, nz)` points over a periodic orthorhombic cell
/// of side lengths `(lx, ly, lz)` Bohr, origin at the cell corner.
///
/// Point `(ix, iy, iz)` sits at `(ix·hx, iy·hy, iz·hz)`; flat storage is
/// z-fastest, matching `mqmd-fft::Fft3d`.
#[derive(Clone, Debug, PartialEq)]
pub struct UniformGrid3 {
    nx: usize,
    ny: usize,
    nz: usize,
    lx: f64,
    ly: f64,
    lz: f64,
}

/// One axis of a trilinear stencil: the two periodic grid indices that
/// bracket a coordinate, and the weight of each.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AxisTap {
    /// Index of the grid plane at or below the coordinate.
    pub i0: usize,
    /// Index of the next plane up (periodic).
    pub i1: usize,
    /// Weight of `i0`: one minus the fractional offset.
    pub w0: f64,
    /// Weight of `i1`: the fractional offset.
    pub w1: f64,
}

impl UniformGrid3 {
    /// Creates a grid.
    ///
    /// # Panics
    /// Panics on zero dimensions or non-positive cell lengths.
    pub fn new((nx, ny, nz): (usize, usize, usize), (lx, ly, lz): (f64, f64, f64)) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0, "grid dims must be positive");
        assert!(
            lx > 0.0 && ly > 0.0 && lz > 0.0,
            "cell lengths must be positive"
        );
        Self {
            nx,
            ny,
            nz,
            lx,
            ly,
            lz,
        }
    }

    /// Creates a cubic grid of `n³` points over an `l³` cell.
    pub fn cubic(n: usize, l: f64) -> Self {
        Self::new((n, n, n), (l, l, l))
    }

    /// Grid dimensions `(nx, ny, nz)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Cell side lengths `(lx, ly, lz)` in Bohr.
    pub fn lengths(&self) -> (f64, f64, f64) {
        (self.lx, self.ly, self.lz)
    }

    /// Cell side lengths as a vector.
    pub fn lengths_vec(&self) -> Vec3 {
        Vec3::new(self.lx, self.ly, self.lz)
    }

    /// Grid spacings `(hx, hy, hz)`.
    pub fn spacing(&self) -> (f64, f64, f64) {
        (
            self.lx / self.nx as f64,
            self.ly / self.ny as f64,
            self.lz / self.nz as f64,
        )
    }

    /// Total number of points.
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Returns true only for an (impossible) empty grid; kept for clippy's
    /// `len_without_is_empty` lint.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Cell volume in Bohr³.
    pub fn volume(&self) -> f64 {
        self.lx * self.ly * self.lz
    }

    /// Volume element per grid point (the quadrature weight for
    /// [`Self::integrate`]).
    pub fn dv(&self) -> f64 {
        self.volume() / self.len() as f64
    }

    /// Flat index of `(ix, iy, iz)`.
    #[inline(always)]
    pub fn index(&self, ix: usize, iy: usize, iz: usize) -> usize {
        debug_assert!(ix < self.nx && iy < self.ny && iz < self.nz);
        (ix * self.ny + iy) * self.nz + iz
    }

    /// Inverse of [`Self::index`].
    #[inline(always)]
    pub fn coords(&self, flat: usize) -> (usize, usize, usize) {
        let iz = flat % self.nz;
        let iy = (flat / self.nz) % self.ny;
        let ix = flat / (self.ny * self.nz);
        (ix, iy, iz)
    }

    /// Flat index with periodic wrapping of possibly-negative indices.
    #[inline(always)]
    pub fn index_wrapped(&self, ix: i64, iy: i64, iz: i64) -> usize {
        let ix = ix.rem_euclid(self.nx as i64) as usize;
        let iy = iy.rem_euclid(self.ny as i64) as usize;
        let iz = iz.rem_euclid(self.nz as i64) as usize;
        self.index(ix, iy, iz)
    }

    /// Position of grid point `(ix, iy, iz)`.
    #[inline]
    pub fn position(&self, ix: usize, iy: usize, iz: usize) -> Vec3 {
        let (hx, hy, hz) = self.spacing();
        Vec3::new(ix as f64 * hx, iy as f64 * hy, iz as f64 * hz)
    }

    /// Integrates a sampled field over the cell (Riemann sum, exact for the
    /// band-limited fields the FFT machinery produces).
    pub fn integrate(&self, field: &[f64]) -> f64 {
        assert_eq!(field.len(), self.len());
        field.iter().sum::<f64>() * self.dv()
    }

    /// One axis (`0`, `1`, `2` = x, y, z) of the trilinear stencil at a
    /// position, from that axis's coordinate alone (Bohr, wrapped into the
    /// cell). The stencil is separable, so a transfer between two grids
    /// whose positions are themselves separable tabulates one tap per axis
    /// index instead of eight weights per point.
    pub fn axis_tap(&self, axis: usize, x: f64) -> AxisTap {
        let (n, l) = match axis {
            0 => (self.nx, self.lx),
            1 => (self.ny, self.ly),
            2 => (self.nz, self.lz),
            _ => panic!("grid axis {axis} out of range"),
        };
        let f = (x / (l / n as f64)).rem_euclid(n as f64);
        let i = f.floor() as i64;
        let t = f - i as f64;
        AxisTap {
            i0: i.rem_euclid(n as i64) as usize,
            i1: (i + 1).rem_euclid(n as i64) as usize,
            w0: 1.0 - t,
            w1: t,
        }
    }

    /// Applies a trilinear stencil to a sampled field: the sum of
    /// `wx·wy·wz·field[ix, iy, iz]` over the eight corners, x outermost and
    /// z innermost, corners of zero weight skipped. Every interpolation in
    /// the workspace goes through this one loop, so a tabulated transfer
    /// adds the same products in the same order as [`Self::interpolate`].
    #[inline]
    pub fn apply_taps(&self, field: &[f64], [tx, ty, tz]: [&AxisTap; 3]) -> f64 {
        let mut acc = 0.0;
        for (ix, wx) in [(tx.i0, tx.w0), (tx.i1, tx.w1)] {
            for (iy, wy) in [(ty.i0, ty.w0), (ty.i1, ty.w1)] {
                let row = (ix * self.ny + iy) * self.nz;
                for (iz, wz) in [(tz.i0, tz.w0), (tz.i1, tz.w1)] {
                    let w = wx * wy * wz;
                    if w != 0.0 {
                        acc += w * field[row + iz];
                    }
                }
            }
        }
        acc
    }

    /// Trilinear periodic interpolation of a sampled field at an arbitrary
    /// position (Bohr, wrapped into the cell).
    pub fn interpolate(&self, field: &[f64], r: Vec3) -> f64 {
        assert_eq!(field.len(), self.len());
        let taps = [
            &self.axis_tap(0, r.x),
            &self.axis_tap(1, r.y),
            &self.axis_tap(2, r.z),
        ];
        self.apply_taps(field, taps)
    }

    /// Evaluates a function on every grid point into a flat field.
    pub fn sample(&self, mut f: impl FnMut(Vec3) -> f64) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len());
        for ix in 0..self.nx {
            for iy in 0..self.ny {
                for iz in 0..self.nz {
                    out.push(f(self.position(ix, iy, iz)));
                }
            }
        }
        out
    }

    /// Minimum-image distance between two positions under this cell's
    /// periodicity.
    pub fn min_image_distance(&self, a: Vec3, b: Vec3) -> f64 {
        (a - b).min_image(self.lengths_vec()).norm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trip() {
        let g = UniformGrid3::new((4, 6, 8), (1.0, 2.0, 3.0));
        for flat in 0..g.len() {
            let (ix, iy, iz) = g.coords(flat);
            assert_eq!(g.index(ix, iy, iz), flat);
        }
    }

    #[test]
    fn wrapped_indexing() {
        let g = UniformGrid3::cubic(4, 1.0);
        assert_eq!(g.index_wrapped(-1, 0, 0), g.index(3, 0, 0));
        assert_eq!(g.index_wrapped(4, 5, -3), g.index(0, 1, 1));
    }

    #[test]
    fn integrate_constant_gives_volume() {
        let g = UniformGrid3::new((8, 8, 8), (2.0, 3.0, 4.0));
        let ones = vec![1.0; g.len()];
        assert!((g.integrate(&ones) - 24.0).abs() < 1e-12);
    }

    #[test]
    fn interpolation_exact_on_grid_points() {
        let g = UniformGrid3::cubic(8, 5.0);
        let field = g.sample(|r| (r.x * 1.3).sin() + r.y - r.z * 0.5);
        for ix in 0..8 {
            for iy in 0..8 {
                for iz in 0..8 {
                    let r = g.position(ix, iy, iz);
                    let v = g.interpolate(&field, r);
                    assert!((v - field[g.index(ix, iy, iz)]).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn interpolation_linear_function_exact() {
        // Trilinear interpolation reproduces (periodic-safe) linear functions
        // exactly between nodes — test away from the wrap seam.
        let g = UniformGrid3::cubic(16, 8.0);
        let field = g.sample(|r| 2.0 * r.x - r.y + 0.5 * r.z);
        let r = Vec3::new(1.3, 2.7, 3.1);
        let v = g.interpolate(&field, r);
        assert!((v - (2.0 * r.x - r.y + 0.5 * r.z)).abs() < 1e-12);
    }

    #[test]
    fn interpolation_periodic_wrap() {
        let g = UniformGrid3::cubic(8, 4.0);
        let field = g.sample(|r| (std::f64::consts::TAU * r.x / 4.0).cos());
        // A point just outside the cell must equal the wrapped point inside.
        let a = g.interpolate(&field, Vec3::new(4.1, 0.0, 0.0));
        let b = g.interpolate(&field, Vec3::new(0.1, 0.0, 0.0));
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn dv_times_points_is_volume() {
        let g = UniformGrid3::new((3, 5, 7), (1.5, 2.5, 3.5));
        assert!((g.dv() * g.len() as f64 - g.volume()).abs() < 1e-12);
    }

    #[test]
    fn min_image_distance_wraps() {
        let g = UniformGrid3::cubic(8, 10.0);
        let d = g.min_image_distance(Vec3::new(0.5, 0.0, 0.0), Vec3::new(9.5, 0.0, 0.0));
        assert!((d - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn zero_dim_rejected() {
        UniformGrid3::new((0, 4, 4), (1.0, 1.0, 1.0));
    }
}
