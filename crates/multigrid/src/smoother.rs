//! Relaxation smoothers for the multigrid hierarchy.

use mqmd_grid::UniformGrid3;
use mqmd_util::flops::par_min_len;
use rayon::prelude::*;

/// One weighted-Jacobi sweep for `∇²u = f` with weight `omega`
/// (2/3 is the classical choice that damps the high-frequency error modes
/// multigrid relies on). The tests' reference smoother: the production
/// hierarchy smooths with red-black Gauss–Seidel.
#[cfg(test)]
fn jacobi_sweep(grid: &UniformGrid3, u: &mut [f64], f: &[f64], omega: f64) {
    let (nx, ny, nz) = grid.dims();
    let (hx, hy, hz) = grid.spacing();
    let (cx, cy, cz) = (1.0 / (hx * hx), 1.0 / (hy * hy), 1.0 / (hz * hz));
    let diag = -2.0 * (cx + cy + cz);

    let u_old = u.to_vec();
    u.par_chunks_mut(ny * nz)
        .with_min_len(par_min_len(13 * (ny * nz) as u64))
        .enumerate()
        .for_each(|(ix, plane)| {
            let xm = (ix + nx - 1) % nx;
            let xp = (ix + 1) % nx;
            for iy in 0..ny {
                let ym = (iy + ny - 1) % ny;
                let yp = (iy + 1) % ny;
                for iz in 0..nz {
                    let zm = (iz + nz - 1) % nz;
                    let zp = (iz + 1) % nz;
                    let nb = cx
                        * (u_old[(xm * ny + iy) * nz + iz] + u_old[(xp * ny + iy) * nz + iz])
                        + cy * (u_old[(ix * ny + ym) * nz + iz] + u_old[(ix * ny + yp) * nz + iz])
                        + cz * (u_old[(ix * ny + iy) * nz + zm] + u_old[(ix * ny + iy) * nz + zp]);
                    let idx = iy * nz + iz;
                    let new = (f[(ix * ny + iy) * nz + iz] - nb) / diag;
                    plane[idx] = (1.0 - omega) * u_old[(ix * ny + iy) * nz + iz] + omega * new;
                }
            }
        });
}

/// Grain of one red-black quarter-sweep over x-planes: every other plane
/// updates half of its `ny·nz` cells at 11 FLOPs each.
fn plane_min_len(ny: usize, nz: usize) -> usize {
    par_min_len(11 * (ny * nz) as u64 / 4)
}

/// One red-black Gauss–Seidel sweep (both colours) for `∇²u = f`.
///
/// Red-black ordering decouples the update into two embarrassingly parallel
/// half-sweeps — the standard smoother on structured grids precisely because
/// it parallelises without ghost-cell races.
///
/// Dispatches to the vectorized z-line kernel when the `simd` feature is
/// compiled in and the CPU supports AVX2+FMA. The vector path evaluates
/// the stencil in the scalar operation order and blends the result into
/// current-colour lanes only, so it is **bitwise identical** to
/// [`rbgs_sweep_scalar`].
pub fn rbgs_sweep(grid: &UniformGrid3, u: &mut [f64], f: &[f64]) {
    if mqmd_util::simd::simd_available() {
        rbgs_sweep_simd(grid, u, f);
    } else {
        rbgs_sweep_scalar(grid, u, f);
    }
}

/// Scalar reference for [`rbgs_sweep`] — always compiled, the twin the
/// differential tests compare against.
pub fn rbgs_sweep_scalar(grid: &UniformGrid3, u: &mut [f64], f: &[f64]) {
    let (nx, ny, nz) = grid.dims();
    assert!(
        nx % 2 == 0 && ny % 2 == 0 && nz % 2 == 0,
        "red-black colouring on a periodic grid needs even dimensions"
    );
    let (hx, hy, hz) = grid.spacing();
    let (cx, cy, cz) = (1.0 / (hx * hx), 1.0 / (hy * hy), 1.0 / (hz * hz));
    let diag = -2.0 * (cx + cy + cz);

    for color in 0..2usize {
        // Each x-plane only reads neighbouring planes of the *opposite*
        // colour within the same half-sweep, so parallelising over planes is
        // race-free only if we snapshot… simpler and still correct: parallel
        // over planes with unsafe shared access is avoided by splitting the
        // sweep by plane parity as well.
        for plane_parity in 0..2usize {
            let uptr = SendPtr(u.as_mut_ptr());
            (0..nx)
                .into_par_iter()
                .with_min_len(plane_min_len(ny, nz))
                .filter(|ix| ix % 2 == plane_parity)
                .for_each(|ix| {
                    let p = uptr;
                    let xm = (ix + nx - 1) % nx;
                    let xp = (ix + 1) % nx;
                    for iy in 0..ny {
                        let ym = (iy + ny - 1) % ny;
                        let yp = (iy + 1) % ny;
                        for iz in 0..nz {
                            if (ix + iy + iz) % 2 != color {
                                continue;
                            }
                            let zm = (iz + nz - 1) % nz;
                            let zp = (iz + 1) % nz;
                            // SAFETY: writes touch only (ix,iy,iz) of the
                            // current colour and plane parity; reads touch
                            // neighbours, which differ in colour (same-sweep
                            // neighbours in y/z) or plane parity (x
                            // neighbours), so no written cell is read by a
                            // concurrent task within this half-sweep.
                            unsafe {
                                let at =
                                    |a: usize, b: usize, c: usize| *p.0.add((a * ny + b) * nz + c);
                                let nb = cx * (at(xm, iy, iz) + at(xp, iy, iz))
                                    + cy * (at(ix, ym, iz) + at(ix, yp, iz))
                                    + cz * (at(ix, iy, zm) + at(ix, iy, zp));
                                *p.0.add((ix * ny + iy) * nz + iz) =
                                    (f[(ix * ny + iy) * nz + iz] - nb) / diag;
                            }
                        }
                    }
                });
        }
    }
}

/// Vectorized form of [`rbgs_sweep`]: each `f64x4` holds four
/// same-colour cells, deinterleaved from an 8-cell z-window, so every
/// lane carries a Gauss–Seidel update and the stencil needs one division
/// per four cells. Falls back to the scalar reference when the vector
/// backend cannot run.
pub fn rbgs_sweep_simd(grid: &UniformGrid3, u: &mut [f64], f: &[f64]) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if mqmd_util::simd::simd_available() {
        let (nx, ny, nz) = grid.dims();
        assert!(
            nx % 2 == 0 && ny % 2 == 0 && nz % 2 == 0,
            "red-black colouring on a periodic grid needs even dimensions"
        );
        let (hx, hy, hz) = grid.spacing();
        let (cx, cy, cz) = (1.0 / (hx * hx), 1.0 / (hy * hy), 1.0 / (hz * hz));
        let diag = -2.0 * (cx + cy + cz);

        for color in 0..2usize {
            // Same plane-parity schedule (and hence the same read/write
            // disjointness argument) as the scalar reference.
            for plane_parity in 0..2usize {
                let uptr = SendPtr(u.as_mut_ptr());
                (0..nx)
                    .into_par_iter()
                    .with_min_len(plane_min_len(ny, nz))
                    .filter(|ix| ix % 2 == plane_parity)
                    .for_each(|ix| {
                        let p = uptr;
                        // SAFETY: `simd_available` verified AVX2+FMA; the
                        // write set is the same (colour, plane-parity)
                        // cells as the scalar sweep.
                        unsafe {
                            avx::rbgs_plane_avx2(p.0, f, color, ix, nx, ny, nz, cx, cy, cz, diag);
                        }
                    });
            }
        }
        return;
    }
    rbgs_sweep_scalar(grid, u, f);
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx {
    use mqmd_util::simd::F64x4;

    /// Deinterleaves an 8-lane window `p[0..8]` and returns its even-index
    /// lanes `[p0, p2, p4, p6]`.
    ///
    /// # Safety
    /// `p` must have at least 8 elements readable.
    #[inline(always)]
    unsafe fn evens(p: *const f64) -> F64x4 {
        F64x4::load(p).deinterleave(F64x4::load(p.add(4))).0
    }

    /// One x-plane of the red-black sweep, vectorized along z.
    ///
    /// Same-colour cells along a z-line sit at stride 2, so each iteration
    /// deinterleaves an 8-cell window into its 4 update targets, evaluates
    /// the stencil once per target — no wasted opposite-colour lanes, one
    /// division per 4 updates — and re-interleaves with the untouched
    /// opposite-colour stream for the store. The stencil uses exactly the
    /// scalar operation order — `cx·(A+B) + cy·(C+D) + cz·(E+G)`, then
    /// `(f − nb) / diag` — so updated cells are bitwise the scalar
    /// values. The z-wrap cell (`iz = 0`) and the window tail use the
    /// scalar formula.
    ///
    /// # Safety
    /// Requires AVX2+FMA at runtime; `u` must point to the full
    /// `nx·ny·nz` field and this plane's (colour, parity) cells must not
    /// be written concurrently — the caller's schedule guarantees both.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn rbgs_plane_avx2(
        u: *mut f64,
        f: &[f64],
        color: usize,
        ix: usize,
        nx: usize,
        ny: usize,
        nz: usize,
        cx: f64,
        cy: f64,
        cz: f64,
        diag: f64,
    ) {
        let xm = (ix + nx - 1) % nx;
        let xp = (ix + 1) % nx;
        let cxv = F64x4::splat(cx);
        let cyv = F64x4::splat(cy);
        let czv = F64x4::splat(cz);
        let dv = F64x4::splat(diag);
        for iy in 0..ny {
            let ym = (iy + ny - 1) % ny;
            let yp = (iy + 1) % ny;
            let base = (ix * ny + iy) * nz;
            let bxm = (xm * ny + iy) * nz;
            let bxp = (xp * ny + iy) * nz;
            let bym = (ix * ny + ym) * nz;
            let byp = (ix * ny + yp) * nz;
            // This line's update targets are iz ≡ czpar (mod 2); start at
            // the first target past the z-wrap cell. Neighbour reads are
            // all opposite-colour cells, untouched this half-sweep, so
            // window order cannot matter.
            let czpar = (color + ix + iy) % 2;
            let mut t = if czpar == 0 { 2 } else { 1 };
            while t + 8 <= nz {
                // Center window u[t .. t+8): even lanes are the targets'
                // stale values (unused), odd lanes double as both the z+1
                // neighbours and the preserved opposite-colour stream.
                let (_, odds) =
                    F64x4::load(u.add(base + t)).deinterleave(F64x4::load(u.add(base + t + 4)));
                let zp = odds;
                // u[t-1 .. t+7): even lanes are the z−1 neighbours.
                let zm = evens(u.add(base + t - 1));
                let a = evens(u.add(bxm + t));
                let b = evens(u.add(bxp + t));
                let c = evens(u.add(bym + t));
                let d = evens(u.add(byp + t));
                let fv = evens(f.as_ptr().add(base + t));
                let nb = cxv
                    .mul(a.add(b))
                    .add(cyv.mul(c.add(d)))
                    .add(czv.mul(zm.add(zp)));
                let newv = fv.sub(nb).div(dv);
                let (s0, s1) = newv.interleave(odds);
                s0.store(u.add(base + t));
                s1.store(u.add(base + t + 4));
                t += 8;
            }
            // z-wrap boundary (iz = 0) and the window tail: scalar
            // formula, identical to the reference.
            for izc in core::iter::once(0).chain(t..nz) {
                if (ix + iy + izc) % 2 != color {
                    continue;
                }
                let zm = (izc + nz - 1) % nz;
                let zp = (izc + 1) % nz;
                let nb = cx * (*u.add(bxm + izc) + *u.add(bxp + izc))
                    + cy * (*u.add(bym + izc) + *u.add(byp + izc))
                    + cz * (*u.add(base + zm) + *u.add(base + zp));
                *u.add(base + izc) = (f[base + izc] - nb) / diag;
            }
        }
    }
}

#[derive(Clone, Copy)]
struct SendPtr(*mut f64);
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stencil::{norm, remove_mean, residual};
    use std::f64::consts::TAU;

    fn setup(n: usize) -> (UniformGrid3, Vec<f64>, Vec<f64>) {
        let l = 6.0;
        let g = UniformGrid3::cubic(n, l);
        // Manufactured problem with zero-mean rhs.
        let k = TAU / l;
        let f = g.sample(|r| (k * r.x).sin() * (2.0 * k * r.y).cos());
        let u = vec![0.0; g.len()];
        (g, u, f)
    }

    #[test]
    fn jacobi_reduces_residual() {
        let (g, mut u, f) = setup(16);
        let mut r = vec![0.0; g.len()];
        residual(&g, &u, &f, &mut r);
        let r0 = norm(&r);
        for _ in 0..50 {
            jacobi_sweep(&g, &mut u, &f, 2.0 / 3.0);
        }
        remove_mean(&mut u);
        residual(&g, &u, &f, &mut r);
        assert!(norm(&r) < 0.8 * r0, "Jacobi failed to reduce residual");
    }

    #[test]
    fn rbgs_reduces_residual_faster_than_jacobi() {
        let (g, mut uj, f) = setup(16);
        let mut ug = uj.clone();
        let sweeps = 30;
        for _ in 0..sweeps {
            jacobi_sweep(&g, &mut uj, &f, 2.0 / 3.0);
        }
        for _ in 0..sweeps {
            rbgs_sweep(&g, &mut ug, &f);
        }
        let mut rj = vec![0.0; g.len()];
        let mut rg = vec![0.0; g.len()];
        residual(&g, &uj, &f, &mut rj);
        residual(&g, &ug, &f, &mut rg);
        assert!(norm(&rg) < norm(&rj), "RBGS should converge faster");
    }

    #[test]
    fn rbgs_deterministic_under_parallelism() {
        // The two-colour two-parity schedule must give identical results no
        // matter how rayon schedules the planes.
        let (g, mut u1, f) = setup(8);
        let mut u2 = u1.clone();
        for _ in 0..5 {
            rbgs_sweep(&g, &mut u1, &f);
        }
        for _ in 0..5 {
            rbgs_sweep(&g, &mut u2, &f);
        }
        for (a, b) in u1.iter().zip(&u2) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn rbgs_simd_is_bitwise_scalar() {
        // Covers a vector-friendly size (16), the all-scalar-fallback
        // coarse size (4), and the partial-block size (8).
        for n in [4usize, 8, 16] {
            let (g, u0, f) = setup(n);
            let mut us = u0.clone();
            let mut uv = u0;
            for _ in 0..4 {
                rbgs_sweep_scalar(&g, &mut us, &f);
                rbgs_sweep_simd(&g, &mut uv, &f);
            }
            for (a, b) in us.iter().zip(&uv) {
                assert_eq!(a.to_bits(), b.to_bits(), "n = {n}");
            }
        }
    }

    #[test]
    fn smoothers_fix_exact_solution() {
        // If u already solves ∇²u = f, a sweep leaves the residual at zero.
        let l = 6.0;
        let g = UniformGrid3::cubic(16, l);
        let k = TAU / l;
        let u_exact = g.sample(|r| (k * r.x).sin());
        let mut f = vec![0.0; g.len()];
        crate::stencil::apply_laplacian(&g, &u_exact, &mut f);
        let mut u = u_exact.clone();
        rbgs_sweep(&g, &mut u, &f);
        let mut r = vec![0.0; g.len()];
        residual(&g, &u, &f, &mut r);
        assert!(norm(&r) < 1e-10);
    }
}
