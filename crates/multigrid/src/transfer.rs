//! Inter-grid transfer operators: full-weighting restriction and trilinear
//! prolongation between a fine grid and the factor-2 coarse grid.

use mqmd_grid::UniformGrid3;

/// Returns the coarse grid obtained by halving each dimension.
///
/// # Panics
/// Panics unless all fine dimensions are even.
pub fn coarsen(fine: &UniformGrid3) -> UniformGrid3 {
    let (nx, ny, nz) = fine.dims();
    assert!(
        nx % 2 == 0 && ny % 2 == 0 && nz % 2 == 0,
        "cannot coarsen odd grid {nx}x{ny}x{nz}"
    );
    UniformGrid3::new((nx / 2, ny / 2, nz / 2), fine.lengths())
}

/// Full-weighting restriction: each coarse value is the 27-point weighted
/// average of the co-located fine cell and its neighbours (weights
/// 8/4/2/1 ÷ 64), with periodic wrapping. Writes the coarse field into
/// `out`.
pub fn restrict_into(
    fine_grid: &UniformGrid3,
    fine: &[f64],
    coarse_grid: &UniformGrid3,
    out: &mut [f64],
) {
    let (nx, ny, nz) = fine_grid.dims();
    let (cx, cy, cz) = coarse_grid.dims();
    assert_eq!((cx, cy, cz), (nx / 2, ny / 2, nz / 2));
    assert_eq!(fine.len(), fine_grid.len());
    assert_eq!(out.len(), coarse_grid.len());

    for icx in 0..cx {
        for icy in 0..cy {
            for icz in 0..cz {
                let fx = 2 * icx;
                let fy = 2 * icy;
                let fz = 2 * icz;
                let mut acc = 0.0;
                for dx in -1i64..=1 {
                    for dy in -1i64..=1 {
                        for dz in -1i64..=1 {
                            let w = (2 - dx.abs()) * (2 - dy.abs()) * (2 - dz.abs());
                            let idx = fine_grid.index_wrapped(
                                fx as i64 + dx,
                                fy as i64 + dy,
                                fz as i64 + dz,
                            );
                            acc += w as f64 * fine[idx];
                        }
                    }
                }
                out[coarse_grid.index(icx, icy, icz)] = acc / 64.0;
            }
        }
    }
}

/// Trilinear prolongation: interpolates a coarse field onto the fine grid
/// and *adds* it into `fine` (the coarse-grid correction step).
pub fn prolong_add(
    coarse_grid: &UniformGrid3,
    coarse: &[f64],
    fine_grid: &UniformGrid3,
    fine: &mut [f64],
) {
    let (nx, ny, nz) = fine_grid.dims();
    let (cx, cy, cz) = coarse_grid.dims();
    assert_eq!((cx, cy, cz), (nx / 2, ny / 2, nz / 2));
    assert_eq!(coarse.len(), coarse_grid.len());
    assert_eq!(fine.len(), fine_grid.len());

    for ix in 0..nx {
        // Fine point ix sits between coarse points ix/2 and (ix/2 + parity).
        let (x0, x1, wx) = split(ix, cx);
        for iy in 0..ny {
            let (y0, y1, wy) = split(iy, cy);
            for iz in 0..nz {
                let (z0, z1, wz) = split(iz, cz);
                let mut v = 0.0;
                for (xa, wa) in [(x0, 1.0 - wx), (x1, wx)] {
                    if wa == 0.0 {
                        continue;
                    }
                    for (ya, wb) in [(y0, 1.0 - wy), (y1, wy)] {
                        if wb == 0.0 {
                            continue;
                        }
                        for (za, wc) in [(z0, 1.0 - wz), (z1, wz)] {
                            if wc == 0.0 {
                                continue;
                            }
                            v += wa * wb * wc * coarse[coarse_grid.index(xa, ya, za)];
                        }
                    }
                }
                fine[fine_grid.index(ix, iy, iz)] += v;
            }
        }
    }
}

/// For fine index `i` over `nc` coarse points: returns the two bracketing
/// coarse indices and the interpolation weight of the upper one.
#[inline]
fn split(i: usize, nc: usize) -> (usize, usize, f64) {
    if i.is_multiple_of(2) {
        (i / 2, i / 2, 0.0)
    } else {
        (i / 2, (i / 2 + 1) % nc, 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restrict_preserves_constants() {
        let fg = UniformGrid3::cubic(8, 4.0);
        let cg = coarsen(&fg);
        let fine = vec![2.5; fg.len()];
        let mut coarse = vec![0.0; cg.len()];
        restrict_into(&fg, &fine, &cg, &mut coarse);
        for v in &coarse {
            assert!((v - 2.5).abs() < 1e-13);
        }
    }

    #[test]
    fn prolong_preserves_constants() {
        let fg = UniformGrid3::cubic(8, 4.0);
        let cg = coarsen(&fg);
        let coarse = vec![1.5; cg.len()];
        let mut fine = vec![0.0; fg.len()];
        prolong_add(&cg, &coarse, &fg, &mut fine);
        for v in &fine {
            assert!((v - 1.5).abs() < 1e-13);
        }
    }

    #[test]
    fn restriction_conserves_integral() {
        // Full weighting preserves the mean (hence the integral) of a field.
        let fg = UniformGrid3::cubic(8, 4.0);
        let cg = coarsen(&fg);
        let fine = fg.sample(|r| (r.x - 1.0) * (r.y + 0.3) + r.z);
        let mut coarse = vec![0.0; cg.len()];
        restrict_into(&fg, &fine, &cg, &mut coarse);
        let mf = fine.iter().sum::<f64>() / fine.len() as f64;
        let mc = coarse.iter().sum::<f64>() / coarse.len() as f64;
        assert!((mf - mc).abs() < 1e-12);
    }

    #[test]
    fn prolong_exact_at_coincident_points() {
        let fg = UniformGrid3::cubic(8, 4.0);
        let cg = coarsen(&fg);
        let coarse: Vec<f64> = (0..cg.len()).map(|i| i as f64).collect();
        let mut fine = vec![0.0; fg.len()];
        prolong_add(&cg, &coarse, &fg, &mut fine);
        for icx in 0..4 {
            for icy in 0..4 {
                for icz in 0..4 {
                    let cv = coarse[cg.index(icx, icy, icz)];
                    let fv = fine[fg.index(2 * icx, 2 * icy, 2 * icz)];
                    assert!((cv - fv).abs() < 1e-13);
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn odd_grid_cannot_coarsen() {
        coarsen(&UniformGrid3::new((6, 5, 8), (1.0, 1.0, 1.0)));
    }
}
