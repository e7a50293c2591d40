//! Reciprocal-space frequency bookkeeping.
//!
//! A periodic cell of side `l` sampled on `n` grid points supports plane
//! waves `exp(iG·r)` with `G = 2π·k/l` where the integer frequency `k` of FFT
//! bin `i` follows the standard wrap-around convention: `k = i` for
//! `i ≤ n/2`, else `k = i − n`.

/// Integer frequency of FFT bin `i` for transform length `n`
/// (`0, 1, …, n/2, −n/2+1, …, −1` ordering).
#[inline]
pub fn bin_freq(i: usize, n: usize) -> i64 {
    debug_assert!(i < n);
    if i <= n / 2 {
        i as i64
    } else {
        i as i64 - n as i64
    }
}

/// Reciprocal-lattice vector component `G = 2π·k/l` of FFT bin `i`.
#[inline]
pub fn bin_g(i: usize, n: usize, l: f64) -> f64 {
    std::f64::consts::TAU * bin_freq(i, n) as f64 / l
}

/// Squared magnitude `|G|²` for a 3-D bin `(ix, iy, iz)` of an
/// `(nx, ny, nz)` grid over an orthorhombic cell `(lx, ly, lz)` — the plane-
/// wave kinetic energy is `|G|²/2`.
#[inline]
pub fn g_norm_sqr(
    (ix, iy, iz): (usize, usize, usize),
    (nx, ny, nz): (usize, usize, usize),
    (lx, ly, lz): (f64, f64, f64),
) -> f64 {
    let gx = bin_g(ix, nx, lx);
    let gy = bin_g(iy, ny, ly);
    let gz = bin_g(iz, nz, lz);
    gx * gx + gy * gy + gz * gz
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freq_ordering() {
        let n = 8;
        let freqs: Vec<i64> = (0..n).map(|i| bin_freq(i, n)).collect();
        assert_eq!(freqs, vec![0, 1, 2, 3, 4, -3, -2, -1]);
    }

    #[test]
    fn odd_length_ordering() {
        let n = 5;
        let freqs: Vec<i64> = (0..n).map(|i| bin_freq(i, n)).collect();
        assert_eq!(freqs, vec![0, 1, 2, -2, -1]);
    }

    #[test]
    fn g_scales_inversely_with_cell() {
        let g1 = bin_g(1, 16, 10.0);
        let g2 = bin_g(1, 16, 20.0);
        assert!((g1 - 2.0 * g2).abs() < 1e-15);
        assert!((g1 - std::f64::consts::TAU / 10.0).abs() < 1e-15);
    }

    #[test]
    fn g_norm_isotropic_for_cubic() {
        let n = (16, 16, 16);
        let l = (12.0, 12.0, 12.0);
        let a = g_norm_sqr((1, 0, 0), n, l);
        let b = g_norm_sqr((0, 1, 0), n, l);
        let c = g_norm_sqr((0, 0, 15), n, l); // k = −1
        assert!((a - b).abs() < 1e-15);
        assert!((a - c).abs() < 1e-15);
    }
}
