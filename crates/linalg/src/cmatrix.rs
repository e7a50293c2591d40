//! Row-major dense complex matrix.
//!
//! Kohn–Sham wave functions are stored band-major: an `Np × Nband` complex
//! matrix `Ψ` whose *columns* are bands (paper §3.4). We keep the same
//! row-major layout as [`crate::matrix::Matrix`]; individual bands are then
//! strided columns, and the all-band BLAS3 path operates on the full matrix
//! at once exactly as Eq. (5) prescribes.

use mqmd_util::Complex64;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major complex matrix.
#[derive(Clone, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

impl CMatrix {
    /// Creates a zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![Complex64::ZERO; rows * cols],
        }
    }

    /// Creates the identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex64::ONE;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Complex64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Self { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Complex64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Raw row-major data.
    #[inline(always)]
    pub fn data(&self) -> &[Complex64] {
        &self.data
    }

    /// Mutable raw row-major data.
    #[inline(always)]
    pub fn data_mut(&mut self) -> &mut [Complex64] {
        &mut self.data
    }

    /// Consumes the matrix, releasing its row-major storage (e.g. back to a
    /// `mqmd_util::workspace::Workspace` the storage was taken from).
    pub fn into_data(self) -> Vec<Complex64> {
        self.data
    }

    /// Borrow of row `i`.
    #[inline(always)]
    pub fn row(&self, i: usize) -> &[Complex64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector (a single Kohn–Sham band).
    pub fn col(&self, j: usize) -> Vec<Complex64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Copies column `j` into a caller-provided buffer (the allocation-free
    /// form of [`CMatrix::col`]).
    pub fn col_into(&self, j: usize, out: &mut [Complex64]) {
        assert_eq!(out.len(), self.rows);
        for (i, o) in out.iter_mut().enumerate() {
            *o = self[(i, j)];
        }
    }

    /// Overwrites column `j` from a slice.
    pub fn set_col(&mut self, j: usize, v: &[Complex64]) {
        assert_eq!(v.len(), self.rows);
        for i in 0..self.rows {
            self[(i, j)] = v[i];
        }
    }

    /// Conjugate transpose `A†`.
    pub fn dagger(&self) -> CMatrix {
        let mut t = CMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)].conj();
            }
        }
        t
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry difference against another matrix.
    pub fn max_abs_diff(&self, o: &CMatrix) -> f64 {
        assert_eq!((self.rows, self.cols), (o.rows, o.cols));
        self.data
            .iter()
            .zip(&o.data)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max)
    }

    /// Returns whether the matrix is Hermitian to within `tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            if self[(i, i)].im.abs() > tol {
                return false;
            }
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)].conj()).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Scales every entry by a real factor in place.
    pub fn scale(&mut self, s: f64) {
        for z in &mut self.data {
            *z *= s;
        }
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = Complex64;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &Complex64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CMatrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(6) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(6) {
                write!(f, "({:>9.3e},{:>9.3e}) ", self[(i, j)].re, self[(i, j)].im)?;
            }
            writeln!(f, "{}", if self.cols > 6 { "…" } else { "" })?;
        }
        if self.rows > 6 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dagger_is_conjugate_transpose() {
        let m = CMatrix::from_fn(2, 3, |i, j| Complex64::new(i as f64, j as f64));
        let d = m.dagger();
        assert_eq!(d.rows(), 3);
        assert_eq!(d[(2, 1)], m[(1, 2)].conj());
        assert_eq!(d.dagger(), m);
    }

    #[test]
    fn hermitian_detection() {
        let mut m = CMatrix::identity(3);
        m[(0, 1)] = Complex64::new(1.0, 2.0);
        m[(1, 0)] = Complex64::new(1.0, -2.0);
        assert!(m.is_hermitian(1e-14));
        m[(1, 0)] = Complex64::new(1.0, 2.0);
        assert!(!m.is_hermitian(1e-14));
    }

    #[test]
    fn col_round_trip() {
        let mut m = CMatrix::zeros(4, 2);
        let band: Vec<Complex64> = (0..4).map(|i| Complex64::new(i as f64, -1.0)).collect();
        m.set_col(1, &band);
        assert_eq!(m.col(1), band);
        assert_eq!(m.col(0), vec![Complex64::ZERO; 4]);
    }

    #[test]
    fn col_into_copies_the_column() {
        let m = CMatrix::from_fn(4, 3, |i, j| Complex64::new(i as f64, j as f64));
        let mut buf = vec![Complex64::ZERO; 4];
        m.col_into(1, &mut buf);
        assert_eq!(buf, m.col(1));
    }

    #[test]
    fn frobenius_norm_matches_manual() {
        let m = CMatrix::from_fn(2, 2, |i, j| Complex64::new((i + j) as f64, 1.0));
        let manual: f64 = m.data().iter().map(|z| z.norm_sqr()).sum::<f64>();
        assert!((m.frobenius_norm() - manual.sqrt()).abs() < 1e-15);
    }
}
