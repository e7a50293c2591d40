//! Cartesian 3-vectors used for atomic positions, velocities and forces.

use std::ops::{
    Add, AddAssign, Div, DivAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign,
};

/// A Cartesian 3-vector of `f64` components (Bohr for positions,
/// a.u. for velocities/forces).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Vec3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

/// Maps one coordinate into `[0, l)` for a periodic axis of length `l`.
///
/// `f64::rem_euclid` alone does not: for a negative `x` smaller in magnitude
/// than half an ulp of `l` it returns `l − |x|` rounded, which is `l` itself
/// (`(-f64::EPSILON).rem_euclid(8.0) == 8.0`). That value is the periodic
/// image of 0.
#[inline]
pub fn wrap_coord(x: f64, l: f64) -> f64 {
    let w = x.rem_euclid(l);
    if w == l {
        0.0
    } else {
        w
    }
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Self = Self {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a vector from components.
    #[inline(always)]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    /// Creates a vector with all components equal to `s`.
    #[inline(always)]
    pub const fn splat(s: f64) -> Self {
        Self { x: s, y: s, z: s }
    }

    /// Dot product.
    #[inline(always)]
    pub fn dot(self, o: Self) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// Cross product.
    #[inline(always)]
    pub fn cross(self, o: Self) -> Self {
        Self {
            x: self.y * o.z - self.z * o.y,
            y: self.z * o.x - self.x * o.z,
            z: self.x * o.y - self.y * o.x,
        }
    }

    /// Squared Euclidean norm.
    #[inline(always)]
    pub fn norm_sqr(self) -> f64 {
        self.dot(self)
    }

    /// Euclidean norm.
    #[inline(always)]
    pub fn norm(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Unit vector in the same direction. Returns `ZERO` for the zero vector.
    pub fn normalized(self) -> Self {
        let n = self.norm();
        if n == 0.0 {
            Self::ZERO
        } else {
            self / n
        }
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, o: Self) -> Self {
        Self {
            x: self.x.min(o.x),
            y: self.y.min(o.y),
            z: self.z.min(o.z),
        }
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, o: Self) -> Self {
        Self {
            x: self.x.max(o.x),
            y: self.y.max(o.y),
            z: self.z.max(o.z),
        }
    }

    /// Component-wise multiplication (Hadamard product).
    #[inline]
    pub fn mul_elem(self, o: Self) -> Self {
        Self {
            x: self.x * o.x,
            y: self.y * o.y,
            z: self.z * o.z,
        }
    }

    /// Maps each coordinate into `[0, l)` for a periodic box of side lengths
    /// `l = (lx, ly, lz)`.
    pub fn wrap(self, l: Self) -> Self {
        Self {
            x: wrap_coord(self.x, l.x),
            y: wrap_coord(self.y, l.y),
            z: wrap_coord(self.z, l.z),
        }
    }

    /// Minimum-image displacement for a periodic box of side lengths `l`:
    /// each component of the result lies in `[-l/2, l/2)`.
    pub fn min_image(self, l: Self) -> Self {
        #[inline]
        fn mi(d: f64, l: f64) -> f64 {
            let w = d.rem_euclid(l);
            if w >= 0.5 * l {
                w - l
            } else {
                w
            }
        }
        Self {
            x: mi(self.x, l.x),
            y: mi(self.y, l.y),
            z: mi(self.z, l.z),
        }
    }

    /// Returns the components as an array.
    #[inline]
    pub fn to_array(self) -> [f64; 3] {
        [self.x, self.y, self.z]
    }

    /// Returns true if every component is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl From<[f64; 3]> for Vec3 {
    #[inline]
    fn from(a: [f64; 3]) -> Self {
        Self {
            x: a[0],
            y: a[1],
            z: a[2],
        }
    }
}

impl Index<usize> for Vec3 {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index {i} out of range"),
        }
    }
}

impl IndexMut<usize> for Vec3 {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        match i {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            _ => panic!("Vec3 index {i} out of range"),
        }
    }
}

impl Add for Vec3 {
    type Output = Self;
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        Self {
            x: self.x + o.x,
            y: self.y + o.y,
            z: self.z + o.z,
        }
    }
}

impl Sub for Vec3 {
    type Output = Self;
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        Self {
            x: self.x - o.x,
            y: self.y - o.y,
            z: self.z - o.z,
        }
    }
}

impl Mul<f64> for Vec3 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, s: f64) -> Self {
        Self {
            x: self.x * s,
            y: self.y * s,
            z: self.z * s,
        }
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline(always)]
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Self;
    #[inline(always)]
    fn div(self, s: f64) -> Self {
        Self {
            x: self.x / s,
            y: self.y / s,
            z: self.z / s,
        }
    }
}

impl Neg for Vec3 {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Self {
            x: -self.x,
            y: -self.y,
            z: -self.z,
        }
    }
}

impl AddAssign for Vec3 {
    #[inline(always)]
    fn add_assign(&mut self, o: Self) {
        self.x += o.x;
        self.y += o.y;
        self.z += o.z;
    }
}

impl SubAssign for Vec3 {
    #[inline(always)]
    fn sub_assign(&mut self, o: Self) {
        self.x -= o.x;
        self.y -= o.y;
        self.z -= o.z;
    }
}

impl MulAssign<f64> for Vec3 {
    #[inline(always)]
    fn mul_assign(&mut self, s: f64) {
        self.x *= s;
        self.y *= s;
        self.z *= s;
    }
}

impl DivAssign<f64> for Vec3 {
    #[inline(always)]
    fn div_assign(&mut self, s: f64) {
        self.x /= s;
        self.y /= s;
        self.z /= s;
    }
}

impl std::iter::Sum for Vec3 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_cross_orthogonality() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-4.0, 0.5, 2.0);
        let c = a.cross(b);
        assert!(c.dot(a).abs() < 1e-12);
        assert!(c.dot(b).abs() < 1e-12);
    }

    #[test]
    fn norm_of_unit_axes() {
        assert_eq!(Vec3::new(1.0, 0.0, 0.0).norm(), 1.0);
        assert_eq!(Vec3::new(0.0, -2.0, 0.0).norm(), 2.0);
        assert!((Vec3::splat(1.0).norm() - 3f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn normalized_is_unit_or_zero() {
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
        let v = Vec3::new(3.0, -4.0, 12.0).normalized();
        assert!((v.norm() - 1.0).abs() < 1e-14);
    }

    #[test]
    fn wrap_into_box() {
        let l = Vec3::splat(10.0);
        let v = Vec3::new(12.5, -0.5, 9.999).wrap(l);
        assert!((v.x - 2.5).abs() < 1e-12);
        assert!((v.y - 9.5).abs() < 1e-12);
        assert!(v.z < 10.0 && v.z >= 0.0);
    }

    #[test]
    fn wrap_never_returns_the_box_length() {
        // rem_euclid rounds l − ε up to l on each of these.
        for l in [8.0, 9.6, 8.237] {
            assert_eq!((-f64::EPSILON).rem_euclid(l), l, "the case being fixed");
            let v = Vec3::splat(-f64::EPSILON).wrap(Vec3::splat(l));
            for axis in 0..3 {
                assert_eq!(v[axis], 0.0, "axis {axis}, l = {l}");
            }
        }
        // Mixed: only the offending axis moves.
        let v = Vec3::new(3.0, -1e-18, 8.0).wrap(Vec3::splat(8.0));
        assert_eq!(v, Vec3::new(3.0, 0.0, 0.0));
        // A negative input big enough to be representable below l is kept.
        let w = wrap_coord(-1e-9, 8.0);
        assert!(w < 8.0 && w > 7.99);
    }

    #[test]
    fn min_image_halves_box() {
        let l = Vec3::splat(10.0);
        let d = Vec3::new(9.0, -9.0, 5.0).min_image(l);
        assert!((d.x + 1.0).abs() < 1e-12);
        assert!((d.y - 1.0).abs() < 1e-12);
        // 5.0 maps to -5.0 (the [-l/2, l/2) convention)
        assert!((d.z + 5.0).abs() < 1e-12);
    }

    #[test]
    fn indexing_round_trip() {
        let mut v = Vec3::new(1.0, 2.0, 3.0);
        for i in 0..3 {
            v[i] += i as f64;
        }
        assert_eq!(v, Vec3::new(1.0, 3.0, 5.0));
    }

    #[test]
    #[should_panic]
    fn index_out_of_range_panics() {
        let _ = Vec3::ZERO[3];
    }
}
