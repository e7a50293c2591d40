//! Partition-of-unity support profiles.
//!
//! Each DC domain carries a compactly supported weight `wα(r)` that is 1 on
//! the core Ω₀α and falls smoothly to 0 at the outer edge of the buffer Γα.
//! The domain support functions of the paper are the normalised weights
//! `pα(r) = wα(r)/Σβ wβ(r)`, which satisfy the sum rule `Σα pα(r) = 1`
//! exactly wherever the cores cover space (everywhere, since the cores tile
//! the cell).

/// Cubic smoothstep: 0 at `t ≤ 0`, 1 at `t ≥ 1`, C¹ in between.
#[inline]
fn smoothstep(t: f64) -> f64 {
    let t = t.clamp(0.0, 1.0);
    t * t * (3.0 - 2.0 * t)
}

/// One-dimensional support profile in domain-local coordinates.
///
/// `x` runs over the domain extent `[−b, l+b]` where `[0, l]` is the core:
/// the profile is 1 on the core and decays to 0 at `x = −b` and `x = l+b`
/// through a smoothstep ramp across the buffer.
///
/// With `b = 0` the profile becomes the indicator of the core (hard DC
/// partition).
#[inline]
fn profile_1d(x: f64, core_len: f64, buffer: f64) -> f64 {
    if buffer == 0.0 {
        return if (0.0..core_len).contains(&x) {
            1.0
        } else {
            0.0
        };
    }
    if x < 0.0 {
        smoothstep((x + buffer) / buffer)
    } else if x <= core_len {
        1.0
    } else {
        smoothstep((core_len + buffer - x) / buffer)
    }
}

/// Three-dimensional separable weight: the product of three 1-D profiles
/// with per-axis buffer thickness.
#[inline]
pub fn weight_3d(local: [f64; 3], core_len: [f64; 3], buffer: [f64; 3]) -> f64 {
    profile_1d(local[0], core_len[0], buffer[0])
        * profile_1d(local[1], core_len[1], buffer[1])
        * profile_1d(local[2], core_len[2], buffer[2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoothstep_endpoints_and_midpoint() {
        assert_eq!(smoothstep(-1.0), 0.0);
        assert_eq!(smoothstep(0.0), 0.0);
        assert_eq!(smoothstep(1.0), 1.0);
        assert_eq!(smoothstep(2.0), 1.0);
        assert!((smoothstep(0.5) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn profile_is_one_on_core() {
        for x in [0.0, 0.5, 1.0, 2.0, 3.0] {
            assert_eq!(profile_1d(x, 3.0, 1.0), 1.0);
        }
    }

    #[test]
    fn profile_vanishes_at_domain_edge() {
        assert_eq!(profile_1d(-1.0, 3.0, 1.0), 0.0);
        assert_eq!(profile_1d(4.0, 3.0, 1.0), 0.0);
        assert_eq!(profile_1d(-5.0, 3.0, 1.0), 0.0);
    }

    #[test]
    fn profile_monotone_on_ramps() {
        let mut prev = 0.0;
        for i in 0..=20 {
            let x = -1.0 + i as f64 * 0.05; // −1 → 0
            let p = profile_1d(x, 3.0, 1.0);
            assert!(p >= prev - 1e-15);
            prev = p;
        }
    }

    #[test]
    fn adjacent_ramps_cover_overlap() {
        // Domain A core [0,l], domain B core [l,2l]: across the shared
        // boundary at least one raw weight is positive (the partition of
        // unity normalises them), and the ramps are mirror images.
        let (l, b) = (3.0, 1.0);
        for i in 0..=20 {
            let x = l - b + i as f64 * (2.0 * b / 20.0); // overlap region
            let pa = profile_1d(x, l, b);
            let pb = profile_1d(x - l, l, b);
            assert!(pa + pb > 0.0, "coverage gap at x = {x}");
            // Mirror symmetry: A's falling ramp at l+d equals B's rising
            // ramp at d ... i.e. pb(x−l) = pa(2l−x) by construction.
            assert!((pb - profile_1d(2.0 * l - x, l, b)).abs() < 1e-12);
        }
    }

    #[test]
    fn ramp_mirror_symmetry() {
        let (l, b) = (3.0, 1.0);
        for i in 0..=10 {
            let d = i as f64 * b / 10.0;
            assert!((profile_1d(-d, l, b) - profile_1d(l + d, l, b)).abs() < 1e-15);
        }
    }

    #[test]
    fn hard_partition_with_zero_buffer() {
        assert_eq!(profile_1d(-0.01, 2.0, 0.0), 0.0);
        assert_eq!(profile_1d(0.0, 2.0, 0.0), 1.0);
        assert_eq!(profile_1d(1.99, 2.0, 0.0), 1.0);
        assert_eq!(profile_1d(2.0, 2.0, 0.0), 0.0);
    }

    #[test]
    fn weight_3d_is_separable_product() {
        let w = weight_3d([0.5, -0.5, 3.5], [3.0, 3.0, 3.0], [1.0, 1.0, 1.0]);
        let expect = 1.0 * profile_1d(-0.5, 3.0, 1.0) * profile_1d(3.5, 3.0, 1.0);
        assert!((w - expect).abs() < 1e-15);
        // Per-axis buffers act independently: zero buffer on z makes the z
        // factor a hard indicator.
        let w2 = weight_3d([0.5, -0.5, 3.5], [3.0, 3.0, 3.0], [1.0, 1.0, 0.0]);
        assert_eq!(w2, 0.0);
    }
}
