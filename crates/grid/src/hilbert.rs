//! Space-filling curves: Morton (Z-order) and Hilbert.
//!
//! The paper compresses trajectory I/O with a "spacefilling-curve-based
//! adaptive data compression scheme" (§4.4, ref \[65\]): sorting atoms along a
//! space-filling curve makes consecutive coordinates spatially close, so
//! delta encoding of quantised positions needs few bits. The Hilbert curve
//! (implemented here with Skilling's transpose algorithm) guarantees that
//! consecutive curve indices are face-adjacent cells. Morton order, the
//! cheaper and slightly less local alternative, is kept as the tests'
//! baseline.

/// Morton (Z-order) encoding of a 3-D cell coordinate with `bits` bits per
/// axis.
#[cfg(test)]
fn morton_encode(x: u32, y: u32, z: u32, bits: u32) -> u64 {
    debug_assert!(bits <= 21);
    let mut out = 0u64;
    for b in 0..bits {
        out |= (((x >> b) & 1) as u64) << (3 * b);
        out |= (((y >> b) & 1) as u64) << (3 * b + 1);
        out |= (((z >> b) & 1) as u64) << (3 * b + 2);
    }
    out
}

/// Inverse of `morton_encode`.
#[cfg(test)]
fn morton_decode(m: u64, bits: u32) -> (u32, u32, u32) {
    let (mut x, mut y, mut z) = (0u32, 0u32, 0u32);
    for b in 0..bits {
        x |= (((m >> (3 * b)) & 1) as u32) << b;
        y |= (((m >> (3 * b + 1)) & 1) as u32) << b;
        z |= (((m >> (3 * b + 2)) & 1) as u32) << b;
    }
    (x, y, z)
}

/// Hilbert-curve index of a 3-D cell coordinate with `bits` bits per axis
/// (Skilling's transpose algorithm, n = 3 dimensions).
pub fn hilbert_encode(x: u32, y: u32, z: u32, bits: u32) -> u64 {
    debug_assert!((1..=21).contains(&bits));
    let mut xs = [x, y, z];
    axes_to_transpose(&mut xs, bits);
    // Interleave the transposed form: bit j of xs[i] lands at Hilbert bit
    // j*3 + (2 − i), making xs[0] the most significant within each triple.
    let mut h = 0u64;
    for j in 0..bits {
        for (i, &xi) in xs.iter().enumerate() {
            h |= (((xi >> j) & 1) as u64) << (3 * j + (2 - i as u32));
        }
    }
    h
}

/// Inverse of [`hilbert_encode`].
pub fn hilbert_decode(h: u64, bits: u32) -> (u32, u32, u32) {
    let mut xs = [0u32; 3];
    for j in 0..bits {
        for (i, xi) in xs.iter_mut().enumerate() {
            *xi |= (((h >> (3 * j + (2 - i as u32))) & 1) as u32) << j;
        }
    }
    transpose_to_axes(&mut xs, bits);
    (xs[0], xs[1], xs[2])
}

fn axes_to_transpose(x: &mut [u32; 3], bits: u32) {
    let n = 3;
    let m = 1u32 << (bits - 1);
    // Inverse undo.
    let mut q = m;
    while q > 1 {
        let p = q - 1;
        for i in 0..n {
            if x[i] & q != 0 {
                x[0] ^= p;
            } else {
                let t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q >>= 1;
    }
    // Gray encode.
    for i in 1..n {
        x[i] ^= x[i - 1];
    }
    let mut t = 0;
    let mut q = m;
    while q > 1 {
        if x[n - 1] & q != 0 {
            t ^= q - 1;
        }
        q >>= 1;
    }
    for xi in x.iter_mut() {
        *xi ^= t;
    }
}

fn transpose_to_axes(x: &mut [u32; 3], bits: u32) {
    let n = 3;
    let mut t = x[n - 1] >> 1;
    // Gray decode.
    for i in (1..n).rev() {
        x[i] ^= x[i - 1];
    }
    x[0] ^= t;
    // Undo excess work.
    let mut q = 2u32;
    while q != (1u32 << bits) {
        let p = q - 1;
        for i in (0..n).rev() {
            if x[i] & q != 0 {
                x[0] ^= p;
            } else {
                t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q <<= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morton_round_trip() {
        for x in 0..8u32 {
            for y in 0..8 {
                for z in 0..8 {
                    let m = morton_encode(x, y, z, 3);
                    assert_eq!(morton_decode(m, 3), (x, y, z));
                }
            }
        }
    }

    #[test]
    fn hilbert_round_trip() {
        for bits in 1..=4u32 {
            let n = 1u32 << bits;
            for x in 0..n {
                for y in 0..n {
                    for z in 0..n {
                        let h = hilbert_encode(x, y, z, bits);
                        assert_eq!(hilbert_decode(h, bits), (x, y, z), "bits {bits}");
                    }
                }
            }
        }
    }

    #[test]
    fn hilbert_is_a_bijection() {
        let bits = 3u32;
        let n = 1u64 << (3 * bits);
        let mut seen = vec![false; n as usize];
        for x in 0..8u32 {
            for y in 0..8 {
                for z in 0..8 {
                    let h = hilbert_encode(x, y, z, bits) as usize;
                    assert!(!seen[h], "index {h} visited twice");
                    seen[h] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn hilbert_consecutive_cells_are_adjacent() {
        // The defining property: walking the curve moves exactly one step in
        // exactly one axis at a time.
        let bits = 3u32;
        let n = 1u64 << (3 * bits);
        let mut prev = hilbert_decode(0, bits);
        for h in 1..n {
            let cur = hilbert_decode(h, bits);
            let d = (prev.0 as i64 - cur.0 as i64).abs()
                + (prev.1 as i64 - cur.1 as i64).abs()
                + (prev.2 as i64 - cur.2 as i64).abs();
            assert_eq!(d, 1, "step {h}: {prev:?} → {cur:?}");
            prev = cur;
        }
    }

    #[test]
    fn morton_is_not_always_adjacent_but_hilbert_is() {
        // Sanity check on why Hilbert is preferred: count non-unit steps.
        let bits = 3u32;
        let n = 1u64 << (3 * bits);
        let mut morton_jumps = 0;
        let mut prev = morton_decode(0, bits);
        for m in 1..n {
            let cur = morton_decode(m, bits);
            let d = (prev.0 as i64 - cur.0 as i64).abs()
                + (prev.1 as i64 - cur.1 as i64).abs()
                + (prev.2 as i64 - cur.2 as i64).abs();
            if d != 1 {
                morton_jumps += 1;
            }
            prev = cur;
        }
        assert!(morton_jumps > 0, "Morton has jumps");
    }
}
