//! Ewald summation for point-ion electrostatics.
//!
//! The ion–ion contribution to the DFT total energy and Hellmann–Feynman
//! forces. Standard splitting: short-range `erfc` pair sum in real space,
//! long-range Gaussian sum in reciprocal space, self- and charged-background
//! corrections.

use mqmd_util::{Complex64, Vec3};

/// Result of an Ewald evaluation.
#[derive(Clone, Debug)]
pub struct EwaldResult {
    /// Ion–ion electrostatic energy (Hartree).
    pub energy: f64,
    /// Force on each ion (Hartree/Bohr).
    pub forces: Vec<Vec3>,
}

/// Complementary error function via the Abramowitz–Stegun 7.1.26 rational
/// approximation (|error| < 1.5e-7, ample for the 1e-6-converged sums here).
fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    poly * (-x * x).exp()
}

/// Error function.
pub fn erf(x: f64) -> f64 {
    1.0 - erfc(x)
}

/// Computes the Ewald energy and forces for point charges in a periodic
/// orthorhombic cell.
///
/// `eta` is chosen internally so both sums converge to ~1e-8 with modest
/// cutoffs; pass `Some(eta)` to override (the η-independence of the result
/// is a unit test).
pub fn ewald(
    cell: Vec3,
    positions: &[Vec3],
    charges: &[f64],
    eta_override: Option<f64>,
) -> EwaldResult {
    ewald_sum(cell, positions, charges, eta_override, reciprocal_sum)
}

/// The reciprocal-space sum over `G` in the sphere |G| ≤ `g_max`, with
/// `G = 2π·(nx/Lx, ny/Ly, nz/Lz)` and |n_a| ≤ `k[a]`.
struct Reciprocal {
    cell: Vec3,
    eta: f64,
    g_max: f64,
    k: [i64; 3],
    /// 2π/V.
    pref: f64,
}

/// Adds the real-space, reciprocal-space (through `reciprocal`), self and
/// background terms.
fn ewald_sum(
    cell: Vec3,
    positions: &[Vec3],
    charges: &[f64],
    eta_override: Option<f64>,
    reciprocal: fn(&Reciprocal, &[Vec3], &[f64], &mut f64, &mut [Vec3]),
) -> EwaldResult {
    assert_eq!(positions.len(), charges.len());
    let n = positions.len();
    let volume = cell.x * cell.y * cell.z;
    let l_min = cell.x.min(cell.y).min(cell.z);
    let r_cut = 0.5 * l_min;
    let eta = eta_override.unwrap_or(4.0 / r_cut);
    let sqrt_pi = std::f64::consts::PI.sqrt();

    let mut energy = 0.0;
    let mut forces = vec![Vec3::ZERO; n];

    // --- Real-space sum over images within |r| ≤ n_img cells.
    // erfc(eta·r) < 1e-9 for eta·r > 4.5; choose the image range accordingly.
    let reach = 4.5 / eta;
    let imgs = |l: f64| (reach / l).ceil() as i64;
    let (mx, my, mz) = (imgs(cell.x), imgs(cell.y), imgs(cell.z));
    for i in 0..n {
        for j in 0..n {
            for ax in -mx..=mx {
                for ay in -my..=my {
                    for az in -mz..=mz {
                        if i == j && ax == 0 && ay == 0 && az == 0 {
                            continue;
                        }
                        let shift =
                            Vec3::new(ax as f64 * cell.x, ay as f64 * cell.y, az as f64 * cell.z);
                        let d = positions[i] - positions[j] + shift;
                        let r = d.norm();
                        if r > reach {
                            continue;
                        }
                        let qq = charges[i] * charges[j];
                        // ½ factor via double loop over ordered pairs.
                        energy += 0.5 * qq * erfc(eta * r) / r;
                        let dvdr = -qq
                            * (erfc(eta * r) / (r * r)
                                + 2.0 * eta / sqrt_pi * (-eta * eta * r * r).exp() / r);
                        // force on i along +d direction
                        forces[i] -= d * (dvdr / r);
                    }
                }
            }
        }
    }

    // --- Reciprocal-space sum.
    let g_max = 2.0 * eta * (18.42f64).sqrt(); // exp(−G²/4η²) < 1e-8
    let tau = std::f64::consts::TAU;
    let recip = Reciprocal {
        cell,
        eta,
        g_max,
        k: [cell.x, cell.y, cell.z].map(|l| (g_max * l / tau).ceil() as i64),
        pref: tau / volume,
    };
    reciprocal(&recip, positions, charges, &mut energy, &mut forces);

    // --- Self-energy and charged-background corrections.
    let q_sum: f64 = charges.iter().sum();
    let q2_sum: f64 = charges.iter().map(|q| q * q).sum();
    energy -= eta / sqrt_pi * q2_sum;
    energy -= std::f64::consts::PI / (2.0 * eta * eta * volume) * q_sum * q_sum;

    EwaldResult { energy, forces }
}

/// The reciprocal sum from per-axis tables (the `eigts1/2/3` form of
/// plane-wave codes): the structure-factor phase e^{iG·R} of atom `a` is
/// the product of e^{i·2π·n_x·x_a/Lx}, e^{i·2π·n_y·y_a/Ly} and
/// e^{i·2π·n_z·z_a/Lz}, each read from a table of `2k+1` entries per atom,
/// and the Gaussian factor exp(−G²/4η²) is the product of three per-axis
/// factors. Each (G, atom) phase is formed once — the x·y product per
/// (nx, ny) column, then one product with the z entry — and serves both
/// S(G) and the force; columns wholly outside the sphere are skipped.
fn reciprocal_sum(
    r: &Reciprocal,
    positions: &[Vec3],
    charges: &[f64],
    energy: &mut f64,
    forces: &mut [Vec3],
) {
    let n = positions.len();
    let tau = std::f64::consts::TAU;
    let lengths = [r.cell.x, r.cell.y, r.cell.z];
    // g_a = 2π·m/L_a for m ∈ [−k, k], index m + k.
    let axis_g = |a: usize| -> Vec<f64> {
        (-r.k[a]..=r.k[a])
            .map(|m| tau * m as f64 / lengths[a])
            .collect()
    };
    let g_axis = [axis_g(0), axis_g(1), axis_g(2)];
    let gauss = g_axis.each_ref().map(|gs| -> Vec<f64> {
        gs.iter()
            .map(|g| (-g * g / (4.0 * r.eta * r.eta)).exp())
            .collect()
    });
    // Table of axis a, entry (m + k)·n + atom: e^{i·2π·m·R_atom,a/L_a}.
    let phase_table = |a: usize| -> Vec<Complex64> {
        let mut t = Vec::with_capacity((2 * r.k[a] as usize + 1) * n);
        for m in -r.k[a]..=r.k[a] {
            t.extend(
                positions
                    .iter()
                    .map(|p| Complex64::cis(tau * m as f64 * p[a] / lengths[a])),
            );
        }
        t
    };
    let [tx, ty, tz] = [phase_table(0), phase_table(1), phase_table(2)];
    let g_max2 = r.g_max * r.g_max;
    let mut pxy = vec![Complex64::ZERO; n];
    let mut phase = vec![Complex64::ZERO; n];
    for (ix, &gx) in g_axis[0].iter().enumerate() {
        for (iy, &gy) in g_axis[1].iter().enumerate() {
            let gxy2 = gx * gx + gy * gy;
            if gxy2 > g_max2 {
                continue;
            }
            let (ex, ey) = (&tx[ix * n..(ix + 1) * n], &ty[iy * n..(iy + 1) * n]);
            for ((p, &x), &y) in pxy.iter_mut().zip(ex).zip(ey) {
                *p = x * y;
            }
            let gauss_xy = gauss[0][ix] * gauss[1][iy];
            for (iz, &gz) in g_axis[2].iter().enumerate() {
                let g2 = gxy2 + gz * gz;
                if g2 > g_max2 || g2 == 0.0 {
                    continue;
                }
                let damp = gauss_xy * gauss[2][iz] / g2;
                // Structure factor S(G) = Σ q·e^{iG·R}.
                let ez = &tz[iz * n..(iz + 1) * n];
                let mut s = Complex64::ZERO;
                for (((ph, &p), &z), &q) in phase.iter_mut().zip(&pxy).zip(ez).zip(charges) {
                    *ph = p * z;
                    s += ph.scale(q);
                }
                *energy += r.pref * damp * s.norm_sqr();
                // F_I = (4π/V)·q_I·f(G)·G·Im[S*·e^{iG·R_I}]
                let g = Vec3::new(gx, gy, gz);
                let c = 2.0 * r.pref * damp;
                for ((f, ph), &q) in forces.iter_mut().zip(&phase).zip(charges) {
                    let im = (s.conj() * *ph).im;
                    *f += g * (c * q * im);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqmd_util::Xoshiro256pp;
    use proptest::prelude::*;

    /// The reference twin of [`reciprocal_sum`]: one `exp` per G and one
    /// `cis(G·R)` per (G, atom) for S(G), and the phase again for the
    /// force.
    fn reciprocal_direct(
        r: &Reciprocal,
        positions: &[Vec3],
        charges: &[f64],
        energy: &mut f64,
        forces: &mut [Vec3],
    ) {
        let tau = std::f64::consts::TAU;
        let [kx, ky, kz] = r.k;
        for nx in -kx..=kx {
            for ny in -ky..=ky {
                for nz in -kz..=kz {
                    if nx == 0 && ny == 0 && nz == 0 {
                        continue;
                    }
                    let g = Vec3::new(
                        tau * nx as f64 / r.cell.x,
                        tau * ny as f64 / r.cell.y,
                        tau * nz as f64 / r.cell.z,
                    );
                    let g2 = g.norm_sqr();
                    if g2 > r.g_max * r.g_max {
                        continue;
                    }
                    let damp = (-g2 / (4.0 * r.eta * r.eta)).exp() / g2;
                    let mut s = Complex64::ZERO;
                    for (q, p) in charges.iter().zip(positions) {
                        s += Complex64::cis(g.dot(*p)).scale(*q);
                    }
                    *energy += r.pref * damp * s.norm_sqr();
                    for (i, f) in forces.iter_mut().enumerate() {
                        let phase = Complex64::cis(g.dot(positions[i]));
                        let im = (s.conj() * phase).im;
                        *f += g * (2.0 * r.pref * damp * charges[i] * im);
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn tables_match_the_direct_reciprocal_sum(
            lx in 6.0..20.0f64,
            ly in 6.0..20.0f64,
            lz in 6.0..20.0f64,
            n in 1usize..17,
            seed in any::<u64>(),
        ) {
            let cell = Vec3::new(lx, ly, lz);
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let pos: Vec<Vec3> = (0..n)
                .map(|_| Vec3::new(rng.uniform_in(0.0, lx), rng.uniform_in(0.0, ly), rng.uniform_in(0.0, lz)))
                .collect();
            let q: Vec<f64> = (0..n).map(|_| (1 + rng.below(6)) as f64).collect();
            let fast = ewald(cell, &pos, &q, None);
            let direct = ewald_sum(cell, &pos, &q, None, reciprocal_direct);
            let de = (fast.energy - direct.energy).abs();
            prop_assert!(
                de <= 1e-13 * (1.0 + direct.energy.abs()),
                "|dE| = {de:e} at E = {}", direct.energy
            );
            let df = fast
                .forces
                .iter()
                .zip(&direct.forces)
                .map(|(a, b)| (*a - *b).norm())
                .fold(0.0, f64::max);
            prop_assert!(df <= 1e-12, "max |dF| = {df:e} Ha/Bohr");
        }
    }

    #[test]
    fn erfc_reference_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157_299_2).abs() < 1e-6);
        assert!(erfc(4.0) < 1.6e-8);
        assert!((erf(0.5) - 0.520_500).abs() < 1e-6);
    }

    #[test]
    fn nacl_madelung_constant() {
        // Rock salt: 8-atom conventional cell, charges ±1, lattice constant a.
        // E per ion pair = −α/d with d = a/2 and α(NaCl) = 1.747565.
        let a = 2.0;
        let cell = Vec3::splat(a);
        let mut pos = Vec::new();
        let mut q = Vec::new();
        for f in [
            [0.0, 0.0, 0.0],
            [0.0, 0.5, 0.5],
            [0.5, 0.0, 0.5],
            [0.5, 0.5, 0.0],
        ] {
            pos.push(Vec3::new(f[0], f[1], f[2]) * a);
            q.push(1.0);
            pos.push(Vec3::new(f[0] + 0.5, f[1] + 0.5, f[2] + 0.5) * a);
            q.push(-1.0);
        }
        let out = ewald(cell, &pos, &q, None);
        let pairs = 4.0;
        let d = a / 2.0;
        let alpha = -out.energy / pairs * d;
        assert!((alpha - 1.747565).abs() < 1e-4, "Madelung α = {alpha}");
    }

    #[test]
    fn cscl_madelung_constant() {
        // CsCl structure: simple cubic with the counter-ion at the body
        // centre; α referenced to the nn distance √3·a/2 is 1.762675.
        let a = 2.0;
        let cell = Vec3::splat(a);
        let pos = vec![Vec3::ZERO, Vec3::splat(a / 2.0)];
        let q = vec![1.0, -1.0];
        let out = ewald(cell, &pos, &q, None);
        let d = 3f64.sqrt() * a / 2.0;
        let alpha = -out.energy * d; // one pair
        assert!((alpha - 1.762675).abs() < 1e-4, "Madelung α = {alpha}");
    }

    #[test]
    fn eta_independence() {
        let cell = Vec3::new(5.0, 6.0, 7.0);
        let pos = vec![
            Vec3::new(0.3, 0.4, 0.5),
            Vec3::new(2.0, 3.0, 3.3),
            Vec3::new(4.0, 1.0, 6.0),
            Vec3::new(1.5, 5.0, 2.0),
        ];
        let q = vec![1.0, -2.0, 0.5, 0.5];
        let e1 = ewald(cell, &pos, &q, Some(1.0)).energy;
        let e2 = ewald(cell, &pos, &q, Some(1.6)).energy;
        assert!((e1 - e2).abs() < 1e-6, "{e1} vs {e2}");
    }

    #[test]
    fn forces_match_numerical_gradient() {
        let cell = Vec3::splat(6.0);
        let mut pos = vec![
            Vec3::new(1.0, 1.2, 0.8),
            Vec3::new(3.5, 3.0, 3.2),
            Vec3::new(5.0, 1.0, 4.0),
        ];
        let q = vec![1.0, -1.5, 0.5];
        let out = ewald(cell, &pos, &q, None);
        let h = 1e-5;
        for i in 0..pos.len() {
            for axis in 0..3 {
                let orig = pos[i][axis];
                pos[i][axis] = orig + h;
                let ep = ewald(cell, &pos, &q, None).energy;
                pos[i][axis] = orig - h;
                let em = ewald(cell, &pos, &q, None).energy;
                pos[i][axis] = orig;
                let f_num = -(ep - em) / (2.0 * h);
                assert!(
                    (f_num - out.forces[i][axis]).abs() < 1e-5,
                    "atom {i} axis {axis}: {f_num} vs {}",
                    out.forces[i][axis]
                );
            }
        }
    }

    #[test]
    fn forces_sum_to_zero() {
        let cell = Vec3::splat(7.0);
        let pos = vec![
            Vec3::new(0.5, 0.5, 0.5),
            Vec3::new(3.0, 4.0, 2.0),
            Vec3::new(6.0, 6.0, 1.0),
        ];
        let q = vec![2.0, -1.0, -1.0];
        let out = ewald(cell, &pos, &q, None);
        let total: Vec3 = out.forces.iter().copied().sum();
        assert!(total.norm() < 1e-8);
    }

    #[test]
    fn symmetric_dimer_forces_are_opposite() {
        let cell = Vec3::splat(10.0);
        let pos = vec![Vec3::new(4.0, 5.0, 5.0), Vec3::new(6.0, 5.0, 5.0)];
        let q = vec![1.0, 1.0];
        let out = ewald(cell, &pos, &q, None);
        assert!((out.forces[0] + out.forces[1]).norm() < 1e-10);
        // Like charges repel: force on atom 0 points in −x.
        assert!(out.forces[0].x < 0.0);
    }
}
