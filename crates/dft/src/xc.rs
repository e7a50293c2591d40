//! Local-density-approximation exchange-correlation.
//!
//! Slater exchange plus the Perdew–Zunger 1981 parametrisation of the
//! Ceperley–Alder correlation energy — the workhorse LDA used by the
//! generation of plane-wave codes the paper descends from.

/// Exchange energy density per electron: `ε_x(ρ) = −(3/4)(3ρ/π)^{1/3}`.
#[inline]
fn ex_per_electron(rho: f64) -> f64 {
    if rho <= 0.0 {
        return 0.0;
    }
    -0.75 * (3.0 * rho / std::f64::consts::PI).cbrt()
}

/// Exchange potential `v_x = ∂(ρ·ε_x)/∂ρ = −(3ρ/π)^{1/3}`.
#[inline]
fn vx(rho: f64) -> f64 {
    if rho <= 0.0 {
        return 0.0;
    }
    -(3.0 * rho / std::f64::consts::PI).cbrt()
}

// Perdew–Zunger correlation constants (unpolarised).
const PZ_GAMMA: f64 = -0.1423;
const PZ_BETA1: f64 = 1.0529;
const PZ_BETA2: f64 = 0.3334;
const PZ_A: f64 = 0.0311;
const PZ_B: f64 = -0.048;
const PZ_C: f64 = 0.0020;
const PZ_D: f64 = -0.0116;

/// Wigner–Seitz radius `r_s = (3/(4πρ))^{1/3}`.
#[inline]
fn rs(rho: f64) -> f64 {
    (3.0 / (4.0 * std::f64::consts::PI * rho)).cbrt()
}

/// Correlation energy per electron (PZ81).
fn ec_per_electron(rho: f64) -> f64 {
    if rho <= 0.0 {
        return 0.0;
    }
    let r = rs(rho);
    if r >= 1.0 {
        PZ_GAMMA / (1.0 + PZ_BETA1 * r.sqrt() + PZ_BETA2 * r)
    } else {
        PZ_A * r.ln() + PZ_B + PZ_C * r * r.ln() + PZ_D * r
    }
}

/// Correlation potential `v_c = ε_c − (r_s/3)·dε_c/dr_s` (PZ81).
fn vc(rho: f64) -> f64 {
    if rho <= 0.0 {
        return 0.0;
    }
    let r = rs(rho);
    if r >= 1.0 {
        let sq = r.sqrt();
        let denom = 1.0 + PZ_BETA1 * sq + PZ_BETA2 * r;
        let ec = PZ_GAMMA / denom;
        // PZ's closed form for the potential in the low-density branch.
        ec * (1.0 + 7.0 / 6.0 * PZ_BETA1 * sq + 4.0 / 3.0 * PZ_BETA2 * r) / denom
    } else {
        PZ_A * r.ln()
            + (PZ_B - PZ_A / 3.0)
            + 2.0 / 3.0 * PZ_C * r * r.ln()
            + (2.0 * PZ_D - PZ_C) / 3.0 * r
    }
}

/// Total XC energy density per electron.
#[inline]
fn exc_per_electron(rho: f64) -> f64 {
    ex_per_electron(rho) + ec_per_electron(rho)
}

/// Total XC potential.
#[inline]
pub fn vxc(rho: f64) -> f64 {
    vx(rho) + vc(rho)
}

/// XC energy of a sampled density: `E_xc = ∫ ρ·ε_xc(ρ) dV` with volume
/// element `dv`.
pub fn exc_energy(rho: &[f64], dv: f64) -> f64 {
    rho.iter().map(|&r| r * exc_per_electron(r)).sum::<f64>() * dv
}

/// Writes the XC potential of a sampled density into `out`.
pub fn vxc_field(rho: &[f64], out: &mut [f64]) {
    assert_eq!(rho.len(), out.len());
    for (o, &r) in out.iter_mut().zip(rho) {
        *o = vxc(r.max(0.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exchange_scaling_law() {
        // ε_x ∝ ρ^{1/3}: doubling ρ multiplies ε_x by 2^{1/3}.
        let e1 = ex_per_electron(0.01);
        let e2 = ex_per_electron(0.02);
        assert!((e2 / e1 - 2f64.cbrt()).abs() < 1e-12);
    }

    #[test]
    fn vx_is_derivative_of_rho_ex() {
        let h = 1e-7;
        for rho in [1e-3, 0.01, 0.1, 1.0] {
            let f = |r: f64| r * ex_per_electron(r);
            let num = (f(rho + h) - f(rho - h)) / (2.0 * h);
            assert!((num - vx(rho)).abs() < 1e-6, "rho = {rho}");
        }
    }

    #[test]
    fn vc_is_derivative_of_rho_ec() {
        let h = 1e-7;
        // Test on both sides of rs = 1 (rho ≈ 0.2387 at rs = 1).
        for rho in [0.01, 0.1, 0.2, 0.3, 1.0] {
            let f = |r: f64| r * ec_per_electron(r);
            let num = (f(rho + h) - f(rho - h)) / (2.0 * h);
            assert!(
                (num - vc(rho)).abs() < 1e-5,
                "rho = {rho}: {num} vs {}",
                vc(rho)
            );
        }
    }

    #[test]
    fn correlation_branches_continuous_at_rs1() {
        // ρ at r_s = 1.
        let rho1 = 3.0 / (4.0 * std::f64::consts::PI);
        let below = ec_per_electron(rho1 * 1.0001); // r_s slightly < 1
        let above = ec_per_electron(rho1 * 0.9999); // r_s slightly > 1
        assert!((below - above).abs() < 1e-4);
    }

    #[test]
    fn xc_energy_negative_for_positive_density() {
        let rho = vec![0.05; 64];
        let e = exc_energy(&rho, 0.5);
        assert!(e < 0.0);
    }

    #[test]
    fn known_value_at_rs_2() {
        // At r_s = 2 PZ81 gives ε_c ≈ −0.0448 Ha (standard tabulated value).
        let rho = 3.0 / (4.0 * std::f64::consts::PI * 8.0);
        let ec = ec_per_electron(rho);
        assert!((ec + 0.0448).abs() < 5e-4, "ec = {ec}");
    }

    #[test]
    fn zero_density_is_safe() {
        assert_eq!(vxc(0.0), 0.0);
        assert_eq!(exc_per_electron(0.0), 0.0);
        assert_eq!(vxc(-1e-18), 0.0);
    }
}
