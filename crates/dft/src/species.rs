//! Pseudopotential parametrisation.
//!
//! Each element carries a *soft local pseudopotential*
//!
//! ```text
//! v_loc(r) = −Z_val · erf(r / r_c) / r  +  A · exp(−r² / r_g²)
//! ```
//!
//! whose analytic form factor is
//!
//! ```text
//! v̂_loc(G) = −4π·Z_val·exp(−G²·r_c²/4)/G²  +  A·π^{3/2}·r_g³·exp(−G²·r_g²/4)
//! ```
//!
//! (the `G → 0` limit of the Coulomb part is divergent; its finite
//! `π·Z·r_c²` residue — the conventional "α-term" — is kept and the `1/G²`
//! singularity cancels against the Hartree/Ewald backgrounds for neutral
//! cells), plus Gaussian-localised Kleinman–Bylander projectors of width
//! `r_nl` — one s channel of strength `d0` and three p channels of strength
//! `d1` — applied through the `B·D·B†` matrix form of the paper's Eq. (5).
//!
//! The parameters are *model* values tuned for smoothness on the coarse
//! grids this reproduction runs at — they preserve the algorithmic structure
//! and cost exponents of a production ultrasoft-pseudopotential code without
//! claiming chemical accuracy (see DESIGN.md, substitution table).

use mqmd_util::constants::Element;

/// Parameters of the model pseudopotential for one element.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pseudopotential {
    /// Element this parametrises.
    pub element: Element,
    /// Valence charge Z_val (must match `Element::valence`).
    pub z_val: f64,
    /// Error-function smearing radius of the local Coulomb part (Bohr).
    pub r_core: f64,
    /// Amplitude of the repulsive Gaussian core correction (Hartree).
    pub a_core: f64,
    /// Width of the repulsive Gaussian (Bohr).
    pub r_gauss: f64,
    /// Strength of the separable s-channel nonlocal projector (Hartree).
    pub d0: f64,
    /// Strength of the three p-channel projectors (Hartree); 0 disables the
    /// l = 1 channel.
    pub d1: f64,
    /// Width of the Gaussian projectors (Bohr).
    pub r_nl: f64,
}

impl Pseudopotential {
    /// The model parametrisation table.
    pub fn for_element(e: Element) -> Self {
        let (r_core, a_core, r_gauss, d0, d1, r_nl) = match e {
            Element::H => (1.00, 0.0, 1.00, 0.0, 0.0, 1.00),
            Element::Li => (1.40, 2.0, 1.00, 0.50, 0.20, 1.20),
            Element::C => (1.00, 6.0, 0.80, 1.00, 0.50, 0.90),
            Element::O => (1.00, 9.0, 0.80, 1.20, 0.60, 0.90),
            Element::Al => (1.40, 4.0, 1.10, 0.80, 0.30, 1.20),
            Element::Si => (1.30, 5.0, 1.00, 0.90, 0.40, 1.10),
            Element::Cd => (1.60, 3.0, 1.30, 0.60, 0.30, 1.40),
            Element::Se => (1.20, 8.0, 1.00, 1.10, 0.50, 1.00),
        };
        Self {
            element: e,
            z_val: e.valence() as f64,
            r_core,
            a_core,
            r_gauss,
            d0,
            d1,
            r_nl,
        }
    }

    /// Local form factor `v̂_loc(G)` at squared wavevector `g2 = |G|²`
    /// (volume-integral convention; divide by cell volume when building the
    /// grid potential). At `G = 0` the Coulomb `1/G²` singularity is dropped
    /// (cancelled by the jellium background) and the finite α-term
    /// `π·Z·r_c²` is kept.
    pub fn vloc_g(&self, g2: f64) -> f64 {
        let gauss = self.a_core
            * std::f64::consts::PI.powf(1.5)
            * self.r_gauss.powi(3)
            * (-g2 * self.r_gauss * self.r_gauss / 4.0).exp();
        if g2 == 0.0 {
            std::f64::consts::PI * self.z_val * self.r_core * self.r_core + gauss
        } else {
            let rc2 = self.r_core * self.r_core;
            -4.0 * std::f64::consts::PI * self.z_val * (-g2 * rc2 / 4.0).exp() / g2 + gauss
        }
    }

    /// Un-normalised radial profile of the s-projector in reciprocal space,
    /// `p(G) = exp(−G²·r_nl²/4)`; the basis normalises it numerically.
    pub fn projector_g(&self, g2: f64) -> f64 {
        (-g2 * self.r_nl * self.r_nl / 4.0).exp()
    }

    /// Number of projector columns this species contributes
    /// (1 for the s channel + 3 for an active p channel).
    pub fn n_projectors(&self) -> usize {
        let mut n = 0;
        if self.d0 != 0.0 {
            n += 1;
        }
        if self.d1 != 0.0 {
            n += 3;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_covers_all_elements_consistently() {
        for e in Element::ALL {
            let p = Pseudopotential::for_element(e);
            assert_eq!(p.z_val, e.valence() as f64);
            assert!(p.r_core > 0.0 && p.r_gauss > 0.0 && p.r_nl > 0.0);
        }
    }

    #[test]
    fn coulomb_tail_recovered_at_small_g() {
        // For G ≪ 1/r_c the form factor approaches the bare Coulomb −4πZ/G².
        let p = Pseudopotential::for_element(Element::Al);
        let g2 = 1e-4;
        let bare = -4.0 * std::f64::consts::PI * p.z_val / g2;
        let ratio =
            (p.vloc_g(g2) - p.a_core * std::f64::consts::PI.powf(1.5) * p.r_gauss.powi(3)) / bare;
        assert!((ratio - 1.0).abs() < 1e-3, "ratio {ratio}");
    }

    #[test]
    fn form_factor_decays_at_large_g() {
        let p = Pseudopotential::for_element(Element::Si);
        assert!(p.vloc_g(100.0).abs() < 1e-6 * p.vloc_g(1.0).abs());
    }

    #[test]
    fn alpha_term_at_g0() {
        let p = Pseudopotential::for_element(Element::C);
        let expect = std::f64::consts::PI * 4.0 * 1.0
            + 6.0 * std::f64::consts::PI.powf(1.5) * 0.8f64.powi(3);
        assert!((p.vloc_g(0.0) - expect).abs() < 1e-12);
    }

    #[test]
    fn hydrogen_has_no_nonlocal_channel() {
        assert_eq!(Pseudopotential::for_element(Element::H).n_projectors(), 0);
        assert!(Pseudopotential::for_element(Element::Si).n_projectors() > 0);
    }

    #[test]
    fn projector_profile_monotone_decay() {
        let p = Pseudopotential::for_element(Element::O);
        let mut prev = p.projector_g(0.0);
        assert_eq!(prev, 1.0);
        for i in 1..20 {
            let cur = p.projector_g(i as f64);
            assert!(cur < prev);
            prev = cur;
        }
    }
}
