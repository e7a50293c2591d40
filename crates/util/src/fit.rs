//! Least-squares fitting.
//!
//! The straight-line fit and the Arrhenius fit of Fig 9(a) (hydrogen
//! production rate vs inverse temperature) built on it.

use crate::constants::KB_HARTREE_PER_K;

/// Result of an ordinary least-squares straight-line fit `y = a + b·x`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LineFit {
    /// Intercept a.
    pub intercept: f64,
    /// Slope b.
    pub slope: f64,
    /// Coefficient of determination R².
    pub r2: f64,
    /// Standard error of the slope.
    pub slope_se: f64,
}

/// Ordinary least squares for `y = a + b·x`.
///
/// # Panics
/// Panics if fewer than two points are supplied or the x-values are all
/// identical.
pub fn linear_fit(x: &[f64], y: &[f64]) -> LineFit {
    assert_eq!(x.len(), y.len(), "x/y length mismatch");
    assert!(x.len() >= 2, "need at least two points");
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let sxx: f64 = x.iter().map(|&xi| (xi - mx) * (xi - mx)).sum();
    let sxy: f64 = x
        .iter()
        .zip(y)
        .map(|(&xi, &yi)| (xi - mx) * (yi - my))
        .sum();
    assert!(sxx > 0.0, "degenerate fit: all x equal");
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let ss_tot: f64 = y.iter().map(|&yi| (yi - my) * (yi - my)).sum();
    let ss_res: f64 = x
        .iter()
        .zip(y)
        .map(|(&xi, &yi)| {
            let e = yi - (intercept + slope * xi);
            e * e
        })
        .sum();
    let r2 = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    let dof = (x.len() as f64 - 2.0).max(1.0);
    let slope_se = (ss_res / dof / sxx).sqrt();
    LineFit {
        intercept,
        slope,
        r2,
        slope_se,
    }
}

/// Result of an Arrhenius fit `k(T) = A · exp(−Eₐ / k_B T)`.
#[derive(Clone, Copy, Debug)]
pub struct ArrheniusFit {
    /// Pre-exponential factor A, in the same units as the supplied rates.
    pub prefactor: f64,
    /// Activation energy in Hartree.
    pub activation_hartree: f64,
    /// Activation energy in eV (for comparison with the paper's 0.068 eV).
    pub activation_ev: f64,
    /// R² of the underlying ln k vs 1/T line.
    pub r2: f64,
}

/// Fits the Arrhenius law to `(T [K], k)` samples by regressing
/// `ln k` on `1/T`.
///
/// # Panics
/// Panics on non-positive temperatures or rates.
pub fn arrhenius_fit(temps_kelvin: &[f64], rates: &[f64]) -> ArrheniusFit {
    assert_eq!(temps_kelvin.len(), rates.len());
    for (&t, &k) in temps_kelvin.iter().zip(rates) {
        assert!(t > 0.0, "temperature must be positive");
        assert!(k > 0.0, "rate must be positive for a log fit");
    }
    let x: Vec<f64> = temps_kelvin.iter().map(|&t| 1.0 / t).collect();
    let y: Vec<f64> = rates.iter().map(|&k| k.ln()).collect();
    let line = linear_fit(&x, &y);
    // ln k = ln A − (Eₐ/k_B)·(1/T) → slope = −Eₐ/k_B with k_B in Ha/K.
    let ea_hartree = -line.slope * KB_HARTREE_PER_K;
    ArrheniusFit {
        prefactor: line.intercept.exp(),
        activation_hartree: ea_hartree,
        activation_ev: ea_hartree * crate::constants::HARTREE_EV,
        r2: line.r2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::ev_to_hartree;

    #[test]
    fn exact_line_recovered() {
        let x = [0.0, 1.0, 2.0, 3.0];
        let y = [1.0, 3.0, 5.0, 7.0];
        let f = linear_fit(&x, &y);
        assert!((f.intercept - 1.0).abs() < 1e-12);
        assert!((f.slope - 2.0).abs() < 1e-12);
        assert!((f.r2 - 1.0).abs() < 1e-12);
        assert!(f.slope_se < 1e-10);
    }

    #[test]
    fn noisy_line_r2_below_one() {
        let x = [0.0, 1.0, 2.0, 3.0, 4.0];
        let y = [0.1, 0.9, 2.2, 2.8, 4.1];
        let f = linear_fit(&x, &y);
        assert!(f.r2 > 0.97 && f.r2 < 1.0);
        assert!((f.slope - 1.0).abs() < 0.1);
    }

    #[test]
    #[should_panic]
    fn degenerate_x_panics() {
        linear_fit(&[1.0, 1.0], &[0.0, 1.0]);
    }

    #[test]
    fn arrhenius_recovers_known_barrier() {
        // Synthesise rates with Eₐ = 0.068 eV (the paper's value) and A = 1e12.
        let ea = ev_to_hartree(0.068);
        let a = 1e12;
        let temps = [300.0, 600.0, 1500.0];
        let rates: Vec<f64> = temps
            .iter()
            .map(|&t| a * (-ea / (KB_HARTREE_PER_K * t)).exp())
            .collect();
        let fit = arrhenius_fit(&temps, &rates);
        assert!(
            (fit.activation_ev - 0.068).abs() < 1e-6,
            "Ea = {}",
            fit.activation_ev
        );
        assert!((fit.prefactor / a - 1.0).abs() < 1e-6);
        assert!(fit.r2 > 0.999999);
    }
}
