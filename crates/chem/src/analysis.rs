//! Analysis pipeline: rate estimation with error bars, Arrhenius fits,
//! pH proxy, and the Fig 9a/9b experiment drivers.

use crate::kinetics::{HodParams, HodSimulation, HodState};
use crate::nanoparticle::lial_nanoparticle;
use crate::surface::analyze_surface;
use mqmd_util::constants::BOHR_ANGSTROM;
use mqmd_util::fit::{arrhenius_fit, ArrheniusFit};

/// A rate with its 1σ Poisson error.
#[derive(Clone, Copy, Debug)]
pub struct RateEstimate {
    /// Events per second.
    pub rate: f64,
    /// 1σ uncertainty (√N/T).
    pub error: f64,
    /// Events counted.
    pub events: usize,
}

/// Poisson rate estimate from event times over the elapsed window.
fn estimate_rate(event_times: &[f64], t_total: f64) -> RateEstimate {
    assert!(t_total > 0.0);
    let n = event_times.len();
    RateEstimate {
        rate: n as f64 / t_total,
        error: (n as f64).sqrt() / t_total,
        events: n,
    }
}

/// pH proxy from the dissolved OH⁻ count in a cell of volume
/// `volume_bohr3`: `pH = 14 + log₁₀[OH⁻]` with the concentration in mol/L.
pub fn ph_from_oh(oh_count: usize, volume_bohr3: f64) -> f64 {
    if oh_count == 0 {
        return 7.0;
    }
    const AVOGADRO: f64 = 6.022_140_76e23;
    let bohr_m = BOHR_ANGSTROM * 1e-10;
    let volume_l = volume_bohr3 * bohr_m.powi(3) * 1e3;
    let conc = oh_count as f64 / (AVOGADRO * volume_l);
    14.0 + conc.log10()
}

/// One Fig 9a data point: temperature, per-pair H₂ rate, error bar.
#[derive(Clone, Copy, Debug)]
pub struct Fig9aPoint {
    /// Temperature (K).
    pub temperature: f64,
    /// H₂ rate per Lewis pair (s⁻¹).
    pub rate_per_pair: f64,
    /// 1σ error on the rate.
    pub error: f64,
}

/// Runs the Fig 9a experiment: Li₃₀Al₃₀-sized site counts at the given
/// temperatures; returns the points and the Arrhenius fit.
pub fn run_fig9a(
    params: HodParams,
    temperatures: &[f64],
    n_pairs: usize,
    events_per_run: usize,
    seed: u64,
) -> (Vec<Fig9aPoint>, ArrheniusFit) {
    let points: Vec<Fig9aPoint> = temperatures
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            let state = HodState::new(n_pairs, 0, n_pairs, usize::MAX / 4);
            let mut sim = HodSimulation::new(params, t, state, seed.wrapping_add(i as u64));
            sim.run(f64::INFINITY, events_per_run);
            let est = estimate_rate(&sim.h2_events, sim.state.time.max(1e-300));
            Fig9aPoint {
                temperature: t,
                rate_per_pair: est.rate / n_pairs as f64,
                error: est.error / n_pairs as f64,
            }
        })
        .collect();
    let temps: Vec<f64> = points.iter().map(|p| p.temperature).collect();
    let rates: Vec<f64> = points.iter().map(|p| p.rate_per_pair).collect();
    let fit = arrhenius_fit(&temps, &rates);
    (points, fit)
}

/// One Fig 9b data point: particle size, N_surf, surface-normalised rate.
#[derive(Clone, Copy, Debug)]
pub struct Fig9bPoint {
    /// Li (=Al) count of the particle.
    pub n_pairs_in_particle: usize,
    /// Detected surface-atom count.
    pub n_surface: usize,
    /// Detected Lewis-pair count.
    pub lewis_pairs: usize,
    /// H₂ rate normalised by N_surf (s⁻¹ per surface atom).
    pub rate_per_surface_atom: f64,
    /// 1σ error.
    pub error: f64,
}

/// Runs the Fig 9b experiment at `temperature` over particle sizes,
/// using real geometric surface detection on the built nanoparticles.
pub fn run_fig9b(
    params: HodParams,
    particle_sizes: &[usize],
    temperature: f64,
    events_per_run: usize,
    seed: u64,
) -> Vec<Fig9bPoint> {
    particle_sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let cell = (2.0 * crate::nanoparticle::particle_radius(n) + 25.0).max(50.0);
            let particle = lial_nanoparticle(n, cell);
            let surf = analyze_surface(&particle);
            let li_surface = (0..particle.len())
                .filter(|&a| {
                    surf.is_surface[a] && particle.species[a] == mqmd_util::constants::Element::Li
                })
                .count();
            let state = HodState::new(surf.lewis_pairs.len(), 0, li_surface, usize::MAX / 4);
            let mut sim =
                HodSimulation::new(params, temperature, state, seed.wrapping_add(i as u64));
            sim.run(f64::INFINITY, events_per_run);
            let est = estimate_rate(&sim.h2_events, sim.state.time.max(1e-300));
            Fig9bPoint {
                n_pairs_in_particle: n,
                n_surface: surf.n_surface,
                lewis_pairs: surf.lewis_pairs.len(),
                rate_per_surface_atom: est.rate / surf.n_surface as f64,
                error: est.error / surf.n_surface as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_estimate_poisson() {
        let events: Vec<f64> = (0..100).map(|i| i as f64 * 0.01).collect();
        let est = estimate_rate(&events, 1.0);
        assert_eq!(est.events, 100);
        assert!((est.rate - 100.0).abs() < 1e-12);
        assert!((est.error - 10.0).abs() < 1e-12);
    }

    #[test]
    fn ph_is_seven_for_pure_water_and_rises_with_oh() {
        assert_eq!(ph_from_oh(0, 1e6), 7.0);
        let ph1 = ph_from_oh(10, 1e6);
        let ph2 = ph_from_oh(100, 1e6);
        assert!(ph2 > ph1, "more OH⁻ → more basic");
        assert!(ph1 > 7.0, "any dissolved LiOH is basic: pH {ph1}");
    }

    #[test]
    fn fig9a_reproduces_paper_shape() {
        let (points, fit) = run_fig9a(HodParams::default(), &[300.0, 600.0, 1500.0], 30, 40_000, 7);
        assert_eq!(points.len(), 3);
        // Rates rise with temperature.
        assert!(points[1].rate_per_pair > points[0].rate_per_pair);
        assert!(points[2].rate_per_pair > points[1].rate_per_pair);
        // Barrier near the paper's 0.068 eV; 300 K rate near 1.04e9.
        assert!(
            (0.05..=0.09).contains(&fit.activation_ev),
            "Ea {}",
            fit.activation_ev
        );
        assert!(
            (0.4e9..=2.5e9).contains(&points[0].rate_per_pair),
            "300 K rate {:.3e}",
            points[0].rate_per_pair
        );
    }

    #[test]
    fn fig9b_normalised_rate_is_flat() {
        let points = run_fig9b(HodParams::default(), &[30, 135, 441], 1500.0, 30_000, 11);
        assert_eq!(points.len(), 3);
        // Raw production grows with size…
        assert!(points[2].lewis_pairs > points[0].lewis_pairs);
        // …but the surface-normalised rate is size-independent within a
        // factor reflecting pair-per-surface-atom geometry (paper: flat
        // within error bars).
        let r: Vec<f64> = points.iter().map(|p| p.rate_per_surface_atom).collect();
        let max = r.iter().cloned().fold(0.0, f64::max);
        let min = r.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min < 2.0, "normalised rates {r:?}");
    }
}
