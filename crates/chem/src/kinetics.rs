//! Reaction channels and the Gillespie kinetic-Monte-Carlo engine.
//!
//! Channel catalogue (barriers in eV; the Lewis-pair barrier is the paper's
//! fitted 0.068 eV, the others follow the mechanisms §6 describes):
//!
//! 1. **Water dissociation at a Lewis acid–base pair** —
//!    `H₂O + (Li·Al) → H(ads) + OH(bridging)`; tiny barrier, the paper's
//!    central finding. Bridging Li–O–Al hydroxyls *boost* this channel
//!    (autocatalysis, ref \[70\]-like).
//! 2. **Water dissociation at a pure-Al site** — same products, much larger
//!    barrier (pure-Al particles are slow, ref \[47\]).
//! 3. **H recombination** — `2 H(ads) → H₂↑`; fast, so dissociation is
//!    rate-limiting and the measured Arrhenius slope reflects channel 1.
//! 4. **Li dissolution** — `Li(surface) + OH(br) → Li⁺ + OH⁻(aq)`; raises
//!    the pH (the experimentally observed signature, ref \[71\]).
//! 5. **Passivation** — an exposed Al site oxidises into an inert layer;
//!    suppressed by a basic solution, which is why Li-rich particles keep
//!    producing while pure Al stalls (the *yield* mechanism).

use mqmd_util::constants::{ev_to_hartree, kelvin_to_hartree};
use mqmd_util::Xoshiro256pp;

/// `(prefactor s⁻¹ per site, barrier eV)` Arrhenius pair.
pub type Channel = (f64, f64);

/// Rate constant of a channel at temperature `t_kelvin`.
pub fn arrhenius_rate(channel: Channel, t_kelvin: f64) -> f64 {
    let (a, ea_ev) = channel;
    let kt = kelvin_to_hartree(t_kelvin);
    a * (-ev_to_hartree(ea_ev) / kt).exp()
}

/// Kinetic parameters of the hydrogen-on-demand model.
#[derive(Clone, Copy, Debug)]
pub struct HodParams {
    /// Channel 1: Lewis-pair water dissociation.
    pub pair_dissociation: Channel,
    /// Channel 2: pure-Al-site water dissociation.
    pub al_dissociation: Channel,
    /// Channel 3: H + H → H₂ (per adsorbed-H pair).
    pub h_recombination: Channel,
    /// Channel 4: Li dissolution (per surface Li with a bridging OH).
    pub li_dissolution: Channel,
    /// Channel 5: Al-site passivation.
    pub passivation: Channel,
    /// Channel 6: hydroxyl shedding — a bridging OH dissolves into the
    /// basic solution (aluminate/hydroxide), freeing its surface site and
    /// sustaining the steady state.
    pub oh_shedding: Channel,
    /// Autocatalytic boost of channel 1 per bridging OH, relative to the
    /// number of pair sites.
    pub bridging_boost: f64,
    /// Suppression of passivation per dissolved OH⁻.
    pub ph_suppression: f64,
}

impl Default for HodParams {
    fn default() -> Self {
        Self {
            // A = 2.88e10 with Ea = 0.068 eV gives the paper's 1.04e9 H₂
            // s⁻¹ per pair at 300 K (two dissociations per H₂).
            pair_dissociation: (2.88e10, 0.068),
            al_dissociation: (1.0e12, 0.30),
            h_recombination: (1.0e12, 0.05),
            li_dissolution: (5.0e9, 0.25),
            passivation: (2.0e8, 0.20),
            oh_shedding: (1.0e12, 0.10),
            bridging_boost: 0.5,
            ph_suppression: 0.3,
        }
    }
}

/// Discrete state of the reacting surface + solution.
#[derive(Clone, Debug, PartialEq)]
pub struct HodState {
    /// Active Lewis acid–base pair sites.
    pub pair_sites: usize,
    /// Active pure-Al surface sites.
    pub al_sites: usize,
    /// Adsorbed hydrogen atoms.
    pub adsorbed_h: usize,
    /// H₂ molecules produced.
    pub h2_produced: usize,
    /// Bridging surface hydroxyls (Li–O(H)–Al).
    pub bridging_oh: usize,
    /// Dissolved hydroxide (pH proxy).
    pub oh_minus: usize,
    /// Surface Li atoms remaining.
    pub li_remaining: usize,
    /// Passivated (dead) Al sites.
    pub passivated: usize,
    /// Water molecules remaining.
    pub water_remaining: usize,
    /// Maximum simultaneous bridging hydroxyls (surface capacity).
    pub oh_capacity: usize,
    /// Simulated time (s).
    pub time: f64,
}

impl HodState {
    /// Initialises from a surface analysis: `pairs` Lewis-pair sites,
    /// `al_sites` plain Al sites, `li_surface` surface Li atoms and
    /// `n_water` waters.
    pub fn new(pairs: usize, al_sites: usize, li_surface: usize, n_water: usize) -> Self {
        Self {
            pair_sites: pairs,
            al_sites,
            adsorbed_h: 0,
            h2_produced: 0,
            bridging_oh: 0,
            oh_minus: 0,
            li_remaining: li_surface,
            passivated: 0,
            water_remaining: n_water,
            // Three hydroxyls per active site before the surface saturates.
            oh_capacity: 3 * (pairs + al_sites).max(1),
            time: 0.0,
        }
    }

    /// Hydrogen-atom bookkeeping invariant:
    /// `2·water + adsorbed + bridging_OH + OH⁻ + 2·H₂` is conserved.
    pub fn hydrogen_inventory(&self) -> usize {
        2 * self.water_remaining
            + self.adsorbed_h
            + self.bridging_oh
            + self.oh_minus
            + 2 * self.h2_produced
    }
}

/// A Gillespie kMC simulation of one nanoparticle at fixed temperature.
pub struct HodSimulation {
    /// Parameters.
    pub params: HodParams,
    /// Temperature (K).
    pub temperature: f64,
    /// Current state.
    pub state: HodState,
    rng: Xoshiro256pp,
    /// Times (s) at which H₂ molecules were produced.
    pub h2_events: Vec<f64>,
}

impl HodSimulation {
    /// Creates a simulation.
    pub fn new(params: HodParams, temperature: f64, state: HodState, seed: u64) -> Self {
        assert!(temperature > 0.0);
        Self {
            params,
            temperature,
            state,
            rng: Xoshiro256pp::seed_from_u64(seed),
            h2_events: Vec::new(),
        }
    }

    /// Per-channel propensities (total rates, s⁻¹) in the current state.
    pub fn propensities(&self) -> [f64; 6] {
        let p = &self.params;
        let s = &self.state;
        let t = self.temperature;
        let water_frac = if s.water_remaining > 0 { 1.0 } else { 0.0 };
        // Dissociation needs a free surface site; the autocatalytic boost of
        // bridging Li–O–Al hydroxyls is bounded by the same capacity.
        let occupancy = (s.bridging_oh as f64 / s.oh_capacity as f64).min(1.0);
        let free = 1.0 - occupancy;
        let boost = 1.0 + p.bridging_boost * occupancy;
        let r_pair = s.pair_sites as f64
            * arrhenius_rate(p.pair_dissociation, t)
            * water_frac
            * free
            * boost;
        let r_al = s.al_sites as f64 * arrhenius_rate(p.al_dissociation, t) * water_frac * free;
        let h_pairs = (s.adsorbed_h / 2) as f64;
        let r_rec = h_pairs * arrhenius_rate(p.h_recombination, t);
        let li_active = s.li_remaining.min(s.bridging_oh) as f64;
        let r_li = li_active * arrhenius_rate(p.li_dissolution, t);
        let r_pass = s.al_sites as f64 * arrhenius_rate(p.passivation, t)
            / (1.0 + p.ph_suppression * s.oh_minus as f64);
        let r_shed = s.bridging_oh as f64 * arrhenius_rate(p.oh_shedding, t);
        [r_pair, r_al, r_rec, r_li, r_pass, r_shed]
    }

    /// Executes one kMC event; returns `false` when no channel can fire.
    pub fn step(&mut self) -> bool {
        let rates = self.propensities();
        let total: f64 = rates.iter().sum();
        if total <= 0.0 {
            return false;
        }
        self.state.time += self.rng.exponential(total);
        let mut pick = self.rng.uniform() * total;
        let mut channel = 5;
        for (i, &r) in rates.iter().enumerate() {
            if pick < r {
                channel = i;
                break;
            }
            pick -= r;
        }
        let s = &mut self.state;
        match channel {
            0 | 1 => {
                // Water dissociation (pair or Al site).
                s.water_remaining -= 1;
                s.adsorbed_h += 1;
                s.bridging_oh += 1;
                if channel == 1 {
                    // Slow-site chemistry roughens the Al surface slightly;
                    // no state change beyond the shared products.
                }
            }
            2 => {
                s.adsorbed_h -= 2;
                s.h2_produced += 1;
                self.h2_events.push(s.time);
            }
            3 => {
                s.li_remaining -= 1;
                s.bridging_oh -= 1;
                s.oh_minus += 1;
            }
            4 => {
                s.al_sites -= 1;
                s.passivated += 1;
            }
            5 => {
                s.bridging_oh -= 1;
                s.oh_minus += 1;
            }
            _ => unreachable!(),
        }
        true
    }

    /// Runs until `t_end` seconds of simulated time or `max_events` events.
    pub fn run(&mut self, t_end: f64, max_events: usize) -> usize {
        let mut events = 0;
        while self.state.time < t_end && events < max_events {
            if !self.step() {
                break;
            }
            events += 1;
        }
        events
    }

    /// H₂ production rate over the run so far (molecules/s).
    #[cfg(test)]
    fn h2_rate(&self) -> f64 {
        if self.state.time <= 0.0 {
            return 0.0;
        }
        self.state.h2_produced as f64 / self.state.time
    }

    /// H₂ rate per Lewis pair (the Fig 9a ordinate).
    #[cfg(test)]
    fn h2_rate_per_pair(&self) -> f64 {
        if self.state.pair_sites == 0 {
            return 0.0;
        }
        self.h2_rate() / self.state.pair_sites as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqmd_util::fit::arrhenius_fit;

    fn fresh(pairs: usize, al: usize, water: usize) -> HodState {
        HodState::new(pairs, al, pairs, water)
    }

    #[test]
    fn arrhenius_rate_increases_with_temperature() {
        let ch = (1e12, 0.3);
        assert!(arrhenius_rate(ch, 600.0) > arrhenius_rate(ch, 300.0));
        // Barrierless channel: rate equals the prefactor.
        assert!((arrhenius_rate((1e10, 0.0), 300.0) - 1e10).abs() < 1.0);
    }

    #[test]
    fn hydrogen_inventory_conserved() {
        let mut sim = HodSimulation::new(HodParams::default(), 1500.0, fresh(20, 10, 500), 1);
        let before = sim.state.hydrogen_inventory();
        sim.run(1e-3, 20_000);
        assert!(sim.state.h2_produced > 0, "events must fire at 1500 K");
        assert_eq!(sim.state.hydrogen_inventory(), before);
    }

    #[test]
    fn rate_at_300k_matches_paper_magnitude() {
        // Paper: 1.04×10⁹ H₂ s⁻¹ per LiAl pair at 300 K.
        let mut sim = HodSimulation::new(HodParams::default(), 300.0, fresh(30, 0, 100_000), 2);
        sim.run(f64::INFINITY, 60_000);
        let rate = sim.h2_rate_per_pair();
        assert!(
            (0.4e9..=2.5e9).contains(&rate),
            "per-pair rate {rate:.3e} (paper: 1.04e9)"
        );
    }

    #[test]
    fn measured_activation_energy_is_near_68_mev() {
        // Fig 9a: Arrhenius fit over 300/600/1500 K.
        let temps = [300.0, 600.0, 1500.0];
        let rates: Vec<f64> = temps
            .iter()
            .map(|&t| {
                let mut sim =
                    HodSimulation::new(HodParams::default(), t, fresh(30, 0, 1_000_000), 3);
                sim.run(f64::INFINITY, 80_000);
                sim.h2_rate_per_pair()
            })
            .collect();
        let fit = arrhenius_fit(&temps, &rates);
        assert!(
            (0.05..=0.09).contains(&fit.activation_ev),
            "Ea = {} eV (paper: 0.068)",
            fit.activation_ev
        );
        assert!(fit.r2 > 0.98, "Arrhenius linearity r² = {}", fit.r2);
    }

    #[test]
    fn lial_vastly_outproduces_pure_al() {
        // §6: alloying gives orders-of-magnitude faster H₂ production.
        let t_end = 1e-5;
        let mut lial = HodSimulation::new(HodParams::default(), 300.0, fresh(30, 0, 1_000_000), 4);
        lial.run(t_end, 10_000_000);
        let mut pure = HodSimulation::new(
            HodParams::default(),
            300.0,
            HodState::new(0, 30, 0, 1_000_000),
            4,
        );
        pure.run(t_end, 10_000_000);
        assert!(
            lial.state.h2_produced as f64 > 50.0 * (pure.state.h2_produced.max(1)) as f64,
            "LiAl {} vs pure Al {}",
            lial.state.h2_produced,
            pure.state.h2_produced
        );
    }

    #[test]
    fn pure_al_passivates_and_stalls() {
        let mut pure = HodSimulation::new(
            HodParams::default(),
            600.0,
            HodState::new(0, 40, 0, 100_000),
            5,
        );
        pure.run(f64::INFINITY, 500_000);
        assert!(pure.state.passivated > 0, "oxide layer must form");
        // Once every Al site is passivated nothing can fire.
        assert_eq!(pure.state.al_sites + pure.state.passivated, 40);
        if pure.state.al_sites == 0 && pure.state.adsorbed_h < 2 {
            assert!(!pure.step(), "fully passivated surface is inert");
        }
    }

    #[test]
    fn dissolved_li_raises_oh_and_protects_surface() {
        let mut sim = HodSimulation::new(HodParams::default(), 600.0, fresh(30, 20, 50_000), 6);
        sim.run(f64::INFINITY, 200_000);
        assert!(sim.state.oh_minus > 0, "Li must dissolve into LiOH");
        // Passivation suppressed relative to a Li-free run with the same Al
        // exposure.
        let mut no_li = HodSimulation::new(
            HodParams::default(),
            600.0,
            HodState::new(0, 20, 0, 50_000),
            6,
        );
        no_li.run(sim.state.time, 200_000);
        assert!(
            sim.state.passivated <= no_li.state.passivated,
            "with Li: {} passivated; without: {}",
            sim.state.passivated,
            no_li.state.passivated
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut sim = HodSimulation::new(HodParams::default(), 600.0, fresh(10, 5, 1_000), 99);
            sim.run(1e-5, 50_000);
            (sim.state.clone(), sim.h2_events.len())
        };
        let (s1, n1) = run();
        let (s2, n2) = run();
        assert_eq!(s1, s2);
        assert_eq!(n1, n2);
    }

    #[test]
    fn autocatalysis_accelerates_dissociation() {
        // At identical surface occupancy, a nonzero bridging boost raises
        // the pair-dissociation propensity over the boost-free model.
        let boosted_params = HodParams::default();
        let flat_params = HodParams {
            bridging_boost: 0.0,
            ..HodParams::default()
        };
        let mut boosted = HodSimulation::new(boosted_params, 300.0, fresh(10, 0, 1000), 1);
        boosted.state.bridging_oh = 10;
        let mut flat = HodSimulation::new(flat_params, 300.0, fresh(10, 0, 1000), 1);
        flat.state.bridging_oh = 10;
        assert!(boosted.propensities()[0] > flat.propensities()[0]);
        // And hydroxyl saturation stalls dissociation entirely.
        let mut full = HodSimulation::new(boosted_params, 300.0, fresh(10, 0, 1000), 1);
        full.state.bridging_oh = full.state.oh_capacity;
        assert_eq!(full.propensities()[0], 0.0);
    }
}
