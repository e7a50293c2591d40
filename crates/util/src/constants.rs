//! Physical constants and unit conversions.
//!
//! The whole workspace works in **Hartree atomic units** (ħ = mₑ = e =
//! 4πε₀ = 1), matching the unit system quoted by the SC14 paper (energies in
//! "a.u." are Hartree, lengths in Bohr). Conversions to laboratory units are
//! provided for reporting (eV for barriers, femtoseconds for time steps,
//! Kelvin for temperature).

/// Hartree energy in electron-volts.
pub const HARTREE_EV: f64 = 27.211_386_245_988;

/// Bohr radius in Ångström.
pub const BOHR_ANGSTROM: f64 = 0.529_177_210_903;

/// Boltzmann constant in Hartree per Kelvin.
pub const KB_HARTREE_PER_K: f64 = 3.166_811_563_455_546e-6;

/// One atomic unit of time in femtoseconds.
pub const AU_TIME_FS: f64 = 0.024_188_843_265_857;

/// One femtosecond in atomic units of time.
pub const FS_AU_TIME: f64 = 1.0 / AU_TIME_FS;

/// Atomic mass unit (dalton) in electron masses, the MD mass unit.
pub const AMU_EMASS: f64 = 1_822.888_486_209;

/// One atomic unit of time in seconds (for converting simulated rates to s⁻¹).
pub const AU_TIME_S: f64 = 2.418_884_326_585_7e-17;

/// The unit time step used by the paper's production run: 0.242 fs (§6).
pub const PAPER_TIMESTEP_FS: f64 = 0.242;

/// Atomic numbers, valence charges and masses for the species used in the
/// paper's workloads (SiC scaling runs, CdSe convergence runs, LiAl + water
/// science runs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Element {
    H,
    Li,
    C,
    O,
    Al,
    Si,
    Cd,
    Se,
}

impl Element {
    /// All supported elements, in atomic-number order.
    pub const ALL: [Element; 8] = [
        Element::H,
        Element::Li,
        Element::C,
        Element::O,
        Element::Al,
        Element::Si,
        Element::Cd,
        Element::Se,
    ];

    /// Atomic number Z.
    pub const fn atomic_number(self) -> u32 {
        match self {
            Element::H => 1,
            Element::Li => 3,
            Element::C => 6,
            Element::O => 8,
            Element::Al => 13,
            Element::Si => 14,
            Element::Cd => 48,
            Element::Se => 34,
        }
    }

    /// Number of valence electrons treated explicitly by the pseudopotential
    /// model (the paper's 50.3 M-atom SiC run has 4 electrons/atom: we use the
    /// same valence counts so degrees-of-freedom accounting matches).
    pub const fn valence(self) -> u32 {
        match self {
            Element::H => 1,
            Element::Li => 1,
            Element::C => 4,
            Element::O => 6,
            Element::Al => 3,
            Element::Si => 4,
            Element::Cd => 2, // 5s² treated as valence; 4d frozen in core
            Element::Se => 6,
        }
    }

    /// Atomic mass in daltons.
    pub const fn mass_amu(self) -> f64 {
        match self {
            Element::H => 1.008,
            Element::Li => 6.94,
            Element::C => 12.011,
            Element::O => 15.999,
            Element::Al => 26.981_538,
            Element::Si => 28.085,
            Element::Cd => 112.414,
            Element::Se => 78.971,
        }
    }

    /// Atomic mass in electron masses (the MD propagation unit).
    pub fn mass_au(self) -> f64 {
        self.mass_amu() * AMU_EMASS
    }

    /// Covalent radius in Bohr, used by neighbour heuristics and the surface
    /// detector in `mqmd-chem`.
    pub const fn covalent_radius_bohr(self) -> f64 {
        match self {
            Element::H => 0.59,
            Element::Li => 2.42,
            Element::C => 1.44,
            Element::O => 1.25,
            Element::Al => 2.29,
            Element::Si => 2.10,
            Element::Cd => 2.72,
            Element::Se => 2.27,
        }
    }

    /// Two-letter symbol.
    pub const fn symbol(self) -> &'static str {
        match self {
            Element::H => "H",
            Element::Li => "Li",
            Element::C => "C",
            Element::O => "O",
            Element::Al => "Al",
            Element::Si => "Si",
            Element::Cd => "Cd",
            Element::Se => "Se",
        }
    }
}

impl std::fmt::Display for Element {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Converts a temperature in Kelvin to the thermal energy k_B·T in Hartree.
#[inline]
pub fn kelvin_to_hartree(t_kelvin: f64) -> f64 {
    t_kelvin * KB_HARTREE_PER_K
}

/// Converts an energy in eV to Hartree.
#[inline]
pub fn ev_to_hartree(e: f64) -> f64 {
    e / HARTREE_EV
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_round_trips() {
        assert!((ev_to_hartree(0.5 * HARTREE_EV) - 0.5).abs() < 1e-15);
        assert!((AU_TIME_FS * FS_AU_TIME - 1.0).abs() < 1e-15);
    }

    #[test]
    fn room_temperature_energy() {
        // kT at 300 K ≈ 0.95 mHa ≈ 25.9 meV
        let kt = kelvin_to_hartree(300.0);
        assert!((kt * HARTREE_EV - 0.02585).abs() < 1e-4);
    }

    #[test]
    fn element_table_consistency() {
        for e in Element::ALL {
            assert!(e.valence() <= e.atomic_number());
            assert!(e.mass_amu() > 0.0);
            assert!(e.covalent_radius_bohr() > 0.0);
        }
    }

    #[test]
    fn sic_degrees_of_freedom_accounting() {
        // The paper's 50,331,648-atom SiC system has 201,326,592 electrons:
        // exactly 4 valence electrons per atom on average.
        let per_pair = Element::Si.valence() + Element::C.valence();
        assert_eq!(per_pair, 8);
        let atoms: u64 = 50_331_648;
        let electrons = atoms / 2 * per_pair as u64;
        assert_eq!(electrons, 201_326_592);
    }

    #[test]
    fn paper_timestep_in_au() {
        // 0.242 fs ≈ 10.0 a.u. of time — the canonical QMD step.
        let dt_au = PAPER_TIMESTEP_FS * FS_AU_TIME;
        assert!((dt_au - 10.0).abs() < 0.01);
    }
}
