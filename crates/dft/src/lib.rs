//! # mqmd-dft
//!
//! A from-scratch plane-wave Kohn–Sham density functional theory substrate:
//! the in-domain solver of the SC14 paper's GSLF scheme (§3.2). Its one SCF
//! loop is `mqmd_core::global::LdcSolver`, which with a single domain is the
//! paper's "conventional O(N³) DFT" reference (§5.5).
//!
//! The implementation follows the structure of production plane-wave codes
//! (Payne et al., Rev. Mod. Phys. 64, 1045 — the paper's ref [2]) with a
//! deliberately simplified pseudopotential parametrisation (documented in
//! DESIGN.md): error-function-smeared local Coulomb potentials plus a
//! Kleinman–Bylander-style separable nonlocal s-channel applied through the
//! paper's Eq. (5) `B·D·B†·Ψ` BLAS3 form.
//!
//! * [`species`] — per-element pseudopotential parameters and form factors;
//! * [`pw`] — plane-wave basis over a periodic grid, real↔reciprocal maps;
//! * [`xc`] — LDA exchange-correlation (Slater X + Perdew–Zunger C);
//! * [`ewald`] — point-ion Ewald sums (energy and forces);
//! * [`hamiltonian`] — Kohn–Sham Hamiltonian application, BLAS2 and BLAS3
//!   paths (§3.4);
//! * [`eigensolver`] — preconditioned block-Davidson (all-band) and
//!   band-by-band CG eigensolvers;
//! * [`density`] — density construction and Fermi occupations with
//!   Newton–Raphson chemical potential (Fig 2, Eq. (c));
//! * [`scf`] — the SCF starting density (superposed atomic Gaussians);
//! * [`forces`] — Hellmann–Feynman + Ewald ionic forces;
//! * [`solver`] — the grid covering a cell and the `(pseudopotential,
//!   position)` pairs of an `mqmd_md::AtomicSystem`.

pub mod density;
pub mod eigensolver;
pub mod ewald;
pub mod forces;
pub mod hamiltonian;
pub mod pw;
pub mod scf;
pub mod solver;
pub mod species;
pub mod xc;

pub use pw::PlaneWaveBasis;
pub use species::Pseudopotential;
