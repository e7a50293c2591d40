//! # mqmd-chem — hydrogen-on-demand science application
//!
//! The paper's §6 production science: LiₙAlₙ alloy nanoparticles immersed in
//! water produce H₂ orders of magnitude faster than pure aluminium, because
//! adjacent **Lewis acid–base pairs** (surface Li/Al neighbours) dissociate
//! water with a very small activation energy (0.068 eV, Fig 9a), dissolved
//! Li raises the pH and suppresses the passivating oxide layer, and
//! bridging Li–O–Al oxygens act autocatalytically.
//!
//! Full reactive DFT over 21,140 QMD steps is the hardware-gated part of
//! the paper (repro band 2/5); per DESIGN.md the chemistry is reproduced by
//! a **reactive surface-kinetics surrogate**: the same nanoparticle/water
//! geometries, real surface-site detection on those geometries, and a
//! Gillespie kinetic-Monte-Carlo engine over the reaction channels the
//! paper identifies, with the paper's activation energies. Fig 9a/9b are
//! statements about event statistics vs temperature and particle size, which
//! this surrogate reproduces while exercising the same analysis pipeline
//! (rate extraction, Arrhenius fits, N_surf normalisation). The
//! `tests/verification.rs` integration test ties the surrogate back to the
//! real LDC-DFT solver, divided and undivided, on a tiny system (§5.5
//! analogue).
//!
//! * [`nanoparticle`] — LiₙAlₙ cluster and water-box builders;
//! * [`surface`] — coordination-based surface and Lewis-pair detection;
//! * [`kinetics`] — reaction channels and the Gillespie kMC engine;
//! * [`analysis`] — rate estimation, Arrhenius fits, pH proxy.

pub mod analysis;
pub mod kinetics;
pub mod nanoparticle;
pub mod surface;

pub use kinetics::{HodParams, HodSimulation};
pub use nanoparticle::{lial_nanoparticle, solvated_particle, water_box};
