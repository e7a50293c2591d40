//! # mqmd-util
//!
//! Shared foundation for the metascale-qmd workspace: complex arithmetic,
//! 3-vectors, physical constants in Hartree atomic units, a deterministic
//! xoshiro256++ RNG, least-squares fitting (including the Arrhenius fits used
//! by the hydrogen-on-demand analysis), running statistics, FLOP accounting,
//! run telemetry (structured events, latency histograms, Chrome-trace
//! export, the measured profile), the deterministic fault-injection plane
//! behind the chaos campaigns, the reusable scratch-buffer arena behind
//! the allocation-free SCF hot path, and the workspace error type.
//!
//! Everything in this crate is dependency-free numerical plumbing; the
//! physics lives in the higher crates.

pub mod cancel;
pub mod chrometrace;
pub mod complex;
pub mod constants;
pub mod error;
pub mod events;
pub mod faults;
pub mod fit;
pub mod flops;
pub mod hist;
pub mod metrics;
pub mod rng;
pub mod simd;
pub mod stats;
pub mod timer;
pub mod trace;
pub mod vec3;
pub mod workspace;

pub use complex::Complex64;
pub use error::{MqmdError, Result};
pub use rng::Xoshiro256pp;
pub use vec3::Vec3;
