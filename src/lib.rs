//! # metascale-qmd
//!
//! A from-scratch Rust reproduction of the SC14 paper *"Metascalable Quantum
//! Molecular Dynamics Simulations of Hydrogen-on-Demand"* (Nomura et al.,
//! DOI 10.1109/SC.2014.59): the lean divide-and-conquer density functional
//! theory (LDC-DFT) algorithm, its globally-scalable/locally-fast (GSLF)
//! electronic-structure solver, a quantum molecular dynamics driver, a
//! simulated Blue Gene/Q machine model for the at-scale experiments (which
//! models the traffic of the hierarchical band-space-domain decomposition),
//! and the hydrogen-on-demand science application.
//!
//! This facade crate re-exports the workspace crates under stable paths:
//!
//! * [`util`] — complex numbers, 3-vectors, constants, RNG, fitting;
//! * [`linalg`] — dense BLAS2/BLAS3 kernels, Cholesky, eigensolvers;
//! * [`fft`] — mixed-radix / Bluestein FFTs, 3-D transforms;
//! * [`grid`] — real-space grids, DC domain geometry, partition of unity;
//! * [`multigrid`] — geometric multigrid Poisson solver;
//! * [`dft`] — plane-wave Kohn–Sham DFT substrate;
//! * [`core`] — LDC-DFT itself (the paper's contribution) and the QMD driver;
//! * [`md`] — molecular dynamics engine and trajectory I/O;
//! * [`parallel`] — Blue Gene/Q machine model and scaling predictors;
//! * [`chem`] — LiAl/water hydrogen-on-demand application;
//! * [`serve`] — multi-tenant job runtime: admission control, deadlines,
//!   retry/backoff, checkpoint-backed preemption, supervised workers.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every reproduced table and figure.

pub use mqmd_chem as chem;
pub use mqmd_core as core;
pub use mqmd_dft as dft;
pub use mqmd_fft as fft;
pub use mqmd_grid as grid;
pub use mqmd_linalg as linalg;
pub use mqmd_md as md;
pub use mqmd_multigrid as multigrid;
pub use mqmd_parallel as parallel;
pub use mqmd_serve as serve;
pub use mqmd_util as util;
