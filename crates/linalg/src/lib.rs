//! # mqmd-linalg
//!
//! Dense linear algebra substrate for the LDC-DFT code, written from scratch.
//!
//! The SC14 paper's floating-point performance rests on an *algebraic
//! transformation of computations* (§3.4): band-by-band conjugate-gradient
//! updates expressed as matrix–vector products (BLAS2, `gemv`) are rewritten
//! as all-band matrix–matrix products (BLAS3, `gemm`), and the ultrasoft
//! nonlocal pseudopotential application is packed into the
//! `B·D·Bᵀ·Ψ` form of Eq. (5). This crate supplies both code paths so the
//! ablation benchmarks can measure the BLAS2→BLAS3 speedup on our own
//! kernels:
//!
//! * [`matrix::Matrix`] / [`cmatrix::CMatrix`] — row-major real/complex
//!   dense matrices;
//! * [`gemm`] — blocked, rayon-parallel GEMM and GEMV reference paths;
//! * [`cholesky`] — real and complex (Hermitian) Cholesky, used for the
//!   overlap-matrix orthonormalisation of the Kohn–Sham bands (§3.3);
//! * [`eigen`] — cyclic-Jacobi symmetric/Hermitian eigensolvers for subspace
//!   (Rayleigh–Ritz) diagonalisation;
//! * [`orthonorm`] — Cholesky-based and modified-Gram–Schmidt band
//!   orthonormalisation;
//! * [`triangular`] — the lower-triangular inverse `L⁻¹`.
//!
//! All kernels report analytic FLOP counts through
//! [`mqmd_util::flops::count_flops`] so the Blue Gene/Q machine model can
//! translate them into the paper's GFLOP/s tables.

pub mod cholesky;
pub mod cmatrix;
pub mod eigen;
pub mod gemm;
pub mod matrix;
pub mod orthonorm;
pub mod triangular;

pub use cmatrix::CMatrix;
pub use matrix::Matrix;
