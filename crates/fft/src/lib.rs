//! # mqmd-fft
//!
//! Fast Fourier transforms written from scratch for the plane-wave
//! electronic-structure solver — the "locally fast" half of the paper's
//! globally-scalable / locally-fast (GSLF) scheme (§3.2). The original code
//! replaced FFTW with the SIMD-friendly Spiral library on Blue Gene/Q
//! (§4.2); our stand-in is a self-sorting Stockham radix-2 kernel (no
//! bit-reversal pass, fully sequential memory access) over a panel of
//! signals side by side, with a Bluestein wrapper for arbitrary lengths,
//! and a 3-D transform that applies it to the lines of one field or of a
//! `[grid point][band]` panel of fields, pruned to the lines a plane-wave
//! sphere needs — the butterfly network of the paper's Fig 3, all bands at
//! once.
//!
//! * [`fft1d::Fft1d`] — planned 1-D complex transform of a panel of lanes;
//! * [`fft3d::Fft3d`] — planned 3-D complex transform over flattened
//!   `(nx, ny, nz)` arrays, one field or a batch, with [`fft3d::Pruning`];
//! * [`freq`] — reciprocal-lattice frequency bookkeeping shared with
//!   `mqmd-dft`.

pub mod fft1d;
pub mod fft3d;
pub mod freq;

pub use fft1d::{Direction, Fft1d};
pub use fft3d::{Fft3d, Pruning};
