//! # mqmd-parallel
//!
//! A simulated massively parallel machine standing in for the paper's
//! 786,432-core IBM Blue Gene/Q (Mira) — the substitution DESIGN.md
//! documents for the hardware gate of this reproduction.
//!
//! The model is deliberately *mechanistic* rather than curve-fitted: node
//! and interconnect parameters come from the published Blue Gene/Q
//! specification (§4.1 of the paper and its refs [57, 59]); per-domain
//! kernel times are **measured by running this repository's real Rust
//! domain solver**; and the communication structure priced by the model is
//! exactly the one the LDC-DFT algorithm performs (global density tree
//! reduction, nearest-neighbour buffer exchange, intra-communicator
//! all-to-all of the BSD decomposition). Three calibration constants —
//! per-core issue efficiencies, a load-imbalance width, and a collective
//! overhead slope — are documented where they are defined.
//!
//! * [`machine`] — node/interconnect specifications (BG/Q, Mira racks,
//!   dual-Xeon E5-2665 for the portability table);
//! * [`collectives`] — point-to-point/tree/butterfly communication costs;
//! * [`threads`] — the per-core dual-issue/SMT-4/bandwidth throughput model
//!   behind Table 1;
//! * [`scaling`] — the weak-scaling (Fig 5), strong-scaling (Fig 6) and
//!   FLOP/s (Table 2) predictors;
//! * [`io`] — the collective-I/O aggregation model of §4.4;
//! * [`comm`] — the transport-agnostic [`Comm`] trait every
//!   backend implements, with the shared deterministic collectives
//!   (binomial allreduce, ring halo exchange, pairwise all-to-all);
//! * [`executor`] — the thread backend: MPI-style rank programs on
//!   threads with metered messages;
//! * [`wire`] — the length-prefixed frame codec of the real transport;
//! * [`process`] — the multi-process backend: real rank processes
//!   (fork/exec of an `mqmd-rank` worker) over loopback TCP;
//! * [`twin`] — the cost model retained as a digital twin that replays
//!   executed traffic and predicts what it should have cost;
//! * [`measured`] — kernel timings read back from `BENCH_profile.json`
//!   (written by the `repro_profile` binary) so the scaling models consume
//!   measured domain-solve times instead of hand-entered constants.

pub mod collectives;
pub mod comm;
pub mod executor;
pub mod io;
pub mod machine;
pub mod measured;
pub mod process;
pub mod scaling;
pub mod threads;
pub mod twin;
pub mod wire;

pub use comm::{Comm, CommError, CommResult};
pub use machine::MachineSpec;
pub use scaling::{StrongScalingModel, WeakScalingModel};
