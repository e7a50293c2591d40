//! # mqmd-core — lean divide-and-conquer DFT
//!
//! The SC14 paper's primary contribution: the **LDC-DFT** algorithm that
//! cuts the prefactor of O(N) divide-and-conquer density functional theory,
//! its **globally-scalable / locally-fast (GSLF)** solver coupling, the
//! **hierarchical band-space-domain (BSD)** decomposition plan, and the
//! quantum-molecular-dynamics driver built on them.
//!
//! The algorithm (paper Figs 1–2):
//!
//! 1. the periodic cell Ω is tiled by cores Ω₀α padded with buffers Γα into
//!    overlapping domains Ωα (`mqmd-grid`);
//! 2. each domain solves its own Kohn–Sham problem with **periodic boundary
//!    conditions on the domain box** and, in LDC mode, the
//!    **density-adaptive boundary potential** `v^bc_α = (ρα − ρ)/ξ`
//!    (Eqs. 2–3) added to the Hamiltonian ([`domain_solver`]);
//! 3. a **global chemical potential** μ is found from
//!    `N = Σ_α Σ_n f(ε^α_n; μ)·w^α_n` with core weights
//!    `w^α_n = ∫ pα·|ψ^α_n|²` (Fig 2, Eq. (c)) ([`global`]);
//! 4. the global density is assembled through the partition of unity,
//!    `ρ = Σ_α pα·ρα` (Eq. (b)), its Hartree potential is solved by the
//!    **global multigrid** (`mqmd-multigrid` — the scalable half of GSLF),
//!    and the loop repeats to self-consistency.
//!
//! That loop exists once, written over the `mqmd-parallel` `Comm` trait
//! ([`LdcSolver::solve_on`]): one rank or many, threads or processes, run
//! the same lines. [`LdcSolver::solve`] is its single-rank case and
//! [`distributed::solve_distributed`] its cold one-shot form.
//!
//! [`transfer`] plans the two grid transfers of that loop — sampling global
//! fields onto domain grids, and `ρ = Σ_α pα·ρα` back — once per geometry:
//! per-axis interpolation taps and the partition of unity in CSR form, kept
//! in the solver across SCF iterations, MD steps and pooled jobs.
//!
//! [`complexity`] implements the §3.1 cost model: `T(l) = (L/l)³(l+2b)^{3ν}`,
//! the optimal domain size `l* = 2b/(ν−1)`, and the O(N)↔O(N³) crossover
//! analysis of §5.2.
//!
//! [`qmd`] is the production driver: velocity Verlet + thermostat over LDC
//! forces, with the atom·iteration/s accounting used by the paper's §2
//! time-to-solution comparison.

pub mod complexity;
pub mod distributed;
pub mod domain_solver;
pub mod global;
pub mod qmd;
pub mod transfer;

pub use complexity::{crossover_length, optimal_core_length, CostModel};
pub use global::{BoundaryMode, LdcConfig, LdcSolver, LdcState};
pub use qmd::{QmdDriver, QmdReport};
