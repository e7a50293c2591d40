//! The global LDC-DFT self-consistent-field loop (paper Fig 2) — the one
//! loop of this crate, written over the transport-agnostic [`Comm`] trait:
//! [`LdcSolver::solve_on`] runs it on whatever communicator it is handed,
//! and [`LdcSolver::solve`] is the same call over [`SingleRank`].
//!
//! Each SCF iteration:
//!
//! 1. the Hartree potential of the current global density is solved on the
//!    **global real-space grid by multigrid** (the scalable half of GSLF,
//!    §3.2) and combined with the LDA XC potential — replicated on every
//!    rank;
//! 2. every rank solves the Kohn–Sham problems of the domains it owns
//!    (`setup index % size == rank`) **in parallel** over its threads
//!    (rayon — the shared-memory level of the paper's domain-level task
//!    decomposition, §3.3) with the globally informed potential sampled
//!    onto the domain grid, plus — in LDC mode — the density-adaptive
//!    boundary potential `v^bc_α = (ρ_α − ρ)/ξ` of Eqs. (2)–(3);
//! 3. one **global chemical potential** is found from the core-weighted
//!    electron count `N = Σ_α Σ_n f(ε^α_n; μ)·w^α_n` (Eq. (c)): the
//!    weighted spectrum is gathered and reassembled in domain order
//!    (`exchange_spectra`), so the Newton–Raphson μ iteration sums the
//!    same levels in the same order everywhere and μ is
//!    bitwise-replicated;
//! 4. the global density is reassembled through the partition of unity
//!    `ρ = Σ_α pα·ρα` (Eq. (b)): each rank's partial field and its three
//!    energy partials go through `allreduce_sum`; clamping (`max(0)`), the
//!    ∫ρ = N rescale and the mixing happen after the reduction,
//!    replicated.
//!
//! After convergence the BSD buffer exchange runs as a `halo_exchange` of
//! boundary strips of the converged density — ρ is replicated, so each
//! strip received must equal the strip the rank itself holds, which makes
//! the exchange an end-to-end transport-integrity probe — and the forces
//! close the solve: local + Ewald replicated, the non-local term of
//! core-owned atoms summed over ranks.
//!
//! Only two global objects couple the domains — the density ρ(r) and the
//! scalar μ — which is precisely the communication-avoiding abstraction the
//! paper credits for its 0.984 weak-scaling efficiency (§5.1). Because the
//! [`Comm`] collectives fold in a fixed tree order and broadcast rank 0's
//! result, a solve is **bitwise identical across ranks and across
//! transports** (in-process threads vs real rank processes), and at one
//! rank every collective is the identity.

use crate::distributed::exchange_spectra;
use crate::domain_solver::{solve_domain_with, DomainBands, DomainSetup};
use crate::transfer::TransferPlan;
use mqmd_dft::density::fermi;
use mqmd_dft::eigensolver::EigWorkspace;
use mqmd_dft::ewald::ewald;
use mqmd_dft::forces::{local_forces, nonlocal_forces};
use mqmd_dft::hamiltonian::ionic_local_potential;
use mqmd_dft::scf::initial_density;
use mqmd_dft::solver::atoms_of;
use mqmd_dft::xc;
use mqmd_grid::UniformGrid3;
use mqmd_linalg::CMatrix;
use mqmd_md::{AtomicSystem, ForceField, ForceResult};
use mqmd_multigrid::{FftPoisson, MgHierarchy, PoissonMultigrid};
use mqmd_parallel::comm::{Comm, CommError, SingleRank};
use mqmd_util::workspace::{self, Workspace};
use mqmd_util::{faults, MqmdError, Result, Vec3};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

/// Number of grid points per boundary strip in the halo integrity probe.
pub(crate) const HALO_PROBE_LEN: usize = 64;

/// Safety cap on SCF recovery fences per solve — a runaway-restart
/// backstop far above any real retry budget.
const MAX_RECOVERY_ROUNDS: usize = 32;

/// Poison-safe lock for the wave-function/workspace caches: a panicking
/// domain solve on a sibling rayon thread must not wedge every later SCF
/// iteration (the caches hold plain data, always valid to reuse).
fn lock_cache<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Treatment of the artificial domain boundary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BoundaryMode {
    /// Plain divide-and-conquer: periodic domain boundary, no correction.
    Periodic,
    /// Lean DC (the paper's contribution): add the linear-response boundary
    /// potential of Eq. (2), `v^bc = ∂v/∂ρ·(ρα − ρ)` with the local
    /// approximation `∂v/∂ρ ≈ −1/ξ` — the inverse density response is
    /// negative definite (raising the potential somewhere *lowers* the
    /// density there), so a density deficit gets an attractive correction.
    /// ξ = 0.333 a.u. is the paper's fitted magnitude.
    DensityAdaptive {
        /// Response-parameter magnitude ξ (a.u., positive).
        xi: f64,
    },
}

impl BoundaryMode {
    /// The paper's fitted ξ = 0.333 a.u.
    pub fn ldc_default() -> Self {
        BoundaryMode::DensityAdaptive { xi: 0.333 }
    }
}

/// Which solver computes the global Hartree potential.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HartreeSolver {
    /// Geometric multigrid (the paper's GSLF choice; default).
    Multigrid,
    /// Spectral FFT solver (ablation/verification alternative).
    Fft,
}

/// Parameters of an LDC-DFT calculation.
#[derive(Clone, Copy, Debug)]
pub struct LdcConfig {
    /// Domain lattice (how many cores per axis).
    pub nd: (usize, usize, usize),
    /// Buffer thickness b (Bohr).
    pub buffer: f64,
    /// Boundary treatment (DC vs LDC).
    pub mode: BoundaryMode,
    /// Global Hartree solver.
    pub hartree: HartreeSolver,
    /// Global-grid target spacing (Bohr).
    pub global_spacing: f64,
    /// Domain-grid target spacing (Bohr).
    pub domain_spacing: f64,
    /// Plane-wave cutoff of the domain solver (Hartree).
    pub ecut: f64,
    /// Electronic temperature k_B·T (Hartree).
    pub kt: f64,
    /// Linear density-mixing fraction.
    pub mix_alpha: f64,
    /// Maximum SCF iterations.
    pub max_scf: usize,
    /// Density-residual tolerance `∫|Δρ|/N_e`.
    pub tol_density: f64,
    /// Davidson iterations per domain per SCF step.
    pub davidson_iters: usize,
    /// Davidson residual tolerance.
    pub davidson_tol: f64,
    /// Extra bands per domain beyond `⌈n_electrons-in-box/2⌉`.
    pub extra_bands: usize,
}

impl Default for LdcConfig {
    fn default() -> Self {
        Self {
            nd: (2, 2, 2),
            buffer: 2.0,
            mode: BoundaryMode::ldc_default(),
            hartree: HartreeSolver::Multigrid,
            global_spacing: 0.9,
            domain_spacing: 0.9,
            ecut: 3.0,
            kt: 0.01,
            mix_alpha: 0.4,
            max_scf: 60,
            tol_density: 1e-5,
            davidson_iters: 12,
            davidson_tol: 1e-7,
            extra_bands: 4,
        }
    }
}

/// Energy components of an LDC solve (Hartree).
#[derive(Clone, Copy, Debug, Default)]
pub struct LdcBreakdown {
    /// Partition-weighted band energy Σ f·⟨pα·H⟩.
    pub band: f64,
    /// Double-counting integral ∫ρ·V_H (input potential).
    pub hartree_dc: f64,
    /// Double-counting integral ∫ρ·v_xc.
    pub vxc_rho: f64,
    /// Boundary-potential double counting.
    pub bc_dc: f64,
    /// Hartree energy ½∫ρ·V_H\[ρ\].
    pub e_h: f64,
    /// XC energy.
    pub e_xc: f64,
    /// Ion–ion Ewald energy.
    pub ewald: f64,
    /// Electronic entropy −TS.
    pub entropy: f64,
}

/// Converged LDC-DFT state of one ionic configuration. Every field but
/// `owned_domains` is bitwise-identical on every rank of the solve.
pub struct LdcState {
    /// Total free energy (Hartree).
    pub energy: f64,
    /// Chemical potential μ.
    pub mu: f64,
    /// Forces on all ions.
    pub forces: Vec<Vec3>,
    /// Global density on the global grid.
    pub density: Vec<f64>,
    /// SCF iterations used.
    pub scf_iterations: usize,
    /// Number of non-empty domains, over all ranks.
    pub n_domains: usize,
    /// Domains solved by this rank.
    pub owned_domains: usize,
    /// Final density residual.
    pub density_residual: f64,
    /// Concatenated (eigenvalue, core-weight) spectrum of all domains, in
    /// domain order.
    pub spectrum: Vec<(f64, f64)>,
    /// Energy components.
    pub breakdown: LdcBreakdown,
    /// Points per boundary strip verified by the halo integrity probe.
    pub halo_probe_len: usize,
}

/// What one SCF iteration leaves behind; the last one is the solve's result.
struct ScfOutcome {
    energy: f64,
    mu: f64,
    density: Vec<f64>,
    residual: f64,
    spectrum: Vec<(f64, f64)>,
    iterations: usize,
    breakdown: LdcBreakdown,
}

/// One owned domain's solve in one SCF iteration.
struct DomainSolve<'a> {
    /// Setup index: the domain's place in the global spectrum.
    idx: usize,
    setup: &'a DomainSetup,
    bands: DomainBands,
    /// The boundary potential the Hamiltonian used (`None`: plain DC, or
    /// no lagged ρα yet).
    v_bc: Option<Vec<f64>>,
}

/// The LDC-DFT solver with per-domain wave-function caching across calls.
pub struct LdcSolver {
    /// Configuration (public: benches sweep `buffer`/`mode` in place).
    pub config: LdcConfig,
    psi_cache: HashMap<usize, CMatrix>,
    /// Per-domain eigensolver workspaces, persisted across SCF iterations
    /// and MD steps so steady-state domain solves run allocation-free.
    /// Behind a lock because the rayon domain loop checks them out and
    /// back in; like the two fields below they never leave the solver, so
    /// no exit path of a solve can lose them.
    eig_cache: Mutex<HashMap<usize, EigWorkspace>>,
    /// Everything a solve derives from the cell and the configuration
    /// alone — domain geometries, the global↔domain transfer tables, the
    /// global Hartree solver — built at the first solve and kept until its
    /// key changes. Scratch: survives [`Self::reset_job_state`], is never
    /// exported, and a checkpoint restore rebuilds it lazily.
    plan: Option<SolvePlan>,
    /// Arena for global-grid FFT scratch (spectral Hartree path),
    /// persisted across MD steps.
    gws: Workspace,
    /// Cumulative SCF iterations across all `solve` calls.
    pub total_scf_iterations: usize,
}

/// What a [`SolvePlan`] is a function of: the cell and the configuration
/// fields that shape grids, domains and the Hartree solver. `config` is a
/// public field that callers edit in place, so every solve compares its key
/// with the plan's.
#[derive(Clone, Copy, Debug, PartialEq)]
struct PlanKey {
    cell: Vec3,
    nd: (usize, usize, usize),
    buffer: f64,
    global_spacing: f64,
    domain_spacing: f64,
    ecut: f64,
    hartree: HartreeSolver,
}

impl PlanKey {
    fn of(cell: Vec3, cfg: &LdcConfig) -> Self {
        Self {
            cell,
            nd: cfg.nd,
            buffer: cfg.buffer,
            global_spacing: cfg.global_spacing,
            domain_spacing: cfg.domain_spacing,
            ecut: cfg.ecut,
            hartree: cfg.hartree,
        }
    }
}

/// The position-independent set-up of a solve, kept across solves.
struct SolvePlan {
    key: PlanKey,
    transfer: TransferPlan,
    hartree: HartreePlan,
}

impl SolvePlan {
    fn new(key: PlanKey) -> Self {
        let transfer = TransferPlan::new(
            key.cell,
            key.nd,
            key.buffer,
            key.global_spacing,
            key.domain_spacing,
            key.ecut,
        );
        let hartree = HartreePlan::new(key.hartree, transfer.global_grid());
        Self {
            key,
            transfer,
            hartree,
        }
    }
}

/// The global Hartree solver the configuration selects, planned for one
/// global grid.
enum HartreePlan {
    /// The solver with its V-cycle scratch, reused by every SCF iteration's
    /// two Hartree calls.
    Multigrid(PoissonMultigrid, MgHierarchy),
    Fft(Box<FftPoisson>),
}

impl HartreePlan {
    fn new(kind: HartreeSolver, global_grid: &UniformGrid3) -> Self {
        match kind {
            HartreeSolver::Multigrid => {
                let mg = PoissonMultigrid::with_defaults(global_grid.clone());
                let hier = mg.plan();
                Self::Multigrid(mg, hier)
            }
            HartreeSolver::Fft => Self::Fft(Box::new(FftPoisson::new(global_grid.clone()))),
        }
    }

    /// Writes the Hartree potential of `rho` into `v`; the spectral solver
    /// borrows its FFT field from `ws`.
    fn solve(&mut self, rho: &[f64], v: &mut [f64], ws: &Workspace) -> Result<()> {
        match self {
            Self::Multigrid(mg, hier) => {
                mg.hartree_with(rho, v, hier)?;
            }
            Self::Fft(fft) => fft.hartree_into(rho, v, ws),
        }
        Ok(())
    }
}

/// Finds μ with `Σ_i f(ε_i; μ)·w_i = n_electrons` over core-weighted levels.
fn weighted_mu(levels: &[(f64, f64)], n_electrons: f64, kt: f64) -> f64 {
    assert!(kt > 0.0, "the global μ search assumes finite smearing");
    let capacity: f64 = levels.iter().map(|&(_, w)| 2.0 * w).sum();
    if capacity < n_electrons - 1e-9 {
        // Early-SCF band sets can be slightly weight-deficient (the core
        // weights of unconverged high bands are unpredictable). Fill every
        // band; the density assembly rescales ∫ρ = N, and the deficit
        // shrinks as the bands converge.
        let e_max = levels
            .iter()
            .map(|&(e, _)| e)
            .fold(f64::NEG_INFINITY, f64::max);
        return e_max + 20.0 * kt;
    }
    let count = |mu: f64| -> f64 { levels.iter().map(|&(e, w)| w * fermi(e, mu, kt)).sum() };
    let mut lo = levels.iter().map(|&(e, _)| e).fold(f64::INFINITY, f64::min) - 20.0 * kt - 1.0;
    let mut hi = levels
        .iter()
        .map(|&(e, _)| e)
        .fold(f64::NEG_INFINITY, f64::max)
        + 20.0 * kt
        + 1.0;
    let mut mu = 0.5 * (lo + hi);
    for _ in 0..200 {
        let err = count(mu) - n_electrons;
        if err.abs() < 1e-12 {
            break;
        }
        if err > 0.0 {
            hi = mu;
        } else {
            lo = mu;
        }
        // Newton step with bisection safeguard (the paper's Newton–Raphson).
        let dn: f64 = levels
            .iter()
            .map(|&(e, w)| {
                let f = fermi(e, mu, kt);
                w * f * (2.0 - f) / (2.0 * kt)
            })
            .sum();
        if dn > 1e-14 {
            let newton = mu - err / dn;
            if newton > lo && newton < hi {
                mu = newton;
                continue;
            }
        }
        mu = 0.5 * (lo + hi);
    }
    mu
}

impl LdcSolver {
    /// Creates a solver.
    pub fn new(config: LdcConfig) -> Self {
        Self {
            config,
            psi_cache: HashMap::new(),
            eig_cache: Mutex::default(),
            plan: None,
            gws: Workspace::new(),
            total_scf_iterations: 0,
        }
    }

    /// Drops per-*job* state (warm-start bands and the SCF counter) while
    /// keeping geometry-keyed *plan* scratch — eigensolver
    /// workspaces, the solve plan (domain geometries, transfer tables,
    /// Hartree solver), the Hartree arena. The service
    /// runtime calls this when handing a pooled solver to a new job with
    /// the same grid shape: pooled scratch is bitwise-inert (pinned by the
    /// PR 3 identity tests), so the next job's trajectory is independent
    /// of pool history while still sharing plans.
    pub fn reset_job_state(&mut self) {
        self.psi_cache.clear();
        self.total_scf_iterations = 0;
    }

    /// Serialises the solver's restartable state (warm-start wave functions
    /// per domain and the cumulative SCF count) for a
    /// [`mqmd_md::io::Checkpoint`]'s opaque solver payload: the bands
    /// alone, since every solve restarts its densities. Domains are
    /// written in id order so equal states produce equal bytes.
    pub fn export_state(&self) -> Vec<u8> {
        use bytes::{BufMut, BytesMut};
        let mut buf = BytesMut::new();
        mqmd_md::io::write_varint(&mut buf, self.total_scf_iterations as u64);
        let mut psi_ids: Vec<usize> = self.psi_cache.keys().copied().collect();
        psi_ids.sort_unstable();
        mqmd_md::io::write_varint(&mut buf, psi_ids.len() as u64);
        for id in psi_ids {
            let m = &self.psi_cache[&id];
            mqmd_md::io::write_varint(&mut buf, id as u64);
            mqmd_md::io::write_varint(&mut buf, m.rows() as u64);
            mqmd_md::io::write_varint(&mut buf, m.cols() as u64);
            for z in m.data() {
                buf.put_f64(z.re);
                buf.put_f64(z.im);
            }
        }
        buf.freeze().to_vec()
    }

    /// Restores state captured by [`LdcSolver::export_state`]. Eigensolver
    /// workspaces and the solve plan are scratch and rebuilt lazily. Never
    /// panics: a band block that overflows or runs past the payload, and
    /// bytes after the last block, are [`MqmdError::Io`] and leave the
    /// solver as it was.
    pub fn import_state(&mut self, data: &[u8]) -> Result<()> {
        use bytes::{Buf, Bytes};
        use mqmd_md::io::read_varint;
        let mut buf = Bytes::from(data.to_vec());
        let total_scf_iterations = read_varint(&mut buf)? as usize;
        let mut psi_cache = HashMap::new();
        let n_psi = read_varint(&mut buf)? as usize;
        for _ in 0..n_psi {
            let id = read_varint(&mut buf)? as usize;
            let rows = read_varint(&mut buf)? as usize;
            let cols = read_varint(&mut buf)? as usize;
            let n = rows
                .checked_mul(cols)
                .filter(|&n| n.checked_mul(16).is_some_and(|len| buf.len() >= len))
                .ok_or_else(|| MqmdError::Io("truncated solver state (psi)".into()))?;
            let data = (0..n)
                .map(|_| mqmd_util::Complex64::new(buf.get_f64(), buf.get_f64()))
                .collect();
            psi_cache.insert(id, CMatrix::from_vec(rows, cols, data));
        }
        if buf.has_remaining() {
            return Err(MqmdError::Io(format!(
                "{} trailing bytes after the solver state",
                buf.remaining()
            )));
        }
        self.total_scf_iterations = total_scf_iterations;
        self.psi_cache = psi_cache;
        Ok(())
    }

    /// Solves the electronic structure of `system` on this process alone:
    /// [`LdcSolver::solve_on`] over the single-rank communicator.
    pub fn solve(&mut self, system: &AtomicSystem) -> Result<LdcState> {
        self.solve_on(system, &SingleRank::default())
    }

    /// Solves the electronic structure of `system` with LDC-DFT, the domain
    /// solves striped over the ranks of `comm` (`setup index % size`). Every
    /// rank must call this with the same `system` and configuration; every
    /// field of the result except `owned_domains` is bitwise-replicated.
    ///
    /// **Warm starts.** Bands, eigensolver workspaces, the solve plan and
    /// the Hartree arena persist in the solver from one call to the next;
    /// the plan is rebuilt when the cell or a configuration field it was
    /// built from has changed since. An aborted solve (cancelled, domain
    /// abort, transport failure) drops the bands — some were consumed
    /// mid-iteration — and keeps the scratch, which never leaves the
    /// solver.
    ///
    /// **Rank rebirth.** On transports with a recovery supervisor, a peer
    /// death surfaces at the next collective as a typed
    /// [`CommError::PeerRestarted`] / [`CommError::PeerQuarantined`]. Every
    /// collective call site here is a recovery barrier: it fences the
    /// communicator forward ([`Comm::recovery_fence`]), re-derives the
    /// domain strip from the (possibly shrunk) `rank()`/`size()`, drops
    /// the bands and replays the SCF cold from ρ₀. The replay is a
    /// deterministic function of `(rank, size, system, config)`, so a
    /// healed cold solve is bitwise-identical to a fault-free one at the
    /// same communicator shape.
    pub fn solve_on(&mut self, system: &AtomicSystem, comm: &dyn Comm) -> Result<LdcState> {
        let cfg = self.config;
        let key = PlanKey::of(system.cell, &cfg);
        match &self.plan {
            Some(plan) if plan.key == key => workspace::record_reuse(),
            _ => self.plan = Some(SolvePlan::new(key)),
        }
        let plan = self.plan.as_mut().expect("planned just above");
        let (transfer, hartree) = (&plan.transfer, &mut plan.hartree);
        let global_grid = transfer.global_grid();
        let n_electrons = system.valence_electrons() as f64;
        let atoms_global = atoms_of(system);

        // Global ionic potential (Eq. 3's V_ion), evaluated once and sampled
        // onto each domain grid during setup.
        let v_ion_global = ionic_local_potential(global_grid, &atoms_global);

        // Position-dependent half of the geometry phase, replicated: every
        // rank places the atoms in every domain so the setups agree
        // bitwise; only the *solves* are striped. (Setups are cheap next to
        // Davidson.)
        let setups: Vec<DomainSetup> = transfer
            .domains()
            .par_iter()
            .filter_map(|geometry| {
                DomainSetup::on(geometry, system, cfg.extra_bands, &v_ion_global)
            })
            .collect();
        if setups.is_empty() {
            return Err(MqmdError::Invalid("no atoms in any domain".into()));
        }

        let gws = &self.gws;
        let mut hartree = |rho: &[f64], v: &mut [f64]| hartree.solve(rho, v, gws);

        let ion_positions: Vec<Vec3> = atoms_global.iter().map(|(_, r)| *r).collect();
        let ion_charges: Vec<f64> = atoms_global.iter().map(|(p, _)| p.z_val).collect();
        let ew = ewald(
            global_grid.lengths_vec(),
            &ion_positions,
            &ion_charges,
            None,
        );

        let rho0 = initial_density(global_grid, &atoms_global, n_electrons);
        // Warm-start bands leave the solver for the duration of the solve
        // and return when it finishes; an aborted solve drops them.
        let psi_cache = Mutex::new(std::mem::take(&mut self.psi_cache));
        let eig_cache = &self.eig_cache;

        // What a domain without a boundary potential is handed as `v_bc`.
        let zeros = vec![0.0; setups.iter().map(|s| s.grid.len()).max().unwrap_or(0)];

        // Global-grid potential fields, allocated once and rewritten in
        // place each SCF iteration.
        let n_g = global_grid.len();
        let dv = global_grid.dv();
        let mut v_h = vec![0.0; n_g];
        let mut v_xc = vec![0.0; n_g];
        let mut v_hxc = vec![0.0; n_g];
        let mut v_h_out = vec![0.0; n_g];

        // The SCF recovery barrier: each pass derives this rank's domain
        // strip from the current communicator shape and runs the whole
        // trajectory from the replicated initial density. A
        // PeerRestarted/PeerQuarantined at any collective fences and jumps
        // back here; everything else propagates typed.
        let mut recovery_rounds = 0usize;
        'solve: loop {
            let (rank, size) = (comm.rank(), comm.size());
            let owned: Vec<(usize, &DomainSetup)> = setups
                .iter()
                .enumerate()
                .filter(|(idx, _)| idx % size == rank)
                .collect();

            macro_rules! fence {
                ($call:expr) => {
                    match $call {
                        Ok(v) => v,
                        Err(
                            e @ (CommError::PeerRestarted { .. }
                            | CommError::PeerQuarantined { .. }),
                        ) => {
                            comm.recovery_fence()?;
                            recovery_rounds += 1;
                            if recovery_rounds > MAX_RECOVERY_ROUNDS {
                                return Err(MqmdError::Io(format!(
                                    "SCF recovery rounds exhausted after {recovery_rounds}: {e}"
                                )));
                            }
                            faults::record_recovery(
                                "scf_epoch_fence",
                                faults::Site::Rank(rank as u64).describe(),
                                1,
                                0.0,
                            );
                            lock_cache(&psi_cache).clear();
                            continue 'solve;
                        }
                        Err(e) => return Err(e.into()),
                    }
                };
            }

            let mut rho = rho0.clone();
            // Previous-iteration densities of the owned domains, for the
            // LDC boundary potential.
            let mut rho_domains: HashMap<usize, Vec<f64>> = HashMap::new();
            let mut last: Option<ScfOutcome> = None;
            let mut alpha = cfg.mix_alpha;
            let mut prev_residual = f64::INFINITY;
            for iter in 1..=cfg.max_scf {
                let _span = mqmd_util::trace::span("scf_iter");
                // Cooperative cancellation: deadline/shutdown abort between
                // global SCF iterations (one relaxed load when the service
                // plane is idle). Preemption is not honoured here — only at
                // MD step boundaries, so preempted jobs resume bitwise.
                if let Some(reason) = mqmd_util::cancel::poll_abort() {
                    return Err(MqmdError::Cancelled {
                        what: format!("LDC SCF iteration {iter}"),
                        reason,
                    });
                }
                hartree(&rho, &mut v_h)?;
                xc::vxc_field(&rho, &mut v_xc);
                for (o, (a, b)) in v_hxc.iter_mut().zip(v_h.iter().zip(&v_xc)) {
                    *o = a + b;
                }

                // Conquer: solve this rank's domains in parallel.
                let solved: Vec<DomainSolve> = owned
                    .par_iter()
                    .map(|&(idx, setup)| {
                        let id = setup.domain.id;
                        let n_local = setup.grid.len();
                        let mut ew = lock_cache(eig_cache).remove(&id).unwrap_or_default();
                        let v_bc = match (cfg.mode, rho_domains.get(&id)) {
                            (BoundaryMode::DensityAdaptive { xi }, Some(rho_prev)) => {
                                // Eq. (2) with the correction confined to the
                                // buffer: weight by (1 − pα) so the boundary
                                // potential acts where the artificial-BC
                                // density error lives and vanishes deep in
                                // the core (where the lagged Δρ is noise,
                                // not signal).
                                let mut rho_global_local = ew.ws.borrow_f64(n_local);
                                setup.sample_global_field(&rho, &mut rho_global_local);
                                Some(
                                    rho_prev
                                        .iter()
                                        .zip(rho_global_local.iter())
                                        .zip(&setup.p_alpha)
                                        .map(|((a, b), p)| -(1.0 - p) * (a - b) / xi)
                                        .collect::<Vec<f64>>(),
                                )
                            }
                            _ => None,
                        };
                        let psi0 = lock_cache(&psi_cache).remove(&id);
                        let bands = solve_domain_resilient(
                            setup,
                            &v_hxc,
                            v_bc.as_deref().unwrap_or(&zeros[..n_local]),
                            psi0,
                            &cfg,
                            &mut ew,
                        );
                        lock_cache(eig_cache).insert(id, ew);
                        Ok(DomainSolve {
                            idx,
                            setup,
                            bands: bands?,
                            v_bc,
                        })
                    })
                    .collect::<Result<Vec<_>>>()?;

                // Global chemical potential: every rank's (ε, w) levels,
                // reassembled in domain order so the μ search sums the
                // same levels in the same order everywhere.
                let local_spectra: Vec<(usize, Vec<(f64, f64)>)> = solved
                    .iter()
                    .map(|s| {
                        let (e, w) = (&s.bands.eigenvalues, &s.bands.weights);
                        (s.idx, e.iter().copied().zip(w.iter().copied()).collect())
                    })
                    .collect();
                let spectrum = fence!(exchange_spectra(comm, &local_spectra));
                let mu = weighted_mu(&spectrum, n_electrons, cfg.kt);

                // Owned-domain densities with global occupations, and this
                // rank's partials of the three domain-summed energies.
                let mut band_energy = 0.0;
                let mut entropy = 0.0;
                let mut e_bc_dc = 0.0;
                {
                    let mut cache = lock_cache(&psi_cache);
                    for DomainSolve {
                        setup, bands, v_bc, ..
                    } in solved
                    {
                        let mut rho_a = vec![0.0; setup.grid.len()];
                        for (n, dens) in bands.band_densities.iter().enumerate() {
                            let f = fermi(bands.eigenvalues[n], mu, cfg.kt);
                            if f > 1e-14 {
                                for (r, d) in rho_a.iter_mut().zip(dens) {
                                    *r += f * d;
                                }
                            }
                            let w = bands.weights[n];
                            // Yang's DC band energy: the partition-weighted
                            // Hamiltonian expectation, NOT w·ε (pα and H do
                            // not commute; w·ε double-counts buffer
                            // potential).
                            band_energy += f * bands.h_weights[n];
                            let x: f64 = f / 2.0;
                            if x > 1e-12 && x < 1.0 - 1e-12 {
                                entropy +=
                                    2.0 * cfg.kt * w * (x * x.ln() + (1.0 - x) * (1.0 - x).ln());
                            }
                        }
                        // v_bc double-counting correction: ∫ pα·ρα·v_bc with
                        // the same masked, signed v_bc the Hamiltonian used.
                        if let Some(v_bc) = v_bc {
                            e_bc_dc += setup
                                .p_alpha
                                .iter()
                                .zip(&rho_a)
                                .zip(&v_bc)
                                .map(|((p, ra), v)| p * ra * v)
                                .sum::<f64>()
                                * setup.grid.dv();
                        }
                        cache.insert(setup.domain.id, bands.psi);
                        rho_domains.insert(setup.domain.id, rho_a);
                    }
                }
                let sums = fence!(comm.allreduce_sum(vec![band_energy, entropy, e_bc_dc]));
                let (band_energy, entropy, e_bc_dc) = (sums[0], sums[1], sums[2]);

                // Recombine: each rank contributes Σ_{α owned} pα·ρα on the
                // global grid and the allreduce sums across ranks; only
                // then is the field clamped and rescaled to ∫ρ = N
                // (interpolation between the two grids costs a fraction of
                // a percent of charge) — replicated, so the nonlinearity
                // sees the same summed field everywhere. The span also
                // counts the logical communication of the GSLF tree
                // reduction: one upward message per domain carrying its
                // density payload (priced by mqmd-parallel's machine model).
                let gd_span = mqmd_util::trace::span("global_density");
                let comm_bytes: u64 = rho_domains.values().map(|r| 8 * r.len() as u64).sum();
                mqmd_util::trace::add_comm(rho_domains.len() as u64, comm_bytes);
                let mut rho_of = vec![None; transfer.domains().len()];
                for (&id, rho_a) in &rho_domains {
                    rho_of[id] = Some(rho_a.as_slice());
                }
                let mut partial = vec![0.0; n_g];
                transfer.partial_density(&rho_of, &mut partial);
                let mut rho_out = fence!(comm.allreduce_sum(partial));
                for r in &mut rho_out {
                    *r = r.max(0.0);
                }
                let total_charge = global_grid.integrate(&rho_out);
                if total_charge > 0.0 {
                    let s = n_electrons / total_charge;
                    for r in &mut rho_out {
                        *r *= s;
                    }
                }
                drop(gd_span);

                let residual: f64 = rho
                    .iter()
                    .zip(&rho_out)
                    .map(|(a, b)| (a - b).abs())
                    .sum::<f64>()
                    * dv
                    / n_electrons;

                // Total energy with the standard double-counting corrections
                // (direct Σ·dv sums — identical to `integrate` of the product
                // field, without materialising it).
                let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
                let hartree_dc = dot(&rho_out, &v_h) * dv;
                let vxc_rho = dot(&rho_out, &v_xc) * dv;
                hartree(&rho_out, &mut v_h_out)?;
                let e_h = 0.5 * dot(&rho_out, &v_h_out) * dv;
                let e_xc = xc::exc_energy(&rho_out, dv);
                let energy =
                    band_energy - hartree_dc - vxc_rho - e_bc_dc + e_h + e_xc + ew.energy + entropy;

                mqmd_util::events::emit(mqmd_util::events::Event::ScfIteration {
                    iter: iter as u32,
                    residual,
                    e_total: energy,
                    mix: alpha,
                });

                let converged = residual < cfg.tol_density;
                if !converged {
                    // Adaptive linear mixing: back off on charge sloshing,
                    // recover slowly while converging.
                    if residual > prev_residual {
                        alpha = (alpha * 0.6).max(0.05);
                    } else {
                        alpha = (alpha * 1.05).min(cfg.mix_alpha);
                    }
                    prev_residual = residual;
                    for (r_in, r_out) in rho.iter_mut().zip(&rho_out) {
                        *r_in = (1.0 - alpha) * *r_in + alpha * r_out;
                    }
                }
                last = Some(ScfOutcome {
                    energy,
                    mu,
                    density: rho_out,
                    residual,
                    spectrum,
                    iterations: iter,
                    breakdown: LdcBreakdown {
                        band: band_energy,
                        hartree_dc,
                        vxc_rho,
                        bc_dc: e_bc_dc,
                        e_h,
                        e_xc,
                        ewald: ew.energy,
                        entropy,
                    },
                });
                if converged {
                    break;
                }
            }

            let Some(out) = last else {
                return Err(MqmdError::Invalid(
                    "max_scf is 0: no SCF iteration ran".into(),
                ));
            };
            if out.residual >= cfg.tol_density {
                self.psi_cache = std::mem::take(&mut lock_cache(&psi_cache));
                return Err(MqmdError::Convergence {
                    what: "LDC-DFT SCF".into(),
                    iterations: cfg.max_scf,
                    residual: out.residual,
                });
            }

            // BSD buffer exchange as integrity probe: ρ is replicated, so the
            // strip a neighbour sends must equal the strip this rank already
            // holds. Any mismatch means the transport corrupted or misrouted
            // a frame.
            let probe_len = HALO_PROBE_LEN.min(out.density.len());
            let left = &out.density[..probe_len];
            let right = &out.density[out.density.len() - probe_len..];
            let (from_left, from_right) = fence!(comm.halo_exchange(left, right));
            if from_left != right || from_right != left {
                return Err(MqmdError::Io(format!(
                    "halo integrity probe failed on rank {rank}: boundary strips \
                     received over the wire differ from the replicated density"
                )));
            }

            // Forces: local (global density) + Ewald, replicated, plus the
            // non-local term of core-owned atoms, summed from zero over the
            // owned domains and across ranks (each atom has exactly one
            // core-owning domain, so the sum adds zeros to one value).
            let mut forces = local_forces(global_grid, &atoms_global, &out.density);
            for (f, fe) in forces.iter_mut().zip(&ew.forces) {
                *f += *fe;
            }
            let bands = lock_cache(&psi_cache);
            let nl_forces: Vec<Vec<Vec3>> = owned
                .par_iter()
                .map(|&(_, setup)| {
                    let mut nl_a = vec![Vec3::ZERO; system.len()];
                    if let (Some(psi), Some(nl)) = (bands.get(&setup.domain.id), &setup.nonlocal) {
                        let f_local = nonlocal_forces(
                            &setup.basis,
                            setup.atoms.len(),
                            &nl.owner,
                            &nl.b,
                            &nl.d,
                            psi,
                            &core_band_occupations(setup, psi.cols()),
                        );
                        for (local_idx, f) in f_local.into_iter().enumerate() {
                            let (_, _, global_idx) = setup.atoms[local_idx];
                            // Only the core owner contributes this atom's force.
                            if setup.core_atoms[local_idx] {
                                nl_a[global_idx] += f;
                            }
                        }
                    }
                    nl_a
                })
                .collect();
            drop(bands);
            let mut nl = vec![0.0; 3 * system.len()];
            for nl_a in nl_forces {
                for (acc, f) in nl.chunks_exact_mut(3).zip(nl_a) {
                    acc[0] += f.x;
                    acc[1] += f.y;
                    acc[2] += f.z;
                }
            }
            let nl = fence!(comm.allreduce_sum(nl));
            for (f, add) in forces.iter_mut().zip(nl.chunks_exact(3)) {
                *f += Vec3::new(add[0], add[1], add[2]);
            }

            self.psi_cache = std::mem::take(&mut lock_cache(&psi_cache));
            self.total_scf_iterations += out.iterations;
            return Ok(LdcState {
                energy: out.energy,
                mu: out.mu,
                forces,
                density: out.density,
                scf_iterations: out.iterations,
                n_domains: setups.len(),
                owned_domains: owned.len(),
                density_residual: out.residual,
                spectrum: out.spectrum,
                breakdown: out.breakdown,
                halo_probe_len: probe_len,
            });
        }
    }
}

/// One domain Kohn–Sham solve behind the retry ladder, mirroring a
/// failed-rank requeue: a failed solve re-runs from the cached bands (rung
/// 1, if the fault plane kept a copy), then from scratch (rung 2) — both on
/// a fresh workspace, since the failed solve may have left `ew`
/// inconsistent — and every rung is booked on the fault ledger. The first
/// error is returned if no rung rescues the domain. `v_hxc_global` is the
/// global-grid field; each attempt samples it onto the domain grid in a
/// buffer of the workspace it runs on.
fn solve_domain_resilient(
    setup: &DomainSetup,
    v_hxc_global: &[f64],
    v_bc: &[f64],
    psi0: Option<CMatrix>,
    cfg: &LdcConfig,
    ew: &mut EigWorkspace,
) -> Result<DomainBands> {
    // Keep a copy of the warm-start bands for the ladder only while a
    // fault plan is installed — healthy production runs pay nothing for
    // the rescue path.
    let backup = if faults::active() { psi0.clone() } else { None };
    let solve = |start: Option<CMatrix>, ew: &mut EigWorkspace| {
        let mut v_hxc = ew.ws.take_f64(setup.grid.len());
        setup.sample_global_field(v_hxc_global, &mut v_hxc);
        let bands = solve_domain_with(
            setup,
            &v_hxc,
            v_bc,
            start,
            cfg.davidson_iters,
            cfg.davidson_tol,
            ew,
        );
        ew.ws.give_f64(v_hxc);
        bands
    };
    let first_err = match solve(psi0, ew) {
        Ok(bands) => return Ok(bands),
        Err(e) => e,
    };
    let site = faults::Site::Domain(setup.domain.id as u64).describe();
    let cached = backup.map(|psi| ("domain_retry_cached", 1, Some(psi)));
    let scratch = ("domain_retry_scratch", 2, None);
    for (action, rung, start) in cached.into_iter().chain([scratch]) {
        let retry_sw = mqmd_util::timer::Stopwatch::start();
        let mut fresh = EigWorkspace::default();
        if let Ok(bands) = solve(start, &mut fresh) {
            faults::record_recovery(action, site, rung, retry_sw.seconds());
            *ew = fresh;
            return Ok(bands);
        }
    }
    faults::record_abort("domain_abort", site, 2);
    Err(first_err)
}

/// Occupations of a domain's cached bands for the non-local force term: a
/// zero-temperature fill of the lowest `⌈core_electrons/2⌉` of the
/// `n_bands` cached (eigen-ordered) bands with two electrons each.
fn core_band_occupations(setup: &DomainSetup, n_bands: usize) -> Vec<f64> {
    let n_occ = ((setup.core_electrons / 2.0).ceil() as usize).min(n_bands);
    let mut occ = vec![0.0; n_bands];
    occ[..n_occ].fill(2.0);
    occ
}

impl ForceField for LdcSolver {
    fn try_compute(&mut self, system: &AtomicSystem) -> Result<ForceResult> {
        let state = self.solve(system)?;
        Ok(ForceResult {
            energy: state.energy,
            forces: state.forces,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqmd_dft::solver::grid_for_cell;
    use mqmd_parallel::comm::CommResult;
    use mqmd_parallel::executor::run_ranks;
    use mqmd_util::constants::Element;

    fn h2(cell: f64) -> AtomicSystem {
        AtomicSystem::new(
            Vec3::splat(cell),
            vec![Element::H, Element::H],
            vec![Vec3::new(3.3, 4.0, 4.0), Vec3::new(4.7, 4.0, 4.0)],
        )
    }

    fn base_cfg() -> LdcConfig {
        LdcConfig {
            nd: (1, 1, 1),
            buffer: 0.0,
            mode: BoundaryMode::Periodic,
            hartree: HartreeSolver::Fft,
            tol_density: 1e-5,
            ..Default::default()
        }
    }

    /// The cell split across the H–H bond, LDC boundary potential on.
    fn split_cfg() -> LdcConfig {
        LdcConfig {
            nd: (2, 1, 1),
            buffer: 2.0,
            mode: BoundaryMode::ldc_default(),
            ..base_cfg()
        }
    }

    #[test]
    fn weighted_mu_reduces_to_unweighted() {
        let eps = [-0.5, -0.2, 0.1, 0.4];
        let levels: Vec<(f64, f64)> = eps.iter().map(|&e| (e, 1.0)).collect();
        let mu = weighted_mu(&levels, 4.0, 0.01);
        let occ = mqmd_dft::density::fermi_occupations(&eps, 4.0, 0.01);
        assert!((mu - occ.mu).abs() < 1e-9);
    }

    #[test]
    fn weighted_mu_respects_weights() {
        // Halving all weights with half the electrons gives the same μ.
        let levels: Vec<(f64, f64)> = vec![(-0.5, 0.5), (-0.2, 0.5), (0.1, 0.5)];
        let full: Vec<(f64, f64)> = levels.iter().map(|&(e, _)| (e, 1.0)).collect();
        let mu_half = weighted_mu(&levels, 1.5, 0.02);
        let mu_full = weighted_mu(&full, 3.0, 0.02);
        assert!((mu_half - mu_full).abs() < 1e-9);
    }

    #[test]
    fn density_integrates_to_electron_count() {
        // Charge conservation stated over the reduction: however the
        // domains are dealt to ranks (3 ranks: one owns nothing), the
        // clamp and rescale after the allreduce leave ∫ρ = N on every one.
        let sys = h2(8.0);
        let cfg = split_cfg();
        let grid = grid_for_cell(sys.cell, cfg.global_spacing);
        for p in [1, 2, 3] {
            let charges = run_ranks(p, |_, comm| {
                let state = LdcSolver::new(cfg).solve_on(&sys, comm).unwrap();
                grid.integrate(&state.density)
            });
            for (rank, q) in charges.iter().enumerate() {
                assert!((q - 2.0).abs() < 1e-9, "p = {p}, rank {rank}: ∫ρ = {q}");
            }
        }
    }

    #[test]
    fn zero_scf_iterations_is_a_typed_error() {
        let mut ldc = LdcSolver::new(LdcConfig {
            max_scf: 0,
            ..base_cfg()
        });
        assert!(matches!(ldc.solve(&h2(8.0)), Err(MqmdError::Invalid(_))));
    }

    #[test]
    fn forces_replicate_across_ranks_and_track_one_rank() {
        let sys = h2(8.0);
        let cfg = split_cfg();
        let serial = LdcSolver::new(cfg).solve(&sys).unwrap();
        let out = run_ranks(2, |_, comm| {
            LdcSolver::new(cfg).solve_on(&sys, comm).unwrap().forces
        });
        assert_eq!(out[0].len(), sys.len());
        for ((a, b), s) in out[0].iter().zip(&out[1]).zip(&serial.forces) {
            for (ca, cb, cs) in [(a.x, b.x, s.x), (a.y, b.y, s.y), (a.z, b.z, s.z)] {
                assert_eq!(ca.to_bits(), cb.to_bits(), "forces differ between ranks");
                assert!((ca - cs).abs() < 1e-6, "2 ranks {ca} vs 1 rank {cs}");
            }
        }
        assert!(
            serial.forces.iter().any(|f| f.x.abs() > 1e-3),
            "a stretched H₂ must feel a force"
        );
    }

    #[test]
    fn warm_start_reaches_ranks() {
        let sys = h2(8.0);
        let cfg = split_cfg();
        let iters = run_ranks(2, |_, comm| {
            let mut ldc = LdcSolver::new(cfg);
            let first = ldc.solve_on(&sys, comm).unwrap().scf_iterations;
            let second = ldc.solve_on(&sys, comm).unwrap().scf_iterations;
            (first, second, ldc.total_scf_iterations)
        });
        assert_eq!(iters[0], iters[1], "iteration counts are replicated");
        let (first, second, total) = iters[0];
        assert!(second <= first, "warm {second} vs cold {first}");
        assert_eq!(total, first + second);
    }

    /// Energy, μ, density and forces of a solve, as bits.
    fn bits(state: &LdcState) -> Vec<u64> {
        let forces = state.forces.iter().flat_map(|f| f.to_array());
        [state.energy, state.mu]
            .into_iter()
            .chain(state.density.iter().copied())
            .chain(forces)
            .map(f64::to_bits)
            .collect()
    }

    /// Address of the plan's first domain geometry: equal addresses of two
    /// live plans mean one plan.
    fn plan_identity(ldc: &LdcSolver) -> *const crate::transfer::DomainGeometry {
        let plan = ldc.plan.as_ref().expect("a solve has planned");
        std::sync::Arc::as_ptr(&plan.transfer.domains()[0])
    }

    #[test]
    fn plan_follows_the_cell_and_in_place_config_edits() {
        // One solver meets cell 8.0, then 9.6, then has `config.buffer`
        // edited under it: each solve must equal a fresh solver's bitwise
        // (a stale plan would sample with the wrong tables), and the plan
        // must be rebuilt exactly when its key moved.
        let mut pooled = LdcSolver::new(split_cfg());
        let mut cfg = split_cfg();
        let mut last_plan = std::ptr::null();
        for (cell, buffer, replanned) in [
            (8.0, 2.0, true),
            (8.0, 2.0, false),
            (9.6, 2.0, true),
            (9.6, 1.0, true),
        ] {
            let sys = h2(cell);
            cfg.buffer = buffer;
            pooled.config.buffer = buffer;
            pooled.reset_job_state();
            let warm = pooled.solve(&sys).unwrap();
            let fresh = LdcSolver::new(cfg).solve(&sys).unwrap();
            assert_eq!(bits(&warm), bits(&fresh), "cell {cell}, buffer {buffer}");
            let plan = plan_identity(&pooled);
            assert_eq!(plan != last_plan, replanned, "cell {cell}, buffer {buffer}");
            last_plan = plan;
        }
    }

    #[test]
    fn plan_is_scratch_for_jobs_and_checkpoints() {
        let sys = h2(8.0);
        let mut ldc = LdcSolver::new(split_cfg());
        ldc.solve(&sys).unwrap();
        let plan = plan_identity(&ldc);
        let exported = ldc.export_state();

        // A checkpoint carries no plan: a solver restored from one has
        // none until it solves, and exports the same bytes.
        let mut restored = LdcSolver::new(split_cfg());
        restored.import_state(&exported).unwrap();
        assert!(restored.plan.is_none());
        assert_eq!(restored.export_state(), exported);
        // Importing into a planned solver leaves its plan alone.
        ldc.import_state(&exported).unwrap();
        assert_eq!(plan_identity(&ldc), plan);
        assert_eq!(ldc.export_state(), exported);

        // A new job keeps the plan and exports what a new solver exports.
        ldc.reset_job_state();
        assert_eq!(plan_identity(&ldc), plan);
        assert_eq!(
            ldc.export_state(),
            LdcSolver::new(split_cfg()).export_state()
        );
        ldc.solve(&sys).unwrap();
        assert_eq!(plan_identity(&ldc), plan);
    }

    /// Delegates to a [`ThreadComm`](mqmd_parallel::executor::ThreadComm)
    /// and flips the lowest bit of one value a `halo_exchange` delivers.
    struct CorruptingHalo<'a>(&'a dyn Comm);

    impl Comm for CorruptingHalo<'_> {
        fn rank(&self) -> usize {
            self.0.rank()
        }
        fn size(&self) -> usize {
            self.0.size()
        }
        fn send_to(&self, dest: usize, data: &[f64]) -> CommResult<()> {
            self.0.send_to(dest, data)
        }
        fn recv_from(&self, src: usize, op: &'static str) -> CommResult<Vec<f64>> {
            self.0.recv_from(src, op)
        }
        fn barrier(&self) -> CommResult<()> {
            self.0.barrier()
        }
        fn traffic(&self) -> &mqmd_parallel::comm::TrafficStats {
            self.0.traffic()
        }
        fn halo_exchange(&self, left: &[f64], right: &[f64]) -> CommResult<(Vec<f64>, Vec<f64>)> {
            let (mut from_left, from_right) = self.0.halo_exchange(left, right)?;
            from_left[0] = f64::from_bits(from_left[0].to_bits() ^ 1);
            Ok((from_left, from_right))
        }
    }

    #[test]
    fn halo_probe_catches_a_flipped_bit() {
        let sys = h2(8.0);
        let cfg = split_cfg();
        let out = run_ranks(2, |_, comm| {
            LdcSolver::new(cfg)
                .solve_on(&sys, &CorruptingHalo(comm))
                .map(|s| s.energy)
        });
        for (rank, r) in out.iter().enumerate() {
            match r {
                Err(MqmdError::Io(msg)) => assert!(msg.contains("halo integrity probe"), "{msg}"),
                other => panic!("rank {rank}: corrupted halo went unnoticed: {other:?}"),
            }
        }
    }

    #[test]
    fn multigrid_and_fft_hartree_agree() {
        let sys = h2(8.0);
        let mut a = LdcSolver::new(base_cfg());
        let mut b = LdcSolver::new(LdcConfig {
            hartree: HartreeSolver::Multigrid,
            ..base_cfg()
        });
        let ea = a.solve(&sys).unwrap().energy;
        let eb = b.solve(&sys).unwrap().energy;
        // 7-point multigrid vs spectral FFT differ by O(h²) discretisation.
        assert!((ea - eb).abs() < 2e-2, "FFT {ea} vs MG {eb}");
    }

    #[test]
    fn warm_start_reduces_scf_iterations() {
        let sys = h2(8.0);
        let mut ldc = LdcSolver::new(base_cfg());
        let s1 = ldc.solve(&sys).unwrap();
        let s2 = ldc.solve(&sys).unwrap();
        assert!(s2.scf_iterations <= s1.scf_iterations);
    }
}
