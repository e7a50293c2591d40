//! Probes: each layer's public `_with`/`_into` functions replayed at the
//! workload's shapes, median reported. One file per program module, so a
//! renamed function breaks one file.

mod core;
mod dft;
mod fft;
mod grid;
mod linalg;
mod md;
mod multigrid;
mod threads;

use crate::stats::median;
use crate::workloads::Layers;
use metascale_qmd::core::domain_solver::DomainSetup;
use metascale_qmd::core::global::LdcConfig;
use metascale_qmd::dft::hamiltonian::ionic_local_potential;
use metascale_qmd::dft::solver::{atoms_of, grid_for_cell};
use metascale_qmd::grid::{DomainDecomposition, UniformGrid3};
use metascale_qmd::linalg::CMatrix;
use metascale_qmd::md::AtomicSystem;
use std::path::PathBuf;
use std::time::Instant;

/// Replays per probe.
pub const REPS: usize = 200;
/// A probe whose call takes milliseconds stops early once it has used this
/// many seconds, so that a traced run stays inside its time cap …
const BUDGET_S: f64 = 0.4;
/// … but never before this many replays.
const MIN_REPS: usize = 10;
/// Shortest timed sample, microseconds.
const MIN_SAMPLE_US: f64 = 5.0;

/// What a workload's probes are shaped by.
pub struct Shape {
    /// The workload's system at step 0 (one job's, for the service).
    pub system: AtomicSystem,
    pub cfg: LdcConfig,
    /// Solver payload of a checkpoint at this shape; `None` for a workload
    /// that never checkpoints.
    pub solver_state: Option<Vec<u8>>,
    /// Scratch directory for the checkpoint probe.
    pub out_dir: PathBuf,
}

/// Median microseconds of one call of `f` over [`REPS`] timed samples (see
/// [`BUDGET_S`]), after two untimed calls that fill caches and workspaces.
/// A call shorter than [`MIN_SAMPLE_US`] is timed in batches, so that the
/// clock's own cost and resolution stay below a percent of a sample.
pub fn time_us(mut f: impl FnMut()) -> f64 {
    f();
    let t = Instant::now();
    f();
    let once_us = t.elapsed().as_secs_f64() * 1e6;
    let batch = (MIN_SAMPLE_US / once_us.max(1e-3)).ceil().clamp(1.0, 1e4) as usize;
    let began = Instant::now();
    let mut us = Vec::with_capacity(REPS);
    while us.len() < REPS && (us.len() < MIN_REPS || began.elapsed().as_secs_f64() < BUDGET_S) {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        us.push(t.elapsed().as_secs_f64() * 1e6 / batch as f64);
    }
    median(&us)
}

/// The first domain's Kohn–Sham problem at the workload's shape, shared by
/// the kernel probes.
pub struct DomainProblem {
    pub global_grid: UniformGrid3,
    pub setup: DomainSetup,
    /// Orthonormal start bands, the same every run.
    pub psi0: CMatrix,
}

impl DomainProblem {
    fn build(shape: &Shape) -> Option<Self> {
        let (sys, cfg) = (&shape.system, &shape.cfg);
        let dd = DomainDecomposition::new(sys.cell, cfg.nd, cfg.buffer);
        let global_grid = grid_for_cell(sys.cell, cfg.global_spacing);
        let v_ion = ionic_local_potential(&global_grid, &atoms_of(sys));
        let setup = dd.domains().iter().find_map(|d| {
            DomainSetup::build(
                d,
                &dd,
                sys,
                cfg.domain_spacing,
                cfg.ecut,
                cfg.extra_bands,
                &global_grid,
                &v_ion,
            )
        })?;
        let psi0 = setup.basis.try_random_bands(setup.n_bands, 0xBE7C).ok()?;
        Some(Self {
            global_grid,
            setup,
            psi0,
        })
    }
}

pub fn run_all(shape: &Shape, layers: &mut Layers) {
    grid::probe(shape, layers);
    core::probe(shape, layers);
    md::probe(shape, layers);
    let Some(problem) = DomainProblem::build(shape) else {
        return;
    };
    dft::probe(shape, &problem, layers);
    fft::probe(&problem, layers);
    linalg::probe(&problem, layers);
    multigrid::probe(shape, &problem, layers);
    threads::probe(&problem, layers);
}
