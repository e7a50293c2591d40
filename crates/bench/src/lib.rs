//! # mqmd-bench
//!
//! The paper pipeline and the operational gates. One binary,
//! `repro_paper`, regenerates every paper table and figure through
//! [`paper`] into the checked-in `PAPER_RESULTS.md`, one tagged row per
//! number; `repro_profile` and `repro_flops` measure the running system,
//! `repro_serve` prints the service's SCF sweep, and `mqmd-rank` is the
//! worker of the multi-process rank runtime. The rank runtime's and the
//! fault plane's promises are tests: `tests/real_rank_bitwise.rs`,
//! `real_transport_counts.rs`, `real_rank_restart.rs` and
//! `chaos_campaign.rs`. The Criterion benches (`benches/`) time the
//! kernels and the ablations.
//!
//! The split of responsibilities:
//!
//! * **measured** quantities come from running this repository's real Rust
//!   kernels (domain Kohn–Sham solves, FFTs, multigrid, the trajectory
//!   codec);
//! * **modelled** quantities (wall-clock at 786,432 cores, sustained
//!   FLOP/s of a Blue Gene/Q rack, the kMC chemistry) come from
//!   `mqmd-parallel`'s machine model and `mqmd-chem`'s surrogate, per the
//!   DESIGN.md substitution, and say how many of their constants were set
//!   against the paper.

pub mod paper;
pub mod real_ranks;
pub mod roofline;

use mqmd_core::domain_solver::{solve_domain_with, DomainSetup};
use mqmd_core::global::{BoundaryMode, HartreeSolver, LdcConfig};
use mqmd_dft::eigensolver::EigWorkspace;
use mqmd_grid::DomainDecomposition;
use mqmd_md::builders::sic_supercell;
use mqmd_md::AtomicSystem;
use mqmd_util::timer::Stopwatch;

/// Reduced-cost LDC settings used by benches: coarse grids and loose
/// tolerances keep wall times laptop-friendly while preserving every code
/// path.
pub fn bench_ldc_config() -> LdcConfig {
    LdcConfig {
        nd: (2, 2, 2),
        buffer: 2.0,
        mode: BoundaryMode::ldc_default(),
        hartree: HartreeSolver::Multigrid,
        global_spacing: 1.0,
        domain_spacing: 1.0,
        ecut: 2.5,
        kt: 0.05,
        mix_alpha: 0.3,
        max_scf: 60,
        tol_density: 1e-4,
        davidson_iters: 10,
        davidson_tol: 1e-5,
        extra_bands: 3,
    }
}

/// Miniature LDC settings for Criterion benches that run full SCF solves
/// inside the 10-sample measurement loop: an 8-atom cell at coarse
/// discretisation solves in a couple of seconds while exercising every code
/// path (the paper pipeline keeps the full-size settings).
pub fn tiny_ldc_config() -> LdcConfig {
    LdcConfig {
        nd: (2, 1, 1),
        buffer: 1.0,
        global_spacing: 1.2,
        domain_spacing: 1.2,
        ecut: 2.0,
        tol_density: 5e-4,
        davidson_iters: 6,
        davidson_tol: 1e-4,
        extra_bands: 2,
        ..bench_ldc_config()
    }
}

/// The Fig 5 per-core workload: the 64-atom SiC block (2×2×2 conventional
/// cells) each Blue Gene/Q core owns in the weak-scaling run.
pub fn fig5_workload() -> AtomicSystem {
    sic_supercell((2, 2, 2))
}

/// Measures the real wall-clock of one domain Kohn–Sham solve on the Fig 5
/// workload (the `t_domain` the weak-scaling model consumes).
///
/// `ecut`/`spacing` control cost; the defaults solve 64 atoms with ~10³
/// plane waves in a few seconds.
pub fn measure_domain_solve_seconds(ecut: f64, spacing: f64, davidson_iters: usize) -> f64 {
    let sys = fig5_workload();
    let dd = DomainDecomposition::new(sys.cell, (1, 1, 1), 0.0);
    let global_grid = mqmd_dft::solver::grid_for_cell(sys.cell, spacing);
    let v_ion = mqmd_dft::hamiltonian::ionic_local_potential(
        &global_grid,
        &mqmd_dft::solver::atoms_of(&sys),
    );
    let setup = DomainSetup::build(
        &dd.domains()[0],
        &dd,
        &sys,
        spacing,
        ecut,
        4,
        &global_grid,
        &v_ion,
    )
    .expect("SiC block is non-empty");
    let zeros = vec![0.0; setup.grid.len()];
    let sw = Stopwatch::start();
    let mut ew = EigWorkspace::new();
    let bands = solve_domain_with(&setup, &zeros, &zeros, None, davidson_iters, 1e-6, &mut ew)
        .expect("domain solve");
    std::hint::black_box(bands.eigenvalues.len());
    sw.seconds()
}

/// Formats a table row of label + values for the operational binaries.
pub fn row(label: &str, values: &[String]) -> String {
    let mut out = format!("{label:<28}");
    for v in values {
        out.push_str(&format!("{v:>16}"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_workload_is_64_atoms() {
        assert_eq!(fig5_workload().len(), 64);
    }

    #[test]
    fn domain_solve_measurement_is_positive() {
        let t = measure_domain_solve_seconds(1.5, 1.3, 2);
        assert!(t > 0.0 && t.is_finite());
    }

    #[test]
    fn row_formatting() {
        let r = row("label", &["1".into(), "2".into()]);
        assert!(r.starts_with("label"));
        assert!(r.contains('1') && r.contains('2'));
    }
}
