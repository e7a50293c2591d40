//! Seeded chaos campaign: runs the QMD pipeline under a deterministic
//! fault plan and checks the recovery invariants hold.
//!
//! Four legs, all driven by one `FaultPlan::generate(seed, faults)` so a
//! failing campaign replays bitwise from its seed:
//!
//! 1. **Reference** (plane idle): the fault-free one-domain H₂ SCF energy
//!    and an uninterrupted LDC QMD trajectory.
//! 2. **Checkpoint kill-and-resume** (plane idle): the same QMD run is
//!    killed halfway, checkpointed through the on-disk store (atomic
//!    write + FNV-64 checksum), restored into a fresh driver/solver, and
//!    must replay **bitwise** against the uninterrupted reference.
//! 3. **Chaos**: the plan is installed and the one-domain H₂ SCF and the
//!    two-domain QMD run (Site::Domain faults) and a thread-rank allreduce
//!    (Site::Rank stragglers) all execute under it, after which every
//!    planned fault must have fired;
//!    then a real-transport leg kills a seeded victim rank mid-collective
//!    (allreduce, allgather, halo exchange) with the recovery supervisor
//!    armed — every run must heal by respawn and finish bitwise-equal to
//!    the thread reference.
//! 4. **Accounting**: the campaign ledger must balance — every injected
//!    fault recovered or surfaced as a typed error, no NaN anywhere, the
//!    chaos trajectory's energy drift bounded, and the structured event
//!    log consistent with the counters.
//!
//! Usage: `repro_chaos [--seed N] [--faults N] [--steps N]`
//!
//! Exit codes: 0 = all invariants hold, 1 = an invariant failed,
//! 2 = bad arguments, or more faults than the campaign's sites can hold.

use mqmd_bench::real_ranks::{h2_system, run_thread_reference, worker_bin};
use mqmd_bench::{row, tiny_ldc_config};
use mqmd_core::global::{BoundaryMode, HartreeSolver, LdcConfig, LdcSolver, LdcState};
use mqmd_core::qmd::QmdDriver;
use mqmd_md::builders::sic_supercell;
use mqmd_md::io::{Checkpoint, CheckpointStore};
use mqmd_md::thermostat::NoseHoover;
use mqmd_md::AtomicSystem;
use mqmd_parallel::executor::run_ranks;
use mqmd_parallel::process::{run_processes, ProcessOpts, RecoveryOpts};
use mqmd_parallel::Comm;
use mqmd_util::faults::{self, CampaignSpec, FaultKind, FaultPlan, Site};
use mqmd_util::{events, MqmdError, Xoshiro256pp};

/// Energy drift allowed for a *recovered* chaos trajectory relative to
/// the fault-free reference, per step (Hartree). Recovery retries may
/// reconverge SCF along a slightly different path within its density
/// tolerance, so bitwise identity is not expected — but the trajectory
/// must stay on the same potential-energy surface.
const DRIFT_TOL: f64 = 1e-1;

fn usage() -> ! {
    eprintln!("usage: repro_chaos [--seed N] [--faults N] [--steps N]");
    std::process::exit(2);
}

fn parse_u64(args: &mut std::env::Args, flag: &str) -> u64 {
    match args.next().map(|v| v.parse::<u64>()) {
        Some(Ok(v)) => v,
        _ => {
            eprintln!("error: {flag} needs a non-negative integer");
            std::process::exit(2);
        }
    }
}

/// One domain, no buffer, spectral Hartree: the conventional solve, whose
/// only domain is domain 0.
fn h2_solve() -> mqmd_util::Result<LdcState> {
    LdcSolver::new(LdcConfig {
        nd: (1, 1, 1),
        buffer: 0.0,
        mode: BoundaryMode::Periodic,
        hartree: HartreeSolver::Fft,
        ..Default::default()
    })
    .solve(&h2_system())
}

fn qmd_system() -> AtomicSystem {
    sic_supercell((1, 1, 1))
}

fn qmd_solver() -> LdcSolver {
    LdcSolver::new(tiny_ldc_config())
}

fn qmd_driver() -> QmdDriver<NoseHoover> {
    QmdDriver::new(10.0, Some(NoseHoover::new(300.0, 2, 200.0)))
}

fn main() {
    let mut args = std::env::args();
    let _prog = args.next();
    let (mut seed, mut n_faults, mut steps) = (42u64, 8u64, 2u64);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => seed = parse_u64(&mut args, "--seed"),
            "--faults" => n_faults = parse_u64(&mut args, "--faults"),
            "--steps" => steps = parse_u64(&mut args, "--steps").max(2),
            _ => usage(),
        }
    }
    // Drawn before any leg runs, so a request the sites cannot hold fails
    // at once.
    let spec = CampaignSpec {
        domains: vec![0, 1], // tiny_ldc_config decomposes into 2 domains
        max_occurrence: 12,
        ranks: 4,
    };
    let plan = FaultPlan::generate(seed, n_faults as usize, &spec).unwrap_or_else(|e| {
        eprintln!("error: --faults {n_faults}: {e}");
        std::process::exit(2);
    });
    let mut violations: Vec<String> = Vec::new();

    println!("== repro_chaos: seed {seed}, {n_faults} faults, {steps} QMD steps ==\n");
    faults::clear();
    faults::reset_stats();

    // ---- Leg 1: fault-free references -----------------------------------
    let e_scf_ref = h2_solve().expect("fault-free H2 SCF must converge").energy;
    println!("reference H2 SCF energy: {e_scf_ref:.6} Ha");

    let mut sys_ref = qmd_system();
    let mut solver_ref = qmd_solver();
    let rep_ref = qmd_driver()
        .try_run(&mut sys_ref, &mut solver_ref, steps as usize)
        .expect("fault-free QMD reference must complete");
    println!(
        "reference QMD: {} steps, {} SCF iterations, E_final {:.6} Ha, {:.1} s wall\n",
        rep_ref.steps,
        rep_ref.scf_iterations,
        rep_ref.energies.last().copied().unwrap_or(f64::NAN),
        rep_ref.wall_seconds
    );

    // ---- Leg 2: checkpoint kill-and-resume, bitwise ---------------------
    let steps_a = (steps / 2).max(1);
    let steps_b = steps - steps_a;
    let mut sys = qmd_system();
    let mut s1 = qmd_solver();
    let mut d1 = qmd_driver();
    let rep_a = d1
        .try_run(&mut sys, &mut s1, steps_a as usize)
        .expect("first leg completes");
    let dir = std::env::temp_dir().join(format!("mqmd_chaos_ckp_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = CheckpointStore::open(&dir, 2).expect("checkpoint dir");
    store
        .save(&d1.checkpoint(steps_a, &sys, s1.export_state()))
        .expect("checkpoint saves");
    drop((sys, s1, d1));

    let ckp: Checkpoint = store
        .load_latest()
        .expect("store readable")
        .expect("one checkpoint present");
    let mut d2 = qmd_driver();
    let (mut sys2, blob) = d2.restore(&ckp);
    let mut s2 = qmd_solver();
    s2.import_state(&blob).expect("solver state imports");
    let rep_b = d2
        .try_run(&mut sys2, &mut s2, steps_b as usize)
        .expect("resumed leg completes");
    std::fs::remove_dir_all(&dir).ok();

    let stitched: Vec<f64> = rep_a
        .energies
        .iter()
        .chain(&rep_b.energies)
        .copied()
        .collect();
    let bitwise_pos = sys_ref.positions.iter().zip(&sys2.positions).all(|(a, b)| {
        a.x.to_bits() == b.x.to_bits()
            && a.y.to_bits() == b.y.to_bits()
            && a.z.to_bits() == b.z.to_bits()
    });
    let bitwise_vel = sys_ref
        .velocities
        .iter()
        .zip(&sys2.velocities)
        .all(|(a, b)| {
            a.x.to_bits() == b.x.to_bits()
                && a.y.to_bits() == b.y.to_bits()
                && a.z.to_bits() == b.z.to_bits()
        });
    let bitwise_e = stitched.len() == rep_ref.energies.len()
        && stitched
            .iter()
            .zip(&rep_ref.energies)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if bitwise_pos && bitwise_vel && bitwise_e {
        println!(
            "checkpoint leg: resume after step {steps_a} replays bitwise ({} energies match)\n",
            stitched.len()
        );
    } else {
        violations.push(format!(
            "checkpoint resume diverged from uninterrupted run \
             (positions {bitwise_pos}, velocities {bitwise_vel}, energies {bitwise_e})"
        ));
    }

    // ---- Leg 3: the chaos campaign --------------------------------------
    let planned = plan.faults.len() as u64;
    println!("installing plan:");
    for f in &plan.faults {
        println!(
            "  {:<16} at {:<10} occurrence {}",
            f.kind.label(),
            f.site.describe(),
            f.at
        );
    }
    println!();
    events::set_enabled(true);
    let _ = events::drain();
    faults::reset_stats();
    faults::install(plan);

    // 3a. One-domain H₂ SCF under the plan's domain-0 faults.
    match h2_solve() {
        Ok(out) => {
            if !out.energy.is_finite() || out.density.iter().any(|r| !r.is_finite()) {
                violations.push("NaN escaped the SCF retry ladder".into());
            } else if (out.energy - e_scf_ref).abs() > 1e-3 {
                violations.push(format!(
                    "rescued SCF energy {} strayed from reference {}",
                    out.energy, e_scf_ref
                ));
            } else {
                println!("chaos SCF leg: recovered to {:.6} Ha", out.energy);
            }
        }
        Err(MqmdError::Convergence { .. }) => {
            println!("chaos SCF leg: surfaced a typed convergence error (accepted)");
        }
        Err(e) => violations.push(format!("SCF leg returned a non-convergence error: {e}")),
    }

    // 3b. LDC QMD under Site::Domain faults.
    let mut sys_c = qmd_system();
    let mut solver_c = qmd_solver();
    match qmd_driver().try_run(&mut sys_c, &mut solver_c, steps as usize) {
        Ok(rep) => {
            if rep.energies.iter().any(|e| !e.is_finite()) {
                violations.push("NaN escaped the QMD recovery path".into());
            } else {
                let drift = rep
                    .energies
                    .iter()
                    .zip(&rep_ref.energies)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f64::max);
                if drift > DRIFT_TOL {
                    violations.push(format!(
                        "chaos QMD drifted {drift:.3e} Ha from the reference (tol {DRIFT_TOL:.0e})"
                    ));
                } else {
                    println!("chaos QMD leg: recovered, max energy drift {drift:.3e} Ha");
                }
            }
        }
        Err(MqmdError::Convergence { .. }) => {
            println!("chaos QMD leg: surfaced a typed convergence error (accepted)");
        }
        Err(e) => violations.push(format!("QMD leg returned a non-convergence error: {e}")),
    }

    // 3c. Rank stragglers: the executor's collectives absorb late ranks.
    let out = run_ranks(4, |rank, comm| {
        comm.allreduce_sum(vec![rank as f64; 1024])
            .expect("allreduce under stragglers")
    });
    if out.iter().any(|o| o[0] != 6.0) {
        violations.push("allreduce under stragglers produced a wrong sum".into());
    } else {
        println!("chaos straggler leg: 4-rank allreduce agrees under the plan's stragglers\n");
    }
    // Every leg has run: each planned fault's site was polled past its
    // occurrence.
    let fired = faults::stats().injected;
    if fired < planned {
        violations.push(format!("only {fired} of {planned} planned faults fired"));
    }

    // 3d. Real-transport rank kills mid-collective: the plane SIGKILLs a
    // seeded victim during each collective family; the recovery
    // supervisor must respawn it and replay to a bitwise-clean finish.
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x7261_6e6b_6b69_6c6c);
    let victim = rng.below(4) as usize;
    // Enough rounds that the victim cannot outrun its own kill: the
    // switch trips on the victim's second routed frame, dozens of
    // hub round trips before the program can finish.
    let kill_cases: [(&str, Vec<f64>); 3] = [
        ("count_allreduce", vec![50.0, 32.0]),
        ("count_allgather", vec![50.0, 32.0]),
        ("count_halo", vec![16.0, 40.0]),
    ];
    // Thread references first: the thread backend polls Site::Rank too
    // and would otherwise consume the planned kill occurrences.
    let references: Vec<Vec<Vec<f64>>> = kill_cases
        .iter()
        .map(|(program, args)| run_thread_reference(program, 4, args).expect("program registered"))
        .collect();
    let mut kill_plan = FaultPlan::new();
    for occurrence in 1..=kill_cases.len() as u64 {
        kill_plan.push(FaultKind::WorkerKill, Site::Rank(victim as u64), occurrence);
    }
    faults::install(kill_plan);
    for ((program, args), reference) in kill_cases.into_iter().zip(references) {
        let opts = ProcessOpts {
            deadline: std::time::Duration::from_secs(60),
            args: args.clone(),
            recovery: Some(RecoveryOpts::default()),
            ..Default::default()
        };
        match run_processes(&worker_bin(), program, 4, opts) {
            Ok(p) => {
                if p.recovery.restarts == 0 {
                    violations.push(format!(
                        "{program}: kill of rank {victim} left no respawn in the stats"
                    ));
                } else if p.results != reference {
                    violations.push(format!(
                        "{program}: healed run differs from the thread reference"
                    ));
                } else {
                    println!(
                        "chaos rank-kill leg: {program} healed rank {victim} \
                         ({} respawn) bitwise-clean",
                        p.recovery.restarts
                    );
                }
            }
            Err(e) => violations.push(format!(
                "{program}: run under rank-kill failed instead of healing: {e}"
            )),
        }
    }
    println!();

    faults::clear();
    events::set_enabled(false);
    let (records, dropped) = events::drain();

    // ---- Leg 4: the accounting invariants --------------------------------
    let s = faults::stats();
    println!("{}", row("fault class", &["injected".into()]));
    for (kind, n) in &s.by_kind {
        println!("{}", row(kind, &[format!("{n}")]));
    }
    println!("\n{}", row("recovery action", &["count".into()]));
    for (action, n) in &s.by_action {
        println!("{}", row(action, &[format!("{n}")]));
    }
    println!(
        "\nledger: {} injected, {} recovered, {} aborted, {:.3} s recompute",
        s.injected, s.recovered, s.aborted, s.recompute_seconds
    );

    if s.injected > s.recovered + s.aborted {
        violations.push(format!(
            "recovery ledger unbalanced: {} injected > {} recovered + {} aborted",
            s.injected, s.recovered, s.aborted
        ));
    }
    if dropped == 0 {
        let injected_events = records
            .iter()
            .filter(|r| matches!(r.event, events::Event::FaultInjected { .. }))
            .count() as u64;
        if injected_events != s.injected {
            violations.push(format!(
                "event log saw {injected_events} FaultInjected records but counters say {}",
                s.injected
            ));
        }
        let recovery_events = records
            .iter()
            .filter(|r| matches!(r.event, events::Event::RecoveryAction { .. }))
            .count() as u64;
        if recovery_events != s.recovered + s.aborted {
            violations.push(format!(
                "event log saw {recovery_events} RecoveryAction records but counters say {}",
                s.recovered + s.aborted
            ));
        }
    } else {
        eprintln!("warning: event sink dropped {dropped} records; skipping event-count check");
    }

    if violations.is_empty() {
        println!("\nall chaos invariants hold");
    } else {
        println!();
        for v in &violations {
            println!("INVARIANT VIOLATED: {v}");
        }
        std::process::exit(1);
    }
}
