//! The seeded chaos campaign: the QMD pipeline and the rank runtime under
//! a deterministic fault plan, and the recovery invariants that must hold.
//!
//! Four legs, every fault drawn by `FaultPlan::generate(seed, 8, ..)`, so a
//! failing seed replays bitwise:
//!
//! 1. **Reference** (plane idle): the fault-free one-domain H₂ SCF energy
//!    and an uninterrupted two-step LDC QMD trajectory.
//! 2. **Checkpoint kill-and-resume** (plane idle): the same QMD run stops
//!    after its first step, goes through the on-disk checkpoint store, is
//!    restored into a fresh driver and solver, and must replay **bitwise**
//!    against the reference.
//! 3. **Chaos**, per seed: the one-domain H₂ SCF and the two-domain QMD
//!    run (`Site::Domain` faults) and a thread-rank allreduce
//!    (`Site::Rank` stragglers) execute under the plan, after which every
//!    planned fault must have fired; then a seeded victim rank is killed
//!    mid-collective (allreduce, allgather, halo) on real `mqmd-rank`
//!    processes with recovery on, and every run must heal bitwise.
//! 4. **Accounting**, per seed: the ledger balances, no NaN escaped, the
//!    chaos trajectory stays near the reference, and the event log agrees
//!    with the counters.
//!
//! Legs 1 and 2 do not read the seed, so they run once. The fault plane
//! and the event sink are process-global: this file is its own test
//! binary, and its tests hold [`gate`].

use mqmd_bench::real_ranks::run_thread_reference;
use mqmd_bench::tiny_ldc_config;
use mqmd_core::global::{BoundaryMode, HartreeSolver, LdcConfig, LdcSolver, LdcState};
use mqmd_core::qmd::{QmdDriver, QmdReport};
use mqmd_md::builders::sic_supercell;
use mqmd_md::io::CheckpointStore;
use mqmd_md::thermostat::NoseHoover;
use mqmd_md::AtomicSystem;
use mqmd_parallel::comm::CommError;
use mqmd_parallel::executor::run_ranks;
use mqmd_parallel::process::{run_processes, ProcessOpts};
use mqmd_parallel::Comm;
use mqmd_util::constants::Element;
use mqmd_util::faults::{self, CampaignSpec, FaultKind, FaultPlan, Site};
use mqmd_util::{events, MqmdError, Vec3, Xoshiro256pp};
use std::path::Path;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

const SEEDS: [u64; 3] = [1, 7, 42];
const FAULTS: usize = 8;
const STEPS: usize = 2;
/// Energy drift allowed for a *recovered* chaos trajectory against the
/// fault-free reference, per step (Hartree). A retry may reconverge the
/// SCF along another path within its density tolerance, so bitwise
/// identity is not expected, but the trajectory stays on the same surface.
const DRIFT_TOL: f64 = 1e-1;

fn gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn worker() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_mqmd-rank"))
}

fn process_opts(args: &[f64], recover: bool) -> ProcessOpts {
    ProcessOpts {
        deadline: Duration::from_secs(60),
        args: args.to_vec(),
        recover,
        ..Default::default()
    }
}

/// One domain, no buffer, spectral Hartree: the conventional solve, whose
/// only domain is domain 0.
fn h2_solve() -> mqmd_util::Result<LdcState> {
    let h2 = AtomicSystem::new(
        Vec3::splat(8.0),
        vec![Element::H, Element::H],
        vec![Vec3::new(3.3, 4.0, 4.0), Vec3::new(4.7, 4.0, 4.0)],
    );
    LdcSolver::new(LdcConfig {
        nd: (1, 1, 1),
        buffer: 0.0,
        mode: BoundaryMode::Periodic,
        hartree: HartreeSolver::Fft,
        ..Default::default()
    })
    .solve(&h2)
}

fn qmd_driver() -> QmdDriver<NoseHoover> {
    QmdDriver::new(10.0, Some(NoseHoover::new(300.0, 2, 200.0)))
}

/// Runs `steps` QMD steps of SiC-8 on the two-domain `tiny_ldc_config`.
fn qmd_run(steps: usize) -> (AtomicSystem, mqmd_util::Result<QmdReport>) {
    let mut sys = sic_supercell((1, 1, 1));
    let mut solver = LdcSolver::new(tiny_ldc_config());
    let report = qmd_driver().try_run(&mut sys, &mut solver, steps);
    (sys, report)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn vec_bits(v: &[Vec3]) -> Vec<[u64; 3]> {
    v.iter()
        .map(|a| [a.x, a.y, a.z].map(f64::to_bits))
        .collect()
}

/// Leg 2: stop after step 1, checkpoint through the store, resume in a
/// fresh driver and solver; returns the stitched energies and the final
/// system.
fn checkpoint_resume() -> (Vec<f64>, AtomicSystem) {
    let mut sys = sic_supercell((1, 1, 1));
    let mut solver = LdcSolver::new(tiny_ldc_config());
    let mut driver = qmd_driver();
    let mut energies = driver.run(&mut sys, &mut solver, 1).energies;
    let dir = std::env::temp_dir().join(format!("mqmd_chaos_ckp_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = CheckpointStore::open(&dir, 2).expect("checkpoint dir");
    store
        .save(&driver.checkpoint(1, &sys, solver.export_state()))
        .expect("checkpoint saves");
    drop((sys, solver, driver));

    let ckp = store
        .load_latest()
        .expect("store readable")
        .expect("one checkpoint");
    std::fs::remove_dir_all(&dir).ok();
    let mut driver = qmd_driver();
    let (mut sys, blob) = driver.restore(&ckp);
    let mut solver = LdcSolver::new(tiny_ldc_config());
    solver.import_state(&blob).expect("solver state imports");
    energies.extend(driver.run(&mut sys, &mut solver, STEPS - 1).energies);
    (energies, sys)
}

#[test]
fn seeded_campaigns_recover_every_fault_and_balance_the_ledger() {
    let _gate = gate();
    faults::clear();

    // Leg 1: fault-free references.
    let e_scf_ref = h2_solve().expect("fault-free H2 SCF converges").energy;
    let (sys_ref, rep_ref) = qmd_run(STEPS);
    let rep_ref = rep_ref.expect("fault-free QMD reference completes");

    // Leg 2: checkpoint kill-and-resume, bitwise.
    let (stitched, sys_resumed) = checkpoint_resume();
    assert_eq!(bits(&stitched), bits(&rep_ref.energies), "resumed energies");
    assert_eq!(
        vec_bits(&sys_resumed.positions),
        vec_bits(&sys_ref.positions)
    );
    assert_eq!(
        vec_bits(&sys_resumed.velocities),
        vec_bits(&sys_ref.velocities)
    );

    for seed in SEEDS {
        chaos_legs(seed, e_scf_ref, &rep_ref.energies);
    }
}

/// Legs 3 and 4 at one seed.
fn chaos_legs(seed: u64, e_scf_ref: f64, e_qmd_ref: &[f64]) {
    let spec = CampaignSpec {
        domains: vec![0, 1], // tiny_ldc_config decomposes into 2 domains
        max_occurrence: 12,
        ranks: 4,
    };
    let plan = FaultPlan::generate(seed, FAULTS, &spec).expect("8 faults fit the sites");
    let planned = plan.faults.len() as u64;
    events::set_enabled(true);
    let _ = events::drain();
    faults::reset_stats();
    faults::install(plan);

    // 3a. One-domain H₂ SCF under the plan's domain-0 faults.
    match h2_solve() {
        Ok(out) => {
            assert!(out.energy.is_finite(), "seed {seed}: NaN energy escaped");
            assert!(
                out.density.iter().all(|r| r.is_finite()),
                "seed {seed}: NaN density escaped"
            );
            assert!(
                (out.energy - e_scf_ref).abs() <= 1e-3,
                "seed {seed}: rescued SCF energy {} strayed from {e_scf_ref}",
                out.energy
            );
        }
        Err(MqmdError::Convergence { .. }) => {}
        Err(e) => panic!("seed {seed}: SCF leg failed untyped: {e}"),
    }

    // 3b. LDC QMD under `Site::Domain` faults.
    match qmd_run(STEPS).1 {
        Ok(rep) => {
            assert!(
                rep.energies.iter().all(|e| e.is_finite()),
                "seed {seed}: NaN escaped the QMD recovery path"
            );
            let drift = rep
                .energies
                .iter()
                .zip(e_qmd_ref)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(
                drift <= DRIFT_TOL,
                "seed {seed}: chaos QMD drifted {drift:.3e} Ha"
            );
        }
        Err(MqmdError::Convergence { .. }) => {}
        Err(e) => panic!("seed {seed}: QMD leg failed untyped: {e}"),
    }

    // 3c. Rank stragglers: the executor's collectives absorb late ranks.
    let out = run_ranks(4, |rank, comm| {
        comm.allreduce_sum(vec![rank as f64; 1024])
            .expect("allreduce under stragglers")
    });
    assert!(out.iter().all(|o| o[0] == 6.0), "seed {seed}: wrong sum");
    assert_eq!(
        faults::stats().injected,
        planned,
        "seed {seed}: planned faults that fired"
    );

    // 3d. Real-transport rank kills mid-collective, healed by respawn.
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x7261_6e6b_6b69_6c6c);
    let victim = rng.below(4);
    // Enough rounds that the victim cannot outrun its own kill: the switch
    // trips on its second routed frame, dozens of hub round trips before
    // the program can finish.
    let kill_cases: [(&str, [f64; 2]); 3] = [
        ("count_allreduce", [50.0, 32.0]),
        ("count_allgather", [50.0, 32.0]),
        ("count_halo", [16.0, 40.0]),
    ];
    // Thread references first: the thread backend polls `Site::Rank` too
    // and would otherwise consume the planned kills.
    let references: Vec<Vec<Vec<f64>>> = kill_cases
        .iter()
        .map(|(program, args)| run_thread_reference(program, 4, args).expect("registered"))
        .collect();
    let mut kill_plan = FaultPlan::new();
    for occurrence in 1..=kill_cases.len() as u64 {
        kill_plan.push(FaultKind::WorkerKill, Site::Rank(victim), occurrence);
    }
    faults::install(kill_plan);
    for ((program, args), reference) in kill_cases.iter().zip(references) {
        let run = run_processes(worker(), program, 4, process_opts(args, true))
            .unwrap_or_else(|e| panic!("seed {seed}: {program} failed instead of healing: {e}"));
        assert!(
            run.recovery.restarts >= 1,
            "seed {seed}: {program}: kill of rank {victim} left no respawn"
        );
        assert_eq!(run.results, reference, "seed {seed}: {program} healed run");
    }
    faults::clear();
    events::set_enabled(false);
    let (records, dropped) = events::drain();

    // Leg 4: the accounting invariants.
    let s = faults::stats();
    assert!(
        s.injected <= s.recovered + s.aborted,
        "seed {seed}: ledger unbalanced: {s:?}"
    );
    assert_eq!(dropped, 0, "seed {seed}: the event sink dropped records");
    let count = |f: fn(&events::Event) -> bool| records.iter().filter(|r| f(&r.event)).count();
    assert_eq!(
        count(|e| matches!(e, events::Event::FaultInjected { .. })) as u64,
        s.injected,
        "seed {seed}: FaultInjected records against the counter"
    );
    assert_eq!(
        count(|e| matches!(e, events::Event::RecoveryAction { .. })) as u64,
        s.recovered + s.aborted,
        "seed {seed}: RecoveryAction records against the counters"
    );
}

/// With recovery off, a fault-plane `WorkerKill` surfaces as typed
/// `PeerGone`, the ledger books the abort, and a clean rerun is bitwise the
/// thread reference.
#[test]
fn fail_fast_rank_kill_is_typed_peer_gone_and_booked() {
    let _gate = gate();
    let args = [64.0];
    faults::reset_stats();
    let mut plan = FaultPlan::new();
    plan.push(FaultKind::WorkerKill, Site::Rank(2), 1);
    faults::install(plan);
    let killed = run_processes(worker(), "collectives_smoke", 4, process_opts(&args, false));
    faults::clear();
    match killed {
        Err(CommError::PeerGone { rank: 2, .. }) => {}
        Err(e) => panic!("seeded kill of rank 2 surfaced {e}, expected PeerGone"),
        Ok(_) => panic!("seeded kill of rank 2 did not interrupt the run"),
    }
    let s = faults::stats();
    assert_eq!(s.injected, 1, "{s:?}");
    assert!(
        s.injected <= s.recovered + s.aborted,
        "ledger unbalanced: {s:?}"
    );

    let rerun = run_processes(worker(), "collectives_smoke", 4, process_opts(&args, false))
        .expect("clean rerun completes");
    let reference = run_thread_reference("collectives_smoke", 4, &args).expect("registered");
    assert_eq!(rerun.results, reference);
}
