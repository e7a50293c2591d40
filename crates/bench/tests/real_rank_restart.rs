//! End-to-end restart drills against the real `mqmd-rank` worker binary
//! (resolved via `CARGO_BIN_EXE_mqmd-rank`, so cargo rebuilds it in the
//! same profile): a seeded kill mid-run must be healed by in-place
//! respawn + epoch-fenced replay, bitwise-equal to a fault-free run, and
//! a rank dying past its retry budget must land in quarantine while the
//! survivors finish on the shrunk communicator.

use mqmd_bench::real_ranks::run_thread_reference;
use mqmd_parallel::process::{run_processes, KillSpec, ProcessOpts};
use std::path::Path;
use std::time::Duration;

fn worker() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_mqmd-rank"))
}

fn drill(program: &str, n: usize, args: &[f64], kill: KillSpec) {
    let reference = run_thread_reference(program, n, args).expect("program registered");
    let run = run_processes(
        worker(),
        program,
        n,
        ProcessOpts {
            deadline: Duration::from_secs(120),
            args: args.to_vec(),
            kill: Some(kill),
            recover: true,
            ..Default::default()
        },
    )
    .unwrap_or_else(|e| panic!("{program}: run under kill failed instead of healing: {e}"));
    assert!(
        run.recovery.restarts >= 1,
        "{program}: kill of rank {} produced no respawn (data_frames {}, stale {:?})",
        kill.rank,
        run.data_frames,
        run.stale_frames
    );
    assert_eq!(
        run.results, reference,
        "{program}: healed run is not bitwise-equal to the fault-free reference"
    );
    assert_eq!(run.quarantined, Vec::<usize>::new());
    assert_eq!(run.recovery.detect_ms.len(), run.recovery.restarts as usize);
    assert_eq!(
        run.recovery.respawn_ms.len(),
        run.recovery.restarts as usize
    );
    assert_eq!(run.recovery.rejoin_ms.len(), run.recovery.restarts as usize);
}

#[test]
fn killed_rank_mid_collective_heals_bitwise() {
    for victim in [0, 2] {
        drill(
            "count_allreduce",
            4,
            &[50.0, 32.0],
            KillSpec {
                rank: victim,
                after_data_frames: 2,
                repeat: 1,
            },
        );
    }
    drill(
        "count_allgather",
        4,
        &[50.0, 32.0],
        KillSpec {
            rank: 0,
            after_data_frames: 2,
            repeat: 1,
        },
    );
    drill(
        "count_halo",
        4,
        &[16.0, 40.0],
        KillSpec {
            rank: 0,
            after_data_frames: 2,
            repeat: 1,
        },
    );
}

#[test]
fn killed_rank_mid_scf_heals_bitwise() {
    drill(
        "verify_h2",
        4,
        &[],
        KillSpec {
            rank: 1,
            after_data_frames: 30,
            repeat: 1,
        },
    );
}

#[test]
fn repeated_deaths_exhaust_the_budget_into_quarantine() {
    let reference = run_thread_reference("collectives_smoke", 3, &[64.0]).expect("registered");
    let run = run_processes(
        worker(),
        "collectives_smoke",
        4,
        ProcessOpts {
            deadline: Duration::from_secs(120),
            args: vec![64.0],
            kill: Some(KillSpec {
                rank: 2,
                after_data_frames: 2,
                repeat: 3,
            }),
            recover: true,
            ..Default::default()
        },
    )
    .expect("budget exhaustion must degrade typed, not abort the run");
    assert_eq!(run.quarantined, vec![2]);
    assert_eq!(run.recovery.quarantines, 1);
    assert_eq!(run.recovery.restarts, 2, "both budgeted respawns consumed");
    assert!(run.results[2].is_empty(), "quarantined slot stays empty");
    // Survivors (physical 0, 1, 3 → logical 0, 1, 2) finish the program
    // on the shrunk communicator, bitwise-equal to a 3-rank reference.
    for (logical, &physical) in [0usize, 1, 3].iter().enumerate() {
        assert_eq!(run.results[physical], reference[logical]);
    }
}
