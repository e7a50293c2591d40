//! Fault-plane tests for the parallel layer: straggler ranks must be
//! absorbed by the executor, every injection must be balanced by a
//! recorded recovery or abort, and a fault a rank spawn has no meaning for
//! is refused as a typed error on both backends.
//!
//! These live in their own test binary because the fault plan is
//! process-global: the crate's unit tests call `run_ranks` concurrently
//! and would poll the same `Site::Rank` counters, poaching the injected
//! faults. Every test here takes the `gate()` mutex.

use mqmd_parallel::comm::{Comm, CommError};
use mqmd_parallel::executor::run_ranks;
use mqmd_parallel::process::{run_processes, ProcessOpts};
use mqmd_util::faults::{self, FaultKind, FaultPlan, Site};

fn gate() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn straggler_rank_is_absorbed_and_accounted() {
    let _g = gate();
    faults::reset_stats();
    let mut plan = FaultPlan::new();
    plan.push(FaultKind::Straggler { delay_us: 2_000 }, Site::Rank(1), 1);
    faults::install(plan);
    // The collectives still complete and agree despite rank 1's late start.
    let out = run_ranks(4, |rank, comm| {
        comm.allreduce_sum(vec![rank as f64]).unwrap()
    });
    faults::clear();
    for o in out {
        assert_eq!(o, vec![6.0]);
    }
    let s = faults::stats();
    assert_eq!(s.injected, 1);
    assert_eq!(s.recovered, 1);
    assert_eq!(s.aborted, 0);
    assert_eq!(s.by_kind.get("straggler"), Some(&1));
    assert_eq!(s.by_action.get("straggler_wait"), Some(&1));
    assert!(
        s.recompute_seconds >= 2e-3,
        "the 2 ms startup delay is booked as recompute time, got {}",
        s.recompute_seconds
    );
}

#[test]
fn idle_plane_leaves_executor_untouched() {
    let _g = gate();
    faults::clear();
    faults::reset_stats();
    let out = run_ranks(3, |rank, comm| {
        comm.allreduce_sum(vec![rank as f64]).unwrap()
    });
    for o in out {
        assert_eq!(o, vec![3.0]);
    }
    let s = faults::stats();
    assert_eq!(s.injected, 0);
    assert_eq!(s.recovered, 0);
}

#[test]
fn a_fault_without_rank_semantics_is_refused_typed_on_both_backends() {
    let _g = gate();
    let refused = CommError::UnsupportedFault {
        rank: 0,
        fault: "density_nan",
    };
    let plan = || {
        let mut plan = FaultPlan::new();
        plan.push(FaultKind::DensityNan, Site::Rank(0), 1);
        plan
    };

    // Threads: every rank's collective fails with the refusal (none waits
    // on a peer), and the ledger books an abort, not a recovery.
    faults::reset_stats();
    faults::install(plan());
    let out = run_ranks(3, |rank, comm| comm.allreduce_sum(vec![rank as f64]));
    faults::clear();
    for o in out {
        assert_eq!(o, Err(refused.clone()));
    }
    let s = faults::stats();
    assert_eq!((s.injected, s.recovered, s.aborted), (1, 0, 1), "{s:?}");
    assert_eq!(s.by_action.get("rank_fault_refused"), Some(&1));

    // Processes: refused before any worker is spawned, so no worker binary
    // is needed.
    faults::reset_stats();
    faults::install(plan());
    let run = run_processes(
        std::path::Path::new("no-such-worker"),
        "count_allreduce",
        2,
        ProcessOpts::default(),
    );
    faults::clear();
    assert_eq!(run.err(), Some(refused));
    let s = faults::stats();
    assert_eq!((s.injected, s.recovered, s.aborted), (1, 0, 1), "{s:?}");
}
