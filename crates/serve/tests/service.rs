//! Service-plane integration tests: admission control, deadline
//! enforcement, panic supervision, retry under injected faults, and the
//! headline property — a preempted-then-resumed job reproduces the
//! uninterrupted run bitwise.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use mqmd_core::global::LdcSolver;
use mqmd_core::qmd::QmdDriver;
use mqmd_md::thermostat::NoseHoover;
use mqmd_serve::spec::escalate;
use mqmd_serve::{Admission, JobSpec, JobState, RejectReason, ServiceConfig, ServiceRuntime};
use mqmd_util::faults::{self, FaultKind, FaultPlan, Site};

/// The fault plane and its stats are process-global; chaos-flavoured
/// tests serialise on this.
fn fault_gate() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mqmd_serve_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn quick_spec() -> JobSpec {
    JobSpec {
        steps: 1,
        ..Default::default()
    }
}

/// Blocks until `id` is picked up by a worker (so a subsequent
/// higher-priority submit finds every worker busy and must preempt).
fn wait_until_running(rt: &ServiceRuntime, id: u64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let state = rt.ledger().records[&id].state.clone();
        if matches!(state, JobState::Running) {
            return;
        }
        assert!(
            !state.is_terminal(),
            "job {id} reached {state:?} before it could be observed running"
        );
        assert!(
            std::time::Instant::now() < deadline,
            "job {id} never started running"
        );
        std::thread::sleep(Duration::from_micros(200));
    }
}

#[test]
fn admission_rejects_are_typed_and_counted() {
    // No workers: jobs stay queued, so the admission arithmetic is exact.
    let mut cfg = ServiceConfig::new(tmp("admission"));
    cfg.workers = 0;
    cfg.queue_capacity = 3;
    cfg.tenant_quota = 2;
    let rt = ServiceRuntime::start(cfg).unwrap();

    // Invalid spec.
    let bad = JobSpec {
        steps: 0,
        ..Default::default()
    };
    assert_eq!(
        rt.submit(bad),
        Admission::Rejected(RejectReason::InvalidSpec)
    );

    // Already over deadline.
    let dead = JobSpec {
        deadline: Some(Duration::ZERO),
        ..quick_spec()
    };
    assert_eq!(
        rt.submit(dead),
        Admission::Rejected(RejectReason::OverDeadline)
    );

    // Tenant 0 fills its quota of 2, third submission bounces.
    assert!(matches!(rt.submit(quick_spec()), Admission::Accepted(_)));
    assert!(matches!(rt.submit(quick_spec()), Admission::Accepted(_)));
    assert_eq!(
        rt.submit(quick_spec()),
        Admission::Rejected(RejectReason::QuotaExceeded)
    );

    // Tenant 1 can still get one job in before the global capacity of 3
    // trips.
    let other = JobSpec {
        tenant: 1,
        ..quick_spec()
    };
    assert!(matches!(rt.submit(other.clone()), Admission::Accepted(_)));
    let third = JobSpec {
        tenant: 2,
        ..quick_spec()
    };
    assert_eq!(
        rt.submit(third),
        Admission::Rejected(RejectReason::QueueFull)
    );

    let ledger = rt.ledger();
    assert_eq!(ledger.submitted, 3);
    assert_eq!(ledger.rejected_invalid, 1);
    assert_eq!(ledger.rejected_deadline, 1);
    assert_eq!(ledger.rejected_quota, 1);
    assert_eq!(ledger.rejected_queue_full, 1);
    assert_eq!(ledger.queue_depth_peak, 3);
    assert_eq!(ledger.tenant_peak.get(&0), Some(&2));
}

#[test]
fn tiny_deadline_fails_typed_not_retried() {
    let _gate = fault_gate();
    let cfg = ServiceConfig::new(tmp("deadline"));
    let rt = ServiceRuntime::start(cfg).unwrap();
    let spec = JobSpec {
        deadline: Some(Duration::from_nanos(1)),
        ..quick_spec()
    };
    let id = rt.submit(spec).id().expect("1ns budget is admitted");
    let ledger = rt.shutdown();
    let rec = &ledger.records[&id];
    match &rec.state {
        JobState::Failed { error } => {
            assert!(
                error.contains("deadline"),
                "typed deadline error, got: {error}"
            );
        }
        other => panic!("expected deadline failure, got {other:?}"),
    }
    assert_eq!(ledger.failed, 1);
    assert_eq!(ledger.retries, 0, "deadline expiry must not burn retries");
    assert!(ledger.audit(4, 16).is_empty(), "{:?}", ledger.audit(4, 16));
}

#[test]
fn injected_worker_kill_is_supervised_and_job_retried() {
    let _gate = fault_gate();
    faults::reset_stats();
    let mut plan = FaultPlan::new();
    plan.push(FaultKind::WorkerKill, Site::Rank(0), 1);
    faults::install(plan);
    let rt = ServiceRuntime::start(ServiceConfig::new(tmp("kill"))).unwrap();
    let id = rt.submit(quick_spec()).id().unwrap();
    let ledger = rt.shutdown();
    faults::clear();

    assert_eq!(ledger.panics_caught, 1, "the injected kill must be caught");
    assert_eq!(ledger.retries, 1, "the killed job must be requeued");
    assert!(
        matches!(ledger.records[&id].state, JobState::Completed(_)),
        "job completes on the retry: {:?}",
        ledger.records[&id].state
    );
    let stats = faults::stats();
    assert!(
        stats.injected <= stats.recovered + stats.aborted,
        "fault ledger unbalanced: {stats:?}"
    );
    assert!(ledger.audit(4, 16).is_empty(), "{:?}", ledger.audit(4, 16));
}

#[test]
fn scf_fault_walks_retry_ladder_to_completion() {
    let _gate = fault_gate();
    faults::reset_stats();
    // Poison the domain solve of the first attempt's second SCF iteration;
    // the solver's retry ladder may absorb it, and if the attempt still
    // fails the service ladder retries it. In both cases the job must end
    // Completed with a balanced ledger.
    let mut plan = FaultPlan::new();
    plan.push(FaultKind::DensityNan, Site::Domain(0), 2);
    faults::install(plan);
    let rt = ServiceRuntime::start(ServiceConfig::new(tmp("scf_fault"))).unwrap();
    let id = rt.submit(quick_spec()).id().unwrap();
    let ledger = rt.shutdown();
    faults::clear();

    assert!(
        matches!(ledger.records[&id].state, JobState::Completed(_)),
        "job must survive an injected SCF fault: {:?}",
        ledger.records[&id].state
    );
    let stats = faults::stats();
    assert_eq!(
        stats.injected, 1,
        "the planned fault never fired: {stats:?}"
    );
    assert!(
        stats.injected <= stats.recovered + stats.aborted,
        "fault ledger unbalanced: {stats:?}"
    );
    assert!(ledger.audit(4, 16).is_empty(), "{:?}", ledger.audit(4, 16));
}

#[test]
fn failed_first_attempt_retries_at_the_conservative_rung_bitwise() {
    let _gate = fault_gate();
    faults::reset_stats();
    // The first domain solve of attempt 1 breaks down, and so does the one
    // rung the in-solver ladder has for a cold start (from scratch on a
    // fresh workspace): the domain aborts, the solve fails typed, and the
    // service retries the job.
    let mut plan = FaultPlan::new();
    plan.push(FaultKind::DavidsonDiverge, Site::Domain(0), 1);
    plan.push(FaultKind::DavidsonDiverge, Site::Domain(0), 2);
    faults::install(plan);
    let spec = JobSpec {
        steps: 2,
        ..Default::default()
    };
    let rt = ServiceRuntime::start(ServiceConfig::new(tmp("retry_rung"))).unwrap();
    let id = rt.submit(spec.clone()).id().unwrap();
    let ledger = rt.shutdown();
    let stats = faults::stats();
    faults::clear();

    let rec = &ledger.records[&id];
    assert_eq!(stats.injected, 2, "both planned breakdowns fired");
    assert_eq!((rec.attempts, ledger.retries), (2, 1), "{:?}", rec.state);
    let JobState::Completed(got) = rec.state.clone() else {
        panic!("job must complete on attempt 2: {:?}", rec.state);
    };
    assert!(
        stats.injected <= stats.recovered + stats.aborted,
        "{stats:?}"
    );
    assert!(ledger.audit(4, 16).is_empty(), "{:?}", ledger.audit(4, 16));

    // The same trajectory, driven directly (thermostat as in the runtime's
    // job loop, one step per call) at the attempt-2 configuration — and at
    // the tuned first rung, which must not be what ran.
    let direct = |cfg| -> Vec<f64> {
        let mut solver = LdcSolver::new(cfg);
        let mut system = spec.build_system();
        let thermostat = NoseHoover::new(spec.temperature, 2, 200.0);
        let mut driver = QmdDriver::new(spec.dt, Some(thermostat));
        (0..spec.steps)
            .map(|_| driver.run(&mut system, &mut solver, 1).energies[0])
            .collect()
    };
    let bits = |e: &[f64]| e.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(
        bits(&got.energies),
        bits(&direct(escalate(&spec.ldc_config(), 2)))
    );
    assert_ne!(bits(&got.energies), bits(&direct(spec.ldc_config())));
}

#[test]
fn preempted_job_resumes_bitwise_identical() {
    let _gate = fault_gate();
    let probe = JobSpec {
        steps: 3,
        ..Default::default()
    };

    // Leg A: the probe runs uninterrupted.
    let rt = ServiceRuntime::start(ServiceConfig::new(tmp("preempt_a"))).unwrap();
    let id_a = rt.submit(probe.clone()).id().unwrap();
    let ledger_a = rt.shutdown();
    let JobState::Completed(ref_result) = ledger_a.records[&id_a].state.clone() else {
        panic!("probe failed: {:?}", ledger_a.records[&id_a].state);
    };
    assert_eq!(ref_result.energies.len(), 3);

    // Leg B: same probe, but a high-priority job lands right behind it
    // on a single-worker runtime, preempting it at a step boundary.
    let rt = ServiceRuntime::start(ServiceConfig::new(tmp("preempt_b"))).unwrap();
    let id_b = rt.submit(probe).id().unwrap();
    wait_until_running(&rt, id_b);
    let vip = JobSpec {
        tenant: 1,
        priority: 9,
        steps: 1,
        ..Default::default()
    };
    let id_vip = rt.submit(vip).id().unwrap();
    let ledger_b = rt.shutdown();

    let JobState::Completed(got) = ledger_b.records[&id_b].state.clone() else {
        panic!(
            "preempted probe failed: {:?}",
            ledger_b.records[&id_b].state
        );
    };
    assert!(
        matches!(ledger_b.records[&id_vip].state, JobState::Completed(_)),
        "preemptor failed: {:?}",
        ledger_b.records[&id_vip].state
    );
    // The VIP was submitted while the probe held the only worker mid-step
    // (each step is a full SCF solve, far slower than the submit), so a
    // preemption must have happened — and the resumed trajectory must be
    // bit-for-bit the uninterrupted one.
    assert!(
        ledger_b.preemptions >= 1,
        "expected the VIP to preempt the probe: {ledger_b:?}"
    );
    assert_eq!(ledger_b.resumes, ledger_b.preemptions);
    assert_eq!(got.energies.len(), ref_result.energies.len());
    for (a, b) in got.energies.iter().zip(&ref_result.energies) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "energy series diverged: {a} vs {b}"
        );
    }
    for (a, b) in got.positions.iter().zip(&ref_result.positions) {
        assert_eq!(a.x.to_bits(), b.x.to_bits());
        assert_eq!(a.y.to_bits(), b.y.to_bits());
        assert_eq!(a.z.to_bits(), b.z.to_bits());
    }
    for (a, b) in got.velocities.iter().zip(&ref_result.velocities) {
        assert_eq!(a.x.to_bits(), b.x.to_bits());
        assert_eq!(a.y.to_bits(), b.y.to_bits());
        assert_eq!(a.z.to_bits(), b.z.to_bits());
    }
    assert!(
        ledger_b.audit(4, 16).is_empty(),
        "{:?}",
        ledger_b.audit(4, 16)
    );
}
