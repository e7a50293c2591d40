//! Service-plane integration tests: admission control, deadline
//! enforcement, panic supervision, retry under injected faults, and the
//! headline property — a preempted-then-resumed job reproduces the
//! uninterrupted run bitwise.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use mqmd_core::global::LdcSolver;
use mqmd_core::qmd::QmdDriver;
use mqmd_md::io::Checkpoint;
use mqmd_md::thermostat::NoseHoover;
use mqmd_serve::spec::escalate;
use mqmd_serve::{Admission, JobSpec, JobState, RejectReason, ServiceConfig, ServiceRuntime};
use mqmd_util::faults::{self, FaultKind, FaultPlan, Site};
use mqmd_util::{trace, Xoshiro256pp};

/// The fault plane and its stats are process-global; chaos-flavoured
/// tests serialise on this.
fn fault_gate() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// A test's checkpoint root, removed when the guard drops: after the
/// runtime's `shutdown()` when declared before the runtime, and on panic.
struct TempRoot(PathBuf);

impl std::ops::Deref for TempRoot {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn tmp(name: &str) -> TempRoot {
    let dir = std::env::temp_dir().join(format!("mqmd_serve_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    TempRoot(dir)
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

/// Calls of the spans named `name` anywhere in a traced run.
fn span_calls(spans: &trace::TraceNode, name: &str) -> u64 {
    spans.aggregate(name).map_or(0, |n| n.calls)
}

#[test]
fn admission_rejects_are_typed_and_counted() {
    // No workers: jobs stay queued, so the admission arithmetic is exact.
    let root = tmp("admission");
    let mut cfg = ServiceConfig::new(&*root);
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
    // A lone 1 ns job on one worker, then a storm: one 1 ns job and one
    // unbounded sibling per tenant for four tenants on two workers.
    for (workers, tenants, sibling) in [(1, 1, false), (2, 4, true)] {
        let root = tmp(&format!("deadline_{workers}"));
        let mut cfg = ServiceConfig::new(&*root);
        cfg.workers = workers;
        cfg.queue_capacity = 8;
        let rt = ServiceRuntime::start(cfg).unwrap();
        let mut doomed = Vec::new();
        let mut healthy = Vec::new();
        for tenant in 0..tenants {
            let spec = JobSpec {
                tenant,
                deadline: Some(Duration::from_nanos(1)),
                ..quick_spec()
            };
            doomed.push(rt.submit(spec).id().expect("1ns budget is admitted"));
            if sibling {
                let spec = JobSpec {
                    tenant,
                    ..quick_spec()
                };
                healthy.push(rt.submit(spec).id().expect("unbounded job admitted"));
            }
        }
        let ledger = rt.shutdown();
        for id in &doomed {
            match &ledger.records[id].state {
                JobState::Failed { error } => {
                    assert!(
                        error.contains("deadline"),
                        "typed deadline error, got: {error}"
                    );
                }
                other => panic!("expected deadline failure, got {other:?}"),
            }
        }
        for id in &healthy {
            assert!(
                matches!(ledger.records[id].state, JobState::Completed(_)),
                "unbounded job {id} should complete: {:?}",
                ledger.records[id].state
            );
        }
        assert_eq!(ledger.failed, doomed.len() as u64);
        assert_eq!(ledger.retries, 0, "deadline expiry must not burn retries");
        assert!(ledger.audit(4, 8).is_empty(), "{:?}", ledger.audit(4, 8));
    }
}

#[test]
fn injected_worker_kill_is_supervised_and_job_retried() {
    let _gate = fault_gate();
    faults::reset_stats();
    let mut plan = FaultPlan::new();
    plan.push(FaultKind::WorkerKill, Site::Rank(0), 1);
    faults::install(plan);
    let root = tmp("kill");
    let rt = ServiceRuntime::start(ServiceConfig::new(&*root)).unwrap();
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
fn seeded_chaos_matrix_fires_every_fault_and_leaves_a_clean_ledger() {
    let _gate = fault_gate();
    faults::reset_stats();
    let seed = 43u64;
    let (tenants, jobs) = (4u32, 3u32);
    // Two worker kills (one per worker lane, early pickups), a straggler
    // and two poisoned domain solves: the supervisor, the service's retry
    // ladder and the solver's own retry ladder all act in one campaign.
    // Every job is one domain, so `Site::Domain(0)` counts the domain
    // solves of all of them.
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xC4A0_55E1);
    let mut plan = FaultPlan::new();
    plan.push(FaultKind::WorkerKill, Site::Rank(0), 1 + rng.below(2));
    plan.push(FaultKind::WorkerKill, Site::Rank(1), 2 + rng.below(2));
    plan.push(
        FaultKind::Straggler {
            delay_us: 200 + rng.below(800),
        },
        Site::Rank(0),
        3 + rng.below(2),
    );
    plan.push(FaultKind::DensityNan, Site::Domain(0), 2 + rng.below(2));
    plan.push(FaultKind::DensityNan, Site::Domain(0), 4 + rng.below(6));
    let planned = plan.faults.len() as u64;
    faults::install(plan);

    let root = tmp("chaos");
    let mut cfg = ServiceConfig::new(&*root);
    cfg.seed = seed;
    cfg.workers = 2;
    cfg.tenant_quota = jobs as usize;
    cfg.queue_capacity = (tenants * jobs) as usize;
    let (quota, capacity) = (cfg.tenant_quota, cfg.queue_capacity);
    let rt = ServiceRuntime::start(cfg).unwrap();
    for tenant in 0..tenants {
        for j in 0..jobs {
            let spec = JobSpec {
                tenant,
                priority: (j % 3) as u8,
                steps: 1 + (j % 2),
                seed: u64::from(tenant) * 100 + u64::from(j),
                ..JobSpec::default()
            };
            assert!(
                rt.submit(spec).id().is_some(),
                "tenant {tenant} job {j} bounced"
            );
        }
    }
    let ledger = rt.shutdown();
    let stats = faults::stats();
    faults::clear();

    assert_eq!(
        stats.injected, planned,
        "every planned fault fires: {stats:?}"
    );
    assert!(
        stats.injected <= stats.recovered + stats.aborted,
        "fault ledger unbalanced: {stats:?}"
    );
    assert!(
        ledger.panics_caught > 0,
        "the planned worker kills never landed"
    );
    assert_eq!(ledger.records.len(), (tenants * jobs) as usize);
    let audit = ledger.audit(quota, capacity);
    assert!(audit.is_empty(), "{audit:?}");
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
    let root = tmp("scf_fault");
    let rt = ServiceRuntime::start(ServiceConfig::new(&*root)).unwrap();
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
    let root = tmp("retry_rung");
    let rt = ServiceRuntime::start(ServiceConfig::new(&*root)).unwrap();
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

    // Leg A: the probe runs uninterrupted, traced. It captures
    // checkpoints in memory but, completing, saves none.
    let _ = trace::take();
    trace::set_enabled(true);
    let root_a = tmp("preempt_a");
    let rt = ServiceRuntime::start(ServiceConfig::new(&*root_a)).unwrap();
    let id_a = rt.submit(probe.clone()).id().unwrap();
    let ledger_a = rt.shutdown();
    trace::set_enabled(false);
    let spans_a = trace::take();
    assert!(span_calls(&spans_a, "checkpoint") > 0);
    assert_eq!(span_calls(&spans_a, "checkpoint_save"), 0);
    let JobState::Completed(ref_result) = ledger_a.records[&id_a].state.clone() else {
        panic!("probe failed: {:?}", ledger_a.records[&id_a].state);
    };
    assert_eq!(ref_result.energies.len(), 3);

    // Leg B: same probe, but a high-priority job lands right behind it
    // on a single-worker runtime, preempting it at a step boundary. Each
    // preemption saves its capture once; nothing else touches the store.
    trace::set_enabled(true);
    let root_b = tmp("preempt_b");
    let rt = ServiceRuntime::start(ServiceConfig::new(&*root_b)).unwrap();
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
    trace::set_enabled(false);
    assert_eq!(
        span_calls(&trace::take(), "checkpoint_save"),
        ledger_b.preemptions
    );

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

#[test]
fn attempt_failed_after_a_queued_write_resumes_from_it_bitwise() {
    let _gate = fault_gate();
    faults::reset_stats();
    let spec = JobSpec {
        steps: 3,
        checkpoint_every: 1,
        ..Default::default()
    };
    let driver = || QmdDriver::new(spec.dt, Some(NoseHoover::new(spec.temperature, 2, 200.0)));

    // What the retry must reproduce: step 1 at the first rung, its
    // checkpoint (through bytes, as the store holds it), then steps 2 and 3
    // at the second rung from that checkpoint. Step 1's domain solves are
    // counted, so the fault below lands on the first one of step 2.
    let mut solver = LdcSolver::new(spec.ldc_config());
    let mut system = spec.build_system();
    let mut d1 = driver();
    trace::set_enabled(true);
    let mut want = d1.run(&mut system, &mut solver, 1).energies;
    trace::set_enabled(false);
    let step1_solves = trace::take()
        .aggregate("domain_solve")
        .map_or(0, |n| n.calls);
    assert!(step1_solves > 0);
    let ckp = d1.checkpoint(1, &system, solver.export_state());
    let ckp = Checkpoint::from_bytes(ckp.to_bytes()).unwrap();
    let mut d2 = driver();
    let (mut system, blob) = d2.restore(&ckp);
    let mut solver = LdcSolver::new(escalate(&spec.ldc_config(), 2));
    solver.import_state(&blob).unwrap();
    for _ in 1..spec.steps {
        want.extend(d2.run(&mut system, &mut solver, 1).energies);
    }

    // The first domain solve of step 2 breaks down on every rung of the
    // in-solver ladder (warm bands, their copy, scratch): attempt 1 fails
    // with step 1's checkpoint captured in memory, and saves it as it ends.
    let mut plan = FaultPlan::new();
    for at in 1..=3 {
        plan.push(
            FaultKind::DavidsonDiverge,
            Site::Domain(0),
            step1_solves + at,
        );
    }
    faults::install(plan);
    let root = tmp("fail_after_write");
    let rt = ServiceRuntime::start(ServiceConfig::new(&*root)).unwrap();
    let id = rt.submit(spec.clone()).id().unwrap();
    let ledger = rt.shutdown();
    let stats = faults::stats();
    faults::clear();

    let rec = &ledger.records[&id];
    assert_eq!(stats.injected, 3, "{stats:?}");
    assert_eq!((rec.attempts, rec.resumes), (2, 1), "{:?}", rec.state);
    let JobState::Completed(got) = rec.state.clone() else {
        panic!("job must complete on attempt 2: {:?}", rec.state);
    };
    assert_eq!(got.energies.len(), spec.steps as usize, "stitched length");
    let bits = |e: &[f64]| e.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(&got.energies), bits(&want));
    for (a, b) in got.positions.iter().zip(&system.positions) {
        assert_eq!(
            [a.x, a.y, a.z].map(f64::to_bits),
            [b.x, b.y, b.z].map(f64::to_bits)
        );
    }
    assert!(ledger.audit(4, 16).is_empty(), "{:?}", ledger.audit(4, 16));
    let left: Vec<_> = std::fs::read_dir(&*root).unwrap().collect();
    assert!(left.is_empty(), "a settled job's store outlived shutdown");
}

#[test]
fn failed_save_restarts_the_retry_from_step_zero() {
    let _gate = fault_gate();
    faults::reset_stats();
    let spec = JobSpec {
        steps: 3,
        checkpoint_every: 1,
        ..Default::default()
    };
    let driver = || QmdDriver::new(spec.dt, Some(NoseHoover::new(spec.temperature, 2, 200.0)));

    // Step 1's domain solves are counted, so the fault below lands on the
    // first one of step 2.
    let mut solver = LdcSolver::new(spec.ldc_config());
    let mut system = spec.build_system();
    trace::set_enabled(true);
    driver().run(&mut system, &mut solver, 1);
    trace::set_enabled(false);
    let step1_solves = span_calls(&trace::take(), "domain_solve");
    assert!(step1_solves > 0);

    // Attempt 1 fails on step 2, as in the test above, with step 1's
    // capture in hand. A plain file where job 1's checkpoint directory
    // should be makes its save fail, so attempt 2 has nothing to resume.
    let mut plan = FaultPlan::new();
    for at in 1..=3 {
        plan.push(
            FaultKind::DavidsonDiverge,
            Site::Domain(0),
            step1_solves + at,
        );
    }
    faults::install(plan);
    let root = tmp("failed_save");
    std::fs::create_dir_all(&*root).unwrap();
    std::fs::write(root.join("job_00000001"), b"not a directory").unwrap();
    trace::set_enabled(true);
    let rt = ServiceRuntime::start(ServiceConfig::new(&*root)).unwrap();
    let id = rt.submit(spec.clone()).id().unwrap();
    let ledger = rt.shutdown();
    trace::set_enabled(false);
    let saves = span_calls(&trace::take(), "checkpoint_save");
    let stats = faults::stats();
    faults::clear();

    let rec = &ledger.records[&id];
    assert_eq!(stats.injected, 3, "{stats:?}");
    assert_eq!(saves, 1, "attempt 1 tried to save its capture");
    assert_eq!((rec.attempts, rec.resumes), (2, 0), "{:?}", rec.state);
    assert_eq!((ledger.resumes, ledger.retries), (0, 1));
    let JobState::Completed(got) = rec.state.clone() else {
        panic!("job must complete on attempt 2: {:?}", rec.state);
    };
    // Attempt 2 ran every step from step 0 at the second rung.
    let mut solver = LdcSolver::new(escalate(&spec.ldc_config(), 2));
    let mut system = spec.build_system();
    let mut d2 = driver();
    let want: Vec<f64> = (0..spec.steps)
        .map(|_| d2.run(&mut system, &mut solver, 1).energies[0])
        .collect();
    let bits = |e: &[f64]| e.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(&got.energies), bits(&want));
    assert!(ledger.audit(4, 16).is_empty(), "{:?}", ledger.audit(4, 16));
}
