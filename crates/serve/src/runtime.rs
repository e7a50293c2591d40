//! The service runtime: a bounded queue, a supervised worker pool, and a
//! shared solver pool, composed from the cancellation, fault, checkpoint,
//! and event planes.
//!
//! Concurrency structure: one mutex (`Inner`) guards the queue, the
//! running set, the tenant accounting, and the [`Ledger`] together, so a
//! job's state transition and its accounting are atomic — there is no
//! window in which a job is in neither the queue, nor the running set,
//! nor a terminal ledger state. A single condvar wakes both idle workers
//! (new or requeued work) and drain waiters (terminal transitions).
//!
//! Checkpoints reach disk only when an attempt ends unfinished. The worker
//! keeps the attempt's newest capture in memory; an attempt that completes
//! makes no filesystem call. One that is preempted, fails or panics saves
//! that capture itself, durably, before its progress counts, so a resume
//! reads only checkpoints an earlier attempt finished writing. A failed
//! save is the retryable [`MqmdError::Io`]. No filesystem call is made
//! under the scheduler lock: a settling job's directory is removed on its
//! worker before the job leaves the running set, so a [`drain`] that has
//! returned leaves no settled job's directory behind.
//!
//! [`drain`]: ServiceRuntime::drain

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mqmd_core::global::LdcSolver;
use mqmd_core::qmd::QmdDriver;
use mqmd_md::io::{Checkpoint, CheckpointStore};
use mqmd_md::thermostat::NoseHoover;
use mqmd_md::AtomicSystem;
use mqmd_util::cancel::{CancelReason, CancelScope, CancelToken};
use mqmd_util::events::{self, Event, LaneGuard};
use mqmd_util::{faults, trace, MqmdError, Xoshiro256pp};

use crate::ledger::{Admission, JobRecord, JobResult, JobState, Ledger, RejectReason};
use crate::spec::{escalate, JobSpec};

/// Attempt ladder length: a job is started at most this many times
/// (panics and retryable failures consume attempts; preemptions do not — a
/// preempted job was not at fault).
const MAX_ATTEMPTS: u32 = 3;
/// Base backoff delay (milliseconds) for retry attempt 1; later attempts
/// grow exponentially with seeded jitter, capped at 250 ms.
const BACKOFF_BASE_MS: u64 = 2;
/// Whether higher-priority arrivals preempt running lower-priority jobs
/// (checkpoint + requeue).
const PREEMPTION: bool = true;
/// Valid checkpoints kept per job store.
const CHECKPOINT_KEEP: usize = 2;

/// Service-plane configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads. `0` is allowed (admission-only runtime, nothing
    /// executes) and is used by admission tests.
    pub workers: usize,
    /// Global queue capacity checked at admission. Requeues (preemption,
    /// retry) bypass this bound — shed work is never dropped — so the
    /// capacity limits *admitted backlog*, not transient occupancy.
    pub queue_capacity: usize,
    /// Per-tenant in-flight cap (queued + running).
    pub tenant_quota: usize,
    /// Seed for the runtime's own stochastic choices (backoff jitter).
    pub seed: u64,
    /// Root directory for per-job checkpoint stores.
    pub checkpoint_dir: PathBuf,
}

impl ServiceConfig {
    /// A small single-worker runtime writing checkpoints under `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            workers: 1,
            queue_capacity: 16,
            tenant_quota: 4,
            seed: 0,
            checkpoint_dir: dir.into(),
        }
    }
}

/// A job sitting in the queue (freshly admitted or requeued).
struct QueuedJob {
    id: u64,
    spec: JobSpec,
    /// Attempts already started.
    attempt: u32,
    /// Not eligible to run before this instant (retry backoff).
    ready_at: Instant,
    /// Whether a resume checkpoint exists in this job's store.
    has_checkpoint: bool,
    /// Whether an attempt has saved (or tried to save) into this job's
    /// store, whose directory then goes when the job settles.
    stored: bool,
    /// Per-step energies up to (and consistent with) the newest durable
    /// checkpoint; the stitched series ends up in [`JobResult`]. A resume
    /// reads no checkpoint taken after more steps than this records.
    energies: Vec<f64>,
    /// Wall clock consumed by finished attempts (deadline accounting).
    consumed: Duration,
}

/// A job currently held by a worker.
struct RunningJob {
    id: u64,
    priority: u8,
    token: CancelToken,
}

/// Mutable scheduler state (single lock; see module docs).
struct Inner {
    queue: Vec<QueuedJob>,
    running: HashMap<usize, RunningJob>,
    /// Queued + running jobs per tenant (quota accounting).
    tenant_active: BTreeMap<u32, u64>,
    next_id: u64,
    shutdown: bool,
    ledger: Ledger,
}

struct Shared {
    cfg: ServiceConfig,
    state: Mutex<Inner>,
    cv: Condvar,
    /// Solvers pooled by plan key; checked out per attempt with job state
    /// reset, so plan caches (eig workspaces, MG hierarchy, FFT arena)
    /// are shared across jobs of the same shape.
    pool: Mutex<HashMap<String, Vec<LdcSolver>>>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A worker panic is caught before it can unwind through this
        // lock, but recover from poisoning anyway: the Inner invariants
        // are re-established before every unlock.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The checkpoint directory of `job`.
    fn job_dir(&self, job: u64) -> PathBuf {
        self.cfg.checkpoint_dir.join(format!("job_{job:08}"))
    }

    /// Opens (creating if needed) `job`'s checkpoint store.
    fn store(&self, job: u64) -> mqmd_util::Result<CheckpointStore> {
        CheckpointStore::open(self.job_dir(job), CHECKPOINT_KEEP)
    }

    fn checkout_solver(&self, key: &str, cfg: mqmd_core::global::LdcConfig) -> LdcSolver {
        let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        match pool.get_mut(key).and_then(Vec::pop) {
            Some(mut s) => {
                // Pooled scratch is bitwise-inert (pinned by the PR 3/5
                // identity tests); only job state must be wiped.
                s.reset_job_state();
                s.config = cfg;
                s
            }
            None => LdcSolver::new(cfg),
        }
    }

    fn return_solver(&self, key: String, solver: LdcSolver) {
        let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        let slot = pool.entry(key).or_default();
        // Bound pooled instances per shape; beyond that, drop.
        if slot.len() < self.cfg.workers.max(1) * 2 {
            slot.push(solver);
        }
    }
}

/// How an execution attempt ended (worker-internal).
enum ExecOutcome {
    Completed(JobResult),
    /// Yielded at a step boundary with a capture of that step.
    Preempted,
    Failed(MqmdError),
}

/// The newest point an attempt can be resumed from: the energies it covers
/// and, unless it is the checkpoint the attempt resumed from (already on
/// disk), the capture that is not saved yet.
struct Capture {
    energies: Vec<f64>,
    unsaved: Option<Checkpoint>,
}

/// The multi-tenant job runtime. Create with [`ServiceRuntime::start`],
/// feed with [`submit`](Self::submit), and finish with
/// [`shutdown`](Self::shutdown) (drains, then joins the workers).
pub struct ServiceRuntime {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl ServiceRuntime {
    /// Starts the worker pool. Creates the checkpoint root directory.
    pub fn start(cfg: ServiceConfig) -> mqmd_util::Result<Self> {
        std::fs::create_dir_all(&cfg.checkpoint_dir)?;
        let shared = Arc::new(Shared {
            cfg,
            state: Mutex::new(Inner {
                queue: Vec::new(),
                running: HashMap::new(),
                tenant_active: BTreeMap::new(),
                next_id: 1,
                shutdown: false,
                ledger: Ledger::default(),
            }),
            cv: Condvar::new(),
            pool: Mutex::new(HashMap::new()),
        });
        let handles = (0..shared.cfg.workers)
            .map(|wid| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mqmd-serve-{wid}"))
                    .spawn(move || worker_loop(shared, wid))
                    .expect("spawn service worker")
            })
            .collect();
        Ok(Self { shared, handles })
    }

    /// Admission control: validate, then check (in this order) deadline,
    /// tenant quota, queue capacity. Rejections are typed and counted;
    /// nothing is ever silently dropped.
    pub fn submit(&self, spec: JobSpec) -> Admission {
        if let Err(e) = spec.validate() {
            let mut inner = self.shared.lock();
            inner.ledger.reject(RejectReason::InvalidSpec);
            drop(inner);
            emit_job_state(0, spec.tenant, "rejected", format!("invalid_spec: {e}"));
            return Admission::Rejected(RejectReason::InvalidSpec);
        }
        let mut inner = self.shared.lock();
        let reason = if spec.deadline == Some(Duration::ZERO) {
            Some(RejectReason::OverDeadline)
        } else if inner.tenant_active.get(&spec.tenant).copied().unwrap_or(0)
            >= self.shared.cfg.tenant_quota as u64
        {
            Some(RejectReason::QuotaExceeded)
        } else if inner.queue.len() >= self.shared.cfg.queue_capacity {
            Some(RejectReason::QueueFull)
        } else {
            None
        };
        if let Some(reason) = reason {
            inner.ledger.reject(reason);
            drop(inner);
            emit_job_state(0, spec.tenant, "rejected", reason.label().to_string());
            return Admission::Rejected(reason);
        }

        let id = inner.next_id;
        inner.next_id += 1;
        let tenant = spec.tenant;
        let priority = spec.priority;
        inner.ledger.submitted += 1;
        inner.ledger.records.insert(
            id,
            JobRecord {
                id,
                tenant,
                priority,
                attempts: 0,
                preemptions: 0,
                resumes: 0,
                state: JobState::Queued,
            },
        );
        let active = inner.tenant_active.entry(tenant).or_insert(0);
        *active += 1;
        let active = *active;
        let peak = inner.ledger.tenant_peak.entry(tenant).or_insert(0);
        *peak = (*peak).max(active);
        inner.queue.push(QueuedJob {
            id,
            spec: spec.clone(),
            attempt: 0,
            ready_at: Instant::now(),
            has_checkpoint: false,
            stored: false,
            energies: Vec::new(),
            consumed: Duration::ZERO,
        });
        inner.ledger.queue_depth_peak = inner.ledger.queue_depth_peak.max(inner.queue.len() as u64);

        // Preemption: if every worker is busy and one of them runs a
        // strictly lower-priority job, signal the lowest-priority (ties:
        // youngest) to checkpoint and yield at its next step boundary.
        if PREEMPTION
            && self.shared.cfg.workers > 0
            && inner.running.len() >= self.shared.cfg.workers
        {
            if let Some(victim) = inner
                .running
                .values()
                .filter(|r| r.priority < priority && r.token.status().is_none())
                .min_by_key(|r| (r.priority, std::cmp::Reverse(r.id)))
            {
                victim.token.cancel(CancelReason::Preempt);
            }
        }
        let depth = inner.queue.len() as u32;
        let running = inner.running.len() as u32;
        drop(inner);
        emit_job_state(id, tenant, "queued", String::new());
        events::emit(Event::QueueDepth { depth, running });
        self.shared.cv.notify_all();
        Admission::Accepted(id)
    }

    /// Snapshot of the ledger (records and counters).
    pub fn ledger(&self) -> Ledger {
        self.shared.lock().ledger.clone()
    }

    /// Blocks until every admitted job is terminal. Every settled job's
    /// checkpoint directory is gone by then. Returns immediately if the
    /// runtime has no workers.
    pub fn drain(&self) {
        if self.shared.cfg.workers == 0 {
            return;
        }
        let mut inner = self.shared.lock();
        while !(inner.queue.is_empty() && inner.running.is_empty()) {
            // The timeout re-checks backoff-delayed jobs whose ready_at
            // passes without any state transition.
            inner = match self
                .shared
                .cv
                .wait_timeout(inner, Duration::from_millis(20))
            {
                Ok((g, _)) => g,
                Err(e) => e.into_inner().0,
            };
        }
    }

    /// Drains, stops the workers, and returns the final ledger.
    pub fn shutdown(mut self) -> Ledger {
        self.drain();
        {
            let mut inner = self.shared.lock();
            inner.shutdown = true;
        }
        self.shared.cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        self.shared.lock().ledger.clone()
    }

    /// The audit limits this runtime promises (for [`Ledger::audit`]).
    pub fn limits(&self) -> (usize, usize) {
        (self.shared.cfg.tenant_quota, self.shared.cfg.queue_capacity)
    }
}

impl Drop for ServiceRuntime {
    fn drop(&mut self) {
        // Let workers finish the backlog in the background and exit;
        // `shutdown()` is the orderly path and joins them.
        if let Ok(mut inner) = self.shared.state.lock() {
            inner.shutdown = true;
        }
        self.shared.cv.notify_all();
    }
}

fn emit_job_state(job: u64, tenant: u32, state: &'static str, detail: String) {
    events::emit(Event::JobState {
        job,
        tenant,
        state,
        detail,
    });
}

/// Seeded exponential backoff with jitter: deterministic in (service
/// seed, job id, attempt), so a replayed soak reproduces its schedule.
fn backoff_delay(cfg: &ServiceConfig, job: u64, attempt: u32) -> Duration {
    let mut rng = Xoshiro256pp::seed_from_u64(
        cfg.seed ^ job.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(attempt).rotate_left(32),
    );
    let exp = BACKOFF_BASE_MS.saturating_mul(1 << attempt.saturating_sub(1).min(6));
    Duration::from_millis((exp + rng.below(exp)).min(250))
}

/// Whether a failure is worth another attempt. Typed cancellations and
/// invalid specs are final; convergence, numerical, and I/O failures are
/// the transient class the retry ladder exists for.
fn retryable(e: &MqmdError) -> bool {
    matches!(
        e,
        MqmdError::Convergence { .. } | MqmdError::Numerical(_) | MqmdError::Io(_)
    )
}

fn worker_loop(shared: Arc<Shared>, wid: usize) {
    let _lane = LaneGuard::rank(wid as u32);
    while let Some((mut job, token)) = next_job(&shared, wid) {
        let attempt_start = Instant::now();
        let over_budget = job.spec.deadline.is_some_and(|b| job.consumed >= b);
        let outcome = if over_budget {
            // The budget was exhausted by earlier attempts; fail without
            // starting a solve.
            Ok(ExecOutcome::Failed(MqmdError::Cancelled {
                what: format!("job {}", job.id),
                reason: CancelReason::Deadline,
            }))
        } else {
            run_attempt(&shared, wid, &mut job, &token)
        };
        job.consumed += attempt_start.elapsed();
        finish_attempt(&shared, wid, job, outcome);
    }
}

/// Picks the best eligible job: highest priority, then oldest id. Waits
/// (bounded by the earliest backoff expiry) when nothing is eligible.
fn next_job(shared: &Arc<Shared>, wid: usize) -> Option<(QueuedJob, CancelToken)> {
    let mut inner = shared.lock();
    loop {
        if inner.shutdown && inner.queue.is_empty() {
            return None;
        }
        let now = Instant::now();
        let best = inner
            .queue
            .iter()
            .enumerate()
            .filter(|(_, j)| j.ready_at <= now)
            .max_by_key(|(_, j)| (j.spec.priority, std::cmp::Reverse(j.id)))
            .map(|(i, _)| i);
        if let Some(i) = best {
            let mut job = inner.queue.remove(i);
            job.attempt += 1;
            let token = CancelToken::new();
            if let Some(budget) = job.spec.deadline {
                token.set_budget(budget.saturating_sub(job.consumed));
            }
            let resumed = job.has_checkpoint;
            if resumed {
                inner.ledger.resumes += 1;
            }
            if let Some(rec) = inner.ledger.records.get_mut(&job.id) {
                rec.attempts = job.attempt;
                rec.state = JobState::Running;
                if resumed {
                    rec.resumes += 1;
                }
            }
            inner.running.insert(
                wid,
                RunningJob {
                    id: job.id,
                    priority: job.spec.priority,
                    token: token.clone(),
                },
            );
            let (id, tenant) = (job.id, job.spec.tenant);
            let depth = inner.queue.len() as u32;
            let running = inner.running.len() as u32;
            drop(inner);
            emit_job_state(
                id,
                tenant,
                "running",
                format!(
                    "attempt {}{}",
                    job.attempt,
                    if resumed { " (resume)" } else { "" }
                ),
            );
            events::emit(Event::QueueDepth { depth, running });
            return Some((job, token));
        }
        let earliest = inner.queue.iter().map(|j| j.ready_at).min();
        inner = match earliest {
            Some(t) => {
                let wait = t
                    .saturating_duration_since(now)
                    .max(Duration::from_millis(1));
                match shared.cv.wait_timeout(inner, wait) {
                    Ok((g, _)) => g,
                    Err(e) => e.into_inner().0,
                }
            }
            None => match shared.cv.wait(inner) {
                Ok(g) => g,
                Err(e) => e.into_inner(),
            },
        };
    }
}

/// Runs one supervised attempt: fault poll, solver checkout, execution.
/// Panics (genuine or injected `WorkerKill`) are caught here; a panicking
/// attempt's solver is discarded, never returned to the pool. An attempt
/// that does not complete may be resumed, so it ends by saving its newest
/// capture and recording in `job` what of its progress is durable. Returns
/// how the attempt ended; `Err` is a panic, with its message.
fn run_attempt(
    shared: &Arc<Shared>,
    wid: usize,
    job: &mut QueuedJob,
    token: &CancelToken,
) -> Result<ExecOutcome, String> {
    let key = job.spec.plan_key();
    let cfg = escalate(&job.spec.ldc_config(), job.attempt);
    let mut newest = None;
    let caught = catch_unwind(AssertUnwindSafe(|| {
        // Per-pickup fault poll: this is where an injected worker kill
        // or straggler lands (inside the supervision boundary).
        match faults::poll(faults::Site::Rank(wid as u64)) {
            Some(faults::FaultKind::WorkerKill) => {
                panic!("injected worker kill (rank {wid})");
            }
            Some(faults::FaultKind::Straggler { delay_us }) => {
                std::thread::sleep(Duration::from_micros(delay_us));
                faults::record_recovery(
                    "serve_straggler_absorbed",
                    format!("rank {wid}"),
                    job.attempt,
                    delay_us as f64 * 1e-6,
                );
            }
            _ => {}
        }
        let mut solver = shared.checkout_solver(&key, cfg);
        let out = execute_job(shared, job, &mut solver, token, &mut newest);
        (solver, out)
    }));
    let outcome = match caught {
        Ok((solver, out)) => {
            shared.return_solver(key, solver);
            Ok(out)
        }
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "worker panic".into());
            Err(msg)
        }
    };
    if let Ok(ExecOutcome::Completed(_)) = outcome {
        return outcome;
    }
    let Some(Capture { energies, unsaved }) = newest else {
        return outcome;
    };
    if let Some(ckp) = unsaved {
        job.stored = true;
        if let Err(e) = save_checkpoint(shared, job.id, &ckp) {
            // The job keeps its earlier record. A preemption whose
            // checkpoint did not land has nothing to resume from: it
            // fails, retryably.
            return match outcome {
                Ok(ExecOutcome::Preempted) => Ok(ExecOutcome::Failed(e)),
                other => other,
            };
        }
    }
    job.energies = energies;
    job.has_checkpoint = true;
    outcome
}

/// The job loop proper: build or resume the system, integrate step by
/// step, capture a checkpoint periodically and on preemption. Runs under
/// an installed [`CancelScope`], so deadline/shutdown abort inside the SCF
/// loops with a typed error; preemption is honoured only here, at step
/// boundaries, to keep resumes bitwise. `newest` tracks the checkpoint
/// resumed from or the newest capture.
fn execute_job(
    shared: &Arc<Shared>,
    job: &QueuedJob,
    solver: &mut LdcSolver,
    token: &CancelToken,
    newest: &mut Option<Capture>,
) -> ExecOutcome {
    let _scope = CancelScope::install(token.clone());
    let spec = &job.spec;
    let mut driver = QmdDriver::new(spec.dt, Some(NoseHoover::new(spec.temperature, 2, 200.0)));

    // Every checkpoint on disk was saved whole at the end of an earlier
    // attempt. Resume from the newest valid one the energy record reaches;
    // if rollback past corrupt files leaves none, start over.
    let resume = if job.has_checkpoint {
        let at_most = job.energies.len() as u64;
        match shared
            .store(job.id)
            .and_then(|store| store.load_latest_at_most(at_most))
        {
            Ok(ckp) => ckp,
            Err(e) => return ExecOutcome::Failed(e),
        }
    } else {
        None
    };
    let (mut system, start_step, mut energies) = match resume {
        Some(ckp) => {
            let (system, blob) = driver.restore(&ckp);
            if let Err(e) = solver.import_state(&blob) {
                return ExecOutcome::Failed(e);
            }
            let energies = job.energies[..ckp.step as usize].to_vec();
            *newest = Some(Capture {
                energies: energies.clone(),
                unsaved: None,
            });
            (system, ckp.step, energies)
        }
        None => (spec.build_system(), 0, Vec::new()),
    };

    let mut scf_iterations = 0usize;
    for step in start_step..u64::from(spec.steps) {
        match token.status() {
            Some(CancelReason::Preempt) => {
                // Step boundary: capture (unless the newest capture already
                // holds this step) and yield the worker.
                if newest.as_ref().map(|c| c.energies.len()) != Some(energies.len()) {
                    *newest = Some(capture(&driver, &system, solver, energies));
                }
                return ExecOutcome::Preempted;
            }
            Some(reason) => {
                return ExecOutcome::Failed(MqmdError::Cancelled {
                    what: format!("job {} at step {step}", job.id),
                    reason,
                })
            }
            None => {}
        }
        match driver.try_run(&mut system, solver, 1) {
            Ok(report) => match report.energies.last() {
                Some(&e) => {
                    energies.push(e);
                    scf_iterations += report.scf_iterations;
                }
                None => {
                    return ExecOutcome::Failed(MqmdError::Numerical(format!(
                        "job {} step {step} produced no energy",
                        job.id
                    )))
                }
            },
            Err(e) => return ExecOutcome::Failed(e),
        }
        let done = step + 1;
        if done < u64::from(spec.steps) && done % u64::from(spec.checkpoint_every) == 0 {
            *newest = Some(capture(&driver, &system, solver, energies.clone()));
        }
    }
    ExecOutcome::Completed(JobResult {
        energies,
        positions: system.positions.clone(),
        velocities: system.velocities.clone(),
        scf_iterations,
    })
}

/// Captures the resume checkpoint after `energies.len()` completed steps
/// inside one `checkpoint` span — the solver's export, which no solver
/// span covers. It stays in memory until the attempt ends.
fn capture(
    driver: &QmdDriver<NoseHoover>,
    system: &AtomicSystem,
    solver: &LdcSolver,
    energies: Vec<f64>,
) -> Capture {
    let _span = trace::span("checkpoint");
    let ckp = driver.checkpoint(energies.len() as u64, system, solver.export_state());
    Capture {
        energies,
        unsaved: Some(ckp),
    }
}

/// Makes `ckp` durable in `job`'s store inside one `checkpoint_save` span:
/// one write, fsync, rename, directory fsync and retention pass. A panic
/// inside the save is a failed save, so the worker survives it.
fn save_checkpoint(shared: &Shared, job: u64, ckp: &Checkpoint) -> mqmd_util::Result<()> {
    let _span = trace::span("checkpoint_save");
    catch_unwind(AssertUnwindSafe(|| shared.store(job)?.save(ckp)))
        .unwrap_or_else(|_| {
            Err(MqmdError::Io(format!(
                "checkpoint save of job {job} at step {} panicked",
                ckp.step
            )))
        })
        .map(drop)
}

/// Where a finished attempt leaves its job.
enum Settle {
    Completed(JobResult),
    /// Requeued at once: a preemption does not consume an attempt.
    Preempted,
    /// Requeued after a backoff, for the reason given.
    Retry(String),
    /// Terminally failed: the record's error and the event's detail.
    Failed(String, String),
}

/// Applies an attempt's outcome. Terminal states settle the ledger and
/// tenant accounting; preemptions and retryable failures requeue. Every
/// path lands in exactly one of those — no outcome leaves a job
/// unaccounted. The decision is made before the scheduler lock is taken,
/// so a settling job's checkpoint directory is removed here, off the lock
/// but while the job still counts as running: a drain that sees the job
/// terminal also sees its directory gone.
fn finish_attempt(
    shared: &Arc<Shared>,
    wid: usize,
    mut job: QueuedJob,
    outcome: Result<ExecOutcome, String>,
) {
    let (id, tenant) = (job.id, job.spec.tenant);
    let panicked = outcome.is_err();
    let retry_left = job.attempt < MAX_ATTEMPTS;
    let settle = match outcome {
        Ok(ExecOutcome::Completed(res)) => Settle::Completed(res),
        Ok(ExecOutcome::Preempted) => {
            // The job was not at fault, it was shed for priority.
            job.attempt = job.attempt.saturating_sub(1);
            job.ready_at = Instant::now();
            Settle::Preempted
        }
        Ok(ExecOutcome::Failed(error)) => {
            let budget_left = job.spec.deadline.is_none_or(|b| job.consumed < b);
            if retryable(&error) && retry_left && budget_left {
                job.ready_at = Instant::now() + backoff_delay(&shared.cfg, id, job.attempt);
                if faults::active() {
                    faults::record_recovery(
                        "serve_retry_backoff",
                        format!("job {id}"),
                        job.attempt,
                        0.0,
                    );
                }
                Settle::Retry(error.to_string())
            } else {
                if faults::active() {
                    faults::record_abort("serve_job_failed", format!("job {id}"), job.attempt);
                }
                Settle::Failed(error.to_string(), error.to_string())
            }
        }
        Err(panic_msg) => {
            if retry_left {
                job.ready_at = Instant::now() + backoff_delay(&shared.cfg, id, job.attempt);
                if faults::active() {
                    faults::record_recovery(
                        "serve_requeue_after_panic",
                        format!("rank {wid}"),
                        job.attempt,
                        0.0,
                    );
                }
                Settle::Retry(format!("panic: {panic_msg}"))
            } else {
                if faults::active() {
                    faults::record_abort("serve_panic_abort", format!("rank {wid}"), job.attempt);
                }
                Settle::Failed(format!("worker panic: {panic_msg}"), panic_msg)
            }
        }
    };
    if job.stored && matches!(settle, Settle::Completed(_) | Settle::Failed(..)) {
        // The job's checkpoint store is garbage now.
        std::fs::remove_dir_all(shared.job_dir(id)).ok();
    }

    let mut inner = shared.lock();
    inner.running.remove(&wid);
    let ledger = &mut inner.ledger;
    ledger.panics_caught += u64::from(panicked);
    let (label, detail, terminal) = match settle {
        Settle::Completed(res) => {
            ledger.completed += 1;
            ("completed", String::new(), Some(JobState::Completed(res)))
        }
        Settle::Preempted => {
            ledger.preemptions += 1;
            if let Some(rec) = ledger.records.get_mut(&id) {
                rec.preemptions += 1;
            }
            ("preempted", String::new(), None)
        }
        Settle::Retry(detail) => {
            ledger.retries += 1;
            ("retrying", detail, None)
        }
        Settle::Failed(error, detail) => {
            ledger.failed += 1;
            ("failed", detail, Some(JobState::Failed { error }))
        }
    };
    match terminal {
        Some(state) => {
            if let Some(rec) = inner.ledger.records.get_mut(&id) {
                rec.state = state;
            }
            if let Some(active) = inner.tenant_active.get_mut(&tenant) {
                *active = active.saturating_sub(1);
            }
        }
        None => {
            if let Some(rec) = inner.ledger.records.get_mut(&id) {
                rec.state = JobState::Queued;
            }
            inner.queue.push(job);
        }
    }
    let depth = inner.queue.len() as u32;
    let running = inner.running.len() as u32;
    drop(inner);
    emit_job_state(id, tenant, label, detail);
    events::emit(Event::QueueDepth { depth, running });
    shared.cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_seeded_and_grows() {
        let cfg = ServiceConfig::new(std::env::temp_dir());
        let a1 = backoff_delay(&cfg, 7, 1);
        let a1_again = backoff_delay(&cfg, 7, 1);
        assert_eq!(a1, a1_again, "backoff must be deterministic");
        let a3 = backoff_delay(&cfg, 7, 3);
        assert!(a3 >= a1, "later attempts back off at least as long");
        assert!(backoff_delay(&cfg, 7, 30) <= Duration::from_millis(250));
        // Different jobs jitter apart (not a hard guarantee per pair, but
        // these seeds do differ).
        assert_ne!(backoff_delay(&cfg, 1, 2), backoff_delay(&cfg, 2, 2));
    }

    #[test]
    fn retryable_classification() {
        assert!(retryable(&MqmdError::Numerical("x".into())));
        assert!(retryable(&MqmdError::Io("x".into())));
        assert!(retryable(&MqmdError::Convergence {
            what: "scf".into(),
            iterations: 9,
            residual: 1.0,
        }));
        assert!(!retryable(&MqmdError::Invalid("x".into())));
        assert!(!retryable(&MqmdError::Cancelled {
            what: "job".into(),
            reason: CancelReason::Deadline,
        }));
    }
}
