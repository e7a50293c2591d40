//! The service runtime: a bounded queue, a supervised worker pool, and a
//! shared solver pool, composed from the cancellation, fault, checkpoint,
//! and event planes.
//!
//! Concurrency structure: one mutex ([`Inner`]) guards the queue, the
//! running set, the tenant accounting, and the [`Ledger`] together, so a
//! job's state transition and its accounting are atomic — there is no
//! window in which a job is in neither the queue, nor the running set,
//! nor a terminal ledger state. A single condvar wakes both idle workers
//! (new or requeued work) and drain waiters (terminal transitions).

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mqmd_core::global::LdcSolver;
use mqmd_core::qmd::QmdDriver;
use mqmd_md::io::CheckpointStore;
use mqmd_md::thermostat::NoseHoover;
use mqmd_md::AtomicSystem;
use mqmd_util::cancel::{CancelReason, CancelScope, CancelToken};
use mqmd_util::events::{self, Event, LaneGuard};
use mqmd_util::{faults, trace, MqmdError, Xoshiro256pp};

use crate::ledger::{Admission, JobRecord, JobResult, JobState, Ledger, RejectReason};
use crate::spec::{escalate, JobSpec};

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
    /// Attempt ladder length: a job is started at most this many times
    /// (panics and retryable failures consume attempts; preemptions do
    /// not — a preempted job was not at fault).
    pub max_attempts: u32,
    /// Base backoff delay (milliseconds) for retry attempt 1; later
    /// attempts grow exponentially with seeded jitter, capped at 250 ms.
    pub backoff_base_ms: u64,
    /// Whether higher-priority arrivals preempt running lower-priority
    /// jobs (checkpoint + requeue).
    pub preemption: bool,
    /// Seed for the runtime's own stochastic choices (backoff jitter).
    pub seed: u64,
    /// Root directory for per-job checkpoint stores.
    pub checkpoint_dir: PathBuf,
    /// Retention budget per job store (valid checkpoints kept).
    pub checkpoint_keep: usize,
}

impl ServiceConfig {
    /// A small single-worker runtime writing checkpoints under `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            workers: 1,
            queue_capacity: 16,
            tenant_quota: 4,
            max_attempts: 3,
            backoff_base_ms: 2,
            preemption: true,
            seed: 0,
            checkpoint_dir: dir.into(),
            checkpoint_keep: 2,
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
    /// Per-step energies up to (and consistent with) the latest
    /// checkpoint; the stitched series ends up in [`JobResult`].
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
    /// Checkpoint written; `energies` covers exactly the checkpointed
    /// steps.
    Preempted {
        energies: Vec<f64>,
    },
    Failed {
        error: MqmdError,
        /// Energies consistent with the newest durable checkpoint (the
        /// failed attempt's progress past it is discarded).
        synced: Vec<f64>,
        wrote_checkpoint: bool,
    },
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
            energies: Vec::new(),
            consumed: Duration::ZERO,
        });
        inner.ledger.queue_depth_peak = inner.ledger.queue_depth_peak.max(inner.queue.len() as u64);

        // Preemption: if every worker is busy and one of them runs a
        // strictly lower-priority job, signal the lowest-priority (ties:
        // youngest) to checkpoint and yield at its next step boundary.
        if self.shared.cfg.preemption
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

    /// Blocks until every admitted job is terminal. Returns immediately
    /// if the runtime has no workers. A settled job's checkpoint directory
    /// may outlive its terminal state by the one `remove_dir_all` its
    /// worker makes after publishing it, so it can still exist when this
    /// returns; [`shutdown`](Self::shutdown) joins the workers and leaves
    /// none behind.
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
    let base = cfg.backoff_base_ms.max(1);
    let exp = base.saturating_mul(1 << attempt.saturating_sub(1).min(6));
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
    while let Some((job, token)) = next_job(&shared, wid) {
        let attempt_start = Instant::now();
        let over_budget = job.spec.deadline.is_some_and(|b| job.consumed >= b);
        let result = if over_budget {
            // The budget was exhausted by earlier attempts; fail without
            // starting a solve.
            Ok(ExecOutcome::Failed {
                error: MqmdError::Cancelled {
                    what: format!("job {}", job.id),
                    reason: CancelReason::Deadline,
                },
                synced: job.energies.clone(),
                wrote_checkpoint: false,
            })
        } else {
            run_attempt(&shared, wid, &job, &token)
        };
        finish_attempt(&shared, wid, job, result, attempt_start.elapsed());
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
/// attempt's solver is discarded, never returned to the pool.
fn run_attempt(
    shared: &Arc<Shared>,
    wid: usize,
    job: &QueuedJob,
    token: &CancelToken,
) -> Result<ExecOutcome, String> {
    let key = job.spec.plan_key();
    let cfg = escalate(&job.spec.ldc_config(), job.attempt);
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
        let out = execute_job(shared, job, &mut solver, token);
        (solver, out)
    }));
    match caught {
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
    }
}

/// The job loop proper: build or resume the system, integrate step by
/// step, checkpoint periodically and on preemption. Runs under an
/// installed [`CancelScope`], so deadline/shutdown abort inside the SCF
/// loops with a typed error; preemption is honoured only here, at step
/// boundaries, to keep resumes bitwise.
fn execute_job(
    shared: &Arc<Shared>,
    job: &QueuedJob,
    solver: &mut LdcSolver,
    token: &CancelToken,
) -> ExecOutcome {
    let _scope = CancelScope::install(token.clone());
    let spec = &job.spec;
    let store =
        match CheckpointStore::open(job_dir(&shared.cfg, job.id), shared.cfg.checkpoint_keep) {
            Ok(s) => s,
            Err(e) => {
                return ExecOutcome::Failed {
                    error: e,
                    synced: job.energies.clone(),
                    wrote_checkpoint: false,
                }
            }
        };
    let mut driver = QmdDriver::new(spec.dt, Some(NoseHoover::new(spec.temperature, 2, 200.0)));
    let fail = |error: MqmdError, synced: Vec<f64>, wrote: bool| ExecOutcome::Failed {
        error,
        synced,
        wrote_checkpoint: wrote,
    };

    let (mut system, start_step, mut energies) = if job.has_checkpoint {
        match store.load_latest() {
            Ok(Some(ckp)) => {
                let (system, blob) = driver.restore(&ckp);
                if let Err(e) = solver.import_state(&blob) {
                    return fail(e, job.energies.clone(), false);
                }
                // The stitched energy prefix tracks the checkpoint.
                debug_assert_eq!(job.energies.len() as u64, ckp.step);
                (system, ckp.step, job.energies.clone())
            }
            Ok(None) => {
                return fail(
                    MqmdError::Io(format!("job {} resume checkpoint missing", job.id)),
                    job.energies.clone(),
                    false,
                )
            }
            Err(e) => return fail(e, job.energies.clone(), false),
        }
    } else {
        (spec.build_system(), 0, Vec::new())
    };

    let mut synced = energies.clone();
    let mut wrote = false;
    let mut scf_iterations = 0usize;
    for step in start_step..u64::from(spec.steps) {
        match token.status() {
            Some(CancelReason::Preempt) => {
                // Step boundary: checkpoint and yield the worker.
                return match save_checkpoint(&store, &driver, step, &system, solver) {
                    Ok(_) => ExecOutcome::Preempted { energies },
                    Err(e) => fail(e, synced, wrote),
                };
            }
            Some(reason) => {
                return fail(
                    MqmdError::Cancelled {
                        what: format!("job {} at step {step}", job.id),
                        reason,
                    },
                    synced,
                    wrote,
                )
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
                    return fail(
                        MqmdError::Numerical(format!(
                            "job {} step {step} produced no energy",
                            job.id
                        )),
                        synced,
                        wrote,
                    )
                }
            },
            Err(e) => return fail(e, synced, wrote),
        }
        let done = step + 1;
        if done < u64::from(spec.steps) && done % u64::from(spec.checkpoint_every) == 0 {
            match save_checkpoint(&store, &driver, done, &system, solver) {
                Ok(_) => {
                    synced = energies.clone();
                    wrote = true;
                }
                Err(e) => return fail(e, synced, wrote),
            }
        }
    }
    ExecOutcome::Completed(JobResult {
        energies,
        positions: system.positions.clone(),
        velocities: system.velocities.clone(),
        scf_iterations,
    })
}

/// Writes the resume checkpoint after `step` completed steps inside one
/// `checkpoint` span: the solver's export and the durable save, which no
/// solver span covers.
fn save_checkpoint(
    store: &CheckpointStore,
    driver: &QmdDriver<NoseHoover>,
    step: u64,
    system: &AtomicSystem,
    solver: &LdcSolver,
) -> mqmd_util::Result<PathBuf> {
    let _span = trace::span("checkpoint");
    store.save(&driver.checkpoint(step, system, solver.export_state()))
}

fn job_dir(cfg: &ServiceConfig, id: u64) -> PathBuf {
    cfg.checkpoint_dir.join(format!("job_{id:08}"))
}

/// Applies an attempt's outcome under the scheduler lock: terminal states
/// settle the ledger and tenant accounting; preemptions and retryable
/// failures requeue. Every path lands in exactly one of those — no
/// outcome leaves a job unaccounted. The lock covers the bookkeeping only;
/// a settled job's checkpoint directory is deleted after it is released.
fn finish_attempt(
    shared: &Arc<Shared>,
    wid: usize,
    mut job: QueuedJob,
    result: Result<ExecOutcome, String>,
    elapsed: Duration,
) {
    job.consumed += elapsed;
    let cfg = &shared.cfg;
    let mut inner = shared.lock();
    inner.running.remove(&wid);
    let (id, tenant) = (job.id, job.spec.tenant);

    enum Settle {
        Terminal(JobState, &'static str, String),
        Requeue(&'static str, String),
    }
    let settle = match result {
        Ok(ExecOutcome::Completed(res)) => {
            inner.ledger.completed += 1;
            Settle::Terminal(JobState::Completed(res), "completed", String::new())
        }
        Ok(ExecOutcome::Preempted { energies }) => {
            inner.ledger.preemptions += 1;
            if let Some(rec) = inner.ledger.records.get_mut(&id) {
                rec.preemptions += 1;
            }
            // A preemption does not consume an attempt: the job was not
            // at fault, it was shed for priority.
            job.attempt = job.attempt.saturating_sub(1);
            job.energies = energies;
            job.has_checkpoint = true;
            job.ready_at = Instant::now();
            Settle::Requeue("preempted", String::new())
        }
        Ok(ExecOutcome::Failed {
            error,
            synced,
            wrote_checkpoint,
        }) => {
            job.energies = synced;
            job.has_checkpoint |= wrote_checkpoint;
            let budget_left = job.spec.deadline.is_none_or(|b| job.consumed < b);
            if retryable(&error) && job.attempt < cfg.max_attempts && budget_left {
                inner.ledger.retries += 1;
                job.ready_at = Instant::now() + backoff_delay(cfg, id, job.attempt);
                if faults::active() {
                    faults::record_recovery(
                        "serve_retry_backoff",
                        format!("job {id}"),
                        job.attempt,
                        0.0,
                    );
                }
                Settle::Requeue("retrying", error.to_string())
            } else {
                inner.ledger.failed += 1;
                if faults::active() {
                    faults::record_abort("serve_job_failed", format!("job {id}"), job.attempt);
                }
                Settle::Terminal(
                    JobState::Failed {
                        error: error.to_string(),
                    },
                    "failed",
                    error.to_string(),
                )
            }
        }
        Err(panic_msg) => {
            inner.ledger.panics_caught += 1;
            if job.attempt < cfg.max_attempts {
                inner.ledger.retries += 1;
                job.ready_at = Instant::now() + backoff_delay(cfg, id, job.attempt);
                if faults::active() {
                    faults::record_recovery(
                        "serve_requeue_after_panic",
                        format!("rank {wid}"),
                        job.attempt,
                        0.0,
                    );
                }
                Settle::Requeue("retrying", format!("panic: {panic_msg}"))
            } else {
                inner.ledger.failed += 1;
                if faults::active() {
                    faults::record_abort("serve_panic_abort", format!("rank {wid}"), job.attempt);
                }
                Settle::Terminal(
                    JobState::Failed {
                        error: format!("worker panic: {panic_msg}"),
                    },
                    "failed",
                    panic_msg,
                )
            }
        }
    };

    let (state_label, detail, settled) = match settle {
        Settle::Terminal(state, label, detail) => {
            if let Some(rec) = inner.ledger.records.get_mut(&id) {
                rec.state = state;
            }
            if let Some(active) = inner.tenant_active.get_mut(&tenant) {
                *active = active.saturating_sub(1);
            }
            (label, detail, true)
        }
        Settle::Requeue(label, detail) => {
            if let Some(rec) = inner.ledger.records.get_mut(&id) {
                rec.state = JobState::Queued;
            }
            inner.queue.push(job);
            (label, detail, false)
        }
    };
    let depth = inner.queue.len() as u32;
    let running = inner.running.len() as u32;
    drop(inner);
    emit_job_state(id, tenant, state_label, detail);
    events::emit(Event::QueueDepth { depth, running });
    shared.cv.notify_all();
    if settled {
        // The job's checkpoint store is garbage now. Deleted only after the
        // terminal state is published and the waiters are woken: filesystem
        // time under the scheduler lock would stall every submit, ledger
        // poll and the other workers' pickups.
        std::fs::remove_dir_all(job_dir(cfg, id)).ok();
    }
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
