//! `serve_h2_mix`: many short H₂ jobs through `ServiceRuntime` with two
//! single-threaded workers; completion is observed by polling `ledger()`.
//!
//! What is gated is the closed loop of **one client**: a job is submitted
//! when the previous one is terminal and timed from submission to terminal
//! state. That is the service's unloaded latency — every per-job cost
//! (admission, solver pool, SCF, checkpoints, dispatch) with nothing else in
//! flight — and, as jobs per second of the phase, its single-stream
//! throughput. One worker computes at a time, in set-up too.
//!
//! What is *not* gated is anything that needs both workers busy at once. How
//! much the second worker buys is decided by where the host puts the
//! container's two virtual CPUs, and that changes within the hour: the same
//! binary and seed gave a burst 3.1 jobs/s with one-client latency 0.31 s,
//! and later 4.0 jobs/s with 0.34 s (two workers 1.2× one, then 1.5×), and
//! the same job takes 0.3 s alone and 0.45–0.55 s beside a busy worker. A
//! traced run still drives both loaded phases and reports them among the
//! per-layer metrics, which carry no bound:
//!
//! * **burst** — every job due at once: completed jobs per second with both
//!   workers busy throughout;
//! * **open loop** — a seeded Poisson schedule, each job timed from when it
//!   was *due*, with its latency limit. Overlap is left to chance there, so
//!   the latency is bimodal: its median moved by 40 % between seeds at 1.5
//!   jobs/s and at 2.5 jobs/s alike.

use super::{Outcome, RunArgs};
use crate::layers::{self, OpTotals};
use crate::probes::{self, Shape};
use crate::procfs::{self, CpuTimes};
use crate::stats::{median, quantile};
use metascale_qmd::core::global::LdcSolver;
use metascale_qmd::serve::{
    Admission, Geometry, JobSpec, JobState, Ledger, ServiceConfig, ServiceRuntime,
};
use metascale_qmd::util::trace;
use metascale_qmd::util::Xoshiro256pp;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
const TENANTS: u32 = 4;
/// Two cell sizes, so two `plan_key`s share the solver pool.
const CELLS: [f64; 2] = [8.0, 9.6];
/// The one-client phase is sized for `--seconds`, and a traced run's burst
/// for half of it, at the rate the service sustained when the benchmark was
/// defined (jobs/s with one client, and with both workers busy), in whole
/// blocks of [`MIX_BLOCK`]: a faster service finishes sooner instead of
/// being handed more work.
const ONE_CLIENT_JOBS_PER_S: f64 = 2.2;
const BURST_JOBS_PER_S: f64 = 3.2;
/// Jobs in one period of the mix: both cells × (three 2-step + one 4-step).
const MIX_BLOCK: usize = 8;
/// Open-loop arrival rate (jobs/s), under half of [`BURST_JOBS_PER_S`].
pub const OPEN_RATE: f64 = 1.5;
/// Share of `--seconds` the open loop's schedule spans.
const OPEN_SHARE: f64 = 2.0 / 3.0;
/// The latency limit the service is held to at [`OPEN_RATE`]: p90 from due
/// to terminal.
pub const LATENCY_LIMIT_S: f64 = 2.0;
/// Initial temperature of every job (K); cold for the reason given in
/// `qmd.rs`: the SCF iterations a job needs must not depend on the seed.
const TEMPERATURE_K: f64 = 3.0;
const POLL: Duration = Duration::from_millis(1);
/// A phase that has not drained by now is abandoned; its unfinished jobs
/// count as failed. Keeps a wedged service from outliving the run's cap.
const PHASE_DEADLINE: Duration = Duration::from_secs(90);
/// Quotas high enough that nothing is refused: admission control is not
/// what this workload measures.
const NO_LIMIT: usize = 1 << 16;

/// `n` jobs that carry the same work whatever the seed: job `i` of `n` has
/// its cell, step count (a quarter run 4 steps instead of 2), bond length
/// (evenly spaced over 1.3–1.5 Bohr) and tenant fixed by `i`. The seed
/// decides the order the jobs arrive in and their initial velocities.
pub fn job_mix(rng: &mut Xoshiro256pp, n: usize) -> Vec<JobSpec> {
    let mut jobs: Vec<JobSpec> = (0..n)
        .map(|i| JobSpec {
            tenant: i as u32 % TENANTS,
            geometry: Geometry::H2 {
                cell: CELLS[i % 2],
                bond: 1.3 + 0.2 * (i as f64 + 0.5) / n as f64,
            },
            steps: if (i / 2) % 4 == 3 { 4 } else { 2 },
            temperature: TEMPERATURE_K,
            seed: rng.next_u64() >> 16,
            checkpoint_every: 1,
            ..JobSpec::default()
        })
        .collect();
    rng.shuffle(&mut jobs);
    jobs
}

/// Due times (seconds from the start of the phase) of `n` Poisson arrivals
/// at `rate` per second: a pure function of the seed.
pub fn poisson_schedule(seed: u64, n: usize, rate: f64) -> Vec<f64> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x5C4E_D01E);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += rng.exponential(rate);
            t
        })
        .collect()
}

/// What polling saw of one job.
#[derive(Clone, Copy)]
struct JobTimes {
    steps: u32,
    due: Instant,
    submitted: Instant,
    submit_us: f64,
    running: Option<Instant>,
    terminal: Option<Instant>,
}

impl JobTimes {
    /// Due → terminal; a job that never finished missed every limit.
    fn latency_s(&self) -> f64 {
        self.terminal
            .map_or(f64::INFINITY, |t| (t - self.due).as_secs_f64())
    }
    fn queue_wait_s(&self) -> f64 {
        self.running.map_or(0.0, |t| (t - self.due).as_secs_f64())
    }
    fn service_s(&self) -> f64 {
        match (self.running, self.terminal) {
            (Some(r), Some(t)) => (t - r).as_secs_f64(),
            _ => 0.0,
        }
    }
}

type Jobs = BTreeMap<u64, JobTimes>;

/// One runtime plus everything the harness observes about it.
struct Service {
    runtime: ServiceRuntime,
    jobs: Jobs,
    refused: u64,
    polls: Vec<Instant>,
}

impl Service {
    /// Starts the runtime and runs one warm-up job per cell, one after the
    /// other, so the solver pool holds a planned solver for every
    /// `plan_key`: all that one client at a time can use.
    fn start(dir: &Path, workers: usize, rng: &mut Xoshiro256pp) -> Result<Service, String> {
        let runtime = ServiceRuntime::start(ServiceConfig {
            workers,
            queue_capacity: NO_LIMIT,
            tenant_quota: NO_LIMIT,
            ..ServiceConfig::new(dir)
        })
        .map_err(|e| format!("ServiceRuntime::start: {e}"))?;
        let mut s = Service {
            runtime,
            jobs: Jobs::new(),
            refused: 0,
            polls: Vec::new(),
        };
        s.warm_up(rng, 1);
        Ok(s)
    }

    /// Runs `at_once` one-step jobs per cell, those of one cell together
    /// and the cells in turn, which leaves `at_once` planned solvers per
    /// `plan_key` in the pool whatever the seed. They stay in the ledger
    /// but are not among the jobs the harness reports.
    fn warm_up(&mut self, rng: &mut Xoshiro256pp, at_once: usize) {
        for spec in job_mix(rng, CELLS.len()) {
            for _ in 0..at_once {
                let spec = JobSpec {
                    steps: 1,
                    ..spec.clone()
                };
                self.submit(spec, Instant::now());
            }
            self.runtime.drain();
        }
        self.jobs.clear();
    }

    fn submit(&mut self, spec: JobSpec, due: Instant) {
        let steps = spec.steps;
        let submitted = Instant::now();
        let admission = self.runtime.submit(spec);
        let submit_us = submitted.elapsed().as_secs_f64() * 1e6;
        match admission {
            Admission::Accepted(id) => {
                self.jobs.insert(
                    id,
                    JobTimes {
                        steps,
                        due,
                        submitted,
                        submit_us,
                        running: None,
                        terminal: None,
                    },
                );
            }
            Admission::Rejected(_) => self.refused += 1,
        }
    }

    /// One look at the ledger; returns how many jobs are terminal.
    fn poll(&mut self) -> usize {
        let ledger = self.runtime.ledger();
        let now = Instant::now();
        self.polls.push(now);
        let mut terminal = 0;
        for (id, t) in &mut self.jobs {
            let Some(rec) = ledger.records.get(id) else {
                continue;
            };
            if t.running.is_none() && rec.state != JobState::Queued {
                t.running = Some(now);
            }
            if t.terminal.is_none() && rec.state.is_terminal() {
                t.terminal = Some(now);
            }
            terminal += usize::from(t.terminal.is_some());
        }
        terminal
    }

    /// Submits `jobs` at their due times (seconds from now), polls until
    /// all are terminal, and hands back what it saw of them.
    fn drive(&mut self, jobs: Vec<JobSpec>, due_s: &[f64]) -> Jobs {
        let t0 = Instant::now();
        let n = jobs.len();
        let mut jobs = jobs.into_iter();
        let mut next = 0;
        loop {
            while next < n && t0.elapsed().as_secs_f64() >= due_s[next] {
                let spec = jobs.next().expect("one spec per due time");
                self.submit(spec, t0 + Duration::from_secs_f64(due_s[next]));
                next += 1;
            }
            let terminal = self.poll();
            if (next == n && terminal == self.jobs.len()) || t0.elapsed() > PHASE_DEADLINE {
                return std::mem::take(&mut self.jobs);
            }
            std::thread::sleep(POLL);
        }
    }

    /// A closed burst: all of `jobs` due now.
    fn burst(&mut self, jobs: Vec<JobSpec>) -> Jobs {
        let due = vec![0.0; jobs.len()];
        self.drive(jobs, &due)
    }
}

/// Completed jobs per second of a burst: first submit → last terminal.
fn jobs_per_s(jobs: &Jobs) -> f64 {
    let first = jobs.values().map(|t| t.submitted).min();
    let last = jobs.values().filter_map(|t| t.terminal).max();
    match (first, last) {
        (Some(a), Some(b)) if b > a => jobs.len() as f64 / (b - a).as_secs_f64(),
        _ => 0.0,
    }
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::new();
    let dir = crate::out_dir().join(format!("serve-ckpt.{}", std::process::id()));
    if let Err(e) = measure(args, &dir, &mut out) {
        out.attempted += 1;
        out.check("service_ran", false, e);
    }
    std::fs::remove_dir_all(&dir).ok();
    out
}

fn measure(args: &RunArgs, dir: &Path, out: &mut Outcome) -> Result<(), String> {
    let mut rng = Xoshiro256pp::seed_from_u64(args.seed);
    let reps = if args.smoke { 1 } else { 3 };
    let mut service = None;
    for rep in 0..reps {
        if let Some(Service { runtime, .. }) = service.take() {
            runtime.shutdown();
        }
        let t0 = if rep == 0 {
            args.started
        } else {
            Instant::now()
        };
        service = Some(Service::start(
            &dir.join(format!("rep{rep}")),
            WORKERS,
            &mut rng,
        )?);
        out.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut service = service.expect("at least one set-up");

    // One client. A traced run traces every other job of each kind (cell
    // and step count), so the tracing overhead is a comparison of like with
    // like.
    let blocks = |seconds: f64, jobs_per_s: f64| {
        if args.smoke {
            // A traced and an untraced job of each cell.
            2 * CELLS.len()
        } else {
            MIX_BLOCK * ((seconds * jobs_per_s / MIX_BLOCK as f64).round() as usize).max(1)
        }
    };
    let cpu0 = CpuTimes::now();
    let began = Instant::now();
    let mut lone = Jobs::new();
    let mut traced_ids = Vec::new();
    let mut seen = BTreeMap::new();
    for spec in job_mix(&mut rng, blocks(args.seconds, ONE_CLIENT_JOBS_PER_S)) {
        let of_its_kind: &mut usize = seen.entry((spec.plan_key(), spec.steps)).or_default();
        let trace_this = args.trace && of_its_kind.is_multiple_of(2);
        *of_its_kind += 1;
        trace::set_enabled(trace_this);
        let job = service.burst(vec![spec]);
        trace::set_enabled(false);
        if trace_this {
            traced_ids.extend(job.keys().copied());
        }
        lone.extend(job);
    }
    let wall = began.elapsed().as_secs_f64();
    let cpu = CpuTimes::now().since(&cpu0);
    let tree = trace::take();
    out.op_s = lone.values().map(JobTimes::latency_s).collect();
    out.ops_per_s = lone.len() as f64 / wall;
    out.cpu_s_per_op = cpu.total() / lone.len().max(1) as f64;
    let mut service_s = 0.0;
    for (&id, t) in &lone {
        record_job(out, id, t);
        service_s += t.service_s();
    }

    // The loaded phases, traced runs only.
    let (mut burst, mut open) = (Jobs::new(), Jobs::new());
    if args.trace {
        let l = &mut out.layers;
        l.set("threads.sys_cpu_frac", cpu.sys / cpu.total().max(1e-9));
        l.set("threads.cpu_util", cpu.total() / wall);
        lone_layers(&lone, &traced_ids, &tree, out);
        service.warm_up(&mut rng, WORKERS);
        let n = blocks(args.seconds / 2.0, BURST_JOBS_PER_S);
        burst = service.burst(job_mix(&mut rng, n));
        out.layers.set("serve.burst_jobs_per_s", jobs_per_s(&burst));
        for (&id, t) in &burst {
            record_job(out, id, t);
        }
        open = open_loop(args, &mut service, &mut rng, out);
        let loaded = burst.values().chain(open.values());
        service_s += loaded.map(JobTimes::service_s).sum::<f64>();
    }

    let (quota, capacity) = service.runtime.limits();
    let refused = service.refused;
    let ledger = service.runtime.shutdown();
    out.attempted = (lone.len() + burst.len() + open.len()) as u64 + refused;
    out.peak_rss_mb = procfs::peak_rss_mb();
    let ids = lone.keys().chain(burst.keys()).chain(open.keys());
    check_ledger(out, &ledger, ids, refused, quota, capacity);
    if args.trace {
        ledger_layers(&ledger, refused, service_s, out);
        one_worker_and_probes(args, dir, &mut rng, out)?;
    }
    Ok(())
}

/// The harness spans of one job: due → terminal, split at the moment a
/// worker picked it up.
fn record_job(out: &mut Outcome, id: u64, t: &JobTimes) {
    let job = out
        .recorder
        .record("job", t.due, t.terminal.unwrap_or(t.due), None, id);
    out.recorder.record(
        "submit",
        t.submitted,
        t.submitted + Duration::from_secs_f64(t.submit_us * 1e-6),
        Some(job),
        id,
    );
    if let (Some(r), Some(e)) = (t.running, t.terminal) {
        out.recorder.record("queued", t.due, r, Some(job), id);
        out.recorder.record("service", r, e, Some(job), id);
    }
}

/// Span-tree metrics of the one-client phase's traced jobs, and the tracing
/// overhead: service seconds per MD step of traced against untraced jobs.
fn lone_layers(lone: &Jobs, traced_ids: &[u64], tree: &trace::TraceNode, out: &mut Outcome) {
    let pick = |on: bool| -> Vec<&JobTimes> {
        lone.iter()
            .filter(|(id, _)| traced_ids.contains(id) == on)
            .map(|(_, t)| t)
            .collect()
    };
    let (on, off) = (pick(true), pick(false));
    let on_s: f64 = on.iter().map(|t| t.service_s()).sum();
    layers::from_trace(
        tree,
        &OpTotals {
            ops: on.len() as f64,
            wall_s: on_s,
            inner_s: on_s,
        },
        &mut out.layers,
    );
    if !off.is_empty() && !on.is_empty() {
        let per_step = |jobs: &[&JobTimes]| {
            let each: Vec<f64> = jobs
                .iter()
                .map(|t| t.service_s() / f64::from(t.steps))
                .collect();
            median(&each)
        };
        out.layers.set(
            "util.trace_overhead_frac",
            per_step(&on) / per_step(&off) - 1.0,
        );
    }
}

/// The open loop of a traced run: Poisson arrivals at [`OPEN_RATE`], every
/// job timed from the instant it was due.
fn open_loop(
    args: &RunArgs,
    service: &mut Service,
    rng: &mut Xoshiro256pp,
    out: &mut Outcome,
) -> Jobs {
    let n = if args.smoke {
        2
    } else {
        ((args.seconds * OPEN_SHARE * OPEN_RATE).round() as usize).max(2)
    };
    service.polls.clear();
    let began = Instant::now();
    let schedule = poisson_schedule(args.seed, n, OPEN_RATE);
    let jobs = service.drive(job_mix(rng, n), &schedule);
    let wall = began.elapsed().as_secs_f64();
    for (&id, t) in &jobs {
        record_job(out, id, t);
    }

    let col = |f: fn(&JobTimes) -> f64| -> Vec<f64> { jobs.values().map(f).collect() };
    let (latencies, waits, services) = (
        col(JobTimes::latency_s),
        col(JobTimes::queue_wait_s),
        col(JobTimes::service_s),
    );
    let p90 = quantile(&latencies, 0.9);
    println!(
        "note   open loop: {n} jobs at {OPEN_RATE} jobs/s, latency p50 {:.3} s, p90 {p90:.3} s; \
         limit p90 <= {LATENCY_LIMIT_S} s {}",
        median(&latencies),
        if p90 <= LATENCY_LIMIT_S {
            "met"
        } else {
            "MISSED"
        }
    );
    let l = &mut out.layers;
    l.set("serve.submit_us_p50", median(&col(|t| t.submit_us)));
    l.set("serve.open_latency_s_p50", median(&latencies));
    l.set("serve.open_latency_s_p90", p90);
    l.set("serve.queue_wait_s_p50", median(&waits));
    l.set("serve.queue_wait_s_p90", quantile(&waits, 0.9));
    l.set("serve.service_s_p50", median(&services));
    l.set("serve.service_s_p90", quantile(&services, 0.9));
    l.set(
        "serve.worker_util",
        services.iter().sum::<f64>() / (WORKERS as f64 * wall),
    );
    l.set(
        "serve.generator_late_ms_max",
        col(|t| t.submitted.saturating_duration_since(t.due).as_secs_f64() * 1e3)
            .into_iter()
            .fold(0.0, f64::max),
    );
    let gaps: Vec<f64> = service
        .polls
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
        .collect();
    l.set("serve.poll_period_ms", median(&gaps));
    jobs
}

/// `service_s`: seconds the jobs of this run spent with a worker.
fn ledger_layers(ledger: &Ledger, refused: u64, service_s: f64, out: &mut Outcome) {
    let records = &ledger.records;
    let jobs = records.len().max(1) as f64;
    let scf: f64 = records
        .values()
        .filter_map(|r| match &r.state {
            JobState::Completed(res) => Some(res.scf_iterations as f64),
            _ => None,
        })
        .sum();
    let l = &mut out.layers;
    l.set("serve.queue_depth_peak", ledger.queue_depth_peak as f64);
    l.set(
        "serve.attempts_per_job",
        records.values().map(|r| f64::from(r.attempts)).sum::<f64>() / jobs,
    );
    l.set("serve.rejected", refused as f64);
    l.set("core.scf_iters_per_op", scf / jobs);
    // Two atoms per job. The ledger also holds the warm-up jobs, whose
    // service time was not observed; they are a few percent of the total.
    l.set("core.atom_iter_per_s", 2.0 * scf / service_s.max(1e-9));
}

/// What the second worker buys (the same mix on one worker), and the probes
/// at the shape of one job, with the solver payload its checkpoints carry.
fn one_worker_and_probes(
    args: &RunArgs,
    dir: &Path,
    rng: &mut Xoshiro256pp,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut single = Service::start(&dir.join("w1"), 1, rng)?;
    let n = if args.smoke { 2 } else { MIX_BLOCK };
    let burst = single.burst(job_mix(rng, n));
    single.runtime.shutdown();
    let two_workers = out.layers.0.get("serve.burst_jobs_per_s").copied();
    out.layers.set(
        "serve.w2_over_w1",
        two_workers.unwrap_or(0.0) / jobs_per_s(&burst).max(1e-9),
    );

    let spec = job_mix(&mut Xoshiro256pp::seed_from_u64(args.seed), 1).remove(0);
    let system = spec.build_system();
    let mut solver = LdcSolver::new(spec.ldc_config());
    let solver_state = solver.solve(&system).ok().map(|_| solver.export_state());
    probes::run_all(
        &Shape {
            system,
            cfg: spec.ldc_config(),
            solver_state,
            out_dir: crate::out_dir(),
        },
        &mut out.layers,
    );
    Ok(())
}

/// Every job `Completed` on its first attempt, nothing refused, and the
/// ledger's own audit clean.
fn check_ledger<'a>(
    out: &mut Outcome,
    ledger: &Ledger,
    ids: impl Iterator<Item = &'a u64>,
    refused: u64,
    quota: usize,
    capacity: usize,
) {
    let mut jobs = 0;
    let bad: Vec<u64> = ids
        .inspect(|_| jobs += 1)
        .filter(|id| {
            !ledger
                .records
                .get(*id)
                .is_some_and(|r| matches!(r.state, JobState::Completed(_)) && r.attempts == 1)
        })
        .copied()
        .collect();
    out.failed += bad.len() as u64 + refused;
    out.check(
        "jobs_completed_first_attempt",
        bad.is_empty() && refused == 0 && jobs > 0,
        format!(
            "{jobs} jobs, {} not completed on attempt 1 {bad:?}, {refused} refused",
            bad.len()
        ),
    );
    let audit = ledger.audit(quota, capacity);
    out.check("ledger_audit", audit.is_empty(), audit.join("; "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = poisson_schedule(7, 50, OPEN_RATE);
        assert_eq!(a, poisson_schedule(7, 50, OPEN_RATE));
        assert_ne!(a, poisson_schedule(8, 50, OPEN_RATE));
        assert!(a.windows(2).all(|w| w[0] < w[1]) && a[0] > 0.0);
        // A prefix of a longer schedule is the shorter schedule.
        assert_eq!(a[..20], poisson_schedule(7, 20, OPEN_RATE));
        // Mean gap within 3 standard errors of 1/rate.
        let long = poisson_schedule(7, 10_000, OPEN_RATE);
        let mean_gap = long[9_999] / 10_000.0;
        assert!((mean_gap - 1.0 / OPEN_RATE).abs() < 3.0 / OPEN_RATE / 100.0);
    }

    #[test]
    fn job_mix_carries_the_same_work_for_every_seed() {
        let mix = |seed: u64| job_mix(&mut Xoshiro256pp::seed_from_u64(seed), 2 * MIX_BLOCK);
        let shape = |seed: u64| {
            let mut s: Vec<String> = mix(seed)
                .iter()
                .map(|j| format!("{:?} steps {} tenant {}", j.geometry, j.steps, j.tenant))
                .collect();
            s.sort();
            s
        };
        for seed in [1, 2, 99] {
            let jobs = mix(seed);
            assert_eq!(jobs, mix(seed));
            // The same multiset of geometries and step counts for every
            // seed; only order and velocity seeds differ.
            assert_eq!(shape(seed), shape(1));
            assert_eq!(jobs.iter().map(|j| j.steps).sum::<u32>(), 40);
            for cell in CELLS {
                let on_cell =
                    |j: &&JobSpec| matches!(j.geometry, Geometry::H2 { cell: c, .. } if c == cell);
                assert_eq!(jobs.iter().filter(on_cell).count(), MIX_BLOCK);
                assert_eq!(
                    jobs.iter().filter(on_cell).filter(|j| j.steps == 4).count(),
                    2
                );
            }
            assert!(jobs.iter().all(|j| j.validate().is_ok()));
            let keys: std::collections::BTreeSet<String> =
                jobs.iter().map(JobSpec::plan_key).collect();
            assert_eq!(keys.len(), CELLS.len());
        }
        let order = |seed: u64| -> Vec<String> {
            mix(seed)
                .iter()
                .map(|j| format!("{:?}", j.geometry))
                .collect()
        };
        assert_ne!(order(1), order(2));
    }
}
