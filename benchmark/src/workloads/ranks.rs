//! `ranks_sic16_p2`: cold single-point `solve_distributed` calls on two
//! real rank processes over the loopback TCP hub. This binary is also the
//! rank worker: `main` hands control to `worker_from_env` with
//! [`REGISTRY`] when the `MQMD_RANK_*` environment is present.

use super::{reference, Layers, Outcome, RunArgs, REFERENCE_SEED};
use crate::layers::{self, OpTotals, TRACE_METRICS};
use crate::probes::{self, Shape};
use crate::procfs::{self, CpuTimes};
use crate::spans::unix_now;
use crate::stats::median;
use metascale_qmd::core::distributed::solve_distributed;
use metascale_qmd::core::global::LdcConfig;
use metascale_qmd::dft::solver::grid_for_cell;
use metascale_qmd::md::builders::{amorphize, sic_supercell};
use metascale_qmd::md::io::fnv1a64;
use metascale_qmd::md::AtomicSystem;
use metascale_qmd::parallel::comm::{Comm, CommError, CommResult, OpTally, RankProgram};
use metascale_qmd::parallel::executor::run_ranks;
use metascale_qmd::parallel::process::{run_processes, ProcessOpts, ProcessRun};
use metascale_qmd::util::metrics::Json;
use metascale_qmd::util::stats::rel_diff;
use metascale_qmd::util::{trace, Xoshiro256pp};
use std::time::Instant;

/// Rank processes. Two, because wall-clock with more ranks than cores
/// measures the scheduler.
const RANKS: usize = 2;
const N_DOMAINS: usize = 4;
/// Width of the seeded position jitter. Small enough that every seed's
/// solve converges in the same number of SCF iterations: at 0.02 Bohr the
/// count varied 27–31 with the seed, and the solve time with it.
const JITTER_BOHR: f64 = 0.005;
/// Replays of the allreduce probe program.
const ALLREDUCE_REPS: usize = 200;

/// Programs the rank worker can run, by wire name.
pub const REGISTRY: &[(&str, RankProgram)] = &[
    ("bench_solves", bench_solves),
    ("bench_allreduce", bench_allreduce),
];

/// The qmd workloads' settings with the cell cut into four slabs.
pub fn ldc_config() -> LdcConfig {
    LdcConfig {
        nd: (N_DOMAINS, 1, 1),
        ..super::qmd::ldc_config()
    }
}

/// The seed reaches the program only here, as position jitter.
pub fn build_system(seed: u64) -> AtomicSystem {
    let mut sys = sic_supercell((2, 1, 1));
    amorphize(
        &mut sys,
        JITTER_BOHR,
        &mut Xoshiro256pp::seed_from_u64(seed),
    );
    sys
}

// ---------------------------------------------------------------------------
// Inside a rank
// ---------------------------------------------------------------------------

/// Collectives a solve uses, in the order their tallies are shipped.
const OPS: [&str; 3] = ["allreduce_sum", "allgather_concat", "halo_exchange"];

/// What one rank reports. Shipped as the flat `f64` RESULT payload of the
/// rank runtime: [`RankReport::HEADER`] scalars, then three values per
/// timed solve.
#[derive(Clone, Debug, Default, PartialEq)]
struct RankReport {
    /// Timed solves that failed a check against the warm-up solve.
    failed: f64,
    /// Outputs of the warm-up solve, bitwise equal on every rank.
    energy: f64,
    density_digest: [f64; 2],
    n_domains: f64,
    scf_iterations: f64,
    /// CPU seconds and memory of this rank over its timed solves.
    cpu_user: f64,
    cpu_sys: f64,
    vm_hwm_mb: f64,
    /// Seconds of the warm-up solve, and of the timed region.
    warm_s: f64,
    timed_wall_s: f64,
    /// `(calls, bytes, seconds)` per entry of [`OPS`] over the timed
    /// solves (rank 0 books them; zeros elsewhere).
    ops: [[f64; 3]; 3],
    /// Span-tree metrics over the traced solves, in `TRACE_METRICS` order.
    trace: [f64; TRACE_METRICS.len()],
    /// `(start on the UNIX clock, seconds, traced)` per timed solve.
    solves: Vec<[f64; 3]>,
}

impl RankReport {
    const HEADER: usize = 11 + 9 + TRACE_METRICS.len();

    fn to_vec(&self) -> Vec<f64> {
        let mut v = vec![
            self.failed,
            self.energy,
            self.density_digest[0],
            self.density_digest[1],
            self.n_domains,
            self.scf_iterations,
            self.cpu_user,
            self.cpu_sys,
            self.vm_hwm_mb,
            self.warm_s,
            self.timed_wall_s,
        ];
        v.extend(self.ops.iter().flatten());
        v.extend(self.trace);
        debug_assert_eq!(v.len(), Self::HEADER);
        v.extend(self.solves.iter().flatten());
        v
    }

    fn from_slice(v: &[f64]) -> Option<Self> {
        if v.len() < Self::HEADER || !(v.len() - Self::HEADER).is_multiple_of(3) {
            return None;
        }
        let mut r = RankReport {
            failed: v[0],
            energy: v[1],
            density_digest: [v[2], v[3]],
            n_domains: v[4],
            scf_iterations: v[5],
            cpu_user: v[6],
            cpu_sys: v[7],
            vm_hwm_mb: v[8],
            warm_s: v[9],
            timed_wall_s: v[10],
            ..Default::default()
        };
        for (i, op) in r.ops.iter_mut().enumerate() {
            op.copy_from_slice(&v[11 + 3 * i..14 + 3 * i]);
        }
        r.trace.copy_from_slice(&v[20..Self::HEADER]);
        r.solves = v[Self::HEADER..]
            .chunks_exact(3)
            .map(|c| [c[0], c[1], c[2]])
            .collect();
        Some(r)
    }

    /// The outputs that must be bitwise identical on every rank.
    fn replicated_bits(&self) -> [u64; 5] {
        [
            self.energy,
            self.density_digest[0],
            self.density_digest[1],
            self.n_domains,
            self.scf_iterations,
        ]
        .map(f64::to_bits)
    }
}

/// A 64-bit digest of a field's exact bits, as two exactly representable
/// halves.
fn digest(field: &[f64]) -> [f64; 2] {
    let bytes: Vec<u8> = field.iter().flat_map(|x| x.to_le_bytes()).collect();
    let h = fnv1a64(&bytes);
    [(h >> 32) as f64, (h & 0xFFFF_FFFF) as f64]
}

fn tallies(comm: &dyn Comm) -> [OpTally; 3] {
    let snap = comm.traffic().snapshot();
    OPS.map(|op| {
        snap.iter()
            .find(|(name, _)| name == op)
            .map_or(OpTally::default(), |(_, t)| *t)
    })
}

/// `args`: `[seed, seconds, trace, min_solves]`. One warm-up solve, then
/// cold solves for about `seconds` (none when `min_solves` is 0 and
/// `seconds` is 0: a set-up-only session).
fn bench_solves(comm: &dyn Comm, args: &[f64]) -> CommResult<Vec<f64>> {
    let &[seed, seconds, traced, min_solves] = args else {
        return Err(CommError::Transport(format!("bench_solves: args {args:?}")));
    };
    let sys = build_system(seed as u64);
    let cfg = ldc_config();
    let solve = || {
        solve_distributed(&sys, &cfg, comm)
            .map_err(|e| CommError::Transport(format!("bench_solves: {e}")))
    };

    let warm_t = Instant::now();
    let warm = solve()?;
    let warm_s = warm_t.elapsed().as_secs_f64();
    let warm_digest = digest(&warm.density);

    // Every solve repeats the warm-up's computation exactly, so its time
    // sizes the timed region; one allreduce makes the count the same on
    // every rank.
    let mean_warm_s = comm.allreduce_sum(vec![warm_s])?[0] / comm.size() as f64;
    let n = ((seconds / mean_warm_s).round() as usize).max(min_solves as usize);

    let mut report = RankReport {
        energy: warm.energy,
        density_digest: warm_digest,
        n_domains: warm.n_domains as f64,
        scf_iterations: warm.scf_iterations as f64,
        warm_s,
        ..Default::default()
    };
    let ops0 = tallies(comm);
    let cpu0 = CpuTimes::now();
    let timed = Instant::now();
    for i in 0..n {
        // A traced run alternates traced and untraced solves (see qmd).
        let trace_this = traced != 0.0 && i.is_multiple_of(2);
        trace::set_enabled(trace_this);
        let (start_unix, start) = (unix_now(), Instant::now());
        let state = solve();
        let secs = start.elapsed().as_secs_f64();
        trace::set_enabled(false);
        let state = state?;
        let same = state.energy.to_bits() == warm.energy.to_bits()
            && digest(&state.density) == warm_digest
            && state.energy.is_finite();
        report.failed += f64::from(u8::from(!same));
        report
            .solves
            .push([start_unix, secs, f64::from(u8::from(trace_this))]);
    }
    report.timed_wall_s = timed.elapsed().as_secs_f64();
    let cpu = CpuTimes::now().since(&cpu0);
    (report.cpu_user, report.cpu_sys) = (cpu.user, cpu.sys);
    report.vm_hwm_mb = procfs::peak_rss_mb();
    for ((out, now), before) in report.ops.iter_mut().zip(tallies(comm)).zip(ops0) {
        *out = [
            (now.calls - before.calls) as f64,
            (now.bytes - before.bytes) as f64,
            now.seconds - before.seconds,
        ];
    }
    if traced != 0.0 {
        let traced_s: Vec<f64> = report
            .solves
            .iter()
            .filter(|s| s[2] != 0.0)
            .map(|s| s[1])
            .collect();
        let total: f64 = traced_s.iter().sum();
        let mut layers = Layers::default();
        layers::from_trace(
            &trace::take(),
            &OpTotals {
                ops: traced_s.len() as f64,
                wall_s: total,
                inner_s: total,
            },
            &mut layers,
        );
        report.trace = TRACE_METRICS.map(|name| layers.0.get(name).copied().unwrap_or(0.0));
    }
    Ok(report.to_vec())
}

/// `args`: `[len]`. [`ALLREDUCE_REPS`] allreduces of a `len`-element
/// vector; returns the median microseconds rank 0 saw.
fn bench_allreduce(comm: &dyn Comm, args: &[f64]) -> CommResult<Vec<f64>> {
    let len = args.first().copied().unwrap_or(1.0) as usize;
    let mut us = Vec::with_capacity(ALLREDUCE_REPS);
    for _ in 0..ALLREDUCE_REPS {
        let data = vec![1.0; len];
        let t = Instant::now();
        std::hint::black_box(comm.allreduce_sum(data)?);
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(vec![median(&us)])
}

// ---------------------------------------------------------------------------
// The parent
// ---------------------------------------------------------------------------

struct Session {
    run: ProcessRun,
    reports: Vec<RankReport>,
    /// Parent wall seconds from before the spawn to the last RESULT.
    wall_s: f64,
    started: Instant,
    ended: Instant,
}

/// Launches `ranks` worker processes (this executable) running
/// `bench_solves`.
fn session(
    ranks: usize,
    args: &RunArgs,
    seconds: f64,
    min_solves: usize,
) -> Result<Session, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let started = Instant::now();
    let run = run_processes(
        &exe,
        "bench_solves",
        ranks,
        ProcessOpts {
            args: vec![
                args.seed as f64,
                seconds,
                f64::from(u8::from(args.trace)),
                min_solves as f64,
            ],
            ..ProcessOpts::default()
        },
    )
    .map_err(|e| format!("run_processes: {e}"))?;
    let ended = Instant::now();
    let reports = run
        .results
        .iter()
        .map(|r| RankReport::from_slice(r))
        .collect::<Option<Vec<_>>>()
        .ok_or("malformed rank report")?;
    Ok(Session {
        run,
        reports,
        wall_s: (ended - started).as_secs_f64(),
        started,
        ended,
    })
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::new();
    if let Err(e) = measure(args, &mut out) {
        out.attempted += 1;
        out.check("sessions_completed", false, e);
    }
    out
}

fn measure(args: &RunArgs, out: &mut Outcome) -> Result<(), String> {
    // Set-up = rank launch + warm-up solve + teardown: two sessions that do
    // nothing else, and the timed session minus its timed region.
    if !args.smoke {
        for rep in 0..2 {
            let s = session(RANKS, args, 0.0, 0)?;
            out.setup_s.push(if rep == 0 {
                args.started.elapsed().as_secs_f64()
            } else {
                s.wall_s
            });
        }
    }
    let min_solves = if args.smoke { 1 } else { 2 };
    let seconds = if args.smoke { 0.0 } else { args.seconds };
    let s = session(RANKS, args, seconds, min_solves)?;
    let rank0 = &s.reports[0];
    out.setup_s.push(s.wall_s - rank0.timed_wall_s);

    let n = rank0.solves.len();
    out.attempted = n as u64;
    out.failed = s.reports.iter().map(|r| r.failed).fold(0.0, f64::max) as u64;
    out.op_s = rank0.solves.iter().map(|x| x[1]).collect();
    out.ops_per_s = n as f64 / rank0.timed_wall_s;
    out.cpu_s_per_op = s
        .reports
        .iter()
        .map(|r| r.cpu_user + r.cpu_sys)
        .sum::<f64>()
        / n as f64;
    out.peak_rss_mb = s.reports.iter().map(|r| r.vm_hwm_mb).fold(0.0, f64::max);

    let session_span = out
        .recorder
        .record("rank_session", s.started, s.ended, None, 0);
    for (i, solve) in rank0.solves.iter().enumerate() {
        out.recorder.record_unix(
            "dist_solve",
            solve[0],
            solve[1],
            Some(session_span),
            i as u64,
        );
    }

    out.check(
        "solves_equal_warm_up_bitwise",
        out.failed == 0 && n >= min_solves,
        format!(
            "{n} timed solves, {} differ from the warm-up solve",
            out.failed
        ),
    );
    let replicated = s
        .reports
        .iter()
        .all(|r| r.replicated_bits() == rank0.replicated_bits());
    out.check(
        "ranks_agree_bitwise",
        replicated && s.reports.len() == RANKS && rank0.energy.is_finite(),
        format!(
            "energy {:.10}, density digest, across {} ranks",
            rank0.energy,
            s.reports.len()
        ),
    );
    out.check(
        "n_domains",
        rank0.n_domains == N_DOMAINS as f64,
        format!("{} domains", rank0.n_domains),
    );
    if args.seed == REFERENCE_SEED {
        let want = reference()
            .get("ranks_sic16_p2")
            .and_then(|r| r.get("energy"))
            .and_then(Json::as_f64);
        let err = want.map_or(f64::INFINITY, |w| rel_diff(rank0.energy, w));
        out.check(
            "reference_energy",
            err < 1e-8,
            format!("energy off by {err:.2e} (limit 1e-8)"),
        );
    }
    out.detail = Json::obj([
        ("energy", Json::Num(rank0.energy)),
        ("scf_iterations", Json::Num(rank0.scf_iterations)),
    ]);

    if args.trace {
        trace_layers(args, &s, out)?;
    }
    Ok(())
}

fn trace_layers(args: &RunArgs, s: &Session, out: &mut Outcome) -> Result<(), String> {
    let rank0 = &s.reports[0];
    let n = rank0.solves.len() as f64;
    let solve_s = median(&out.op_s);
    let pick = |on: bool| -> Vec<f64> {
        rank0
            .solves
            .iter()
            .filter(|x| (x[2] != 0.0) == on)
            .map(|x| x[1])
            .collect()
    };
    let l = &mut out.layers;
    for (name, value) in TRACE_METRICS.iter().zip(rank0.trace) {
        l.set(name, value);
    }
    l.set("core.scf_iters_per_op", rank0.scf_iterations);
    l.set(
        "core.atom_iter_per_s",
        build_system(args.seed).len() as f64 * rank0.scf_iterations / solve_s,
    );
    if !pick(false).is_empty() {
        l.set(
            "util.trace_overhead_frac",
            median(&pick(true)) / median(&pick(false)) - 1.0,
        );
    }
    let cpu: f64 = s.reports.iter().map(|r| r.cpu_user + r.cpu_sys).sum();
    let sys: f64 = s.reports.iter().map(|r| r.cpu_sys).sum();
    l.set("threads.sys_cpu_frac", sys / cpu.max(1e-9));
    l.set(
        "threads.cpu_util",
        cpu / (rank0.timed_wall_s * RANKS as f64),
    );

    // From the hub's ledger. The session is the warm-up plus n identical
    // solves plus the one 1-element allreduce that sizes the run: 2(p−1)
    // frames of 8 bytes.
    let sizing_frames = 2.0 * (RANKS as f64 - 1.0);
    let per_solve = |total: u64, sizing: f64| (total as f64 - sizing) / (n + 1.0);
    l.set(
        "parallel.launch_s",
        s.wall_s - rank0.warm_s - out.op_s.iter().sum::<f64>(),
    );
    l.set(
        "parallel.data_frames_per_solve",
        per_solve(s.run.data_frames, sizing_frames),
    );
    l.set(
        "parallel.data_bytes_per_solve",
        per_solve(s.run.data_bytes, sizing_frames * 8.0),
    );
    let [allreduce, allgather, halo] = rank0.ops;
    l.set("parallel.allreduce_calls_per_solve", allreduce[0] / n);
    l.set("parallel.allreduce_bytes_per_solve", allreduce[1] / n);
    l.set("parallel.allreduce_s_per_solve", allreduce[2] / n);
    l.set("parallel.allgather_calls_per_solve", allgather[0] / n);
    l.set("parallel.allgather_s_per_solve", allgather[2] / n);
    l.set("parallel.halo_s_per_solve", halo[2] / n);
    l.set(
        "parallel.comm_frac",
        (allreduce[2] + allgather[2] + halo[2]) / out.op_s.iter().sum::<f64>(),
    );
    l.set(
        "parallel.stale_frames",
        s.run.stale_frames.iter().sum::<u64>() as f64,
    );
    l.set(
        "parallel.deferred_frames",
        s.run.deferred_frames.iter().sum::<u64>() as f64,
    );

    // The same cold solve on one rank process, and on two rank threads of
    // this process: transports and rank counts side by side.
    let single = session(1, args, 0.0, 0)?;
    l.set("core.dist_speedup_p2", single.reports[0].warm_s / solve_s);
    let thread_args = [args.seed as f64, 0.0, 0.0, 0.0];
    let threads = run_ranks(RANKS, |_, comm| bench_solves(comm, &thread_args));
    let report = threads
        .into_iter()
        .next()
        .and_then(Result::ok)
        .and_then(|v| RankReport::from_slice(&v))
        .ok_or("thread-backend solve failed")?;
    l.set("parallel.thread_backend_solve_s", report.warm_s);

    let sys = build_system(args.seed);
    let cfg = ldc_config();
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let probe = run_processes(
        &exe,
        "bench_allreduce",
        RANKS,
        ProcessOpts {
            args: vec![grid_for_cell(sys.cell, cfg.global_spacing).len() as f64],
            ..ProcessOpts::default()
        },
    )
    .map_err(|e| format!("allreduce probe: {e}"))?;
    l.set("parallel.allreduce_density_us_p50", probe.results[0][0]);

    probes::run_all(
        &Shape {
            system: sys,
            cfg,
            solver_state: None,
            out_dir: crate::out_dir(),
        },
        l,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_report_round_trips_through_the_wire_format() {
        let mut r = RankReport {
            failed: 1.0,
            energy: -31.7,
            density_digest: digest(&[1.0, -2.5]),
            n_domains: 4.0,
            scf_iterations: 17.0,
            cpu_user: 1.25,
            cpu_sys: 0.5,
            vm_hwm_mb: 42.0,
            warm_s: 1.5,
            timed_wall_s: 3.0,
            ops: [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]],
            solves: vec![[1.7e9, 1.4, 1.0], [1.7e9 + 2.0, 1.5, 0.0]],
            ..Default::default()
        };
        r.trace[TRACE_METRICS.len() - 1] = 0.25;
        assert_eq!(RankReport::from_slice(&r.to_vec()), Some(r.clone()));
        assert_eq!(
            RankReport::from_slice(&r.to_vec()[..RankReport::HEADER + 1]),
            None
        );
        assert_ne!(digest(&[1.0, -2.5]), digest(&[1.0, -2.5000000000000004]));
    }
}
