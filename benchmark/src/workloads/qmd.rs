//! `qmd_sic8_t1` / `qmd_sic8_t2`: a warm NVE trajectory of the 8-atom
//! 3C-SiC cell, one MD step per timed operation, closed loop, one client.
//! The two workloads differ only in `RAYON_NUM_THREADS`.

use super::{reference, Outcome, RunArgs, REFERENCE_SEED};
use crate::layers::{self, OpTotals};
use crate::probes::{self, Shape};
use crate::procfs::{self, CpuTimes};
use crate::stats::median;
use metascale_qmd::core::global::{BoundaryMode, HartreeSolver, LdcConfig, LdcSolver};
use metascale_qmd::core::qmd::{QmdDriver, ScfForceField};
use metascale_qmd::md::builders::sic_supercell;
use metascale_qmd::md::forcefield::{ForceField, ForceResult};
use metascale_qmd::md::thermostat::Berendsen;
use metascale_qmd::md::AtomicSystem;
use metascale_qmd::util::metrics::Json;
use metascale_qmd::util::stats::rel_diff;
use metascale_qmd::util::{trace, workspace, Xoshiro256pp};
use std::time::Instant;

/// The `tiny_ldc_config` values of `crates/bench`, written out so that a
/// change there cannot silently change what the benchmark measures.
pub fn ldc_config() -> LdcConfig {
    LdcConfig {
        nd: (2, 1, 1),
        buffer: 1.0,
        mode: BoundaryMode::ldc_default(),
        hartree: HartreeSolver::Multigrid,
        global_spacing: 1.2,
        domain_spacing: 1.2,
        ecut: 2.0,
        kt: 0.05,
        mix_alpha: 0.3,
        max_scf: 60,
        tol_density: 5e-4,
        davidson_iters: 6,
        davidson_tol: 1e-4,
        extra_bands: 2,
    }
}

/// MD time step (a.u.), the paper's 0.242 fs.
const DT: f64 = 10.0;
/// Relative total-energy drift allowed over a run.
const MAX_REL_DRIFT: f64 = 5e-3;
/// Steps of the 2-thread trajectory replayed on one thread and compared
/// bitwise.
const BITWISE_STEPS: usize = 5;

/// Initial temperature (K). Cold on purpose: from 300 K the atoms leave
/// their lattice sites within a few steps, the domain eigensolves then
/// need more Davidson iterations, and the step at which that happens
/// depends on the seed (step times 0.77–0.97 s across ten seeds). At 3 K
/// every seed's trajectory stays on the same plateau for well over the
/// timed window, so the step time measures the code and not the seed.
const TEMPERATURE_K: f64 = 3.0;

/// The seed reaches the program only here, as initial velocities.
pub fn build_system(seed: u64) -> AtomicSystem {
    let mut sys = sic_supercell((1, 1, 1));
    sys.thermalize(TEMPERATURE_K, &mut Xoshiro256pp::seed_from_u64(seed));
    sys
}

/// `ForceField` adapter: the harness's span around the force evaluation,
/// which splits an MD step into `md` (integrator) and `core` (everything
/// beneath `LdcSolver::solve`).
struct TimedField {
    inner: LdcSolver,
    /// (start, end, potential energy) of every evaluation so far.
    evals: Vec<(Instant, Instant, f64)>,
}

impl ForceField for TimedField {
    fn try_compute(&mut self, system: &AtomicSystem) -> metascale_qmd::util::Result<ForceResult> {
        let start = Instant::now();
        let out = self.inner.try_compute(system)?;
        self.evals.push((start, Instant::now(), out.energy));
        Ok(out)
    }
}

impl ScfForceField for TimedField {
    fn scf_iterations(&self) -> usize {
        self.inner.scf_iterations()
    }
}

struct Trajectory {
    system: AtomicSystem,
    field: TimedField,
    driver: QmdDriver<Berendsen>,
}

impl Trajectory {
    /// System build, solver construction and (unless `cold`) the warm-up
    /// step. `None` if the warm-up does not converge.
    fn set_up(seed: u64, cold: bool) -> Option<Self> {
        let mut t = Trajectory {
            system: build_system(seed),
            field: TimedField {
                inner: LdcSolver::new(ldc_config()),
                evals: Vec::new(),
            },
            driver: QmdDriver::new(DT, None),
        };
        if !cold {
            t.step()?;
        }
        Some(t)
    }

    /// One MD step: `(total energy, SCF iterations)`.
    fn step(&mut self) -> Option<(f64, usize)> {
        let report = self
            .driver
            .try_run(&mut self.system, &mut self.field, 1)
            .ok()?;
        Some((*report.energies.first()?, report.scf_iterations))
    }
}

/// What the timed steps of a run left behind, one entry per step.
struct Steps {
    /// Total energy after the step.
    energies: Vec<f64>,
    /// Whether the step ran with tracing on.
    traced: Vec<bool>,
    /// Seconds inside the force evaluation.
    force_s: Vec<f64>,
    scf_iterations: usize,
    wall_s: f64,
    cpu: CpuTimes,
    workspace_misses: u64,
    tree: trace::TraceNode,
}

pub fn run(args: &RunArgs) -> Outcome {
    // The two workloads differ in this alone.
    let threads = rayon::current_num_threads();
    // A 2-thread warm-up costs as much as two timed steps, so that
    // workload sets up once.
    let reps = if threads == 1 && !args.smoke { 3 } else { 1 };
    let mut out = Outcome::new();
    let mut traj = None;
    for rep in 0..reps {
        let t0 = if rep == 0 {
            args.started
        } else {
            Instant::now()
        };
        // A smoke run's one operation is the cold first step.
        traj = Trajectory::set_up(args.seed, args.smoke);
        out.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let Some(mut traj) = traj else {
        out.attempted = 1;
        out.check("warm_up_converged", false, "warm-up step failed".into());
        return out;
    };
    let warm_evals = traj.field.evals.len();
    let min_steps = if args.smoke { 1 } else { 2 };
    let steps = timed_steps(args, &mut traj, min_steps, &mut out);
    let n = out.op_s.len();
    out.ops_per_s = n as f64 / steps.wall_s;
    out.cpu_s_per_op = steps.cpu.total() / n.max(1) as f64;

    let e_pot: Vec<f64> = traj.field.evals[warm_evals..].iter().map(|e| e.2).collect();
    out.check(
        "steps_converged_and_finite",
        n as u64 == out.attempted && n >= min_steps,
        format!("{n} of {} steps", out.attempted),
    );
    let drift = steps
        .energies
        .iter()
        .map(|&e| rel_diff(e, steps.energies[0]))
        .fold(0.0, f64::max);
    out.check(
        "energy_drift",
        drift < MAX_REL_DRIFT,
        format!("max relative drift {drift:.3e} (limit {MAX_REL_DRIFT:e})"),
    );
    // A smoke run has no warm-up step, so its steps are not the reference's.
    if args.seed == REFERENCE_SEED && n > 0 && !args.smoke {
        check_reference(&mut out, &e_pot);
    }
    let replay_s = if threads > 1 && n > 0 {
        replay_on_one_thread(args, &steps.energies, threads, &mut out)
    } else {
        Vec::new()
    };
    out.peak_rss_mb = procfs::peak_rss_mb();
    out.detail = Json::obj([
        ("e_total", nums(&steps.energies)),
        ("e_pot", nums(&e_pot)),
        ("scf_iterations", Json::Num(steps.scf_iterations as f64)),
    ]);
    if args.trace && n > 0 {
        trace_layers(args, threads, &traj, &steps, &replay_s, &mut out);
    }
    out
}

/// MD steps for `--seconds` (at least `min_steps`; exactly that many in a
/// smoke run). A traced run alternates traced and untraced steps, so the
/// tracing overhead is a paired comparison along one trajectory.
fn timed_steps(
    args: &RunArgs,
    traj: &mut Trajectory,
    min_steps: usize,
    out: &mut Outcome,
) -> Steps {
    let (mut energies, mut traced, mut force_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut scf_iterations = 0;
    let mut evals_seen = traj.field.evals.len();
    let alloc0 = workspace::global_stats().snapshot();
    let cpu0 = CpuTimes::now();
    let timed = Instant::now();
    while out.op_s.len() < min_steps
        || (!args.smoke && timed.elapsed().as_secs_f64() < args.seconds)
    {
        let op = out.op_s.len() as u64;
        let trace_this = args.trace && op.is_multiple_of(2);
        trace::set_enabled(trace_this);
        let start = Instant::now();
        let stepped = traj.step();
        let end = Instant::now();
        trace::set_enabled(false);
        out.attempted += 1;
        let Some((energy, scf)) = stepped.filter(|(e, _)| e.is_finite()) else {
            out.failed += 1;
            break;
        };
        out.op_s.push((end - start).as_secs_f64());
        traced.push(trace_this);
        energies.push(energy);
        scf_iterations += scf;
        let step_span = out.recorder.record("md_step", start, end, None, op);
        let evals = &traj.field.evals[evals_seen..];
        force_s.push(evals.iter().map(|&(s, e, _)| (e - s).as_secs_f64()).sum());
        for &(s, e, _) in evals {
            out.recorder.record("force_eval", s, e, Some(step_span), op);
        }
        evals_seen = traj.field.evals.len();
    }
    Steps {
        energies,
        traced,
        force_s,
        scf_iterations,
        wall_s: timed.elapsed().as_secs_f64(),
        cpu: CpuTimes::now().since(&cpu0),
        workspace_misses: workspace::global_stats().snapshot().since(&alloc0).misses,
        tree: trace::take(),
    }
}

/// The same trajectory on one thread: its first step energies must match
/// `energies` bitwise. Returns the replayed steps' seconds, the 1-thread
/// step time the multi-thread one is compared with.
fn replay_on_one_thread(
    args: &RunArgs,
    energies: &[f64],
    threads: usize,
    out: &mut Outcome,
) -> Vec<f64> {
    let k = energies.len().min(BITWISE_STEPS);
    let mut replay_s = Vec::new();
    let serial = one_thread(|| {
        let mut t = Trajectory::set_up(args.seed, args.smoke)?;
        (0..k)
            .map(|_| {
                let start = Instant::now();
                let e = t.step()?.0;
                replay_s.push(start.elapsed().as_secs_f64());
                Some(e)
            })
            .collect::<Option<Vec<f64>>>()
    })
    .unwrap_or_default();
    let same = serial.len() == k
        && serial
            .iter()
            .zip(energies)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    out.check(
        "bitwise_equal_to_one_thread",
        same,
        format!("first {k} step energies at {threads} threads against 1 thread"),
    );
    replay_s
}

fn trace_layers(
    args: &RunArgs,
    threads: usize,
    traj: &Trajectory,
    steps: &Steps,
    replay_s: &[f64],
    out: &mut Outcome,
) {
    let n = out.op_s.len();
    let self_s: Vec<f64> = out
        .op_s
        .iter()
        .zip(&steps.force_s)
        .map(|(s, f)| s - f)
        .collect();
    let pick = |series: &[f64], on: bool| -> Vec<f64> {
        (0..n)
            .filter(|&i| steps.traced[i] == on)
            .map(|i| series[i])
            .collect()
    };
    let (traced_s, plain_s) = (pick(&out.op_s, true), pick(&out.op_s, false));
    let scf = steps.scf_iterations as f64;
    let l = &mut out.layers;
    l.set("md.step_self_s_p50", median(&self_s));
    l.set("core.force_eval_s_p50", median(&steps.force_s));
    l.set("core.scf_iters_per_op", scf / n as f64);
    l.set(
        "core.atom_iter_per_s",
        traj.system.len() as f64 * scf / out.op_s.iter().sum::<f64>(),
    );
    let cpu = &steps.cpu;
    l.set("threads.sys_cpu_frac", cpu.sys / cpu.total().max(1e-9));
    l.set(
        "threads.cpu_util",
        cpu.total() / (steps.wall_s * threads as f64),
    );
    if !replay_s.is_empty() {
        l.set("threads.speedup_t2", median(replay_s) / median(&out.op_s));
    }
    if !plain_s.is_empty() {
        l.set(
            "util.trace_overhead_frac",
            median(&traced_s) / median(&plain_s) - 1.0,
        );
    }
    l.set(
        "util.workspace_misses_per_op",
        steps.workspace_misses as f64 / n as f64,
    );
    let totals = OpTotals {
        ops: traced_s.len() as f64,
        wall_s: traced_s.iter().sum(),
        inner_s: pick(&steps.force_s, true).iter().sum(),
    };
    layers::from_trace(&steps.tree, &totals, l);
    probes::run_all(
        &Shape {
            system: build_system(args.seed),
            cfg: ldc_config(),
            solver_state: Some(traj.field.inner.export_state()),
            out_dir: crate::out_dir(),
        },
        l,
    );
}

/// Runs `f` with the rayon shim held to one thread on this thread, which
/// then never spawns: the same execution `RAYON_NUM_THREADS=1` gives.
fn one_thread<R>(f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the shim's pool construction cannot fail")
        .install(f)
}

/// Seed 1 only: potential energies against the committed reference, the
/// first timed step to 1e-6 and the last one this run reached to 1e-4.
fn check_reference(out: &mut Outcome, e_pot: &[f64]) {
    let reference = reference();
    let want: Vec<f64> = reference
        .get("qmd_sic8")
        .and_then(|q| q.get("e_pot"))
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    if want.is_empty() {
        out.check(
            "reference_energy",
            false,
            "no qmd_sic8.e_pot in reference".into(),
        );
        return;
    }
    let last = e_pot.len().min(want.len()) - 1;
    let (first_err, last_err) = (
        rel_diff(e_pot[0], want[0]),
        rel_diff(e_pot[last], want[last]),
    );
    out.check(
        "reference_energy",
        first_err < 1e-6 && last_err < 1e-4,
        format!("step 0 off by {first_err:.2e} (limit 1e-6), step {last} by {last_err:.2e} (limit 1e-4)"),
    );
}

fn nums(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect())
}
