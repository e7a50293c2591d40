//! Seeded service soak: drives the multi-tenant job runtime through
//! preemption, admission storms, deadline failures, and (with `--chaos`)
//! an injected-fault campaign, then audits the ledger.
//!
//! Legs:
//!
//! 1. **Bitwise preemption probe** (fault plane idle): a probe job runs
//!    uninterrupted on one runtime, then again on a fresh runtime where a
//!    high-priority job preempts it mid-run. The preempted-then-resumed
//!    trajectory must match the uninterrupted one bit for bit.
//! 2. **Admission storm + deadline storm** (`--soak`): a worker-less
//!    runtime checks the admission arithmetic exactly (quota, capacity,
//!    over-deadline, invalid specs); an executing runtime then fails
//!    nanosecond-budget jobs with typed deadline errors while unbounded
//!    siblings complete.
//! 3. **Chaos** (`--chaos`): worker kills, stragglers, and domain-solve
//!    faults are injected under a seeded plan while every tenant's jobs
//!    run; every planned fault must fire, the supervisor must requeue or
//!    fail each victim and the campaign ledger must balance.
//!
//! Invariants (exit 0 iff all hold): no lost jobs (every admitted job
//! terminal and recorded), no quota or capacity violation at any peak,
//! typed rejections only, preempted jobs resume bitwise, every planned
//! fault injected, and `injected <= recovered + aborted` in the fault
//! ledger. On failure the
//! full ledger audit is printed.
//!
//! `--sweep` runs none of those legs. It prints the table the service's SCF
//! settings (`JobSpec::ldc_config`) are chosen from: mixing fraction ×
//! Davidson budget/tolerance × extra bands, each candidate measured on the
//! H₂ cells and bonds the service is benchmarked on and on the two SiC
//! geometries it admits — SCF iterations, milliseconds and analytic MFLOP
//! per warm force evaluation, and the distance of energy and forces from
//! the tight reference of `mqmd_serve::contract`. With `--check` it exits 1
//! if the committed settings leave the contract or a neighbouring candidate
//! inside it does [`WORK_MARGIN`] less work (cold + warm FLOPs over the H₂
//! geometries). The gate reads FLOP counts and deviations only, which
//! repeat exactly; iteration counts alone cannot see the band count.
//!
//! Usage: `repro_serve [--soak] [--chaos] [--seed N] [--tenants N] [--jobs N]`
//!        `repro_serve --sweep [--check]`
//!
//! Exit codes: 0 = all invariants hold, 1 = an invariant failed,
//! 2 = bad arguments.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use mqmd_bench::row;
use mqmd_core::global::LdcConfig;
use mqmd_serve::contract::{self, Deviation, Evaluation};
use mqmd_serve::{
    Admission, Geometry, JobSpec, JobState, RejectReason, ServiceConfig, ServiceRuntime,
};
use mqmd_util::faults::{self, FaultKind, FaultPlan, Site};
use mqmd_util::{events, Xoshiro256pp};

fn usage() -> ! {
    eprintln!(
        "usage: repro_serve [--soak] [--chaos] [--seed N] [--tenants N] [--jobs N]\n       \
         repro_serve --sweep [--check]"
    );
    std::process::exit(2);
}

fn parse_u64(args: &mut std::env::Args, flag: &str) -> u64 {
    match args.next().map(|v| v.parse::<u64>()) {
        Some(Ok(v)) => v,
        _ => {
            eprintln!("error: {flag} needs a non-negative integer");
            std::process::exit(2);
        }
    }
}

fn tmp(leg: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mqmd_serve_soak_{leg}_{}", std::process::id()))
}

fn service_config(leg: &str, seed: u64) -> ServiceConfig {
    let dir = tmp(leg);
    std::fs::remove_dir_all(&dir).ok();
    let mut cfg = ServiceConfig::new(dir);
    cfg.seed = seed;
    cfg
}

fn probe_spec() -> JobSpec {
    JobSpec {
        steps: 3,
        ..Default::default()
    }
}

/// Blocks until `id` is running, so a follow-up higher-priority submit
/// finds the worker busy and must preempt.
fn wait_until_running(rt: &ServiceRuntime, id: u64, violations: &mut Vec<String>) -> bool {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let state = rt.ledger().records[&id].state.clone();
        if matches!(state, JobState::Running) {
            return true;
        }
        if state.is_terminal() || Instant::now() >= deadline {
            violations.push(format!(
                "probe job {id} reached {} before it could be preempted",
                state.label()
            ));
            return false;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Leg 1: the headline property — preempt, shed, resume, bit-for-bit.
fn preemption_probe(seed: u64, violations: &mut Vec<String>) {
    let rt = ServiceRuntime::start(service_config("probe_ref", seed)).expect("runtime");
    let id = rt.submit(probe_spec()).id().expect("probe admitted");
    let ledger = rt.shutdown();
    let JobState::Completed(reference) = ledger.records[&id].state.clone() else {
        violations.push(format!(
            "uninterrupted probe failed: {:?}",
            ledger.records[&id].state
        ));
        return;
    };

    let rt = ServiceRuntime::start(service_config("probe_preempt", seed)).expect("runtime");
    let id = rt.submit(probe_spec()).id().expect("probe admitted");
    if !wait_until_running(&rt, id, violations) {
        rt.shutdown();
        return;
    }
    let vip = JobSpec {
        tenant: 1,
        priority: 9,
        steps: 1,
        ..Default::default()
    };
    let vip_id = rt.submit(vip).id().expect("vip admitted");
    let ledger = rt.shutdown();

    if ledger.preemptions < 1 {
        violations.push("the high-priority job never preempted the probe".into());
    }
    if !matches!(ledger.records[&vip_id].state, JobState::Completed(_)) {
        violations.push(format!(
            "preemptor failed: {:?}",
            ledger.records[&vip_id].state
        ));
    }
    match ledger.records[&id].state.clone() {
        JobState::Completed(got) => {
            let pos_ok = got
                .positions
                .iter()
                .zip(&reference.positions)
                .all(|(a, b)| {
                    a.x.to_bits() == b.x.to_bits()
                        && a.y.to_bits() == b.y.to_bits()
                        && a.z.to_bits() == b.z.to_bits()
                });
            let vel_ok = got
                .velocities
                .iter()
                .zip(&reference.velocities)
                .all(|(a, b)| {
                    a.x.to_bits() == b.x.to_bits()
                        && a.y.to_bits() == b.y.to_bits()
                        && a.z.to_bits() == b.z.to_bits()
                });
            let e_ok = bitwise_eq(&got.energies, &reference.energies);
            if pos_ok && vel_ok && e_ok {
                println!(
                    "probe leg: preempted {} time(s), resumed {}, trajectory bitwise \
                     ({} energies match)",
                    ledger.preemptions,
                    ledger.resumes,
                    got.energies.len()
                );
            } else {
                violations.push(format!(
                    "preempted probe diverged from uninterrupted run \
                     (positions {pos_ok}, velocities {vel_ok}, energies {e_ok})"
                ));
            }
        }
        other => violations.push(format!("preempted probe failed: {other:?}")),
    }
    audit_into("probe", &ledger, 4, 16, violations);
}

/// Leg 2a: exact admission arithmetic on a worker-less runtime.
fn admission_storm(seed: u64, tenants: u64, violations: &mut Vec<String>) {
    let mut cfg = service_config("admission", seed);
    cfg.workers = 0;
    cfg.tenant_quota = 2;
    cfg.queue_capacity = (tenants.max(1) * 2) as usize - 1;
    let quota = cfg.tenant_quota as u64;
    let capacity = cfg.queue_capacity as u64;
    let rt = ServiceRuntime::start(cfg).expect("runtime");

    let mut accepted = 0u64;
    let mut by_reason: [u64; 4] = [0; 4];
    for tenant in 0..tenants as u32 {
        // Each tenant over-asks by one, and the last tenant's quota-legal
        // submissions spill past the global capacity.
        for _ in 0..=quota {
            let spec = JobSpec {
                tenant,
                ..JobSpec::default()
            };
            match rt.submit(spec) {
                Admission::Accepted(_) => accepted += 1,
                Admission::Rejected(r) => by_reason[reason_index(r)] += 1,
            }
        }
    }
    // One malformed spec and one dead-on-arrival deadline.
    let bad = JobSpec {
        steps: 0,
        ..JobSpec::default()
    };
    if rt.submit(bad) != Admission::Rejected(RejectReason::InvalidSpec) {
        violations.push("malformed spec was not rejected as invalid_spec".into());
    }
    let doa = JobSpec {
        deadline: Some(Duration::ZERO),
        ..JobSpec::default()
    };
    if rt.submit(doa) != Admission::Rejected(RejectReason::OverDeadline) {
        violations.push("zero-budget job was not rejected as over_deadline".into());
    }

    let ledger = rt.ledger();
    let expect_accepted = capacity.min(tenants * quota);
    if accepted != expect_accepted {
        violations.push(format!(
            "admission storm accepted {accepted} jobs, expected exactly {expect_accepted}"
        ));
    }
    if ledger.queue_depth_peak > capacity {
        violations.push(format!(
            "admitted backlog peaked at {} > capacity {capacity}",
            ledger.queue_depth_peak
        ));
    }
    for (&tenant, &peak) in &ledger.tenant_peak {
        if peak > quota {
            violations.push(format!("tenant {tenant} peaked at {peak} > quota {quota}"));
        }
    }
    let quota_rejects = by_reason[reason_index(RejectReason::QuotaExceeded)];
    let full_rejects = by_reason[reason_index(RejectReason::QueueFull)];
    if quota_rejects + full_rejects != tenants.max(1) * (quota + 1) - expect_accepted {
        violations.push(format!(
            "reject arithmetic off: {quota_rejects} quota + {full_rejects} queue_full \
             rejects against {accepted} accepted"
        ));
    }
    println!(
        "admission leg: {accepted} accepted, {quota_rejects} quota rejects, \
         {full_rejects} queue-full rejects, depth peak {} / {capacity}",
        ledger.queue_depth_peak
    );
    // Worker-less probe: its queue is deliberately never drained, so only
    // the admission counters are audited here.
}

fn reason_index(r: RejectReason) -> usize {
    match r {
        RejectReason::QueueFull => 0,
        RejectReason::QuotaExceeded => 1,
        RejectReason::OverDeadline => 2,
        RejectReason::InvalidSpec => 3,
    }
}

/// Leg 2b: deadline storm — nanosecond budgets fail typed and final,
/// unbounded siblings complete, per tenant.
fn deadline_storm(seed: u64, tenants: u64, violations: &mut Vec<String>) {
    let mut cfg = service_config("deadline", seed);
    cfg.workers = 2;
    cfg.tenant_quota = 4;
    cfg.queue_capacity = (tenants as usize * 2).max(4);
    let (quota, capacity) = (cfg.tenant_quota, cfg.queue_capacity);
    let rt = ServiceRuntime::start(cfg).expect("runtime");

    let mut doomed = Vec::new();
    let mut healthy = Vec::new();
    for tenant in 0..tenants as u32 {
        let dead = JobSpec {
            tenant,
            steps: 1,
            deadline: Some(Duration::from_nanos(1)),
            ..JobSpec::default()
        };
        doomed.push(rt.submit(dead).id().expect("1ns job admitted"));
        let alive = JobSpec {
            tenant,
            steps: 1,
            ..JobSpec::default()
        };
        healthy.push(rt.submit(alive).id().expect("unbounded job admitted"));
    }
    let ledger = rt.shutdown();
    for id in doomed {
        match &ledger.records[&id].state {
            JobState::Failed { error } if error.contains("deadline") => {}
            other => violations.push(format!(
                "1ns-budget job {id} should fail typed on deadline, got {other:?}"
            )),
        }
    }
    for id in healthy {
        if !matches!(ledger.records[&id].state, JobState::Completed(_)) {
            violations.push(format!(
                "unbounded job {id} should complete, got {:?}",
                ledger.records[&id].state
            ));
        }
    }
    if ledger.retries != 0 {
        violations.push(format!(
            "deadline failures must not burn retries, saw {}",
            ledger.retries
        ));
    }
    println!(
        "deadline leg: {} deadline failures (typed), {} completions, 0 retries",
        ledger.failed, ledger.completed
    );
    audit_into("deadline", &ledger, quota, capacity, violations);
}

/// Leg 3: the chaos campaign — kills, stragglers, and domain-solve faults
/// under a seeded plan while a full tenant matrix runs.
fn chaos_leg(seed: u64, tenants: u64, jobs: u64, violations: &mut Vec<String>) {
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xC4A0_55E1);
    let mut plan = FaultPlan::new();
    // Two worker kills (one per worker lane, early pickups), a straggler,
    // and two poisoned domain solves: the supervisor, the service's retry
    // ladder, and the solver's own retry ladder all get exercised in one
    // campaign. Every job is one domain, so `Site::Domain(0)` counts the
    // domain solves of all of them.
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
    println!("chaos leg: installing plan:");
    for f in &plan.faults {
        println!(
            "  {:<14} at {:<10} occurrence {}",
            f.kind.label(),
            f.site.describe(),
            f.at
        );
    }
    faults::reset_stats();
    faults::install(plan);

    // Injected kills are *supposed* to panic; keep their backtraces out
    // of the soak log. Anything else still prints through the old hook.
    let default_hook = std::panic::take_hook();
    let quiet_hook = std::sync::Arc::new(default_hook);
    let hook = std::sync::Arc::clone(&quiet_hook);
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.contains("injected worker kill"));
        if !injected {
            hook(info);
        }
    }));

    let mut cfg = service_config("chaos", seed);
    cfg.workers = 2;
    cfg.tenant_quota = jobs.max(1) as usize;
    cfg.queue_capacity = (tenants * jobs).max(4) as usize;
    let (quota, capacity) = (cfg.tenant_quota, cfg.queue_capacity);
    let rt = ServiceRuntime::start(cfg).expect("runtime");

    let mut submitted = Vec::new();
    for tenant in 0..tenants as u32 {
        for j in 0..jobs as u32 {
            let spec = JobSpec {
                tenant,
                priority: (j % 3) as u8,
                steps: 1 + (j % 2),
                seed: u64::from(tenant) * 100 + u64::from(j),
                ..JobSpec::default()
            };
            match rt.submit(spec) {
                Admission::Accepted(id) => submitted.push(id),
                Admission::Rejected(r) => violations.push(format!(
                    "chaos submission tenant {tenant} job {j} bounced: {}",
                    r.label()
                )),
            }
        }
    }
    let ledger = rt.shutdown();
    faults::clear();
    let _ = std::panic::take_hook();

    for id in &submitted {
        if !ledger.records[id].state.is_terminal() {
            violations.push(format!("chaos job {id} stranded non-terminal"));
        }
    }
    let stats = faults::stats();
    if stats.injected < planned {
        violations.push(format!(
            "only {} of {planned} planned faults fired",
            stats.injected
        ));
    }
    if stats.injected > stats.recovered + stats.aborted {
        violations.push(format!(
            "fault ledger unbalanced: {} injected > {} recovered + {} aborted",
            stats.injected, stats.recovered, stats.aborted
        ));
    }
    println!(
        "chaos leg: {} jobs -> {} completed / {} failed; {} panics caught, \
         {} retries, {} preemptions; faults: {} injected, {} recovered, {} aborted",
        submitted.len(),
        ledger.completed,
        ledger.failed,
        ledger.panics_caught,
        ledger.retries,
        ledger.preemptions,
        stats.injected,
        stats.recovered,
        stats.aborted
    );
    if ledger.panics_caught == 0 {
        violations.push("the planned worker kills never landed (no panics caught)".into());
    }
    audit_into("chaos", &ledger, quota, capacity, violations);
    print_ledger(&ledger);
}

/// The sweep's axes. The committed settings must be one of the candidates.
const SWEEP_ALPHAS: [f64; 5] = [0.4, 0.6, 0.8, 0.9, 1.0];
const SWEEP_DAVIDSON: [(usize, f64); 3] = [(12, 1e-7), (6, 1e-5), (4, 1e-4)];
const SWEEP_EXTRA_BANDS: [usize; 4] = [4, 2, 1, 0];
/// The H₂ geometries of the repo benchmark's `serve_h2_mix` job mix.
const SWEEP_CELLS: [f64; 2] = [8.0, 9.6];
const SWEEP_BONDS: [f64; 3] = [1.3, 1.4, 1.5];
const SWEEP_SIC: [(usize, usize, usize); 2] = [(1, 1, 1), (2, 1, 1)];
/// A neighbour beats the committed row when it is inside the contract and
/// does at least this fraction less work.
const WORK_MARGIN: f64 = 0.10;

/// One candidate: its place on the three axes.
#[derive(Clone, Copy)]
struct Candidate {
    alpha: usize,
    davidson: usize,
    bands: usize,
}

impl Candidate {
    fn all() -> Vec<Candidate> {
        let mut out = Vec::new();
        for bands in 0..SWEEP_EXTRA_BANDS.len() {
            for davidson in 0..SWEEP_DAVIDSON.len() {
                out.extend((0..SWEEP_ALPHAS.len()).map(|alpha| Candidate {
                    alpha,
                    davidson,
                    bands,
                }));
            }
        }
        out
    }

    /// `(mix_alpha, davidson_iters, davidson_tol, extra_bands)`.
    fn settings(&self) -> (f64, usize, f64, usize) {
        let (iters, tol) = SWEEP_DAVIDSON[self.davidson];
        (
            SWEEP_ALPHAS[self.alpha],
            iters,
            tol,
            SWEEP_EXTRA_BANDS[self.bands],
        )
    }

    fn apply(&self, base: &LdcConfig) -> LdcConfig {
        let (mix_alpha, davidson_iters, davidson_tol, extra_bands) = self.settings();
        LdcConfig {
            mix_alpha,
            davidson_iters,
            davidson_tol,
            extra_bands,
            ..*base
        }
    }

    /// One step along exactly one axis.
    fn neighbours(&self, other: &Candidate) -> bool {
        self.alpha.abs_diff(other.alpha)
            + self.davidson.abs_diff(other.davidson)
            + self.bands.abs_diff(other.bands)
            == 1
    }

    fn label(&self) -> String {
        let (alpha, iters, tol, bands) = self.settings();
        format!("a {alpha:.1}  D {iters:>2}/{tol:.0e}  +{bands}")
    }
}

/// A candidate that converged on one geometry, and its distance from the
/// reference.
struct Measured {
    eval: Evaluation,
    dev: Deviation,
}

/// Every candidate on one geometry, in `Candidate::all()` order; `None`
/// where the SCF did not converge within the first attempt's budget. The
/// warm milliseconds are the best of `timing_reps` evaluations; everything
/// else repeats exactly.
fn sweep_geometry(
    geometry: Geometry,
    candidates: &[Candidate],
    timing_reps: usize,
) -> Vec<Option<Measured>> {
    let spec = JobSpec {
        geometry,
        ..JobSpec::default()
    };
    let (system, base) = (spec.build_system(), spec.ldc_config());
    let reference = contract::evaluate(&system, contract::reference_config(&base))
        .expect("the tight reference converges");
    candidates
        .iter()
        .map(|c| {
            let eval = (0..timing_reps)
                .filter_map(|_| contract::evaluate(&system, c.apply(&base)).ok())
                .min_by(|a, b| a.warm_seconds.total_cmp(&b.warm_seconds))?;
            let dev = eval.deviation(&reference);
            Some(Measured { eval, dev })
        })
        .collect()
}

/// `--sweep`: prints the table; returns the gate's violations.
fn sweep() -> Vec<String> {
    let candidates = Candidate::all();
    let committed_cfg = JobSpec::default().ldc_config();
    let h2: Vec<(f64, f64, Vec<Option<Measured>>)> = SWEEP_CELLS
        .iter()
        .flat_map(|&cell| SWEEP_BONDS.iter().map(move |&bond| (cell, bond)))
        .map(|(cell, bond)| {
            let column = sweep_geometry(Geometry::H2 { cell, bond }, &candidates, 3);
            (cell, bond, column)
        })
        .collect();
    let sic: Vec<Vec<Option<Measured>>> = SWEEP_SIC
        .iter()
        .map(|&nc| sweep_geometry(Geometry::SiC { nc }, &candidates, 1))
        .collect();

    // Candidate `i` on every H₂ geometry; `None` if it failed to converge
    // on any.
    let on_h2 = |i: usize| -> Option<Vec<&Measured>> {
        h2.iter().map(|(_, _, column)| column[i].as_ref()).collect()
    };
    let work = |ms: &[&Measured]| {
        ms.iter()
            .map(|m| m.eval.cold_flops + m.eval.warm_flops)
            .sum::<u64>()
    };
    let mflop = |flops: u64| flops as f64 * 1e-6;
    let in_contract = |ms: &[&Measured]| ms.iter().all(|m| m.dev.within_contract());
    let worst =
        |ms: &[&Measured], f: fn(&Measured) -> f64| ms.iter().map(|m| f(m)).fold(0.0, f64::max);

    println!(
        "== service SCF sweep: tol_density {:e}; contract |dE| <= {:e} Ha, |dF| <= {:e} Ha/Bohr ==\n\n\
         H2 columns: warm SCF iterations (min-max over {} cells x {} bonds), ms and MFLOP\n\
         per warm evaluation (mean over bonds) at each cell, largest |dE| and |dF| against\n\
         the reference. SiC columns: cold/warm SCF iterations, |dE|, |dF|.\n",
        committed_cfg.tol_density,
        contract::ENERGY_TOL,
        contract::FORCE_TOL,
        SWEEP_CELLS.len(),
        SWEEP_BONDS.len()
    );
    let mut header = vec!["H2 iters".to_string()];
    header.extend(SWEEP_CELLS.iter().map(|c| format!("ms @{c}")));
    header.extend(SWEEP_CELLS.iter().map(|c| format!("MFLOP @{c}")));
    header.extend(["max |dE|", "max |dF|", "contract"].map(String::from));
    for nc in SWEEP_SIC {
        header.push(format!("SiC{}{}{} c/w", nc.0, nc.1, nc.2));
        header.extend(["|dE|", "|dF|"].map(String::from));
    }
    println!("{}", row("candidate", &header));
    let mut committed = None;
    for (i, c) in candidates.iter().enumerate() {
        let mut cols = match on_h2(i) {
            Some(ms) => {
                let iters = ms.iter().map(|m| m.eval.warm_iterations);
                let (lo, hi) = (iters.clone().min().unwrap_or(0), iters.max().unwrap_or(0));
                let mut cols = vec![format!("{lo}-{hi}")];
                for chunk in ms.chunks(SWEEP_BONDS.len()) {
                    let s: f64 = chunk.iter().map(|m| m.eval.warm_seconds).sum();
                    cols.push(format!("{:.2}", s * 1e3 / chunk.len() as f64));
                }
                for chunk in ms.chunks(SWEEP_BONDS.len()) {
                    let f: u64 = chunk.iter().map(|m| m.eval.warm_flops).sum();
                    cols.push(format!("{:.1}", mflop(f) / chunk.len() as f64));
                }
                cols.push(format!("{:.1e}", worst(&ms, |m| m.dev.energy)));
                cols.push(format!("{:.1e}", worst(&ms, |m| m.dev.force)));
                cols.push(if in_contract(&ms) { "in" } else { "OUT" }.into());
                cols
            }
            None => vec!["-".to_string(); 4 + 2 * SWEEP_CELLS.len()],
        };
        for column in &sic {
            cols.extend(match &column[i] {
                Some(m) => [
                    format!("{}/{}", m.eval.cold_iterations, m.eval.warm_iterations),
                    format!("{:.1e}", m.dev.energy),
                    format!("{:.1e}", m.dev.force),
                ],
                None => ["-", "-", "-"].map(String::from),
            });
        }
        let is_committed = c.settings()
            == (
                committed_cfg.mix_alpha,
                committed_cfg.davidson_iters,
                committed_cfg.davidson_tol,
                committed_cfg.extra_bands,
            );
        if is_committed {
            committed = Some(i);
        }
        let mark = if is_committed { "* " } else { "  " };
        println!("{}", row(&format!("{mark}{}", c.label()), &cols));
    }
    println!("\n* = the committed JobSpec::ldc_config()");

    let Some(ci) = committed else {
        return vec!["the committed settings are not a candidate of the sweep".into()];
    };
    let near: Vec<usize> = (0..candidates.len())
        .filter(|&i| candidates[i].neighbours(&candidates[ci]))
        .collect();

    println!(
        "\nper cell/bond, the committed row and its neighbours (warm iterations, |dE|, |dF|),\n\
         and the gate's measure: cold + warm MFLOP summed over the H2 geometries:"
    );
    let mut geometries: Vec<String> = h2.iter().map(|(c, b, _)| format!("{c}/{b}")).collect();
    geometries.push("MFLOP".into());
    println!("{}", row("candidate", &geometries));
    for &i in [ci].iter().chain(&near) {
        let mut cols: Vec<String> = h2
            .iter()
            .map(|(_, _, column)| match &column[i] {
                Some(m) => format!(
                    "{} {:.0e} {:.0e}",
                    m.eval.warm_iterations, m.dev.energy, m.dev.force
                ),
                None => "-".into(),
            })
            .collect();
        cols.push(on_h2(i).map_or("-".into(), |ms| format!("{:.1}", mflop(work(&ms)))));
        let mark = if i == ci { "* " } else { "  " };
        println!(
            "{}",
            row(&format!("{mark}{}", candidates[i].label()), &cols)
        );
    }

    let mut violations = Vec::new();
    for (nc, column) in SWEEP_SIC.iter().zip(&sic) {
        if column[ci].is_none() {
            violations.push(format!(
                "SiC {nc:?}: the committed settings do not converge within the first attempt's \
                 budget"
            ));
        }
    }
    let Some(mine) = on_h2(ci) else {
        violations.push("the committed settings do not converge on every H2 geometry".into());
        return violations;
    };
    if !in_contract(&mine) {
        violations.push(format!(
            "the committed settings leave the contract: largest |dE| {:.2e} Ha, |dF| {:.2e} \
             Ha/Bohr over the H2 geometries",
            worst(&mine, |m| m.dev.energy),
            worst(&mine, |m| m.dev.force)
        ));
    }
    for i in near {
        let better = on_h2(i)
            .filter(|theirs| in_contract(theirs))
            .map(|theirs| work(&theirs))
            .filter(|&theirs| theirs as f64 <= (1.0 - WORK_MARGIN) * work(&mine) as f64);
        if let Some(theirs) = better {
            violations.push(format!(
                "neighbour [{}] is inside the contract with {:.1} MFLOP (cold + warm) over the \
                 H2 geometries against the committed {:.1}",
                candidates[i].label(),
                mflop(theirs),
                mflop(work(&mine))
            ));
        }
    }
    violations
}

fn audit_into(
    leg: &str,
    ledger: &mqmd_serve::Ledger,
    quota: usize,
    capacity: usize,
    violations: &mut Vec<String>,
) {
    for v in ledger.audit(quota, capacity) {
        violations.push(format!("[{leg}] {v}"));
    }
}

fn print_ledger(ledger: &mqmd_serve::Ledger) {
    println!(
        "\n{}",
        row(
            "job",
            &[
                "tenant".into(),
                "prio".into(),
                "attempts".into(),
                "preempt".into(),
                "state".into()
            ]
        )
    );
    for rec in ledger.records.values() {
        println!(
            "{}",
            row(
                &format!("#{}", rec.id),
                &[
                    format!("{}", rec.tenant),
                    format!("{}", rec.priority),
                    format!("{}", rec.attempts),
                    format!("{}", rec.preemptions),
                    rec.state.label().into(),
                ],
            )
        );
    }
}

fn main() {
    let mut args = std::env::args();
    let _prog = args.next();
    let (mut seed, mut tenants, mut jobs) = (43u64, 4u64, 3u64);
    let (mut soak, mut chaos) = (false, false);
    let (mut sweep_leg, mut check) = (false, false);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--soak" => soak = true,
            "--chaos" => chaos = true,
            "--sweep" => sweep_leg = true,
            "--check" => check = true,
            "--seed" => seed = parse_u64(&mut args, "--seed"),
            "--tenants" => tenants = parse_u64(&mut args, "--tenants").max(1),
            "--jobs" => jobs = parse_u64(&mut args, "--jobs").max(1),
            _ => usage(),
        }
    }
    if check && !sweep_leg {
        usage();
    }
    if sweep_leg {
        let violations = sweep();
        for v in &violations {
            println!("SWEEP GATE: {v}");
        }
        if violations.is_empty() {
            println!(
                "\nthe committed settings are inside the contract and no neighbour beats them"
            );
        } else if check {
            std::process::exit(1);
        }
        return;
    }
    println!("== repro_serve: seed {seed}, {tenants} tenants x {jobs} jobs ==\n");
    faults::clear();
    faults::reset_stats();
    events::set_enabled(true);
    let _ = events::drain();

    let mut violations = Vec::new();
    preemption_probe(seed, &mut violations);
    if soak {
        admission_storm(seed, tenants, &mut violations);
        deadline_storm(seed, tenants, &mut violations);
    }
    if chaos {
        chaos_leg(seed, tenants, jobs, &mut violations);
    }

    events::set_enabled(false);
    let drops = events::dropped_by_lane();
    let (records, dropped) = events::drain();
    let job_events = records
        .iter()
        .filter(|r| matches!(r.event, events::Event::JobState { .. }))
        .count();
    println!(
        "\nevent log: {} records ({job_events} job transitions), {dropped} dropped across {} lanes",
        records.len(),
        drops.len()
    );

    if violations.is_empty() {
        println!("\nall service invariants hold");
    } else {
        println!();
        for v in &violations {
            println!("INVARIANT VIOLATED: {v}");
        }
        std::process::exit(1);
    }
}
