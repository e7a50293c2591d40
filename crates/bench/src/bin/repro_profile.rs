//! Profiles a small LDC-DFT QMD run under the hierarchical tracer and
//! writes `BENCH_profile.json` (`mqmd-profile-v8`), a Chrome-trace
//! timeline (`BENCH_trace.json`, loadable in `chrome://tracing` or
//! Perfetto), and the structured event log (`BENCH_events.jsonl`).
//!
//! The profile is the measured half of the DESIGN.md substitution: per-
//! kernel wall-time and FLOP counts come from running this repository's
//! real kernels (GEMM, FFT, Poisson, SCF, domain solve), and the scaling
//! models of `mqmd-parallel` then consume the dedicated Fig 5 domain-solve
//! time instead of any hand-entered wall-clock constant (`repro_paper`
//! reads the file back). Beside the span tree and the kernel table the
//! document carries two measured blocks: `twin`, a real 4-process rank
//! session's per-collective wall-clock against the host-calibrated cost
//! model's prediction (plus `BENCH_ranks_trace.json`, the per-rank event
//! streams merged into one Chrome trace — also available standalone via
//! `repro_profile --merge-ranks <prefix> [out.json]`), and
//! `rank_recovery`, the detect/respawn/rejoin latencies of a seeded kill
//! drill through the recovery supervisor.
//!
//! Two gates run on the measurement itself, and either failing exits 1
//! after every file is written:
//!
//! * **allocations** — the first QMD step warms every plan and
//!   workspace; the global workspace-miss delta across the second step
//!   must be 0 (`tests/workspace_reuse.rs` pins the same property);
//! * **recovery ledger** — the run's own fault ledger must record no
//!   abort and no injected fault left unrecovered.
//!
//! Usage:
//! `cargo run --release -p mqmd-bench --bin repro_profile \
//!  [out.json [trace.json [events.jsonl]]]`

use mqmd_bench::real_ranks;
use mqmd_bench::{measure_domain_solve_seconds, row, tiny_ldc_config};
use mqmd_core::global::LdcSolver;
use mqmd_core::qmd::QmdDriver;
use mqmd_md::builders::sic_supercell;
use mqmd_md::thermostat::Berendsen;
use mqmd_parallel::executor::run_ranks;
use mqmd_parallel::measured::{MeasuredProfile, PROFILE_PATH};
use mqmd_parallel::process::{rank_recovery_block, run_processes, KillSpec, ProcessOpts};
use mqmd_parallel::twin::{calibrate_from_pingpong, twin_block, TwinModel};
use mqmd_parallel::Comm;
use mqmd_util::metrics::{profile_report, Json};
use mqmd_util::{chrometrace, events, faults, trace, workspace};
use std::time::Duration;

/// Default Chrome-trace output path.
const TRACE_PATH: &str = "BENCH_trace.json";
/// Default structured-event log path.
const EVENTS_PATH: &str = "BENCH_events.jsonl";
/// Prefix of the per-rank event streams the twin session writes.
const RANK_EVENTS_PREFIX: &str = "BENCH_rank_events";
/// Merged per-rank Chrome trace (one pid per rank).
const RANK_TRACE_PATH: &str = "BENCH_ranks_trace.json";

/// Collects `{prefix}.rank{r}.jsonl` streams in rank order.
fn rank_event_streams(prefix: &str) -> Vec<(String, Vec<events::EventRecord>)> {
    let mut streams = Vec::new();
    for rank in 0..1024 {
        let path = format!("{prefix}.rank{rank}.jsonl");
        let Ok(text) = std::fs::read_to_string(&path) else {
            break;
        };
        match events::parse_jsonl(&text) {
            Ok(records) => streams.push((format!("rank {rank}"), records)),
            Err(e) => {
                eprintln!("warning: skipping {path}: {e}");
                break;
            }
        }
    }
    streams
}

/// `--merge-ranks <prefix> [out.json]`: merge per-rank JSONL event
/// streams into one Chrome trace with one process track per rank.
fn merge_ranks_mode(prefix: &str, out: &str) -> ! {
    let streams = rank_event_streams(prefix);
    if streams.is_empty() {
        eprintln!("error: no {prefix}.rank*.jsonl streams found");
        std::process::exit(1);
    }
    let timeline = chrometrace::chrome_trace_multi(&streams);
    chrometrace::validate(&timeline).expect("merged timeline must nest");
    if let Err(e) = std::fs::write(out, timeline.compact()) {
        eprintln!("error: cannot write {out}: {e}");
        std::process::exit(1);
    }
    println!(
        "merged {} rank streams ({} events) into {out}",
        streams.len(),
        timeline
            .get("traceEvents")
            .and_then(Json::as_arr)
            .map(<[Json]>::len)
            .unwrap_or(0),
    );
    std::process::exit(0);
}

/// Runs a small real-rank session and replays its traffic ledger
/// through the host-calibrated digital twin: the profile's `twin` block,
/// plus per-rank event streams merged into
/// [`RANK_TRACE_PATH`]. Returns `Json::Null` (with a warning) if the
/// worker binary cannot run here — the profile stays valid without it.
fn twin_validation_block() -> Json {
    let worker = real_ranks::worker_bin();
    let opts = |args: &[f64]| ProcessOpts {
        deadline: Duration::from_secs(60),
        args: args.to_vec(),
        ..Default::default()
    };
    // Calibrate latency/bandwidth from a 2-process ping-pong.
    let cal = match run_processes(&worker, "pingpong", 2, opts(&[32.0, 65_536.0])) {
        Ok(p) => calibrate_from_pingpong(p.results[0][0], p.results[0][1], p.results[0][2]),
        Err(e) => {
            eprintln!("warning: twin calibration skipped ({e}); profile omits the twin block");
            return Json::Null;
        }
    };
    println!(
        "twin calibration: latency {:.2e} s, bandwidth {:.2e} B/s",
        cal.mpi_latency, cal.link_bandwidth
    );
    // A 4-rank session with the full collective mix, events on.
    let mut o = opts(&[512.0]);
    o.events_prefix = Some(RANK_EVENTS_PREFIX.to_string());
    let session = match run_processes(&worker, "collectives_smoke", 4, o) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("warning: twin session failed ({e}); profile omits the twin block");
            return Json::Null;
        }
    };
    let twin = TwinModel::calibrated(cal);
    let rows = twin.validate(&session.traffic, 4);
    println!(
        "{}",
        row(
            "collective",
            &[
                "calls".into(),
                "predicted s".into(),
                "measured s".into(),
                "rel err".into()
            ]
        )
    );
    for r in &rows {
        println!(
            "{}",
            row(
                &r.op,
                &[
                    format!("{}", r.calls),
                    format!("{:.3e}", r.predicted_secs),
                    format!("{:.3e}", r.measured_secs),
                    format!("{:+.2}", r.rel_err),
                ]
            )
        );
    }
    let streams = rank_event_streams(RANK_EVENTS_PREFIX);
    if !streams.is_empty() {
        let timeline = chrometrace::chrome_trace_multi(&streams);
        chrometrace::validate(&timeline).expect("rank timeline must nest");
        if let Err(e) = std::fs::write(RANK_TRACE_PATH, timeline.compact()) {
            eprintln!("warning: cannot write {RANK_TRACE_PATH}: {e}");
        } else {
            println!("wrote {RANK_TRACE_PATH} ({} rank tracks)", streams.len());
        }
    }
    twin_block(&twin.machine.name, &rows)
}

/// Runs a seeded kill drill through the recovery supervisor and returns
/// the profile's measured `rank_recovery` block (restart counts plus
/// detect/respawn/rejoin latencies on this host). Returns
/// `Json::Null` (with a warning) if the drill cannot run here.
fn rank_recovery_drill_block() -> Json {
    let run = run_processes(
        &real_ranks::worker_bin(),
        "count_allreduce",
        4,
        ProcessOpts {
            deadline: Duration::from_secs(60),
            args: vec![50.0, 256.0],
            kill: Some(KillSpec {
                rank: 1,
                after_data_frames: 2,
                repeat: 1,
            }),
            recover: true,
            ..Default::default()
        },
    );
    let stats = match run {
        Ok(p) if p.recovery.restarts > 0 => p.recovery,
        Ok(_) => {
            eprintln!("warning: recovery drill saw no restart; profile omits rank_recovery");
            return Json::Null;
        }
        Err(e) => {
            eprintln!("warning: recovery drill failed ({e}); profile omits rank_recovery");
            return Json::Null;
        }
    };
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "rank recovery drill: {} restart(s); detect {:.1} ms, respawn {:.1} ms, \
         rejoin {:.1} ms (means)",
        stats.restarts,
        mean(&stats.detect_ms),
        mean(&stats.respawn_ms),
        mean(&stats.rejoin_ms)
    );
    rank_recovery_block(&stats)
}

/// The spans flattened into the profile's kernel table.
const KERNELS: &[&str] = &[
    "qmd_step",
    "scf_iter",
    "domain_solve",
    "hamiltonian",
    "eigen",
    "gemm",
    "orthonorm",
    "fft",
    "poisson",
    "global_density",
    "global_reduce",
];

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--merge-ranks") {
        let prefix = std::env::args()
            .nth(2)
            .unwrap_or_else(|| RANK_EVENTS_PREFIX.to_string());
        let out = std::env::args()
            .nth(3)
            .unwrap_or_else(|| RANK_TRACE_PATH.to_string());
        merge_ranks_mode(&prefix, &out);
    }
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| PROFILE_PATH.to_string());
    let trace_path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| TRACE_PATH.to_string());
    let events_path = std::env::args()
        .nth(3)
        .unwrap_or_else(|| EVENTS_PATH.to_string());
    // Fail fast on an unwritable destination — the measurement below takes
    // minutes and must not be thrown away on a typo'd path.
    for path in [&out_path, &trace_path, &events_path] {
        if let Err(e) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
    }

    trace::set_enabled(true);
    trace::take(); // discard any prior counters
    events::set_enabled(true);
    let _ = events::drain();

    // 1. Two real QMD steps of the 8-atom SiC cell through the full LDC
    //    pipeline (domain decomposition, SCF, Davidson, Hartree solve).
    //    The first step warms every plan and workspace; the global
    //    workspace-miss delta across the second is the steady-state
    //    hot-path allocation gauge the allocation gate reads.
    println!("== repro_profile: tracing a two-step LDC-DFT QMD run ==\n");
    let mut sys = sic_supercell((1, 1, 1));
    let mut solver = LdcSolver::new(tiny_ldc_config());
    let mut driver: QmdDriver<Berendsen> = QmdDriver::new(10.0, None);
    let warm = driver.run(&mut sys, &mut solver, 1);
    let pre_steady = workspace::global_stats().snapshot();
    let report = driver.run(&mut sys, &mut solver, 1);
    let steady = workspace::global_stats().snapshot().since(&pre_steady);
    println!(
        "QMD steps done: {} + {} SCF iterations, {:.2} s wall; \
         steady-state workspace misses {} (hits {})",
        warm.scf_iterations,
        report.scf_iterations,
        warm.wall_seconds + report.wall_seconds,
        steady.misses,
        steady.hits
    );

    // 2. One standalone single-domain Kohn–Sham solve on the Fig 5 64-atom
    //    workload — the `domain_solve` timing the scaling models consume.
    let t_domain = measure_domain_solve_seconds(2.0, 1.2, 6);
    println!("standalone Fig 5 domain solve: {t_domain:.2} s");

    // 3. Executed communication: a binomial-tree allreduce over 8 rank
    //    threads (the global-density reduction pattern).
    {
        let _span = trace::span("global_reduce");
        run_ranks(8, |rank, comm| {
            comm.allreduce_sum(vec![rank as f64; 512])
                .expect("in-process allreduce");
        });
    }

    // 3b. Digital-twin validation: a real 4-process rank session over TCP,
    //     its measured per-collective wall-clock replayed through the
    //     host-calibrated cost model (the `twin` block), and the
    //     per-rank event streams merged into one Chrome trace.
    println!("\n== digital twin: real-rank session vs cost model ==\n");
    let twin = twin_validation_block();

    // 3c. Rank-recovery drill: a seeded kill healed by the supervisor,
    //     measuring detect/respawn/rejoin latency on this host (the
    //     `rank_recovery` block).
    println!("\n== rank recovery: seeded kill through the supervisor ==\n");
    let rank_recovery = rank_recovery_drill_block();

    // 4. Serialise the hierarchical trace + flattened kernel table, the
    //    Chrome-trace timeline, and the structured event log.
    let node = trace::take();
    trace::set_enabled(false);
    events::set_enabled(false);
    let (records, dropped) = events::drain();
    if dropped > 0 {
        eprintln!("warning: event sink dropped {dropped} records");
    }
    let timeline = chrometrace::chrome_trace(&records);
    chrometrace::validate(&timeline).expect("exported timeline must nest");
    if let Err(e) = std::fs::write(&trace_path, timeline.compact()) {
        eprintln!("error: cannot write {trace_path}: {e}");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(&events_path, events::to_jsonl(&records)) {
        eprintln!("error: cannot write {events_path}: {e}");
        std::process::exit(1);
    }
    println!(
        "wrote {trace_path} ({} events) and {events_path} ({} records)",
        timeline
            .get("traceEvents")
            .and_then(Json::as_arr)
            .map(<[Json]>::len)
            .unwrap_or(0),
        records.len()
    );
    let extra = vec![
        ("atoms".to_string(), Json::Num(sys.len() as f64)),
        (
            "scf_iterations".to_string(),
            Json::Num(report.scf_iterations as f64),
        ),
        ("domain_solve_fig5_secs".to_string(), Json::Num(t_domain)),
        // Model-predicted vs wall-clock per collective from a real-rank
        // session (Null when the worker binary cannot run here).
        ("twin".to_string(), twin),
        // Measured supervisor latencies from the seeded kill drill (Null
        // when the drill cannot run here).
        ("rank_recovery".to_string(), rank_recovery),
    ];
    let doc = profile_report(&node, KERNELS, extra);
    if let Err(e) = std::fs::write(&out_path, doc.pretty()) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("\nwrote {out_path}\n");

    // 5. Read the file back the same way `repro_paper` does and show the
    //    kernel table (the Fig 5/6 rows it drives are `repro_paper`'s).
    let profile = MeasuredProfile::load(&out_path).expect("reload profile");
    println!(
        "{}",
        row(
            "kernel",
            &[
                "calls".into(),
                "seconds".into(),
                "GFLOP/s".into(),
                "alloc_count".into(),
                "alloc_bytes".into(),
            ]
        )
    );
    for (name, k) in profile.kernels() {
        println!(
            "{}",
            row(
                name,
                &[
                    format!("{}", k.calls),
                    format!("{:.4}", k.seconds),
                    format!("{:.3}", k.gflops()),
                    format!("{}", k.alloc_count),
                    format!("{}", k.alloc_bytes),
                ]
            )
        );
    }
    let total_alloc = workspace::global_stats().snapshot();
    println!(
        "\nworkspace arena: {} hits / {} misses ({} miss bytes)",
        total_alloc.hits, total_alloc.misses, total_alloc.miss_bytes
    );

    let t = profile
        .domain_solve_seconds()
        .expect("domain_solve span recorded");
    println!("\nmeasured domain-solve seconds feeding the machine model: {t:.3}");

    // 6. The gates on this run's own measurement.
    let verdict = |ok: bool| if ok { "ok" } else { "FAIL" };
    let allocs_ok = steady.misses == 0;
    println!(
        "\nallocation gate: steady-state QMD step workspace misses {} (must be 0)  [{}]",
        steady.misses,
        verdict(allocs_ok)
    );
    // No abort, and every injected fault recovered.
    let ledger = faults::stats();
    let ledger_ok = ledger.aborted == 0 && ledger.injected <= ledger.recovered;
    println!(
        "recovery gate: {} injected, {} recovered, {} aborted  [{}]",
        ledger.injected,
        ledger.recovered,
        ledger.aborted,
        verdict(ledger_ok)
    );
    if !(allocs_ok && ledger_ok) {
        std::process::exit(1);
    }
}
