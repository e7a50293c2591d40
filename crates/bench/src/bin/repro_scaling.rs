//! Reproduces **Fig 5** (weak scaling) and **Fig 6** (strong scaling).
//!
//! The per-domain compute time is *measured* by running this repository's
//! Rust domain Kohn–Sham solver on the paper's 64-atom-per-core SiC
//! workload; the at-scale wall-clock then comes from the Blue Gene/Q
//! machine model of `mqmd-parallel` (see DESIGN.md substitution table).
//!
//! With `--real-ranks`, the same weak/strong protocol additionally runs
//! on **real rank processes** (2–16 `mqmd-rank` workers over TCP): each
//! point is a measured wall-clock next to the digital twin's prediction
//! for the identical traffic, with the per-collective relative error —
//! the model-vs-reality loop of DESIGN §4g.
//!
//! Usage: `cargo run --release -p mqmd-bench --bin repro_scaling [--real-ranks]`
//!
//! Without `BENCH_profile.json` in the working directory the per-domain
//! solve is measured live; with one that does not parse under the
//! current profile schema the binary exits 2.

use mqmd_bench::real_ranks::worker_bin;
use mqmd_bench::{measure_domain_solve_seconds, pct_dev, row};
use mqmd_parallel::measured::{MeasuredProfile, PROFILE_PATH};
use mqmd_parallel::process::{run_processes, ProcessOpts, RecoveryOpts};
use mqmd_parallel::twin::{calibrate_from_pingpong, TwinModel};
use mqmd_parallel::{StrongScalingModel, WeakScalingModel};
use mqmd_util::MqmdError;
use std::time::Duration;

/// Rank counts of the real-process sweeps.
const REAL_RANK_POINTS: [usize; 4] = [2, 4, 8, 16];

fn real_opts(args: &[f64]) -> ProcessOpts {
    ProcessOpts {
        deadline: Duration::from_secs(120),
        args: args.to_vec(),
        // Long sweeps ride out a transient worker death by in-place
        // restart instead of aborting the whole protocol.
        recovery: Some(RecoveryOpts::default()),
        ..Default::default()
    }
}

/// Measured weak/strong curves on real rank processes, with the twin's
/// prediction replayed from each run's traffic ledger.
fn real_rank_scaling() {
    let worker = worker_bin();
    println!(
        "== real-rank scaling: {} workers over TCP ==\n",
        worker.display()
    );
    let twin = match run_processes(&worker, "pingpong", 2, real_opts(&[32.0, 65_536.0])) {
        Ok(p) => {
            let cal = calibrate_from_pingpong(p.results[0][0], p.results[0][1], p.results[0][2]);
            println!(
                "calibrated host twin: latency {:.2e} s, bandwidth {:.2e} B/s\n",
                cal.mpi_latency, cal.link_bandwidth
            );
            TwinModel::calibrated(cal)
        }
        Err(e) => {
            eprintln!("error: ping-pong calibration failed: {e}");
            std::process::exit(1);
        }
    };

    for (title, program, args_of) in [
        (
            "weak scaling (4096 f64/rank/round, 8 rounds)",
            "weak_collectives",
            (|_p: usize| vec![4096.0, 8.0]) as fn(usize) -> Vec<f64>,
        ),
        (
            "strong scaling (65536 f64 total/round, 8 rounds)",
            "strong_collectives",
            |_p: usize| vec![65_536.0, 8.0],
        ),
    ] {
        println!("-- {title} --");
        println!(
            "{}",
            row(
                "ranks",
                &[
                    "measured s".into(),
                    "twin s".into(),
                    "rel err".into(),
                    "frames".into(),
                ]
            )
        );
        for p in REAL_RANK_POINTS {
            match run_processes(&worker, program, p, real_opts(&args_of(p))) {
                Ok(run) => {
                    let rows = twin.validate(&run.traffic, p);
                    let predicted: f64 = rows.iter().map(|r| r.predicted_secs).sum();
                    let measured: f64 = rows.iter().map(|r| r.measured_secs).sum();
                    let rel = if measured > 0.0 {
                        (measured - predicted) / measured
                    } else {
                        0.0
                    };
                    println!(
                        "{}",
                        row(
                            &format!("{p}"),
                            &[
                                format!("{measured:.4}"),
                                format!("{predicted:.4}"),
                                format!("{rel:+.2}"),
                                format!("{}", run.data_frames),
                            ]
                        )
                    );
                    for r in &rows {
                        println!(
                            "{}",
                            row(
                                &format!("  {}", r.op),
                                &[
                                    format!("{:.4}", r.measured_secs),
                                    format!("{:.4}", r.predicted_secs),
                                    format!("{:+.2}", r.rel_err),
                                    format!("{}", r.msgs),
                                ]
                            )
                        );
                    }
                }
                Err(e) => {
                    eprintln!("error: {program} at p = {p} failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        println!();
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--real-ranks") {
        real_rank_scaling();
        return;
    }
    println!("== Fig 5: weak scaling (64P-atom SiC on P cores of Blue Gene/Q) ==\n");
    // The per-core domain solve time is always *measured*: read from the
    // BENCH_profile.json a prior `repro_profile` run wrote, or, when there
    // is no such file, measured live here (3 SCF × 3 CG-like refinement,
    // as in the paper's benchmark protocol). A file that is present but
    // unreadable is an error, not a cue to switch protocols.
    let t_domain = if std::path::Path::new(PROFILE_PATH).exists() {
        let loaded = MeasuredProfile::load(PROFILE_PATH).and_then(|p| {
            p.domain_solve_seconds()
                .ok_or_else(|| MqmdError::Parse("no per-domain solve time".into()))
        });
        match loaded {
            Ok(t) => {
                println!("per-domain solve from {PROFILE_PATH}: {t:.3} s\n");
                t
            }
            Err(e) => {
                eprintln!("error: {PROFILE_PATH}: {e}");
                std::process::exit(2);
            }
        }
    } else {
        println!("no {PROFILE_PATH} here: measuring the per-domain solve live");
        let t = measure_domain_solve_seconds(2.5, 1.0, 9);
        println!("measured per-domain solve on this host: {t:.3} s\n");
        t
    };

    let model = WeakScalingModel::fig5(t_domain);
    println!(
        "{}",
        row("P (cores)", &["s/QMD step".into(), "efficiency".into()])
    );
    for (p, t) in model.sweep() {
        let eff = model.efficiency(p, 16);
        println!(
            "{}",
            row(&format!("{p}"), &[format!("{t:.3}"), format!("{eff:.4}")])
        );
    }
    let eff_full = model.efficiency(786_432, 16);
    println!(
        "\nweak-scaling efficiency at P = 786,432: {:.4}  (paper: 0.984, dev {})\n",
        eff_full,
        pct_dev(eff_full, 0.984)
    );

    println!("== Fig 6: strong scaling (77,889-atom LiAl + water) ==\n");
    // Total divisible work comes from the same measured per-domain solve
    // time — no hand-entered wall-clock enters this path. Our measured
    // domain is far lighter than the paper's (which implies ~1,900
    // core-seconds per domain per step on a Blue Gene/Q core), so the
    // projected curve goes communication-bound earlier; the paper-shape
    // check (speedup 12.85 at 16× cores for paper-scale work) is the
    // regression test in `mqmd_parallel::scaling`.
    let model = StrongScalingModel::fig6_from_measured(t_domain);
    println!(
        "{}",
        row(
            "P (cores)",
            &["s/QMD step".into(), "speedup".into(), "efficiency".into()]
        )
    );
    for (p, t) in model.sweep() {
        println!(
            "{}",
            row(
                &format!("{p}"),
                &[
                    format!("{t:.3}"),
                    format!("{:.2}", model.speedup(p, 49_152)),
                    format!("{:.3}", model.efficiency(p, 49_152)),
                ]
            )
        );
    }
    let s = model.speedup(786_432, 49_152);
    let e = model.efficiency(786_432, 49_152);
    println!("\nmeasured-workload speedup at 16× cores: {s:.2}, efficiency {e:.3}");
    println!(
        "(paper: 12.85 and 0.803 for its far heavier ~1,900 core-s/domain \
         workload; that shape is regression-tested in mqmd_parallel::scaling)"
    );
}
