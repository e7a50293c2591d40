//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! mqmd-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                    [--traced] [--smoke] [--label TEXT]
//! mqmd-benchmark compare A.json B.json
//! ```
//!
//! `run --workload NAME` measures one workload in this process and prints a
//! one-line JSON result last; without `--workload`, `run` starts one child
//! process per workload and prints every metric by name. The same binary is
//! the rank worker of `ranks_sic16_p2`.

mod compare;
mod layers;
mod probes;
mod procfs;
mod report;
mod spans;
mod spec;
mod stats;
mod workloads;

use spec::Spec;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::RunArgs;

/// Where result and trace files go: `benchmark/out/` of the checkout this
/// binary was built in.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

const USAGE: &str = "usage: mqmd-benchmark run [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--traced] [--smoke] [--label TEXT]\n       mqmd-benchmark compare A.json B.json";

/// `run`'s command line: the workload (`None` for the whole set) and the
/// options.
fn parse_run(
    args: &[String],
    spec: &Spec,
    started: Instant,
) -> Result<(Option<String>, RunArgs), String> {
    let mut workload = None;
    let mut o = RunArgs {
        seed: 1,
        seconds: spec.run_seconds,
        trace: false,
        smoke: false,
        label: "unlabelled".into(),
        started,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => o.trace = value()? != "0",
            "--traced" => o.trace = true,
            "--smoke" => o.smoke = true,
            "--label" => o.label = value()?.clone(),
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok((workload, o))
}

fn main() -> ExitCode {
    let started = Instant::now();
    // A rank process of `ranks_sic16_p2` is this same executable, told so
    // through the MQMD_RANK_* environment.
    if let Some(code) =
        metascale_qmd::parallel::process::worker_from_env(workloads::ranks::REGISTRY)
    {
        return ExitCode::from(code as u8);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::load();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..], &spec, started).and_then(|(workload, o)| {
            match workload {
                Some(workload) => {
                    let threads = workloads::rayon_threads(&workload)
                        .ok_or(format!("unknown workload {workload}"))?;
                    // The rayon shim reads this once, at its first parallel
                    // call; nothing has made one yet, and no thread exists.
                    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
                    report::run_one(&spec, &workload, &o)
                }
                None => report::run_all(&spec, &o),
            }
        }),
        Some("compare") if args.len() == 3 => compare::main(&spec, &args[1], &args[2]),
        _ => Err(USAGE.into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("mqmd-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
