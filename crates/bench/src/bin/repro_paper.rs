//! Regenerates every number of the paper's evaluation — Figs 5–7 and 9,
//! Tables 1–2, §2, §3.1/§5.2, §4.4, §5.4, §5.5 and §6 — as tagged rows,
//! writes them to `PAPER_RESULTS.md` in the working directory and prints
//! the same table.
//!
//! The Fig 5/6 per-domain solve time is read from the `BENCH_profile.json`
//! a `repro_profile` run wrote, or measured live when there is no such
//! file; a file that does not parse under the current profile schema exits
//! 2. A run takes ≈ 5 minutes on two cores, most of it real solves.
//!
//! `--full` runs Fig 7 on the paper-shaped 64-atom CdSe geometry instead of
//! the quick hydrogen lattice. `--real-ranks` runs only the Figs 5/6
//! protocol on real rank processes (2–16 `mqmd-rank` workers over TCP),
//! each point's measured time beside the digital twin's prediction, and
//! prints it without writing the file.
//!
//! Usage: `cargo run --release -p mqmd-bench --bin repro_paper [--full | --real-ranks]`

use mqmd_bench::measure_domain_solve_seconds;
use mqmd_bench::paper::{self, RESULTS_PATH};
use mqmd_parallel::measured::{MeasuredProfile, PROFILE_PATH};
use mqmd_util::MqmdError;
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (full, real_ranks) = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] => (false, false),
        ["--full"] => (true, false),
        ["--real-ranks"] => (false, true),
        _ => {
            eprintln!("usage: repro_paper [--full | --real-ranks]");
            exit(2);
        }
    };
    let flag: String = args.iter().map(|a| format!(" -- {a}")).collect();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let written = format!(
        "Written by `cargo run --release --offline -p mqmd-bench --bin repro_paper{flag}` \
         on {cpus} logical CPUs, {} rayon threads.",
        rayon::current_num_threads()
    );
    if real_ranks {
        let rows = paper::real_rank_scaling().unwrap_or_else(|e| {
            eprintln!("error: {e}");
            exit(1);
        });
        print!(
            "{}",
            paper::render(&format!("# Real-rank scaling\n\n{written}\n"), rows)
        );
        return;
    }

    // A present but unreadable profile is an error, not a cue to switch
    // protocols.
    let (t_domain, source) = if std::path::Path::new(PROFILE_PATH).exists() {
        let loaded = MeasuredProfile::load(PROFILE_PATH).and_then(|p| {
            let missing = || MqmdError::Parse("no per-domain solve time".into());
            p.domain_solve_seconds().ok_or_else(missing)
        });
        let t = loaded.unwrap_or_else(|e| {
            eprintln!("error: {PROFILE_PATH}: {e}");
            exit(2)
        });
        (t, format!("read from `{PROFILE_PATH}`"))
    } else {
        eprintln!("no {PROFILE_PATH} here: measuring the per-domain solve live");
        (
            measure_domain_solve_seconds(2.5, 1.0, 9),
            "measured live".into(),
        )
    };

    let mut rows = paper::deterministic_rows(t_domain);
    eprintln!("Fig 7: DC and LDC solves at every buffer …");
    rows.extend(paper::buffer_convergence(full));
    eprintln!("§5.5, §2 and the host thread sweep …");
    rows.extend(paper::verification());
    rows.extend(paper::time_to_solution());
    rows.extend(paper::host_threads());

    let header = format!(
        "# Paper results\n\n\
         Every number of the paper's evaluation this repository reproduces, one row each.\n\
         {written}\nThe Fig 5/6 per-domain solve time was {source}.\n\
         Do not edit by hand: `crates/bench/tests/paper_results.rs` regenerates every row\n\
         that is not timed or solved and fails unless it appears here byte for byte, and it\n\
         checks that every *measured* row lies inside its band.\n\n\
         Tags (DESIGN.md §1): *measured* — produced by running this repository's code;\n\
         *model: k fitted constants / m data points* — a model whose k constants were set\n\
         against m of the paper's numbers; *closed form* — the paper's own formula;\n\
         *input echo* — a paper input restated.\n"
    );
    let text = paper::render(&header, rows);
    if let Err(e) = std::fs::write(RESULTS_PATH, &text) {
        eprintln!("error: {RESULTS_PATH}: {e}");
        exit(1);
    }
    print!("{text}");
}
