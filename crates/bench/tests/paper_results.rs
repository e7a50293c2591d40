//! `PAPER_RESULTS.md` is the one source of the paper numbers the docs
//! quote. This regenerates every row that is a pure function of its inputs
//! (closed forms, models at fixed inputs, the seeded kMC, the trajectory
//! codec) and fails unless each appears in the committed file byte for
//! byte; and it checks that every row of the file carries a tag and that
//! every measured row parses and lies inside its band. No SCF solve runs.

use mqmd_bench::paper::{deterministic_rows, Band, Tag, RESULTS_PATH};
use mqmd_parallel::measured::{MeasuredProfile, PROFILE_PATH};

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");

fn committed() -> String {
    std::fs::read_to_string(format!("{ROOT}{RESULTS_PATH}")).expect("committed results file")
}

#[test]
fn deterministic_rows_are_the_committed_ones() {
    let t_domain = MeasuredProfile::load(&format!("{ROOT}{PROFILE_PATH}"))
        .ok()
        .and_then(|p| p.domain_solve_seconds())
        .expect("committed profile has a per-domain solve time");
    let text = committed();
    let missing: Vec<String> = deterministic_rows(t_domain)
        .iter()
        .map(|r| r.line().to_string())
        .filter(|l| !text.lines().any(|have| have == l))
        .collect();
    assert!(
        missing.is_empty(),
        "{RESULTS_PATH} is stale; regenerate it with repro_paper. Rows not found:\n{}",
        missing.join("\n")
    );
}

#[test]
fn every_row_is_tagged_and_measured_rows_lie_in_their_bands() {
    let text = committed();
    assert!(
        text.lines()
            .take(5)
            .any(|l| l.contains("--bin repro_paper")),
        "the header must name the command that wrote the file"
    );
    let rows: Vec<Vec<&str>> = text
        .lines()
        .filter(|l| l.starts_with("| ") && !l.starts_with("| section |"))
        .map(|l| l[2..l.len() - 2].split(" | ").collect())
        .collect();
    assert!(rows.len() > 50, "only {} rows", rows.len());
    for cells in &rows {
        let [section, quantity, _paper, ours, tag, band] = cells[..] else {
            panic!("not six cells: {cells:?}");
        };
        let tag = Tag::parse(tag).unwrap_or_else(|| panic!("{section} {quantity}: tag {tag:?}"));
        if tag != Tag::Measured {
            assert_eq!(
                band, "—",
                "{section} {quantity}: only measured rows carry a band"
            );
            continue;
        }
        let value: f64 = ours
            .parse()
            .unwrap_or_else(|_| panic!("{section} {quantity}: value {ours:?}"));
        let band =
            Band::parse(band).unwrap_or_else(|| panic!("{section} {quantity}: band {band:?}"));
        assert!(
            band.contains(value),
            "{section} {quantity}: {value} outside {band}"
        );
    }
}
