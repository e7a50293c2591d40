//! The service's SCF settings against the table they were chosen from.
//!
//! Prints the table the service's SCF settings (`JobSpec::ldc_config`) are
//! chosen from: mixing fraction × Davidson budget/tolerance × extra bands,
//! each candidate measured on the H₂ cells and bonds the service is
//! benchmarked on and on the two SiC geometries it admits — SCF iterations,
//! milliseconds and analytic MFLOP per warm force evaluation, and the
//! distance of energy and forces from the tight reference of
//! `mqmd_serve::contract`. With `--check` it exits 1 if the committed
//! settings leave the contract or a neighbouring candidate inside it does
//! [`WORK_MARGIN`] less work (cold + warm FLOPs over the H₂ geometries). The
//! gate reads FLOP counts and deviations only, which repeat exactly;
//! iteration counts alone cannot see the band count.
//!
//! The service plane's runtime promises (admission, deadlines, bitwise
//! preempt/resume, the chaos matrix) are tests in
//! `crates/serve/tests/service.rs`.
//!
//! Usage: `repro_serve [--check]`
//!
//! Exit codes: 0 = table printed (and, with `--check`, the gate held),
//! 1 = the gate failed, 2 = bad arguments.

use mqmd_bench::row;
use mqmd_core::global::LdcConfig;
use mqmd_serve::contract::{self, Deviation, Evaluation};
use mqmd_serve::{Geometry, JobSpec};

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

/// Prints the table; returns the gate's violations.
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

fn main() {
    let check = match std::env::args().nth(1).as_deref() {
        None => false,
        Some("--check") if std::env::args().len() == 2 => true,
        _ => {
            eprintln!("usage: repro_serve [--check]");
            std::process::exit(2);
        }
    };
    let violations = sweep();
    for v in &violations {
        println!("SWEEP GATE: {v}");
    }
    if violations.is_empty() {
        println!("\nthe committed settings are inside the contract and no neighbour beats them");
    } else if check {
        std::process::exit(1);
    }
}
