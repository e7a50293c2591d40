//! `compare A.json B.json`: two `run.seed<N>.plain.json` files (or two rows
//! of `history.jsonl` saved to files), judged by each metric's own bound.
//!
//! A is the base of every ratio. When both files carry the same `--label`
//! they are two runs of one commit, and a pair further apart than the
//! bound is *unresolved* — the benchmark cannot tell such a change from
//! its own noise. With different labels the same distance in the worse
//! direction is a *regression*. Either, or a higher `failed_frac`, makes
//! the exit code non-zero.

use crate::spec::Spec;
use metascale_qmd::util::metrics::{parse_json, Json};

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Improved,
    Regressed,
    Unresolved,
}

/// Judges `b` against base `a`.
pub fn judge(a: f64, b: f64, bound: f64, lower_is_better: bool, same_commit: bool) -> Verdict {
    // Worsening as a share of the base, positive = worse.
    let worse = if lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    };
    if !worse.is_finite() {
        Verdict::Regressed
    } else if same_commit {
        if worse.abs() > bound {
            Verdict::Unresolved
        } else {
            Verdict::Ok
        }
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_json(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn main(spec: &Spec, path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let label = |j: &Json| {
        j.get("label")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string()
    };
    let same_commit = label(&a) == label(&b);
    for (name, j) in [(path_a, &a), (path_b, &b)] {
        if j.get("comparable") != Some(&Json::Bool(true))
            || j.get("trace") != Some(&Json::Bool(false))
        {
            return Err(format!("{name}: not a comparable untraced run"));
        }
    }
    println!(
        "A = {path_a} (label {:?})\nB = {path_b} (label {:?}){}",
        label(&a),
        label(&b),
        if same_commit {
            "\nsame label: two runs of one commit"
        } else {
            ""
        }
    );
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    let mut clean = true;
    for (workload, _) in &spec.workloads {
        let of = |j: &Json| j.get("workloads").and_then(|w| w.get(workload)).cloned();
        let (Some(wa), Some(wb)) = (of(&a), of(&b)) else {
            return Err(format!("{workload} is missing from one of the files"));
        };
        for m in &spec.end_to_end {
            let value = |w: &Json| {
                w.get("metrics")
                    .and_then(|x| x.get(&m.name))
                    .and_then(|x| x.get("value"))
                    .and_then(Json::as_f64)
            };
            let (Some(va), Some(vb)) = (value(&wa), value(&wb)) else {
                return Err(format!(
                    "{workload}: {} is missing from one of the files",
                    m.name
                ));
            };
            let bound = m.bound.unwrap_or(0.0);
            let verdict = judge(va, vb, bound, m.lower_is_better, same_commit);
            clean &= matches!(verdict, Verdict::Ok | Verdict::Improved);
            println!(
                "{workload:<16} {:<14} {va:>14.6} {vb:>14.6} {:>9.4} {:>5.0}%  {}",
                m.name,
                vb / va,
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Improved => "improved",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "UNRESOLVED",
                }
            );
        }
        let failed_frac = |w: &Json| {
            let get = |k: &str| w.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            get("failed") / get("attempted").max(1.0)
        };
        let (fa, fb) = (failed_frac(&wa), failed_frac(&wb));
        clean &= fb <= fa;
        println!(
            "{workload:<16} {:<14} {fa:>14.6} {fb:>14.6} {:>9} {:>6}  {}",
            "failed_frac",
            "-",
            "any",
            if fb > fa { "REGRESSED" } else { "ok" }
        );
    }
    println!(
        "{}",
        if clean {
            "no row regressed or unresolved"
        } else {
            "NOT CLEAN"
        }
    );
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_and_label() {
        // Lower is better, 5 % bound, different commits.
        assert_eq!(judge(1.0, 1.04, 0.05, true, false), Verdict::Ok);
        assert_eq!(judge(1.0, 1.06, 0.05, true, false), Verdict::Regressed);
        assert_eq!(judge(1.0, 0.90, 0.05, true, false), Verdict::Improved);
        // Higher is better: a drop is the regression.
        assert_eq!(judge(4.0, 3.7, 0.05, false, false), Verdict::Regressed);
        assert_eq!(judge(4.0, 4.3, 0.05, false, false), Verdict::Improved);
        // Same commit: too far apart either way is noise, not a verdict.
        assert_eq!(judge(1.0, 1.06, 0.05, true, true), Verdict::Unresolved);
        assert_eq!(judge(1.0, 0.90, 0.05, true, true), Verdict::Unresolved);
        assert_eq!(judge(1.0, 1.01, 0.05, true, true), Verdict::Ok);
        // A failed job's infinite latency can never pass.
        assert_eq!(
            judge(1.0, f64::INFINITY, 0.05, true, false),
            Verdict::Regressed
        );
    }
}
