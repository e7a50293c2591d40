//! Turns a workload's [`Outcome`] into the metrics `BENCHMARK.json` names,
//! prints them, and writes the result and trace files under
//! `benchmark/out/`.

use crate::out_dir;
use crate::spec::{Metric, Spec};
use crate::stats::{median, quantile, Summary};
use crate::workloads::{self, Outcome, RunArgs};
use metascale_qmd::util::metrics::{parse_json, Json};
use std::path::PathBuf;
use std::process::Command;

/// One printed metric: value and the number of samples behind it.
struct Value {
    value: f64,
    n: usize,
}

/// The end-to-end metrics of one run, by the names in `BENCHMARK.json`.
fn end_to_end(name: &str, o: &Outcome) -> Value {
    let ops = o.op_s.len();
    match name {
        "setup_s" => Value {
            value: median(&o.setup_s),
            n: o.setup_s.len(),
        },
        "op_s_p50" => Value {
            value: median(&o.op_s),
            n: ops,
        },
        "op_s_p90" => Value {
            value: if ops == 0 {
                0.0
            } else {
                quantile(&o.op_s, 0.9)
            },
            n: ops,
        },
        "ops_per_s" => Value {
            value: o.ops_per_s,
            n: ops,
        },
        "cpu_s_per_op" => Value {
            value: o.cpu_s_per_op,
            n: ops,
        },
        "peak_rss_mb" => Value {
            value: o.peak_rss_mb,
            n: 1,
        },
        other => {
            panic!("BENCHMARK.json names an end-to-end metric {other} the run does not produce")
        }
    }
}

fn nums(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect())
}

fn mode(trace: bool) -> &'static str {
    if trace {
        "traced"
    } else {
        "plain"
    }
}

/// `benchmark/out/<stem>.seed<N>.<plain|traced>.json`.
fn result_path(stem: &str, seed: u64, trace: bool) -> PathBuf {
    out_dir().join(format!("{stem}.seed{seed}.{}.json", mode(trace)))
}

fn metric_json(m: &Metric, v: &Value) -> Json {
    Json::obj([
        ("value", Json::Num(v.value)),
        ("unit", Json::Str(m.unit.clone())),
        ("n", Json::Num(v.n as f64)),
    ])
}

/// Runs one workload in this process. Prints the checks and every metric
/// of the mode (`--trace 0`: end to end; `--trace 1`: per layer), then the
/// one-line JSON result.
pub fn run_one(spec: &Spec, workload: &str, args: &RunArgs) -> Result<bool, String> {
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
    let o = workloads::run(workload, args).ok_or(format!("unknown workload {workload}"))?;
    let correct = o.failed == 0 && !o.checks.is_empty() && o.checks.iter().all(|c| c.ok);
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {}  seed {}  seconds {}  trace {}  rayon threads {}  cores {cores}{}",
        workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workloads::rayon_threads(workload).unwrap_or(0),
        if args.smoke {
            "  SMOKE: numbers are not comparable"
        } else {
            ""
        },
    );
    for c in &o.checks {
        println!(
            "check  {:<32} {}  {}",
            c.name,
            if c.ok { "ok  " } else { "FAIL" },
            c.detail
        );
    }

    let unknown: Vec<&str> = o
        .layers
        .0
        .keys()
        .filter(|k| !spec.per_layer.iter().any(|m| m.name == **k))
        .copied()
        .collect();
    assert!(
        unknown.is_empty(),
        "layer metrics missing from BENCHMARK.json: {unknown:?}"
    );

    let mut metrics = Vec::new();
    if args.trace {
        for m in &spec.per_layer {
            let v = Value {
                value: o.layers.0.get(m.name.as_str()).copied().unwrap_or(0.0),
                n: o.op_s.len(),
            };
            println!("layer  {:<36} {:>14.6} {}", m.name, v.value, m.unit);
            metrics.push((m.name.clone(), metric_json(m, &v)));
        }
    } else {
        let tail = Summary::of(&o.op_s);
        for m in &spec.end_to_end {
            let v = end_to_end(&m.name, &o);
            println!(
                "metric {:<14} {:>14.6} {:<6} n={:<4} bound {:.0}%",
                m.name,
                v.value,
                m.unit,
                v.n,
                m.bound.unwrap_or(0.0) * 100.0
            );
            metrics.push((m.name.clone(), metric_json(m, &v)));
        }
        println!(
            "note   op_s tail: p{:.0} = {:.6} s (the highest percentile with 10 samples beyond it), n={}",
            tail.tail_pct, tail.tail, tail.n
        );
        println!(
            "metric {:<14} {:>14.6} {:<6} n={:<4} any increase is a regression",
            "failed_frac",
            o.failed as f64 / o.attempted.max(1) as f64,
            "ratio",
            o.attempted
        );
    }

    let checks = Json::Arr(
        o.checks
            .iter()
            .map(|c| {
                Json::obj([
                    ("name", Json::Str(c.name.into())),
                    ("ok", Json::Bool(c.ok)),
                    ("detail", Json::Str(c.detail.clone())),
                ])
            })
            .collect(),
    );
    let result = Json::obj([
        ("workload", Json::Str(workload.into())),
        ("label", Json::Str(args.label.clone())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("comparable", Json::Bool(!args.smoke)),
        ("cores", Json::Num(cores as f64)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(o.attempted as f64)),
        ("failed", Json::Num(o.failed as f64)),
        ("metrics", Json::Obj(metrics.clone())),
        (
            "layers_set",
            Json::Arr(o.layers.0.keys().map(|k| Json::Str((*k).into())).collect()),
        ),
        ("checks", checks),
        ("setup_s", nums(&o.setup_s)),
        ("op_s", nums(&o.op_s)),
        ("detail", o.detail.clone()),
    ]);
    let path = result_path(workload, args.seed, args.trace);
    std::fs::write(&path, result.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    if args.trace {
        let path = out_dir().join(format!("{workload}.seed{}.trace.json", args.seed));
        let spans = Json::obj([
            ("workload", Json::Str(workload.into())),
            ("seed", Json::Num(args.seed as f64)),
            ("spans", o.recorder.to_json()),
        ]);
        std::fs::write(&path, spans.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    }

    // The contract's result line: exactly these four keys, metrics without
    // the sample count.
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(o.attempted.max(1) as f64)),
        ("failed", Json::Num(o.failed as f64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(name, m)| {
                        let keep = |k: &'static str| (k, m.get(k).cloned().unwrap_or(Json::Null));
                        (name, Json::obj([keep("value"), keep("unit")]))
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", line.compact());
    Ok(true)
}

/// Runs every workload, each in a child process of its own, and prints
/// every metric of the mode by name. Writes `run.seed<N>.<mode>.json`, the
/// file `compare` reads. Returns whether every workload was correct.
pub fn run_all(spec: &Spec, o: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_correct = true;
    let mut results = Vec::new();
    for (workload, why) in &spec.workloads {
        println!("== {workload}: {why}");
        let threads = workloads::rayon_threads(workload).ok_or(format!(
            "BENCHMARK.json names an unknown workload {workload}"
        ))?;
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", workload, "--label", &o.label])
            .args(["--seed", &o.seed.to_string()])
            .args(["--seconds", &o.seconds.to_string()])
            .args(["--trace", if o.trace { "1" } else { "0" }])
            .env("RAYON_NUM_THREADS", threads.to_string());
        if o.smoke {
            cmd.arg("--smoke");
        }
        let status = cmd.status().map_err(|e| format!("{workload}: {e}"))?;
        if !status.success() {
            return Err(format!("{workload}: child exited with {status}"));
        }
        let path = result_path(workload, o.seed, o.trace);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let result = parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        all_correct &= result.get("correct") == Some(&Json::Bool(true));
        // The summary keeps what `compare` and `history.jsonl` need; the
        // workload's own file has the checks, series and detail.
        let keep = |k: &'static str| (k, result.get(k).cloned().unwrap_or(Json::Null));
        let slim = Json::obj([
            keep("correct"),
            keep("attempted"),
            keep("failed"),
            keep("metrics"),
        ]);
        results.push((workload.clone(), slim));
    }

    let names: Vec<&Metric> = if o.trace {
        spec.per_layer.iter().collect()
    } else {
        spec.end_to_end.iter().collect()
    };
    println!(
        "\n{:<38}{}",
        "metric [unit] (bound)",
        spec.workloads
            .iter()
            .map(|(w, _)| format!("{w:>22}"))
            .collect::<String>()
    );
    let num = |r: &Json, path: [&str; 3]| -> f64 {
        path.iter()
            .try_fold(r, |j, k| j.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    for m in names {
        let head = match m.bound {
            Some(b) => format!("{} [{}] ({:.0}%)", m.name, m.unit, b * 100.0),
            None => format!("{} [{}]", m.name, m.unit),
        };
        let cells: String = results
            .iter()
            .map(|(_, r)| {
                let v = num(r, ["metrics", &m.name, "value"]);
                let n = num(r, ["metrics", &m.name, "n"]);
                format!("{:>22}", format!("{v:.6} n={n}"))
            })
            .collect();
        println!("{head:<38}{cells}");
    }
    if !o.trace {
        let cells: String = results
            .iter()
            .map(|(_, r)| {
                let attempted = r.get("attempted").and_then(Json::as_f64).unwrap_or(1.0);
                let failed = r.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
                format!(
                    "{:>22}",
                    format!("{:.6} n={attempted}", failed / attempted.max(1.0))
                )
            })
            .collect();
        println!("{:<38}{cells}", "failed_frac [ratio] (any increase)");
    }
    println!(
        "\nall output checks {}",
        if all_correct { "passed" } else { "FAILED" }
    );

    let summary = Json::obj([
        ("label", Json::Str(o.label.clone())),
        ("seed", Json::Num(o.seed as f64)),
        ("seconds", Json::Num(o.seconds)),
        ("trace", Json::Bool(o.trace)),
        ("comparable", Json::Bool(!o.smoke)),
        ("workloads", Json::Obj(results)),
    ]);
    let path = result_path("run", o.seed, o.trace);
    std::fs::write(&path, summary.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}
