//! Drives the real binary in `--smoke` mode: every workload, both modes,
//! one operation each — all the plumbing, including the rank worker's
//! self-exec, with none of the waiting.

use metascale_qmd::util::metrics::{parse_json, Json};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_mqmd-benchmark");
/// A seed no other use of `benchmark/out/` is likely to pick.
const SEED: &str = "987654";

fn spec() -> Json {
    parse_json(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn names(spec: &Json, key: &str) -> Vec<String> {
    spec.get(key)
        .and_then(Json::as_arr)
        .expect("array in BENCHMARK.json")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Runs one workload in smoke mode; returns its stdout.
fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(BIN)
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            SEED,
            "--seconds",
            "1",
        ])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("benchmark binary starts");
    assert!(
        out.status.success(),
        "{workload} --trace {trace}: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn result_file(workload: &str, mode: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}.seed{SEED}.{mode}.json"))
}

/// The last line of a run is the contract's result object: exactly four
/// keys, and as metrics exactly the names `BENCHMARK.json` lists for the
/// mode, each with a value and its unit.
fn check_result_line(stdout: &str, workload: &str, expect: &[String], units: &Json, key: &str) {
    let line = stdout.lines().last().expect("some output");
    let Json::Obj(pairs) = parse_json(line).expect("last line is JSON") else {
        panic!("{workload}: result line is not an object");
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{workload}"
    );
    let result = Json::Obj(pairs);
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: {stdout}"
    );
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_u64)
            .expect("attempted")
            >= 1
    );
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("{workload}: no metrics");
    };
    let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        printed,
        expect.iter().map(String::as_str).collect::<Vec<_>>(),
        "{workload}"
    );
    let declared = units.get(key).and_then(Json::as_arr).expect("metric list");
    for ((name, m), d) in metrics.iter().zip(declared) {
        assert!(
            m.get("value").and_then(Json::as_f64).is_some(),
            "{workload} {name}"
        );
        assert_eq!(m.get("unit"), d.get("unit"), "{workload} {name}");
        // Every name is also printed as a human-readable row.
        assert!(
            stdout
                .lines()
                .any(|l| l.split_whitespace().nth(1) == Some(name.as_str())),
            "{workload}: no row for {name}"
        );
    }
}

#[test]
fn every_workload_prints_every_metric_and_the_layers_are_all_produced() {
    let spec = spec();
    let end_to_end = names(&spec, "end_to_end");
    let per_layer = names(&spec, "per_layer");
    let mut produced = BTreeSet::new();
    for workload in names(&spec, "workloads") {
        let plain = run(&workload, "0");
        assert!(plain.contains("SMOKE"), "smoke output must be flagged");
        check_result_line(&plain, &workload, &end_to_end, &spec, "end_to_end");
        for m in &end_to_end {
            let file =
                parse_json(&std::fs::read_to_string(result_file(&workload, "plain")).unwrap())
                    .unwrap();
            assert_eq!(file.get("comparable"), Some(&Json::Bool(false)));
            let v = file
                .get("metrics")
                .and_then(|x| x.get(m))
                .and_then(|x| x.get("value"));
            assert!(
                v.and_then(Json::as_f64).unwrap() > 0.0,
                "{workload}: {m} must never be 0"
            );
        }

        let traced = run(&workload, "1");
        check_result_line(&traced, &workload, &per_layer, &spec, "per_layer");
        let file = parse_json(&std::fs::read_to_string(result_file(&workload, "traced")).unwrap())
            .unwrap();
        for name in file.get("layers_set").and_then(Json::as_arr).unwrap() {
            produced.insert(name.as_str().unwrap().to_string());
        }
        let trace_file = result_file(&workload, "traced")
            .with_file_name(format!("{workload}.seed{SEED}.trace.json"));
        let spans = parse_json(&std::fs::read_to_string(&trace_file).unwrap()).unwrap();
        let spans = spans.get("spans").and_then(Json::as_arr).unwrap();
        assert!(!spans.is_empty(), "{workload}: no harness spans");
        for s in spans {
            for key in ["name", "start_s", "end_s", "parent", "op"] {
                assert!(s.get(key).is_some(), "{workload}: span without {key}");
            }
        }
        for mode in ["plain", "traced"] {
            std::fs::remove_file(result_file(&workload, mode)).ok();
        }
        std::fs::remove_file(trace_file).ok();
    }
    // Vice versa: no name in BENCHMARK.json that no workload ever computes.
    let declared: BTreeSet<String> = per_layer.into_iter().collect();
    assert_eq!(produced, declared);
}

#[test]
fn bad_arguments_are_refused_without_a_result() {
    for args in [
        &["run", "--workload", "no_such_workload"][..],
        &["run", "--seconds", "0"],
        &["compare", "only-one.json"],
        &[],
    ] {
        let out = Command::new(BIN).args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

/// A `run.seed<N>.plain.json` in which every metric of every workload has
/// the same `value`.
fn flat_run(spec: &Json, label: &str, value: f64) -> String {
    let metrics = Json::Obj(
        names(spec, "end_to_end")
            .into_iter()
            .map(|m| (m, Json::obj([("value", Json::Num(value))])))
            .collect(),
    );
    let workloads = Json::Obj(
        names(spec, "workloads")
            .into_iter()
            .map(|w| {
                let one = Json::obj([
                    ("attempted", Json::Num(10.0)),
                    ("failed", Json::Num(0.0)),
                    ("metrics", metrics.clone()),
                ]);
                (w, one)
            })
            .collect(),
    );
    Json::obj([
        ("label", Json::Str(label.into())),
        ("trace", Json::Bool(false)),
        ("comparable", Json::Bool(true)),
        ("workloads", workloads),
    ])
    .pretty()
}

#[test]
fn compare_exits_non_zero_on_a_regression_or_an_unresolved_pair() {
    let spec = spec();
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("compare-test.{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = |name: &str, label: &str, value: f64| {
        let path = dir.join(name);
        std::fs::write(&path, flat_run(&spec, label, value)).unwrap();
        path
    };
    // Every metric 30 % higher: the lower-is-better ones are past their
    // bound (the largest is 25 %).
    let base = file("base.json", "parent", 1.0);
    let same = file("same.json", "parent", 1.01);
    let noisy = file("noisy.json", "parent", 1.3);
    let worse = file("worse.json", "change", 1.3);
    let compare = |a: &PathBuf, b: &PathBuf| {
        let out = Command::new(BIN)
            .arg("compare")
            .args([a, b])
            .output()
            .unwrap();
        (out.status.code(), String::from_utf8(out.stdout).unwrap())
    };
    let (code, text) = compare(&base, &same);
    assert_eq!(code, Some(0), "{text}");
    assert!(text.contains("no row regressed or unresolved"));
    let (code, text) = compare(&base, &noisy);
    assert_eq!(code, Some(1), "{text}");
    assert!(text.contains("UNRESOLVED") && !text.contains("REGRESSED"));
    let (code, text) = compare(&base, &worse);
    assert_eq!(code, Some(1), "{text}");
    assert!(text.contains("REGRESSED") && text.contains("improved"));
    std::fs::remove_dir_all(&dir).ok();
}
