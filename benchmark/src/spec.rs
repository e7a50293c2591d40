//! `BENCHMARK.json`, compiled in: the one place metric names, units, bounds
//! and workload names come from, for `run` and `compare` alike.

use metascale_qmd::util::metrics::{parse_json, Json};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median the metric may worsen by; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub run_seconds: f64,
    /// `(name, why)`.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    pub fn load() -> Spec {
        Self::parse(BENCHMARK_JSON).expect("BENCHMARK.json is malformed")
    }

    fn parse(text: &str) -> Option<Spec> {
        let doc = parse_json(text).ok()?;
        let str_of = |v: &Json, key: &str| Some(v.get(key)?.as_str()?.to_string());
        let metrics = |key: &str| -> Option<Vec<Metric>> {
            doc.get(key)?
                .as_arr()?
                .iter()
                .map(|m| {
                    Some(Metric {
                        name: str_of(m, "name")?,
                        unit: str_of(m, "unit")?,
                        lower_is_better: m.get("better")?.as_str()? == "lower",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Some(Spec {
            run_seconds: doc.get("run_seconds")?.as_f64()?,
            workloads: doc
                .get("workloads")?
                .as_arr()?
                .iter()
                .map(|w| Some((str_of(w, "name")?, str_of(w, "why")?)))
                .collect::<Option<_>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let spec = Spec::load();
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = BTreeSet::new();
        for (name, why) in &spec.workloads {
            assert!(ok_name(name), "workload name {name:?}");
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
            assert!(seen.insert(name.clone()), "{name} used twice");
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(ok_name(&m.name), "metric name {:?}", m.name);
            assert!(ok_unit(&m.unit), "unit {:?} of {}", m.unit, m.name);
            assert!(seen.insert(m.name.clone()), "{} used twice", m.name);
        }
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        for m in &spec.end_to_end {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "bound of {}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(setup.unit == "s" && setup.lower_is_better);
        assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    }

    #[test]
    fn build_profiles_equal_the_roots() {
        /// The body of `[section]`, comments and blank lines dropped.
        fn section(manifest: &str, header: &str) -> Vec<String> {
            manifest
                .lines()
                .skip_while(|l| l.trim() != header)
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(String::from)
                .collect()
        }
        let ours = include_str!("../Cargo.toml");
        let roots = include_str!("../../Cargo.toml");
        for header in [
            "[profile.release]",
            "[profile.dev]",
            "[profile.dev.package.\"*\"]",
        ] {
            assert!(!section(roots, header).is_empty(), "root has no {header}");
            assert_eq!(section(ours, header), section(roots, header), "{header}");
        }
    }
}
