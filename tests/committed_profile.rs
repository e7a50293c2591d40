//! The committed `BENCH_profile.json` is the measured input of the Fig 5/6
//! models (`repro_scaling` reads it). This pins that the file in the
//! repository still parses under the one profile schema and carries what
//! its readers and the docs rely on.

use metascale_qmd::parallel::measured::{MeasuredProfile, FIG5_DOMAIN_KEY};
use metascale_qmd::util::metrics::{parse_json, Json, PROFILE_SCHEMA};

const COMMITTED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_profile.json");

#[test]
fn committed_profile_feeds_the_scaling_models() {
    let profile = MeasuredProfile::load(COMMITTED).expect("committed profile loads");
    let t = profile
        .domain_solve_seconds()
        .expect("a per-domain solve time");
    assert!(t > 0.0 && t.is_finite(), "domain solve {t}");
    assert!(profile.weak_scaling_model().is_some());
    assert!(profile.strong_scaling_model().is_some());

    let doc = parse_json(&std::fs::read_to_string(COMMITTED).unwrap()).unwrap();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(PROFILE_SCHEMA)
    );
    let fig5 = doc.get(FIG5_DOMAIN_KEY).and_then(Json::as_f64);
    assert!(fig5.is_some_and(|t| t > 0.0), "{FIG5_DOMAIN_KEY}: {fig5:?}");
    for block in ["twin", "rank_recovery"] {
        assert!(
            matches!(doc.get(block), Some(Json::Obj(_))),
            "committed profile lacks its {block} block"
        );
    }
}
