//! Property-based tests of the numerical foundation.

use mqmd_util::hist::HistSnapshot;
use mqmd_util::metrics::{parse_json, Json};
use mqmd_util::{Complex64, Vec3, Xoshiro256pp};
use proptest::prelude::*;

fn finite() -> impl Strategy<Value = f64> {
    -1e3..1e3f64
}

proptest! {
    #[test]
    fn complex_multiplication_commutes(a in finite(), b in finite(), c in finite(), d in finite()) {
        let x = Complex64::new(a, b);
        let y = Complex64::new(c, d);
        let xy = x * y;
        let yx = y * x;
        prop_assert!((xy - yx).abs() <= 1e-9 * (1.0 + xy.abs()));
    }

    #[test]
    fn complex_conjugation_is_multiplicative(a in finite(), b in finite(), c in finite(), d in finite()) {
        let x = Complex64::new(a, b);
        let y = Complex64::new(c, d);
        let lhs = (x * y).conj();
        let rhs = x.conj() * y.conj();
        prop_assert!((lhs - rhs).abs() <= 1e-9 * (1.0 + lhs.abs()));
    }

    #[test]
    fn modulus_is_multiplicative(a in finite(), b in finite(), c in finite(), d in finite()) {
        let x = Complex64::new(a, b);
        let y = Complex64::new(c, d);
        prop_assert!(((x * y).abs() - x.abs() * y.abs()).abs() <= 1e-6 * (1.0 + x.abs() * y.abs()));
    }

    #[test]
    fn vec3_triangle_inequality(ax in finite(), ay in finite(), az in finite(),
                                bx in finite(), by in finite(), bz in finite()) {
        let a = Vec3::new(ax, ay, az);
        let b = Vec3::new(bx, by, bz);
        prop_assert!((a + b).norm() <= a.norm() + b.norm() + 1e-9);
    }

    #[test]
    fn min_image_is_shortest(x in -50.0..50.0f64, y in -50.0..50.0f64, z in -50.0..50.0f64,
                             lx in 1.0..20.0f64, ly in 1.0..20.0f64, lz in 1.0..20.0f64) {
        let l = Vec3::new(lx, ly, lz);
        let d = Vec3::new(x, y, z);
        let mi = d.min_image(l);
        // Component-wise within [-l/2, l/2).
        prop_assert!(mi.x >= -lx / 2.0 - 1e-9 && mi.x < lx / 2.0 + 1e-9);
        prop_assert!(mi.y >= -ly / 2.0 - 1e-9 && mi.y < ly / 2.0 + 1e-9);
        prop_assert!(mi.z >= -lz / 2.0 - 1e-9 && mi.z < lz / 2.0 + 1e-9);
        // And congruent to the original displacement mod the cell.
        let diff = d - mi;
        prop_assert!((diff.x / lx - (diff.x / lx).round()).abs() < 1e-6);
    }

    #[test]
    fn rng_uniform_stays_in_unit_interval(seed in any::<u64>()) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        for _ in 0..100 {
            let u = rng.uniform();
            prop_assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn rng_below_is_in_range(seed in any::<u64>(), n in 1u64..1_000_000) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert!(rng.below(n) < n);
        }
    }

    #[test]
    fn running_stats_merge_matches_sequential(xs in prop::collection::vec(-100.0..100.0f64, 2..60),
                                              split in 1usize..50) {
        let split = split.min(xs.len() - 1);
        let mut all = mqmd_util::stats::RunningStats::new();
        for &x in &xs { all.push(x); }
        let mut a = mqmd_util::stats::RunningStats::new();
        let mut b = mqmd_util::stats::RunningStats::new();
        for &x in &xs[..split] { a.push(x); }
        for &x in &xs[split..] { b.push(x); }
        a.merge(&b);
        prop_assert!((a.mean() - all.mean()).abs() < 1e-9);
        prop_assert!((a.variance() - all.variance()).abs() < 1e-7 * (1.0 + all.variance()));
    }

    #[test]
    fn hist_quantiles_match_exact_within_resolution(raw in prop::collection::vec(any::<u64>(), 1..200)) {
        // Spread samples over 12 decades so every bucket regime (exact,
        // low octaves, high octaves) is exercised.
        let samples: Vec<u64> = raw.iter().map(|&v| v % 1_000_000_000_000).collect();
        let hist = HistSnapshot::from_samples(&samples);
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for &q in &[0.5, 0.95, 0.99] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
            let exact = sorted[rank - 1] as f64;
            let approx = hist.quantile(q) as f64;
            // Log-linear buckets with 16 sub-buckets per octave bound the
            // relative error by 1/16; +1 absorbs integer bucket midpoints.
            prop_assert!(
                (approx - exact).abs() <= exact * 0.0625 + 1.0,
                "q={} exact={} approx={}", q, exact, approx
            );
        }
    }

    #[test]
    fn running_stats_push_n_matches_repeated_push(raw in prop::collection::vec(any::<u64>(), 1..20)) {
        let mut bulk = mqmd_util::stats::RunningStats::new();
        let mut single = mqmd_util::stats::RunningStats::new();
        for &r in &raw {
            // Decode each u64 into a value in [-100, 100) and a count in
            // [0, 16).
            let x = ((r >> 4) % 200_000) as f64 / 1000.0 - 100.0;
            let n = r & 0xF;
            bulk.push_n(x, n);
            for _ in 0..n {
                single.push(x);
            }
        }
        prop_assert_eq!(bulk.count(), single.count());
        prop_assert!((bulk.mean() - single.mean()).abs() < 1e-9);
        prop_assert!((bulk.variance() - single.variance()).abs() < 1e-7 * (1.0 + single.variance()));
    }

    #[test]
    fn json_round_trips_escapes_unicode_and_nesting(codes in prop::collection::vec(1u64..0x11000, 0..30),
                                                    depth in 0usize..24) {
        // Arbitrary scalar values (surrogates are rejected by from_u32),
        // plus a fixed string covering every escape class.
        let s: String = codes.iter().filter_map(|&c| char::from_u32(c as u32)).collect();
        let mut v = Json::obj([
            ("s", Json::Str(s)),
            ("escapes", Json::Str("quote \" backslash \\ ctrl \u{1} nl \n tab \t ü — \u{10348}".into())),
            ("nums", Json::Arr(vec![Json::Num(-0.0), Json::Num(1e-12), Json::Num(3.5e8)])),
        ]);
        // Deep alternating array/object nesting.
        for i in 0..depth {
            v = if i % 2 == 0 {
                Json::Arr(vec![v, Json::Null, Json::Bool(true)])
            } else {
                Json::Obj(vec![("k".to_string(), v)])
            };
        }
        let pretty_back = parse_json(&v.pretty());
        prop_assert!(pretty_back.is_ok());
        prop_assert_eq!(&v, &pretty_back.unwrap());
        let compact_back = parse_json(&v.compact());
        prop_assert!(compact_back.is_ok());
        prop_assert_eq!(&v, &compact_back.unwrap());
    }

    #[test]
    fn parse_json_returns_on_arbitrary_input(picks in prop::collection::vec(any::<u32>(), 0..200)) {
        // Mostly JSON punctuation and literal fragments (runs of brackets
        // included, so inputs nest past the depth bound), with an
        // arbitrary Unicode scalar in every fourth slot.
        const TOKENS: [&str; 16] = [
            "[", "]", "{", "}", "\"", ":", ",", "\\", "-1.5e3", "0", "true", "nul",
            " ", "\"k\":", "[[[[[[[[[[[[[[[[", "{\"a\":{\"a\":{\"a\":",
        ];
        let text: String = picks
            .iter()
            .map(|&p| match p % 4 {
                0 => char::from_u32(p >> 2).map(String::from).unwrap_or_default(),
                _ => TOKENS[(p >> 2) as usize % TOKENS.len()].repeat(1 + (p >> 20) as usize % 16),
            })
            .collect();
        // Returning at all (Ok or a typed Err) is the property: a panic
        // fails the case, a stack overflow aborts the binary.
        let _ = parse_json(&text);
    }

    #[test]
    fn linear_fit_recovers_exact_lines(intercept in -10.0..10.0f64, slope in -10.0..10.0f64,
                                       n in 3usize..20) {
        let x: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        let y: Vec<f64> = x.iter().map(|&xi| intercept + slope * xi).collect();
        let fit = mqmd_util::fit::linear_fit(&x, &y);
        prop_assert!((fit.intercept - intercept).abs() < 1e-8);
        prop_assert!((fit.slope - slope).abs() < 1e-8);
    }

    #[test]
    fn arrhenius_fit_inverts_synthesis(ea_ev in 0.01..2.0f64, log_a in 5.0..15.0f64) {
        let a = 10f64.powf(log_a);
        let ea = mqmd_util::constants::ev_to_hartree(ea_ev);
        let temps = [300.0, 700.0, 1500.0];
        let rates: Vec<f64> = temps
            .iter()
            .map(|&t| a * (-ea / mqmd_util::constants::kelvin_to_hartree(t)).exp())
            .collect();
        prop_assume!(rates.iter().all(|&r| r > 1e-300));
        let fit = mqmd_util::fit::arrhenius_fit(&temps, &rates);
        prop_assert!((fit.activation_ev - ea_ev).abs() < 1e-6 * (1.0 + ea_ev));
    }
}
