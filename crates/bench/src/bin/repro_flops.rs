//! The measured roofline of the running host: machine peaks (FMA-ladder
//! GFLOP/s, streaming-triad GB/s) and the roofline placement of the
//! vectorized GEMM/FFT/smoother kernels, whose FLOP counts are the analytic
//! tallies of `mqmd_util::flops` — the same methodology behind the paper's
//! 50.5%-of-peak claim, at laptop scale. (The modelled Blue Gene/Q Tables
//! 1 and 2 are rows of `repro_paper`.) It is also a gate: the binary exits
//! 1 when a placed kernel reaches less than [`ROOFLINE_FLOOR`] of its roof.
//!
//! Usage: `cargo run --release -p mqmd-bench --bin repro_flops`

use mqmd_bench::roofline::measure_roofline;
use mqmd_bench::row;

/// Fraction of its roof every placed kernel must reach. A floor, not a
/// target: a vectorized kernel silently collapsing to scalar-ish
/// throughput lands far under it on any hardware, while legitimate runs
/// sit well above it (gemm 37–47 % of the compute roof on a 2-vCPU host).
/// Analytic intensities against DRAM peaks make the fractions
/// conservative, hence the low absolute value.
const ROOFLINE_FLOOR: f64 = 0.10;

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("usage: repro_flops");
        std::process::exit(2);
    }
    println!("== measured roofline (this host) ==\n");
    let r = measure_roofline();
    println!(
        "machine peaks: {:.2} GFLOP/s (FMA ladder), {:.2} GB/s (streaming triad)\n",
        r.peak_gflops, r.peak_bw_gbps
    );
    println!(
        "{}",
        row(
            "kernel",
            &[
                "GFLOP/s".into(),
                "FLOP/byte".into(),
                "roofline".into(),
                "% of roof".into(),
            ]
        )
    );
    for (name, k) in &r.kernels {
        println!(
            "{}",
            row(
                name,
                &[
                    format!("{:.2}", k.achieved_gflops),
                    format!("{:.3}", k.intensity_flops_per_byte),
                    format!("{:.2}", k.roofline_gflops),
                    format!("{:.1}%", k.fraction_of_peak * 100.0),
                ]
            )
        );
    }
    println!(
        "\n(paper Table 2: 50.5% of peak at 786,432 cores; fractions above use\n\
         analytic FLOP/byte counts against DRAM peaks, so cache-resident\n\
         kernels may exceed 100% of the bandwidth roof)"
    );

    let below: Vec<&str> = r
        .kernels
        .iter()
        .filter(|(_, k)| k.fraction_of_peak < ROOFLINE_FLOOR)
        .map(|(name, _)| name.as_str())
        .collect();
    if below.is_empty() {
        println!(
            "\nroofline gate: every kernel at or above {:.0}% of its roof",
            ROOFLINE_FLOOR * 100.0
        );
    } else {
        println!(
            "\nroofline gate FAILED: {} below {:.0}% of the roof",
            below.join(", "),
            ROOFLINE_FLOOR * 100.0
        );
        std::process::exit(1);
    }
}
