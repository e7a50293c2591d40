//! Measured roofline: machine peaks probed on the running host, plus the
//! placement of this repository's vectorized kernels under them.
//!
//! The paper's headline efficiency claim (Table 1/2: 50.5% of peak on the
//! full Blue Gene/Q) is a roofline statement: the QPX-vectorized GEMM sits
//! near the compute roof, the FFT and stencil kernels near the bandwidth
//! roof. This module reproduces the *measurement method* on whatever host
//! runs the benches:
//!
//! * **compute peak** — an FMA ladder: independent fused multiply-add
//!   chains unrolled across registers, the textbook peak-FLOP/s probe.
//!   With the `simd` feature it runs on `F64x4` (AVX2 FMA, 8 FLOPs per
//!   vector op); without it, on scalar multiply-adds — so the scalar CI
//!   leg measures the scalar machine peak, and fractions stay comparable.
//! * **bandwidth peak** — a streaming triad `a[i] = b[i] + s·c[i]` over
//!   arrays far larger than the last-level cache, counting 24 bytes per
//!   element (two reads, one write; write-allocate traffic ignored, as in
//!   STREAM's convention).
//!
//! Kernel placements use *analytic* FLOP and byte counts (the same
//! `mqmd_util::flops` tallies the profiles report), so the
//! fraction-of-peak is conservative: kernels whose working set sits in
//! cache can exceed a DRAM-derived bandwidth roof, and that is fine — the
//! `repro_flops` gate is a *floor*, designed to catch a vectorized kernel
//! silently collapsing back to far-below-roof throughput.

use mqmd_fft::{Direction, Fft3d};
use mqmd_grid::UniformGrid3;
use mqmd_linalg::gemm::dgemm;
use mqmd_linalg::Matrix;
use mqmd_multigrid::smoother::rbgs_sweep;
use mqmd_util::timer::Stopwatch;
use mqmd_util::workspace::Workspace;
use mqmd_util::Complex64;
use rayon::prelude::*;
use std::collections::BTreeMap;

/// One kernel's placement under the measured roofline.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RooflineKernel {
    /// Sustained GFLOP/s the kernel achieved.
    pub achieved_gflops: f64,
    /// Arithmetic intensity: analytic FLOPs per byte of traffic.
    pub intensity_flops_per_byte: f64,
    /// The roofline at that intensity:
    /// `min(peak_gflops, intensity · peak_bw_gbps)`.
    pub roofline_gflops: f64,
    /// `achieved_gflops / roofline_gflops` (0 when the roofline is 0).
    pub fraction_of_peak: f64,
}

/// Machine peaks measured on the running host plus per-kernel placements.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Roofline {
    /// Compute peak: FMA-ladder GFLOP/s across all cores.
    pub peak_gflops: f64,
    /// Memory peak: streaming-triad bandwidth in GB/s.
    pub peak_bw_gbps: f64,
    /// Kernel name → placement.
    pub kernels: BTreeMap<String, RooflineKernel>,
}

impl Roofline {
    /// The roofline value at a given arithmetic intensity (FLOPs/byte).
    fn at_intensity(&self, intensity: f64) -> f64 {
        (intensity * self.peak_bw_gbps).min(self.peak_gflops)
    }

    /// Records a kernel measurement, deriving its roofline placement.
    pub fn place(&mut self, name: &str, achieved_gflops: f64, intensity: f64) {
        let roofline_gflops = self.at_intensity(intensity);
        let fraction_of_peak = if roofline_gflops > 0.0 {
            achieved_gflops / roofline_gflops
        } else {
            0.0
        };
        self.kernels.insert(
            name.to_string(),
            RooflineKernel {
                achieved_gflops,
                intensity_flops_per_byte: intensity,
                roofline_gflops,
                fraction_of_peak,
            },
        );
    }
}

/// Seconds each measurement loop aims to run. Long enough to amortise
/// timer resolution, short enough that the whole roofline takes ~2 s.
const TARGET_SECS: f64 = 0.2;

/// Runs `f` repeatedly (after one warm-up call) until [`TARGET_SECS`]
/// elapse, returning `(wall_seconds, repetitions)`.
fn time_reps(mut f: impl FnMut()) -> (f64, u64) {
    f();
    let sw = Stopwatch::start();
    let mut reps = 0u64;
    loop {
        f();
        reps += 1;
        let secs = sw.seconds();
        if (secs >= TARGET_SECS && reps >= 3) || reps >= 1_000_000 {
            return (secs.max(1e-9), reps);
        }
    }
}

/// FLOPs one ladder call performs per thread.
const LADDER_CHAINS: usize = 16;
const LADDER_ITERS: u64 = 200_000;

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod ladder {
    use super::{LADDER_CHAINS, LADDER_ITERS};
    use mqmd_util::simd::F64x4;

    /// FLOPs per [`run`] call: 4 lanes × 2 (FMA) per chain per iteration.
    pub(super) fn flops_per_call() -> u64 {
        if mqmd_util::simd::simd_available() {
            LADDER_ITERS * LADDER_CHAINS as u64 * 8
        } else {
            LADDER_ITERS * LADDER_CHAINS as u64 * 2
        }
    }

    pub fn run() -> f64 {
        if mqmd_util::simd::simd_available() {
            // SAFETY: probe verified AVX2+FMA.
            unsafe { fma_ladder_avx2() }
        } else {
            super::scalar_ladder()
        }
    }

    /// # Safety
    /// Requires AVX2+FMA at runtime.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn fma_ladder_avx2() -> f64 {
        let m = F64x4::splat(1.000_000_001);
        let c = F64x4::splat(1e-9);
        let mut acc = [F64x4::splat(1.0); LADDER_CHAINS];
        for _ in 0..LADDER_ITERS {
            for a in acc.iter_mut() {
                *a = a.mul_add(m, c);
            }
        }
        acc.iter().map(|v| v.hsum_ordered()).sum()
    }
}

#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
mod ladder {
    use super::{LADDER_CHAINS, LADDER_ITERS};

    /// FLOPs per [`run`] call: 2 per chain per iteration (mul + add).
    pub(super) fn flops_per_call() -> u64 {
        LADDER_ITERS * LADDER_CHAINS as u64 * 2
    }

    pub fn run() -> f64 {
        super::scalar_ladder()
    }
}

/// Scalar multiply-add ladder (the `--no-default-features` compute peak).
fn scalar_ladder() -> f64 {
    let m = 1.000_000_001f64;
    let c = 1e-9f64;
    let mut acc = [1.0f64; LADDER_CHAINS];
    for _ in 0..LADDER_ITERS {
        for a in acc.iter_mut() {
            *a = *a * m + c;
        }
    }
    acc.iter().sum()
}

/// Measures the machine compute peak in GFLOP/s: the FMA ladder on every
/// rayon worker concurrently.
fn measure_peak_gflops() -> f64 {
    let threads = rayon::current_num_threads().max(1);
    let (secs, reps) = time_reps(|| {
        let sink: f64 = (0..threads).into_par_iter().map(|_| ladder::run()).sum();
        std::hint::black_box(sink);
    });
    let flops = reps as f64 * threads as f64 * ladder::flops_per_call() as f64;
    flops / secs / 1e9
}

/// Measures the machine bandwidth peak in GB/s: a parallel streaming triad
/// over three 32 MiB arrays (96 MiB total, far over any last-level cache).
fn measure_peak_bw_gbps() -> f64 {
    let n = 1 << 22; // 4 Mi doubles per array
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let s = 3.0f64;
    let chunk = 1 << 16;
    let (secs, reps) = time_reps(|| {
        a.par_chunks_mut(chunk).enumerate().for_each(|(i, ac)| {
            let base = i * chunk;
            for (j, x) in ac.iter_mut().enumerate() {
                *x = b[base + j] + s * c[base + j];
            }
        });
        std::hint::black_box(a.first());
    });
    // STREAM triad convention: 2 reads + 1 write per element.
    let bytes = reps as f64 * (3 * 8 * n) as f64;
    bytes / secs / 1e9
}

/// Measures the vectorized kernels and records their placements
/// (achieved GFLOP/s + analytic intensity) into `r`.
fn place_kernels(r: &mut Roofline) {
    // GEMM: square dgemm through the dispatcher (packed SIMD microkernel
    // when available). Analytic: 2n³ FLOPs, 8·(n² + n² + 2n²) bytes.
    {
        let n = 256usize;
        let a = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 13) as f64 * 0.1 - 0.6);
        let b = Matrix::from_fn(n, n, |i, j| ((i + 5 * j) % 11) as f64 * 0.1 - 0.5);
        let mut c = Matrix::zeros(n, n);
        let (secs, reps) = time_reps(|| {
            dgemm(1.0, &a, &b, 0.0, &mut c);
            std::hint::black_box(c.data().first());
        });
        let flops_per_call = 2.0 * (n * n * n) as f64;
        let bytes_per_call = (8 * 4 * n * n) as f64;
        r.place(
            "gemm",
            reps as f64 * flops_per_call / secs / 1e9,
            flops_per_call / bytes_per_call,
        );
    }

    // FFT: 64³ complex forward transform (pencil-parallel, vectorized
    // Stockham butterflies). FLOPs from the analytic tally; bytes modelled
    // as one read + one write of every point per radix-2 stage per axis.
    {
        let n = 64usize;
        let plan = Fft3d::new(n, n, n);
        let mut x: Vec<Complex64> = (0..n * n * n)
            .map(|i| Complex64::new((i % 97) as f64 * 0.01, (i % 89) as f64 * 0.02))
            .collect();
        mqmd_util::flops::take_flops();
        plan.forward(&mut x);
        let flops_per_call = mqmd_util::flops::take_flops() as f64;
        let (secs, reps) = time_reps(|| {
            plan.forward(&mut x);
            std::hint::black_box(x.first());
        });
        let stages = (n as f64).log2();
        let bytes_per_call = 3.0 * (n * n * n) as f64 * 32.0 * stages;
        r.place(
            "fft",
            reps as f64 * flops_per_call / secs / 1e9,
            flops_per_call / bytes_per_call,
        );
    }

    // Batched, pruned FFT — H·ψ's transform pair: 18 bands on the 8³ domain
    // grid of the 8-atom benchmark, pruned to a sphere that holds the 63
    // plane waves its cutoff leaves (to real space and back). FLOPs from
    // the analytic tally, which counts the lines the pruned sweeps run;
    // bytes modelled as for `fft`, one read + one write per value per
    // radix-2 stage of every such line.
    {
        let (n, lanes) = (8usize, 18usize);
        let plan = Fft3d::new(n, n, n);
        let fold = |i: usize| i.min(n - i) as f64;
        let support: Vec<usize> = (0..plan.len())
            .filter(|&g| {
                let (ix, iy, iz) = (g / (n * n), g / n % n, g % n);
                1.8 * fold(ix).powi(2) + fold(iy).powi(2) + fold(iz).powi(2) <= 6.9
            })
            .collect();
        let pruning = plan.pruning(&support);
        let ws = Workspace::new();
        let coeffs: Vec<Complex64> = (0..support.len() * lanes)
            .map(|i| Complex64::new((i % 97) as f64 * 0.01, (i % 89) as f64 * 0.02))
            .collect();
        let mut panel = vec![Complex64::ZERO; plan.len() * lanes];
        // As H·ψ does it: a zeroed panel, the coefficients scattered onto
        // the sphere, to real space, and back.
        let mut pair = || {
            panel.fill(Complex64::ZERO);
            for (row, &g) in coeffs.chunks_exact(lanes).zip(&support) {
                panel[g * lanes..(g + 1) * lanes].copy_from_slice(row);
            }
            plan.inverse_batch(&mut panel, lanes, Some(&pruning), &ws);
            plan.forward_batch(&mut panel, lanes, Some(&pruning), &ws);
            std::hint::black_box(panel.first());
        };
        mqmd_util::flops::take_flops();
        pair();
        let flops_per_call = mqmd_util::flops::take_flops() as f64;
        let (secs, reps) = time_reps(&mut pair);
        let lines: usize = [Direction::Inverse, Direction::Forward]
            .iter()
            .map(|&dir| pruning.lines(dir).iter().sum::<usize>())
            .sum();
        let stages = (n as f64).log2();
        let bytes_per_call = (lines * n * lanes) as f64 * 32.0 * stages;
        r.place(
            "fft_batch",
            reps as f64 * flops_per_call / secs / 1e9,
            flops_per_call / bytes_per_call,
        );
    }

    // Multigrid smoother: red-black Gauss–Seidel on 64³. Analytic: 10
    // FLOPs per cell per sweep (6 stencil mul/adds, 2 combining adds, one
    // subtract, one divide); 8 f64 accesses per cell (6 neighbour reads,
    // the rhs read, the write).
    {
        let n = 64usize;
        let g = UniformGrid3::cubic(n, 6.0);
        let f = g.sample(|p| (p.x * 0.7).sin() * (p.y * 0.4).cos() + 0.1 * p.z);
        let mut u = vec![0.0; g.len()];
        let (secs, reps) = time_reps(|| {
            rbgs_sweep(&g, &mut u, &f);
            std::hint::black_box(u.first());
        });
        let cells = (n * n * n) as f64;
        let flops_per_call = 10.0 * cells;
        let bytes_per_call = 8.0 * 8.0 * cells;
        r.place(
            "mg_smoother",
            reps as f64 * flops_per_call / secs / 1e9,
            flops_per_call / bytes_per_call,
        );
    }
}

/// Measures the full roofline: machine peaks plus kernel placements.
pub fn measure_roofline() -> Roofline {
    let mut r = Roofline {
        peak_gflops: measure_peak_gflops(),
        peak_bw_gbps: measure_peak_bw_gbps(),
        ..Default::default()
    };
    place_kernels(&mut r);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_follows_the_roof() {
        let mut r = Roofline {
            peak_gflops: 100.0,
            peak_bw_gbps: 20.0,
            ..Default::default()
        };
        // Memory-bound placement: roofline = 0.25 · 20 = 5 GFLOP/s.
        r.place("gemm", 4.0, 0.25);
        // Compute-bound placement: roofline capped at peak_gflops.
        r.place("fft", 50.0, 1000.0);
        assert!((r.kernels["gemm"].roofline_gflops - 5.0).abs() < 1e-12);
        assert!((r.kernels["gemm"].fraction_of_peak - 0.8).abs() < 1e-12);
        assert!((r.kernels["fft"].roofline_gflops - 100.0).abs() < 1e-12);
        assert!((r.kernels["fft"].fraction_of_peak - 0.5).abs() < 1e-12);
    }

    #[test]
    fn peaks_are_positive_and_finite() {
        let p = measure_peak_gflops();
        assert!(p.is_finite() && p > 0.0, "compute peak: {p}");
        let bw = measure_peak_bw_gbps();
        assert!(bw.is_finite() && bw > 0.0, "bandwidth peak: {bw}");
    }

    #[test]
    fn kernel_placements_are_complete() {
        let mut r = Roofline {
            peak_gflops: 100.0,
            peak_bw_gbps: 20.0,
            ..Default::default()
        };
        place_kernels(&mut r);
        for name in ["gemm", "fft", "fft_batch", "mg_smoother"] {
            let k = &r.kernels[name];
            assert!(k.achieved_gflops > 0.0, "{name} achieved");
            assert!(k.intensity_flops_per_byte > 0.0, "{name} intensity");
            assert!(k.roofline_gflops > 0.0, "{name} roofline");
            assert!(k.fraction_of_peak > 0.0, "{name} fraction");
        }
        // GEMM at n=256 is compute-bound (intensity 16 FLOPs/byte), the
        // smoother bandwidth-bound (10/64 FLOPs/byte).
        assert!(r.kernels["gemm"].intensity_flops_per_byte > 10.0);
        assert!(r.kernels["mg_smoother"].intensity_flops_per_byte < 1.0);
    }
}
