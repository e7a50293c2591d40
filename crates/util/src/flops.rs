//! Floating-point-operation accounting.
//!
//! The paper reports FLOP/s as a headline metric (Tables 1–2, §5.3). Since we
//! cannot read Blue Gene/Q hardware counters, the kernels in `mqmd-linalg`,
//! `mqmd-fft` and `mqmd-dft` report *analytic* FLOP counts (the standard
//! algorithmic counts: 2mnk for GEMM, 5·n·log₂n per complex FFT, …) through
//! this thread-safe tally. The machine model in `mqmd-parallel` combines
//! these counts with its throughput model to produce the paper's
//! GFLOP/s-vs-threads and %-of-peak tables.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A thread-safe FLOP tally.
#[derive(Debug, Default)]
pub struct FlopCounter {
    flops: AtomicU64,
}

impl FlopCounter {
    /// Creates a zeroed counter.
    pub const fn new() -> Self {
        Self {
            flops: AtomicU64::new(0),
        }
    }

    /// Adds `n` floating-point operations.
    #[inline]
    pub fn add(&self, n: u64) {
        self.flops.fetch_add(n, Ordering::Relaxed);
    }

    /// Current tally.
    pub fn get(&self) -> u64 {
        self.flops.load(Ordering::Relaxed)
    }

    /// Resets the tally to zero and returns the previous value.
    pub fn take(&self) -> u64 {
        self.flops.swap(0, Ordering::Relaxed)
    }
}

/// Shards of the global tally. A power of two well above the thread counts
/// this code runs at; with more threads than shards some share one, which
/// costs speed and never a count.
const SHARDS: usize = 16;

/// One shard, on a cache line of its own.
#[repr(align(64))]
struct Shard(FlopCounter);

/// Global tally used by the numerical kernels. Kernels call
/// [`count_flops`]; benches call [`take_flops`] around a region of interest.
///
/// Sharded by thread: with one shared counter, two threads counting a few
/// times per FFT spent their time passing its cache line back and forth
/// (3–4 % of a two-thread QMD step). Every count lands in exactly one
/// shard, and [`read_flops`] / [`take_flops`] visit them all, so totals are
/// what a single counter would hold.
static GLOBAL: [Shard; SHARDS] = [const { Shard(FlopCounter::new()) }; SHARDS];

/// Hands shards out to threads round-robin.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

/// Adds to the global FLOP tally, and — when [`crate::trace`] is enabled —
/// attributes the same count to the innermost open trace span, so kernel
/// FLOPs show up per-phase in `BENCH_profile.json` without any extra calls
/// in the kernels.
#[inline]
pub fn count_flops(n: u64) {
    MY_SHARD.with(|&i| GLOBAL[i].0.add(n));
    crate::trace::add_flops(n);
}

/// Reads the global FLOP tally.
pub fn read_flops() -> u64 {
    GLOBAL.iter().map(|s| s.0.get()).sum()
}

/// Resets the global tally, returning the count accumulated since the last
/// reset.
pub fn take_flops() -> u64 {
    GLOBAL.iter().map(|s| s.0.take()).sum()
}

/// Least work, in analytic FLOPs, that each thread of a parallel call must
/// get before the call is worth handing to the thread pool; below twice
/// this a loop runs inline on its caller.
///
/// Derived from the dispatch cost of the `rayon` shim's pool measured on
/// the 2-vCPU reference container: 1 µs when the helper is still spinning
/// for work, 12 µs on the caller (a futex wake) plus the helper's wake-up
/// when it has parked. The kernels that use this sustain between
/// 1.3 GFLOP/s (FFT pencils) and 16 GFLOP/s (the SIMD GEMM), so 2¹⁶ FLOPs
/// are 4 µs of the fastest and 50 µs of the slowest: the fastest repays a
/// hot dispatch four times over, the others repay a cold one.
const MIN_PAR_FLOPS: u64 = 1 << 16;

/// The `with_min_len` of a parallel loop whose items cost about
/// `flops_per_item` each: the fewest items that hold 2¹⁶ FLOPs.
pub fn par_min_len(flops_per_item: u64) -> usize {
    MIN_PAR_FLOPS.div_ceil(flops_per_item.max(1)) as usize
}

/// Analytic FLOP count of a real matrix multiply C(m×n) += A(m×k)·B(k×n).
pub const fn gemm_flops(m: u64, n: u64, k: u64) -> u64 {
    2 * m * n * k
}

/// Analytic FLOP count of a complex matrix multiply (4 real mul + 4 real add
/// per complex MAC).
pub const fn zgemm_flops(m: u64, n: u64, k: u64) -> u64 {
    8 * m * n * k
}

/// Analytic FLOP count of one complex FFT of length n (the conventional
/// 5·n·log₂n used by HPC reporting, fractional logs rounded down).
pub fn fft_flops(n: u64) -> u64 {
    if n <= 1 {
        return 0;
    }
    (5.0 * n as f64 * (n as f64).log2()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_takes() {
        let c = FlopCounter::new();
        c.add(10);
        c.add(32);
        assert_eq!(c.get(), 42);
        assert_eq!(c.take(), 42);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn analytic_counts() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
        assert_eq!(zgemm_flops(1, 1, 1), 8);
        assert_eq!(fft_flops(8), 5 * 8 * 3);
        assert_eq!(fft_flops(1), 0);
    }

    #[test]
    fn global_counter_is_shared_across_threads() {
        take_flops();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        count_flops(1);
                    }
                });
            }
        });
        assert_eq!(take_flops(), 4000);
    }
}
