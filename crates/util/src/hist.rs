//! Mergeable log-linear (HDR-style) latency histograms.
//!
//! A sum and a mean hide the distribution: one 200 ms GC-style stall inside
//! ten thousand 20 µs GEMM calls is invisible in `wall_secs / calls` but
//! dominates the p99.9. Every traced span therefore records each entry's
//! duration into an [`AtomicHist`] owned by its registry node, and the
//! profile report serialises the resulting p50/p95/p99 per kernel.
//!
//! Bucketing is the classic HDR scheme: exact buckets below
//! 2^4, then 16 linear sub-buckets per power of two, giving a guaranteed
//! relative error ≤ 2^−4 (6.25%) over
//! the full `u64` range with a fixed, allocation-free bucket count.
//! Recording is one index computation plus one relaxed atomic increment,
//! so it is safe on hot paths and under concurrency; snapshots are plain
//! `Vec<u64>` counts that merge by element-wise addition (the property the
//! distributed reduction relies on, and that the proptest suite checks
//! against exact sorted-sample quantiles).

use crate::stats::RunningStats;
use std::sync::atomic::{AtomicU64, Ordering};

/// log2 of the linear sub-bucket count per octave.
const SUB_BITS: u32 = 4;
/// Linear sub-buckets per power of two.
const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Total bucket count covering all of `u64`.
const N_BUCKETS: usize = (64 - SUB_BITS as usize) * SUB_BUCKETS + SUB_BUCKETS;

/// Bucket index for `v`: identity below `SUB_BUCKETS` (exact), then
/// log-linear above.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let sub = ((v >> shift) as usize) & (SUB_BUCKETS - 1);
    ((msb - SUB_BITS + 1) as usize) * SUB_BUCKETS + sub
}

/// Lowest value mapping to bucket `i`.
fn bucket_low(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64;
    }
    let octave = (i / SUB_BUCKETS - 1) as u32 + SUB_BITS;
    let sub = (i % SUB_BUCKETS) as u64;
    (1u64 << octave) + (sub << (octave - SUB_BITS))
}

/// Representative (midpoint) value of bucket `i`, used when reading
/// quantiles back out.
fn bucket_mid(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64;
    }
    let low = bucket_low(i);
    let octave = (i / SUB_BUCKETS - 1) as u32 + SUB_BITS;
    low + (1u64 << (octave - SUB_BITS)) / 2
}

/// Lock-free histogram: a fixed array of relaxed atomic bucket counters
/// plus a total-sum accumulator for exact means.
#[derive(Debug)]
pub struct AtomicHist {
    buckets: Box<[AtomicU64; N_BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for AtomicHist {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHist {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        // `AtomicU64` is not Copy; build the array through a zeroed Vec.
        let v: Vec<AtomicU64> = (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; N_BUCKETS]> =
            v.into_boxed_slice().try_into().expect("fixed length");
        Self {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample (typically a span duration in nanoseconds).
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Immutable snapshot of the current counts.
    pub fn snapshot(&self) -> HistSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistSnapshot {
            counts,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Immutable histogram snapshot: mergeable counts plus total count/sum.
#[derive(Clone, Debug, PartialEq)]
pub struct HistSnapshot {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistSnapshot {
    /// An empty snapshot (zero samples, no allocation for the bucket
    /// array until something merges into it).
    pub fn empty() -> Self {
        Self {
            counts: Vec::new(),
            count: 0,
            sum: 0,
        }
    }

    /// Builds a snapshot from raw samples (test/fixture helper).
    pub fn from_samples(samples: &[u64]) -> Self {
        let mut counts = vec![0u64; N_BUCKETS];
        let mut sum = 0u64;
        for &s in samples {
            counts[bucket_index(s)] += 1;
            sum = sum.wrapping_add(s);
        }
        Self {
            counts,
            count: samples.len() as u64,
            sum,
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Merges another snapshot into this one (element-wise count sum).
    pub fn merge(&mut self, other: &HistSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0u64; N_BUCKETS];
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Value at quantile `q` ∈ [0, 1]: the midpoint of the bucket holding
    /// the ⌈q·n⌉-th smallest sample (0 when empty). Accurate to the bucket
    /// resolution, i.e. a relative error of at most 2^−`SUB_BITS`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_mid(i);
            }
        }
        bucket_mid(N_BUCKETS - 1)
    }

    /// Reconstructs running statistics (count/mean/variance) from the
    /// bucket counts, pushing each bucket midpoint with its multiplicity.
    /// The profile's per-kernel `std_err_secs` is derived from it.
    pub fn running_stats(&self) -> RunningStats {
        let mut s = RunningStats::new();
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                s.push_n(bucket_mid(i) as f64, c);
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB_BUCKETS as u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_mid(bucket_index(v)), v);
        }
    }

    #[test]
    fn bucket_bounds_are_monotone_and_tight() {
        for i in 1..N_BUCKETS {
            assert!(bucket_low(i) > bucket_low(i - 1), "bucket {i}");
        }
        // Every value maps into the bucket whose [low, next_low) range
        // contains it.
        for v in [0u64, 1, 15, 16, 17, 255, 1023, 1 << 20, u64::MAX / 2] {
            let i = bucket_index(v);
            assert!(bucket_low(i) <= v, "v={v} i={i} low={}", bucket_low(i));
            if i + 1 < N_BUCKETS {
                assert!(v < bucket_low(i + 1), "v={v} i={i}");
            }
        }
    }

    #[test]
    fn relative_error_bounded() {
        let bound = 1.0 / SUB_BUCKETS as f64;
        for shift in 4..60 {
            let v = (1u64 << shift) + (1u64 << (shift - 2)) + 7;
            let mid = bucket_mid(bucket_index(v)) as f64;
            let err = (mid - v as f64).abs() / v as f64;
            assert!(err <= bound, "v={v} mid={mid} err={err}");
        }
    }

    #[test]
    fn quantiles_of_uniform_ladder() {
        let samples: Vec<u64> = (1..=1000).collect();
        let h = HistSnapshot::from_samples(&samples);
        assert_eq!(h.count(), 1000);
        for (q, exact) in [(0.5, 500.0), (0.95, 950.0), (0.99, 990.0)] {
            let est = h.quantile(q) as f64;
            assert!(
                (est - exact).abs() / exact <= 1.0 / SUB_BUCKETS as f64 + 1e-9,
                "q={q} est={est} exact={exact}"
            );
        }
    }

    #[test]
    fn merge_matches_concatenation() {
        let a: Vec<u64> = (0..500).map(|i| (i * i) % 10_000).collect();
        let b: Vec<u64> = (0..300).map(|i| (i * 37) % 100_000).collect();
        let mut ha = HistSnapshot::from_samples(&a);
        let hb = HistSnapshot::from_samples(&b);
        ha.merge(&hb);
        let both: Vec<u64> = a.iter().chain(&b).copied().collect();
        assert_eq!(ha, HistSnapshot::from_samples(&both));
    }

    #[test]
    fn atomic_hist_concurrent_records_all_land() {
        let h = AtomicHist::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
        assert_eq!(h.snapshot().count(), 4000);
    }

    #[test]
    fn running_stats_reconstruction_close() {
        let samples: Vec<u64> = (0..2000).map(|i| 1000 + (i % 400) * 10).collect();
        let h = HistSnapshot::from_samples(&samples);
        let s = h.running_stats();
        let exact_mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        assert_eq!(s.count(), 2000);
        assert!((s.mean() - exact_mean).abs() / exact_mean < 1.0 / SUB_BUCKETS as f64);
        assert!(s.std_dev() > 0.0);
    }

    #[test]
    fn empty_snapshot_behaviour() {
        let h = HistSnapshot::empty();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.is_empty());
        let mut h2 = HistSnapshot::empty();
        h2.merge(&h);
        assert!(h2.is_empty());
    }
}
