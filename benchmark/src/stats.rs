//! Percentiles, done once: every timing the benchmark prints goes through
//! [`Summary::of`], which always carries its sample count.

/// Linear-interpolated quantile of an ascending slice (the "type 7"
/// estimator: `q = 0` is the minimum, `q = 1` the maximum).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Quantile of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// Median of unsorted samples; 0 when there are none (a layer that did no
/// work reports 0, never a missing value).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        quantile(samples, 0.5)
    }
}

/// What a set of timings is reported as: the median, the highest
/// percentile that still has at least ten samples beyond it, and `n`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// The percentile (0–100) `tail` is taken at; 50 when fewer than 21
    /// samples leave no higher percentile with ten samples beyond it.
    pub tail_pct: f64,
    pub tail: f64,
}

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary {
                n: 0,
                p50: 0.0,
                tail_pct: 50.0,
                tail: 0.0,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        // The order statistic with exactly TAIL_SAMPLES_BEYOND samples
        // above it, as a percentile; never below the median.
        let tail_pct = if n > 2 * TAIL_SAMPLES_BEYOND {
            100.0 * (n - 1 - TAIL_SAMPLES_BEYOND) as f64 / (n - 1) as f64
        } else {
            50.0
        };
        Summary {
            n,
            p50: quantile_sorted(&sorted, 0.5),
            tail_pct,
            tail: quantile_sorted(&sorted, tail_pct / 100.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_exact_order_statistics() {
        // 0..=100 shuffled: the q-quantile of 101 evenly spaced samples is
        // exactly 100·q.
        let mut xs: Vec<f64> = (0..=100).map(|i| ((i * 37) % 101) as f64).collect();
        assert_eq!(quantile(&xs, 0.0), 0.0);
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.9), 90.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        xs.truncate(4); // 0, 37, 74, 10 → sorted 0, 10, 37, 74
        assert_eq!(median(&xs), 23.5);
        assert_eq!(quantile(&xs, 0.75), 37.0 + 0.25 * 37.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (0..101).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!((s.n, s.p50), (101, 50.0));
        assert_eq!(s.tail_pct, 90.0);
        assert_eq!(s.tail, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > s.tail).count(), 10);

        let s = Summary::of(&xs[..41]);
        assert_eq!(s.tail_pct, 75.0);
        assert_eq!(s.tail, 30.0);

        // Too few samples for any tail: the median is all there is.
        let s = Summary::of(&xs[..20]);
        assert_eq!((s.tail_pct, s.tail), (50.0, s.p50));
        assert_eq!(Summary::of(&[]).n, 0);
        assert_eq!(median(&[]), 0.0);
    }
}
