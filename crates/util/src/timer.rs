//! Wall-clock timing helpers for the benchmark harness.

use std::time::Instant;

/// A simple wall-clock stopwatch.
#[derive(Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts a new stopwatch.
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Elapsed seconds since start.
    pub fn seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Times a closure, returning `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let sw = Stopwatch::start();
    let out = f();
    (out, sw.seconds())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_returns_value_and_nonnegative_time() {
        let (v, t) = timed(|| 2 + 2);
        assert_eq!(v, 4);
        assert!(t >= 0.0);
    }
}
