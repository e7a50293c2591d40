//! Offline drop-in subset of the [rayon](https://docs.rs/rayon) API.
//!
//! The workspace builds in network-isolated environments, so the real rayon
//! crate may be unavailable; this shim implements exactly the surface the
//! mqmd crates use — `par_iter`, `par_chunks_mut`, `into_par_iter` on
//! `Range<usize>`, the `map`/`filter`/`filter_map`/`step_by`/`with_min_len`
//! adapters, the `collect`/`for_each`/`sum` terminals,
//! `current_num_threads`, and `ThreadPoolBuilder::install` — on top of one
//! persistent, lazily started worker pool (`pool.rs`).
//!
//! Semantics preserved from rayon:
//!
//! * `collect()` preserves input order;
//! * closures run concurrently when more than one thread is configured, so
//!   they must be `Sync` and items `Send`;
//! * a panic in a parallel closure reaches the caller with its payload, and
//!   the pool stays usable;
//! * `with_min_len(k)` keeps at least `k` consecutive items on one thread.
//!
//! How a call runs:
//!
//! * The thread count comes from `RAYON_NUM_THREADS` or
//!   `available_parallelism`; `ThreadPool::install(n)` runs its closure on
//!   the calling thread and makes the calls issued from it `n`-way, for any
//!   `n` — the pool grows to the widest request ever made and never
//!   shrinks.
//! * At one thread (environment, `install(1)`, one item, or fewer than
//!   `2·min_len` items) a call is a plain loop on the caller. It touches no
//!   pool state, and a process that only ever runs so starts no thread —
//!   which is what a single-core CI host gets by default; the threaded path
//!   runs there only under `RAYON_NUM_THREADS` or `install`.
//! * Otherwise the caller publishes the call to the pool and takes part in
//!   it: caller and helpers claim chunks of indices off one atomic cursor.
//!   `sum()` and `collect()` store results per index and fold them in index
//!   order afterwards, so a result never depends on who ran what.
//! * **One level.** A `par_*` call made from inside a parallel closure — on
//!   a pool worker or on the participating caller — runs inline on that
//!   thread. Only the outermost loop fans out (in the solver: the domain
//!   loop, else the band loop, else the FFT/GEMM/smoother sweeps). The
//!   price, accepted until a host with more than two cores is measured:
//!   an outer loop with fewer items than threads leaves threads idle.
//! * Every worker is pooled: nothing is spawned per call, workers spin
//!   briefly for the next call and then park, and a dispatch allocates
//!   nothing.
//!
//! The shim additionally propagates the `mqmd_util::trace` span context
//! into the workers of each call, so FLOP/byte counters recorded inside
//! parallel kernels attribute to the span that was open at the call site,
//! and gives each pool worker one `mqmd_util::events` worker lane for its
//! lifetime, so telemetry (and the Chrome-trace timeline) shows workers as
//! a fixed set of rows.

mod pool;

#[doc(hidden)]
pub use pool::{dispatches as pool_dispatches, workers as pool_workers};

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::OnceLock;

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSlice, ParallelSliceMut};
}

// ---------------------------------------------------------------------------
// Thread-count control
// ---------------------------------------------------------------------------

thread_local! {
    /// Per-thread override installed by [`ThreadPool::install`].
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

fn default_num_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Number of threads parallel operations on this thread will use.
pub fn current_num_threads() -> usize {
    THREAD_OVERRIDE
        .with(|o| o.get())
        .unwrap_or_else(default_num_threads)
}

/// Builder mirroring `rayon::ThreadPoolBuilder` for the API subset used by
/// the bench binaries.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

/// Error type for [`ThreadPoolBuilder::build`]; construction cannot fail in
/// the shim.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    /// Creates a builder with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of threads.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = Some(n);
        self
    }

    /// Builds the pool. Infallible in the shim.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads.unwrap_or_else(default_num_threads).max(1),
        })
    }
}

/// A handle bounding the parallelism of operations run under
/// [`ThreadPool::install`].
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `f` with this pool's thread count governing parallel operations
    /// invoked from `f`'s thread.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        /// Puts the previous override back, also when `f` unwinds.
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                THREAD_OVERRIDE.with(|o| o.set(self.0));
            }
        }
        let _restore = Restore(THREAD_OVERRIDE.with(|o| o.replace(Some(self.num_threads))));
        f()
    }

    /// The pool's thread count.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }
}

// ---------------------------------------------------------------------------
// Core parallel driver
// ---------------------------------------------------------------------------

/// Runs `f(0), …, f(n-1)`, on the caller alone when one thread is
/// configured, fewer than `2·min_len` items exist, or the caller is already
/// inside a parallel region; otherwise on the caller and pool workers, in
/// chunks of at least `min_len` claimed off an atomic cursor.
fn run_indexed<F: Fn(usize) + Sync>(n: usize, min_len: usize, f: F) {
    let threads = if pool::in_parallel() {
        1
    } else {
        current_num_threads().min(n / min_len)
    };
    if threads <= 1 {
        for i in 0..n {
            f(i);
        }
        return;
    }
    let chunk = (n / (threads * 8)).max(min_len);
    pool::run(n, chunk, threads - 1, &f);
}

/// Order-preserving parallel map over `0..n`.
fn map_indexed<T: Send, F: Fn(usize) -> T + Sync>(n: usize, min_len: usize, f: F) -> Vec<T> {
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    struct SendPtr<T>(*mut Option<T>);
    unsafe impl<T: Send> Send for SendPtr<T> {}
    unsafe impl<T: Send> Sync for SendPtr<T> {}
    impl<T> SendPtr<T> {
        fn get(&self) -> *mut Option<T> {
            self.0
        }
    }
    let ptr = SendPtr(out.as_mut_ptr());
    run_indexed(n, min_len, |i| {
        // SAFETY: each index i in [0, n) is visited exactly once by
        // run_indexed, so the writes are disjoint and in-bounds.
        unsafe {
            *ptr.get().add(i) = Some(f(i));
        }
    });
    out.into_iter()
        .map(|v| v.expect("all indices visited"))
        .collect()
}

// ---------------------------------------------------------------------------
// Parallel iterator (indexed source + fused Option-eval pipeline)
// ---------------------------------------------------------------------------

/// Per-index evaluator of a parallel pipeline: `Some` for items surviving
/// the adapter chain, `None` for filtered-out ones. Implemented by pipeline
/// sources and automatically by matching closures.
pub trait Eval<T>: Sync {
    /// Evaluates pipeline element `i`.
    fn eval(&self, i: usize) -> Option<T>;
}

impl<T, F: Fn(usize) -> Option<T> + Sync> Eval<T> for F {
    fn eval(&self, i: usize) -> Option<T> {
        self(i)
    }
}

/// Source evaluator for `Range<usize>`.
pub struct RangeEval {
    start: usize,
}

impl Eval<usize> for RangeEval {
    fn eval(&self, i: usize) -> Option<usize> {
        Some(self.start + i)
    }
}

/// Source evaluator for shared slices.
pub struct SliceEval<'a, T> {
    data: &'a [T],
}

impl<'a, T: Sync> Eval<&'a T> for SliceEval<'a, T> {
    fn eval(&self, i: usize) -> Option<&'a T> {
        Some(&self.data[i])
    }
}

/// A parallel pipeline over an indexed source of `n` elements.
pub struct ParIter<T, E> {
    n: usize,
    /// Fewest consecutive items one thread takes (see `with_min_len`).
    min_len: usize,
    eval: E,
    _marker: PhantomData<fn() -> T>,
}

impl<T, E> ParIter<T, E>
where
    T: Send,
    E: Eval<T>,
{
    /// Keeps at least `min` consecutive items on one thread, so a call with
    /// fewer than `2·min` items runs inline on the caller: the grain cut-off
    /// for loops whose items are too small to repay a dispatch.
    pub fn with_min_len(mut self, min: usize) -> Self {
        self.min_len = min.max(1);
        self
    }

    /// Maps each item through `g`.
    pub fn map<U: Send, G>(self, g: G) -> ParIter<U, impl Eval<U>>
    where
        G: Fn(T) -> U + Sync,
    {
        let eval = self.eval;
        ParIter {
            n: self.n,
            min_len: self.min_len,
            eval: move |i| eval.eval(i).map(&g),
            _marker: PhantomData,
        }
    }

    /// Keeps only items matching `p`.
    pub fn filter<P>(self, p: P) -> ParIter<T, impl Eval<T>>
    where
        P: Fn(&T) -> bool + Sync,
    {
        let eval = self.eval;
        ParIter {
            n: self.n,
            min_len: self.min_len,
            eval: move |i| eval.eval(i).filter(&p),
            _marker: PhantomData,
        }
    }

    /// Maps and filters in one step.
    pub fn filter_map<U: Send, G>(self, g: G) -> ParIter<U, impl Eval<U>>
    where
        G: Fn(T) -> Option<U> + Sync,
    {
        let eval = self.eval;
        ParIter {
            n: self.n,
            min_len: self.min_len,
            eval: move |i| eval.eval(i).and_then(&g),
            _marker: PhantomData,
        }
    }

    /// Takes every `step`-th item (counting from the first).
    pub fn step_by(self, step: usize) -> ParIter<T, impl Eval<T>> {
        assert!(step > 0, "step_by requires a positive step");
        let eval = self.eval;
        ParIter {
            n: self.n.div_ceil(step),
            min_len: self.min_len.div_ceil(step),
            eval: move |i| eval.eval(i * step),
            _marker: PhantomData,
        }
    }

    /// Runs `f` on every item.
    pub fn for_each<G>(self, f: G)
    where
        G: Fn(T) + Sync,
    {
        let eval = self.eval;
        run_indexed(self.n, self.min_len, |i| {
            if let Some(v) = eval.eval(i) {
                f(v);
            }
        });
    }

    /// Collects surviving items, preserving source order.
    pub fn collect<C: FromParIter<T>>(self) -> C {
        let eval = self.eval;
        let parts = map_indexed(self.n, self.min_len, |i| eval.eval(i));
        C::from_options(parts)
    }

    /// Sums the items.
    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<T>,
    {
        let eval = self.eval;
        let parts = map_indexed(self.n, self.min_len, |i| eval.eval(i));
        parts.into_iter().flatten().sum()
    }
}

/// Order-preserving collection target for [`ParIter::collect`].
pub trait FromParIter<T> {
    /// Builds the collection from per-index results (`None` = filtered out).
    fn from_options(parts: Vec<Option<T>>) -> Self;
}

impl<T> FromParIter<T> for Vec<T> {
    fn from_options(parts: Vec<Option<T>>) -> Self {
        parts.into_iter().flatten().collect()
    }
}

impl<T, E> FromParIter<Result<T, E>> for Result<Vec<T>, E> {
    fn from_options(parts: Vec<Option<Result<T, E>>>) -> Self {
        parts.into_iter().flatten().collect()
    }
}

// ---------------------------------------------------------------------------
// Entry-point traits
// ---------------------------------------------------------------------------

/// Conversion into a parallel iterator.
pub trait IntoParallelIterator {
    /// Item type.
    type Item: Send;
    /// Pipeline type.
    type Iter;
    /// Converts into a parallel pipeline.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    type Iter = ParIter<usize, RangeEval>;
    fn into_par_iter(self) -> Self::Iter {
        let start = self.start;
        let n = self.end.saturating_sub(self.start);
        ParIter {
            n,
            min_len: 1,
            eval: RangeEval { start },
            _marker: PhantomData,
        }
    }
}

/// Borrowing parallel iteration over slices.
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over `&T` items.
    fn par_iter(&self) -> ParIter<&T, SliceEval<'_, T>>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<&T, SliceEval<'_, T>> {
        ParIter {
            n: self.len(),
            min_len: 1,
            eval: SliceEval { data: self },
            _marker: PhantomData,
        }
    }
}

/// Mutable chunked parallel iteration over slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over mutable chunks of `chunk_size` elements (the
    /// final chunk may be shorter).
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParChunksMut {
            data: self,
            chunk_size,
            min_len: 1,
        }
    }
}

/// Parallel iterator over disjoint mutable chunks of a slice.
pub struct ParChunksMut<'a, T> {
    data: &'a mut [T],
    chunk_size: usize,
    min_len: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Keeps at least `min` consecutive chunks on one thread (see
    /// [`ParIter::with_min_len`]).
    pub fn with_min_len(mut self, min: usize) -> Self {
        self.min_len = min.max(1);
        self
    }

    /// Pairs each chunk with its index.
    pub fn enumerate(self) -> EnumChunksMut<'a, T> {
        EnumChunksMut { inner: self }
    }

    /// Runs `f` on every chunk.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut [T]) + Sync,
    {
        self.enumerate().for_each(|(_, chunk)| f(chunk));
    }
}

/// Enumerated variant of [`ParChunksMut`].
pub struct EnumChunksMut<'a, T> {
    inner: ParChunksMut<'a, T>,
}

impl<T: Send> EnumChunksMut<'_, T> {
    /// Runs `f` on every `(index, chunk)` pair.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        let chunk_size = self.inner.chunk_size;
        let len = self.inner.data.len();
        let n_chunks = len.div_ceil(chunk_size);
        struct SendPtr<T>(*mut T);
        unsafe impl<T: Send> Send for SendPtr<T> {}
        unsafe impl<T: Send> Sync for SendPtr<T> {}
        impl<T> SendPtr<T> {
            fn get(&self) -> *mut T {
                self.0
            }
        }
        let ptr = SendPtr(self.inner.data.as_mut_ptr());
        run_indexed(n_chunks, self.inner.min_len, |ci| {
            let start = ci * chunk_size;
            let end = (start + chunk_size).min(len);
            // SAFETY: chunks [start, end) are pairwise disjoint across ci and
            // in-bounds; the borrow of `data` outlives run_indexed's scope.
            let chunk =
                unsafe { std::slice::from_raw_parts_mut(ptr.get().add(start), end - start) };
            f((ci, chunk));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn range_map_collect_preserves_order() {
        let v: Vec<usize> = (0..100).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn filter_map_drops_none() {
        let v: Vec<usize> = (0..20)
            .into_par_iter()
            .filter_map(|i| (i % 3 == 0).then_some(i))
            .collect();
        assert_eq!(v, vec![0, 3, 6, 9, 12, 15, 18]);
    }

    #[test]
    fn step_by_matches_serial() {
        let v: Vec<usize> = (0..10).into_par_iter().step_by(4).collect();
        assert_eq!(v, vec![0, 4, 8]);
    }

    #[test]
    fn slice_par_iter_maps() {
        let data = [1.0f64, 2.0, 3.0];
        let v: Vec<f64> = data.par_iter().map(|x| x + 1.0).collect();
        assert_eq!(v, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn chunks_mut_writes_disjoint() {
        let mut data = vec![0usize; 10];
        data.par_chunks_mut(3).enumerate().for_each(|(i, chunk)| {
            for x in chunk.iter_mut() {
                *x = i + 1;
            }
        });
        assert_eq!(data, vec![1, 1, 1, 2, 2, 2, 3, 3, 3, 4]);
    }

    #[test]
    fn sum_terminal() {
        let s: usize = (0..101).into_par_iter().sum();
        assert_eq!(s, 5050);
    }

    #[test]
    fn install_bounds_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        assert_eq!(pool.install(current_num_threads), 1);
        let pool3 = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool3.install(current_num_threads), 3);
        // Parallel work still correct under an override > 1.
        let v: Vec<usize> = pool3.install(|| (0..1000).into_par_iter().map(|i| i + 1).collect());
        assert_eq!(v.len(), 1000);
        assert_eq!(v[999], 1000);
    }

    #[test]
    fn install_restores_the_override_when_its_closure_unwinds() {
        let before = current_num_threads();
        let pool3 = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let caught = std::panic::catch_unwind(|| pool3.install(|| panic!("job failed")));
        assert!(caught.is_err());
        assert_eq!(current_num_threads(), before);
    }

    /// Runs `f` once on each of `width` threads at the same time: a call of
    /// `width` items under `install(width)`, each of which waits until all
    /// are running before it calls `f`. `None` if they never met — the wait
    /// is bounded, so that a pool that lost a worker fails a test rather
    /// than hanging it. Such calls hold workers, and two of them at once
    /// could starve each other, so they take turns.
    fn at_full_width<R: Send>(width: usize, f: impl Fn() -> R + Sync) -> Option<Vec<R>> {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::{Duration, Instant};
        static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
        let arrived = AtomicUsize::new(0);
        let pool = ThreadPoolBuilder::new().num_threads(width).build().unwrap();
        pool.install(|| {
            (0..width)
                .into_par_iter()
                .map(|_| {
                    arrived.fetch_add(1, Ordering::SeqCst);
                    let deadline = Instant::now() + Duration::from_secs(20);
                    while arrived.load(Ordering::SeqCst) < width {
                        if Instant::now() > deadline {
                            return None;
                        }
                        std::thread::yield_now();
                    }
                    Some(f())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .collect()
        })
    }

    #[test]
    fn spawned_workers_get_worker_lanes() {
        use mqmd_util::events::{current_lane, Lane};
        use std::collections::BTreeSet;
        use std::sync::Mutex;
        let before = at_full_width(4, current_lane).expect("four threads");
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let lanes = Mutex::new(BTreeSet::new());
        pool.install(|| {
            for _ in 0..1000 {
                (0..64).into_par_iter().for_each(|_| {
                    lanes.lock().unwrap().insert(current_lane());
                });
            }
        });
        let after = at_full_width(4, current_lane).expect("four threads");
        let mut lanes = lanes.into_inner().unwrap();
        lanes.extend(before);
        lanes.extend(after);
        let workers = lanes
            .iter()
            .filter(|&&l| matches!(Lane::decode(l), Lane::Worker(_)))
            .count();
        // The caller takes part on its own (control) lane. 1,002 calls later
        // there are no more worker rows in the timeline than pool workers:
        // three, unless this host's default width is above four.
        assert!(workers >= 3, "lanes: {lanes:?}");
        assert!(workers <= pool_workers(), "lanes: {lanes:?}");
        assert_eq!(lanes.len(), workers + 1, "lanes: {lanes:?}");
        assert_eq!(pool_workers(), 3.max(super::default_num_threads() - 1));
    }

    #[test]
    fn nested_call_runs_inline_on_its_parents_thread() {
        use std::thread::current;
        // All four threads hold one outer item each.
        let outer = at_full_width(4, || {
            let dispatched = pool_dispatches();
            let inner: Vec<_> = (0..256).into_par_iter().map(|_| current().id()).collect();
            (current().id(), inner, pool_dispatches() - dispatched)
        })
        .expect("four threads");
        let distinct: std::collections::HashSet<_> = outer.iter().map(|o| o.0).collect();
        assert_eq!(distinct.len(), 4);
        for (parent, inner, dispatched) in &outer {
            assert!(inner.iter().all(|id| id == parent));
            assert_eq!(*dispatched, 0);
        }
        // The caller is outside the region again: its next call is pooled.
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let dispatched = pool_dispatches();
        pool.install(|| (0..256).into_par_iter().for_each(|_| {}));
        assert_eq!(pool_dispatches(), dispatched + 1);
    }

    #[test]
    fn worker_panic_reaches_the_caller_and_the_pool_survives() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let caller = std::thread::current().id();
        let thrown = AtomicBool::new(false);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            at_full_width(4, || {
                // Exactly one item panics, and on a worker.
                if std::thread::current().id() != caller && !thrown.swap(true, Ordering::SeqCst) {
                    std::panic::panic_any(String::from("payload from a worker"));
                }
            })
        }));
        let payload = caught.expect_err("the worker's panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("payload from a worker")
        );
        // The caller is out of the parallel region and all three workers
        // are still there.
        assert!(at_full_width(4, || ()).is_some());
    }

    #[test]
    fn more_callers_than_workers_all_finish_with_correct_results() {
        use std::sync::Barrier;
        let start = Barrier::new(8);
        std::thread::scope(|s| {
            for t in 0..8usize {
                let start = &start;
                s.spawn(move || {
                    let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
                    start.wait();
                    pool.install(|| {
                        for round in 0..200usize {
                            let n = 500 + t + round;
                            let sum: usize = (0..n).into_par_iter().map(|i| i * (t + 1)).sum();
                            assert_eq!(sum, (t + 1) * n * (n - 1) / 2);
                            let v: Vec<usize> = (0..n).into_par_iter().map(|i| i + t).collect();
                            assert!(v.iter().enumerate().all(|(i, &x)| x == i + t));
                        }
                    });
                });
            }
        });
    }

    #[test]
    fn with_min_len_keeps_order_and_coverage_and_inlines_small_calls() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let me = std::thread::current().id();
        pool.install(|| {
            // Below 2·min_len: on the caller, nothing dispatched.
            let dispatched = pool_dispatches();
            let ids: Vec<_> = (0..127)
                .into_par_iter()
                .with_min_len(64)
                .map(|_| std::thread::current().id())
                .collect();
            assert!(ids.iter().all(|&id| id == me));
            let mut small = vec![0usize; 127 * 3];
            small
                .par_chunks_mut(3)
                .with_min_len(64)
                .enumerate()
                .for_each(|(i, c)| c.fill(i));
            assert!(small.iter().enumerate().all(|(k, &x)| x == k / 3));
            assert_eq!(pool_dispatches(), dispatched);

            // At or above it: pooled, in order, every index once.
            let v: Vec<usize> = (0..1000)
                .into_par_iter()
                .with_min_len(64)
                .map(|i| i * 3)
                .collect();
            assert_eq!(v, (0..1000).map(|i| i * 3).collect::<Vec<_>>());
            let stepped: Vec<usize> = (0..1000)
                .into_par_iter()
                .with_min_len(64)
                .step_by(4)
                .collect();
            assert_eq!(stepped, (0..1000).step_by(4).collect::<Vec<_>>());
            let mut big = vec![0usize; 1000 * 3 + 1];
            big.par_chunks_mut(3)
                .with_min_len(64)
                .enumerate()
                .for_each(|(i, c)| c.fill(i + 1));
            assert!(big.iter().enumerate().all(|(k, &x)| x == k / 3 + 1));
            assert_eq!(pool_dispatches(), dispatched + 3);
        });
    }

    #[test]
    fn forced_multithread_chunks_cover_all_indices() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let mut data = vec![0u64; 10_000];
        pool.install(|| {
            data.par_chunks_mut(7).enumerate().for_each(|(i, chunk)| {
                for (j, x) in chunk.iter_mut().enumerate() {
                    *x = (i * 7 + j) as u64;
                }
            });
        });
        for (i, &x) in data.iter().enumerate() {
            assert_eq!(x, i as u64);
        }
    }
}
