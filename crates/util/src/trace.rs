//! Hierarchical phase tracing with FLOP/byte/communication counters.
//!
//! The paper's headline results (Table 1 thread-level FLOP rates, Fig 5/6
//! scaling, §3.4 BLAS2→BLAS3 speedups) all rest on per-kernel timing and
//! FLOP/byte breakdowns. This module is the machine-readable source of those
//! numbers: instrumented code opens nested *spans*
//! (`qmd_step > scf_iter > {hamiltonian, fft, gemm, orthonorm, poisson}`),
//! and every FLOP tallied through [`crate::flops`], every byte moved, and
//! every message sent while a span is open is attributed to it.
//!
//! Design:
//!
//! * **Disabled by default and inert.** [`span`] costs one relaxed atomic
//!   load when tracing is off, and instrumentation never changes numerical
//!   behaviour — a property the `tracing_inert` integration test enforces.
//! * **Span identity is `(parent, name)`.** Repeated entries merge: sixty
//!   `scf_iter` spans under one `qmd_step` appear as a single node with
//!   `calls = 60` and accumulated wall time / counters, keeping the tree
//!   bounded for long runs.
//! * **Thread-aware.** The current span is thread-local; the workspace's
//!   `rayon` shim propagates it into parallel workers via
//!   [`ContextGuard::enter`], so counters recorded inside parallel kernels
//!   attribute to the span open at the call site. Counters live in
//!   `Arc`-shared atomics, so attribution is lock-free and safe under
//!   concurrency.
//! * **Inclusive wall time, exclusive counters.** A node's wall time
//!   includes its children (for a merged node, the sum of its guards'
//!   durations); its self time is derived in [`TraceNode::self_wall_secs`].
//!   FLOP, byte, message and allocation counters are exclusive (innermost
//!   span): each is booked to the innermost open span only, so a parent
//!   holds none of its children's.
//!
//! [`take`] snapshots and resets the tree; `mqmd-util`'s `metrics` module
//! renders snapshots as JSON for `BENCH_profile.json`.
//!
//! Beyond sums, every node owns a log-linear latency histogram
//! ([`crate::hist::AtomicHist`]) fed by [`SpanGuard`] on drop, so
//! snapshots carry p50/p95/p99 per kernel; and while the event sink
//! ([`crate::events`]) is enabled, each span open/close additionally
//! emits a timestamped `SpanBegin`/`SpanEnd` record, from which the
//! Chrome-trace exporter reconstructs a per-lane timeline.

use crate::hist::{AtomicHist, HistSnapshot};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Lock-free per-span counters, shared between the tree and open guards.
#[derive(Debug, Default)]
pub struct SpanCounters {
    /// Number of times the span was entered.
    pub calls: AtomicU64,
    /// Accumulated wall time in nanoseconds (sum over entries; inclusive
    /// of child spans).
    pub wall_ns: AtomicU64,
    /// Floating-point operations booked while this span was the innermost
    /// open one. Exclusive (innermost span), like every counter below:
    /// work inside a child span is booked to the child only.
    pub flops: AtomicU64,
    /// Bytes moved (loads+stores the kernel chose to report; exclusive).
    pub bytes: AtomicU64,
    /// Messages sent while this span was the innermost open one.
    pub comm_msgs: AtomicU64,
    /// Message payload bytes (exclusive).
    pub comm_bytes: AtomicU64,
    /// Heap allocations attributed to this span (workspace misses and any
    /// instrumented fresh `Vec`s; exclusive).
    pub alloc_count: AtomicU64,
    /// Bytes requested by those allocations (exclusive).
    pub alloc_bytes: AtomicU64,
}

/// One node of the span tree (topology under the registry mutex; counters
/// lock-free).
struct Node {
    name: &'static str,
    children: Vec<usize>,
    counters: Arc<SpanCounters>,
    hist: Arc<AtomicHist>,
}

struct Registry {
    nodes: Vec<Node>,
}

impl Registry {
    fn fresh() -> Self {
        Self {
            nodes: vec![Node {
                name: "root",
                children: Vec::new(),
                counters: Arc::new(SpanCounters::default()),
                hist: Arc::new(AtomicHist::new()),
            }],
        }
    }

    fn child(&mut self, parent: usize, name: &'static str) -> usize {
        if let Some(&id) = self.nodes[parent]
            .children
            .iter()
            .find(|&&c| self.nodes[c].name == name)
        {
            return id;
        }
        let id = self.nodes.len();
        self.nodes.push(Node {
            name,
            children: Vec::new(),
            counters: Arc::new(SpanCounters::default()),
            hist: Arc::new(AtomicHist::new()),
        });
        self.nodes[parent].children.push(id);
        id
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::fresh()))
}

/// (node id, counters, name) of a thread's innermost open span; node id 0
/// = root (no span, empty name).
type Cur = (usize, Option<Arc<SpanCounters>>, &'static str);

thread_local! {
    static CURRENT: RefCell<Cur> = const { RefCell::new((0, None, "")) };
}

/// Globally enables or disables tracing. Spans opened while disabled are
/// no-ops; counters are only recorded while enabled.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Release);
}

/// Whether tracing is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Opens a span named `name` nested under the innermost open span of this
/// thread. Returns an RAII guard; the span closes (and records its wall
/// time) when the guard drops. When tracing is disabled this is a no-op
/// costing one atomic load.
#[must_use = "the span closes when the guard is dropped"]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { state: None };
    }
    let parent = CURRENT.with(|c| c.borrow().0);
    let (id, counters, hist) = {
        let mut reg = registry().lock().expect("trace registry poisoned");
        let id = reg.child(parent, name);
        (
            id,
            reg.nodes[id].counters.clone(),
            reg.nodes[id].hist.clone(),
        )
    };
    counters.calls.fetch_add(1, Ordering::Relaxed);
    let prev = CURRENT.with(|c| c.replace((id, Some(counters.clone()), name)));
    crate::events::emit(crate::events::Event::SpanBegin { name });
    SpanGuard {
        state: Some(OpenSpan {
            start: Instant::now(),
            name,
            counters,
            hist,
            prev,
        }),
    }
}

struct OpenSpan {
    start: Instant,
    name: &'static str,
    counters: Arc<SpanCounters>,
    hist: Arc<AtomicHist>,
    prev: Cur,
}

/// RAII guard returned by [`span`].
pub struct SpanGuard {
    state: Option<OpenSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(open) = self.state.take() {
            let ns = open.start.elapsed().as_nanos() as u64;
            open.counters.wall_ns.fetch_add(ns, Ordering::Relaxed);
            open.hist.record(ns);
            crate::events::emit(crate::events::Event::SpanEnd { name: open.name });
            CURRENT.with(|c| *c.borrow_mut() = open.prev);
        }
    }
}

/// Name of the innermost span open on this thread (`""` at root). Used to
/// stamp event records with their phase context.
pub fn current_span_name() -> &'static str {
    if !enabled() {
        return "";
    }
    CURRENT.with(|c| c.borrow().2)
}

/// Id of the innermost span open on this thread (0 = root). Used by the
/// `rayon` shim to propagate context into workers.
pub fn current_ctx() -> usize {
    if !enabled() {
        return 0;
    }
    CURRENT.with(|c| c.borrow().0)
}

/// RAII context installer for worker threads: makes `ctx` (a value from
/// [`current_ctx`] on the spawning thread) the current span of this thread
/// for the guard's lifetime.
pub struct ContextGuard {
    prev: Option<Cur>,
}

impl ContextGuard {
    /// Installs `ctx` as this thread's current span.
    pub fn enter(ctx: usize) -> Self {
        if !enabled() || ctx == 0 {
            return Self { prev: None };
        }
        let named = {
            let reg = registry().lock().expect("trace registry poisoned");
            reg.nodes.get(ctx).map(|n| (n.counters.clone(), n.name))
        };
        let Some((counters, name)) = named else {
            return Self { prev: None };
        };
        let prev = CURRENT.with(|c| c.replace((ctx, Some(counters), name)));
        Self { prev: Some(prev) }
    }
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            CURRENT.with(|c| *c.borrow_mut() = prev);
        }
    }
}

#[inline]
fn with_current(f: impl FnOnce(&SpanCounters)) {
    if !enabled() {
        return;
    }
    CURRENT.with(|c| {
        if let (_, Some(counters), _) = &*c.borrow() {
            f(counters);
        }
    });
}

/// Attributes `n` floating-point operations to the innermost open span.
/// Called by [`crate::flops::count_flops`]; kernels normally do not call
/// this directly.
#[inline]
pub fn add_flops(n: u64) {
    with_current(|c| {
        c.flops.fetch_add(n, Ordering::Relaxed);
    });
}

/// Attributes `n` bytes of reported data movement to the innermost span.
#[inline]
pub fn add_bytes(n: u64) {
    with_current(|c| {
        c.bytes.fetch_add(n, Ordering::Relaxed);
    });
}

/// Attributes communication (message count and payload bytes) to the
/// innermost span.
#[inline]
pub fn add_comm(msgs: u64, bytes: u64) {
    with_current(|c| {
        c.comm_msgs.fetch_add(msgs, Ordering::Relaxed);
        c.comm_bytes.fetch_add(bytes, Ordering::Relaxed);
    });
}

/// Attributes `count` heap allocations totalling `bytes` bytes to the
/// innermost open span. Called by [`crate::workspace`] on pool misses;
/// hand-instrumented allocation sites may call it directly.
#[inline]
pub fn add_alloc(count: u64, bytes: u64) {
    with_current(|c| {
        c.alloc_count.fetch_add(count, Ordering::Relaxed);
        c.alloc_bytes.fetch_add(bytes, Ordering::Relaxed);
    });
}

/// Immutable snapshot of one span-tree node.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceNode {
    /// Span name.
    pub name: String,
    /// Number of times the span was entered.
    pub calls: u64,
    /// Accumulated wall time over all entries, seconds (inclusive of child
    /// spans).
    pub wall_secs: f64,
    /// FLOPs booked while the span was the innermost open one. Exclusive
    /// (innermost span), like every counter below: a child span's work is
    /// in the child only.
    pub flops: u64,
    /// Reported bytes moved (exclusive).
    pub bytes: u64,
    /// Messages sent (exclusive).
    pub comm_msgs: u64,
    /// Payload bytes (exclusive).
    pub comm_bytes: u64,
    /// Heap allocations attributed to the span (exclusive).
    pub alloc_count: u64,
    /// Bytes requested by those allocations (exclusive).
    pub alloc_bytes: u64,
    /// Per-entry wall-time distribution (nanosecond samples, one per
    /// call), from which p50/p95/p99 derive.
    pub hist: HistSnapshot,
    /// Child spans.
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    /// Wall time not accounted to children (clamped at zero for merged
    /// concurrent spans whose child durations can exceed the parent's).
    pub fn self_wall_secs(&self) -> f64 {
        (self.wall_secs - self.children.iter().map(|c| c.wall_secs).sum::<f64>()).max(0.0)
    }

    /// Wall-time quantile of one span entry, in seconds (0 when the span
    /// recorded no completed entries). `q` ∈ [0, 1].
    pub fn wall_quantile_secs(&self, q: f64) -> f64 {
        self.hist.quantile(q) as f64 * 1e-9
    }

    /// FLOP throughput of the span in GFLOP/s (0 when no time elapsed).
    pub fn gflops(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.flops as f64 / self.wall_secs / 1e9
        } else {
            0.0
        }
    }

    /// Depth-first search for the first node named `name`.
    pub fn find(&self, name: &str) -> Option<&TraceNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Sums `calls`, wall time, and counters over every node named `name`
    /// in the subtree (a flattened per-kernel aggregate).
    pub fn aggregate(&self, name: &str) -> Option<TraceNode> {
        let mut acc: Option<TraceNode> = None;
        self.visit(&mut |n| {
            if n.name == name {
                let a = acc.get_or_insert_with(|| TraceNode {
                    name: name.to_string(),
                    calls: 0,
                    wall_secs: 0.0,
                    flops: 0,
                    bytes: 0,
                    comm_msgs: 0,
                    comm_bytes: 0,
                    alloc_count: 0,
                    alloc_bytes: 0,
                    hist: HistSnapshot::empty(),
                    children: Vec::new(),
                });
                a.calls += n.calls;
                a.wall_secs += n.wall_secs;
                a.flops += n.flops;
                a.bytes += n.bytes;
                a.comm_msgs += n.comm_msgs;
                a.comm_bytes += n.comm_bytes;
                a.alloc_count += n.alloc_count;
                a.alloc_bytes += n.alloc_bytes;
                a.hist.merge(&n.hist);
            }
        });
        acc
    }

    /// Visits every node in the subtree, parents before children.
    pub fn visit(&self, f: &mut impl FnMut(&TraceNode)) {
        f(self);
        for c in &self.children {
            c.visit(f);
        }
    }
}

fn snapshot_node(reg: &Registry, id: usize) -> TraceNode {
    let node = &reg.nodes[id];
    let c = &node.counters;
    TraceNode {
        name: node.name.to_string(),
        calls: c.calls.load(Ordering::Relaxed),
        wall_secs: c.wall_ns.load(Ordering::Relaxed) as f64 * 1e-9,
        flops: c.flops.load(Ordering::Relaxed),
        bytes: c.bytes.load(Ordering::Relaxed),
        comm_msgs: c.comm_msgs.load(Ordering::Relaxed),
        comm_bytes: c.comm_bytes.load(Ordering::Relaxed),
        alloc_count: c.alloc_count.load(Ordering::Relaxed),
        alloc_bytes: c.alloc_bytes.load(Ordering::Relaxed),
        hist: node.hist.snapshot(),
        children: node
            .children
            .iter()
            .map(|&ch| snapshot_node(reg, ch))
            .collect(),
    }
}

/// Snapshots the current span tree without resetting it.
pub fn snapshot() -> TraceNode {
    let reg = registry().lock().expect("trace registry poisoned");
    snapshot_node(&reg, 0)
}

/// Snapshots the span tree and resets it to a fresh root. Guards still open
/// keep accumulating into their (now-detached) counters and are dropped
/// harmlessly; call this between, not inside, traced regions.
pub fn take() -> TraceNode {
    let mut reg = registry().lock().expect("trace registry poisoned");
    let snap = snapshot_node(&reg, 0);
    *reg = Registry::fresh();
    drop(reg);
    CURRENT.with(|c| *c.borrow_mut() = (0, None, ""));
    snap
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises the tests in this module: they share the global registry.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_spans_are_noops() {
        let _g = lock();
        set_enabled(false);
        let _ = take();
        {
            let _s = span("kernel");
            crate::flops::count_flops(123);
        }
        let t = take();
        assert!(t.children.is_empty(), "no nodes recorded while disabled");
    }

    #[test]
    fn nested_spans_merge_by_name() {
        let _g = lock();
        set_enabled(true);
        let _ = take();
        for _ in 0..3 {
            let _outer = span("qmd_step");
            for _ in 0..2 {
                let _inner = span("scf_iter");
                add_flops(10);
            }
        }
        set_enabled(false);
        let t = take();
        let step = t.find("qmd_step").expect("qmd_step recorded");
        assert_eq!(step.calls, 3);
        let scf = step.find("scf_iter").expect("scf_iter nested");
        assert_eq!(scf.calls, 6);
        assert_eq!(scf.flops, 60);
        assert!(scf.wall_secs >= 0.0 && step.wall_secs >= scf.wall_secs);
    }

    #[test]
    fn counters_attribute_to_innermost_span() {
        let _g = lock();
        set_enabled(true);
        let _ = take();
        {
            let _outer = span("outer");
            add_flops(5);
            {
                let _inner = span("inner");
                add_flops(7);
                add_bytes(100);
                add_comm(2, 64);
                add_alloc(3, 4096);
            }
        }
        set_enabled(false);
        let t = take();
        let outer = t.find("outer").unwrap();
        let inner = outer.find("inner").unwrap();
        assert_eq!(outer.flops, 5, "outer holds only its own flops");
        assert_eq!(inner.flops, 7);
        assert_eq!(inner.bytes, 100);
        assert_eq!(inner.comm_msgs, 2);
        assert_eq!(inner.comm_bytes, 64);
        assert_eq!(outer.alloc_count, 0, "allocs attribute to innermost span");
        assert_eq!(inner.alloc_count, 3);
        assert_eq!(inner.alloc_bytes, 4096);
    }

    #[test]
    fn aggregate_sums_across_parents() {
        let _g = lock();
        set_enabled(true);
        let _ = take();
        {
            let _a = span("phase_a");
            let _k = span("gemm");
            add_flops(100);
        }
        {
            let _b = span("phase_b");
            let _k = span("gemm");
            add_flops(200);
        }
        set_enabled(false);
        let t = take();
        let g = t.aggregate("gemm").expect("gemm seen");
        assert_eq!(g.calls, 2);
        assert_eq!(g.flops, 300);
    }

    #[test]
    fn context_guard_adopts_parent_span() {
        let _g = lock();
        set_enabled(true);
        let _ = take();
        {
            let _outer = span("parallel_region");
            let ctx = current_ctx();
            assert_ne!(ctx, 0);
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _c = ContextGuard::enter(ctx);
                    add_flops(42);
                    let _k = span("worker_kernel");
                    add_flops(8);
                });
            });
        }
        set_enabled(false);
        let t = take();
        let outer = t.find("parallel_region").unwrap();
        assert_eq!(outer.flops, 42, "worker flops attributed to spawning span");
        assert_eq!(outer.find("worker_kernel").unwrap().flops, 8);
    }

    #[test]
    fn spans_record_latency_histograms() {
        let _g = lock();
        set_enabled(true);
        let _ = take();
        {
            let _a = span("phase_a");
            for _ in 0..5 {
                let _k = span("kernel");
            }
        }
        {
            let _b = span("phase_b");
            for _ in 0..3 {
                let _k = span("kernel");
            }
        }
        set_enabled(false);
        let t = take();
        let a = t.find("phase_a").unwrap().find("kernel").unwrap();
        assert_eq!(a.hist.count(), 5, "one histogram sample per entry");
        // Aggregation across parents merges the histograms.
        let agg = t.aggregate("kernel").unwrap();
        assert_eq!(agg.hist.count(), 8);
        assert!(agg.wall_quantile_secs(0.5) >= 0.0);
        assert!(agg.wall_quantile_secs(0.99) >= agg.wall_quantile_secs(0.5));
    }

    #[test]
    fn current_span_name_tracks_nesting() {
        let _g = lock();
        set_enabled(true);
        let _ = take();
        assert_eq!(current_span_name(), "");
        {
            let _a = span("outer");
            assert_eq!(current_span_name(), "outer");
            {
                let _b = span("inner");
                assert_eq!(current_span_name(), "inner");
            }
            assert_eq!(current_span_name(), "outer");
        }
        assert_eq!(current_span_name(), "");
        set_enabled(false);
        let _ = take();
    }

    #[test]
    fn take_resets() {
        let _g = lock();
        set_enabled(true);
        let _ = take();
        {
            let _s = span("x");
        }
        set_enabled(false);
        let t1 = take();
        assert!(t1.find("x").is_some());
        let t2 = take();
        assert!(t2.find("x").is_none());
    }
}
