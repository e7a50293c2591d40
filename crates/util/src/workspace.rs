//! Reusable scratch-buffer arena for the allocation-free SCF hot path.
//!
//! The paper's per-domain solves stay compute-bound only when the kernels
//! inside an SCF iteration stop paying allocator latency: linear-scaling
//! codes preplan every buffer a solve needs and reuse it for the lifetime
//! of the run. A [`Workspace`] is that plan's dynamic half — an arena of
//! typed, size-tagged, reusable buffers. Kernels call
//! [`Workspace::borrow_c64`] / [`Workspace::borrow_f64`] and get an RAII
//! guard deref-ing to a zero-filled slice; dropping the guard returns the
//! buffer to the arena for the next borrow.
//!
//! Accounting:
//!
//! * a borrow satisfied from the free list is a **hit** (no heap traffic);
//! * a borrow that had to allocate is a **miss**, counted (with its byte
//!   size) in the workspace's own [`AllocStats`], in the process-wide
//!   [`global_stats`], and attributed to the innermost open trace span via
//!   [`crate::trace::add_alloc`] — which is how per-phase `alloc_count` /
//!   `alloc_bytes` reach the profile's kernel table.
//!
//! In steady state every hot-path borrow must be a hit; the tier-1
//! `workspace_reuse` test asserts exactly that, and `repro_profile` exits
//! 1 when its steady-state QMD step misses at all.
//!
//! Aliasing is impossible by construction — a borrow *removes* the buffer
//! from the free list, so two live guards always hold distinct
//! allocations. Debug builds additionally track live buffer pointers and
//! panic if the arena ever hands out (or is handed back) a buffer that is
//! already live.

use crate::complex::Complex64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

// ---------------------------------------------------------------------------
// Allocation accounting
// ---------------------------------------------------------------------------

/// Lock-free hit/miss counters for planned-buffer reuse.
#[derive(Debug, Default)]
pub struct AllocStats {
    hits: AtomicU64,
    misses: AtomicU64,
    miss_bytes: AtomicU64,
}

/// Point-in-time copy of an [`AllocStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Borrows satisfied by reusing a pooled buffer.
    pub hits: u64,
    /// Borrows (or plan checks) that had to allocate.
    pub misses: u64,
    /// Bytes requested by those misses.
    pub miss_bytes: u64,
}

impl AllocSnapshot {
    /// Counter deltas accumulated since `earlier`.
    pub fn since(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            miss_bytes: self.miss_bytes - earlier.miss_bytes,
        }
    }
}

impl AllocStats {
    /// Creates zeroed counters.
    pub const fn new() -> Self {
        Self {
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            miss_bytes: AtomicU64::new(0),
        }
    }

    /// Records one reuse of an already-planned buffer.
    fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one fresh allocation of `bytes` bytes.
    fn record_miss(&self, bytes: u64) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.miss_bytes.fetch_add(bytes, Ordering::Relaxed);
        if std::env::var_os("MQMD_TRACE_MISSES").is_some() {
            eprintln!(
                "MISS {bytes} bytes\n{}",
                std::backtrace::Backtrace::force_capture()
            );
        }
    }

    /// Reads the counters.
    pub fn snapshot(&self) -> AllocSnapshot {
        AllocSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            miss_bytes: self.miss_bytes.load(Ordering::Relaxed),
        }
    }
}

static GLOBAL: AllocStats = AllocStats::new();

/// Process-wide hit/miss accounting shared by every [`Workspace`] and by
/// plan-shaped buffers (e.g. the eigensolver's `EigWorkspace`). The
/// steady-state zero-miss acceptance test reads this.
pub fn global_stats() -> &'static AllocStats {
    &GLOBAL
}

/// Records a planned-buffer reuse into [`global_stats`]. For reusable
/// buffers that live outside a [`Workspace`] (shape-checked matrices and
/// hierarchies) so all reuse shows up in one ledger.
pub fn record_reuse() {
    GLOBAL.record_hit();
}

/// Records a planned-buffer (re)allocation of `bytes` bytes into
/// [`global_stats`] and the current trace span.
pub fn record_plan_alloc(bytes: u64) {
    GLOBAL.record_miss(bytes);
    crate::trace::add_alloc(1, bytes);
}

// ---------------------------------------------------------------------------
// Typed buffer pool
// ---------------------------------------------------------------------------

/// Free list of one element type. Borrowing takes the smallest buffer whose
/// capacity fits (best-fit on the size tag); returning pushes it back with
/// its capacity intact.
#[derive(Debug, Default)]
struct Pool<T> {
    free: Mutex<Vec<Vec<T>>>,
}

impl<T: Copy + Default> Pool<T> {
    /// Takes a zero-filled buffer of exactly `len` elements. Returns the
    /// buffer and whether it was a reuse (`true` = hit).
    fn take(&self, len: usize) -> (Vec<T>, bool) {
        let reused = {
            let mut free = self.free.lock().expect("workspace pool poisoned");
            let best = free
                .iter()
                .enumerate()
                .filter(|(_, v)| v.capacity() >= len)
                .min_by_key(|(_, v)| v.capacity())
                .map(|(i, _)| i);
            best.map(|i| free.swap_remove(i))
        };
        match reused {
            Some(mut v) => {
                v.clear();
                v.resize(len, T::default());
                (v, true)
            }
            None => (vec![T::default(); len], false),
        }
    }

    fn put(&self, v: Vec<T>) {
        self.free.lock().expect("workspace pool poisoned").push(v);
    }
}

// ---------------------------------------------------------------------------
// Workspace
// ---------------------------------------------------------------------------

/// Arena of reusable complex and real scratch buffers.
///
/// Sharable across threads (`&Workspace` borrows work from inside parallel
/// kernels); a borrow holds the pool lock only while popping, never while
/// the buffer is in use.
#[derive(Debug, Default)]
pub struct Workspace {
    c64: Pool<Complex64>,
    f64s: Pool<f64>,
    stats: AllocStats,
    #[cfg(debug_assertions)]
    live: Mutex<std::collections::BTreeSet<usize>>,
}

impl Workspace {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// This arena's hit/miss counters.
    pub fn stats(&self) -> &AllocStats {
        &self.stats
    }

    /// Pre-populates the complex pool with `count` buffers of `len`
    /// elements (plan-time allocation: counted in the trace's per-phase
    /// alloc counters but not as borrow misses).
    pub fn reserve_c64(&self, len: usize, count: usize) {
        crate::trace::add_alloc(count as u64, (count * len * size_of::<Complex64>()) as u64);
        for _ in 0..count {
            self.c64.put(vec![Complex64::default(); len]);
        }
    }

    fn note(&self, hit: bool, bytes: u64, ptr: usize) {
        if hit {
            self.stats.record_hit();
            GLOBAL.record_hit();
        } else {
            self.stats.record_miss(bytes);
            GLOBAL.record_miss(bytes);
            crate::trace::add_alloc(1, bytes);
        }
        self.debug_mark_live(ptr);
    }

    /// Debug-build guard: marks a buffer live, panicking if the same
    /// allocation is already checked out (the arena must never hand out an
    /// aliased buffer).
    #[inline]
    fn debug_mark_live(&self, ptr: usize) {
        #[cfg(debug_assertions)]
        {
            if ptr != 0 {
                let inserted = self
                    .live
                    .lock()
                    .expect("workspace live set poisoned")
                    .insert(ptr);
                assert!(inserted, "workspace handed out an aliased live buffer");
            }
        }
        #[cfg(not(debug_assertions))]
        let _ = ptr;
    }

    #[inline]
    fn debug_mark_released(&self, ptr: usize) {
        #[cfg(debug_assertions)]
        {
            if ptr != 0 {
                let removed = self
                    .live
                    .lock()
                    .expect("workspace live set poisoned")
                    .remove(&ptr);
                assert!(removed, "returned a buffer the workspace never lent out");
            }
        }
        #[cfg(not(debug_assertions))]
        let _ = ptr;
    }

    /// Borrows a zero-filled complex buffer of `len` elements.
    pub fn borrow_c64(&self, len: usize) -> BorrowedC64<'_> {
        let (buf, hit) = self.c64.take(len);
        self.note(
            hit,
            (len * size_of::<Complex64>()) as u64,
            if len == 0 { 0 } else { buf.as_ptr() as usize },
        );
        BorrowedC64 { ws: self, buf }
    }

    /// Takes a zero-filled complex buffer of `len` elements out of the
    /// arena as a raw `Vec` — the non-RAII form of [`Self::borrow_c64`]
    /// for callers that must move the storage into another type (e.g.
    /// matrix wrappers around pooled storage). Must be paired with
    /// [`Self::give_c64`]; debug builds panic on double-return.
    pub fn take_c64(&self, len: usize) -> Vec<Complex64> {
        let (buf, hit) = self.c64.take(len);
        self.note(
            hit,
            (len * size_of::<Complex64>()) as u64,
            if len == 0 { 0 } else { buf.as_ptr() as usize },
        );
        buf
    }

    /// Returns a buffer previously obtained with [`Self::take_c64`] to the
    /// arena.
    pub fn give_c64(&self, buf: Vec<Complex64>) {
        let ptr = if buf.capacity() == 0 {
            0
        } else {
            buf.as_ptr() as usize
        };
        self.debug_mark_released(ptr);
        if buf.capacity() > 0 {
            self.c64.put(buf);
        }
    }

    /// Takes a zero-filled real buffer of `len` elements out of the arena
    /// as a raw `Vec` — the real-valued analogue of [`Self::take_c64`].
    /// Must be paired with [`Self::give_f64`]; debug builds panic on
    /// double-return.
    pub fn take_f64(&self, len: usize) -> Vec<f64> {
        let (buf, hit) = self.f64s.take(len);
        self.note(
            hit,
            (len * size_of::<f64>()) as u64,
            if len == 0 { 0 } else { buf.as_ptr() as usize },
        );
        buf
    }

    /// Returns a buffer previously obtained with [`Self::take_f64`] to the
    /// arena.
    pub fn give_f64(&self, buf: Vec<f64>) {
        let ptr = if buf.capacity() == 0 {
            0
        } else {
            buf.as_ptr() as usize
        };
        self.debug_mark_released(ptr);
        if buf.capacity() > 0 {
            self.f64s.put(buf);
        }
    }

    /// Borrows a zero-filled real buffer of `len` elements.
    pub fn borrow_f64(&self, len: usize) -> BorrowedF64<'_> {
        let (buf, hit) = self.f64s.take(len);
        self.note(
            hit,
            (len * size_of::<f64>()) as u64,
            if len == 0 { 0 } else { buf.as_ptr() as usize },
        );
        BorrowedF64 { ws: self, buf }
    }
}

macro_rules! borrowed_guard {
    ($name:ident, $elem:ty, $pool:ident, $doc:literal) => {
        #[doc = $doc]
        ///
        /// Dereferences to a mutable slice; the buffer returns to the arena
        /// when the guard drops.
        #[derive(Debug)]
        pub struct $name<'ws> {
            ws: &'ws Workspace,
            buf: Vec<$elem>,
        }

        impl std::ops::Deref for $name<'_> {
            type Target = [$elem];
            fn deref(&self) -> &[$elem] {
                &self.buf
            }
        }

        impl std::ops::DerefMut for $name<'_> {
            fn deref_mut(&mut self) -> &mut [$elem] {
                &mut self.buf
            }
        }

        impl Drop for $name<'_> {
            fn drop(&mut self) {
                let buf = std::mem::take(&mut self.buf);
                let ptr = if buf.capacity() == 0 {
                    0
                } else {
                    buf.as_ptr() as usize
                };
                self.ws.debug_mark_released(ptr);
                if buf.capacity() > 0 {
                    self.ws.$pool.put(buf);
                }
            }
        }
    };
}

borrowed_guard!(
    BorrowedC64,
    Complex64,
    c64,
    "RAII guard over a borrowed complex scratch buffer."
);
borrowed_guard!(
    BorrowedF64,
    f64,
    f64s,
    "RAII guard over a borrowed real scratch buffer."
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_borrow_misses_second_hits() {
        let ws = Workspace::new();
        let before = ws.stats().snapshot();
        {
            let b = ws.borrow_c64(64);
            assert_eq!(b.len(), 64);
            assert!(b.iter().all(|z| z.re == 0.0 && z.im == 0.0));
        }
        let mid = ws.stats().snapshot().since(&before);
        assert_eq!(mid.misses, 1);
        assert_eq!(mid.hits, 0);
        assert_eq!(mid.miss_bytes, 64 * size_of::<Complex64>() as u64);
        {
            let _b = ws.borrow_c64(64);
        }
        let after = ws.stats().snapshot().since(&before);
        assert_eq!(after.misses, 1, "second borrow reuses the buffer");
        assert_eq!(after.hits, 1);
    }

    #[test]
    fn reuse_returns_the_same_allocation() {
        let ws = Workspace::new();
        let ptr1 = {
            let b = ws.borrow_f64(100);
            b.as_ptr() as usize
        };
        let ptr2 = {
            let b = ws.borrow_f64(100);
            b.as_ptr() as usize
        };
        assert_eq!(ptr1, ptr2);
    }

    #[test]
    fn live_borrows_never_alias() {
        let ws = Workspace::new();
        let a = ws.borrow_c64(32);
        let b = ws.borrow_c64(32);
        let c = ws.borrow_c64(32);
        assert_ne!(a.as_ptr(), b.as_ptr());
        assert_ne!(a.as_ptr(), c.as_ptr());
        assert_ne!(b.as_ptr(), c.as_ptr());
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_capacity() {
        let ws = Workspace::new();
        let (small, large) = {
            let s = ws.borrow_f64(16);
            let l = ws.borrow_f64(1024);
            (s.as_ptr() as usize, l.as_ptr() as usize)
        };
        // Asking for 16 must reuse the 16-capacity buffer, not shrink the
        // 1024 one.
        let b = ws.borrow_f64(16);
        assert_eq!(b.as_ptr() as usize, small);
        drop(b);
        let b = ws.borrow_f64(512);
        assert_eq!(b.as_ptr() as usize, large, "larger ask fits the big slot");
    }

    #[test]
    fn buffers_are_zeroed_on_reuse() {
        let ws = Workspace::new();
        {
            let mut b = ws.borrow_c64(8);
            for z in b.iter_mut() {
                *z = Complex64::new(3.0, -4.0);
            }
        }
        let b = ws.borrow_c64(8);
        assert!(b.iter().all(|z| z.re == 0.0 && z.im == 0.0));
    }

    #[test]
    fn reserve_prepopulates_without_miss() {
        let ws = Workspace::new();
        ws.reserve_c64(128, 3);
        let before = ws.stats().snapshot();
        let a = ws.borrow_c64(128);
        let b = ws.borrow_c64(128);
        let c = ws.borrow_c64(128);
        let d = ws.stats().snapshot().since(&before);
        assert_eq!(d.hits, 3);
        assert_eq!(d.misses, 0);
        drop((a, b, c));
    }

    #[test]
    fn global_stats_mirror_workspace_traffic() {
        let ws = Workspace::new();
        let before = global_stats().snapshot();
        {
            let _b = ws.borrow_f64(10);
        }
        {
            let _b = ws.borrow_f64(10);
        }
        let d = global_stats().snapshot().since(&before);
        assert!(d.misses >= 1 && d.hits >= 1);
    }

    #[test]
    fn take_give_round_trip_reuses_storage() {
        let ws = Workspace::new();
        let before = ws.stats().snapshot();
        let v = ws.take_c64(48);
        let ptr = v.as_ptr() as usize;
        ws.give_c64(v);
        let v2 = ws.take_c64(48);
        assert_eq!(v2.as_ptr() as usize, ptr);
        let d = ws.stats().snapshot().since(&before);
        assert_eq!(d.misses, 1);
        assert_eq!(d.hits, 1);
        ws.give_c64(v2);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "aliased live buffer")]
    fn debug_guard_catches_aliased_handout() {
        let ws = Workspace::new();
        let b = ws.borrow_c64(4);
        // Simulate pool corruption: force the arena to hand out a pointer
        // that is already live. The debug live-set must refuse.
        ws.debug_mark_live(b.as_ptr() as usize);
    }
}
