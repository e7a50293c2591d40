//! The persistent executor behind every `par_*` call.
//!
//! A caller that wants `k` helpers writes a [`Job`] descriptor on its own
//! stack, publishes a pointer to it in one of a fixed table of [`Slot`]s,
//! and starts claiming chunks from the job's atomic cursor itself. Pool
//! workers — started lazily, never more than the widest request seen so
//! far, alive for the rest of the process — find open slots, *attach*,
//! claim chunks from the same cursor, and *detach*. When the cursor is
//! exhausted the caller *closes* the slot, waits until every attached
//! worker has detached, and only then returns.
//!
//! One word per slot carries the whole protocol (see [`OWNED`],
//! [`ATTACH`], [`TICKET`]): a worker can attach only by a compare-exchange
//! that observes tickets left, and closing clears the tickets in the same
//! word, so after the close no new worker can reach the job and the caller
//! knows exactly whom it is waiting for. That is the argument for erasing
//! the closure's lifetime, and for the absence of deadlock: the caller
//! never waits for a worker to *start* — a job nobody attaches to finishes
//! on its caller alone — only for workers that already attached, and an
//! attached worker needs nothing but CPU time to detach.
//!
//! Idle workers spin briefly on the publish [`EPOCH`], then park on a
//! condition variable. Dispatch allocates nothing: the job lives on the
//! caller's stack and the slots are static.

use mqmd_util::events::LaneGuard;
use mqmd_util::trace::ContextGuard;
use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Jobs that can be published at once. A caller that finds every slot
/// taken runs its job alone, so this bounds nothing but how many
/// concurrent callers can get help.
const SLOTS: usize = 64;

/// Most pool workers ever started (and most helpers one job can ask for);
/// also what the 15-bit fields of the slot word can count.
const MAX_WORKERS: usize = 255;

/// Slot word, bit 0: a caller owns the slot.
const OWNED: usize = 1;
/// Slot word, bits 1..16: workers attached to the job.
const ATTACH: usize = 1 << 1;
/// Slot word, bits 16..31: helpers the job still wants. Non-zero means
/// the slot is open; the owner closes it by clearing this field.
const TICKET: usize = 1 << 16;
const TICKET_MASK: usize = 0x7fff << 16;

/// Polls of the publish epoch an idle worker makes before it parks, and
/// polls of the slot word a caller makes before it sleeps on the slot's
/// condition variable. At 10–40 ns a poll this is tens of microseconds:
/// long enough to catch the next call of a kernel that issues them back
/// to back, short enough that a worker idling through a serial phase
/// costs nothing measurable.
const SPINS: usize = 2_000;

/// A parallel call in flight, on its caller's stack.
struct Job {
    /// Runs the caller's closure over `lo..hi`.
    run: unsafe fn(*const (), usize, usize),
    /// The closure, type-erased.
    data: *const (),
    n: usize,
    chunk: usize,
    /// Next unclaimed index.
    next: AtomicUsize,
    /// Trace span open at the call site.
    ctx: usize,
    /// First panic payload caught on a worker.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `data` points at an `F: Fn(usize) + Sync` (see `run`), so calling
// it through a shared reference from several threads is what `Sync`
// permits; every other field is an atomic, a mutex or plain data that is
// never written after publication.
unsafe impl Sync for Job {}

impl Job {
    /// Claims chunks off the cursor and runs them until none are left.
    fn work(&self) {
        loop {
            let lo = self.next.fetch_add(self.chunk, Ordering::Relaxed);
            if lo >= self.n {
                return;
            }
            let hi = lo.saturating_add(self.chunk).min(self.n);
            // SAFETY: `data` is the closure `run` was instantiated for, and
            // it is alive: the caller is inside `run`, and a worker is
            // attached (see `help`).
            unsafe { (self.run)(self.data, lo, hi) };
        }
    }

    /// Stops the hand-out of further chunks.
    fn cancel(&self) {
        self.next.store(self.n, Ordering::Relaxed);
    }
}

/// One publication point. Padded to a cache line of its own so that
/// concurrent callers do not share one.
#[repr(align(64))]
struct Slot {
    state: AtomicUsize,
    job: AtomicPtr<Job>,
    /// The owner sleeps here once closed; the last worker out notifies.
    idle_lock: Mutex<()>,
    idle: Condvar,
}

static TABLE: [Slot; SLOTS] = [const {
    Slot {
        state: AtomicUsize::new(0),
        job: AtomicPtr::new(std::ptr::null_mut()),
        idle_lock: Mutex::new(()),
        idle: Condvar::new(),
    }
}; SLOTS];

/// Bumped once per published job; idle workers watch it.
static EPOCH: AtomicUsize = AtomicUsize::new(0);
/// Pool workers started so far.
static WORKERS: AtomicUsize = AtomicUsize::new(0);
static SPAWN_LOCK: Mutex<()> = Mutex::new(());
/// Workers parked (or about to park) on `WAKE`.
static SLEEPERS: AtomicUsize = AtomicUsize::new(0);
static SLEEP_LOCK: Mutex<()> = Mutex::new(());
static WAKE: Condvar = Condvar::new();

thread_local! {
    /// True on a pool worker, and on a caller while its job runs: the
    /// one-level rule makes every `par_*` call from such a thread inline.
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
    /// Jobs this thread has published.
    static DISPATCHES: Cell<u64> = const { Cell::new(0) };
}

/// The mutexes here guard `()`: a poisoned one protects nothing that
/// could be left half-updated.
fn lock(m: &Mutex<()>) -> MutexGuard<'_, ()> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn in_parallel() -> bool {
    IN_PARALLEL.with(Cell::get)
}

/// Jobs the calling thread has handed to the pool (calls that ran inline do
/// not count). Lets a test assert that the shape it pins really took the
/// threaded path.
pub fn dispatches() -> u64 {
    DISPATCHES.with(Cell::get)
}

/// Pool workers started so far in this process.
pub fn workers() -> usize {
    WORKERS.load(Ordering::Relaxed)
}

/// Runs `f(0), …, f(n-1)` in chunks of `chunk` on the calling thread and up
/// to `helpers` pool workers. Returns when every index has run; re-raises
/// the first panic a worker caught. Must not be called from inside a
/// parallel region (the caller checks [`in_parallel`]).
pub(crate) fn run<F: Fn(usize) + Sync>(n: usize, chunk: usize, helpers: usize, f: &F) {
    unsafe fn call<F: Fn(usize)>(data: *const (), lo: usize, hi: usize) {
        // SAFETY: `data` was made from an `&F` below.
        let f = unsafe { &*data.cast::<F>() };
        for i in lo..hi {
            f(i);
        }
    }
    let job = Job {
        run: call::<F>,
        data: (f as *const F).cast(),
        n,
        chunk: chunk.max(1),
        next: AtomicUsize::new(0),
        ctx: mqmd_util::trace::current_ctx(),
        panic: Mutex::new(None),
    };
    {
        let _region = Region::enter();
        // Dropped (closed, drained and unpublished) before `job` and `f`
        // go out of scope, also when the caller's own chunk panics.
        let _published = Published::new(&job, helpers);
        job.work();
    }
    let payload = job
        .panic
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(p) = payload {
        resume_unwind(p);
    }
}

/// Marks the calling thread as inside a parallel region.
struct Region;

impl Region {
    fn enter() -> Self {
        IN_PARALLEL.with(|p| p.set(true));
        Region
    }
}

impl Drop for Region {
    fn drop(&mut self) {
        // `run` is never entered from inside a region, so the flag was false.
        IN_PARALLEL.with(|p| p.set(false));
    }
}

/// A job while workers can reach it.
struct Published<'a> {
    slot: &'static Slot,
    job: &'a Job,
}

impl<'a> Published<'a> {
    /// Publishes `job` for up to `helpers` workers, or returns `None` — the
    /// caller then runs the job alone — when no worker could be started or
    /// every slot is taken.
    fn new(job: &'a Job, helpers: usize) -> Option<Self> {
        let helpers = helpers.min(ensure_workers(helpers));
        if helpers == 0 {
            return None;
        }
        let slot = TABLE.iter().find(|s| {
            s.state
                .compare_exchange(0, OWNED, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        })?;
        slot.job
            .store(std::ptr::from_ref(job).cast_mut(), Ordering::Relaxed);
        // Release: a worker whose attach reads this word sees `job`.
        slot.state
            .store(OWNED | (helpers * TICKET), Ordering::Release);
        DISPATCHES.with(|d| d.set(d.get() + 1));
        // SeqCst pairs with the sleeper's increment-then-recheck in `idle`:
        // either it sees the new epoch or we see it in SLEEPERS.
        EPOCH.fetch_add(1, Ordering::SeqCst);
        let asleep = SLEEPERS.load(Ordering::SeqCst);
        if asleep > 0 {
            // Under the lock, so that a worker between its recheck and its
            // wait cannot miss the notification.
            let _g = lock(&SLEEP_LOCK);
            if helpers >= asleep {
                WAKE.notify_all();
            } else {
                (0..helpers).for_each(|_| WAKE.notify_one());
            }
        }
        Some(Self { slot, job })
    }
}

impl Drop for Published<'_> {
    fn drop(&mut self) {
        // Only matters when the caller unwinds with chunks still unclaimed.
        self.job.cancel();
        let state = &self.slot.state;
        // Close: no worker can attach from here on.
        let mut s = state.fetch_and(!TICKET_MASK, Ordering::AcqRel) & !TICKET_MASK;
        // Acquire pairs with the Release of each detach: what the workers
        // wrote is visible once the word reads OWNED.
        for _ in 0..SPINS {
            if s == OWNED {
                break;
            }
            std::hint::spin_loop();
            s = state.load(Ordering::Acquire);
        }
        if s != OWNED {
            let mut g = lock(&self.slot.idle_lock);
            while state.load(Ordering::Acquire) != OWNED {
                g = self
                    .slot
                    .idle
                    .wait(g)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        state.store(0, Ordering::Release);
    }
}

/// Starts workers until `want` exist (or the cap, or the OS refuses);
/// returns how many there are.
fn ensure_workers(want: usize) -> usize {
    let have = WORKERS.load(Ordering::Relaxed);
    if have >= want {
        return have;
    }
    let _g = lock(&SPAWN_LOCK);
    let mut have = WORKERS.load(Ordering::Relaxed);
    while have < want.min(MAX_WORKERS) {
        // Detached on purpose: the pool lives as long as the process, and
        // no panic is hidden, since `help` catches every one and hands it
        // to the job's caller.
        let spawned = std::thread::Builder::new()
            .name(format!("rayon-shim-{have}"))
            .spawn(worker_main);
        if spawned.is_err() {
            break;
        }
        have += 1;
        WORKERS.store(have, Ordering::Relaxed);
    }
    have
}

fn worker_main() {
    // One telemetry lane for the life of the thread.
    let _lane = LaneGuard::worker();
    IN_PARALLEL.with(|p| p.set(true));
    loop {
        // Read before the scan, so that a job published during it is not
        // slept through.
        let epoch = EPOCH.load(Ordering::SeqCst);
        if !help_any() {
            idle(epoch);
        }
    }
}

/// Helps every open job once; false if there was none.
fn help_any() -> bool {
    let mut helped = false;
    for slot in &TABLE {
        let mut s = slot.state.load(Ordering::Relaxed);
        while s & TICKET_MASK != 0 {
            // Acquire pairs with the owner's Release store of the open word
            // (attaches by other workers continue its release sequence).
            match slot.state.compare_exchange_weak(
                s,
                s - TICKET + ATTACH,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    help(slot);
                    helped = true;
                    break;
                }
                Err(cur) => s = cur,
            }
        }
    }
    helped
}

/// Works on the job of a slot this worker has just attached to, then
/// detaches.
fn help(slot: &Slot) {
    // SAFETY: the attach observed tickets left, so the slot was open and
    // `job` is the pointer its owner stored before opening it. The owner
    // unpublishes, and lets the `Job` and the closure behind it die, only
    // after the word reads OWNED again, which our attach count prevents
    // until the detach below; the job is not touched after that.
    let job = unsafe { &*slot.job.load(Ordering::Relaxed) };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let _ctx = ContextGuard::enter(job.ctx);
        job.work();
    }));
    if let Err(payload) = outcome {
        job.cancel();
        let mut first = job.panic.lock().unwrap_or_else(PoisonError::into_inner);
        first.get_or_insert(payload);
    }
    // Release: the owner's Acquire load of OWNED sees this worker's writes.
    let left = slot.state.fetch_sub(ATTACH, Ordering::Release) - ATTACH;
    if left == OWNED {
        // Last one out with no ticket left: the owner may be asleep on the
        // slot. Taking the lock orders this after its check-then-wait. The
        // slot is static, so a late notify can at worst wake the next
        // owner, which rechecks its own word.
        let _g = lock(&slot.idle_lock);
        slot.idle.notify_one();
    }
}

/// Waits for a job to be published after `seen`: a short spin, then a park.
fn idle(seen: usize) {
    for _ in 0..SPINS {
        if EPOCH.load(Ordering::Relaxed) != seen {
            return;
        }
        std::hint::spin_loop();
    }
    let mut g = lock(&SLEEP_LOCK);
    SLEEPERS.fetch_add(1, Ordering::SeqCst);
    while EPOCH.load(Ordering::SeqCst) == seen {
        g = WAKE.wait(g).unwrap_or_else(PoisonError::into_inner);
    }
    SLEEPERS.fetch_sub(1, Ordering::SeqCst);
}
