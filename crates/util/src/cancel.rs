//! Cooperative cancellation plane for the service runtime.
//!
//! A multi-tenant job runtime needs three ways to stop a solve that is
//! already running: a wall-clock **deadline** expired, a higher-priority
//! job wants the worker (**preempt**), or the runtime is shutting down
//! (**shutdown**). All three are cooperative — the solver polls at
//! well-defined points instead of being killed, so state is never torn:
//!
//! * **SCF-iteration granularity** — [`poll_abort`] sits at the top of
//!   each iteration of the SCF loop. Deadline and shutdown abort there
//!   with a typed [`MqmdError::Cancelled`](crate::MqmdError::Cancelled);
//!   the solve is abandoned mid-job, which is fine because the job is
//!   failed (or retried from its last checkpoint).
//! * **MD-step granularity** — preemption is *not* honoured inside an SCF
//!   solve. The job loop reads [`CancelToken::status`] only at step
//!   boundaries, checkpoints, and yields — so a preempted job resumes
//!   bitwise-identically from its checkpoint.
//!
//! Design constraints mirror [`crate::faults`] and [`crate::events`]:
//!
//! * **Inert when idle** — [`poll_abort`] costs one relaxed atomic load
//!   when no token is installed anywhere in the process. Library users who
//!   never run the service pay nothing in the SCF hot loop.
//! * **No signature churn** — the token reaches the SCF loop through a
//!   thread-local installed by the RAII [`CancelScope`] (the same pattern
//!   as [`crate::events::LaneGuard`]), so `LdcSolver::solve` keeps its
//!   signature. Workers run one job per thread, which makes the
//!   thread-local the natural carrier.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a job was cancelled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelReason {
    /// The job's wall-clock budget expired.
    Deadline,
    /// A higher-priority job preempted this one (resume from checkpoint).
    Preempt,
    /// The runtime is shutting down.
    Shutdown,
}

impl CancelReason {
    /// Stable label for events and ledgers.
    pub fn label(&self) -> &'static str {
        match self {
            CancelReason::Deadline => "deadline",
            CancelReason::Preempt => "preempt",
            CancelReason::Shutdown => "shutdown",
        }
    }
}

const STATE_LIVE: u8 = 0;
const STATE_DEADLINE: u8 = 1;
const STATE_PREEMPT: u8 = 2;
const STATE_SHUTDOWN: u8 = 3;

/// No wall budget.
const BUDGET_NONE: u64 = u64::MAX;

struct Inner {
    /// `STATE_*` — once non-live, latched (except preempt, which loses to
    /// deadline/shutdown if those fire later: an abort outranks a pause).
    state: AtomicU8,
    /// Token creation time; the budget is measured from here.
    start: Instant,
    /// Wall budget in nanoseconds from `start`; `BUDGET_NONE` disables.
    budget_ns: AtomicU64,
}

/// A shared cancellation handle: the runtime holds one clone to signal,
/// the worker installs another for the solver loops to poll.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    /// A live token with no deadline.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Inner {
                state: AtomicU8::new(STATE_LIVE),
                start: Instant::now(),
                budget_ns: AtomicU64::new(BUDGET_NONE),
            }),
        }
    }

    /// (Re)arms the wall-clock budget, measured from token creation.
    pub fn set_budget(&self, budget: Duration) {
        let ns = u64::try_from(budget.as_nanos()).unwrap_or(BUDGET_NONE - 1);
        self.inner.budget_ns.store(ns, Ordering::Relaxed);
    }

    /// Signals cancellation. Deadline/shutdown latch over an earlier
    /// preempt (an abort outranks a pause); nothing downgrades an abort.
    pub fn cancel(&self, reason: CancelReason) {
        let new = match reason {
            CancelReason::Deadline => STATE_DEADLINE,
            CancelReason::Preempt => STATE_PREEMPT,
            CancelReason::Shutdown => STATE_SHUTDOWN,
        };
        // Only upgrade: live -> anything, preempt -> deadline/shutdown.
        let _ = self
            .inner
            .state
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
                if cur == STATE_LIVE || (cur == STATE_PREEMPT && new != STATE_PREEMPT) {
                    Some(new)
                } else {
                    None
                }
            });
    }

    /// Current cancellation status, checking the wall budget lazily: the
    /// first status query past the deadline latches
    /// [`CancelReason::Deadline`].
    pub fn status(&self) -> Option<CancelReason> {
        match self.inner.state.load(Ordering::Acquire) {
            STATE_DEADLINE => return Some(CancelReason::Deadline),
            STATE_SHUTDOWN => return Some(CancelReason::Shutdown),
            STATE_PREEMPT => return Some(CancelReason::Preempt),
            _ => {}
        }
        let budget = self.inner.budget_ns.load(Ordering::Relaxed);
        if budget != BUDGET_NONE && self.inner.start.elapsed() >= Duration::from_nanos(budget) {
            self.cancel(CancelReason::Deadline);
            return Some(CancelReason::Deadline);
        }
        None
    }

    /// Whether the solve must abort *now* (deadline or shutdown). Preempt
    /// does not abort a solve — it is honoured at step boundaries only.
    fn abort_reason(&self) -> Option<CancelReason> {
        match self.status() {
            Some(CancelReason::Preempt) | None => None,
            abort => abort,
        }
    }
}

// ---------------------------------------------------------------------------
// Thread-local installation
// ---------------------------------------------------------------------------

/// Count of tokens installed across all threads; lets [`poll_abort`] stay
/// one relaxed load when the service plane is idle.
static INSTALLED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static CURRENT: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// RAII guard installing a token as the current thread's cancellation
/// context; the previous token (if any) is restored on drop.
pub struct CancelScope {
    prev: Option<CancelToken>,
}

impl CancelScope {
    /// Installs `token` for the current thread until the guard drops.
    pub fn install(token: CancelToken) -> Self {
        let prev = CURRENT.with(|c| c.borrow_mut().replace(token));
        if prev.is_none() {
            INSTALLED.fetch_add(1, Ordering::AcqRel);
        }
        CancelScope { prev }
    }
}

impl Drop for CancelScope {
    fn drop(&mut self) {
        let restored_some = self.prev.is_some();
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
        if !restored_some {
            INSTALLED.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// The abort status of the current thread's token, if one is installed.
/// One relaxed load when no token is installed anywhere in the process —
/// the only cost the service plane adds to a library-only SCF loop.
#[inline]
pub fn poll_abort() -> Option<CancelReason> {
    if INSTALLED.load(Ordering::Relaxed) == 0 {
        return None;
    }
    poll_abort_slow()
}

fn poll_abort_slow() -> Option<CancelReason> {
    CURRENT.with(|c| c.borrow().as_ref().and_then(|t| t.abort_reason()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_plane_polls_nothing() {
        assert_eq!(poll_abort(), None);
    }

    #[test]
    fn cancel_latches_and_upgrades() {
        let t = CancelToken::new();
        assert_eq!(t.status(), None);
        t.cancel(CancelReason::Preempt);
        assert_eq!(t.status(), Some(CancelReason::Preempt));
        assert_eq!(t.abort_reason(), None, "preempt must not abort a solve");
        // An abort outranks the pending pause…
        t.cancel(CancelReason::Deadline);
        assert_eq!(t.abort_reason(), Some(CancelReason::Deadline));
        // …and nothing downgrades it back.
        t.cancel(CancelReason::Preempt);
        assert_eq!(t.status(), Some(CancelReason::Deadline));
    }

    #[test]
    fn zero_budget_trips_deadline_immediately() {
        let t = CancelToken::new();
        t.set_budget(Duration::from_nanos(0));
        assert_eq!(t.status(), Some(CancelReason::Deadline));
        assert_eq!(t.abort_reason(), Some(CancelReason::Deadline));
    }

    #[test]
    fn generous_budget_stays_live() {
        let t = CancelToken::new();
        t.set_budget(Duration::from_secs(3600));
        assert_eq!(t.status(), None);
    }

    #[test]
    fn scope_installs_and_restores() {
        assert_eq!(poll_abort(), None);
        let outer = CancelToken::new();
        {
            let _g = CancelScope::install(outer.clone());
            assert_eq!(poll_abort(), None);
            outer.cancel(CancelReason::Shutdown);
            assert_eq!(poll_abort(), Some(CancelReason::Shutdown));
            {
                // Nested scope shadows, then restores, the outer token.
                let inner = CancelToken::new();
                let _g2 = CancelScope::install(inner);
                assert_eq!(poll_abort(), None);
            }
            assert_eq!(poll_abort(), Some(CancelReason::Shutdown));
        }
        assert_eq!(poll_abort(), None);
    }

    #[test]
    fn clones_share_state() {
        let a = CancelToken::new();
        let b = a.clone();
        b.cancel(CancelReason::Deadline);
        assert_eq!(a.status(), Some(CancelReason::Deadline));
    }
}
