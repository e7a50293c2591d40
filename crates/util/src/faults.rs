//! Deterministic fault-injection plane.
//!
//! Production QMD runs at Blue Gene/Q scale only complete because the code
//! survives transient failures — poisoned densities, eigensolver
//! breakdowns, straggler and killed ranks. This module supplies the
//! *injection* half of that story: a process-wide [`FaultPlan`] of
//! planned faults, each addressed by **site + occurrence** ("the 3rd solve
//! of domain 2", "the 2nd spawn of rank 1"), generated from a seeded
//! [`Xoshiro256pp`] stream so an entire chaos campaign replays bitwise.
//!
//! Design constraints, mirroring [`crate::events`]:
//!
//! * **Inert when idle** — [`poll`] costs one relaxed atomic load when no
//!   plan is installed; the recovery machinery adds no hot-path cost in
//!   healthy production runs.
//! * **Deterministic under threading** — faults are keyed by a per-site
//!   occurrence counter, not wall-clock or thread identity, so rayon
//!   interleaving cannot change which solve a fault strikes.
//! * **Fire-once** — a fault is consumed when it fires, so a recovery
//!   retry of the same site succeeds instead of looping forever.
//!
//! The *recovery* half lives where the failures do (per-domain retry in
//! `mqmd-core`'s SCF loop, straggler waits in the executor, worker
//! supervision and job retries in `mqmd-serve`, rank respawn in the
//! process backend); it reports back here through [`record_recovery`] /
//! [`record_abort`] so campaigns can account injected vs recovered vs
//! aborted faults and their recomputation cost.
//! `repro_profile` checks that ledger at the end of its run, and the
//! tests `crates/bench/tests/chaos_campaign.rs` and
//! `crates/serve/tests/service.rs` check it after each campaign.

use crate::error::{MqmdError, Result};
use crate::events::{self, Event};
use crate::rng::Xoshiro256pp;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// A fault class the plane can inject.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// Poison a density/wavefunction buffer with NaN.
    DensityNan,
    /// Force a Davidson solve to report non-convergence.
    DavidsonDiverge,
    /// A rank starts late by the given delay (straggler).
    Straggler {
        /// Startup delay in microseconds.
        delay_us: u64,
    },
    /// A service worker thread is killed mid-job (panics); the supervisor
    /// must requeue or fail the job, never lose it. Polled at
    /// [`Site::Rank`] by the serve runtime, not drawn by
    /// [`FaultPlan::generate`] (library chaos campaigns have no workers to
    /// kill).
    WorkerKill,
}

impl FaultKind {
    /// Stable class label used in events and the profile recovery block.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::DensityNan => "density_nan",
            FaultKind::DavidsonDiverge => "davidson_diverge",
            FaultKind::Straggler { .. } => "straggler",
            FaultKind::WorkerKill => "worker_kill",
        }
    }
}

/// Where a fault strikes: a fault fires on the `at`-th [`poll`] of its
/// site.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Site {
    /// A per-domain Kohn–Sham solve; occurrences count that domain's
    /// solves, so the address is stable under rayon scheduling.
    Domain(u64),
    /// An executor rank; occurrences count that rank's spawns.
    Rank(u64),
}

impl Site {
    /// Human-readable site label for events.
    pub fn describe(&self) -> String {
        match self {
            Site::Domain(d) => format!("domain {d}"),
            Site::Rank(r) => format!("rank {r}"),
        }
    }
}

/// One planned fault: `kind` strikes on the `at`-th poll of `site`
/// (1-based).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fault {
    /// What to inject.
    pub kind: FaultKind,
    /// Where.
    pub site: Site,
    /// 1-based occurrence of the site at which the fault fires.
    pub at: u64,
}

/// Shape of the system a campaign targets, bounding where generated
/// faults may land.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    /// Domain ids eligible for per-domain faults.
    pub domains: Vec<u64>,
    /// Upper bound (inclusive) on the domain occurrence index drawn
    /// for event faults; keep within the expected total poll count so
    /// every planned fault actually fires.
    pub max_occurrence: u64,
    /// Executor ranks eligible for straggler faults.
    pub ranks: u64,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        Self {
            domains: vec![0],
            max_occurrence: 16,
            ranks: 4,
        }
    }
}

/// A replayable set of planned faults.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// The planned faults, in generation order.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one fault.
    pub fn push(&mut self, kind: FaultKind, site: Site, at: u64) {
        self.faults.push(Fault { kind, site, at });
    }

    /// Draws `n` faults from a seeded stream. Equal `(seed, n, spec)`
    /// yields an identical plan, so campaigns replay bitwise. Faults on one
    /// site are at least three occurrences apart: a failed domain solve is
    /// retried at most twice, and a fault that struck a retry would share
    /// the rung that answers the fault before it.
    ///
    /// Besides faults on any listed domain, two classes strike the first
    /// listed domain, which every decomposition has: with one domain it is
    /// the whole cell, so these are the faults of a conventional solve.
    ///
    /// A spec that lists no domain, or whose sites fill up before `n`
    /// faults are placed, is an [`MqmdError::Invalid`] naming how many
    /// faults were placed.
    pub fn generate(seed: u64, n: usize, spec: &CampaignSpec) -> Result<Self> {
        let Some(&first) = spec.domains.first() else {
            return Err(MqmdError::Invalid(
                "fault plan: the campaign spec lists no domain".into(),
            ));
        };
        let max_at = spec.max_occurrence.max(1);
        let ranks = spec.ranks.max(1);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut plan = Self::new();
        while plan.faults.len() < n {
            let at = 1 + rng.below(max_at);
            let domain = spec.domains[rng.below(spec.domains.len() as u64) as usize];
            let (kind, site, at) = match rng.below(5) {
                0 => (FaultKind::DensityNan, Site::Domain(first), at),
                1 => (FaultKind::DavidsonDiverge, Site::Domain(first), at),
                2 => (FaultKind::DavidsonDiverge, Site::Domain(domain), at),
                3 => (FaultKind::DensityNan, Site::Domain(domain), at),
                _ => (
                    FaultKind::Straggler {
                        delay_us: 200 + rng.below(800),
                    },
                    Site::Rank(rng.below(ranks)),
                    1,
                ),
            };
            if !plan.crowded(site, at) {
                plan.push(kind, site, at);
                continue;
            }
            // Every site a draw can reach is full: no later draw can land.
            let full = spec
                .domains
                .iter()
                .all(|&d| (1..=max_at).all(|at| plan.crowded(Site::Domain(d), at)))
                && (0..ranks).all(|r| plan.crowded(Site::Rank(r), 1));
            if full {
                return Err(MqmdError::Invalid(format!(
                    "fault plan: placed {} of {n} faults before every site filled \
                     (faults on one site stay three occurrences apart)",
                    plan.faults.len()
                )));
            }
        }
        Ok(plan)
    }

    /// Whether a fault at `at` would land within two occurrences of one
    /// already planned on `site`.
    fn crowded(&self, site: Site, at: u64) -> bool {
        self.faults
            .iter()
            .any(|f| f.site == site && f.at.abs_diff(at) < 3)
    }
}

// ---------------------------------------------------------------------------
// Global plan state
// ---------------------------------------------------------------------------

static ACTIVE: AtomicBool = AtomicBool::new(false);

struct PlanState {
    /// Planned faults with a fired flag.
    pending: Vec<(Fault, bool)>,
    /// Per-site occurrence counters.
    counters: BTreeMap<Site, u64>,
}

fn plan() -> &'static Mutex<Option<PlanState>> {
    static PLAN: OnceLock<Mutex<Option<PlanState>>> = OnceLock::new();
    PLAN.get_or_init(|| Mutex::new(None))
}

/// Poison-safe lock: the plan holds plain counters, so a panicking
/// injectee must not take the fault plane down with it.
fn lock_plan() -> MutexGuard<'static, Option<PlanState>> {
    plan().lock().unwrap_or_else(|e| e.into_inner())
}

/// Installs a plan, activating the plane. Replaces any previous plan and
/// resets occurrence counters (but not the recovery statistics — call
/// [`reset_stats`] between campaigns).
pub fn install(p: FaultPlan) {
    *lock_plan() = Some(PlanState {
        pending: p.faults.into_iter().map(|f| (f, false)).collect(),
        counters: BTreeMap::new(),
    });
    ACTIVE.store(true, Ordering::Release);
}

/// Deactivates the plane and drops the plan.
pub fn clear() {
    ACTIVE.store(false, Ordering::Release);
    *lock_plan() = None;
}

/// Whether a plan is installed. One relaxed load — the only cost the
/// plane adds to a healthy hot path.
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Advances `site`'s occurrence counter and returns the fault planned for
/// this occurrence, if any. Consumes the fault (fire-once) so retries of
/// the same site succeed. A no-op returning `None` when the plane is
/// idle.
#[inline]
pub fn poll(site: Site) -> Option<FaultKind> {
    if !active() {
        return None;
    }
    poll_slow(site)
}

fn poll_slow(site: Site) -> Option<FaultKind> {
    let fired = {
        let mut guard = lock_plan();
        let st = guard.as_mut()?;
        let n = {
            let c = st.counters.entry(site).or_insert(0);
            *c += 1;
            *c
        };
        let hit = st
            .pending
            .iter_mut()
            .find(|(f, fired)| !*fired && f.site == site && f.at == n);
        match hit {
            Some((f, fired)) => {
                *fired = true;
                Some((f.kind, n))
            }
            None => None,
        }
    };
    let (kind, n) = fired?;
    note_injected(kind);
    events::emit(Event::FaultInjected {
        fault: kind.label(),
        site: site.describe(),
        at: n,
    });
    Some(kind)
}

// ---------------------------------------------------------------------------
// Recovery accounting
// ---------------------------------------------------------------------------

/// Campaign counters: injections by class, recoveries by rung, aborts,
/// and the wall-clock recomputation cost recovery paid.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultStats {
    /// Faults injected by the plane.
    pub injected: u64,
    /// Recovery rungs that handled a failure.
    pub recovered: u64,
    /// Failures that exhausted recovery and surfaced as typed errors.
    pub aborted: u64,
    /// Wall seconds spent recomputing/waiting during recovery.
    pub recompute_seconds: f64,
    /// Injection counts per fault class label.
    pub by_kind: BTreeMap<String, u64>,
    /// Recovery counts per rung label.
    pub by_action: BTreeMap<String, u64>,
}

fn stats_cell() -> &'static Mutex<FaultStats> {
    static STATS: OnceLock<Mutex<FaultStats>> = OnceLock::new();
    STATS.get_or_init(|| Mutex::new(FaultStats::default()))
}

fn lock_stats() -> MutexGuard<'static, FaultStats> {
    stats_cell().lock().unwrap_or_else(|e| e.into_inner())
}

fn note_injected(kind: FaultKind) {
    let mut s = lock_stats();
    s.injected += 1;
    *s.by_kind.entry(kind.label().to_string()).or_insert(0) += 1;
}

/// Records one successful recovery rung (always counted, plan or not:
/// genuine failures recover through the same ladders) and emits a
/// [`Event::RecoveryAction`]. `seconds` is the recomputation cost, which
/// accumulates into [`FaultStats::recompute_seconds`].
pub fn record_recovery(action: &'static str, site: String, attempt: u32, seconds: f64) {
    {
        let mut s = lock_stats();
        s.recovered += 1;
        s.recompute_seconds += seconds.max(0.0);
        *s.by_action.entry(action.to_string()).or_insert(0) += 1;
    }
    events::emit(Event::RecoveryAction {
        action,
        site,
        attempt,
        seconds,
    });
}

/// Records a failure that exhausted its recovery ladder and surfaced as a
/// typed error.
pub fn record_abort(action: &'static str, site: String, attempt: u32) {
    {
        let mut s = lock_stats();
        s.aborted += 1;
        *s.by_action.entry(action.to_string()).or_insert(0) += 1;
    }
    events::emit(Event::RecoveryAction {
        action,
        site,
        attempt,
        seconds: 0.0,
    });
}

/// Snapshot of the campaign counters.
pub fn stats() -> FaultStats {
    lock_stats().clone()
}

/// Zeroes the campaign counters (start of a campaign or between legs).
pub fn reset_stats() {
    *lock_stats() = FaultStats::default();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// Serialises tests sharing the global plan/stats.
    fn gate() -> std::sync::MutexGuard<'static, ()> {
        static GATE: StdMutex<()> = StdMutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn idle_plane_polls_nothing() {
        let _g = gate();
        clear();
        assert!(!active());
        assert_eq!(poll(Site::Domain(0)), None);
    }

    #[test]
    fn fault_fires_at_addressed_occurrence_and_once() {
        let _g = gate();
        reset_stats();
        let mut p = FaultPlan::new();
        p.push(FaultKind::DensityNan, Site::Domain(2), 3);
        install(p);
        assert_eq!(poll(Site::Domain(2)), None); // occurrence 1
        assert_eq!(poll(Site::Domain(5)), None); // other site: own counter
        assert_eq!(poll(Site::Domain(2)), None); // occurrence 2
        assert_eq!(poll(Site::Domain(2)), Some(FaultKind::DensityNan)); // 3
        assert_eq!(poll(Site::Domain(2)), None); // consumed
        let s = stats();
        assert_eq!(s.injected, 1);
        assert_eq!(s.by_kind.get("density_nan"), Some(&1));
        clear();
    }

    #[test]
    fn generation_replays_bitwise() {
        let spec = CampaignSpec::default();
        let a = FaultPlan::generate(42, 8, &spec).unwrap();
        let b = FaultPlan::generate(42, 8, &spec).unwrap();
        assert_eq!(a, b);
        let c = FaultPlan::generate(43, 8, &spec).unwrap();
        assert_ne!(a, c);
        assert_eq!(a.faults.len(), 8);

        // Dense enough that draws collide: faults on one site stay three
        // occurrences apart. Nine is as many as seed 7 places on this spec
        // (at most 6 on domain 0 and one straggler per rank).
        const DENSE: usize = 9;
        let dense = FaultPlan::generate(7, DENSE, &spec).unwrap();
        assert_eq!(dense.faults.len(), DENSE);
        for (i, f) in dense.faults.iter().enumerate() {
            assert!(dense.faults[..i]
                .iter()
                .all(|g| g.site != f.site || g.at.abs_diff(f.at) >= 3));
        }
    }

    #[test]
    fn unplaceable_requests_are_typed_errors() {
        let empty = CampaignSpec {
            domains: Vec::new(),
            ..CampaignSpec::default()
        };
        assert!(matches!(
            FaultPlan::generate(42, 1, &empty),
            Err(MqmdError::Invalid(_))
        ));
        // The default spec holds at most 6 faults on domain 0 (occurrences
        // 1..=16, three apart) and one straggler per rank: 40 cannot fit,
        // and the draw loop must say so instead of spinning.
        match FaultPlan::generate(7, 40, &CampaignSpec::default()) {
            Err(MqmdError::Invalid(msg)) => assert!(msg.contains("of 40 faults"), "{msg}"),
            other => panic!("expected a typed error, got {other:?}"),
        }
    }

    #[test]
    fn recovery_accounting_balances() {
        let _g = gate();
        clear();
        reset_stats();
        record_recovery("domain_retry_scratch", "domain 1".into(), 2, 0.5);
        record_recovery("domain_retry_cached", "domain 0".into(), 1, 0.25);
        record_abort("domain_abort", "domain 2".into(), 2);
        let s = stats();
        assert_eq!(s.recovered, 2);
        assert_eq!(s.aborted, 1);
        assert!((s.recompute_seconds - 0.75).abs() < 1e-12);
        assert_eq!(s.by_action.get("domain_retry_cached"), Some(&1));
        reset_stats();
        assert_eq!(stats(), FaultStats::default());
    }
}
