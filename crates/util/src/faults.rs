//! Deterministic fault-injection plane.
//!
//! Production QMD runs at Blue Gene/Q scale only complete because the code
//! survives transient failures — poisoned densities, eigensolver
//! breakdowns, node and link faults, straggler ranks. This module supplies
//! the *injection* half of that story: a process-wide [`FaultPlan`] of
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
//! `mqmd-core`'s SCF loop, worker supervision and job retries in
//! `mqmd-serve`, rerouting in the machine model); it reports back here
//! through [`record_recovery`] / [`record_abort`] so campaigns can account
//! injected vs recovered vs aborted faults and their recomputation cost.
//! Those counters are exported into the `mqmd-profile-v4` recovery block.

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
    /// A node of the simulated machine is lost.
    NodeLoss {
        /// Flat node index in the torus.
        node: u32,
    },
    /// A torus link dimension runs at degraded bandwidth.
    DegradedLink {
        /// Torus dimension of the degraded links.
        dim: u32,
        /// Remaining bandwidth fraction in `(0, 1)`.
        factor: f64,
    },
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
            FaultKind::NodeLoss { .. } => "node_loss",
            FaultKind::DegradedLink { .. } => "degraded_link",
            FaultKind::Straggler { .. } => "straggler",
            FaultKind::WorkerKill => "worker_kill",
        }
    }

    /// Whether the fault is a static property of the simulated machine
    /// (queried via [`machine_faults`]) rather than an event at a polled
    /// site.
    pub fn is_machine(&self) -> bool {
        matches!(
            self,
            FaultKind::NodeLoss { .. } | FaultKind::DegradedLink { .. }
        )
    }
}

/// Where a fault strikes. Event faults fire on the `at`-th [`poll`] of
/// their site; machine faults ([`FaultKind::is_machine`]) are static
/// environment state returned by [`machine_faults`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Site {
    /// A per-domain Kohn–Sham solve; occurrences count that domain's
    /// solves, so the address is stable under rayon scheduling.
    Domain(u64),
    /// An executor rank; occurrences count that rank's spawns.
    Rank(u64),
    /// The simulated machine (torus/links); not polled, queried.
    Machine,
}

impl Site {
    /// Human-readable site label for events.
    pub fn describe(&self) -> String {
        match self {
            Site::Domain(d) => format!("domain {d}"),
            Site::Rank(r) => format!("rank {r}"),
            Site::Machine => "machine".to_string(),
        }
    }
}

/// One planned fault: `kind` strikes on the `at`-th poll of `site`
/// (1-based). `at` is ignored for machine faults.
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
    /// Torus node count eligible for node loss.
    pub nodes: u64,
    /// Torus dimensionality eligible for link degradation.
    pub torus_dims: u32,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        Self {
            domains: vec![0],
            max_occurrence: 16,
            ranks: 4,
            nodes: 32,
            torus_dims: 5,
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
    /// yields an identical plan, so campaigns replay bitwise. Event faults
    /// on one site are at least three occurrences apart: a failed domain
    /// solve is retried at most twice, and a fault that struck a retry
    /// would share the rung that answers the fault before it.
    ///
    /// Besides faults on any listed domain, two classes strike the first
    /// listed domain, which every decomposition has: with one domain it is
    /// the whole cell, so these are the faults of a conventional solve.
    pub fn generate(seed: u64, n: usize, spec: &CampaignSpec) -> Self {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut plan = Self::new();
        while plan.faults.len() < n {
            let at = 1 + rng.below(spec.max_occurrence.max(1));
            let first = Site::Domain(spec.domains[0]);
            let domain = spec.domains[rng.below(spec.domains.len().max(1) as u64) as usize];
            let (kind, site, at) = match rng.below(7) {
                0 => (FaultKind::DensityNan, first, at),
                1 => (FaultKind::DavidsonDiverge, first, at),
                2 => (FaultKind::DavidsonDiverge, Site::Domain(domain), at),
                3 => (FaultKind::DensityNan, Site::Domain(domain), at),
                4 => (
                    FaultKind::Straggler {
                        delay_us: 200 + rng.below(800),
                    },
                    Site::Rank(rng.below(spec.ranks.max(1))),
                    1,
                ),
                5 => (
                    FaultKind::NodeLoss {
                        node: rng.below(spec.nodes.max(1)) as u32,
                    },
                    Site::Machine,
                    0,
                ),
                _ => (
                    FaultKind::DegradedLink {
                        dim: rng.below(spec.torus_dims.max(1) as u64) as u32,
                        factor: rng.uniform_in(0.25, 0.75),
                    },
                    Site::Machine,
                    0,
                ),
            };
            let crowded = plan
                .faults
                .iter()
                .any(|f| f.site == site && f.at.abs_diff(at) < 3);
            if kind.is_machine() || !crowded {
                plan.push(kind, site, at);
            }
        }
        plan
    }

    /// The machine-class faults in this plan, aggregated.
    pub fn machine_faults(&self) -> MachineFaults {
        let mut mf = MachineFaults::default();
        for f in &self.faults {
            match f.kind {
                FaultKind::NodeLoss { node } => mf.lost_nodes.push(node),
                FaultKind::DegradedLink { dim, factor } => mf.degraded_links.push((dim, factor)),
                _ => {}
            }
        }
        mf
    }
}

/// Aggregated static machine faults from the active plan.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MachineFaults {
    /// Flat indices of lost torus nodes.
    pub lost_nodes: Vec<u32>,
    /// `(dimension, remaining bandwidth fraction)` of degraded links.
    pub degraded_links: Vec<(u32, f64)>,
}

impl MachineFaults {
    /// No faults at all.
    pub fn is_healthy(&self) -> bool {
        self.lost_nodes.is_empty() && self.degraded_links.is_empty()
    }

    /// Worst remaining bandwidth fraction across degraded links (1.0 when
    /// healthy).
    pub fn worst_degrade(&self) -> f64 {
        self.degraded_links
            .iter()
            .map(|&(_, f)| f)
            .fold(1.0, f64::min)
            .clamp(1e-3, 1.0)
    }

    /// Extra hops dimension-order routing pays detouring around lost
    /// nodes (2 per loss: one sidestep out of the straight route and one
    /// back).
    pub fn extra_hops(&self) -> usize {
        2 * self.lost_nodes.len()
    }
}

// ---------------------------------------------------------------------------
// Global plan state
// ---------------------------------------------------------------------------

static ACTIVE: AtomicBool = AtomicBool::new(false);

struct PlanState {
    /// Event faults with a fired flag.
    pending: Vec<(Fault, bool)>,
    /// Static machine faults, counted as injected on first query.
    machine: MachineFaults,
    machine_counted: bool,
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
    let machine = p.machine_faults();
    let pending = p
        .faults
        .into_iter()
        .filter(|f| !f.kind.is_machine())
        .map(|f| (f, false))
        .collect();
    *lock_plan() = Some(PlanState {
        pending,
        machine,
        machine_counted: false,
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

/// The active plan's static machine faults (healthy when the plane is
/// idle). The first query counts each machine fault as injected.
pub fn machine_faults() -> MachineFaults {
    if !active() {
        return MachineFaults::default();
    }
    let (mf, newly_counted) = {
        let mut guard = lock_plan();
        match guard.as_mut() {
            Some(st) => {
                let newly = !st.machine_counted && !st.machine.is_healthy();
                st.machine_counted = true;
                (st.machine.clone(), newly)
            }
            None => (MachineFaults::default(), false),
        }
    };
    if newly_counted {
        for &node in &mf.lost_nodes {
            let kind = FaultKind::NodeLoss { node };
            note_injected(kind);
            events::emit(Event::FaultInjected {
                fault: kind.label(),
                site: Site::Machine.describe(),
                at: 0,
            });
        }
        for &(dim, factor) in &mf.degraded_links {
            let kind = FaultKind::DegradedLink { dim, factor };
            note_injected(kind);
            events::emit(Event::FaultInjected {
                fault: kind.label(),
                site: Site::Machine.describe(),
                at: 0,
            });
        }
    }
    mf
}

// ---------------------------------------------------------------------------
// Recovery accounting
// ---------------------------------------------------------------------------

/// Campaign counters: injections by class, recoveries by rung, aborts,
/// and the wall-clock recomputation cost recovery paid. Exported into the
/// `mqmd-profile-v4` recovery block.
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
        assert!(machine_faults().is_healthy());
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
        let a = FaultPlan::generate(42, 8, &spec);
        let b = FaultPlan::generate(42, 8, &spec);
        assert_eq!(a, b);
        let c = FaultPlan::generate(43, 8, &spec);
        assert_ne!(a, c);
        assert_eq!(a.faults.len(), 8);

        // Dense enough that draws collide: event faults on one site stay
        // three occurrences apart.
        let dense = FaultPlan::generate(7, 40, &spec);
        assert_eq!(dense.faults.len(), 40);
        let events: Vec<_> = dense
            .faults
            .iter()
            .filter(|f| !f.kind.is_machine())
            .collect();
        for (i, f) in events.iter().enumerate() {
            assert!(events[..i]
                .iter()
                .all(|g| g.site != f.site || g.at.abs_diff(f.at) >= 3));
        }
    }

    #[test]
    fn machine_faults_aggregate_and_count_once() {
        let _g = gate();
        reset_stats();
        let mut p = FaultPlan::new();
        p.push(FaultKind::NodeLoss { node: 7 }, Site::Machine, 0);
        p.push(
            FaultKind::DegradedLink {
                dim: 1,
                factor: 0.5,
            },
            Site::Machine,
            0,
        );
        install(p);
        let mf = machine_faults();
        assert_eq!(mf.lost_nodes, vec![7]);
        assert_eq!(mf.worst_degrade(), 0.5);
        assert_eq!(mf.extra_hops(), 2);
        let _ = machine_faults(); // second query must not recount
        assert_eq!(stats().injected, 2);
        clear();
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
