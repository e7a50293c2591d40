//! Bounded, thread-safe structured run-telemetry events.
//!
//! The span tree ([`crate::trace`]) answers "where did the time go" as a
//! *sum*; this module answers "what happened, in order": each SCF
//! iteration's residual trajectory, each QMD step's energy drift, each
//! domain solve, each collective, and every watchdog trip is a typed
//! [`Event`] stamped with a monotonic timestamp, the logical lane
//! (rank/worker thread) that produced it, and the innermost open span.
//!
//! Design constraints, mirroring the tracer:
//!
//! * **Disabled by default and inert** — [`emit`] costs one relaxed atomic
//!   load when recording is off, and no event changes numerical behaviour.
//! * **Bounded** — the sink holds at most its configured capacity; once
//!   full, further events are counted as dropped rather than growing the
//!   buffer without limit mid-run. [`drain`] reports the drop count so a
//!   truncated stream is never mistaken for a complete one.
//! * **Dependency-free JSONL** — [`to_jsonl`] renders records one compact
//!   JSON object per line via the in-tree [`crate::metrics::Json`] writer,
//!   so event logs need no external crates to produce or parse.
//!
//! The Chrome-trace exporter ([`crate::chrometrace`]) consumes the
//! `SpanBegin`/`SpanEnd` records the tracer emits while recording is on
//! and turns them into a Perfetto-loadable timeline, one lane per rank or
//! worker.

use crate::metrics::Json;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Default sink capacity (records). Generous enough for a traced QMD step
/// (spans + iterations), small enough to bound memory on runaway loops.
const DEFAULT_CAPACITY: usize = 1 << 18;

/// A typed telemetry event.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A traced span opened (emitted by [`crate::trace::span`]).
    SpanBegin {
        /// Span name.
        name: &'static str,
    },
    /// A traced span closed.
    SpanEnd {
        /// Span name.
        name: &'static str,
    },
    /// One SCF iteration completed.
    ScfIteration {
        /// 1-based iteration index.
        iter: u32,
        /// Density residual ∫|Δρ|dV / N_e after the iteration.
        residual: f64,
        /// Total free energy at this iteration (Hartree).
        e_total: f64,
        /// Linear-mixing fraction in effect.
        mix: f64,
    },
    /// One QMD step completed.
    QmdStep {
        /// 0-based step index.
        step: u32,
        /// Potential energy (Hartree).
        e_pot: f64,
        /// Kinetic energy (Hartree).
        e_kin: f64,
        /// Relative total-energy drift |E − E₀|/|E₀| since the first step.
        drift: f64,
    },
    /// One per-domain Kohn–Sham solve completed.
    DomainSolve {
        /// Domain id.
        domain: u32,
        /// Bands solved.
        bands: u32,
        /// Davidson iterations used.
        iterations: u32,
        /// Wall seconds.
        seconds: f64,
    },
    /// A collective operation completed.
    CollectiveDone {
        /// Operation name (e.g. `"allreduce_sum"`).
        op: &'static str,
        /// Participating ranks.
        ranks: u32,
        /// Payload bytes per rank.
        bytes: u64,
        /// Wall seconds observed by the reporting rank.
        seconds: f64,
    },
    /// A physics/convergence watchdog fired.
    WatchdogTrip {
        /// Watchdog identifier (e.g. `"energy_drift"`, `"davidson_failure"`).
        watchdog: &'static str,
        /// Human-readable context.
        message: String,
        /// The observed value that tripped the bound.
        value: f64,
        /// The configured bound.
        bound: f64,
    },
    /// The fault plane ([`crate::faults`]) injected a planned fault.
    FaultInjected {
        /// Fault class label (e.g. `"density_nan"`, `"davidson_diverge"`).
        fault: &'static str,
        /// Injection site (e.g. `"domain 3"`, `"rank 2"`).
        site: String,
        /// 1-based poll count at which the fault fired at its site.
        at: u64,
    },
    /// A recovery rung handled a failure (injected or genuine).
    RecoveryAction {
        /// Rung label (e.g. `"domain_retry_cached"`, `"serve_retry_backoff"`).
        action: &'static str,
        /// Site the recovery acted on.
        site: String,
        /// 1-based recovery attempt at this site.
        attempt: u32,
        /// Wall seconds spent on the recovery (recomputation cost).
        seconds: f64,
    },
    /// A service-runtime job changed state (submitted, running, preempted,
    /// retried, completed, failed, rejected…).
    JobState {
        /// Runtime-assigned job id.
        job: u64,
        /// Owning tenant.
        tenant: u32,
        /// New state label (e.g. `"running"`, `"preempted"`, `"rejected"`).
        state: &'static str,
        /// Extra context (rejection reason, error text, retry attempt).
        detail: String,
    },
    /// Queue-depth gauge after a scheduler transition (backpressure feed).
    QueueDepth {
        /// Jobs queued across all tenants.
        depth: u32,
        /// Jobs currently running on workers.
        running: u32,
    },
}

impl Event {
    /// The record's `type` tag in the JSONL encoding.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::SpanBegin { .. } => "span_begin",
            Event::SpanEnd { .. } => "span_end",
            Event::ScfIteration { .. } => "scf_iteration",
            Event::QmdStep { .. } => "qmd_step",
            Event::DomainSolve { .. } => "domain_solve",
            Event::CollectiveDone { .. } => "collective_done",
            Event::WatchdogTrip { .. } => "watchdog_trip",
            Event::FaultInjected { .. } => "fault_injected",
            Event::RecoveryAction { .. } => "recovery_action",
            Event::JobState { .. } => "job_state",
            Event::QueueDepth { .. } => "queue_depth",
        }
    }
}

/// One recorded event with its context stamp.
#[derive(Clone, Debug, PartialEq)]
pub struct EventRecord {
    /// Nanoseconds since the process's telemetry epoch (first use).
    pub ts_ns: u64,
    /// Logical lane of the emitting thread (see [`Lane`]).
    pub lane: u32,
    /// Name of the innermost open trace span (`""` at root).
    pub span: &'static str,
    /// The event payload.
    pub event: Event,
}

// ---------------------------------------------------------------------------
// Lanes
// ---------------------------------------------------------------------------

/// Logical lane taxonomy. Encoded into a single `u32` tid so Chrome-trace
/// rows sort ranks and workers into separate, labelled groups.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lane {
    /// The main/control thread (or any thread never given a lane).
    Control(u32),
    /// A message-passing executor rank.
    Rank(u32),
    /// A rayon-shim worker thread.
    Worker(u32),
}

const RANK_BASE: u32 = 10_000;
const WORKER_BASE: u32 = 20_000;

impl Lane {
    /// Encodes the lane as a flat tid.
    pub fn encode(self) -> u32 {
        match self {
            Lane::Control(n) => n.min(RANK_BASE - 1),
            Lane::Rank(r) => RANK_BASE + r.min(WORKER_BASE - RANK_BASE - 1),
            Lane::Worker(w) => WORKER_BASE.saturating_add(w),
        }
    }

    /// Decodes a flat tid back into the taxonomy.
    pub fn decode(tid: u32) -> Lane {
        if tid >= WORKER_BASE {
            Lane::Worker(tid - WORKER_BASE)
        } else if tid >= RANK_BASE {
            Lane::Rank(tid - RANK_BASE)
        } else {
            Lane::Control(tid)
        }
    }

    /// Human-readable lane label (Chrome-trace thread name).
    pub fn label(self) -> String {
        match self {
            Lane::Control(0) => "main".to_string(),
            Lane::Control(n) => format!("control {n}"),
            Lane::Rank(r) => format!("rank {r}"),
            Lane::Worker(w) => format!("worker {w}"),
        }
    }
}

thread_local! {
    /// The lane of the current thread; `None` until first queried, at
    /// which point control threads self-assign a fresh control lane.
    static LANE: Cell<Option<u32>> = const { Cell::new(None) };
}

static NEXT_CONTROL: AtomicU32 = AtomicU32::new(0);
static NEXT_WORKER: AtomicU32 = AtomicU32::new(0);

/// The current thread's lane tid, assigning a fresh control lane on first
/// use (the process's first asking thread becomes `main`, lane 0).
pub fn current_lane() -> u32 {
    LANE.with(|l| match l.get() {
        Some(id) => id,
        None => {
            let id = Lane::Control(NEXT_CONTROL.fetch_add(1, Ordering::Relaxed)).encode();
            l.set(Some(id));
            id
        }
    })
}

/// RAII lane installer for rank/worker threads.
pub struct LaneGuard {
    prev: Option<u32>,
}

impl LaneGuard {
    /// Marks the current thread as executor rank `r` for the guard's
    /// lifetime.
    pub fn rank(r: u32) -> Self {
        Self::install(Lane::Rank(r))
    }

    /// Marks the current thread as a rayon worker, drawing a globally
    /// unique worker index so concurrent parallel regions never share a
    /// lane.
    pub fn worker() -> Self {
        Self::install(Lane::Worker(NEXT_WORKER.fetch_add(1, Ordering::Relaxed)))
    }

    /// Installs an explicit lane.
    pub fn install(lane: Lane) -> Self {
        let prev = LANE.with(|l| l.replace(Some(lane.encode())));
        Self { prev }
    }
}

impl Drop for LaneGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        LANE.with(|l| l.set(prev));
    }
}

// ---------------------------------------------------------------------------
// Sink
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

struct Sink {
    buf: Vec<EventRecord>,
    cap: usize,
    /// Records dropped since the last [`drain`], keyed by emitting lane:
    /// backpressure in the telemetry path is attributable, not silent.
    drops: BTreeMap<u32, u64>,
}

fn sink() -> &'static Mutex<Sink> {
    static SINK: OnceLock<Mutex<Sink>> = OnceLock::new();
    SINK.get_or_init(|| {
        Mutex::new(Sink {
            buf: Vec::new(),
            cap: DEFAULT_CAPACITY,
            drops: BTreeMap::new(),
        })
    })
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the telemetry epoch.
fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Globally enables or disables event recording. Events emitted while
/// disabled vanish at the cost of one relaxed atomic load.
pub fn set_enabled(on: bool) {
    if on {
        epoch(); // pin the epoch before the first timestamp
    }
    ENABLED.store(on, Ordering::Release);
}

/// Whether event recording is on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Locks the sink, recovering the guard if a panicking emitter poisoned
/// it: the sink holds plain telemetry records whose invariants cannot be
/// violated mid-update, so a poisoned lock must not cascade the panic
/// into every other instrumented thread.
fn lock_sink() -> std::sync::MutexGuard<'static, Sink> {
    sink().lock().unwrap_or_else(|e| e.into_inner())
}

/// Sets the sink capacity (records). Takes effect for subsequent emits.
#[cfg(test)]
fn set_capacity(cap: usize) {
    lock_sink().cap = cap.max(1);
}

/// Records an event, stamping timestamp, lane, and innermost span. A
/// no-op when recording is disabled; counted as dropped when the sink is
/// full.
pub fn emit(event: Event) {
    if !enabled() {
        return;
    }
    let record = EventRecord {
        ts_ns: now_ns(),
        lane: current_lane(),
        span: crate::trace::current_span_name(),
        event,
    };
    let mut s = lock_sink();
    if s.buf.len() < s.cap {
        s.buf.push(record);
    } else {
        *s.drops.entry(record.lane).or_insert(0) += 1;
    }
}

/// Takes every buffered record (oldest first) and the number of records
/// dropped since the previous drain (summed over lanes; see
/// [`dropped_by_lane`] for the attribution before draining).
pub fn drain() -> (Vec<EventRecord>, u64) {
    let mut s = lock_sink();
    let out = std::mem::take(&mut s.buf);
    let dropped = std::mem::take(&mut s.drops).values().sum();
    drop(s);
    (out, dropped)
}

/// Snapshot of records dropped since the last [`drain`], keyed by the
/// encoded lane ([`Lane::decode`]) of the thread whose emit was refused.
/// Surfaced in the profile `service` block so telemetry backpressure is
/// visible per lane.
pub fn dropped_by_lane() -> BTreeMap<u32, u64> {
    lock_sink().drops.clone()
}

// ---------------------------------------------------------------------------
// JSONL encoding
// ---------------------------------------------------------------------------

/// Renders one record as a JSON object.
pub fn record_to_json(r: &EventRecord) -> Json {
    let mut pairs = vec![
        ("type".to_string(), Json::Str(r.event.kind().into())),
        ("ts_ns".to_string(), Json::Num(r.ts_ns as f64)),
        ("lane".to_string(), Json::Num(r.lane as f64)),
        (
            "lane_label".to_string(),
            Json::Str(Lane::decode(r.lane).label()),
        ),
        ("span".to_string(), Json::Str(r.span.into())),
    ];
    let mut field = |k: &str, v: Json| pairs.push((k.to_string(), v));
    match &r.event {
        Event::SpanBegin { name } | Event::SpanEnd { name } => {
            field("name", Json::Str((*name).into()));
        }
        Event::ScfIteration {
            iter,
            residual,
            e_total,
            mix,
        } => {
            field("iter", Json::Num(*iter as f64));
            field("residual", Json::Num(*residual));
            field("e_total", Json::Num(*e_total));
            field("mix", Json::Num(*mix));
        }
        Event::QmdStep {
            step,
            e_pot,
            e_kin,
            drift,
        } => {
            field("step", Json::Num(*step as f64));
            field("e_pot", Json::Num(*e_pot));
            field("e_kin", Json::Num(*e_kin));
            field("drift", Json::Num(*drift));
        }
        Event::DomainSolve {
            domain,
            bands,
            iterations,
            seconds,
        } => {
            field("domain", Json::Num(*domain as f64));
            field("bands", Json::Num(*bands as f64));
            field("iterations", Json::Num(*iterations as f64));
            field("seconds", Json::Num(*seconds));
        }
        Event::CollectiveDone {
            op,
            ranks,
            bytes,
            seconds,
        } => {
            field("op", Json::Str((*op).into()));
            field("ranks", Json::Num(*ranks as f64));
            field("bytes", Json::Num(*bytes as f64));
            field("seconds", Json::Num(*seconds));
        }
        Event::WatchdogTrip {
            watchdog,
            message,
            value,
            bound,
        } => {
            field("watchdog", Json::Str((*watchdog).into()));
            field("message", Json::Str(message.clone()));
            field("value", Json::Num(*value));
            field("bound", Json::Num(*bound));
        }
        Event::FaultInjected { fault, site, at } => {
            field("fault", Json::Str((*fault).into()));
            field("site", Json::Str(site.clone()));
            field("at", Json::Num(*at as f64));
        }
        Event::RecoveryAction {
            action,
            site,
            attempt,
            seconds,
        } => {
            field("action", Json::Str((*action).into()));
            field("site", Json::Str(site.clone()));
            field("attempt", Json::Num(*attempt as f64));
            field("seconds", Json::Num(*seconds));
        }
        Event::JobState {
            job,
            tenant,
            state,
            detail,
        } => {
            field("job", Json::Num(*job as f64));
            field("tenant", Json::Num(*tenant as f64));
            field("state", Json::Str((*state).into()));
            field("detail", Json::Str(detail.clone()));
        }
        Event::QueueDepth { depth, running } => {
            field("depth", Json::Num(*depth as f64));
            field("running", Json::Num(*running as f64));
        }
    }
    Json::Obj(pairs)
}

/// Renders records as JSON Lines: one compact object per line, trailing
/// newline included (empty string for no records).
pub fn to_jsonl(records: &[EventRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&record_to_json(r).compact());
        out.push('\n');
    }
    out
}

/// Interns a parsed name so it can live in the `&'static str` fields of
/// [`EventRecord`]. The vocabulary is the fixed set of span/op/action
/// labels the workspace emits, so the leak is bounded and deduplicated.
fn intern(s: &str) -> &'static str {
    static POOL: Mutex<Option<BTreeMap<String, &'static str>>> = Mutex::new(None);
    let mut pool = POOL.lock().expect("intern pool");
    let map = pool.get_or_insert_with(BTreeMap::new);
    if let Some(&known) = map.get(s) {
        return known;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    map.insert(s.to_string(), leaked);
    leaked
}

/// Parses [`to_jsonl`] output back into records — the read half of the
/// per-rank event streams that worker processes write and
/// `repro_profile --merge-ranks` stitches into one Chrome trace. Blank
/// lines are skipped; any malformed line is a parse error naming its
/// 1-based line number.
pub fn parse_jsonl(text: &str) -> crate::Result<Vec<EventRecord>> {
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = crate::metrics::parse_json(line)
            .map_err(|e| crate::MqmdError::Parse(format!("line {}: {e}", idx + 1)))?;
        let bad = |what: &str| crate::MqmdError::Parse(format!("line {}: {what}", idx + 1));
        let num = |key: &'static str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| bad(&format!("missing number {key:?}")))
        };
        let text_field = |key: &'static str| {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad(&format!("missing string {key:?}")))
        };
        let name_field = |key: &'static str| text_field(key).map(|s| intern(&s));
        let kind = text_field("type")?;
        let event = match kind.as_str() {
            "span_begin" => Event::SpanBegin {
                name: name_field("name")?,
            },
            "span_end" => Event::SpanEnd {
                name: name_field("name")?,
            },
            "scf_iteration" => Event::ScfIteration {
                iter: num("iter")? as u32,
                residual: num("residual")?,
                e_total: num("e_total")?,
                mix: num("mix")?,
            },
            "qmd_step" => Event::QmdStep {
                step: num("step")? as u32,
                e_pot: num("e_pot")?,
                e_kin: num("e_kin")?,
                drift: num("drift")?,
            },
            "domain_solve" => Event::DomainSolve {
                domain: num("domain")? as u32,
                bands: num("bands")? as u32,
                iterations: num("iterations")? as u32,
                seconds: num("seconds")?,
            },
            "collective_done" => Event::CollectiveDone {
                op: name_field("op")?,
                ranks: num("ranks")? as u32,
                bytes: num("bytes")? as u64,
                seconds: num("seconds")?,
            },
            "watchdog_trip" => Event::WatchdogTrip {
                watchdog: name_field("watchdog")?,
                message: text_field("message")?,
                value: num("value")?,
                bound: num("bound")?,
            },
            "fault_injected" => Event::FaultInjected {
                fault: name_field("fault")?,
                site: text_field("site")?,
                at: num("at")? as u64,
            },
            "recovery_action" => Event::RecoveryAction {
                action: name_field("action")?,
                site: text_field("site")?,
                attempt: num("attempt")? as u32,
                seconds: num("seconds")?,
            },
            "job_state" => Event::JobState {
                job: num("job")? as u64,
                tenant: num("tenant")? as u32,
                state: name_field("state")?,
                detail: text_field("detail")?,
            },
            "queue_depth" => Event::QueueDepth {
                depth: num("depth")? as u32,
                running: num("running")? as u32,
            },
            other => return Err(bad(&format!("unknown event type {other:?}"))),
        };
        out.push(EventRecord {
            ts_ns: num("ts_ns")? as u64,
            lane: num("lane")? as u32,
            span: name_field("span")?,
            event,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::parse_json;
    use std::sync::Mutex as StdMutex;

    /// Serialises tests sharing the global sink/flag.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: StdMutex<()> = StdMutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_emits_are_noops() {
        let _g = lock();
        set_enabled(false);
        let _ = drain();
        emit(Event::SpanBegin { name: "x" });
        let (records, dropped) = drain();
        assert!(records.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn emit_stamps_lane_and_span() {
        let _g = lock();
        set_enabled(true);
        let _ = drain();
        crate::trace::set_enabled(true);
        let _ = crate::trace::take();
        {
            let _s = crate::trace::span("phase_x");
            emit(Event::ScfIteration {
                iter: 3,
                residual: 1e-4,
                e_total: -1.5,
                mix: 0.4,
            });
        }
        crate::trace::set_enabled(false);
        let _ = crate::trace::take();
        set_enabled(false);
        let (records, _) = drain();
        // trace::span itself emits SpanBegin/SpanEnd while events are on.
        let scf: Vec<_> = records
            .iter()
            .filter(|r| matches!(r.event, Event::ScfIteration { .. }))
            .collect();
        assert_eq!(scf.len(), 1);
        assert_eq!(scf[0].span, "phase_x");
        // Test threads self-assign control lanes in first-asked order, so
        // only the taxonomy (not the index) is deterministic here.
        assert!(matches!(Lane::decode(scf[0].lane), Lane::Control(_)));
    }

    #[test]
    fn capacity_bounds_and_counts_drops() {
        let _g = lock();
        set_enabled(true);
        let _ = drain();
        set_capacity(4);
        for i in 0..10 {
            emit(Event::QmdStep {
                step: i,
                e_pot: 0.0,
                e_kin: 0.0,
                drift: 0.0,
            });
        }
        set_enabled(false);
        let by_lane = dropped_by_lane();
        let (records, dropped) = drain();
        set_capacity(DEFAULT_CAPACITY);
        assert_eq!(records.len(), 4);
        assert_eq!(dropped, 6);
        // Oldest-first order preserved.
        assert!(matches!(records[0].event, Event::QmdStep { step: 0, .. }));
        // All drops attributed to this (control) lane; drain cleared them.
        assert_eq!(by_lane.values().sum::<u64>(), 6);
        assert!(by_lane.keys().all(|&l| l < 10_000));
        assert!(dropped_by_lane().is_empty());
    }

    #[test]
    fn drops_are_attributed_per_lane() {
        let _g = lock();
        set_enabled(true);
        let _ = drain();
        set_capacity(1);
        emit(Event::SpanBegin { name: "fills" }); // occupies the only slot
        {
            let _r = LaneGuard::rank(3);
            emit(Event::SpanBegin { name: "r" });
            emit(Event::SpanEnd { name: "r" });
        }
        {
            let _w = LaneGuard::install(Lane::Worker(0));
            emit(Event::SpanBegin { name: "w" });
        }
        set_enabled(false);
        let by_lane = dropped_by_lane();
        let (_, dropped) = drain();
        set_capacity(DEFAULT_CAPACITY);
        assert_eq!(dropped, 3);
        assert_eq!(by_lane.get(&Lane::Rank(3).encode()), Some(&2));
        assert_eq!(by_lane.get(&Lane::Worker(0).encode()), Some(&1));
    }

    #[test]
    fn service_events_encode() {
        let records = vec![
            EventRecord {
                ts_ns: 1,
                lane: 0,
                span: "",
                event: Event::JobState {
                    job: 17,
                    tenant: 2,
                    state: "preempted",
                    detail: "by job 18".into(),
                },
            },
            EventRecord {
                ts_ns: 2,
                lane: 0,
                span: "",
                event: Event::QueueDepth {
                    depth: 5,
                    running: 2,
                },
            },
        ];
        let text = to_jsonl(&records);
        let lines: Vec<&str> = text.lines().collect();
        let first = parse_json(lines[0]).unwrap();
        assert_eq!(first.get("type").unwrap().as_str(), Some("job_state"));
        assert_eq!(first.get("job").unwrap().as_u64(), Some(17));
        assert_eq!(first.get("state").unwrap().as_str(), Some("preempted"));
        let second = parse_json(lines[1]).unwrap();
        assert_eq!(second.get("type").unwrap().as_str(), Some("queue_depth"));
        assert_eq!(second.get("depth").unwrap().as_u64(), Some(5));
        assert_eq!(second.get("running").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let records = vec![
            EventRecord {
                ts_ns: 12,
                lane: Lane::Rank(3).encode(),
                span: "scf_iter",
                event: Event::WatchdogTrip {
                    watchdog: "energy_drift",
                    message: "res \"stuck\" at 1e-3\nline2 — ünïcode".into(),
                    value: 1e-3,
                    bound: 1e-5,
                },
            },
            EventRecord {
                ts_ns: 40,
                lane: Lane::Worker(1).encode(),
                span: "",
                event: Event::CollectiveDone {
                    op: "allreduce_sum",
                    ranks: 8,
                    bytes: 4096,
                    seconds: 1.5e-5,
                },
            },
        ];
        let text = to_jsonl(&records);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = parse_json(lines[0]).unwrap();
        assert_eq!(first.get("type").unwrap().as_str(), Some("watchdog_trip"));
        assert_eq!(first.get("lane_label").unwrap().as_str(), Some("rank 3"));
        assert_eq!(
            first.get("message").unwrap().as_str(),
            Some("res \"stuck\" at 1e-3\nline2 — ünïcode")
        );
        let second = parse_json(lines[1]).unwrap();
        assert_eq!(second.get("ranks").unwrap().as_u64(), Some(8));
    }

    #[test]
    fn parse_jsonl_round_trips_every_event_kind() {
        let records = vec![
            EventRecord {
                ts_ns: 1,
                lane: Lane::Rank(2).encode(),
                span: "global_reduce",
                event: Event::SpanBegin { name: "scf_iter" },
            },
            EventRecord {
                ts_ns: 2,
                lane: Lane::Rank(2).encode(),
                span: "global_reduce",
                event: Event::CollectiveDone {
                    op: "allreduce_sum",
                    ranks: 4,
                    bytes: 8192,
                    seconds: 3.5e-4,
                },
            },
            EventRecord {
                ts_ns: 3,
                lane: 0,
                span: "",
                event: Event::ScfIteration {
                    iter: 7,
                    residual: 1e-4,
                    e_total: -1.1371,
                    mix: 0.3,
                },
            },
            EventRecord {
                ts_ns: 4,
                lane: Lane::Worker(1).encode(),
                span: "domain_solve",
                event: Event::RecoveryAction {
                    action: "domain_retry_cached",
                    site: "domain 3".into(),
                    attempt: 2,
                    seconds: 0.01,
                },
            },
            EventRecord {
                ts_ns: 5,
                lane: 0,
                span: "",
                event: Event::JobState {
                    job: 9,
                    tenant: 1,
                    state: "running",
                    detail: "unicode — ünïcode \"quoted\"".into(),
                },
            },
        ];
        let back = parse_jsonl(&to_jsonl(&records)).unwrap();
        assert_eq!(back, records, "bit-for-bit structural round trip");
        // Interned names compare equal to the originals by value.
        if let Event::CollectiveDone { op, .. } = back[1].event {
            assert_eq!(op, "allreduce_sum");
        }
    }

    #[test]
    fn parse_jsonl_rejects_malformed_lines() {
        assert!(parse_jsonl("not json\n").is_err());
        assert!(parse_jsonl(
            "{\"type\": \"mystery\", \"ts_ns\": 0, \"lane\": 0, \"span\": \"\"}\n"
        )
        .is_err());
        // Missing required field.
        assert!(parse_jsonl("{\"type\": \"queue_depth\", \"ts_ns\": 0, \"lane\": 0, \"span\": \"\", \"depth\": 1}\n").is_err());
        // Blank lines are fine.
        assert_eq!(parse_jsonl("\n\n").unwrap().len(), 0);
    }

    #[test]
    fn fault_and_recovery_events_encode() {
        let records = vec![
            EventRecord {
                ts_ns: 5,
                lane: 0,
                span: "scf_iter",
                event: Event::FaultInjected {
                    fault: "density_nan",
                    site: "domain 3".into(),
                    at: 2,
                },
            },
            EventRecord {
                ts_ns: 9,
                lane: 0,
                span: "scf_iter",
                event: Event::RecoveryAction {
                    action: "domain_retry_cached",
                    site: "domain 0".into(),
                    attempt: 1,
                    seconds: 0.25,
                },
            },
        ];
        let text = to_jsonl(&records);
        let lines: Vec<&str> = text.lines().collect();
        let first = parse_json(lines[0]).unwrap();
        assert_eq!(first.get("type").unwrap().as_str(), Some("fault_injected"));
        assert_eq!(first.get("fault").unwrap().as_str(), Some("density_nan"));
        assert_eq!(first.get("at").unwrap().as_u64(), Some(2));
        let second = parse_json(lines[1]).unwrap();
        assert_eq!(
            second.get("type").unwrap().as_str(),
            Some("recovery_action")
        );
        assert_eq!(second.get("attempt").unwrap().as_u64(), Some(1));
        assert_eq!(second.get("seconds").unwrap().as_f64(), Some(0.25));
    }

    #[test]
    fn sink_survives_a_poisoning_panic() {
        let _g = lock();
        set_enabled(true);
        let _ = drain();
        // Poison the sink mutex by panicking while holding it.
        let _ = std::panic::catch_unwind(|| {
            let _guard = super::lock_sink();
            panic!("poison the sink");
        });
        emit(Event::SpanBegin {
            name: "after_poison",
        });
        set_enabled(false);
        let (records, _) = drain();
        assert!(records.iter().any(|r| matches!(
            r.event,
            Event::SpanBegin {
                name: "after_poison"
            }
        )));
    }

    #[test]
    fn lane_encoding_round_trips() {
        for lane in [
            Lane::Control(0),
            Lane::Control(7),
            Lane::Rank(0),
            Lane::Rank(511),
            Lane::Worker(0),
            Lane::Worker(99_999),
        ] {
            assert_eq!(Lane::decode(lane.encode()), lane);
        }
        assert_eq!(Lane::Control(0).label(), "main");
        assert_eq!(Lane::Rank(2).label(), "rank 2");
    }

    #[test]
    fn lane_guard_restores_previous() {
        let _g = lock();
        let before = current_lane();
        {
            let _r = LaneGuard::rank(5);
            assert_eq!(Lane::decode(current_lane()), Lane::Rank(5));
            {
                let _w = LaneGuard::worker();
                assert!(matches!(Lane::decode(current_lane()), Lane::Worker(_)));
            }
            assert_eq!(Lane::decode(current_lane()), Lane::Rank(5));
        }
        assert_eq!(current_lane(), before);
    }
}
