//! The multi-process backend: real rank processes over loopback TCP,
//! with a self-healing supervisor.
//!
//! Topology is hub-and-spoke. The parent binds an ephemeral loopback
//! listener, fork/execs `n` copies of the `mqmd-rank` worker binary
//! (rank identity, program name and arguments travel in the
//! environment), and then routes: every point-to-point message is a
//! [`Data`](crate::wire::FrameKind::Data) frame from the source worker
//! that the parent forwards to the destination worker's socket through
//! a **bounded per-destination outbox** (backpressure, not unbounded
//! buffering — deferrals are counted per rank). The parent also
//! coordinates barriers centrally and collects each rank's
//! [`Result`](crate::wire::FrameKind::Result) frame.
//!
//! **Liveness.** Workers beat a [`Heartbeat`](crate::wire::FrameKind::Heartbeat)
//! frame on a fixed cadence when recovery is enabled; the supervisor
//! tracks `last_seen` per rank and walks the DESIGN §4h state machine
//! *alive → suspect → dead* on missed beats, so a wedged-but-connected
//! worker is distinguished from a merely slow one before anything
//! escalates. Socket EOF short-circuits straight to *dead*.
//!
//! **Recovery.** With [`ProcessOpts::recovery`] set, a dead rank is
//! respawned in place: the supervisor bumps the communicator
//! generation (every frame carries an epoch; stale frames from the
//! dead incarnation are dropped at hub ingress *and* at the worker
//! gate), re-rendezvouses the reborn worker over the same
//! `MQMD_RANK_*` env protocol at the new epoch, and broadcasts
//! [`Restarted`](crate::wire::FrameKind::Restarted) so survivors fence
//! ([`Comm::recovery_fence`]) and replay from replicated state. Rank
//! programs are deterministic functions of `(rank, size, args)`, so
//! the healed run finishes **bitwise-identical** to a fault-free run.
//! A rank that exhausts its seeded retry budget degrades typed:
//! [`Quarantined`](crate::wire::FrameKind::Quarantined) shrinks the
//! communicator (survivors re-derive logical rank/size and rebalance),
//! and only a fully dead communicator surfaces the legacy whole-run
//! [`CommError::PeerGone`].
//!
//! Without recovery (the default), semantics are exactly the PR 7
//! behavior: worker death → immediate `PeerGone` broadcast → typed
//! failure, never a hang.
//!
//! Fault-plane integration happens in the parent (the workers stay
//! oblivious, as real compute ranks would be): at spawn time the parent
//! polls [`Site::Rank`](mqmd_util::faults::Site) for each rank; a
//! `Straggler` delays that rank's spawn and books the recovery, a
//! `WorkerKill` arms a kill switch that SIGKILLs the victim after its
//! first few routed frames — mid-step, not between steps.

use crate::comm::{Comm, CommError, CommResult, OpTally, RankProgram, TrafficStats, POLL_SLICE_MS};
use crate::wire::{read_frame, write_frame, EpochGate, Frame, FrameKind};
use mqmd_util::metrics::Json;
use mqmd_util::{cancel, faults, Xoshiro256pp};
use std::collections::{HashMap, VecDeque};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{
    channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError,
};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Environment variable carrying the parent's listener address; its
/// presence is what tells `mqmd-rank` it is a worker.
const ENV_ADDR: &str = "MQMD_RANK_ADDR";
/// This worker's rank id.
const ENV_RANK: &str = "MQMD_RANK";
/// Communicator size.
const ENV_SIZE: &str = "MQMD_RANK_SIZE";
/// Registry name of the rank program to run.
const ENV_PROGRAM: &str = "MQMD_RANK_PROGRAM";
/// Comma-separated `f64` arguments for the rank program.
const ENV_ARGS: &str = "MQMD_RANK_ARGS";
/// Per-primitive wait budget in milliseconds (hung-rank detection).
const ENV_DEADLINE_MS: &str = "MQMD_RANK_DEADLINE_MS";
/// If set, the worker records events and writes
/// `{prefix}.rank{r}.jsonl` on exit (merged by `repro_profile
/// --merge-ranks`).
const ENV_EVENTS: &str = "MQMD_RANK_EVENTS";
/// Communicator generation this incarnation joins at (0 for the
/// original spawn; the supervisor sets the bumped epoch on respawn).
const ENV_EPOCH: &str = "MQMD_RANK_EPOCH";
/// Heartbeat cadence in milliseconds; absent or 0 disables the beat
/// (recovery-off runs stay frame-for-frame identical to PR 7).
const ENV_HEARTBEAT_MS: &str = "MQMD_RANK_HEARTBEAT_MS";

/// Bounded per-destination outbox depth at the hub.
const OUTBOX_CAP: usize = 256;

/// Worker-side cap on program replays across restart fences — a
/// runaway-fence backstop far above any real retry budget.
const REPLAY_CAP: u32 = 64;

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum FenceEvent {
    Restarted { rank: usize, epoch: u32 },
    Quarantined { rank: usize, epoch: u32 },
}

struct SocketInbox {
    rx: Receiver<Frame>,
    /// Per *physical* source FIFO of `(epoch, payload)`.
    data: HashMap<u32, VecDeque<(u32, Vec<f64>)>>,
    /// Barrier releases keyed by epoch.
    releases: HashMap<u32, usize>,
    peer_gone: Option<usize>,
    /// A restart/quarantine notice awaiting [`Comm::recovery_fence`].
    pending: Option<FenceEvent>,
    /// Physical ranks removed from the communicator, ascending.
    quarantined: Vec<usize>,
    /// COMPLETE received: the run is over at the current generation.
    complete: bool,
}

/// Physical rank of logical id `logical` given the quarantined set.
fn logical_to_physical(quarantined: &[usize], total: usize, logical: usize) -> Option<usize> {
    (0..total).filter(|p| !quarantined.contains(p)).nth(logical)
}

/// Logical id of physical rank `phys` given the quarantined set.
fn physical_to_logical(quarantined: &[usize], phys: usize) -> usize {
    phys - quarantined.iter().filter(|&&q| q < phys).count()
}

/// The worker-process communicator: one socket to the parent, frames
/// demultiplexed into per-source FIFO queues by a reader thread, all
/// ingress filtered through an [`EpochGate`]. `rank()`/`size()` are
/// *logical* — after a quarantine shrinks the communicator they
/// renumber over the survivors, while the wire keeps physical ids.
pub struct SocketComm {
    /// Physical rank (wire identity; never changes).
    phys_rank: usize,
    /// Initial communicator size.
    total: usize,
    writer: Arc<Mutex<TcpStream>>,
    inbox: Mutex<SocketInbox>,
    traffic: TrafficStats,
    deadline: Option<Duration>,
    gate: EpochGate,
    hb_stop: Arc<AtomicBool>,
}

impl SocketComm {
    /// Connects to the parent at `addr`, sends HELLO, and starts the
    /// frame reader thread. Joins at `epoch` (a reborn incarnation joins at
    /// the bumped generation) and beats a heartbeat every `heartbeat_ms`
    /// (0 disables).
    fn connect_at(
        addr: &str,
        rank: usize,
        size: usize,
        deadline: Option<Duration>,
        epoch: u32,
        heartbeat_ms: u64,
    ) -> CommResult<SocketComm> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| CommError::Transport(format!("connect {addr}: {e}")))?;
        stream.set_nodelay(true).ok();
        let mut writer = stream
            .try_clone()
            .map_err(|e| CommError::Transport(format!("clone stream: {e}")))?;
        write_frame(
            &mut writer,
            &Frame::control(FrameKind::Hello, rank as u32, 0).at_epoch(epoch),
        )
        .map_err(|e| CommError::Transport(format!("hello: {e}")))?;
        let (tx, rx) = channel();
        let mut reader = stream;
        std::thread::spawn(move || {
            while let Ok(Some(frame)) = read_frame(&mut reader) {
                if tx.send(frame).is_err() {
                    break;
                }
            }
        });
        let writer = Arc::new(Mutex::new(writer));
        let hb_stop = Arc::new(AtomicBool::new(false));
        if heartbeat_ms > 0 {
            let w = writer.clone();
            let stop = hb_stop.clone();
            let src = rank as u32;
            std::thread::spawn(move || loop {
                std::thread::sleep(Duration::from_millis(heartbeat_ms));
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let mut g = w.lock().expect("writer lock");
                if write_frame(&mut *g, &Frame::control(FrameKind::Heartbeat, src, 0)).is_err() {
                    break;
                }
            });
        }
        Ok(SocketComm {
            phys_rank: rank,
            total: size,
            writer,
            inbox: Mutex::new(SocketInbox {
                rx,
                data: HashMap::new(),
                releases: HashMap::new(),
                peer_gone: None,
                pending: None,
                quarantined: Vec::new(),
                complete: false,
            }),
            traffic: TrafficStats::default(),
            deadline,
            gate: EpochGate::new(epoch),
            hb_stop,
        })
    }

    fn pending_error(pending: FenceEvent) -> CommError {
        match pending {
            FenceEvent::Restarted { rank, epoch } => CommError::PeerRestarted { rank, epoch },
            FenceEvent::Quarantined { rank, epoch } => CommError::PeerQuarantined { rank, epoch },
        }
    }

    /// Blocks until the predicate extracts a value from the inbox,
    /// filing every other frame where it belongs. Ingress is
    /// epoch-gated: frames from a dead incarnation are dropped here
    /// even if they slipped past the hub's router gate (double
    /// fencing), and frames from a *newer* generation are stashed
    /// untouched until this rank fences forward.
    fn wait_for<T>(
        &self,
        op: &'static str,
        mut take: impl FnMut(&mut SocketInbox, u32) -> Option<T>,
    ) -> CommResult<T> {
        let start = Instant::now();
        let mut inbox = self.inbox.lock().expect("inbox lock");
        loop {
            if let Some(p) = inbox.pending {
                return Err(SocketComm::pending_error(p));
            }
            if let Some(rank) = inbox.peer_gone {
                return Err(CommError::PeerGone { rank, op });
            }
            let epoch = self.gate.current();
            if let Some(v) = take(&mut inbox, epoch) {
                return Ok(v);
            }
            match inbox.rx.recv_timeout(Duration::from_millis(POLL_SLICE_MS)) {
                Ok(frame) => match frame.kind {
                    FrameKind::Data => {
                        if self.gate.admit(&frame) {
                            let values = frame.values()?;
                            inbox
                                .data
                                .entry(frame.src)
                                .or_default()
                                .push_back((frame.epoch, values));
                        }
                    }
                    FrameKind::BarrierRelease => {
                        if self.gate.admit(&frame) {
                            *inbox.releases.entry(frame.epoch).or_insert(0) += 1;
                        }
                    }
                    FrameKind::PeerGone => inbox.peer_gone = Some(frame.src as usize),
                    FrameKind::Restarted => {
                        inbox.pending = Some(FenceEvent::Restarted {
                            rank: frame.src as usize,
                            epoch: frame.epoch,
                        });
                    }
                    FrameKind::Quarantined => {
                        inbox.pending = Some(FenceEvent::Quarantined {
                            rank: frame.src as usize,
                            epoch: frame.epoch,
                        });
                    }
                    FrameKind::Complete => inbox.complete = true,
                    other => {
                        return Err(CommError::Transport(format!(
                            "unexpected frame {other:?} at worker rank {}",
                            self.phys_rank
                        )))
                    }
                },
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CommError::Transport("parent connection closed".into()))
                }
            }
            if let Some(reason) = cancel::poll_abort() {
                return Err(CommError::Cancelled { op, reason });
            }
            if let Some(d) = self.deadline {
                if start.elapsed() >= d {
                    return Err(CommError::PeerTimeout {
                        rank: self.phys_rank,
                        op,
                        waited_ms: start.elapsed().as_millis() as u64,
                    });
                }
            }
        }
    }

    fn write(&self, frame: &Frame) -> CommResult<()> {
        let mut w = self.writer.lock().expect("writer lock");
        write_frame(&mut *w, frame).map_err(|e| CommError::Transport(format!("write: {e}")))
    }

    /// Lingers after RESULT until the supervisor declares the run
    /// complete — or a restart/quarantine fence asks for a replay.
    fn await_completion(&self) -> CommResult<()> {
        self.wait_for("await_completion", |inbox, _| inbox.complete.then_some(()))
    }
}

impl Drop for SocketComm {
    fn drop(&mut self) {
        self.hb_stop.store(true, Ordering::Relaxed);
    }
}

impl Comm for SocketComm {
    fn rank(&self) -> usize {
        let inbox = self.inbox.lock().expect("inbox lock");
        physical_to_logical(&inbox.quarantined, self.phys_rank)
    }

    fn size(&self) -> usize {
        let inbox = self.inbox.lock().expect("inbox lock");
        self.total - inbox.quarantined.len()
    }

    fn send_to(&self, dest: usize, data: &[f64]) -> CommResult<()> {
        let phys = {
            let inbox = self.inbox.lock().expect("inbox lock");
            logical_to_physical(&inbox.quarantined, self.total, dest)
                .ok_or_else(|| CommError::Transport(format!("send_to: no logical rank {dest}")))?
        };
        self.write(
            &Frame::data(FrameKind::Data, self.phys_rank as u32, phys as u32, data)
                .at_epoch(self.gate.current()),
        )
    }

    fn recv_from(&self, src: usize, op: &'static str) -> CommResult<Vec<f64>> {
        self.wait_for(op, move |inbox, epoch| {
            let phys = logical_to_physical(&inbox.quarantined, self.total, src)?;
            let q = inbox.data.get_mut(&(phys as u32))?;
            // Stale entries from a dead incarnation purge lazily here;
            // entries from a *newer* epoch stay queued until the fence.
            while matches!(q.front(), Some((e, _)) if *e < epoch) {
                q.pop_front();
            }
            match q.front() {
                Some((e, _)) if *e == epoch => q.pop_front().map(|(_, v)| v),
                _ => None,
            }
        })
    }

    fn barrier(&self) -> CommResult<()> {
        self.write(
            &Frame::control(FrameKind::Barrier, self.phys_rank as u32, 0)
                .at_epoch(self.gate.current()),
        )?;
        self.wait_for("barrier", |inbox, epoch| {
            let n = inbox.releases.get_mut(&epoch)?;
            if *n > 0 {
                *n -= 1;
                Some(())
            } else {
                None
            }
        })
    }

    fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    /// Acknowledges a pending restart/quarantine: advances the epoch
    /// gate, purges stale queues and releases, and (for a quarantine)
    /// removes the dead physical rank so `rank()`/`size()` renumber
    /// over the survivors.
    fn recovery_fence(&self) -> CommResult<()> {
        let mut inbox = self.inbox.lock().expect("inbox lock");
        let Some(pending) = inbox.pending.take() else {
            return Ok(());
        };
        let epoch = match pending {
            FenceEvent::Restarted { epoch, .. } => epoch,
            FenceEvent::Quarantined { rank, epoch } => {
                if !inbox.quarantined.contains(&rank) {
                    inbox.quarantined.push(rank);
                    inbox.quarantined.sort_unstable();
                }
                epoch
            }
        };
        self.gate.advance(epoch);
        let cur = self.gate.current();
        for q in inbox.data.values_mut() {
            q.retain(|(e, _)| *e >= cur);
        }
        inbox.releases.retain(|e, _| *e >= cur);
        Ok(())
    }
}

/// Worker entry point. Returns `None` when the process is not a worker
/// (no `MQMD_RANK_ADDR` in the environment) — the caller proceeds with its
/// normal CLI. Otherwise connects, runs the named program from
/// `registry` (replaying across restart/quarantine fences), ships the
/// traffic ledger (logical rank 0) and the RESULT frame, lingers for
/// COMPLETE, optionally writes this rank's event stream, and returns
/// the exit code to pass to [`std::process::exit`].
pub fn worker_from_env(registry: &[(&str, RankProgram)]) -> Option<i32> {
    let addr = std::env::var(ENV_ADDR).ok()?;
    let get = |key: &str| std::env::var(key).unwrap_or_default();
    let rank: usize = get(ENV_RANK).parse().expect("worker rank");
    let size: usize = get(ENV_SIZE).parse().expect("worker size");
    let program = get(ENV_PROGRAM);
    let args: Vec<f64> = get(ENV_ARGS)
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().expect("worker arg"))
        .collect();
    let deadline = get(ENV_DEADLINE_MS)
        .parse::<u64>()
        .ok()
        .map(Duration::from_millis);
    let epoch = get(ENV_EPOCH).parse::<u32>().unwrap_or(0);
    let heartbeat_ms = get(ENV_HEARTBEAT_MS).parse::<u64>().unwrap_or(0);
    let events_prefix = std::env::var(ENV_EVENTS).ok();

    if events_prefix.is_some() {
        mqmd_util::events::set_enabled(true);
    }
    let _lane = mqmd_util::events::LaneGuard::rank(rank as u32);

    let Some((_, run)) = registry.iter().find(|(name, _)| *name == program) else {
        eprintln!("mqmd-rank: unknown program {program:?}");
        return Some(2);
    };
    let comm = match SocketComm::connect_at(&addr, rank, size, deadline, epoch, heartbeat_ms) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("mqmd-rank[{rank}]: {e}");
            return Some(3);
        }
    };

    let mut replays = 0u32;
    let code = loop {
        replays += 1;
        if replays > REPLAY_CAP {
            eprintln!("mqmd-rank[{rank}]: replay cap {REPLAY_CAP} exhausted");
            break 3;
        }
        match run(&comm, &args) {
            Ok(values) => {
                let mut ok = true;
                if comm.rank() == 0 {
                    let ledger = comm.traffic().encode();
                    ok &= comm
                        .write(
                            &Frame {
                                kind: FrameKind::Traffic,
                                src: rank as u32,
                                dest: 0,
                                epoch: 0,
                                payload: ledger.into_bytes(),
                            }
                            .at_epoch(comm.gate.current()),
                        )
                        .is_ok();
                }
                ok &= comm
                    .write(
                        &Frame::data(FrameKind::Result, rank as u32, 0, &values)
                            .at_epoch(comm.gate.current()),
                    )
                    .is_ok();
                if !ok {
                    break 3;
                }
                // Linger: the run isn't over until the supervisor says
                // so — a peer may yet die, fencing us into a replay.
                match comm.await_completion() {
                    Ok(()) => break 0,
                    Err(CommError::PeerRestarted { .. })
                    | Err(CommError::PeerQuarantined { .. }) => {
                        if comm.recovery_fence().is_err() {
                            break 3;
                        }
                    }
                    // Teardown underway (PeerGone, EOF, deadline):
                    // our result was delivered; exit quietly.
                    Err(_) => break 0,
                }
            }
            Err(CommError::PeerRestarted { .. }) | Err(CommError::PeerQuarantined { .. }) => {
                if comm.recovery_fence().is_err() {
                    break 3;
                }
            }
            Err(e) => {
                let _ = comm.write(
                    &Frame {
                        kind: FrameKind::Error,
                        src: rank as u32,
                        dest: 0,
                        epoch: 0,
                        payload: e.to_string().into_bytes(),
                    }
                    .at_epoch(comm.gate.current()),
                );
                eprintln!("mqmd-rank[{rank}]: {e}");
                break 4;
            }
        }
    };
    if let Some(prefix) = events_prefix {
        let (records, _) = mqmd_util::events::drain();
        let path = format!("{prefix}.rank{rank}.jsonl");
        if let Err(e) = std::fs::write(&path, mqmd_util::events::to_jsonl(&records)) {
            eprintln!("mqmd-rank[{rank}]: events {path}: {e}");
        }
    }
    Some(code)
}

// ---------------------------------------------------------------------------
// Parent side
// ---------------------------------------------------------------------------

/// Kill switch for fault drills: SIGKILL `rank` once the router has
/// forwarded `after_data_frames` frames from it — mid-collective, the
/// worst moment. `repeat` arms the switch for that many successive
/// incarnations (kill the rebirths too), which is how the quarantine
/// probe exhausts a retry budget.
#[derive(Debug, Clone, Copy)]
pub struct KillSpec {
    pub rank: usize,
    pub after_data_frames: u64,
    pub repeat: u32,
}

/// Rank-recovery policy. `None` in [`ProcessOpts::recovery`] keeps the
/// fail-fast PR 7 semantics.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryOpts {
    /// Restarts allowed per rank before it is quarantined.
    pub max_restarts: u32,
    /// Exponential respawn backoff base (milliseconds), with seeded
    /// jitter on top so simultaneous restarts don't thundering-herd
    /// the loopback hub.
    pub backoff_base_ms: u64,
    /// Seed for the backoff jitter (and any future randomized policy).
    pub seed: u64,
    /// Worker heartbeat cadence.
    pub heartbeat_ms: u64,
    /// Missed-beat threshold for *alive → suspect*.
    pub suspect_after_ms: u64,
    /// Missed-beat threshold for *suspect → dead* (kill + respawn).
    pub dead_after_ms: u64,
}

impl Default for RecoveryOpts {
    fn default() -> Self {
        RecoveryOpts {
            max_restarts: 2,
            backoff_base_ms: 5,
            seed: 0x6d71_6d64,
            heartbeat_ms: 50,
            suspect_after_ms: 250,
            dead_after_ms: 1500,
        }
    }
}

/// Seeded-jitter backoff before respawn attempt `attempt` (1-based) of
/// `rank` — the PR 6 serve-runtime idiom: deterministic per
/// `(seed, rank, attempt)`, exponential base, jitter of up to one
/// period, capped.
fn respawn_backoff(rec: &RecoveryOpts, rank: usize, attempt: u32) -> Duration {
    let mut rng = Xoshiro256pp::seed_from_u64(
        rec.seed
            ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ u64::from(attempt).rotate_left(32),
    );
    let exp = rec.backoff_base_ms.max(1) * (1u64 << (attempt.saturating_sub(1)).min(6));
    Duration::from_millis((exp + rng.below(exp)).min(250))
}

/// Options for a multi-process run.
pub struct ProcessOpts {
    /// Overall run deadline (also exported to workers as their
    /// per-primitive wait budget). The default, 120 s, guarantees a
    /// wedged cluster surfaces as [`CommError::PeerTimeout`], never a
    /// hung parent.
    pub deadline: Duration,
    /// Explicit kill switch (the fault plane can also arm one).
    pub kill: Option<KillSpec>,
    /// If set, workers write `{prefix}.rank{r}.jsonl` event streams.
    pub events_prefix: Option<String>,
    /// Arguments handed to every rank program.
    pub args: Vec<f64>,
    /// In-place rank restart policy; `None` = fail fast on death.
    pub recovery: Option<RecoveryOpts>,
}

impl Default for ProcessOpts {
    fn default() -> Self {
        ProcessOpts {
            deadline: Duration::from_secs(120),
            kill: None,
            events_prefix: None,
            args: Vec::new(),
            recovery: None,
        }
    }
}

/// Recovery telemetry for one run (all-zero when nothing died).
#[derive(Debug, Clone, Default)]
pub struct RankRecoveryStats {
    /// Successful in-place restarts.
    pub restarts: u32,
    /// Ranks quarantined after exhausting the retry budget.
    pub quarantines: u32,
    /// *alive → suspect* transitions observed by the heartbeat monitor.
    pub suspects: u32,
    /// Death-detection latencies (last heartbeat → declared dead), ms.
    pub detect_ms: Vec<f64>,
    /// Fence-to-spawned latencies per restart, ms.
    pub respawn_ms: Vec<f64>,
    /// Fence-to-rejoined (HELLO accepted) latencies per restart, ms.
    pub rejoin_ms: Vec<f64>,
}

/// Renders recovery stats as the profile's `rank_recovery` block.
pub fn rank_recovery_block(s: &RankRecoveryStats) -> Json {
    let arr = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
    Json::obj([
        ("restarts", Json::Num(f64::from(s.restarts))),
        ("quarantines", Json::Num(f64::from(s.quarantines))),
        ("suspects", Json::Num(f64::from(s.suspects))),
        ("detect_ms", arr(&s.detect_ms)),
        ("respawn_ms", arr(&s.respawn_ms)),
        ("rejoin_ms", arr(&s.rejoin_ms)),
    ])
}

/// What a successful multi-process run hands back.
#[derive(Debug)]
pub struct ProcessRun {
    /// Per-rank RESULT payloads, initial-rank order; a quarantined
    /// rank's slot is empty.
    pub results: Vec<Vec<f64>>,
    /// Rank 0's executed-collective ledger (the digital twin's input).
    pub traffic: Vec<(String, OpTally)>,
    /// DATA frames the router forwarded — the *observed* message count
    /// the closed-form property tests pin. Stale (dropped) frames are
    /// not counted here.
    pub data_frames: u64,
    /// Payload bytes across those frames.
    pub data_bytes: u64,
    /// Per-source frames dropped at hub ingress for carrying a dead
    /// incarnation's epoch.
    pub stale_frames: Vec<u64>,
    /// Per-destination frames that hit outbox backpressure (deferred,
    /// then delivered — never silently dropped).
    pub deferred_frames: Vec<u64>,
    /// Physical ranks quarantined out of the communicator.
    pub quarantined: Vec<usize>,
    /// Recovery telemetry.
    pub recovery: RankRecoveryStats,
    /// Parent wall-clock for the whole run (spawn to last RESULT).
    pub wall_seconds: f64,
}

enum RouterEvent {
    Result(usize, u32, Vec<f64>),
    Traffic(Vec<(String, OpTally)>),
    Failed(usize, String),
    Died(usize, u32),
    KillNow(usize, u32),
    BarrierArrive(usize, u32),
}

/// Everything the spawn/respawn path needs.
struct SpawnCtx<'a> {
    worker_bin: &'a Path,
    addr: String,
    program: &'a str,
    n: usize,
    args_env: String,
    deadline_ms: String,
    events_prefix: Option<String>,
    heartbeat_ms: u64,
}

impl SpawnCtx<'_> {
    fn spawn(&self, rank: usize, epoch: u32) -> std::io::Result<Child> {
        let mut cmd = Command::new(self.worker_bin);
        cmd.env(ENV_ADDR, &self.addr)
            .env(ENV_RANK, rank.to_string())
            .env(ENV_SIZE, self.n.to_string())
            .env(ENV_PROGRAM, self.program)
            .env(ENV_ARGS, &self.args_env)
            .env(ENV_DEADLINE_MS, &self.deadline_ms)
            .env(ENV_EPOCH, epoch.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        if self.heartbeat_ms > 0 {
            cmd.env(ENV_HEARTBEAT_MS, self.heartbeat_ms.to_string());
        }
        if let Some(prefix) = &self.events_prefix {
            cmd.env(ENV_EVENTS, prefix);
        }
        cmd.spawn()
    }
}

/// Hub-side shared state the router and writer threads see.
#[derive(Clone)]
struct HubShared {
    gate: Arc<EpochGate>,
    outboxes: Arc<Vec<Mutex<Option<SyncSender<Frame>>>>>,
    deferred: Arc<Vec<AtomicU64>>,
    stale: Arc<Vec<AtomicU64>>,
    last_seen: Arc<Vec<AtomicU64>>,
    data_frames: Arc<AtomicU64>,
    data_bytes: Arc<AtomicU64>,
    start: Instant,
}

impl HubShared {
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// Enqueues a frame to `dest`'s bounded outbox: try first, and on
    /// backpressure count the deferral and block until there is room.
    /// A closed outbox (dead or quarantined destination) drops.
    fn enqueue(&self, dest: usize, frame: Frame) {
        let guard = self.outboxes[dest].lock().expect("outbox lock");
        if let Some(tx) = guard.as_ref() {
            match tx.try_send(frame) {
                Ok(()) => {}
                Err(TrySendError::Full(frame)) => {
                    self.deferred[dest].fetch_add(1, Ordering::Relaxed);
                    let _ = tx.send(frame);
                }
                Err(TrySendError::Disconnected(_)) => {}
            }
        }
    }
}

/// One writer thread per worker incarnation: drains the bounded outbox
/// onto the socket. Exits on write error (dead peer unblocks senders
/// via channel disconnect) or when the outbox sender is replaced.
fn spawn_writer(mut stream: TcpStream) -> (SyncSender<Frame>, JoinHandle<()>) {
    let (tx, rx) = sync_channel::<Frame>(OUTBOX_CAP);
    let handle = std::thread::spawn(move || {
        while let Ok(frame) = rx.recv() {
            if write_frame(&mut stream, &frame).is_err() {
                break;
            }
        }
    });
    (tx, handle)
}

/// One router thread per worker incarnation: reads that socket,
/// updates liveness, drops stale-epoch frames at ingress, forwards
/// admitted DATA, and reports everything else to the supervisor.
fn spawn_router(
    mut reader: TcpStream,
    rank: usize,
    inc: u32,
    victim: Option<KillSpec>,
    shared: HubShared,
    ev_tx: Sender<RouterEvent>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut forwarded = 0u64;
        loop {
            match read_frame(&mut reader) {
                Ok(Some(frame)) => {
                    shared.last_seen[rank].store(shared.now_ms(), Ordering::Relaxed);
                    match frame.kind {
                        FrameKind::Heartbeat => {}
                        FrameKind::Data => {
                            if !shared.gate.admit(&frame) {
                                shared.stale[rank].fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                            shared.data_frames.fetch_add(1, Ordering::Relaxed);
                            shared
                                .data_bytes
                                .fetch_add(frame.payload.len() as u64, Ordering::Relaxed);
                            forwarded += 1;
                            let dest = frame.dest as usize;
                            if dest < shared.outboxes.len() {
                                shared.enqueue(dest, frame);
                            }
                            if let Some(k) = victim {
                                if forwarded == k.after_data_frames {
                                    let _ = ev_tx.send(RouterEvent::KillNow(rank, inc));
                                }
                            }
                        }
                        FrameKind::Barrier => {
                            if shared.gate.admit(&frame) {
                                let _ = ev_tx.send(RouterEvent::BarrierArrive(rank, frame.epoch));
                            } else {
                                shared.stale[rank].fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        FrameKind::Result => {
                            if shared.gate.admit(&frame) {
                                let values = frame.values().unwrap_or_default();
                                let _ = ev_tx.send(RouterEvent::Result(rank, frame.epoch, values));
                            } else {
                                shared.stale[rank].fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        FrameKind::Traffic if shared.gate.admit(&frame) => {
                            let text = String::from_utf8_lossy(&frame.payload).to_string();
                            if let Ok(ops) = TrafficStats::decode(&text) {
                                let _ = ev_tx.send(RouterEvent::Traffic(ops));
                            }
                        }
                        FrameKind::Error => {
                            let msg = String::from_utf8_lossy(&frame.payload).to_string();
                            let _ = ev_tx.send(RouterEvent::Failed(rank, msg));
                        }
                        _ => {}
                    }
                }
                Ok(None) | Err(_) => {
                    let _ = ev_tx.send(RouterEvent::Died(rank, inc));
                    break;
                }
            }
        }
    })
}

/// Accepts a HELLO on the (nonblocking) listener. `expect` pins the
/// rank a re-rendezvous must identify as; `None` accepts any rank
/// below `n` (initial spawn).
fn accept_hello(
    listener: &TcpListener,
    n: usize,
    expect: Option<usize>,
    deadline: Duration,
    overall_deadline: impl Fn() -> bool,
) -> CommResult<(usize, TcpStream)> {
    let start = Instant::now();
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nodelay(true).ok();
                let mut reader = stream
                    .try_clone()
                    .map_err(|e| CommError::Transport(format!("clone accept: {e}")))?;
                reader.set_read_timeout(Some(deadline)).ok();
                let hello = read_frame(&mut reader)
                    .map_err(|e| CommError::Transport(format!("hello: {e}")))?
                    .ok_or_else(|| CommError::Transport("worker closed before hello".into()))?;
                let src = hello.src as usize;
                if hello.kind != FrameKind::Hello || src >= n || expect.is_some_and(|r| r != src) {
                    return Err(CommError::Transport(format!(
                        "bad hello: {:?} src {}",
                        hello.kind, hello.src
                    )));
                }
                reader.set_read_timeout(None).ok();
                return Ok((src, reader));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if start.elapsed() >= deadline || overall_deadline() {
                    return Err(CommError::PeerTimeout {
                        rank: expect.unwrap_or(n),
                        op: "accept",
                        waited_ms: start.elapsed().as_millis() as u64,
                    });
                }
                std::thread::sleep(Duration::from_millis(POLL_SLICE_MS));
            }
            Err(e) => return Err(CommError::Transport(format!("accept: {e}"))),
        }
    }
}

/// Spawns `n` worker processes running `program` and routes their
/// frames until every live rank reports a RESULT at the current
/// generation. Typed failure, never a hang: with recovery off, worker
/// death → [`CommError::PeerGone`]; with recovery on, death → respawn
/// (up to the budget) → quarantine, and only a fully dead communicator
/// fails. A wedged cluster → [`CommError::PeerTimeout`] at the
/// deadline either way.
pub fn run_processes(
    worker_bin: &Path,
    program: &str,
    n: usize,
    opts: ProcessOpts,
) -> CommResult<ProcessRun> {
    assert!(n >= 1);
    let sw = mqmd_util::timer::Stopwatch::start();
    let start = Instant::now();
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| CommError::Transport(format!("bind: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(|e| CommError::Transport(format!("local addr: {e}")))?
        .to_string();
    listener.set_nonblocking(true).ok();

    // Fault plane: the parent is the "job scheduler" for its workers.
    // Straggler delays a spawn (and books the recovery, as the thread
    // backend does); WorkerKill arms the kill switch for one death; any
    // other kind has no meaning at a spawn and refuses the run.
    let mut kill = opts.kill;
    let mut spawn_delays: Vec<Option<Duration>> = vec![None; n];
    for (rank, slot) in spawn_delays.iter_mut().enumerate() {
        let site = faults::Site::Rank(rank as u64);
        match faults::poll(site) {
            Some(faults::FaultKind::Straggler { delay_us }) => {
                *slot = Some(Duration::from_micros(delay_us));
            }
            Some(faults::FaultKind::WorkerKill) => {
                kill.get_or_insert(KillSpec {
                    rank,
                    after_data_frames: 2,
                    repeat: 1,
                });
            }
            Some(kind) => {
                faults::record_abort("rank_fault_refused", site.describe(), 1);
                return Err(CommError::UnsupportedFault {
                    rank,
                    fault: kind.label(),
                });
            }
            None => {}
        }
    }

    let ctx = SpawnCtx {
        worker_bin,
        addr,
        program,
        n,
        args_env: opts
            .args
            .iter()
            .map(|v| format!("{v:e}"))
            .collect::<Vec<_>>()
            .join(","),
        deadline_ms: opts.deadline.as_millis().to_string(),
        events_prefix: opts.events_prefix.clone(),
        heartbeat_ms: opts.recovery.map(|r| r.heartbeat_ms).unwrap_or(0),
    };

    let mut children: Vec<Child> = Vec::with_capacity(n);
    for (rank, delay) in spawn_delays.iter().enumerate() {
        if let Some(delay) = *delay {
            std::thread::sleep(delay);
            faults::record_recovery(
                "straggler_wait",
                faults::Site::Rank(rank as u64).describe(),
                1,
                delay.as_secs_f64(),
            );
        }
        let child = ctx.spawn(rank, 0).map_err(|e| {
            for c in &mut children {
                let _ = c.kill();
            }
            CommError::Transport(format!("spawn {}: {e}", worker_bin.display()))
        })?;
        children.push(child);
    }

    let kill_all = |children: &mut Vec<Child>| {
        for c in children.iter_mut() {
            let _ = c.kill();
        }
        for c in children.iter_mut() {
            let _ = c.wait();
        }
    };

    // Accept n connections, identified by their HELLO frames.
    let mut sockets: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();
    let mut accepted = 0usize;
    while accepted < n {
        match accept_hello(&listener, n, None, opts.deadline, || {
            start.elapsed() >= opts.deadline
        }) {
            Ok((rank, stream)) => {
                if sockets[rank].is_some() {
                    kill_all(&mut children);
                    return Err(CommError::Transport(format!("duplicate hello rank {rank}")));
                }
                sockets[rank] = Some(stream);
                accepted += 1;
            }
            Err(e) => {
                kill_all(&mut children);
                return Err(e);
            }
        }
    }

    let shared = HubShared {
        gate: Arc::new(EpochGate::new(0)),
        outboxes: Arc::new((0..n).map(|_| Mutex::new(None)).collect()),
        deferred: Arc::new((0..n).map(|_| AtomicU64::new(0)).collect()),
        stale: Arc::new((0..n).map(|_| AtomicU64::new(0)).collect()),
        last_seen: Arc::new((0..n).map(|_| AtomicU64::new(0)).collect()),
        data_frames: Arc::new(AtomicU64::new(0)),
        data_bytes: Arc::new(AtomicU64::new(0)),
        start,
    };
    let (ev_tx, ev_rx): (Sender<RouterEvent>, Receiver<RouterEvent>) = channel();

    // Supervisor state.
    let mut gen: u32 = 0;
    let mut live: Vec<bool> = vec![true; n];
    let mut inc: Vec<u32> = vec![0; n];
    let mut restarts_used: Vec<u32> = vec![0; n];
    let mut results: Vec<Option<(u32, Vec<f64>)>> = vec![None; n];
    let mut arrived: Vec<bool> = vec![false; n];
    let mut suspect: Vec<bool> = vec![false; n];
    let mut quarantined: Vec<usize> = Vec::new();
    let mut stats = RankRecoveryStats::default();
    let mut kill_remaining: u32 = kill.map(|k| k.repeat).unwrap_or(0);
    let mut traffic: Vec<(String, OpTally)> = Vec::new();
    let mut routers: Vec<JoinHandle<()>> = Vec::new();
    let mut writer_joins: Vec<JoinHandle<()>> = Vec::new();

    let arm = |kill: Option<KillSpec>, rank: usize, kill_remaining: &mut u32| match kill {
        Some(k) if k.rank == rank && *kill_remaining > 0 => {
            *kill_remaining -= 1;
            Some(k)
        }
        _ => None,
    };

    // Install every writer outbox BEFORE spawning any router. Workers
    // start their program the moment they have sent HELLO, so an early
    // router can already be forwarding DATA while later ranks' outboxes
    // are still `None` — those frames would be silently dropped and the
    // alltoall would wedge. Two passes make the forwarding table total
    // before the first frame is read.
    let mut readers: Vec<TcpStream> = Vec::with_capacity(n);
    for (rank, slot) in sockets.iter_mut().enumerate() {
        let reader = slot.take().expect("all accepted");
        let writer_stream = reader
            .try_clone()
            .map_err(|e| CommError::Transport(format!("clone writer: {e}")))?;
        let (tx, wj) = spawn_writer(writer_stream);
        *shared.outboxes[rank].lock().expect("outbox lock") = Some(tx);
        writer_joins.push(wj);
        readers.push(reader);
    }
    for (rank, reader) in readers.into_iter().enumerate() {
        let victim = arm(kill, rank, &mut kill_remaining);
        shared.last_seen[rank].store(shared.now_ms(), Ordering::Relaxed);
        routers.push(spawn_router(
            reader,
            rank,
            0,
            victim,
            shared.clone(),
            ev_tx.clone(),
        ));
    }

    let broadcast = |shared: &HubShared,
                     live: &[bool],
                     kind: FrameKind,
                     src: usize,
                     epoch: u32,
                     except: Option<usize>| {
        for (dest, &alive) in live.iter().enumerate() {
            if alive && Some(dest) != except {
                shared.enqueue(
                    dest,
                    Frame::control(kind, src as u32, dest as u32).at_epoch(epoch),
                );
            }
        }
    };

    let live_count = |live: &[bool]| live.iter().filter(|&&l| l).count();

    let failure: Option<CommError> = 'run: loop {
        // Completion: every live rank has a RESULT at the current gen.
        if (0..n)
            .filter(|&r| live[r])
            .all(|r| matches!(results[r], Some((e, _)) if e == gen))
        {
            broadcast(&shared, &live, FrameKind::Complete, 0, gen, None);
            break None;
        }
        if start.elapsed() >= opts.deadline {
            if std::env::var("MQMD_HUB_DEBUG").is_ok() {
                eprintln!(
                    "hub timeout: gen={gen} data_frames={} results={:?} stale={:?} deferred={:?} last_seen_ms_ago={:?}",
                    shared.data_frames.load(Ordering::Relaxed),
                    results
                        .iter()
                        .map(|r| r.as_ref().map(|(e, _)| *e))
                        .collect::<Vec<_>>(),
                    shared
                        .stale
                        .iter()
                        .map(|a| a.load(Ordering::Relaxed))
                        .collect::<Vec<_>>(),
                    shared
                        .deferred
                        .iter()
                        .map(|a| a.load(Ordering::Relaxed))
                        .collect::<Vec<_>>(),
                    shared
                        .last_seen
                        .iter()
                        .map(|a| shared.now_ms().saturating_sub(a.load(Ordering::Relaxed)))
                        .collect::<Vec<_>>(),
                );
            }
            break Some(CommError::PeerTimeout {
                rank: n,
                op: "run_processes",
                waited_ms: start.elapsed().as_millis() as u64,
            });
        }

        let slice = Duration::from_millis(25).min(
            opts.deadline
                .checked_sub(start.elapsed())
                .unwrap_or(Duration::from_millis(1))
                .max(Duration::from_millis(1)),
        );
        let ev = match ev_rx.recv_timeout(slice) {
            Ok(ev) => Some(ev),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => {
                break Some(CommError::Transport("all routers exited early".into()));
            }
        };

        // Heartbeat monitor: alive → suspect → dead on missed beats.
        let mut dead_by_silence: Option<usize> = None;
        if let Some(rec) = opts.recovery {
            let now = shared.now_ms();
            for r in 0..n {
                if !live[r] {
                    continue;
                }
                let silent = now.saturating_sub(shared.last_seen[r].load(Ordering::Relaxed));
                if silent > rec.dead_after_ms {
                    dead_by_silence = Some(r);
                } else if silent > rec.suspect_after_ms {
                    if !suspect[r] {
                        suspect[r] = true;
                        stats.suspects += 1;
                    }
                } else {
                    suspect[r] = false;
                }
            }
        }

        // Death handling (EOF-detected or heartbeat-detected).
        let mut dead: Option<usize> = None;
        match ev {
            Some(RouterEvent::Result(rank, epoch, values)) if live[rank] && epoch == gen => {
                results[rank] = Some((epoch, values));
            }
            Some(RouterEvent::Traffic(ops)) => traffic = ops,
            Some(RouterEvent::KillNow(rank, i)) if i == inc[rank] && live[rank] => {
                let _ = children[rank].kill();
            }
            Some(RouterEvent::Failed(rank, msg)) => {
                break Some(CommError::Transport(format!("rank {rank}: {msg}")));
            }
            Some(RouterEvent::Died(rank, i)) if i == inc[rank] && live[rank] => {
                dead = Some(rank);
            }
            Some(RouterEvent::BarrierArrive(rank, epoch))
                if live[rank] && epoch == gen && !arrived[rank] =>
            {
                arrived[rank] = true;
                if arrived
                    .iter()
                    .zip(&live)
                    .filter(|(a, l)| **a && **l)
                    .count()
                    == live_count(&live)
                {
                    arrived.iter_mut().for_each(|a| *a = false);
                    broadcast(&shared, &live, FrameKind::BarrierRelease, 0, gen, None);
                }
            }
            // Guard-failed events (stale generation, already-dead rank,
            // superseded incarnation) are dropped here, as is an idle tick.
            _ => {}
        }
        if dead.is_none() {
            dead = dead_by_silence.filter(|&r| live[r]);
        }

        let Some(rank) = dead else { continue 'run };

        // --- The state machine's *dead* node. ---
        let Some(rec) = opts.recovery else {
            // Legacy fail-fast: unblock survivors typed, then fail.
            broadcast(&shared, &live, FrameKind::PeerGone, rank, gen, Some(rank));
            break Some(CommError::PeerGone {
                rank,
                op: "run_processes",
            });
        };

        let now = shared.now_ms();
        stats
            .detect_ms
            .push(now.saturating_sub(shared.last_seen[rank].load(Ordering::Relaxed)) as f64);
        let _ = children[rank].kill();
        let _ = children[rank].wait();
        suspect[rank] = false;
        restarts_used[rank] += 1;

        // Either path reconfigures the communicator: bump the
        // generation, drop in-flight state from the old one.
        gen += 1;
        shared.gate.advance(gen);
        arrived.iter_mut().for_each(|a| *a = false);
        results.iter_mut().for_each(|r| *r = None);

        if restarts_used[rank] <= rec.max_restarts {
            // --- respawning → rejoined ---
            let fence_at = Instant::now();
            std::thread::sleep(respawn_backoff(&rec, rank, restarts_used[rank]));
            inc[rank] += 1;
            let child = match ctx.spawn(rank, gen) {
                Ok(c) => c,
                Err(e) => break Some(CommError::Transport(format!("respawn rank {rank}: {e}"))),
            };
            children[rank] = child;
            stats
                .respawn_ms
                .push(fence_at.elapsed().as_secs_f64() * 1e3);
            let (_, reader) = match accept_hello(&listener, n, Some(rank), opts.deadline, || {
                start.elapsed() >= opts.deadline
            }) {
                Ok(v) => v,
                Err(e) => break Some(e),
            };
            let writer_stream = match reader.try_clone() {
                Ok(s) => s,
                Err(e) => break Some(CommError::Transport(format!("clone writer: {e}"))),
            };
            let (tx, wj) = spawn_writer(writer_stream);
            *shared.outboxes[rank].lock().expect("outbox lock") = Some(tx);
            writer_joins.push(wj);
            let victim = arm(kill, rank, &mut kill_remaining);
            shared.last_seen[rank].store(shared.now_ms(), Ordering::Relaxed);
            routers.push(spawn_router(
                reader,
                rank,
                inc[rank],
                victim,
                shared.clone(),
                ev_tx.clone(),
            ));
            stats.rejoin_ms.push(fence_at.elapsed().as_secs_f64() * 1e3);
            stats.restarts += 1;
            // Only now — with the reborn rank's outbox live — fence the
            // survivors into the new generation.
            broadcast(&shared, &live, FrameKind::Restarted, rank, gen, Some(rank));
            faults::record_recovery(
                "rank_respawn",
                faults::Site::Rank(rank as u64).describe(),
                1,
                fence_at.elapsed().as_secs_f64(),
            );
        } else {
            // --- quarantined: shrink the communicator. ---
            live[rank] = false;
            *shared.outboxes[rank].lock().expect("outbox lock") = None;
            quarantined.push(rank);
            stats.quarantines += 1;
            broadcast(&shared, &live, FrameKind::Quarantined, rank, gen, None);
            faults::record_recovery(
                "rank_quarantine",
                faults::Site::Rank(rank as u64).describe(),
                1,
                0.0,
            );
            if live_count(&live) == 0 {
                break Some(CommError::PeerGone {
                    rank,
                    op: "run_processes",
                });
            }
        }
    };

    if failure.is_some() {
        kill_all(&mut children);
    } else {
        for c in children.iter_mut() {
            let _ = c.wait();
        }
    }
    for ob in shared.outboxes.iter() {
        *ob.lock().expect("outbox lock") = None;
    }
    for w in writer_joins {
        let _ = w.join();
    }
    drop(ev_tx);
    for r in routers {
        let _ = r.join();
    }
    if let Some(e) = failure {
        return Err(e);
    }
    Ok(ProcessRun {
        results: results
            .into_iter()
            .enumerate()
            .map(|(r, v)| {
                if live[r] {
                    v.expect("all live finished").1
                } else {
                    Vec::new()
                }
            })
            .collect(),
        traffic,
        data_frames: shared.data_frames.load(Ordering::Relaxed),
        data_bytes: shared.data_bytes.load(Ordering::Relaxed),
        stale_frames: shared
            .stale
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect(),
        deferred_frames: shared
            .deferred
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect(),
        quarantined,
        recovery: stats,
        wall_seconds: sw.seconds(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_opts_have_a_deadline() {
        // The invariant the hang-freedom claim rests on.
        let opts = ProcessOpts::default();
        assert!(opts.deadline > Duration::ZERO);
        assert!(opts.kill.is_none());
        assert!(opts.recovery.is_none(), "recovery is opt-in");
    }

    #[test]
    fn worker_from_env_is_inert_outside_workers() {
        // No MQMD_RANK_ADDR in the test environment: the entry point
        // must decline so binaries fall through to their normal CLI.
        assert!(worker_from_env(&[]).is_none());
    }

    #[test]
    fn logical_rank_remap_skips_quarantined() {
        // 4 ranks, physical 1 quarantined: logical ids renumber.
        let q = vec![1usize];
        assert_eq!(logical_to_physical(&q, 4, 0), Some(0));
        assert_eq!(logical_to_physical(&q, 4, 1), Some(2));
        assert_eq!(logical_to_physical(&q, 4, 2), Some(3));
        assert_eq!(logical_to_physical(&q, 4, 3), None);
        assert_eq!(physical_to_logical(&q, 0), 0);
        assert_eq!(physical_to_logical(&q, 2), 1);
        assert_eq!(physical_to_logical(&q, 3), 2);
        // Identity when nothing is quarantined.
        for r in 0..4 {
            assert_eq!(logical_to_physical(&[], 4, r), Some(r));
            assert_eq!(physical_to_logical(&[], r), r);
        }
    }

    #[test]
    fn respawn_backoff_is_seeded_and_bounded() {
        let rec = RecoveryOpts::default();
        let a = respawn_backoff(&rec, 2, 1);
        let b = respawn_backoff(&rec, 2, 1);
        assert_eq!(a, b, "deterministic per (seed, rank, attempt)");
        let pool: Vec<Duration> = (0..16).map(|rank| respawn_backoff(&rec, rank, 3)).collect();
        assert!(
            pool.iter().any(|d| *d != pool[0]),
            "ranks jitter apart (no thundering herd): {pool:?}"
        );
        for rank in 0..8 {
            for attempt in 1..10 {
                let d = respawn_backoff(&rec, rank, attempt);
                assert!(d >= Duration::from_millis(rec.backoff_base_ms));
                assert!(d <= Duration::from_millis(250));
            }
        }
    }

    #[test]
    fn recovery_defaults_order_the_liveness_thresholds() {
        let rec = RecoveryOpts::default();
        assert!(rec.heartbeat_ms < rec.suspect_after_ms);
        assert!(rec.suspect_after_ms < rec.dead_after_ms);
        assert!(rec.max_restarts >= 1);
    }

    #[test]
    fn rank_recovery_block_carries_the_stats() {
        let s = RankRecoveryStats {
            restarts: 2,
            quarantines: 1,
            suspects: 3,
            detect_ms: vec![120.5, 98.0],
            respawn_ms: vec![6.25, 11.0],
            rejoin_ms: vec![40.0, 37.5],
        };
        let block = mqmd_util::metrics::parse_json(&rank_recovery_block(&s).pretty()).unwrap();
        let u = |key: &str| block.get(key).and_then(Json::as_u64);
        assert_eq!(
            (u("restarts"), u("quarantines"), u("suspects")),
            (Some(2), Some(1), Some(3))
        );
        let arr = |key: &str| -> Vec<f64> {
            block
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .filter_map(Json::as_f64)
                .collect()
        };
        assert_eq!(arr("detect_ms"), s.detect_ms);
        assert_eq!(arr("respawn_ms"), s.respawn_ms);
        assert_eq!(arr("rejoin_ms"), s.rejoin_ms);
    }
}
