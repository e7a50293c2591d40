//! Transport-agnostic communicator: the one interface every backend
//! speaks.
//!
//! The paper's code is MPI everywhere (§3.3). Before this module, the
//! workspace had exactly one way to *execute* a rank program — the
//! in-process thread executor — and one way to *price* it — the Hockney
//! cost models in [`crate::collectives`]. The [`Comm`] trait splits the
//! programming model from the transport so the same rank program runs
//! unchanged on:
//!
//! * [`SingleRank`] — one rank, no transport: every collective is the
//!   identity;
//! * [`ThreadComm`](crate::executor::ThreadComm) — ranks as threads,
//!   channels as links, every message priced by the machine model;
//! * [`SocketComm`](crate::process::SocketComm) — ranks as real
//!   processes, length-prefixed frames over loopback TCP;
//! * the measured cost model, retained as a **digital twin**
//!   ([`crate::twin`]) that replays the recorded [`TrafficStats`] and
//!   predicts what the wall clock should have been.
//!
//! The collectives — binomial-tree allreduce, ring halo exchange,
//! pairwise all-to-all, gather+broadcast allgather — are *provided
//! methods* built on the three primitives (`send_to`, `recv_from`,
//! `barrier`), so every backend shares one algorithm. That sharing is
//! what makes the bitwise acceptance criterion meaningful: a thread run
//! and a 4-process run reduce in the identical tree order, so `f64`
//! sums agree to the last ulp.
//!
//! **Determinism.** `recv_from` is addressed by *source rank* and every
//! backend delivers per-source FIFO. The collectives fold children in a
//! fixed order (ascending binomial-child order), never in arrival
//! order — arrival-order folding would make `a+(b+c)` vs `(a+b)+c`
//! races visible in the last bits of the global density.
//!
//! **Hung-rank detection.** Every blocking primitive takes the
//! communicator's deadline into account and returns a typed
//! [`CommError::PeerTimeout`] instead of blocking forever; the
//! service-plane cancellation token ([`mqmd_util::cancel`]) is polled on
//! the same slice cadence, so a job deadline propagates into a
//! collective mid-flight as [`CommError::Cancelled`].

use mqmd_util::cancel::CancelReason;
use mqmd_util::MqmdError;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Mutex;

/// How long a blocking primitive sleeps between deadline/cancel polls.
pub const POLL_SLICE_MS: u64 = 5;

/// Typed communication failure. Every variant names the collective (or
/// primitive) that observed it, so a hang diagnoses as "allreduce_sum
/// waited 2000 ms on rank 3", not a stuck process.
#[derive(Debug, Clone, PartialEq)]
pub enum CommError {
    /// A peer did not produce the expected message/barrier arrival
    /// before the deadline.
    PeerTimeout {
        rank: usize,
        op: &'static str,
        waited_ms: u64,
    },
    /// A peer process died (socket EOF before its RESULT frame).
    PeerGone { rank: usize, op: &'static str },
    /// A peer process died and the supervisor respawned it; `epoch` is
    /// the new communicator generation. Recoverable: call
    /// [`Comm::recovery_fence`] and replay from the last replicated
    /// state.
    PeerRestarted { rank: usize, epoch: u32 },
    /// A peer exhausted its restart budget and was quarantined; `epoch`
    /// is the new generation of the shrunk communicator. Recoverable:
    /// fence, then re-derive ownership from the new `rank()`/`size()`.
    PeerQuarantined { rank: usize, epoch: u32 },
    /// The service plane cancelled the job while a primitive was
    /// blocked; the reason is the cancel token's.
    Cancelled {
        op: &'static str,
        reason: CancelReason,
    },
    /// Transport-level failure (socket error, malformed frame, spawn
    /// failure).
    Transport(String),
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::PeerTimeout {
                rank,
                op,
                waited_ms,
            } => write!(
                f,
                "{op}: timed out after {waited_ms} ms waiting on rank {rank}"
            ),
            CommError::PeerGone { rank, op } => write!(f, "{op}: rank {rank} is gone"),
            CommError::PeerRestarted { rank, epoch } => {
                write!(
                    f,
                    "rank {rank} restarted; communicator now at epoch {epoch}"
                )
            }
            CommError::PeerQuarantined { rank, epoch } => {
                write!(
                    f,
                    "rank {rank} quarantined; shrunk communicator at epoch {epoch}"
                )
            }
            CommError::Cancelled { op, reason } => {
                write!(f, "{op}: cancelled ({})", reason.label())
            }
            CommError::Transport(msg) => write!(f, "transport failure: {msg}"),
        }
    }
}

impl std::error::Error for CommError {}

impl From<CommError> for MqmdError {
    fn from(e: CommError) -> Self {
        match e {
            CommError::Cancelled { op, reason } => MqmdError::Cancelled {
                what: op.to_string(),
                reason,
            },
            other => MqmdError::Io(other.to_string()),
        }
    }
}

/// Communication result alias.
pub type CommResult<T> = std::result::Result<T, CommError>;

/// A rank program shared by every backend: the same function pointer
/// runs on a thread under [`ThreadComm`](crate::executor::ThreadComm)
/// and inside a worker process under
/// [`SocketComm`](crate::process::SocketComm). Keeping one registry of
/// these is what guarantees the two backends compute bitwise-identical
/// results.
pub type RankProgram = fn(&dyn Comm, &[f64]) -> CommResult<Vec<f64>>;

// ---------------------------------------------------------------------------
// Traffic ledger (the digital twin's input)
// ---------------------------------------------------------------------------

/// Per-collective tally: calls, closed-form message/byte totals across
/// the whole communicator, and rank-0 wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpTally {
    pub calls: u64,
    pub msgs: u64,
    pub bytes: u64,
    pub seconds: f64,
}

/// Ledger of executed collective traffic, recorded by rank 0 of each
/// collective using the analytic closed forms (allreduce `2·(p−1)`
/// messages, all-to-all `p·(p−1)`, …) plus a rank-0 stopwatch. The
/// digital twin replays this ledger through the cost model to predict
/// what each collective *should* have cost.
#[derive(Debug, Default)]
pub struct TrafficStats {
    ops: Mutex<BTreeMap<&'static str, OpTally>>,
}

impl TrafficStats {
    /// Books one collective call.
    pub fn record(&self, op: &'static str, msgs: u64, bytes: u64, seconds: f64) {
        let mut ops = self.ops.lock().expect("traffic lock");
        let t = ops.entry(op).or_default();
        t.calls += 1;
        t.msgs += msgs;
        t.bytes += bytes;
        t.seconds += seconds;
    }

    /// Snapshot in deterministic (op-name) order.
    pub fn snapshot(&self) -> Vec<(String, OpTally)> {
        self.ops
            .lock()
            .expect("traffic lock")
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect()
    }

    /// Compact single-line encoding for the wire (`TRAFFIC` frame):
    /// `op:calls:msgs:bytes:seconds;…`.
    pub fn encode(&self) -> String {
        self.snapshot()
            .iter()
            .map(|(op, t)| format!("{op}:{}:{}:{}:{:e}", t.calls, t.msgs, t.bytes, t.seconds))
            .collect::<Vec<_>>()
            .join(";")
    }

    /// Parses [`TrafficStats::encode`] output. Op names are interned
    /// (leaked) — the vocabulary is the fixed collective set.
    pub fn decode(text: &str) -> CommResult<Vec<(String, OpTally)>> {
        let mut out = Vec::new();
        for item in text.split(';').filter(|s| !s.is_empty()) {
            let parts: Vec<&str> = item.split(':').collect();
            if parts.len() != 5 {
                return Err(CommError::Transport(format!("bad traffic item: {item}")));
            }
            let parse_u = |s: &str| {
                s.parse::<u64>()
                    .map_err(|_| CommError::Transport(format!("bad traffic count: {s}")))
            };
            out.push((
                parts[0].to_string(),
                OpTally {
                    calls: parse_u(parts[1])?,
                    msgs: parse_u(parts[2])?,
                    bytes: parse_u(parts[3])?,
                    seconds: parts[4].parse::<f64>().map_err(|_| {
                        CommError::Transport(format!("bad traffic secs: {}", parts[4]))
                    })?,
                },
            ));
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Binomial tree helpers
// ---------------------------------------------------------------------------

/// Binomial-tree parent: clear the lowest set bit. Rank 0 is the root.
pub fn binomial_parent(rank: usize) -> usize {
    debug_assert!(rank > 0);
    rank & (rank - 1)
}

/// Binomial-tree children of `rank` in a `size`-rank communicator:
/// `rank + 2^j` for each `j` below the rank's lowest set bit (rank 0:
/// every power of two), ascending.
pub fn binomial_children(rank: usize, size: usize) -> Vec<usize> {
    let lsb = if rank == 0 {
        usize::BITS
    } else {
        rank.trailing_zeros()
    };
    (0..lsb)
        .map(|j| rank + (1usize << j))
        .take_while(|&c| c < size)
        .collect()
}

// ---------------------------------------------------------------------------
// The trait
// ---------------------------------------------------------------------------

/// Transport-agnostic communicator. Backends implement the three
/// primitives; the collectives are provided methods so every transport
/// runs the identical algorithm (and therefore the identical `f64`
/// reduction order).
pub trait Comm: Sync {
    /// This rank's id.
    fn rank(&self) -> usize;

    /// Communicator size.
    fn size(&self) -> usize;

    /// Sends `data` to `dest`. Non-blocking (unbounded buffering):
    /// deadlock-freedom of the provided collectives relies on sends
    /// never waiting for the receiver.
    fn send_to(&self, dest: usize, data: &[f64]) -> CommResult<()>;

    /// Receives the next message *from `src`* (per-source FIFO).
    /// Blocks until the message arrives, the communicator deadline
    /// expires ([`CommError::PeerTimeout`]), or the ambient cancel
    /// token aborts ([`CommError::Cancelled`]). `op` names the caller
    /// for diagnostics.
    fn recv_from(&self, src: usize, op: &'static str) -> CommResult<Vec<f64>>;

    /// Blocks until every rank arrives, with the same deadline/cancel
    /// semantics as `recv_from`.
    fn barrier(&self) -> CommResult<()>;

    /// Acknowledges a pending [`CommError::PeerRestarted`] /
    /// [`CommError::PeerQuarantined`] and reconfigures the communicator
    /// to the new generation: stale in-flight state is purged, and
    /// after a quarantine `rank()`/`size()` reflect the shrunk
    /// communicator. Rank programs that want to survive peer rebirth
    /// call this on those errors and replay from replicated state;
    /// backends without recovery (the thread executor) keep the default
    /// no-op.
    fn recovery_fence(&self) -> CommResult<()> {
        Ok(())
    }

    /// The executed-collective ledger the digital twin replays.
    fn traffic(&self) -> &TrafficStats;

    /// Element-wise sum allreduce: binomial-tree reduction to rank 0,
    /// children folded in ascending order, then a binomial-tree
    /// broadcast. Exactly `2·(p−1)` messages — the structure
    /// [`allreduce_time`](crate::collectives::allreduce_time) prices.
    fn allreduce_sum(&self, mut data: Vec<f64>) -> CommResult<Vec<f64>> {
        let (rank, p) = (self.rank(), self.size());
        if p == 1 {
            return Ok(data);
        }
        let sw = mqmd_util::timer::Stopwatch::start();
        let payload_bytes = (data.len() * std::mem::size_of::<f64>()) as u64;
        for child in binomial_children(rank, p) {
            let other = self.recv_from(child, "allreduce_sum")?;
            if other.len() != data.len() {
                return Err(CommError::Transport(format!(
                    "allreduce length mismatch: {} vs {}",
                    other.len(),
                    data.len()
                )));
            }
            for (a, b) in data.iter_mut().zip(other) {
                *a += b;
            }
        }
        if rank != 0 {
            self.send_to(binomial_parent(rank), &data)?;
            data = self.recv_from(binomial_parent(rank), "allreduce_sum")?;
        }
        for child in binomial_children(rank, p) {
            self.send_to(child, &data)?;
        }
        // One ledger entry and one structured event per collective,
        // booked by rank 0 only, with the analytic message count.
        if rank == 0 {
            let msgs = 2 * (p as u64 - 1);
            let secs = sw.seconds();
            self.traffic()
                .record("allreduce_sum", msgs, msgs * payload_bytes, secs);
            mqmd_util::events::emit(mqmd_util::events::Event::CollectiveDone {
                op: "allreduce_sum",
                ranks: p as u32,
                bytes: payload_bytes,
                seconds: secs,
            });
        }
        Ok(data)
    }

    /// Broadcast from rank 0 down the binomial tree: `p−1` messages.
    fn broadcast(&self, data: Vec<f64>) -> CommResult<Vec<f64>> {
        let (rank, p) = (self.rank(), self.size());
        if p == 1 {
            return Ok(data);
        }
        let sw = mqmd_util::timer::Stopwatch::start();
        let data = if rank == 0 {
            data
        } else {
            self.recv_from(binomial_parent(rank), "broadcast")?
        };
        for child in binomial_children(rank, p) {
            self.send_to(child, &data)?;
        }
        if rank == 0 {
            let payload_bytes = (data.len() * std::mem::size_of::<f64>()) as u64;
            let msgs = p as u64 - 1;
            self.traffic()
                .record("broadcast", msgs, msgs * payload_bytes, sw.seconds());
        }
        Ok(data)
    }

    /// Gathers every rank's slice to rank 0, concatenates in rank
    /// order, and broadcasts the concatenation: `2·(p−1)` messages.
    /// All ranks must contribute the same length (the concatenation is
    /// sliced by rank on the way out of the tree broadcast).
    fn allgather_concat(&self, data: &[f64]) -> CommResult<Vec<f64>> {
        let (rank, p) = (self.rank(), self.size());
        if p == 1 {
            return Ok(data.to_vec());
        }
        let sw = mqmd_util::timer::Stopwatch::start();
        // Direct gather to rank 0 in rank order, then tree broadcast.
        if rank == 0 {
            let mut all = data.to_vec();
            for src in 1..p {
                let part = self.recv_from(src, "allgather_concat")?;
                if part.len() != data.len() {
                    return Err(CommError::Transport(format!(
                        "allgather length mismatch: rank {src} sent {} expected {}",
                        part.len(),
                        data.len()
                    )));
                }
                all.extend_from_slice(&part);
            }
            for child in binomial_children(0, p) {
                self.send_to(child, &all)?;
            }
            let msgs = 2 * (p as u64 - 1);
            let total = (all.len() * std::mem::size_of::<f64>()) as u64;
            // Gather legs carry one slice each; broadcast legs the
            // whole concatenation.
            let bytes = (p as u64 - 1) * (data.len() * 8) as u64 + (p as u64 - 1) * total;
            self.traffic()
                .record("allgather_concat", msgs, bytes, sw.seconds());
            Ok(all)
        } else {
            self.send_to(0, data)?;
            let all = self.recv_from(binomial_parent(rank), "allgather_concat")?;
            for child in binomial_children(rank, p) {
                self.send_to(child, &all)?;
            }
            Ok(all)
        }
    }

    /// Periodic ring halo exchange — the BSD nearest-neighbour buffer
    /// exchange. Sends `left` to rank−1 and `right` to rank+1 (mod p),
    /// returns `(from_left, from_right)`: the right-going payload of
    /// the left neighbour and the left-going payload of the right
    /// neighbour. `2p` messages total.
    ///
    /// Send order (left-going first) is fixed so that at `p = 2`,
    /// where both neighbours are the same rank, per-source FIFO
    /// disambiguates direction.
    fn halo_exchange(&self, left: &[f64], right: &[f64]) -> CommResult<(Vec<f64>, Vec<f64>)> {
        let (rank, p) = (self.rank(), self.size());
        if p == 1 {
            // Periodic wrap onto itself.
            return Ok((right.to_vec(), left.to_vec()));
        }
        let sw = mqmd_util::timer::Stopwatch::start();
        let left_nb = (rank + p - 1) % p;
        let right_nb = (rank + 1) % p;
        self.send_to(left_nb, left)?;
        self.send_to(right_nb, right)?;
        // First message from the right neighbour is its left-going
        // payload; first from the left neighbour would be *its*
        // left-going payload, so at p = 2 receive right first.
        let from_right = self.recv_from(right_nb, "halo_exchange")?;
        let from_left = self.recv_from(left_nb, "halo_exchange")?;
        if rank == 0 {
            let per_rank = ((left.len() + right.len()) * std::mem::size_of::<f64>()) as u64;
            self.traffic().record(
                "halo_exchange",
                2 * p as u64,
                p as u64 * per_rank,
                sw.seconds(),
            );
        }
        Ok((from_left, from_right))
    }

    /// Pairwise all-to-all personalised exchange: round `r` sends
    /// `per_dest[(rank+r)%p]` to rank `(rank+r)%p` and receives from
    /// rank `(rank−r)%p` — `p·(p−1)` messages total, the schedule
    /// [`alltoall_time`](crate::collectives::alltoall_time) prices.
    /// `per_dest[rank]` is returned in place without touching the
    /// wire.
    fn alltoall(&self, per_dest: &[Vec<f64>]) -> CommResult<Vec<Vec<f64>>> {
        let (rank, p) = (self.rank(), self.size());
        if per_dest.len() != p {
            return Err(CommError::Transport(format!(
                "alltoall needs {p} blocks, got {}",
                per_dest.len()
            )));
        }
        if p == 1 {
            return Ok(vec![per_dest[0].clone()]);
        }
        let sw = mqmd_util::timer::Stopwatch::start();
        let mut out: Vec<Vec<f64>> = vec![Vec::new(); p];
        out[rank] = per_dest[rank].clone();
        for r in 1..p {
            let dest = (rank + r) % p;
            let src = (rank + p - r) % p;
            self.send_to(dest, &per_dest[dest])?;
            out[src] = self.recv_from(src, "alltoall")?;
        }
        if rank == 0 {
            let per_rank: u64 = per_dest
                .iter()
                .enumerate()
                .filter(|(d, _)| *d != rank)
                .map(|(_, b)| (b.len() * std::mem::size_of::<f64>()) as u64)
                .sum();
            self.traffic().record(
                "alltoall",
                (p * (p - 1)) as u64,
                p as u64 * per_rank,
                sw.seconds(),
            );
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// The single-rank communicator
// ---------------------------------------------------------------------------

/// Rank 0 of 1: what a rank program runs on when there are no peers. Every
/// provided collective returns early at `p == 1`, so none reaches the
/// point-to-point primitives — which have nobody to address and return a
/// typed [`CommError::Transport`].
#[derive(Debug, Default)]
pub struct SingleRank {
    traffic: TrafficStats,
}

impl Comm for SingleRank {
    fn rank(&self) -> usize {
        0
    }

    fn size(&self) -> usize {
        1
    }

    fn send_to(&self, dest: usize, _data: &[f64]) -> CommResult<()> {
        Err(CommError::Transport(format!(
            "single-rank communicator has no rank {dest} to send to"
        )))
    }

    fn recv_from(&self, src: usize, op: &'static str) -> CommResult<Vec<f64>> {
        Err(CommError::Transport(format!(
            "{op}: single-rank communicator has no rank {src} to receive from"
        )))
    }

    fn barrier(&self) -> CommResult<()> {
        Ok(())
    }

    fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_collectives_are_identities() {
        let comm = SingleRank::default();
        assert_eq!((comm.rank(), comm.size()), (0, 1));
        let v = vec![1.5, -2.0, f64::MIN_POSITIVE];
        assert_eq!(comm.allreduce_sum(v.clone()).unwrap(), v);
        assert_eq!(comm.broadcast(v.clone()).unwrap(), v);
        assert_eq!(comm.allgather_concat(&v).unwrap(), v);
        // The periodic ring wraps onto the rank itself.
        let (from_left, from_right) = comm.halo_exchange(&v[..1], &v[1..]).unwrap();
        assert_eq!(
            (from_left.as_slice(), from_right.as_slice()),
            (&v[1..], &v[..1])
        );
        assert_eq!(
            comm.alltoall(std::slice::from_ref(&v)).unwrap(),
            vec![v.clone()]
        );
        comm.barrier().unwrap();
        comm.recovery_fence().unwrap();
        assert!(
            comm.traffic().snapshot().is_empty(),
            "nothing crossed a wire"
        );
        // No peer to address: typed errors, never a hang or a panic.
        assert!(matches!(comm.send_to(1, &v), Err(CommError::Transport(_))));
        assert!(matches!(
            comm.recv_from(0, "test"),
            Err(CommError::Transport(_))
        ));
    }

    #[test]
    fn binomial_tree_is_consistent() {
        for n in [1usize, 2, 3, 5, 7, 8, 13, 16] {
            for rank in 1..n {
                let parent = binomial_parent(rank);
                assert!(parent < rank);
                assert!(
                    binomial_children(parent, n).contains(&rank),
                    "rank {rank} of {n}"
                );
            }
            let mut reachable: Vec<usize> = (0..n).flat_map(|r| binomial_children(r, n)).collect();
            reachable.sort_unstable();
            assert_eq!(reachable, (1..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn traffic_round_trips_through_encode() {
        let t = TrafficStats::default();
        t.record("allreduce_sum", 6, 192, 1.5e-3);
        t.record("alltoall", 12, 960, 2.0e-4);
        t.record("allreduce_sum", 6, 192, 0.5e-3);
        let text = t.encode();
        let back = TrafficStats::decode(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].0, "allreduce_sum");
        assert_eq!(back[0].1.calls, 2);
        assert_eq!(back[0].1.msgs, 12);
        assert_eq!(back[0].1.bytes, 384);
        assert!((back[0].1.seconds - 2e-3).abs() < 1e-12);
        assert_eq!(back[1].0, "alltoall");
    }

    #[test]
    fn traffic_decode_rejects_garbage() {
        assert!(TrafficStats::decode("allreduce:1:2").is_err());
        assert!(TrafficStats::decode("op:a:b:c:d").is_err());
        assert_eq!(TrafficStats::decode("").unwrap().len(), 0);
    }

    #[test]
    fn errors_display_and_convert() {
        let e = CommError::PeerTimeout {
            rank: 3,
            op: "allreduce_sum",
            waited_ms: 2000,
        };
        assert!(e.to_string().contains("rank 3"));
        let m: MqmdError = e.into();
        assert!(matches!(m, MqmdError::Io(_)));
        let c = CommError::Cancelled {
            op: "barrier",
            reason: CancelReason::Deadline,
        };
        let m: MqmdError = c.into();
        assert!(matches!(m, MqmdError::Cancelled { .. }));
        let r = CommError::PeerRestarted { rank: 2, epoch: 1 };
        assert!(r.to_string().contains("epoch 1"));
        let m: MqmdError = r.into();
        assert!(matches!(m, MqmdError::Io(_)));
        let q = CommError::PeerQuarantined { rank: 2, epoch: 3 };
        assert!(q.to_string().contains("quarantined"));
    }
}
