//! Length-prefixed frame codec for the real rank transport.
//!
//! The multi-process backend ([`crate::process`]) is hub-and-spoke: each
//! worker holds one stream to the parent, and every message — data,
//! barrier arrivals, results, heartbeats, the traffic ledger — travels
//! as one [`Frame`]. The layout is deliberately boring:
//!
//! ```text
//! u32 payload_len | u8 kind | u32 src | u32 dest | u32 epoch | payload
//! ```
//!
//! all little-endian, payloads of `DATA`/`RESULT` frames being packed
//! `f64` little-endian words. `f64 → 8 bytes → f64` is exact (no text
//! round-trip), which is one of the two halves of the bitwise
//! thread-vs-process acceptance criterion; the other half is the shared
//! deterministic collectives in [`crate::comm`].
//!
//! **Epochs.** The `epoch` word is the communicator generation the
//! frame was sent under. Rank recovery (death → respawn → rejoin, see
//! DESIGN §4h) bumps the generation; every surviving participant then
//! refuses frames stamped with an older generation through an
//! [`EpochGate`], so a message from a dead incarnation can never leak
//! across a restart boundary into the healed run. The gate is monotone:
//! it only ever advances.

use crate::comm::{CommError, CommResult};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU32, Ordering};

/// Refuse frames larger than this — a corrupt length prefix should fail
/// loudly, not attempt a multi-gigabyte allocation.
pub const MAX_PAYLOAD: u32 = 1 << 30;

/// Bytes in the fixed frame header.
pub const HEADER_LEN: usize = 17;

/// The payload buffer starts at most this large and grows only as bytes
/// arrive, so a header alone cannot reserve [`MAX_PAYLOAD`].
const PAYLOAD_START: usize = 64 << 10;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Worker → parent, once per connection: "I am rank `src`".
    Hello = 1,
    /// Point-to-point payload, routed by the parent from `src` to `dest`.
    Data = 2,
    /// Worker → parent: arrived at the barrier.
    Barrier = 3,
    /// Parent → workers: everyone arrived, proceed.
    BarrierRelease = 4,
    /// Worker → parent: the rank program's return value.
    Result = 5,
    /// Logical rank 0 → parent: the encoded
    /// [`TrafficStats`](crate::comm::TrafficStats) ledger.
    Traffic = 6,
    /// Parent → workers: rank `src` died; abort typed, don't hang.
    PeerGone = 7,
    /// Worker → parent: the rank program failed; payload is the UTF-8 error text.
    Error = 8,
    /// Worker → parent: periodic liveness beat (no payload).
    Heartbeat = 9,
    /// Parent → workers: rank `src` was respawned; the frame's `epoch`
    /// is the new generation — fence, purge stale state, replay.
    Restarted = 10,
    /// Parent → workers: rank `src` exhausted its retry budget and was
    /// quarantined; the frame's `epoch` is the new generation of the
    /// shrunk communicator.
    Quarantined = 11,
    /// Parent → workers: the run is complete at this generation; exit.
    Complete = 12,
}

impl FrameKind {
    fn from_u8(v: u8) -> Option<FrameKind> {
        Some(match v {
            1 => FrameKind::Hello,
            2 => FrameKind::Data,
            3 => FrameKind::Barrier,
            4 => FrameKind::BarrierRelease,
            5 => FrameKind::Result,
            6 => FrameKind::Traffic,
            7 => FrameKind::PeerGone,
            8 => FrameKind::Error,
            9 => FrameKind::Heartbeat,
            10 => FrameKind::Restarted,
            11 => FrameKind::Quarantined,
            12 => FrameKind::Complete,
            _ => return None,
        })
    }

    /// Every kind, for exhaustive property tests.
    pub const ALL: [FrameKind; 12] = [
        FrameKind::Hello,
        FrameKind::Data,
        FrameKind::Barrier,
        FrameKind::BarrierRelease,
        FrameKind::Result,
        FrameKind::Traffic,
        FrameKind::PeerGone,
        FrameKind::Error,
        FrameKind::Heartbeat,
        FrameKind::Restarted,
        FrameKind::Quarantined,
        FrameKind::Complete,
    ];
}

/// One unit of the wire protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    pub kind: FrameKind,
    pub src: u32,
    pub dest: u32,
    /// Communicator generation this frame belongs to.
    pub epoch: u32,
    pub payload: Vec<u8>,
}

impl Frame {
    /// A payload-free control frame in generation 0.
    pub fn control(kind: FrameKind, src: u32, dest: u32) -> Frame {
        Frame {
            kind,
            src,
            dest,
            epoch: 0,
            payload: Vec::new(),
        }
    }

    /// A `f64`-payload frame (DATA/RESULT) in generation 0.
    pub fn data(kind: FrameKind, src: u32, dest: u32, values: &[f64]) -> Frame {
        Frame {
            kind,
            src,
            dest,
            epoch: 0,
            payload: f64s_to_bytes(values),
        }
    }

    /// The same frame stamped with a generation.
    pub fn at_epoch(mut self, epoch: u32) -> Frame {
        self.epoch = epoch;
        self
    }

    /// Decodes the payload as packed little-endian `f64` words.
    pub fn values(&self) -> CommResult<Vec<f64>> {
        bytes_to_f64s(&self.payload)
    }
}

// ---------------------------------------------------------------------------
// Epoch fencing
// ---------------------------------------------------------------------------

/// Monotone stale-frame filter: admits only frames stamped with the
/// current generation or a newer one (newer frames come from a reborn
/// rank that raced ahead of this participant's own fence — they are
/// stashed, never dropped). Shared by the parent router threads and the
/// worker inbox, so both ends of every link refuse messages from a dead
/// incarnation.
#[derive(Debug, Default)]
pub struct EpochGate {
    current: AtomicU32,
}

impl EpochGate {
    /// A gate starting at `epoch`.
    pub fn new(epoch: u32) -> EpochGate {
        EpochGate {
            current: AtomicU32::new(epoch),
        }
    }

    /// The generation the gate currently enforces.
    pub fn current(&self) -> u32 {
        self.current.load(Ordering::SeqCst)
    }

    /// Advances the gate to `to` (monotone — a lower value is ignored).
    /// Returns the generation in force after the call.
    pub fn advance(&self, to: u32) -> u32 {
        self.current.fetch_max(to, Ordering::SeqCst).max(to)
    }

    /// Whether `frame` may pass: true iff its epoch is not stale.
    pub fn admit(&self, frame: &Frame) -> bool {
        frame.epoch >= self.current()
    }
}

/// Packs `f64` words little-endian. Exact: every bit pattern round-trips.
fn f64s_to_bytes(values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Inverse of [`f64s_to_bytes`]; errors on lengths that are not a
/// multiple of 8.
fn bytes_to_f64s(bytes: &[u8]) -> CommResult<Vec<f64>> {
    if !bytes.len().is_multiple_of(8) {
        return Err(CommError::Transport(format!(
            "payload length {} is not a multiple of 8",
            bytes.len()
        )));
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("chunk of 8")))
        .collect())
}

/// Writes one frame. The caller flushes (workers flush per frame; the
/// parent router flushes per forwarded frame).
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&(frame.payload.len() as u32).to_le_bytes());
    header[4] = frame.kind as u8;
    header[5..9].copy_from_slice(&frame.src.to_le_bytes());
    header[9..13].copy_from_slice(&frame.dest.to_le_bytes());
    header[13..17].copy_from_slice(&frame.epoch.to_le_bytes());
    w.write_all(&header)?;
    w.write_all(&frame.payload)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is a clean EOF *at a frame boundary*;
/// EOF mid-frame (a torn frame — the peer died while writing) is an
/// error, as is a length prefix past [`MAX_PAYLOAD`] or an unknown
/// kind byte.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Frame>> {
    let mut header = [0u8; HEADER_LEN];
    // Distinguish clean EOF (zero bytes) from a torn header.
    let mut filled = 0usize;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(None);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("torn frame header: {filled} of {HEADER_LEN} bytes"),
                ));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    if len > MAX_PAYLOAD {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame payload {len} exceeds cap {MAX_PAYLOAD}"),
        ));
    }
    let kind = FrameKind::from_u8(header[4]).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown frame kind {}", header[4]),
        )
    })?;
    let src = u32::from_le_bytes(header[5..9].try_into().expect("4 bytes"));
    let dest = u32::from_le_bytes(header[9..13].try_into().expect("4 bytes"));
    let epoch = u32::from_le_bytes(header[13..17].try_into().expect("4 bytes"));
    let len = len as usize;
    let mut payload = Vec::with_capacity(len.min(PAYLOAD_START));
    let torn = |what: String| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("torn frame payload: {what}"),
        )
    };
    r.take(len as u64)
        .read_to_end(&mut payload)
        .map_err(|e| torn(e.to_string()))?;
    if payload.len() < len {
        return Err(torn(format!("{} of {len} bytes", payload.len())));
    }
    Ok(Some(Frame {
        kind,
        src,
        dest,
        epoch,
        payload,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let frames = vec![
            Frame::control(FrameKind::Hello, 3, 0),
            Frame::data(FrameKind::Data, 1, 2, &[1.5, -0.0, f64::MIN_POSITIVE]).at_epoch(7),
            Frame::control(FrameKind::Barrier, 2, 0).at_epoch(1),
            Frame::data(FrameKind::Result, 0, 0, &[42.0]),
            Frame::control(FrameKind::Heartbeat, 1, 0).at_epoch(3),
            Frame::control(FrameKind::Restarted, 2, 1).at_epoch(4),
            Frame {
                kind: FrameKind::Traffic,
                src: 0,
                dest: 0,
                epoch: 2,
                payload: b"allreduce_sum:1:6:192:1e-3".to_vec(),
            },
        ];
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for f in &frames {
            assert_eq!(read_frame(&mut cursor).unwrap().as_ref(), Some(f));
        }
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");
    }

    #[test]
    fn f64_payloads_are_bitwise_exact() {
        let values = [
            0.0,
            -0.0,
            1.0 / 3.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::NEG_INFINITY,
            1.234567890123456e-300,
        ];
        let back = bytes_to_f64s(&f64s_to_bytes(&values)).unwrap();
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn torn_frames_error_rather_than_hang() {
        let full = {
            let mut buf = Vec::new();
            write_frame(&mut buf, &Frame::data(FrameKind::Data, 0, 1, &[1.0, 2.0])).unwrap();
            buf
        };
        // Torn header.
        let mut cursor = std::io::Cursor::new(full[..7].to_vec());
        assert!(read_frame(&mut cursor).is_err());
        // Torn payload.
        let mut cursor = std::io::Cursor::new(full[..full.len() - 3].to_vec());
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn hostile_prefixes_are_rejected() {
        // Oversized length.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        buf.extend_from_slice(&[2u8]);
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(read_frame(&mut std::io::Cursor::new(buf)).is_err());
        // Unknown kind.
        let mut buf = Vec::new();
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&[99u8]);
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(read_frame(&mut std::io::Cursor::new(buf)).is_err());
        // Odd payload length for f64 decode.
        assert!(bytes_to_f64s(&[1, 2, 3]).is_err());
    }

    #[test]
    fn epoch_gate_drops_stale_and_is_monotone() {
        let gate = EpochGate::new(0);
        let f0 = Frame::control(FrameKind::Data, 0, 1); // epoch 0
        assert!(gate.admit(&f0));
        assert_eq!(gate.advance(3), 3);
        assert!(!gate.admit(&f0), "old-incarnation frame refused");
        assert!(gate.admit(&f0.clone().at_epoch(3)));
        assert!(gate.admit(&f0.clone().at_epoch(9)), "newer never dropped");
        // Monotone: an attempt to move backwards is ignored.
        assert_eq!(gate.advance(1), 3);
        assert_eq!(gate.current(), 3);
    }

    #[test]
    fn all_kinds_list_is_exhaustive_and_round_trips() {
        for kind in FrameKind::ALL {
            assert_eq!(FrameKind::from_u8(kind as u8), Some(kind));
        }
        assert_eq!(FrameKind::from_u8(0), None);
        assert_eq!(FrameKind::from_u8(13), None);
    }
}
