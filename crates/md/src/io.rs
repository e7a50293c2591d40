//! Trajectory I/O with space-filling-curve delta compression.
//!
//! The paper (§4.4) reduces atomic-coordinate I/O with a
//! "spacefilling-curve-based adaptive data compression scheme" (ref \[65\]):
//! positions are quantised onto a fine grid, atoms are ordered along a
//! space-filling curve, and the curve indices are delta-encoded — spatially
//! adjacent atoms have nearby curve indices, so the deltas are small and
//! varint-encode compactly. This module implements exactly that pipeline
//! (Hilbert curve + LEB128 varints) plus a simple binary trajectory
//! container.

use crate::forcefield::ForceResult;
use crate::structure::AtomicSystem;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use mqmd_grid::hilbert::{hilbert_decode, hilbert_encode};
use mqmd_util::constants::Element;
use mqmd_util::{MqmdError, Result, Vec3};
use std::path::{Path, PathBuf};

/// Maximum quantisation bits per axis (3·21 = 63 curve bits fit in u64).
const MAX_BITS: u32 = 21;

/// LEB128 unsigned varint encoding.
pub fn write_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// LEB128 unsigned varint decoding.
pub fn read_varint(buf: &mut impl Buf) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        if !buf.has_remaining() {
            return Err(MqmdError::Io("truncated varint".into()));
        }
        let byte = buf.get_u8();
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(MqmdError::Io("varint overflow".into()));
        }
    }
}

/// A compressed snapshot of atomic positions.
#[derive(Clone, Debug)]
pub struct CompressedFrame {
    /// Quantisation bits per axis.
    pub bits: u32,
    /// Cell lengths at capture time.
    pub cell: Vec3,
    /// Number of atoms.
    pub n_atoms: usize,
    /// Payload: sorted Hilbert-index deltas and original atom ids.
    pub payload: Bytes,
}

impl CompressedFrame {
    /// Compresses positions with `bits` bits per axis (quantisation error
    /// ≤ cell/2^bits per component).
    pub fn compress(system: &AtomicSystem, bits: u32) -> Self {
        assert!((1..=MAX_BITS).contains(&bits));
        let n_side = 1u64 << bits;
        let cell = system.cell;
        let mut keyed: Vec<(u64, u32)> = system
            .positions
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                let w = r.wrap(cell);
                let qx = ((w.x / cell.x * n_side as f64) as u64).min(n_side - 1) as u32;
                let qy = ((w.y / cell.y * n_side as f64) as u64).min(n_side - 1) as u32;
                let qz = ((w.z / cell.z * n_side as f64) as u64).min(n_side - 1) as u32;
                (hilbert_encode(qx, qy, qz, bits), i as u32)
            })
            .collect();
        keyed.sort_unstable();

        let mut payload = BytesMut::new();
        let mut prev = 0u64;
        for &(h, id) in &keyed {
            write_varint(&mut payload, h - prev);
            write_varint(&mut payload, id as u64);
            prev = h;
        }
        Self {
            bits,
            cell,
            n_atoms: keyed.len(),
            payload: payload.freeze(),
        }
    }

    /// Decompresses to positions in original atom order (cell-centre of each
    /// quantisation voxel).
    pub fn decompress(&self) -> Result<Vec<Vec3>> {
        let n_side = 1u64 << self.bits;
        let mut out = vec![Vec3::ZERO; self.n_atoms];
        let mut seen = vec![false; self.n_atoms];
        let mut buf = self.payload.clone();
        let mut h = 0u64;
        for _ in 0..self.n_atoms {
            h += read_varint(&mut buf)?;
            let id = read_varint(&mut buf)? as usize;
            if id >= self.n_atoms || seen[id] {
                return Err(MqmdError::Io(format!("corrupt frame: bad atom id {id}")));
            }
            seen[id] = true;
            let (qx, qy, qz) = hilbert_decode(h, self.bits);
            out[id] = Vec3::new(
                (qx as f64 + 0.5) / n_side as f64 * self.cell.x,
                (qy as f64 + 0.5) / n_side as f64 * self.cell.y,
                (qz as f64 + 0.5) / n_side as f64 * self.cell.z,
            );
        }
        Ok(out)
    }

    /// Compressed size in bytes.
    pub fn compressed_bytes(&self) -> usize {
        self.payload.len()
    }

    /// Raw size the frame would occupy as 3 × f64 per atom.
    pub fn raw_bytes(&self) -> usize {
        self.n_atoms * 24
    }

    /// Compression ratio raw/compressed (> 1 is a win).
    pub fn ratio(&self) -> f64 {
        self.raw_bytes() as f64 / self.compressed_bytes().max(1) as f64
    }

    /// Worst-case quantisation error per component (half a voxel diagonal).
    pub fn max_quantisation_error(&self) -> f64 {
        let n_side = (1u64 << self.bits) as f64;
        let hx = self.cell.x / n_side;
        let hy = self.cell.y / n_side;
        let hz = self.cell.z / n_side;
        0.5 * (hx * hx + hy * hy + hz * hz).sqrt()
    }
}

/// Magic bytes of the trajectory container format.
const TRAJ_MAGIC: &[u8; 8] = b"MQMDTRJ1";

/// A multi-frame compressed trajectory container.
///
/// Layout: magic, bits, cell, then per frame `(step, n_atoms, payload_len,
/// payload)` — the aggregated stream a §4.4 collective-I/O master would
/// write.
#[derive(Clone, Debug, Default)]
pub struct Trajectory {
    /// Quantisation bits shared by all frames.
    pub bits: u32,
    /// Frames: `(MD step, compressed snapshot)`.
    pub frames: Vec<(u64, CompressedFrame)>,
}

impl Trajectory {
    /// Creates an empty trajectory with the given quantisation.
    pub fn new(bits: u32) -> Self {
        assert!((1..=MAX_BITS).contains(&bits));
        Self {
            bits,
            frames: Vec::new(),
        }
    }

    /// Appends a snapshot of the system at `step`.
    pub fn push(&mut self, step: u64, system: &AtomicSystem) {
        self.frames
            .push((step, CompressedFrame::compress(system, self.bits)));
    }

    /// Serialises the container to bytes.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_slice(TRAJ_MAGIC);
        write_varint(&mut buf, self.bits as u64);
        write_varint(&mut buf, self.frames.len() as u64);
        for (step, frame) in &self.frames {
            write_varint(&mut buf, *step);
            buf.put_f64(frame.cell.x);
            buf.put_f64(frame.cell.y);
            buf.put_f64(frame.cell.z);
            write_varint(&mut buf, frame.n_atoms as u64);
            write_varint(&mut buf, frame.payload.len() as u64);
            buf.put_slice(&frame.payload);
        }
        buf.freeze()
    }

    /// Deserialises a container.
    pub fn from_bytes(mut data: Bytes) -> Result<Self> {
        if data.len() < TRAJ_MAGIC.len() || &data[..TRAJ_MAGIC.len()] != TRAJ_MAGIC {
            return Err(MqmdError::Io("not a MQMD trajectory (bad magic)".into()));
        }
        data.advance(TRAJ_MAGIC.len());
        let bits = read_varint(&mut data)? as u32;
        if bits == 0 || bits > MAX_BITS {
            return Err(MqmdError::Io(format!("corrupt trajectory: bits = {bits}")));
        }
        let n_frames = read_varint(&mut data)? as usize;
        let mut frames = Vec::with_capacity(n_frames.min(1 << 20));
        for _ in 0..n_frames {
            let step = read_varint(&mut data)?;
            if data.remaining() < 24 {
                return Err(MqmdError::Io("truncated trajectory frame header".into()));
            }
            let cell = Vec3::new(data.get_f64(), data.get_f64(), data.get_f64());
            let n_atoms = read_varint(&mut data)? as usize;
            let len = read_varint(&mut data)? as usize;
            if data.remaining() < len {
                return Err(MqmdError::Io("truncated trajectory payload".into()));
            }
            let payload = data.split_to(len);
            frames.push((
                step,
                CompressedFrame {
                    bits,
                    cell,
                    n_atoms,
                    payload,
                },
            ));
        }
        Ok(Self { bits, frames })
    }

    /// Writes the container to a file.
    pub fn save(&self, path: &std::path::Path) -> Result<()> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Reads a container from a file.
    pub fn load(path: &std::path::Path) -> Result<Self> {
        let data = std::fs::read(path)?;
        Self::from_bytes(Bytes::from(data))
    }

    /// Total compressed bytes across frames (excluding headers).
    pub fn compressed_bytes(&self) -> usize {
        self.frames.iter().map(|(_, f)| f.compressed_bytes()).sum()
    }

    /// Overall compression ratio versus raw 3×f64 coordinates.
    pub fn ratio(&self) -> f64 {
        let raw: usize = self.frames.iter().map(|(_, f)| f.raw_bytes()).sum();
        raw as f64 / self.compressed_bytes().max(1) as f64
    }
}

// ---------------------------------------------------------------------------
// Checkpoint/restart
// ---------------------------------------------------------------------------

/// Magic bytes of the checkpoint format.
const CKP_MAGIC: &[u8; 8] = b"MQMDCKP1";

/// FNV-1a 64-bit hash — the checkpoint integrity checksum. Not
/// cryptographic; it detects the torn writes and bit flips a crashed or
/// faulty node leaves behind.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Full restartable state of a QMD run at a step boundary: atoms,
/// velocities, the integrator's cached end-of-step forces, thermostat
/// state, and an opaque solver payload (the LDC solver stores its
/// per-domain bands there) — everything needed for a resumed
/// run to replay bitwise. Serialised with a trailing [`fnv1a64`] checksum
/// so corruption is rejected at load instead of propagating into physics.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// MD step the checkpoint was taken after.
    pub step: u64,
    /// Atomic state (cell, species, positions, velocities).
    pub system: AtomicSystem,
    /// The integrator's cached forces, if a step has completed.
    pub cached_forces: Option<ForceResult>,
    /// Opaque thermostat state ([`crate::thermostat::Thermostat::state`]).
    pub thermostat: Vec<f64>,
    /// Opaque solver payload (e.g. LDC per-domain wave functions).
    pub solver: Vec<u8>,
}

impl Checkpoint {
    /// Serialises with the checksum trailer.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_slice(CKP_MAGIC);
        write_varint(&mut buf, self.step);
        buf.put_f64(self.system.cell.x);
        buf.put_f64(self.system.cell.y);
        buf.put_f64(self.system.cell.z);
        let n = self.system.len();
        write_varint(&mut buf, n as u64);
        for &e in &self.system.species {
            write_varint(&mut buf, e.atomic_number() as u64);
        }
        for r in &self.system.positions {
            buf.put_f64(r.x);
            buf.put_f64(r.y);
            buf.put_f64(r.z);
        }
        for v in &self.system.velocities {
            buf.put_f64(v.x);
            buf.put_f64(v.y);
            buf.put_f64(v.z);
        }
        match &self.cached_forces {
            Some(f) => {
                buf.put_u8(1);
                buf.put_f64(f.energy);
                for g in &f.forces {
                    buf.put_f64(g.x);
                    buf.put_f64(g.y);
                    buf.put_f64(g.z);
                }
            }
            None => buf.put_u8(0),
        }
        write_varint(&mut buf, self.thermostat.len() as u64);
        for &x in &self.thermostat {
            buf.put_f64(x);
        }
        write_varint(&mut buf, self.solver.len() as u64);
        buf.put_slice(&self.solver);
        let checksum = fnv1a64(&buf);
        buf.put_u64(checksum);
        buf.freeze()
    }

    /// Deserialises, verifying magic and checksum. Never panics: a length
    /// field that overflows or runs past the body, a non-positive cell and
    /// bytes after the solver payload are [`MqmdError::Io`].
    pub fn from_bytes(data: Bytes) -> Result<Self> {
        if data.len() < CKP_MAGIC.len() + 8 || &data[..CKP_MAGIC.len()] != CKP_MAGIC {
            return Err(MqmdError::Io("not a MQMD checkpoint (bad magic)".into()));
        }
        let body_len = data.len() - 8;
        let mut trailer = [0u8; 8];
        trailer.copy_from_slice(&data[body_len..]);
        let stored = u64::from_be_bytes(trailer);
        if fnv1a64(&data[..body_len]) != stored {
            return Err(MqmdError::Io(
                "checkpoint checksum mismatch (corrupt or torn write)".into(),
            ));
        }
        let mut buf = data;
        let mut buf = buf.split_to(body_len);
        buf.advance(CKP_MAGIC.len());
        let step = read_varint(&mut buf)?;
        // Every length field is checked against the bytes left before
        // anything is allocated or read for it; a product that overflows
        // is as oversize as one that does not fit.
        let need = |buf: &Bytes, n: Option<usize>| -> Result<()> {
            match n {
                Some(n) if buf.remaining() >= n => Ok(()),
                _ => Err(MqmdError::Io(
                    "truncated checkpoint (a length exceeds the body)".into(),
                )),
            }
        };
        need(&buf, Some(24))?;
        let cell = Vec3::new(buf.get_f64(), buf.get_f64(), buf.get_f64());
        if ![cell.x, cell.y, cell.z]
            .iter()
            .all(|l| l.is_finite() && *l > 0.0)
        {
            return Err(MqmdError::Io(format!("corrupt checkpoint cell {cell:?}")));
        }
        let n = read_varint(&mut buf)? as usize;
        // An atom takes at least one species byte and 48 bytes of position
        // and velocity.
        need(&buf, n.checked_mul(49))?;
        let mut species = Vec::with_capacity(n);
        for _ in 0..n {
            let z = read_varint(&mut buf)? as u32;
            let e = Element::ALL
                .into_iter()
                .find(|e| e.atomic_number() == z)
                .ok_or_else(|| MqmdError::Io(format!("unknown atomic number {z}")))?;
            species.push(e);
        }
        let read_vec3s = |buf: &mut Bytes, n: usize| -> Result<Vec<Vec3>> {
            need(buf, n.checked_mul(24))?;
            Ok((0..n)
                .map(|_| Vec3::new(buf.get_f64(), buf.get_f64(), buf.get_f64()))
                .collect())
        };
        let positions = read_vec3s(&mut buf, n)?;
        let velocities = read_vec3s(&mut buf, n)?;
        need(&buf, Some(1))?;
        let cached_forces = match buf.get_u8() {
            0 => None,
            1 => {
                need(&buf, Some(8))?;
                let energy = buf.get_f64();
                let forces = read_vec3s(&mut buf, n)?;
                Some(ForceResult { energy, forces })
            }
            other => {
                return Err(MqmdError::Io(format!("bad force-cache tag {other}")));
            }
        };
        let n_thermo = read_varint(&mut buf)? as usize;
        need(&buf, n_thermo.checked_mul(8))?;
        let thermostat = (0..n_thermo).map(|_| buf.get_f64()).collect();
        let n_solver = read_varint(&mut buf)? as usize;
        need(&buf, Some(n_solver))?;
        let solver = buf.split_to(n_solver).to_vec();
        if buf.has_remaining() {
            return Err(MqmdError::Io(format!(
                "{} trailing bytes after the checkpoint body",
                buf.remaining()
            )));
        }
        let mut system = AtomicSystem::new(cell, species, positions);
        system.velocities = velocities;
        Ok(Self {
            step,
            system,
            cached_forces,
            thermostat,
            solver,
        })
    }

    /// Writes atomically and durably: serialise to `<path>.tmp` in the
    /// same directory, fsync the file, rename over `path`, then fsync the
    /// parent directory — a crash mid-write never clobbers the previous
    /// good checkpoint, and a crash right after `save` returns cannot
    /// lose the new directory entry (the rename itself is only on disk
    /// once the directory's metadata is).
    pub fn save(&self, path: &Path) -> Result<()> {
        let tmp = path.with_extension("tmp");
        {
            use std::io::Write;
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&self.to_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent() {
            sync_dir(dir)?;
        }
        Ok(())
    }

    /// Loads and verifies a checkpoint file.
    pub fn load(path: &Path) -> Result<Self> {
        let data = std::fs::read(path)?;
        Self::from_bytes(Bytes::from(data))
    }
}

/// Fsyncs a directory so a just-renamed entry survives power loss. An
/// empty parent (bare relative filename) means the current directory.
fn sync_dir(dir: &Path) -> Result<()> {
    let dir = if dir.as_os_str().is_empty() {
        Path::new(".")
    } else {
        dir
    };
    #[cfg(unix)]
    std::fs::File::open(dir)?.sync_all()?;
    #[cfg(not(unix))]
    let _ = dir; // directory fsync is not portable off unix
    Ok(())
}

/// Keeps the last `keep` checkpoints in a directory and rolls back past
/// corrupt files on load — the production pattern where a bad node can
/// leave its most recent checkpoint torn.
pub struct CheckpointStore {
    dir: PathBuf,
    keep: usize,
}

impl CheckpointStore {
    /// Opens (creating if needed) a store rooted at `dir` retaining the
    /// newest `keep` checkpoints.
    pub fn open(dir: impl Into<PathBuf>, keep: usize) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            keep: keep.max(1),
        })
    }

    fn path_for(&self, step: u64) -> PathBuf {
        self.dir.join(format!("ckp_{step:012}.mqmdckp"))
    }

    /// Checkpoint files currently in the store, oldest first.
    pub fn list(&self) -> Result<Vec<PathBuf>> {
        let mut files: Vec<PathBuf> = std::fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "mqmdckp"))
            .collect();
        files.sort();
        Ok(files)
    }

    /// Saves a checkpoint (atomic write) and prunes beyond the retention
    /// budget. Only checkpoints that pass their checksum count toward the
    /// budget: a corrupt file sitting between two good ones can never push
    /// the newest valid checkpoint out of retention. Files older than the
    /// `keep`-th newest *valid* checkpoint are deleted, corrupt or not.
    pub fn save(&self, ckp: &Checkpoint) -> Result<PathBuf> {
        let path = self.path_for(ckp.step);
        ckp.save(&path)?;
        let files = self.list()?;
        let mut valid_seen = 0usize;
        let mut cut = 0usize; // delete everything before this index
        for (i, p) in files.iter().enumerate().rev() {
            if Checkpoint::load(p).is_ok() {
                valid_seen += 1;
                if valid_seen == self.keep {
                    cut = i;
                    break;
                }
            }
        }
        for old in &files[..cut] {
            std::fs::remove_file(old).ok();
        }
        Ok(path)
    }

    /// Loads the newest checkpoint that passes its checksum, skipping (and
    /// reporting via the event stream) any corrupt files on the way back.
    /// `Ok(None)` when no valid checkpoint exists.
    pub fn load_latest(&self) -> Result<Option<Checkpoint>> {
        self.load_latest_at_most(u64::MAX)
    }

    /// [`load_latest`](Self::load_latest) among the checkpoints taken after
    /// at most `max_step` steps. A resume whose record of completed steps
    /// ends at `max_step` reads through this, so a newer file (left by an
    /// attempt whose progress was not kept) is never stitched onto it.
    pub fn load_latest_at_most(&self, max_step: u64) -> Result<Option<Checkpoint>> {
        for path in self.list()?.into_iter().rev() {
            match Checkpoint::load(&path) {
                Ok(ckp) if ckp.step <= max_step => return Ok(Some(ckp)),
                Ok(_) => {}
                Err(e) => {
                    mqmd_util::events::emit(mqmd_util::events::Event::WatchdogTrip {
                        watchdog: "checkpoint_corrupt",
                        message: format!("skipping {}: {e}", path.display()),
                        value: 1.0,
                        bound: 0.0,
                    });
                }
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::sic_supercell;
    use mqmd_util::Xoshiro256pp;

    #[test]
    fn varint_round_trip() {
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX,
        ];
        let mut buf = BytesMut::new();
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut bytes = buf.freeze();
        for &v in &values {
            assert_eq!(read_varint(&mut bytes).unwrap(), v);
        }
    }

    #[test]
    fn varint_small_values_are_one_byte() {
        let mut buf = BytesMut::new();
        write_varint(&mut buf, 100);
        assert_eq!(buf.len(), 1);
        write_varint(&mut buf, 200);
        assert_eq!(buf.len(), 3); // 200 needs two bytes
    }

    #[test]
    fn compression_round_trip_within_quantisation_error() {
        let s = sic_supercell((3, 3, 3));
        let frame = CompressedFrame::compress(&s, 16);
        let back = frame.decompress().unwrap();
        assert_eq!(back.len(), s.len());
        let tol = frame.max_quantisation_error();
        for (a, b) in back.iter().zip(&s.positions) {
            assert!((*a - *b).min_image(s.cell).norm() <= tol * 1.0001);
        }
    }

    #[test]
    fn crystal_compresses_well() {
        // Ordered structures put consecutive curve indices close together:
        // the paper's premise. Expect clearly better than raw f64 storage.
        let s = sic_supercell((4, 4, 4));
        let frame = CompressedFrame::compress(&s, 12);
        assert!(frame.ratio() > 3.0, "ratio {}", frame.ratio());
    }

    #[test]
    fn more_bits_bigger_payload_smaller_error() {
        let s = sic_supercell((3, 3, 3));
        let lo = CompressedFrame::compress(&s, 8);
        let hi = CompressedFrame::compress(&s, 16);
        assert!(hi.compressed_bytes() > lo.compressed_bytes());
        assert!(hi.max_quantisation_error() < lo.max_quantisation_error());
    }

    #[test]
    fn random_gas_still_round_trips() {
        let mut rng = Xoshiro256pp::seed_from_u64(23);
        let n = 500;
        let cell = Vec3::splat(30.0);
        let positions: Vec<Vec3> = (0..n)
            .map(|_| {
                Vec3::new(
                    rng.uniform_in(0.0, 30.0),
                    rng.uniform_in(0.0, 30.0),
                    rng.uniform_in(0.0, 30.0),
                )
            })
            .collect();
        let s = AtomicSystem::new(cell, vec![mqmd_util::constants::Element::O; n], positions);
        let frame = CompressedFrame::compress(&s, 14);
        let back = frame.decompress().unwrap();
        let tol = frame.max_quantisation_error();
        for (a, b) in back.iter().zip(&s.positions) {
            assert!((*a - *b).min_image(cell).norm() <= tol * 1.0001);
        }
    }

    #[test]
    fn trajectory_round_trip_through_bytes_and_file() {
        let mut sys = sic_supercell((2, 2, 2));
        let mut traj = Trajectory::new(14);
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        for step in 0..5u64 {
            crate::builders::amorphize(&mut sys, 0.05, &mut rng);
            traj.push(step * 10, &sys);
        }
        let bytes = traj.to_bytes();
        let back = Trajectory::from_bytes(bytes).unwrap();
        assert_eq!(back.frames.len(), 5);
        assert_eq!(back.frames[3].0, 30);
        let tol = back.frames[4].1.max_quantisation_error() * 1.0001;
        let decoded = back.frames[4].1.decompress().unwrap();
        for (a, b) in decoded.iter().zip(&sys.positions) {
            assert!((*a - *b).min_image(sys.cell).norm() <= tol);
        }
        // File round trip.
        let dir = std::env::temp_dir().join("mqmd_traj_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.mqmdtrj");
        traj.save(&path).unwrap();
        let loaded = Trajectory::load(&path).unwrap();
        assert_eq!(loaded.frames.len(), 5);
        assert!(loaded.ratio() > 1.0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trajectory_rejects_garbage() {
        assert!(Trajectory::from_bytes(Bytes::from_static(b"not a trajectory")).is_err());
        assert!(Trajectory::from_bytes(Bytes::from_static(b"MQMDTRJ1\xff\xff")).is_err());
    }

    #[test]
    fn corrupt_payload_detected() {
        let s = sic_supercell((1, 1, 1));
        let mut frame = CompressedFrame::compress(&s, 10);
        frame.payload = Bytes::from_static(&[0xff, 0xff]);
        assert!(frame.decompress().is_err());
    }
}
