//! The two checkpoint decoders — `Checkpoint::from_bytes` and
//! `LdcSolver::import_state` — read bytes from disk, so whatever those bytes
//! are they return `Ok` or a typed `MqmdError::Io`, never a panic: a length
//! field that overflows or runs past the body, and bytes after the last
//! field, are errors.

use metascale_qmd::core::global::{LdcConfig, LdcSolver};
use metascale_qmd::md::forcefield::ForceResult;
use metascale_qmd::md::io::{fnv1a64, Checkpoint};
use metascale_qmd::md::AtomicSystem;
use metascale_qmd::util::constants::Element;
use metascale_qmd::util::{MqmdError, Result, Vec3};
use proptest::prelude::*;

/// LEB128, as the checkpoint format writes its lengths.
fn varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// An `LdcSolver::export_state` payload with one domain of `rows × cols`
/// coefficients, written field by field.
fn solver_payload(rows: u64, cols: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    varint(&mut buf, 11); // cumulative SCF iterations
    varint(&mut buf, 1); // domains
    varint(&mut buf, 0); // domain id
    varint(&mut buf, rows);
    varint(&mut buf, cols);
    for k in 0..2 * rows * cols {
        buf.extend_from_slice(&(k as f64 * 0.125).to_be_bytes());
    }
    buf
}

/// A checkpoint with every section filled: two atoms, cached forces,
/// thermostat state and a solver payload.
fn full_checkpoint() -> Checkpoint {
    let mut system = AtomicSystem::new(
        Vec3::splat(8.0),
        vec![Element::H, Element::H],
        vec![Vec3::new(3.3, 4.0, 4.0), Vec3::new(4.7, 4.0, 4.0)],
    );
    system.velocities = vec![Vec3::new(1e-4, 0.0, -2e-4), Vec3::new(-1e-4, 3e-4, 0.0)];
    Checkpoint {
        step: 7,
        system,
        cached_forces: Some(ForceResult {
            energy: -1.1,
            forces: vec![Vec3::new(0.1, 0.0, 0.0), Vec3::new(-0.1, 0.0, 0.0)],
        }),
        thermostat: vec![0.5, -0.25, 1e-3, 2.0],
        solver: solver_payload(2, 3),
    }
}

/// The body of a serialised checkpoint, without its checksum trailer.
fn body_of(ckp: &Checkpoint) -> Vec<u8> {
    let bytes = ckp.to_bytes().to_vec();
    bytes[..bytes.len() - 8].to_vec()
}

/// `body` with a correct checksum trailer, decoded.
fn decode(mut body: Vec<u8>) -> Result<Checkpoint> {
    let sum = fnv1a64(&body);
    body.extend_from_slice(&sum.to_be_bytes());
    Checkpoint::from_bytes(body.into())
}

fn is_io<T>(r: Result<T>) -> bool {
    matches!(r, Err(MqmdError::Io(_)))
}

#[test]
fn full_checkpoint_and_hand_written_solver_payload_decode() {
    let ckp = decode(body_of(&full_checkpoint())).expect("a well-formed body decodes");
    assert_eq!(ckp.step, 7);
    assert_eq!(ckp.thermostat, vec![0.5, -0.25, 1e-3, 2.0]);
    let mut solver = LdcSolver::new(LdcConfig::default());
    solver
        .import_state(&ckp.solver)
        .expect("the hand-written payload imports");
    assert_eq!(solver.total_scf_iterations, 11);
    // The payload is exactly what the solver writes back.
    assert_eq!(solver.export_state(), solver_payload(2, 3));
}

#[test]
fn oversize_thermostat_length_is_a_typed_error_not_a_panic() {
    // No atoms, no forces, then a thermostat of 2^61 values: 8 · 2^61
    // bytes overflows a `usize`.
    let empty = Checkpoint {
        step: 0,
        system: AtomicSystem::new(Vec3::splat(8.0), Vec::new(), Vec::new()),
        cached_forces: None,
        thermostat: Vec::new(),
        solver: Vec::new(),
    };
    let mut body = body_of(&empty);
    // The body ends with the two empty lengths: thermostat, solver.
    body.truncate(body.len() - 2);
    varint(&mut body, 1 << 61);
    varint(&mut body, 0);
    let sum = fnv1a64(&body);
    body.extend_from_slice(&sum.to_be_bytes());
    let path =
        std::env::temp_dir().join(format!("mqmd_oversize_thermo_{}.ckp", std::process::id()));
    std::fs::write(&path, &body).unwrap();
    let loaded = Checkpoint::load(&path);
    std::fs::remove_file(&path).ok();
    assert!(
        is_io(loaded),
        "a 2^61-value thermostat must be rejected as Io"
    );
}

#[test]
fn trailing_bytes_are_rejected_by_both_decoders() {
    let mut body = body_of(&full_checkpoint());
    body.push(0);
    assert!(is_io(decode(body)));

    let mut payload = solver_payload(2, 3);
    payload.push(0);
    let mut solver = LdcSolver::new(LdcConfig::default());
    assert!(is_io(solver.import_state(&payload)));
    assert_eq!(
        solver.total_scf_iterations, 0,
        "a rejected payload leaves the solver as it was"
    );
}

#[test]
fn oversize_band_block_is_a_typed_error_not_a_panic() {
    // 2^30 × 2^30 coefficients fit a `usize`; their 16 bytes each do not.
    let mut payload = Vec::new();
    for v in [0, 1, 0, 1 << 30, 1 << 30] {
        varint(&mut payload, v);
    }
    let mut solver = LdcSolver::new(LdcConfig::default());
    assert!(is_io(solver.import_state(&payload)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_checksummed_bodies_decode_or_fail_typed(
        tail in prop::collection::vec(any::<u8>(), 0..160),
    ) {
        let mut body = b"MQMDCKP1".to_vec();
        body.extend_from_slice(&tail);
        let r = decode(body);
        prop_assert!(r.is_ok() || is_io(r));
    }

    #[test]
    fn edited_checkpoints_decode_or_fail_typed(
        at in prop::collection::vec(any::<u64>(), 1..4),
        to in prop::collection::vec(any::<u8>(), 3..4),
        cut in 0usize..64,
    ) {
        let mut body = body_of(&full_checkpoint());
        for (&i, &b) in at.iter().zip(&to) {
            let i = 8 + (i as usize) % (body.len() - 8);
            body[i] = b;
        }
        body.truncate(body.len() - cut.min(body.len() - 8));
        let r = decode(body);
        prop_assert!(r.is_ok() || is_io(r));
    }

    #[test]
    fn arbitrary_and_edited_solver_payloads_import_or_fail_typed(
        raw in prop::collection::vec(any::<u8>(), 0..96),
        at in prop::collection::vec(any::<u64>(), 1..4),
        to in prop::collection::vec(any::<u8>(), 3..4),
    ) {
        let mut solver = LdcSolver::new(LdcConfig::default());
        let r = solver.import_state(&raw);
        prop_assert!(r.is_ok() || is_io(r));
        let mut payload = solver_payload(2, 3);
        for (&i, &b) in at.iter().zip(&to) {
            let i = (i as usize) % payload.len();
            payload[i] = b;
        }
        let r = solver.import_state(&payload);
        prop_assert!(r.is_ok() || is_io(r));
    }
}
