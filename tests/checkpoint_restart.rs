//! Checkpoint/restart integrity: a QMD run resumed from a checkpoint must
//! replay bitwise against the uninterrupted run, and a corrupted newest
//! checkpoint must be rejected by its checksum with the store rolling back
//! to the previous good one.

use metascale_qmd::core::global::{BoundaryMode, HartreeSolver, LdcConfig, LdcSolver};
use metascale_qmd::core::qmd::QmdDriver;
use metascale_qmd::md::forcefield::ForceResult;
use metascale_qmd::md::io::{Checkpoint, CheckpointStore};
use metascale_qmd::md::thermostat::NoseHoover;
use metascale_qmd::md::AtomicSystem;
use metascale_qmd::util::constants::Element;
use metascale_qmd::util::{Vec3, Xoshiro256pp};

fn h2() -> AtomicSystem {
    let mut sys = AtomicSystem::new(
        Vec3::splat(8.0),
        vec![Element::H, Element::H],
        vec![Vec3::new(3.3, 4.0, 4.0), Vec3::new(4.7, 4.0, 4.0)],
    );
    let mut rng = Xoshiro256pp::seed_from_u64(5);
    sys.thermalize(300.0, &mut rng);
    sys
}

fn solver() -> LdcSolver {
    LdcSolver::new(LdcConfig {
        nd: (1, 1, 1),
        buffer: 0.0,
        mode: BoundaryMode::Periodic,
        hartree: HartreeSolver::Fft,
        tol_density: 1e-4,
        ..Default::default()
    })
}

fn driver() -> QmdDriver<NoseHoover> {
    QmdDriver::new(10.0, Some(NoseHoover::new(300.0, 2, 200.0)))
}

#[test]
fn resumed_run_is_bitwise_identical_to_uninterrupted() {
    // Uninterrupted reference: 4 steps.
    let mut sys_ref = h2();
    let mut solver_ref = solver();
    let mut driver_ref = driver();
    let rep_ref = driver_ref
        .try_run(&mut sys_ref, &mut solver_ref, 4)
        .expect("reference run converges");

    // Interrupted run: 2 steps, checkpoint, throw EVERYTHING away, restore
    // into a fresh driver + solver, run the remaining 2 steps.
    let mut sys = h2();
    let mut s1 = solver();
    let mut d1 = driver();
    let rep_a = d1.try_run(&mut sys, &mut s1, 2).expect("first leg");
    let ckp = d1.checkpoint(2, &sys, s1.export_state());
    // Round-trip through bytes, as a real restart would.
    let ckp = Checkpoint::from_bytes(ckp.to_bytes()).expect("round trip");
    assert_eq!(ckp.step, 2);
    drop((sys, s1, d1));

    let mut d2 = driver();
    let (mut sys2, blob) = d2.restore(&ckp);
    let mut s2 = solver();
    s2.import_state(&blob).expect("solver state imports");
    let rep_b = d2.try_run(&mut sys2, &mut s2, 2).expect("resumed leg");

    // Bitwise: positions, velocities, and per-step energies all match.
    for (a, b) in sys_ref.positions.iter().zip(&sys2.positions) {
        assert_eq!(a.x.to_bits(), b.x.to_bits());
        assert_eq!(a.y.to_bits(), b.y.to_bits());
        assert_eq!(a.z.to_bits(), b.z.to_bits());
    }
    for (a, b) in sys_ref.velocities.iter().zip(&sys2.velocities) {
        assert_eq!(a.x.to_bits(), b.x.to_bits());
        assert_eq!(a.y.to_bits(), b.y.to_bits());
        assert_eq!(a.z.to_bits(), b.z.to_bits());
    }
    let stitched: Vec<f64> = rep_a
        .energies
        .iter()
        .chain(&rep_b.energies)
        .copied()
        .collect();
    assert_eq!(stitched.len(), rep_ref.energies.len());
    for (a, b) in stitched.iter().zip(&rep_ref.energies) {
        assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
    }
}

#[test]
fn checkpoint_bytes_round_trip_all_fields() {
    let sys = h2();
    let ckp = Checkpoint {
        step: 42,
        system: sys.clone(),
        cached_forces: Some(ForceResult {
            energy: -1.125,
            forces: vec![Vec3::new(0.1, -0.2, 0.3), Vec3::new(-0.1, 0.2, -0.3)],
        }),
        thermostat: vec![0.0625],
        solver: vec![1, 2, 3, 250, 255],
    };
    let back = Checkpoint::from_bytes(ckp.to_bytes()).unwrap();
    assert_eq!(back.step, 42);
    assert_eq!(back.system.species, sys.species);
    for (a, b) in back.system.positions.iter().zip(&sys.positions) {
        assert_eq!(a.x.to_bits(), b.x.to_bits());
    }
    for (a, b) in back.system.velocities.iter().zip(&sys.velocities) {
        assert_eq!(a.x.to_bits(), b.x.to_bits());
    }
    let f = back.cached_forces.expect("forces survive");
    assert_eq!(f.energy, -1.125);
    assert_eq!(f.forces[1].z, -0.3);
    assert_eq!(back.thermostat, vec![0.0625]);
    assert_eq!(back.solver, vec![1, 2, 3, 250, 255]);
}

#[test]
fn store_rejects_corruption_and_rolls_back() {
    let dir = std::env::temp_dir().join(format!("mqmd_ckp_test_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = CheckpointStore::open(&dir, 3).unwrap();

    let sys = h2();
    let mk = |step: u64| Checkpoint {
        step,
        system: sys.clone(),
        cached_forces: None,
        thermostat: vec![step as f64],
        solver: Vec::new(),
    };
    store.save(&mk(10)).unwrap();
    let newest = store.save(&mk(20)).unwrap();

    // Bit-flip the newest checkpoint: the checksum must reject it and the
    // store must fall back to step 10.
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&newest, &bytes).unwrap();
    let recovered = store.load_latest().unwrap().expect("older survives");
    assert_eq!(recovered.step, 10);

    // A truncated file is also rejected.
    let good = Checkpoint::load(&store.list().unwrap()[0]).unwrap();
    assert_eq!(good.step, 10);
    let path3 = store.save(&mk(30)).unwrap();
    let full = std::fs::read(&path3).unwrap();
    std::fs::write(&path3, &full[..full.len() / 2]).unwrap();
    assert!(Checkpoint::load(&path3).is_err());
    assert_eq!(store.load_latest().unwrap().unwrap().step, 10);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pruning_keeps_newest_valid_despite_corrupt_file_between_good_ones() {
    let dir = std::env::temp_dir().join(format!("mqmd_ckp_corrupt_prune_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = CheckpointStore::open(&dir, 2).unwrap();
    let sys = h2();
    let mk = |step: u64| Checkpoint {
        step,
        system: sys.clone(),
        cached_forces: None,
        thermostat: vec![step as f64],
        solver: Vec::new(),
    };
    store.save(&mk(10)).unwrap();
    let middle = store.save(&mk(20)).unwrap();
    // Tear the middle checkpoint (a crashed writer's leftover): it now
    // sits corrupt between two good ones.
    let mut bytes = std::fs::read(&middle).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&middle, &bytes).unwrap();

    // The next save triggers pruning with keep=2. The corrupt file must
    // not count toward the budget: both good checkpoints (10 and 30)
    // survive, so the store still holds `keep` *valid* copies.
    store.save(&mk(30)).unwrap();
    let files = store.list().unwrap();
    assert!(
        files
            .iter()
            .any(|p| p.ends_with("ckp_000000000010.mqmdckp")),
        "oldest good checkpoint displaced by a corrupt file: {files:?}"
    );
    assert_eq!(store.load_latest().unwrap().unwrap().step, 30);

    // The end-to-end property the budget exists for: even if the newest
    // checkpoint is torn afterwards, a valid one is still on disk.
    let newest = store.list().unwrap().pop().unwrap();
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&newest, &bytes).unwrap();
    assert_eq!(store.load_latest().unwrap().unwrap().step, 10);

    // Further saves eventually push the corrupt files past the keep-th
    // newest valid checkpoint, at which point pruning reclaims them.
    store.save(&mk(40)).unwrap();
    store.save(&mk(50)).unwrap();
    let files = store.list().unwrap();
    assert!(!files
        .iter()
        .any(|p| p.ends_with("ckp_000000000020.mqmdckp")));
    assert!(!files
        .iter()
        .any(|p| p.ends_with("ckp_000000000030.mqmdckp")));
    assert_eq!(files.len(), 2);
    assert_eq!(store.load_latest().unwrap().unwrap().step, 50);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_prunes_to_retention_budget() {
    let dir = std::env::temp_dir().join(format!("mqmd_ckp_prune_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = CheckpointStore::open(&dir, 2).unwrap();
    let sys = h2();
    for step in [1u64, 2, 3, 4] {
        store
            .save(&Checkpoint {
                step,
                system: sys.clone(),
                cached_forces: None,
                thermostat: Vec::new(),
                solver: Vec::new(),
            })
            .unwrap();
    }
    let files = store.list().unwrap();
    assert_eq!(files.len(), 2);
    assert_eq!(store.load_latest().unwrap().unwrap().step, 4);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bounded_load_skips_newer_files_and_rolls_back_past_corrupt_ones() {
    let dir = std::env::temp_dir().join(format!("mqmd_ckp_bounded_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = CheckpointStore::open(&dir, 4).unwrap();
    let sys = h2();
    let mk = |step: u64| Checkpoint {
        step,
        system: sys.clone(),
        cached_forces: None,
        thermostat: vec![step as f64],
        solver: Vec::new(),
    };
    store.save(&mk(1)).unwrap();
    let second = store.save(&mk(2)).unwrap();
    store.save(&mk(3)).unwrap();

    // A resume whose energy record ends at step 2 must not read the newer
    // file an attempt it discarded left behind.
    assert_eq!(store.load_latest().unwrap().unwrap().step, 3);
    assert_eq!(store.load_latest_at_most(2).unwrap().unwrap().step, 2);
    assert_eq!(
        store.load_latest_at_most(u64::MAX).unwrap().unwrap().step,
        3
    );

    // A corrupt file at the bound rolls back to an older valid one, which
    // may end below the bound: the caller truncates its record to it.
    let mut bytes = std::fs::read(&second).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&second, &bytes).unwrap();
    assert_eq!(store.load_latest_at_most(2).unwrap().unwrap().step, 1);
    assert!(store.load_latest_at_most(0).unwrap().is_none());
    std::fs::remove_dir_all(&dir).ok();
}
