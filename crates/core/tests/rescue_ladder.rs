//! Fault-plane tests of the SCF loop's recovery. Injected density NaN and
//! forced Davidson breakdowns strike the domain solves (`Site::Domain`);
//! the solve must either recover to the fault-free energy or surface a
//! typed error — never NaN, never a hang.
//!
//! The loop answers a failed domain solve with its retry ladder: the
//! cached bands, then scratch, each on a fresh workspace, every rung booked
//! on the fault ledger. Past that it returns the typed error, and retrying
//! the job is the caller's rung (the service's escalating retry ladder).
//!
//! Its own test binary, because the fault plan and the event sink are
//! process-global; every test here takes the `gate()` mutex.

use mqmd_core::global::{BoundaryMode, HartreeSolver, LdcConfig, LdcSolver, LdcState};
use mqmd_md::AtomicSystem;
use mqmd_util::constants::Element;
use mqmd_util::faults::{self, FaultKind, FaultPlan, Site};
use mqmd_util::{events, MqmdError, Result, Vec3};
use proptest::prelude::*;
use std::sync::OnceLock;

fn gate() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn h2() -> AtomicSystem {
    AtomicSystem::new(
        Vec3::splat(8.0),
        vec![Element::H, Element::H],
        vec![Vec3::new(3.3, 4.0, 4.0), Vec3::new(4.7, 4.0, 4.0)],
    )
}

/// One domain (the conventional solve), or the cell split across the H–H
/// bond with the LDC boundary potential on.
fn config(split: bool) -> LdcConfig {
    let one = LdcConfig {
        nd: (1, 1, 1),
        buffer: 0.0,
        mode: BoundaryMode::Periodic,
        hartree: HartreeSolver::Fft,
        tol_density: 1e-5,
        ..Default::default()
    };
    if split {
        LdcConfig {
            nd: (2, 1, 1),
            buffer: 2.0,
            mode: BoundaryMode::ldc_default(),
            ..one
        }
    } else {
        one
    }
}

/// Fault-free reference energy of each layout, computed once.
fn reference_energy(split: bool) -> f64 {
    static REF: [OnceLock<f64>; 2] = [OnceLock::new(), OnceLock::new()];
    *REF[split as usize].get_or_init(|| {
        faults::clear();
        LdcSolver::new(config(split))
            .solve(&h2())
            .expect("fault-free H2 SCF must converge")
            .energy
    })
}

/// Solves H₂ under `plan`, always clearing the plane afterwards.
fn solve_under_plan(plan: FaultPlan, cfg: LdcConfig) -> Result<LdcState> {
    faults::install(plan);
    let out = LdcSolver::new(cfg).solve(&h2());
    faults::clear();
    out
}

#[test]
fn injected_density_nan_is_rescued_from_the_cached_bands() {
    let _g = gate();
    let e_ref = reference_energy(false);
    faults::reset_stats();
    let mut plan = FaultPlan::new();
    plan.push(FaultKind::DensityNan, Site::Domain(0), 2);
    let out = solve_under_plan(plan, config(false)).expect("the retry must rescue the NaN");
    assert_eq!(
        out.energy.to_bits(),
        e_ref.to_bits(),
        "{} vs {e_ref}",
        out.energy
    );
    assert!(out.density.iter().all(|r| r.is_finite()));
    let s = faults::stats();
    assert_eq!((s.injected, s.recovered, s.aborted), (1, 1, 0), "{s:?}");
    assert!(s.by_action.contains_key("domain_retry_cached"), "{s:?}");
}

#[test]
fn cold_davidson_breakdown_retries_from_scratch() {
    let _g = gate();
    let e_ref = reference_energy(false);
    faults::reset_stats();
    let mut plan = FaultPlan::new();
    plan.push(FaultKind::DavidsonDiverge, Site::Domain(0), 1);
    let out = solve_under_plan(plan, config(false)).expect("scratch rung must rescue");
    assert_eq!(
        out.energy.to_bits(),
        e_ref.to_bits(),
        "{} vs {e_ref}",
        out.energy
    );
    let s = faults::stats();
    assert_eq!((s.injected, s.recovered, s.aborted), (1, 1, 0), "{s:?}");
    assert!(s.by_action.contains_key("domain_retry_scratch"), "{s:?}");
}

#[test]
fn exhausted_retry_ladder_is_a_typed_error() {
    let _g = gate();
    faults::reset_stats();
    // A cold start has one rung (scratch); break it too.
    let mut plan = FaultPlan::new();
    plan.push(FaultKind::DavidsonDiverge, Site::Domain(0), 1);
    plan.push(FaultKind::DavidsonDiverge, Site::Domain(0), 2);
    let out = solve_under_plan(plan, config(false));
    assert!(
        matches!(out, Err(MqmdError::Convergence { .. })),
        "{:?}",
        out.err()
    );
    let s = faults::stats();
    assert_eq!((s.injected, s.recovered, s.aborted), (2, 0, 1), "{s:?}");
}

#[test]
fn davidson_failure_trips_watchdog() {
    let _g = gate();
    events::set_enabled(true);
    let _ = events::drain();
    // One Davidson sweep against an impossible tolerance cannot converge:
    // every domain solve goes through the Ritz recovery and says so.
    let cfg = LdcConfig {
        davidson_iters: 1,
        davidson_tol: 1e-30,
        max_scf: 2,
        ..config(false)
    };
    let out = LdcSolver::new(cfg).solve(&h2());
    events::set_enabled(false);
    let (records, _) = events::drain();
    assert!(
        matches!(out, Err(MqmdError::Convergence { .. })),
        "{:?}",
        out.err()
    );
    let trips = records
        .iter()
        .filter(|r| {
            matches!(
                r.event,
                events::Event::WatchdogTrip {
                    watchdog: "davidson_failure",
                    ..
                }
            )
        })
        .count();
    assert_eq!(trips, 2, "one trip per SCF iteration's domain solve");
}

#[test]
fn insufficient_bands_is_a_typed_error() {
    let _g = gate();
    let cfg = LdcConfig {
        global_spacing: 2.0,
        domain_spacing: 2.0,
        ecut: 0.4,
        extra_bands: 200,
        ..config(false)
    };
    let out = LdcSolver::new(cfg).solve(&h2());
    assert!(matches!(out, Err(MqmdError::Invalid(_))), "{:?}", out.err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Under arbitrary bounded schedules of domain faults, at one domain
    /// and at two, the solve either lands within 1e-3 Ha of the fault-free
    /// energy with finite fields or reports a typed error.
    #[test]
    fn arbitrary_domain_fault_schedules_never_escape(
        codes in prop::collection::vec(0..48u64, 1..5),
        split in any::<bool>(),
    ) {
        let _g = gate();
        let e_ref = reference_energy(split);
        faults::reset_stats();
        let mut plan = FaultPlan::new();
        for &code in &codes {
            let kind = if code % 2 == 0 {
                FaultKind::DensityNan
            } else {
                FaultKind::DavidsonDiverge
            };
            let domain = if split { (code / 2) % 2 } else { 0 };
            // Solves 1..=12 of a domain, each address once: every domain
            // solves more than 12 times before the SCF converges.
            let (site, at) = (Site::Domain(domain), 1 + code / 4);
            if plan.faults.iter().all(|f| (f.site, f.at) != (site, at)) {
                plan.push(kind, site, at);
            }
        }
        let planned = plan.faults.len() as u64;
        let out = solve_under_plan(plan, config(split));
        let fired = faults::stats().injected;
        match out {
            Ok(out) => {
                prop_assert_eq!(fired, planned);
                prop_assert!(out.density.iter().all(|r| r.is_finite()));
                prop_assert!(out.forces.iter().all(|f| f.norm().is_finite()));
                prop_assert!(
                    (out.energy - e_ref).abs() < 1e-3,
                    "recovered energy {} strayed from reference {}",
                    out.energy,
                    e_ref
                );
            }
            // A typed error is an accepted outcome; panics and NaN are not.
            Err(MqmdError::Convergence { residual, .. }) => {
                prop_assert!(fired >= 1);
                prop_assert!(residual.is_nan() || residual >= 0.0);
            }
            Err(e) => return Err(proptest::test_runner::TestCaseError::Fail(
                format!("unexpected error class: {e}"),
            )),
        }
    }
}
