//! Watchdog × retry-ladder interplay: when a fail-fast [`DriftWatchdog`]
//! trips during a job that is also absorbing an injected domain fault, a
//! retry ladder around the run must *escalate* (relax the tripped bound,
//! soften the mixing, grow the SCF budget) and terminate within its attempt
//! cap — never retry the identical configuration forever.
//!
//! This is the single-process miniature of the service runtime's retry
//! ladder (`mqmd-serve`), pinned here at the solver level.

use mqmd_core::global::{BoundaryMode, HartreeSolver, LdcConfig, LdcSolver};
use mqmd_core::qmd::{DriftWatchdog, QmdDriver};
use mqmd_md::thermostat::NoseHoover;
use mqmd_md::AtomicSystem;
use mqmd_util::constants::Element;
use mqmd_util::faults::{self, FaultKind, FaultPlan, Site};
use mqmd_util::{events, Vec3, Xoshiro256pp};

fn h2() -> AtomicSystem {
    let mut sys = AtomicSystem::new(
        Vec3::splat(8.0),
        vec![Element::H, Element::H],
        vec![Vec3::new(3.3, 4.0, 4.0), Vec3::new(4.7, 4.0, 4.0)],
    );
    let mut rng = Xoshiro256pp::seed_from_u64(7);
    sys.thermalize(300.0, &mut rng);
    sys
}

/// The ladder's per-attempt escalation, mirroring `mqmd_serve`: attempt 1
/// is the rigged baseline (a drift bound nothing can satisfy); later
/// attempts relax the bound and give the SCF more headroom.
fn attempt_setup(attempt: u32) -> (LdcSolver, DriftWatchdog) {
    let cfg = LdcConfig {
        nd: (1, 1, 1),
        buffer: 0.0,
        mode: BoundaryMode::Periodic,
        hartree: HartreeSolver::Fft,
        global_spacing: 1.2,
        domain_spacing: 1.2,
        ecut: 2.0,
        tol_density: 1e-4,
        max_scf: 60 * attempt as usize,
        mix_alpha: 0.4 * 0.5f64.powi(attempt as i32 - 1),
        ..Default::default()
    };
    let watchdog = DriftWatchdog {
        // Attempt 1 is rigged to trip: any non-zero drift exceeds 1e-300.
        max_rel_drift: if attempt == 1 { 1e-300 } else { 0.05 },
        fail_fast: true,
    };
    (LdcSolver::new(cfg), watchdog)
}

#[test]
fn watchdog_trip_escalates_ladder_and_terminates() {
    const STEPS: usize = 2;
    const MAX_ATTEMPTS: u32 = 3;

    events::set_enabled(true);
    let _ = events::drain();
    faults::reset_stats();
    // One domain fault lands inside the first (rigged) attempt, so the
    // in-solver retry ladder and the outer retry ladder overlap.
    let mut plan = FaultPlan::new();
    plan.push(FaultKind::DensityNan, Site::Domain(0), 2);
    faults::install(plan);

    let mut outcomes = Vec::new();
    let mut succeeded_at = None;
    for attempt in 1..=MAX_ATTEMPTS {
        let (mut solver, watchdog) = attempt_setup(attempt);
        let mut sys = h2();
        let mut driver = QmdDriver::<NoseHoover>::new(10.0, None).with_drift_watchdog(watchdog);
        match driver.try_run(&mut sys, &mut solver, STEPS) {
            // A fail-fast trip surfaces as a *short* Ok report, not an
            // error — the ladder must treat it as a failed attempt.
            Ok(rep) if rep.steps == STEPS && rep.watchdog_trips == 0 => {
                outcomes.push(format!("attempt {attempt}: completed"));
                succeeded_at = Some(attempt);
                break;
            }
            Ok(rep) => {
                outcomes.push(format!(
                    "attempt {attempt}: tripped after {} of {STEPS} steps (max drift {:.3e})",
                    rep.steps, rep.max_drift
                ));
                faults::record_recovery(
                    "ladder_escalate_retry",
                    "watchdog".into(),
                    attempt,
                    rep.wall_seconds,
                );
            }
            Err(e) => {
                outcomes.push(format!("attempt {attempt}: error {e}"));
                faults::record_recovery("ladder_escalate_retry", "scf".into(), attempt, 0.0);
            }
        }
    }
    faults::clear();
    events::set_enabled(false);
    let (records, _dropped) = events::drain();

    // The rigged first attempt must have tripped, the escalated retry must
    // have finished, and the ladder must have stayed within its cap
    // instead of looping on the broken configuration.
    assert!(
        outcomes[0].contains("tripped"),
        "rigged bound did not trip: {outcomes:?}"
    );
    let done_at = succeeded_at.unwrap_or_else(|| {
        panic!("ladder exhausted {MAX_ATTEMPTS} attempts without success: {outcomes:?}")
    });
    assert_eq!(
        done_at, 2,
        "escalation should succeed on the first relaxed attempt: {outcomes:?}"
    );

    // The drift trip was recorded as a structured event…
    let trips = records
        .iter()
        .filter(|r| {
            matches!(
                &r.event,
                events::Event::WatchdogTrip { watchdog, .. } if *watchdog == "energy_drift"
            )
        })
        .count();
    assert!(trips >= 1, "no energy_drift WatchdogTrip event recorded");

    // …the planned domain fault fired once and the solver's own ladder
    // answered it, and the campaign ledger balances.
    let stats = faults::stats();
    assert_eq!(stats.injected, 1, "the planned domain fault never fired");
    assert!(
        stats.by_action.contains_key("domain_retry_cached"),
        "in-solver rung missing from ledger: {:?}",
        stats.by_action
    );
    assert!(
        stats.injected <= stats.recovered + stats.aborted,
        "fault ledger unbalanced: {stats:?}"
    );
    assert!(
        stats.by_action.contains_key("ladder_escalate_retry"),
        "escalation rung missing from ledger: {:?}",
        stats.by_action
    );
}
