//! Unit tests of the adaptive loops and of controller configuration
//! validation.

use super::*;
use crate::config::Policy;
use cavm_core::dvfs::DvfsMode;
use cavm_trace::Reference;

/// Regression for the decay-streak bug: a zero-migration re-pack
/// carries no cost signal, so it must leave an in-progress miss
/// streak untouched. The broken `observe` cleared `misses` before
/// its `migrations == 0` early return, letting a cost-free re-pack
/// indefinitely postpone the slack decay.
#[test]
fn cost_free_repack_does_not_interrupt_miss_streak() {
    let mut ctl = SlackController::new(1, 3);
    ctl.observe(1, 8); // expensive: slack 1 -> 2
    assert_eq!(ctl.current(), 2);
    ctl.observe_miss(1); // streak 1 of MISS_STREAK=2
    ctl.observe(0, 0); // cost-free re-pack: no signal
    ctl.observe_miss(1); // streak completes -> decay
    assert_eq!(
        ctl.current(),
        1,
        "a zero-migration observe must not reset the miss streak"
    );
}

/// A priced observation (migrations > 0) legitimately resets the
/// streak — only the cost-free case was the bug.
#[test]
fn priced_repack_still_resets_miss_streak() {
    let mut ctl = SlackController::new(1, 3);
    ctl.observe(1, 8); // slack 1 -> 2
    ctl.observe_miss(1); // streak 1
    ctl.observe(1, 3); // priced, mid-band: holds slack, resets streak
    ctl.observe_miss(1); // streak 1 again, not 2
    assert_eq!(ctl.current(), 2, "a priced observe must reset the streak");
    ctl.observe_miss(1);
    assert_eq!(ctl.current(), 1);
}

#[test]
fn overcommit_controller_walks_within_bounds() {
    let guard = 0.05;
    let mut ctl = OvercommitController::new(0.0, 0.10);
    // Comfortable periods grow the margin in STEP increments after
    // RAISE_STREAK, never past the ceiling.
    for _ in 0..20 {
        ctl.observe_period(0.0, guard);
        assert!(ctl.current() <= ctl.max() + 1e-12);
        assert!(ctl.current() >= 0.0);
    }
    assert!(
        (ctl.current() - 0.10).abs() < 1e-9,
        "sustained headroom reaches the ceiling"
    );
    // A breach shrinks immediately.
    ctl.observe_period(0.20, guard);
    assert!((ctl.current() - 0.05).abs() < 1e-9);
    // Middle band (acceptable but not comfortable) holds.
    ctl.observe_period(0.04, guard);
    assert!((ctl.current() - 0.05).abs() < 1e-9);
    // And the middle band resets the raise streak: one comfortable
    // period after it must not grow yet.
    ctl.observe_period(0.0, guard);
    assert!((ctl.current() - 0.05).abs() < 1e-9);
    ctl.observe_period(0.0, guard);
    assert!((ctl.current() - 0.10).abs() < 1e-9);
    // Repeated breaches floor at zero.
    for _ in 0..5 {
        ctl.observe_period(0.9, guard);
    }
    assert_eq!(ctl.current(), 0.0);
}

fn config_with(overcommit: Option<OvercommitConfig>, guard: Option<QosGuard>) -> ControllerConfig {
    ControllerConfig {
        server_fleet: cavm_core::fleet::ServerFleet::uniform(
            8,
            8.0,
            cavm_power::LinearPowerModel::xeon_e5410(),
        )
        .unwrap(),
        policy: Policy::Proposed(Default::default()),
        repack_trigger: RepackTrigger::Periodic,
        qos_guard: guard,
        adaptive_slack_max: None,
        overcommit,
        dvfs_mode: DvfsMode::Static,
        period_samples: 16,
        reference: Reference::Peak,
        dynamic_headroom: 0.1,
        default_demand: 1.0,
        sample_dt_s: 5.0,
        max_deferred: 64,
    }
}

#[test]
fn overcommit_config_validation() {
    let guard = Some(QosGuard {
        violation_ratio: 0.05,
    });
    let oc = |margin, max_margin| Some(OvercommitConfig { margin, max_margin });

    config_with(oc(0.0, 0.25), guard)
        .validate()
        .expect("margin 0 with a guard is valid");
    assert!(
        config_with(oc(0.0, 0.25), None).validate().is_err(),
        "overcommit requires the guard"
    );
    assert!(
        config_with(oc(0.0, 0.0), guard).validate().is_err(),
        "max_margin must be positive"
    );
    assert!(
        config_with(oc(0.5, 0.25), guard).validate().is_err(),
        "margin must not exceed max_margin"
    );
}
