//! Absolute decision goldens: the full sink event stream of three
//! canonical controller runs, hashed with a fixed FNV-1a and pinned.
//!
//! The `fleet_regression` goldens pin only periodic batch runs, and the
//! equivalence proptests compare two sides that a shared refactor would
//! change together. These digests pin every admission, migration,
//! re-pack, evacuation, violation and energy figure of runs that
//! exercise the QoS guard, the boundary trim, deliberate overcommit,
//! server failures and the sharded front — so a refactor of the
//! controller that changes any decision fails here, whatever else it
//! keeps consistent.
//!
//! The three runs mirror the experiment binaries:
//!
//! * `exp_online`'s departure-heavy day under the guarded-overcommit
//!   schedule (40 VMs, 24 h, proposed policy);
//! * `exp_faults`' 3 h-MTBF plan on the guarded-hybrid schedule over
//!   the same day (its `faults` artifact row: 25 failures, 90
//!   evacuations);
//! * the first run's event stream replayed through a 4-cell
//!   `ShardedController`.

mod common;

use cavm_sim::service::lifecycle_events;
use cavm_sim::{Policy, QosGuard, RepackTrigger, Scenario, ScenarioBuilder, ShardedController};
use cavm_workload::datacenter::{DatacenterTraceBuilder, VmFleet};
use cavm_workload::faults::{FaultModel, FaultPlanBuilder};
use cavm_workload::lifecycle::{ArrivalProcess, Lifecycle, LifecycleBuilder, LifetimeModel};
use common::Recorder;

const VMS: usize = 40;
const HOURS: f64 = 24.0;
const SAMPLES_PER_HOUR: f64 = 720.0;
const GUARD: QosGuard = QosGuard {
    violation_ratio: 0.08,
};

/// 64-bit FNV-1a over every event line, each terminated by `\n`.
fn fnv1a(events: &[String]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for line in events {
        for &byte in line.as_bytes().iter().chain(b"\n") {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// The experiments' fleet: top 40 of 120 synthetic VMs over a day.
fn fleet() -> VmFleet {
    DatacenterTraceBuilder::new(VMS * 3)
        .groups(VMS / 4)
        .seed(2013)
        .idle_fraction(0.4)
        .vm_scale_range(0.35, 1.05)
        .duration_hours(HOURS)
        .build()
        .expect("static builder parameters are valid")
        .select_top(VMS)
}

/// The departure-heavy day: arrivals over the first 70%, leases of
/// 8–25% of the horizon.
fn departure_heavy(horizon: usize) -> Lifecycle {
    LifecycleBuilder::new(VMS, horizon)
        .seed(7)
        .arrivals(ArrivalProcess::Poisson {
            mean_gap_samples: horizon as f64 * 0.7 / VMS as f64,
        })
        .lifetimes(LifetimeModel::Uniform {
            min_samples: (horizon * 8 / 100).max(1),
            max_samples: (horizon / 4).max(2),
        })
        .build()
        .expect("static lifecycle parameters are valid")
}

/// `exp_online`'s guarded-overcommit schedule.
fn guarded_overcommit(fleet: &VmFleet, lifecycle: &Lifecycle) -> Scenario {
    ScenarioBuilder::new(fleet.clone())
        .servers(VMS)
        .policy(Policy::Proposed(Default::default()))
        .lifecycle(lifecycle.clone())
        .repack_trigger(RepackTrigger::Fragmentation { slack: 1 })
        .qos_guard(GUARD)
        .overcommit(0.25, 0.35)
        .build()
        .expect("scenario parameters are valid")
}

fn assert_golden(name: &str, events: &[String], count: usize, digest: u64) {
    let got = fnv1a(events);
    assert_eq!(
        (events.len(), got),
        (count, digest),
        "{name}: decision stream changed ({} events, digest {got:#018x})",
        events.len(),
    );
}

#[test]
fn guarded_overcommit_day_is_pinned() {
    let fleet = fleet();
    let lifecycle = departure_heavy(fleet.vms()[0].fine.len());
    let mut sink = Recorder::default();
    guarded_overcommit(&fleet, &lifecycle)
        .run_with_sink(&mut sink)
        .expect("scenario runs to completion");
    let report = sink.report.as_ref().expect("finished run has a report");
    assert_eq!(
        (report.total_migrations(), report.offcycle_repacks),
        (43, 9),
        "the guarded-overcommit row of the online artifact"
    );
    assert_golden(
        "guarded-overcommit",
        &sink.events,
        558,
        0x9483_bf6e_4d89_6a7d,
    );
}

#[test]
fn three_hour_mtbf_faults_are_pinned() {
    let fleet = fleet();
    let horizon = fleet.vms()[0].fine.len();
    let lifecycle = departure_heavy(horizon);
    // `exp_faults` aims the plan at the fault-free run's peak band,
    // 8 servers at this size (its `faults` artifact's `fault_band`).
    let mtbf_hours = 3.0;
    let mttr_min = 20.0;
    let plan = FaultPlanBuilder::new(horizon)
        .seed(2013)
        .block(
            0,
            8,
            FaultModel {
                mtbf_samples: mtbf_hours * SAMPLES_PER_HOUR,
                mttr_samples: mttr_min * SAMPLES_PER_HOUR / 60.0,
                outage_mtbf_samples: Some(5.0 * mtbf_hours * SAMPLES_PER_HOUR),
                outage_mttr_samples: mttr_min * SAMPLES_PER_HOUR / 120.0,
            },
        )
        .build()
        .expect("static fault parameters are valid");
    let scenario = ScenarioBuilder::new(fleet)
        .servers(VMS)
        .policy(Policy::Proposed(Default::default()))
        .lifecycle(lifecycle)
        .repack_trigger(RepackTrigger::Hybrid { slack: 1 })
        .qos_guard(GUARD)
        .adaptive_slack_max(4)
        .faults(plan)
        .build()
        .expect("scenario parameters are valid");
    let mut sink = Recorder::default();
    scenario
        .run_with_sink(&mut sink)
        .expect("scenario runs to completion");
    let report = sink.report.as_ref().expect("finished run has a report");
    assert_eq!(
        (report.server_failures, report.evacuations),
        (25, 90),
        "the 3 h-MTBF row of the faults artifact"
    );
    assert_golden("faults-3h", &sink.events, 509, 0x42c8_072d_0eb8_680d);
}

#[test]
fn sharded_replay_is_pinned() {
    let fleet = fleet();
    let lifecycle = departure_heavy(fleet.vms()[0].fine.len());
    let scenario = guarded_overcommit(&fleet, &lifecycle);
    let events = lifecycle_events(&fleet, &lifecycle, scenario.period_samples())
        .expect("lifecycle lowers to events");
    let mut sharded =
        ShardedController::new(scenario.controller_config(), 4).expect("config is valid");
    let mut sink = Recorder::default();
    for event in events {
        sharded.apply(event, &mut sink).expect("event applies");
    }
    sharded.finish(&mut sink).expect("session finishes");
    assert_golden("sharded-4", &sink.events, 450, 0xfbf7_ed53_d986_38e3);
}
