//! Round-trip property: a random open-system scenario exported to the
//! Azure CSV trace format and re-ingested through `AzureTraceReader`
//! must drive the controller **bit-identically** — same event stream
//! through the metric sink, same terminal report — for every policy,
//! under the guarded re-pack schedule.
//!
//! This is the contract that makes the dataset layer trustworthy: CSV
//! export/import is not "approximately" the workload, it *is* the
//! workload. f64 demand samples are written with the shortest
//! round-trip `Display` form, timestamps as exact multiples of the
//! sample period, so nothing is lost either way.

mod common;

use cavm_sim::{Policy, QosGuard, RepackTrigger, ScenarioBuilder};
use cavm_workload::datacenter::{DatacenterTraceBuilder, VmFleet};
use cavm_workload::dataset::{assemble, write_azure_csv, AzureTraceReader};
use cavm_workload::lifecycle::{ArrivalProcess, Lifecycle, LifecycleBuilder, LifetimeModel};
use common::Recorder;
use proptest::prelude::*;
use std::io::Cursor;

/// Runs one guarded open-system scenario and returns its full event
/// stream (the terminal `summary` line renders the whole report, so
/// comparing streams compares reports too).
fn replay(fleet: &VmFleet, lifecycle: &Lifecycle, policy: Policy) -> Vec<String> {
    let mut sink = Recorder::default();
    ScenarioBuilder::new(fleet.clone())
        .servers(10)
        .policy(policy)
        .repack_trigger(RepackTrigger::Fragmentation { slack: 1 })
        .qos_guard(QosGuard {
            violation_ratio: 0.08,
        })
        .period_samples(180)
        .lifecycle(lifecycle.clone())
        .build()
        .expect("scenario parameters are valid")
        .run_with_sink(&mut sink)
        .expect("scenario runs to completion");
    sink.events
}

fn all_policies() -> [Policy; 5] {
    [
        Policy::Bfd,
        Policy::Ffd,
        Policy::Pcp {
            envelope_percentile: 90.0,
            affinity_threshold: 0.10,
        },
        Policy::SuperVm {
            min_pair_cost: 1.25,
        },
        Policy::Proposed(Default::default()),
    ]
}

proptest! {
    /// Random builder schedule → Azure CSV → `AzureTraceReader` →
    /// identical controller behaviour for all five policies.
    #[test]
    fn azure_round_trip_is_bit_identical(
        seed in 0u32..1_000,
        vms in 4usize..10,
        groups in 2usize..4,
    ) {
        let fleet = DatacenterTraceBuilder::new(vms)
            .groups(groups.min(vms))
            .seed(seed as u64)
            .duration_hours(1.0)
            .vm_scale_range(0.35, 1.05)
            .build()
            .expect("builder parameters are valid");
        let horizon = fleet.vms()[0].fine.len();
        let lifecycle = LifecycleBuilder::new(vms, horizon)
            .seed(seed as u64 ^ 0xA52E)
            .arrivals(ArrivalProcess::Poisson {
                mean_gap_samples: horizon as f64 * 0.5 / vms as f64,
            })
            .lifetimes(LifetimeModel::Uniform {
                min_samples: horizon / 4,
                max_samples: (horizon * 3) / 4,
            })
            .build()
            .expect("lifecycle parameters are valid");

        let csv = write_azure_csv(&fleet, &lifecycle).expect("fleet exports");
        let dt = fleet.vms()[0].fine.dt();
        let mut reader = AzureTraceReader::new(Cursor::new(csv), dt, horizon)
            .expect("reader header parses");
        let (rt_fleet, rt_lifecycle) = assemble(&mut reader).expect("csv re-ingests");

        prop_assert_eq!(rt_lifecycle.entries(), lifecycle.entries());
        for policy in all_policies() {
            let events = replay(&fleet, &lifecycle, policy);
            let rt_events = replay(&rt_fleet, &rt_lifecycle, policy);
            prop_assert_eq!(&events, &rt_events, "event stream diverged under {}", policy.name());
        }
    }
}
