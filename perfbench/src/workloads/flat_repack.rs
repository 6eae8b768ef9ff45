//! `flat-repack`: flat controllers with a few hundred live VMs each,
//! running Proposed with a hybrid trigger, a QoS guard, adaptive slack
//! and overcommit over 20-minute periods, through server failures and
//! recoveries, with its events going into `sink::Threaded`. Batch
//! placement at boundaries sits beside single-VM admission and
//! evacuation: the allocator used two ways, no cells, no pool. Each
//! repetition replays several independent datacenters so the decision
//! figures average over more than one day's chaos.

use super::{FlatDay, RepResult, Workload};
use crate::gen::{churn_day, lower};
use crate::probe::{Probe, Tracer};
use crate::replay::{digest, Quality};
use cavm_core::dvfs::DvfsMode;
use cavm_core::fleet::ServerFleet;
use cavm_power::LinearPowerModel;
use cavm_sim::{
    ControllerConfig, DatacenterController, OvercommitConfig, Policy, QosGuard, RepackTrigger,
    ReportSink, SimReport, Threaded,
};
use cavm_trace::{Reference, SimRng};
use cavm_workload::faults::{FaultEntry, FaultModel, FaultPlan, FaultPlanBuilder};
use std::time::Instant;

const DATACENTERS: usize = 6;
const SAMPLE_DT_S: f64 = 30.0;
const PERIOD: usize = 40; // 20 minutes
const HOURS: usize = 24;
const SAMPLES_PER_HOUR: usize = 120;
const VMS: usize = 700;
const MEAN_LEASE: f64 = 960.0; // 8 hours
const SERVERS: usize = 64;
/// Failures hit the first few servers, which stay provisioned once the
/// first hours have filled the fleet.
const FAULT_SERVERS: usize = 6;
const FAULT_WARMUP: usize = 4 * SAMPLES_PER_HOUR;
const SINK_QUEUE: usize = 4096;
/// Entry calls per timing unit: about 20 ms of replay.
const UNIT_CALLS: u64 = 150;

pub struct FlatRepack {
    datacenters: Vec<FlatDay>,
    /// Controllers built at set-up, used by the first repetition.
    ready: Option<Vec<DatacenterController>>,
    last: Vec<SimReport>,
}

impl FlatRepack {
    fn build(&self) -> Vec<DatacenterController> {
        self.datacenters.iter().map(FlatDay::controller).collect()
    }
}

/// Per-server Poisson failures on the first servers, starting once the
/// fleet has been placed.
fn fault_plan(seed: u64, horizon: usize) -> FaultPlan {
    let plan = FaultPlanBuilder::new(horizon - FAULT_WARMUP)
        .seed(seed ^ 0x5eed_fa17)
        .block(
            0,
            FAULT_SERVERS,
            FaultModel {
                mtbf_samples: 1_500.0,
                mttr_samples: 60.0,
                outage_mtbf_samples: None,
                outage_mttr_samples: 1.0,
            },
        )
        .build()
        .expect("valid fault model");
    FaultPlan::from_entries(
        plan.entries()
            .iter()
            .map(|e| FaultEntry {
                sample: e.sample + FAULT_WARMUP,
                ..*e
            })
            .collect(),
    )
}

fn datacenter(seed: u64) -> FlatDay {
    let horizon = HOURS * SAMPLES_PER_HOUR;
    let mut rng = SimRng::new(seed);
    let plans = churn_day(
        &mut rng,
        VMS,
        horizon,
        0.9,
        MEAN_LEASE,
        24 * SAMPLES_PER_HOUR,
        SAMPLE_DT_S,
    );
    let events = lower(&plans, horizon, &fault_plan(seed, horizon));
    let cfg = ControllerConfig {
        server_fleet: ServerFleet::uniform(SERVERS, 8.0, LinearPowerModel::xeon_e5410())
            .expect("valid fleet"),
        policy: Policy::Proposed(Default::default()),
        repack_trigger: RepackTrigger::Hybrid { slack: 1 },
        qos_guard: Some(QosGuard {
            violation_ratio: 0.05,
        }),
        adaptive_slack_max: Some(3),
        overcommit: Some(OvercommitConfig {
            margin: 0.10,
            max_margin: 0.25,
        }),
        dvfs_mode: DvfsMode::Static,
        period_samples: PERIOD,
        reference: Reference::Peak,
        dynamic_headroom: 0.1,
        default_demand: 0.6,
        sample_dt_s: SAMPLE_DT_S,
        max_deferred: VMS,
    };
    FlatDay { cfg, plans, events }
}

/// Runs the summary through the far end of the threaded chain and
/// checks it arrived intact.
fn finish(
    front: &mut DatacenterController,
    mut probe: Probe<Threaded<ReportSink>>,
    report: &SimReport,
) -> (Tracer, Result<(), String>) {
    let dropped = probe.inner.dropped();
    let finished = front.finish(&mut probe);
    let Probe { inner, tracer, .. } = probe;
    let delivered = inner.finish();
    let check = finished
        .map_err(|e| format!("flat-repack: finish failed: {e}"))
        .and_then(|()| {
            let delivered = delivered
                .map_err(|e| format!("flat-repack: sink worker failed: {e}"))?
                .into_report()
                .ok_or("flat-repack: the threaded sink lost the summary")?;
            if delivered.energy != report.energy
                || delivered.periods != report.periods
                || delivered.sink_dropped_events != dropped
            {
                return Err("flat-repack: the threaded sink's summary differs".to_string());
            }
            Ok(())
        });
    (tracer, check)
}

impl Workload for FlatRepack {
    fn setup(seed: u64, _nproc: usize) -> (Self, f64) {
        let t = Instant::now();
        let datacenters = (0..DATACENTERS)
            .map(|d| datacenter(seed.wrapping_mul(1_000).wrapping_add(d as u64)))
            .collect();
        let generate_s = t.elapsed().as_secs_f64();
        let mut day = Self {
            datacenters,
            ready: None,
            last: Vec::new(),
        };
        day.ready = Some(day.build());
        (day, generate_s)
    }

    fn rep(&mut self, traced: bool) -> RepResult {
        let fronts = self.ready.take().unwrap_or_else(|| self.build());
        let mut result = RepResult::default();
        let mut tracer = Tracer::new(traced);
        self.last.clear();
        for (dc, mut front) in self.datacenters.iter().zip(fronts) {
            let mut probe =
                Probe::with_tracer(Threaded::new(ReportSink::new(), SINK_QUEUE), tracer);
            let replay_s = dc.replay(&mut front, &mut probe, &mut result, UNIT_CALLS);
            result.replay_s += replay_s;
            let report = front.report();
            result.sink_events += probe.events;
            result.sink_dropped += probe.inner.dropped();
            let (back, check) = finish(&mut front, probe, &report);
            tracer = back;
            if let (Err(e), None) = (check, &result.error) {
                result.error = Some(e);
            }
            self.last.push(report);
        }
        result.quality = Quality::of_all(&self.last);
        result.digest = digest(&self.last);
        result.rate_events = result.timings.calls;
        result.rate_wall_s = result.replay_s;
        result.spans = tracer.into_spans();
        result
    }

    fn self_check(&self, first: &RepResult) -> Result<(), String> {
        let repack_s: f64 = first.timings.boundary.iter().sum::<f64>()
            + first.timings.offcycle_tick.iter().sum::<f64>();
        if repack_s <= 0.5 * first.replay_s {
            return Err(format!(
                "flat-repack: boundary and off-cycle ticks take {repack_s:.3} s of a \
                 {:.3} s replay, not more than half",
                first.replay_s
            ));
        }
        for report in &self.last {
            if report.evacuations == 0 || report.offcycle_repacks == 0 {
                return Err(format!(
                    "flat-repack: every datacenter needs an evacuation and an off-cycle \
                     re-pack, one saw {} and {}",
                    report.evacuations, report.offcycle_repacks
                ));
            }
        }
        Ok(())
    }
}
