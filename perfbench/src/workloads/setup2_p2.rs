//! `setup2-p2`: the paper's Setup-2 closed world — the busiest 40 of a
//! larger, partly idle VM population on 20 uniform servers, Proposed,
//! provisioning by the 95th percentile and dynamic DVFS — over several
//! independent datacenters per repetition. It is the only workload on
//! which the P² streaming reduction and dynamic DVFS planning run.

use super::{FlatDay, RepResult, Workload};
use crate::gen::{lower, VmPlan};
use crate::probe::Probe;
use crate::replay::{digest, Quality};
use cavm_core::dvfs::DvfsMode;
use cavm_sim::{DatacenterController, NullSink, Policy, ScenarioBuilder, SimReport};
use cavm_trace::Reference;
use cavm_workload::datacenter::DatacenterTraceBuilder;
use cavm_workload::faults::FaultPlan;
use std::time::Instant;

const DATACENTERS: usize = 16;
/// Entry calls per timing unit: about 20 ms of replay.
const UNIT_CALLS: u64 = 1_000;
const HOURS: usize = 24;
const CANDIDATES: usize = 120;
const BUSIEST: usize = 40;
const SERVERS: usize = 20;
const REFERENCE: Reference = Reference::Percentile(95.0);
const DVFS: DvfsMode = DvfsMode::Dynamic {
    interval_samples: 12,
};

fn datacenter(seed: u64, d: usize) -> FlatDay {
    let fleet = DatacenterTraceBuilder::new(CANDIDATES)
        .groups(10)
        .seed(seed.wrapping_mul(1_000).wrapping_add(d as u64))
        .idle_fraction(0.4)
        .vm_scale_range(0.35, 1.05)
        .duration_hours(HOURS as f64)
        .build()
        .expect("valid trace parameters")
        .select_top(BUSIEST);
    let horizon = fleet.vms()[0].fine.len();
    // Closed world: every VM arrives before the first tick and stays.
    let plans: Vec<VmPlan> = fleet
        .vms()
        .iter()
        .map(|vm| VmPlan {
            arrival: 0,
            departure: None,
            trace: vm.fine.clone(),
        })
        .collect();
    let scenario = ScenarioBuilder::new(fleet)
        .servers(SERVERS)
        .policy(Policy::Proposed(Default::default()))
        .reference(REFERENCE)
        .dvfs_mode(DVFS)
        .build()
        .expect("valid scenario");
    let horizon = horizon / scenario.period_samples() * scenario.period_samples();
    let events = lower(&plans, horizon, &FaultPlan::empty());
    FlatDay {
        cfg: scenario.controller_config(),
        plans,
        events,
    }
}

pub struct Setup2P2 {
    datacenters: Vec<FlatDay>,
    /// Controllers built at set-up, used by the first repetition.
    ready: Option<Vec<DatacenterController>>,
    last: Vec<SimReport>,
}

impl Setup2P2 {
    fn build(&self) -> Vec<DatacenterController> {
        self.datacenters.iter().map(FlatDay::controller).collect()
    }
}

impl Workload for Setup2P2 {
    fn setup(seed: u64, _nproc: usize) -> (Self, f64) {
        let t = Instant::now();
        let datacenters = (0..DATACENTERS).map(|d| datacenter(seed, d)).collect();
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
        let mut probe = Probe::new(NullSink, traced);
        let mut result = RepResult::default();
        self.last.clear();
        for (dc, mut front) in self.datacenters.iter().zip(fronts) {
            let replay_s = dc.replay(&mut front, &mut probe, &mut result, UNIT_CALLS);
            result.replay_s += replay_s;
            self.last.push(front.report());
        }
        result.quality = Quality::of_all(&self.last);
        result.digest = digest(&self.last);
        result.rate_events = result.timings.calls;
        result.rate_wall_s = result.replay_s;
        result.sink_events = probe.events;
        result.spans = probe.tracer.into_spans();
        result
    }

    fn self_check(&self, _first: &RepResult) -> Result<(), String> {
        for (dc, report) in self.datacenters.iter().zip(&self.last) {
            if dc.cfg.reference != REFERENCE || dc.cfg.dvfs_mode != DVFS || !report.dynamic_dvfs {
                return Err("setup2-p2: the P95 reference or dynamic DVFS is not in effect".into());
            }
            // Dynamic planning must actually move servers between levels.
            let levels = report.freq_levels_ghz.len();
            let used = (0..levels)
                .filter(|&l| report.freq_histogram.iter().any(|h| h.get(l) > Some(&0)))
                .count();
            if used < 2 {
                return Err(format!(
                    "setup2-p2: dynamic DVFS used {used} frequency level(s), expected several"
                ));
            }
        }
        Ok(())
    }
}
