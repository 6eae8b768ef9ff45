//! The four workloads. Each generates its inputs from the seed, replays
//! them once per repetition against a freshly built controller, and
//! asserts the property that makes it exercise its layer.

pub mod flat_repack;
pub mod scale_day;
pub mod service_day;
pub mod setup2_p2;

use crate::gen::VmPlan;
use crate::probe::{Probe, Span};
use crate::replay::{replay, Quality, Timings};
use crate::shadow::{ShadowBoundary, ShadowStats};
use cavm_sim::{ControllerConfig, DatacenterController, MetricSink, VmEvent};
use std::time::Instant;

/// What one repetition measured.
#[derive(Debug, Default)]
pub struct RepResult {
    pub timings: Timings,
    /// Wall time of the replay, shadow calls excluded.
    pub replay_s: f64,
    /// Events and wall time behind this repetition's `events_per_s`.
    pub rate_events: u64,
    pub rate_wall_s: f64,
    pub quality: Quality,
    /// Digest of every report the repetition produced.
    pub digest: u64,
    pub spans: Vec<Span>,
    pub shadow: ShadowStats,
    /// Callbacks that reached the sink chain, and the ones it dropped.
    pub sink_events: u64,
    pub sink_dropped: u64,
    /// Service-day only: host run time, serial session replay time and
    /// pool size.
    pub service: Option<ServiceTimes>,
    /// A correctness failure found while replaying.
    pub error: Option<String>,
    /// The process's peak resident set once this repetition ended, MiB.
    pub peak_rss_mib: f64,
}

#[derive(Debug, Clone, Copy)]
pub struct ServiceTimes {
    pub run_s: f64,
    pub session_busy_s: f64,
    pub workers: usize,
}

/// The generated day of one flat controller: a datacenter or a session.
pub struct FlatDay {
    pub cfg: ControllerConfig,
    pub plans: Vec<VmPlan>,
    pub events: Vec<VmEvent>,
}

impl FlatDay {
    pub fn controller(&self) -> DatacenterController {
        DatacenterController::new(self.cfg.clone()).expect("valid controller config")
    }

    /// Replays the day into `front` in units of `unit_calls` entry
    /// calls, running the `corr` and `alloc` shadows after each boundary
    /// when tracing. Returns the replay's wall time, shadow calls
    /// excluded.
    pub fn replay<S: MetricSink>(
        &self,
        front: &mut DatacenterController,
        probe: &mut Probe<S>,
        result: &mut RepResult,
        unit_calls: u64,
    ) -> f64 {
        let ids: Vec<usize> = (0..self.plans.len()).collect();
        let period = self.cfg.period_samples;
        let events = self.events.clone();
        let mut shadow_s = 0.0;
        let started = Instant::now();
        replay(
            front,
            events,
            probe,
            &mut result.timings,
            unit_calls,
            |_, _, _| {},
            |front, closed, probe| {
                let t = Instant::now();
                let stats = ShadowBoundary {
                    cfg: &self.cfg,
                    fleet: &self.cfg.server_fleet,
                    ids: &ids,
                    plans: &self.plans,
                    predicted: front.predicted_vms(),
                    opened_at: front.clock() - 1,
                    closed: closed.map(|p| (p * period, period)),
                }
                .run(&mut probe.tracer);
                result.shadow.add(&stats);
                shadow_s += t.elapsed().as_secs_f64();
            },
        );
        started.elapsed().as_secs_f64() - shadow_s
    }
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Generates the inputs from `seed` and builds the first
    /// controller; returns the workload and the generation time alone.
    fn setup(seed: u64, nproc: usize) -> (Self, f64);

    /// Replays the inputs once against a fresh controller.
    fn rep(&mut self, traced: bool) -> RepResult;

    /// Asserts the property that makes the workload exercise its layer.
    fn self_check(&self, first: &RepResult) -> Result<(), String>;

    /// Correctness checks beyond repeatable digests.
    fn gate(&mut self) -> Result<(), String> {
        Ok(())
    }
}
