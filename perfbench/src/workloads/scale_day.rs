//! `scale-day`: a cell-sharded controller under churn with short
//! leases, Peak reference, hourly periods. Every cell's id
//! universe far outgrows its live set, so window replay over dead ids,
//! the serial cell loop and routing do most of the work.

use super::{RepResult, Workload};
use crate::gen::{churn_day, lower, VmPlan};
use crate::probe::{Layer, Probe};
use crate::replay::{digest, replay, Quality, Timings};
use crate::shadow::{cell_universe, ShadowBoundary, ShadowStats};
use cavm_core::dvfs::DvfsMode;
use cavm_core::fleet::ServerFleet;
use cavm_power::LinearPowerModel;
use cavm_sim::{ControllerConfig, NullSink, Policy, ShardedController, VmEvent};
use cavm_trace::{MomentSketch, Reference, SimRng};
use cavm_workload::faults::FaultPlan;
use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

const SAMPLE_DT_S: f64 = 30.0;
const PERIOD: usize = 120; // hourly at 30 s samples
const HOURS: usize = 24;
const VMS: usize = 6_000;
const CELLS: usize = 48;
const SERVERS: usize = 192;
const MEAN_LEASE: f64 = 240.0; // 2 hours
/// Entry calls per timing unit: about 20 ms of replay.
const UNIT_CALLS: u64 = 500;
/// Ids routed per cell must exceed the cell's peak live VMs this often.
const MIN_UNIVERSE_RATIO: f64 = 4.0;

pub struct ScaleDay {
    cfg: ControllerConfig,
    plans: Vec<VmPlan>,
    events: Vec<VmEvent>,
    front: Option<ShardedController>,
    /// Cell of every id after the last repetition.
    cell_of: Vec<Option<usize>>,
}

impl ScaleDay {
    fn build(&self) -> ShardedController {
        ShardedController::new(self.cfg.clone(), CELLS).expect("valid sharded config")
    }
}

impl Workload for ScaleDay {
    fn setup(seed: u64, _nproc: usize) -> (Self, f64) {
        let t = Instant::now();
        let horizon = HOURS * PERIOD;
        let mut rng = SimRng::new(seed);
        let plans = churn_day(
            &mut rng,
            VMS,
            horizon,
            0.8,
            MEAN_LEASE,
            horizon,
            SAMPLE_DT_S,
        );
        let events = lower(&plans, horizon, &FaultPlan::empty());
        let generate_s = t.elapsed().as_secs_f64();
        let cfg = ControllerConfig {
            server_fleet: ServerFleet::uniform(SERVERS, 8.0, LinearPowerModel::xeon_e5410())
                .expect("valid fleet"),
            policy: Policy::Proposed(Default::default()),
            repack_trigger: Default::default(),
            qos_guard: None,
            adaptive_slack_max: None,
            overcommit: None,
            dvfs_mode: DvfsMode::Static,
            period_samples: PERIOD,
            reference: Reference::Peak,
            dynamic_headroom: 0.1,
            default_demand: 0.6,
            sample_dt_s: SAMPLE_DT_S,
            max_deferred: VMS,
        };
        let mut day = Self {
            cfg,
            plans,
            events,
            front: None,
            cell_of: Vec::new(),
        };
        day.front = Some(day.build());
        (day, generate_s)
    }

    fn rep(&mut self, traced: bool) -> RepResult {
        let mut front = self.front.take().unwrap_or_else(|| self.build());
        let events = self.events.clone();
        let plans = &self.plans;
        let mut probe = Probe::new(NullSink, traced);
        let mut timings = Timings::default();
        let mut shadow = ShadowStats::default();
        // Shadow calls (and building their inputs) are not replay time.
        let shadow_ns = Cell::new(0u128);
        let started = Instant::now();
        replay(
            &mut front,
            events,
            &mut probe,
            &mut timings,
            UNIT_CALLS,
            |front, trace, probe| {
                let t = Instant::now();
                let sketch = probe.tracer.span(Layer::CellsRoute, || {
                    MomentSketch::from_series(trace, front.clock(), PERIOD)
                });
                black_box(sketch.expect("valid sketch"));
                shadow_ns.set(shadow_ns.get() + t.elapsed().as_nanos());
            },
            |front, closed, probe| {
                let t = Instant::now();
                let opened_at = front.clock() - 1;
                let arrived = plans.partition_point(|p| p.arrival <= opened_at);
                let mut ids: Vec<Vec<usize>> = vec![Vec::new(); front.cells()];
                for id in 0..arrived {
                    if let Some(c) = front.cell_of_vm(id) {
                        ids[c].push(id);
                    }
                }
                for (c, cell_ids) in ids.iter().enumerate() {
                    let ctl = front.cell_controller(c).expect("cell exists");
                    let stats = ShadowBoundary {
                        cfg: ctl.config(),
                        fleet: &ctl.config().server_fleet,
                        ids: cell_ids,
                        plans,
                        predicted: ctl.predicted_vms(),
                        opened_at,
                        closed: closed.map(|p| (p * PERIOD, PERIOD)),
                    }
                    .run(&mut probe.tracer);
                    shadow.add(&stats);
                }
                let universes: Vec<usize> = ids.iter().map(Vec::len).collect();
                let live: Vec<usize> = ids
                    .iter()
                    .map(|c| c.iter().filter(|&&id| plans[id].live_at(opened_at)).count())
                    .collect();
                cell_universe(&mut shadow, &universes, &live);
                shadow_ns.set(shadow_ns.get() + t.elapsed().as_nanos());
            },
        );
        let replay_s = started.elapsed().as_secs_f64() - shadow_ns.get() as f64 * 1e-9;
        let report = front.report();
        self.cell_of = (0..self.plans.len())
            .map(|id| front.cell_of_vm(id))
            .collect();
        RepResult {
            rate_events: timings.calls,
            rate_wall_s: replay_s,
            replay_s,
            quality: Quality::of(&report),
            digest: digest(std::slice::from_ref(&report)),
            sink_events: probe.events,
            spans: probe.tracer.into_spans(),
            timings,
            shadow,
            ..RepResult::default()
        }
    }

    fn self_check(&self, _first: &RepResult) -> Result<(), String> {
        let mut routed = vec![0usize; CELLS];
        let mut deltas: Vec<Vec<(usize, i64)>> = vec![Vec::new(); CELLS];
        for (plan, cell) in self.plans.iter().zip(&self.cell_of) {
            let Some(c) = *cell else { continue };
            routed[c] += 1;
            deltas[c].push((plan.arrival, 1));
            if let Some(d) = plan.departure {
                deltas[c].push((d, -1));
            }
        }
        let peak_live: usize = deltas
            .iter_mut()
            .map(|d| {
                // Departures at a sample apply before its arrivals.
                d.sort_unstable();
                let (mut live, mut peak) = (0i64, 0i64);
                for &(_, delta) in d.iter() {
                    live += delta;
                    peak = peak.max(live);
                }
                peak as usize
            })
            .max()
            .unwrap_or(0);
        let mean_routed = routed.iter().sum::<usize>() as f64 / CELLS as f64;
        if mean_routed < MIN_UNIVERSE_RATIO * peak_live as f64 {
            return Err(format!(
                "scale-day: {mean_routed:.0} ids routed per cell is not {MIN_UNIVERSE_RATIO}x \
                 the peak of {peak_live} live VMs in a cell"
            ));
        }
        Ok(())
    }
}
