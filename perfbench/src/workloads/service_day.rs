//! `service-day`: a `SessionHost` with `nproc` workers running many
//! small sessions that cycle all five policies. Per-event overhead on
//! tiny matrices and the worker pool dominate; the large-matrix and
//! allocator paths barely run.
//!
//! Each repetition runs the schedule on the host, then replays each
//! session serially through the same controller entry calls a worker
//! makes; those replays must reproduce the host's per-session reports
//! exactly. `events_per_s` and the per-call timings come from the serial
//! replay, the pool's figures from the host run.

use super::{FlatDay, RepResult, ServiceTimes, Workload};
use crate::gen::{arrivals, lower, VmPlan};
use crate::probe::{Layer, Probe};
use crate::replay::{digest, Quality};
use cavm_sim::{
    NullSink, Policy, QosGuard, RepackTrigger, ScenarioBuilder, ServiceReport, SessionEvent,
    SessionHost,
};
use cavm_trace::SimRng;
use cavm_workload::datacenter::DatacenterTraceBuilder;
use cavm_workload::faults::FaultPlan;
use std::time::Instant;

const SESSIONS: usize = 256;
const VMS: usize = 20;
const HOURS: usize = 6;
const MIN_ARRIVALS: usize = 1_000;
/// Each serially replayed session is one timing unit (a few ms).
const UNIT_CALLS: u64 = u64::MAX;

fn five_policies() -> [Policy; 5] {
    [
        Policy::Bfd,
        Policy::Ffd,
        Policy::Pcp {
            envelope_percentile: 90.0,
            affinity_threshold: 0.2,
        },
        Policy::SuperVm {
            min_pair_cost: 1.25,
        },
        Policy::Proposed(Default::default()),
    ]
}

/// One tenant: its own correlated trace fleet, a Poisson churn
/// schedule over the first half of the day and exponential leases.
fn session(seed: u64, s: usize) -> FlatDay {
    let fleet = DatacenterTraceBuilder::new(VMS)
        .groups((VMS / 4).max(2))
        .seed(seed.wrapping_mul(1_000).wrapping_add(s as u64))
        .duration_hours(HOURS as f64)
        .vm_scale_range(0.35, 1.05)
        .build()
        .expect("valid trace parameters");
    let horizon = fleet.vms()[0].fine.len();
    let mut rng = SimRng::new(seed ^ (0xc0ffee + s as u64));
    let gap = horizon as f64 / (2.0 * VMS as f64);
    let mut t = 0.0f64;
    let mut plans = Vec::with_capacity(VMS);
    for vm in fleet.vms() {
        t += rng.exponential(1.0 / gap).expect("positive rate");
        let arrival = (t as usize).min(horizon - 1);
        let life = 1 + rng
            .exponential(3.0 / horizon as f64)
            .expect("positive rate") as usize;
        let departure = (arrival + life < horizon).then_some(arrival + life);
        let trace = vm
            .fine
            .slice(arrival, departure.unwrap_or(horizon))
            .expect("non-empty slice");
        plans.push(VmPlan {
            arrival,
            departure,
            trace,
        });
    }
    let mut builder = ScenarioBuilder::new(fleet)
        .servers(2 * VMS)
        .policy(five_policies()[s % 5])
        .repack_trigger(RepackTrigger::Hybrid { slack: 1 });
    if s.is_multiple_of(2) {
        builder = builder
            .qos_guard(QosGuard {
                violation_ratio: 0.05,
            })
            .adaptive_slack_max(4);
    }
    let scenario = builder.build().expect("valid scenario");
    let period = scenario.period_samples();
    let horizon = horizon / period * period;
    let events = lower(&plans, horizon, &FaultPlan::empty());
    FlatDay {
        cfg: scenario.controller_config(),
        plans,
        events,
    }
}

pub struct ServiceDay {
    sessions: Vec<FlatDay>,
    schedule: Vec<SessionEvent>,
    host: SessionHost,
    last: Option<ServiceReport>,
}

impl Workload for ServiceDay {
    fn setup(seed: u64, nproc: usize) -> (Self, f64) {
        let t = Instant::now();
        let sessions: Vec<FlatDay> = (0..SESSIONS).map(|s| session(seed, s)).collect();
        // Round-robin: position k of every session before position k+1.
        let longest = sessions.iter().map(|s| s.events.len()).max().unwrap_or(0);
        let mut schedule = Vec::with_capacity(sessions.iter().map(|s| s.events.len()).sum());
        for k in 0..longest {
            for (session, s) in sessions.iter().enumerate() {
                if let Some(event) = s.events.get(k) {
                    schedule.push(SessionEvent {
                        session,
                        event: event.clone(),
                    });
                }
            }
        }
        let generate_s = t.elapsed().as_secs_f64();
        let configs = sessions.iter().map(|s| s.cfg.clone()).collect();
        let host = SessionHost::new(configs, nproc).expect("valid host");
        let day = Self {
            sessions,
            schedule,
            host,
            last: None,
        };
        (day, generate_s)
    }

    fn rep(&mut self, traced: bool) -> RepResult {
        let schedule = self.schedule.clone();
        let rate_events = schedule.len() as u64;
        let mut probe = Probe::new(NullSink, traced);
        let started = Instant::now();
        let host = &self.host;
        let hosted = probe.tracer.span(Layer::ServiceRun, || host.run(schedule));
        let run_s = started.elapsed().as_secs_f64();
        let mut result = RepResult::default();
        let hosted = match hosted {
            Ok(report) => report,
            Err(e) => {
                result.error = Some(format!("service-day: host run failed: {e}"));
                return result;
            }
        };
        // The host's events count as attempted entry calls too.
        result.timings.calls = rate_events;

        // Serial replay of every session through the entry calls.
        let mut session_busy_s = 0.0;
        for (s, session) in self.sessions.iter().enumerate() {
            let mut front = session.controller();
            session_busy_s += session.replay(&mut front, &mut probe, &mut result, UNIT_CALLS);
            if result.error.is_none() && hosted.sessions.get(s) != Some(&front.report()) {
                result.error = Some(format!(
                    "service-day: serial replay of session {s} differs from the host's report"
                ));
            }
        }
        // The serial replays reproduced these reports exactly.
        result.quality = Quality::of_all(&hosted.sessions);
        result.digest = digest(&hosted.sessions);
        // The pool's wall time swings by more than half on a 2-core host
        // shared with other work (the second core comes and goes), so the
        // rate is that of the serial replay of the same events; the pool
        // is reported by `service.*`.
        result.rate_events = rate_events;
        result.rate_wall_s = session_busy_s;
        result.replay_s = run_s + session_busy_s;
        result.sink_events = probe.events;
        result.spans = probe.tracer.into_spans();
        result.service = Some(ServiceTimes {
            run_s,
            session_busy_s,
            workers: self.host.workers(),
        });
        self.last = Some(hosted);
        result
    }

    fn self_check(&self, _first: &RepResult) -> Result<(), String> {
        let arrived: usize = self.sessions.iter().map(|s| arrivals(&s.events)).sum();
        if arrived < MIN_ARRIVALS {
            return Err(format!(
                "service-day: {arrived} arrivals, needs at least {MIN_ARRIVALS}"
            ));
        }
        let nproc = crate::nproc();
        if self.host.workers() != nproc {
            return Err(format!(
                "service-day: {} workers on a {nproc}-core host",
                self.host.workers()
            ));
        }
        Ok(())
    }

    /// The 1-worker and the `nproc`-worker runs must agree exactly.
    fn gate(&mut self) -> Result<(), String> {
        let wide = self.last.as_ref().ok_or("service-day: no replay ran")?;
        let configs = self.sessions.iter().map(|s| s.cfg.clone()).collect();
        let narrow = SessionHost::new(configs, 1)
            .and_then(|h| h.run(self.schedule.clone()))
            .map_err(|e| format!("service-day: 1-worker run failed: {e}"))?;
        if &narrow != wide {
            return Err(format!(
                "service-day: 1-worker and {}-worker reports differ",
                self.host.workers()
            ));
        }
        Ok(())
    }
}
