//! The replay loop shared by every workload: it feeds an event stream
//! into a controller front, times each entry call, classifies ticks and
//! lets the workload run shadow calls after each period boundary.

use crate::probe::{Layer, Probe};
use cavm_sim::{DatacenterController, MetricSink, ShardedController, SimReport, VmEvent};
use cavm_trace::TimeSeries;
use std::time::Instant;

/// A controller the benchmark can drive: the flat session or the
/// cell-sharded one.
pub trait Front {
    /// Span layers of the arrive, depart and tick entry calls.
    const CELLS: bool;

    fn arrive(
        &mut self,
        id: usize,
        trace: TimeSeries,
        lease: Option<usize>,
        sink: &mut dyn MetricSink,
    ) -> cavm_sim::Result<()>;
    fn depart(&mut self, id: usize) -> cavm_sim::Result<()>;
    fn tick(&mut self, sink: &mut dyn MetricSink) -> cavm_sim::Result<()>;
    fn server_fail(&mut self, server: usize, sink: &mut dyn MetricSink) -> cavm_sim::Result<()>;
    fn server_recover(&mut self, server: usize, sink: &mut dyn MetricSink) -> cavm_sim::Result<()>;
}

impl Front for DatacenterController {
    const CELLS: bool = false;

    fn arrive(
        &mut self,
        id: usize,
        trace: TimeSeries,
        lease: Option<usize>,
        sink: &mut dyn MetricSink,
    ) -> cavm_sim::Result<()> {
        DatacenterController::arrive(self, id, trace, lease, sink)
    }
    fn depart(&mut self, id: usize) -> cavm_sim::Result<()> {
        DatacenterController::depart(self, id)
    }
    fn tick(&mut self, sink: &mut dyn MetricSink) -> cavm_sim::Result<()> {
        DatacenterController::tick(self, sink)
    }
    fn server_fail(&mut self, server: usize, sink: &mut dyn MetricSink) -> cavm_sim::Result<()> {
        DatacenterController::server_fail(self, server, sink)
    }
    fn server_recover(&mut self, server: usize, sink: &mut dyn MetricSink) -> cavm_sim::Result<()> {
        DatacenterController::server_recover(self, server, sink)
    }
}

impl Front for ShardedController {
    const CELLS: bool = true;

    fn arrive(
        &mut self,
        id: usize,
        trace: TimeSeries,
        lease: Option<usize>,
        sink: &mut dyn MetricSink,
    ) -> cavm_sim::Result<()> {
        ShardedController::arrive(self, id, trace, lease, sink)
    }
    fn depart(&mut self, id: usize) -> cavm_sim::Result<()> {
        ShardedController::depart(self, id)
    }
    fn tick(&mut self, sink: &mut dyn MetricSink) -> cavm_sim::Result<()> {
        ShardedController::tick(self, sink)
    }
    fn server_fail(&mut self, server: usize, sink: &mut dyn MetricSink) -> cavm_sim::Result<()> {
        ShardedController::server_fail(self, server, sink)
    }
    fn server_recover(&mut self, server: usize, sink: &mut dyn MetricSink) -> cavm_sim::Result<()> {
        ShardedController::server_recover(self, server, sink)
    }
}

/// Per-call durations (seconds) and call counts of one or more replays.
#[derive(Debug, Clone, Default)]
pub struct Timings {
    /// Every `arrive` call.
    pub arrive: Vec<f64>,
    /// Ticks that neither closed nor opened a period nor re-packed.
    pub sample_tick: Vec<f64>,
    /// Period boundaries: the tick that closed a period (it emitted
    /// `on_period`: window replay into the next cost matrix) plus the
    /// tick that opened the next one (UPDATE + ALLOCATE). The session's
    /// first tick opens period 0 and counts as a boundary on its own.
    pub boundary: Vec<f64>,
    /// Other ticks that emitted `on_repack` (fragmentation or QoS).
    pub offcycle_tick: Vec<f64>,
    /// Entry calls attempted and the ones that returned an error.
    pub calls: u64,
    pub failed: u64,
    /// The replays cut, in order, into stretches of entry calls.
    pub units: Vec<Unit>,
}

/// A stretch of consecutive entry calls of one replay. The replay is
/// deterministic, so a unit is the same work in every repetition.
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    /// Entry calls in the unit and its wall time (shadow calls
    /// included when tracing).
    pub calls: u64,
    pub wall_s: f64,
}

/// Replays `events` into `front`, timing every entry call and cutting
/// the replay into units of `unit_calls` entry calls (never between the
/// two ticks of a boundary; the last unit may be shorter).
///
/// `on_arrive` runs before each arrival when tracing (the routing
/// shadow); `after_boundary` runs after each completed boundary when
/// tracing (the window-replay and placement shadows), with the index of
/// the period that closed, or `None` after the session's first tick.
pub fn replay<F: Front, S: MetricSink>(
    front: &mut F,
    events: Vec<VmEvent>,
    probe: &mut Probe<S>,
    timings: &mut Timings,
    unit_calls: u64,
    mut on_arrive: impl FnMut(&F, &TimeSeries, &mut Probe<S>),
    mut after_boundary: impl FnMut(&F, Option<usize>, &mut Probe<S>),
) {
    let traced = probe.tracer.is_on();
    let (arrive_layer, depart_layer) = if F::CELLS {
        (Layer::CellsArrive, Layer::CellsDepart)
    } else {
        (Layer::ControllerArrive, Layer::ControllerDepart)
    };
    let mut first_tick = true;
    let mut periods_closed = 0usize;
    // Duration of a closing tick whose opening tick has not run yet.
    let mut pending_close: Option<f64> = None;
    let mut unit_started = Instant::now();
    let mut unit_len = 0u64;
    for event in events {
        probe.clear_flags();
        timings.calls += 1;
        let ok = match event {
            VmEvent::Arrive {
                id,
                trace,
                lease_samples,
            } => {
                if traced {
                    on_arrive(front, &trace, probe);
                }
                let span = probe.tracer.begin(arrive_layer);
                let t = Instant::now();
                let ok = front.arrive(id, trace, lease_samples, probe).is_ok();
                timings.arrive.push(t.elapsed().as_secs_f64());
                probe.tracer.end(span, arrive_layer);
                ok
            }
            VmEvent::Depart { id } => {
                let span = probe.tracer.begin(depart_layer);
                let ok = front.depart(id).is_ok();
                probe.tracer.end(span, depart_layer);
                ok
            }
            VmEvent::ServerFail { server } => {
                let span = probe.tracer.begin(Layer::ServerFail);
                let ok = front.server_fail(server, probe).is_ok();
                probe.tracer.end(span, Layer::ServerFail);
                ok
            }
            VmEvent::ServerRecover { server } => {
                let span = probe.tracer.begin(Layer::ServerRecover);
                let ok = front.server_recover(server, probe).is_ok();
                probe.tracer.end(span, Layer::ServerRecover);
                ok
            }
            VmEvent::Tick => {
                let span = probe.tracer.begin(Layer::TickSample);
                let t = Instant::now();
                let ok = front.tick(probe).is_ok();
                let dt = t.elapsed().as_secs_f64();
                let mut boundary_done = None;
                let class = if let Some(close) = pending_close.take() {
                    timings.boundary.push(close + dt);
                    boundary_done = Some(Some(periods_closed - 1));
                    Layer::TickBoundary
                } else if probe.saw_period {
                    pending_close = Some(dt);
                    Layer::TickBoundary
                } else if first_tick {
                    timings.boundary.push(dt);
                    boundary_done = Some(None);
                    Layer::TickBoundary
                } else if probe.saw_repack {
                    timings.offcycle_tick.push(dt);
                    Layer::TickOffcycle
                } else {
                    timings.sample_tick.push(dt);
                    Layer::TickSample
                };
                if probe.saw_period {
                    periods_closed += 1;
                }
                first_tick = false;
                probe
                    .tracer
                    .end(span, if F::CELLS { Layer::CellsTick } else { class });
                if let (true, Some(closed)) = (traced, boundary_done) {
                    after_boundary(front, closed, probe);
                }
                ok
            }
        };
        if !ok {
            timings.failed += 1;
        }
        unit_len += 1;
        if unit_len >= unit_calls && pending_close.is_none() {
            timings.units.push(Unit {
                calls: unit_len,
                wall_s: unit_started.elapsed().as_secs_f64(),
            });
            unit_started = Instant::now();
            unit_len = 0;
        }
    }
    if let Some(close) = pending_close {
        timings.boundary.push(close);
    }
    if unit_len > 0 {
        timings.units.push(Unit {
            calls: unit_len,
            wall_s: unit_started.elapsed().as_secs_f64(),
        });
    }
}

/// Decision-quality figures of one replay.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quality {
    pub energy_kwh: f64,
    /// Server-samples over capacity, and server-samples an active
    /// server was replayed: their ratio is `violation_pct`.
    pub violations: f64,
    pub server_samples: f64,
    /// The paper's metric: the worst per-period violation ratio, %.
    pub worst_period_pct: f64,
    pub migrations: f64,
    pub deferred_peak: f64,
}

impl Quality {
    pub fn of(report: &SimReport) -> Self {
        Self {
            energy_kwh: report.energy.joules() / 3.6e6,
            violations: report.violation_instances as f64,
            // Every replayed sample of an active server lands in its
            // class's frequency histogram.
            server_samples: report
                .classes
                .iter()
                .flat_map(|c| &c.freq_histogram)
                .sum::<u64>() as f64,
            worst_period_pct: report.max_violation_percent,
            migrations: report.total_migrations() as f64,
            deferred_peak: report.deferred_peak as f64,
        }
    }

    /// The figures of independent datacenters or tenants together.
    pub fn of_all(reports: &[SimReport]) -> Self {
        reports
            .iter()
            .map(Self::of)
            .reduce(Self::merge)
            .unwrap_or_default()
    }

    /// Sums the extensive figures and takes the worst of the rest.
    fn merge(self, other: Quality) -> Self {
        Self {
            energy_kwh: self.energy_kwh + other.energy_kwh,
            violations: self.violations + other.violations,
            server_samples: self.server_samples + other.server_samples,
            worst_period_pct: self.worst_period_pct.max(other.worst_period_pct),
            migrations: self.migrations + other.migrations,
            deferred_peak: self.deferred_peak.max(other.deferred_peak),
        }
    }

    /// Share of active server-samples whose demand exceeded capacity, %.
    pub fn violation_pct(&self) -> f64 {
        100.0 * self.violations / self.server_samples.max(1.0)
    }
}

/// FNV-1a over the decisions the reports record: energy, per-period
/// servers used, violations and migrations, and the admission counters.
pub fn digest(reports: &[SimReport]) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for report in reports {
        h.report(report);
    }
    h.0
}

struct Fnv(u64);

impl Fnv {
    fn report(&mut self, report: &SimReport) {
        self.put(report.energy.joules().to_bits());
        self.put(report.max_violation_percent.to_bits());
        self.put(report.violation_instances as u64);
        self.put(report.periods.len() as u64);
        for p in &report.periods {
            self.put(p.servers_used as u64);
            self.put(p.max_violation_ratio.to_bits());
            self.put(p.migrations as u64);
        }
        self.put(report.online_admissions as u64);
        self.put(report.offcycle_repacks as u64);
        self.put(report.server_failures as u64);
        self.put(report.evacuations as u64);
        self.put(report.deferred_peak as u64);
    }

    fn put(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}
