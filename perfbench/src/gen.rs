//! Seeded input generators shared by the workloads. The program under
//! test only ever sees what these produce.

use cavm_sim::VmEvent;
use cavm_trace::{SimRng, TimeSeries};
use cavm_workload::faults::{FaultKind, FaultPlan};

/// One VM of a generated day: ids are assigned in arrival order.
#[derive(Debug, Clone)]
pub struct VmPlan {
    pub arrival: usize,
    /// Departure sample, when the lease ends inside the horizon.
    pub departure: Option<usize>,
    /// Demand from the arrival sample on.
    pub trace: TimeSeries,
}

impl VmPlan {
    /// Whether the VM is registered and not yet departed when the tick
    /// at sample `k` runs.
    pub fn live_at(&self, k: usize) -> bool {
        self.arrival <= k && self.departure.is_none_or(|d| k < d)
    }

    /// Demand at global sample `k` as the controller observes it.
    pub fn demand_at(&self, k: usize) -> f64 {
        if self.live_at(k) {
            self.trace
                .values()
                .get(k - self.arrival)
                .copied()
                .unwrap_or(0.0)
        } else {
            0.0
        }
    }
}

/// Arrivals over the first `window` share of `horizon` samples with
/// leases of mean `mean_lease` samples; each VM gets a diurnal demand
/// trace (base + daily sinusoid + noise, in cores).
///
/// Arrival gaps and leases are uniform on [0.5, 1.5] × their means.
/// Exponential ones (Poisson arrivals) made the live population, and
/// with it energy and migrations, differ by up to a third between seeds.
pub fn churn_day(
    rng: &mut SimRng,
    vms: usize,
    horizon: usize,
    window: f64,
    mean_lease: f64,
    day_samples: usize,
    dt: f64,
) -> Vec<VmPlan> {
    let mean_gap = (horizon as f64 * window).max(1.0) / vms as f64;
    let mut t = 0.0f64;
    let mut plans = Vec::with_capacity(vms);
    for _ in 0..vms {
        t += mean_gap * rng.range_f64(0.5, 1.5);
        let arrival = (t as usize).min(horizon - 1);
        let life = 1 + (mean_lease * rng.range_f64(0.5, 1.5)) as usize;
        let departure = (arrival + life < horizon).then_some(arrival + life);
        let len = departure.unwrap_or(horizon) - arrival;
        let trace = diurnal_trace(rng, arrival, len, day_samples, dt);
        plans.push(VmPlan {
            arrival,
            departure,
            trace,
        });
    }
    plans
}

/// Base + daily sinusoid + Gaussian noise, floored at 0.05 cores.
pub fn diurnal_trace(
    rng: &mut SimRng,
    start: usize,
    len: usize,
    day_samples: usize,
    dt: f64,
) -> TimeSeries {
    let base = rng.range_f64(0.2, 0.8);
    let amp = rng.range_f64(0.1, 0.5);
    let phase = rng.range_f64(0.0, std::f64::consts::TAU);
    let values = (0..len)
        .map(|i| {
            let t = (start + i) as f64 / day_samples as f64 * std::f64::consts::TAU;
            (base + amp * (t + phase).sin() + rng.normal(0.0, 0.05)).max(0.05)
        })
        .collect();
    TimeSeries::new(dt, values).expect("non-empty finite trace")
}

/// Lowers plans (and an optional fault plan) into the controller's
/// event stream. Per sample: recoveries, departures, arrivals,
/// failures, then the tick — the order the scenario engine uses.
pub fn lower(plans: &[VmPlan], horizon: usize, faults: &FaultPlan) -> Vec<VmEvent> {
    let mut departures: Vec<(usize, usize)> = plans
        .iter()
        .enumerate()
        .filter_map(|(id, p)| p.departure.map(|d| (d, id)))
        .collect();
    departures.sort_unstable();
    let mut events = Vec::with_capacity(horizon + 2 * plans.len() + faults.len());
    let (mut next_arrival, mut next_departure) = (0, 0);
    for k in 0..horizon {
        let at = faults.events_at(k);
        for e in at.iter().filter(|e| e.kind == FaultKind::Recover) {
            events.push(VmEvent::ServerRecover { server: e.server });
        }
        while next_departure < departures.len() && departures[next_departure].0 == k {
            events.push(VmEvent::Depart {
                id: departures[next_departure].1,
            });
            next_departure += 1;
        }
        while next_arrival < plans.len() && plans[next_arrival].arrival == k {
            let plan = &plans[next_arrival];
            events.push(VmEvent::Arrive {
                id: next_arrival,
                trace: plan.trace.clone(),
                lease_samples: plan.departure.map(|d| d - plan.arrival),
            });
            next_arrival += 1;
        }
        for e in at.iter().filter(|e| e.kind == FaultKind::Fail) {
            events.push(VmEvent::ServerFail { server: e.server });
        }
        events.push(VmEvent::Tick);
    }
    events
}

/// Entry calls of an event stream that are arrivals.
pub fn arrivals(events: &[VmEvent]) -> usize {
    events
        .iter()
        .filter(|e| matches!(e, VmEvent::Arrive { .. }))
        .count()
}
