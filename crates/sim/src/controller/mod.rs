//! The online datacenter controller — an event-driven VM lifecycle
//! session.
//!
//! Where [`Scenario::run`] replays a *closed* world (every VM exists
//! for the whole horizon), [`DatacenterController`] is the open-system
//! API underneath it: a stateful session driven by [`VmEvent`]s —
//! `Arrive`, `Depart`, `Tick` — holding a live
//! [`Placement`], per-server incremental
//! [`ServerCostAggregate`]s and per-class energy meters, and streaming
//! progress through a [`MetricSink`] instead of only a terminal report.
//!
//! Semantics per event:
//!
//! * **`Tick`** advances one monitoring sample. The first tick of each
//!   placement period runs the batch UPDATE/ALLOCATE pass (predict →
//!   cost matrix → full policy re-pack → per-server Eqn (4) frequency),
//!   exactly as the paper's Fig 2 prescribes "at every t_period"; every
//!   tick then replays one sample (violations, energy integration,
//!   dynamic DVFS re-planning, Fig 6 histograms). The tick that
//!   completes a period observes it for the next UPDATE and rebuilds
//!   the pairwise matrix from the period's window.
//! * **`Arrive`** registers a VM whose trace starts at the current
//!   sample, together with its remaining lease when known. Mid-period
//!   arrivals are admitted **incrementally** through
//!   [`AllocationPolicy::place_one`] — an O(open servers ×
//!   |members|) scan over the live cost aggregates, *not* a full
//!   re-pack — with a lease-aware bias away from servers whose members
//!   all depart before the arrival would (soon-empty servers stay
//!   drainable); the hosting server's frequency is re-planned.
//!   Arrivals between periods simply join the next batch pass.
//! * **`Depart`** evicts the VM; the vacated server keeps its slot (and
//!   stays admissible for future arrivals), its aggregate is rebuilt
//!   and its frequency re-planned. Fully-emptied servers power off
//!   (they are skipped by the replay) until re-used or compacted by the
//!   next re-pack. Under a [`RepackTrigger`] with a fragmentation
//!   slack, an eviction also *arms* the trigger: the next tick
//!   compares the live Eqn (3) bound
//!   ([`ServerFleet::estimate_server_count`]) against the active
//!   server count and fires an **off-cycle re-pack** when the bound
//!   has dropped at least `slack` servers below it — the adaptive
//!   consolidation the fixed period clock cannot express.
//!
//! Driven with every VM arriving at t = 0 and no departures (and the
//! default [`RepackTrigger::Periodic`]), the controller is
//! **bit-identical** to the historical batch engine — the
//! `fleet_regression` golden tests and the batch≡online equivalence
//! property tests pin this.
//!
//! The controller is split by concern: this module is the event core
//! (session state, the per-event entry points, the deferred-admission
//! queue, the per-sample replay and the terminal report); `boundary`
//! holds the period boundary and the full re-packs; `admit` holds
//! single-VM admission and the one relocation path that evacuation,
//! the QoS guard's move and the boundary trim share; `adaptive` holds
//! the re-pack trigger, the QoS guard and the slack and overcommit
//! controllers; `what_if` holds the forked probes.
//!
//! [`ServerFleet::estimate_server_count`]: cavm_core::fleet::ServerFleet::estimate_server_count
//!
//! [`Scenario::run`]: crate::config::Scenario::run
//! [`AllocationPolicy::place_one`]: cavm_core::alloc::AllocationPolicy::place_one

mod adaptive;
mod admit;
mod boundary;
#[cfg(test)]
mod tests;
mod what_if;

pub use crate::config::ControllerConfig;
pub use crate::sink::{
    MetricSink, NullSink, RepackEvent, RepackReason, ReportSink, ViolationEvent,
};
pub use adaptive::{
    OvercommitConfig, OvercommitController, QosGuard, RepackTrigger, SlackController,
};
pub use what_if::{WhatIf, WhatIfDelta};

use crate::report::{ClassBreakdown, PeriodRecord, SimReport};
use crate::SimError;
use cavm_core::alloc::{Placement, VmDescriptor};
use cavm_core::corr::CostMatrix;
use cavm_core::dvfs::{DvfsMode, FleetFrequencyPlanner};
use cavm_core::fleet::ServerHealth;
use cavm_core::servercost::ServerCostAggregate;
use cavm_core::CoreError;
use cavm_power::EnergyMeter;
use cavm_trace::TimeSeries;
use std::collections::VecDeque;

pub(crate) const VIOLATION_EPS: f64 = 1e-9;

/// A fleet that cannot host the placement surfaces as the sim-level
/// "insufficient servers" error; everything else passes through.
pub(crate) fn map_core(e: CoreError) -> SimError {
    match e {
        CoreError::FleetExhausted { slots, unallocated } => SimError::InsufficientServers {
            // Each leftover VM needs at most one more server, so this
            // is an upper bound on the shortfall.
            needed: slots.saturating_add(unallocated),
            available: slots,
        },
        e => SimError::Core(e),
    }
}

/// One step of a VM's lifecycle, applied with
/// [`DatacenterController::apply`].
#[derive(Debug, Clone, PartialEq)]
pub enum VmEvent {
    /// A VM enters the datacenter. `trace` is its demand signal from
    /// this instant on (sample 0 of the trace is the current tick).
    /// Ids are caller-chosen but must be fresh — a departed id cannot
    /// re-arrive.
    Arrive {
        /// Fresh VM id; indexes the controller's registry (and the
        /// period cost matrices) from now on.
        id: usize,
        /// Demand trace starting at the arrival instant. Samples past
        /// its end (or after departure) read as zero demand.
        trace: TimeSeries,
        /// Remaining lease in samples, when known (`None` =
        /// open-ended). Lease-aware admission uses it to keep
        /// soon-empty servers drainable; the caller remains
        /// responsible for sending the matching
        /// [`VmEvent::Depart`].
        lease_samples: Option<usize>,
    },
    /// The VM's lease ends; it is evicted from its server before the
    /// next sample is replayed.
    Depart {
        /// Id of a currently live VM.
        id: usize,
    },
    /// A provisioned server fails. Its residents are
    /// emergency-evacuated through the active policy (failed servers
    /// excluded); residents the shrunken fleet cannot host enter the
    /// bounded deferred-admission queue. While any server is failed
    /// the controller runs **degraded**: fragmentation/hybrid
    /// consolidation and deliberate boundary overcommit are suspended
    /// (the [`QosGuard`] stays armed).
    ServerFail {
        /// Index of a currently provisioned, healthy server.
        server: usize,
    },
    /// A failed server comes back. Its slot is admissible again and
    /// the deferred-admission queue immediately retries in FIFO order.
    ServerRecover {
        /// Index of a currently failed server.
        server: usize,
    },
    /// Advance one monitoring sample.
    Tick,
}

/// One registered VM.
#[derive(Debug, Clone)]
struct VmSlot {
    /// Demand trace; sample 0 is the arrival instant.
    trace: TimeSeries,
    /// Global sample index of the arrival.
    arrival: usize,
    /// Global sample index at which the lease ends, when known.
    lease_end: Option<usize>,
    /// `false` once departed.
    live: bool,
    /// Last observed per-period reference peak (predictor state).
    last_peak: Option<f64>,
    /// Last observed per-period 90th percentile (predictor state).
    last_off: Option<f64>,
}

/// The descriptor of an id with nothing to place: departed or never
/// registered.
fn vacant(id: usize) -> VmDescriptor {
    VmDescriptor::new(id, 0.0).with_off_peak(0.0)
}

/// The stateful online allocation session. See the [module
/// docs](self) for event semantics.
///
/// The session is cheaply `Clone`-able end to end — registry, live
/// placement, per-server cost aggregates, energy meters,
/// guard/slack/overcommit controllers, health and the deferred queue
/// are all value state (the period cost matrix is the only
/// heavyweight member, O(ids ever registered²) floats).
/// [`fork`](Self::fork) builds on that, and [`what_if`](Self::what_if)
/// answers "what would a re-pack buy right now?" against a fork
/// without perturbing the live session.
#[derive(Debug, Clone)]
pub struct DatacenterController {
    cfg: ControllerConfig,
    planner: FleetFrequencyPlanner,
    class_wpc: Vec<f64>,
    total_slots: usize,
    /// Sorted union of every class ladder (the report histogram axis).
    union_ghz: Vec<f64>,
    /// `union_level[class][class_level]` → union axis column.
    union_level: Vec<Vec<usize>>,

    // ---- registry & clock.
    slots: Vec<Option<VmSlot>>,
    clock: usize,
    period: usize,
    period_start: usize,
    in_period: bool,
    finished: bool,

    // ---- live placement state (valid while `in_period`).
    placement: Placement,
    aggregates: Vec<ServerCostAggregate>,
    classes_of: Vec<usize>,
    cores_of: Vec<f64>,
    freq_idx: Vec<usize>,
    window_max_agg: Vec<f64>,
    window_max_vm: Vec<f64>,
    server_violations: Vec<usize>,
    /// Worst per-server violation ratio folded out of counters an
    /// off-cycle re-pack discarded (the bins changed under them).
    period_ratio_floor: f64,
    period_migrations: usize,
    /// Set by a departure-caused eviction; the next tick evaluates the
    /// fragmentation predicate and clears it (between membership
    /// changes the predicate cannot change).
    repack_armed: bool,
    /// Set by a recorded capacity violation when a [`QosGuard`] is
    /// configured; the next tick evaluates the guard predicate and
    /// clears it (between violations the period ratio cannot rise).
    qos_armed: bool,
    /// The live fragmentation slack; `Some` exactly when the trigger
    /// has a fragmentation dimension (degenerate equal bounds when
    /// [`ControllerConfig::adaptive_slack_max`] is unset).
    slack_ctl: Option<SlackController>,
    /// The live deliberate-overcommit margins, one per fleet class;
    /// `Some` exactly when [`ControllerConfig::overcommit`] is set.
    overcommit_ctl: Option<Vec<OvercommitController>>,
    /// Per server slot: the period index until which the boundary trim
    /// loop's revocation holds — a trimmed server is denied further
    /// deliberate overcommit through this period, breaking the
    /// admit-then-trim ping-pong. Parallel to `placement`; reset
    /// wholesale by a full batch re-pack (slots renumber).
    overcommit_hold: Vec<usize>,
    pcp_clusters: Option<usize>,
    period_class_joules_start: Vec<f64>,
    assignment: Vec<Option<usize>>,
    /// Dense (id-indexed) descriptor table of the current period.
    dense_vms: Vec<VmDescriptor>,

    // ---- fault-tolerance state.
    /// Per-provisioned-server health, parallel to `placement`. Only
    /// rebuilt wholesale by a full batch re-pack, which degraded mode
    /// suspends — so failed slots survive period boundaries.
    health: Vec<ServerHealth>,
    /// Live-but-unplaceable VM ids, FIFO. Retried every tick, at each
    /// recovery and at period boundaries; bounded by
    /// [`ControllerConfig::max_deferred`].
    deferred: VecDeque<usize>,

    // ---- period window & matrix state.
    /// The period cost matrix. Before the first boundary sizes it to
    /// the id universe it is a one-VM placeholder: an unsampled matrix
    /// of any size scores every pair neutral, so the placeholder
    /// answers exactly like a freshly built one.
    matrix: CostMatrix,
    window: Vec<Vec<f64>>,
    /// The completed period's per-VM windows (empty before the first
    /// period ends, or when it held no VMs).
    prev_window: Vec<TimeSeries>,
    sample_buf: Vec<f64>,

    // ---- run accumulators.
    class_energy: Vec<EnergyMeter>,
    class_violations: Vec<usize>,
    class_migrations: Vec<usize>,
    class_peak_servers: Vec<usize>,
    freq_histogram: Vec<Vec<u64>>,
    class_freq_histogram: Vec<Vec<u64>>,
    period_records: Vec<PeriodRecord>,
    violation_instances: usize,
    online_admissions: usize,
    offcycle_repacks: usize,
    server_failures: usize,
    server_recoveries: usize,
    evacuations: usize,
    deferred_peak: usize,
}

impl DatacenterController {
    /// Opens a session.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for an unbounded fleet or
    /// out-of-range tuning values.
    pub fn new(cfg: ControllerConfig) -> crate::Result<Self> {
        cfg.validate()?;
        let fleet = &cfg.server_fleet;
        let n_classes = fleet.len();
        let total_slots = fleet
            .total_slots()
            .expect("validation rejects unbounded fleets");
        let planner = FleetFrequencyPlanner::new(fleet);
        let class_wpc: Vec<f64> = fleet
            .classes()
            .iter()
            .map(|c| c.busy_watts_per_core())
            .collect();

        // The histogram's frequency axis is the sorted union of every
        // class ladder (a uniform fleet keeps its own ladder).
        let mut union_ghz: Vec<f64> = fleet
            .classes()
            .iter()
            .flat_map(|c| c.ladder().levels().iter().map(|f| f.as_ghz()))
            .collect();
        union_ghz.sort_by(|a, b| a.partial_cmp(b).expect("finite frequencies"));
        union_ghz.dedup();
        let union_level: Vec<Vec<usize>> = fleet
            .classes()
            .iter()
            .map(|c| {
                c.ladder()
                    .levels()
                    .iter()
                    .map(|f| {
                        union_ghz
                            .iter()
                            .position(|&g| g == f.as_ghz())
                            .expect("union contains every class level")
                    })
                    .collect()
            })
            .collect();
        let class_freq_histogram = fleet
            .classes()
            .iter()
            .map(|c| vec![0u64; c.ladder().len()])
            .collect();

        Ok(Self {
            planner,
            class_wpc,
            total_slots,
            freq_histogram: vec![vec![0u64; union_ghz.len()]; total_slots],
            union_ghz,
            union_level,
            slots: Vec::new(),
            clock: 0,
            period: 0,
            period_start: 0,
            in_period: false,
            finished: false,
            placement: Placement::from_servers(vec![]),
            aggregates: Vec::new(),
            classes_of: Vec::new(),
            cores_of: Vec::new(),
            freq_idx: Vec::new(),
            window_max_agg: Vec::new(),
            window_max_vm: Vec::new(),
            server_violations: Vec::new(),
            period_ratio_floor: 0.0,
            period_migrations: 0,
            repack_armed: false,
            qos_armed: false,
            slack_ctl: cfg
                .repack_trigger
                .slack()
                .map(|s| SlackController::new(s, cfg.adaptive_slack_max.unwrap_or(s))),
            overcommit_ctl: cfg
                .overcommit
                .map(|oc| vec![OvercommitController::new(oc.margin, oc.max_margin); n_classes]),
            overcommit_hold: Vec::new(),
            pcp_clusters: None,
            period_class_joules_start: vec![0.0; n_classes],
            assignment: Vec::new(),
            dense_vms: Vec::new(),
            matrix: CostMatrix::new(1, cfg.reference).map_err(SimError::Core)?,
            window: Vec::new(),
            prev_window: Vec::new(),
            sample_buf: Vec::new(),
            class_energy: vec![EnergyMeter::new(); n_classes],
            class_violations: vec![0; n_classes],
            class_migrations: vec![0; n_classes],
            class_peak_servers: vec![0; n_classes],
            class_freq_histogram,
            period_records: Vec::new(),
            violation_instances: 0,
            online_admissions: 0,
            offcycle_repacks: 0,
            health: Vec::new(),
            deferred: VecDeque::new(),
            server_failures: 0,
            server_recoveries: 0,
            evacuations: 0,
            deferred_peak: 0,
            cfg,
        })
    }

    /// The session configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    /// Global sample index of the next tick.
    pub fn clock(&self) -> usize {
        self.clock
    }

    /// Number of currently live VMs.
    pub fn live_vms(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.as_ref().is_some_and(|s| s.live))
            .count()
    }

    /// VMs admitted through the incremental (mid-period) path so far.
    pub fn online_admissions(&self) -> usize {
        self.online_admissions
    }

    /// Off-cycle (fragmentation-fired) re-packs so far.
    pub fn offcycle_repacks(&self) -> usize {
        self.offcycle_repacks
    }

    /// Per-provisioned-server health, parallel to
    /// [`DatacenterController::placement`].
    pub fn server_health(&self) -> &[ServerHealth] {
        &self.health
    }

    /// Currently failed servers.
    pub fn failed_servers(&self) -> usize {
        self.health.iter().filter(|h| h.is_failed()).count()
    }

    /// Whether the controller is in degraded mode: at least one server
    /// is failed, or the deferred-admission queue is non-empty (the
    /// fleet has not yet re-absorbed everything a failure displaced).
    /// Degraded mode suspends fragmentation/hybrid consolidation and
    /// deliberate boundary overcommit; the [`QosGuard`] stays armed.
    pub fn degraded(&self) -> bool {
        !self.deferred.is_empty() || self.health.iter().any(|h| h.is_failed())
    }

    /// Live VMs currently waiting in the deferred-admission queue.
    pub fn deferred_vms(&self) -> usize {
        self.deferred.len()
    }

    /// Ids currently waiting in the deferred-admission queue, in FIFO
    /// retry order.
    pub fn deferred_ids(&self) -> Vec<usize> {
        self.deferred.iter().copied().collect()
    }

    /// High-water mark of the deferred-admission queue over the
    /// session.
    pub fn deferred_peak(&self) -> usize {
        self.deferred_peak
    }

    /// [`VmEvent::ServerFail`] events processed so far (monotone).
    pub fn server_failures(&self) -> usize {
        self.server_failures
    }

    /// [`VmEvent::ServerRecover`] events processed so far (monotone).
    pub fn server_recoveries(&self) -> usize {
        self.server_recoveries
    }

    /// VMs moved onto an outliving server by emergency evacuations so
    /// far (monotone; deferred evacuees count once they actually
    /// admit, as online admissions).
    pub fn evacuations(&self) -> usize {
        self.evacuations
    }

    /// The live placement — stale between periods (the next period's
    /// first tick rebuilds or compacts it).
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The dense (id-indexed) predicted descriptor table of the
    /// current period: departed VMs read zero demand, unobserved live
    /// VMs the configured default.
    pub fn predicted_vms(&self) -> &[VmDescriptor] {
        &self.dense_vms
    }

    /// Whether the controller is inside a placement period (at least
    /// one tick replayed since the last boundary).
    pub fn mid_period(&self) -> bool {
        self.in_period
    }

    /// Whether a departure has armed the fragmentation check for the
    /// next tick (always `false` under [`RepackTrigger::Periodic`]).
    pub fn repack_armed(&self) -> bool {
        self.repack_armed
    }

    /// Whether a recorded violation has armed the [`QosGuard`] check
    /// for the next tick (always `false` without a configured guard).
    pub fn qos_armed(&self) -> bool {
        self.qos_armed
    }

    /// Applies one lifecycle event.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SessionFinished`] after [`finish`],
    /// [`SimError::DuplicateVm`] / [`SimError::UnknownVm`] /
    /// [`SimError::VmAlreadyDeparted`] for malformed VM events,
    /// [`SimError::UnknownServer`] / [`SimError::ServerAlreadyFailed`]
    /// / [`SimError::ServerNotFailed`] for malformed server-health
    /// events and [`SimError::DeferredQueueFull`] when degraded-mode
    /// deferral would overflow (the event is rejected atomically);
    /// placement/trace/power errors propagate, with fleet exhaustion
    /// mapped to [`SimError::InsufficientServers`].
    ///
    /// [`finish`]: DatacenterController::finish
    pub fn apply(&mut self, event: VmEvent, sink: &mut dyn MetricSink) -> crate::Result<()> {
        match event {
            VmEvent::Arrive {
                id,
                trace,
                lease_samples,
            } => self.arrive(id, trace, lease_samples, sink),
            VmEvent::Depart { id } => self.depart(id),
            VmEvent::ServerFail { server } => self.server_fail(server, sink),
            VmEvent::ServerRecover { server } => self.server_recover(server, sink),
            VmEvent::Tick => self.tick(sink),
        }
    }

    fn check_open(&self) -> crate::Result<()> {
        if self.finished {
            return Err(SimError::SessionFinished);
        }
        Ok(())
    }

    /// Registers an arriving VM with an optional remaining lease (in
    /// samples). Mid-period arrivals are admitted incrementally (no
    /// re-pack), biased away from servers draining sooner than the
    /// lease; arrivals between periods join the next period's batch
    /// placement.
    ///
    /// # Errors
    ///
    /// See [`DatacenterController::apply`].
    pub fn arrive(
        &mut self,
        id: usize,
        trace: TimeSeries,
        lease_samples: Option<usize>,
        sink: &mut dyn MetricSink,
    ) -> crate::Result<()> {
        self.check_open()?;
        if self.slots.get(id).is_some_and(|s| s.is_some()) {
            return Err(SimError::DuplicateVm { id });
        }
        while self.slots.len() <= id {
            self.slots.push(None);
            self.dense_vms.push(vacant(self.dense_vms.len()));
        }
        self.slots[id] = Some(VmSlot {
            trace,
            arrival: self.clock,
            lease_end: lease_samples.map(|l| self.clock.saturating_add(l)),
            live: true,
            last_peak: None,
            last_off: None,
        });
        if self.in_period {
            let demand = self.cfg.default_demand;
            let vm = VmDescriptor::new(id, demand).with_off_peak(demand * 0.9);
            // While servers are failed, an arrival the fleet cannot
            // host degrades into the deferred queue instead of
            // aborting the session. A full queue rejects the event
            // atomically: the registration above is rolled back.
            if let Err(e) = self.admit_or_defer(vm, sink) {
                if matches!(e, SimError::DeferredQueueFull { .. }) {
                    self.slots[id] = None;
                    self.dense_vms[id] = vacant(id);
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// Ends a VM's lease.
    ///
    /// # Errors
    ///
    /// See [`DatacenterController::apply`].
    pub fn depart(&mut self, id: usize) -> crate::Result<()> {
        self.check_open()?;
        let slot = self
            .slots
            .get_mut(id)
            .and_then(|s| s.as_mut())
            .ok_or(SimError::UnknownVm { id })?;
        if !slot.live {
            return Err(SimError::VmAlreadyDeparted { id });
        }
        slot.live = false;
        if self.deferred.contains(&id) {
            // A queued VM departing simply leaves the queue — it was
            // never placed.
            self.deferred.retain(|&d| d != id);
            self.dense_vms[id] = vacant(id);
            return Ok(());
        }
        if self.in_period && self.placement.server_of(id).is_some() {
            let server = self.displace(id)?;
            self.dense_vms[id] = vacant(id);
            // Rebuild the vacated server's aggregate from the remaining
            // members and re-plan its frequency.
            self.rebuild_aggregate(server);
            self.replan_bin(server)?;
            // A departure is what creates fragmentation: arm the
            // off-cycle check for the next tick.
            if self.cfg.repack_trigger.slack().is_some() {
                self.repack_armed = true;
            }
        }
        Ok(())
    }

    /// Advances one monitoring sample.
    ///
    /// # Errors
    ///
    /// See [`DatacenterController::apply`].
    pub fn tick(&mut self, sink: &mut dyn MetricSink) -> crate::Result<()> {
        self.check_open()?;
        if !self.in_period {
            self.start_period(sink)?;
            // The boundary may have placed queued VMs (or outlived
            // their departure): drop stale queue entries so degraded
            // mode ends as soon as everything is re-absorbed.
            self.prune_deferred();
            self.in_period = true;
        } else {
            // Degraded mode retries the deferred queue every tick —
            // departures free capacity between recoveries.
            if !self.deferred.is_empty() {
                self.drain_deferred(sink)?;
            }
            // QoS outranks energy: an armed guard is evaluated first.
            // Its surgical re-pack does NOT consolidate (it can even
            // open a server), so a pending fragmentation check is not
            // consumed — it stays armed and is evaluated next tick,
            // against the post-heal placement.
            if !self.maybe_qos_repack(sink)? {
                self.maybe_fragmentation_repack(sink)?;
            }
        }
        self.replay_tick(sink)?;
        self.clock += 1;
        if self.clock - self.period_start == self.cfg.period_samples {
            self.end_period(sink)?;
        }
        Ok(())
    }

    /// Fails a provisioned server and emergency-evacuates its
    /// residents: each relocates through the active policy's single-VM
    /// rule (failed servers are never candidates), streamed as
    /// migrations under one [`RepackReason::Evacuation`] event;
    /// residents the shrunken fleet cannot host enter the deferred
    /// queue. The failed slot keeps consuming its fleet-class capacity
    /// (the hardware exists, it just cannot host) until
    /// [`VmEvent::ServerRecover`].
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownServer`] for an unprovisioned index,
    /// [`SimError::ServerAlreadyFailed`] for a double fault, and
    /// [`SimError::DeferredQueueFull`] when the residents could not
    /// all be queued in the worst case — checked *before* any state
    /// changes, so a rejected event leaves the session untouched.
    pub fn server_fail(&mut self, server: usize, sink: &mut dyn MetricSink) -> crate::Result<()> {
        self.check_open()?;
        let servers = self.placement.server_count();
        if server >= servers {
            return Err(SimError::UnknownServer { server, servers });
        }
        self.health.resize(servers, ServerHealth::Healthy);
        if self.health[server].is_failed() {
            return Err(SimError::ServerAlreadyFailed { server });
        }
        let residents = self.placement.servers()[server].len();
        if self.deferred.len() + residents > self.cfg.max_deferred {
            return Err(SimError::DeferredQueueFull {
                capacity: self.cfg.max_deferred,
            });
        }

        let servers_before = self.placement.active_server_count();
        self.health[server] = ServerHealth::Failed;
        self.server_failures += 1;
        sink.on_server_fail(self.clock, server, residents);
        if residents == 0 {
            return Ok(());
        }

        // Evacuate: the members leave their failed host wholesale and
        // its live state is zeroed; the queue has room for every
        // resident (checked above).
        let evacuees = self
            .placement
            .drain_server(server)
            .map_err(SimError::Core)?;
        for &id in &evacuees {
            if let Some(a) = self.assignment.get_mut(id) {
                *a = None;
            }
        }
        self.aggregates[server] = ServerCostAggregate::new();
        let displaced = evacuees.into_iter().map(|id| (id, server)).collect();
        self.evacuations += self.relocate(
            displaced,
            RepackReason::Evacuation { server },
            servers_before,
            true,
            sink,
        )?;
        Ok(())
    }

    /// Recovers a failed server: its slot is admissible again and the
    /// deferred-admission queue immediately retries in FIFO order.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownServer`] for an unprovisioned index and
    /// [`SimError::ServerNotFailed`] when the server is healthy.
    pub fn server_recover(
        &mut self,
        server: usize,
        sink: &mut dyn MetricSink,
    ) -> crate::Result<()> {
        self.check_open()?;
        let servers = self.placement.server_count();
        if server >= servers {
            return Err(SimError::UnknownServer { server, servers });
        }
        if !self.health.get(server).is_some_and(|h| h.is_failed()) {
            return Err(SimError::ServerNotFailed { server });
        }
        self.health[server] = ServerHealth::Healthy;
        self.server_recoveries += 1;
        sink.on_server_recover(self.clock, server);
        if !self.deferred.is_empty() {
            self.drain_deferred(sink)?;
        }
        Ok(())
    }

    /// Queues a live, unplaced VM for deferred admission (idempotent:
    /// an already-queued id is left in place).
    ///
    /// # Errors
    ///
    /// [`SimError::DeferredQueueFull`] when the queue is at capacity;
    /// nothing is mutated.
    fn defer(&mut self, id: usize) -> crate::Result<()> {
        if self.deferred.contains(&id) {
            return Ok(());
        }
        if self.deferred.len() >= self.cfg.max_deferred {
            return Err(SimError::DeferredQueueFull {
                capacity: self.cfg.max_deferred,
            });
        }
        self.deferred.push_back(id);
        self.deferred_peak = self.deferred_peak.max(self.deferred.len());
        Ok(())
    }

    /// Drops queue entries that no longer need admission: departed
    /// VMs, and VMs a period boundary already placed.
    fn prune_deferred(&mut self) {
        if self.deferred.is_empty() {
            return;
        }
        let deferred = std::mem::take(&mut self.deferred);
        self.deferred = deferred
            .into_iter()
            .filter(|&id| {
                self.slots[id].as_ref().is_some_and(|s| s.live)
                    && self.placement.server_of(id).is_none()
            })
            .collect();
    }

    /// Retries every queued VM once, FIFO: those the fleet can now
    /// host admit through the normal incremental path (counted as
    /// online admissions); the rest keep their queue position.
    fn drain_deferred(&mut self, sink: &mut dyn MetricSink) -> crate::Result<()> {
        let pending: Vec<usize> = self.deferred.drain(..).collect();
        for id in pending {
            let live = self.slots[id].as_ref().is_some_and(|s| s.live);
            if !live || self.placement.server_of(id).is_some() {
                continue;
            }
            let vm = self.dense_vms[id];
            match self.admit_live(vm, sink) {
                Ok(()) => {}
                Err(SimError::InsufficientServers { .. }) => {
                    self.deferred.push_back(id);
                    // No peak update: the queue is no longer than it
                    // was before the drain.
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Ends the session: emits [`MetricSink::on_summary`] with the
    /// terminal report. A partially replayed period is dropped, like
    /// the trailing partial period of a batch run.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] if already finished.
    pub fn finish(&mut self, sink: &mut dyn MetricSink) -> crate::Result<()> {
        self.check_open()?;
        self.finished = true;
        sink.on_summary(&self.report());
        Ok(())
    }

    /// The terminal aggregate over all *completed* periods — the same
    /// shape (and, for a batch-equivalent drive, the same bits) as
    /// [`Scenario::run`](crate::config::Scenario::run)'s report.
    pub fn report(&self) -> SimReport {
        let max_violation = self
            .period_records
            .iter()
            .map(|p| p.max_violation_ratio)
            .fold(0.0, f64::max);
        let mean_violation = if self.period_records.is_empty() {
            0.0
        } else {
            self.period_records
                .iter()
                .map(|p| p.max_violation_ratio)
                .sum::<f64>()
                / self.period_records.len() as f64
        };
        let mut energy = EnergyMeter::new();
        for meter in &self.class_energy {
            energy.merge(meter);
        }
        let classes: Vec<ClassBreakdown> = self
            .cfg
            .server_fleet
            .classes()
            .iter()
            .enumerate()
            .map(|(c, spec)| ClassBreakdown {
                name: spec.name().to_string(),
                cores: spec.cores(),
                servers_available: spec.count(),
                peak_servers_used: self.class_peak_servers[c],
                energy: self.class_energy[c],
                violation_instances: self.class_violations[c],
                migrations_in: self.class_migrations[c],
                freq_levels_ghz: spec.ladder().levels().iter().map(|f| f.as_ghz()).collect(),
                freq_histogram: self.class_freq_histogram[c].clone(),
            })
            .collect();
        SimReport {
            policy: self.cfg.policy.name().to_string(),
            dynamic_dvfs: matches!(self.cfg.dvfs_mode, DvfsMode::Dynamic { .. }),
            energy,
            max_violation_percent: max_violation * 100.0,
            mean_violation_percent: mean_violation * 100.0,
            violation_instances: self.violation_instances,
            periods: self.period_records.clone(),
            classes,
            freq_histogram: self.freq_histogram.clone(),
            freq_levels_ghz: self.union_ghz.clone(),
            online_admissions: self.online_admissions,
            offcycle_repacks: self.offcycle_repacks,
            sink_dropped_events: 0,
            server_failures: self.server_failures,
            evacuations: self.evacuations,
            deferred_peak: self.deferred_peak,
        }
    }

    /// Forks the session: the returned controller is a fully
    /// independent session that continues from this instant. Feeding
    /// both the original and the fork an identical event suffix
    /// produces bit-identical reports (pinned by the fork-equivalence
    /// property tests), and events applied to one are invisible to
    /// the other. The dominant cost is the period cost matrix
    /// (O(ids ever registered²) floats).
    pub fn fork(&self) -> Self {
        self.clone()
    }

    /// Streams one re-pack of the live placement — `servers_after` is
    /// read now, `slack_after` is the slack in effect now.
    fn emit_repack(
        &self,
        reason: RepackReason,
        servers_before: usize,
        migrations: usize,
        sink: &mut dyn MetricSink,
    ) {
        sink.on_repack(&RepackEvent {
            sample: self.clock,
            period: self.period,
            reason,
            servers_before,
            servers_after: self.placement.active_server_count(),
            migrations,
            slack_after: self.current_slack(),
        });
    }
}
