//! The placement period: the Fig 2 UPDATE/ALLOCATE pass at its
//! boundary, installing a freshly packed placement, the
//! placement-keeping boundary with its overcommit trim, the off-cycle
//! re-pack, the per-sample replay that fills the period window, and
//! the period-end observation that rebuilds the cost matrix.

use super::{vacant, DatacenterController, VmSlot, VIOLATION_EPS};
use crate::config::Policy;
use crate::report::PeriodRecord;
use crate::sink::{MetricSink, RepackReason, ViolationEvent};
use crate::SimError;
use cavm_core::alloc::{
    AllocationPolicy, BfdPolicy, FfdPolicy, PcpPolicy, Placement, ProposedPolicy, SuperVmPolicy,
    VmDescriptor,
};
use cavm_core::corr::CostMatrix;
use cavm_core::dvfs::DvfsMode;
use cavm_core::fleet::ServerHealth;
use cavm_core::servercost::ServerCostAggregate;
use cavm_power::PowerModel;
use cavm_trace::TimeSeries;

impl DatacenterController {
    /// Builds a fresh matrix over `universe` VMs — from the previous
    /// period's windows when they exist (zero-padded for VMs that
    /// postdate them), else empty (period 0: all pairs neutral).
    fn rebuild_matrix(&mut self, universe: usize) -> crate::Result<()> {
        let mut matrix = CostMatrix::new(universe, self.cfg.reference).map_err(SimError::Core)?;
        if let Some(first) = self.prev_window.first() {
            let len = first.len();
            let zero =
                TimeSeries::constant(self.cfg.sample_dt_s, len, 0.0).map_err(SimError::Trace)?;
            let mut refs: Vec<&TimeSeries> = self.prev_window.iter().collect();
            refs.resize(universe, &zero);
            matrix.push_columns(&refs, 0, len).map_err(SimError::Core)?;
        }
        self.matrix = matrix;
        Ok(())
    }

    /// Rebuilds the matrix when the id universe outgrew it: the batch
    /// pass validates ids against the matrix (new ids pair neutrally,
    /// as at a boundary).
    fn size_matrix(&mut self, universe: usize) -> crate::Result<()> {
        if self.matrix.len() != universe {
            self.rebuild_matrix(universe)?;
        }
        Ok(())
    }

    /// The full policy re-pack of the live VM set (plus the PCP cluster
    /// count when applicable) — the batch ALLOCATE pass. Runs through
    /// [`AllocationPolicy::place_with_margins`] with the live per-class
    /// overcommit margins (all zeros — and hence the policy's plain
    /// `place`, bit for bit — when overcommit is off or the controller
    /// is degraded).
    fn place_live(&self, vms: &[VmDescriptor]) -> crate::Result<(Placement, Option<usize>)> {
        let fleet = &self.cfg.server_fleet;
        let margins = self.batch_margins();
        let matrix = &self.matrix;
        let place = |policy: &dyn AllocationPolicy| {
            policy
                .place_with_margins(vms, matrix, fleet, &margins)
                .map_err(super::map_core)
        };
        match self.cfg.policy {
            Policy::Bfd => Ok((place(&BfdPolicy)?, None)),
            Policy::Ffd => Ok((place(&FfdPolicy)?, None)),
            Policy::Proposed(config) => Ok((
                place(&ProposedPolicy::new(config).map_err(SimError::Core)?)?,
                None,
            )),
            Policy::SuperVm { min_pair_cost } => Ok((
                place(&SuperVmPolicy::new(min_pair_cost).map_err(SimError::Core)?)?,
                None,
            )),
            Policy::Pcp {
                envelope_percentile,
                affinity_threshold,
            } => {
                // No history yet — including a previous period that
                // held zero VMs: a single degenerate cluster, i.e. BFD
                // behaviour.
                let Some(first) = self.prev_window.first() else {
                    return Ok((place(&BfdPolicy)?, Some(1)));
                };
                // VMs that postdate the window cluster from an all-zero
                // envelope.
                let zero = TimeSeries::constant(self.cfg.sample_dt_s, first.len(), 0.0)
                    .map_err(SimError::Trace)?;
                let mut refs: Vec<&TimeSeries> = self.prev_window.iter().collect();
                while refs.len() < self.slots.len() {
                    refs.push(&zero);
                }
                let pcp = PcpPolicy::from_traces(&refs, envelope_percentile, affinity_threshold)
                    .map_err(SimError::Core)?;
                Ok((place(&pcp)?, Some(pcp.cluster_count())))
            }
        }
    }

    /// The UPDATE + ALLOCATE pass at a period boundary: predict live
    /// demands, refresh the matrix dimension, re-pack (or, under a
    /// pure [`RepackTrigger::Fragmentation`] schedule, keep the
    /// standing placement), count migrations, and plan every server's
    /// static frequency.
    ///
    /// [`RepackTrigger::Fragmentation`]: super::RepackTrigger::Fragmentation
    pub(super) fn start_period(&mut self, sink: &mut dyn MetricSink) -> crate::Result<()> {
        let universe = self.slots.len();
        self.period_start = self.clock;
        self.period_ratio_floor = 0.0;
        // The boundary starts fresh violation counters; a guard armed
        // by the previous period's last samples has nothing valid to
        // threshold (the keep-path's capacity check covers the drift).
        self.qos_armed = false;

        // ---- UPDATE: predicted descriptors (last-value predictor with
        // the configured default before the first observation).
        self.dense_vms.clear();
        let mut live_vms = Vec::new();
        for (id, slot) in self.slots.iter().enumerate() {
            let descriptor = match slot {
                Some(s) if s.live => {
                    let demand = s.last_peak.unwrap_or(self.cfg.default_demand).max(0.0);
                    let off = s.last_off.unwrap_or(demand * 0.9).clamp(0.0, demand);
                    let d = VmDescriptor::new(id, demand).with_off_peak(off);
                    live_vms.push(d);
                    d
                }
                _ => vacant(id),
            };
            self.dense_vms.push(descriptor);
        }
        if universe > 0 {
            self.size_matrix(universe)?;
        }

        // A fragmentation-only schedule keeps the standing placement
        // across boundaries once one exists; everything else (and the
        // very first placement) runs the batch ALLOCATE pass. Degraded
        // mode also keeps: the health-blind batch pass would pack onto
        // failed slots (and lose their health state in the rebuild),
        // so a degraded boundary works incrementally instead — evict
        // the departed, re-admit the pending, consolidate later.
        let degraded = self.degraded();
        let keep = (!self.cfg.repack_trigger.periodic_repacks() || degraded)
            && (self.placement.servers().iter().any(|m| !m.is_empty())
                || (degraded && self.placement.server_count() > 0));
        if keep {
            return self.keep_placement_boundary(sink);
        }

        // ---- ALLOCATE.
        let servers_before = self.placement.active_server_count();
        let (placement, pcp_clusters) = if live_vms.is_empty() {
            let clusters = matches!(self.cfg.policy, Policy::Pcp { .. }).then_some(1);
            (Placement::from_servers(vec![]), clusters)
        } else {
            self.place_live(&live_vms)?
        };
        self.pcp_clusters = pcp_clusters;

        let migrations = self.install_placement(placement, sink)?;
        // A fresh period starts fresh dynamic-governor windows (the
        // off-cycle re-pack path preserves them instead).
        self.window_max_vm = vec![0.0; universe];
        self.period_migrations = migrations;
        self.period_class_joules_start = self.class_energy.iter().map(|m| m.joules()).collect();
        // The batch pass healed whatever fragmentation was pending.
        self.repack_armed = false;
        if !live_vms.is_empty() {
            self.emit_repack(RepackReason::Periodic, servers_before, migrations, sink);
        }
        Ok(())
    }

    /// Rebuilds every server's aggregate and re-plans its static
    /// frequency against the current matrix and predictions.
    fn refresh_servers(&mut self) -> crate::Result<()> {
        for s in 0..self.placement.server_count() {
            self.rebuild_aggregate(s);
            self.replan_bin(s)?;
        }
        Ok(())
    }

    /// Swaps in a freshly packed placement mid-stream: counts
    /// migrations against the live assignment (attributed to the
    /// destination server's class), rebuilds the per-server aggregate/
    /// capacity/violation tables and plans every server's static
    /// frequency. Returns the migration count.
    fn install_placement(
        &mut self,
        placement: Placement,
        sink: &mut dyn MetricSink,
    ) -> crate::Result<usize> {
        let assignment = placement.assignment(self.slots.len());
        let mut migrations = 0usize;
        for (id, &now) in assignment.iter().enumerate() {
            let before = self.assignment.get(id).copied().flatten();
            if let (Some(b), Some(n)) = (before, now) {
                if b != n {
                    migrations += 1;
                    self.class_migrations[placement.classes()[n]] += 1;
                    sink.on_migration(self.period, id, b, n);
                }
            }
        }
        self.assignment = assignment;

        // Rebuild per-server state: class/capacity tables, cost
        // aggregates, frequency plans. Per-bin dynamic-governor windows
        // cannot survive a reshuffle; the per-VM maxima
        // (`window_max_vm`) are bin-independent, so callers decide
        // whether to reset or carry them.
        let bins = placement.server_count();
        self.classes_of = placement.classes().to_vec();
        self.cores_of = self
            .classes_of
            .iter()
            .map(|&c| self.cfg.server_fleet.classes()[c].cores())
            .collect();
        self.placement = placement;
        self.aggregates = vec![ServerCostAggregate::new(); bins];
        self.freq_idx = vec![0; bins];
        self.window_max_agg = vec![0.0; bins];
        self.server_violations = vec![0; bins];
        // A full batch re-pack renumbers the server slots wholesale,
        // which only ever happens outside degraded mode (degraded
        // boundaries keep, and degraded suspends the fragmentation
        // re-pack) — so every slot of the fresh placement is healthy.
        debug_assert!(!self.health.iter().any(|h| h.is_failed()));
        self.health = vec![ServerHealth::Healthy; bins];
        // The renumbering also voids any per-slot overcommit holds: the
        // trimmed server a hold pointed at no longer exists.
        self.overcommit_hold = vec![0; bins];
        self.refresh_servers()?;
        Ok(migrations)
    }

    /// The period boundary under a fragmentation-only schedule: the
    /// standing placement is kept (members that departed between
    /// periods are evicted first), its aggregates and frequency plans
    /// are refreshed against the new matrix and predictions, and VMs
    /// that arrived between periods are admitted incrementally. No
    /// migrations happen, and [`PeriodRecord::pcp_clusters`] stays
    /// `None` (no clustering ran).
    fn keep_placement_boundary(&mut self, sink: &mut dyn MetricSink) -> crate::Result<()> {
        let universe = self.slots.len();

        // Members that departed between periods leave their (kept)
        // slots now; like any eviction this arms the fragmentation
        // check.
        let mut evicted_any = false;
        for id in 0..universe {
            let live = self.slots[id].as_ref().is_some_and(|s| s.live);
            if !live && self.placement.server_of(id).is_some() {
                self.placement.evict(id).map_err(SimError::Core)?;
                evicted_any = true;
            }
        }
        self.assignment = self.placement.assignment(universe);
        self.period_migrations = 0;
        self.pcp_clusters = None;

        // Refresh per-server state against the new matrix/predictions.
        let bins = self.placement.server_count();
        self.window_max_agg = vec![0.0; bins];
        self.window_max_vm = vec![0.0; universe];
        // The completed period's per-server violation counters are the
        // guard's boundary evidence; capture them across the reset.
        let prior_violations = std::mem::replace(&mut self.server_violations, vec![0; bins]);
        self.period_class_joules_start = self.class_energy.iter().map(|m| m.joules()).collect();
        self.refresh_servers()?;

        // The QoS guard's boundary capacity check. A kept server is
        // force-repacked only on *evidence*: its violation ratio over
        // the completed period exceeded the guard's threshold (it
        // ended the period un-healed — e.g. crossed too late for the
        // mid-period guard to act) AND the refreshed predictions say
        // it is overcommitted going into the next one. Sub-threshold
        // violators keep their packing deliberately: predicted
        // overcommit whose coincident peaks stay within the SLA budget
        // is exactly the correlation gap the paper's Eqn (1) packing
        // exploits, and splitting on it would forfeit the
        // fragmentation schedule's energy win. The fix is surgical:
        // the largest members are trimmed off (and relocated below)
        // until the remainder fits the capacity, moving the minimum of
        // VMs.
        //
        // Degraded mode suspends the deliberate overcommit entirely:
        // with capacity already lost to failures, *any* predicted
        // overcommit is trimmed at the boundary — no breach evidence
        // required, guard configured or not. The correlation gap is a
        // bet the shrunken fleet can no longer cover.
        let degraded = self.degraded();
        let mut displaced = Vec::new();
        let mut over_servers = 0usize;
        let servers_before = self.placement.active_server_count();
        self.overcommit_hold.resize(bins, 0);
        if self.cfg.qos_guard.is_some() || degraded {
            for s in 0..bins {
                let violations = prior_violations.get(s).copied().unwrap_or(0);
                let evidence = degraded
                    || self
                        .cfg
                        .qos_guard
                        .is_some_and(|g| g.exceeded(violations, self.cfg.period_samples));
                let mut members = self.placement.servers()[s].clone();
                if members.is_empty() || !evidence {
                    continue;
                }
                let mut load: f64 = members.iter().map(|&id| self.dense_vms[id].demand).sum();
                if load <= self.cores_of[s] + VIOLATION_EPS {
                    continue;
                }
                over_servers += 1;
                // A trimmed server sits out deliberate overcommit for
                // the trim period and the next: re-admitting the same
                // margin it just breached would ping-pong VMs between
                // the trim loop and the admission gate every boundary.
                if self.overcommit_ctl.is_some() {
                    self.overcommit_hold[s] = self.period + 2;
                }
                members.sort_by(|&a, &b| {
                    self.dense_vms[b]
                        .demand
                        .partial_cmp(&self.dense_vms[a].demand)
                        .expect("finite demands")
                        .then(a.cmp(&b))
                });
                for m in members {
                    if load <= self.cores_of[s] + VIOLATION_EPS {
                        break;
                    }
                    self.displace(m)?;
                    load -= self.dense_vms[m].demand;
                    displaced.push((m, s));
                }
                self.rebuild_aggregate(s);
                self.replan_bin(s)?;
            }
        }
        if over_servers > 0 {
            // The trimmed VM has nowhere to go on a shrunken fleet:
            // queue it like any other displaced VM.
            self.relocate(
                displaced,
                RepackReason::Overcommit {
                    servers: over_servers,
                },
                servers_before,
                degraded,
                sink,
            )?;
        }

        // VMs that arrived between periods join incrementally, in id
        // order, with their predicted descriptors — and so do queued
        // VMs (live but unplaced), which makes the boundary a natural
        // deferred-queue retry; successes are pruned from the queue by
        // the caller.
        for id in 0..universe {
            let live = self.slots[id].as_ref().is_some_and(|s| s.live);
            if live && self.placement.server_of(id).is_none() {
                self.admit_or_defer(self.dense_vms[id], sink)?;
            }
        }
        if evicted_any && self.cfg.repack_trigger.slack().is_some() {
            self.repack_armed = true;
        }
        Ok(())
    }

    /// A full re-pack of the live VM set between period boundaries
    /// (fragmentation-fired, or a [`WhatIf`](super::WhatIf) probe's
    /// hypothetical): re-packs with the batch policy against the
    /// current matrix, folds the obsoleted per-server violation
    /// counters into the period's floor, and emits
    /// [`MetricSink::on_repack`]; the [`SlackController`] observes a
    /// fragmentation re-pack's realized outcome.
    ///
    /// [`SlackController`]: super::SlackController
    pub(super) fn midperiod_repack(
        &mut self,
        reason: RepackReason,
        sink: &mut dyn MetricSink,
    ) -> crate::Result<()> {
        let universe = self.slots.len();
        let live_vms: Vec<VmDescriptor> = (0..universe)
            .filter(|&id| self.slots[id].as_ref().is_some_and(|s| s.live))
            .map(|id| self.dense_vms[id])
            .collect();
        if live_vms.is_empty() {
            return Ok(());
        }
        // Mid-period arrivals may postdate the period matrix.
        self.size_matrix(universe)?;
        let servers_before = self.placement.active_server_count();
        let (placement, pcp_clusters) = self.place_live(&live_vms)?;

        // The re-pack reshuffles the bins, so the per-server violation
        // counters cannot carry across it — fold their worst ratio
        // into the period's floor before they are reset.
        let floor = self
            .server_violations
            .iter()
            .map(|&v| v as f64 / self.cfg.period_samples as f64)
            .fold(0.0, f64::max);
        self.period_ratio_floor = self.period_ratio_floor.max(floor);

        let migrations = self.install_placement(placement, sink)?;
        // The per-VM window maxima are bin-independent: carry them
        // across the reshuffle so a mid-interval dynamic replan still
        // sees the whole interval's peaks, and seed each new bin's
        // aggregate window with its members' per-VM maxima (Σ max ≥
        // max Σ — a conservative stand-in until fresh samples land).
        self.window_max_vm.resize(universe, 0.0);
        for (s, members) in self.placement.servers().iter().enumerate() {
            self.window_max_agg[s] = members.iter().map(|&v| self.window_max_vm[v]).sum();
        }
        self.period_migrations += migrations;
        if pcp_clusters.is_some() {
            self.pcp_clusters = pcp_clusters;
        }
        self.offcycle_repacks += 1;
        let servers_after = self.placement.active_server_count();
        if let (RepackReason::Fragmentation { .. }, Some(ctl)) = (reason, self.slack_ctl.as_mut()) {
            // Feed the realized outcome back into the adaptive slack:
            // freed servers are the energy win, migrations the price.
            ctl.observe(servers_before.saturating_sub(servers_after), migrations);
        }
        self.emit_repack(reason, servers_before, migrations, sink);
        Ok(())
    }

    /// Observes the completed period for the next UPDATE, rebuilds the
    /// matrix from the period window, and emits the period's metrics.
    pub(super) fn end_period(&mut self, sink: &mut dyn MetricSink) -> crate::Result<()> {
        let universe = self.slots.len();

        // ---- Observe this period for the next UPDATE.
        for id in 0..universe {
            if let Some(slot) = &mut self.slots[id] {
                if slot.live {
                    let win = &self.window[id];
                    let peak = self.cfg.reference.of(win).map_err(SimError::Trace)?;
                    slot.last_peak = Some(peak);
                    let off = cavm_trace::percentile(win, 90.0).map_err(SimError::Trace)?;
                    slot.last_off = Some(off);
                }
            }
        }

        // ---- Window replay into the next period's matrix.
        self.prev_window = self
            .window
            .drain(..)
            .map(|values| TimeSeries::new(self.cfg.sample_dt_s, values))
            .collect::<Result<_, _>>()
            .map_err(SimError::Trace)?;
        if universe > 0 {
            self.rebuild_matrix(universe)?;
        }

        // ---- Per-class peaks and the period record.
        for (class, peak) in self.class_peak_servers.iter_mut().enumerate() {
            let used = self
                .placement
                .servers()
                .iter()
                .zip(&self.classes_of)
                .filter(|(members, &c)| !members.is_empty() && c == class)
                .count();
            *peak = (*peak).max(used);
        }
        // Counters discarded by an off-cycle re-pack contribute
        // through the folded floor (0 when no re-pack happened).
        let max_ratio = self
            .server_violations
            .iter()
            .map(|&v| v as f64 / self.cfg.period_samples as f64)
            .fold(self.period_ratio_floor, f64::max);
        let record = PeriodRecord {
            period: self.period,
            servers_used: self.placement.active_server_count(),
            max_violation_ratio: max_ratio,
            migrations: self.period_migrations,
            pcp_clusters: self.pcp_clusters,
        };
        sink.on_period(&record);
        for (c, meter) in self.class_energy.iter().enumerate() {
            sink.on_class_energy(
                self.period,
                c,
                self.cfg.server_fleet.classes()[c].name(),
                meter.joules() - self.period_class_joules_start[c],
            );
        }
        self.observe_overcommit_period();
        self.period_records.push(record);
        self.period += 1;
        self.in_period = false;
        Ok(())
    }

    /// Replays the current sample: per-server aggregation, dynamic
    /// DVFS, violations, energy and histograms.
    pub(super) fn replay_tick(&mut self, sink: &mut dyn MetricSink) -> crate::Result<()> {
        let universe = self.slots.len();
        let k = self.clock;
        let k_in_period = k - self.period_start;
        let elapsed = k_in_period;
        while self.window.len() < universe {
            let mut w = Vec::with_capacity(self.cfg.period_samples);
            w.resize(elapsed, 0.0);
            self.window.push(w);
        }
        self.sample_buf.resize(universe, 0.0);
        for id in 0..universe {
            let v = sample_of(&self.slots[id], k);
            self.sample_buf[id] = v;
            self.window[id].push(v);
        }

        let dt = self.cfg.sample_dt_s;
        for s in 0..self.placement.server_count() {
            let members: &[usize] = &self.placement.servers()[s];
            if members.is_empty() {
                // A fully vacated server is powered off until re-used.
                continue;
            }
            if self.health.get(s).is_some_and(|h| h.is_failed()) {
                // Evacuation empties failed servers, so this arm is
                // normally unreachable — but a failed server draws no
                // power and can violate nothing, whatever its members
                // claim.
                continue;
            }
            let class = self.classes_of[s];
            let capacity = self.cores_of[s];
            let ladder = self.cfg.server_fleet.classes()[class].ladder();
            let agg: f64 = members.iter().map(|&v| self.sample_buf[v]).sum();

            if let DvfsMode::Dynamic { interval_samples } = self.cfg.dvfs_mode {
                if k_in_period > 0 && k_in_period.is_multiple_of(interval_samples) {
                    // Correlation-aware governors trust the measured
                    // *aggregate* peak; correlation-blind ones must
                    // assume per-VM peaks can coincide (Σ max ≥ max Σ).
                    let recent = if self.cfg.policy.correlation_aware_frequency() {
                        self.window_max_agg[s]
                    } else {
                        members.iter().map(|&v| self.window_max_vm[v]).sum()
                    };
                    let f = self
                        .planner
                        .dynamic_level(class, recent, self.cfg.dynamic_headroom)
                        .map_err(SimError::Core)?;
                    self.freq_idx[s] = ladder.index_of(f).expect("planner returns ladder levels");
                    self.window_max_agg[s] = 0.0;
                    for &v in members {
                        self.window_max_vm[v] = 0.0;
                    }
                }
                self.window_max_agg[s] = self.window_max_agg[s].max(agg);
                for &v in members {
                    self.window_max_vm[v] = self.window_max_vm[v].max(self.sample_buf[v]);
                }
            }

            let f = ladder.get(self.freq_idx[s]).expect("index within ladder");
            let eff_capacity = capacity * f.ratio_to(ladder.max());
            if agg > eff_capacity + VIOLATION_EPS {
                self.server_violations[s] += 1;
                self.violation_instances += 1;
                self.class_violations[class] += 1;
                // A violation is what degrades QoS: arm the guard
                // check for the next tick (the period ratio cannot
                // rise between violations).
                if self.cfg.qos_guard.is_some() {
                    self.qos_armed = true;
                }
                sink.on_violation(&ViolationEvent {
                    sample: k,
                    period: self.period,
                    server: s,
                    class,
                    demand: agg,
                    capacity: eff_capacity,
                });
            }
            let u = (agg / eff_capacity).clamp(0.0, 1.0);
            let watts = self.cfg.server_fleet.classes()[class]
                .power_model()
                .power(u, f)
                .map_err(SimError::Power)?;
            self.class_energy[class].add(watts, dt);
            self.freq_histogram[s][self.union_level[class][self.freq_idx[s]]] += 1;
            self.class_freq_histogram[class][self.freq_idx[s]] += 1;
        }
        Ok(())
    }
}

/// Demand of a registered VM at global sample `k` (zero before arrival,
/// after departure, or past the end of its trace).
fn sample_of(slot: &Option<VmSlot>, k: usize) -> f64 {
    match slot {
        Some(s) if s.live && k >= s.arrival => {
            s.trace.values().get(k - s.arrival).copied().unwrap_or(0.0)
        }
        _ => 0.0,
    }
}
