//! Single-VM admission and relocation.
//!
//! Every VM that lands on a server between full re-packs goes through
//! [`DatacenterController::admit_slot`]: mid-period arrivals, deferred
//! retries, and the three healing moves — evacuation off a failed
//! server, the QoS guard's hotspot move and the boundary overcommit
//! trim — which share one path, [`DatacenterController::relocate`].

use super::{vacant, DatacenterController};
use crate::config::Policy;
use crate::sink::{MetricSink, RepackReason};
use crate::SimError;
use cavm_core::alloc::{
    AllocationPolicy, BfdPolicy, FfdPolicy, OpenServer, ProposedPolicy, VmDescriptor,
};
use cavm_core::corr::CostMatrix;
use cavm_core::fleet::ServerHealth;
use cavm_core::servercost::{server_cost_of, ServerCostAggregate};
use cavm_core::CoreError;

impl DatacenterController {
    /// The next fill-order server slot not consumed by the live
    /// placement (empty-but-reserved slots count as consumed).
    fn next_open_slot(&self) -> crate::Result<(usize, f64)> {
        let fleet = &self.cfg.server_fleet;
        let mut used = vec![0usize; fleet.len()];
        for &c in self.placement.classes() {
            used[c] += 1;
        }
        for &class in fleet.fill_order() {
            if used[class] < fleet.classes()[class].count() {
                return Ok((class, fleet.classes()[class].cores()));
            }
        }
        Err(super::map_core(CoreError::FleetExhausted {
            slots: self.total_slots,
            unallocated: 1,
        }))
    }

    /// Rebuilds server `s`'s Eqn (2) cost aggregate from its current
    /// members and predictions.
    pub(super) fn rebuild_aggregate(&mut self, s: usize) {
        let mut agg = ServerCostAggregate::new();
        for &m in &self.placement.servers()[s] {
            agg.push(m, self.dense_vms[m].demand, &self.matrix);
        }
        self.aggregates[s] = agg;
    }

    /// Re-plans one server's static frequency level from its current
    /// members (after an admit or evict); an empty server keeps its
    /// level.
    pub(super) fn replan_bin(&mut self, s: usize) -> crate::Result<()> {
        let members: &[usize] = &self.placement.servers()[s];
        if members.is_empty() {
            return Ok(());
        }
        let class = self.classes_of[s];
        let total: f64 = members.iter().map(|&id| self.dense_vms[id].demand).sum();
        let f = if self.cfg.policy.correlation_aware_frequency() {
            let cost = server_cost_of(members, &self.dense_vms, &self.matrix).max(1.0);
            self.planner
                .static_level_correlation_aware(class, total, cost)
                .map_err(SimError::Core)?
        } else {
            self.planner
                .static_level_worst_case(class, total)
                .map_err(SimError::Core)?
        };
        let ladder = self.cfg.server_fleet.classes()[class].ladder();
        self.freq_idx[s] = ladder.index_of(f).expect("planner returns ladder levels");
        Ok(())
    }

    /// Samples until the last member of `members` departs: `Some(k)`
    /// when every member's lease end is known, `None` when any member
    /// is open-ended — or when the server is empty (already drained,
    /// hence bias-neutral).
    fn drain_of(&self, members: &[usize]) -> Option<usize> {
        // An already-vacated (powered-off but reserved) slot is
        // drained: re-using it extends nothing, so it stays neutral
        // (`None`) and the no-lease-info path remains bit-identical
        // to the lease-blind rules.
        if members.is_empty() {
            return None;
        }
        let mut drain = 0usize;
        for &m in members {
            match self
                .slots
                .get(m)
                .and_then(|s| s.as_ref())
                .and_then(|s| s.lease_end)
            {
                None => return None,
                Some(end) => drain = drain.max(end.saturating_sub(self.clock)),
            }
        }
        Some(drain)
    }

    /// Admits the (already registered, live) VM described by `vm` into
    /// the live placement through the policy's single-VM entry point —
    /// no re-pack. Counts as an online admission and emits
    /// [`MetricSink::on_admit`]; healing moves go through
    /// [`Self::relocate`] instead (a displaced member is a migration,
    /// not an arrival).
    pub(super) fn admit_live(
        &mut self,
        vm: VmDescriptor,
        sink: &mut dyn MetricSink,
    ) -> crate::Result<()> {
        let server = self.admit_slot(vm, None)?;
        self.online_admissions += 1;
        sink.on_admit(self.clock, vm.id, server);
        Ok(())
    }

    /// [`Self::admit_live`], except that while degraded a VM the
    /// shrunken fleet cannot host joins the deferred queue instead of
    /// failing the event.
    pub(super) fn admit_or_defer(
        &mut self,
        vm: VmDescriptor,
        sink: &mut dyn MetricSink,
    ) -> crate::Result<()> {
        match self.admit_live(vm, sink) {
            Err(SimError::InsufficientServers { .. }) if self.degraded() => self.defer(vm.id),
            other => other,
        }
    }

    /// The placement half of an incremental admission: routes `vm`
    /// through the policy's `place_one` rule (opening a fresh
    /// fill-order server when nothing fits), pushes it into the chosen
    /// server's aggregate and re-plans that server's frequency. The
    /// arriving VM's remaining lease and each server's drain horizon
    /// feed the lease-aware bias. `exclude` names a server the rule
    /// may not pick — a healing move's origin, or re-admission would
    /// happily undo the eviction it just made. Returns the chosen
    /// server.
    pub(super) fn admit_slot(
        &mut self,
        vm: VmDescriptor,
        exclude: Option<usize>,
    ) -> crate::Result<usize> {
        let id = vm.id;
        let universe = self.slots.len();
        self.window_max_vm.resize(universe, 0.0);
        if self.assignment.len() < universe {
            self.assignment.resize(universe, None);
        }
        while self.dense_vms.len() < universe {
            self.dense_vms.push(vacant(self.dense_vms.len()));
        }
        self.dense_vms[id] = vm;
        let lease = self.slots[id]
            .as_ref()
            .and_then(|s| s.lease_end)
            .map(|end| end.saturating_sub(self.clock));

        // Healing moves (exclude set: guard splits, boundary trims,
        // evacuations) place at plain capacity — margin 0. A VM being
        // moved *off* an overloaded server must not land on another
        // one's overcommit bet.
        let healing = exclude.is_some();
        let candidates: Vec<usize> = (0..self.placement.server_count())
            .filter(|&s| exclude != Some(s))
            .collect();
        let drains: Vec<Option<usize>> = candidates
            .iter()
            .map(|&s| self.drain_of(&self.placement.servers()[s]))
            .collect();
        let views: Vec<OpenServer<'_>> = candidates
            .iter()
            .zip(&drains)
            .map(|(&s, &drain_samples)| OpenServer {
                class: self.classes_of[s],
                cores: self.cores_of[s],
                watts_per_core: self.class_wpc[self.classes_of[s]],
                drain_samples,
                agg: &self.aggregates[s],
                healthy: !self.health.get(s).is_some_and(|h| h.is_failed()),
                overcommit_margin: if healing { 0.0 } else { self.margin_of(s) },
            })
            .collect();
        let choice =
            admit_choice(self.cfg.policy, &vm, lease, &views, &self.matrix).map(|i| candidates[i]);
        let server = match choice {
            Some(s) => s,
            None => {
                let (class, cores) = self.next_open_slot()?;
                let s = self.placement.open_server(class);
                self.classes_of.push(class);
                self.cores_of.push(cores);
                self.aggregates.push(ServerCostAggregate::new());
                self.freq_idx.push(0);
                self.window_max_agg.push(0.0);
                self.server_violations.push(0);
                self.health.resize(s, ServerHealth::Healthy);
                self.health.push(ServerHealth::Healthy);
                self.overcommit_hold.resize(s, 0);
                self.overcommit_hold.push(0);
                s
            }
        };
        self.placement.admit(id, server).map_err(SimError::Core)?;
        self.aggregates[server].push(id, vm.demand, &self.matrix);
        self.assignment[id] = Some(server);
        self.replan_bin(server)?;
        Ok(server)
    }

    /// Evicts a placed VM from its server and forgets its assignment;
    /// returns the server it left. The caller rebuilds that server's
    /// aggregate once its evictions are done.
    pub(super) fn displace(&mut self, id: usize) -> crate::Result<usize> {
        let server = self.placement.evict(id).map_err(SimError::Core)?;
        if let Some(a) = self.assignment.get_mut(id) {
            *a = None;
        }
        Ok(server)
    }

    /// The one relocation path, shared by evacuation, the QoS guard's
    /// hotspot move and the boundary overcommit trim: re-admits each
    /// displaced `(id, origin)` in id order through the policy's
    /// single-VM rule, never back onto its origin. Every landing is a
    /// migration, attributed to the destination's class and streamed.
    /// A VM the fleet cannot host joins the deferred queue when `defer`
    /// allows it; otherwise the error propagates. Closes with one
    /// [`MetricSink::on_repack`] under `reason` and returns the
    /// migrations.
    pub(super) fn relocate(
        &mut self,
        mut displaced: Vec<(usize, usize)>,
        reason: RepackReason,
        servers_before: usize,
        defer: bool,
        sink: &mut dyn MetricSink,
    ) -> crate::Result<usize> {
        displaced.sort_unstable();
        let mut migrations = 0usize;
        for (id, origin) in displaced {
            match self.admit_slot(self.dense_vms[id], Some(origin)) {
                Ok(dest) => {
                    migrations += 1;
                    self.class_migrations[self.placement.classes()[dest]] += 1;
                    sink.on_migration(self.period, id, origin, dest);
                }
                Err(SimError::InsufficientServers { .. }) if defer => self.defer(id)?,
                Err(e) => return Err(e),
            }
        }
        self.period_migrations += migrations;
        self.emit_repack(reason, servers_before, migrations, sink);
        Ok(migrations)
    }
}

/// Routes a single-VM admission to the policy's `place_one` rule. PCP
/// and SuperVM consolidate per period only; between re-packs their
/// arrivals use the default best-fit rule (spelled through `BfdPolicy`,
/// whose inherited default it is). Every rule receives the arriving
/// VM's remaining lease for the drain-aware bias.
fn admit_choice(
    policy: Policy,
    vm: &VmDescriptor,
    lease: Option<usize>,
    servers: &[OpenServer<'_>],
    matrix: &CostMatrix,
) -> Option<usize> {
    match policy {
        Policy::Proposed(config) => ProposedPolicy::new(config)
            .expect("controller construction validates the proposed config")
            .place_one(vm, lease, servers, matrix),
        Policy::Ffd => FfdPolicy.place_one(vm, lease, servers, matrix),
        Policy::Bfd | Policy::Pcp { .. } | Policy::SuperVm { .. } => {
            BfdPolicy.place_one(vm, lease, servers, matrix)
        }
    }
}
