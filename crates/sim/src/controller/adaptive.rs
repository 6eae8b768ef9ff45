//! The adaptive loops of the re-pack schedule — [`RepackTrigger`],
//! [`QosGuard`], [`SlackController`], [`OvercommitConfig`] and
//! [`OvercommitController`] — and the places where the controller
//! consults them: the fragmentation check and the QoS guard's surgical
//! move between ticks, the per-slot overcommit margins admission uses,
//! and the margin walk at the end of each period.
//!
//! The three feedback types stay separate on purpose: the guard is a
//! predicate, not a loop, and the slack and margin walks follow
//! different rules.

use super::DatacenterController;
use crate::sink::{MetricSink, RepackReason};
use crate::SimError;
use serde::{Deserialize, Serialize};

/// When the controller re-packs the live placement.
///
/// The paper's Fig 2 re-packs strictly on the period clock; under
/// heavy departure churn that leaves fragmented, half-empty servers
/// burning idle watts until the next boundary. The fragmentation
/// variants watch the live Eqn (3) lower bound
/// ([`ServerFleet::estimate_server_count`] of the packed predicted
/// demand) and fire an *off-cycle* re-pack as soon as it drops at
/// least `slack` servers below
/// [`Placement::active_server_count`](cavm_core::alloc::Placement::active_server_count)
/// — checked at the first tick
/// after a departure evicts a placed VM (between membership changes
/// the predicate cannot change, so nothing else is ever checked).
///
/// ```
/// use cavm_sim::RepackTrigger;
///
/// let trigger = RepackTrigger::Hybrid { slack: 2 };
/// // 5 active servers, but the live demand would fit into 3.
/// assert!(trigger.fires(3, 5));
/// assert!(!trigger.fires(4, 5));
/// assert!(!RepackTrigger::Periodic.fires(0, 5));
/// ```
///
/// [`ServerFleet::estimate_server_count`]: cavm_core::fleet::ServerFleet::estimate_server_count
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum RepackTrigger {
    /// Re-pack at every period boundary only — the paper's schedule
    /// and the default; bit-identical to the pre-trigger controller.
    #[default]
    Periodic,
    /// Re-pack *only* when fragmentation warrants it: period
    /// boundaries refresh predictions, the cost matrix and the
    /// frequency plans but keep the standing placement (VMs that
    /// arrived between periods are admitted incrementally), and a full
    /// ALLOCATE pass runs only when the predicate fires. The session's
    /// first placement of a live VM set is still a batch pass.
    Fragmentation {
        /// Minimum gap (in servers) between the active count and the
        /// Eqn (3) bound before a re-pack fires; must be ≥ 1.
        slack: u32,
    },
    /// Both schedules: periodic re-packs *plus* fragmentation-fired
    /// off-cycle ones — never re-packs less than [`Periodic`] does.
    ///
    /// [`Periodic`]: RepackTrigger::Periodic
    Hybrid {
        /// Minimum gap (in servers) between the active count and the
        /// Eqn (3) bound before an off-cycle re-pack fires; must be
        /// ≥ 1.
        slack: u32,
    },
}

impl RepackTrigger {
    /// Whether period boundaries run the full ALLOCATE re-pack
    /// (`Periodic` and `Hybrid`).
    pub fn periodic_repacks(&self) -> bool {
        matches!(self, Self::Periodic | Self::Hybrid { .. })
    }

    /// The fragmentation slack, or `None` when off-cycle re-packs are
    /// disabled.
    pub fn slack(&self) -> Option<u32> {
        match *self {
            Self::Periodic => None,
            Self::Fragmentation { slack } | Self::Hybrid { slack } => Some(slack),
        }
    }

    /// The fragmentation predicate: `true` when the Eqn (3) bound
    /// `estimate` sits at least `slack` servers below the `active`
    /// server count (always `false` for [`RepackTrigger::Periodic`]).
    pub fn fires(&self, estimate: usize, active: usize) -> bool {
        match self.slack() {
            None => false,
            Some(slack) => active.saturating_sub(estimate) >= slack as usize,
        }
    }

    /// Stable display name for reports and experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Periodic => "periodic",
            Self::Fragmentation { .. } => "fragmentation",
            Self::Hybrid { .. } => "hybrid",
        }
    }
}

/// The QoS dimension of the re-pack schedule, composable with any
/// [`RepackTrigger`] via
/// [`ControllerConfig::qos_guard`](super::ControllerConfig::qos_guard) /
/// `ScenarioBuilder::qos_guard`.
///
/// A pure [`RepackTrigger::Fragmentation`] schedule keeps placements
/// across period boundaries, so drifting predictions can leave kept
/// servers overcommitted for hours — the SLA side of the paper's
/// Eqn (2)/(3) energy/QoS tension. The guard watches the *observed*
/// worst per-server violation ratio of the running period and, once a
/// violation pushes it past `violation_ratio`, fires an off-cycle
/// re-pack ([`RepackReason::QosGuard`]) of exactly the breaching
/// servers: their members' predictions are refreshed from the
/// period's samples so far and their largest members trimmed onto
/// other servers until the refreshed load fits. At placement-keeping
/// period boundaries it additionally force-repacks servers that
/// breached the threshold over the completed period *and* remain
/// overcommitted under the refreshed predictions
/// ([`RepackReason::Overcommit`]). Sub-threshold overcommit is
/// deliberately left standing in both checks — summed per-VM peaks
/// overstating the coincident aggregate is the correlation gap the
/// paper's Eqn (1) packing exploits, and it is where the
/// placement-keeping schedule's energy win lives.
///
/// ```
/// use cavm_sim::QosGuard;
///
/// let guard = QosGuard {
///     violation_ratio: 0.05,
/// };
/// // 37 over-capacity samples in a 720-sample period is past 5%.
/// assert!(guard.exceeded(37, 720));
/// assert!(!guard.exceeded(36, 720));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QosGuard {
    /// Worst per-server violation ratio (over-capacity samples /
    /// period samples) above which the guard fires; must lie in
    /// (0, 1].
    pub violation_ratio: f64,
}

impl QosGuard {
    /// The guard predicate: whether `violations` over-capacity samples
    /// out of `period_samples` exceed the configured ratio.
    pub fn exceeded(&self, violations: usize, period_samples: usize) -> bool {
        period_samples > 0 && violations as f64 / period_samples as f64 > self.violation_ratio
    }
}

/// Closed-loop tuning of the fragmentation slack.
///
/// A static `slack` trades energy against migration churn blindly: the
/// hybrid schedule of the adaptive experiment pays ~500 migrations for
/// its energy win. `SlackController` instead walks the slack between
/// bounds from what the trigger *actually realizes*:
///
/// * **Raise on expensive re-packs** — a fired re-pack reports the
///   servers it freed (the energy delta — every freed server stops
///   burning idle watts) against the migrations it paid. Freeing fewer
///   than one server per 1/[`SlackController::RAISE_BELOW`] migrations
///   raises the slack, making re-packs rarer; freeing at least one per
///   1/[`SlackController::LOWER_AT`] migrations lowers it again.
/// * **Decay on persistent misses** — an armed check that finds real
///   fragmentation (a gap at or above the configured floor) but below
///   the raised slack is a *missed consolidation*.
///   [`SlackController::MISS_STREAK`] consecutive misses walk the
///   slack back down one step. Without this decay the slack would
///   ratchet: once raised, re-packs stop firing, so nothing would
///   ever feed back that consolidation has become cheap again (e.g.
///   the nearly-drained end of a departure-heavy day, where each
///   re-pack frees a server for a handful of migrations).
///
/// The in-effect value streams on every
/// [`RepackEvent::slack_after`](crate::RepackEvent::slack_after).
///
/// ```
/// use cavm_sim::SlackController;
///
/// let mut ctl = SlackController::new(1, 3);
/// assert_eq!(ctl.current(), 1);
/// // 1 server freed for 8 migrations: too little per migration.
/// ctl.observe(1, 8);
/// assert_eq!(ctl.current(), 2);
/// // Two armed checks in a row find a 1-server gap the raised slack
/// // ignores: consolidation opportunities are going begging.
/// ctl.observe_miss(1);
/// ctl.observe_miss(1);
/// assert_eq!(ctl.current(), 1);
/// // 2 servers freed for 3 migrations: cheap — but never below the
/// // configured floor.
/// ctl.observe(2, 3);
/// assert_eq!(ctl.current(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlackController {
    min: u32,
    max: u32,
    current: u32,
    misses: u32,
}

impl SlackController {
    /// Below this servers-freed-per-migration gain the slack is raised.
    pub const RAISE_BELOW: f64 = 0.25;
    /// At or above this servers-freed-per-migration gain the slack is
    /// lowered again.
    pub const LOWER_AT: f64 = 0.5;
    /// Consecutive armed-but-sub-slack fragmentation observations
    /// before the slack decays one step.
    pub const MISS_STREAK: u32 = 2;

    /// A controller starting (and bounded below) at `initial`, bounded
    /// above by `max` (clamped up to `initial` if smaller). Equal
    /// bounds reproduce the static-slack behaviour exactly.
    pub fn new(initial: u32, max: u32) -> Self {
        Self {
            min: initial,
            max: max.max(initial),
            current: initial,
            misses: 0,
        }
    }

    /// The slack currently in effect.
    pub fn current(&self) -> u32 {
        self.current
    }

    /// The `(min, max)` bounds the slack walks between.
    pub fn bounds(&self) -> (u32, u32) {
        (self.min, self.max)
    }

    /// Whether the bounds actually leave room to adapt.
    pub fn is_adaptive(&self) -> bool {
        self.min != self.max
    }

    /// Feeds back one fired re-pack's realized outcome; a re-pack with
    /// no migrations carries no cost signal and leaves the slack —
    /// *and* an in-progress [`SlackController::MISS_STREAK`] — fully
    /// unchanged: only a priced observation resets the decay streak.
    pub fn observe(&mut self, servers_freed: usize, migrations: usize) {
        if migrations == 0 {
            return;
        }
        self.misses = 0;
        let gain = servers_freed as f64 / migrations as f64;
        if gain < Self::RAISE_BELOW {
            self.current = (self.current + 1).min(self.max);
        } else if gain >= Self::LOWER_AT {
            self.current = self.current.saturating_sub(1).max(self.min);
        }
    }

    /// Feeds back an armed check that did *not* fire because the
    /// observed `gap` (active servers minus the Eqn (3) bound) sat
    /// below the raised slack. Gaps at or above the configured floor
    /// count toward the decay streak; smaller gaps mean the fleet
    /// really is compact and reset it.
    pub fn observe_miss(&mut self, gap: usize) {
        if self.current > self.min && gap >= self.min as usize {
            self.misses += 1;
            if self.misses >= Self::MISS_STREAK {
                self.misses = 0;
                self.current -= 1;
            }
        } else {
            self.misses = 0;
        }
    }
}

/// Deliberate correlation-gap overcommit, threaded through
/// [`ControllerConfig::overcommit`](super::ControllerConfig::overcommit) /
/// `ScenarioBuilder::overcommit`.
///
/// With a margin in effect, incremental admission and the batch re-pack
/// both accept servers whose *predicted per-VM sum* runs up to
/// `capacity × (1 + margin)` — but only when the Eqn (2) pairwise cost
/// says the candidate's peaks anti-align with the residents, i.e. the
/// Eqn (1) coincident-aggregate estimate (`predicted sum / cost`) still
/// lands within plain capacity
/// ([`OpenServer::admits`](cavm_core::alloc::OpenServer::admits)).
/// The configured [`QosGuard`] stays armed as the reactive backstop,
/// and an [`OvercommitController`] walks the live margin per fleet
/// class from the observed per-period violation ratios. Degraded mode
/// (failed servers or a non-empty deferred queue) suspends the margin
/// outright.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OvercommitConfig {
    /// Starting (and post-breach re-growable) margin as a fraction of
    /// capacity; must lie in `[0, max_margin]`.
    pub margin: f64,
    /// Hard ceiling the adaptive margin never exceeds; must lie in
    /// `(0, 1]`.
    pub max_margin: f64,
}

/// Closed-loop tuning of the deliberate-overcommit margin — the same
/// walk/decay machinery as [`SlackController`], driven by the observed
/// per-period violation ratio instead of migration cost.
///
/// Each completed period feeds
/// [`OvercommitController::observe_period`] the class's worst
/// per-server violation ratio against the guard threshold:
///
/// * **Shrink on breach** — a period whose worst ratio exceeded the
///   guard's threshold means the correlation-gap bet failed; the
///   margin steps down [`OvercommitController::STEP`] immediately
///   (never below zero — the guard's own trim handles the standing
///   placement).
/// * **Grow on sustained headroom** —
///   [`OvercommitController::RAISE_STREAK`] consecutive periods whose
///   worst ratio stayed at or below *half* the guard threshold grow
///   the margin one step, up to the configured ceiling. A ratio
///   between the two bands holds the margin (and resets the streak):
///   QoS is acceptable but not comfortable.
///
/// ```
/// use cavm_sim::OvercommitController;
///
/// let mut ctl = OvercommitController::new(0.10, 0.25);
/// assert_eq!(ctl.current(), 0.10);
/// // A breached period shrinks the margin immediately.
/// ctl.observe_period(0.08, 0.05);
/// assert!(ctl.current() < 0.10);
/// // Two comfortable periods in a row grow it back one step.
/// ctl.observe_period(0.0, 0.05);
/// ctl.observe_period(0.01, 0.05);
/// assert_eq!(ctl.current(), 0.10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OvercommitController {
    max: f64,
    current: f64,
    hits: u32,
}

impl OvercommitController {
    /// Margin step per adaptation, as a fraction of capacity.
    pub const STEP: f64 = 0.05;
    /// Consecutive comfortable periods (worst ratio ≤ half the guard
    /// threshold) before the margin grows one step.
    pub const RAISE_STREAK: u32 = 2;

    /// A controller starting at `initial`, ceilinged at `max` (clamped
    /// up to `initial` if smaller).
    pub fn new(initial: f64, max: f64) -> Self {
        Self {
            max: max.max(initial),
            current: initial,
            hits: 0,
        }
    }

    /// The margin currently in effect.
    pub fn current(&self) -> f64 {
        self.current
    }

    /// The ceiling the margin grows toward.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Feeds back one completed period: the class's worst per-server
    /// violation ratio against the guard's threshold.
    pub fn observe_period(&mut self, worst_ratio: f64, guard_ratio: f64) {
        if worst_ratio > guard_ratio {
            self.hits = 0;
            self.current = (self.current - Self::STEP).max(0.0);
        } else if worst_ratio <= guard_ratio * 0.5 {
            self.hits += 1;
            if self.hits >= Self::RAISE_STREAK {
                self.hits = 0;
                self.current = (self.current + Self::STEP).min(self.max);
            }
        } else {
            self.hits = 0;
        }
    }
}

impl DatacenterController {
    /// Worst per-server over-capacity sample count accumulated in the
    /// running period, among servers the guard could act on (at least
    /// two members — a lone tenant exceeding its own capacity cannot
    /// be helped by any placement move, so it never arms the guard's
    /// predicate; its violations still reach the period record). Live
    /// counters only: counters a previous off-cycle re-pack discarded
    /// contribute to the period *record* through its folded floor, not
    /// here. This is the count the [`QosGuard`] predicate divides by
    /// the period length.
    pub fn period_worst_violations(&self) -> usize {
        self.server_violations
            .iter()
            .enumerate()
            .filter(|&(s, _)| {
                self.placement
                    .servers()
                    .get(s)
                    .is_some_and(|m| m.len() >= 2)
            })
            .map(|(_, &v)| v)
            .max()
            .unwrap_or(0)
    }

    /// [`DatacenterController::period_worst_violations`] as a ratio of
    /// the period length — the quantity a [`QosGuard`] thresholds.
    pub fn period_violation_ratio(&self) -> f64 {
        self.period_worst_violations() as f64 / self.cfg.period_samples as f64
    }

    /// The fragmentation slack currently in effect — adapted by the
    /// [`SlackController`] when
    /// [`ControllerConfig::adaptive_slack_max`](super::ControllerConfig::adaptive_slack_max)
    /// is set, else the trigger's static value. `None` under
    /// [`RepackTrigger::Periodic`].
    pub fn current_slack(&self) -> Option<u32> {
        self.slack_ctl.map(|c| c.current())
    }

    /// The deliberate-overcommit margins currently in effect, one per
    /// fleet class — walked by the per-class [`OvercommitController`]s
    /// from observed violation ratios. `None` without
    /// [`ControllerConfig::overcommit`](super::ControllerConfig::overcommit).
    /// Degraded mode and per-slot trim holds suspend the margins *in
    /// use* without changing these controller values.
    pub fn overcommit_margins(&self) -> Option<Vec<f64>> {
        self.overcommit_ctl
            .as_ref()
            .map(|ctls| ctls.iter().map(|c| c.current()).collect())
    }

    /// Whether server `s` is under a boundary-trim revocation hold: an
    /// evidence-backed trim denies the slot further deliberate
    /// overcommit through the following period, breaking the
    /// admit-then-trim ping-pong.
    pub fn overcommit_held(&self, s: usize) -> bool {
        self.overcommit_hold.get(s).copied().unwrap_or(0) > self.period
    }

    /// The deliberate-overcommit margin in effect for server `s` right
    /// now: zero when overcommit is unconfigured, suspended by
    /// degraded mode, or revoked for this slot by a boundary trim.
    pub(super) fn margin_of(&self, s: usize) -> f64 {
        if self.degraded() || self.overcommit_held(s) {
            return 0.0;
        }
        match (&self.overcommit_ctl, self.classes_of.get(s)) {
            (Some(ctls), Some(&class)) => ctls[class].current(),
            _ => 0.0,
        }
    }

    /// The per-class margin vector the batch re-pack packs with: the
    /// live controller values, or all zeros when overcommit is off or
    /// the controller is degraded (a full re-pack renumbers slots, so
    /// per-slot holds do not apply here).
    pub(super) fn batch_margins(&self) -> Vec<f64> {
        let n = self.cfg.server_fleet.len();
        if self.degraded() {
            return vec![0.0; n];
        }
        self.overcommit_margins().unwrap_or_else(|| vec![0.0; n])
    }

    /// The live Eqn (3) lower bound: the fill-order server count
    /// [`ServerFleet::estimate_server_count`] needs for the placed
    /// VMs' predicted demand. The fragmentation predicate compares
    /// this against [`Placement::active_server_count`].
    ///
    /// [`ServerFleet::estimate_server_count`]: cavm_core::fleet::ServerFleet::estimate_server_count
    /// [`Placement::active_server_count`]: cavm_core::alloc::Placement::active_server_count
    pub fn fragmentation_estimate(&self) -> usize {
        let total: f64 = self
            .placement
            .servers()
            .iter()
            .flatten()
            .map(|&id| self.dense_vms[id].demand)
            .sum();
        self.cfg.server_fleet.estimate_server_count(total)
    }

    /// Evaluates an armed fragmentation check: fires the off-cycle
    /// re-pack when the active count sits at least the current slack
    /// above the Eqn (3) bound, else lets the [`SlackController`] see
    /// the missed consolidation so a raised slack can decay. While
    /// degraded, consolidation into the shrunken fleet is suspended:
    /// the armed flag is *kept* so the check runs once capacity is
    /// whole again.
    pub(super) fn maybe_fragmentation_repack(
        &mut self,
        sink: &mut dyn MetricSink,
    ) -> crate::Result<()> {
        if !self.repack_armed || self.degraded() {
            return Ok(());
        }
        self.repack_armed = false;
        let estimate = self.fragmentation_estimate();
        let active = self.placement.active_server_count();
        let gap = active.saturating_sub(estimate);
        if self.current_slack().is_some_and(|s| gap >= s as usize) {
            self.midperiod_repack(RepackReason::Fragmentation { estimate, active }, sink)?;
        } else if let Some(ctl) = self.slack_ctl.as_mut() {
            ctl.observe_miss(gap);
        }
        Ok(())
    }

    /// Evaluates an armed [`QosGuard`]: when the running period's
    /// observed worst per-server violation ratio exceeds the
    /// threshold, fire the off-cycle QoS re-pack
    /// ([`RepackReason::QosGuard`]). Returns whether one fired.
    ///
    /// The re-pack is deliberately *surgical*: only servers whose own
    /// ratio breached the threshold are touched, and each loses
    /// exactly its **hotspot member** — the one with the largest peak
    /// observed this period — which is relocated onto another server
    /// through the policy's single-VM rule (origin excluded; the
    /// correlation-aware rule lands it with anti-correlated tenants).
    /// The move uses the *standing* predictions, so quiet servers keep
    /// their packing and a sub-threshold overcommitted fleet stays
    /// consolidated: a full honest re-pack here would convert every
    /// server to worst-case provisioning and forfeit exactly the
    /// correlation-gap energy win the placement-keeping schedule
    /// exists to hold on to. If violations persist, the ratio
    /// re-crosses the threshold one heal-interval later and the next
    /// hotspot moves — gradual, self-limiting redistribution, with the
    /// boundary capacity check as the stronger periodic backstop.
    pub(super) fn maybe_qos_repack(&mut self, sink: &mut dyn MetricSink) -> crate::Result<bool> {
        if !self.qos_armed {
            return Ok(false);
        }
        self.qos_armed = false;
        let Some(guard) = self.cfg.qos_guard else {
            return Ok(false);
        };
        let worst = self.period_worst_violations();
        if !guard.exceeded(worst, self.cfg.period_samples) || self.live_vms() == 0 {
            return Ok(false);
        }

        let servers_before = self.placement.active_server_count();
        let mut displaced = Vec::new();
        for s in 0..self.placement.server_count() {
            let violations = self.server_violations[s];
            let members = &self.placement.servers()[s];
            // A lone member would be alone wherever it goes — moving
            // it buys nothing, so lone-tenant breaches neither fire
            // nor reset (they are excluded from the predicate above).
            if members.len() < 2 || !guard.exceeded(violations, self.cfg.period_samples) {
                continue;
            }
            // The hotspot: the member with the largest reference peak
            // actually observed this period.
            let mut hotspot = members[0];
            let mut hotspot_peak = f64::NEG_INFINITY;
            for &m in members {
                let peak = match self.window.get(m).filter(|w| !w.is_empty()) {
                    Some(win) => self.cfg.reference.of(win).map_err(SimError::Trace)?,
                    None => 0.0,
                };
                if peak > hotspot_peak {
                    hotspot_peak = peak;
                    hotspot = m;
                }
            }
            // The healed server's counter cannot carry on (its load is
            // about to change): fold its ratio into the period floor
            // so the record keeps the damage, and reset it so the
            // guard does not re-fire on stale evidence.
            let ratio = violations as f64 / self.cfg.period_samples as f64;
            self.period_ratio_floor = self.period_ratio_floor.max(ratio);
            self.server_violations[s] = 0;
            self.displace(hotspot)?;
            displaced.push((hotspot, s));
            self.rebuild_aggregate(s);
            self.replan_bin(s)?;
        }
        self.relocate(
            displaced,
            RepackReason::QosGuard { violations: worst },
            servers_before,
            false,
            sink,
        )?;
        self.offcycle_repacks += 1;
        Ok(true)
    }

    /// Overcommit margin feedback at the end of a period. Each class's
    /// controller walks on the worst violation ratio its servers
    /// produced this period, measured against the guard threshold.
    /// Degraded periods are skipped: failure-inflated violations say
    /// nothing about whether the correlation-gap bet was sound, and the
    /// margins are already suspended while degraded.
    pub(super) fn observe_overcommit_period(&mut self) {
        if self.degraded() {
            return;
        }
        let Some(ctls) = self.overcommit_ctl.as_mut() else {
            return;
        };
        let guard = self
            .cfg
            .qos_guard
            .expect("validate(): overcommit requires a qos guard")
            .violation_ratio;
        let mut worst = vec![self.period_ratio_floor; ctls.len()];
        for (s, &v) in self.server_violations.iter().enumerate() {
            let ratio = v as f64 / self.cfg.period_samples as f64;
            if let Some(&class) = self.classes_of.get(s) {
                if ratio > worst[class] {
                    worst[class] = ratio;
                }
            }
        }
        for (class, ctl) in ctls.iter_mut().enumerate() {
            ctl.observe_period(worst[class], guard);
        }
    }
}
