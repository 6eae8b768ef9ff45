//! Shadow calls of the traced run. After each period boundary they
//! re-issue the boundary's two heavy steps from the benchmark's own
//! copy of the inputs, so each can be timed on its own: the window
//! replay into a fresh cost matrix (`corr`) and the policy's batch
//! placement of the predicted VMs (`alloc`). They never touch the
//! controller and are left out of the replay's wall time.

use crate::gen::VmPlan;
use crate::probe::{Layer, Tracer};
use cavm_core::alloc::{
    AllocationPolicy, BfdPolicy, FfdPolicy, PcpPolicy, ProposedPolicy, SuperVmPolicy, VmDescriptor,
};
use cavm_core::corr::CostMatrix;
use cavm_core::fleet::ServerFleet;
use cavm_sim::{ControllerConfig, Policy};
use cavm_trace::TimeSeries;

/// Counters the shadow calls and the cell bookkeeping accumulate.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShadowStats {
    /// Pair × sample updates the window replays performed.
    pub pair_samples: f64,
    /// Boundaries observed by the cell bookkeeping.
    pub cell_boundaries: f64,
    /// Sum over those boundaries of the ids the cells' matrices span.
    pub cell_universe_ids: f64,
    /// Sum over those boundaries of live and of all matrix pairs.
    pub cell_live_pairs: f64,
    pub cell_universe_pairs: f64,
}

impl ShadowStats {
    pub fn add(&mut self, o: &ShadowStats) {
        self.pair_samples += o.pair_samples;
        self.cell_boundaries += o.cell_boundaries;
        self.cell_universe_ids += o.cell_universe_ids;
        self.cell_live_pairs += o.cell_live_pairs;
        self.cell_universe_pairs += o.cell_universe_pairs;
    }
}

fn pairs(n: usize) -> f64 {
    n as f64 * n.saturating_sub(1) as f64 / 2.0
}

/// One boundary of one controller: `ids[local]` is the benchmark's id
/// of the controller's VM `local`, in the controller's id order.
pub struct ShadowBoundary<'a> {
    pub cfg: &'a ControllerConfig,
    pub fleet: &'a ServerFleet,
    pub ids: &'a [usize],
    pub plans: &'a [VmPlan],
    /// The controller's predicted descriptors for the opened period.
    pub predicted: &'a [VmDescriptor],
    /// Sample at which the opened period starts.
    pub opened_at: usize,
    /// First sample and length of the period that just closed.
    pub closed: Option<(usize, usize)>,
}

impl ShadowBoundary<'_> {
    /// Runs the `corr` and `alloc` shadows and returns the counters.
    pub fn run(&self, tracer: &mut Tracer) -> ShadowStats {
        let mut stats = ShadowStats::default();
        let n = self.predicted.len().min(self.ids.len());
        if n == 0 {
            return stats;
        }
        let dt = self.cfg.sample_dt_s;
        let windows: Vec<TimeSeries> = match self.closed {
            Some((start, len)) => self.ids[..n]
                .iter()
                .map(|&id| {
                    let plan = &self.plans[id];
                    TimeSeries::new(
                        dt,
                        (start..start + len).map(|k| plan.demand_at(k)).collect(),
                    )
                    .expect("non-empty window")
                })
                .collect(),
            None => Vec::new(),
        };
        let refs: Vec<&TimeSeries> = windows.iter().collect();
        let mut matrix = CostMatrix::new(n, self.cfg.reference).expect("valid matrix size");
        if let Some((_, len)) = self.closed {
            tracer.span(Layer::CorrWindowReplay, || {
                matrix
                    .push_columns(&refs, 0, len)
                    .expect("window matches the matrix")
            });
            stats.pair_samples = pairs(n) * len as f64;
        }
        let live: Vec<VmDescriptor> = (0..n)
            .filter(|&local| self.plans[self.ids[local]].live_at(self.opened_at))
            .map(|local| self.predicted[local])
            .collect();
        if !live.is_empty() {
            // A placement the plain (margin-free) pass cannot fit is
            // still timed; its error is not the controller's.
            tracer.span(Layer::AllocPlace, || {
                let _ = place(self.cfg.policy, &live, &matrix, self.fleet, &refs);
            });
        }
        stats
    }
}

/// The policy's batch `place`, built the way the controller builds it.
fn place(
    policy: Policy,
    vms: &[VmDescriptor],
    matrix: &CostMatrix,
    fleet: &ServerFleet,
    windows: &[&TimeSeries],
) -> Result<(), cavm_core::CoreError> {
    match policy {
        Policy::Bfd => BfdPolicy.place(vms, matrix, fleet).map(drop),
        Policy::Ffd => FfdPolicy.place(vms, matrix, fleet).map(drop),
        Policy::Proposed(config) => ProposedPolicy::new(config)?
            .place(vms, matrix, fleet)
            .map(drop),
        Policy::SuperVm { min_pair_cost } => SuperVmPolicy::new(min_pair_cost)?
            .place(vms, matrix, fleet)
            .map(drop),
        Policy::Pcp {
            envelope_percentile,
            affinity_threshold,
        } => {
            if windows.is_empty() {
                // No history yet: the controller degenerates to BFD.
                return BfdPolicy.place(vms, matrix, fleet).map(drop);
            }
            PcpPolicy::from_traces(windows, envelope_percentile, affinity_threshold)?
                .place(vms, matrix, fleet)
                .map(drop)
        }
    }
}

/// Cell bookkeeping at one boundary: the ids each cell's matrix spans
/// against the live ones.
pub fn cell_universe(stats: &mut ShadowStats, universes: &[usize], live: &[usize]) {
    stats.cell_boundaries += 1.0;
    stats.cell_universe_ids += universes.iter().sum::<usize>() as f64;
    stats.cell_universe_pairs += universes.iter().map(|&u| pairs(u)).sum::<f64>();
    stats.cell_live_pairs += live.iter().map(|&l| pairs(l)).sum::<f64>();
}
