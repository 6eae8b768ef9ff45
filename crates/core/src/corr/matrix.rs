//! The all-pairs cost matrix `M_cost` (paper §IV-A) — struct-of-arrays
//! kernel.
//!
//! "Using our new Cost function, we can model correlations among all VMs
//! by constructing a 2-D matrix, namely M_cost, where the (i,j)-th
//! element corresponds to Cost_ij."
//!
//! # Storage layout
//!
//! The seed implementation (preserved as
//! [`baseline::PairwiseCostMatrix`](crate::corr::baseline::PairwiseCostMatrix))
//! kept one enum-dispatched [`CostMetric`](crate::corr::CostMetric) per
//! pair: three boxed-enum trackers and ~640 bytes of state per pair,
//! walked as an array of structs on every monitoring tick. This module
//! flattens that hot path:
//!
//! * **Per-VM reference trackers are stored once**, not once per pair.
//!   Every pair `(i, j)` needs û(VMi) and û(VMj); the seed paid for
//!   `n-1` redundant copies of each VM's tracker. Here they live in one
//!   length-`n` plane.
//! * **Per-pair sum trackers are contiguous flat planes** over the
//!   upper triangle (row-major, pair `(i, j)` with `i < j` at
//!   `i·(2n-i-1)/2 + (j-i-1)`):
//!   - under [`Reference::Peak`], a single `Vec<f64>` of running
//!     maxima — 8 bytes per pair, and the tick kernel is a flat
//!     `slot = max(slot, uᵢ + uⱼ)` sweep the compiler auto-vectorizes;
//!   - under [`Reference::Percentile`], a `Vec<P2Cell>` of compact
//!     64-byte P² marker cells driven by one shared [`P2Clock`] (the
//!     sample count and desired marker positions are identical across
//!     the bank, so they are hoisted out of the per-pair state).
//! * **Monomorphized update paths**: the `Peak` and `Percentile`
//!   kernels are separate loops selected once per call, instead of a
//!   per-sample `match` on every tracker of every pair.
//!
//! Updates remain O(1) per pair per tick — the paper's UPDATE-phase
//! argument (Fig 2, line 7) — but the constant is an order of magnitude
//! smaller and the fleet tick ([`CostMatrix::push_sample`]) touches
//! `n(n-1)/2 · 8` bytes instead of `· ~640`.
//!
//! Batch window replay ([`CostMatrix::push_columns`]) walks the
//! triangle *pair-major* instead of tick-major: each pair's slot is
//! updated over the whole window while it is hot in cache, instead of
//! re-touching the entire (possibly multi-megabyte) plane on every
//! tick.

use crate::corr::cost::combine_cost;
use crate::CoreError;
use cavm_trace::{P2Cell, P2Clock, Reference, TimeSeries};
use serde::{Deserialize, Serialize};

/// Upper-triangle row-major index of pair `(i, j)`, `i < j < n`.
#[inline]
fn pair_index(n: usize, i: usize, j: usize) -> usize {
    debug_assert!(i < j && j < n);
    i * (2 * n - i - 1) / 2 + (j - i - 1)
}

/// Monomorphized streaming storage behind the matrix.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum Storage {
    /// `Reference::Peak`: running maxima, one `f64` per VM / per pair.
    Peak {
        /// Per-VM running peak of `utils[v]` (length `n`).
        vm_peak: Vec<f64>,
        /// Per-pair running peak of `utils[i] + utils[j]` (triangle).
        pair_peak: Vec<f64>,
    },
    /// `Reference::Percentile(p)`: compact P² cells under one clock.
    Percentile {
        /// Shared tick counter and desired marker positions.
        clock: P2Clock,
        /// Per-VM P² estimator state (length `n`).
        vm_cells: Vec<P2Cell>,
        /// Per-pair P² estimator state over `utils[i] + utils[j]`.
        pair_cells: Vec<P2Cell>,
    },
}

impl Storage {
    fn new(n: usize, reference: Reference) -> crate::Result<Self> {
        let pairs = n * (n - 1) / 2;
        match reference {
            Reference::Peak => Ok(Storage::Peak {
                vm_peak: vec![f64::NEG_INFINITY; n],
                pair_peak: vec![f64::NEG_INFINITY; pairs],
            }),
            Reference::Percentile(p) => {
                if !(0.0..=100.0).contains(&p) || p == 0.0 || p == 100.0 {
                    return Err(CoreError::InvalidParameter(
                        "streaming percentile reference must lie in (0, 100)",
                    ));
                }
                Ok(Storage::Percentile {
                    clock: P2Clock::new(p / 100.0).map_err(CoreError::Trace)?,
                    vm_cells: vec![P2Cell::new(); n],
                    pair_cells: vec![P2Cell::new(); pairs],
                })
            }
        }
    }
}

/// Symmetric pairwise correlation-cost matrix over `n` VMs
/// (struct-of-arrays kernel; see the [module docs](self) for layout).
///
/// Diagonal entries are 1.0 by definition: a VM co-located with itself
/// gains nothing (`(û+û)/û(2·VM) = 1`).
///
/// # Example
///
/// ```
/// use cavm_core::corr::CostMatrix;
/// use cavm_trace::Reference;
///
/// # fn main() -> Result<(), cavm_core::CoreError> {
/// let mut m = CostMatrix::new(3, Reference::Peak)?;
/// m.push_sample(&[4.0, 0.0, 2.0])?;
/// m.push_sample(&[0.0, 4.0, 2.0])?;
/// // VM0 and VM1 peak apart: cost 2. Each against the flat VM2: 6/6 = 1.
/// assert_eq!(m.cost(0, 1), Some(2.0));
/// assert_eq!(m.cost(0, 0), Some(1.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostMatrix {
    n: usize,
    reference: Reference,
    samples: u64,
    storage: Storage,
    /// When set, pairwise values are fixed (ablation studies swap in
    /// foreign metrics, e.g. Pearson-derived scores) and the streaming
    /// storage is ignored.
    fixed: Option<Vec<f64>>,
}

impl CostMatrix {
    /// Creates an empty matrix over `n` VMs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when `n == 0` or the
    /// reference percentile is out of range.
    pub fn new(n: usize, reference: Reference) -> crate::Result<Self> {
        if n == 0 {
            return Err(CoreError::InvalidParameter(
                "cost matrix needs at least one vm",
            ));
        }
        Ok(Self {
            n,
            reference,
            samples: 0,
            storage: Storage::new(n, reference)?,
            fixed: None,
        })
    }

    /// Builds a matrix with *fixed* pairwise costs — `costs` is the
    /// upper triangle, row-major (`(0,1), (0,2), ..., (1,2), ...`).
    /// Used by ablation studies to drive the allocator with a foreign
    /// correlation measure (e.g. Pearson mapped into `[1, 2]`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when `n == 0` or the
    /// triangle length is wrong.
    pub fn from_costs(n: usize, costs: Vec<f64>) -> crate::Result<Self> {
        if n == 0 {
            return Err(CoreError::InvalidParameter(
                "cost matrix needs at least one vm",
            ));
        }
        if costs.len() != n * (n - 1) / 2 {
            return Err(CoreError::InvalidParameter(
                "fixed cost triangle has the wrong length",
            ));
        }
        let mut matrix = Self::new(n, Reference::Peak)?;
        matrix.fixed = Some(costs);
        Ok(matrix)
    }

    /// Builds a matrix from complete traces in one pass (batch exact
    /// percentiles for the pair sums are approximated by the same
    /// streaming estimators the online path uses, keeping semantics
    /// identical between offline and online use).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an empty trace set
    /// and trace errors for length mismatches.
    pub fn from_traces(traces: &[&TimeSeries], reference: Reference) -> crate::Result<Self> {
        if traces.is_empty() {
            return Err(CoreError::InvalidParameter(
                "cost matrix needs at least one vm",
            ));
        }
        let mut matrix = Self::new(traces.len(), reference)?;
        matrix.push_columns(traces, 0, traces[0].len())?;
        Ok(matrix)
    }

    /// Number of VMs tracked.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `false` by construction; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of unordered VM pairs tracked (`n(n-1)/2`).
    pub fn pair_count(&self) -> usize {
        self.n * (self.n - 1) / 2
    }

    /// The reference utilization the matrix tracks.
    pub fn reference(&self) -> Reference {
        self.reference
    }

    fn check_width(&self, got: usize) -> crate::Result<()> {
        if got != self.n {
            return Err(CoreError::SampleCountMismatch {
                got,
                expected: self.n,
            });
        }
        Ok(())
    }

    /// Feeds one monitoring tick: `utils[v]` is VM `v`'s utilization at
    /// this instant. Cost: `O(n²)` flat constant-time updates.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::SampleCountMismatch`] when `utils.len() != n`.
    pub fn push_sample(&mut self, utils: &[f64]) -> crate::Result<()> {
        self.check_width(utils.len())?;
        let n = self.n;
        match &mut self.storage {
            Storage::Peak { vm_peak, pair_peak } => {
                peak_tick_rows(n, 0, n.saturating_sub(1), utils, pair_peak);
                for (slot, &u) in vm_peak.iter_mut().zip(utils) {
                    *slot = slot.max(u);
                }
            }
            Storage::Percentile {
                clock,
                vm_cells,
                pair_cells,
            } => {
                clock.tick();
                for (cell, &u) in vm_cells.iter_mut().zip(utils) {
                    cell.push(u, clock);
                }
                p2_tick_rows(n, 0, n.saturating_sub(1), utils, pair_cells, clock);
            }
        }
        self.samples += 1;
        Ok(())
    }

    /// Replays a half-open window `[start, end)` of trace columns into
    /// the matrix — the batch form of [`Self::push_sample`], equivalent
    /// to pushing `end - start` individual ticks but walked pair-major
    /// so each pair's state stays cache-resident across the window.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::SampleCountMismatch`] when
    /// `traces.len() != n`, a trace length mismatch when the traces
    /// disagree, and [`CoreError::InvalidParameter`] when the window is
    /// out of range.
    pub fn push_columns(
        &mut self,
        traces: &[&TimeSeries],
        start: usize,
        end: usize,
    ) -> crate::Result<()> {
        self.validate_columns(traces, start, end)?;
        let n = self.n;
        let ticks = (end - start) as u64;
        match &mut self.storage {
            Storage::Peak { vm_peak, pair_peak } => {
                for (slot, t) in vm_peak.iter_mut().zip(traces) {
                    for &u in &t.values()[start..end] {
                        *slot = slot.max(u);
                    }
                }
                peak_window_rows(n, 0, n.saturating_sub(1), traces, start, end, pair_peak);
            }
            Storage::Percentile {
                clock,
                vm_cells,
                pair_cells,
            } => {
                let snapshot = clock.clone();
                for (cell, t) in vm_cells.iter_mut().zip(traces) {
                    let mut local = snapshot.clone();
                    for &u in &t.values()[start..end] {
                        local.tick();
                        cell.push(u, &local);
                    }
                }
                p2_window_rows(
                    n,
                    0,
                    n.saturating_sub(1),
                    traces,
                    start,
                    end,
                    pair_cells,
                    &snapshot,
                );
                for _ in start..end {
                    clock.tick();
                }
            }
        }
        self.samples += ticks;
        Ok(())
    }

    fn validate_columns(
        &self,
        traces: &[&TimeSeries],
        start: usize,
        end: usize,
    ) -> crate::Result<()> {
        self.check_width(traces.len())?;
        let len = traces[0].len();
        for t in traces {
            if t.len() != len {
                return Err(CoreError::Trace(cavm_trace::TraceError::LengthMismatch {
                    left: len,
                    right: t.len(),
                }));
            }
        }
        if start > end || end > len {
            return Err(CoreError::InvalidParameter("column window out of range"));
        }
        Ok(())
    }

    /// The cost of pair `(i, j)`, or `None` before any sample (and
    /// `Some(1.0)` on the diagonal).
    ///
    /// # Panics
    ///
    /// Panics when `i` or `j` is out of range — matrix indices are
    /// program-internal, not user input.
    pub fn cost(&self, i: usize, j: usize) -> Option<f64> {
        assert!(
            i < self.n && j < self.n,
            "pair ({i},{j}) outside {}-vm matrix",
            self.n
        );
        if i == j {
            return Some(1.0);
        }
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        let idx = pair_index(self.n, lo, hi);
        if let Some(values) = &self.fixed {
            return Some(values[idx]);
        }
        if self.samples == 0 {
            return None;
        }
        match &self.storage {
            Storage::Peak { vm_peak, pair_peak } => {
                Some(combine_cost(vm_peak[lo], vm_peak[hi], pair_peak[idx]))
            }
            Storage::Percentile {
                clock,
                vm_cells,
                pair_cells,
            } => {
                let a = vm_cells[lo].estimate(clock)?;
                let b = vm_cells[hi].estimate(clock)?;
                let sum = pair_cells[idx].estimate(clock)?;
                Some(combine_cost(a, b, sum))
            }
        }
    }

    /// The cost of pair `(i, j)`, defaulting to the *neutral* midpoint
    /// 1.5 when no samples have been observed yet (first placement
    /// period). With a constant default, all unknown pairs compare
    /// equal and the proposed allocator degrades gracefully to
    /// first-fit-decreasing.
    ///
    /// Unlike [`CostMatrix::cost`], ids beyond the matrix are also
    /// neutral instead of a panic: the online admission path scores VMs
    /// that arrived *after* the period matrix was built, and such VMs
    /// have no observed pairs by definition.
    pub fn cost_or_neutral(&self, i: usize, j: usize) -> f64 {
        if i >= self.n || j >= self.n {
            return 1.5;
        }
        self.cost(i, j).unwrap_or(1.5)
    }

    /// Number of sample ticks observed (0 for a fresh matrix).
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Forgets all samples (keeps dimensions and reference) — used by
    /// per-period windowed tracking.
    pub fn reset(&mut self) {
        self.samples = 0;
        match &mut self.storage {
            Storage::Peak { vm_peak, pair_peak } => {
                vm_peak.fill(f64::NEG_INFINITY);
                pair_peak.fill(f64::NEG_INFINITY);
            }
            Storage::Percentile {
                clock,
                vm_cells,
                pair_cells,
            } => {
                clock.reset();
                vm_cells.iter_mut().for_each(P2Cell::reset);
                pair_cells.iter_mut().for_each(P2Cell::reset);
            }
        }
    }

    /// Dense symmetric snapshot of the matrix with `default` for
    /// not-yet-observed pairs; diagonal 1.0. Row-major `n×n`.
    pub fn to_dense(&self, default: f64) -> Vec<Vec<f64>> {
        (0..self.n)
            .map(|i| {
                (0..self.n)
                    .map(|j| {
                        if i == j {
                            1.0
                        } else {
                            self.cost(i, j).unwrap_or(default)
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

/// One tick of the Peak kernel over rows `[row_start, row_end)`.
/// `plane` is the sub-slice of the pair plane covering exactly those
/// rows.
fn peak_tick_rows(n: usize, row_start: usize, row_end: usize, utils: &[f64], plane: &mut [f64]) {
    let mut offset = 0;
    for i in row_start..row_end {
        let ui = utils[i];
        let row_len = n - i - 1;
        let row = &mut plane[offset..offset + row_len];
        for (slot, &uj) in row.iter_mut().zip(&utils[i + 1..]) {
            *slot = slot.max(ui + uj);
        }
        offset += row_len;
    }
}

/// One tick of the P² kernel over rows `[row_start, row_end)`.
fn p2_tick_rows(
    n: usize,
    row_start: usize,
    row_end: usize,
    utils: &[f64],
    plane: &mut [P2Cell],
    clock: &P2Clock,
) {
    let mut offset = 0;
    for i in row_start..row_end {
        let ui = utils[i];
        let row_len = n - i - 1;
        let row = &mut plane[offset..offset + row_len];
        for (cell, &uj) in row.iter_mut().zip(&utils[i + 1..]) {
            cell.push(ui + uj, clock);
        }
        offset += row_len;
    }
}

/// Pair-major window replay of the Peak kernel over rows
/// `[row_start, row_end)`.
fn peak_window_rows(
    n: usize,
    row_start: usize,
    row_end: usize,
    traces: &[&TimeSeries],
    start: usize,
    end: usize,
    plane: &mut [f64],
) {
    let mut offset = 0;
    for i in row_start..row_end {
        let xs = &traces[i].values()[start..end];
        let row_len = n - i - 1;
        let row = &mut plane[offset..offset + row_len];
        for (slot, t) in row.iter_mut().zip(&traces[i + 1..]) {
            let ys = &t.values()[start..end];
            let mut peak = *slot;
            for (&x, &y) in xs.iter().zip(ys) {
                peak = peak.max(x + y);
            }
            *slot = peak;
        }
        offset += row_len;
    }
}

/// Pair-major window replay of the P² kernel over rows
/// `[row_start, row_end)`. `snapshot` is the clock state *before* the
/// window; each pair replays its own local copy so marker positions
/// advance exactly as in the tick-by-tick path.
#[allow(clippy::too_many_arguments)]
fn p2_window_rows(
    n: usize,
    row_start: usize,
    row_end: usize,
    traces: &[&TimeSeries],
    start: usize,
    end: usize,
    plane: &mut [P2Cell],
    snapshot: &P2Clock,
) {
    let mut offset = 0;
    for i in row_start..row_end {
        let xs = &traces[i].values()[start..end];
        let row_len = n - i - 1;
        let row = &mut plane[offset..offset + row_len];
        for (cell, t) in row.iter_mut().zip(&traces[i + 1..]) {
            let ys = &t.values()[start..end];
            let mut local = snapshot.clone();
            for (&x, &y) in xs.iter().zip(ys) {
                local.tick();
                cell.push(x + y, &local);
            }
        }
        offset += row_len;
    }
}

/// Batch-exact pairwise cost of two utilization *slices* (helper for
/// tests and experiments that already hold raw samples).
///
/// # Errors
///
/// Returns trace errors for empty or mismatched slices.
pub fn cost_of_slices(a: &[f64], b: &[f64], reference: Reference) -> crate::Result<f64> {
    if a.len() != b.len() {
        return Err(CoreError::Trace(cavm_trace::TraceError::LengthMismatch {
            left: a.len(),
            right: b.len(),
        }));
    }
    let u_a = reference.of(a)?;
    let u_b = reference.of(b)?;
    let sum: Vec<f64> = a.iter().zip(b).map(|(x, y)| x + y).collect();
    let u_sum = reference.of(&sum)?;
    Ok(combine_cost(u_a, u_b, u_sum))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(CostMatrix::new(0, Reference::Peak).is_err());
        assert!(CostMatrix::new(3, Reference::Percentile(0.0)).is_err());
        assert!(CostMatrix::new(1, Reference::Peak).is_ok());
        assert!(CostMatrix::from_traces(&[], Reference::Peak).is_err());
    }

    #[test]
    fn pair_indexing_covers_triangle_uniquely() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..6 {
            for j in (i + 1)..6 {
                assert!(seen.insert(pair_index(6, i, j)));
            }
        }
        assert_eq!(seen.len(), 15);
        assert_eq!(*seen.iter().max().unwrap(), 14);
    }

    #[test]
    fn symmetric_and_diagonal() {
        let mut m = CostMatrix::new(3, Reference::Peak).unwrap();
        m.push_sample(&[1.0, 3.0, 2.0]).unwrap();
        m.push_sample(&[3.0, 1.0, 2.0]).unwrap();
        for i in 0..3 {
            assert_eq!(m.cost(i, i), Some(1.0));
            for j in 0..3 {
                assert_eq!(m.cost(i, j), m.cost(j, i));
            }
        }
    }

    #[test]
    fn push_sample_validates_width() {
        let mut m = CostMatrix::new(3, Reference::Peak).unwrap();
        assert!(matches!(
            m.push_sample(&[1.0, 2.0]),
            Err(CoreError::SampleCountMismatch {
                got: 2,
                expected: 3
            })
        ));
    }

    #[test]
    fn from_traces_matches_manual_pushes() {
        let a = TimeSeries::new(1.0, vec![4.0, 0.0, 2.0, 1.0]).unwrap();
        let b = TimeSeries::new(1.0, vec![0.0, 4.0, 2.0, 1.0]).unwrap();
        let c = TimeSeries::new(1.0, vec![1.0, 1.0, 1.0, 4.0]).unwrap();
        let batch = CostMatrix::from_traces(&[&a, &b, &c], Reference::Peak).unwrap();
        let mut manual = CostMatrix::new(3, Reference::Peak).unwrap();
        for k in 0..4 {
            manual
                .push_sample(&[a.values()[k], b.values()[k], c.values()[k]])
                .unwrap();
        }
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(batch.cost(i, j), manual.cost(i, j));
            }
        }
        assert_eq!(batch.samples(), 4);
    }

    #[test]
    fn push_columns_matches_ticks_for_percentile() {
        let mut rng = cavm_trace::SimRng::new(11);
        let traces: Vec<TimeSeries> = (0..5)
            .map(|_| TimeSeries::new(1.0, (0..200).map(|_| rng.f64() * 4.0).collect()).unwrap())
            .collect();
        let refs: Vec<&TimeSeries> = traces.iter().collect();
        let mut batch = CostMatrix::new(5, Reference::Percentile(95.0)).unwrap();
        // Two windows back to back must equal one tick-by-tick replay.
        batch.push_columns(&refs, 0, 80).unwrap();
        batch.push_columns(&refs, 80, 200).unwrap();
        let mut manual = CostMatrix::new(5, Reference::Percentile(95.0)).unwrap();
        let mut buf = vec![0.0; 5];
        for k in 0..200 {
            for (v, t) in refs.iter().enumerate() {
                buf[v] = t.values()[k];
            }
            manual.push_sample(&buf).unwrap();
        }
        for i in 0..5 {
            for j in 0..5 {
                let (a, b) = (batch.cost(i, j).unwrap(), manual.cost(i, j).unwrap());
                assert_eq!(a.to_bits(), b.to_bits(), "pair ({i},{j})");
            }
        }
        assert_eq!(batch.samples(), manual.samples());
    }

    #[test]
    fn push_columns_validates_window() {
        let a = TimeSeries::new(1.0, vec![1.0, 2.0]).unwrap();
        let b = TimeSeries::new(1.0, vec![3.0, 4.0]).unwrap();
        let mut m = CostMatrix::new(2, Reference::Peak).unwrap();
        assert!(m.push_columns(&[&a, &b], 0, 3).is_err());
        assert!(m.push_columns(&[&a, &b], 2, 1).is_err());
        assert!(m.push_columns(&[&a], 0, 1).is_err());
        m.push_columns(&[&a, &b], 0, 0).unwrap();
        assert_eq!(m.samples(), 0);
    }

    #[test]
    fn from_traces_rejects_mismatched_lengths() {
        let a = TimeSeries::new(1.0, vec![1.0, 2.0]).unwrap();
        let b = TimeSeries::new(1.0, vec![1.0]).unwrap();
        assert!(CostMatrix::from_traces(&[&a, &b], Reference::Peak).is_err());
    }

    #[test]
    fn neutral_default_before_samples() {
        let m = CostMatrix::new(2, Reference::Peak).unwrap();
        assert_eq!(m.cost(0, 1), None);
        assert_eq!(m.cost_or_neutral(0, 1), 1.5);
        assert_eq!(m.samples(), 0);
    }

    #[test]
    fn neutral_for_ids_beyond_the_matrix() {
        // Online admissions score VMs that postdate the period matrix.
        let mut m = CostMatrix::new(2, Reference::Peak).unwrap();
        m.push_sample(&[3.0, 1.0]).unwrap();
        assert_eq!(m.cost_or_neutral(0, 7), 1.5);
        assert_eq!(m.cost_or_neutral(9, 1), 1.5);
        assert!(m.cost_or_neutral(0, 1) != 1.5 || m.samples() == 0);
    }

    #[test]
    fn reset_forgets_samples() {
        for reference in [Reference::Peak, Reference::Percentile(90.0)] {
            let mut m = CostMatrix::new(2, reference).unwrap();
            m.push_sample(&[1.0, 2.0]).unwrap();
            assert_eq!(m.samples(), 1);
            m.reset();
            assert_eq!(m.samples(), 0);
            assert_eq!(m.cost(0, 1), None);
            assert_eq!(m.len(), 2);
            assert!(!m.is_empty());
            assert_eq!(m.pair_count(), 1);
            assert_eq!(m.reference(), reference);
        }
    }

    #[test]
    fn dense_snapshot() {
        let mut m = CostMatrix::new(2, Reference::Peak).unwrap();
        m.push_sample(&[3.0, 0.0]).unwrap();
        m.push_sample(&[0.0, 3.0]).unwrap();
        let d = m.to_dense(1.5);
        assert_eq!(d[0][0], 1.0);
        assert_eq!(d[1][1], 1.0);
        assert_eq!(d[0][1], 2.0);
        assert_eq!(d[0][1], d[1][0]);
    }

    #[test]
    fn cost_of_slices_agrees_with_trace_path() {
        let xs = [4.0, 0.0, 2.0];
        let ys = [0.0, 4.0, 2.0];
        let via_slices = cost_of_slices(&xs, &ys, Reference::Peak).unwrap();
        let a = TimeSeries::new(1.0, xs.to_vec()).unwrap();
        let b = TimeSeries::new(1.0, ys.to_vec()).unwrap();
        let via_traces = crate::corr::cost_of_traces(&a, &b, Reference::Peak).unwrap();
        assert_eq!(via_slices, via_traces);
        assert!(cost_of_slices(&xs, &ys[..2], Reference::Peak).is_err());
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_pair_panics() {
        let m = CostMatrix::new(2, Reference::Peak).unwrap();
        let _ = m.cost(0, 5);
    }

    #[test]
    fn fixed_cost_matrix_overrides_streaming() {
        // Triangle for n=3: (0,1), (0,2), (1,2).
        let m = CostMatrix::from_costs(3, vec![1.1, 1.9, 1.5]).unwrap();
        assert_eq!(m.cost(0, 1), Some(1.1));
        assert_eq!(m.cost(2, 0), Some(1.9));
        assert_eq!(m.cost(1, 2), Some(1.5));
        assert_eq!(m.cost(1, 1), Some(1.0));
        assert!(CostMatrix::from_costs(3, vec![1.0]).is_err());
        assert!(CostMatrix::from_costs(0, vec![]).is_err());
    }
}
