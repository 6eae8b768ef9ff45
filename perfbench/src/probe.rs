//! In-memory span tracing and the sink probe that sits at the head of
//! every sink chain.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer; nothing inside the simulator is instrumented. A span's self
//! time is its duration minus the part its child spans cover.

use cavm_sim::{MetricSink, PeriodRecord, RepackEvent, SimReport, ViolationEvent};
use std::fmt::Write as _;
use std::time::Instant;

/// The layer a span times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    CellsArrive,
    CellsDepart,
    CellsTick,
    ControllerArrive,
    ControllerDepart,
    TickSample,
    TickBoundary,
    TickOffcycle,
    ServerFail,
    ServerRecover,
    Sink,
    ServiceRun,
    /// Shadow: `MomentSketch::from_series` on an arriving trace.
    CellsRoute,
    /// Shadow: `CostMatrix::push_columns` over a boundary's window.
    CorrWindowReplay,
    /// Shadow: the policy's batch `place` on the predicted VMs.
    AllocPlace,
}

impl Layer {
    pub const ALL: [Layer; 15] = [
        Layer::CellsArrive,
        Layer::CellsDepart,
        Layer::CellsTick,
        Layer::ControllerArrive,
        Layer::ControllerDepart,
        Layer::TickSample,
        Layer::TickBoundary,
        Layer::TickOffcycle,
        Layer::ServerFail,
        Layer::ServerRecover,
        Layer::Sink,
        Layer::ServiceRun,
        Layer::CellsRoute,
        Layer::CorrWindowReplay,
        Layer::AllocPlace,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::CellsArrive => "cells.arrive",
            Layer::CellsDepart => "cells.depart",
            Layer::CellsTick => "cells.tick",
            Layer::ControllerArrive => "controller.arrive",
            Layer::ControllerDepart => "controller.depart",
            Layer::TickSample => "controller.tick.sample",
            Layer::TickBoundary => "controller.tick.boundary",
            Layer::TickOffcycle => "controller.tick.offcycle",
            Layer::ServerFail => "controller.server_fail",
            Layer::ServerRecover => "controller.server_recover",
            Layer::Sink => "sink",
            Layer::ServiceRun => "service.run",
            Layer::CellsRoute => "cells.route",
            Layer::CorrWindowReplay => "corr.window_replay",
            Layer::AllocPlace => "alloc.place",
        }
    }

    /// Shadow spans re-issue work after the fact; they are excluded
    /// from the replay's wall time.
    pub fn is_shadow(self) -> bool {
        matches!(
            self,
            Layer::CellsRoute | Layer::CorrWindowReplay | Layer::AllocPlace
        )
    }

    fn index(self) -> usize {
        Layer::ALL
            .iter()
            .position(|&l| l == self)
            .expect("every layer is listed")
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// Collects spans in memory; a disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; `layer` may be refined when it ends.
    pub fn begin(&mut self, layer: Layer) -> SpanId {
        if !self.on {
            return SpanId(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            layer,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes the innermost open span, recording its final layer.
    pub fn end(&mut self, id: SpanId, layer: Layer) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        let span = &mut self.spans[id.0 as usize];
        span.end_ns = end;
        span.layer = layer;
        let closed = self.open.pop();
        debug_assert_eq!(closed, Some(id.0), "spans close innermost first");
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let id = self.begin(layer);
        let out = f();
        self.end(id, layer);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    pub count: [u64; Layer::ALL.len()],
    pub self_ns: [u64; Layer::ALL.len()],
    /// Total duration of non-shadow spans that have no parent: the
    /// part of the replay's wall time some span covers.
    pub top_level_ns: u64,
}

impl LayerTotals {
    pub fn add(&mut self, spans: &[Span]) {
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        for (span, child) in spans.iter().zip(child_ns) {
            let i = span.layer.index();
            let dur = span.end_ns - span.start_ns;
            self.count[i] += 1;
            self.self_ns[i] += dur.saturating_sub(child);
            if span.parent == NO_PARENT && !span.layer.is_shadow() {
                self.top_level_ns += dur;
            }
        }
    }

    pub fn count(&self, layer: Layer) -> u64 {
        self.count[layer.index()]
    }

    pub fn self_s(&self, layer: Layer) -> f64 {
        self.self_ns[layer.index()] as f64 * 1e-9
    }
}

/// Renders spans as tab-separated lines: id, parent, layer, start, end.
pub fn spans_tsv(spans: &[Span]) -> String {
    let mut out = String::from("id\tparent\tlayer\tstart_ns\tend_ns\n");
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        let _ = writeln!(
            out,
            "{id}\t{parent}\t{}\t{}\t{}",
            s.layer.name(),
            s.start_ns,
            s.end_ns
        );
    }
    out
}

/// The head of every sink chain: counts callbacks, remembers which ones
/// fired during the current entry call (to classify ticks), and when
/// tracing times the rest of the chain as the `sink` layer.
pub struct Probe<S> {
    pub inner: S,
    pub tracer: Tracer,
    pub events: u64,
    pub saw_period: bool,
    pub saw_repack: bool,
}

impl<S: MetricSink> Probe<S> {
    pub fn new(inner: S, traced: bool) -> Self {
        Self::with_tracer(inner, Tracer::new(traced))
    }

    /// A probe that records into an existing tracer.
    pub fn with_tracer(inner: S, tracer: Tracer) -> Self {
        Self {
            inner,
            tracer,
            events: 0,
            saw_period: false,
            saw_repack: false,
        }
    }

    pub fn clear_flags(&mut self) {
        self.saw_period = false;
        self.saw_repack = false;
    }

    fn forward(&mut self, f: impl FnOnce(&mut S)) {
        self.events += 1;
        if self.tracer.is_on() {
            let id = self.tracer.begin(Layer::Sink);
            f(&mut self.inner);
            self.tracer.end(id, Layer::Sink);
        } else {
            f(&mut self.inner);
        }
    }
}

impl<S: MetricSink> MetricSink for Probe<S> {
    fn on_period(&mut self, record: &PeriodRecord) {
        self.saw_period = true;
        self.forward(|s| s.on_period(record));
    }

    fn on_repack(&mut self, event: &RepackEvent) {
        self.saw_repack = true;
        self.forward(|s| s.on_repack(event));
    }

    fn on_migration(&mut self, period: usize, vm: usize, from: usize, to: usize) {
        self.forward(|s| s.on_migration(period, vm, from, to));
    }

    fn on_violation(&mut self, event: &ViolationEvent) {
        self.forward(|s| s.on_violation(event));
    }

    fn on_class_energy(&mut self, period: usize, class: usize, name: &str, period_joules: f64) {
        self.forward(|s| s.on_class_energy(period, class, name, period_joules));
    }

    fn on_admit(&mut self, sample: usize, vm: usize, server: usize) {
        self.forward(|s| s.on_admit(sample, vm, server));
    }

    fn on_server_fail(&mut self, sample: usize, server: usize, residents: usize) {
        self.forward(|s| s.on_server_fail(sample, server, residents));
    }

    fn on_server_recover(&mut self, sample: usize, server: usize) {
        self.forward(|s| s.on_server_recover(sample, server));
    }

    fn on_summary(&mut self, report: &SimReport) {
        self.forward(|s| s.on_summary(report));
    }
}
