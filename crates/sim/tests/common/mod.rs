//! Helpers shared by the `cavm-sim` integration tests.

use cavm_sim::{MetricSink, PeriodRecord, RepackEvent, SimReport, ViolationEvent};

/// Records every sink callback as a rendered line, so two runs can be
/// compared event-for-event (not just on the aggregated report).
#[derive(Default)]
pub struct Recorder {
    pub events: Vec<String>,
    /// The terminal report, once the session finished.
    pub report: Option<SimReport>,
}

impl MetricSink for Recorder {
    fn on_period(&mut self, record: &PeriodRecord) {
        self.events.push(format!("period {record:?}"));
    }
    fn on_repack(&mut self, event: &RepackEvent) {
        self.events.push(format!("repack {event:?}"));
    }
    fn on_migration(&mut self, period: usize, vm: usize, from: usize, to: usize) {
        self.events
            .push(format!("migrate p{period} vm{vm} {from}->{to}"));
    }
    fn on_violation(&mut self, event: &ViolationEvent) {
        self.events.push(format!("violation {event:?}"));
    }
    fn on_class_energy(&mut self, period: usize, class: usize, name: &str, period_joules: f64) {
        self.events.push(format!(
            "energy p{period} class{class} {name} {period_joules}"
        ));
    }
    fn on_admit(&mut self, sample: usize, vm: usize, server: usize) {
        self.events.push(format!("admit s{sample} vm{vm}@{server}"));
    }
    fn on_server_fail(&mut self, sample: usize, server: usize, residents: usize) {
        self.events
            .push(format!("fail s{sample} srv{server} residents{residents}"));
    }
    fn on_server_recover(&mut self, sample: usize, server: usize) {
        self.events.push(format!("recover s{sample} srv{server}"));
    }
    fn on_summary(&mut self, report: &SimReport) {
        self.events.push(format!("summary {report:?}"));
        self.report = Some(report.clone());
    }
}
