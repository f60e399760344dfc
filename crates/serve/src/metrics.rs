//! Server counters and their Prometheus-style text exposition.
//!
//! The verifier core already narrates its work through
//! [`ProgressEvent`]s; the server funnels every event of every running
//! batch into one [`Metrics`] registry (via the engine's
//! `BatchEventSink`), adds request-lifecycle counters of its own, and
//! renders the lot in the Prometheus text exposition format on
//! `/metrics`.  Everything is a monotone counter on relaxed atomics —
//! scraping never takes a lock and never perturbs a running search.
//!
//! Gauges that belong to other components (session-cache occupancy,
//! in-flight requests, the core budget) are rendered by the gateway,
//! which owns those components; [`write_metric`] is public so all lines
//! share one formatter.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use verifas_core::{Phase, ProgressEvent};

use crate::admission::PriorityClass;

/// How an admitted request ended, for the lifecycle counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Every property ran to a verdict.
    Completed,
    /// The request was cancelled (client cancel, deadline, or shutdown).
    Cancelled,
    /// The request failed before or during verification.
    Failed,
}

impl RequestOutcome {
    fn name(self) -> &'static str {
        match self {
            RequestOutcome::Completed => "completed",
            RequestOutcome::Cancelled => "cancelled",
            RequestOutcome::Failed => "failed",
        }
    }
}

fn phase_index(phase: Phase) -> usize {
    match phase {
        Phase::Reachability => 0,
        Phase::RepeatedReachability => 1,
    }
}

const PHASE_NAMES: [&str; 2] = ["reachability", "repeated_reachability"];

#[derive(Default)]
struct PerClass {
    admitted: AtomicU64,
    queued: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
    failed: AtomicU64,
}

/// The server's counter registry (see module docs).
#[derive(Default)]
pub struct Metrics {
    classes: [PerClass; 2],
    reports: AtomicU64,
    resource_exhausted: AtomicU64,
    faults_injected: AtomicU64,
    worker_panics: AtomicU64,
    reports_reused: AtomicU64,
    phases_started: [AtomicU64; 2],
    phases_finished: [AtomicU64; 2],
    progress_events: AtomicU64,
    cycle_progress_events: AtomicU64,
}

impl Metrics {
    /// A fresh registry with every counter at zero.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// A request of `class` passed admission.
    pub fn admitted(&self, class: PriorityClass) {
        bump(&self.classes[class.index()].admitted);
    }

    /// A request of `class` arrived over its in-flight limit and is
    /// waiting in the admission queue.
    pub fn queued(&self, class: PriorityClass) {
        bump(&self.classes[class.index()].queued);
    }

    /// A request of `class` was refused by admission control (queue
    /// overflow — the only refusal left).
    pub fn rejected(&self, class: PriorityClass) {
        bump(&self.classes[class.index()].rejected);
    }

    /// A property's search hit its memory budget and degraded to a typed
    /// `ResourceExhausted` report error.
    pub fn resource_exhausted(&self) {
        bump(&self.resource_exhausted);
    }

    /// An injected fault fired at one of the serve path's fault sites
    /// (chaos testing only; always 0 in production).
    pub fn fault_injected(&self) {
        bump(&self.faults_injected);
    }

    /// A worker thread panicked and the panic was contained (the
    /// connection or request it served got an error; the server lives).
    pub fn worker_panicked(&self) {
        bump(&self.worker_panics);
    }

    /// A request of `class` that entered the pipeline (admitted, or
    /// queued and later given up) ended with `outcome`.
    pub fn finished(&self, class: PriorityClass, outcome: RequestOutcome) {
        let counters = &self.classes[class.index()];
        match outcome {
            RequestOutcome::Completed => bump(&counters.completed),
            RequestOutcome::Cancelled => bump(&counters.cancelled),
            RequestOutcome::Failed => bump(&counters.failed),
        }
    }

    /// One per-property report left the server (streamed or collected).
    pub fn report_streamed(&self) {
        bump(&self.reports);
    }

    /// `count` of a request's reports came from its session's report
    /// cache, with no search (`BatchSummary::reused`).
    pub fn reports_reused(&self, count: usize) {
        self.reports_reused
            .fetch_add(count as u64, Ordering::Relaxed);
    }

    /// Fold one engine progress event into the counters.  This is the
    /// function behind the server's `BatchEventSink`.
    pub fn observe_event(&self, event: &ProgressEvent) {
        match event {
            ProgressEvent::PhaseStarted { phase } => {
                bump(&self.phases_started[phase_index(*phase)]);
            }
            ProgressEvent::PhaseFinished { phase, .. } => {
                bump(&self.phases_finished[phase_index(*phase)]);
            }
            ProgressEvent::Progress { .. } => bump(&self.progress_events),
            ProgressEvent::CycleProgress { .. } => bump(&self.cycle_progress_events),
        }
    }

    /// Render every counter in Prometheus text exposition format.
    pub fn render_into(&self, out: &mut String) {
        type_line(out, "verifas_requests_admitted_total", "counter");
        for class in PriorityClass::ALL {
            write_metric(
                out,
                "verifas_requests_admitted_total",
                &[("class", class.name())],
                load(&self.classes[class.index()].admitted),
            );
        }
        type_line(out, "verifas_requests_queued_total", "counter");
        for class in PriorityClass::ALL {
            write_metric(
                out,
                "verifas_requests_queued_total",
                &[("class", class.name())],
                load(&self.classes[class.index()].queued),
            );
        }
        type_line(out, "verifas_requests_rejected_total", "counter");
        for class in PriorityClass::ALL {
            write_metric(
                out,
                "verifas_requests_rejected_total",
                &[("class", class.name())],
                load(&self.classes[class.index()].rejected),
            );
        }
        type_line(out, "verifas_requests_finished_total", "counter");
        for class in PriorityClass::ALL {
            let counters = &self.classes[class.index()];
            for (outcome, counter) in [
                (RequestOutcome::Completed, &counters.completed),
                (RequestOutcome::Cancelled, &counters.cancelled),
                (RequestOutcome::Failed, &counters.failed),
            ] {
                write_metric(
                    out,
                    "verifas_requests_finished_total",
                    &[("class", class.name()), ("outcome", outcome.name())],
                    load(counter),
                );
            }
        }
        type_line(out, "verifas_property_reports_total", "counter");
        write_metric(
            out,
            "verifas_property_reports_total",
            &[],
            load(&self.reports),
        );
        type_line(out, "verifas_resource_exhausted_total", "counter");
        write_metric(
            out,
            "verifas_resource_exhausted_total",
            &[],
            load(&self.resource_exhausted),
        );
        type_line(out, "verifas_faults_injected_total", "counter");
        write_metric(
            out,
            "verifas_faults_injected_total",
            &[],
            load(&self.faults_injected),
        );
        type_line(out, "verifas_worker_panics_total", "counter");
        write_metric(
            out,
            "verifas_worker_panics_total",
            &[],
            load(&self.worker_panics),
        );
        type_line(out, "verifas_search_phases_started_total", "counter");
        for (index, name) in PHASE_NAMES.iter().enumerate() {
            write_metric(
                out,
                "verifas_search_phases_started_total",
                &[("phase", name)],
                load(&self.phases_started[index]),
            );
        }
        type_line(out, "verifas_search_phases_finished_total", "counter");
        for (index, name) in PHASE_NAMES.iter().enumerate() {
            write_metric(
                out,
                "verifas_search_phases_finished_total",
                &[("phase", name)],
                load(&self.phases_finished[index]),
            );
        }
        type_line(out, "verifas_search_progress_events_total", "counter");
        write_metric(
            out,
            "verifas_search_progress_events_total",
            &[("kind", "search")],
            load(&self.progress_events),
        );
        write_metric(
            out,
            "verifas_search_progress_events_total",
            &[("kind", "cycle")],
            load(&self.cycle_progress_events),
        );
        type_line(out, "verifas_delta_reports_reused_total", "counter");
        write_metric(
            out,
            "verifas_delta_reports_reused_total",
            &[],
            load(&self.reports_reused),
        );
    }
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

fn load(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

/// Write one `# TYPE` header line.
pub fn type_line(out: &mut String, name: &str, kind: &str) {
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Write one exposition line: `name{label="value",...} value`.
pub fn write_metric(out: &mut String, name: &str, labels: &[(&str, &str)], value: u64) {
    let _ = write!(out, "{name}");
    if !labels.is_empty() {
        let _ = write!(out, "{{");
        for (position, (key, label)) in labels.iter().enumerate() {
            if position > 0 {
                let _ = write!(out, ",");
            }
            let _ = write!(out, "{key}=\"{label}\"");
        }
        let _ = write!(out, "}}");
    }
    let _ = writeln!(out, " {value}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use verifas_core::SearchStats;

    #[test]
    fn lifecycle_counters_render_per_class_and_outcome() {
        let metrics = Metrics::new();
        metrics.admitted(PriorityClass::Interactive);
        metrics.admitted(PriorityClass::Batch);
        metrics.rejected(PriorityClass::Batch);
        metrics.queued(PriorityClass::Batch);
        metrics.finished(PriorityClass::Interactive, RequestOutcome::Completed);
        metrics.finished(PriorityClass::Batch, RequestOutcome::Cancelled);
        metrics.report_streamed();
        metrics.resource_exhausted();
        metrics.fault_injected();
        metrics.worker_panicked();
        let mut out = String::new();
        metrics.render_into(&mut out);
        assert!(out.contains("verifas_requests_admitted_total{class=\"interactive\"} 1"));
        assert!(out.contains("verifas_requests_rejected_total{class=\"batch\"} 1"));
        assert!(out.contains("verifas_requests_queued_total{class=\"batch\"} 1"));
        assert!(out.contains("verifas_resource_exhausted_total 1"));
        assert!(out.contains("verifas_faults_injected_total 1"));
        assert!(out.contains("verifas_worker_panics_total 1"));
        assert!(out.contains(
            "verifas_requests_finished_total{class=\"interactive\",outcome=\"completed\"} 1"
        ));
        assert!(out
            .contains("verifas_requests_finished_total{class=\"batch\",outcome=\"cancelled\"} 1"));
        assert!(out.contains("verifas_property_reports_total 1"));
    }

    #[test]
    fn progress_events_feed_phase_counters() {
        let metrics = Metrics::new();
        metrics.observe_event(&ProgressEvent::PhaseStarted {
            phase: Phase::Reachability,
        });
        metrics.observe_event(&ProgressEvent::PhaseFinished {
            phase: Phase::Reachability,
            stats: SearchStats::default(),
        });
        metrics.observe_event(&ProgressEvent::PhaseStarted {
            phase: Phase::RepeatedReachability,
        });
        let mut out = String::new();
        metrics.render_into(&mut out);
        assert!(out.contains("verifas_search_phases_started_total{phase=\"reachability\"} 1"));
        assert!(out.contains("verifas_search_phases_finished_total{phase=\"reachability\"} 1"));
        assert!(
            out.contains("verifas_search_phases_started_total{phase=\"repeated_reachability\"} 1")
        );
        assert!(
            out.contains("verifas_search_phases_finished_total{phase=\"repeated_reachability\"} 0")
        );
    }
}
