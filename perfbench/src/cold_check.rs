//! `lattice` and `torus`: repeated cold `Engine::check`s of one large
//! search, each on a freshly loaded engine so no cache answers.
//!
//! * `lattice` — `lattice_liveness` on `open_close_lattice(ticks,
//!   children)`: the only working set that is large relative to the
//!   arenas, the interner and the index.  Coverage is cheap (at most
//!   `ticks + 1` candidates per group, nothing pruned), so plan/apply
//!   throughput and bytes per state dominate.
//! * `torus` — `cycle_grid_liveness` on `cycle_torus(dims, k)`: few
//!   states, but only about 0.1% of coverage candidates hit, so each state
//!   costs about ten lattice states and the repeated-reachability edge
//!   construction carries a real share of the check.
//!
//! Both verdicts are Violated (an infinite run never reaches the goal),
//! and phase 1 creates an exactly known number of states.

use crate::layers::{self, Comparable, Schedule};
use crate::trace::Recorder;
use crate::{cores, peak_rss_mb, stats, timed_setup, Args, EndToEnd, Metric, Outcome};
use std::time::Instant;
use verifas::ltl::LtlFoProperty;
use verifas::model::HasSpec;
use verifas::workloads::{cycle_grid_liveness, cycle_torus, lattice_liveness, open_close_lattice};
use verifas::{Engine, SearchLimits, VerificationOutcome, VerificationReport, VerifierOptions};

/// Which search, and its size.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    Lattice { ticks: usize, children: usize },
    Torus { dims: usize, k: usize },
}

impl Shape {
    pub const LATTICE: Shape = Shape::Lattice {
        ticks: 10,
        children: 11,
    };
    pub const TORUS: Shape = Shape::Torus { dims: 6, k: 3 };

    fn build(self) -> (HasSpec, LtlFoProperty) {
        match self {
            Shape::Lattice { ticks, children } => {
                let spec = open_close_lattice(ticks, children);
                let property = lattice_liveness(&spec);
                (spec, property)
            }
            Shape::Torus { dims, k } => {
                let spec = cycle_torus(dims, k);
                let property = cycle_grid_liveness(&spec);
                (spec, property)
            }
        }
    }

    /// The exact phase-1 state count: `(ticks + 1) · 2^children` lattice
    /// states, or the `k^dims` torus plus its all-null initial state.
    pub fn phase1_states(self) -> usize {
        match self {
            Shape::Lattice { ticks, children } => (ticks + 1) << children,
            Shape::Torus { dims, k } => k.pow(dims as u32) + 1,
        }
    }

    /// What, if anything, is wrong with a report: any verdict but
    /// Violated, or a phase-1 state count other than the analytic one.
    fn contradiction(self, spec: &str, report: &VerificationReport) -> Option<String> {
        let mut problems = Vec::new();
        if report.outcome != VerificationOutcome::Violated {
            problems.push(format!("verdict {:?}, expected Violated", report.outcome));
        }
        if report.stats.states_created != self.phase1_states() {
            problems.push(format!(
                "phase 1 created {} states, expected {}",
                report.stats.states_created,
                self.phase1_states()
            ));
        }
        (!problems.is_empty()).then(|| format!("{spec}: {}", problems.join("; ")))
    }
}

/// No state or time limit is reached: the search must exhaust.
fn options() -> VerifierOptions {
    VerifierOptions {
        search_threads: cores(),
        limits: SearchLimits {
            max_states: 50_000_000,
            max_millis: 3_600_000,
        },
        ..VerifierOptions::default()
    }
}

/// Repetitions timed for the set-up figure.
const SETUP_REPS: usize = 51;
/// A run times at least this many checks, whatever `--seconds` says.
const MIN_CHECKS: usize = 3;

pub fn run(args: &Args, shape: Shape) -> Result<Outcome, String> {
    let ((spec, property), setup_s) = timed_setup(SETUP_REPS, || shape.build());
    if args.trace {
        return traced(args, shape, &spec, &property);
    }

    // A check starts only while the last one's duration still fits in
    // the time left, so a run never overshoots `--seconds` by a check.
    let started = Instant::now();
    let mut walls: Vec<f64> = Vec::new();
    let mut reports = Vec::new();
    while walls.len() < MIN_CHECKS
        || started.elapsed().as_secs_f64() + walls.last().copied().unwrap_or(0.0) <= args.seconds
    {
        let spec = spec.clone();
        let t0 = Instant::now();
        let report = Engine::load_with_options(spec, options()).and_then(|e| e.check(&property));
        walls.push(t0.elapsed().as_secs_f64());
        reports.push(report);
    }
    let rss = peak_rss_mb();
    let mut outcome = Outcome {
        attempted: reports.len(),
        ..Outcome::default()
    };
    let mut decided = 0;
    for report in &reports {
        match report {
            Ok(report) => {
                decided += usize::from(report.outcome != VerificationOutcome::Inconclusive);
                outcome
                    .failures
                    .extend(shape.contradiction(&spec.name, report));
            }
            Err(e) => outcome.failures.push(format!("{}: {e}", spec.name)),
        }
    }
    let median_ms = stats::median(&walls).expect("at least one check") * 1e3;
    outcome.metrics = EndToEnd {
        setup_s,
        peak_rss_mb: rss,
        verdicts_per_s: walls.len() as f64 / walls.iter().sum::<f64>(),
        verdict_ms_p50: median_ms,
        req_ms_p50: median_ms,
        decided_frac: decided as f64 / reports.len() as f64,
    }
    .metrics();
    outcome.diagnostics.push(Metric {
        name: "checks",
        value: walls.len() as f64,
        unit: "count",
    });
    Ok(outcome)
}

/// An untraced `Engine::check`, the same check reissued layer by layer,
/// and the untraced check again; the reports must agree.  All run on one
/// search thread, where the plan/apply split of phase 1 is exact.
fn traced(
    args: &Args,
    shape: Shape,
    spec: &HasSpec,
    property: &LtlFoProperty,
) -> Result<Outcome, String> {
    let options = VerifierOptions {
        search_threads: 1,
        ..options()
    };
    let untraced_check = || {
        let t0 = Instant::now();
        let report = Engine::load_with_options(spec.clone(), options)
            .and_then(|e| e.check(property))
            .map_err(|e| e.to_string());
        (report, t0.elapsed().as_secs_f64())
    };
    let (untraced, untraced_before) = untraced_check();

    let recorder = Recorder::new();
    let t0 = Instant::now();
    let traced = layers::load(&recorder, 0, spec.clone(), options).and_then(|session| {
        let counts = session.prep(&recorder, 0, property);
        let (report, more) = session.verify(&recorder, 0, property, 1, None);
        let mut total = counts;
        total.add(&more);
        report.map(|r| (r, total))
    });
    let traced_s = t0.elapsed().as_secs_f64();
    // The untraced check runs again after the traced one: the first run
    // of a process pays its memory warm-up, so the overhead is measured
    // against the second.
    let (again, untraced_after) = untraced_check();
    let mut outcome = Outcome {
        attempted: 3,
        ..Outcome::default()
    };

    let mut schedule = Schedule::default();
    let mut counts = layers::Counts::default();
    match (&untraced, &traced, &again) {
        (Ok(before), Ok((t, c)), Ok(after)) => {
            for report in [before, t, after] {
                outcome
                    .failures
                    .extend(shape.contradiction(&spec.name, report));
            }
            if Comparable::of(before) != Comparable::of(t)
                || Comparable::of(after) != Comparable::of(t)
            {
                outcome.failures.push(format!(
                    "{}: traced report differs from Engine::check",
                    spec.name
                ));
            }
            schedule.add(untraced_after * 1e3, 1, [after]);
            counts = c.clone();
        }
        (before, t, after) => {
            let errors = [
                before.as_ref().err(),
                t.as_ref().err(),
                after.as_ref().err(),
            ];
            for e in errors.into_iter().flatten() {
                outcome.failures.push(format!("{}: {e}", spec.name));
            }
        }
    }
    let spans = recorder.into_spans();
    outcome.metrics = layers::layer_metrics(&spans, &counts, &schedule, traced_s, untraced_after);
    outcome.notes.push(layers::findings(
        &outcome.metrics,
        traced_s,
        untraced_before,
        untraced_after,
    ));
    crate::report_trace(args, &spans, &mut outcome);
    Ok(outcome)
}
