//! The traced pass: one verification reissued layer by layer.
//!
//! [`Session::verify`] repeats what `Engine::check` does inside the engine,
//! through each module's public functions in turn — preprocessing
//! (`ExprUniverse::build`, `SymbolicTask::with_universe`, cached under the
//! engine's key), `ProductSystem::with_task`, the static analysis,
//! `KarpMillerSearch::run_with`, `find_infinite_violation_with` and the
//! report — with a span around each call and the counts each layer
//! already returns.  Its reports must equal the engine's (see
//! [`Comparable`]); that is what makes the per-layer attribution a
//! faithful picture of the untraced run.

use crate::trace::{self_times, Recorder, Span};
use crate::Metric;
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use verifas::core::static_analysis::ConstraintGraph;
use verifas::core::{
    find_infinite_violation_with, spec_constants, BatchOptions, Counterexample, CoverageKind,
    CycleStats, ExprUniverse, KarpMillerSearch, ProductSystem, Scheduler, SearchControl,
    SearchOutcome, SymbolicTask, ThreadBudget, VerificationResult,
};
use verifas::ltl::LtlFoProperty;
use verifas::model::{DataValue, HasSpec, ServiceRef, TaskId, VarType};
use verifas::{
    Engine, SearchStats, VerificationOutcome, VerificationReport, VerifierOptions, Witness,
};

/// The deterministic core of a report: everything except wall-clock
/// fields, thread counts and scheduling data (the scrub the fuzz oracle
/// applies).
#[derive(Debug, Clone, PartialEq)]
pub struct Comparable {
    property: String,
    task: String,
    outcome: VerificationOutcome,
    witness: Option<Witness>,
    stats: SearchStats,
    repeated_stats: Option<SearchStats>,
    repeated_cycle: Option<CycleStats>,
    options: VerifierOptions,
    cancelled: bool,
}

impl Comparable {
    pub fn of(report: &VerificationReport) -> Self {
        let strip = |mut stats: SearchStats| {
            stats.elapsed_ms = 0;
            stats.threads = 0;
            stats
        };
        Comparable {
            property: report.property.clone(),
            task: report.task.clone(),
            outcome: report.outcome,
            witness: report.witness.clone(),
            stats: strip(report.stats),
            repeated_stats: report.repeated_stats.map(strip),
            repeated_cycle: report.repeated_cycle.map(|mut cycle| {
                cycle.edge_micros = 0;
                cycle.scc_micros = 0;
                cycle.threads = 0;
                cycle
            }),
            options: VerifierOptions {
                search_threads: 0,
                ..report.options
            },
            cancelled: report.cancelled,
        }
    }
}

/// The engine's preprocessing cache key (see `verifas_core::engine`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PrepKey {
    task: TaskId,
    include_sets: bool,
    global_types: Vec<VarType>,
    extra_constants: Vec<DataValue>,
}

struct Prep {
    task: SymbolicTask,
    spec_graph: OnceLock<ConstraintGraph>,
}

/// Where one verification's layer spans go: under its `verify` span.
#[derive(Clone, Copy)]
struct Layer<'r> {
    recorder: &'r Recorder,
    request: u64,
    parent: usize,
}

impl Layer<'_> {
    fn span<T>(&self, name: &'static str, f: impl FnOnce(usize) -> T) -> T {
        self.recorder.span(name, self.request, Some(self.parent), f)
    }
}

/// The preprocessing of one loaded engine, shared by its verifications.
pub struct Session {
    engine: Engine,
    base_constants: BTreeSet<DataValue>,
    cache: Mutex<HashMap<PrepKey, Arc<Prep>>>,
}

/// Counts the layers return, summed over the traced verifications.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub prep_builds: usize,
    pub prep_exprs: usize,
    pub removed_edges: usize,
    pub buchi_states: usize,
    pub states: usize,
    pub successors: usize,
    pub pruned: usize,
    pub accelerations: usize,
    pub plan_busy_us: u64,
    pub apply_us: f64,
    pub search_bytes: usize,
    pub aux_states: usize,
    pub edge_us: u64,
    pub scc_us: u64,
    pub candidates: usize,
    pub edges: usize,
    pub report_bytes: usize,
}

impl Counts {
    pub fn add(&mut self, other: &Counts) {
        self.prep_builds += other.prep_builds;
        self.prep_exprs += other.prep_exprs;
        self.removed_edges += other.removed_edges;
        self.buchi_states += other.buchi_states;
        self.states += other.states;
        self.successors += other.successors;
        self.pruned += other.pruned;
        self.accelerations += other.accelerations;
        self.plan_busy_us += other.plan_busy_us;
        self.apply_us += other.apply_us;
        self.search_bytes += other.search_bytes;
        self.aux_states += other.aux_states;
        self.edge_us += other.edge_us;
        self.scc_us += other.scc_us;
        self.candidates += other.candidates;
        self.edges += other.edges;
        self.report_bytes += other.report_bytes;
    }
}

/// `Engine::load_with_options`, traced.
pub fn load(
    recorder: &Recorder,
    request: u64,
    spec: HasSpec,
    options: VerifierOptions,
) -> Result<Session, String> {
    let engine = recorder.span("load", request, None, |_| {
        Engine::load_with_options(spec, options).map_err(|e| e.to_string())
    })?;
    let base_constants = spec_constants(engine.spec());
    Ok(Session {
        engine,
        base_constants,
        cache: Mutex::new(HashMap::new()),
    })
}

impl Session {
    /// Build (or reuse) a property's preprocessing, as `Engine::warm` does.
    pub fn prep(&self, recorder: &Recorder, request: u64, property: &LtlFoProperty) -> Counts {
        let mut counts = Counts::default();
        recorder.span("prep", request, None, |_| {
            self.prep_for(property, &mut counts);
        });
        counts
    }

    fn prep_for(&self, property: &LtlFoProperty, counts: &mut Counts) -> Arc<Prep> {
        let options = self.engine.options();
        let key = PrepKey {
            task: property.task,
            include_sets: options.handle_artifact_relations,
            global_types: property.global_vars.clone(),
            extra_constants: property
                .condition_constants()
                .into_iter()
                .filter(|c| !self.base_constants.contains(c))
                .collect(),
        };
        let mut cache = self.cache.lock().expect("prep cache poisoned");
        if let Some(prep) = cache.get(&key) {
            return Arc::clone(prep);
        }
        let spec = self.engine.spec();
        let mut constants = self.base_constants.clone();
        constants.extend(key.extra_constants.iter().cloned());
        let universe = ExprUniverse::build(spec, key.task, &key.global_types, &constants);
        counts.prep_builds += 1;
        counts.prep_exprs += universe.len();
        let task = SymbolicTask::with_universe(spec, key.task, universe, key.include_sets);
        let prep = Arc::new(Prep {
            task,
            spec_graph: OnceLock::new(),
        });
        cache.insert(key, Arc::clone(&prep));
        prep
    }

    /// Verify one property layer by layer with `threads` search workers
    /// (or under a batch scheduler's `budget`), recording a span per layer
    /// under one `verify` span.
    pub fn verify(
        &self,
        recorder: &Recorder,
        request: u64,
        property: &LtlFoProperty,
        threads: usize,
        budget: Option<ThreadBudget>,
    ) -> (Result<VerificationReport, String>, Counts) {
        let mut counts = Counts::default();
        let control = SearchControl {
            thread_budget: budget,
            ..SearchControl::default()
        };
        let report = recorder.span("verify", request, None, |root| {
            let layer = Layer {
                recorder,
                request,
                parent: root,
            };
            self.verify_steps(layer, property, threads, control, &mut counts)
        });
        (report, counts)
    }

    fn verify_steps(
        &self,
        layer: Layer<'_>,
        property: &LtlFoProperty,
        threads: usize,
        mut control: SearchControl<'_>,
        counts: &mut Counts,
    ) -> Result<VerificationReport, String> {
        let spec = self.engine.spec();
        let options = self.engine.options();
        property.validate(spec).map_err(|e| e.to_string())?;
        let prep = layer.span("prep", |_| self.prep_for(property, counts));
        let mut product = layer.span("product", |_| {
            ProductSystem::with_task(prep.task.clone(), property).map_err(|e| e.to_string())
        })?;
        counts.buchi_states += product.automaton.buchi.labels.len();
        if options.static_analysis {
            layer.span("static", |_| {
                let graph = prep
                    .spec_graph
                    .get_or_init(|| {
                        ConstraintGraph::build_spec_side(spec, property.task, &prep.task.universe)
                    })
                    .with_property(property, &product.task.universe);
                let removed = graph.non_violating_edges(&product.task.universe);
                counts.removed_edges += removed.len();
                product.set_static_removed(removed);
            });
        }
        let product = product;
        let (coverage, repeated_coverage) = if options.state_pruning {
            (CoverageKind::Subsumption, CoverageKind::StrictSubsumption)
        } else {
            (CoverageKind::Standard, CoverageKind::Standard)
        };
        let (outcome, stats, mut workers, mut failure, trace) = layer.span("search", |_| {
            let started = Instant::now();
            let mut search = KarpMillerSearch::new(
                &product,
                coverage,
                options.data_structure_support,
                options.limits,
            );
            search.threads = threads;
            let outcome = search.run_with(&mut control);
            let elapsed_us = started.elapsed().as_secs_f64() * 1e6;
            let longest = search.worker_stats.iter().map(|w| w.busy_micros).max();
            counts.plan_busy_us += search
                .worker_stats
                .iter()
                .map(|w| w.busy_micros)
                .sum::<u64>();
            counts.apply_us += elapsed_us - longest.unwrap_or(0) as f64;
            counts.successors += search
                .worker_stats
                .iter()
                .map(|w| w.successors_planned)
                .sum::<usize>();
            counts.search_bytes += search.estimated_bytes();
            let trace: Vec<ServiceRef> = match outcome {
                SearchOutcome::FiniteViolation(node) => {
                    search.trace(node).into_iter().map(|(s, _)| s).collect()
                }
                _ => Vec::new(),
            };
            let workers = std::mem::take(&mut search.worker_stats);
            (outcome, search.stats, workers, search.failure.take(), trace)
        });
        counts.states += stats.states_created;
        counts.pruned += stats.states_pruned;
        counts.accelerations += stats.accelerations;
        let (outcome, counterexample, phase2) = match outcome {
            SearchOutcome::FiniteViolation(_) => (
                VerificationOutcome::Violated,
                Some(counterexample(&product, trace, true, None)),
                None,
            ),
            SearchOutcome::LimitReached => (VerificationOutcome::Inconclusive, None, None),
            SearchOutcome::Exhausted if !options.check_repeated => {
                (VerificationOutcome::Satisfied, None, None)
            }
            SearchOutcome::Exhausted => {
                let repeated = layer.span("repeated", |_| {
                    find_infinite_violation_with(
                        &product,
                        repeated_coverage,
                        options.data_structure_support,
                        options.limits,
                        threads,
                        &mut control,
                    )
                });
                counts.aux_states += repeated.stats.states_created;
                if let Some(cycle) = repeated.cycle {
                    counts.edge_us += cycle.edge_micros;
                    counts.scc_us += cycle.scc_micros;
                    counts.candidates += cycle.candidates;
                    counts.edges += cycle.edges;
                }
                verifas::core::search::merge_worker_stats(&mut workers, &repeated.worker_stats);
                failure = failure.or(repeated.failure);
                let phase2 = Some((repeated.stats, repeated.cycle));
                match (repeated.finite_violation, repeated.violation) {
                    (Some(finite), _) => (
                        VerificationOutcome::Violated,
                        Some(counterexample(&product, finite, true, None)),
                        phase2,
                    ),
                    (None, Some(v)) => (
                        VerificationOutcome::Violated,
                        Some(counterexample(&product, v.prefix, false, Some(&v.reason))),
                        phase2,
                    ),
                    (None, None) if repeated.limit_reached => {
                        (VerificationOutcome::Inconclusive, None, phase2)
                    }
                    (None, None) => (VerificationOutcome::Satisfied, None, phase2),
                }
            }
        };
        let result = VerificationResult {
            outcome,
            counterexample,
            stats,
            repeated_stats: phase2.map(|(stats, _)| stats),
            repeated_cycle: phase2.and_then(|(_, cycle)| cycle),
            worker_stats: workers,
            failure,
        };
        if let Some(reason) = &result.failure {
            return Err(format!("internal error: {reason}"));
        }
        let (report, bytes) = layer.span("report", |_| {
            let report = VerificationReport::from_result(
                spec,
                &property.name,
                property.task,
                options,
                result,
            );
            let bytes = report.to_json().len();
            (report, bytes)
        });
        counts.report_bytes += bytes;
        Ok(report)
    }

    /// Verify `properties` the way `Engine::batch()` does: preprocessing
    /// warmed in order first, then the verifications scheduled by the
    /// same sharded [`Scheduler`] over `cores` cores.
    pub fn verify_batch(
        &self,
        recorder: &Recorder,
        first_request: u64,
        properties: &[LtlFoProperty],
        cores: usize,
    ) -> (Vec<Result<VerificationReport, String>>, Counts) {
        let mut counts = Counts::default();
        for (i, property) in properties.iter().enumerate() {
            counts.add(&self.prep(recorder, first_request + i as u64, property));
        }
        let totals = Mutex::new(Counts::default());
        let scheduler = Scheduler::new(
            BatchOptions {
                batch_threads: cores,
                ..BatchOptions::default()
            },
            properties.len(),
        );
        let slots = scheduler.run(|i, handle| {
            let request = first_request + i as u64;
            let budget = handle.budget().cloned();
            let (report, c) = self.verify(recorder, request, &properties[i], 1, budget);
            totals.lock().expect("counts poisoned").add(&c);
            report
        });
        counts.add(&totals.into_inner().expect("counts poisoned"));
        let reports = slots
            .into_iter()
            .map(|slot| slot.map_or_else(|| Err("verification panicked".to_owned()), |(r, _)| r))
            .collect();
        (reports, counts)
    }
}

fn counterexample(
    product: &ProductSystem,
    services: Vec<ServiceRef>,
    finite: bool,
    reason: Option<&str>,
) -> Counterexample {
    let path = services
        .iter()
        .map(|s| product.task.spec.service_name(*s))
        .collect::<Vec<_>>()
        .join(" → ");
    let description = match reason {
        Some(reason) => format!("{path} (infinite run: {reason})"),
        None => path,
    };
    Counterexample {
        services,
        description,
        finite,
    }
}

/// How the verifications of one workload were scheduled: summed makespan
/// over its batches and summed worker busy time.
#[derive(Debug, Default, Clone, Copy)]
pub struct Schedule {
    pub makespan_ms: f64,
    pub core_ms: f64,
    pub busy_ms: f64,
}

impl Schedule {
    /// Fold in one batch (or one stand-alone check) that kept `cores`
    /// cores for `makespan_ms` and whose reports are `reports`.
    pub fn add<'r>(
        &mut self,
        makespan_ms: f64,
        cores: usize,
        reports: impl IntoIterator<Item = &'r VerificationReport>,
    ) {
        self.makespan_ms += makespan_ms;
        self.core_ms += makespan_ms * cores as f64;
        for report in reports {
            self.busy_ms += report.workers.iter().map(|w| w.busy_micros).sum::<u64>() as f64 / 1e3;
        }
    }

    pub fn merge(&mut self, other: &Schedule) {
        self.makespan_ms += other.makespan_ms;
        self.core_ms += other.core_ms;
        self.busy_ms += other.busy_ms;
    }

    /// The makespan of a batch as its reports' schedule blocks record it.
    pub fn batch_makespan_ms<'r>(reports: impl IntoIterator<Item = &'r VerificationReport>) -> f64 {
        reports
            .into_iter()
            .filter_map(|r| r.schedule.as_ref().map(|s| s.finished_ms))
            .max()
            .unwrap_or(0) as f64
    }
}

/// The traced and untraced wall times behind `trace.overhead_frac`, and
/// what the per-layer figures say about the phases.
pub fn findings(
    metrics: &[Metric],
    traced_s: f64,
    untraced_before: f64,
    untraced_after: f64,
) -> String {
    let value = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let (phase1, phase2, edges) = (
        value("search.us") / 1e6,
        value("repeated.us") / 1e6,
        value("repeated.edge_us") / 1e6,
    );
    format!(
        "  traced reissue {traced_s:.3} s; untraced {untraced_before:.3} s before it (warm-up), \
         {untraced_after:.3} s after it (the overhead base)\n  \
         phase 1 {phase1:.3} s, phase 2 {phase2:.3} s (phase 2 / phase 1 = {:.2}); \
         edge construction {edges:.3} s = {:.2}% of phase 2, {:.2}% of both phases; \
         worker busy time {:.1}% of the cores' time",
        phase2 / phase1.max(f64::MIN_POSITIVE),
        100.0 * edges / phase2.max(f64::MIN_POSITIVE),
        100.0 * edges / (phase1 + phase2).max(f64::MIN_POSITIVE),
        100.0 * value("schedule.core_util"),
    )
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics every workload reports, from the traced pass's
/// spans and counts, its scheduling data, and the traced and untraced
/// wall times of the same work (the untraced run after the traced one, so
/// neither pays the process's first-run warm-up).
pub fn layer_metrics(
    spans: &[Span],
    counts: &Counts,
    schedule: &Schedule,
    traced_s: f64,
    untraced_s: f64,
) -> Vec<Metric> {
    let times = self_times(spans);
    let us = |name: &str| times.get(name).map_or(0.0, |t| t.0);
    let search_us = us("search");
    let repeated_us = us("repeated");
    vec![
        metric("engine.load_us", us("load"), "us"),
        metric("prep.us", us("prep"), "us"),
        metric("prep.builds", counts.prep_builds as f64, "count"),
        metric("prep.exprs", counts.prep_exprs as f64, "count"),
        metric("static.us", us("static"), "us"),
        metric("static.removed_edges", counts.removed_edges as f64, "count"),
        metric("product.us", us("product"), "us"),
        metric("product.buchi_states", counts.buchi_states as f64, "count"),
        metric("search.us", search_us, "us"),
        metric("search.states", counts.states as f64, "count"),
        metric(
            "search.states_per_s",
            ratio(counts.states as f64 * 1e6, search_us),
            "1/s",
        ),
        metric("search.plan_busy_us", counts.plan_busy_us as f64, "us"),
        metric("search.apply_us", counts.apply_us, "us"),
        metric(
            "search.new_state_ratio",
            ratio(counts.states as f64, counts.successors as f64),
            "ratio",
        ),
        metric("search.pruned", counts.pruned as f64, "count"),
        metric("search.accelerations", counts.accelerations as f64, "count"),
        metric(
            "search.bytes_per_state",
            ratio(counts.search_bytes as f64, counts.states as f64),
            "B/state",
        ),
        metric("repeated.us", repeated_us, "us"),
        metric("repeated.aux_states", counts.aux_states as f64, "count"),
        metric(
            "repeated.aux_states_per_s",
            ratio(counts.aux_states as f64 * 1e6, repeated_us),
            "1/s",
        ),
        metric("repeated.edge_us", counts.edge_us as f64, "us"),
        metric("repeated.scc_us", counts.scc_us as f64, "us"),
        metric("repeated.candidates", counts.candidates as f64, "count"),
        metric(
            "repeated.hit_rate",
            ratio(counts.edges as f64, counts.candidates as f64),
            "ratio",
        ),
        metric("schedule.makespan_ms", schedule.makespan_ms, "ms"),
        metric(
            "schedule.core_util",
            ratio(schedule.busy_ms, schedule.core_ms),
            "ratio",
        ),
        metric("report.json_us", us("report"), "us"),
        metric("report.bytes", counts.report_bytes as f64, "B"),
        metric(
            "trace.overhead_frac",
            ratio(traced_s - untraced_s, untraced_s),
            "ratio",
        ),
    ]
}
