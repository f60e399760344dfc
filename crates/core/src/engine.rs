//! The session-oriented verification engine.
//!
//! [`Engine`] is the long-lived front door of VERIFAS: it loads a
//! [`HasSpec`] once and serves many verification requests against it,
//! amortizing the spec-side preprocessing — the expression universe, the
//! compiled symbolic task and the spec-side static-analysis constraint
//! graph — across properties.  Three entry points:
//!
//! * [`Engine::check`] — verify one property with the engine's default
//!   options,
//! * [`Engine::verification`] — a builder for one request: override
//!   options, attach a [`ProgressObserver`], set a deadline or a
//!   [`CancelToken`], then [`VerificationBuilder::run`],
//! * [`Engine::check_all`] — verify a batch of properties, building each
//!   distinct (task, configuration) preprocessing exactly once and
//!   scheduling the per-property searches over the machine through the
//!   sharded [`Scheduler`] (see [`crate::schedule`]): wide while
//!   properties are queued, with freed cores reassigned to still-running
//!   searches through the tail of the batch.  [`Engine::batch`] is the
//!   builder variant with batch-level knobs ([`BatchOptions`], a
//!   [`CancelToken`], a streaming result callback).
//!
//! Every run returns a structured, serializable
//! [`VerificationReport`]; every failure is a typed [`VerifasError`].
//!
//! ```
//! use verifas_core::engine::Engine;
//! # use verifas_ltl::{Ltl, LtlFoProperty, PropAtom};
//! # use verifas_model::schema::attr::data;
//! # use verifas_model::{Condition, DatabaseSchema, SpecBuilder, TaskBuilder, Term, VarId};
//! # let mut db = DatabaseSchema::new();
//! # db.add_relation("R", vec![data("a")]).unwrap();
//! # let mut root = TaskBuilder::new("Root");
//! # let status = root.data_var("status");
//! # root.service_parts("go", Condition::eq(Term::var(status), Term::Null),
//! #     Condition::eq(Term::var(status), Term::str("Done")), vec![], None);
//! # let mut b = SpecBuilder::new("doc", db, root.build());
//! # b.global_pre(Condition::eq(Term::var(status), Term::Null));
//! # let spec = b.build().unwrap();
//! # let property = LtlFoProperty::new("p", spec.root(), vec![],
//! #     Ltl::globally(Ltl::not(Ltl::prop(0))),
//! #     vec![PropAtom::Condition(Condition::eq(Term::var(VarId::new(0)), Term::str("Broken")))]);
//! let engine = Engine::load(spec).unwrap();
//! let report = engine.check(&property).unwrap();
//! println!("{}", report.to_json());
//! ```

use crate::delta::{fingerprint, DeltaSummary, ReuseMode, SpecDelta};
use crate::error::VerifasError;
use crate::expr::ExprUniverse;
use crate::observer::{CancelToken, ProgressEvent, ProgressObserver, SearchControl};
use crate::product::ProductSystem;
use crate::report::VerificationReport;
use crate::schedule::{BatchOptions, Scheduler, SchedulerHandle};
use crate::search::SearchLimits;
use crate::static_analysis::ConstraintGraph;
use crate::transition::{spec_constants, SymbolicTask};
use crate::verifier::VerificationOutcome;
use crate::verifier::{run_phases, VerifierOptions};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use verifas_ltl::{LtlFoProperty, PropertyHandle};
use verifas_model::{DataValue, HasSpec, TaskId, VarType};

/// Cache key of one spec-side preprocessing artefact.
///
/// Two properties share a preprocessing iff they verify the same task under
/// the same artifact-relation handling, bind global variables of the same
/// types, and add the same constants on top of the specification's own
/// (for almost all benchmark properties that extra set is empty).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PrepKey {
    task: TaskId,
    include_sets: bool,
    global_types: Vec<VarType>,
    extra_constants: Vec<DataValue>,
}

/// The shared spec-side preprocessing of one cache key: the compiled
/// symbolic task (which owns the expression universe) and the
/// property-independent part of the static-analysis constraint graph,
/// built lazily on the first request that actually enables the static
/// analysis.
struct TaskPreprocessing {
    task: SymbolicTask,
    spec_graph: std::sync::OnceLock<ConstraintGraph>,
}

impl TaskPreprocessing {
    fn spec_graph(&self, spec: &HasSpec, task: TaskId) -> &ConstraintGraph {
        self.spec_graph
            .get_or_init(|| ConstraintGraph::build_spec_side(spec, task, &self.task.universe))
    }
}

/// The preprocessing cache clears itself once it holds this many entries
/// (distinct keys arise from properties adding unseen constants or global
/// variable types); a long-lived service with adversarial properties must
/// not grow without bound.
const PREPROCESSING_CACHE_CAPACITY: usize = 64;

/// The report cache clears itself once it holds this many entries (one
/// entry per distinct (task, property, options) request that ran to a
/// definite verdict).
const REPORT_CACHE_CAPACITY: usize = 256;

/// Cache key of one finished verification: the verified task plus
/// structural fingerprints of the property and the full options (the
/// search is deterministic in these — and in the task's slice, which
/// [`Engine::load_delta`] checks before carrying entries across
/// sessions).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ReportKey {
    task: TaskId,
    property_fp: u64,
    options_fp: u64,
}

impl ReportKey {
    fn new(property: &LtlFoProperty, options: &VerifierOptions) -> Self {
        ReportKey {
            task: property.task,
            property_fp: fingerprint(property),
            options_fp: fingerprint(options),
        }
    }
}

/// A long-lived verification engine over one loaded specification.
///
/// The engine is `Sync`: one engine can serve concurrent `check` calls
/// from many threads, sharing its preprocessing cache.
pub struct Engine {
    spec: HasSpec,
    options: VerifierOptions,
    /// How much this engine reuses from a prior session (see
    /// [`crate::delta`]); plain [`Engine::load`] sessions are
    /// [`ReuseMode::Cold`].
    reuse: ReuseMode,
    /// The specification's own constants (property constants are keyed on
    /// top of these).
    base_constants: BTreeSet<DataValue>,
    cache: Mutex<HashMap<PrepKey, Arc<TaskPreprocessing>>>,
    /// Finished reports of definite, uncancelled runs — always recorded
    /// (so a later [`Engine::load_delta`] can carry them), only consulted
    /// on non-[`ReuseMode::Cold`] engines.
    reports: Mutex<HashMap<ReportKey, Arc<VerificationReport>>>,
}

impl Engine {
    /// Load and validate a specification with default options.
    pub fn load(spec: HasSpec) -> Result<Self, VerifasError> {
        Engine::load_with_options(spec, VerifierOptions::default())
    }

    /// Load and validate a specification; `options` become the engine's
    /// defaults (individual requests can still override them through
    /// [`Engine::verification`]).
    pub fn load_with_options(
        spec: HasSpec,
        options: VerifierOptions,
    ) -> Result<Self, VerifasError> {
        Engine::load_with_reuse(spec, options, ReuseMode::Cold)
    }

    /// [`Engine::load_with_options`] with an explicit [`ReuseMode`].
    ///
    /// A [`ReuseMode::Preproc`] engine answers repeated identical
    /// requests from its report cache (without re-running the search —
    /// no progress events are emitted for such answers).  Results are
    /// bit-identical to a cold engine's in both modes; the modes only
    /// change how much work producing them takes.
    pub fn load_with_reuse(
        spec: HasSpec,
        options: VerifierOptions,
        reuse: ReuseMode,
    ) -> Result<Self, VerifasError> {
        spec.validate()?;
        let base_constants = spec_constants(&spec);
        Ok(Engine {
            spec,
            options,
            reuse,
            base_constants,
            cache: Mutex::new(HashMap::new()),
            reports: Mutex::new(HashMap::new()),
        })
    }

    /// Load an edited specification as the successor of a prior session,
    /// carrying over everything the structural [`SpecDelta`] proves
    /// untouched: the spec-side preprocessing (expression universe,
    /// compiled symbolic task, static-analysis graph) of every task whose
    /// slice is unchanged, plus the finished reports of unchanged (task,
    /// property, options) requests, which later identical requests answer
    /// without any search.
    ///
    /// Nothing is rebuilt for carried entries — the returned
    /// [`DeltaSummary`] counts them — and nothing changed is ever
    /// carried: the slice hash (see [`crate::delta::slice_hash`]) covers
    /// the full dependency cone of each compiled artefact.  With
    /// [`ReuseMode::Cold`] this is equivalent to a fresh
    /// [`Engine::load_with_options`] (useful as a baseline).
    pub fn load_delta(
        prior: &Engine,
        spec: HasSpec,
        mode: ReuseMode,
    ) -> Result<(Self, DeltaSummary), VerifasError> {
        let engine = Engine::load_with_reuse(spec, prior.options, mode)?;
        let delta = SpecDelta::diff(&prior.spec, &engine.spec);
        let mut summary = DeltaSummary {
            mode,
            tasks: delta.tasks.len(),
            tasks_unchanged: delta.unchanged_tasks(),
            preps_carried: 0,
            reports_carried: 0,
        };
        if mode == ReuseMode::Cold {
            return Ok((engine, summary));
        }
        {
            let prior_cache = lock_ignoring_poison(&prior.cache);
            let mut cache = lock_ignoring_poison(&engine.cache);
            for (key, prep) in prior_cache.iter() {
                if delta.task_unchanged(key.task) {
                    cache.insert(key.clone(), Arc::clone(prep));
                    summary.preps_carried += 1;
                }
            }
        }
        {
            let prior_reports = lock_ignoring_poison(&prior.reports);
            let mut reports = lock_ignoring_poison(&engine.reports);
            for (key, report) in prior_reports.iter() {
                if delta.task_unchanged(key.task) {
                    reports.insert(key.clone(), Arc::clone(report));
                    summary.reports_carried += 1;
                }
            }
        }
        Ok((engine, summary))
    }

    /// The loaded specification.
    pub fn spec(&self) -> &HasSpec {
        &self.spec
    }

    /// The engine's default options.
    pub fn options(&self) -> VerifierOptions {
        self.options
    }

    /// Number of distinct spec-side preprocessings currently cached
    /// (diagnostic; see [`crate::counters`] for process-wide build counts).
    pub fn cached_preprocessings(&self) -> usize {
        lock_ignoring_poison(&self.cache).len()
    }

    /// Number of finished reports currently cached (diagnostic).
    pub fn cached_reports(&self) -> usize {
        lock_ignoring_poison(&self.reports).len()
    }

    /// Deterministic estimate of this engine's resident bytes — a fixed
    /// base plus per-element costs for the preprocessing and report
    /// caches (the structures that actually grow with use).  Feeds
    /// byte-based session-cache eviction in `verifas serve`; like
    /// [`crate::search::KarpMillerSearch::estimated_bytes`] it is an
    /// accounting figure, never an allocator probe, so eviction order is
    /// identical on every host.
    pub fn estimated_bytes(&self) -> usize {
        const ENGINE_BASE_BYTES: usize = 64 << 10;
        const PREP_BYTES: usize = 256 << 10;
        const REPORT_BYTES: usize = 8 << 10;
        ENGINE_BASE_BYTES
            + self.cached_preprocessings() * PREP_BYTES
            + self.cached_reports() * REPORT_BYTES
    }

    /// Build (or reuse) the spec-side preprocessing a property needs,
    /// without running any search, and return the property's
    /// [`PropertyHandle`].
    ///
    /// A verification service calls this while admitting a batch — keyed
    /// by the returned handle — so the first real request does not pay the
    /// one-off setup cost; [`Engine::check_all`] warms the cache the same
    /// way.
    pub fn warm(&self, property: &LtlFoProperty) -> Result<PropertyHandle, VerifasError> {
        property.validate(&self.spec)?;
        self.preprocessing(property, self.options);
        Ok(property.handle())
    }

    /// Verify one property with the engine's default options.
    pub fn check(&self, property: &LtlFoProperty) -> Result<VerificationReport, VerifasError> {
        self.run_request(property, self.options, false, &mut SearchControl::default())
    }

    /// [`Engine::check`] with phase 2 run by the retained O(active²)
    /// oracle ([`crate::repeated::find_infinite_violation_reference`])
    /// instead of the filtered pass — the fuzz harness's `repeated` arm.
    /// Its reports carry no cycle statistics.  The report cache is neither
    /// read nor written, so a reference report never answers a later
    /// request or travels through [`Engine::load_delta`].  Like one
    /// property of a batch, it returns a panic as a typed error, so the
    /// arm fails the way the `check_all` baseline it is compared with
    /// does.
    #[doc(hidden)]
    pub fn check_with_reference_phase2(
        &self,
        property: &LtlFoProperty,
    ) -> Result<VerificationReport, VerifasError> {
        contain_panic(|| {
            self.run_request(property, self.options, true, &mut SearchControl::default())
        })
    }

    /// Start building one verification request.
    pub fn verification(&self) -> VerificationBuilder<'_, '_> {
        VerificationBuilder {
            engine: self,
            property: None,
            options: self.options,
            observer: None,
            deadline: None,
            cancel: None,
            progress_every: 0,
            memory: None,
        }
    }

    /// Verify a batch of properties with the engine's default options and
    /// the default [`BatchOptions`] (one core per available core),
    /// returning one result per property in input order.
    ///
    /// The spec-side preprocessing (expression universe, compiled task,
    /// static-analysis graph) is built exactly once per distinct
    /// (task, configuration) key — see [`crate::counters`] — and the
    /// per-property searches are scheduled by [`crate::schedule`]'s
    /// [`Scheduler`]: wide while properties are queued, then cores freed
    /// by finished properties are reassigned to still-running searches.
    /// The per-property results are bit-identical to sequential
    /// [`Engine::check`] calls for every core budget.
    pub fn check_all(
        &self,
        properties: &[LtlFoProperty],
    ) -> Vec<Result<VerificationReport, VerifasError>> {
        self.check_all_with(properties, BatchOptions::default())
    }

    /// [`Engine::check_all`] under explicit [`BatchOptions`] (the core
    /// budget).
    pub fn check_all_with(
        &self,
        properties: &[LtlFoProperty],
        batch: BatchOptions,
    ) -> Vec<Result<VerificationReport, VerifasError>> {
        self.batch()
            .batch_threads(batch.batch_threads)
            .run(properties)
    }

    /// Start building one batch verification request: the core budget
    /// ([`BatchOptions`]), per-request [`VerifierOptions`], a batch-wide
    /// [`CancelToken`] and a streaming per-property result callback.
    pub fn batch(&self) -> BatchBuilder<'_, '_> {
        BatchBuilder {
            engine: self,
            batch: BatchOptions::default(),
            options: self.options,
            cancel: None,
            deadline: None,
            on_result: None,
            on_event: None,
            scheduler_handle: None,
            memory: None,
        }
    }

    /// Get or build the preprocessing shared by all properties with the
    /// same [`PrepKey`].
    fn preprocessing(
        &self,
        property: &LtlFoProperty,
        options: VerifierOptions,
    ) -> Arc<TaskPreprocessing> {
        let extra_constants: Vec<DataValue> = property
            .condition_constants()
            .into_iter()
            .filter(|c| !self.base_constants.contains(c))
            .collect();
        let key = PrepKey {
            task: property.task,
            include_sets: options.handle_artifact_relations,
            global_types: property.global_vars.clone(),
            extra_constants,
        };
        // Recover from poisoning instead of propagating it: the cache is
        // only ever mutated *after* a build succeeds, so a panic during a
        // build (contained per-property by `check_all`) leaves the map
        // itself consistent — treating the poison as fatal would turn one
        // bad property into a permanently broken engine.
        let mut cache = lock_ignoring_poison(&self.cache);
        if let Some(prep) = cache.get(&key) {
            return Arc::clone(prep);
        }
        // Bound the cache: distinct keys come from properties introducing
        // unseen constants or global types, which an adversarial stream
        // could mint indefinitely.  Dropping everything is safe — entries
        // are pure caches — and simpler than tracking recency.
        if cache.len() >= PREPROCESSING_CACHE_CAPACITY {
            cache.clear();
        }
        let mut constants = self.base_constants.clone();
        constants.extend(key.extra_constants.iter().cloned());
        let universe = ExprUniverse::build(&self.spec, key.task, &key.global_types, &constants);
        let task = SymbolicTask::with_universe(&self.spec, key.task, universe, key.include_sets);
        let prep = Arc::new(TaskPreprocessing {
            task,
            spec_graph: std::sync::OnceLock::new(),
        });
        cache.insert(key, Arc::clone(&prep));
        prep
    }

    /// Run one request against the shared preprocessing.  A
    /// `reference_phase2` request (see
    /// [`Engine::check_with_reference_phase2`]) bypasses the report cache.
    fn run_request(
        &self,
        property: &LtlFoProperty,
        options: VerifierOptions,
        reference_phase2: bool,
        control: &mut SearchControl<'_>,
    ) -> Result<VerificationReport, VerifasError> {
        property.validate(&self.spec)?;
        let key = ReportKey::new(property, &options);
        let cached = !reference_phase2;
        if cached && self.reuse != ReuseMode::Cold {
            if let Some(report) = lock_ignoring_poison(&self.reports).get(&key) {
                use std::sync::atomic::Ordering;
                crate::counters::REPORTS_REUSED.fetch_add(1, Ordering::Relaxed);
                return Ok((**report).clone());
            }
        }
        let prep = self.preprocessing(property, options);
        // The property was validated against the engine's spec just above,
        // and the cached task was compiled from that same spec.
        let mut product = ProductSystem::with_task_prevalidated(prep.task.clone(), property);
        if options.static_analysis {
            let graph = prep
                .spec_graph(&self.spec, property.task)
                .with_property(property, &product.task.universe);
            let removed = graph.non_violating_edges(&product.task.universe);
            product.set_static_removed(removed);
        }
        let mut result = run_phases(
            &product,
            options.coverage(),
            options.repeated_coverage(),
            options,
            reference_phase2,
            control,
        );
        // A memory-budgeted run that tripped its lease degrades to a
        // typed error instead of a (limit-shaped) report: the verdict
        // would be Inconclusive anyway, and the caller needs to
        // distinguish "out of budget" from "out of states" to size a
        // retry.  Checked before caching — an exhausted run must never
        // answer a future request.
        if control.memory_exhausted() {
            let (bytes, limit_bytes) = control
                .memory
                .as_ref()
                .map(|lease| (lease.held_bytes(), lease.limit_bytes()))
                .unwrap_or((0, 0));
            return Err(VerifasError::ResourceExhausted {
                states: result.stats.states_created,
                bytes,
                limit_bytes,
            });
        }
        // A run in which a worker thread panicked degrades the same way:
        // a typed error instead of a (limit-shaped) report.  The search
        // tree behind the partial result is consistent — panicked rounds
        // are discarded unapplied — but the verdict would be Inconclusive
        // and the caller needs the panic message, not a report.  Checked
        // before caching, like memory exhaustion above.
        if let Some(reason) = result.failure.take() {
            return Err(VerifasError::Internal { reason });
        }
        let report = VerificationReport::from_result(
            &self.spec,
            &property.name,
            property.task,
            options,
            result,
        );
        // Record for later reuse (within this session on non-cold engines,
        // across sessions through `load_delta`) — but only definite,
        // uncancelled verdicts: a cancelled or inconclusive run depends on
        // wall-clock limits and must not answer a future request.
        if cached && !report.cancelled && report.outcome != VerificationOutcome::Inconclusive {
            let mut reports = lock_ignoring_poison(&self.reports);
            if reports.len() >= REPORT_CACHE_CAPACITY {
                reports.clear();
            }
            reports.insert(key, Arc::new(report.clone()));
        }
        Ok(report)
    }
}

/// Lock a mutex, recovering the guard when a previous holder panicked
/// (the protected data is only mutated through panic-free paths, so the
/// contents stay consistent).
fn lock_ignoring_poison<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

use crate::error::panic_message;

/// Run one verification request, returning a panic inside it as a typed
/// [`VerifasError::Internal`] — how a batch isolates each property.
fn contain_panic(
    run: impl FnOnce() -> Result<VerificationReport, VerifasError>,
) -> Result<VerificationReport, VerifasError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_or_else(|panic| {
        Err(VerifasError::Internal {
            reason: format!(
                "verification worker panicked: {}",
                panic_message(panic.as_ref())
            ),
        })
    })
}

/// Builder for one verification request (see [`Engine::verification`]).
pub struct VerificationBuilder<'e, 'o> {
    engine: &'e Engine,
    property: Option<LtlFoProperty>,
    options: VerifierOptions,
    observer: Option<&'o mut dyn ProgressObserver>,
    deadline: Option<Duration>,
    cancel: Option<CancelToken>,
    progress_every: usize,
    memory: Option<crate::memory::MemoryBudget>,
}

impl<'e, 'o> VerificationBuilder<'e, 'o> {
    /// The property to verify (required).
    pub fn property(mut self, property: &LtlFoProperty) -> Self {
        self.property = Some(property.clone());
        self
    }

    /// Override the engine's default options for this request.
    pub fn options(mut self, options: VerifierOptions) -> Self {
        self.options = options;
        self
    }

    /// Override only the resource limits for this request.
    pub fn limits(mut self, limits: SearchLimits) -> Self {
        self.options.limits = limits;
        self
    }

    /// Number of worker threads for this one request: they expand the
    /// search frontier of both phases and build the edges of the
    /// repeated-reachability cycle detection (1 = sequential, 0 = one per
    /// available core).  The verdict and witness are deterministic
    /// regardless of this setting; see the "Parallel execution" notes on
    /// `verifas_core::search` and the cycle-detection notes on
    /// `verifas_core::repeated`.
    pub fn search_threads(mut self, threads: usize) -> Self {
        self.options.search_threads = threads;
        self
    }

    /// Attach a progress observer (a `FnMut(&ProgressEvent)` closure works
    /// directly).
    pub fn observer(mut self, observer: &'o mut dyn ProgressObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Emit a progress event every `expansions` state expansions
    /// (default 128).
    pub fn progress_every(mut self, expansions: usize) -> Self {
        self.progress_every = expansions;
        self
    }

    /// Stop the run once this much wall-clock time has passed.  The
    /// report's `cancelled` flag is set; the outcome is `Inconclusive`
    /// unless a violation was already found (then `Violated`, which is
    /// always sound).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attach a cancellation token; cancelling any clone of it stops the
    /// run at its next state expansion.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Account this run's search state against a shared
    /// [`crate::memory::MemoryBudget`]: the search re-sizes its lease at
    /// round boundaries and, if the pool refuses a grow, stops and
    /// reports a typed [`VerifasError::ResourceExhausted`] instead of
    /// growing without bound.
    pub fn memory_budget(mut self, budget: &crate::memory::MemoryBudget) -> Self {
        self.memory = Some(budget.clone());
        self
    }

    /// Run the request.
    pub fn run(self) -> Result<VerificationReport, VerifasError> {
        let property = self.property.ok_or(VerifasError::MissingProperty)?;
        let mut control = SearchControl {
            observer: self.observer,
            cancel: self.cancel,
            deadline: self.deadline.map(|d| Instant::now() + d),
            progress_every: self.progress_every,
            memory: self.memory.as_ref().map(crate::memory::MemoryBudget::lease),
            ..SearchControl::default()
        };
        self.engine
            .run_request(&property, self.options, false, &mut control)
    }
}

/// A per-property result callback of a batch run (see
/// [`BatchBuilder::on_result`]).
pub type BatchResultCallback<'f> =
    &'f mut (dyn FnMut(usize, &Result<VerificationReport, VerifasError>) + Send);

/// A shared per-batch progress-event sink (see [`BatchBuilder::on_event`]):
/// called with the property's batch index and the event, concurrently from
/// whichever worker thread coordinates that property's search.
pub type BatchEventSink<'f> = &'f (dyn Fn(usize, &ProgressEvent) + Send + Sync);

/// The typed end-of-batch summary of one [`BatchBuilder::run_with_summary`]
/// call: how the batch ended, without inspecting the per-property result
/// set.  A streaming consumer (a verification service forwarding
/// [`BatchBuilder::on_result`] frames to a client) uses it as the terminal
/// end-of-stream event — in particular [`BatchSummary::aborted`]
/// distinguishes "stream finished" from "stream cut short by cancellation
/// or a deadline".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchSummary {
    /// Number of properties submitted.
    pub properties: usize,
    /// Properties that finished with a report that was *not* cut short
    /// (report present, `cancelled` unset).
    pub completed: usize,
    /// Properties whose report carries the `cancelled` flag (stopped by
    /// the batch token or the batch deadline before finishing).
    pub cancelled: usize,
    /// Properties that reported a typed error instead of a report.
    pub errors: usize,
    /// `true` when the batch was stopped early: the batch-wide
    /// [`CancelToken`] fired, the batch deadline passed, or any property's
    /// report was cut short.  `false` means every submitted property ran
    /// to its natural end.
    pub aborted: bool,
}

/// Builder for one batch verification request (see [`Engine::batch`]).
pub struct BatchBuilder<'e, 'f> {
    engine: &'e Engine,
    batch: BatchOptions,
    options: VerifierOptions,
    cancel: Option<CancelToken>,
    deadline: Option<Duration>,
    on_result: Option<BatchResultCallback<'f>>,
    on_event: Option<BatchEventSink<'f>>,
    scheduler_handle: Option<SchedulerHandle>,
    memory: Option<crate::memory::MemoryBudget>,
}

impl<'e, 'f> BatchBuilder<'e, 'f> {
    /// The core budget shared by the whole batch (0 = one per available
    /// core).  A [`BatchBuilder::scheduler_handle`] takes its place.
    pub fn batch_threads(mut self, threads: usize) -> Self {
        self.batch.batch_threads = threads;
        self
    }

    /// Override the engine's default options for every property of this
    /// batch.  The `search_threads` member is ignored — the scheduler owns
    /// the core budget.
    pub fn options(mut self, options: VerifierOptions) -> Self {
        self.options = options;
        self
    }

    /// Attach a batch-wide cancellation token: cancelling any clone stops
    /// every running search at its next state expansion and makes every
    /// not-yet-started property report `cancelled` immediately.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Stop the whole batch once this much wall-clock time has passed
    /// (measured from [`BatchBuilder::run`]): running searches stop at
    /// their next state expansion, queued properties report `cancelled`
    /// immediately — the batch analogue of
    /// [`VerificationBuilder::deadline`].
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attach a shared progress-event sink: every property's search emits
    /// its [`ProgressEvent`]s into it, tagged with the property's batch
    /// index.  Unlike [`VerificationBuilder::observer`] the sink is called
    /// concurrently (from whichever worker coordinates each search), so it
    /// takes `&self` — a metrics registry of atomics is the intended
    /// consumer.
    pub fn on_event(mut self, sink: BatchEventSink<'f>) -> Self {
        self.on_event = Some(sink);
        self
    }

    /// Run the batch on `handle`'s live total core budget in place of
    /// [`BatchBuilder::batch_threads`]: the batch starts with the
    /// handle's total, and [`SchedulerHandle::set_total`] resizes it and
    /// re-splits it over the running searches — how a multi-tenant
    /// server reclaims cores from a long batch for a newly arrived
    /// interactive request without waiting for it.  A resize made while
    /// the batch still builds its preprocessing sizes the batch it
    /// starts.
    pub fn scheduler_handle(mut self, handle: &SchedulerHandle) -> Self {
        self.scheduler_handle = Some(handle.clone());
        self
    }

    /// Stream per-property results as they complete: the callback receives
    /// the property's batch index and its result, from the worker thread
    /// that finished it (calls are serialized, but not in index order).
    /// The final `Vec` is still returned in input order.  A panic in the
    /// callback is contained — the property's result is kept and the rest
    /// of the batch proceeds (further callback invocations may be
    /// skipped).
    pub fn on_result(mut self, callback: BatchResultCallback<'f>) -> Self {
        self.on_result = Some(callback);
        self
    }

    /// Account every search of this batch against a shared
    /// [`crate::memory::MemoryBudget`] (one lease per property).  A
    /// search whose lease is refused a grow stops at its next round
    /// boundary and reports a typed
    /// [`VerifasError::ResourceExhausted`] for that property; the rest
    /// of the batch keeps running on whatever the pool still holds.
    pub fn memory_budget(mut self, budget: &crate::memory::MemoryBudget) -> Self {
        self.memory = Some(budget.clone());
        self
    }

    /// Run the batch, returning one result per property in input order.
    pub fn run(
        self,
        properties: &[LtlFoProperty],
    ) -> Vec<Result<VerificationReport, VerifasError>> {
        self.run_with_summary(properties).0
    }

    /// [`BatchBuilder::run`], additionally returning the typed
    /// [`BatchSummary`] of how the batch ended.
    pub fn run_with_summary(
        self,
        properties: &[LtlFoProperty],
    ) -> (Vec<Result<VerificationReport, VerifasError>>, BatchSummary) {
        let engine = self.engine;
        let options = self.options;
        // Warm the cache sequentially so every preprocessing is built once
        // no matter how the worker threads interleave (invalid properties
        // report their error from the worker instead).
        for property in properties {
            let _ = engine.warm(property);
        }
        if properties.is_empty() {
            return (Vec::new(), BatchSummary::default());
        }
        let deadline = self.deadline.map(|d| Instant::now() + d);
        let scheduler = match &self.scheduler_handle {
            Some(handle) => Scheduler::with_handle(handle, properties.len()),
            None => Scheduler::new(self.batch, properties.len()),
        };
        let on_result = self.on_result.map(Mutex::new);
        let outputs = scheduler.run(|index, handle| {
            let property = &properties[index];
            // A panic in one verification must neither poison the whole
            // batch nor abort the process: it becomes a typed per-property
            // error.
            let report = contain_panic(|| {
                let mut forward = self
                    .on_event
                    .map(|sink| move |event: &ProgressEvent| sink(index, event));
                let mut control = SearchControl {
                    cancel: self.cancel.clone(),
                    deadline,
                    thread_budget: handle.budget().cloned(),
                    observer: forward.as_mut().map(|f| f as &mut dyn ProgressObserver),
                    memory: self.memory.as_ref().map(crate::memory::MemoryBudget::lease),
                    ..SearchControl::default()
                };
                engine.run_request(property, options, false, &mut control)
            });
            if let Some(callback) = &on_result {
                handle.retire();
                // The callback is observability only: a panic in user code
                // must not discard the finished report (the scheduler
                // would drop the whole slot and misattribute the loss to a
                // worker failure).
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    (lock_ignoring_poison(callback))(index, &report)
                }));
            }
            report
        });
        let results: Vec<Result<VerificationReport, VerifasError>> = outputs
            .into_iter()
            .enumerate()
            .map(|(index, slot)| match slot {
                Some((mut report, stats)) => {
                    if let Ok(report) = &mut report {
                        report.schedule = Some(stats);
                    }
                    report
                }
                // The scheduler only leaves a slot empty when the job
                // closure panicked, and the closure above converts panics
                // into typed errors itself — but a missing result must
                // still be a typed error, never a panic of our own.
                None => Err(VerifasError::Internal {
                    reason: format!(
                        "no worker thread reported a result for property index {index}"
                    ),
                }),
            })
            .collect();
        let mut summary = BatchSummary {
            properties: results.len(),
            ..BatchSummary::default()
        };
        for result in &results {
            match result {
                Ok(report) if report.cancelled => summary.cancelled += 1,
                Ok(_) => summary.completed += 1,
                Err(_) => summary.errors += 1,
            }
        }
        summary.aborted = summary.cancelled > 0
            || self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
            || deadline.is_some_and(|d| Instant::now() >= d);
        (results, summary)
    }
}

/// The canonical hash of a *lowered* specification — the session-cache
/// key of a verification service (`verifas serve`), also printed by
/// `verifas hash` / `verifas validate` so cache behaviour is scriptable.
///
/// The hash covers the whole lowered [`HasSpec`] structure (name, schema,
/// task hierarchy, services, global pre-condition), **not** the source
/// text it may have come from: two `.has` files that differ only in
/// formatting or comments lower to the same structure (the `verifas-spec`
/// frontend lowers through the same builders programmatic callers use,
/// bit-identically) and therefore share one session.  The hash is the
/// [`fingerprint`] (FNV-1a) of the structure's canonical rendering; stable
/// for a given build of the library, which is exactly the lifetime of an
/// in-memory session cache.
pub fn spec_hash(spec: &HasSpec) -> u64 {
    // The derived Debug rendering is a canonical, total serialization of
    // the lowered structure: equal specs render equally, and every field
    // that distinguishes two specs appears in it.
    fingerprint(spec)
}

/// [`spec_hash`] rendered as the 16-digit lowercase hex string used on
/// the wire and in the CLI.
pub fn spec_hash_hex(spec: &HasSpec) -> String {
    format!("{:016x}", spec_hash(spec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verifier::VerificationOutcome;
    use verifas_ltl::{Ltl, PropAtom};
    use verifas_model::schema::attr::data;
    use verifas_model::{Condition, DatabaseSchema, SpecBuilder, TaskBuilder, Term, VarId};

    fn flow_spec() -> HasSpec {
        let mut db = DatabaseSchema::new();
        db.add_relation("R", vec![data("a")]).unwrap();
        let mut root = TaskBuilder::new("Root");
        let status = root.data_var("status");
        root.service_parts(
            "begin",
            Condition::eq(Term::var(status), Term::Null),
            Condition::eq(Term::var(status), Term::str("Working")),
            vec![],
            None,
        );
        root.service_parts(
            "finish",
            Condition::eq(Term::var(status), Term::str("Working")),
            Condition::eq(Term::var(status), Term::str("Done")),
            vec![],
            None,
        );
        root.service_parts(
            "reset",
            Condition::eq(Term::var(status), Term::str("Done")),
            Condition::eq(Term::var(status), Term::Null),
            vec![],
            None,
        );
        let mut b = SpecBuilder::new("flow", db, root.build());
        b.global_pre(Condition::eq(Term::var(status), Term::Null));
        b.build().unwrap()
    }

    fn status_is(v: &str) -> Condition {
        Condition::eq(Term::var(VarId::new(0)), Term::str(v))
    }

    fn never(name: &str, spec: &HasSpec, value: &str) -> LtlFoProperty {
        LtlFoProperty::new(
            name,
            spec.root(),
            vec![],
            Ltl::globally(Ltl::not(Ltl::prop(0))),
            vec![PropAtom::Condition(status_is(value))],
        )
    }

    #[test]
    fn engine_checks_a_property() {
        let spec = flow_spec();
        let engine = Engine::load(spec.clone()).unwrap();
        let violated = engine.check(&never("never-done", &spec, "Done")).unwrap();
        assert_eq!(violated.outcome, VerificationOutcome::Violated);
        assert!(violated.witness.is_some());
        let satisfied = engine
            .check(&never("never-broken", &spec, "Broken"))
            .unwrap();
        assert_eq!(satisfied.outcome, VerificationOutcome::Satisfied);
        assert!(satisfied.witness.is_none());
    }

    #[test]
    fn builder_requires_a_property() {
        let engine = Engine::load(flow_spec()).unwrap();
        assert!(matches!(
            engine.verification().run(),
            Err(VerifasError::MissingProperty)
        ));
    }

    #[test]
    fn check_all_matches_sequential_checks() {
        let spec = flow_spec();
        let engine = Engine::load(spec.clone()).unwrap();
        let properties = vec![
            never("a", &spec, "Done"),
            never("b", &spec, "Broken"),
            never("c", &spec, "Working"),
        ];
        let batched = engine.check_all(&properties);
        for (property, batched) in properties.iter().zip(&batched) {
            let single = engine.check(property).unwrap();
            let batched = batched.as_ref().unwrap();
            assert_eq!(single.outcome, batched.outcome, "{}", property.name);
            assert_eq!(single.witness, batched.witness, "{}", property.name);
        }
    }

    #[test]
    fn warm_builds_the_cache_without_searching() {
        let spec = flow_spec();
        let engine = Engine::load(spec.clone()).unwrap();
        let property = never("warmed", &spec, "Done");
        let handle = engine.warm(&property).unwrap();
        assert_eq!(handle, property.handle());
        assert_eq!(engine.cached_preprocessings(), 1);
        // The subsequent check reuses the warmed preprocessing.
        engine.check(&property).unwrap();
        assert_eq!(engine.cached_preprocessings(), 1);
    }

    #[test]
    fn search_threads_do_not_change_the_verdict() {
        let spec = flow_spec();
        let engine = Engine::load(spec.clone()).unwrap();
        let property = never("never-done-mt", &spec, "Done");
        let seq = engine.check(&property).unwrap();
        let par = engine
            .verification()
            .property(&property)
            .search_threads(4)
            .run()
            .unwrap();
        assert_eq!(seq.outcome, par.outcome);
        assert_eq!(seq.witness, par.witness);
        assert_eq!(par.stats.threads, 4);
        assert_eq!(seq.stats.threads, 1);
    }

    #[test]
    fn invalid_properties_report_typed_errors() {
        let spec = flow_spec();
        let engine = Engine::load(spec.clone()).unwrap();
        // Proposition 1 has no interpretation.
        let bad = LtlFoProperty::new(
            "bad",
            spec.root(),
            vec![],
            Ltl::globally(Ltl::prop(7)),
            vec![],
        );
        assert!(matches!(engine.check(&bad), Err(VerifasError::Model(_))));
    }

    #[test]
    fn spec_hash_is_canonical_over_the_lowered_structure() {
        let spec = flow_spec();
        assert_eq!(spec_hash(&spec), spec_hash(&spec.clone()));
        assert_eq!(spec_hash_hex(&spec).len(), 16);
        // Any structural difference — even just the name — changes the key
        // (a session must never be shared across distinct specs).
        let mut renamed = spec.clone();
        renamed.name = "flow2".to_owned();
        assert_ne!(spec_hash(&spec), spec_hash(&renamed));
        let mut extended = spec.clone();
        extended.tasks[0].services.pop();
        assert_ne!(spec_hash(&spec), spec_hash(&extended));
    }

    #[test]
    fn a_clean_batch_summarizes_as_not_aborted() {
        let spec = flow_spec();
        let engine = Engine::load(spec.clone()).unwrap();
        let properties = vec![never("a", &spec, "Done"), never("b", &spec, "Broken")];
        let (results, summary) = engine.batch().run_with_summary(&properties);
        assert_eq!(results.len(), 2);
        assert_eq!(
            summary,
            BatchSummary {
                properties: 2,
                completed: 2,
                cancelled: 0,
                errors: 0,
                aborted: false,
            }
        );
    }

    #[test]
    fn a_cancelled_batch_summarizes_as_aborted() {
        let spec = flow_spec();
        let engine = Engine::load(spec.clone()).unwrap();
        let properties = vec![never("a", &spec, "Done"), never("b", &spec, "Broken")];
        let token = CancelToken::new();
        token.cancel();
        let (results, summary) = engine
            .batch()
            .cancel_token(token)
            .run_with_summary(&properties);
        assert_eq!(results.len(), 2);
        assert!(summary.aborted);
        assert_eq!(summary.completed, 0);
        assert_eq!(summary.cancelled, 2);
        for result in &results {
            assert!(result.as_ref().unwrap().cancelled);
        }
    }

    #[test]
    fn batch_event_sinks_see_every_property_phase() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let spec = flow_spec();
        let engine = Engine::load(spec.clone()).unwrap();
        let properties = vec![never("a", &spec, "Done"), never("b", &spec, "Broken")];
        let seen = [AtomicUsize::new(0), AtomicUsize::new(0)];
        let sink = |index: usize, event: &crate::observer::ProgressEvent| {
            if matches!(event, crate::observer::ProgressEvent::PhaseFinished { .. }) {
                seen[index].fetch_add(1, Ordering::Relaxed);
            }
        };
        let results = engine.batch().on_event(&sink).run(&properties);
        assert!(results.iter().all(Result::is_ok));
        for counter in &seen {
            assert!(counter.load(Ordering::Relaxed) >= 1);
        }
    }

    #[test]
    fn preprocessing_is_cached_per_key() {
        // (The strict exactly-once assertion via crate::counters lives in
        // the facade's `check_all_sharing` integration test, which runs in
        // its own process; the process-wide counters are not reliable here
        // where other unit tests build universes concurrently.)
        let spec = flow_spec();
        let engine = Engine::load(spec.clone()).unwrap();
        engine.check(&never("p1", &spec, "Done")).unwrap();
        engine.check(&never("p2", &spec, "Working")).unwrap();
        assert_eq!(engine.cached_preprocessings(), 1);
        // "Broken" introduces a constant the spec does not mention, so it
        // gets its own universe; the first two share one.
        engine.check(&never("p3", &spec, "Broken")).unwrap();
        assert_eq!(engine.cached_preprocessings(), 2);
    }

    #[test]
    fn load_delta_carries_preprocessing_and_reports() {
        let spec = flow_spec();
        let prior = Engine::load(spec.clone()).unwrap();
        let property = never("delta-carried", &spec, "Done");
        let cold = prior.check(&property).unwrap();
        assert_eq!(prior.cached_preprocessings(), 1);
        assert_eq!(prior.cached_reports(), 1);

        let (warm, summary) = Engine::load_delta(&prior, spec.clone(), ReuseMode::Preproc).unwrap();
        assert_eq!(summary.tasks, 1);
        assert_eq!(summary.tasks_unchanged, 1);
        assert_eq!(summary.preps_carried, 1);
        assert_eq!(summary.reports_carried, 1);
        // The preprocessing was transplanted, not rebuilt: it is present
        // before the warm engine has run anything.
        assert_eq!(warm.cached_preprocessings(), 1);

        // The identical request is answered from the carried report — the
        // exact same report, wall-clock fields included.
        let warm_report = warm.check(&property).unwrap();
        assert_eq!(warm_report, cold);
        // No new preprocessing appeared to answer it.
        assert_eq!(warm.cached_preprocessings(), 1);
    }

    /// The reference-phase-2 entry bypasses the report cache both ways:
    /// it records nothing, and a report the filtered pass cached never
    /// answers it.
    #[test]
    fn reference_phase2_bypasses_the_report_cache() {
        let spec = flow_spec();
        let options = VerifierOptions::default();
        let engine = Engine::load_with_reuse(spec.clone(), options, ReuseMode::Preproc).unwrap();
        let property = never("never-broken", &spec, "Broken");
        let reference = engine.check_with_reference_phase2(&property).unwrap();
        assert_eq!(reference.outcome, VerificationOutcome::Satisfied);
        // The reference oracle reports no cycle statistics.
        assert!(reference.repeated_stats.is_some() && reference.repeated_cycle.is_none());
        assert_eq!(engine.cached_reports(), 0);
        let filtered = engine.check(&property).unwrap();
        assert!(filtered.repeated_cycle.is_some());
        assert_eq!(engine.cached_reports(), 1);
        let again = engine.check_with_reference_phase2(&property).unwrap();
        assert!(again.repeated_cycle.is_none(), "answered from the cache");
        assert_eq!(engine.cached_reports(), 1);
    }

    #[test]
    fn a_cold_delta_carries_nothing() {
        let spec = flow_spec();
        let prior = Engine::load(spec.clone()).unwrap();
        prior.check(&never("cold-base", &spec, "Done")).unwrap();
        let (fresh, summary) = Engine::load_delta(&prior, spec, ReuseMode::Cold).unwrap();
        assert_eq!(summary.preps_carried, 0);
        assert_eq!(summary.reports_carried, 0);
        assert_eq!(fresh.cached_preprocessings(), 0);
        assert_eq!(fresh.cached_reports(), 0);
    }

    #[test]
    fn a_changed_spec_carries_no_stale_artefacts() {
        let spec = flow_spec();
        let prior = Engine::load(spec.clone()).unwrap();
        prior.check(&never("stale", &spec, "Done")).unwrap();
        // Change the root's service guard: its slice hash moves, so
        // nothing may be carried.
        let mut edited = spec.clone();
        edited.tasks[0].services[1].pre = Condition::neq(Term::var(VarId::new(0)), Term::Null);
        let (warm, summary) =
            Engine::load_delta(&prior, edited.clone(), ReuseMode::Preproc).unwrap();
        assert_eq!(summary.tasks_unchanged, 0);
        assert_eq!(summary.preps_carried, 0);
        assert_eq!(summary.reports_carried, 0);
        // The edited engine still verifies correctly from scratch.
        let report = warm.check(&never("stale", &edited, "Done")).unwrap();
        assert_eq!(report.outcome, VerificationOutcome::Violated);
    }
}
