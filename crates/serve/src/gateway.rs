//! The gateway: the transport-independent heart of `verifas serve`.
//!
//! A [`Gateway`] owns the server-global components — the
//! [`SessionCache`] of loaded engines, the [`RequestTable`] that admits,
//! queues, cancels and splits the cores between requests, the optional
//! [`MemoryBudget`] that byte-accounts live search state and the
//! [`Metrics`] registry — and runs one verification request end to end:
//! compile, look up (or load) the session, admit or queue, stream
//! per-property frames as searches finish, emit the terminal `done`
//! frame, release the cores.
//!
//! It is deliberately transport-free: [`Gateway::submit`] writes frames
//! through a caller-supplied sink, so the HTTP layer (`crate::http`),
//! in-process tests and any future transport share exactly one request
//! path.  `submit` runs on the *caller's* thread — the server's
//! connection pool provides the concurrency, and the request table
//! decides how many cores each concurrent call may use.
//!
//! A request's table entry (its lane place or slot, its cores and its
//! cancel token) and its terminal lifecycle counter are released by a
//! single RAII guard, so no exit path (including a panic unwinding out
//! of the engine, e.g. one injected by a [`FaultPlan`]) can leak a
//! gauge.

use crate::admission::{AdmissionLimits, PriorityClass, RequestId, RequestTable};
use crate::error::ServeError;
use crate::faults::{FaultPlan, FaultSite};
use crate::metrics::{type_line, write_metric, Metrics, RequestOutcome};
use crate::protocol::{
    admitted_frame, done_frame, hash_frame, queued_frame, report_error_frame, report_frame,
    VerifyRequest,
};
use crate::session::SessionCache;
use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};
use verifas_core::{
    spec_hash, spec_hash_hex, BatchSummary, CancelToken, MemoryBudget, ReuseMode, VerifasError,
};
use verifas_ltl::LtlFoProperty;
use verifas_spec::compile;

/// A frame sink: receives each response line (without the trailing
/// newline) as soon as it is produced.
pub type FrameSink<'f> = &'f (dyn Fn(&str) + Send + Sync);

/// Configuration of a [`Gateway`] (and therefore of a server).
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// The server-global core budget the request table splits.
    pub cores: usize,
    /// How many loaded engine sessions the LRU keeps.
    pub sessions: usize,
    /// Per-class admission limits and queue depth.
    pub limits: AdmissionLimits,
    /// How much an edited spec reuses from a delta-compatible cached
    /// session (see [`verifas_core::ReuseMode`]).  The default,
    /// [`ReuseMode::Preproc`], carries preprocessing and finished
    /// reports; [`ReuseMode::Cold`] disables upgrades entirely.
    pub reuse: ReuseMode,
    /// Soft server-wide memory budget, in bytes.  When non-zero, live
    /// search state is byte-accounted against one shared
    /// [`MemoryBudget`] — a search that would push past it degrades to a
    /// typed [`VerifasError::ResourceExhausted`] report error instead of
    /// growing without bound — and the session cache additionally evicts
    /// by resident-byte estimate toward the same figure.  `0` (the
    /// default) disables memory accounting.
    pub memory_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            sessions: 8,
            limits: AdmissionLimits::default(),
            reuse: ReuseMode::Preproc,
            memory_bytes: 0,
        }
    }
}

/// The transport-independent server core (see module docs).
pub struct Gateway {
    sessions: SessionCache,
    requests: RequestTable,
    metrics: Metrics,
    reuse: ReuseMode,
    memory: Option<MemoryBudget>,
    faults: Option<Arc<FaultPlan>>,
}

impl Gateway {
    /// A gateway with the given configuration and no fault injection.
    pub fn new(config: ServeConfig) -> Self {
        Gateway::with_faults(config, None)
    }

    /// A gateway with the given configuration and an optional seeded
    /// [`FaultPlan`] (chaos tests and `verifas serve --fault-plan`).
    pub fn with_faults(config: ServeConfig, faults: Option<Arc<FaultPlan>>) -> Self {
        Gateway {
            sessions: SessionCache::with_max_bytes(config.sessions, config.memory_bytes),
            requests: RequestTable::new(config.limits, config.cores),
            metrics: Metrics::new(),
            reuse: config.reuse,
            memory: (config.memory_bytes > 0).then(|| MemoryBudget::new(config.memory_bytes)),
            faults,
        }
    }

    /// Does the fault plan (if any) fire at `site` right now?  Counts
    /// every fired fault in the metrics registry.  Public so the HTTP
    /// layer can drive its socket-level fault sites off the same plan.
    pub fn fault_fires(&self, site: FaultSite) -> bool {
        match &self.faults {
            Some(plan) if plan.fires(site) => {
                self.metrics.fault_injected();
                true
            }
            _ => false,
        }
    }

    /// Run one verification request end to end, pushing response frames
    /// through `emit` as they are produced.
    ///
    /// Errors are only returned *before* the first frame is emitted
    /// (compile failure, unknown property, spec-load failure, admission
    /// refusal on queue overflow) — the transport can still map them to
    /// a status code.  Once the first frame (`queued` or `admitted`) is
    /// out, every later failure is a per-property `report` frame with an
    /// `error` member, and the stream always ends with a `done` frame.
    pub fn submit(
        &self,
        request: &VerifyRequest,
        emit: FrameSink<'_>,
    ) -> Result<BatchSummary, ServeError> {
        let compiled = compile(&request.spec).map_err(VerifasError::from)?;
        let properties = select_properties(compiled.properties, request.properties.as_deref())?;
        let hash = spec_hash(&compiled.spec);
        let spec = compiled.spec;

        // Load (or upgrade) the session *before* admission, so every
        // typed refusal stays ahead of the first frame.  The eviction
        // fault site races a forced LRU eviction against the lookup —
        // the Arc-per-session design must shrug it off.
        if self.fault_fires(FaultSite::EvictRace) {
            self.sessions.evict_lru();
        }
        let (engine, reuse) = self.sessions.get_or_upgrade(hash, spec, self.reuse)?;

        // Fix the absolute deadline before queueing: time spent waiting
        // in the admission queue counts against it.  The clock-skew
        // fault perturbs it here — exactly where a skewed host clock
        // would.
        let mut budget_ms = request.deadline_ms.map(|ms| ms as i64);
        if budget_ms.is_some() && self.fault_fires(FaultSite::ClockSkew) {
            let skew = self.faults.as_ref().map_or(0, |plan| plan.skew_ms());
            budget_ms = budget_ms.map(|ms| (ms + skew).max(0));
        }
        let deadline = budget_ms.map(|ms| Instant::now() + Duration::from_millis(ms as u64));

        let token = CancelToken::new();
        let (id, position) = self
            .requests
            .enter(request.class, token.clone())
            .inspect_err(|_| self.metrics.rejected(request.class))?;

        // From here on the request is in the table (cancellable even
        // while queued), and the guard releases its entry and records its
        // terminal lifecycle counter on *every* exit path — including a
        // panic unwinding through this frame.
        let guard = RequestGuard {
            gateway: self,
            id,
            class: request.class,
            outcome: Cell::new(None),
        };

        if let Some(position) = position {
            self.metrics.queued(request.class);
            emit(&queued_frame(
                id,
                request.class,
                position,
                RequestTable::retry_hint_ms(position),
            ));
            let runs = self.requests.await_turn(id, || {
                token.is_cancelled() || deadline.is_some_and(|at| Instant::now() >= at)
            });
            if !runs {
                // Cancelled or expired while still waiting: nothing ran,
                // so the batch reports itself fully aborted.
                let summary = BatchSummary {
                    properties: properties.len(),
                    completed: 0,
                    cancelled: properties.len(),
                    errors: 0,
                    aborted: true,
                };
                emit(&done_frame(id, &summary));
                guard.outcome.set(Some(RequestOutcome::Cancelled));
                return Ok(summary);
            }
        }

        self.metrics.admitted(request.class);
        // The batch runs on the handle, so every revision of our cores
        // reaches it, whenever it lands.
        let handle = self
            .requests
            .running(id)
            .expect("an admitted request runs until its guard releases it");
        emit(&admitted_frame(
            id,
            &spec_hash_hex_of(hash),
            reuse,
            request.class,
            handle.total(),
            properties.len(),
        ));

        let on_event = |_index: usize, event: &verifas_core::ProgressEvent| {
            // The worker-panic fault site detonates inside a search
            // worker; the engine's per-job containment must turn it into
            // a typed per-property error without losing the batch.
            if self.fault_fires(FaultSite::WorkerPanic) {
                panic!("injected fault: worker panic mid-search");
            }
            self.metrics.observe_event(event);
        };
        let mut on_result =
            |index: usize, result: &Result<verifas_core::VerificationReport, VerifasError>| {
                match result {
                    Ok(report) => emit(&report_frame(id, index, report)),
                    Err(e) => {
                        match e {
                            VerifasError::ResourceExhausted { .. } => {
                                self.metrics.resource_exhausted();
                            }
                            VerifasError::Internal { reason }
                                if reason.contains("worker panicked") =>
                            {
                                self.metrics.worker_panicked();
                            }
                            _ => {}
                        }
                        emit(&report_error_frame(id, index, &e.to_string()));
                    }
                }
                self.metrics.report_streamed();
            };
        let mut batch = engine
            .batch()
            .cancel_token(token.clone())
            .scheduler_handle(&handle)
            .on_event(&on_event)
            .on_result(&mut on_result);
        // Per-request search limits: unlike the wall-clock deadline these
        // are deterministic, so a bounded request replays bit-identically
        // (the fuzz harness's served arm depends on this).
        if request.max_states.is_some() || request.max_millis.is_some() {
            let mut options = engine.options();
            if let Some(max_states) = request.max_states {
                options.limits.max_states = max_states;
            }
            if let Some(max_millis) = request.max_millis {
                options.limits.max_millis = max_millis;
            }
            batch = batch.options(options);
        }
        if let Some(budget) = &self.memory {
            batch = batch.memory_budget(budget);
        }
        if let Some(at) = deadline {
            batch = batch.deadline(at.saturating_duration_since(Instant::now()));
        }
        let (_results, summary) = batch.run_with_summary(&properties);

        emit(&done_frame(id, &summary));
        guard.outcome.set(Some(outcome_of(&summary)));
        Ok(summary)
    }

    /// Cancel an in-flight (or still-queued) request by id.  Returns
    /// whether the id was found (an unknown or already-finished id is
    /// not an error: the race between completion and cancellation is
    /// inherent).
    pub fn cancel(&self, id: RequestId) -> bool {
        self.requests.cancel(id)
    }

    /// Cancel every in-flight request (server shutdown).  Returns how
    /// many requests were signalled.
    pub fn cancel_all(&self) -> usize {
        self.requests.cancel_all()
    }

    /// Compile `source` and return `(spec name, canonical hash)` — the
    /// `/v1/hash` endpoint and the `verifas hash` subcommand.
    pub fn hash_text(&self, source: &str) -> Result<(String, String), ServeError> {
        let compiled = compile(source).map_err(VerifasError::from)?;
        Ok((compiled.spec.name.clone(), spec_hash_hex(&compiled.spec)))
    }

    /// Render the hash response frame for `/v1/hash`.
    pub fn hash_frame_for(&self, source: &str) -> Result<String, ServeError> {
        let (name, hex) = self.hash_text(source)?;
        Ok(hash_frame(&name, &hex))
    }

    /// The full `/metrics` document: the counter registry plus gauges
    /// owned by the gateway's components.
    pub fn metrics_text(&self) -> String {
        let mut out = String::new();
        self.metrics.render_into(&mut out);
        let stats = self.sessions.stats();
        type_line(&mut out, "verifas_session_cache_lookups_total", "counter");
        write_metric(
            &mut out,
            "verifas_session_cache_lookups_total",
            &[("result", "hit")],
            stats.hits,
        );
        write_metric(
            &mut out,
            "verifas_session_cache_lookups_total",
            &[("result", "miss")],
            stats.misses,
        );
        type_line(&mut out, "verifas_session_cache_upgrades_total", "counter");
        write_metric(
            &mut out,
            "verifas_session_cache_upgrades_total",
            &[],
            stats.upgrades,
        );
        type_line(&mut out, "verifas_session_cache_evictions_total", "counter");
        write_metric(
            &mut out,
            "verifas_session_cache_evictions_total",
            &[],
            stats.evictions,
        );
        type_line(&mut out, "verifas_session_cache_entries", "gauge");
        write_metric(
            &mut out,
            "verifas_session_cache_entries",
            &[],
            stats.cached as u64,
        );
        type_line(&mut out, "verifas_session_cache_resident_bytes", "gauge");
        write_metric(
            &mut out,
            "verifas_session_cache_resident_bytes",
            &[],
            self.sessions.resident_bytes() as u64,
        );
        type_line(&mut out, "verifas_requests_in_flight", "gauge");
        for class in PriorityClass::ALL {
            write_metric(
                &mut out,
                "verifas_requests_in_flight",
                &[("class", class.name())],
                self.requests.in_flight(class) as u64,
            );
        }
        type_line(&mut out, "verifas_queue_depth", "gauge");
        for class in PriorityClass::ALL {
            write_metric(
                &mut out,
                "verifas_queue_depth",
                &[("class", class.name())],
                self.requests.queued_len(class) as u64,
            );
        }
        type_line(&mut out, "verifas_cores_total", "gauge");
        write_metric(
            &mut out,
            "verifas_cores_total",
            &[],
            self.requests.total_cores() as u64,
        );
        type_line(&mut out, "verifas_memory_budget_bytes", "gauge");
        write_metric(
            &mut out,
            "verifas_memory_budget_bytes",
            &[],
            self.memory.as_ref().map_or(0, MemoryBudget::limit_bytes) as u64,
        );
        type_line(&mut out, "verifas_memory_used_bytes", "gauge");
        write_metric(
            &mut out,
            "verifas_memory_used_bytes",
            &[],
            self.memory.as_ref().map_or(0, MemoryBudget::used_bytes) as u64,
        );
        // What this server's session upgrades carried over.
        type_line(&mut out, "verifas_delta_preps_carried_total", "counter");
        write_metric(
            &mut out,
            "verifas_delta_preps_carried_total",
            &[],
            stats.preps_carried,
        );
        type_line(&mut out, "verifas_delta_reports_carried_total", "counter");
        write_metric(
            &mut out,
            "verifas_delta_reports_carried_total",
            &[],
            stats.reports_carried,
        );
        // Process-wide, from the core's counter registry.
        type_line(&mut out, "verifas_delta_reports_reused_total", "counter");
        write_metric(
            &mut out,
            "verifas_delta_reports_reused_total",
            &[],
            verifas_core::counters::reports_reused() as u64,
        );
        out
    }

    /// The session cache (tests and diagnostics).
    pub fn sessions(&self) -> &SessionCache {
        &self.sessions
    }

    /// The table of queued and running requests (tests and
    /// diagnostics).
    pub fn requests(&self) -> &RequestTable {
        &self.requests
    }

    /// The counter registry (tests and diagnostics).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The fault plan, when one is installed (tests and diagnostics).
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_deref()
    }
}

/// Releases the request's table entry (its lane place or slot, its cores,
/// its cancel token) and records its terminal lifecycle counter, exactly
/// once, on every exit path out of [`Gateway::submit`].  Cleanup lives in `Drop` so a panic unwinding
/// through the request path (a real bug, or a [`FaultPlan`] detonation)
/// can never leak a gauge.
struct RequestGuard<'g> {
    gateway: &'g Gateway,
    id: RequestId,
    class: PriorityClass,
    /// The recorded terminal outcome; `None` (a panic escaped before the
    /// `done` frame) finishes as [`RequestOutcome::Failed`].
    outcome: Cell<Option<RequestOutcome>>,
}

impl Drop for RequestGuard<'_> {
    fn drop(&mut self) {
        self.gateway.requests.release(self.id);
        self.gateway.metrics.finished(
            self.class,
            self.outcome.get().unwrap_or(RequestOutcome::Failed),
        );
    }
}

/// Resolve the requested property names (or all, in declaration order)
/// against the compiled spec's property list.
fn select_properties(
    all: Vec<LtlFoProperty>,
    requested: Option<&[String]>,
) -> Result<Vec<LtlFoProperty>, ServeError> {
    match requested {
        None => Ok(all),
        Some(names) => names
            .iter()
            .map(|name| {
                all.iter()
                    .find(|property| &property.name == name)
                    .cloned()
                    .ok_or_else(|| ServeError::UnknownProperty { name: name.clone() })
            })
            .collect(),
    }
}

fn outcome_of(summary: &BatchSummary) -> RequestOutcome {
    if summary.aborted {
        RequestOutcome::Cancelled
    } else if summary.errors > 0 {
        RequestOutcome::Failed
    } else {
        RequestOutcome::Completed
    }
}

fn spec_hash_hex_of(hash: u64) -> String {
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use verifas_core::{Engine, Json};

    const SPEC: &str = r#"
spec "tiny";
schema { relation R(a: data); }
task Root {
    vars { status: data }
    service go {
        pre: status == null;
        post: status == "Done";
    }
}
init: status == null;
property "reaches-done" on Root {
    formula: F { status == "Done" };
}
property "never-done" on Root {
    formula: G !{ status == "Done" };
}
"#;

    fn collected(gateway: &Gateway, request: &VerifyRequest) -> (Vec<String>, BatchSummary) {
        let frames = Mutex::new(Vec::new());
        let sink = |line: &str| frames.lock().unwrap().push(line.to_owned());
        let summary = gateway.submit(request, &sink).unwrap();
        (frames.into_inner().unwrap(), summary)
    }

    fn request(spec: &str) -> VerifyRequest {
        VerifyRequest {
            spec: spec.to_owned(),
            class: PriorityClass::Interactive,
            properties: None,
            deadline_ms: None,
            max_states: None,
            max_millis: None,
        }
    }

    fn frame_kind(line: &str) -> String {
        Json::parse(line)
            .unwrap()
            .get("frame")
            .and_then(Json::as_str)
            .unwrap()
            .to_owned()
    }

    #[test]
    fn submit_streams_admitted_reports_done() {
        let gateway = Gateway::new(ServeConfig {
            cores: 2,
            sessions: 2,
            ..ServeConfig::default()
        });
        let (frames, summary) = collected(&gateway, &request(SPEC));
        assert_eq!(frames.len(), 4, "admitted + 2 reports + done: {frames:?}");
        let first = Json::parse(&frames[0]).unwrap();
        assert_eq!(first.get("frame").and_then(Json::as_str), Some("admitted"));
        assert_eq!(first.get("session").and_then(Json::as_str), Some("miss"));
        assert_eq!(first.get("properties").and_then(Json::as_u64), Some(2));
        let last = Json::parse(frames.last().unwrap()).unwrap();
        assert_eq!(last.get("frame").and_then(Json::as_str), Some("done"));
        assert_eq!(summary.properties, 2);
        assert_eq!(summary.completed, 2);
        assert!(!summary.aborted);
        // The request released its table entry: its slot, its cores and
        // its cancel token.
        assert_eq!(gateway.requests().in_flight(PriorityClass::Interactive), 0);
        assert!(gateway.requests().is_empty());
    }

    #[test]
    fn resubmission_hits_the_session_cache() {
        let gateway = Gateway::new(ServeConfig::default());
        let (_, _) = collected(&gateway, &request(SPEC));
        // Same spec, different formatting: same lowered structure.
        let reformatted = SPEC.replace("  ", "\t").replace("property", "\nproperty");
        let (frames, _) = collected(&gateway, &request(&reformatted));
        let first = Json::parse(&frames[0]).unwrap();
        assert_eq!(first.get("session").and_then(Json::as_str), Some("hit"));
        let stats = gateway.sessions().stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    /// A two-task spec whose root can be edited (widening `go`'s guard
    /// with an already-present constant) while the child slice — and the
    /// spec's constant set — stays bit-identical.
    const PAIR: &str = r#"
spec "pair";
schema { relation R(a: data); }
task Root {
    vars { status: data, result: data }
    service go {
        pre: status == null;
        post: status == "Done";
    }
}
task Child child of Root {
    vars { result: data }
    outputs { result }
    opening: true;
    closing: result == "Done";
}
init: status == null;
property "reaches-done" on Root {
    formula: F { status == "Done" };
}
"#;

    /// The value of one unlabelled series in a `/metrics` text.
    fn series(text: &str, name: &str) -> Option<u64> {
        text.lines()
            .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
    }

    #[test]
    fn an_edited_spec_upgrades_a_compatible_session() {
        // A property on the child gives the upgrade something to carry.
        let pair = format!(
            "{PAIR}property \"child-done\" on Child {{\n    formula: F {{ result == \"Done\" }};\n}}\n"
        );
        let gateway = Gateway::new(ServeConfig::default());
        let (_, _) = collected(&gateway, &request(&pair));
        // A root-local edit leaves the child slice reusable: the session
        // cache upgrades the prior engine instead of cold-loading.
        let edited = pair.replace(
            "pre: status == null;",
            "pre: status == null || status == \"Done\";",
        );
        assert_ne!(edited, pair);
        let (frames, summary) = collected(&gateway, &request(&edited));
        let first = Json::parse(&frames[0]).unwrap();
        assert_eq!(first.get("session").and_then(Json::as_str), Some("miss"));
        assert_eq!(first.get("reuse").and_then(Json::as_str), Some("preproc"));
        assert_eq!(summary.completed, 2);
        let stats = gateway.sessions().stats();
        assert_eq!(stats.upgrades, 1);
        assert_eq!((stats.preps_carried, stats.reports_carried), (1, 1));
        let text = gateway.metrics_text();
        assert!(text.contains("verifas_session_cache_upgrades_total 1"));
        let carried = |text: &str| {
            (
                series(text, "verifas_delta_preps_carried_total"),
                series(text, "verifas_delta_reports_carried_total"),
            )
        };
        assert_eq!(
            carried(&text),
            (Some(stats.preps_carried), Some(stats.reports_carried))
        );

        // A delta load outside the gateway is not this server's work.
        let compiled = compile(&edited).unwrap();
        let direct = Engine::load(compiled.spec.clone()).unwrap();
        direct.check_all(&compiled.properties);
        let (_, direct_summary) =
            Engine::load_delta(&direct, compiled.spec, ReuseMode::Preproc).unwrap();
        assert!(direct_summary.preps_carried > 0);
        assert_eq!(carried(&gateway.metrics_text()), carried(&text));

        // An incompatible edit (schema change) falls back to a cold load.
        let reschema = PAIR.replace("relation R(a: data);", "relation R(a: data, b: data);");
        assert_ne!(reschema, PAIR);
        let (frames, _) = collected(&gateway, &request(&reschema));
        let first = Json::parse(&frames[0]).unwrap();
        assert_eq!(first.get("session").and_then(Json::as_str), Some("miss"));
        assert_eq!(first.get("reuse").and_then(Json::as_str), Some("cold"));
    }

    #[test]
    fn cold_reuse_mode_disables_upgrades() {
        let gateway = Gateway::new(ServeConfig {
            reuse: ReuseMode::Cold,
            ..ServeConfig::default()
        });
        let (_, _) = collected(&gateway, &request(PAIR));
        let edited = PAIR.replace(
            "pre: status == null;",
            "pre: status == null || status == \"Done\";",
        );
        let (frames, _) = collected(&gateway, &request(&edited));
        let first = Json::parse(&frames[0]).unwrap();
        assert_eq!(first.get("reuse").and_then(Json::as_str), Some("cold"));
        assert_eq!(gateway.sessions().stats().upgrades, 0);
    }

    #[test]
    fn named_property_selection_and_unknown_property() {
        let gateway = Gateway::new(ServeConfig::default());
        let mut req = request(SPEC);
        req.properties = Some(vec!["never-done".to_owned()]);
        let (frames, summary) = collected(&gateway, &req);
        assert_eq!(summary.properties, 1);
        let report = Json::parse(&frames[1]).unwrap();
        assert_eq!(
            report
                .get("report")
                .and_then(|r| r.get("property"))
                .and_then(Json::as_str),
            Some("never-done")
        );

        req.properties = Some(vec!["nope".to_owned()]);
        let err = gateway.submit(&req, &|_| {}).unwrap_err();
        assert_eq!(
            err,
            ServeError::UnknownProperty {
                name: "nope".to_owned()
            }
        );
        // Refused before admission: nothing leaked into the request
        // table.
        assert_eq!(gateway.requests().in_flight(PriorityClass::Interactive), 0);
        assert!(gateway.requests().is_empty());
    }

    #[test]
    fn an_over_limit_request_queues_then_runs() {
        let gateway = Gateway::new(ServeConfig {
            cores: 2,
            limits: AdmissionLimits {
                max_interactive: 1,
                max_batch: 1,
                queue_depth: 4,
            },
            ..ServeConfig::default()
        });
        // Occupy the single interactive slot directly, so the submit
        // below must queue behind it.
        let (occupier, position) = gateway
            .requests()
            .enter(PriorityClass::Interactive, CancelToken::new())
            .unwrap();
        assert_eq!(position, None);
        std::thread::scope(|scope| {
            let gateway = &gateway;
            let worker = scope.spawn(move || collected(gateway, &request(SPEC)));
            // Wait until the request is visibly queued, then free the
            // slot it is waiting for.
            while gateway.requests().queued_len(PriorityClass::Interactive) == 0 {
                std::thread::sleep(Duration::from_millis(5));
            }
            gateway.requests().release(occupier);
            let (frames, summary) = worker.join().unwrap();
            let kinds: Vec<_> = frames.iter().map(|f| frame_kind(f)).collect();
            assert_eq!(kinds[0], "queued", "{frames:?}");
            assert_eq!(kinds[1], "admitted");
            assert_eq!(kinds.last().unwrap(), "done");
            let queued = Json::parse(&frames[0]).unwrap();
            assert_eq!(queued.get("position").and_then(Json::as_u64), Some(1));
            assert!(queued.get("retry_ms").and_then(Json::as_u64).unwrap() >= 50);
            assert_eq!(summary.completed, 2);
        });
        assert_eq!(gateway.requests().in_flight(PriorityClass::Interactive), 0);
        assert!(gateway.requests().is_empty());
        let text = gateway.metrics_text();
        assert!(text.contains("verifas_requests_queued_total{class=\"interactive\"} 1"));
    }

    #[test]
    fn queue_overflow_is_the_only_refusal() {
        let gateway = Gateway::new(ServeConfig {
            limits: AdmissionLimits {
                max_interactive: 1,
                max_batch: 1,
                queue_depth: 1,
            },
            ..ServeConfig::default()
        });
        // Fill the slot and the whole queue.
        let requests = gateway.requests();
        let (occupier, _) = requests
            .enter(PriorityClass::Interactive, CancelToken::new())
            .unwrap();
        let (waiter, position) = requests
            .enter(PriorityClass::Interactive, CancelToken::new())
            .unwrap();
        assert_eq!(position, Some(1));
        let err = gateway.submit(&request(SPEC), &|_| {}).unwrap_err();
        assert!(matches!(err, ServeError::Overloaded { .. }), "{err:?}");
        // The refusal leaked nothing: the table holds just the occupier
        // and the waiter.
        assert_eq!(requests.in_flight(PriorityClass::Interactive), 1);
        assert_eq!(requests.queued_len(PriorityClass::Interactive), 1);
        let text = gateway.metrics_text();
        assert!(text.contains("verifas_requests_rejected_total{class=\"interactive\"} 1"));
        // The refused arrival still spent an id: ids count arrivals.
        requests.release(occupier);
        requests.release(waiter);
        let (frames, _) = collected(&gateway, &request(SPEC));
        let admitted = Json::parse(&frames[0]).unwrap();
        assert_eq!(admitted.get("request").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn a_deadline_expiring_in_the_queue_aborts_cleanly() {
        let gateway = Gateway::new(ServeConfig {
            limits: AdmissionLimits {
                max_interactive: 1,
                max_batch: 1,
                queue_depth: 4,
            },
            ..ServeConfig::default()
        });
        // Occupy the slot and never release it: the queued request's
        // deadline must expire while it waits.
        gateway
            .requests()
            .enter(PriorityClass::Interactive, CancelToken::new())
            .unwrap();
        let mut req = request(SPEC);
        req.deadline_ms = Some(1);
        let (frames, summary) = collected(&gateway, &req);
        let kinds: Vec<_> = frames.iter().map(|f| frame_kind(f)).collect();
        assert_eq!(kinds, vec!["queued", "done"], "{frames:?}");
        assert!(summary.aborted);
        assert_eq!(summary.completed, 0);
        // The request never held a slot and has left its lane; the
        // occupier still runs.
        assert_eq!(gateway.requests().in_flight(PriorityClass::Interactive), 1);
        assert_eq!(gateway.requests().queued_len(PriorityClass::Interactive), 0);
        let text = gateway.metrics_text();
        assert!(text.contains(
            "verifas_requests_finished_total{class=\"interactive\",outcome=\"cancelled\"} 1"
        ));
    }

    #[test]
    fn a_memory_budget_degrades_to_typed_resource_exhaustion() {
        let gateway = Gateway::new(ServeConfig {
            memory_bytes: 1,
            ..ServeConfig::default()
        });
        let frames = Mutex::new(Vec::new());
        let sink = |line: &str| frames.lock().unwrap().push(line.to_owned());
        let summary = gateway.submit(&request(SPEC), &sink).unwrap();
        // Every property hit the 1-byte budget: typed report errors, no
        // abort of the server.
        assert_eq!(summary.errors, 2, "{summary:?}");
        let frames = frames.into_inner().unwrap();
        let report = Json::parse(&frames[1]).unwrap();
        let message = report.get("error").and_then(Json::as_str).unwrap();
        assert!(message.contains("memory budget"), "{message}");
        let text = gateway.metrics_text();
        assert!(text.contains("verifas_resource_exhausted_total 2"));
        assert!(text.contains("verifas_memory_budget_bytes 1"));
    }

    #[test]
    fn an_injected_worker_panic_is_contained() {
        let plan = Arc::new(FaultPlan::new(7).with_rate(FaultSite::WorkerPanic, 1));
        let gateway = Gateway::with_faults(ServeConfig::default(), Some(plan));
        let (frames, summary) = collected(&gateway, &request(SPEC));
        // Every search panicked at its first progress event; each panic
        // became a typed per-property error and the stream still ended
        // with `done`.
        assert_eq!(summary.errors, 2, "{summary:?}");
        assert_eq!(frame_kind(frames.last().unwrap()), "done");
        let report = Json::parse(&frames[1]).unwrap();
        let message = report.get("error").and_then(Json::as_str).unwrap();
        assert!(message.contains("panicked"), "{message}");
        // Nothing leaked: the request table is clean.
        assert_eq!(gateway.requests().in_flight(PriorityClass::Interactive), 0);
        assert!(gateway.requests().is_empty());
        assert!(
            gateway
                .faults()
                .unwrap()
                .fired_count(FaultSite::WorkerPanic)
                >= 1
        );
        let text = gateway.metrics_text();
        assert!(text.contains("verifas_worker_panics_total 2"));
    }

    #[test]
    fn metrics_text_reflects_traffic() {
        let gateway = Gateway::new(ServeConfig::default());
        let (_, _) = collected(&gateway, &request(SPEC));
        let text = gateway.metrics_text();
        assert!(text.contains("verifas_requests_admitted_total{class=\"interactive\"} 1"));
        assert!(text.contains(
            "verifas_requests_finished_total{class=\"interactive\",outcome=\"completed\"} 1"
        ));
        assert!(text.contains("verifas_property_reports_total 2"));
        assert!(text.contains("verifas_session_cache_lookups_total{result=\"miss\"} 1"));
        assert!(text.contains("verifas_session_cache_entries 1"));
        assert!(text.contains("verifas_requests_in_flight{class=\"interactive\"} 0"));
        assert!(text.contains("verifas_queue_depth{class=\"interactive\"} 0"));
        assert!(text.contains("verifas_memory_budget_bytes 0"));
    }

    #[test]
    fn hash_endpoint_matches_core_hash() {
        let gateway = Gateway::new(ServeConfig::default());
        let (name, hex) = gateway.hash_text(SPEC).unwrap();
        assert_eq!(name, "tiny");
        assert_eq!(hex.len(), 16);
        let frame = gateway.hash_frame_for(SPEC).unwrap();
        let parsed = Json::parse(&frame).unwrap();
        assert_eq!(
            parsed.get("spec_hash").and_then(Json::as_str),
            Some(hex.as_str())
        );
    }
}
