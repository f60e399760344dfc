//! The verification options, results and the two-phase run behind
//! `verifas::Engine`.
//!
//! [`run_verification`] runs the Karp–Miller search and the
//! repeated-reachability analysis over a prepared product system.  Every
//! optimisation of Section 3 can be toggled through [`VerifierOptions`] so
//! the ablation experiments of Table 3 can be reproduced:
//!
//! * `state_pruning` (SP) — use the ≼ subsumption order instead of the
//!   classic ≤ order,
//! * `static_analysis` (SA) — drop non-violating constraints,
//! * `data_structure_support` (DSS) — take coverage candidates from the
//!   state's discrete group (and, in the cycle pass, through a signature
//!   filter) instead of scanning every state,
//! * `handle_artifact_relations` — `false` gives the `VERIFAS-NoSet`
//!   configuration,
//! * `check_repeated` — run the repeated-reachability module (needed for
//!   full LTL-FO; without it only finite violations are detected).

use crate::coverage::CoverageKind;
use crate::error::VerifasError;
use crate::observer::SearchControl;
use crate::product::ProductSystem;
use crate::repeated::{
    find_infinite_violation_reference, find_infinite_violation_with, CycleStats, RepeatedOutcome,
};
use crate::search::{
    merge_worker_stats, KarpMillerSearch, SearchLimits, SearchOutcome, SearchStats, WorkerStats,
};
use verifas_model::ServiceRef;

/// Options controlling the verifier (all optimisations enabled by
/// default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifierOptions {
    /// SP — the ≼-based aggressive pruning of Section 3.5.
    pub state_pruning: bool,
    /// SA — the static analysis of Section 3.7.
    pub static_analysis: bool,
    /// DSS — the data-structure support of Section 3.6.
    pub data_structure_support: bool,
    /// Handle updatable artifact relations (`false` = `VERIFAS-NoSet`).
    pub handle_artifact_relations: bool,
    /// Run the repeated-reachability analysis (Section 3.8).
    pub check_repeated: bool,
    /// Worker threads of a single verification: they expand the frontier
    /// of each search phase and build the edges of the
    /// repeated-reachability cycle detection (1 = sequential, 0 = one per
    /// available core).  The verdict and the witness are deterministic
    /// regardless of this setting; see the "Parallel execution" notes on
    /// [`crate::search`] and the cycle-detection notes on
    /// [`crate::repeated`].
    pub search_threads: usize,
    /// Resource limits of each search phase.
    pub limits: SearchLimits,
}

impl Default for VerifierOptions {
    fn default() -> Self {
        VerifierOptions {
            state_pruning: true,
            static_analysis: true,
            data_structure_support: true,
            handle_artifact_relations: true,
            check_repeated: true,
            search_threads: 1,
            limits: SearchLimits::default(),
        }
    }
}

impl VerifierOptions {
    /// The `VERIFAS-NoSet` configuration of the paper: artifact relations
    /// are ignored.
    pub fn no_set() -> Self {
        VerifierOptions {
            handle_artifact_relations: false,
            ..VerifierOptions::default()
        }
    }

    /// Disable one named optimisation (used by the Table 3 ablation):
    /// `"SP"`, `"SA"` or `"DSS"`.
    ///
    /// # Panics
    /// On an unknown name, with a message listing the valid ones — a typo
    /// must not silently run the ablation with every optimisation still
    /// enabled.  Use [`VerifierOptions::try_without`] to handle the error
    /// instead.
    pub fn without(self, optimization: &str) -> Self {
        match self.try_without(optimization) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// Disable one named optimisation (`"SP"`, `"SA"` or `"DSS"`),
    /// reporting unknown names as
    /// [`VerifasError::UnknownOptimization`] (whose message lists
    /// [`crate::error::VALID_OPTIMIZATIONS`]).
    pub fn try_without(self, optimization: &str) -> Result<Self, VerifasError> {
        let mut out = self;
        match optimization {
            "SP" => out.state_pruning = false,
            "SA" => out.static_analysis = false,
            "DSS" => out.data_structure_support = false,
            other => {
                return Err(VerifasError::UnknownOptimization {
                    given: other.to_owned(),
                })
            }
        }
        Ok(out)
    }

    pub(crate) fn coverage(&self) -> CoverageKind {
        if self.state_pruning {
            CoverageKind::Subsumption
        } else {
            CoverageKind::Standard
        }
    }

    pub(crate) fn repeated_coverage(&self) -> CoverageKind {
        if self.state_pruning {
            CoverageKind::StrictSubsumption
        } else {
            CoverageKind::Standard
        }
    }
}

/// The verdict of a verification run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerificationOutcome {
    /// Every local run of the task satisfies the property.
    Satisfied,
    /// Some local run violates the property (see the counterexample).
    Violated,
    /// A resource limit was reached before an answer could be established.
    Inconclusive,
}

/// A violating symbolic local run.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The sequence of observable services of the violating run (for an
    /// infinite violation, the prefix leading to the repeated state).
    pub services: Vec<ServiceRef>,
    /// The same sequence rendered with task/service names.
    pub description: String,
    /// `true` for a finite violating run (the task closes), `false` for an
    /// infinite one.
    pub finite: bool,
}

/// Result of a verification run.
#[derive(Debug, Clone)]
pub struct VerificationResult {
    /// The verdict.
    pub outcome: VerificationOutcome,
    /// A counterexample when the property is violated.
    pub counterexample: Option<Counterexample>,
    /// Statistics of the main search phase.
    pub stats: SearchStats,
    /// Statistics of the repeated-reachability phase (when it ran).
    pub repeated_stats: Option<SearchStats>,
    /// Statistics of the repeated-reachability cycle-detection pass (when
    /// it ran; see [`CycleStats`]).
    pub repeated_cycle: Option<CycleStats>,
    /// Per-worker statistics across both phases (empty for runs made by
    /// engines predating the parallel search).
    pub worker_stats: Vec<WorkerStats>,
    /// Set when planning or edge construction panicked in either phase
    /// (inline or on a worker thread): the run degraded to a limit-stopped
    /// one (any violation already in hand is still sound) and the owning
    /// engine request surfaces the message as a typed
    /// [`VerifasError::Internal`] instead of a report.
    pub failure: Option<String>,
}

impl VerificationResult {
    /// Total elapsed time across phases, in milliseconds.
    pub fn elapsed_ms(&self) -> u64 {
        self.stats.elapsed_ms + self.repeated_stats.map_or(0, |s| s.elapsed_ms)
    }
}

/// Run the two verification phases over a prepared product system under a
/// [`SearchControl`] (observer + cancellation) — the run `verifas::Engine`
/// makes for every request.
pub fn run_verification(
    product: &ProductSystem,
    options: VerifierOptions,
    control: &mut SearchControl<'_>,
) -> VerificationResult {
    run_phases(
        product,
        options.coverage(),
        options.repeated_coverage(),
        options,
        false,
        control,
    )
}

/// The two verification phases under explicit coverage orders: phase 1
/// prunes with `coverage`, phase 2 with `repeated_coverage`.  Of `options`
/// only the DSS flag, the limits, the thread count and `check_repeated`
/// apply; the product already carries the static analysis and the
/// artifact-relation choice.  `reference_phase2` runs phase 2 through the
/// retained O(active²) oracle
/// ([`crate::repeated::find_infinite_violation_reference`]), which
/// produces no [`CycleStats`]; only the fuzz `repeated` arm sets it.
/// [`crate::baseline::BaselineVerifier`] runs this with
/// [`CoverageKind::Equality`] in both phases.
pub(crate) fn run_phases(
    product: &ProductSystem,
    coverage: CoverageKind,
    repeated_coverage: CoverageKind,
    options: VerifierOptions,
    reference_phase2: bool,
    control: &mut SearchControl<'_>,
) -> VerificationResult {
    // Phase 1: reachability search (finds finite violations).
    control.phase = Some(crate::observer::Phase::Reachability);
    let mut search = KarpMillerSearch::new(
        product,
        coverage,
        options.data_structure_support,
        options.limits,
    );
    search.threads = options.search_threads;
    let outcome = search.run_with(control);
    let mut result = VerificationResult {
        outcome: VerificationOutcome::Inconclusive,
        counterexample: None,
        stats: search.stats,
        repeated_stats: None,
        repeated_cycle: None,
        worker_stats: std::mem::take(&mut search.worker_stats),
        failure: std::mem::take(&mut search.failure),
    };
    // Phase 2: repeated reachability for infinite violations.
    let mut repeated = (outcome == SearchOutcome::Exhausted && options.check_repeated).then(|| {
        if reference_phase2 {
            find_infinite_violation_reference(product, repeated_coverage, options.limits)
        } else {
            find_infinite_violation_with(
                product,
                repeated_coverage,
                options.data_structure_support,
                options.limits,
                options.search_threads,
                control,
            )
        }
    });
    if let Some(repeated) = repeated.as_mut() {
        result.repeated_stats = Some(repeated.stats);
        result.repeated_cycle = repeated.cycle;
        result.failure = result.failure.take().or(repeated.failure.take());
        // Merge the repeated phase's pools (auxiliary search + edge
        // construction) into the per-worker totals.
        merge_worker_stats(&mut result.worker_stats, &repeated.worker_stats);
    }
    // A violation's counterexample: finite unless it carries the reason
    // an infinite run repeats.
    let counterexample = |services: Vec<ServiceRef>, reason: Option<String>| {
        let path = describe(product, &services);
        Some(Counterexample {
            services,
            finite: reason.is_none(),
            description: match reason {
                Some(reason) => format!("{path} (infinite run: {reason})"),
                None => path,
            },
        })
    };
    use SearchOutcome::{Exhausted, FiniteViolation, LimitReached};
    use VerificationOutcome::{Inconclusive, Satisfied, Violated};
    (result.outcome, result.counterexample) = match (outcome, repeated) {
        (FiniteViolation(node), _) => {
            let services = search.trace(node).into_iter().map(|(s, _)| s).collect();
            (Violated, counterexample(services, None))
        }
        (LimitReached, _) => (Inconclusive, None),
        (Exhausted, None) => (Satisfied, None),
        (
            Exhausted,
            Some(RepeatedOutcome {
                finite_violation: Some(services),
                ..
            }),
        ) => (Violated, counterexample(services, None)),
        (
            Exhausted,
            Some(RepeatedOutcome {
                violation: Some(v), ..
            }),
        ) => (Violated, counterexample(v.prefix, Some(v.reason))),
        (
            Exhausted,
            Some(RepeatedOutcome {
                limit_reached: true,
                ..
            }),
        ) => (Inconclusive, None),
        (Exhausted, Some(_)) => (Satisfied, None),
    };
    result
}

fn describe(product: &ProductSystem, services: &[ServiceRef]) -> String {
    services
        .iter()
        .map(|s| product.task.spec.service_name(*s))
        .collect::<Vec<_>>()
        .join(" → ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::report::VerificationReport;
    use verifas_ltl::{Ltl, LtlFoProperty, PropAtom};
    use verifas_model::schema::attr::data;
    use verifas_model::{
        Condition, DatabaseSchema, HasSpec, SpecBuilder, TaskBuilder, TaskId, Term,
    };

    /// Root task with a child whose closing requires approval; the root
    /// then archives the result.
    fn approval_spec() -> HasSpec {
        let mut db = DatabaseSchema::new();
        db.add_relation("R", vec![data("a")]).unwrap();
        let mut root = TaskBuilder::new("Main");
        let decision = root.data_var("decision");
        root.service_parts(
            "archive",
            Condition::neq(Term::var(decision), Term::Null),
            Condition::eq(Term::var(decision), Term::Null),
            vec![],
            None,
        );
        let mut b = SpecBuilder::new("approval", db, root.build());
        let mut review = TaskBuilder::new("Review");
        let d = review.data_var("decision");
        review.outputs([d]);
        review.opening_pre(Condition::eq(Term::var(decision), Term::Null));
        review.closing_pre(Condition::or([
            Condition::eq(Term::var(d), Term::str("Approve")),
            Condition::eq(Term::var(d), Term::str("Deny")),
        ]));
        review.service_parts(
            "decide",
            Condition::True,
            Condition::or([
                Condition::eq(Term::var(d), Term::str("Approve")),
                Condition::eq(Term::var(d), Term::str("Deny")),
            ]),
            vec![],
            None,
        );
        b.add_child("Main", review.build()).unwrap();
        b.global_pre(Condition::eq(Term::var(decision), Term::Null));
        b.build().unwrap()
    }

    fn decision_is(v: &str) -> Condition {
        Condition::eq(Term::var(verifas_model::VarId::new(0)), Term::str(v))
    }

    fn check(
        spec: &HasSpec,
        property: &LtlFoProperty,
        options: VerifierOptions,
    ) -> VerificationReport {
        Engine::load_with_options(spec.clone(), options)
            .unwrap()
            .check(property)
            .unwrap()
    }

    #[test]
    fn satisfied_safety_property_on_root_task() {
        // G ¬(decision = "Garbage"): the review child can only return
        // Approve or Deny... but the closing drops constraints lazily, so
        // the verifier conservatively allows any returned value — the
        // property is therefore *violated* symbolically only if "Garbage"
        // is producible; it is not mentioned anywhere, yet the child's
        // output is unconstrained, so the verifier must report a violation.
        // This documents the over-approximation of child returns.
        let spec = approval_spec();
        let property = LtlFoProperty::new(
            "no-garbage",
            TaskId::new(0),
            vec![],
            Ltl::globally(Ltl::not(Ltl::prop(0))),
            vec![PropAtom::Condition(decision_is("Garbage"))],
        );
        let report = check(&spec, &property, VerifierOptions::default());
        assert_eq!(report.outcome, VerificationOutcome::Violated);
        assert!(report.witness.is_some());
    }

    #[test]
    fn violated_property_on_child_task_is_found_with_counterexample() {
        // On the Review task itself: G ¬(decision = "Deny") is violated by
        // a finite local run that decides Deny and closes.
        let spec = approval_spec();
        let property = LtlFoProperty::new(
            "never-deny",
            TaskId::new(1),
            vec![],
            Ltl::globally(Ltl::not(Ltl::prop(0))),
            vec![PropAtom::Condition(decision_is("Deny"))],
        );
        let report = check(&spec, &property, VerifierOptions::default());
        assert_eq!(report.outcome, VerificationOutcome::Violated);
        let witness = report.witness.unwrap();
        assert!(!witness.steps.is_empty());
        assert!(witness.description.contains("Review"));
    }

    #[test]
    fn satisfied_property_on_child_task() {
        // On the Review task: G (close(Review) -> decision ≠ null): the
        // closing condition forces a decision, so this holds.
        let spec = approval_spec();
        let close = verifas_model::ServiceRef::Closing(TaskId::new(1));
        let property = LtlFoProperty::new(
            "closed-means-decided",
            TaskId::new(1),
            vec![],
            Ltl::globally(Ltl::implies(Ltl::prop(0), Ltl::prop(1))),
            vec![
                PropAtom::Service(close),
                PropAtom::Condition(Condition::neq(
                    Term::var(verifas_model::VarId::new(0)),
                    Term::Null,
                )),
            ],
        );
        let report = check(&spec, &property, VerifierOptions::default());
        assert_eq!(report.outcome, VerificationOutcome::Satisfied);
        assert!(report.witness.is_none());
    }

    #[test]
    fn ablation_options_produce_the_same_verdicts() {
        let spec = approval_spec();
        let property = LtlFoProperty::new(
            "never-deny",
            TaskId::new(1),
            vec![],
            Ltl::globally(Ltl::not(Ltl::prop(0))),
            vec![PropAtom::Condition(decision_is("Deny"))],
        );
        let mut verdicts = Vec::new();
        for options in [
            VerifierOptions::default(),
            VerifierOptions::default().without("SP"),
            VerifierOptions::default().without("SA"),
            VerifierOptions::default().without("DSS"),
            VerifierOptions::no_set(),
        ] {
            verdicts.push(check(&spec, &property, options).outcome);
        }
        assert!(verdicts.iter().all(|v| *v == VerificationOutcome::Violated));
    }

    #[test]
    fn elapsed_time_accumulates_phases() {
        let spec = approval_spec();
        let property = LtlFoProperty::new(
            "closed-means-decided",
            TaskId::new(1),
            vec![],
            Ltl::globally(Ltl::prop(0)),
            vec![PropAtom::Condition(Condition::True)],
        );
        let report = check(&spec, &property, VerifierOptions::default());
        assert!(report.elapsed_ms() >= report.stats.elapsed_ms);
    }
}
