//! # VERIFAS — a practical verifier for artifact systems
//!
//! Façade crate of the VERIFAS workspace.  The public API is the
//! session-oriented [`Engine`]: load a HAS\* specification once, then
//! serve many verification requests against it.
//!
//! ```
//! use verifas::prelude::*;
//! # use verifas::model::schema::attr::data;
//! # let mut db = DatabaseSchema::new();
//! # db.add_relation("ITEMS", vec![data("name")]).unwrap();
//! # let mut root = TaskBuilder::new("Orders");
//! # let status = root.data_var("status");
//! # root.service_parts("Place", Condition::eq(Term::var(status), Term::Null),
//! #     Condition::eq(Term::var(status), Term::str("Placed")), vec![], None);
//! # let mut builder = SpecBuilder::new("docs", db, root.build());
//! # builder.global_pre(Condition::eq(Term::var(status), Term::Null));
//! # let spec = builder.build().unwrap();
//! # let property = LtlFoProperty::new("no-ghost", spec.root(), vec![],
//! #     Ltl::globally(Ltl::not(Ltl::prop(0))),
//! #     vec![PropAtom::Condition(Condition::eq(Term::var(VarId::new(0)), Term::str("Ghost")))]);
//! let engine = Engine::load(spec)?;
//!
//! // One-shot check with the engine defaults…
//! let report = engine.check(&property)?;
//! println!("{:?} — {}", report.outcome, report.to_json());
//!
//! // …or a fully configured request.
//! let mut on_progress = |event: &ProgressEvent| eprintln!("{event:?}");
//! let report = engine
//!     .verification()
//!     .property(&property)
//!     .options(VerifierOptions::default())
//!     .observer(&mut on_progress)
//!     .deadline(std::time::Duration::from_secs(10))
//!     .run()?;
//! # assert_eq!(report.outcome, VerificationOutcome::Satisfied);
//! # Ok::<(), verifas::VerifasError>(())
//! ```
//!
//! Batches of properties over one specification should use
//! [`Engine::check_all`], which builds the spec-side preprocessing (the
//! expression universe, the compiled symbolic task and the static-analysis
//! constraint graph) once per task and schedules the per-property searches
//! through the sharded batch scheduler (`verifas::core::schedule`): wide
//! while properties are queued, with cores freed by finished properties
//! reassigned to still-running searches.  `Engine::batch()` exposes the
//! batch-level knobs ([`BatchOptions`], a [`CancelToken`], a streaming
//! result callback); scheduling never changes a result.
//!
//! The deprecated one-shot `Verifier` front-end of pre-0.2 releases has
//! been removed; [`Engine::load_with_options`] followed by
//! [`Engine::check`] replaces `Verifier::new(..)?.verify()`.
//!
//! ## Workspace layout
//!
//! * [`model`] — the HAS\* specification language and its concrete
//!   operational semantics (`verifas-model`),
//! * [`ltl`] — LTL / LTL-FO properties and Büchi automata (`verifas-ltl`),
//! * [`core`] — the symbolic verifier and the engine (`verifas-core`),
//! * [`spec`] — the textual `.has` frontend: parse a specification and
//!   its properties from a file and drive the engine from text
//!   (`verifas-spec`; see the `verifas` CLI binary and `examples/specs/`),
//! * [`serve`] — the multi-tenant verification service behind
//!   `verifas serve`: session cache, priority-class core arbitration and
//!   a dependency-free HTTP/1.1 front end (`verifas-serve`),
//! * [`workloads`] — benchmark workflows, the synthetic generator and the
//!   cyclomatic-complexity metric (`verifas-workloads`),
//! * [`fuzzgen`] — the seeded valid-spec generator and differential
//!   oracle matrix behind `verifas fuzz` (`verifas-fuzzgen`).
//!
//! See the repository `README.md` for a quickstart — the `.has` textual
//! path (`verifas check examples/specs/loan_approval.has`) is the fastest
//! way to put a new scenario through the engine without writing Rust.

pub use verifas_core as core;
pub use verifas_fuzzgen as fuzzgen;
pub use verifas_ltl as ltl;
pub use verifas_model as model;
pub use verifas_serve as serve;
pub use verifas_spec as spec;
pub use verifas_workloads as workloads;

pub use verifas_core::{
    BatchBuilder, BatchOptions, CancelToken, CycleStats, DeltaSummary, Engine, OccupancySample,
    Phase, ProgressEvent, ProgressObserver, ReuseMode, ScheduleStats, SearchLimits, SearchStats,
    SourceSpan, SpecDelta, ThreadBudget, VerifasError, VerificationBuilder, VerificationOutcome,
    VerificationReport, VerifierOptions, Witness, WitnessStep, WorkerStats,
};
pub use verifas_spec::{CompiledSpec, SpecError};

/// Everything a typical engine user needs, in one import.
///
/// ```
/// use verifas::prelude::*;
/// ```
pub mod prelude {
    pub use verifas_core::{
        BatchBuilder, BatchOptions, CancelToken, CoverageKind, CycleStats, DeltaSummary, Engine,
        OccupancySample, Phase, ProgressEvent, ProgressObserver, ReuseMode, ScheduleStats,
        SearchLimits, SearchStats, SourceSpan, SpecDelta, ThreadBudget, VerifasError,
        VerificationBuilder, VerificationOutcome, VerificationReport, VerifierOptions, Witness,
        WitnessStep, WorkerStats,
    };
    pub use verifas_ltl::{Ltl, LtlFoProperty, PropAtom};
    pub use verifas_model::{
        Condition, DatabaseSchema, HasSpec, ServiceRef, SpecBuilder, TaskBuilder, TaskId, Term,
        VarId,
    };
    pub use verifas_spec::{CompiledSpec, SpecError};
}
