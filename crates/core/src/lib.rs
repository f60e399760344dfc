//! # verifas-core — the VERIFAS symbolic verifier
//!
//! This crate implements the verifier described in Section 3 of
//! "VERIFAS: A Practical Verifier for Artifact Systems" (VLDB 2017):
//!
//! * [`expr`] — the finite universe of foreign-key navigation expressions,
//! * [`pit`] — partial isomorphism types with congruence closure,
//! * [`eval`] — condition evaluation producing minimal extensions,
//! * [`psi`] — partial symbolic instances (types + counters + child flags),
//! * [`transition`] — the symbolic `succ` function over one task,
//! * [`product`] — the product with the Büchi automaton of the negated
//!   property,
//! * [`coverage`] — the `≤`, `≼` and `≼⁺` comparison relations (the latter
//!   two via a max-flow reduction),
//! * [`index`] — data-structure support: coverage candidates grouped by
//!   discrete key and gated by `=`-edge signatures, in both search phases
//!   and the cycle pass,
//! * [`arena`] — arena-backed structure-of-arrays storage for the search
//!   tree (deduplicated types, counters and dense node columns),
//! * [`static_analysis`] — the non-violating-edge analysis of Section 3.7,
//! * [`search`] — the Karp–Miller search with monotone pruning and
//!   acceleration,
//! * [`repeated`] — repeated reachability for full LTL-FO support
//!   (Appendix C),
//! * [`schedule`] — the sharded batch scheduler: adaptive core
//!   partitioning between batch width and per-search depth,
//! * [`memory`] — byte-accounted memory budgets: searches lease from a
//!   shared pool and degrade to a typed error instead of an OOM abort,
//! * [`verifier`] — the verification options and results, and the
//!   two-phase run behind the engine,
//! * [`delta`] — structural spec diffing behind incremental
//!   re-verification ([`engine::Engine::load_delta`]),
//! * [`baseline`] — the unoptimised baseline standing in for the Spin-based
//!   verifier of the paper.
//!
//! A crate-private ordered worker pool (`pool`) runs both parallel steps:
//! the search's plan rounds and the cycle pass's edge waves.

pub mod arena;
pub mod baseline;
pub mod counters;
pub mod coverage;
pub mod delta;
pub mod engine;
pub mod error;
pub mod eval;
pub mod expr;
pub mod index;
pub mod json;
pub mod memory;
pub mod observer;
pub mod pit;
mod pool;
pub mod product;
pub mod psi;
pub mod repeated;
pub mod report;
pub mod schedule;
pub mod search;
pub mod static_analysis;
pub mod transition;
pub mod verifier;

pub use arena::{CounterArena, PitArena, StateArena};
pub use baseline::BaselineVerifier;
pub use coverage::{accelerate, covers, CoverageKind};
pub use delta::{fingerprint, slice_hash, DeltaSummary, ReuseMode, SpecDelta, TaskDelta};
pub use engine::{
    spec_hash, spec_hash_hex, BatchBuilder, BatchEventSink, BatchResultCallback, BatchSummary,
    Engine, VerificationBuilder,
};
pub use error::{SourceSpan, VerifasError, VALID_OPTIMIZATIONS};
pub use expr::{ExprHead, ExprId, ExprSort, ExprUniverse};
pub use json::{Json, JsonError};
pub use memory::{MemoryBudget, MemoryLease};
pub use observer::{CancelToken, Phase, ProgressEvent, ProgressObserver, SearchControl};
pub use pit::{Edge, Pit, PitBuilder};
pub use product::{ProductState, ProductSuccessor, ProductSystem, StateView};
pub use psi::{
    CounterVec, InternTypes, Psi, StoredTypeId, StoredTypeInterner, TypeTable, WorkerInterner,
    OMEGA,
};
pub use repeated::{
    find_infinite_violation, find_infinite_violation_reference, find_infinite_violation_with,
    CycleStats, InfiniteViolation, RepeatedOutcome,
};
pub use report::{VerificationReport, Witness, WitnessStep, REPORT_SCHEMA_VERSION};
pub use schedule::{
    BatchOptions, OccupancySample, ScheduleStats, Scheduler, SchedulerHandle, ThreadBudget,
};
pub use search::{KarpMillerSearch, SearchLimits, SearchOutcome, SearchStats, WorkerStats};
pub use transition::{spec_constants, SymbolicTask};
pub use verifier::{Counterexample, VerificationOutcome, VerificationResult, VerifierOptions};
