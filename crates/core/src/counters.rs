//! Process-wide construction and reuse counters for the expensive
//! spec-side artefacts.
//!
//! [`crate::engine::Engine::check_all`] promises to build the expression
//! universe and the spec-side constraint graph once per (task,
//! configuration) key and share them across the properties of a batch.
//! [`crate::engine::Engine::load_delta`] promises the stronger inverse:
//! artefacts of *unchanged* task slices are carried into the new session
//! and provably **not** rebuilt, and finished reports of unchanged
//! requests are answered without a search.  These counters make those
//! promises testable — and exportable on `verifas serve`'s `/metrics`:
//!
//! * [`universe_builds`] / [`spec_graph_builds`] — construction counts of
//!   the two one-off preprocessing artefacts,
//! * [`reports_reused`] — verification requests answered from a carried
//!   (or session-local) report, with no search at all.
//!
//! (What `load_delta` carries is counted per call in its
//! [`crate::delta::DeltaSummary`].)  They exist for tests and
//! diagnostics only — nothing in the verifier reads them.

use std::sync::atomic::{AtomicUsize, Ordering};

pub(crate) static UNIVERSE_BUILDS: AtomicUsize = AtomicUsize::new(0);
pub(crate) static SPEC_GRAPH_BUILDS: AtomicUsize = AtomicUsize::new(0);
pub(crate) static REPORTS_REUSED: AtomicUsize = AtomicUsize::new(0);

/// Number of [`crate::expr::ExprUniverse::build`] calls so far in this
/// process.
pub fn universe_builds() -> usize {
    UNIVERSE_BUILDS.load(Ordering::Relaxed)
}

/// Number of spec-side constraint-graph constructions
/// ([`crate::static_analysis::ConstraintGraph::build_spec_side`]) so far in
/// this process.
pub fn spec_graph_builds() -> usize {
    SPEC_GRAPH_BUILDS.load(Ordering::Relaxed)
}

/// Number of verification requests answered from a carried report
/// without running any search.
pub fn reports_reused() -> usize {
    REPORTS_REUSED.load(Ordering::Relaxed)
}
