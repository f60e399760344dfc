//! Run observability and cancellation.
//!
//! Verification of a hard property can run for minutes; a production
//! service needs to *watch* a run (how many states, how big is the
//! frontier, which phase) and to *stop* one (an operator cancels, a
//! request deadline passes).  This module provides both:
//!
//! * [`ProgressObserver`] — a callback trait receiving [`ProgressEvent`]s
//!   as the search expands states and transitions between phases.  Closures
//!   `FnMut(&ProgressEvent)` implement it directly.
//! * [`CancelToken`] — a cheap, cloneable handle that stops a running
//!   search from another thread.
//! * [`SearchControl`] — bundles an observer, a token, a deadline and the
//!   event granularity; threaded through [`crate::search::KarpMillerSearch`]
//!   and [`crate::repeated::find_infinite_violation_with`].
//!
//! A cancelled or past-deadline search stops at the next state expansion
//! and reports itself like a resource-limited one — outcome
//! `Inconclusive`, or `Violated` when a violation was already in hand —
//! with [`crate::search::SearchStats::cancelled`] set.

use crate::memory::MemoryLease;
use crate::schedule::ThreadBudget;
use crate::search::SearchStats;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The two search phases of a verification run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// The main Karp–Miller reachability search (finds finite violations).
    Reachability,
    /// The repeated-reachability analysis (finds infinite violations).
    RepeatedReachability,
}

/// One progress event of a verification run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressEvent {
    /// A search phase begins.
    PhaseStarted {
        /// Which phase.
        phase: Phase,
    },
    /// Periodic progress within a phase (every
    /// [`SearchControl::progress_every`] state expansions).
    Progress {
        /// Which phase.
        phase: Phase,
        /// Tree nodes created so far in this phase.
        states_created: usize,
        /// Current size of the search frontier (worklist).
        frontier: usize,
        /// ω-accelerations applied so far in this phase.
        accelerations: usize,
    },
    /// A search phase ended (exhausted, violated, limited or cancelled).
    PhaseFinished {
        /// Which phase.
        phase: Phase,
        /// Final statistics of the phase.
        stats: SearchStats,
    },
    /// Periodic progress of the cycle-detection pass of the
    /// repeated-reachability analysis: emitted every
    /// [`SearchControl::progress_every`] active states whose outgoing
    /// edges of the abstract transition graph have been constructed.
    /// These events follow the auxiliary search's `PhaseFinished` event
    /// within [`Phase::RepeatedReachability`] — the post-pass runs on the
    /// finished search's active set.
    CycleProgress {
        /// Which phase (always [`Phase::RepeatedReachability`]).
        phase: Phase,
        /// Active states whose outgoing edges have been built so far.
        states_processed: usize,
        /// Edges of the abstract transition graph built so far.
        edges_built: usize,
    },
}

/// Observer of verification progress.
///
/// Implemented for every `FnMut(&ProgressEvent) + Send + Sync`, so a
/// closure can be passed directly to `verification().observer(...)`.
///
/// The trait requires `Sync` so that a [`SearchControl`] holding an
/// observer is itself `Sync`: the parallel search shares one control with
/// all of its worker threads (for cancellation and deadline checks) while
/// events keep being emitted, in deterministic order, from the
/// coordinating thread.
pub trait ProgressObserver: Send + Sync {
    /// Called for every event, in order, from the thread coordinating the
    /// search.
    fn on_event(&mut self, event: &ProgressEvent);
}

impl<F: FnMut(&ProgressEvent) + Send + Sync> ProgressObserver for F {
    fn on_event(&mut self, event: &ProgressEvent) {
        self(event)
    }
}

/// A cheap, cloneable cancellation handle.
///
/// All clones share one flag: calling [`CancelToken::cancel`] on any clone
/// stops every search the token was handed to at its next state expansion.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation (idempotent, callable from any thread).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Observer, cancellation and deadline for one search run.
///
/// [`SearchControl::default`] observes nothing and never stops a search.
///
/// The control is `Sync`: the parallel search hands shared references to
/// every worker thread so they can poll [`SearchControl::should_stop`]
/// between state expansions, while event emission (which needs `&mut`)
/// stays on the coordinating thread.
#[derive(Default)]
pub struct SearchControl<'o> {
    /// Progress observer, if any.
    pub observer: Option<&'o mut dyn ProgressObserver>,
    /// Cooperative cancellation token, if any.
    pub cancel: Option<CancelToken>,
    /// Absolute wall-clock deadline, if any.
    pub deadline: Option<Instant>,
    /// Emit a [`ProgressEvent::Progress`] every this many state
    /// expansions (0 = use the default of 128).
    pub progress_every: usize,
    /// The phase label attached to emitted events.
    pub phase: Option<Phase>,
    /// A dynamic thread budget installed by the batch
    /// [`crate::schedule::Scheduler`].  When set, it overrides the
    /// configured `search_threads`: the search re-polls it at every round
    /// boundary (and the repeated-reachability edge construction at every
    /// wave boundary), so a batch can grow or shrink a running search's
    /// worker pool without changing its result.
    pub thread_budget: Option<ThreadBudget>,
    /// A lease on a server-wide [`crate::memory::MemoryBudget`].  When
    /// set, the search re-accounts its estimated resident bytes at
    /// every round boundary (and the repeated-reachability edge
    /// construction at every wave boundary) and stops — like a state
    /// limit — once the pool refuses a grow.  The sticky verdict is
    /// read back through [`SearchControl::memory_exhausted`].
    pub memory: Option<MemoryLease>,
}

impl<'o> SearchControl<'o> {
    /// Granularity of progress events, with the default applied.
    pub(crate) fn granularity(&self) -> usize {
        if self.progress_every == 0 {
            128
        } else {
            self.progress_every
        }
    }

    pub(crate) fn current_phase(&self) -> Phase {
        self.phase.unwrap_or(Phase::Reachability)
    }

    /// The worker count for the next round of parallel work: the live
    /// value of the installed [`ThreadBudget`], or `configured` when no
    /// budget governs this run.  Never 0.
    pub(crate) fn workers_for_round(&self, configured: usize) -> usize {
        match &self.thread_budget {
            Some(budget) => budget.current(),
            None => configured.max(1),
        }
    }

    /// Re-account the run's estimated resident size against the
    /// installed memory lease.  Returns `false` when the budget refused
    /// the grow — the caller stops at this boundary, exactly like a
    /// state limit.  Always `true` when no budget governs this run.
    pub(crate) fn charge_memory(&self, bytes: usize) -> bool {
        match &self.memory {
            Some(lease) => lease.resize(bytes),
            None => true,
        }
    }

    /// Whether the installed memory lease ever refused a grow (sticky;
    /// `false` when no budget governs this run).
    pub fn memory_exhausted(&self) -> bool {
        self.memory.as_ref().is_some_and(MemoryLease::exhausted)
    }

    /// `true` when the run was cancelled or its deadline has passed.
    /// Callable from any thread (the parallel search polls it from every
    /// worker between state expansions).
    pub fn should_stop(&self) -> bool {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return true;
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return true;
            }
        }
        false
    }

    pub(crate) fn emit(&mut self, event: ProgressEvent) {
        if let Some(observer) = self.observer.as_mut() {
            observer.on_event(&event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_and_token_are_shareable_across_threads() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<SearchControl<'_>>();
        assert_sync::<CancelToken>();
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn default_control_never_stops() {
        let control = SearchControl::default();
        assert!(!control.should_stop());
        assert_eq!(control.granularity(), 128);
    }

    #[test]
    fn past_deadline_stops() {
        let control = SearchControl {
            deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
            ..SearchControl::default()
        };
        assert!(control.should_stop());
    }

    #[test]
    fn closures_are_observers() {
        let mut events = Vec::new();
        {
            let mut closure = |e: &ProgressEvent| events.push(*e);
            let mut control = SearchControl {
                observer: Some(&mut closure),
                ..SearchControl::default()
            };
            control.emit(ProgressEvent::PhaseStarted {
                phase: Phase::Reachability,
            });
        }
        assert_eq!(events.len(), 1);
    }
}
