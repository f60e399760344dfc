//! The Karp–Miller search over partial symbolic instances (Algorithm 1)
//! with ω-acceleration (Section 3.3), monotone pruning (Section 3.4, after
//! Reynier–Servais) and the ≼-based aggressive pruning (Section 3.5),
//! with coverage candidates grouped by discrete key (Section 3.6).
//!
//! The search explores the product of the symbolic transition system with
//! the violation automaton.  It stops immediately when a *finite* violating
//! local run is found (the task closes in a padding-accepting automaton
//! state); otherwise it computes a coverability-style set of active states
//! which the repeated-reachability analysis ([`crate::repeated`]) then uses
//! to look for *infinite* violations.
//!
//! # State storage
//!
//! The tree lives in an arena-backed structure-of-arrays layout
//! ([`crate::arena::StateArena`]): nodes are dense `u32`-indexed rows over
//! deduplicating type and counter arenas, compared through borrowed
//! [`StateView`]s.  Coverage and prune candidates come from
//! `index::Candidates`, chosen by the DSS flag and bit-identical
//! either way:
//!
//! * with data-structure support, per-discrete-group candidate vectors
//!   (active arena ids in ascending order, one vector per `(automaton
//!   state, child mask, closed)` key) — since every coverage relation
//!   requires equal discrete keys, scanning the group in id order visits
//!   exactly the states a full linear scan would have accepted, in the
//!   same order.  Each member carries the signature of its type's
//!   `=`-edges, and a lookup skips the members whose signature rules out
//!   the coverage it asks about before running the exact test;
//! * without it, the full linear scan over the node table — the paper's
//!   no-DSS ablation, and the differential oracle and benchmark
//!   denominator of the grouped path.
//!
//! # Parallel execution
//!
//! The search runs as a sequence of *rounds* over the frontier, with
//! any number of [`KarpMillerSearch::threads`]:
//!
//! 1. **Plan phase (parallel).**  The crate's ordered worker pool (the
//!    same one the repeated-reachability edge waves run on) plans every
//!    frontier node against a frozen snapshot of the tree: its product
//!    successors, speculative ω-accelerations against the node's active
//!    ancestors, a speculative covered-by-active test and, when no active
//!    state covers the successor, the list of active states it would
//!    prune.  A small round runs inline on the coordinating thread; a
//!    larger one runs on scoped threads that claim chunks of the frontier
//!    from one cursor.  Either way the plans come back by frontier
//!    position, and a panic in a plan worker comes back as an error that
//!    stops the search at the round boundary.  Workers intern unknown
//!    stored types into per-worker [`WorkerInterner`] caches under
//!    provisional ids.
//! 2. **Apply phase (sequential, deterministic).**  The coordinating
//!    thread replays the plans in frontier order: it publishes each node's
//!    new stored types to the shared interner (in first-intern order, so
//!    the final numbering matches a sequential run exactly), publishes the
//!    surviving successor states into the shared arena, validates the
//!    speculations against what earlier applications of this round changed
//!    (an ancestor deactivated → the acceleration is recomputed; a
//!    covering state deactivated → the coverage test is recomputed; states
//!    added this round are always re-checked), and mutates the tree.  A
//!    successor whose speculated coverer died earlier in the round and
//!    that no live state covers has no planned prune list; the apply
//!    phase lists its prunes on the live tree, which equals the snapshot
//!    list minus the deactivated states plus the round's own, because no
//!    node is ever reactivated.
//!
//! Because every speculation is either proven still-valid or recomputed
//! from the live tree, a parallel run produces *bit-identical* results to
//! a sequential one: the same tree, the same statistics, the same verdict
//! and the same witness.  Only wall-clock timing and the per-worker
//! [`WorkerStats`] depend on scheduling.
//!
//! Since a round is bit-identical for *every* worker count, the pool may
//! also be resized **between** rounds without changing the result: when a
//! [`crate::schedule::ThreadBudget`] is installed on the run's
//! [`SearchControl`], the search re-polls it at each round boundary, which
//! is how the batch [`crate::schedule::Scheduler`] hands cores freed by
//! finished properties to still-running searches mid-flight.

use crate::arena::StateArena;
use crate::coverage::{accelerate, covers, discrete_key, CoverageKind};
use crate::index::Candidates;
use crate::observer::{ProgressEvent, SearchControl};
use crate::pit::{Pit, Signature};
use crate::product::{ProductState, ProductSystem, StateView};
use crate::psi::{
    is_provisional, provisional_parts, CounterVec, StoredTypeId, StoredTypeInterner, TypeTable,
    WorkerInterner,
};
use std::time::{Duration, Instant};
use verifas_model::{ArtRelId, ServiceRef};

/// Resource limits of a search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchLimits {
    /// Maximum number of tree nodes created before giving up.
    pub max_states: usize,
    /// Wall-clock budget in milliseconds.
    pub max_millis: u64,
}

impl Default for SearchLimits {
    fn default() -> Self {
        SearchLimits {
            max_states: 100_000,
            max_millis: 60_000,
        }
    }
}

/// Statistics of one search run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Nodes created in the Karp–Miller tree.
    pub states_created: usize,
    /// Nodes still active (the coverability set candidates) at the end.
    pub states_active: usize,
    /// New states discarded because an active state already covered them.
    pub states_skipped: usize,
    /// Active states deactivated by the monotone pruning.
    pub states_pruned: usize,
    /// Number of ω-accelerations applied.
    pub accelerations: usize,
    /// Stored tuple types interned.
    pub stored_types: usize,
    /// Elapsed wall-clock time in milliseconds.
    pub elapsed_ms: u64,
    /// Number of search workers this run was configured with (1 for a
    /// sequential run).
    pub threads: usize,
    /// `true` when a resource limit stopped the search.
    pub limit_reached: bool,
    /// `true` when the search was stopped by a cancellation token or a
    /// deadline (a subset of `limit_reached`).
    pub cancelled: bool,
}

/// Per-worker statistics of one parallel search run (scheduling-dependent
/// observability data; the search result itself is deterministic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index within the pool.
    pub worker: usize,
    /// Frontier nodes this worker planned.
    pub nodes_planned: usize,
    /// Successor states this worker computed.
    pub successors_planned: usize,
    /// Time this worker spent planning, in microseconds.
    pub busy_micros: u64,
}

impl WorkerStats {
    /// Merge another worker's counters into this one (used when folding
    /// per-round pools — and the two search phases — into one per-worker
    /// summary).
    pub(crate) fn absorb(&mut self, other: &WorkerStats) {
        self.nodes_planned += other.nodes_planned;
        self.successors_planned += other.successors_planned;
        self.busy_micros += other.busy_micros;
    }
}

/// Grow a per-worker statistics vector (indexed by worker) to cover
/// `workers` entries — a dynamic [`crate::schedule::ThreadBudget`] can
/// raise the worker count mid-run, and the stats must keep one slot per
/// worker index ever used.
pub(crate) fn ensure_worker_slots(stats: &mut Vec<WorkerStats>, workers: usize) {
    for worker in stats.len()..workers {
        stats.push(WorkerStats {
            worker,
            ..WorkerStats::default()
        });
    }
}

/// Fold one pool's per-worker statistics into another, matching entries by
/// worker index (used to combine the reachability search, the auxiliary
/// repeated-reachability search and its edge-construction pool into one
/// per-worker summary).
pub fn merge_worker_stats(into: &mut Vec<WorkerStats>, from: &[WorkerStats]) {
    for stats in from {
        match into.iter_mut().find(|w| w.worker == stats.worker) {
            Some(w) => w.absorb(stats),
            None => into.push(*stats),
        }
    }
}

/// Outcome of the search phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchOutcome {
    /// A finite violating local run was found; the payload is the index of
    /// the violating tree node.
    FiniteViolation(usize),
    /// The reachable symbolic state space was exhausted.
    Exhausted,
    /// A resource limit was hit before exhaustion.
    LimitReached,
}

/// One speculatively planned successor of a frontier node.
struct SuccessorPlan {
    /// The observable service that produced it.
    service: ServiceRef,
    /// `true` iff the transition closes the task in a padding-accepting
    /// automaton state (a finite violation).
    finite_violation: bool,
    /// The successor state with the speculative acceleration applied
    /// (counters may hold provisional type ids).
    state: ProductState,
    /// The signature of the successor's type, which the acceleration
    /// leaves alone.
    signature: Signature,
    /// The successor's counters *before* acceleration, kept so the
    /// acceleration can be replayed against the live tree when the
    /// speculation is invalidated.
    raw_counters: CounterVec,
    /// ω-applications in the speculative acceleration.
    accelerations: usize,
    /// First snapshot-active node covering the successor, if any.
    covered_by: Option<u32>,
    /// Snapshot-active nodes the successor covers (prune candidates),
    /// listed only when `covered_by` is `None`: a covered successor is
    /// skipped unless its coverer dies this round, and then the apply
    /// phase lists its prunes on the live tree.
    prunes: Vec<u32>,
}

/// The plan of one frontier node: the stored types it introduces (in
/// first-intern order) and its successor plans.
struct NodePlan {
    new_types: Vec<StoredTypeId>,
    succs: Vec<SuccessorPlan>,
}

/// A set of arena ids kept as a stamp per id: an id is a member iff its
/// stamp equals the current epoch, so emptying the set is one increment.
struct EpochMarks {
    stamps: Vec<u32>,
    epoch: u32,
}

impl EpochMarks {
    fn new() -> Self {
        EpochMarks {
            stamps: Vec::new(),
            epoch: 1,
        }
    }

    fn clear(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamps left from 2^32 clears ago would alias the new epoch.
            self.stamps.fill(0);
            self.epoch = 1;
        }
    }

    fn insert(&mut self, id: u32) {
        let i = id as usize;
        if i >= self.stamps.len() {
            self.stamps.resize(i + 1, 0);
        }
        self.stamps[i] = self.epoch;
    }

    fn contains(&self, id: u32) -> bool {
        self.stamps.get(id as usize) == Some(&self.epoch)
    }
}

/// Marks a provisional type not yet published this round.
const UNPUBLISHED: StoredTypeId = StoredTypeId::MAX;

/// Scratch state of the apply phase, allocated once per search.
struct ApplyScratch {
    /// Published id of each provisional type, per worker, indexed by the
    /// provisional local id ([`UNPUBLISHED`] until its first publication
    /// this round).
    remap: Vec<Vec<StoredTypeId>>,
    /// Nodes deactivated so far this round.
    deactivated: EpochMarks,
    /// The node whose plan is being applied and its ancestors.
    ancestors: EpochMarks,
}

impl ApplyScratch {
    fn new() -> Self {
        ApplyScratch {
            remap: Vec::new(),
            deactivated: EpochMarks::new(),
            ancestors: EpochMarks::new(),
        }
    }

    /// Reset for a round whose plans drew on these worker scratch tables.
    fn begin_round(&mut self, scratch: &[Vec<(ArtRelId, Pit)>]) {
        self.deactivated.clear();
        self.remap.resize_with(scratch.len(), Vec::new);
        for (remap, types) in self.remap.iter_mut().zip(scratch) {
            remap.clear();
            remap.resize(types.len(), UNPUBLISHED);
        }
    }

    /// `counters` with every provisional type id replaced by its
    /// published id.
    fn publish(&self, counters: &CounterVec) -> CounterVec {
        counters.map_ids(|id| {
            if !is_provisional(id) {
                return id;
            }
            let (worker, local) = provisional_parts(id);
            let published = self.remap[worker][local];
            debug_assert_ne!(published, UNPUBLISHED, "type used before it was published");
            published
        })
    }
}

/// One entry of the compact successor log: the raw (pre-acceleration)
/// product successor of `parent` under `service`, with its type and
/// counters interned into the search arena — 48 bytes per entry on a
/// 64-bit target instead of an owned [`ProductState`].
pub(crate) struct LoggedSuccessor {
    /// The expanded tree node.
    pub(crate) parent: u32,
    /// The observable service of the transition.
    pub(crate) service: ServiceRef,
    pit: u32,
    counters: u32,
    child_active: u64,
    buchi: u32,
    closed: bool,
}

/// The Karp–Miller search engine.
pub struct KarpMillerSearch<'a> {
    product: &'a ProductSystem,
    /// The coverage order used for pruning.
    pub coverage: CoverageKind,
    /// Resource limits.
    pub limits: SearchLimits,
    /// Number of worker threads expanding the frontier (0 = one per
    /// available core, 1 = sequential).
    pub threads: usize,
    /// The tree, in arena-backed structure-of-arrays storage.
    pub arena: StateArena,
    /// Stored-tuple type interner shared by the whole search.
    pub interner: StoredTypeInterner,
    /// Statistics.
    pub stats: SearchStats,
    /// Per-worker statistics of the last run (empty before `run`).
    pub worker_stats: Vec<WorkerStats>,
    /// When set, the apply phase logs every product successor it replays —
    /// the parent node, the observable service and the successor state
    /// *before* ω-acceleration — so the repeated-reachability post-pass
    /// can build its abstract transition graph without re-enumerating
    /// successors (enumeration is the dominant cost of that pass).
    pub(crate) record_successors: bool,
    /// The log filled when [`KarpMillerSearch::record_successors`] is set,
    /// in deterministic apply order (grouped by parent, parents ascending).
    pub(crate) successor_log: Vec<LoggedSuccessor>,
    /// Compact the successor log (dropping entries of pruned parents) once
    /// it reaches this size; doubles after every compaction.
    log_compact_at: usize,
    /// Set when planning a round panicked (inline or on a worker thread).
    /// The round's plans are then discarded unapplied (the tree stays
    /// consistent — the apply phase never saw them), the search stops at
    /// that boundary like a resource limit, and the owning engine request
    /// surfaces the message as a typed
    /// [`crate::error::VerifasError::Internal`] instead of unwinding.
    /// Sticky for the run.
    pub failure: Option<String>,
    /// Coverage/prune candidate ids: the active ids of each discrete
    /// group with data-structure support, every node id without it.
    candidates: Candidates,
    /// Successors whose speculation held but whose coverer was
    /// deactivated earlier in the round, leaving them uncovered: the
    /// apply phase listed their prunes on the live tree.
    #[cfg(test)]
    live_prune_lists: usize,
}

impl<'a> KarpMillerSearch<'a> {
    /// Create a (sequential) search over a product system; set
    /// [`KarpMillerSearch::threads`] to parallelise it.  With
    /// `data_structure_support` coverage candidates are grouped by
    /// discrete key; without it every node is scanned (the no-DSS
    /// ablation).  The result is the same either way.
    pub fn new(
        product: &'a ProductSystem,
        coverage: CoverageKind,
        data_structure_support: bool,
        limits: SearchLimits,
    ) -> Self {
        KarpMillerSearch {
            product,
            coverage,
            limits,
            threads: 1,
            arena: StateArena::new(),
            interner: StoredTypeInterner::new(),
            stats: SearchStats::default(),
            worker_stats: Vec::new(),
            record_successors: false,
            successor_log: Vec::new(),
            log_compact_at: 1024,
            failure: None,
            candidates: Candidates::new(data_structure_support),
            #[cfg(test)]
            live_prune_lists: 0,
        }
    }

    /// Deterministic estimate of this search's resident bytes, re-based on
    /// the actual occupancy of the state arenas (rows, distinct types and
    /// their edges, counter slab entries) plus fixed per-element costs for
    /// the interner and the compact successor log — never an allocator
    /// probe, so a memory-budgeted run takes the same rounds on every
    /// host.
    pub fn estimated_bytes(&self) -> usize {
        const TYPE_BYTES: usize = 192;
        self.arena.estimated_bytes()
            + self.interner.len() * TYPE_BYTES
            + self.successor_log.len() * std::mem::size_of::<LoggedSuccessor>()
    }

    /// Number of nodes in the tree.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// `true` before any node has been created.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// Is the node active (not pruned)?
    pub fn is_active(&self, node: usize) -> bool {
        self.arena.is_active(node as u32)
    }

    /// Has the apply phase replayed this node's successors?  (An exhausted
    /// search expands every node; only a limit-stopped one leaves active
    /// frontier nodes unexpanded.)
    pub fn is_expanded(&self, node: usize) -> bool {
        self.arena.is_expanded(node as u32)
    }

    /// A borrowed view of the node's state.
    pub fn state_view(&self, node: usize) -> StateView<'_> {
        self.arena.view(node as u32)
    }

    /// Materialise an owned copy of the node's state.
    pub fn materialize_state(&self, node: usize) -> ProductState {
        self.arena.materialize(node as u32)
    }

    /// A borrowed view of a compact successor-log entry.
    pub(crate) fn logged_view(&self, entry: &LoggedSuccessor) -> StateView<'_> {
        self.arena.raw_view(
            entry.pit,
            entry.counters,
            entry.child_active,
            entry.buchi,
            entry.closed,
        )
    }

    /// The worker count after resolving the automatic setting.
    fn effective_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }

    /// Run the search to completion (or until a limit / finite violation),
    /// without observation or cancellation.
    pub fn run(&mut self) -> SearchOutcome {
        self.run_with(&mut SearchControl::default())
    }

    /// Run the search under a [`SearchControl`]: progress events are
    /// emitted to its observer every [`SearchControl::progress_every`]
    /// state expansions, and the search stops (reporting
    /// [`SearchOutcome::LimitReached`] with
    /// [`SearchStats::cancelled`] set) when its token is cancelled or its
    /// deadline passes.  Cancellation is polled by every worker thread, so
    /// a parallel run stops at the next state expansion of each worker.
    pub fn run_with(&mut self, control: &mut SearchControl<'_>) -> SearchOutcome {
        let start = Instant::now();
        let phase = control.current_phase();
        let granularity = control.granularity();
        let configured = self.effective_threads();
        let mut workers = control.workers_for_round(configured);
        // `threads` reports the widest pool this run ever used (equal to
        // the configured count when no dynamic budget is installed).
        self.stats.threads = workers;
        self.worker_stats = Vec::new();
        ensure_worker_slots(&mut self.worker_stats, workers);
        let mut expanded_since_event = 0usize;
        control.emit(ProgressEvent::PhaseStarted { phase });
        let mut frontier: Vec<u32> = Vec::new();
        let mut apply = ApplyScratch::new();
        if self.record_successors {
            // The log grows to megabytes by doubling on this thread, and a
            // reallocated block stays in the allocator arena it came from.
            // A small first block can be a recycled one that a plan worker
            // allocated, whose arena would then keep every doubling; a
            // first block past the allocator's small-size thread cache
            // comes from this thread's own heap.
            self.successor_log.reserve(self.log_compact_at);
        }
        for state in self.product.initial_states() {
            let id = self.add_node(&state, None, self.product.task.opening_service());
            frontier.push(id);
        }
        let outcome = 'search: loop {
            if frontier.is_empty() {
                break SearchOutcome::Exhausted;
            }
            // Round boundary: re-poll the dynamic thread budget, if one is
            // installed.  A round is bit-identical for every worker count,
            // so resizing the pool here cannot change the tree, the
            // statistics, the verdict or the witness.
            workers = control.workers_for_round(configured);
            self.stats.threads = self.stats.threads.max(workers);
            ensure_worker_slots(&mut self.worker_stats, workers);
            // Memory boundary: re-account the arenas against the installed
            // byte budget.  A refused grow stops the run here — like a
            // state limit, never an OOM abort; the lease's sticky flag
            // tells the owner why.
            if !control.charge_memory(self.estimated_bytes()) {
                self.stats.limit_reached = true;
                break 'search SearchOutcome::LimitReached;
            }
            // Plan phase: speculate on every frontier node in parallel
            // against the frozen tree.  Workers honour the run's own
            // wall-clock budget, so a large frontier cannot overshoot
            // `limits.max_millis` by a whole round of planning.
            let time_budget = start + Duration::from_millis(self.limits.max_millis);
            // A panicked plan worker leaves its chunk's plans incomplete;
            // applying the rest would diverge from a sequential run.  Drop
            // the whole round and stop at this boundary — the tree holds
            // only fully applied rounds, and the failure message reaches
            // the caller through `self.failure`.
            let (mut plans, mut scratch) =
                match self.plan_round(&frontier, workers, time_budget, control) {
                    Ok(round) => round,
                    Err(reason) => {
                        self.failure.get_or_insert(reason);
                        self.stats.limit_reached = true;
                        break 'search SearchOutcome::LimitReached;
                    }
                };
            // Apply phase: replay the plans in deterministic order.
            let round_base = self.arena.len() as u32;
            apply.begin_round(&scratch);
            let mut next: Vec<u32> = Vec::new();
            for (pos, &id) in frontier.iter().enumerate() {
                if !self.arena.is_active(id) {
                    continue;
                }
                if control.should_stop() {
                    self.stats.limit_reached = true;
                    self.stats.cancelled = true;
                    break 'search SearchOutcome::LimitReached;
                }
                if self.arena.len() >= self.limits.max_states
                    || start.elapsed().as_millis() as u64 >= self.limits.max_millis
                {
                    self.stats.limit_reached = true;
                    break 'search SearchOutcome::LimitReached;
                }
                expanded_since_event += 1;
                if expanded_since_event >= granularity {
                    expanded_since_event = 0;
                    control.emit(ProgressEvent::Progress {
                        phase,
                        states_created: self.stats.states_created,
                        frontier: frontier.len() - pos - 1 + next.len(),
                        accelerations: self.stats.accelerations,
                    });
                }
                let plan = plans[pos].take().expect(
                    "a plan can only be missing after cancellation or the time budget, \
                     which the checks above turn into LimitReached",
                );
                if let Some(violation) =
                    self.apply_plan(id, plan, &mut scratch, &mut apply, round_base, &mut next)
                {
                    break 'search SearchOutcome::FiniteViolation(violation as usize);
                }
            }
            frontier = next;
            // The successor log only serves finally-active parents; drop
            // entries of pruned nodes once the log doubles past the last
            // compaction (amortized O(total log) over the whole search).
            if self.record_successors && self.successor_log.len() >= self.log_compact_at {
                let arena = &self.arena;
                self.successor_log.retain(|e| arena.is_active(e.parent));
                self.log_compact_at = (self.successor_log.len() * 2).max(1024);
            }
        };
        self.stats.states_active = self.arena.active_count();
        self.stats.stored_types = self.interner.len();
        self.stats.elapsed_ms = start.elapsed().as_millis() as u64;
        control.emit(ProgressEvent::PhaseFinished {
            phase,
            stats: self.stats,
        });
        outcome
    }

    /// Speculatively plan every frontier node on the ordered pool.
    /// Returns one optional plan per frontier position plus the
    /// per-worker scratch type tables needed to resolve provisional ids,
    /// or the message of a panic in a plan worker.
    ///
    /// A plan may be missing only for a node that was already inactive,
    /// or after cancellation / the `time_budget` deadline — conditions
    /// that are sticky, so the apply loop's own checks always break
    /// before reaching an unplanned position.
    #[allow(clippy::type_complexity)]
    fn plan_round(
        &mut self,
        frontier: &[u32],
        workers: usize,
        time_budget: Instant,
        control: &SearchControl<'_>,
    ) -> Result<(Vec<Option<NodePlan>>, Vec<Vec<(ArtRelId, Pit)>>), String> {
        let this = &*self;
        let round = crate::pool::run_ordered(
            frontier.len(),
            workers,
            |worker| WorkerInterner::new(&this.interner, worker),
            || control.should_stop() || Instant::now() >= time_budget,
            |pos, interner, stats| {
                let id = frontier[pos];
                this.arena
                    .is_active(id)
                    .then(|| this.plan_node(id, interner, stats))
            },
        )
        .map_err(|panic| format!("search worker panicked: {panic}"))?;
        let plans = round.results.into_iter().map(Option::flatten).collect();
        let scratch = round
            .states
            .into_iter()
            .map(WorkerInterner::into_types)
            .collect();
        for stats in &round.stats {
            self.worker_stats[stats.worker].absorb(stats);
        }
        Ok((plans, scratch))
    }

    /// Plan one frontier node against the frozen tree snapshot.
    fn plan_node(
        &self,
        id: u32,
        interner: &mut WorkerInterner<'_>,
        stats: &mut WorkerStats,
    ) -> NodePlan {
        interner.begin_node();
        let current = self.arena.materialize(id);
        let successors = self.product.successors(&current, interner);
        stats.nodes_planned += 1;
        stats.successors_planned += successors.len();
        let mut succs = Vec::with_capacity(successors.len());
        for succ in successors {
            let mut state = succ.state;
            let raw_counters = state.psi.counters.clone();
            // Speculative ω-acceleration against the snapshot-active
            // ancestors.
            let accelerations = self.accelerate_along_ancestors(id, &mut state, &*interner);
            let finite_violation = succ.finite_violation;
            let signature = state.psi.pit.signature();
            let (covered_by, prunes) = if finite_violation {
                (None, Vec::new())
            } else {
                match self.covering_node(&state, signature, 0, &*interner) {
                    Some(j) => (Some(j), Vec::new()),
                    None => (
                        None,
                        self.covered_nodes(&state, signature, 0, None, &*interner),
                    ),
                }
            };
            succs.push(SuccessorPlan {
                service: succ.service,
                finite_violation,
                state,
                signature,
                raw_counters,
                accelerations,
                covered_by,
                prunes,
            });
            // The apply phase stops at a finite violation, so nothing
            // after it can be needed.
            if finite_violation {
                break;
            }
        }
        NodePlan {
            new_types: interner.take_node_new(),
            succs,
        }
    }

    /// ω-accelerate `state` against every active node on the path from
    /// `id` up to the root, the way the sequential search walks it.
    /// Returns the number of accelerations applied.
    ///
    /// An acceleration raises one of the state's counters to ω and needs
    /// equal discrete keys, so a state without counters is returned
    /// untouched before the walk, and an ancestor of another key is
    /// passed over without a view of it.
    fn accelerate_along_ancestors(
        &self,
        id: u32,
        state: &mut ProductState,
        table: &dyn TypeTable,
    ) -> usize {
        if state.psi.counters.is_empty() {
            return 0;
        }
        let key = discrete_key(state.view());
        let mut count = 0usize;
        let mut ancestor = Some(id);
        while let Some(a) = ancestor {
            if self.arena.is_active(a) && self.arena.discrete_key(a) == key {
                if let Some(counters) =
                    accelerate(self.coverage, self.arena.view(a), state.view(), table)
                {
                    state.psi.counters = counters;
                    count += 1;
                }
            }
            ancestor = self.arena.parent(a);
        }
        count
    }

    /// First active node with id ≥ `from` that covers `state` (whose type
    /// has `signature`), if any.  `from` is 0 for the whole tree, or the
    /// round's first id for the states added this round.  Both lookups
    /// check liveness themselves: the candidate scan also yields inactive
    /// ids.
    fn covering_node(
        &self,
        state: &ProductState,
        signature: Signature,
        from: u32,
        table: &dyn TypeTable,
    ) -> Option<u32> {
        let view = state.view();
        self.candidates
            .covering(discrete_key(view), signature, from)
            .find(|&j| {
                self.arena.is_active(j) && covers(self.coverage, view, self.arena.view(j), table)
            })
    }

    /// Active nodes with id ≥ `from`, outside `skip`, that `state` covers
    /// (prune candidates).
    fn covered_nodes(
        &self,
        state: &ProductState,
        signature: Signature,
        from: u32,
        skip: Option<&EpochMarks>,
        table: &dyn TypeTable,
    ) -> Vec<u32> {
        let view = state.view();
        self.candidates
            .covered(discrete_key(view), signature, from)
            .filter(|&j| {
                self.arena.is_active(j)
                    && !skip.is_some_and(|marks| marks.contains(j))
                    && covers(self.coverage, self.arena.view(j), view, table)
            })
            .collect()
    }

    /// Replay one node's plan against the live tree.  Returns the id of a
    /// finite-violation node when one is reached.
    fn apply_plan(
        &mut self,
        id: u32,
        plan: NodePlan,
        scratch: &mut [Vec<(ArtRelId, Pit)>],
        apply: &mut ApplyScratch,
        round_base: u32,
        next: &mut Vec<u32>,
    ) -> Option<u32> {
        self.arena.mark_expanded(id);
        // Publish the node's new stored types in first-intern order; this
        // is what makes the final type numbering (and hence successor
        // enumeration in later rounds) independent of worker scheduling.
        // A type an earlier node of this round already published keeps
        // its id, so only its first publication reads (and takes) the
        // scratch copy.
        for &pid in &plan.new_types {
            let (worker, local) = provisional_parts(pid);
            if apply.remap[worker][local] == UNPUBLISHED {
                let (rel, pit) = &mut scratch[worker][local];
                apply.remap[worker][local] = self.interner.intern(*rel, std::mem::take(pit));
            }
        }
        // Did anything this round touch the ancestors the speculation was
        // computed against?
        apply.ancestors.clear();
        let mut speculation_valid = true;
        let mut a = Some(id);
        while let Some(x) = a {
            apply.ancestors.insert(x);
            speculation_valid &= !apply.deactivated.contains(x);
            a = self.arena.parent(x);
        }
        for succ in plan.succs {
            let mut state = succ.state;
            if self.record_successors {
                // Log the *raw* successor (pre-acceleration counters): the
                // repeated-reachability edge tests run on the successors
                // the product defines, exactly as a re-enumeration would
                // produce them.  The entry is published compactly — type
                // and counters interned into the shared arena.
                let raw = apply.publish(&succ.raw_counters);
                let entry = LoggedSuccessor {
                    parent: id,
                    service: succ.service,
                    pit: self.arena.intern_pit(&state.psi.pit),
                    counters: self.arena.intern_counters(raw.as_slice()),
                    child_active: state.psi.child_active,
                    buchi: state.buchi as u32,
                    closed: state.closed,
                };
                self.successor_log.push(entry);
            }
            let accelerations;
            if speculation_valid {
                state.psi.counters = apply.publish(&state.psi.counters);
                accelerations = succ.accelerations;
            } else {
                // An ancestor was deactivated after the plan was made:
                // replay the acceleration against the live tree.
                state.psi.counters = apply.publish(&succ.raw_counters);
                accelerations = self.accelerate_along_ancestors(id, &mut state, &self.interner);
            }
            self.stats.accelerations += accelerations;
            if succ.finite_violation {
                let vid = self.add_node(&state, Some(id), succ.service);
                return Some(vid);
            }
            let signature = succ.signature;
            // Skip if an active state already covers the new one.  The
            // speculative answer is reused when it still holds; states
            // added earlier in this round are always re-checked live.
            let covered_from = |from| {
                self.covering_node(&state, signature, from, &self.interner)
                    .is_some()
            };
            let covered = if !speculation_valid {
                covered_from(0)
            } else {
                match succ.covered_by {
                    Some(j) if !apply.deactivated.contains(j) => true,
                    Some(_) => covered_from(0),
                    None => covered_from(round_base),
                }
            };
            if covered {
                self.stats.states_skipped += 1;
                continue;
            }
            // Monotone pruning: deactivate active states (and their
            // descendants) covered by the new one, except ancestors of
            // the node being extended (conservative variant of the
            // Reynier–Servais rule).
            let ancestors = Some(&apply.ancestors);
            let to_prune: Vec<u32> = if speculation_valid && succ.covered_by.is_none() {
                let mut live: Vec<u32> = succ
                    .prunes
                    .iter()
                    .copied()
                    .filter(|&j| self.arena.is_active(j) && !apply.ancestors.contains(j))
                    .collect();
                // States added this round were invisible to the plan.
                live.extend(self.covered_nodes(
                    &state,
                    signature,
                    round_base,
                    ancestors,
                    &self.interner,
                ));
                live
            } else {
                // The plan listed no prunes: its speculation is stale, or
                // its coverer was deactivated earlier this round.  No node
                // is ever reactivated, so the live list is the snapshot
                // list minus what died, plus this round's states, in the
                // same ascending order.
                #[cfg(test)]
                {
                    self.live_prune_lists += usize::from(speculation_valid);
                }
                self.covered_nodes(&state, signature, 0, ancestors, &self.interner)
            };
            for j in to_prune {
                self.deactivate_subtree(j, &apply.ancestors, &mut apply.deactivated);
            }
            let new_id = self.add_node(&state, Some(id), succ.service);
            next.push(new_id);
        }
        None
    }

    fn add_node(&mut self, state: &ProductState, parent: Option<u32>, service: ServiceRef) -> u32 {
        let id = self.arena.push(state, parent, service);
        let signature = state.psi.pit.signature();
        self.candidates
            .insert(self.arena.discrete_key(id), id, signature);
        self.stats.states_created += 1;
        id
    }

    fn deactivate_subtree(
        &mut self,
        root: u32,
        protected: &EpochMarks,
        deactivated: &mut EpochMarks,
    ) {
        let mut stack = vec![root];
        while let Some(j) = stack.pop() {
            if protected.contains(j) || !self.arena.is_active(j) {
                continue;
            }
            self.arena.set_active(j, false);
            deactivated.insert(j);
            self.stats.states_pruned += 1;
            self.candidates.remove(self.arena.discrete_key(j), j);
            stack.extend(self.arena.children(j));
        }
    }

    /// Indices of the nodes still active at the end of the search (the
    /// coverability-set candidates).
    pub fn active_nodes(&self) -> Vec<usize> {
        (0..self.arena.len() as u32)
            .filter(|&i| self.arena.is_active(i))
            .map(|i| i as usize)
            .collect()
    }

    /// The path of services and states from an initial node to `node`
    /// (inclusive), oldest first — used to build counterexample traces.
    pub fn trace(&self, node: usize) -> Vec<(ServiceRef, ProductState)> {
        let mut out = Vec::new();
        let mut current = Some(node as u32);
        while let Some(i) = current {
            out.push((self.arena.service(i), self.arena.materialize(i)));
            current = self.arena.parent(i);
        }
        out.reverse();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verifas_ltl::{Ltl, LtlFoProperty};
    use verifas_model::schema::attr::data;
    use verifas_model::{
        Condition, DatabaseSchema, HasSpec, SpecBuilder, TaskBuilder, TaskId, Term, Update,
    };

    /// The unbounded-pool workflow: statuses cycle and every cycle inserts
    /// a tuple, so the counter grows without bound and acceleration must
    /// kick in for the search to terminate.
    fn unbounded_pool() -> HasSpec {
        let mut db = DatabaseSchema::new();
        db.add_relation("R", vec![data("a")]).unwrap();
        let mut root = TaskBuilder::new("Root");
        let status = root.data_var("status");
        let pool = root.art_relation_like("POOL", &[status]);
        root.service_parts(
            "produce",
            Condition::eq(Term::var(status), Term::Null),
            Condition::eq(Term::var(status), Term::str("Made")),
            vec![],
            None,
        );
        root.service_parts(
            "stash",
            Condition::eq(Term::var(status), Term::str("Made")),
            Condition::eq(Term::var(status), Term::Null),
            vec![],
            Some(Update::Insert {
                rel: pool,
                vars: vec![status],
            }),
        );
        let mut b = SpecBuilder::new("unbounded", db, root.build());
        b.global_pre(Condition::eq(Term::var(status), Term::Null));
        b.build().unwrap()
    }

    fn trivial_property() -> LtlFoProperty {
        LtlFoProperty::new("false-baseline", TaskId::new(0), vec![], Ltl::False, vec![])
    }

    #[test]
    fn search_terminates_on_unbounded_counters_via_acceleration() {
        let spec = unbounded_pool();
        let property = trivial_property();
        let product = ProductSystem::new(&spec, &property, true).unwrap();
        let mut search = KarpMillerSearch::new(
            &product,
            CoverageKind::Subsumption,
            true,
            SearchLimits {
                max_states: 5_000,
                max_millis: 30_000,
            },
        );
        let outcome = search.run();
        assert_eq!(outcome, SearchOutcome::Exhausted);
        assert!(search.stats.accelerations > 0, "acceleration must fire");
        assert!(search.stats.states_created < 100);
    }

    #[test]
    fn standard_coverage_also_terminates_here() {
        let spec = unbounded_pool();
        let property = trivial_property();
        let product = ProductSystem::new(&spec, &property, true).unwrap();
        let mut search = KarpMillerSearch::new(
            &product,
            CoverageKind::Standard,
            false,
            SearchLimits::default(),
        );
        assert_eq!(search.run(), SearchOutcome::Exhausted);
    }

    #[test]
    fn trace_walks_back_to_an_initial_state() {
        let spec = unbounded_pool();
        let property = trivial_property();
        let product = ProductSystem::new(&spec, &property, true).unwrap();
        let mut search = KarpMillerSearch::new(
            &product,
            CoverageKind::Subsumption,
            false,
            SearchLimits::default(),
        );
        search.run();
        let last = search.len() - 1;
        let trace = search.trace(last);
        assert!(!trace.is_empty());
        assert_eq!(trace[0].0, product.task.opening_service());
    }

    #[test]
    fn limits_stop_the_search() {
        let spec = unbounded_pool();
        let property = trivial_property();
        let product = ProductSystem::new(&spec, &property, true).unwrap();
        let mut search = KarpMillerSearch::new(
            &product,
            // Equality pruning cannot cope with unbounded counters, so the
            // node limit must trigger.
            CoverageKind::Equality,
            false,
            SearchLimits {
                max_states: 50,
                max_millis: 10_000,
            },
        );
        assert_eq!(search.run(), SearchOutcome::LimitReached);
        assert!(search.stats.limit_reached);
    }

    /// A parallel run is bit-identical to a sequential one: same tree
    /// size, same active set, same statistics (up to timing and thread
    /// configuration).
    #[test]
    fn parallel_run_matches_sequential_exactly() {
        let spec = unbounded_pool();
        let property = trivial_property();
        let product = ProductSystem::new(&spec, &property, true).unwrap();
        for (coverage, dss) in [
            (CoverageKind::Subsumption, true),
            (CoverageKind::Subsumption, false),
            (CoverageKind::Standard, false),
        ] {
            let limits = SearchLimits {
                max_states: 5_000,
                max_millis: 60_000,
            };
            let mut sequential = KarpMillerSearch::new(&product, coverage, dss, limits);
            let seq_outcome = sequential.run();
            let mut parallel = KarpMillerSearch::new(&product, coverage, dss, limits);
            parallel.threads = 4;
            let par_outcome = parallel.run();
            assert_eq!(seq_outcome, par_outcome);
            assert_eq!(sequential.len(), parallel.len());
            assert_eq!(sequential.active_nodes(), parallel.active_nodes());
            assert_eq!(sequential.interner.len(), parallel.interner.len());
            let mut seq_stats = sequential.stats;
            let mut par_stats = parallel.stats;
            seq_stats.elapsed_ms = 0;
            par_stats.elapsed_ms = 0;
            seq_stats.threads = 0;
            par_stats.threads = 0;
            assert_eq!(seq_stats, par_stats);
            assert_eq!(parallel.worker_stats.len(), 4);
            let planned: usize = parallel.worker_stats.iter().map(|w| w.nodes_planned).sum();
            assert!(planned > 0, "workers must have planned some nodes");
        }
    }

    /// The grouped candidates (DSS on) must be a bit-identical replacement
    /// for the full linear scans (DSS off): same tree, same active set,
    /// same statistics.
    #[test]
    fn grouped_layout_matches_reference_scans_exactly() {
        let spec = unbounded_pool();
        let property = trivial_property();
        let product = ProductSystem::new(&spec, &property, true).unwrap();
        for coverage in [
            CoverageKind::Subsumption,
            CoverageKind::Standard,
            CoverageKind::Equality,
        ] {
            let limits = SearchLimits {
                max_states: 300,
                max_millis: 60_000,
            };
            let mut grouped = KarpMillerSearch::new(&product, coverage, true, limits);
            let grouped_outcome = grouped.run();
            let mut reference = KarpMillerSearch::new(&product, coverage, false, limits);
            let reference_outcome = reference.run();
            assert_eq!(grouped_outcome, reference_outcome);
            assert_eq!(grouped.len(), reference.len());
            assert_eq!(grouped.active_nodes(), reference.active_nodes());
            let mut g = grouped.stats;
            let mut r = reference.stats;
            g.elapsed_ms = 0;
            r.elapsed_ms = 0;
            assert_eq!(g, r);
        }
    }

    /// A successor whose speculated coverer is deactivated earlier in its
    /// round, with no other state covering it, gets its prune list from
    /// the live tree.  `loan_approval`'s ninth generated property takes
    /// that path twice; the statistics and the active set are the ones
    /// the search produced before plans skipped the prune lists of
    /// covered successors.
    #[test]
    fn an_uncovered_successor_of_a_deactivated_coverer_prunes_from_the_live_tree() {
        let spec = verifas_workloads::loan_approval();
        let property = verifas_workloads::generate_properties(&spec, 2017).swap_remove(8);
        let product = ProductSystem::new(&spec, &property, true).unwrap();
        for threads in [1, 4] {
            let mut search = KarpMillerSearch::new(
                &product,
                CoverageKind::Subsumption,
                true,
                SearchLimits::default(),
            );
            search.threads = threads;
            assert_eq!(search.run(), SearchOutcome::Exhausted);
            assert_eq!(search.live_prune_lists, 2, "{threads} threads");
            let stats = SearchStats {
                elapsed_ms: 0,
                threads: 0,
                ..search.stats
            };
            assert_eq!(
                stats,
                SearchStats {
                    states_created: 46,
                    states_active: 19,
                    states_skipped: 61,
                    states_pruned: 27,
                    accelerations: 1,
                    stored_types: 1,
                    ..SearchStats::default()
                },
                "{threads} threads"
            );
            assert_eq!(
                search.active_nodes(),
                [0, 1, 2, 6, 15, 26, 27, 28, 29, 32, 33, 36, 37, 40, 41, 42, 43, 44, 45],
                "{threads} threads"
            );
        }
    }

    /// The memory estimate charges each successor-log entry its size.
    #[test]
    fn the_estimate_charges_each_logged_successor_its_size() {
        let spec = unbounded_pool();
        let property = trivial_property();
        let product = ProductSystem::new(&spec, &property, true).unwrap();
        let mut search = KarpMillerSearch::new(
            &product,
            CoverageKind::StrictSubsumption,
            true,
            SearchLimits::default(),
        );
        search.record_successors = true;
        assert_eq!(search.run(), SearchOutcome::Exhausted);
        let logged = search.successor_log.len();
        assert!(logged > 0);
        let with_log = search.estimated_bytes();
        search.successor_log.truncate(logged - 1);
        assert_eq!(
            with_log - search.estimated_bytes(),
            std::mem::size_of::<LoggedSuccessor>()
        );
        search.successor_log.clear();
        assert_eq!(
            with_log - search.estimated_bytes(),
            logged * std::mem::size_of::<LoggedSuccessor>()
        );
    }
}
