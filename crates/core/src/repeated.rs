//! Repeated reachability (Section 3.8 and Appendix C): detecting *infinite*
//! violating local runs.
//!
//! An infinite local run violating the property corresponds to a run of the
//! product system that visits accepting automaton states infinitely often.
//! Following the paper, the analysis works on a coverability-style set of
//! states computed by a Karp–Miller search whose pruning order is the
//! *strict* subsumption `≼⁺` (Definition 31) — the ≼ order alone is too
//! aggressive to preserve completeness of cycle detection.  A state is
//! repeatedly reachable iff
//!
//! * one of its counters is `ω` (the acceleration that produced the `ω`
//!   witnesses a pumpable cycle through the state), or
//! * it lies on a cycle of the abstract transition graph over the active
//!   states, where there is an edge `I → J` whenever some successor of `I`
//!   is covered by `J`.
//!
//! The verifier reports an infinite violation when an *accepting* state is
//! repeatedly reachable.
//!
//! # The cycle-detection pass
//!
//! Rule (b) above is a graph analysis over the search's final active set
//! and is organised as a single pass in four respects:
//!
//! 1. **No successor re-enumeration.**  The auxiliary search records, for
//!    every node it expands, each product successor's observable service
//!    and pre-acceleration state (see
//!    `KarpMillerSearch::record_successors`).  Re-running the symbolic
//!    transition function — condition evaluation plus congruence closure —
//!    was the dominant cost of the old post-pass; the log replaces it with
//!    a clone made while the search had the successor in hand anyway.
//!    The logged states carry only published type ids, so the pass needs
//!    no interner clone.  Only active nodes a *limit-stopped* search never
//!    expanded (absent from the log by construction) are enumerated live,
//!    against a cheap [`WorkerInterner`] scratch overlay — an exhausted
//!    search, the common case, expands every node.
//! 2. **Signature-gated coverage candidates.**  With data-structure
//!    support, each successor's covering candidates are the active states
//!    of its discrete group (only states with equal discrete components
//!    are ever comparable) whose `=`-edge signature is a subset of the
//!    successor's — the same `index::Candidates` the search queries,
//!    built once over the final (post-prune) active set.  Without it every
//!    active state is a candidate.  Both are sound over-approximations of
//!    the exact `covers` test, so the resulting edge list is identical
//!    either way.
//! 3. **Parallel edge construction.**  The edges are built in waves of
//!    source states on the same ordered worker pool as the search's plan
//!    rounds: inline for one thread or a small wave, otherwise on scoped
//!    threads that claim chunks of the wave from one cursor and compute
//!    candidate edges against the frozen search.  Results come back by
//!    active-set position, so the merged edge list — and therefore the
//!    verdict, the witness and the [`CycleStats`] — is bit-identical for
//!    every thread count.
//! 4. **One SCC pass instead of one DFS per accepting state.**  A state
//!    lies on a cycle iff its strongly connected component has size > 1 or
//!    it has a self-loop, so a single Tarjan pass over the abstract graph
//!    answers the question for *all* accepting states at once — O(V + E)
//!    where the per-state DFS walk was O(A · (V + E)) — and its SCC
//!    structure yields a concrete cycle for the violation's
//!    [`InfiniteViolation::reason`].
//!
//! The pass polls [`SearchControl::should_stop`] at a bounded interval and
//! emits [`ProgressEvent::CycleProgress`] events, so a long post-pass is
//! both observable and cancellable; a run stopped mid-construction skips
//! the (then unsound) cycle check and reports itself as limit-reached and
//! cancelled.  The pre-optimisation O(active²) implementation is kept as
//! [`find_infinite_violation_reference`] for differential tests and the
//! `ci_bench` speedup measurement.

use crate::coverage::{covers, discrete_key, CoverageKind};
use crate::index::Candidates;
use crate::observer::{Phase, ProgressEvent, SearchControl};
use crate::product::{ProductSuccessor, ProductSystem, StateView};
use crate::psi::{TypeTable, WorkerInterner, OMEGA};
use crate::search::{
    merge_worker_stats, KarpMillerSearch, LoggedSuccessor, SearchLimits, SearchOutcome,
    SearchStats, WorkerStats,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Instant;
use verifas_model::ServiceRef;

/// Result of the repeated-reachability analysis.
#[derive(Debug, Clone)]
pub struct InfiniteViolation {
    /// The prefix of observable services leading to the repeatedly
    /// reachable accepting state.
    pub prefix: Vec<ServiceRef>,
    /// Human-readable explanation of why the state repeats.
    pub reason: String,
}

/// Statistics of the cycle-detection pass (rule (b)) of the
/// repeated-reachability analysis.
///
/// `candidates` counts the exact `covers` tests that ran after candidate
/// filtering, so `edges as f64 / candidates as f64` is the filter's hit
/// rate (see [`CycleStats::candidate_hit_rate`]).  Everything except the
/// timing fields and `threads` is deterministic: identical for every
/// thread count, and — apart from `candidates`, which measures the filter
/// itself — identical with data-structure support on or off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleStats {
    /// Vertices of the abstract transition graph (the final active set).
    pub states: usize,
    /// Product successors enumerated during edge construction.
    pub successors: usize,
    /// Exact `covers` tests run after candidate filtering.
    pub candidates: usize,
    /// Edges of the abstract transition graph.
    pub edges: usize,
    /// Strongly connected components of the graph.
    pub sccs: usize,
    /// States on a cycle (SCC of size > 1, or a self-loop).
    pub cyclic_states: usize,
    /// Worker threads the edge construction ran with.
    pub threads: usize,
    /// Wall-clock time of the edge construction, in microseconds (the
    /// pass is often sub-millisecond; coarser units would quantize the
    /// benchmark ratios built on it to noise).
    pub edge_micros: u64,
    /// Wall-clock time of the SCC pass, in microseconds.
    pub scc_micros: u64,
    /// `false` when cancellation or the deadline stopped the pass before
    /// the edge list was complete (the cycle check is then skipped and the
    /// outcome reports `limit_reached`).
    pub completed: bool,
}

impl CycleStats {
    /// Fraction of the filtered candidate pairs that passed the exact
    /// `covers` test (1.0 when nothing was tested).
    pub fn candidate_hit_rate(&self) -> f64 {
        if self.candidates == 0 {
            1.0
        } else {
            self.edges as f64 / self.candidates as f64
        }
    }
}

/// Outcome of the analysis together with the statistics of the underlying
/// search.
#[derive(Debug, Clone)]
pub struct RepeatedOutcome {
    /// An infinite violation, if one exists (within the limits).
    pub violation: Option<InfiniteViolation>,
    /// Statistics of the auxiliary search.
    pub stats: SearchStats,
    /// `true` when the auxiliary search hit a resource limit (the answer
    /// may then be incomplete).
    pub limit_reached: bool,
    /// `true` when the auxiliary search found a finite violation first
    /// (can happen because it explores the same product).
    pub finite_violation: Option<Vec<ServiceRef>>,
    /// Per-worker statistics of the auxiliary search and the edge
    /// construction.
    pub worker_stats: Vec<WorkerStats>,
    /// Statistics of the cycle-detection pass, when it ran (absent when
    /// the search found a finite violation or rule (a) already produced
    /// the answer).
    pub cycle: Option<CycleStats>,
    /// Set when the auxiliary search's planning or the edge construction
    /// panicked (inline or on a worker thread): the analysis degraded to
    /// a limit-stopped run (partial answers stay sound — a violation found
    /// before the panic is real) and the owning engine request surfaces
    /// the message as a typed [`crate::error::VerifasError::Internal`].
    pub failure: Option<String>,
}

/// Run the repeated-reachability analysis on a product system.
///
/// `coverage` selects the pruning order of the auxiliary search: callers
/// pass [`CoverageKind::StrictSubsumption`] when the main search used the
/// ≼ pruning (Appendix C), [`CoverageKind::Standard`] when it used the
/// classic order, and [`CoverageKind::Equality`] for the baseline verifier.
/// `data_structure_support` selects grouped, signature-gated coverage
/// candidates over linear scans (the no-DSS ablation); the answer is the
/// same either way.
pub fn find_infinite_violation(
    product: &ProductSystem,
    coverage: CoverageKind,
    data_structure_support: bool,
    limits: SearchLimits,
) -> RepeatedOutcome {
    find_infinite_violation_with(
        product,
        coverage,
        data_structure_support,
        limits,
        1,
        &mut SearchControl::default(),
    )
}

/// Like [`find_infinite_violation`], but parallel, observable and
/// cancellable: `threads` workers run both the auxiliary search and the
/// edge construction of the cycle-detection pass (0 = one per available
/// core; the result is bit-identical for every thread count), progress
/// events are emitted to the control's observer (under
/// [`Phase::RepeatedReachability`]) and both the search and the cycle
/// detection stop early when the control's token is cancelled or its
/// deadline passes (the outcome then reports `limit_reached`).
pub fn find_infinite_violation_with(
    product: &ProductSystem,
    coverage: CoverageKind,
    data_structure_support: bool,
    limits: SearchLimits,
    threads: usize,
    control: &mut SearchControl<'_>,
) -> RepeatedOutcome {
    control.phase = Some(Phase::RepeatedReachability);
    let mut search = KarpMillerSearch::new(product, coverage, data_structure_support, limits);
    search.threads = threads;
    // The cycle-detection pass consumes the successors the search already
    // enumerated (successor enumeration — symbolic condition evaluation
    // plus congruence closure — is the dominant cost of re-walking the
    // active set, and the search has done that work once).
    search.record_successors = true;
    let outcome = search.run_with(control);
    // Each exit below sets only the fields it decides.
    let mut result = RepeatedOutcome {
        violation: None,
        stats: search.stats,
        limit_reached: outcome == SearchOutcome::LimitReached,
        finite_violation: None,
        worker_stats: std::mem::take(&mut search.worker_stats),
        cycle: None,
        failure: std::mem::take(&mut search.failure),
    };
    if let SearchOutcome::FiniteViolation(node) = outcome {
        result.finite_violation = Some(search.trace(node).into_iter().map(|(s, _)| s).collect());
        return result;
    }
    let active = search.active_nodes();
    // Rule (a): an accepting active state with an ω counter is repeatedly
    // reachable — the acceleration that produced the ω witnesses a cycle.
    if let Some(&i) = active.iter().find(|&&i| {
        let state = search.state_view(i);
        product.is_accepting_view(state)
            && !state.closed
            && state.counters.iter().any(|&(_, c)| c == OMEGA)
    }) {
        result.violation = Some(InfiniteViolation {
            prefix: search.trace(i).into_iter().map(|(s, _)| s).collect(),
            reason: "accepting state with an unbounded (ω) artifact-relation counter".to_owned(),
        });
        return result;
    }
    // Rule (b): cycle detection over the abstract transition graph of the
    // active states — gated candidates, parallel edge construction, one
    // SCC pass.
    let workers = result.stats.threads.max(1);
    let mut successors = std::mem::take(&mut search.successor_log);
    // Deterministic apply order already groups the log by parent; the
    // stable sort makes the per-parent ranges binary-searchable without
    // relying on that.
    successors.sort_by_key(|e| e.parent);
    let (graph, mut cycle, edge_workers, edge_failure) = build_abstract_edges(
        &search,
        product,
        coverage,
        data_structure_support,
        &active,
        &successors,
        workers,
        control,
    );
    merge_worker_stats(&mut result.worker_stats, &edge_workers);
    result.failure = result.failure.take().or(edge_failure);
    if !cycle.completed {
        // Cancellation, the deadline or a worker panic interrupted edge
        // construction: a cycle check over the partial graph would be
        // unsound (it could miss edges and report Satisfied), so skip it
        // and report the run as limit-reached and cancelled.
        result.limit_reached = true;
        result.stats.limit_reached = true;
        result.stats.cancelled = true;
        result.cycle = Some(cycle);
        return result;
    }
    let scc_start = Instant::now();
    let scc = tarjan_sccs(&graph);
    let self_loop: Vec<bool> = graph
        .iter()
        .enumerate()
        .map(|(ai, edges)| edges.iter().any(|&(aj, _)| aj == ai))
        .collect();
    let on_cycle = |ai: usize| scc.size[scc.id[ai]] > 1 || self_loop[ai];
    cycle.sccs = scc.size.len();
    cycle.cyclic_states = (0..graph.len()).filter(|&ai| on_cycle(ai)).count();
    cycle.scc_micros = scc_start.elapsed().as_micros() as u64;
    let hit = active.iter().enumerate().find(|&(ai, &i)| {
        let state = search.state_view(i);
        product.is_accepting_view(state) && !state.closed && on_cycle(ai)
    });
    if let Some((ai, &i)) = hit {
        let looped = cycle_services(ai, &graph, &scc)
            .iter()
            .map(|s| product.task.spec.service_name(*s))
            .collect::<Vec<_>>()
            .join(" → ");
        result.violation = Some(InfiniteViolation {
            prefix: search.trace(i).into_iter().map(|(s, _)| s).collect(),
            reason: format!(
                "accepting state lies on a cycle of the coverability graph (cycle: {looped})"
            ),
        });
    }
    result.cycle = Some(cycle);
    result
}

/// One edge of the abstract transition graph: the target's position in the
/// active set and the service of the (first) successor that witnessed the
/// coverage.
type AbstractEdge = (usize, ServiceRef);

/// Build the abstract transition graph over the active states: one edge
/// `ai → aj` whenever some successor of `active[ai]` is covered by
/// `active[aj]`, annotated with the service of the first such successor.
///
/// Successors come from the search's successor log (recorded during the
/// apply phase), so the pass never re-runs the symbolic transition
/// function.  The construction is chunked into waves of
/// [`SearchControl::granularity`] source states: within a wave, the
/// ordered pool builds each source's edge list on up to `workers` threads
/// and hands the lists back by position (so the merged graph is
/// independent of scheduling); between waves, the coordinating thread
/// emits a [`ProgressEvent::CycleProgress`] event.  Workers poll
/// [`SearchControl::should_stop`] per source state; an interrupted pass
/// returns with `CycleStats::completed == false`.
///
/// A panic while building edges interrupts the pass the same way
/// cancellation does (`completed == false`, so the caller skips the
/// unsound cycle check); the panic message is returned as the fourth
/// component instead of unwinding.
#[allow(clippy::too_many_arguments)]
fn build_abstract_edges(
    search: &KarpMillerSearch<'_>,
    product: &ProductSystem,
    coverage: CoverageKind,
    data_structure_support: bool,
    active: &[usize],
    successors: &[LoggedSuccessor],
    workers: usize,
    control: &mut SearchControl<'_>,
) -> (
    Vec<Vec<AbstractEdge>>,
    CycleStats,
    Vec<WorkerStats>,
    Option<String>,
) {
    let start = Instant::now();
    let n = active.len();
    let mut cycle = CycleStats {
        states: n,
        threads: workers,
        completed: true,
        ..CycleStats::default()
    };
    // Candidate targets are active-set positions: the gated discrete
    // groups, or every position without DSS.
    let mut candidates = Candidates::new(data_structure_support);
    for (ai, &i) in active.iter().enumerate() {
        let state = search.state_view(i);
        candidates.insert(discrete_key(state), ai as u32, state.pit.signature());
    }
    // The logged successors of each active source, as a range into the
    // (parent-sorted) log.
    let ranges: Vec<&[LoggedSuccessor]> = active
        .iter()
        .map(|&i| {
            let i = i as u32;
            let lo = successors.partition_point(|e| e.parent < i);
            let hi = successors.partition_point(|e| e.parent <= i);
            &successors[lo..hi]
        })
        .collect();
    let phase = control.current_phase();
    // Sequential waves follow the progress granularity exactly; parallel
    // waves are floored so each threaded pool call amortizes its spawns
    // over real work (progress events then come at wave boundaries, still
    // a bounded interval).
    let wave = if workers <= 1 {
        control.granularity()
    } else {
        control.granularity().max(workers * 64)
    };
    let mut graph: Vec<Vec<AbstractEdge>> = Vec::with_capacity(n);
    let mut worker_stats: Vec<WorkerStats> = Vec::new();
    crate::search::ensure_worker_slots(&mut worker_stats, workers.max(1));
    let mut failure: Option<String> = None;
    let mut processed = 0usize;
    while processed < n {
        if control.should_stop() {
            cycle.completed = false;
            break;
        }
        // Wave boundary: re-poll the dynamic thread budget, if one is
        // installed (the merged graph is position-ordered, so the worker
        // count of a wave cannot change the result).
        let workers = control.workers_for_round(workers);
        cycle.threads = cycle.threads.max(workers);
        crate::search::ensure_worker_slots(&mut worker_stats, workers);
        // Memory boundary: the finished search plus the growing edge
        // lists are this pass's resident set.  A refused grow interrupts
        // the pass like cancellation (the caller reports limit_reached —
        // a partial graph must never be cycle-checked).
        const EDGE_BYTES: usize = 48;
        if !control.charge_memory(search.estimated_bytes() + cycle.edges * EDGE_BYTES) {
            cycle.completed = false;
            break;
        }
        let end = (processed + wave).min(n);
        let pooled = crate::pool::run_ordered(
            end - processed,
            workers,
            |_| {
                (
                    WorkerInterner::scratch(&search.interner),
                    Vec::<ProductSuccessor>::new(),
                    CycleStats::default(),
                )
            },
            || control.should_stop(),
            |offset, (scratch, buffer, counts), stats| {
                let pos = processed + offset;
                source_edges(
                    search,
                    product,
                    coverage,
                    &candidates,
                    active,
                    pos,
                    ranges[pos],
                    scratch,
                    buffer,
                    stats,
                    counts,
                )
            },
        );
        // A panicked edge worker interrupts the pass like cancellation
        // (the caller then skips the unsound cycle check).
        let wave_run = match pooled {
            Ok(wave_run) => wave_run,
            Err(panic) => {
                failure = Some(format!("edge-construction worker panicked: {panic}"));
                cycle.completed = false;
                break;
            }
        };
        for (stats, (_, _, counts)) in wave_run.stats.iter().zip(&wave_run.states) {
            worker_stats[stats.worker].absorb(stats);
            cycle.successors += counts.successors;
            cycle.candidates += counts.candidates;
        }
        if wave_run.stopped {
            cycle.completed = false;
            break;
        }
        // Merge the wave in position order (determinism: the graph does
        // not depend on which worker produced which position).
        for edges in wave_run.results {
            let edges = edges.expect("every position of an unstopped wave ran");
            cycle.edges += edges.len();
            graph.push(edges);
        }
        processed = end;
        control.emit(ProgressEvent::CycleProgress {
            phase,
            states_processed: processed,
            edges_built: cycle.edges,
        });
    }
    cycle.edge_micros = start.elapsed().as_micros() as u64;
    (graph, cycle, worker_stats, failure)
}

/// The outgoing abstract edges of one source state, ascending by target
/// position; each target is annotated with the service of the first
/// successor that it covers.
///
/// Successors normally come from the search's log; an active node a
/// limit-stopped search never expanded has no log entries, so its
/// successors are enumerated live against a scratch interner overlay
/// (the old implementation's path, kept for exactly this case — an
/// exhausted search never takes it).
#[allow(clippy::too_many_arguments)]
fn source_edges(
    search: &KarpMillerSearch<'_>,
    product: &ProductSystem,
    coverage: CoverageKind,
    candidates: &Candidates,
    active: &[usize],
    position: usize,
    successors: &[LoggedSuccessor],
    scratch: &mut WorkerInterner<'_>,
    buffer: &mut Vec<ProductSuccessor>,
    stats: &mut WorkerStats,
    counts: &mut CycleStats,
) -> Vec<AbstractEdge> {
    let node = active[position];
    stats.nodes_planned += 1;
    if search.state_view(node).closed {
        return Vec::new();
    }
    let mut out: Vec<AbstractEdge> = Vec::new();
    if search.is_expanded(node) {
        stats.successors_planned += successors.len();
        counts.successors += successors.len();
        for entry in successors {
            edges_for_successor(
                search,
                coverage,
                candidates,
                active,
                entry.service,
                search.logged_view(entry),
                &search.interner,
                &mut out,
                counts,
            );
        }
    } else {
        let state = search.materialize_state(node);
        product.successors_into(&state, scratch, buffer);
        stats.successors_planned += buffer.len();
        counts.successors += buffer.len();
        for succ in buffer.iter() {
            edges_for_successor(
                search,
                coverage,
                candidates,
                active,
                succ.service,
                succ.state.view(),
                scratch,
                &mut out,
                counts,
            );
        }
    }
    out.sort_unstable_by_key(|&(t, _)| t);
    out
}

/// Test one successor against the candidate targets, appending any new
/// edges (first witness wins).
#[allow(clippy::too_many_arguments)]
fn edges_for_successor(
    search: &KarpMillerSearch<'_>,
    coverage: CoverageKind,
    candidates: &Candidates,
    active: &[usize],
    service: ServiceRef,
    succ: StateView<'_>,
    table: &dyn TypeTable,
    out: &mut Vec<AbstractEdge>,
    counts: &mut CycleStats,
) {
    for aj in candidates.covering(discrete_key(succ), succ.pit.signature(), 0) {
        let aj = aj as usize;
        if out.iter().any(|&(t, _)| t == aj) {
            // Already witnessed by an earlier successor; the edge and its
            // service are fixed by the first witness.
            continue;
        }
        counts.candidates += 1;
        if covers(coverage, succ, search.state_view(active[aj]), table) {
            out.push((aj, service));
        }
    }
}

/// The strongly connected components of the abstract graph.
struct SccResult {
    /// Component id per vertex.
    id: Vec<usize>,
    /// Component sizes, indexed by component id.
    size: Vec<usize>,
}

/// Iterative Tarjan over the abstract graph (recursion-free: active sets
/// can be large and stack depth must not depend on the workload).
fn tarjan_sccs(graph: &[Vec<AbstractEdge>]) -> SccResult {
    let n = graph.len();
    const UNVISITED: usize = usize::MAX;
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut id = vec![UNVISITED; n];
    let mut components = 0usize;
    let mut next_index = 0usize;
    let mut call: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        call.push((root, 0));
        while let Some(&(v, edge)) = call.last() {
            if edge < graph[v].len() {
                call.last_mut().expect("frame exists").1 += 1;
                let (w, _) = graph[v][edge];
                if index[w] == UNVISITED {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&(u, _)) = call.last() {
                    low[u] = low[u].min(low[v]);
                }
                if low[v] == index[v] {
                    loop {
                        let w = stack.pop().expect("Tarjan stack holds the component");
                        on_stack[w] = false;
                        id[w] = components;
                        if w == v {
                            break;
                        }
                    }
                    components += 1;
                }
            }
        }
    }
    let mut size = vec![0usize; components];
    for &component in &id {
        size[component] += 1;
    }
    SccResult { id, size }
}

/// A concrete cycle through `start` (which must lie on one): the services
/// of a shortest edge path `start → … → start` inside its SCC, found by a
/// deterministic BFS over the (position-ordered) edge lists.
fn cycle_services(start: usize, graph: &[Vec<AbstractEdge>], scc: &SccResult) -> Vec<ServiceRef> {
    let component = scc.id[start];
    let mut parent: HashMap<usize, AbstractEdge> = HashMap::new();
    let mut visited: HashSet<usize> = HashSet::from([start]);
    let mut queue: VecDeque<usize> = VecDeque::from([start]);
    while let Some(v) = queue.pop_front() {
        for &(w, service) in &graph[v] {
            if w == start {
                // Close the cycle: walk the BFS parents back to `start`.
                let mut services = vec![service];
                let mut current = v;
                while current != start {
                    let (p, s) = parent[&current];
                    services.push(s);
                    current = p;
                }
                services.reverse();
                return services;
            }
            if scc.id[w] == component && visited.insert(w) {
                parent.insert(w, (v, service));
                queue.push_back(w);
            }
        }
    }
    Vec::new()
}

/// The pre-optimisation sequential implementation of the analysis —
/// O(active²) `covers` tests for edge construction plus one DFS walk per
/// accepting state, over a search without data-structure support (linear
/// candidate scans) — kept as a differential-testing oracle and as the
/// baseline of the `ci_bench` repeated-reachability speedup measurement.
/// New callers should use [`find_infinite_violation`].
pub fn find_infinite_violation_reference(
    product: &ProductSystem,
    coverage: CoverageKind,
    limits: SearchLimits,
) -> RepeatedOutcome {
    let mut search = KarpMillerSearch::new(product, coverage, false, limits);
    let outcome = search.run();
    let stats = search.stats;
    let worker_stats = std::mem::take(&mut search.worker_stats);
    let failure = std::mem::take(&mut search.failure);
    if let SearchOutcome::FiniteViolation(node) = outcome {
        let prefix = search.trace(node).into_iter().map(|(s, _)| s).collect();
        return RepeatedOutcome {
            violation: None,
            stats,
            limit_reached: false,
            finite_violation: Some(prefix),
            worker_stats,
            cycle: None,
            failure,
        };
    }
    let limit_reached = outcome == SearchOutcome::LimitReached;
    let active = search.active_nodes();
    for &i in &active {
        let state = search.state_view(i);
        if product.is_accepting_view(state)
            && !state.closed
            && state.counters.iter().any(|&(_, c)| c == OMEGA)
        {
            let prefix = search.trace(i).into_iter().map(|(s, _)| s).collect();
            return RepeatedOutcome {
                violation: Some(InfiniteViolation {
                    prefix,
                    reason: "accepting state with an unbounded (ω) artifact-relation counter"
                        .to_owned(),
                }),
                stats,
                limit_reached,
                finite_violation: None,
                worker_stats,
                cycle: None,
                failure,
            };
        }
    }
    let mut interner = search.interner.clone();
    let n = active.len();
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (ai, &i) in active.iter().enumerate() {
        if search.state_view(i).closed {
            continue;
        }
        let state = search.materialize_state(i);
        for succ in product.successors(&state, &mut interner) {
            for (aj, &j) in active.iter().enumerate() {
                if covers(coverage, succ.state.view(), search.state_view(j), &interner) {
                    edges[ai].push(aj);
                }
            }
        }
    }
    for (ai, &i) in active.iter().enumerate() {
        let state = search.state_view(i);
        if !product.is_accepting_view(state) || state.closed {
            continue;
        }
        let mut seen = vec![false; n];
        let mut stack: Vec<usize> = edges[ai].clone();
        let mut on_cycle = false;
        while let Some(x) = stack.pop() {
            if x == ai {
                on_cycle = true;
                break;
            }
            if seen[x] {
                continue;
            }
            seen[x] = true;
            stack.extend(edges[x].iter().copied());
        }
        if on_cycle {
            let prefix = search.trace(i).into_iter().map(|(s, _)| s).collect();
            return RepeatedOutcome {
                violation: Some(InfiniteViolation {
                    prefix,
                    reason: "accepting state lies on a cycle of the coverability graph".to_owned(),
                }),
                stats,
                limit_reached,
                finite_violation: None,
                worker_stats,
                cycle: None,
                failure,
            };
        }
    }
    RepeatedOutcome {
        violation: None,
        stats,
        limit_reached,
        finite_violation: None,
        worker_stats,
        cycle: None,
        failure,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::CancelToken;
    use crate::pit::Signature;
    use verifas_ltl::{Ltl, LtlFoProperty, PropAtom};
    use verifas_model::schema::attr::data;
    use verifas_model::{
        Condition, DatabaseSchema, HasSpec, SpecBuilder, TaskBuilder, TaskId, Term,
    };

    /// status cycles null -> "Working" -> "Done" -> null forever.
    fn cycling_spec() -> HasSpec {
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
        let mut b = SpecBuilder::new("cycle", db, root.build());
        b.global_pre(Condition::eq(Term::var(status), Term::Null));
        b.build().unwrap()
    }

    fn status_is(v: &str) -> Condition {
        Condition::eq(Term::var(verifas_model::VarId::new(0)), Term::str(v))
    }

    /// Two variables: `pair` sets both to "A" (three `=`-edges once
    /// closed), `left` sets only `x` (one edge), `reset` clears both, so
    /// one discrete group holds states of different signatures.
    fn pair_spec() -> HasSpec {
        let mut db = DatabaseSchema::new();
        db.add_relation("R", vec![data("a")]).unwrap();
        let mut root = TaskBuilder::new("Root");
        let x = root.data_var("x");
        let y = root.data_var("y");
        let is = |v, c: Term| Condition::eq(Term::var(v), c);
        root.service_parts(
            "pair",
            is(x, Term::Null),
            Condition::and([is(x, Term::str("A")), is(y, Term::str("A"))]),
            vec![],
            None,
        );
        root.service_parts(
            "left",
            is(x, Term::Null),
            is(x, Term::str("A")),
            vec![],
            None,
        );
        root.service_parts(
            "reset",
            is(x, Term::str("A")),
            Condition::and([is(x, Term::Null), is(y, Term::Null)]),
            vec![],
            None,
        );
        let mut b = SpecBuilder::new("pair", db, root.build());
        b.global_pre(Condition::and([is(x, Term::Null), is(y, Term::Null)]));
        b.build().unwrap()
    }

    #[test]
    fn violated_invariant_is_found_as_infinite_violation() {
        // G ¬(status = "Done") is violated by the infinite cycling run.
        let spec = cycling_spec();
        let property = LtlFoProperty::new(
            "never-done",
            TaskId::new(0),
            vec![],
            Ltl::globally(Ltl::not(Ltl::prop(0))),
            vec![PropAtom::Condition(status_is("Done"))],
        );
        let product = ProductSystem::new(&spec, &property, true).unwrap();
        let outcome = find_infinite_violation(
            &product,
            CoverageKind::StrictSubsumption,
            true,
            SearchLimits::default(),
        );
        assert!(outcome.violation.is_some());
        assert!(!outcome.limit_reached);
        // The SCC pass ran and found a cycle; the reason names it.
        let cycle = outcome.cycle.expect("rule (b) ran");
        assert!(cycle.completed);
        assert!(cycle.edges > 0);
        assert!(cycle.cyclic_states > 0);
        assert!(outcome.violation.unwrap().reason.contains("cycle:"));
    }

    #[test]
    fn satisfied_invariant_has_no_violation() {
        // G ¬(status = "Broken") holds.
        let spec = cycling_spec();
        let property = LtlFoProperty::new(
            "never-broken",
            TaskId::new(0),
            vec![],
            Ltl::globally(Ltl::not(Ltl::prop(0))),
            vec![PropAtom::Condition(status_is("Broken"))],
        );
        let product = ProductSystem::new(&spec, &property, true).unwrap();
        let outcome = find_infinite_violation(
            &product,
            CoverageKind::StrictSubsumption,
            true,
            SearchLimits::default(),
        );
        assert!(outcome.violation.is_none());
        assert!(!outcome.limit_reached);
        assert!(outcome.cycle.is_some_and(|c| c.completed));
    }

    #[test]
    fn liveness_violation_detected() {
        // F (status = "Shipped") is violated: there is an infinite run that
        // never reaches "Shipped" (indeed no run ever does).
        let spec = cycling_spec();
        let property = LtlFoProperty::new(
            "eventually-shipped",
            TaskId::new(0),
            vec![],
            Ltl::eventually(Ltl::prop(0)),
            vec![PropAtom::Condition(status_is("Shipped"))],
        );
        let product = ProductSystem::new(&spec, &property, true).unwrap();
        let outcome = find_infinite_violation(
            &product,
            CoverageKind::StrictSubsumption,
            false,
            SearchLimits::default(),
        );
        assert!(outcome.violation.is_some());
    }

    #[test]
    fn satisfied_response_property() {
        // G (status = "Working" -> F status = "Done") holds for this spec:
        // from "Working" the only applicable service is `finish`, and
        // fairness of local runs means the run either stops being extended
        // (not a run) or eventually fires it.
        let spec = cycling_spec();
        let property = LtlFoProperty::new(
            "working-leads-to-done",
            TaskId::new(0),
            vec![],
            Ltl::globally(Ltl::implies(Ltl::prop(0), Ltl::eventually(Ltl::prop(1)))),
            vec![
                PropAtom::Condition(status_is("Working")),
                PropAtom::Condition(status_is("Done")),
            ],
        );
        let product = ProductSystem::new(&spec, &property, true).unwrap();
        let outcome = find_infinite_violation(
            &product,
            CoverageKind::StrictSubsumption,
            true,
            SearchLimits::default(),
        );
        assert!(outcome.violation.is_none());
    }

    /// The verdict and the witness prefix agree with the pre-optimisation
    /// reference implementation, with DSS on and off and for every thread
    /// count.
    #[test]
    fn agrees_with_the_reference_implementation() {
        let spec = cycling_spec();
        for (name, formula, props) in [
            (
                "never-done",
                Ltl::globally(Ltl::not(Ltl::prop(0))),
                vec![PropAtom::Condition(status_is("Done"))],
            ),
            (
                "never-broken",
                Ltl::globally(Ltl::not(Ltl::prop(0))),
                vec![PropAtom::Condition(status_is("Broken"))],
            ),
            (
                "eventually-shipped",
                Ltl::eventually(Ltl::prop(0)),
                vec![PropAtom::Condition(status_is("Shipped"))],
            ),
        ] {
            let property = LtlFoProperty::new(name, TaskId::new(0), vec![], formula, props);
            let product = ProductSystem::new(&spec, &property, true).unwrap();
            let reference = find_infinite_violation_reference(
                &product,
                CoverageKind::StrictSubsumption,
                SearchLimits::default(),
            );
            for dss in [true, false] {
                for threads in [1, 4] {
                    let outcome = find_infinite_violation_with(
                        &product,
                        CoverageKind::StrictSubsumption,
                        dss,
                        SearchLimits::default(),
                        threads,
                        &mut SearchControl::default(),
                    );
                    assert_eq!(
                        reference.violation.is_some(),
                        outcome.violation.is_some(),
                        "{name}: verdict diverged (DSS {dss}, {threads} threads)"
                    );
                    assert_eq!(
                        reference.violation.as_ref().map(|v| &v.prefix),
                        outcome.violation.as_ref().map(|v| &v.prefix),
                        "{name}: witness prefix diverged (DSS {dss}, {threads} threads)"
                    );
                }
            }
        }
    }

    /// On a limit-stopped auxiliary search the active set can contain
    /// frontier nodes the search never expanded — their successors are
    /// absent from the log, and the pass must enumerate them live so it
    /// still finds every violation the reference (which re-enumerates all
    /// active states) finds.  Sweep the state budget so the cut lands at
    /// many different round positions.
    #[test]
    fn limit_stopped_searches_agree_with_the_reference() {
        let spec = cycling_spec();
        let property = LtlFoProperty::new(
            "eventually-shipped",
            TaskId::new(0),
            vec![],
            Ltl::eventually(Ltl::prop(0)),
            vec![PropAtom::Condition(status_is("Shipped"))],
        );
        let product = ProductSystem::new(&spec, &property, true).unwrap();
        let mut violations_on_truncated = 0;
        for max_states in 2..24 {
            let limits = SearchLimits {
                max_states,
                max_millis: 600_000,
            };
            let reference = find_infinite_violation_reference(
                &product,
                CoverageKind::StrictSubsumption,
                limits,
            );
            for threads in [1, 4] {
                let outcome = find_infinite_violation_with(
                    &product,
                    CoverageKind::StrictSubsumption,
                    true,
                    limits,
                    threads,
                    &mut SearchControl::default(),
                );
                assert_eq!(
                    reference.violation.as_ref().map(|v| &v.prefix),
                    outcome.violation.as_ref().map(|v| &v.prefix),
                    "witness diverged at max_states {max_states} ({threads} threads)"
                );
                assert_eq!(reference.limit_reached, outcome.limit_reached);
            }
            if reference.limit_reached && reference.violation.is_some() {
                violations_on_truncated += 1;
            }
        }
        // The sweep must actually exercise the interesting case: a
        // truncated search whose partial active set already witnesses the
        // violation.
        assert!(violations_on_truncated > 0, "sweep never hit the hard case");
    }

    /// A cancellation firing during edge construction skips the cycle
    /// check: no violation is reported and the outcome is flagged as
    /// limit-reached and cancelled (not silently Satisfied).
    #[test]
    fn cancellation_during_edge_construction_is_inconclusive() {
        let spec = cycling_spec();
        // A property that *is* violated by an infinite run: if the
        // cancelled pass were to run over the partial edge list, it could
        // still (unsoundly) claim a verdict; the safe answer is none.
        let property = LtlFoProperty::new(
            "eventually-shipped",
            TaskId::new(0),
            vec![],
            Ltl::eventually(Ltl::prop(0)),
            vec![PropAtom::Condition(status_is("Shipped"))],
        );
        let product = ProductSystem::new(&spec, &property, true).unwrap();
        let token = CancelToken::new();
        let trigger = token.clone();
        // Cancel the moment the post-pass reports its first progress: the
        // token lands between waves of edge construction.
        let mut observer = move |event: &ProgressEvent| {
            if matches!(event, ProgressEvent::CycleProgress { .. }) {
                trigger.cancel();
            }
        };
        let mut control = SearchControl {
            observer: Some(&mut observer),
            cancel: Some(token),
            progress_every: 1,
            ..SearchControl::default()
        };
        let outcome = find_infinite_violation_with(
            &product,
            CoverageKind::StrictSubsumption,
            true,
            SearchLimits::default(),
            1,
            &mut control,
        );
        assert!(
            outcome.violation.is_none(),
            "no verdict from a partial graph"
        );
        assert!(outcome.limit_reached);
        assert!(outcome.stats.limit_reached);
        assert!(outcome.stats.cancelled);
        let cycle = outcome.cycle.expect("the pass started");
        assert!(!cycle.completed);
    }

    /// The post-pass emits `CycleProgress` events under the
    /// repeated-reachability phase, with monotone counters.
    #[test]
    fn cycle_detection_emits_progress_events() {
        let spec = cycling_spec();
        let property = LtlFoProperty::new(
            "never-broken",
            TaskId::new(0),
            vec![],
            Ltl::globally(Ltl::not(Ltl::prop(0))),
            vec![PropAtom::Condition(status_is("Broken"))],
        );
        let product = ProductSystem::new(&spec, &property, true).unwrap();
        let mut seen: Vec<(usize, usize)> = Vec::new();
        let mut observer = |event: &ProgressEvent| {
            if let ProgressEvent::CycleProgress {
                phase,
                states_processed,
                edges_built,
            } = event
            {
                assert_eq!(*phase, Phase::RepeatedReachability);
                seen.push((*states_processed, *edges_built));
            }
        };
        let mut control = SearchControl {
            observer: Some(&mut observer),
            progress_every: 1,
            ..SearchControl::default()
        };
        let outcome = find_infinite_violation_with(
            &product,
            CoverageKind::StrictSubsumption,
            true,
            SearchLimits::default(),
            1,
            &mut control,
        );
        drop(control);
        assert!(outcome.cycle.is_some());
        assert!(!seen.is_empty(), "the pass must be observable");
        assert!(seen
            .windows(2)
            .all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
    }

    /// For every logged successor, the signature-gated group, the bare
    /// group and the scan of every active position give
    /// `edges_for_successor` the same edges, and the gate skips members
    /// the bare group would have tested.
    #[test]
    fn filtered_grouped_and_scanned_candidates_give_the_same_edges() {
        let spec = pair_spec();
        let property = LtlFoProperty::new(
            "never-b",
            TaskId::new(0),
            vec![],
            Ltl::globally(Ltl::not(Ltl::prop(0))),
            vec![PropAtom::Condition(status_is("B"))],
        );
        let product = ProductSystem::new(&spec, &property, true).unwrap();
        let coverage = CoverageKind::StrictSubsumption;
        let mut search = KarpMillerSearch::new(&product, coverage, true, SearchLimits::default());
        search.record_successors = true;
        assert_eq!(search.run(), SearchOutcome::Exhausted);
        let active = search.active_nodes();
        let mut gated = Candidates::new(true);
        let (mut bare, mut scan) = (Candidates::new(true), Candidates::new(false));
        for (ai, &i) in active.iter().enumerate() {
            let state = search.state_view(i);
            let key = discrete_key(state);
            gated.insert(key, ai as u32, state.pit.signature());
            // The empty signature is a subset of every query's, so it
            // passes every `covering` gate.
            bare.insert(key, ai as u32, Signature::default());
            scan.insert(key, ai as u32, Signature::default());
        }
        let (mut rejected, mut witnessed) = (0, 0);
        for entry in &search.successor_log {
            let succ = search.logged_view(entry);
            let edges = |candidates: &Candidates| {
                let (mut out, mut counts) = (Vec::new(), CycleStats::default());
                edges_for_successor(
                    &search,
                    coverage,
                    candidates,
                    &active,
                    entry.service,
                    succ,
                    &search.interner,
                    &mut out,
                    &mut counts,
                );
                (out, counts.candidates)
            };
            let (filtered, tested) = edges(&gated);
            let (grouped, group) = edges(&bare);
            assert_eq!(filtered, grouped);
            assert_eq!(filtered, edges(&scan).0);
            witnessed += filtered.len();
            rejected += group - tested;
        }
        assert!(witnessed > 0, "no successor was covered at all");
        assert!(rejected > 0, "the gate never rejected a group member");
    }

    /// The edge construction and SCC statistics are identical across
    /// thread counts, and identical with DSS on and off except for the
    /// candidate count (which measures the filter itself).
    #[test]
    fn cycle_stats_are_deterministic() {
        let spec = cycling_spec();
        let property = LtlFoProperty::new(
            "eventually-shipped",
            TaskId::new(0),
            vec![],
            Ltl::eventually(Ltl::prop(0)),
            vec![PropAtom::Condition(status_is("Shipped"))],
        );
        let product = ProductSystem::new(&spec, &property, true).unwrap();
        let run = |dss: bool, threads: usize| {
            let outcome = find_infinite_violation_with(
                &product,
                CoverageKind::StrictSubsumption,
                dss,
                SearchLimits::default(),
                threads,
                &mut SearchControl::default(),
            );
            let mut cycle = outcome.cycle.expect("rule (b) ran");
            cycle.edge_micros = 0;
            cycle.scc_micros = 0;
            cycle.threads = 0;
            (outcome.violation.map(|v| (v.prefix, v.reason)), cycle)
        };
        let baseline = run(true, 1);
        assert_eq!(baseline, run(true, 4), "thread count changed the result");
        let (scan_verdict, scan_cycle) = run(false, 1);
        assert_eq!(baseline.0, scan_verdict, "DSS changed the verdict");
        let mut comparable = scan_cycle;
        comparable.candidates = baseline.1.candidates;
        assert_eq!(baseline.1, comparable, "DSS changed the graph");
    }
}
