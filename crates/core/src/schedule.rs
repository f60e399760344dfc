//! Sharded scheduling of batch verification.
//!
//! Every batch ([`crate::engine::Engine::check_all`],
//! [`crate::engine::Engine::batch`]) runs through the [`Scheduler`], which
//! shards the machine between *batch width* and *per-search depth* so that
//! the tail of a batch does not leave most cores idle behind one straggler
//! search:
//!
//! * while properties are still queued, every running search gets a budget
//!   of one thread (width first: `C` properties in flight beat one
//!   `C`-thread search, which never scales perfectly),
//! * once the queue drains, the scheduler splits the core budget across
//!   the searches still running *weighted by each search's live frontier
//!   width* (reported through [`ThreadBudget::report_frontier`] at round
//!   boundaries — a search cannot use more workers than it has frontier
//!   nodes to plan, so wide stragglers absorb the cores narrow ones would
//!   waste), and every time one finishes the freed cores are reassigned
//!   to the survivors — the last straggler ends up with all `C` cores on
//!   its one search.
//!
//! Budgets are delivered through [`ThreadBudget`] handles: a search polls
//! its handle at *round boundaries* (see the plan/apply rounds of
//! [`crate::search`]), which is safe because a round is bit-identical for
//! every thread count — growing or shrinking the pool between rounds
//! cannot change the tree, the statistics, the verdict or the witness.
//! The repeated-reachability edge construction polls the same handle at
//! its wave boundaries.
//!
//! Every budget handle records its occupancy timeline (when it was
//! resized, and to how many threads); the scheduler folds the timeline
//! into a per-property [`ScheduleStats`] block that
//! [`crate::report::VerificationReport`] serializes (schema v4) so a
//! verification service can see exactly how the machine was shared over
//! the life of a batch.
//!
//! The total core budget itself is dynamic: a [`SchedulerHandle`]
//! attached to a running batch (see
//! [`crate::engine::BatchBuilder::scheduler_handle`]) lets an *outer*
//! arbiter — a multi-tenant verification server sharing one machine
//! between many concurrent batches — grow or shrink the batch's whole
//! budget mid-run.  [`SchedulerHandle::set_total`] re-splits the new
//! total over the running searches immediately, and each search picks its
//! resized [`ThreadBudget`] up at its next round boundary; because rounds
//! are bit-identical for any worker count, reclaiming cores from a long
//! batch search never changes its verdict.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Batch-level scheduling options of one `check_all` run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchOptions {
    /// The core budget shared by the whole batch (0 = one per available
    /// core): it bounds the *sum* of all running searches' thread budgets.
    pub batch_threads: usize,
}

impl BatchOptions {
    /// The core budget after resolving the automatic setting.
    pub fn resolved_threads(&self) -> usize {
        match self.batch_threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }
}

/// One point of a core-occupancy timeline: from `at_ms` (milliseconds
/// since the batch started) on, the search ran under a budget of
/// `threads` worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OccupancySample {
    /// Milliseconds since the batch started.
    pub at_ms: u64,
    /// The thread budget from this point on.
    pub threads: usize,
}

/// A dynamic thread budget, shared between the scheduler (which resizes
/// it) and one running search (which polls it at round boundaries).
///
/// All clones share one value; [`ThreadBudget::current`] never returns 0.
/// Every effective resize is recorded with a timestamp so the scheduler
/// can report the search's core-occupancy timeline.
///
/// The budget also carries a *frontier hint* flowing the other way: the
/// search reports its live frontier width
/// ([`ThreadBudget::report_frontier`]) at the same round boundaries where
/// it polls the budget, and the scheduler weights the post-drain straggler
/// split by those widths — a search whose frontier is 4 nodes wide cannot
/// use 12 cores next round, so they go to the search that can.  The hint
/// is advisory scheduling input only; budgets never change results.
#[derive(Debug, Clone)]
pub struct ThreadBudget {
    shares: Arc<AtomicUsize>,
    frontier: Arc<AtomicUsize>,
    timeline: Arc<Mutex<Vec<OccupancySample>>>,
    epoch: Instant,
}

impl ThreadBudget {
    fn with_epoch(threads: usize, epoch: Instant) -> Self {
        let threads = threads.max(1);
        ThreadBudget {
            shares: Arc::new(AtomicUsize::new(threads)),
            frontier: Arc::new(AtomicUsize::new(0)),
            timeline: Arc::new(Mutex::new(vec![OccupancySample {
                at_ms: elapsed_ms(epoch),
                threads,
            }])),
            epoch,
        }
    }

    /// A budget pinned to `threads` (0 and 1 both mean sequential); useful
    /// for driving [`crate::search::KarpMillerSearch`] outside a batch.
    pub fn fixed(threads: usize) -> Self {
        ThreadBudget::with_epoch(threads, Instant::now())
    }

    /// The current budget (at least 1).  Searches poll this at round
    /// boundaries; the round then runs with that many workers.
    pub fn current(&self) -> usize {
        self.shares.load(Ordering::Relaxed).max(1)
    }

    /// Resize the budget (clamped to at least 1).  Running searches pick
    /// the new value up at their next round boundary.  No-op resizes are
    /// not recorded in the timeline.
    pub fn set(&self, threads: usize) {
        let threads = threads.max(1);
        // Swap under the timeline lock: concurrent setters must record
        // their samples in the order the swaps land, or the timeline's
        // last entry could disagree with `current()`.
        let mut timeline = lock_ignoring_poison(&self.timeline);
        if self.shares.swap(threads, Ordering::Relaxed) != threads {
            timeline.push(OccupancySample {
                at_ms: elapsed_ms(self.epoch),
                threads,
            });
        }
    }

    /// The recorded occupancy timeline (always starts with the initial
    /// budget).
    pub fn timeline(&self) -> Vec<OccupancySample> {
        lock_ignoring_poison(&self.timeline).clone()
    }

    /// Report the search's live frontier width (how many nodes the next
    /// round can plan in parallel).  Called by the search at round
    /// boundaries and by the repeated-reachability edge construction at
    /// wave boundaries; the scheduler reads it when it re-splits the core
    /// budget over the stragglers.
    pub fn report_frontier(&self, width: usize) {
        self.frontier.store(width, Ordering::Relaxed);
    }

    /// The last reported frontier width (0 until the search reports one).
    pub fn frontier_hint(&self) -> usize {
        self.frontier.load(Ordering::Relaxed)
    }
}

/// How one property's verification was scheduled within its batch: the
/// resolved core budget of the batch, when the property started and
/// finished (milliseconds since the batch started) and its core-occupancy
/// timeline.  Scheduling observability only — like
/// [`crate::search::WorkerStats`], none of it affects the verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleStats {
    /// The batch's resolved core budget.
    pub batch_threads: usize,
    /// This property's index within the batch.
    pub property_index: usize,
    /// When this property's verification started, in milliseconds since
    /// the batch started.
    pub started_ms: u64,
    /// When it finished, in milliseconds since the batch started.
    pub finished_ms: u64,
    /// The core-occupancy timeline, starting with the job's initial budget
    /// of one thread.
    pub occupancy: Vec<OccupancySample>,
}

/// One claimed job of a running batch: its index and the live
/// [`ThreadBudget`] the scheduler resizes while the job runs.
pub struct JobHandle {
    index: usize,
    started_ms: u64,
    budget: ThreadBudget,
    scheduler: Arc<SchedulerInner>,
}

impl JobHandle {
    /// The job's index within the batch.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The job's dynamic thread budget.  Every job has one, so this is
    /// always `Some`; the `Option` keeps the signature callers already
    /// use.
    pub fn budget(&self) -> Option<&ThreadBudget> {
        Some(&self.budget)
    }

    /// Hand the job's cores to the jobs still running.  The scheduler
    /// does this when the job returns; a job that reports its result
    /// before returning calls it first, so whoever the report wakes finds
    /// the cores already moved.
    pub(crate) fn retire(&self) {
        let mut state = lock_ignoring_poison(&self.scheduler.state);
        state.running.retain(|(index, _)| *index != self.index);
        self.scheduler.rebalance(&mut state);
    }
}

/// Membership of the running set, guarded by the scheduler's mutex: how
/// many jobs are still queued, and the budgets of the jobs in flight (in
/// start order, so leftover cores go to the longest-running search —
/// deterministically, for a deterministic completion order).
struct ShardState {
    pending: usize,
    running: Vec<(usize, ThreadBudget)>,
}

/// The shared state of one scheduler, reachable both from the batch's own
/// worker threads (through [`Scheduler`]) and from an outer arbiter
/// (through an attached [`SchedulerHandle`]).
struct SchedulerInner {
    /// The *live* total core budget.  [`SchedulerHandle::set_total`]
    /// resizes it mid-run; the initial value is the resolved
    /// [`BatchOptions::batch_threads`].
    threads: AtomicUsize,
    epoch: Instant,
    state: Mutex<ShardState>,
}

impl SchedulerInner {
    /// Re-split the core budget over the running set: width first (budget
    /// 1 each while jobs are still queued — every queued job will get a
    /// core sooner than a deep search could use it), then a split weighted
    /// by each search's live frontier width (a search can use at most one
    /// worker per frontier node next round, so wide stragglers absorb the
    /// cores narrow ones would waste).  Searches that have not reported a
    /// frontier yet weigh 1, which reduces to the previous even split with
    /// the remainder going to the longest-running searches.
    fn rebalance(&self, state: &mut ShardState) {
        if state.running.is_empty() {
            return;
        }
        if state.pending > 0 {
            for (_, budget) in &state.running {
                budget.set(1);
            }
            return;
        }
        let total = self.threads.load(Ordering::Relaxed).max(1);
        let weights: Vec<u64> = state
            .running
            .iter()
            .map(|(_, budget)| budget.frontier_hint().max(1) as u64)
            .collect();
        for (share, (_, budget)) in weighted_split(total, &weights)
            .into_iter()
            .zip(&state.running)
        {
            budget.set(share);
        }
    }
}

/// A cloneable remote control over one batch's *total* core budget,
/// connecting an outer arbiter (a verification server sharing one machine
/// between concurrent requests) to a running [`Scheduler`].
///
/// The handle starts detached; [`Scheduler::attach`] (or
/// [`crate::engine::BatchBuilder::scheduler_handle`]) wires it to a batch,
/// and the batch detaches it again when it finishes.  All clones share the
/// attachment.  Resizing a detached handle is a recorded no-op, so an
/// arbiter can keep resizing without racing request completion.
#[derive(Clone, Default)]
pub struct SchedulerHandle {
    slot: Arc<Mutex<Option<Arc<SchedulerInner>>>>,
}

impl SchedulerHandle {
    /// A fresh, detached handle.
    pub fn new() -> Self {
        SchedulerHandle::default()
    }

    /// Resize the attached batch's total core budget (clamped to at
    /// least one) and re-split it over the batch's running searches
    /// immediately; each search adopts its resized share at its next
    /// round boundary.  Returns `false` (and does nothing) when no
    /// batch is attached.
    ///
    /// While the batch still has queued properties every running search
    /// keeps a floor budget of one thread (width-first scheduling), so the
    /// sum of per-search budgets can transiently exceed a shrunken total
    /// by at most one thread per running search — searches never block,
    /// they only narrow.
    pub fn set_total(&self, threads: usize) -> bool {
        let slot = lock_ignoring_poison(&self.slot);
        let Some(inner) = slot.as_ref() else {
            return false;
        };
        let mut state = lock_ignoring_poison(&inner.state);
        inner.threads.store(threads.max(1), Ordering::Relaxed);
        inner.rebalance(&mut state);
        true
    }

    /// The attached batch's live total core budget (`None` while
    /// detached).
    pub fn total(&self) -> Option<usize> {
        lock_ignoring_poison(&self.slot)
            .as_ref()
            .map(|inner| inner.threads.load(Ordering::Relaxed).max(1))
    }

    fn attach(&self, inner: &Arc<SchedulerInner>) {
        *lock_ignoring_poison(&self.slot) = Some(Arc::clone(inner));
    }

    fn detach(&self) {
        *lock_ignoring_poison(&self.slot) = None;
    }
}

impl std::fmt::Debug for SchedulerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedulerHandle")
            .field("total", &self.total())
            .finish()
    }
}

/// The batch work scheduler (see the module docs).
///
/// [`Scheduler::run`] executes one closure invocation per job over
/// `min(budget, jobs)` worker threads; each invocation receives a
/// [`JobHandle`] whose [`ThreadBudget`] the scheduler resizes as the batch
/// drains.  The scheduler is plumbing: it neither knows nor cares that the
/// jobs are verifications.
pub struct Scheduler {
    inner: Arc<SchedulerInner>,
    /// The budget resolved at construction — recorded in every job's
    /// [`ScheduleStats`] even when a [`SchedulerHandle`] resizes the live
    /// total later.
    initial_threads: usize,
    jobs: usize,
    /// Handles attached to this batch, detached again when `run` returns.
    attached: Vec<SchedulerHandle>,
}

impl Scheduler {
    /// A scheduler for `jobs` jobs under the given batch options.
    pub fn new(options: BatchOptions, jobs: usize) -> Self {
        let threads = options.resolved_threads();
        Scheduler {
            inner: Arc::new(SchedulerInner {
                threads: AtomicUsize::new(threads),
                epoch: Instant::now(),
                state: Mutex::new(ShardState {
                    pending: jobs,
                    running: Vec::new(),
                }),
            }),
            initial_threads: threads,
            jobs,
            attached: Vec::new(),
        }
    }

    /// The resolved core budget (as of construction; a
    /// [`SchedulerHandle`] may resize the live total while the batch
    /// runs).
    pub fn threads(&self) -> usize {
        self.initial_threads
    }

    /// Attach a [`SchedulerHandle`] to this batch: until `run` returns,
    /// [`SchedulerHandle::set_total`] resizes this batch's total core
    /// budget.
    pub fn attach(&mut self, handle: &SchedulerHandle) {
        handle.attach(&self.inner);
        self.attached.push(handle.clone());
    }

    /// Run the scheduler's jobs to completion and return one
    /// `(result, stats)` pair per job, in job order.  A slot is `None`
    /// only if the job's closure panicked (the panic is contained;
    /// remaining jobs still run).  Consumes the scheduler: the job count
    /// and the width-first pending accounting were fixed at
    /// [`Scheduler::new`], and a second run would start from a drained
    /// queue.
    pub fn run<T, F>(self, run: F) -> Vec<Option<(T, ScheduleStats)>>
    where
        T: Send,
        F: Fn(usize, &JobHandle) -> T + Sync,
    {
        let jobs = self.jobs;
        let workers = self.initial_threads.min(jobs).max(1);
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<(T, ScheduleStats)>>> =
            (0..jobs).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= jobs {
                        break;
                    }
                    let handle = self.start_job(index);
                    // Contain a panicking job: the budget it held must be
                    // returned to the pool either way, and one bad job
                    // must not strand the rest of the batch.
                    let result = std::panic::catch_unwind(AssertUnwindSafe(|| run(index, &handle)));
                    let stats = self.finish_job(&handle);
                    if let Ok(result) = result {
                        *lock_ignoring_poison(&slots[index]) = Some((result, stats));
                    }
                });
            }
        });
        // The batch is over: outer arbiters must stop resizing it.
        for handle in &self.attached {
            handle.detach();
        }
        slots
            .into_iter()
            .map(|slot| slot.into_inner().unwrap_or_else(|p| p.into_inner()))
            .collect()
    }

    /// Claim job `index`: register it in the running set and rebalance.
    fn start_job(&self, index: usize) -> JobHandle {
        let started_ms = elapsed_ms(self.inner.epoch);
        let budget = ThreadBudget::with_epoch(1, self.inner.epoch);
        let mut state = lock_ignoring_poison(&self.inner.state);
        state.pending = state.pending.saturating_sub(1);
        state.running.push((index, budget.clone()));
        self.inner.rebalance(&mut state);
        JobHandle {
            index,
            started_ms,
            budget,
            scheduler: Arc::clone(&self.inner),
        }
    }

    /// Retire a finished job: hand its cores to the survivors and build
    /// its [`ScheduleStats`].
    fn finish_job(&self, handle: &JobHandle) -> ScheduleStats {
        handle.retire();
        ScheduleStats {
            batch_threads: self.initial_threads,
            property_index: handle.index,
            started_ms: handle.started_ms,
            finished_ms: elapsed_ms(self.inner.epoch),
            occupancy: handle.budget.timeline(),
        }
    }
}

/// Apportion `total` cores over `weights` (all ≥ 1): every slot gets at
/// least one core, the rest follow the weights by the largest-remainder
/// method, ties broken towards earlier slots (the longest-running
/// searches).  The result always sums to `max(total, len)` — when there
/// are more slots than cores every slot still gets its floor of one, as
/// before (budgets are advisory and [`ThreadBudget::set`] clamps to 1
/// anyway).  With equal weights this is exactly the even split with the
/// remainder going to the earliest slots.
fn weighted_split(total: usize, weights: &[u64]) -> Vec<usize> {
    let n = weights.len();
    if n == 0 {
        return Vec::new();
    }
    if total <= n {
        return vec![1; n];
    }
    let sum: u64 = weights.iter().sum();
    let mut shares: Vec<usize> = Vec::with_capacity(n);
    let mut assigned = 0usize;
    for &w in weights {
        let share = (((total as u64 * w) / sum) as usize).max(1);
        shares.push(share);
        assigned += share;
    }
    // Slots ordered by descending fractional remainder (earliest slot
    // first on ties).  Leftover cores are handed out one per slot in this
    // cyclic order; when the `max(1)` floors overshot the budget, slots
    // give cores back from the other end of the order (never below 1).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse((total as u64 * weights[i]) % sum), i));
    let mut cursor = 0usize;
    while assigned < total {
        shares[order[cursor % n]] += 1;
        assigned += 1;
        cursor += 1;
    }
    while assigned > total {
        let Some(&slot) = order.iter().rev().find(|&&i| shares[i] > 1) else {
            break;
        };
        shares[slot] -= 1;
        assigned -= 1;
    }
    shares
}

fn elapsed_ms(epoch: Instant) -> u64 {
    epoch.elapsed().as_millis() as u64
}

/// Lock a mutex, recovering the guard when a previous holder panicked
/// (the protected data is only mutated through panic-free paths).
fn lock_ignoring_poison<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_clamp_to_at_least_one_thread() {
        let budget = ThreadBudget::fixed(0);
        assert_eq!(budget.current(), 1);
        budget.set(0);
        assert_eq!(budget.current(), 1);
    }

    #[test]
    fn budget_timeline_records_only_effective_resizes() {
        let budget = ThreadBudget::fixed(1);
        budget.set(1); // no-op
        budget.set(2);
        budget.set(2); // no-op
        budget.set(3);
        let threads: Vec<usize> = budget.timeline().iter().map(|s| s.threads).collect();
        assert_eq!(threads, vec![1, 2, 3]);
    }

    #[test]
    fn clones_share_one_budget() {
        let budget = ThreadBudget::fixed(1);
        let clone = budget.clone();
        budget.set(7);
        assert_eq!(clone.current(), 7);
        assert_eq!(clone.timeline(), budget.timeline());
    }

    #[test]
    fn a_lone_sharded_job_gets_the_whole_core_budget() {
        let scheduler = Scheduler::new(BatchOptions { batch_threads: 4 }, 1);
        let results = scheduler.run(|_, handle| handle.budget().unwrap().current());
        let (threads, stats) = results.into_iter().next().unwrap().unwrap();
        assert_eq!(threads, 4);
        assert_eq!(stats.batch_threads, 4);
        assert_eq!(stats.property_index, 0);
        assert_eq!(stats.occupancy.last().unwrap().threads, 4);
        assert!(stats.finished_ms >= stats.started_ms);
    }

    #[test]
    fn a_sequential_budget_runs_jobs_in_order_with_one_thread_each() {
        let scheduler = Scheduler::new(BatchOptions { batch_threads: 1 }, 3);
        let results = scheduler.run(|index, handle| {
            assert_eq!(handle.index(), index);
            handle.budget().unwrap().current()
        });
        let results: Vec<_> = results.into_iter().map(Option::unwrap).collect();
        assert!(results.iter().all(|(threads, _)| *threads == 1));
        // One worker claims jobs in order, so starts are monotone.
        assert!(results
            .windows(2)
            .all(|w| w[0].1.started_ms <= w[1].1.started_ms));
    }

    #[test]
    fn the_last_straggler_inherits_freed_cores() {
        // One worker (budget 4 but a single-job queue at a time is forced
        // by claiming order): drive the membership transitions directly.
        let scheduler = Scheduler::new(BatchOptions { batch_threads: 4 }, 2);
        let first = scheduler.start_job(0);
        // Job 1 still pending: width first.
        assert_eq!(first.budget().unwrap().current(), 1);
        let second = scheduler.start_job(1);
        // Queue drained, two running: 2 cores each.
        assert_eq!(first.budget().unwrap().current(), 2);
        assert_eq!(second.budget().unwrap().current(), 2);
        let stats = scheduler.finish_job(&first);
        // The straggler inherits the whole budget.
        assert_eq!(second.budget().unwrap().current(), 4);
        assert_eq!(
            stats
                .occupancy
                .iter()
                .map(|s| s.threads)
                .collect::<Vec<_>>(),
            vec![1, 2]
        );
        let stats = scheduler.finish_job(&second);
        assert_eq!(
            stats
                .occupancy
                .iter()
                .map(|s| s.threads)
                .collect::<Vec<_>>(),
            vec![1, 2, 4]
        );
    }

    #[test]
    fn a_panicking_job_leaves_an_empty_slot_and_the_rest_complete() {
        let scheduler = Scheduler::new(BatchOptions { batch_threads: 1 }, 3);
        let results = scheduler.run(|index, _| {
            if index == 1 {
                panic!("job 1 exploded");
            }
            index
        });
        assert_eq!(results[0].as_ref().map(|(v, _)| *v), Some(0));
        assert!(results[1].is_none());
        assert_eq!(results[2].as_ref().map(|(v, _)| *v), Some(2));
    }

    #[test]
    fn weighted_split_reduces_to_the_even_split_for_equal_weights() {
        assert_eq!(weighted_split(8, &[1, 1, 1]), vec![3, 3, 2]);
        assert_eq!(weighted_split(4, &[1, 1]), vec![2, 2]);
        assert_eq!(weighted_split(7, &[5, 5]), vec![4, 3]);
        // More slots than cores: everyone keeps the floor of one.
        assert_eq!(weighted_split(2, &[9, 9, 9]), vec![1, 1, 1]);
        assert!(weighted_split(4, &[]).is_empty());
    }

    #[test]
    fn weighted_split_follows_frontier_widths() {
        // A 30-node frontier next to a 10-node one: 3/4 of the cores.
        assert_eq!(weighted_split(8, &[30, 10]), vec![6, 2]);
        // A very narrow straggler never starves below one core, and the
        // wide one absorbs what it cannot use.
        assert_eq!(weighted_split(8, &[1000, 1]), vec![7, 1]);
        // `max(1)` floors overshooting the budget give cores back from
        // the heavy slot, never dropping anyone below one.
        assert_eq!(weighted_split(4, &[1, 1, 1000]), vec![1, 1, 2]);
        // Shares always sum to the budget once it covers the slots.
        for total in 2..=16 {
            for weights in [vec![3, 1], vec![7, 2, 5], vec![1, 1, 1, 1]] {
                if total >= weights.len() {
                    let split = weighted_split(total, &weights);
                    assert_eq!(split.iter().sum::<usize>(), total, "{total} {weights:?}");
                    assert!(split.iter().all(|&s| s >= 1));
                }
            }
        }
    }

    #[test]
    fn frontier_hints_weight_the_straggler_split() {
        let scheduler = Scheduler::new(BatchOptions { batch_threads: 8 }, 3);
        let a = scheduler.start_job(0);
        let b = scheduler.start_job(1);
        let c = scheduler.start_job(2);
        // Queue drained with no hints yet: even split of 8 over 3.
        assert_eq!(a.budget().unwrap().current(), 3);
        assert_eq!(b.budget().unwrap().current(), 3);
        assert_eq!(c.budget().unwrap().current(), 2);
        // The searches report their live frontiers; job 2 finishing
        // triggers a rebalance that now respects the widths.
        a.budget().unwrap().report_frontier(30);
        b.budget().unwrap().report_frontier(10);
        scheduler.finish_job(&c);
        assert_eq!(a.budget().unwrap().current(), 6);
        assert_eq!(b.budget().unwrap().current(), 2);
        // The last straggler still inherits the whole budget.
        scheduler.finish_job(&b);
        assert_eq!(a.budget().unwrap().current(), 8);
    }

    #[test]
    fn a_detached_handle_resizes_nothing() {
        let handle = SchedulerHandle::new();
        assert!(!handle.set_total(4));
        assert_eq!(handle.total(), None);
    }

    #[test]
    fn an_attached_handle_resizes_the_running_split_immediately() {
        let mut scheduler = Scheduler::new(BatchOptions { batch_threads: 8 }, 2);
        let handle = SchedulerHandle::new();
        scheduler.attach(&handle);
        let a = scheduler.start_job(0);
        let b = scheduler.start_job(1);
        // Queue drained: even split of 8 over 2.
        assert_eq!(a.budget().unwrap().current(), 4);
        assert_eq!(b.budget().unwrap().current(), 4);
        // The arbiter reclaims six cores mid-run: the survivors narrow at
        // once (each search adopts the value at its next round boundary).
        assert!(handle.set_total(2));
        assert_eq!(handle.total(), Some(2));
        assert_eq!(a.budget().unwrap().current(), 1);
        assert_eq!(b.budget().unwrap().current(), 1);
        // Handing the cores back widens the survivors again, and the last
        // straggler still inherits the whole (live) budget.
        assert!(handle.set_total(6));
        assert_eq!(a.budget().unwrap().current(), 3);
        scheduler.finish_job(&a);
        assert_eq!(b.budget().unwrap().current(), 6);
        // ScheduleStats keep reporting the budget resolved at
        // construction; the occupancy timeline tells the live story.
        let stats = scheduler.finish_job(&b);
        assert_eq!(stats.batch_threads, 8);
    }

    #[test]
    fn set_total_clamps_to_one_and_width_first_scheduling_still_rules() {
        let mut scheduler = Scheduler::new(BatchOptions { batch_threads: 4 }, 2);
        let handle = SchedulerHandle::new();
        scheduler.attach(&handle);
        let a = scheduler.start_job(0);
        // Job 1 still pending: width first, even after a resize.
        assert!(handle.set_total(0));
        assert_eq!(handle.total(), Some(1));
        assert_eq!(a.budget().unwrap().current(), 1);
        let b = scheduler.start_job(1);
        // Queue drained under the clamped total: floors of one each.
        assert_eq!(a.budget().unwrap().current(), 1);
        assert_eq!(b.budget().unwrap().current(), 1);
    }

    #[test]
    fn handles_detach_when_the_batch_finishes() {
        let mut scheduler = Scheduler::new(BatchOptions { batch_threads: 2 }, 2);
        let handle = SchedulerHandle::new();
        scheduler.attach(&handle);
        let clone = handle.clone();
        let results = scheduler.run(|index, _| index);
        assert_eq!(results.len(), 2);
        assert!(!handle.set_total(4), "a finished batch must be detached");
        assert_eq!(clone.total(), None, "clones share the detachment");
    }
}
