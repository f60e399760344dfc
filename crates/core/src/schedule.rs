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
//! * once the queue drains, the scheduler splits the core budget evenly
//!   over the searches still running ([`even_split`]: at least one core
//!   each, the remainder to the longest-running ones), and every time one
//!   finishes the freed cores are reassigned to the survivors — the last
//!   straggler ends up with all `C` cores on its one search.
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
//! The total core budget itself is dynamic and lives in a
//! [`SchedulerHandle`].  A batch runs on the handle it is started with
//! ([`Scheduler::with_handle`],
//! [`crate::engine::BatchBuilder::scheduler_handle`]); a caller that shares
//! one machine between concurrent batches — the request table of a
//! verification server — creates the handle when it admits the request
//! and resizes it with [`SchedulerHandle::set_total`] whenever its own
//! split changes, before the batch starts or while it runs.  A resize
//! re-splits the new total over the running searches immediately, and
//! each search picks its resized [`ThreadBudget`] up at its next round
//! boundary; because rounds are bit-identical for any worker count,
//! reclaiming cores from a long batch search never changes its verdict.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
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
#[derive(Debug, Clone)]
pub struct ThreadBudget {
    shares: Arc<AtomicUsize>,
    timeline: Arc<Mutex<Vec<OccupancySample>>>,
    epoch: Instant,
}

impl ThreadBudget {
    fn with_epoch(threads: usize, epoch: Instant) -> Self {
        let threads = threads.max(1);
        ThreadBudget {
            shares: Arc::new(AtomicUsize::new(threads)),
            timeline: Arc::new(Mutex::new(vec![OccupancySample {
                at_ms: elapsed_ms(epoch),
                threads,
            }])),
            epoch,
        }
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
}

/// How one property's verification was scheduled within its batch: the
/// batch's core budget, when the property started and finished
/// (milliseconds since the batch started) and its core-occupancy
/// timeline.  Scheduling observability only — like
/// [`crate::search::WorkerStats`], none of it affects the verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleStats {
    /// The total core budget the batch started with.
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
    shards: SchedulerHandle,
}

impl JobHandle {
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
        let mut state = self.shards.lock();
        state.running.retain(|(index, _)| *index != self.index);
        state.rebalance();
    }
}

/// One batch's core split, guarded by its handle's mutex: the live total,
/// how many jobs are still queued, and the budgets of the jobs in flight
/// (in start order, so leftover cores go to the longest-running search —
/// deterministically, for a deterministic completion order).
struct ShardState {
    total: usize,
    pending: usize,
    running: Vec<(usize, ThreadBudget)>,
}

impl ShardState {
    /// Re-split the total over the running set with [`even_split`].
    /// While jobs are still queued the split is width first instead: one
    /// core each, since every queued job will get a core sooner than a
    /// deep search could use it.
    fn rebalance(&self) {
        let n = self.running.len();
        let total = if self.pending > 0 { n } else { self.total };
        for ((_, budget), share) in self.running.iter().zip(even_split(total, n)) {
            budget.set(share);
        }
    }
}

/// One batch's live total core budget, shared between the [`Scheduler`]
/// that splits it over the batch's searches and the caller that sizes
/// it (a verification server's request table, sharing one machine
/// between concurrent requests).
///
/// The handle holds its total from the moment it is created, and a batch
/// started on it ([`Scheduler::with_handle`]) runs on that total, so a
/// resize lands whenever it is made: before the batch starts, while it
/// runs, or after it ends.  All clones share one total.  A handle carries
/// one batch at a time.
#[derive(Clone)]
pub struct SchedulerHandle {
    shards: Arc<Mutex<ShardState>>,
}

impl SchedulerHandle {
    /// A handle holding a total of `threads` cores (clamped to at least
    /// one).
    pub fn new(threads: usize) -> Self {
        SchedulerHandle {
            shards: Arc::new(Mutex::new(ShardState {
                total: threads.max(1),
                pending: 0,
                running: Vec::new(),
            })),
        }
    }

    /// Resize the total core budget (clamped to at least one) and
    /// re-split it over the batch's running searches immediately; each
    /// search adopts its resized share at its next round boundary.
    ///
    /// While the batch still has queued properties every running search
    /// keeps a floor budget of one thread (width-first scheduling), so the
    /// sum of per-search budgets can transiently exceed a shrunken total
    /// by at most one thread per running search — searches never block,
    /// they only narrow.
    pub fn set_total(&self, threads: usize) {
        let mut state = self.lock();
        state.total = threads.max(1);
        state.rebalance();
    }

    /// The live total core budget.
    pub fn total(&self) -> usize {
        self.lock().total
    }

    fn lock(&self) -> MutexGuard<'_, ShardState> {
        lock_ignoring_poison(&self.shards)
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
    shards: SchedulerHandle,
    epoch: Instant,
    /// The total the batch started with — recorded in every job's
    /// [`ScheduleStats`] even when its [`SchedulerHandle`] resizes the
    /// live total later.
    initial_threads: usize,
    jobs: usize,
}

impl Scheduler {
    /// A scheduler for `jobs` jobs under the given batch options.
    pub fn new(options: BatchOptions, jobs: usize) -> Self {
        Scheduler::with_handle(&SchedulerHandle::new(options.resolved_threads()), jobs)
    }

    /// A scheduler for `jobs` jobs on `handle`'s live total: the batch
    /// starts with the handle's current total, and every later
    /// [`SchedulerHandle::set_total`] re-splits it over the running jobs.
    pub fn with_handle(handle: &SchedulerHandle, jobs: usize) -> Self {
        let mut state = handle.lock();
        state.pending = jobs;
        let initial_threads = state.total;
        drop(state);
        Scheduler {
            shards: handle.clone(),
            epoch: Instant::now(),
            initial_threads,
            jobs,
        }
    }

    /// Run the scheduler's jobs to completion and return one
    /// `(result, stats)` pair per job, in job order.  A slot is `None`
    /// only if the job's closure panicked (the panic is contained;
    /// remaining jobs still run).  Consumes the scheduler: the job count
    /// and the width-first pending accounting were fixed at construction,
    /// and a second run would start from a drained queue.
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
        slots
            .into_iter()
            .map(|slot| slot.into_inner().unwrap_or_else(|p| p.into_inner()))
            .collect()
    }

    /// Claim job `index`: register it in the running set and rebalance.
    fn start_job(&self, index: usize) -> JobHandle {
        let started_ms = elapsed_ms(self.epoch);
        let budget = ThreadBudget::with_epoch(1, self.epoch);
        let mut state = self.shards.lock();
        state.pending = state.pending.saturating_sub(1);
        state.running.push((index, budget.clone()));
        state.rebalance();
        JobHandle {
            index,
            started_ms,
            budget,
            shards: self.shards.clone(),
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
            finished_ms: elapsed_ms(self.epoch),
            occupancy: handle.budget.timeline(),
        }
    }
}

/// Split `total` cores evenly over `n` jobs: every job gets at least one
/// core, and the remainder goes one core each to the earliest jobs, so
/// the shares sum to `max(total, n)`.  The batch scheduler splits a
/// batch's budget over its running searches by this rule, and a
/// verification server's request table splits its cores over the running
/// requests of a class by it.
pub fn even_split(total: usize, n: usize) -> impl Iterator<Item = usize> {
    let base = (total / n.max(1)).max(1);
    let remainder = total.saturating_sub(base * n);
    (0..n).map(move |i| base + usize::from(i < remainder))
}

fn elapsed_ms(epoch: Instant) -> u64 {
    epoch.elapsed().as_millis() as u64
}

/// Lock a mutex, recovering the guard when a previous holder panicked
/// (the protected data is only mutated through panic-free paths).
fn lock_ignoring_poison<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget(threads: usize) -> ThreadBudget {
        ThreadBudget::with_epoch(threads, Instant::now())
    }

    #[test]
    fn budgets_clamp_to_at_least_one_thread() {
        let budget = budget(0);
        assert_eq!(budget.current(), 1);
        budget.set(0);
        assert_eq!(budget.current(), 1);
    }

    #[test]
    fn budget_timeline_records_only_effective_resizes() {
        let budget = budget(1);
        budget.set(1); // no-op
        budget.set(2);
        budget.set(2); // no-op
        budget.set(3);
        let threads: Vec<usize> = budget.timeline().iter().map(|s| s.threads).collect();
        assert_eq!(threads, vec![1, 2, 3]);
    }

    #[test]
    fn clones_share_one_budget() {
        let budget = budget(1);
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
        let results = scheduler.run(|index, handle| (index, handle.budget().unwrap().current()));
        let results: Vec<_> = results.into_iter().map(Option::unwrap).collect();
        assert!(results
            .iter()
            .all(|((index, _), stats)| stats.property_index == *index));
        assert!(results.iter().all(|((_, threads), _)| *threads == 1));
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
    fn even_split_floors_at_one_and_gives_the_remainder_to_the_earliest() {
        let split = |total, n| even_split(total, n).collect::<Vec<_>>();
        assert_eq!(split(8, 3), vec![3, 3, 2]);
        assert_eq!(split(4, 2), vec![2, 2]);
        assert_eq!(split(7, 2), vec![4, 3]);
        // More jobs than cores: everyone keeps the floor of one.
        assert_eq!(split(2, 3), vec![1, 1, 1]);
        assert!(split(4, 0).is_empty());
    }

    #[test]
    fn an_attached_handle_resizes_the_running_split_immediately() {
        let handle = SchedulerHandle::new(8);
        let scheduler = Scheduler::with_handle(&handle, 2);
        let a = scheduler.start_job(0);
        let b = scheduler.start_job(1);
        // Queue drained: even split of 8 over 2.
        assert_eq!(a.budget().unwrap().current(), 4);
        assert_eq!(b.budget().unwrap().current(), 4);
        // The request table reclaims six cores mid-run: the survivors
        // narrow at once (each search adopts the value at its next round
        // boundary).
        handle.set_total(2);
        assert_eq!(handle.total(), 2);
        assert_eq!(a.budget().unwrap().current(), 1);
        assert_eq!(b.budget().unwrap().current(), 1);
        // Handing the cores back widens the survivors again, and the last
        // straggler still inherits the whole (live) budget.
        handle.set_total(6);
        assert_eq!(a.budget().unwrap().current(), 3);
        scheduler.finish_job(&a);
        assert_eq!(b.budget().unwrap().current(), 6);
        // ScheduleStats keep reporting the total the batch started with;
        // the occupancy timeline tells the live story.
        let stats = scheduler.finish_job(&b);
        assert_eq!(stats.batch_threads, 8);
    }

    #[test]
    fn set_total_clamps_to_one_and_width_first_scheduling_still_rules() {
        let handle = SchedulerHandle::new(4);
        let scheduler = Scheduler::with_handle(&handle, 2);
        let a = scheduler.start_job(0);
        // Job 1 still pending: width first, even after a resize.
        handle.set_total(0);
        assert_eq!(handle.total(), 1);
        assert_eq!(a.budget().unwrap().current(), 1);
        let b = scheduler.start_job(1);
        // Queue drained under the clamped total: floors of one each.
        assert_eq!(a.budget().unwrap().current(), 1);
        assert_eq!(b.budget().unwrap().current(), 1);
    }

    #[test]
    fn a_resize_before_the_batch_starts_is_not_lost() {
        // A server squeezes the request while its engine still builds the
        // batch's preprocessing: the batch starts on the squeezed total.
        let handle = SchedulerHandle::new(4);
        handle.set_total(1);
        let scheduler = Scheduler::with_handle(&handle, 1);
        let results = scheduler.run(|_, job| job.budget().unwrap().current());
        let (threads, stats) = results.into_iter().next().unwrap().unwrap();
        assert_eq!(threads, 1);
        assert_eq!(stats.batch_threads, 1);
    }
}
