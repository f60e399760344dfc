//! Priority classes, admission limits, and the request table.
//!
//! A multi-tenant verifier serves two very different request shapes: an
//! editor plugin checking one property on keystroke wants an answer in
//! milliseconds, while a nightly compliance sweep submits hundreds of
//! properties and cares only about throughput.  Each request declares
//! which it is — [`PriorityClass::Interactive`] or
//! [`PriorityClass::Batch`] — and the server treats the classes
//! differently at *both* gates, which one [`RequestTable`] keeps under
//! one lock:
//!
//! * **admission**: each class has its own in-flight limit
//!   ([`AdmissionLimits`]) and its own bounded FIFO lane.  An over-limit
//!   request *waits* — the client gets an immediate `queued` frame with
//!   its position and a retry hint, and its deadline keeps ticking while
//!   it waits.  Only lane *overflow* is refused with a typed
//!   `overloaded` error, and one class filling up never blocks the
//!   other,
//! * **core allocation**: while no interactive request runs, batch
//!   requests split the server's cores evenly (the earliest request takes
//!   the remainder); while any does, every batch request is squeezed to a
//!   floor of one core and the interactive requests split the rest
//!   evenly.  Both splits are [`even_split`], the rule each batch's
//!   scheduler applies to its own searches.  Waiting requests hold no
//!   cores and never move the split.
//!
//! A running request's share lives in the [`SchedulerHandle`] the table
//! creates when it admits the request, and the request's batch runs on
//! that handle.  A revision is a `set_total` on it: before the batch
//! starts it sets the total the batch starts with, and while the batch
//! runs it re-splits the batch's shard budgets immediately, so workers
//! adopt the new budget at their next search round boundary, not at the
//! next request boundary.  Because plan/apply rounds are bit-identical
//! for every worker count, this preemption-by-rebalance changes when
//! answers arrive, never what they are.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::error::ServeError;
use verifas_core::schedule::even_split;
use verifas_core::{CancelToken, SchedulerHandle};

/// The scheduling class a request declares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PriorityClass {
    /// Latency-sensitive: admitted generously, takes cores from running
    /// batch work immediately.
    #[default]
    Interactive,
    /// Throughput-oriented: admitted up to a small in-flight limit, uses
    /// whatever cores interactive work leaves free.
    Batch,
}

impl PriorityClass {
    /// The class's wire name (`"interactive"` / `"batch"`).
    pub fn name(self) -> &'static str {
        match self {
            PriorityClass::Interactive => "interactive",
            PriorityClass::Batch => "batch",
        }
    }

    /// Parse a wire name produced by [`PriorityClass::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "interactive" => Some(PriorityClass::Interactive),
            "batch" => Some(PriorityClass::Batch),
            _ => None,
        }
    }

    /// Both classes, in metrics/display order.
    pub const ALL: [PriorityClass; 2] = [PriorityClass::Interactive, PriorityClass::Batch];

    /// Dense index for per-class counter arrays.
    pub(crate) fn index(self) -> usize {
        match self {
            PriorityClass::Interactive => 0,
            PriorityClass::Batch => 1,
        }
    }
}

/// Per-class in-flight request limits plus the shared queue bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionLimits {
    /// Maximum interactive requests in flight.
    pub max_interactive: usize,
    /// Maximum batch requests in flight.
    pub max_batch: usize,
    /// Maximum requests *waiting* per class; an arrival that would
    /// overflow this is the only request the server still refuses.
    pub queue_depth: usize,
}

impl Default for AdmissionLimits {
    fn default() -> Self {
        AdmissionLimits {
            max_interactive: 8,
            max_batch: 2,
            queue_depth: 8,
        }
    }
}

impl AdmissionLimits {
    /// The in-flight limit of one class (clamped to ≥ 1: a server that
    /// can admit nothing is misconfigured, not protected).
    pub fn limit(&self, class: PriorityClass) -> usize {
        match class {
            PriorityClass::Interactive => self.max_interactive.max(1),
            PriorityClass::Batch => self.max_batch.max(1),
        }
    }
}

/// Identifies one request for the lifetime of the server.  Minted once
/// per arrival by [`RequestTable::enter`], refused arrivals included.
pub type RequestId = u64;

/// How often a waiting request re-checks its give-up predicate, so
/// deadlines and cancellation take effect while it waits.
const POLL: Duration = Duration::from_millis(25);

enum State {
    /// Holds a place in its class's lane; no slot, no cores.
    Waiting,
    /// Holds an in-flight slot and its share of the server's cores, which
    /// `handle` carries to the request's batch.
    Running { handle: SchedulerHandle },
}

impl State {
    /// A request just admitted: the next rebalance sizes its share.
    fn start() -> Self {
        State::Running {
            handle: SchedulerHandle::new(1),
        }
    }
}

struct Entry {
    id: RequestId,
    class: PriorityClass,
    token: CancelToken,
    state: State,
}

#[derive(Default)]
struct Entries {
    next_id: RequestId,
    /// Ascending id, which is arrival order: the first waiting entry of a
    /// class is the head of its lane, and the earliest running entries
    /// take the remainder of a split.
    list: Vec<Entry>,
}

impl Entries {
    fn position(&self, id: RequestId) -> Option<usize> {
        self.list.binary_search_by_key(&id, |entry| entry.id).ok()
    }

    /// Entries of `class` that are running (`true`) or waiting (`false`).
    fn count(&self, class: PriorityClass, running: bool) -> usize {
        self.list
            .iter()
            .filter(|entry| {
                entry.class == class && matches!(entry.state, State::Running { .. }) == running
            })
            .count()
    }
}

/// Every queued and running request of the server, with its class, its
/// cancel token and its core allocation (see the module docs).
///
/// Admission and core allocation happen in one step under one lock:
/// [`RequestTable::enter`] either starts a request (and re-splits the
/// cores) or queues it, and [`RequestTable::release`] hands a freed slot
/// straight to the head of its lane.  Fairness within a class is strict
/// arrival order; between classes the lanes are independent.
pub struct RequestTable {
    limits: AdmissionLimits,
    cores: usize,
    entries: Mutex<Entries>,
    /// Signalled whenever a waiting request starts running.
    started: Condvar,
}

impl RequestTable {
    /// An empty table enforcing `limits` and splitting `cores` (clamped
    /// to ≥ 1).
    pub fn new(limits: AdmissionLimits, cores: usize) -> Self {
        RequestTable {
            limits,
            cores: cores.max(1),
            entries: Mutex::new(Entries::default()),
            started: Condvar::new(),
        }
    }

    /// The server-wide core budget being split.
    pub fn total_cores(&self) -> usize {
        self.cores
    }

    /// Mint the next request id and enter an arrival of `class`: running
    /// at once if its lane is empty and the class is under its limit,
    /// waiting otherwise.  Returns the id and, for a waiting request, its
    /// 1-based position in the lane.  Only a full lane refuses, and the
    /// refused arrival still spends an id.
    pub fn enter(
        &self,
        class: PriorityClass,
        token: CancelToken,
    ) -> Result<(RequestId, Option<usize>), ServeError> {
        let mut entries = self.lock();
        let id = entries.next_id;
        entries.next_id += 1;
        let waiting = entries.count(class, false);
        let limit = self.limits.limit(class);
        let (state, position) = if waiting == 0 && entries.count(class, true) < limit {
            (State::start(), None)
        } else if waiting < self.limits.queue_depth {
            (State::Waiting, Some(waiting + 1))
        } else {
            return Err(ServeError::Overloaded { class, limit });
        };
        entries.list.push(Entry {
            id,
            class,
            token,
            state,
        });
        // A waiting arrival leaves every share as it was.
        self.rebalance(&entries);
        Ok((id, position))
    }

    /// Block until waiting request `id` runs, or until `give_up` returns
    /// true (checked every poll tick, so deadlines keep ticking while it
    /// waits).  A request that gives up leaves the table at once, so it
    /// stops holding its place in the lane.  Returns whether it runs.
    pub fn await_turn(&self, id: RequestId, mut give_up: impl FnMut() -> bool) -> bool {
        let mut entries = self.lock();
        loop {
            let Some(index) = entries.position(id) else {
                return false;
            };
            if matches!(entries.list[index].state, State::Running { .. }) {
                return true;
            }
            if give_up() {
                entries.list.remove(index);
                return false;
            }
            entries = self
                .started
                .wait_timeout(entries, POLL)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// The scheduler handle of running request `id`.  It carries the
    /// request's live share of the cores ([`SchedulerHandle::total`]): a
    /// batch started on it runs on that share, and every later revision
    /// reaches the batch through it.
    pub fn running(&self, id: RequestId) -> Option<SchedulerHandle> {
        let entries = self.lock();
        match &entries.list[entries.position(id)?].state {
            State::Running { handle } => Some(handle.clone()),
            State::Waiting => None,
        }
    }

    /// Remove request `id`, whatever its state.  A running request's slot
    /// goes to the head of its lane, and the cores are re-split.  Unknown
    /// ids are ignored, so release is idempotent.
    pub fn release(&self, id: RequestId) {
        let mut entries = self.lock();
        let Some(index) = entries.position(id) else {
            return;
        };
        let entry = entries.list.remove(index);
        if let State::Running { .. } = entry.state {
            let head = entries
                .list
                .iter_mut()
                .find(|next| next.class == entry.class && matches!(next.state, State::Waiting));
            if let Some(head) = head {
                head.state = State::start();
                self.started.notify_all();
            }
            self.rebalance(&entries);
        }
    }

    /// Cancel a queued or running request.  Returns whether the id was
    /// found.
    pub fn cancel(&self, id: RequestId) -> bool {
        let entries = self.lock();
        let found = entries.position(id);
        if let Some(index) = found {
            entries.list[index].token.cancel();
        }
        found.is_some()
    }

    /// Cancel every queued and running request.  Returns how many were
    /// signalled.
    pub fn cancel_all(&self) -> usize {
        let entries = self.lock();
        for entry in &entries.list {
            entry.token.cancel();
        }
        entries.list.len()
    }

    /// Running requests of `class`.
    pub fn in_flight(&self, class: PriorityClass) -> usize {
        self.lock().count(class, true)
    }

    /// Requests waiting in `class`'s lane.
    pub fn queued_len(&self, class: PriorityClass) -> usize {
        self.lock().count(class, false)
    }

    /// Whether no request is queued or running.
    pub fn is_empty(&self) -> bool {
        self.lock().list.is_empty()
    }

    /// A Retry-After-style hint (milliseconds) for a request queued at
    /// 1-based `position`: a coarse, monotone-in-position estimate, not
    /// a promise.  Clients should retry *the stream they already hold*
    /// — the hint exists for clients that would rather disconnect and
    /// come back.
    pub fn retry_hint_ms(position: usize) -> u64 {
        (position as u64 * 100).max(50)
    }

    /// A poisoned lock is recovered, not propagated: every update leaves
    /// the list valid (a rebalance recomputes all shares from scratch),
    /// and `release` runs in a `Drop`, which must not panic.
    fn lock(&self) -> MutexGuard<'_, Entries> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Recompute every running request's cores and set each on its
    /// scheduler handle.  Called with the lock held, so the split always
    /// matches the running set.
    fn rebalance(&self, entries: &Entries) {
        let interactive = entries.count(PriorityClass::Interactive, true);
        let batch = entries.count(PriorityClass::Batch, true);
        // With interactive work present, batch requests drop to one core
        // each and interactive requests split what remains (never less
        // than one core each).
        let (interactive_pool, batch_pool) = if interactive == 0 {
            (0, self.cores)
        } else {
            (self.cores.saturating_sub(batch).max(interactive), batch)
        };
        for (class, running, pool) in [
            (PriorityClass::Interactive, interactive, interactive_pool),
            (PriorityClass::Batch, batch, batch_pool),
        ] {
            let handles = entries.list.iter().filter_map(|entry| match &entry.state {
                State::Running { handle } if entry.class == class => Some(handle),
                _ => None,
            });
            for (handle, share) in handles.zip(even_split(pool, running)) {
                handle.set_total(share);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verifas_core::Scheduler;

    fn limits(max_interactive: usize, max_batch: usize, queue_depth: usize) -> AdmissionLimits {
        AdmissionLimits {
            max_interactive,
            max_batch,
            queue_depth,
        }
    }

    fn enter(table: &RequestTable, class: PriorityClass) -> (RequestId, Option<usize>) {
        table.enter(class, CancelToken::new()).unwrap()
    }

    /// Enter a request that must run at once.
    fn run(table: &RequestTable, class: PriorityClass) -> RequestId {
        let (id, position) = enter(table, class);
        assert_eq!(position, None, "request {id} must run at once");
        id
    }

    fn cores(table: &RequestTable, id: RequestId) -> Option<usize> {
        table.running(id).map(|handle| handle.total())
    }

    #[test]
    fn class_names_round_trip() {
        for class in PriorityClass::ALL {
            assert_eq!(PriorityClass::from_name(class.name()), Some(class));
        }
        assert_eq!(PriorityClass::from_name("background"), None);
    }

    #[test]
    fn limits_are_per_class() {
        let limits = limits(3, 1, 4);
        assert_eq!(limits.limit(PriorityClass::Batch), 1);
        let table = RequestTable::new(limits, 4);
        run(&table, PriorityClass::Batch);
        assert_eq!(enter(&table, PriorityClass::Batch).1, Some(1));
        // The batch class being full never affects interactive admission.
        for _ in 0..3 {
            run(&table, PriorityClass::Interactive);
        }
        assert_eq!(enter(&table, PriorityClass::Interactive).1, Some(1));
    }

    #[test]
    fn zero_limits_clamp_to_one() {
        let limits = limits(0, 0, 4);
        assert_eq!(limits.limit(PriorityClass::Interactive), 1);
        let table = RequestTable::new(limits, 4);
        run(&table, PriorityClass::Batch);
        assert_eq!(enter(&table, PriorityClass::Batch).1, Some(1));
    }

    #[test]
    fn over_limit_requests_queue_and_only_overflow_refuses() {
        let table = RequestTable::new(limits(8, 1, 2), 4);
        run(&table, PriorityClass::Batch);
        assert_eq!(enter(&table, PriorityClass::Batch).1, Some(1));
        assert_eq!(enter(&table, PriorityClass::Batch).1, Some(2));
        // Lane full: the third waiter is the only refusal left.
        assert_eq!(
            table.enter(PriorityClass::Batch, CancelToken::new()),
            Err(ServeError::Overloaded {
                class: PriorityClass::Batch,
                limit: 1
            })
        );
        // A full batch lane never blocks interactive arrivals, and the
        // refused arrival spent id 3.
        assert_eq!(run(&table, PriorityClass::Interactive), 4);
    }

    #[test]
    fn released_slots_admit_waiters_in_fifo_order() {
        let table = RequestTable::new(limits(8, 1, 4), 4);
        let first = run(&table, PriorityClass::Batch);
        let (a, _) = enter(&table, PriorityClass::Batch);
        let (b, _) = enter(&table, PriorityClass::Batch);
        let order = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for id in [a, b] {
                let (table, order) = (&table, &order);
                scope.spawn(move || {
                    assert!(table.await_turn(id, || false));
                    order.lock().unwrap().push(id);
                    table.release(id);
                });
            }
            table.release(first);
        });
        assert_eq!(*order.lock().unwrap(), vec![a, b], "strict arrival order");
        assert_eq!(table.in_flight(PriorityClass::Batch), 0);
        assert_eq!(table.queued_len(PriorityClass::Batch), 0);
    }

    #[test]
    fn giving_up_removes_the_ticket_and_unblocks_the_lane() {
        let table = RequestTable::new(limits(8, 1, 4), 4);
        run(&table, PriorityClass::Batch);
        let (waiter, _) = enter(&table, PriorityClass::Batch);
        // An expired deadline surfaces on the first poll tick.
        assert!(!table.await_turn(waiter, || true));
        assert_eq!(table.queued_len(PriorityClass::Batch), 0);
        // The abandoned waiter freed its lane place for new arrivals.
        assert_eq!(enter(&table, PriorityClass::Batch).1, Some(1));
    }

    #[test]
    fn retry_hints_grow_with_position() {
        assert_eq!(RequestTable::retry_hint_ms(1), 100);
        assert!(RequestTable::retry_hint_ms(5) > RequestTable::retry_hint_ms(1));
    }

    #[test]
    fn batch_requests_split_cores_evenly_until_interactive_arrives() {
        let table = RequestTable::new(limits(8, 8, 8), 8);
        let b1 = run(&table, PriorityClass::Batch);
        assert_eq!(cores(&table, b1), Some(8));
        let b2 = run(&table, PriorityClass::Batch);
        // Admitting the second batch halves the first.
        assert_eq!((cores(&table, b1), cores(&table, b2)), (Some(4), Some(4)));

        // An interactive arrival squeezes every batch to one core and
        // takes the rest.
        let i1 = run(&table, PriorityClass::Interactive);
        assert_eq!(cores(&table, i1), Some(6));
        assert_eq!(cores(&table, b1), Some(1));
        assert_eq!(cores(&table, b2), Some(1));

        // A second interactive splits the reclaimed pool.
        let i2 = run(&table, PriorityClass::Interactive);
        assert_eq!((cores(&table, i1), cores(&table, i2)), (Some(3), Some(3)));

        // Interactive work finishing hands the cores straight back.
        table.release(i1);
        table.release(i2);
        assert_eq!(cores(&table, b1), Some(4));
        assert_eq!(cores(&table, b2), Some(4));
    }

    #[test]
    fn remainder_goes_to_earliest_admitted() {
        let table = RequestTable::new(limits(8, 8, 8), 7);
        let b1 = run(&table, PriorityClass::Batch);
        let b2 = run(&table, PriorityClass::Batch);
        let b3 = run(&table, PriorityClass::Batch);
        assert_eq!(cores(&table, b1), Some(3));
        assert_eq!(cores(&table, b2), Some(2));
        assert_eq!(cores(&table, b3), Some(2));
    }

    #[test]
    fn allocation_without_funding_never_perturbs_the_split() {
        let table = RequestTable::new(limits(8, 1, 4), 8);
        let b1 = run(&table, PriorityClass::Batch);
        // A queued arrival holds an id but no cores.
        let (queued, _) = enter(&table, PriorityClass::Batch);
        assert_eq!(cores(&table, b1), Some(8));
        assert_eq!(cores(&table, queued), None);
        // Giving up while queued releases nothing and changes nothing.
        assert!(!table.await_turn(queued, || true));
        table.release(queued);
        assert_eq!(cores(&table, b1), Some(8));
        // Admission, not arrival, is what moves the split.
        let i1 = run(&table, PriorityClass::Interactive);
        assert_eq!((cores(&table, b1), cores(&table, i1)), (Some(1), Some(7)));
    }

    #[test]
    fn more_requests_than_cores_floor_at_one_each() {
        let table = RequestTable::new(limits(8, 8, 8), 2);
        let ids: Vec<_> = (0..4).map(|_| run(&table, PriorityClass::Batch)).collect();
        for id in &ids {
            assert_eq!(cores(&table, *id), Some(1));
        }
        let i = run(&table, PriorityClass::Interactive);
        assert_eq!(cores(&table, i), Some(1));
    }

    #[test]
    fn release_is_idempotent() {
        let table = RequestTable::new(limits(8, 8, 8), 4);
        let b1 = run(&table, PriorityClass::Batch);
        let b2 = run(&table, PriorityClass::Batch);
        table.release(b1);
        table.release(b1);
        assert_eq!(table.in_flight(PriorityClass::Batch), 1);
        assert_eq!(cores(&table, b2), Some(4));
    }

    #[test]
    fn cancel_reaches_waiting_and_running_requests() {
        let table = RequestTable::new(limits(8, 1, 4), 4);
        let (running, waiting) = (CancelToken::new(), CancelToken::new());
        let (r, _) = table.enter(PriorityClass::Batch, running.clone()).unwrap();
        let (w, _) = table.enter(PriorityClass::Batch, waiting.clone()).unwrap();
        assert!(table.cancel(w));
        assert!(waiting.is_cancelled() && !running.is_cancelled());
        assert!(!table.cancel(w + 1), "an unknown id is not found");
        assert_eq!(table.cancel_all(), 2);
        assert!(running.is_cancelled());
        table.release(r);
        table.release(w);
        assert!(table.is_empty());
        assert!(!table.cancel(r), "a released request is not found");
    }

    #[test]
    fn a_squeeze_before_the_batch_starts_reaches_it() {
        let table = RequestTable::new(limits(8, 8, 8), 4);
        let batch = run(&table, PriorityClass::Batch);
        let handle = table.running(batch).unwrap();
        // An interactive arrival squeezes the batch request while its
        // engine still builds the batch's preprocessing.
        run(&table, PriorityClass::Interactive);
        let scheduler = Scheduler::with_handle(&handle, 1);
        let results = scheduler.run(|_, job| job.budget().unwrap().current());
        assert_eq!(results[0].as_ref().map(|(threads, _)| *threads), Some(1));
    }
}
