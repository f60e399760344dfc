//! The ordered worker pool behind both parallel steps of a verification:
//! the search's plan rounds ([`crate::search`]) and the cycle pass's edge
//! waves ([`crate::repeated`]).
//!
//! [`run_ordered`] runs one closure over the positions `0..len` and hands
//! the results back by position, so a caller that consumes them in
//! position order sees the same sequence for every worker count.  Small
//! calls run inline on the calling thread; larger ones run on scoped
//! threads that claim chunks of positions from one shared cursor.  Either
//! way a panic inside the closure comes back as `Err(message)` once every
//! worker has finished, never as an unwind through the caller.

use crate::error::panic_message;
use crate::search::WorkerStats;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// What one [`run_ordered`] call produced.
pub(crate) struct Pooled<R, S> {
    /// One result per position; `None` where the item never ran because
    /// `stop` fired first.
    pub(crate) results: Vec<Option<R>>,
    /// Each worker's state, by worker index (one entry when the call ran
    /// inline).
    pub(crate) states: Vec<S>,
    /// Each worker's statistics, by worker index, with `busy_micros` set
    /// to the time the worker spent claiming and running items.
    pub(crate) stats: Vec<WorkerStats>,
    /// `true` when `stop` fired before every position ran.
    pub(crate) stopped: bool,
}

/// Run `item(pos, state, stats)` for every `pos` in `0..len`.
///
/// The call runs inline when `workers <= 1 || len < 2 * workers` (a
/// thread pool would cost more than it saves); otherwise `workers` scoped
/// threads claim chunks of `max(len / (4 * workers), 1)` positions from
/// one cursor.  Each worker builds its state with `init(worker)` and polls
/// `stop` before every item; once `stop` answers `true` that worker
/// claims nothing more and the call reports itself `stopped` (callers
/// pass a sticky condition, so every worker soon sees it).
///
/// A panic in `init` or `item` returns `Err` with the panic's message,
/// after every other worker has been joined.
pub(crate) fn run_ordered<R, S>(
    len: usize,
    workers: usize,
    init: impl Fn(usize) -> S + Sync,
    stop: impl Fn() -> bool + Sync,
    item: impl Fn(usize, &mut S, &mut WorkerStats) -> R + Sync,
) -> Result<Pooled<R, S>, String>
where
    R: Send,
    S: Send,
{
    let threaded = workers > 1 && len >= 2 * workers;
    let chunk = (len / (4 * workers.max(1))).max(1);
    let cursor = AtomicUsize::new(0);
    let stopped = AtomicBool::new(false);
    let work = |worker: usize| {
        let mut state = init(worker);
        let t0 = Instant::now();
        let mut stats = WorkerStats {
            worker,
            ..WorkerStats::default()
        };
        let mut done: Vec<(usize, R)> = Vec::new();
        'claim: loop {
            let begin = cursor.fetch_add(chunk, Ordering::Relaxed);
            if begin >= len {
                break;
            }
            for pos in begin..(begin + chunk).min(len) {
                if stop() {
                    stopped.store(true, Ordering::Relaxed);
                    break 'claim;
                }
                done.push((pos, item(pos, &mut state, &mut stats)));
            }
        }
        stats.busy_micros = t0.elapsed().as_micros() as u64;
        (state, stats, done)
    };
    let joined = if threaded {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|worker| {
                    let work = &work;
                    scope.spawn(move || work(worker))
                })
                .collect();
            // Join every handle before reporting a panic, so no worker
            // outlives the call.
            let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            joined.into_iter().collect::<Result<Vec<_>, _>>()
        })
    } else {
        catch_unwind(AssertUnwindSafe(|| work(0))).map(|out| vec![out])
    };
    let joined = joined.map_err(|panic| panic_message(panic.as_ref()))?;
    let mut results: Vec<Option<R>> = (0..len).map(|_| None).collect();
    let mut states = Vec::with_capacity(joined.len());
    let mut stats = Vec::with_capacity(joined.len());
    for (state, worker_stats, done) in joined {
        for (pos, result) in done {
            results[pos] = Some(result);
        }
        states.push(state);
        stats.push(worker_stats);
    }
    Ok(Pooled {
        results,
        states,
        stats,
        stopped: stopped.into_inner(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_by_position_for_every_worker_count() {
        for workers in [1, 2, 4, 8] {
            let pooled = run_ordered(
                100,
                workers,
                |worker| worker,
                || false,
                |pos, _, stats| {
                    stats.nodes_planned += 1;
                    pos * pos
                },
            )
            .expect("nothing panics");
            let expected: Vec<Option<usize>> = (0..100).map(|pos| Some(pos * pos)).collect();
            assert_eq!(pooled.results, expected, "{workers} workers");
            assert!(!pooled.stopped);
            assert_eq!(pooled.states, (0..workers).collect::<Vec<_>>());
            assert_eq!(pooled.stats.len(), workers);
            let ran: usize = pooled.stats.iter().map(|s| s.nodes_planned).sum();
            assert_eq!(ran, 100, "{workers} workers");
        }
    }

    #[test]
    fn a_panic_at_one_position_is_an_error_inline_and_threaded() {
        // 3 positions on 2 workers run inline; 64 run on threads.
        for (len, workers) in [(3, 1), (3, 2), (64, 2), (64, 4)] {
            let outcome = run_ordered(
                len,
                workers,
                |_| (),
                || false,
                |pos, _, _| {
                    if pos == len / 2 {
                        panic!("planted at {pos}");
                    }
                    pos
                },
            );
            match outcome {
                Err(message) => assert_eq!(message, format!("planted at {}", len / 2)),
                Ok(_) => panic!("the planted panic was lost ({len} positions, {workers} workers)"),
            }
        }
    }

    #[test]
    fn stop_leaves_the_positions_that_never_ran_empty() {
        for workers in [1, 4] {
            let ran = AtomicUsize::new(0);
            let pooled = run_ordered(
                64,
                workers,
                |_| (),
                || ran.load(Ordering::Relaxed) >= 10,
                |pos, _, _| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    pos
                },
            )
            .expect("nothing panics");
            assert!(pooled.stopped, "{workers} workers");
            let filled = pooled.results.iter().filter(|r| r.is_some()).count();
            assert_eq!(filled, ran.load(Ordering::Relaxed));
            assert!(filled < 64, "{workers} workers ran every position");
            for (pos, result) in pooled.results.iter().enumerate() {
                assert!(result.is_none() || *result == Some(pos));
            }
        }
    }
}
