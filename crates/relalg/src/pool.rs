//! A scoped work-stealing task pool for morsel-driven execution.
//!
//! The parallel executor splits work into *tasks* (morsels: fixed-size
//! runs of rows of a columnar image, see [`crate::exec`]) and runs them
//! on a small pool of scoped OS threads. Scheduling is a single shared
//! atomic counter: every worker *steals* the next unclaimed task id, so
//! fast workers drain the queue while slow ones finish their morsel —
//! the classic morsel-driven balance without per-worker deques. Because
//! claims are `fetch_add`, the task ids one worker processes are always
//! increasing, which the executor's deterministic merges rely on.
//!
//! One driver covers the executor's needs: [`TaskPool::fold_tasks`] —
//! each worker folds the tasks it claims into its own partial state
//! (per-morsel outputs, partial aggregation states, sorted runs); the
//! caller merges the per-worker states, in task order where the output
//! must be byte-identical to a serial run.
//!
//! Threads are `std::thread::scope` workers, so tasks may borrow the
//! prepared operator tree (and the catalog's shared relations) without
//! any `'static` bounds — and the pool needs no dependencies beyond std.
//!
//! The driver is **panic-safe**: each worker body runs under
//! `catch_unwind`, the first failure — a genuine panic or an engine
//! error unwound via [`crate::fault::rethrow`] — trips a shared abort
//! flag that stops sibling workers at their next claim, and the
//! payload comes back to the caller as a clean `Err` (see
//! [`crate::fault::unwind_to_error`]). No worker panic ever crosses
//! the pool boundary as a panic.

use crate::error::Result;
use crate::fault::{self, unwind_to_error};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// A bounded pool of scoped workers. `threads == 1` (or a single task)
/// degenerates to inline serial execution with zero thread overhead.
#[derive(Clone, Copy, Debug)]
pub struct TaskPool {
    threads: usize,
}

impl TaskPool {
    /// A pool running at most `threads` workers (floored at 1).
    pub fn new(threads: usize) -> TaskPool {
        TaskPool {
            threads: threads.max(1),
        }
    }

    /// The worker cap.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// How many workers a run over `tasks` tasks will actually use.
    pub fn workers_for(&self, tasks: usize) -> usize {
        self.threads.min(tasks).max(1)
    }

    /// Split a resource budget (memory bytes) evenly over this pool's
    /// workers: each worker-local breaker buffer gets `total / threads`
    /// before it must spill, floored at one unit so a tiny budget still
    /// degrades to spilling instead of to zero capacity. `usize::MAX`
    /// (unbounded) passes through untouched. This is *the* share
    /// computation — [`crate::spill::MemBudget`] stores its result
    /// rather than re-deriving it.
    pub fn share_of(&self, total: usize) -> usize {
        if total == usize::MAX {
            usize::MAX
        } else {
            (total / self.threads).max(1)
        }
    }

    /// Run `tasks` tasks, folding each into the claiming worker's own
    /// state; returns the per-worker states (in worker-index order).
    /// Within one worker, task ids arrive strictly increasing — the
    /// deterministic-merge invariant the executor's partial seen-sets
    /// and partial aggregation states depend on.
    ///
    /// Panic-safe: each worker runs under `catch_unwind`; the first
    /// failure trips a shared abort flag (sibling workers stop at their
    /// next claim, their partial states drop and release what they
    /// held) and is returned as the fold's error.
    pub fn fold_tasks<T, I, F>(&self, tasks: usize, init: I, fold: F) -> Result<Vec<T>>
    where
        T: Send,
        I: Fn() -> T + Sync,
        F: Fn(&mut T, usize) + Sync,
    {
        let workers = self.workers_for(tasks);
        if workers <= 1 {
            return fault::catch_pull(|| {
                let mut state = init();
                for id in 0..tasks {
                    fold(&mut state, id);
                }
                vec![state]
            });
        }
        let next = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let failure: Mutex<Option<crate::error::Error>> = Mutex::new(None);
        let mut states: Vec<T> = Vec::with_capacity(workers);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut state = init();
                        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            loop {
                                // The Exchange: claim the next unstolen
                                // task — unless a sibling already failed.
                                if abort.load(Ordering::Relaxed) {
                                    break;
                                }
                                let id = next.fetch_add(1, Ordering::Relaxed);
                                if id >= tasks {
                                    break;
                                }
                                fold(&mut state, id);
                            }
                        }));
                        if let Err(payload) = run {
                            abort.store(true, Ordering::Relaxed);
                            let mut slot = fault::lock_recover(&failure);
                            if slot.is_none() {
                                *slot = Some(unwind_to_error(payload));
                            }
                        }
                        state
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(state) => states.push(state),
                    // The worker body caught its own unwinds; a join
                    // error means the catch_unwind machinery itself
                    // failed — record it like any other worker failure.
                    Err(payload) => {
                        let mut slot = fault::lock_recover(&failure);
                        if slot.is_none() {
                            *slot = Some(unwind_to_error(payload));
                        }
                    }
                }
            }
        });
        match failure.into_inner().unwrap_or_else(|p| p.into_inner()) {
            Some(e) => Err(e),
            None => Ok(states),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn every_task_runs_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        TaskPool::new(4)
            .fold_tasks(
                100,
                || (),
                |_, i| {
                    counters[i].fetch_add(1, Ordering::Relaxed);
                },
            )
            .unwrap();
        for c in &counters {
            assert_eq!(c.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn fold_tasks_partitions_all_tasks() {
        let pool = TaskPool::new(3);
        let states = pool
            .fold_tasks(50, Vec::new, |acc: &mut Vec<usize>, id| acc.push(id))
            .unwrap();
        assert!(states.len() <= 3 && !states.is_empty());
        // Within each worker, ids are strictly increasing (atomic claim
        // order) — the invariant partial merges rely on.
        for s in &states {
            assert!(s.windows(2).all(|w| w[0] < w[1]), "{s:?}");
        }
        let mut all: Vec<usize> = states.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn share_of_splits_budgets_per_worker() {
        assert_eq!(TaskPool::new(4).share_of(1000), 250);
        assert_eq!(TaskPool::new(1).share_of(1000), 1000);
        // Tiny budgets floor at one unit; unbounded passes through.
        assert_eq!(TaskPool::new(8).share_of(2), 1);
        assert_eq!(TaskPool::new(8).share_of(usize::MAX), usize::MAX);
    }

    #[test]
    fn zero_and_one_task_edge_cases() {
        let pool = TaskPool::new(4);
        let ids = |tasks| -> Vec<usize> {
            pool.fold_tasks(tasks, Vec::new, |acc: &mut Vec<usize>, i| acc.push(i))
                .unwrap()
                .concat()
        };
        assert!(ids(0).is_empty());
        assert_eq!(ids(1), vec![0]);
        assert_eq!(pool.workers_for(0), 1);
        assert_eq!(pool.workers_for(3), 3);
        assert_eq!(pool.workers_for(100), 4);
        assert_eq!(TaskPool::new(0).threads(), 1);
    }

    #[test]
    fn worker_panic_becomes_error_and_cancels_siblings() {
        use crate::error::Error;
        for threads in [1, 4] {
            let pool = TaskPool::new(threads);
            let ran = AtomicUsize::new(0);
            let err = pool
                .fold_tasks(
                    1000,
                    || (),
                    |(), id| {
                        ran.fetch_add(1, Ordering::Relaxed);
                        if id == 3 {
                            crate::fault::rethrow::<()>(Err(Error::Io("edge died".into())));
                        }
                        // Give siblings a moment to observe the abort.
                        std::thread::sleep(std::time::Duration::from_micros(50));
                    },
                )
                .unwrap_err();
            assert_eq!(err, Error::Io("edge died".into()));
            assert!(
                ran.load(Ordering::Relaxed) < 1000,
                "abort flag should stop sibling claims"
            );
        }
    }

    #[test]
    fn raw_panic_payloads_become_invalid_errors() {
        let err = TaskPool::new(2)
            .fold_tasks(
                8,
                || (),
                |(), id| {
                    if id == 0 {
                        panic!("boom {id}");
                    }
                },
            )
            .unwrap_err();
        match err {
            crate::error::Error::Invalid(msg) => assert!(msg.contains("boom 0"), "{msg}"),
            other => panic!("unexpected error: {other:?}"),
        }
    }
}
