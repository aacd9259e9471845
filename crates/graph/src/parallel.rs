//! Deterministic fork–join parallelism for data-independent sweeps.
//!
//! [`Parallelism`] is an explicit thread-count config plus a small scoped-
//! thread executor ([`map`](Parallelism::map) / [`map_init`](Parallelism::map_init)).
//! It is built on `std::thread::scope` only — no external runtime — so the
//! workspace stays dependency-free and `Parallelism::serial()` is a true
//! inline fallback: with one thread every task runs on the calling thread,
//! in order, with zero synchronization.
//!
//! Results are returned **by task index**, never by completion order, so a
//! parallel run observes the same outputs as the serial one whenever the
//! tasks themselves are deterministic and independent. That is the
//! contract the per-keyword projection-index build in `comm-core` and the
//! batch query runner rely on for bit-identical serial/parallel results.
//!
//! Cancellation composes through [`RunGuard`](crate::RunGuard): guards are
//! `Sync` and clones share one trip flag, so handing the same guard to
//! every task makes a single trip (deadline, budget, cancel) interrupt all
//! in-flight sweeps at their next per-node check.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// See [`pool::lock`](crate::pool): the task/result slots protect no
/// cross-field invariants, so a poisoned mutex is safe to recover.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An explicit thread-count configuration for the parallel sweep paths.
///
/// * [`Parallelism::serial`] (1 thread) runs tasks inline on the calling
///   thread — the exact historical code path, usable under Miri;
/// * [`Parallelism::new`]`(n)` uses up to `n` worker threads;
/// * [`Parallelism::auto`] uses all available cores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Parallelism {
    threads: usize,
}

impl Parallelism {
    /// One thread: every task runs inline, in order, on the caller.
    pub fn serial() -> Parallelism {
        Parallelism { threads: 1 }
    }

    /// Up to `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Parallelism {
        Parallelism {
            threads: threads.max(1),
        }
    }

    /// The available cores, else serial.
    pub fn auto() -> Parallelism {
        Parallelism::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// The configured worker count (≥ 1).
    pub fn threads(self) -> usize {
        self.threads
    }

    /// Runs every task and returns the results in task order.
    ///
    /// With one thread (or one task) the tasks run inline, sequentially.
    /// Otherwise `min(threads, tasks)` scoped workers pull tasks from a
    /// shared cursor; results land in their task's slot, so the output
    /// order is independent of scheduling. A panicking task propagates to
    /// the caller once all workers have stopped (via `std::thread::scope`).
    pub fn map<T, F>(self, tasks: Vec<F>) -> Vec<T>
    where
        F: FnOnce() -> T + Send,
        T: Send,
    {
        self.map_init(
            || (),
            tasks
                .into_iter()
                .map(|f| move |_state: &mut ()| f())
                .collect(),
        )
    }

    /// Like [`map`](Self::map), with per-worker scratch state built by
    /// `init` — e.g. a [`PooledEngine`](crate::PooledEngine) borrowed once
    /// per worker instead of once per task.
    #[expect(
        clippy::expect_used,
        reason = "a task that failed to fill its slot panicked, and scope() already propagated that panic"
    )]
    pub fn map_init<S, T, F>(self, init: impl Fn() -> S + Sync, tasks: Vec<F>) -> Vec<T>
    where
        F: FnOnce(&mut S) -> T + Send,
        T: Send,
    {
        let n_tasks = tasks.len();
        if n_tasks == 0 {
            // No task, no scratch: `init` may be a pool checkout.
            return Vec::new();
        }
        let workers = self.threads.min(n_tasks);
        if workers <= 1 {
            let mut state = init();
            return tasks.into_iter().map(|f| f(&mut state)).collect();
        }
        let slots: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|f| Mutex::new(Some(f))).collect();
        let results: Vec<Mutex<Option<T>>> = (0..n_tasks).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut state = init();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n_tasks {
                            break;
                        }
                        let task = lock(&slots[i]).take();
                        if let Some(f) = task {
                            let out = f(&mut state);
                            *lock(&results[i]) = Some(out);
                        }
                    }
                });
            }
        });
        results
            .into_iter()
            .map(|slot| {
                lock(&slot)
                    .take()
                    .expect("every task index was claimed and completed")
            })
            .collect()
    }
}

impl Default for Parallelism {
    /// The default is [`auto`](Self::auto): all cores.
    fn default() -> Parallelism {
        Parallelism::auto()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn thread_counts_clamp() {
        assert_eq!(Parallelism::serial().threads(), 1);
        assert_eq!(Parallelism::new(0).threads(), 1);
        assert_eq!(Parallelism::new(4).threads(), 4);
        assert!(Parallelism::auto().threads() >= 1);
        assert!(Parallelism::default().threads() >= 1);
    }

    #[test]
    fn map_preserves_task_order() {
        for par in [
            Parallelism::serial(),
            Parallelism::new(2),
            Parallelism::new(8),
        ] {
            let tasks: Vec<_> = (0..37u64).map(|i| move || i * i).collect();
            let got = par.map(tasks);
            let expect: Vec<u64> = (0..37).map(|i| i * i).collect();
            assert_eq!(got, expect, "threads={}", par.threads());
        }
    }

    #[test]
    fn map_handles_empty_and_single() {
        let par = Parallelism::new(4);
        let empty: Vec<fn() -> u32> = Vec::new();
        assert!(par.map(empty).is_empty());
        assert_eq!(par.map(vec![|| 7u32]), vec![7]);
    }

    #[test]
    fn map_init_builds_one_state_per_worker() {
        let builds = AtomicU64::new(0);
        let par = Parallelism::new(3);
        let tasks: Vec<_> = (0..64u64).map(|i| move |s: &mut u64| i + *s).collect();
        let out = par.map_init(
            || {
                builds.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            tasks,
        );
        assert_eq!(out, (0..64).collect::<Vec<u64>>());
        let built = builds.load(Ordering::Relaxed);
        assert!(
            (1..=3).contains(&built),
            "one state per live worker, got {built}"
        );
    }

    #[test]
    fn serial_map_init_reuses_single_state() {
        let par = Parallelism::serial();
        let tasks: Vec<_> = (0..5u64)
            .map(|_| {
                |s: &mut u64| {
                    *s += 1;
                    *s
                }
            })
            .collect();
        // Inline execution threads one state through all tasks, in order.
        assert_eq!(par.map_init(|| 0u64, tasks), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn more_threads_than_tasks() {
        let par = Parallelism::new(16);
        let tasks: Vec<_> = (0..3u32).map(|i| move || i).collect();
        assert_eq!(par.map(tasks), vec![0, 1, 2]);
    }

    #[test]
    fn guard_trip_is_visible_across_tasks() {
        use crate::guard::{InterruptReason, RunGuard};
        let guard = RunGuard::new();
        let par = Parallelism::new(4);
        guard.cancel();
        let g = &guard;
        let tasks: Vec<_> = (0..8).map(|_| move || g.check().err()).collect();
        for r in par.map(tasks) {
            assert_eq!(r, Some(InterruptReason::Cancelled));
        }
    }
}
