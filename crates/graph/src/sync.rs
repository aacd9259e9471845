//! [`Leaf`]: the workspace's one lock.
//!
//! Every lock in the workspace is a leaf: a thread holds at most one
//! [`LeafGuard`] at a time, and it does not block on the network, check
//! out a pooled engine or ask for admission while it holds one. No two
//! locks are ever held together, so no lock order exists to get wrong:
//! "no nesting" is simpler than a canonical order and stronger than one.
//!
//! Under `cfg(any(debug_assertions, feature = "verify"))` — the cfg the
//! structural validators use — a thread-local count of held guards makes
//! the rule a check. [`Leaf::lock`] asserts the count is zero *before* it
//! blocks on the mutex, so a nested or repeated lock fails at once instead
//! of deadlocking, and [`assert_unlocked`] asserts it where the daemon
//! blocks on a socket (`read_frame`, `write_frame`, the accept loop).
//! Pool checkout and admission lock a `Leaf` themselves, so they are
//! covered without a call of their own. In release builds without
//! `verify` the check compiles out.
//!
//! A guard also recovers a lock a panicking thread poisoned: every piece
//! of state behind a `Leaf` is valid between statements, so the data is
//! taken as it is and the poison cleared
//! ([`lock_recovering`](Leaf::lock_recovering) lets the owner repair it
//! first).
//!
//! ```
//! use comm_graph::sync::Leaf;
//!
//! let hits = Leaf::new(0u64);
//! *hits.lock() += 1;
//! assert_eq!(*hits.lock(), 1);
//! ```

use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A mutex no thread may hold together with another, paired with a
/// condition variable for waits on the state it guards.
#[derive(Debug)]
pub struct Leaf<T> {
    mutex: Mutex<T>,
    changed: Condvar,
}

/// A held [`Leaf`]: derefs to the data and unlocks on drop.
pub struct LeafGuard<'a, T> {
    leaf: &'a Leaf<T>,
    guard: MutexGuard<'a, T>,
    /// Dropped after `guard`, so the count falls once the mutex is free
    /// (and also when an unwinding panic drops the guard).
    _held: Held,
}

impl<T> Leaf<T> {
    /// A leaf lock around `value`.
    pub fn new(value: T) -> Leaf<T> {
        Leaf {
            mutex: Mutex::new(value),
            changed: Condvar::new(),
        }
    }

    /// Locks, recovering a poisoned lock as it is.
    #[track_caller]
    pub fn lock(&self) -> LeafGuard<'_, T> {
        self.lock_recovering(|_| {})
    }

    /// Locks. If a panicking thread poisoned the lock, `repair` runs on
    /// the data once and the poison is cleared, so the next lock sees a
    /// healthy mutex.
    #[track_caller]
    pub fn lock_recovering(&self, repair: impl FnOnce(&mut T)) -> LeafGuard<'_, T> {
        // Counted (and checked) before blocking: a re-lock fails here
        // instead of hanging on the mutex this thread already holds.
        let held = Held::take();
        let guard = match self.mutex.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                let mut g = poisoned.into_inner();
                repair(&mut g);
                self.mutex.clear_poison();
                g
            }
        };
        LeafGuard {
            leaf: self,
            guard,
            _held: held,
        }
    }

    /// Wakes one thread waiting in [`LeafGuard::wait_while_for`].
    pub fn notify_one(&self) {
        self.changed.notify_one();
    }

    /// Wakes every thread waiting in [`LeafGuard::wait_while_for`].
    pub fn notify_all(&self) {
        self.changed.notify_all();
    }
}

impl<'a, T> LeafGuard<'a, T> {
    /// Waits while `blocked` holds, for at most `timeout` in all: the lock
    /// is released during each wait, and the time left shrinks with every
    /// wake-up, however many notifications arrive. Returns the guard and
    /// whether the wait ended with `blocked` still true (timed out).
    pub fn wait_while_for(
        self,
        timeout: Duration,
        mut blocked: impl FnMut(&mut T) -> bool,
    ) -> (LeafGuard<'a, T>, bool) {
        let LeafGuard {
            leaf,
            mut guard,
            _held,
        } = self;
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match leaf.changed.wait_timeout_while(guard, left, &mut blocked) {
                Ok((g, waited)) => {
                    let guard = LeafGuard {
                        leaf,
                        guard: g,
                        _held,
                    };
                    return (guard, waited.timed_out());
                }
                // A thread panicked while holding the lock: recover as
                // `lock` does and wait out the rest of the deadline.
                Err(poisoned) => {
                    guard = poisoned.into_inner().0;
                    leaf.mutex.clear_poison();
                }
            }
        }
    }
}

impl<T> Deref for LeafGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for LeafGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// Asserts that this thread holds no [`LeafGuard`]: called before
/// blocking on the network. Compiles to nothing outside
/// `cfg(any(debug_assertions, feature = "verify"))`.
#[track_caller]
#[inline]
pub fn assert_unlocked() {
    #[cfg(any(debug_assertions, feature = "verify"))]
    check::assert_unlocked();
}

#[cfg(any(debug_assertions, feature = "verify"))]
use check::Held;

/// With the check off, holding a guard records nothing.
#[cfg(not(any(debug_assertions, feature = "verify")))]
struct Held;

#[cfg(not(any(debug_assertions, feature = "verify")))]
impl Held {
    #[inline]
    fn take() -> Held {
        Held
    }
}

#[cfg(any(debug_assertions, feature = "verify"))]
mod check {
    use std::cell::Cell;

    thread_local! {
        /// Leaf guards this thread holds: 0 or 1.
        static HELD: Cell<usize> = const { Cell::new(0) };
    }

    /// One held guard, counted while it lives.
    pub(super) struct Held(());

    impl Held {
        #[track_caller]
        pub(super) fn take() -> Held {
            assert_unlocked();
            HELD.with(|h| h.set(h.get() + 1));
            Held(())
        }
    }

    impl Drop for Held {
        fn drop(&mut self) {
            HELD.with(|h| h.set(h.get().saturating_sub(1)));
        }
    }

    #[track_caller]
    pub(super) fn assert_unlocked() {
        // A second panic while unwinding would abort the process: the
        // first one is already the report.
        assert!(
            HELD.with(Cell::get) == 0 || std::thread::panicking(),
            "a Leaf guard is held here: leaf locks do not nest, and no guard is held \
             across blocking I/O, pool checkout or admission"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_poisoned_leaf_is_repaired_once_and_serves_again() {
        let leaf = Arc::new(Leaf::new(vec![1, 2, 3]));
        let l2 = Arc::clone(&leaf);
        let _ = std::thread::spawn(move || {
            let _g = l2.lock();
            panic!("poison");
        })
        .join();
        let mut repairs = 0;
        assert!(leaf
            .lock_recovering(|v| {
                repairs += 1;
                v.clear();
            })
            .is_empty());
        leaf.lock_recovering(|_| repairs += 1).push(4);
        assert_eq!((repairs, leaf.lock().len()), (1, 1));
    }

    /// The check, armed: each seeded violation panics instead of hanging.
    #[cfg(any(debug_assertions, feature = "verify"))]
    mod armed {
        use super::*;

        #[test]
        #[should_panic(expected = "a Leaf guard is held here")]
        fn nesting_two_leaves_panics() {
            // Whichever is taken first: with no nesting there is no
            // order, so neither a cycle nor an inversion can form.
            let (a, b) = (Leaf::new(0), Leaf::new(0));
            let _ga = a.lock();
            let _gb = b.lock();
        }

        #[test]
        #[should_panic(expected = "a Leaf guard is held here")]
        fn relocking_one_leaf_panics_instead_of_hanging() {
            let a = Leaf::new(0);
            let _g = a.lock();
            let _again = a.lock();
        }

        #[test]
        #[should_panic(expected = "a Leaf guard is held here")]
        fn blocking_under_a_guard_panics() {
            let a = Leaf::new(0);
            let _g = a.lock();
            assert_unlocked();
        }

        #[test]
        fn waiting_on_the_held_guards_condvar_is_allowed() {
            let a = Leaf::new(0);
            let (g, timed_out) = a
                .lock()
                .wait_while_for(Duration::from_millis(1), |n| *n == 0);
            assert!(timed_out);
            drop(g);
            assert_unlocked();
        }

        #[test]
        fn a_guard_dropped_by_unwinding_resets_the_count() {
            let a = Leaf::new(0);
            let unwound = std::panic::catch_unwind(|| {
                let _g = a.lock();
                panic!("unwind with the guard held");
            });
            assert!(unwound.is_err());
            assert_unlocked();
            *a.lock() += 1;
            assert_eq!(*a.lock(), 1);
        }
    }
}
