//! Cooperative execution governor for long-running sweeps and enumerations.
//!
//! The paper's polynomial-*delay* guarantee (Theorem IV.1) bounds the gap
//! between consecutive answers, not the total run time: a hot query can
//! legitimately emit millions of communities. [`RunGuard`] is the safety
//! valve — a cheap, cooperative check threaded through every Dijkstra sweep
//! and every enumeration loop so callers can impose:
//!
//! * **cancellation** — a shared [`AtomicBool`] flag (Ctrl-C, dropped
//!   connection, superseded request);
//! * **deadlines** — a wall-clock [`Instant`] cut-off, checked with
//!   amortized `Instant::now()` calls;
//! * **work budgets** — caps on settled Dijkstra nodes and generated
//!   candidates (the governor generalizes the baselines' old ad-hoc
//!   `candidate_budget`);
//! * **memory budgets** — a cap on the logical bytes of tracked state;
//! * **fault injection** — a test-only trip wire that fires after exactly
//!   `N` guard checks, used to prove every interruption path is panic-free
//!   and yields a valid prefix of the unguarded output.
//!
//! A guard is *cooperative*: algorithms consult it at well-defined points
//! (per settled node, per candidate, per enumeration step) and wind down
//! with a structured [`Outcome`] when it trips. Interruption never corrupts
//! results — guarded enumerators emit only fully materialized communities,
//! so their output is always a prefix of the unguarded run.
//!
//! The default guard, [`RunGuard::unlimited`], is a `None` niche: checks
//! compile to a single branch and no atomics, so unguarded callers pay
//! nothing.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often (in guard checks) the deadline is re-read from the clock.
///
/// `Instant::now()` costs tens of nanoseconds; one guard check happens per
/// settled Dijkstra node (microseconds of heap work), so sampling the clock
/// every 64 checks keeps overhead negligible while bounding deadline
/// overshoot to a few microseconds of extra work.
const DEADLINE_STRIDE: u64 = 64;

/// Why a guarded run stopped before completing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InterruptReason {
    /// The shared cancel flag was raised (e.g. Ctrl-C).
    Cancelled,
    /// The wall-clock deadline passed.
    DeadlineExceeded,
    /// The settled-node work budget ran out.
    SettledBudgetExhausted,
    /// The candidate/answer budget ran out.
    CandidateBudgetExhausted,
    /// Tracked logical memory exceeded the byte budget.
    MemoryBudgetExhausted,
    /// The test-only fault injection trip wire fired.
    Injected,
}

impl fmt::Display for InterruptReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InterruptReason::Cancelled => "cancelled",
            InterruptReason::DeadlineExceeded => "deadline exceeded",
            InterruptReason::SettledBudgetExhausted => "settled-node budget exhausted",
            InterruptReason::CandidateBudgetExhausted => "candidate budget exhausted",
            InterruptReason::MemoryBudgetExhausted => "memory budget exhausted",
            InterruptReason::Injected => "fault injection tripped",
        };
        f.write_str(s)
    }
}

/// The structured result of a guarded run: either everything, or the prefix
/// produced before the guard tripped plus the reason it tripped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome<T> {
    /// The run finished; the value is the full result.
    Complete(T),
    /// The guard tripped; `partial` holds everything emitted so far — for
    /// enumerators, always a prefix of the unguarded output.
    Interrupted {
        /// Which limit tripped.
        reason: InterruptReason,
        /// The results produced before interruption.
        partial: T,
    },
}

impl<T> Outcome<T> {
    /// Whether the run finished without interruption.
    pub fn is_complete(&self) -> bool {
        matches!(self, Outcome::Complete(_))
    }

    /// The interruption reason, if any.
    pub fn reason(&self) -> Option<InterruptReason> {
        match self {
            Outcome::Complete(_) => None,
            Outcome::Interrupted { reason, .. } => Some(*reason),
        }
    }

    /// The payload, complete or partial.
    pub fn into_value(self) -> T {
        match self {
            Outcome::Complete(v) | Outcome::Interrupted { partial: v, .. } => v,
        }
    }

    /// A reference to the payload, complete or partial.
    pub fn value(&self) -> &T {
        match self {
            Outcome::Complete(v) | Outcome::Interrupted { partial: v, .. } => v,
        }
    }

    /// Maps the payload, preserving the completion status.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Outcome<U> {
        match self {
            Outcome::Complete(v) => Outcome::Complete(f(v)),
            Outcome::Interrupted { reason, partial } => Outcome::Interrupted {
                reason,
                partial: f(partial),
            },
        }
    }
}

/// Mutable run-progress counters, shared by every clone of a guard.
#[derive(Debug, Default)]
struct Counters {
    checks: AtomicU64,
    settled: AtomicU64,
    candidates: AtomicU64,
}

/// Immutable limits plus the shared state behind a materialized guard.
#[derive(Debug)]
struct Inner {
    cancel: Arc<AtomicBool>,
    counters: Counters,
    deadline: Option<Instant>,
    settled_budget: u64,
    candidate_budget: u64,
    byte_budget: usize,
    trip_after: u64,
}

impl Default for Inner {
    fn default() -> Inner {
        Inner {
            cancel: Arc::new(AtomicBool::new(false)),
            counters: Counters::default(),
            deadline: None,
            settled_budget: u64::MAX,
            candidate_budget: u64::MAX,
            byte_budget: usize::MAX,
            trip_after: u64::MAX,
        }
    }
}

/// A cheap, clonable, cooperative execution governor.
///
/// Clones share the same cancel flag, limits, and progress counters, so a
/// guard can be handed to several algorithm stages (projection, neighbor
/// sweeps, enumeration) and budgets apply to the query as a whole.
///
/// ```
/// use comm_graph::RunGuard;
/// use std::time::Duration;
///
/// // No limits: checks are free and never trip.
/// let unlimited = RunGuard::unlimited();
/// assert!(unlimited.check().is_ok());
///
/// // A guard with a deadline and an externally cancellable flag.
/// let guard = RunGuard::new().with_deadline(Duration::from_secs(5));
/// let flag = guard.cancel_flag();
/// assert!(guard.check().is_ok());
/// flag.store(true, std::sync::atomic::Ordering::Relaxed);
/// assert!(guard.check().is_err());
/// ```
#[derive(Clone, Debug, Default)]
pub struct RunGuard {
    inner: Option<Arc<Inner>>,
}

impl RunGuard {
    /// A guard with no limits at all; every check is a no-op. This is what
    /// the non-`try_` entry points use internally.
    pub fn unlimited() -> RunGuard {
        RunGuard { inner: None }
    }

    /// A materialized guard with no limits yet: it owns a cancel flag and
    /// counts progress, and limits can be layered on with the `with_*`
    /// builders.
    pub fn new() -> RunGuard {
        RunGuard {
            inner: Some(Arc::new(Inner::default())),
        }
    }

    fn materialize(self) -> Inner {
        match self.inner {
            None => Inner::default(),
            Some(arc) => match Arc::try_unwrap(arc) {
                Ok(inner) => inner,
                // A clone exists; preserve the shared cancel flag but take
                // fresh counters (builders are meant to run before sharing).
                Err(arc) => Inner {
                    cancel: Arc::clone(&arc.cancel),
                    counters: Counters::default(),
                    deadline: arc.deadline,
                    settled_budget: arc.settled_budget,
                    candidate_budget: arc.candidate_budget,
                    byte_budget: arc.byte_budget,
                    trip_after: arc.trip_after,
                },
            },
        }
    }

    /// Sets a wall-clock deadline `timeout` from now.
    pub fn with_deadline(self, timeout: Duration) -> RunGuard {
        let mut inner = self.materialize();
        inner.deadline = Some(Instant::now() + timeout);
        RunGuard {
            inner: Some(Arc::new(inner)),
        }
    }

    /// Uses `flag` as the cancel flag (e.g. one stored by a signal handler).
    pub fn with_cancel_flag(self, flag: Arc<AtomicBool>) -> RunGuard {
        let mut inner = self.materialize();
        inner.cancel = flag;
        RunGuard {
            inner: Some(Arc::new(inner)),
        }
    }

    /// Caps the total number of settled Dijkstra nodes across all sweeps.
    pub fn with_settled_budget(self, max_settled: u64) -> RunGuard {
        let mut inner = self.materialize();
        inner.settled_budget = max_settled;
        RunGuard {
            inner: Some(Arc::new(inner)),
        }
    }

    /// Caps the total number of candidates / emitted answers.
    pub fn with_candidate_budget(self, max_candidates: u64) -> RunGuard {
        let mut inner = self.materialize();
        inner.candidate_budget = max_candidates;
        RunGuard {
            inner: Some(Arc::new(inner)),
        }
    }

    /// Caps the tracked logical memory (bytes) reported via
    /// [`check_bytes`](Self::check_bytes).
    pub fn with_byte_budget(self, max_bytes: usize) -> RunGuard {
        let mut inner = self.materialize();
        inner.byte_budget = max_bytes;
        RunGuard {
            inner: Some(Arc::new(inner)),
        }
    }

    /// Test-only fault injection: the guard trips with
    /// [`InterruptReason::Injected`] on the `(n + 1)`-th check, so exactly
    /// `n` checks succeed. Combined with [`checks`](Self::checks) this lets
    /// tests sweep every interruption point deterministically.
    pub fn with_trip_after(self, n: u64) -> RunGuard {
        let mut inner = self.materialize();
        inner.trip_after = n;
        RunGuard {
            inner: Some(Arc::new(inner)),
        }
    }

    /// The shared cancel flag; store `true` (any ordering) to cancel.
    /// Materializes the guard's state if it was unlimited.
    pub fn cancel_flag(&self) -> Arc<AtomicBool> {
        match &self.inner {
            Some(inner) => Arc::clone(&inner.cancel),
            None => Arc::new(AtomicBool::new(false)),
        }
    }

    /// Raises the cancel flag. No-op on an unlimited guard.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.cancel.store(true, Ordering::Relaxed);
        }
    }

    /// Whether the cancel flag is raised.
    pub fn is_cancelled(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| i.cancel.load(Ordering::Relaxed))
    }

    /// Total guard checks so far (0 for unlimited guards).
    pub fn checks(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.counters.checks.load(Ordering::Relaxed))
    }

    /// Total settled Dijkstra nodes recorded so far.
    pub fn settled(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.counters.settled.load(Ordering::Relaxed))
    }

    /// Total candidates / answers recorded so far.
    pub fn candidates(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.counters.candidates.load(Ordering::Relaxed))
    }

    /// One guard consultation: bumps the check counter and tests the cancel
    /// flag, fault-injection trip wire, deadline (amortized), and — when
    /// `Some` — the extra budget closure supplied by the specialized
    /// `note_*` helpers.
    #[inline]
    fn consult(
        &self,
        extra: impl FnOnce(&Inner) -> Result<(), InterruptReason>,
    ) -> Result<(), InterruptReason> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        if inner.cancel.load(Ordering::Relaxed) {
            return Err(InterruptReason::Cancelled);
        }
        let check = inner.counters.checks.fetch_add(1, Ordering::Relaxed) + 1;
        if check > inner.trip_after {
            return Err(InterruptReason::Injected);
        }
        if let Some(deadline) = inner.deadline {
            // Sample the clock on the first check and then every
            // DEADLINE_STRIDE checks; overshoot is bounded by the stride.
            if check % DEADLINE_STRIDE == 1 && Instant::now() > deadline {
                return Err(InterruptReason::DeadlineExceeded);
            }
        }
        extra(inner)
    }

    /// A plain progress check (cancellation / deadline / fault injection).
    #[inline]
    pub fn check(&self) -> Result<(), InterruptReason> {
        self.consult(|_| Ok(()))
    }

    /// Records `n` freshly settled Dijkstra nodes and checks all limits.
    #[inline]
    pub fn note_settled(&self, n: u64) -> Result<(), InterruptReason> {
        self.consult(|inner| {
            let settled = inner.counters.settled.fetch_add(n, Ordering::Relaxed) + n;
            if settled > inner.settled_budget {
                Err(InterruptReason::SettledBudgetExhausted)
            } else {
                Ok(())
            }
        })
    }

    /// Records one generated candidate / emitted answer and checks all
    /// limits. The candidate budget is inclusive: with a budget of `k`,
    /// exactly `k` candidates pass before the guard trips.
    #[inline]
    pub fn note_candidate(&self) -> Result<(), InterruptReason> {
        self.consult(|inner| {
            let cand = inner.counters.candidates.fetch_add(1, Ordering::Relaxed) + 1;
            if cand > inner.candidate_budget {
                Err(InterruptReason::CandidateBudgetExhausted)
            } else {
                Ok(())
            }
        })
    }

    /// Checks the current tracked logical memory against the byte budget
    /// (plus all the plain-check limits).
    #[inline]
    pub fn check_bytes(&self, current_bytes: usize) -> Result<(), InterruptReason> {
        self.consult(|inner| {
            if current_bytes > inner.byte_budget {
                Err(InterruptReason::MemoryBudgetExhausted)
            } else {
                Ok(())
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let g = RunGuard::unlimited();
        for _ in 0..10_000 {
            g.check().unwrap();
            g.note_settled(5).unwrap();
            g.note_candidate().unwrap();
            g.check_bytes(usize::MAX).unwrap();
        }
        assert_eq!(g.checks(), 0);
    }

    #[test]
    fn materialized_guard_counts_checks() {
        let g = RunGuard::new();
        g.check().unwrap();
        g.note_settled(3).unwrap();
        g.note_candidate().unwrap();
        assert_eq!(g.checks(), 3);
        assert_eq!(g.settled(), 3);
        assert_eq!(g.candidates(), 1);
    }

    #[test]
    fn cancel_flag_trips_immediately() {
        let g = RunGuard::new();
        let flag = g.cancel_flag();
        g.check().unwrap();
        flag.store(true, Ordering::Relaxed);
        assert_eq!(g.check(), Err(InterruptReason::Cancelled));
        assert!(g.is_cancelled());
    }

    #[test]
    fn external_cancel_flag_is_shared() {
        let flag = Arc::new(AtomicBool::new(false));
        let g = RunGuard::new().with_cancel_flag(Arc::clone(&flag));
        g.check().unwrap();
        flag.store(true, Ordering::Relaxed);
        assert_eq!(g.check(), Err(InterruptReason::Cancelled));
    }

    #[test]
    fn expired_deadline_trips_on_first_check() {
        let g = RunGuard::new().with_deadline(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(g.check(), Err(InterruptReason::DeadlineExceeded));
    }

    #[test]
    fn future_deadline_does_not_trip() {
        let g = RunGuard::new().with_deadline(Duration::from_secs(3600));
        for _ in 0..1000 {
            g.check().unwrap();
        }
    }

    #[test]
    fn settled_budget_is_exact() {
        let g = RunGuard::new().with_settled_budget(10);
        g.note_settled(7).unwrap();
        g.note_settled(3).unwrap();
        assert_eq!(
            g.note_settled(1),
            Err(InterruptReason::SettledBudgetExhausted)
        );
    }

    #[test]
    fn candidate_budget_is_inclusive() {
        let g = RunGuard::new().with_candidate_budget(2);
        g.note_candidate().unwrap();
        g.note_candidate().unwrap();
        assert_eq!(
            g.note_candidate(),
            Err(InterruptReason::CandidateBudgetExhausted)
        );
    }

    #[test]
    fn byte_budget_checks_current_usage() {
        let g = RunGuard::new().with_byte_budget(1024);
        g.check_bytes(512).unwrap();
        assert_eq!(
            g.check_bytes(2048),
            Err(InterruptReason::MemoryBudgetExhausted)
        );
    }

    #[test]
    fn trip_after_fires_on_exact_check() {
        let g = RunGuard::new().with_trip_after(5);
        for _ in 0..5 {
            g.check().unwrap();
        }
        assert_eq!(g.check(), Err(InterruptReason::Injected));
        // Trip-after zero fails the very first check.
        let g0 = RunGuard::new().with_trip_after(0);
        assert_eq!(g0.check(), Err(InterruptReason::Injected));
    }

    #[test]
    fn clones_share_counters_and_flag() {
        let g = RunGuard::new().with_candidate_budget(3);
        let h = g.clone();
        g.note_candidate().unwrap();
        h.note_candidate().unwrap();
        g.note_candidate().unwrap();
        assert_eq!(
            h.note_candidate(),
            Err(InterruptReason::CandidateBudgetExhausted)
        );
        g.cancel();
        assert!(h.is_cancelled());
    }

    #[test]
    fn builders_compose() {
        let g = RunGuard::unlimited()
            .with_settled_budget(100)
            .with_candidate_budget(50)
            .with_byte_budget(1 << 20)
            .with_deadline(Duration::from_secs(60));
        g.note_settled(1).unwrap();
        g.note_candidate().unwrap();
        g.check_bytes(100).unwrap();
        assert_eq!(g.settled(), 1);
        assert_eq!(g.candidates(), 1);
    }

    #[test]
    fn outcome_accessors() {
        let c: Outcome<Vec<u32>> = Outcome::Complete(vec![1, 2]);
        assert!(c.is_complete());
        assert_eq!(c.reason(), None);
        assert_eq!(c.value(), &vec![1, 2]);
        let i = Outcome::Interrupted {
            reason: InterruptReason::Cancelled,
            partial: vec![1],
        };
        assert!(!i.is_complete());
        assert_eq!(i.reason(), Some(InterruptReason::Cancelled));
        let mapped = i.map(|v| v.len());
        assert_eq!(mapped.into_value(), 1);
    }

    #[test]
    fn reasons_display() {
        let all = [
            InterruptReason::Cancelled,
            InterruptReason::DeadlineExceeded,
            InterruptReason::SettledBudgetExhausted,
            InterruptReason::CandidateBudgetExhausted,
            InterruptReason::MemoryBudgetExhausted,
            InterruptReason::Injected,
        ];
        for r in all {
            assert!(!r.to_string().is_empty());
        }
    }
}
