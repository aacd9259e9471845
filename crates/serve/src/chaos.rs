//! Server-side fault injection, extending the engine's `with_trip_after`
//! wire into the serving path.
//!
//! [`ChaosConfig`] is compiled into every build (it is plain configuration,
//! off by default) so the CI smoke lane and the chaos tests exercise the
//! *production* request loop, not a test-only variant. Each injection is
//! driven by a deterministic shared counter, so a given config produces
//! the same fault schedule on every run:
//!
//! * **guard trips** — admitted queries run under a guard additionally
//!   armed with `with_trip_after(n)`, forcing certified exact-prefix
//!   degradation at a chosen point;
//! * **mid-request disconnects** — the server drops the connection after
//!   executing but before replying on every Nth query, exercising the
//!   client's retry + the server's idempotent replay;
//! * **reply delays** — the server sleeps before replying on every Nth
//!   query, simulating a slow network/peer so client read timeouts fire;
//! * **pool poisoning** — before every Nth query the query engine's own
//!   `EnginePool` is poisoned by a panicking thread, proving the recovery
//!   path keeps the daemon serving (and that no other engine in the
//!   process sees it).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Fault-injection schedule for the serving path. `None` everywhere (the
/// default) injects nothing.
#[derive(Clone, Debug, Default)]
pub struct ChaosConfig {
    /// Arm every admitted query's guard with `with_trip_after(n)`.
    pub trip_queries_after: Option<u64>,
    /// Drop the connection instead of replying on every Nth query.
    pub disconnect_every: Option<u64>,
    /// Sleep this long before sending every Nth query reply.
    pub delay_every: Option<(u64, Duration)>,
    /// Poison the engine's `EnginePool` before every Nth query.
    pub poison_pool_every: Option<u64>,
}

impl ChaosConfig {
    /// Whether any injection is armed.
    pub fn is_active(&self) -> bool {
        self.trip_queries_after.is_some()
            || self.disconnect_every.is_some()
            || self.delay_every.is_some()
            || self.poison_pool_every.is_some()
    }
}

/// The chaos schedule plus its deterministic query counter.
pub struct ChaosState {
    cfg: ChaosConfig,
    queries: AtomicU64,
    injected_disconnects: AtomicU64,
    injected_delays: AtomicU64,
    injected_poisons: AtomicU64,
}

/// One query's injection decisions, sampled at admission time.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChaosPlan {
    /// Arm the guard with this trip-after value.
    pub trip_after: Option<u64>,
    /// Drop the connection instead of sending the reply.
    pub drop_reply: bool,
    /// Sleep before sending the reply.
    pub delay_reply: Option<Duration>,
    /// Poison the engine pool before executing.
    pub poison_pool: bool,
}

impl ChaosState {
    /// Wraps a schedule.
    pub fn new(cfg: ChaosConfig) -> ChaosState {
        ChaosState {
            cfg,
            queries: AtomicU64::new(0),
            injected_disconnects: AtomicU64::new(0),
            injected_delays: AtomicU64::new(0),
            injected_poisons: AtomicU64::new(0),
        }
    }

    /// The schedule this state runs.
    pub fn config(&self) -> &ChaosConfig {
        &self.cfg
    }

    /// Samples the injection plan for the next query (1-based sequence).
    pub fn plan_query(&self) -> ChaosPlan {
        if !self.cfg.is_active() {
            return ChaosPlan::default();
        }
        let seq = self.queries.fetch_add(1, Ordering::Relaxed) + 1;
        let every = |n: Option<u64>| n.is_some_and(|n| n > 0 && seq.is_multiple_of(n));
        let plan = ChaosPlan {
            trip_after: self.cfg.trip_queries_after,
            drop_reply: every(self.cfg.disconnect_every),
            delay_reply: self
                .cfg
                .delay_every
                .filter(|(n, _)| *n > 0 && seq.is_multiple_of(*n))
                .map(|(_, d)| d),
            poison_pool: every(self.cfg.poison_pool_every),
        };
        if plan.drop_reply {
            self.injected_disconnects.fetch_add(1, Ordering::Relaxed);
        }
        if plan.delay_reply.is_some() {
            self.injected_delays.fetch_add(1, Ordering::Relaxed);
        }
        if plan.poison_pool {
            self.injected_poisons.fetch_add(1, Ordering::Relaxed);
        }
        plan
    }

    /// `(disconnects, delays, poisons)` injected so far.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.injected_disconnects.load(Ordering::Relaxed),
            self.injected_delays.load(Ordering::Relaxed),
            self.injected_poisons.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_config_injects_nothing() {
        let st = ChaosState::new(ChaosConfig::default());
        for _ in 0..100 {
            let p = st.plan_query();
            assert!(p.trip_after.is_none());
            assert!(!p.drop_reply && !p.poison_pool && p.delay_reply.is_none());
        }
        assert_eq!(st.stats(), (0, 0, 0));
    }

    #[test]
    fn schedule_is_deterministic_and_periodic() {
        let cfg = ChaosConfig {
            trip_queries_after: Some(5),
            disconnect_every: Some(3),
            delay_every: Some((4, Duration::from_millis(10))),
            poison_pool_every: Some(6),
        };
        let st = ChaosState::new(cfg);
        let plans: Vec<ChaosPlan> = (0..12).map(|_| st.plan_query()).collect();
        for (i, p) in plans.iter().enumerate() {
            let seq = u64::try_from(i).unwrap() + 1;
            assert_eq!(p.trip_after, Some(5));
            assert_eq!(p.drop_reply, seq % 3 == 0, "seq {seq}");
            assert_eq!(p.delay_reply.is_some(), seq % 4 == 0, "seq {seq}");
            assert_eq!(p.poison_pool, seq % 6 == 0, "seq {seq}");
        }
        assert_eq!(st.stats(), (4, 3, 2));
    }
}
