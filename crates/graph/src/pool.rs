//! A pool of reusable [`DijkstraEngine`] scratch states.
//!
//! Every sweep in the paper needs `O(n)` scratch arrays. A single-threaded
//! caller amortizes that by owning one engine; concurrent sweeps (a
//! daemon's handler threads) would either share a lock or allocate per
//! call. [`EnginePool`] removes both costs. A pool
//! belongs to whoever serves one graph — a query engine, a session, a
//! bench set-up — and is passed by reference. Engines are parked in one
//! free list: [`acquire`](EnginePool::acquire) pops any of them (or builds
//! one on first use), grows it to the size asked for, and the
//! [`PooledEngine`] guard returns it on drop. Engines reset their touched
//! scratch at the start of every sweep — at a cost independent of their
//! capacity — so a recycled engine never observes stale state from a
//! previous sweep, whatever graph that one ran on.

use crate::dijkstra::DijkstraEngine;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Engines released beyond this many parked ones are dropped instead of
/// pooled, bounding the pool's memory. More engines than this are only
/// ever out at once when more sweeps than this run concurrently.
const POOL_CAP: usize = 64;

/// A free list of [`DijkstraEngine`]s behind one mutex.
///
/// A pool serves one graph, so its callers ask for one size; an engine
/// that last swept a smaller graph is grown at checkout, before it is
/// handed out, so a borrowed engine never allocates (or charges a guard's
/// byte budget) in the middle of a sweep. After warm-up a concurrent sweep
/// costs one lock, one pop and one push.
///
/// ```
/// use comm_graph::{graph_from_edges, Direction, EnginePool, NodeId, Weight};
///
/// let g = graph_from_edges(3, &[(0, 1, 1.0), (1, 2, 2.0)]);
/// let pool = EnginePool::new();
/// let d = pool.acquire(g.node_count()).distances(&g, Direction::Forward, NodeId(0));
/// assert_eq!(d[2], Weight::new(3.0));
/// assert_eq!(pool.pooled_engines(), 1); // parked again after the call
/// ```
pub struct EnginePool {
    free: Mutex<Vec<DijkstraEngine>>,
    /// Times the free list was recovered after a panicking thread
    /// poisoned its mutex.
    poison_recoveries: AtomicUsize,
}

impl EnginePool {
    /// Creates an empty pool.
    pub fn new() -> EnginePool {
        EnginePool {
            free: Mutex::new(Vec::new()),
            poison_recoveries: AtomicUsize::new(0),
        }
    }

    /// Locks the free list, recovering it if a panicking thread poisoned
    /// the mutex. Recovery discards the parked engines — an unwinding
    /// thread may have left one mid-sweep with stale scratch for the sweep
    /// it never finished — and clears the poison flag so the pool parks
    /// engines again instead of degrading forever. A shared pool must
    /// never propagate an unrelated thread's panic to its callers.
    fn lock_free(&self) -> MutexGuard<'_, Vec<DijkstraEngine>> {
        match self.free.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                let mut g = poisoned.into_inner();
                g.clear();
                self.free.clear_poison();
                self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
                g
            }
        }
    }

    /// A process-wide pool. Nothing in the workspace borrows from it — a
    /// library must not share scratch between unrelated engines — and the
    /// `benchmark_shims` gate row keeps it so; it survives only because
    /// the frozen `benchmark/` names it.
    #[doc(hidden)]
    pub fn global() -> &'static EnginePool {
        static GLOBAL: OnceLock<EnginePool> = OnceLock::new();
        GLOBAL.get_or_init(EnginePool::new)
    }

    /// Borrows an engine with room for graphs of `n` nodes. The engine
    /// returns to the pool when the guard drops.
    pub fn acquire(&self, n: usize) -> PooledEngine<'_> {
        let parked = self.lock_free().pop();
        // Built or grown outside the lock, and before the hand-out.
        let mut engine = parked.unwrap_or_else(|| DijkstraEngine::new(n));
        engine.ensure_capacity(n);
        PooledEngine {
            pool: self,
            engine: Some(engine),
        }
    }

    /// Engines currently parked.
    pub fn pooled_engines(&self) -> usize {
        self.lock_free().len()
    }

    /// How many times a poisoned free list was recovered (scratch
    /// discarded, poison cleared). Surfaced in the serving daemon's stats
    /// so chaos runs can prove recovery actually happened.
    pub fn poison_recoveries(&self) -> usize {
        self.poison_recoveries.load(Ordering::Relaxed)
    }

    /// Chaos-testing hook: poisons the free list by panicking on a scratch
    /// thread while it holds the lock. The next `acquire`/release must
    /// recover it.
    #[doc(hidden)]
    pub fn poison_for_chaos(&self) {
        // A scoped thread bounds the poisoning panic to this call.
        std::thread::scope(|s| {
            #[expect(clippy::panic, reason = "deliberate poison injection for chaos tests")]
            let handle = s.spawn(|| {
                let _guard = self.free.lock();
                panic!("chaos: poisoning the EnginePool free list");
            });
            // The scratch thread's panic is the point; swallow its unwind.
            let _ = handle.join();
        });
    }

    fn release(&self, engine: DijkstraEngine) {
        let mut free = self.lock_free();
        if free.len() < POOL_CAP {
            free.push(engine);
        }
    }
}

impl Default for EnginePool {
    fn default() -> EnginePool {
        EnginePool::new()
    }
}

/// A placeholder argument: a query runs on one thread. It survives, like
/// [`EnginePool::global`], only because the frozen `benchmark/` passes
/// `Parallelism::serial()` to two shims
/// (`ProjectionIndex::build_par_guarded` and
/// `NeighborSets::recompute_all_guarded`), which ignore it.
#[doc(hidden)]
#[derive(Clone, Copy, Debug)]
pub struct Parallelism;

impl Parallelism {
    /// The only value there is.
    pub fn serial() -> Parallelism {
        Parallelism
    }
}

/// A [`DijkstraEngine`] borrowed from an [`EnginePool`]; derefs to the
/// engine and parks it back in the pool on drop.
pub struct PooledEngine<'p> {
    pool: &'p EnginePool,
    engine: Option<DijkstraEngine>,
}

impl std::ops::Deref for PooledEngine<'_> {
    type Target = DijkstraEngine;
    #[expect(clippy::expect_used, reason = "`engine` is only vacated in drop()")]
    fn deref(&self) -> &DijkstraEngine {
        self.engine.as_ref().expect("engine present until drop")
    }
}

impl std::ops::DerefMut for PooledEngine<'_> {
    #[expect(clippy::expect_used, reason = "`engine` is only vacated in drop()")]
    fn deref_mut(&mut self) -> &mut DijkstraEngine {
        self.engine.as_mut().expect("engine present until drop")
    }
}

impl Drop for PooledEngine<'_> {
    fn drop(&mut self) {
        if let Some(engine) = self.engine.take() {
            self.pool.release(engine);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{graph_from_edges, Direction, Graph, NodeId};
    use crate::dijkstra::Settled;
    use crate::weight::Weight;

    #[test]
    fn acquire_release_reuses_engine() {
        let pool = EnginePool::new();
        assert_eq!(pool.pooled_engines(), 0);
        {
            let e = pool.acquire(100);
            assert_eq!(e.capacity(), 100, "built for exactly the size asked");
            assert_eq!(pool.pooled_engines(), 0, "borrowed engine is not parked");
        }
        assert_eq!(pool.pooled_engines(), 1);
        // Any parked engine serves any size: grown at checkout, never shrunk.
        assert_eq!(pool.acquire(120).capacity(), 120);
        assert_eq!(pool.acquire(10).capacity(), 120);
        assert_eq!(pool.pooled_engines(), 1);
    }

    fn settle_stream(eng: &mut DijkstraEngine, g: &Graph, radius: Weight) -> Vec<Settled> {
        let mut out = Vec::new();
        eng.run(g, Direction::Reverse, [NodeId(0), NodeId(2)], radius, |s| {
            out.push(s)
        });
        out
    }

    #[test]
    fn engine_parked_after_a_small_graph_sweeps_a_larger_one_like_a_fresh_engine() {
        let small = graph_from_edges(3, &[(1, 0, 1.0), (2, 1, 2.0), (0, 2, 0.5)]);
        let large_edges: Vec<(u32, u32, f64)> = (0..40u32)
            .flat_map(|u| [(u + 1, u, 1.0 + f64::from(u % 3)), ((u * 7) % 41, u, 2.5)])
            .collect();
        let large = graph_from_edges(41, &large_edges);
        let pool = EnginePool::new();
        let fresh =
            |g: &Graph, r: Weight| settle_stream(&mut DijkstraEngine::new(g.node_count()), g, r);
        for radius in [Weight::new(4.0), Weight::INFINITY] {
            let on_small = settle_stream(&mut pool.acquire(small.node_count()), &small, radius);
            assert_eq!(on_small, fresh(&small, radius));
            assert_eq!(pool.pooled_engines(), 1);
            // The same engine, grown at checkout, sweeps the larger graph…
            let mut recycled = pool.acquire(large.node_count());
            assert_eq!(pool.pooled_engines(), 0);
            assert!(recycled.capacity() >= large.node_count());
            assert!(
                !recycled.ensure_capacity(large.node_count()),
                "grown before hand-out"
            );
            assert_eq!(
                settle_stream(&mut recycled, &large, radius),
                fresh(&large, radius),
                "radius {radius}"
            );
            drop(recycled);
            // …and, oversized now, the small one again.
            let again = settle_stream(&mut pool.acquire(small.node_count()), &small, radius);
            assert_eq!(again, on_small);
        }
    }

    #[test]
    fn concurrent_acquires_get_distinct_engines() {
        let pool = EnginePool::new();
        let a = pool.acquire(50);
        let b = pool.acquire(50);
        drop(a);
        drop(b);
        assert_eq!(pool.pooled_engines(), 2);
    }

    #[test]
    fn global_pool_is_shared() {
        let p1 = EnginePool::global() as *const EnginePool;
        let p2 = EnginePool::global() as *const EnginePool;
        assert_eq!(p1, p2);
    }

    #[test]
    fn the_one_cap_bounds_parked_engines_whatever_their_size() {
        let pool = EnginePool::new();
        let engines: Vec<_> = (0..POOL_CAP + 8)
            .map(|i| pool.acquire(1 << (i % 12)))
            .collect();
        drop(engines);
        assert_eq!(pool.pooled_engines(), POOL_CAP);
    }

    #[test]
    fn poisoned_pool_recovers_and_keeps_serving() {
        let pool = EnginePool::new();
        drop(pool.acquire(100));
        assert_eq!(pool.pooled_engines(), 1);
        pool.poison_for_chaos();
        assert_eq!(pool.poison_recoveries(), 0, "recovery happens lazily");
        // The first touch after the poison clears the free list (stale
        // scratch is discarded) instead of panicking.
        let d = {
            let g = graph_from_edges(3, &[(0, 1, 1.0), (1, 2, 2.0)]);
            pool.acquire(100)
                .distances(&g, Direction::Forward, NodeId(0))
        };
        assert_eq!(d[2], Weight::new(3.0));
        assert_eq!(pool.poison_recoveries(), 1);
        // The pool parks engines again: poison was cleared, not latched.
        assert_eq!(pool.pooled_engines(), 1);
        drop(pool.acquire(100));
        assert_eq!(
            pool.poison_recoveries(),
            1,
            "a recovered pool must not keep counting recoveries"
        );
    }

    #[test]
    fn poison_recovery_discards_parked_engines() {
        let pool = EnginePool::new();
        let (a, b) = (pool.acquire(40), pool.acquire(10_000));
        drop((a, b));
        assert_eq!(pool.pooled_engines(), 2);
        pool.poison_for_chaos();
        // Every parked engine goes: any of them may be the one the
        // panicking thread was holding.
        assert_eq!(pool.pooled_engines(), 0);
        assert_eq!(pool.poison_recoveries(), 1);
    }
}
