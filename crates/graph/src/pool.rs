//! A pool of reusable [`DijkstraEngine`] scratch states.
//!
//! Every sweep in the paper needs `O(n)` scratch arrays. A single-threaded
//! caller amortizes that by owning one engine; concurrent sweeps (the
//! per-keyword index build, a daemon's handler threads) would either share
//! a lock or allocate per call. [`EnginePool`] removes both costs. A pool
//! belongs to whoever serves one graph — a query engine, a session, a
//! bench set-up — and is passed by reference. Engines are parked in
//! size-class buckets keyed by graph size, [`acquire`](EnginePool::acquire)
//! pops one (or builds it on first use), and the [`PooledEngine`] guard
//! returns it on drop. Engines reset their touched scratch at the start of
//! every sweep, so a recycled engine never observes stale state from a
//! previous one.
//!
//! A pool builds all of its engines on one [`Kernel`], fixed at
//! construction: the default everywhere, [`Kernel::Heap`] only where an
//! equivalence test wants the reference kernel
//! ([`with_kernel`](EnginePool::with_kernel)).

use crate::dijkstra::DijkstraEngine;
use crate::kernel::Kernel;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Engines parked per size class beyond this count are dropped instead of
/// pooled, bounding the pool's memory to `CLASSES × PER_CLASS_CAP` engines.
const PER_CLASS_CAP: usize = 64;

/// Size classes cover capacities `2^0 .. 2^63`; class `c` holds engines
/// built for up to `2^c` nodes.
const CLASSES: usize = 64;

/// The size class for a graph of `n` nodes: the smallest `c` with
/// `2^c ≥ n`. All engines in one class have the same rounded capacity, so
/// a recycled engine never needs to grow for a same-class request.
fn size_class(n: usize) -> usize {
    n.next_power_of_two().trailing_zeros() as usize
}

/// The rounded capacity engines of class `c` are built with.
fn class_capacity(c: usize) -> usize {
    1usize << c
}

/// A mutex-sharded pool of [`DijkstraEngine`]s keyed by graph size.
///
/// Engines are bucketed by the power-of-two size class of the graph they
/// were built for. Acquiring for `n` nodes pops an engine from class
/// `⌈log2 n⌉` — each class's engines are interchangeable, so a concurrent
/// sweep never allocates `O(n)` vectors on the hot path after warm-up —
/// and releases push it back (up to a per-class cap).
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
    classes: Box<[Mutex<Vec<DijkstraEngine>>]>,
    /// The queue kernel every engine of this pool is built on.
    kernel: Kernel,
    /// Engines created because the class bucket was empty (telemetry).
    misses: AtomicUsize,
    /// Successful bucket pops (telemetry).
    hits: AtomicUsize,
    /// Shards recovered after a panicking thread poisoned their mutex.
    poison_recoveries: AtomicUsize,
}

impl EnginePool {
    /// Creates an empty pool on the default [`Kernel`].
    pub fn new() -> EnginePool {
        EnginePool::with_kernel(Kernel::default())
    }

    /// Creates an empty pool whose engines run on `kernel`.
    pub fn with_kernel(kernel: Kernel) -> EnginePool {
        EnginePool {
            classes: (0..CLASSES).map(|_| Mutex::new(Vec::new())).collect(),
            kernel,
            misses: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
            poison_recoveries: AtomicUsize::new(0),
        }
    }

    /// Locks one size-class shard, recovering it if a panicking thread
    /// poisoned the mutex. Recovery discards the shard's parked engines —
    /// an unwinding thread may have left one mid-sweep with stale scratch
    /// for the epoch it never finished — and clears the poison flag so the
    /// shard pools engines again instead of degrading forever. A shared
    /// pool must never propagate an unrelated thread's panic to its
    /// callers.
    fn lock_shard(&self, class: usize) -> MutexGuard<'_, Vec<DijkstraEngine>> {
        let m = &self.classes[class];
        match m.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                let mut g = poisoned.into_inner();
                g.clear();
                m.clear_poison();
                self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
                g
            }
        }
    }

    /// A process-wide pool. Nothing in the workspace borrows from it — a
    /// library must not share scratch between unrelated engines — and CI
    /// greps that it stays so; it survives only because the frozen
    /// `benchmark/` names it (ROADMAP item 1 debt).
    #[doc(hidden)]
    pub fn global() -> &'static EnginePool {
        static GLOBAL: OnceLock<EnginePool> = OnceLock::new();
        GLOBAL.get_or_init(EnginePool::new)
    }

    /// Borrows an engine sized for graphs of `n` nodes. The engine returns
    /// to the pool when the guard drops.
    pub fn acquire(&self, n: usize) -> PooledEngine<'_> {
        let class = size_class(n).min(CLASSES - 1);
        let engine = self.lock_shard(class).pop();
        let engine = match engine {
            Some(e) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                e
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                DijkstraEngine::with_kernel(class_capacity(class).max(n), self.kernel)
            }
        };
        PooledEngine {
            pool: self,
            class,
            engine: Some(engine),
        }
    }

    /// Engines currently parked across all size classes.
    pub fn pooled_engines(&self) -> usize {
        (0..CLASSES).map(|c| self.lock_shard(c).len()).sum()
    }

    /// `(hits, misses)`: acquires served from the pool vs fresh builds.
    pub fn stats(&self) -> (usize, usize) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// How many times a poisoned shard was recovered (scratch discarded,
    /// poison cleared). Surfaced in the serving daemon's stats so chaos
    /// runs can prove recovery actually happened.
    pub fn poison_recoveries(&self) -> usize {
        self.poison_recoveries.load(Ordering::Relaxed)
    }

    /// Chaos-testing hook: poisons the shard serving graphs of `n` nodes
    /// by panicking on a scratch thread while it holds the shard lock.
    /// The next `acquire`/`release` touching the shard must recover it.
    #[doc(hidden)]
    pub fn poison_shard_for_chaos(&self, n: usize) {
        let class = size_class(n).min(CLASSES - 1);
        // A scoped thread bounds the poisoning panic to this call.
        std::thread::scope(|s| {
            let handle = s.spawn(|| {
                let _guard = self.classes[class].lock();
                // xtask-allow: no_panics — deliberate poison injection for chaos tests
                panic!("chaos: poisoning EnginePool shard {class}");
            });
            // The scratch thread's panic is the point; swallow its unwind.
            let _ = handle.join();
        });
    }

    fn release(&self, class: usize, engine: DijkstraEngine) {
        let mut bucket = self.lock_shard(class);
        if bucket.len() < PER_CLASS_CAP {
            bucket.push(engine);
        }
    }
}

impl Default for EnginePool {
    fn default() -> EnginePool {
        EnginePool::new()
    }
}

/// A [`DijkstraEngine`] borrowed from an [`EnginePool`]; derefs to the
/// engine and parks it back in its size class on drop.
pub struct PooledEngine<'p> {
    pool: &'p EnginePool,
    class: usize,
    engine: Option<DijkstraEngine>,
}

impl std::ops::Deref for PooledEngine<'_> {
    type Target = DijkstraEngine;
    fn deref(&self) -> &DijkstraEngine {
        // xtask-allow: no_panics — `engine` is only vacated in drop()
        self.engine.as_ref().expect("engine present until drop")
    }
}

impl std::ops::DerefMut for PooledEngine<'_> {
    fn deref_mut(&mut self) -> &mut DijkstraEngine {
        // xtask-allow: no_panics — `engine` is only vacated in drop()
        self.engine.as_mut().expect("engine present until drop")
    }
}

impl Drop for PooledEngine<'_> {
    fn drop(&mut self) {
        if let Some(engine) = self.engine.take() {
            self.pool.release(self.class, engine);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{graph_from_edges, Direction, NodeId};
    use crate::kernel::Kernel;
    use crate::weight::Weight;

    #[test]
    fn size_classes_round_up() {
        assert_eq!(size_class(1), 0);
        assert_eq!(size_class(2), 1);
        assert_eq!(size_class(3), 2);
        assert_eq!(size_class(1024), 10);
        assert_eq!(size_class(1025), 11);
        assert!(class_capacity(size_class(777)) >= 777);
    }

    #[test]
    fn acquire_release_reuses_engine() {
        let pool = EnginePool::new();
        assert_eq!(pool.pooled_engines(), 0);
        {
            let _e = pool.acquire(100);
            assert_eq!(pool.pooled_engines(), 0, "borrowed engine is not parked");
        }
        assert_eq!(pool.pooled_engines(), 1);
        {
            let _e = pool.acquire(120); // same class (128): must reuse
        }
        assert_eq!(pool.pooled_engines(), 1);
        assert_eq!(pool.stats(), (1, 1));
    }

    #[test]
    fn different_classes_do_not_share() {
        let pool = EnginePool::new();
        drop(pool.acquire(10));
        drop(pool.acquire(10_000));
        assert_eq!(pool.pooled_engines(), 2);
        assert_eq!(pool.stats(), (0, 2));
        // A third acquire in each class hits.
        drop(pool.acquire(12));
        drop(pool.acquire(9_000));
        assert_eq!(pool.stats(), (2, 2));
    }

    #[test]
    fn pooled_engine_runs_sweeps() {
        let g = graph_from_edges(4, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 4.0)]);
        let pool = EnginePool::new();
        let d1 = pool.acquire(4).distances(&g, Direction::Forward, NodeId(0));
        // The recycled engine must produce identical results.
        let d2 = pool.acquire(4).distances(&g, Direction::Forward, NodeId(0));
        assert_eq!(d1, d2);
        assert_eq!(d1[3], Weight::new(7.0));
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
    fn per_class_cap_bounds_memory() {
        let pool = EnginePool::new();
        let engines: Vec<_> = (0..PER_CLASS_CAP + 8).map(|_| pool.acquire(16)).collect();
        drop(engines);
        assert_eq!(pool.pooled_engines(), PER_CLASS_CAP);
    }

    #[test]
    fn poisoned_shard_recovers_and_keeps_serving() {
        let pool = EnginePool::new();
        drop(pool.acquire(100)); // park one engine in the 128-class
        assert_eq!(pool.pooled_engines(), 1);
        pool.poison_shard_for_chaos(100);
        assert_eq!(pool.poison_recoveries(), 0, "recovery happens lazily");
        // The first touch after the poison clears the shard (stale scratch
        // is discarded) instead of panicking.
        let d = {
            let g = graph_from_edges(3, &[(0, 1, 1.0), (1, 2, 2.0)]);
            pool.acquire(100)
                .distances(&g, Direction::Forward, NodeId(0))
        };
        assert_eq!(d[2], Weight::new(3.0));
        assert_eq!(pool.poison_recoveries(), 1);
        // The shard pools engines again: poison was cleared, not latched.
        assert_eq!(pool.pooled_engines(), 1);
        drop(pool.acquire(100));
        assert_eq!(
            pool.poison_recoveries(),
            1,
            "a recovered shard must not keep counting recoveries"
        );
    }

    #[test]
    fn acquired_engines_carry_the_pool_kernel() {
        let pool = EnginePool::with_kernel(Kernel::Heap);
        assert_eq!(pool.acquire(8).kernel(), Kernel::Heap);
        // A recycled engine was built by the same pool, on the same kernel.
        assert_eq!(pool.acquire(8).kernel(), Kernel::Heap);
        assert_eq!(EnginePool::new().acquire(8).kernel(), Kernel::Bucket);
    }

    #[test]
    fn pool_kernel_keeps_results_identical() {
        let g = graph_from_edges(4, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 4.0)]);
        let answer = |k: Kernel| {
            EnginePool::with_kernel(k)
                .acquire(4)
                .distances(&g, Direction::Forward, NodeId(0))
        };
        assert_eq!(answer(Kernel::Heap), answer(Kernel::Bucket));
    }

    #[test]
    fn poison_recovery_discards_parked_engines() {
        let pool = EnginePool::new();
        drop(pool.acquire(40));
        drop(pool.acquire(10_000));
        assert_eq!(pool.pooled_engines(), 2);
        pool.poison_shard_for_chaos(40);
        // Only the poisoned shard is cleared; the other class is intact.
        assert_eq!(pool.pooled_engines(), 1);
        assert_eq!(pool.poison_recoveries(), 1);
    }
}
