//! Radius-bounded single/multi-source Dijkstra.
//!
//! Every subroutine in the paper reduces to a shortest-path sweep:
//!
//! * `Neighbor(G_D, V_i, Rmax)` (Algorithm 2) = multi-source Dijkstra on the
//!   *reverse* graph seeded from `V_i` at distance 0 (the virtual sink `t`
//!   with zero-weight edges), truncated at `Rmax`;
//! * `GetCommunity` (Algorithm 4) = one forward sweep from the virtual
//!   source `s` over the centers plus one reverse sweep from `t` over the
//!   core — the forward one bounded by what the reverse one reached,
//!   through the settle loop's admission predicate
//!   ([`DijkstraEngine::run_rows_guarded`]);
//! * the expanding baselines = truncated sweeps per keyword node / per
//!   candidate center.
//!
//! [`DijkstraEngine`] owns flat per-node scratch arrays (SoA: `dist`,
//! `source`, `parent`, `settled`) and recycles them across runs with an
//! explicit touched-list reset: every first write to a node records its
//! index, and the next sweep restores exactly those entries before
//! seeding. The hot relaxation loop therefore carries no epoch-check
//! branch — "untouched" is simply `dist == INFINITY` — and a sweep costs
//! `O(n_reached · log n_reached + m_reached)` with no per-run allocation
//! beyond queue growth.
//!
//! Two priority-queue kernels sit behind the same API, selected by
//! [`Kernel`]: the classic lazy-deletion binary heap, and a radius-aware
//! bucket queue ([`crate::bucket`]) that is bit-identical by construction.

use crate::bucket::BucketQueue;
use crate::csr::{Csr, Direction, Graph, NodeId};
use crate::guard::{InterruptReason, RunGuard};
use crate::kernel::{Kernel, ResolvedKernel};
use crate::weight::Weight;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Marker for "no source recorded".
const NO_SOURCE: u32 = u32::MAX;

/// A settled node reported by [`DijkstraEngine::run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Settled {
    /// The settled node.
    pub node: NodeId,
    /// Shortest distance from the nearest seed (seeds are at distance 0).
    pub dist: Weight,
    /// The seed the shortest path starts from — the paper's `src(N_i, u)`.
    pub source: NodeId,
    /// The previous hop on that shortest path (the node itself for seeds).
    /// Following `parent` repeatedly reaches `source`.
    pub parent: NodeId,
}

/// The priority queues pluggable under one sweep loop. Both pop the least
/// `(dist, node)` entry *currently queued*, and the sweep shows both the
/// same pushes — the bit-identical contract between kernels rests on
/// that, and on nothing about the whole pop sequence. The sequence is
/// globally sorted only when every relaxation makes progress (see
/// [`DijkstraEngine::run`]): a zero-weight or absorbed edge pushes an
/// entry at the distance being settled, possibly below a node id already
/// popped at it.
trait Frontier {
    fn push(&mut self, d: Weight, v: NodeId);
    fn pop(&mut self) -> Option<(Weight, NodeId)>;
}

impl Frontier for BinaryHeap<Reverse<(Weight, NodeId)>> {
    #[inline]
    fn push(&mut self, d: Weight, v: NodeId) {
        BinaryHeap::push(self, Reverse((d, v)));
    }

    #[inline]
    fn pop(&mut self) -> Option<(Weight, NodeId)> {
        BinaryHeap::pop(self).map(|Reverse(e)| e)
    }
}

impl Frontier for BucketQueue {
    #[inline]
    fn push(&mut self, d: Weight, v: NodeId) {
        BucketQueue::push(self, d, v);
    }

    #[inline]
    fn pop(&mut self) -> Option<(Weight, NodeId)> {
        BucketQueue::pop(self)
    }
}

/// Reusable Dijkstra state for one graph size.
pub struct DijkstraEngine {
    dist: Vec<Weight>,
    source: Vec<u32>,
    parent: Vec<u32>,
    settled: Vec<bool>,
    /// Indices written since the last reset; the next sweep restores
    /// exactly these entries instead of stamping epochs per node.
    touched: Vec<u32>,
    heap: BinaryHeap<Reverse<(Weight, NodeId)>>,
    bucket: BucketQueue,
    kernel: Kernel,
}

impl DijkstraEngine {
    /// Creates an engine for graphs with up to `n` nodes, on the default
    /// [`Kernel`].
    pub fn new(n: usize) -> DijkstraEngine {
        DijkstraEngine::with_kernel(n, Kernel::default())
    }

    /// Creates an engine with an explicit queue kernel ([`Kernel::Heap`]
    /// is the reference the equivalence tests compare against).
    pub fn with_kernel(n: usize, kernel: Kernel) -> DijkstraEngine {
        DijkstraEngine {
            dist: vec![Weight::INFINITY; n],
            source: vec![NO_SOURCE; n],
            parent: vec![NO_SOURCE; n],
            settled: vec![false; n],
            touched: Vec::new(),
            heap: BinaryHeap::new(),
            bucket: BucketQueue::default(),
            kernel,
        }
    }

    /// The queue kernel sweeps run on.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// The node capacity the scratch arrays are sized for.
    pub fn capacity(&self) -> usize {
        self.dist.len()
    }

    /// Resident scratch bytes across the SoA arrays and both queues —
    /// what a guarded sweep charges to its byte budget on growth.
    pub fn scratch_bytes(&self) -> usize {
        use std::mem::size_of;
        self.dist.capacity() * size_of::<Weight>()
            + self.source.capacity() * size_of::<u32>()
            + self.parent.capacity() * size_of::<u32>()
            + self.settled.capacity()
            + self.touched.capacity() * size_of::<u32>()
            + self.heap.capacity() * size_of::<Reverse<(Weight, NodeId)>>()
            + self.bucket.retained_bytes()
    }

    /// Grows the engine to accommodate `n` nodes (no-op if large enough).
    /// Returns whether the scratch actually grew, so guarded callers can
    /// re-charge their byte budget only on growth.
    pub fn ensure_capacity(&mut self, n: usize) -> bool {
        if self.dist.len() >= n {
            return false;
        }
        self.dist.resize(n, Weight::INFINITY);
        self.source.resize(n, NO_SOURCE);
        self.parent.resize(n, NO_SOURCE);
        self.settled.resize(n, false);
        true
    }

    /// Restores every touched scratch entry to its pristine state.
    /// `source`/`parent` need no restore: they are only read for settled
    /// nodes, and settling requires a prior [`relax`](Self::relax) that
    /// rewrites both.
    fn reset_scratch(&mut self) {
        for &i in &self.touched {
            let i = i as usize;
            self.dist[i] = Weight::INFINITY;
            self.settled[i] = false;
        }
        self.touched.clear();
    }

    #[inline]
    fn relax(&mut self, node: NodeId, dist: Weight, source: NodeId, parent: NodeId) -> bool {
        let i = node.index();
        if self.settled[i] || dist >= self.dist[i] {
            return false;
        }
        if self.dist[i] == Weight::INFINITY {
            self.touched.push(node.0);
        }
        self.dist[i] = dist;
        self.source[i] = source.0;
        self.parent[i] = parent.0;
        true
    }

    /// Runs a truncated multi-source Dijkstra.
    ///
    /// Seeds start at distance `0`. Nodes with shortest distance `≤ radius`
    /// are settled and passed to `visit` in non-decreasing distance order.
    /// Each settled node carries the seed its shortest path leaves from:
    /// the source of the first relaxation that offered it its final
    /// distance, which is deterministic for a fixed graph and seed set.
    ///
    /// When every relaxation makes progress — `fl(d + w) > d` for every
    /// settled `d`, which [`Csr::min_weight`] `> radius · 2⁻⁵²` ensures —
    /// the pop sequence is globally sorted by `(dist, node)`, so that
    /// first relaxation comes from the optimal predecessor `p*` of least
    /// `(dist(p), p)` and `source(u) = source(p*)`: a function of the seed
    /// set, not of the queue's history. Across an edge that makes no
    /// progress (weight zero, or absorbed into `d`) neither holds: the
    /// entry it pushes can sort below one already popped.
    ///
    /// Returns the number of settled nodes.
    #[expect(
        clippy::expect_used,
        reason = "RunGuard::unlimited() has no budgets, so Interrupted is unreachable"
    )]
    pub fn run<F: FnMut(Settled)>(
        &mut self,
        graph: &Graph,
        dir: Direction,
        seeds: impl IntoIterator<Item = NodeId>,
        radius: Weight,
        visit: F,
    ) -> usize {
        self.run_guarded(graph, dir, seeds, radius, &RunGuard::unlimited(), visit)
            .expect("unlimited guard never trips")
    }

    /// Like [`run`](Self::run), but consults `guard` once per settled node.
    ///
    /// On interruption the sweep stops before settling (or reporting) any
    /// further node and returns the guard's reason; nodes already passed to
    /// `visit` form a valid prefix of the unguarded settle order. The
    /// touched list survives interruption, so an interrupted engine resets
    /// itself on the next sweep and is safe to reuse.
    pub fn run_guarded<F: FnMut(Settled)>(
        &mut self,
        graph: &Graph,
        dir: Direction,
        seeds: impl IntoIterator<Item = NodeId>,
        radius: Weight,
        guard: &RunGuard,
        visit: F,
    ) -> Result<usize, InterruptReason> {
        let w_min = graph.min_positive_weight();
        let admit = |_, _| true;
        let seeds = seeds.into_iter().map(at_zero);
        self.run_rows(graph.rows(dir), w_min, seeds, radius, guard, admit, visit)
    }

    /// [`run_guarded`](Self::run_guarded) over a single adjacency half,
    /// relaxing only where `admit` agrees: the sweep follows `rows` as
    /// stored, so pass a forward half for `dist(seeds, ·)` and a
    /// transposed one for `dist(·, seeds)`.
    ///
    /// `admit(v, nd)` is asked once per relaxation that would reach `v` at
    /// a tentative `nd ≤ radius`, before the engine records anything about
    /// it. A refusal is forgotten — `v` stays unreached and may still be
    /// admitted later at a smaller `nd` — so the sweep is Dijkstra over the
    /// admitted relaxations only: it settles a subset of the unfiltered
    /// sweep's nodes, none at a smaller distance. Seeds are never asked.
    /// `|_, _| true` is the unfiltered sweep, at no cost.
    pub fn run_rows_guarded<F: FnMut(Settled)>(
        &mut self,
        rows: &Csr,
        seeds: impl IntoIterator<Item = NodeId>,
        radius: Weight,
        guard: &RunGuard,
        admit: impl FnMut(NodeId, Weight) -> bool,
        visit: F,
    ) -> Result<usize, InterruptReason> {
        let w_min = rows.min_positive_weight();
        let seeds = seeds.into_iter().map(at_zero);
        self.run_rows(rows, w_min, seeds, radius, guard, admit, visit)
    }

    /// [`run_rows_guarded`](Self::run_rows_guarded) from seeds that carry
    /// a label `(node, dist, source)`: each enters the queue at `dist`,
    /// already owned by `source`, and is settled, reported and relaxed
    /// from like any other node (an ordinary seed `s` is `(s, 0, s)`).
    /// This is how a sweep resumes from the boundary of a region another
    /// sweep already labelled. A node offered twice keeps its smaller
    /// label; labels beyond `radius` are the caller's to leave out.
    pub fn run_rows_labelled_guarded<F: FnMut(Settled)>(
        &mut self,
        rows: &Csr,
        seeds: impl IntoIterator<Item = (NodeId, Weight, NodeId)>,
        radius: Weight,
        guard: &RunGuard,
        admit: impl FnMut(NodeId, Weight) -> bool,
        visit: F,
    ) -> Result<usize, InterruptReason> {
        let w_min = rows.min_positive_weight();
        self.run_rows(rows, w_min, seeds, radius, guard, admit, visit)
    }

    /// The one sweep behind every entry point. `w_min` (the adjacency's
    /// minimum positive weight) only sizes the bucket kernel's buckets.
    #[expect(
        clippy::too_many_arguments,
        reason = "private: the public signatures plus the one derived w_min"
    )]
    fn run_rows<F: FnMut(Settled)>(
        &mut self,
        rows: &Csr,
        w_min: Option<Weight>,
        seeds: impl IntoIterator<Item = (NodeId, Weight, NodeId)>,
        radius: Weight,
        guard: &RunGuard,
        mut admit: impl FnMut(NodeId, Weight) -> bool,
        mut visit: F,
    ) -> Result<usize, InterruptReason> {
        if self.ensure_capacity(rows.node_count()) {
            guard.check_bytes(self.scratch_bytes())?;
        }
        self.reset_scratch();
        match self.kernel.resolve(w_min, radius) {
            ResolvedKernel::Heap => {
                // The queue is taken out of `self` for the duration of the
                // sweep so the sweep loop can borrow scratch mutably; it is
                // restored (drained) even on the interrupt path. After a
                // panicking `visit` the field holds a fresh empty queue.
                let mut queue = std::mem::take(&mut self.heap);
                queue.clear();
                for (seed, d, source) in seeds {
                    if self.relax(seed, d, source, seed) {
                        Frontier::push(&mut queue, d, seed);
                    }
                }
                let out = self.sweep(rows, radius, guard, &mut queue, &mut admit, &mut visit);
                queue.clear();
                self.heap = queue;
                out
            }
            ResolvedKernel::Bucket(plan) => {
                let mut queue = std::mem::take(&mut self.bucket);
                queue.clear();
                queue.begin(&plan);
                for (seed, d, source) in seeds {
                    if self.relax(seed, d, source, seed) {
                        Frontier::push(&mut queue, d, seed);
                    }
                }
                let out = self.sweep(rows, radius, guard, &mut queue, &mut admit, &mut visit);
                queue.clear();
                self.bucket = queue;
                out
            }
        }
    }

    /// The kernel-generic settle loop shared by both queues.
    fn sweep<Q: Frontier, F: FnMut(Settled)>(
        &mut self,
        rows: &Csr,
        radius: Weight,
        guard: &RunGuard,
        queue: &mut Q,
        admit: &mut impl FnMut(NodeId, Weight) -> bool,
        visit: &mut F,
    ) -> Result<usize, InterruptReason> {
        let mut settled_count = 0;
        while let Some((d, u)) = queue.pop() {
            let i = u.index();
            if self.settled[i] || d > self.dist[i] {
                continue; // lazily deleted entry
            }
            guard.note_settled(1)?;
            self.settled[i] = true;
            settled_count += 1;
            let source = NodeId(self.source[i]);
            visit(Settled {
                node: u,
                dist: d,
                source,
                parent: NodeId(self.parent[i]),
            });
            for (v, w) in rows.neighbors(u) {
                let nd = d + w;
                if nd <= radius && admit(v, nd) && self.relax(v, nd, source, u) {
                    queue.push(nd, v);
                }
            }
        }
        Ok(settled_count)
    }

    /// Single-source distances to every node (untruncated), as a dense
    /// vector. Convenience used by tests and examples.
    pub fn distances(&mut self, graph: &Graph, dir: Direction, from: NodeId) -> Vec<Weight> {
        let mut dist = vec![Weight::INFINITY; graph.node_count()];
        self.run(graph, dir, [from], Weight::INFINITY, |s| {
            dist[s.node.index()] = s.dist;
        });
        dist
    }
}

/// The label of an ordinary seed: distance zero, its own source.
#[inline]
fn at_zero(seed: NodeId) -> (NodeId, Weight, NodeId) {
    (seed, Weight::ZERO, seed)
}

/// One-shot single-source shortest distances on a throwaway engine — a
/// convenience for tests and examples. Callers with more than one sweep
/// to run own a [`DijkstraEngine`] (or an [`EnginePool`](crate::EnginePool))
/// and pay the `O(n)` scratch allocation once.
pub fn shortest_distances(graph: &Graph, dir: Direction, from: NodeId) -> Vec<Weight> {
    DijkstraEngine::new(graph.node_count()).distances(graph, dir, from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::graph_from_edges;
    use crate::reference::all_pairs_shortest;

    fn line() -> Graph {
        graph_from_edges(4, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 4.0)])
    }

    #[test]
    fn single_source_forward() {
        let g = line();
        let d = shortest_distances(&g, Direction::Forward, NodeId(0));
        assert_eq!(d[0], Weight::ZERO);
        assert_eq!(d[1], Weight::new(1.0));
        assert_eq!(d[2], Weight::new(3.0));
        assert_eq!(d[3], Weight::new(7.0));
    }

    #[test]
    fn single_source_reverse() {
        let g = line();
        let d = shortest_distances(&g, Direction::Reverse, NodeId(3));
        // Reverse from 3 gives dist(u, 3) for each u.
        assert_eq!(d[0], Weight::new(7.0));
        assert_eq!(d[3], Weight::ZERO);
    }

    #[test]
    fn unreachable_is_infinite() {
        let g = graph_from_edges(3, &[(0, 1, 1.0)]);
        let d = shortest_distances(&g, Direction::Forward, NodeId(0));
        assert!(!d[2].is_finite());
    }

    #[test]
    fn radius_truncation() {
        let g = line();
        let mut eng = DijkstraEngine::new(4);
        let mut reached = Vec::new();
        eng.run(&g, Direction::Forward, [NodeId(0)], Weight::new(3.0), |s| {
            reached.push((s.node, s.dist));
        });
        assert_eq!(
            reached,
            vec![
                (NodeId(0), Weight::ZERO),
                (NodeId(1), Weight::new(1.0)),
                (NodeId(2), Weight::new(3.0)),
            ]
        );
    }

    #[test]
    fn multi_source_nearest_seed_wins() {
        // 0 -> 1 -> 2 <- 3, seeds {0, 3}: node 2 is closer to 3.
        let g = graph_from_edges(4, &[(0, 1, 1.0), (1, 2, 5.0), (3, 2, 2.0)]);
        let mut eng = DijkstraEngine::new(4);
        let mut dist = [Weight::INFINITY; 4];
        let mut src = [None; 4];
        let seeds = [NodeId(0), NodeId(3)];
        eng.run(&g, Direction::Forward, seeds, Weight::INFINITY, |s| {
            dist[s.node.index()] = s.dist;
            src[s.node.index()] = Some(s.source);
        });
        assert_eq!(dist[2], Weight::new(2.0));
        assert_eq!(src[2], Some(NodeId(3)));
        assert_eq!(src[1], Some(NodeId(0)));
        assert_eq!(src[0], Some(NodeId(0)));
    }

    #[test]
    fn engine_reuse_across_runs() {
        let g = line();
        let mut eng = DijkstraEngine::new(4);
        let d1 = eng.distances(&g, Direction::Forward, NodeId(0));
        let d2 = eng.distances(&g, Direction::Forward, NodeId(2));
        assert_eq!(d1[3], Weight::new(7.0));
        assert_eq!(d2[3], Weight::new(4.0));
        assert!(!d2[0].is_finite());
        // And a third run still agrees with a fresh engine.
        let d3 = eng.distances(&g, Direction::Reverse, NodeId(3));
        let d3_fresh = shortest_distances(&g, Direction::Reverse, NodeId(3));
        assert_eq!(d3, d3_fresh);
    }

    #[test]
    fn settle_order_is_nondecreasing() {
        let g = graph_from_edges(
            5,
            &[
                (0, 1, 3.0),
                (0, 2, 1.0),
                (2, 1, 1.0),
                (1, 3, 1.0),
                (2, 4, 10.0),
            ],
        );
        let mut eng = DijkstraEngine::new(5);
        let mut last = Weight::ZERO;
        eng.run(&g, Direction::Forward, [NodeId(0)], Weight::INFINITY, |s| {
            assert!(s.dist >= last);
            last = s.dist;
        });
    }

    #[test]
    fn zero_weight_cycles_terminate() {
        let g = graph_from_edges(3, &[(0, 1, 0.0), (1, 0, 0.0), (1, 2, 1.0)]);
        let d = shortest_distances(&g, Direction::Forward, NodeId(0));
        assert_eq!(d[1], Weight::ZERO);
        assert_eq!(d[2], Weight::new(1.0));
    }

    #[test]
    fn matches_floyd_warshall_on_grid() {
        // Deterministic pseudo-random sparse graph, checked both directions.
        let n = 40usize;
        let mut edges = Vec::new();
        let mut state = 42u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for _ in 0..200 {
            let u = next() % n as u32;
            let v = next() % n as u32;
            let w = f64::from(next() % 10) + 1.0;
            edges.push((u, v, w));
        }
        let g = graph_from_edges(n, &edges);
        let apsp = all_pairs_shortest(&g, Direction::Forward);
        let mut eng = DijkstraEngine::new(n);
        for s in 0..n as u32 {
            let d = eng.distances(&g, Direction::Forward, NodeId(s));
            for t in 0..n {
                assert_eq!(d[t], apsp[s as usize][t], "mismatch {s}->{t}");
            }
        }
        // Reverse direction equals APSP of the transposed relation.
        let d_rev = eng.distances(&g, Direction::Reverse, NodeId(0));
        for (u, du) in d_rev.iter().enumerate() {
            assert_eq!(*du, apsp[u][0], "reverse mismatch {u}->0");
        }
    }

    #[test]
    fn run_returns_settle_count() {
        let g = line();
        let mut eng = DijkstraEngine::new(4);
        let count = eng.run(
            &g,
            Direction::Forward,
            [NodeId(0)],
            Weight::new(3.0),
            |_| {},
        );
        assert_eq!(count, 3);
    }

    #[test]
    fn guarded_run_matches_unguarded_when_untripped() {
        let g = line();
        let mut eng = DijkstraEngine::new(4);
        let mut a = Vec::new();
        eng.run(&g, Direction::Forward, [NodeId(0)], Weight::INFINITY, |s| {
            a.push(s)
        });
        let mut b = Vec::new();
        let n = eng
            .run_guarded(
                &g,
                Direction::Forward,
                [NodeId(0)],
                Weight::INFINITY,
                &RunGuard::new(),
                |s| b.push(s),
            )
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(n, a.len());
    }

    #[test]
    fn guarded_run_stops_at_settled_budget_with_prefix_output() {
        let g = line();
        let mut eng = DijkstraEngine::new(4);
        let mut full = Vec::new();
        eng.run(&g, Direction::Forward, [NodeId(0)], Weight::INFINITY, |s| {
            full.push(s)
        });
        for budget in 0..full.len() as u64 {
            let guard = RunGuard::new().with_settled_budget(budget);
            let mut part = Vec::new();
            let err = eng
                .run_guarded(
                    &g,
                    Direction::Forward,
                    [NodeId(0)],
                    Weight::INFINITY,
                    &guard,
                    |s| part.push(s),
                )
                .unwrap_err();
            assert_eq!(err, InterruptReason::SettledBudgetExhausted);
            assert_eq!(part, full[..budget as usize]);
            // The engine stays reusable after an interrupted sweep.
            let d = eng.distances(&g, Direction::Forward, NodeId(0));
            assert_eq!(d[3], Weight::new(7.0));
        }
    }

    #[test]
    fn sweeping_one_half_is_the_graph_sweep_in_that_direction() {
        let g = graph_from_edges(5, &[(0, 1, 1.5), (1, 2, 0.5), (2, 3, 2.0), (0, 4, 0.0)]);
        let guard = RunGuard::unlimited();
        for kernel in [Kernel::Heap, Kernel::Bucket] {
            let mut eng = DijkstraEngine::with_kernel(5, kernel);
            for (dir, seed) in [(Direction::Forward, 0), (Direction::Reverse, 3)] {
                for radius in [Weight::new(2.0), Weight::INFINITY] {
                    let mut on_graph = Vec::new();
                    eng.run(&g, dir, [NodeId(seed)], radius, |s| on_graph.push(s));
                    let mut on_rows = Vec::new();
                    let all = |_, _| true;
                    eng.run_rows_guarded(g.rows(dir), [NodeId(seed)], radius, &guard, all, |s| {
                        on_rows.push(s)
                    })
                    .unwrap();
                    assert_eq!(on_rows, on_graph);
                }
            }
        }
    }

    #[test]
    fn empty_seed_set() {
        let g = line();
        let mut eng = DijkstraEngine::new(4);
        let count = eng.run(
            &g,
            Direction::Forward,
            std::iter::empty(),
            Weight::INFINITY,
            |_| {},
        );
        assert_eq!(count, 0);
    }

    /// Collects the full settle trace of one sweep under a given kernel.
    fn trace(
        eng: &mut DijkstraEngine,
        g: &Graph,
        seeds: &[NodeId],
        radius: Weight,
    ) -> Vec<Settled> {
        let mut out = Vec::new();
        eng.run(g, Direction::Forward, seeds.iter().copied(), radius, |s| {
            out.push(s)
        });
        out
    }

    #[test]
    fn bucket_kernel_is_bit_identical_to_heap() {
        let g = graph_from_edges(
            7,
            &[
                (0, 1, 1.0),
                (0, 2, 1.0), // tie: 1 and 2 both at dist 1
                (1, 3, 0.5),
                (2, 3, 0.5), // tie through two parents
                (3, 4, 0.0), // zero-weight edge within a bucket
                (4, 5, 2.25),
                (1, 6, 3.75),
            ],
        );
        let mut heap_eng = DijkstraEngine::with_kernel(7, Kernel::Heap);
        let mut bucket_eng = DijkstraEngine::with_kernel(7, Kernel::Bucket);
        for radius in [0.0, 1.0, 1.5, 4.0, 100.0] {
            let r = Weight::new(radius);
            let seeds = [NodeId(0), NodeId(2)];
            assert_eq!(
                trace(&mut heap_eng, &g, &seeds, r),
                trace(&mut bucket_eng, &g, &seeds, r),
                "kernels diverged at radius {radius}"
            );
        }
    }

    #[test]
    fn bucket_kernel_interruption_prefix_matches_heap() {
        let g = line();
        let mut heap_eng = DijkstraEngine::with_kernel(4, Kernel::Heap);
        let mut bucket_eng = DijkstraEngine::with_kernel(4, Kernel::Bucket);
        let r = Weight::new(10.0);
        let full = trace(&mut heap_eng, &g, &[NodeId(0)], r);
        for budget in 0..full.len() as u64 {
            let guard = RunGuard::new().with_settled_budget(budget);
            let mut part = Vec::new();
            let err = bucket_eng
                .run_guarded(&g, Direction::Forward, [NodeId(0)], r, &guard, |s| {
                    part.push(s)
                })
                .unwrap_err();
            assert_eq!(err, InterruptReason::SettledBudgetExhausted);
            assert_eq!(part, full[..budget as usize]);
        }
    }

    #[test]
    fn default_kernel_matches_heap_on_truncated_and_open_sweeps() {
        let g = graph_from_edges(5, &[(0, 1, 1.5), (1, 2, 0.5), (2, 3, 2.0), (0, 4, 0.0)]);
        let mut default_eng = DijkstraEngine::new(5);
        let mut heap_eng = DijkstraEngine::with_kernel(5, Kernel::Heap);
        for radius in [Weight::new(2.0), Weight::INFINITY] {
            assert_eq!(
                trace(&mut default_eng, &g, &[NodeId(0)], radius),
                trace(&mut heap_eng, &g, &[NodeId(0)], radius),
            );
        }
        assert_eq!(default_eng.kernel(), Kernel::Bucket);
    }

    /// The settle trace of one filtered forward sweep over `g`'s rows.
    fn filtered(
        eng: &mut DijkstraEngine,
        g: &Graph,
        seeds: &[NodeId],
        radius: Weight,
        guard: &RunGuard,
        admit: impl FnMut(NodeId, Weight) -> bool,
    ) -> (Vec<Settled>, Result<usize, InterruptReason>) {
        let mut out = Vec::new();
        let rows = g.rows(Direction::Forward);
        let seeds = seeds.iter().copied();
        let swept = eng.run_rows_guarded(rows, seeds, radius, guard, admit, |s| out.push(s));
        (out, swept)
    }

    #[test]
    fn refused_relaxation_leaves_no_trace() {
        // 1 is refused whatever it is offered; 3 hangs off it.
        let g = graph_from_edges(4, &[(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 1, 0.5)]);
        let guard = RunGuard::new();
        for kernel in [Kernel::Heap, Kernel::Bucket] {
            let mut eng = DijkstraEngine::with_kernel(4, kernel);
            let mut asked = Vec::new();
            let r = Weight::new(10.0);
            let (trace, swept) = filtered(&mut eng, &g, &[NodeId(0)], r, &guard, |v, nd| {
                asked.push((v, nd));
                v != NodeId(1)
            });
            // A queue entry for 1 would have been popped and settled: no
            // scratch write and no push happened for it, twice over.
            let nodes: Vec<u32> = trace.iter().map(|s| s.node.0).collect();
            assert_eq!(nodes, vec![0, 2]);
            assert_eq!(swept, Ok(2));
            assert_eq!(eng.touched, vec![0, 2]);
            assert_eq!(eng.dist[1], Weight::INFINITY);
            assert!(!eng.settled[1]);
            // Asked once per in-radius relaxation, seeds excluded.
            let w = Weight::new;
            let expect = vec![
                (NodeId(1), w(1.0)),
                (NodeId(2), w(1.0)),
                (NodeId(1), w(1.5)),
            ];
            assert_eq!(asked, expect);
        }
    }

    #[test]
    fn node_refused_far_out_is_settled_when_offered_closer() {
        // 2 is first offered 5.0 (refused), later 2.0 through 1 (admitted).
        let g = graph_from_edges(3, &[(0, 1, 1.0), (0, 2, 5.0), (1, 2, 1.0)]);
        let near = |v: NodeId, nd: Weight| v != NodeId(2) || nd < Weight::new(3.0);
        let guard = RunGuard::unlimited();
        for kernel in [Kernel::Heap, Kernel::Bucket] {
            let mut eng = DijkstraEngine::with_kernel(3, kernel);
            let r = Weight::new(10.0);
            let (trace, _) = filtered(&mut eng, &g, &[NodeId(0)], r, &guard, near);
            assert_eq!(trace.len(), 3);
            assert_eq!(trace[2].node, NodeId(2));
            assert_eq!(trace[2].dist, Weight::new(2.0));
            assert_eq!(trace[2].parent, NodeId(1));
        }
    }

    #[test]
    fn admission_is_asked_in_radius_only_and_never_of_seeds() {
        let g = graph_from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (3, 2, 9.0)]);
        let mut eng = DijkstraEngine::new(4);
        let guard = RunGuard::unlimited();
        let seeds = [NodeId(0), NodeId(3)];
        let mut asked = Vec::new();
        let (trace, _) = filtered(&mut eng, &g, &seeds, Weight::new(5.0), &guard, |v, _| {
            asked.push(v);
            false
        });
        // Both seeds settle although everything is refused; 3 → 2 at 9.0
        // is out of radius and is not asked about.
        let nodes: Vec<u32> = trace.iter().map(|s| s.node.0).collect();
        assert_eq!(nodes, vec![0, 3]);
        assert_eq!(asked, vec![NodeId(1)]);
    }

    /// A filter shaped like the sink-bounded one: a fixed node set, or
    /// anything close enough to the seeds.
    fn even_or_near(v: NodeId, nd: Weight) -> bool {
        v.0.is_multiple_of(2) || nd < Weight::new(1.25)
    }

    /// Ties, a zero-weight edge, and odd nodes the filter cuts off far out.
    fn filter_graph() -> Graph {
        graph_from_edges(
            8,
            &[
                (0, 1, 1.0),
                (0, 2, 1.0),
                (1, 3, 0.5),
                (2, 3, 0.5),
                (2, 4, 0.5),
                (3, 4, 0.0),
                (4, 5, 2.25),
                (4, 6, 2.25),
                (1, 6, 3.75),
                (6, 7, 0.25),
            ],
        )
    }

    #[test]
    fn kernels_settle_identically_under_a_filter() {
        let g = filter_graph();
        let guard = RunGuard::unlimited();
        let mut heap_eng = DijkstraEngine::with_kernel(8, Kernel::Heap);
        let mut bucket_eng = DijkstraEngine::with_kernel(8, Kernel::Bucket);
        let seeds = [NodeId(0)];
        for radius in [0.0, 1.0, 1.5, 4.0, 100.0] {
            let r = Weight::new(radius);
            let (on_heap, _) = filtered(&mut heap_eng, &g, &seeds, r, &guard, even_or_near);
            let (on_bucket, _) = filtered(&mut bucket_eng, &g, &seeds, r, &guard, even_or_near);
            assert_eq!(on_heap, on_bucket, "kernels diverged at radius {radius}");
            // A subset of the unfiltered sweep, no node any closer.
            let open = trace(&mut heap_eng, &g, &seeds, r);
            for s in &on_heap {
                let o = open.iter().find(|o| o.node == s.node).unwrap();
                assert!(o.dist <= s.dist, "{:?} got closer under a filter", s.node);
            }
        }
        // At full radius the filter bites: 3 only enters through the tie
        // at 1.5 > 1.25, so it and the odd nodes behind 4 are cut off.
        let (cut, _) = filtered(
            &mut heap_eng,
            &g,
            &seeds,
            Weight::new(100.0),
            &guard,
            even_or_near,
        );
        let nodes: Vec<u32> = cut.iter().map(|s| s.node.0).collect();
        assert_eq!(nodes, vec![0, 1, 2, 4, 6]);
    }

    #[test]
    fn interrupted_filtered_sweep_is_a_prefix_and_the_engine_survives() {
        let g = filter_graph();
        let r = Weight::new(100.0);
        let seeds = [NodeId(0)];
        for kernel in [Kernel::Heap, Kernel::Bucket] {
            let mut eng = DijkstraEngine::with_kernel(8, kernel);
            let (full, _) = filtered(
                &mut eng,
                &g,
                &seeds,
                r,
                &RunGuard::unlimited(),
                even_or_near,
            );
            for budget in 0..full.len() as u64 {
                let guard = RunGuard::new().with_settled_budget(budget);
                let (part, swept) = filtered(&mut eng, &g, &seeds, r, &guard, even_or_near);
                assert_eq!(swept, Err(InterruptReason::SettledBudgetExhausted));
                assert_eq!(part, full[..budget as usize]);
                // Reusable, and for an unfiltered sweep too.
                let d = eng.distances(&g, Direction::Forward, NodeId(0));
                assert_eq!(d[7], Weight::new(4.0));
            }
        }
    }

    /// The issue-22 gadget along its swept (reverse) rows: seeds `{0, 2, 4}`
    /// minus `0`, `4 → 1` at `zero`, and node 3 a tie between 1 and 2.
    fn order_gadget(zero: f64) -> Graph {
        graph_from_edges(5, &[(4, 1, zero), (0, 3, 0.1), (1, 3, 0.2), (2, 3, 0.2)])
    }

    #[test]
    fn a_zero_weight_edge_breaks_the_global_pop_order_on_both_kernels() {
        // What holds in general: each pop is the least entry queued, and
        // both kernels agree. `(0, 1)` is pushed after `(0, 2)` and `(0, 4)`
        // have left, so the sequence is not sorted and node 3 goes to the
        // seed popped first, not to its least optimal predecessor.
        let g = order_gadget(0.0);
        let seeds = [NodeId(2), NodeId(4)];
        for kernel in [Kernel::Heap, Kernel::Bucket] {
            let mut eng = DijkstraEngine::with_kernel(5, kernel);
            let t = trace(&mut eng, &g, &seeds, Weight::new(0.3));
            let order: Vec<u32> = t.iter().map(|s| s.node.0).collect();
            assert_eq!(order, vec![2, 4, 1, 3], "{kernel:?}");
            assert_eq!(t[3].source, NodeId(2), "{kernel:?}");
        }
    }

    #[test]
    fn progress_makes_the_pop_order_global_and_the_source_a_function_of_the_seeds() {
        // Tie-heavy positive weights: every relaxation makes progress, so
        // on both kernels the trace is sorted by `(dist, node)` and every
        // settled node inherits the source of its optimal predecessor of
        // least `(dist, node)`.
        use crate::rng::SplitMix64;
        let mut ties = 0;
        SplitMix64::for_each_case(400, |rng| {
            let n = 4 + rng.index(12);
            let edges: Vec<(u32, u32, f64)> = (0..n + rng.index(3 * n))
                .map(|_| {
                    let w = [0.1, 0.2, 0.3, 0.5][rng.index(4)];
                    (rng.index(n) as u32, rng.index(n) as u32, w)
                })
                .collect();
            let g = graph_from_edges(n, &edges);
            let seeds: Vec<NodeId> = (0..1 + rng.index(4))
                .map(|_| NodeId(rng.index(n) as u32))
                .collect();
            let r = Weight::new(0.2 + 0.1 * rng.index(8) as f64);
            let mut heap_eng = DijkstraEngine::with_kernel(n, Kernel::Heap);
            let mut bucket_eng = DijkstraEngine::with_kernel(n, Kernel::Bucket);
            let t = trace(&mut heap_eng, &g, &seeds, r);
            assert_eq!(t, trace(&mut bucket_eng, &g, &seeds, r));
            assert!(t
                .windows(2)
                .all(|p| (p[0].dist, p[0].node) < (p[1].dist, p[1].node)));
            for s in t.iter().filter(|s| s.dist > Weight::ZERO) {
                let optimal = t.iter().filter(|p| {
                    g.out_neighbors(p.node)
                        .any(|(v, w)| v == s.node && p.dist + w == s.dist)
                });
                let rivals: Vec<&Settled> = optimal.collect();
                // The trace is sorted, so the first is the least.
                assert_eq!(s.source, rivals[0].source);
                assert_eq!(s.parent, rivals[0].node);
                ties += usize::from(rivals.iter().any(|p| p.source != s.source));
            }
        });
        assert!(ties >= 50, "only {ties} contested nodes");
    }

    #[test]
    fn labelled_seeds_enter_at_their_labels() {
        // 0 → 1 → 2 → 3 resumed from node 1 as a sweep from 0 left it, and
        // from node 3 as its own seed: each label is settled, reported and
        // relaxed from; the smaller of two labels for one node wins.
        let g = line();
        let w = Weight::new;
        let labels = [
            (NodeId(1), w(1.0), NodeId(0)),
            (NodeId(1), w(4.0), NodeId(9)),
            (NodeId(3), Weight::ZERO, NodeId(3)),
        ];
        for kernel in [Kernel::Heap, Kernel::Bucket] {
            let mut eng = DijkstraEngine::with_kernel(4, kernel);
            let mut asked = Vec::new();
            let mut t = Vec::new();
            let swept = eng.run_rows_labelled_guarded(
                g.rows(Direction::Forward),
                labels,
                w(3.0),
                &RunGuard::unlimited(),
                |v, _| {
                    asked.push(v);
                    true
                },
                |s| t.push((s.node.0, s.dist, s.source.0, s.parent.0)),
            );
            assert_eq!(swept, Ok(3));
            assert_eq!(t, [(3, w(0.0), 3, 3), (1, w(1.0), 0, 1), (2, w(3.0), 0, 1)]);
            // Labelled seeds are never asked, like ordinary ones.
            assert_eq!(asked, [NodeId(2)]);
        }
    }

    #[test]
    fn ensure_capacity_reports_growth() {
        let mut eng = DijkstraEngine::new(4);
        assert!(!eng.ensure_capacity(2));
        assert!(eng.ensure_capacity(8));
        assert!(!eng.ensure_capacity(8));
    }
}
