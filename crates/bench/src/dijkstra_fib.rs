//! Fibonacci-heap Dijkstra.
//!
//! The paper's complexity claims (`O(n log n + m)` per `Neighbor()` call)
//! assume a Fibonacci-heap priority queue with `O(1)` decrease-key. In
//! practice a binary heap with lazy deletion (`O((n + m) log n)`) usually
//! wins on constants; this module provides the textbook variant so the two
//! can be compared head-to-head (`repro`'s `heap` ablation, its only
//! consumer), and so the asymptotic claim is actually implemented rather
//! than only cited.

use comm_fibheap::{FibHeap, NodeRef};
use comm_graph::{Direction, Graph, InterruptReason, NodeId, RunGuard, Settled, Weight};

const NO_SOURCE: u32 = u32::MAX;

/// Reusable Fibonacci-heap Dijkstra state (decrease-key based, no lazy
/// deletion — each node is in the heap at most once).
pub struct FibDijkstraEngine {
    dist: Vec<Weight>,
    source: Vec<u32>,
    parent: Vec<u32>,
    epoch: Vec<u32>,
    settled: Vec<bool>,
    handle: Vec<Option<NodeRef>>,
    current_epoch: u32,
    heap: FibHeap<(Weight, NodeId), NodeId>,
}

impl FibDijkstraEngine {
    /// Creates an engine for graphs with up to `n` nodes.
    pub fn new(n: usize) -> FibDijkstraEngine {
        FibDijkstraEngine {
            dist: vec![Weight::INFINITY; n],
            source: vec![NO_SOURCE; n],
            parent: vec![NO_SOURCE; n],
            epoch: vec![0; n],
            settled: vec![false; n],
            handle: vec![None; n],
            current_epoch: 0,
            heap: FibHeap::new(),
        }
    }

    /// Grows the engine to accommodate `n` nodes.
    pub fn ensure_capacity(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, Weight::INFINITY);
            self.source.resize(n, NO_SOURCE);
            self.parent.resize(n, NO_SOURCE);
            self.epoch.resize(n, 0);
            self.settled.resize(n, false);
            self.handle.resize(n, None);
        }
    }

    fn fresh(&mut self) {
        self.current_epoch = self.current_epoch.wrapping_add(1);
        if self.current_epoch == 0 {
            self.epoch.fill(u32::MAX);
            self.current_epoch = 1;
        }
        self.heap.clear();
    }

    /// Runs a truncated multi-source Dijkstra; identical semantics to
    /// [`DijkstraEngine::run`](comm_graph::DijkstraEngine::run), including the
    /// deterministic `(dist, node)` tie order, but with decrease-key
    /// updates instead of lazy deletion.
    pub fn run<F: FnMut(Settled)>(
        &mut self,
        graph: &Graph,
        dir: Direction,
        seeds: impl IntoIterator<Item = NodeId>,
        radius: Weight,
        visit: F,
    ) -> usize {
        self.run_guarded(graph, dir, seeds, radius, &RunGuard::unlimited(), visit)
            // xtask-allow: no_panics — RunGuard::unlimited() has no budgets, so Interrupted is unreachable
            .expect("unlimited guard never trips")
    }

    /// Like [`run`](Self::run), but consults `guard` once per settled node;
    /// semantics match
    /// [`DijkstraEngine::run_guarded`](comm_graph::DijkstraEngine::run_guarded).
    pub fn run_guarded<F: FnMut(Settled)>(
        &mut self,
        graph: &Graph,
        dir: Direction,
        seeds: impl IntoIterator<Item = NodeId>,
        radius: Weight,
        guard: &RunGuard,
        mut visit: F,
    ) -> Result<usize, InterruptReason> {
        self.ensure_capacity(graph.node_count());
        self.fresh();
        for seed in seeds {
            let i = seed.index();
            if self.epoch[i] != self.current_epoch {
                self.epoch[i] = self.current_epoch;
                self.settled[i] = false;
                self.dist[i] = Weight::ZERO;
                self.source[i] = seed.0;
                self.parent[i] = seed.0;
                self.handle[i] = Some(self.heap.push((Weight::ZERO, seed), seed));
            }
        }
        let mut count = 0usize;
        while let Some(((d, u), _)) = self.heap.pop_min() {
            let ui = u.index();
            self.handle[ui] = None;
            guard.note_settled(1)?;
            self.settled[ui] = true;
            count += 1;
            let source = NodeId(self.source[ui]);
            visit(Settled {
                node: u,
                dist: d,
                source,
                parent: NodeId(self.parent[ui]),
            });
            for (v, w) in graph.neighbors(u, dir) {
                let nd = d + w;
                if nd > radius {
                    continue;
                }
                let vi = v.index();
                if self.epoch[vi] != self.current_epoch {
                    self.epoch[vi] = self.current_epoch;
                    self.settled[vi] = false;
                    self.dist[vi] = nd;
                    self.source[vi] = source.0;
                    self.parent[vi] = u.0;
                    self.handle[vi] = Some(self.heap.push((nd, v), v));
                } else if !self.settled[vi] && nd < self.dist[vi] {
                    self.dist[vi] = nd;
                    self.source[vi] = source.0;
                    self.parent[vi] = u.0;
                    // xtask-allow: no_panics — epoch-stamped, unsettled nodes always hold a live handle
                    let h = self.handle[vi].expect("unsettled stamped node is queued");
                    self.heap
                        .decrease_key(h, (nd, v))
                        // xtask-allow: no_panics — nd < dist[vi] guarantees a strictly smaller (key, id) pair
                        .expect("strictly smaller key");
                }
            }
        }
        Ok(count)
    }

    /// Single-source distances to every node (untruncated).
    pub fn distances(&mut self, graph: &Graph, dir: Direction, from: NodeId) -> Vec<Weight> {
        let mut dist = vec![Weight::INFINITY; graph.node_count()];
        self.run(graph, dir, [from], Weight::INFINITY, |s| {
            dist[s.node.index()] = s.dist;
        });
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comm_graph::{graph_from_edges, DijkstraEngine, SplitMix64};

    fn random_graph(n: usize, m: usize, seed: u64) -> Graph {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let mut edges = Vec::with_capacity(m);
        for _ in 0..m {
            edges.push((
                next() % n as u32,
                next() % n as u32,
                f64::from(next() % 9) + 1.0,
            ));
        }
        graph_from_edges(n, &edges)
    }

    #[test]
    fn matches_binary_heap_engine_exactly() {
        for seed in 0..8 {
            let g = random_graph(60, 240, seed);
            let mut bin = DijkstraEngine::new(60);
            let mut fib = FibDijkstraEngine::new(60);
            for radius in [Weight::new(4.0), Weight::new(12.0), Weight::INFINITY] {
                let mut a = Vec::new();
                bin.run(
                    &g,
                    Direction::Forward,
                    [NodeId(0), NodeId(7)],
                    radius,
                    |s| a.push(s),
                );
                let mut b = Vec::new();
                fib.run(
                    &g,
                    Direction::Forward,
                    [NodeId(0), NodeId(7)],
                    radius,
                    |s| b.push(s),
                );
                assert_eq!(a, b, "seed {seed}, radius {radius}");
            }
        }
    }

    /// 128 seeded cases: 2–29 nodes, up to `4n` edges of weight `0..9`,
    /// 1–3 spread seeds, radius `0..30`, both directions — the whole
    /// settle stream must match the binary-heap engine.
    #[test]
    fn fib_engine_equals_binary_engine() {
        SplitMix64::for_each_case(128, |rng| {
            let n = 2 + rng.index(28);
            let edges: Vec<(u32, u32, f64)> = (0..rng.index(n * 4))
                .map(|_| {
                    (
                        rng.index(n) as u32,
                        rng.index(n) as u32,
                        rng.index(9) as f64,
                    )
                })
                .collect();
            let g = graph_from_edges(n, &edges);
            let mut seeds: Vec<NodeId> = (0..(1 + rng.index(3)).min(n))
                .map(|i| NodeId((i * 7 % n) as u32))
                .collect();
            seeds.sort_unstable();
            seeds.dedup();
            let r = Weight::new(rng.index(30) as f64);
            let mut bin = DijkstraEngine::new(n);
            let mut fib = FibDijkstraEngine::new(n);
            for dir in [Direction::Forward, Direction::Reverse] {
                let mut a = Vec::new();
                bin.run(&g, dir, seeds.iter().copied(), r, |s| a.push(s));
                let mut b = Vec::new();
                fib.run(&g, dir, seeds.iter().copied(), r, |s| b.push(s));
                assert_eq!(&a, &b);
            }
        });
    }

    #[test]
    fn reverse_direction_agrees_too() {
        let g = random_graph(40, 160, 99);
        let mut bin = DijkstraEngine::new(40);
        let mut fib = FibDijkstraEngine::new(40);
        let a = bin.distances(&g, Direction::Reverse, NodeId(3));
        let b = fib.distances(&g, Direction::Reverse, NodeId(3));
        assert_eq!(a, b);
    }

    #[test]
    fn engine_reuse_is_clean() {
        let g = graph_from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        let mut fib = FibDijkstraEngine::new(3);
        let d1 = fib.distances(&g, Direction::Forward, NodeId(0));
        let d2 = fib.distances(&g, Direction::Forward, NodeId(2));
        assert_eq!(d1[2], Weight::new(2.0));
        assert!(!d2[0].is_finite());
    }

    #[test]
    fn guarded_run_prefix_matches_binary_engine() {
        let g = random_graph(30, 120, 7);
        let mut bin = DijkstraEngine::new(30);
        let mut full = Vec::new();
        bin.run(&g, Direction::Forward, [NodeId(0)], Weight::INFINITY, |s| {
            full.push(s)
        });
        let mut fib = FibDijkstraEngine::new(30);
        for budget in 0..full.len() as u64 {
            let guard = RunGuard::new().with_settled_budget(budget);
            let mut part = Vec::new();
            let err = fib
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
        }
        // Interrupted engine is still clean for the next run.
        let a = bin.distances(&g, Direction::Forward, NodeId(0));
        let b = fib.distances(&g, Direction::Forward, NodeId(0));
        assert_eq!(a, b);
    }

    #[test]
    fn empty_seeds() {
        let g = graph_from_edges(2, &[(0, 1, 1.0)]);
        let mut fib = FibDijkstraEngine::new(2);
        let count = fib.run(
            &g,
            Direction::Forward,
            std::iter::empty(),
            Weight::INFINITY,
            |_| {},
        );
        assert_eq!(count, 0);
    }
}
