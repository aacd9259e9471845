//! Property tests for the graph substrate: both Dijkstra engines against
//! the Floyd–Warshall oracle, truncation semantics, and induced subgraphs.
//! Each property runs over [`CASES`] seeded random graphs.

use comm_graph::reference::all_pairs_shortest;
use comm_graph::{
    graph_from_edges, DijkstraEngine, Direction, Graph, Kernel, NodeId, SplitMix64, Weight,
};

const CASES: u64 = 128;

/// A draw from `0..n` as a `u32` (every bound here is tiny).
fn below(rng: &mut SplitMix64, n: usize) -> u32 {
    rng.index(n) as u32
}

/// 2–29 nodes, up to `4n` edges with integer weights `0..9`.
fn random_edges(rng: &mut SplitMix64) -> (usize, Vec<(u32, u32, f64)>) {
    let n = 2 + rng.index(28);
    let edges = (0..rng.index(n * 4))
        .map(|_| (below(rng, n), below(rng, n), f64::from(below(rng, 9))))
        .collect();
    (n, edges)
}

fn random_graph(rng: &mut SplitMix64) -> Graph {
    let (n, edges) = random_edges(rng);
    graph_from_edges(n, &edges)
}

/// The first `1..4` multiples of 7 mod `n`, sorted and distinct.
fn spread_seeds(rng: &mut SplitMix64, n: usize) -> Vec<NodeId> {
    let seed_count = 1 + rng.index(3);
    let mut seeds: Vec<NodeId> = (0..seed_count.min(n))
        .map(|i| NodeId((i * 7 % n) as u32))
        .collect();
    seeds.sort_unstable();
    seeds.dedup();
    seeds
}

#[test]
fn binary_dijkstra_matches_floyd_warshall() {
    SplitMix64::for_each_case(CASES, |rng| {
        let g = random_graph(rng);
        let dir = if rng.index(2) == 0 {
            Direction::Forward
        } else {
            Direction::Reverse
        };
        let oracle = all_pairs_shortest(&g, dir);
        let mut engine = DijkstraEngine::new(g.node_count());
        for s in g.nodes() {
            let d = engine.distances(&g, dir, s);
            assert_eq!(&d, &oracle[s.index()], "source {s}");
        }
    });
}

#[test]
fn bucket_kernel_equals_heap_kernel() {
    SplitMix64::for_each_case(CASES, |rng| {
        let (n, mut edges) = random_edges(rng);
        let seeds = spread_seeds(rng, n);
        let radius = below(rng, 30);
        // Optionally shrink every weight to a quarter so distances land
        // off the integer grid and stress the bucket-boundary rounding.
        let scale = if rng.index(2) == 0 { 0.25 } else { 1.0 };
        edges.iter_mut().for_each(|e| e.2 *= scale);
        let g = graph_from_edges(n, &edges);
        let r = Weight::new(f64::from(radius) * scale);
        let mut heap = DijkstraEngine::with_kernel(g.node_count(), Kernel::Heap);
        let mut bucket = DijkstraEngine::with_kernel(g.node_count(), Kernel::Bucket);
        for dir in [Direction::Forward, Direction::Reverse] {
            let mut a = Vec::new();
            heap.run(&g, dir, seeds.iter().copied(), r, |s| a.push(s));
            let mut b = Vec::new();
            bucket.run(&g, dir, seeds.iter().copied(), r, |s| b.push(s));
            // The whole settle stream — node, dist, source, AND parent —
            // must be bit-identical, not merely the distance table.
            assert_eq!(&a, &b);
        }
    });
}

#[test]
fn truncation_is_prefix_of_full_run() {
    SplitMix64::for_each_case(CASES, |rng| {
        let g = random_graph(rng);
        let mut engine = DijkstraEngine::new(g.node_count());
        let r = Weight::from(below(rng, 20));
        let mut truncated = Vec::new();
        engine.run(&g, Direction::Forward, [NodeId(0)], r, |s| {
            truncated.push(s)
        });
        let mut full = Vec::new();
        engine.run(&g, Direction::Forward, [NodeId(0)], Weight::INFINITY, |s| {
            full.push(s)
        });
        // Every truncated settle appears in the full run with equal dist,
        // and the truncated set is exactly the ≤ radius prefix.
        let within: Vec<_> = full.iter().copied().filter(|s| s.dist <= r).collect();
        assert_eq!(truncated, within);
    });
}

#[test]
fn induced_subgraph_is_consistent() {
    SplitMix64::for_each_case(CASES, |rng| {
        let g = random_graph(rng);
        let pick: Vec<bool> = (0..2 + rng.index(28)).map(|_| rng.index(2) == 0).collect();
        let nodes: Vec<NodeId> = g
            .nodes()
            .filter(|u| pick.get(u.index()).copied().unwrap_or(false))
            .collect();
        let ind = g.induce(&nodes);
        assert_eq!(ind.graph.node_count(), nodes.len());
        // Mapping is a bijection on the selected nodes.
        for (i, &orig) in ind.original_ids.iter().enumerate() {
            assert_eq!(ind.to_local(orig), Some(NodeId(i as u32)));
        }
        // Edge count equals the number of G edges inside the selection.
        let expect = g
            .edges()
            .filter(|&(u, v, _)| nodes.contains(&u) && nodes.contains(&v))
            .count();
        assert_eq!(ind.graph.edge_count(), expect);
        // And every induced edge preserves some original weight.
        for (lu, lv, w) in ind.graph.edges() {
            let (ou, ov) = (ind.to_original(lu), ind.to_original(lv));
            assert!(g.edges().any(|(a, b, wo)| (a, b, wo) == (ou, ov, w)));
        }
    });
}

#[test]
fn degrees_sum_to_edge_count() {
    SplitMix64::for_each_case(CASES, |rng| {
        let g = random_graph(rng);
        let out: usize = g.nodes().map(|u| g.out_degree(u)).sum();
        let inn: usize = g.nodes().map(|u| g.in_degree(u)).sum();
        assert_eq!(out, g.edge_count());
        assert_eq!(inn, g.edge_count());
    });
}
