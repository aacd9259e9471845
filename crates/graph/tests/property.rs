//! Property tests for the graph substrate: the Dijkstra engine, from plain
//! and from labelled seeds, against the Floyd–Warshall oracle, truncation
//! semantics, and induced subgraphs. Each property runs over [`CASES`]
//! seeded random graphs.

use comm_graph::reference::all_pairs_shortest;
use comm_graph::{
    graph_from_edges, DijkstraEngine, Direction, Graph, NodeId, RunGuard, SplitMix64, Weight,
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

/// A sweep resumed from labels `(node, dist, source)` — the form the
/// `Neighbor()` repair stands on — is Dijkstra from a virtual source with
/// an edge of weight `dist` to each labelled node: it settles exactly the
/// nodes whose `min over labels (dist + FW[node][v])` is within the radius,
/// at that distance, and each one's parent chain ends at a label that
/// carries its source.
#[test]
fn labelled_seed_sweeps_match_floyd_warshall() {
    SplitMix64::for_each_case(CASES, |rng| {
        let (n, mut edges) = random_edges(rng);
        // Half the cases shrink every weight to a quarter, so distances
        // land off the integer grid; zero weights stay in either way.
        let scale = if rng.index(2) == 0 { 0.25 } else { 1.0 };
        edges.iter_mut().for_each(|e| e.2 *= scale);
        let g = graph_from_edges(n, &edges);
        let dir = if rng.index(2) == 0 {
            Direction::Forward
        } else {
            Direction::Reverse
        };
        let oracle = all_pairs_shortest(&g, dir);
        let radius = below(rng, 20);
        let r = Weight::new(f64::from(radius) * scale);
        let labels: Vec<(NodeId, Weight, NodeId)> = (0..1 + rng.index(5))
            .map(|_| {
                let d = Weight::new(f64::from(below(rng, radius as usize + 1)) * scale);
                (NodeId(below(rng, n)), d, NodeId(below(rng, 2 * n)))
            })
            .collect();
        let mut settled = vec![None; n];
        let mut engine = DijkstraEngine::new(n);
        let all = |_, _| true;
        let guard = RunGuard::unlimited();
        let swept = engine.run_rows_labelled_guarded(
            g.rows(dir),
            labels.iter().copied(),
            r,
            &guard,
            all,
            |s| {
                assert!(
                    settled[s.node.index()].is_none(),
                    "{} settled twice",
                    s.node
                );
                settled[s.node.index()] = Some(s);
            },
        );
        assert_eq!(swept, Ok(settled.iter().flatten().count()));
        for v in g.nodes() {
            let best = labels
                .iter()
                .map(|&(u, d, _)| d + oracle[u.index()][v.index()])
                .min()
                .unwrap_or(Weight::INFINITY);
            let Some(s) = settled[v.index()] else {
                assert!(best > r, "{v} within the radius at {best:?} was missed");
                continue;
            };
            assert_eq!(s.dist, best, "dist of {v}");
            assert!(s.dist <= r);
            // Follow parents to a node that is its own parent: a label.
            let mut end = s;
            for _ in 0..n {
                if end.parent == end.node {
                    break;
                }
                end = settled[end.parent.index()].expect("a parent is settled");
            }
            assert_eq!(end.parent, end.node, "the parent chain of {v} cycles");
            assert!(
                labels.contains(&(end.node, end.dist, s.source)),
                "{v}'s chain ends at {} without a label of source {}",
                end.node,
                s.source
            );
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
