//! Edge-case integration tests for the core enumerators: degenerate
//! graphs, exhausted iterators, overlapping keyword sets, disconnected
//! components, and parameter extremes.

use comm_core::trees::topk_trees;
use comm_core::verify::{check_community, CertificationError};
use comm_core::{
    bu_all_guarded, bu_topk_guarded, comm_k_guarded, comm_k_on_index, td_all_guarded,
    td_topk_guarded, BaselineRun, CommAll, CommK, Community, Core, CostFn, InterruptReason,
    Outcome, ProjectedQuery, ProjectionIndex, QueryError, QuerySpec, RunGuard,
};
use comm_graph::{graph_from_edges, EnginePool, Graph, GraphBuilder, NodeId, Weight};

fn collect_all(g: &Graph, q: &QuerySpec) -> Vec<Community> {
    CommAll::try_new(g, q).unwrap().collect()
}

fn collect_top_k(g: &Graph, q: &QuerySpec, k: usize) -> Vec<Community> {
    CommK::try_new(g, q).unwrap().take(k).collect()
}

fn unguarded(out: Result<Outcome<BaselineRun>, QueryError>) -> BaselineRun {
    out.unwrap().into_value()
}

/// Indexes `kws` at `radius` and projects the query over all of them.
fn project(g: &Graph, kws: &[(&str, &[NodeId])], radius: f64) -> (ProjectionIndex, ProjectedQuery) {
    let guard = RunGuard::unlimited();
    let idx = ProjectionIndex::build_guarded(
        g,
        kws.iter().copied(),
        Weight::new(radius),
        &guard,
        &EnginePool::new(),
    )
    .unwrap();
    let names: Vec<&str> = kws.iter().map(|&(kw, _)| kw).collect();
    let pq = idx
        .try_project(&names, Weight::new(radius), &guard)
        .unwrap();
    (idx, pq)
}

fn spec(sets: &[&[u32]], rmax: f64) -> QuerySpec {
    QuerySpec::new(
        sets.iter()
            .map(|s| s.iter().map(|&v| NodeId(v)).collect())
            .collect(),
        Weight::new(rmax),
    )
}

#[test]
fn singleton_graph_single_keyword() {
    let g = graph_from_edges(1, &[]);
    let all = collect_all(&g, &spec(&[&[0]], 5.0));
    assert_eq!(all.len(), 1);
    assert_eq!(all[0].core, Core(vec![NodeId(0)]));
    assert_eq!(all[0].centers, vec![NodeId(0)]);
    assert_eq!(all[0].cost, Weight::ZERO);
    assert_eq!(all[0].node_count(), 1);
    assert_eq!(all[0].edge_count(), 0);
}

#[test]
fn exhausted_iterators_stay_exhausted() {
    let g = graph_from_edges(2, &[(0, 1, 1.0)]);
    let q = spec(&[&[0], &[1]], 3.0);
    let mut all = CommAll::try_new(&g, &q).unwrap();
    assert!(all.next().is_some());
    assert!(all.next().is_none());
    assert!(all.next().is_none(), "CommAll must stay exhausted");
    let mut topk = CommK::try_new(&g, &q).unwrap();
    assert!(topk.next().is_some());
    assert!(topk.next().is_none());
    assert!(topk.next().is_none(), "CommK must stay exhausted");
}

#[test]
fn same_keyword_twice_yields_diagonal_cores() {
    // Both dimensions match the same node set: cores pair every node with
    // every reachable node, including itself.
    let g = graph_from_edges(3, &[(0, 1, 1.0), (1, 0, 1.0)]);
    let q = spec(&[&[0, 1], &[0, 1]], 2.0);
    let mut cores: Vec<Vec<u32>> = collect_all(&g, &q)
        .into_iter()
        .map(|c| c.core.0.iter().map(|n| n.0).collect())
        .collect();
    cores.sort();
    assert_eq!(cores, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
}

#[test]
fn disconnected_components_enumerate_independently() {
    // Two disjoint 2-cliques, keywords on both sides.
    let g = graph_from_edges(4, &[(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)]);
    let q = spec(&[&[0, 2], &[1, 3]], 2.0);
    let cores: Vec<Vec<u32>> = collect_top_k(&g, &q, 10)
        .into_iter()
        .map(|c| c.core.0.iter().map(|n| n.0).collect())
        .collect();
    // Cross-component cores ([0,3] or [2,1]) must not appear.
    assert_eq!(cores.len(), 2);
    assert!(cores.contains(&vec![0, 1]));
    assert!(cores.contains(&vec![2, 3]));
}

#[test]
fn parallel_edges_use_the_cheaper_one() {
    let mut b = GraphBuilder::new(2);
    b.add_edge(NodeId(0), NodeId(1), Weight::new(9.0));
    b.add_edge(NodeId(0), NodeId(1), Weight::new(2.0));
    let g = b.build();
    let q = spec(&[&[1]], 5.0);
    let all = collect_all(&g, &q);
    assert_eq!(all.len(), 1);
    // Node 0 is a center via the cheap edge.
    assert!(all[0].centers.contains(&NodeId(0)));
}

#[test]
fn zero_weight_edges_are_fine() {
    let g = graph_from_edges(3, &[(0, 1, 0.0), (1, 2, 0.0)]);
    let q = spec(&[&[2]], 0.0);
    let all = collect_all(&g, &q);
    assert_eq!(all.len(), 1);
    // Everything is within radius 0 through zero-weight edges.
    assert_eq!(all[0].centers.len(), 3);
    assert_eq!(all[0].node_count(), 3);
}

#[test]
fn very_large_l_on_small_graph() {
    // l = 8 dimensions over a 3-node cycle: cross products stay correct.
    let g = graph_from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]);
    let sets: Vec<&[u32]> = vec![&[0, 1, 2]; 8];
    let q = spec(&sets, 3.0);
    let pd: Vec<Weight> = CommK::try_new(&g, &q).unwrap().map(|c| c.cost).collect();
    assert_eq!(pd.len(), 3usize.pow(8));
    let bu = unguarded(bu_topk_guarded(&g, &q, 50, None, RunGuard::unlimited()));
    assert_eq!(
        bu.communities.iter().map(|c| c.cost).collect::<Vec<_>>(),
        pd[..50].to_vec()
    );
}

#[test]
fn baselines_respect_cost_fn() {
    let g = graph_from_edges(
        5,
        &[
            (0, 1, 1.0),
            (0, 2, 5.0),
            (3, 1, 3.0),
            (3, 2, 3.0),
            (4, 0, 1.0),
        ],
    );
    // Keywords at 1 and 2. Sum cost: center 0 sums 6, center 3 sums 6.
    // Max cost: center 3 (max 3) beats center 0 (max 5).
    let q_sum = spec(&[&[1]], 6.0);
    drop(q_sum);
    let q = spec(&[&[1], &[2]], 6.0).with_cost(CostFn::MaxDistance);
    let pd = collect_top_k(&g, &q, 1);
    assert_eq!(pd[0].cost, Weight::new(3.0));
    let bu = unguarded(bu_topk_guarded(&g, &q, 1, None, RunGuard::unlimited()));
    let td = unguarded(td_topk_guarded(&g, &q, 1, None, RunGuard::unlimited()));
    assert_eq!(bu.communities[0].cost, Weight::new(3.0));
    assert_eq!(td.communities[0].cost, Weight::new(3.0));
}

#[test]
fn projection_with_tiny_radius() {
    let g = graph_from_edges(4, &[(0, 1, 2.0), (1, 2, 2.0), (2, 3, 2.0)]);
    // Radius 2: nothing reaches both 3 and 1 → no centers → empty projection.
    let (_, pq) = project(&g, &[("a", &[NodeId(3)]), ("b", &[NodeId(1)])], 2.0);
    assert_eq!(collect_all(&pq.projected.graph, &pq.spec).len(), 0);
}

#[test]
fn index_handles_keyword_with_no_nodes() {
    let g = graph_from_edges(2, &[(0, 1, 1.0)]);
    let (idx, pq) = project(&g, &[("present", &[NodeId(0)]), ("ghost", &[])], 5.0);
    assert_eq!(idx.nodes_of("ghost").len(), 0);
    assert!(pq.spec.has_empty_keyword());
    assert!(collect_all(&pq.projected.graph, &pq.spec).is_empty());
}

/// Indexes `V_a`, `V_b` at radius 4, answers the two-keyword query through
/// the index and certifies the top community against the *full* graph.
fn certify_on_index(g: &Graph, v_a: u32, v_b: u32) -> Community {
    let kws: [(&str, &[NodeId]); 2] = [("a", &[NodeId(v_a)]), ("b", &[NodeId(v_b)])];
    let (idx, _) = project(g, &kws, 4.0);
    let rmax = Weight::new(4.0);
    let guard = RunGuard::unlimited();
    let out = comm_k_on_index(&idx, &["a", "b"], rmax, 1, CostFn::SumDistances, guard);
    let top = out.unwrap().into_value().remove(0);
    check_community(g, &spec(&[&[v_a], &[v_b]], 4.0), &top).unwrap();
    top
}

/// `u = 1` is within `R` of `V_a` only and `v = 2` of `V_b` only, so the
/// edge `(u, v)` lies in no keyword's `invertedE` — but both endpoints are
/// in the community of center 0, and so is the edge.
#[test]
fn projection_keeps_edges_between_different_keywords_neighbourhoods() {
    let g = graph_from_edges(
        5,
        &[
            (0, 1, 1.0),
            (1, 3, 1.0),
            (0, 2, 1.0),
            (2, 4, 1.0),
            (1, 2, 100.0),
        ],
    );
    assert_eq!(certify_on_index(&g, 3, 4).edge_count(), 5);
}

/// Two foreign keys to the same row are two equal edges; the projected
/// community keeps both.
#[test]
fn projection_keeps_equal_parallel_edges() {
    let g = graph_from_edges(3, &[(0, 1, 1.0), (0, 1, 1.0), (0, 2, 1.0)]);
    assert_eq!(certify_on_index(&g, 1, 2).edge_count(), 3);
}

#[test]
fn all_engines_agree_on_a_dense_clique() {
    // Complete bidirected K5 with unit weights, keywords everywhere.
    let mut b = GraphBuilder::new(5);
    for u in 0..5u32 {
        for v in 0..5u32 {
            if u != v {
                b.add_edge(NodeId(u), NodeId(v), Weight::new(1.0));
            }
        }
    }
    let g = b.build();
    let q = spec(&[&[0, 1], &[2, 3], &[4]], 2.0);
    let pd: Vec<Core> = collect_all(&g, &q).into_iter().map(|c| c.core).collect();
    let bu: Vec<Core> = unguarded(bu_all_guarded(&g, &q, None, RunGuard::unlimited()))
        .communities
        .into_iter()
        .map(|c| c.core)
        .collect();
    let td: Vec<Core> = unguarded(td_all_guarded(&g, &q, None, RunGuard::unlimited()))
        .communities
        .into_iter()
        .map(|c| c.core)
        .collect();
    let norm = |mut v: Vec<Core>| {
        v.sort();
        v
    };
    let pd = norm(pd);
    assert_eq!(pd.len(), 4, "2×2×1 cores in the clique");
    assert_eq!(pd, norm(bu));
    assert_eq!(pd, norm(td));
}

#[test]
fn trees_respect_radius() {
    let g = graph_from_edges(3, &[(0, 1, 4.0), (1, 2, 4.0)]);
    // Root 0 reaches keyword node 2 at distance 8.
    let q8 = spec(&[&[2]], 8.0);
    assert!(topk_trees(&g, &q8, 10, &RunGuard::unlimited())
        .unwrap()
        .iter()
        .any(|t| t.root == NodeId(0)));
    let q7 = spec(&[&[2]], 7.0);
    assert!(!topk_trees(&g, &q7, 10, &RunGuard::unlimited())
        .unwrap()
        .iter()
        .any(|t| t.root == NodeId(0)));
}

#[test]
fn trees_return_the_reason_when_the_guard_trips() {
    let g = graph_from_edges(3, &[(0, 1, 4.0), (1, 2, 4.0)]);
    let q = spec(&[&[2], &[0]], 8.0);
    assert_eq!(
        topk_trees(&g, &q, 10, &RunGuard::unlimited()).map(|t| t.len()),
        Ok(1)
    );
    // The first forest sweep settles three nodes: a budget of one trips it.
    let starved = RunGuard::new().with_settled_budget(1);
    let err = topk_trees(&g, &q, 10, &starved);
    assert_eq!(err, Err(InterruptReason::SettledBudgetExhausted));
    let cancelled = RunGuard::new();
    cancelled.cancel();
    assert_eq!(
        topk_trees(&g, &q, 10, &cancelled),
        Err(InterruptReason::Cancelled)
    );
}

#[test]
fn trees_handle_zero_weight_edges() {
    // Regression: a zero-weight edge makes a node settle before its path
    // parent; tree materialization must still work (parent pointers, not
    // witness re-scans). 0 --0--> 1 --5--> 2(keyword).
    let g = graph_from_edges(3, &[(0, 1, 0.0), (1, 2, 5.0)]);
    let q = spec(&[&[2]], 6.0);
    let trees = topk_trees(&g, &q, 10, &RunGuard::unlimited()).unwrap();
    let t0 = trees.iter().find(|t| t.root == NodeId(0)).expect("root 0");
    assert_eq!(t0.weight, Weight::new(5.0));
    assert_eq!(t0.nodes(), vec![NodeId(0), NodeId(1), NodeId(2)]);
    // Path edges reconstruct the chain.
    assert_eq!(t0.edges.len(), 2);
}

#[test]
fn dijkstra_parent_pointers_reach_source() {
    use comm_graph::{DijkstraEngine, Direction};
    let g = graph_from_edges(5, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 4, 5.0)]);
    let mut eng = DijkstraEngine::new(5);
    let mut parent = [NodeId(0); 5];
    let mut seen = [false; 5];
    eng.run(&g, Direction::Forward, [NodeId(0)], Weight::INFINITY, |s| {
        parent[s.node.index()] = s.parent;
        seen[s.node.index()] = true;
        assert_eq!(s.source, NodeId(0));
    });
    // Walk parents from node 3 back to the seed.
    let mut u = NodeId(3);
    let mut hops = 0;
    while u != NodeId(0) {
        assert!(seen[u.index()]);
        u = parent[u.index()];
        hops += 1;
        assert!(hops <= 5, "parent chain must terminate");
    }
    assert_eq!(hops, 3);
}

#[test]
fn community_iterator_count_is_stable_across_runs() {
    // Determinism: two runs over the same inputs yield the same sequence.
    let g = graph_from_edges(
        6,
        &[
            (0, 1, 1.0),
            (1, 2, 2.0),
            (2, 3, 1.0),
            (3, 4, 2.0),
            (4, 5, 1.0),
            (5, 0, 2.0),
        ],
    );
    let q = spec(&[&[0, 3], &[1, 4], &[2, 5]], 9.0);
    let a: Vec<(Core, Weight)> = CommK::try_new(&g, &q)
        .unwrap()
        .map(|c| (c.core, c.cost))
        .collect();
    let b: Vec<(Core, Weight)> = CommK::try_new(&g, &q)
        .unwrap()
        .map(|c| (c.core, c.cost))
        .collect();
    assert_eq!(a, b);
    let c: Vec<Core> = collect_all(&g, &q).into_iter().map(|c| c.core).collect();
    let d: Vec<Core> = collect_all(&g, &q).into_iter().map(|c| c.core).collect();
    assert_eq!(c, d);
}

/// The conduit gadget: `0 → 1 → 2 → 3 → 4` with weights `0, a, b, d`, a
/// direct edge `0 → 4` of weight `rmax` that makes 0 a center whatever the
/// chain sums to, and `0 → 5`. Keywords `a = {4}`, `b = {5}`.
fn conduit_gadget(a: f64, b: f64, d: f64, rmax: f64) -> Graph {
    graph_from_edges(
        6,
        &[
            (0, 1, 0.0),
            (1, 2, a),
            (2, 3, b),
            (3, 4, d),
            (0, 4, rmax),
            (0, 5, 0.1),
        ],
    )
}

const CONDUIT_KEYWORDS: [(&str, &[NodeId]); 2] = [("a", &[NodeId(4)]), ("b", &[NodeId(5)])];

/// The mirror gadget: `0 → 1 → 2 → 3` at `0.1, 0.2, 0.3` and `0 → 4` at
/// `0.1`; keywords `a = {3}`, `b = {4}`, `Rmax = 0.6`.
fn mirror_gadget() -> Graph {
    graph_from_edges(5, &[(0, 1, 0.1), (1, 2, 0.2), (2, 3, 0.3), (0, 4, 0.1)])
}

const MIRROR_KEYWORDS: [(&str, &[NodeId]); 2] = [("a", &[NodeId(3)]), ("b", &[NodeId(4)])];

fn ids(v: &[u32]) -> Vec<NodeId> {
    v.iter().map(|&u| NodeId(u)).collect()
}

/// Every community of the query `kws` at `rmax` on `g`, as `(core,
/// members)` sorted by core — after checking that COMM-k, COMM-all and
/// COMM-k through an index of radius `rmax` return the same ones, each
/// certified against `g`.
fn answers_every_way(
    g: &Graph,
    kws: &[(&str, &[NodeId])],
    rmax: Weight,
) -> Vec<(Core, Vec<NodeId>)> {
    let q = QuerySpec::new(kws.iter().map(|(_, v)| v.to_vec()).collect(), rmax);
    let members = |cs: Vec<Community>| {
        let mut out: Vec<(Core, Vec<NodeId>)> = cs
            .into_iter()
            .map(|c| {
                check_community(g, &q, &c).unwrap();
                (c.core.clone(), c.nodes().to_vec())
            })
            .collect();
        out.sort();
        out
    };
    let guard = RunGuard::unlimited;
    let idx =
        ProjectionIndex::build_guarded(g, kws.iter().copied(), rmax, &guard(), &EnginePool::new())
            .unwrap();
    let names: Vec<&str> = kws.iter().map(|&(kw, _)| kw).collect();
    let cost = CostFn::SumDistances;
    let indexed = comm_k_on_index(&idx, &names, rmax, 100, cost, guard()).unwrap();
    let k = members(comm_k_guarded(g, &q, 100, guard()).unwrap().into_value());
    assert_eq!(members(collect_all(g, &q)), k, "COMM-all against COMM-k");
    assert_eq!(members(indexed.into_value()), k, "through the index");
    k
}

/// `0.3 + 0.2 + 0.1` is `Rmax = 0.6` folded from either end, so the whole
/// chain belongs to the community, on `G_D` and through the index alike.
/// (With `f64` path sums the fold from 4 came to `0.6000000000000001`,
/// and the index dropped 1 and 2.)
#[test]
fn conduit_gadget_keeps_the_whole_chain_every_way() {
    let g = conduit_gadget(0.3, 0.2, 0.1, 0.6);
    let answers = answers_every_way(&g, &CONDUIT_KEYWORDS, Weight::new(0.6));
    let core = Core(ids(&[4, 5]));
    assert_eq!(answers, vec![(core, ids(&[0, 1, 2, 3, 4, 5]))]);
}

/// One community, centered at 0, holding its keyword node 3 at distance
/// `0.1 + 0.2 + 0.3 = 0.6`. (With `f64` path sums `G_D` answered
/// `{0, 1, 4}` and the index answered nothing.)
#[test]
fn mirror_gadget_community_holds_its_own_keyword_node() {
    let answers = answers_every_way(&mirror_gadget(), &MIRROR_KEYWORDS, Weight::new(0.6));
    let core = Core(ids(&[3, 4]));
    assert_eq!(answers, vec![(core, ids(&[0, 1, 2, 3, 4]))]);
}

#[test]
fn a_community_without_its_keyword_node_is_rejected() {
    // The mirror gadget's old wrong answer, `{0, 1, 4}`, built by hand.
    let g = mirror_gadget();
    let q = spec(&[&[3], &[4]], 0.6);
    let right = collect_all(&g, &q).remove(0);
    let wrong = Community {
        path_nodes: ids(&[1]),
        subgraph: g.induce(&ids(&[0, 1, 4])),
        ..right.clone()
    };
    assert_eq!(
        check_community(&g, &q, &wrong),
        Err(CertificationError::MissingCoreNode {
            core: right.core,
            node: NodeId(3)
        })
    );
}

/// The conduit gadget over every ordered weight triple from `{0.1 … 0.9}`,
/// `Rmax` being what the chain folds to from the center. In `f64`, the
/// fold from the keyword node comes out larger in 121 triples, which made
/// node 1 a conduit no pinned set holds; as `Weight`s the two folds are one
/// sum, and the whole chain is the community every way.
#[test]
fn conduit_gadget_agrees_every_way_on_every_weight_triple() {
    let tenths = || (1..10).map(|k| f64::from(k) / 10.0);
    let w = Weight::new;
    let (mut float_conduits, mut conduits) = (0, 0);
    for a in tenths() {
        for b in tenths() {
            for d in tenths() {
                let rmax = (a + b) + d;
                float_conduits += usize::from((d + b) + a > rmax);
                conduits += usize::from((w(d) + w(b)) + w(a) > w(rmax));
                let g = conduit_gadget(a, b, d, rmax);
                let answers = answers_every_way(&g, &CONDUIT_KEYWORDS, w(rmax));
                let chain = ids(&[0, 1, 2, 3, 4, 5]);
                assert_eq!(answers[0].1, chain, "members at ({a}, {b}, {d})");
            }
        }
    }
    assert_eq!((float_conduits, conduits), (121, 0));
}
