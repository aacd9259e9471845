//! Connected-tree answers — the prior art the paper argues against.
//!
//! Keyword-search systems before this paper (BANKS, DISCOVER, SPARK, …)
//! return *minimal connected trees*: a root plus one shortest path to a
//! node per keyword. Sec. I shows why that is unsatisfying — Fig. 2's five
//! trees each reveal a fragment of the Kate/Smith relationship that
//! Fig. 3's single community captures whole.
//!
//! This module implements the tree model so the two result shapes can be
//! compared in code: a [`TreeAnswer`] is a `(root, core)` pair — the root
//! reaches one chosen keyword node per keyword within `Rmax` — whose
//! answer tree is the union of the root→knode shortest paths, weighted by
//! their total. Communities relate to trees exactly as the paper says: a
//! community with core `C` *aggregates every tree answer whose core is
//! `C`* (one per center, and more), which
//! [`trees_subsumed_by_community`] makes checkable.

use crate::types::{Community, Core, QuerySpec};
use comm_graph::{DijkstraEngine, Direction, Graph, InterruptReason, NodeId, RunGuard, Weight};
use std::collections::{BinaryHeap, HashMap};
use std::mem::{size_of, size_of_val};

/// One minimal connected tree answer.
#[derive(Clone, Debug, PartialEq)]
pub struct TreeAnswer {
    /// The tree's root (the paper's "center" of a single-center answer).
    pub root: NodeId,
    /// The keyword nodes the tree connects, positionally per keyword.
    pub core: Core,
    /// Total weight: `Σ_i dist(root, core[i])`.
    pub weight: Weight,
    /// The union of the root→knode shortest-path edges, deduplicated.
    pub edges: Vec<(NodeId, NodeId, Weight)>,
}

impl TreeAnswer {
    /// The distinct nodes of the tree (root, knodes, and path nodes).
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .edges
            .iter()
            .flat_map(|&(u, w, _)| [u, w])
            .chain([self.root])
            .chain(self.core.0.iter().copied())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// Per-dimension shortest-path forests from the keyword nodes, with parent
/// pointers so root→knode paths can be materialized.
struct Forest {
    /// `dist[i][u]`: shortest distance from `u` to its nearest `V_i` node.
    dist: Vec<Vec<Weight>>,
    /// `next[i][u]`: the next hop on that shortest path (toward the knode).
    next: Vec<Vec<u32>>,
    /// `target[i][u]`: the knode the path ends at.
    target: Vec<Vec<u32>>,
}

const NONE: u32 = u32::MAX;

/// Bytes of a [`Forest`]'s three `l × n` arrays.
fn forest_bytes(l: usize, n: usize) -> usize {
    l * n * (size_of::<Weight>() + 2 * size_of::<u32>())
}

fn grow_forest(
    graph: &Graph,
    spec: &QuerySpec,
    engine: &mut DijkstraEngine,
    guard: &RunGuard,
) -> Result<Forest, InterruptReason> {
    let n = graph.node_count();
    let l = spec.l();
    guard.check_bytes(forest_bytes(l, n))?;
    let mut forest = Forest {
        dist: vec![vec![Weight::INFINITY; n]; l],
        next: vec![vec![NONE; n]; l],
        target: vec![vec![NONE; n]; l],
    };
    for (i, v_i) in spec.keyword_nodes.iter().enumerate() {
        // Reverse Dijkstra from the keyword nodes. The engine's parent
        // pointer is the previous hop of the (reverse-graph) shortest path
        // — i.e. exactly the next hop toward the knode in forward
        // direction — so path materialization needs no edge re-scanning
        // and is robust to ties and zero-weight edges.
        let dist = &mut forest.dist[i];
        let next = &mut forest.next[i];
        let target = &mut forest.target[i];
        engine.run_guarded(
            graph,
            Direction::Reverse,
            v_i.iter().copied(),
            spec.rmax,
            guard,
            |s| {
                let u = s.node;
                dist[u.index()] = s.dist;
                target[u.index()] = s.source.0;
                if s.node != s.parent {
                    next[u.index()] = s.parent.0;
                }
            },
        )?;
    }
    Ok(forest)
}

/// Enumerates the top-k minimal connected trees of an l-keyword query:
/// one answer per `(root, nearest-target combination)` pair, ranked by
/// total weight (ties by root id then core). Every node that reaches all
/// keywords within `Rmax` roots exactly one tree here (its shortest-path
/// tree); this is the classic distinct-root semantics of BANKS.
///
/// The `l` forest sweeps run under `guard`. A forest has no useful
/// prefix — a root is ranked only once every sweep has reached it — so a
/// trip returns the bare reason.
pub fn topk_trees(
    graph: &Graph,
    spec: &QuerySpec,
    k: usize,
    guard: &RunGuard,
) -> Result<Vec<TreeAnswer>, InterruptReason> {
    let n = graph.node_count();
    let l = spec.l();
    if spec.has_empty_keyword() || k == 0 || l == 0 {
        return Ok(Vec::new());
    }
    let mut engine = DijkstraEngine::new(n);
    let forest = grow_forest(graph, spec, &mut engine, guard)?;

    // Rank roots by total distance with a bounded max-heap of size k. The
    // heap and then the trees are charged to the guard's byte budget, on
    // top of the forest.
    let held = forest_bytes(l, n);
    let mut heap: BinaryHeap<(Weight, NodeId)> = BinaryHeap::new();
    for u in graph.nodes() {
        if (0..l).all(|i| forest.dist[i][u.index()].is_finite()) {
            guard.check_bytes(held + heap.len() * size_of::<(Weight, NodeId)>())?;
            let total: Weight = (0..l).map(|i| forest.dist[i][u.index()]).sum();
            heap.push((total, u));
            if heap.len() > k {
                heap.pop();
            }
        }
    }
    let mut picked: Vec<(Weight, NodeId)> = heap.into_vec();
    picked.sort_unstable();

    let mut trees = Vec::with_capacity(picked.len());
    let mut bytes = held;
    for (weight, root) in picked {
        guard.check_bytes(bytes)?;
        let mut edges: HashMap<(NodeId, NodeId), Weight> = HashMap::new();
        let mut core = Vec::with_capacity(l);
        for i in 0..l {
            let mut u = root;
            while forest.dist[i][u.index()] > Weight::ZERO {
                let v = NodeId(forest.next[i][u.index()]);
                let (du, dv) = (forest.dist[i][u.index()], forest.dist[i][v.index()]);
                let w = Weight::from_units(du.units().saturating_sub(dv.units()));
                edges.insert((u, v), w);
                u = v;
            }
            core.push(NodeId(forest.target[i][root.index()]));
        }
        let mut edges: Vec<(NodeId, NodeId, Weight)> =
            edges.into_iter().map(|((u, v), w)| (u, v, w)).collect();
        edges.sort_unstable_by_key(|&(u, v, _)| (u, v));
        bytes += size_of_val(edges.as_slice()) + size_of_val(core.as_slice());
        trees.push(TreeAnswer {
            root,
            core: Core(core),
            weight,
            edges,
        });
    }
    Ok(trees)
}

/// The paper's subsumption claim, checkable: every tree answer whose core
/// equals the community's core lies entirely inside the community's node
/// set. Returns the subset of `trees` subsumed by `community`.
pub fn trees_subsumed_by_community<'t>(
    community: &Community,
    trees: &'t [TreeAnswer],
) -> Vec<&'t TreeAnswer> {
    trees
        .iter()
        .filter(|t| {
            t.core == community.core
                && t.nodes()
                    .iter()
                    .all(|u| community.nodes().binary_search(u).is_ok())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::collect_top_k;
    use comm_datasets::paper_example::{
        fig1_graph, fig1_keyword_nodes, fig4_graph, fig4_keyword_nodes, FIG4_RMAX,
    };

    fn top(g: &Graph, spec: &QuerySpec, k: usize) -> Vec<TreeAnswer> {
        topk_trees(g, spec, k, &RunGuard::unlimited()).unwrap()
    }

    #[test]
    fn fig1_trees_include_t1_and_t3() {
        // The Kate/Smith query: paper1 roots the weight-3 tree T1
        // (John Smith —1— paper1 —2— Kate Green); paper2 roots T3.
        let g = fig1_graph();
        let spec = QuerySpec::new(fig1_keyword_nodes(), Weight::new(6.0));
        let trees = top(&g, &spec, 10);
        assert!(!trees.is_empty());
        // Paper1 is node 3, Paper2 is node 4 (Fig1Node ordering).
        let p1 = trees.iter().find(|t| t.root == NodeId(3)).expect("T1");
        assert_eq!(p1.weight, Weight::new(3.0));
        assert_eq!(p1.edges.len(), 2);
        let p2 = trees.iter().find(|t| t.root == NodeId(4)).expect("T3");
        assert_eq!(p2.weight, Weight::new(3.0));
        // Ranked by weight, non-decreasing.
        for w in trees.windows(2) {
            assert!(w[0].weight <= w[1].weight);
        }
    }

    #[test]
    fn fig4_best_tree_matches_best_community_cost() {
        // The best tree's weight equals the best community's cost: both
        // minimize Σ dist(center/root, knode).
        let g = fig4_graph();
        let spec = QuerySpec::new(fig4_keyword_nodes(), Weight::new(FIG4_RMAX));
        let trees = top(&g, &spec, 5);
        assert_eq!(trees[0].weight, Weight::new(7.0));
        assert_eq!(trees[0].root, NodeId(7));
        assert_eq!(trees[0].core, Core(vec![NodeId(4), NodeId(8), NodeId(6)]));
    }

    #[test]
    fn tree_paths_are_shortest_paths() {
        let g = fig4_graph();
        let spec = QuerySpec::new(fig4_keyword_nodes(), Weight::new(FIG4_RMAX));
        for t in top(&g, &spec, 20) {
            // The per-keyword path weights sum to the tree weight only if
            // paths are disjoint; but each path's length must equal the
            // true shortest distance.
            let mut engine = DijkstraEngine::new(g.node_count());
            let d = engine.distances(&g, Direction::Forward, t.root);
            let total: Weight = t.core.0.iter().map(|c| d[c.index()]).sum();
            assert_eq!(total, t.weight);
            for &c in &t.core.0 {
                assert!(d[c.index()] <= spec.rmax);
            }
        }
    }

    #[test]
    fn community_subsumes_its_trees() {
        // Fig. 3's story: the community for a core contains every tree
        // answer with that core.
        let g = fig1_graph();
        let spec = QuerySpec::new(fig1_keyword_nodes(), Weight::new(6.0));
        let communities = collect_top_k(&g, &spec, 10);
        let trees = top(&g, &spec, 50);
        let mut subsumed_total = 0;
        for c in &communities {
            subsumed_total += trees_subsumed_by_community(c, &trees).len();
        }
        assert!(
            subsumed_total >= 2,
            "communities should subsume multiple tree answers"
        );
    }

    #[test]
    fn k_bounds_and_empty_cases() {
        let g = fig4_graph();
        let spec = QuerySpec::new(fig4_keyword_nodes(), Weight::new(FIG4_RMAX));
        assert_eq!(top(&g, &spec, 0).len(), 0);
        assert_eq!(top(&g, &spec, 3).len(), 3);
        let empty = QuerySpec::new(vec![vec![], vec![NodeId(1)]], Weight::new(5.0));
        assert!(top(&g, &empty, 5).is_empty());
    }

    #[test]
    fn more_trees_than_communities_on_fig4() {
        // The "too many trees" problem of Sec. I: distinct-root trees
        // outnumber communities for the same query.
        let g = fig4_graph();
        let spec = QuerySpec::new(fig4_keyword_nodes(), Weight::new(FIG4_RMAX));
        let trees = top(&g, &spec, 1000);
        let communities = collect_top_k(&g, &spec, 1000);
        assert!(trees.len() > communities.len());
    }
}
