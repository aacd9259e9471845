// xtask-allow-file: guard_coverage — brute-force oracles exist to cross-check the real engines in tests
//! The naive nested-loop enumerator of Sec. III: check every combination of
//! `V_1 × … × V_l` (`O(n^l)`), keeping those that admit a center.
//!
//! It is exponential in `l`, but trivially complete and duplication-free,
//! which makes it the ground-truth oracle for the property tests of the
//! polynomial-delay algorithms and the expanding baselines. It is also a
//! legitimate (terrible) baseline in its own right.

use crate::types::{Core, QuerySpec};
use comm_graph::weight::index_to_u32;
use comm_graph::{DijkstraEngine, Direction, Graph, NodeId, Weight};

/// All cores with their costs, computed by brute force.
///
/// Returns `(core, cost)` pairs sorted by `(cost, core)`; the cost is
/// `min_u Σ_i dist(u, c_i)` over all centers `u` reaching every `c_i`
/// within `rmax`.
pub fn naive_all_cores(graph: &Graph, spec: &QuerySpec) -> Vec<(Core, Weight)> {
    let n = graph.node_count();
    let l = spec.l();
    if spec.has_empty_keyword() || l == 0 {
        return Vec::new();
    }

    // dist_to[v] = per-node distance *to* keyword node v (reverse Dijkstra).
    let mut engine = DijkstraEngine::new(n);
    let mut keyword_union: Vec<NodeId> = spec.keyword_nodes.iter().flatten().copied().collect();
    keyword_union.sort_unstable();
    keyword_union.dedup();
    let mut dist_to: Vec<Vec<Weight>> = Vec::with_capacity(keyword_union.len());
    for &v in &keyword_union {
        let mut d = vec![Weight::INFINITY; n];
        engine.run(graph, Direction::Reverse, [v], spec.rmax, |s| {
            d[s.node.index()] = s.dist;
        });
        dist_to.push(d);
    }
    #[expect(
        clippy::expect_used,
        reason = "slot() is only called on members of keyword_union"
    )]
    let slot = |v: NodeId| keyword_union.binary_search(&v).expect("keyword node");

    let mut out: Vec<(Core, Weight)> = Vec::new();
    let mut combo = vec![0usize; l];
    'outer: loop {
        // Evaluate the current combination.
        let core: Vec<NodeId> = (0..l).map(|i| spec.keyword_nodes[i][combo[i]]).collect();
        let mut best = Weight::INFINITY;
        #[allow(clippy::needless_range_loop)] // u indexes l parallel arrays
        for u in 0..n {
            let mut dists = Vec::with_capacity(l);
            let mut ok = true;
            for &c in &core {
                let d = dist_to[slot(c)][u];
                if !d.is_finite() {
                    ok = false;
                    break;
                }
                dists.push(d);
            }
            if ok {
                let s = spec.cost.combine(dists);
                if s < best {
                    best = s;
                }
            }
        }
        if best.is_finite() {
            out.push((Core(core), best));
        }
        // Advance the odometer.
        for i in (0..l).rev() {
            combo[i] += 1;
            if combo[i] < spec.keyword_nodes[i].len() {
                continue 'outer;
            }
            combo[i] = 0;
            if i == 0 {
                break 'outer;
            }
        }
    }
    out.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    out
}

/// Brute-force re-derivation of a community's node roles, straight from
/// Definition 2.1 (used to cross-check `GetCommunity`).
///
/// Returns `(centers, all_members)`, both sorted.
pub fn naive_community_nodes(
    graph: &Graph,
    core: &Core,
    rmax: Weight,
) -> (Vec<NodeId>, Vec<NodeId>) {
    let n = graph.node_count();
    let mut engine = DijkstraEngine::new(n);
    let distinct = core.distinct_nodes();

    // dist(u, c) for every u, per knode c.
    let mut dist_to = Vec::new();
    for &c in &distinct {
        let mut d = vec![Weight::INFINITY; n];
        engine.run(graph, Direction::Reverse, [c], rmax, |s| {
            d[s.node.index()] = s.dist;
        });
        dist_to.push(d);
    }
    let centers: Vec<NodeId> = (0..n)
        .filter(|&u| dist_to.iter().all(|d| d[u].is_finite()))
        .map(|u| NodeId(index_to_u32(u)))
        .collect();
    if centers.is_empty() {
        return (Vec::new(), Vec::new());
    }

    // dist(v_c, x) for every x, per center (forward).
    let mut members: Vec<NodeId> = Vec::new();
    let mut dist_from_center = vec![Weight::INFINITY; n];
    engine.run(
        graph,
        Direction::Forward,
        centers.iter().copied(),
        rmax,
        |s| {
            dist_from_center[s.node.index()] = s.dist;
        },
    );
    for u in 0..n {
        if !dist_from_center[u].is_finite() {
            continue;
        }
        let to_knode = dist_to
            .iter()
            .map(|d| d[u])
            .min()
            .unwrap_or(Weight::INFINITY);
        if to_knode.is_finite() && dist_from_center[u] + to_knode <= rmax {
            members.push(NodeId(index_to_u32(u)));
        }
    }
    members.sort_unstable();
    (centers, members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::CostFn;
    use comm_datasets::paper_example::{fig4_graph, fig4_keyword_nodes, fig4_table1, FIG4_RMAX};

    #[test]
    fn max_cost_reorders_table1() {
        let g = fig4_graph();
        let spec = QuerySpec::new(fig4_keyword_nodes(), Weight::new(FIG4_RMAX))
            .with_cost(CostFn::MaxDistance);
        let cores = naive_all_cores(&g, &spec);
        assert_eq!(cores.len(), 5, "cost fn must not change the result set");
        // Under max-distance, [v4,v8,v6] still wins (max 3 at v7).
        assert_eq!(cores[0].0, Core(vec![NodeId(4), NodeId(8), NodeId(6)]));
        assert_eq!(cores[0].1, Weight::new(3.0));
    }

    #[test]
    fn naive_matches_table1_exactly() {
        let g = fig4_graph();
        let spec = QuerySpec::new(fig4_keyword_nodes(), Weight::new(FIG4_RMAX));
        let cores = naive_all_cores(&g, &spec);
        let got: Vec<(Vec<u32>, f64)> = cores
            .iter()
            .map(|(c, w)| (c.0.iter().map(|n| n.0).collect(), w.get()))
            .collect();
        let expect: Vec<(Vec<u32>, f64)> = fig4_table1()
            .into_iter()
            .map(|(_, core, cost, _)| (core.to_vec(), cost))
            .collect();
        assert_eq!(
            got, expect,
            "naive enumeration must reproduce Table I in rank order"
        );
    }

    #[test]
    fn naive_community_roles_match_paper() {
        let g = fig4_graph();
        let core = Core(vec![NodeId(13), NodeId(8), NodeId(11)]);
        let (centers, members) = naive_community_nodes(&g, &core, Weight::new(FIG4_RMAX));
        assert_eq!(centers, vec![NodeId(11), NodeId(12)]);
        assert_eq!(
            members,
            vec![NodeId(8), NodeId(10), NodeId(11), NodeId(12), NodeId(13)]
        );
    }

    #[test]
    fn empty_when_keyword_unmatched() {
        let g = fig4_graph();
        let spec = QuerySpec::new(vec![vec![NodeId(4)], vec![]], Weight::new(8.0));
        assert!(naive_all_cores(&g, &spec).is_empty());
    }
}
