//! `GetCommunity()` (Algorithm 4): materializing the unique community of a
//! core.
//!
//! Given a core `C`, the community `R(V, E)` is determined by three
//! distance fields:
//!
//! 1. **centers** `V_c`: `u` is a center iff it reaches every knode within
//!    `Rmax` — one reverse Dijkstra per core position;
//! 2. **forward** distances `dist(s, u)` from a virtual source `s` hooked to
//!    all centers with zero-weight edges (one multi-source Dijkstra);
//! 3. **backward** distances `dist(u, t)` to a virtual sink `t` hooked from
//!    all knodes;
//!
//! and `V = { u | dist(s,u) + dist(u,t) ≤ Rmax }` — centers, knodes, and all
//! path nodes. The induced subgraph over `V` is the community.
//!
//! Fields 1 and 3 are exactly what a [`NeighborSets`] table *pinned* to `C`
//! (dimension `i` seeded with the single node `c_i`) already holds: the
//! centers are the nodes with `count == l`, a center's cost is its
//! dimension-order total, and `dist(u, t) = min_i dist(u, c_i)`. So
//! [`community_of_pinned`] runs only the forward sweep; the enumerators pin
//! once per community and read the table, the baselines re-pin one table
//! per run, and the stand-alone [`get_community_guarded`] pins a fresh
//! table — all through the same body.
//!
//! That forward sweep is *sink-bounded*: a member needs a finite
//! `dist(u, t)`, so the sweep relaxes only into nodes some pinned
//! dimension holds (`count > 0`), plus — because a float path sum depends
//! on the end it is folded from — anything still within [`slack`] of the
//! centers. The member test is the unbounded sweep's, and so is the member
//! set, bit for bit (DESIGN.md "Projection index", argument 4, has the
//! proof and the six-node gadget that breaks every cheaper rule). On a
//! dense graph the unbounded sweep settled twenty nodes for every one it
//! could keep.

use crate::neighbor::NeighborSets;
use crate::types::{Community, Core, CostFn};
use comm_graph::{DijkstraEngine, Direction, Graph, InterruptReason, RunGuard, Weight};

/// The tentative distance below which a sink-bounded forward sweep still
/// relaxes into a node that reaches no keyword node within `rmax`:
/// `rmax · 2⁻¹⁶`.
///
/// Such a node is never a member, but — float path sums not being
/// associative — it can be the only conduit to one. DESIGN.md "Projection
/// index", argument 4, bounds how far from the centers a conduit can sit
/// by `rmax · 2⁻¹⁸`; only zero- and near-zero-weight edges out of a
/// center get there.
pub(crate) fn slack(rmax: Weight) -> Weight {
    Weight::new(rmax.get() / 65536.0)
}

/// Materializes the community uniquely determined by `core` under
/// `cost_fn`, consulting `guard` per settled node of every sweep.
///
/// Returns `Ok(None)` if the core admits no center within `rmax` — never
/// the case for cores produced by `BestCore()`, but possible for arbitrary
/// caller-supplied cores, including an empty core, one longer than
/// [`MAX_KEYWORDS`](crate::MAX_KEYWORDS), or one naming a node outside
/// `graph`. There is no meaningful partial community, so an interrupted
/// materialization returns the bare reason.
pub fn get_community_guarded(
    graph: &Graph,
    engine: &mut DijkstraEngine,
    core: &Core,
    rmax: Weight,
    cost_fn: CostFn,
    guard: &RunGuard,
) -> Result<Option<Community>, InterruptReason> {
    let n = graph.node_count();
    if core.0.iter().any(|v| v.index() >= n) {
        return Ok(None);
    }
    let Ok(mut table) = NeighborSets::try_new(core.len(), n) else {
        return Ok(None);
    };
    get_community_in(graph, engine, &mut table, core, rmax, cost_fn, guard)
}

/// [`get_community_guarded`] for a caller that materializes many cores of
/// one query: pins `table` (any `l`-dimension table over `graph`,
/// whatever it holds) to `core` and reads the community off it. Re-pinning
/// costs the old and the new sweeps' settled nodes, not a fresh `O(l·n)`
/// table per core.
pub(crate) fn get_community_in(
    graph: &Graph,
    engine: &mut DijkstraEngine,
    table: &mut NeighborSets,
    core: &Core,
    rmax: Weight,
    cost_fn: CostFn,
    guard: &RunGuard,
) -> Result<Option<Community>, InterruptReason> {
    debug_assert_eq!(table.l(), core.len());
    for (i, &c) in core.0.iter().enumerate() {
        table.recompute_dim_guarded(graph, engine, i, [c], rmax, guard)?;
    }
    community_of_pinned(graph, engine, table, core, rmax, cost_fn, guard)
}

/// `GetCommunity()` over a table already pinned to `core`: dimension `i`
/// of `pinned` must hold `Neighbor({c_i}, rmax)`. Centers, cost and the
/// sink distances are read from the table; the forward sweep from the
/// centers is the only Dijkstra left.
///
/// The cost is the table's own dimension-order total, so for a core found
/// by `BestCore()` it is bit-equal to the cost that ranked it.
pub(crate) fn community_of_pinned(
    graph: &Graph,
    engine: &mut DijkstraEngine,
    pinned: &NeighborSets,
    core: &Core,
    rmax: Weight,
    cost_fn: CostFn,
    guard: &RunGuard,
) -> Result<Option<Community>, InterruptReason> {
    let centers = pinned.intersection();
    let center_costs = centers.iter().map(|&u| pinned.center_cost(u, cost_fn));
    let Some(cost) = center_costs.min() else {
        return Ok(None);
    };

    // dist(s, u) from the forward sweep, dist(u, t) from the table. The
    // sweep is sink-bounded: it enters a node no pinned dimension holds
    // only within `slack` of the centers (a member's path cannot leave
    // the pinned sets any farther out), the member test is unchanged.
    let slack = slack(rmax);
    let mut members = Vec::new();
    engine.run_rows_guarded(
        graph.rows(Direction::Forward),
        centers.iter().copied(),
        rmax,
        guard,
        |v, nd| pinned.count(v) > 0 || nd < slack,
        |s| {
            let to_sink = pinned.nearest(s.node);
            if to_sink.is_finite() && s.dist + to_sink <= rmax {
                members.push(s.node);
            }
        },
    )?;
    members.sort_unstable();

    let knodes = core.distinct_nodes();
    debug_assert!(centers.iter().all(|c| members.binary_search(c).is_ok()));
    debug_assert!(knodes.iter().all(|c| members.binary_search(c).is_ok()));

    let subgraph = graph.induce(&members);
    let path_nodes = members
        .iter()
        .copied()
        .filter(|u| centers.binary_search(u).is_err() && knodes.binary_search(u).is_err())
        .collect();

    Ok(Some(Community {
        core: core.clone(),
        cost,
        centers,
        knodes,
        path_nodes,
        subgraph,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use comm_datasets::paper_example::{fig4_graph, FIG4_RMAX};
    use comm_graph::NodeId;

    fn comm_with(core: &[u32], rmax: f64, cost_fn: CostFn) -> Option<Community> {
        let g = fig4_graph();
        let mut eng = DijkstraEngine::new(g.node_count());
        get_community_guarded(
            &g,
            &mut eng,
            &Core(core.iter().map(|&c| NodeId(c)).collect()),
            Weight::new(rmax),
            cost_fn,
            &RunGuard::unlimited(),
        )
        .unwrap()
    }

    fn comm(core: &[u32], rmax: f64) -> Option<Community> {
        comm_with(core, rmax, CostFn::SumDistances)
    }

    #[test]
    fn r5_matches_paper_fig7() {
        // Core [v13, v8, v11]: V_c = {v11, v12}, V_p = {v10} (paper Fig. 7).
        let c = comm(&[13, 8, 11], FIG4_RMAX).unwrap();
        assert_eq!(c.centers, vec![NodeId(11), NodeId(12)]);
        assert_eq!(c.path_nodes, vec![NodeId(10)]);
        assert_eq!(c.cost, Weight::new(11.0));
        assert_eq!(
            c.nodes(),
            &[NodeId(8), NodeId(10), NodeId(11), NodeId(12), NodeId(13)]
        );
        // knodes sorted & deduped.
        assert_eq!(c.knodes, vec![NodeId(8), NodeId(11), NodeId(13)]);
    }

    #[test]
    fn r3_centers_and_cost() {
        // Table I rank 1: core [v4, v8, v6], centers {v4, v7}, cost 7.
        let c = comm(&[4, 8, 6], FIG4_RMAX).unwrap();
        assert_eq!(c.centers, vec![NodeId(4), NodeId(7)]);
        assert_eq!(c.cost, Weight::new(7.0));
    }

    #[test]
    fn all_table1_communities() {
        for (_, core, cost, centers) in comm_datasets::paper_example::fig4_table1() {
            let c = comm(&core, FIG4_RMAX).unwrap();
            assert_eq!(c.cost, Weight::new(cost), "core {core:?}");
            let got: Vec<u32> = c.centers.iter().map(|n| n.0).collect();
            assert_eq!(got, centers, "centers of {core:?}");
        }
    }

    #[test]
    fn centerless_core_returns_none() {
        // v2 and v13 have no common ancestor within 8.
        assert!(comm(&[13, 2, 9], FIG4_RMAX).is_none());
    }

    #[test]
    fn community_subgraph_is_induced() {
        let g = fig4_graph();
        let c = comm(&[13, 8, 11], FIG4_RMAX).unwrap();
        // Every G_D edge between community members must be present.
        let members = c.nodes();
        let mut expect = 0;
        for &u in members {
            for (v, _) in g.out_neighbors(u) {
                if members.binary_search(&v).is_ok() {
                    expect += 1;
                }
            }
        }
        assert_eq!(c.edge_count(), expect);
        assert_eq!(c.node_count(), 5);
        // Includes the v11→v12 / v12→v11 pair and v12→v13 etc.
        let local_11 = c.subgraph.to_local(NodeId(11)).unwrap();
        let local_12 = c.subgraph.to_local(NodeId(12)).unwrap();
        assert!(c.subgraph.graph.has_edge(local_11, local_12));
        assert!(c.subgraph.graph.has_edge(local_12, local_11));
    }

    #[test]
    fn duplicate_keyword_node_counts_twice() {
        // Core [v6, v6]: a node carrying both keywords. Center v7 has
        // sum = 2·dist(v7, v6) = 4.
        let c = comm(&[6, 6], FIG4_RMAX).unwrap();
        assert!(c.centers.contains(&NodeId(6)));
        assert_eq!(c.cost, Weight::ZERO); // v6 itself is a zero-cost center
        assert_eq!(c.knodes, vec![NodeId(6)]);
    }

    #[test]
    fn max_distance_cost() {
        // Core [v13, v8, v11]: center v11 has per-knode distances
        // {6, 5, 0} → max 6; center v12 has {3, 8, 3} → max 8. Cost = 6.
        let c = comm_with(&[13, 8, 11], FIG4_RMAX, CostFn::MaxDistance).unwrap();
        assert_eq!(c.cost, Weight::new(6.0));
        // Membership is cost-independent.
        assert_eq!(c.centers, vec![NodeId(11), NodeId(12)]);
    }

    #[test]
    fn radius_shrinks_community() {
        let big = comm(&[13, 8, 11], 8.0).unwrap();
        // With Rmax = 6, v12 can no longer reach v8 (dist 8): only v11
        // remains a center (5 + 0 + 6 = 11 > ... per-knode bound is 6: v11
        // reaches v8 at 5, v13 at 6, itself at 0 — still a center).
        let small = comm(&[13, 8, 11], 6.0).unwrap();
        assert_eq!(small.centers, vec![NodeId(11)]);
        assert!(small.node_count() <= big.node_count());
    }

    #[test]
    fn malformed_cores_have_no_center() {
        // An empty core or a node outside the graph is "no centre", not
        // an out-of-bounds index.
        assert!(comm(&[], FIG4_RMAX).is_none());
        assert!(comm(&[13, 999, 11], FIG4_RMAX).is_none());
    }

    #[test]
    fn forward_sweep_stays_inside_the_pinned_sets() {
        // Every weight of the dense scenario is ≥ 1, far above the slack,
        // so the sweep from the centers may settle only nodes some pinned
        // dimension holds — the unpruned sweep ran past them on most cores.
        let (g, spec) = crate::testing::dense_scenario();
        let n = g.node_count();
        let mut eng = DijkstraEngine::new(n);
        let mut table = NeighborSets::new(spec.l(), n);
        let guard = RunGuard::new();
        let top = crate::testing::collect_top_k(&g, &spec, 60);
        assert_eq!(top.len(), 60);
        for want in top {
            for (i, &c) in want.core.0.iter().enumerate() {
                table
                    .recompute_dim_guarded(&g, &mut eng, i, [c], spec.rmax, &guard)
                    .unwrap();
            }
            let pinned = (0..n as u32).filter(|&u| table.count(NodeId(u)) > 0);
            let before = guard.settled();
            let got = community_of_pinned(
                &g, &mut eng, &table, &want.core, spec.rmax, spec.cost, &guard,
            );
            let swept = guard.settled() - before;
            assert!(
                swept <= pinned.count() as u64,
                "{swept} settled for {:?}",
                want.core
            );
            assert_eq!(got.unwrap().unwrap().nodes(), want.nodes());
        }
    }

    #[test]
    fn path_node_inclusion_respects_radius() {
        // For core [v13, v8, v11] with Rmax = 8, v10 qualifies because
        // dist(s, v10) + dist(v10, t) = 2 + 3 = 5 ≤ 8.
        let c = comm(&[13, 8, 11], 8.0).unwrap();
        assert!(c.path_nodes.contains(&NodeId(10)));
        // v9 reaches v8/v13 but is unreachable FROM the centers → excluded.
        assert!(!c.nodes().contains(&NodeId(9)));
    }
}
