//! Independent certification of query answers.
//!
//! Everything here re-derives community structure from Definition 2.1 with
//! a *self-contained* truncated Dijkstra over `std::collections::BinaryHeap`
//! — deliberately sharing no code with [`DijkstraEngine`](comm_graph::DijkstraEngine)
//! or the `Neighbor()` table and its bookkeeping — so a bug in the
//! optimized engines cannot certify its own output. The one thing shared
//! is the cost's *definition*, [`CostFn::combine`](crate::CostFn::combine)
//! over a center's distances in keyword order `i = 1..l`.
//!
//! * [`check_community`] certifies one [`Community`] against a
//!   [`QuerySpec`]: knodes, centers, cost, that it holds its centers and
//!   knodes, membership, path-node roles, and induced edge count;
//! * [`check_enumeration`] certifies a `COMM-all`/`COMM-k` result stream:
//!   every community certified, cores pairwise distinct;
//! * [`check_ranking`] checks ranked (`COMM-k`) output for non-decreasing
//!   costs;
//! * [`check_topk_prefix`] checks that a top-k answer heads the full
//!   enumeration's sorted cost multiset (equal-cost ties may be ordered
//!   either way).

use crate::types::{Community, Core, QuerySpec};
use comm_graph::weight::index_to_u32;
use comm_graph::{Direction, Graph, InterruptReason, NodeId, RunGuard, Weight};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::fmt;

/// Why a certification failed.
///
/// The `*Mismatch` variants carry both the independently recomputed value
/// (`expected`) and the value the answer claimed (`got`).
#[derive(Clone, Debug, PartialEq)]
pub enum CertificationError {
    /// The core's length disagrees with the query's keyword count.
    CoreArity {
        /// The query's `l`.
        expected: usize,
        /// The core's length.
        got: usize,
    },
    /// A core node does not belong to its keyword's node set `V_i`.
    KnodeOutsideKeywordSet {
        /// The keyword position.
        dim: usize,
        /// The offending node.
        node: NodeId,
    },
    /// The community's knode list is not the sorted distinct core.
    WrongKnodes {
        /// The community's core.
        core: Core,
        /// The recomputed knodes.
        expected: Vec<NodeId>,
        /// The claimed knodes.
        got: Vec<NodeId>,
    },
    /// The claimed center set differs from the recomputed one.
    CentersMismatch {
        /// The community's core.
        core: Core,
        /// The recomputed centers.
        expected: Vec<NodeId>,
        /// The claimed centers.
        got: Vec<NodeId>,
    },
    /// The claimed cost differs from the recomputed one.
    CostMismatch {
        /// The community's core.
        core: Core,
        /// The recomputed cost.
        expected: Weight,
        /// The claimed cost.
        got: Weight,
    },
    /// The community lacks one of its own centers or knodes.
    MissingCoreNode {
        /// The community's core.
        core: Core,
        /// The center or knode it lacks.
        node: NodeId,
    },
    /// The claimed member set differs from the recomputed one.
    MembersMismatch {
        /// The community's core.
        core: Core,
        /// The recomputed members.
        expected: Vec<NodeId>,
        /// The claimed members.
        got: Vec<NodeId>,
    },
    /// The claimed path nodes are not exactly members − centers − knodes.
    PathNodesMismatch {
        /// The community's core.
        core: Core,
        /// The recomputed path nodes.
        expected: Vec<NodeId>,
        /// The claimed path nodes.
        got: Vec<NodeId>,
    },
    /// The community's subgraph does not hold every `G_D` edge between
    /// members.
    EdgeCountMismatch {
        /// The community's core.
        core: Core,
        /// The recomputed induced edge count.
        expected: usize,
        /// The subgraph's edge count.
        got: usize,
    },
    /// Two communities in an enumeration share a core.
    DuplicateCore {
        /// The index of the second occurrence.
        index: usize,
    },
    /// A ranked answer's costs decrease somewhere.
    CostsNotMonotone {
        /// The index at which the cost dropped.
        index: usize,
        /// The cost before the drop.
        prev: Weight,
        /// The cost at `index`.
        next: Weight,
    },
    /// A top-k answer holds more communities than the full enumeration.
    TopKLongerThanAll {
        /// The top-k length.
        topk: usize,
        /// The full enumeration's length.
        all: usize,
    },
    /// A top-k answer's cost sequence is not a prefix of the full
    /// ranking's.
    TopKNotPrefix {
        /// The first disagreeing rank.
        index: usize,
        /// The top-k cost at that rank.
        topk: Weight,
        /// The full ranking's cost at that rank.
        all: Weight,
    },
    /// The guard tripped before certification finished.
    Interrupted(InterruptReason),
}

impl fmt::Display for CertificationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertificationError::CoreArity { expected, got } => {
                write!(f, "core has {got} knodes, query has {expected} keywords")
            }
            CertificationError::KnodeOutsideKeywordSet { dim, node } => {
                write!(f, "knode {node} is not in keyword set V_{dim}")
            }
            CertificationError::WrongKnodes { core, .. } => {
                write!(f, "knodes of {core:?} are not the distinct core nodes")
            }
            CertificationError::CentersMismatch {
                core,
                expected,
                got,
            } => {
                write!(
                    f,
                    "centers of {core:?}: recomputed {expected:?}, claimed {got:?}"
                )
            }
            CertificationError::CostMismatch {
                core,
                expected,
                got,
            } => {
                write!(f, "cost of {core:?}: recomputed {expected}, claimed {got}")
            }
            CertificationError::MissingCoreNode { core, node } => {
                write!(f, "community of {core:?} lacks its center or knode {node}")
            }
            CertificationError::MembersMismatch {
                core,
                expected,
                got,
            } => {
                write!(
                    f,
                    "members of {core:?}: recomputed {expected:?}, claimed {got:?}"
                )
            }
            CertificationError::PathNodesMismatch {
                core,
                expected,
                got,
            } => {
                write!(
                    f,
                    "path nodes of {core:?}: recomputed {expected:?}, claimed {got:?}"
                )
            }
            CertificationError::EdgeCountMismatch {
                core,
                expected,
                got,
            } => {
                write!(
                    f,
                    "subgraph of {core:?} has {got} edges, induced count is {expected}"
                )
            }
            CertificationError::DuplicateCore { index } => {
                write!(f, "enumeration repeats a core at index {index}")
            }
            CertificationError::CostsNotMonotone { index, prev, next } => {
                write!(f, "cost drops from {prev} to {next} at index {index}")
            }
            CertificationError::TopKLongerThanAll { topk, all } => {
                write!(f, "top-k holds {topk} answers, full enumeration only {all}")
            }
            CertificationError::TopKNotPrefix { index, topk, all } => {
                write!(
                    f,
                    "top-k cost {topk} at rank {index} differs from the full ranking's {all}"
                )
            }
            CertificationError::Interrupted(reason) => {
                write!(f, "certification interrupted: {reason}")
            }
        }
    }
}

impl std::error::Error for CertificationError {}

impl From<InterruptReason> for CertificationError {
    fn from(reason: InterruptReason) -> CertificationError {
        CertificationError::Interrupted(reason)
    }
}

/// Plain binary-heap Dijkstra from `sources`, truncated at `rmax`.
///
/// Returns per-node distances, `Weight::INFINITY` where unreachable within
/// the radius. Lazy deletion, no decrease-key — the point is independence
/// from the optimized engines, not speed.
fn truncated_dijkstra(
    graph: &Graph,
    dir: Direction,
    sources: &[NodeId],
    rmax: Weight,
    guard: &RunGuard,
) -> Result<Vec<Weight>, InterruptReason> {
    let mut dist = vec![Weight::INFINITY; graph.node_count()];
    let mut heap: BinaryHeap<Reverse<(Weight, NodeId)>> = BinaryHeap::new();
    for &s in sources {
        if Weight::ZERO < dist[s.index()] {
            dist[s.index()] = Weight::ZERO;
            heap.push(Reverse((Weight::ZERO, s)));
        }
    }
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u.index()] {
            continue;
        }
        guard.note_settled(1)?;
        for (v, w) in graph.neighbors(u, dir) {
            let nd = d + w;
            if nd <= rmax && nd < dist[v.index()] {
                dist[v.index()] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    Ok(dist)
}

/// Certifies one community against its query (see module docs).
pub fn check_community(
    graph: &Graph,
    spec: &QuerySpec,
    community: &Community,
) -> Result<(), CertificationError> {
    check_community_guarded(graph, spec, community, &RunGuard::unlimited())
}

/// [`check_community`] under a [`RunGuard`], consulted per settled node of
/// every certification sweep.
fn check_community_guarded(
    graph: &Graph,
    spec: &QuerySpec,
    community: &Community,
    guard: &RunGuard,
) -> Result<(), CertificationError> {
    let core = &community.core;
    let l = spec.l();
    if core.len() != l {
        return Err(CertificationError::CoreArity {
            expected: l,
            got: core.len(),
        });
    }
    for (dim, &node) in core.0.iter().enumerate() {
        if spec.keyword_nodes[dim].binary_search(&node).is_err() {
            return Err(CertificationError::KnodeOutsideKeywordSet { dim, node });
        }
    }
    let distinct = core.distinct_nodes();
    if community.knodes != distinct {
        return Err(CertificationError::WrongKnodes {
            core: core.clone(),
            expected: distinct,
            got: community.knodes.clone(),
        });
    }

    // One reverse sweep per distinct knode; a center must reach every
    // knode within Rmax (Definition 2.1).
    let rmax = spec.rmax;
    let mut dists: Vec<Vec<Weight>> = Vec::with_capacity(distinct.len());
    for &c in &distinct {
        dists.push(truncated_dijkstra(
            graph,
            Direction::Reverse,
            &[c],
            rmax,
            guard,
        )?);
    }
    // Which sweep answers each core position (a knode carrying several
    // keywords is swept once and read once per keyword).
    let sweep_of: Vec<usize> = core
        .0
        .iter()
        .filter_map(|c| distinct.binary_search(c).ok())
        .collect();

    let n = graph.node_count();
    let mut centers: Vec<NodeId> = Vec::new();
    let mut cost = Weight::INFINITY;
    for u in 0..n {
        if !dists.iter().all(|d| d[u].is_finite()) {
            continue;
        }
        centers.push(NodeId(index_to_u32(u)));
        let agg = spec.cost.combine(sweep_of.iter().map(|&k| dists[k][u]));
        if agg < cost {
            cost = agg;
        }
    }
    if centers != community.centers {
        return Err(CertificationError::CentersMismatch {
            core: core.clone(),
            expected: centers,
            got: community.centers.clone(),
        });
    }
    if cost != community.cost {
        return Err(CertificationError::CostMismatch {
            core: core.clone(),
            expected: cost,
            got: community.cost,
        });
    }

    // Definition 2.1: a community holds its centers and its knodes.
    let claimed = community.nodes();
    let mut core_nodes = centers.iter().chain(&distinct);
    if let Some(&node) = core_nodes.find(|u| claimed.binary_search(u).is_err()) {
        return Err(CertificationError::MissingCoreNode {
            core: core.clone(),
            node,
        });
    }

    // Membership: dist(s, u) + dist(u, t) ≤ Rmax with the virtual source
    // over the centers and the virtual sink under the knodes.
    let dist_s = truncated_dijkstra(graph, Direction::Forward, &centers, rmax, guard)?;
    let dist_t = truncated_dijkstra(graph, Direction::Reverse, &distinct, rmax, guard)?;
    let members: Vec<NodeId> = (0..n)
        .filter(|&u| {
            dist_s[u].is_finite() && dist_t[u].is_finite() && dist_s[u] + dist_t[u] <= rmax
        })
        .map(|u| NodeId(index_to_u32(u)))
        .collect();
    if members != community.nodes() {
        return Err(CertificationError::MembersMismatch {
            core: core.clone(),
            expected: members,
            got: community.nodes().to_vec(),
        });
    }
    let path_nodes: Vec<NodeId> = members
        .iter()
        .copied()
        .filter(|u| centers.binary_search(u).is_err() && distinct.binary_search(u).is_err())
        .collect();
    if path_nodes != community.path_nodes {
        return Err(CertificationError::PathNodesMismatch {
            core: core.clone(),
            expected: path_nodes,
            got: community.path_nodes.clone(),
        });
    }

    // The subgraph must hold exactly the G_D edges between members.
    let mut expected_edges = 0usize;
    for &u in &members {
        for (v, _) in graph.out_neighbors(u) {
            if members.binary_search(&v).is_ok() {
                expected_edges += 1;
            }
        }
    }
    if expected_edges != community.edge_count() {
        return Err(CertificationError::EdgeCountMismatch {
            core: core.clone(),
            expected: expected_edges,
            got: community.edge_count(),
        });
    }
    Ok(())
}

/// Certifies an enumeration: every community passes [`check_community`]
/// and cores are pairwise distinct. Emission *order* is not constrained —
/// COMM-all enumerates in Lawler order, not by cost; use [`check_ranking`]
/// for ranked (COMM-k) output.
pub fn check_enumeration(
    graph: &Graph,
    spec: &QuerySpec,
    communities: &[Community],
) -> Result<(), CertificationError> {
    check_enumeration_guarded(graph, spec, communities, &RunGuard::unlimited())
}

/// [`check_enumeration`] under a [`RunGuard`].
fn check_enumeration_guarded(
    graph: &Graph,
    spec: &QuerySpec,
    communities: &[Community],
    guard: &RunGuard,
) -> Result<(), CertificationError> {
    let mut seen: HashSet<Core> = HashSet::with_capacity(communities.len());
    for (index, community) in communities.iter().enumerate() {
        check_community_guarded(graph, spec, community, guard)?;
        if !seen.insert(community.core.clone()) {
            return Err(CertificationError::DuplicateCore { index });
        }
    }
    Ok(())
}

/// Checks ranked (COMM-k) output discipline: costs must be non-decreasing.
pub fn check_ranking(communities: &[Community]) -> Result<(), CertificationError> {
    for (index, pair) in communities.windows(2).enumerate() {
        if pair[0].cost > pair[1].cost {
            return Err(CertificationError::CostsNotMonotone {
                index: index + 1,
                prev: pair[0].cost,
                next: pair[1].cost,
            });
        }
    }
    Ok(())
}

/// Checks that `topk`'s cost sequence is the head of `all`'s *sorted* cost
/// multiset (COMM-all enumerates unordered, so ranks are compared against
/// the sorted costs; equal-cost ties may legitimately order differently).
pub fn check_topk_prefix(topk: &[Community], all: &[Community]) -> Result<(), CertificationError> {
    if topk.len() > all.len() {
        return Err(CertificationError::TopKLongerThanAll {
            topk: topk.len(),
            all: all.len(),
        });
    }
    check_ranking(topk)?;
    let mut ranked: Vec<Weight> = all.iter().map(|c| c.cost).collect();
    ranked.sort_unstable();
    for (index, t) in topk.iter().enumerate() {
        if t.cost != ranked[index] {
            return Err(CertificationError::TopKNotPrefix {
                index,
                topk: t.cost,
                all: ranked[index],
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{collect_all, collect_top_k};
    use crate::CostFn;
    use comm_datasets::paper_example::{fig4_graph, fig4_keyword_nodes, FIG4_RMAX};

    fn fig4_spec() -> QuerySpec {
        QuerySpec::new(fig4_keyword_nodes(), Weight::new(FIG4_RMAX))
    }

    #[test]
    fn comm_all_on_paper_example_certifies() {
        let g = fig4_graph();
        let spec = fig4_spec();
        let all = collect_all(&g, &spec);
        assert_eq!(all.len(), 5); // Table I
        check_enumeration(&g, &spec, &all).unwrap();
    }

    #[test]
    fn comm_k_is_a_prefix_of_comm_all() {
        let g = fig4_graph();
        let spec = fig4_spec();
        let all = collect_all(&g, &spec);
        for k in 1..=all.len() + 1 {
            let topk = collect_top_k(&g, &spec, k);
            check_enumeration(&g, &spec, &topk).unwrap();
            check_ranking(&topk).unwrap();
            check_topk_prefix(&topk, &all).unwrap();
        }
    }

    #[test]
    fn max_distance_cost_certifies() {
        let g = fig4_graph();
        let spec = fig4_spec().with_cost(CostFn::MaxDistance);
        let all = collect_all(&g, &spec);
        assert!(!all.is_empty());
        check_enumeration(&g, &spec, &all).unwrap();
    }

    #[test]
    fn tampered_cost_is_detected() {
        let g = fig4_graph();
        let spec = fig4_spec();
        let mut c = collect_all(&g, &spec).remove(0);
        c.unshared_mut().cost += Weight::new(1.0);
        assert!(matches!(
            check_community(&g, &spec, &c),
            Err(CertificationError::CostMismatch { .. })
        ));
    }

    #[test]
    fn tampered_centers_are_detected() {
        let g = fig4_graph();
        let spec = fig4_spec();
        let mut c = collect_all(&g, &spec).remove(0);
        c.unshared_mut().centers.pop();
        assert!(matches!(
            check_community(&g, &spec, &c),
            Err(CertificationError::CentersMismatch { .. })
        ));
    }

    #[test]
    fn tampered_knodes_are_detected() {
        let g = fig4_graph();
        let spec = fig4_spec();
        let mut c = collect_all(&g, &spec).remove(0);
        c.unshared_mut().knodes.push(NodeId(0));
        assert!(matches!(
            check_community(&g, &spec, &c),
            Err(CertificationError::WrongKnodes { .. })
        ));
    }

    #[test]
    fn tampered_path_nodes_are_detected() {
        let g = fig4_graph();
        let spec = fig4_spec();
        let all = collect_all(&g, &spec);
        let mut c = all
            .iter()
            .find(|c| !c.path_nodes.is_empty())
            .expect("paper example has a community with path nodes")
            .clone();
        c.unshared_mut().path_nodes.clear();
        assert!(matches!(
            check_community(&g, &spec, &c),
            Err(CertificationError::PathNodesMismatch { .. })
        ));
    }

    #[test]
    fn core_outside_keyword_set_is_detected() {
        let g = fig4_graph();
        let spec = fig4_spec();
        let mut c = collect_all(&g, &spec).remove(0);
        // v1 carries no keyword in the fig. 4 assignment.
        c.unshared_mut().core.0[0] = NodeId(1);
        assert!(matches!(
            check_community(&g, &spec, &c),
            Err(CertificationError::KnodeOutsideKeywordSet { .. })
        ));
    }

    #[test]
    fn duplicate_core_is_detected() {
        let g = fig4_graph();
        let spec = fig4_spec();
        let all = collect_all(&g, &spec);
        let mut doubled = all.clone();
        doubled.push(all[all.len() - 1].clone());
        assert_eq!(
            check_enumeration(&g, &spec, &doubled),
            Err(CertificationError::DuplicateCore { index: all.len() })
        );
    }

    #[test]
    fn cost_regression_is_detected() {
        let g = fig4_graph();
        let spec = fig4_spec();
        let mut topk = collect_top_k(&g, &spec, 5);
        topk.swap(0, 4); // Table I's rank-1 and rank-5 costs differ
        assert!(matches!(
            check_ranking(&topk),
            Err(CertificationError::CostsNotMonotone { .. })
        ));
    }

    #[test]
    fn topk_prefix_rejects_wrong_costs() {
        let g = fig4_graph();
        let spec = fig4_spec();
        let all = collect_all(&g, &spec);
        let mut topk = collect_top_k(&g, &spec, 1);
        topk[0].unshared_mut().cost += Weight::new(0.5);
        assert!(matches!(
            check_topk_prefix(&topk, &all),
            Err(CertificationError::TopKNotPrefix { index: 0, .. })
        ));
        let mut fake = all.clone();
        fake.push(all[0].clone());
        assert!(matches!(
            check_topk_prefix(&fake, &all),
            Err(CertificationError::TopKLongerThanAll { .. })
        ));
    }

    #[test]
    fn guard_trip_reports_interrupted() {
        let g = fig4_graph();
        let spec = fig4_spec();
        let c = collect_all(&g, &spec).remove(0);
        let guard = RunGuard::new().with_settled_budget(1);
        assert!(matches!(
            check_community_guarded(&g, &spec, &c, &guard),
            Err(CertificationError::Interrupted(_))
        ));
    }
}
