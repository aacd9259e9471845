//! Shared types: queries, cores, and communities.

use crate::error::{validate_nodes, validate_radius, QueryError};
use crate::neighbor::MAX_KEYWORDS;
use comm_graph::{Graph, InducedGraph, NodeId, Weight};
use std::fmt;

/// The community cost function.
///
/// The paper defines `cost(R)` as the minimum over centers of the *total*
/// shortest-path weight to every knode, but stresses that "our work does
/// not rely on a specific cost function". Both enumerators and both
/// baselines accept any variant here; ordering, completeness, and
/// duplication-freeness are preserved (the Lawler argument only needs the
/// per-center aggregate to be monotone in the per-keyword distances).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CostFn {
    /// `min_u Σ_i dist(u, c_i)` — the paper's default.
    #[default]
    SumDistances,
    /// `min_u max_i dist(u, c_i)` — ranks by the tightest radius that
    /// still centers the community (an "eccentricity" ranking).
    MaxDistance,
}

impl CostFn {
    /// Aggregates the per-keyword distances of one center.
    #[inline]
    pub fn combine(self, dists: impl IntoIterator<Item = Weight>) -> Weight {
        match self {
            CostFn::SumDistances => dists.into_iter().sum(),
            CostFn::MaxDistance => dists.into_iter().max().unwrap_or(Weight::ZERO),
        }
    }
}

/// An l-keyword query, resolved to node sets: `keyword_nodes[i]` is the
/// paper's `V_i` — every node containing keyword `k_i` — and `rmax` is the
/// radius bound on center→keyword-node distances.
///
/// Resolution from keyword strings to node sets is the job of the caller
/// (e.g. `comm_rdb::DatabaseGraph::keyword_nodes` or the projection index),
/// which keeps this crate independent of any particular text index.
#[derive(Clone, Debug)]
pub struct QuerySpec {
    /// `V_i` per keyword, each sorted and deduplicated.
    pub keyword_nodes: Vec<Vec<NodeId>>,
    /// The radius `Rmax`.
    pub rmax: Weight,
    /// How communities are costed/ranked (default: the paper's sum).
    pub cost: CostFn,
}

/// Rejects keyword counts beyond the `u8` dimension counters of
/// [`NeighborSets`](crate::NeighborSets).
fn validate_keyword_count(l: usize) -> Result<(), QueryError> {
    if l > MAX_KEYWORDS {
        return Err(QueryError::TooManyKeywords {
            l,
            max: MAX_KEYWORDS,
        });
    }
    Ok(())
}

impl QuerySpec {
    /// Builds a spec, sorting and deduplicating each node set.
    pub fn new(mut keyword_nodes: Vec<Vec<NodeId>>, rmax: Weight) -> QuerySpec {
        for set in &mut keyword_nodes {
            set.sort_unstable();
            set.dedup();
        }
        QuerySpec {
            keyword_nodes,
            rmax,
            cost: CostFn::default(),
        }
    }

    /// Builds a spec from a raw `f64` radius, validating it (and `l > 0`)
    /// instead of panicking.
    pub fn try_new(keyword_nodes: Vec<Vec<NodeId>>, rmax: f64) -> Result<QuerySpec, QueryError> {
        if keyword_nodes.is_empty() {
            return Err(QueryError::NoKeywords);
        }
        validate_keyword_count(keyword_nodes.len())?;
        validate_radius(rmax)?;
        let rmax = Weight::try_new(rmax).ok_or(QueryError::InvalidRadius(rmax))?;
        Ok(QuerySpec::new(keyword_nodes, rmax))
    }

    /// Validates this spec against a concrete graph: at least one keyword,
    /// a finite non-negative radius, and every keyword node inside the
    /// graph's id range. Every enumeration entry point calls this before
    /// doing any work.
    pub fn validate_for(&self, graph: &Graph) -> Result<(), QueryError> {
        if self.keyword_nodes.is_empty() {
            return Err(QueryError::NoKeywords);
        }
        validate_keyword_count(self.keyword_nodes.len())?;
        validate_radius(self.rmax.get())?;
        validate_nodes(&self.keyword_nodes, graph)
    }

    /// Replaces the cost function used for ranking.
    pub fn with_cost(mut self, cost: CostFn) -> QuerySpec {
        self.cost = cost;
        self
    }

    /// The number of keywords `l`.
    pub fn l(&self) -> usize {
        self.keyword_nodes.len()
    }

    /// Whether any keyword matched no node at all (no community can exist).
    pub fn has_empty_keyword(&self) -> bool {
        self.keyword_nodes.iter().any(Vec::is_empty)
    }
}

/// A community core: the list `C = [c_1, ..., c_l]` where `c_i` contains
/// keyword `k_i`. A core uniquely determines its community; duplication-
/// freeness is defined position-wise on cores (Sec. II).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Core(pub Vec<NodeId>);

impl Core {
    /// The node for keyword `i`.
    #[inline]
    pub fn get(&self, i: usize) -> NodeId {
        self.0[i]
    }

    /// Number of keywords.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the core is empty (no keywords).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The distinct nodes of the core (a node may carry several keywords).
    pub fn distinct_nodes(&self) -> Vec<NodeId> {
        let mut v = self.0.clone();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Approximate logical size in bytes (for memory accounting).
    pub fn byte_size(&self) -> usize {
        self.0.len() * std::mem::size_of::<NodeId>()
    }
}

impl fmt::Debug for Core {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.0.iter()).finish()
    }
}

/// A fully materialized community `R(V, E)` (Definition 2.1): the induced
/// subgraph over knodes ∪ cnodes ∪ pnodes, plus its cost and role breakdown.
#[derive(Clone, Debug)]
pub struct Community {
    /// The core `C` that uniquely determines this community.
    pub core: Core,
    /// `cost(R)`: minimum over centers of the total shortest-path weight
    /// from the center to every knode.
    pub cost: Weight,
    /// The cnodes `V_c` (sorted): nodes reaching every knode within Rmax.
    pub centers: Vec<NodeId>,
    /// The knodes `V_l` (sorted, deduplicated core nodes).
    pub knodes: Vec<NodeId>,
    /// The pnodes `V_p` (sorted): path nodes that are neither center nor knode.
    pub path_nodes: Vec<NodeId>,
    /// The induced subgraph over all community nodes, with the id mapping
    /// back to `G_D`.
    pub subgraph: InducedGraph,
}

impl Community {
    /// All community nodes (original graph ids), sorted.
    pub fn nodes(&self) -> &[NodeId] {
        &self.subgraph.original_ids
    }

    /// Number of nodes in the community.
    pub fn node_count(&self) -> usize {
        self.subgraph.original_ids.len()
    }

    /// Number of edges in the community's induced subgraph.
    pub fn edge_count(&self) -> usize {
        self.subgraph.graph.edge_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_spec_normalizes() {
        let spec = QuerySpec::new(
            vec![vec![NodeId(3), NodeId(1), NodeId(3)], vec![NodeId(2)]],
            Weight::new(5.0),
        );
        assert_eq!(spec.keyword_nodes[0], vec![NodeId(1), NodeId(3)]);
        assert_eq!(spec.l(), 2);
        assert!(!spec.has_empty_keyword());
        let empty = QuerySpec::new(vec![vec![], vec![NodeId(1)]], Weight::ZERO);
        assert!(empty.has_empty_keyword());
    }

    #[test]
    fn try_new_validates_radius_and_keywords() {
        assert!(matches!(
            QuerySpec::try_new(vec![], 1.0),
            Err(QueryError::NoKeywords)
        ));
        assert!(matches!(
            QuerySpec::try_new(vec![vec![NodeId(0)]], f64::NAN),
            Err(QueryError::InvalidRadius(r)) if r.is_nan()
        ));
        assert!(matches!(
            QuerySpec::try_new(vec![vec![NodeId(0)]], -2.0),
            Err(QueryError::InvalidRadius(_))
        ));
        assert!(matches!(
            QuerySpec::try_new(vec![vec![NodeId(0)]], f64::INFINITY),
            Err(QueryError::InvalidRadius(_))
        ));
        let ok = QuerySpec::try_new(vec![vec![NodeId(2), NodeId(0)]], 3.5).unwrap();
        assert_eq!(ok.rmax, Weight::new(3.5));
        assert_eq!(ok.keyword_nodes[0], vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn try_new_rejects_too_many_keywords() {
        let sets = vec![vec![NodeId(0)]; MAX_KEYWORDS + 1];
        assert!(matches!(
            QuerySpec::try_new(sets.clone(), 1.0),
            Err(QueryError::TooManyKeywords { l, max })
                if l == MAX_KEYWORDS + 1 && max == MAX_KEYWORDS
        ));
        // validate_for rejects it too, before any node-range checks.
        let g = comm_graph::GraphBuilder::new(2).build();
        let spec = QuerySpec::new(sets, Weight::new(1.0));
        assert!(matches!(
            spec.validate_for(&g),
            Err(QueryError::TooManyKeywords { .. })
        ));
        // Exactly MAX_KEYWORDS is fine.
        let ok = QuerySpec::try_new(vec![vec![NodeId(0)]; MAX_KEYWORDS], 1.0);
        assert!(ok.is_ok());
    }

    #[test]
    fn cost_fn_combine() {
        let ws = [Weight::new(2.0), Weight::new(5.0), Weight::new(1.0)];
        assert_eq!(CostFn::SumDistances.combine(ws), Weight::new(8.0));
        assert_eq!(CostFn::MaxDistance.combine(ws), Weight::new(5.0));
        assert_eq!(CostFn::MaxDistance.combine([]), Weight::ZERO);
        let spec =
            QuerySpec::new(vec![vec![NodeId(1)]], Weight::ZERO).with_cost(CostFn::MaxDistance);
        assert_eq!(spec.cost, CostFn::MaxDistance);
    }

    #[test]
    fn core_distinct_nodes() {
        let c = Core(vec![NodeId(4), NodeId(8), NodeId(4)]);
        assert_eq!(c.distinct_nodes(), vec![NodeId(4), NodeId(8)]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(1), NodeId(8));
        assert!(!c.is_empty());
        assert_eq!(c.byte_size(), 12);
    }

    #[test]
    fn core_debug_format() {
        let c = Core(vec![NodeId(4), NodeId(8)]);
        assert_eq!(format!("{c:?}"), "[v4, v8]");
    }
}
