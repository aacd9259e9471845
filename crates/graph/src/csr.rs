//! Compressed-sparse-row storage for the database graph `G_D`.
//!
//! Both the forward and the reverse adjacency are materialized at build time
//! because every algorithm in the paper alternates between "expand forward
//! from centers" (Algorithm 4's virtual source `s`) and "expand backward
//! from keyword nodes" (Algorithm 2's virtual sink `t`).

use crate::storage::Storage;
use crate::verify::{validate_csr, GraphInvariantError};
use crate::weight::{index_to_u32, Weight};
use std::fmt;
use std::sync::OnceLock;

/// Identifier of a node (tuple) in a database graph.
///
/// Plain `u32` under a newtype: per-node algorithm state lives in flat
/// vectors indexed by `NodeId::index()`. `repr(transparent)` so CSR target
/// arrays can be viewed zero-copy inside a mapped container file (see
/// [`crate::storage`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for NodeId {
    #[inline]
    fn from(v: u32) -> NodeId {
        NodeId(v)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Which adjacency to traverse.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Follow edges `(u, v)` from `u` to `v`.
    Forward,
    /// Follow edges `(u, v)` from `v` to `u` (the paper's "reverse order"
    /// trick in Algorithms 2 and 4).
    Reverse,
}

impl Direction {
    /// The opposite direction.
    #[inline]
    pub fn flip(self) -> Direction {
        match self {
            Direction::Forward => Direction::Reverse,
            Direction::Reverse => Direction::Forward,
        }
    }
}

/// One direction of adjacency in CSR form: row `u` holds `(target, weight)`
/// pairs sorted by `(target, weight)`.
///
/// A [`Graph`] is two of these (forward and its transpose); the projection
/// index stores a single forward one. The Dijkstra settle loop reads
/// exactly this type, so a sweep over a stored half is the same code as a
/// sweep over a full graph ([`DijkstraEngine::run_rows_guarded`]).
///
/// Array fields are `pub(crate)` so `crate::verify` can inspect (and, in
/// tests, corrupt) them without widening the public API. Each array is a
/// [`Storage`]: an owned `Vec` when built in memory, or a zero-copy view
/// into a mapped CGPH v2 container (see [`crate::container`]).
///
/// [`DijkstraEngine::run_rows_guarded`]: crate::DijkstraEngine::run_rows_guarded
#[derive(Clone, Default)]
pub struct Csr {
    pub(crate) offsets: Storage<u32>,
    pub(crate) targets: Storage<NodeId>,
    pub(crate) weights: Storage<Weight>,
    /// Lazily computed `(minimum weight, minimum positive weight)`, each
    /// `INFINITY` when there is none. The bucket Dijkstra kernel sizes its
    /// distance buckets from the second; the first says whether every
    /// relaxation makes progress. `OnceLock` so the `O(m)` scan happens at
    /// most once per half and concurrent sweeps can share it.
    min_w: OnceLock<(Weight, Weight)>,
}

impl Csr {
    pub(crate) fn new(
        offsets: Storage<u32>,
        targets: Storage<NodeId>,
        weights: Storage<Weight>,
    ) -> Csr {
        Csr {
            offsets,
            targets,
            weights,
            min_w: OnceLock::new(),
        }
    }

    /// Assembles a square half from raw arrays, checking everything a
    /// sweep or a [`transpose`](Self::transpose) indexes by: `offsets`
    /// non-empty, starting at 0, monotone and closing on the target count;
    /// targets below the row count; rows sorted by `(target, weight)`;
    /// weights finite and non-negative. This is the entry point for arrays
    /// decoded from untrusted bytes.
    pub fn from_parts(
        offsets: Vec<u32>,
        targets: Vec<NodeId>,
        weights: Vec<Weight>,
    ) -> Result<Csr, GraphInvariantError> {
        let (n, m) = (offsets.len().saturating_sub(1), targets.len());
        let csr = Csr::new(offsets.into(), targets.into(), weights.into());
        validate_csr(&csr, Direction::Forward, n, m)?;
        Ok(csr)
    }

    /// Number of rows.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Number of stored `(target, weight)` pairs.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// The row offsets (`node_count() + 1` entries).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// All targets, row after row.
    pub fn targets(&self) -> &[NodeId] {
        &self.targets
    }

    /// All weights, parallel to [`targets`](Self::targets).
    pub fn weights(&self) -> &[Weight] {
        &self.weights
    }

    /// Row `u` as `(target, weight)` pairs sorted by target id.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> impl Iterator<Item = (NodeId, Weight)> + '_ {
        let lo = self.offsets[u.index()] as usize;
        let hi = self.offsets[u.index() + 1] as usize;
        self.targets[lo..hi]
            .iter()
            .copied()
            .zip(self.weights[lo..hi].iter().copied())
    }

    fn degree(&self, u: NodeId) -> usize {
        (self.offsets[u.index() + 1] - self.offsets[u.index()]) as usize
    }

    /// Resident size of the three arrays in bytes.
    pub fn byte_size(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.targets.len() * std::mem::size_of::<NodeId>()
            + self.weights.len() * std::mem::size_of::<Weight>()
    }

    /// One `O(m)` scan for both minima, cached.
    fn min_weights(&self) -> (Weight, Weight) {
        *self.min_w.get_or_init(|| {
            let mut min = (Weight::INFINITY, Weight::INFINITY);
            for &w in self.weights.iter() {
                min.0 = min.0.min(w);
                if w > Weight::ZERO {
                    min.1 = min.1.min(w);
                }
            }
            min
        })
    }

    /// The smallest strictly positive weight, or `None` when there is
    /// none. Computed once by an `O(m)` scan and cached.
    pub fn min_positive_weight(&self) -> Option<Weight> {
        let (_, w) = self.min_weights();
        w.is_finite().then_some(w)
    }

    /// The smallest weight, zeros included, or `None` when there is no
    /// edge; shares [`min_positive_weight`](Self::min_positive_weight)'s
    /// cached scan. A sweep of radius `r` over these rows makes progress
    /// at every relaxation — `fl(d + w) > d` for every `d ≤ r` — when this
    /// exceeds `r · 2⁻⁵²`, an ulp of `r`.
    pub fn min_weight(&self) -> Option<Weight> {
        let (w, _) = self.min_weights();
        w.is_finite().then_some(w)
    }

    /// The rows of `nodes`, restricted to targets `local` maps, in the ids
    /// `local` assigns: row `i` of the result is row `nodes[i]` of `self`
    /// with every `(t, w)` replaced by `(local(t), w)` or dropped when
    /// `local(t)` is `None`.
    ///
    /// `nodes` must be strictly increasing and `local` must map `nodes[i]`
    /// to `i` (and nothing else to `Some`). Such a relabel is monotone, so
    /// each copied row is still sorted by `(target, weight)` — no sort, no
    /// per-row allocation — and every kept edge is copied exactly once,
    /// parallel edges included: the result is the forward half of the
    /// subgraph induced by `nodes`.
    pub fn induce(&self, nodes: &[NodeId], local: impl Fn(NodeId) -> Option<NodeId>) -> Csr {
        // Reserved for every edge leaving `nodes` and trimmed afterwards:
        // the copy never regrows, and the (often cached) result holds no
        // slack.
        let bound = nodes.iter().map(|&u| self.degree(u)).sum();
        let mut offsets = Vec::with_capacity(nodes.len() + 1);
        let mut targets = Vec::with_capacity(bound);
        let mut weights = Vec::with_capacity(bound);
        offsets.push(0);
        for &u in nodes {
            for (t, w) in self.neighbors(u) {
                if let Some(t) = local(t) {
                    targets.push(t);
                    weights.push(w);
                }
            }
            offsets.push(index_to_u32(targets.len()));
        }
        targets.shrink_to_fit();
        weights.shrink_to_fit();
        Csr::new(offsets.into(), targets.into(), weights.into())
    }

    /// The transposed half: row `v` of the result lists `(u, w)` for every
    /// `(v, w)` in row `u` of `self`. Sources are visited in ascending
    /// order and each row is sorted by `(target, weight)`, so every
    /// transposed row comes out sorted by `(source, weight)` without a
    /// sort. `self` must be square (every target below the row count).
    pub fn transpose(&self) -> Csr {
        let n = self.node_count();
        let mut cursor = vec![0u32; n + 1];
        for t in self.targets.iter() {
            cursor[t.index() + 1] += 1;
        }
        for i in 0..n {
            cursor[i + 1] += cursor[i];
        }
        let offsets = cursor.clone();
        let mut targets = vec![NodeId(0); self.edge_count()];
        let mut weights = vec![Weight::ZERO; self.edge_count()];
        for u in 0..n {
            let u = NodeId(index_to_u32(u));
            for (v, w) in self.neighbors(u) {
                let pos = cursor[v.index()] as usize;
                cursor[v.index()] += 1;
                targets[pos] = u;
                weights[pos] = w;
            }
        }
        Csr::new(offsets.into(), targets.into(), weights.into())
    }

    /// The forward half of an edge list over `n` nodes.
    fn from_edges(n: usize, edges: &[(NodeId, NodeId, Weight)]) -> Csr {
        let mut counts = vec![0u32; n + 1];
        for &(u, _, _) in edges {
            counts[u.index() + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut targets = vec![NodeId(0); edges.len()];
        let mut weights = vec![Weight::ZERO; edges.len()];
        for &(u, v, w) in edges {
            let pos = cursor[u.index()] as usize;
            cursor[u.index()] += 1;
            targets[pos] = v;
            weights[pos] = w;
        }
        // Sort each adjacency run by target id for deterministic iteration
        // and O(log deg) edge lookup.
        for u in 0..n {
            let lo = offsets[u] as usize;
            let hi = offsets[u + 1] as usize;
            let mut run: Vec<(NodeId, Weight)> = targets[lo..hi]
                .iter()
                .copied()
                .zip(weights[lo..hi].iter().copied())
                .collect();
            run.sort_by_key(|&(t, w)| (t, w));
            for (i, (t, w)) in run.into_iter().enumerate() {
                targets[lo + i] = t;
                weights[lo + i] = w;
            }
        }
        Csr::new(offsets.into(), targets.into(), weights.into())
    }
}

/// A weighted directed graph in CSR form, with both adjacency directions
/// materialized. This is the paper's database graph `G_D = (V, E)`.
#[derive(Clone, Default)]
pub struct Graph {
    pub(crate) n: usize,
    pub(crate) m: usize,
    pub(crate) fwd: Csr,
    pub(crate) rev: Csr,
}

impl Graph {
    /// The graph whose forward adjacency is `fwd` (a square half); the
    /// reverse half is its [`transpose`](Csr::transpose).
    ///
    /// Debug and `verify` builds run the full [`Graph::validate`] pass on
    /// the result, so any construction bug surfaces at build time rather
    /// than as a wrong answer deep inside a Dijkstra sweep.
    pub fn from_rows(fwd: Csr) -> Graph {
        let g = Graph {
            n: fwd.node_count(),
            m: fwd.edge_count(),
            rev: fwd.transpose(),
            fwd,
        };
        #[cfg(any(debug_assertions, feature = "verify"))]
        g.assert_valid();
        g
    }

    /// The adjacency half a sweep in direction `dir` reads.
    #[inline]
    pub fn rows(&self, dir: Direction) -> &Csr {
        match dir {
            Direction::Forward => &self.fwd,
            Direction::Reverse => &self.rev,
        }
    }

    /// Number of nodes `n = |V(G_D)|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of directed edges `m = |E(G_D)|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.m
    }

    /// Iterates all node ids, `v0..v{n-1}`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..index_to_u32(self.n)).map(NodeId)
    }

    /// Iterates the neighbors of `u` in the given direction, as
    /// `(neighbor, edge weight)` pairs sorted by neighbor id.
    #[inline]
    pub fn neighbors(
        &self,
        u: NodeId,
        dir: Direction,
    ) -> impl Iterator<Item = (NodeId, Weight)> + '_ {
        self.rows(dir).neighbors(u)
    }

    /// Out-neighbors of `u` (edges `(u, v)`), sorted by target id.
    #[inline]
    pub fn out_neighbors(&self, u: NodeId) -> impl Iterator<Item = (NodeId, Weight)> + '_ {
        self.fwd.neighbors(u)
    }

    /// In-neighbors of `v` (edges `(u, v)` seen from `v`), sorted by source id.
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, Weight)> + '_ {
        self.rev.neighbors(v)
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.fwd.degree(u)
    }

    /// In-degree of `u` (the `N_in(v)` of the paper's weight function).
    #[inline]
    pub fn in_degree(&self, u: NodeId) -> usize {
        self.rev.degree(u)
    }

    /// The weight of edge `(u, v)`, if present. With parallel edges the
    /// smallest weight is returned.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<Weight> {
        let lo = self.fwd.offsets[u.index()] as usize;
        let hi = self.fwd.offsets[u.index() + 1] as usize;
        let run = &self.fwd.targets[lo..hi];
        let first = run.partition_point(|&t| t < v);
        let mut best: Option<Weight> = None;
        for (t, &w) in run[first..].iter().zip(&self.fwd.weights[lo + first..hi]) {
            if *t != v {
                break;
            }
            best = Some(match best {
                Some(b) if b <= w => b,
                _ => w,
            });
        }
        best
    }

    /// Whether the edge `(u, v)` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_weight(u, v).is_some()
    }

    /// All edges as `(u, v, w)` triples, grouped by source.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, Weight)> + '_ {
        self.nodes()
            .flat_map(move |u| self.out_neighbors(u).map(move |(v, w)| (u, v, w)))
    }

    /// Estimated resident size of the CSR arrays in bytes (used by the
    /// benchmark memory accounting).
    pub fn byte_size(&self) -> usize {
        self.fwd.byte_size() + self.rev.byte_size()
    }

    /// The smallest strictly positive edge weight, or `None` when the
    /// graph has no positively weighted edge. Both adjacency halves store
    /// the same multiset of weights, so the forward half's cached scan
    /// answers for sweeps in either direction.
    pub fn min_positive_weight(&self) -> Option<Weight> {
        self.fwd.min_positive_weight()
    }

    /// Whether the CSR arrays are zero-copy views into a mapped container
    /// file (true after [`crate::container::load_container`] on a host
    /// where `mmap` is available) rather than owned heap vectors.
    pub fn is_mapped(&self) -> bool {
        self.fwd.offsets.is_mapped()
    }

    /// Extracts the subgraph induced by `nodes` (original ids), renumbering
    /// nodes to `0..nodes.len()`.
    ///
    /// This is the final step of the paper's `GetCommunity()` (Algorithm 4
    /// line 7) and `GraphProjection` (Algorithm 6 line 15): keep every edge
    /// of `G_D` whose both endpoints are selected.
    pub fn induce(&self, nodes: &[NodeId]) -> InducedGraph {
        let mut sorted: Vec<NodeId> = nodes.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        // No O(n) relabel table: this runs once per emitted community, on
        // node sets far smaller than the graph.
        let fwd = self.fwd.induce(&sorted, |v| {
            let i = sorted.binary_search(&v).ok()?;
            Some(NodeId(index_to_u32(i)))
        });
        InducedGraph {
            graph: Graph::from_rows(fwd),
            original_ids: sorted,
        }
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Graph(n={}, m={})", self.n, self.m)
    }
}

/// An induced subgraph together with the mapping back to original node ids.
#[derive(Clone, Debug)]
pub struct InducedGraph {
    /// The renumbered subgraph.
    pub graph: Graph,
    /// `original_ids[local.index()]` is the original id of local node `local`.
    pub original_ids: Vec<NodeId>,
}

impl InducedGraph {
    /// Maps a local node id back to the original graph's id.
    #[inline]
    pub fn to_original(&self, local: NodeId) -> NodeId {
        self.original_ids[local.index()]
    }

    /// Maps an original id to the local id, if the node was selected.
    pub fn to_local(&self, original: NodeId) -> Option<NodeId> {
        self.original_ids
            .binary_search(&original)
            .ok()
            .map(|i| NodeId(index_to_u32(i)))
    }
}

/// Incremental builder for [`Graph`].
///
/// ```
/// use comm_graph::{GraphBuilder, NodeId, Weight, Direction};
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(NodeId(0), NodeId(1), Weight::new(2.0));
/// b.add_edge(NodeId(1), NodeId(2), Weight::new(3.0));
/// let g = b.build();
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// assert_eq!(g.out_degree(NodeId(0)), 1);
/// assert_eq!(g.in_degree(NodeId(2)), 1);
/// ```
#[derive(Clone, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId, Weight)>,
}

impl GraphBuilder {
    /// Starts a builder for a graph with `n` nodes, ids `0..n`.
    pub fn new(n: usize) -> GraphBuilder {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Number of nodes declared so far.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Adds a fresh node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(index_to_u32(self.n));
        self.n += 1;
        id
    }

    /// Adds the directed edge `(u, v)` with weight `w`.
    ///
    /// # Panics
    /// If either endpoint is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: Weight) {
        assert!(
            u.index() < self.n && v.index() < self.n,
            "edge ({u}, {v}) out of range for n={}",
            self.n
        );
        self.edges.push((u, v, w));
    }

    /// Adds both `(u, v)` and `(v, u)` with the same weight.
    pub fn add_bidirected_edge(&mut self, u: NodeId, v: NodeId, w: Weight) {
        self.add_edge(u, v, w);
        self.add_edge(v, u, w);
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Finalizes the CSR representation (validated in debug and `verify`
    /// builds, see [`Graph::from_rows`]).
    pub fn build(self) -> Graph {
        Graph::from_rows(Csr::from_edges(self.n, &self.edges))
    }

    /// Finalizes the CSR representation with *node weights* folded into
    /// the edges: every edge `(u, v)` gains `node_weights[v]`, so a path's
    /// distance includes the weight of every node it enters (all nodes
    /// except the start). This is the standard reduction behind the
    /// paper's footnote "our approach can support node weights".
    ///
    /// # Panics
    /// If `node_weights.len() != n`.
    pub fn build_with_node_weights(mut self, node_weights: &[Weight]) -> Graph {
        assert_eq!(
            node_weights.len(),
            self.n,
            "need one weight per node ({} nodes, {} weights)",
            self.n,
            node_weights.len()
        );
        for (_, v, w) in &mut self.edges {
            *w += node_weights[v.index()];
        }
        self.build()
    }
}

/// Builds a graph directly from an edge list (convenience for tests and
/// examples). Node count is `n`; weights are given as `f64`.
pub fn graph_from_edges(n: usize, edges: &[(u32, u32, f64)]) -> Graph {
    let mut b = GraphBuilder::new(n);
    for &(u, v, w) in edges {
        b.add_edge(NodeId(u), NodeId(v), Weight::new(w));
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        graph_from_edges(4, &[(0, 1, 1.0), (1, 3, 2.0), (0, 2, 4.0), (2, 3, 8.0)])
    }

    #[test]
    fn counts() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn forward_and_reverse_adjacency() {
        let g = diamond();
        let out0: Vec<_> = g.out_neighbors(NodeId(0)).collect();
        assert_eq!(
            out0,
            vec![(NodeId(1), Weight::new(1.0)), (NodeId(2), Weight::new(4.0))]
        );
        let in3: Vec<_> = g.in_neighbors(NodeId(3)).collect();
        assert_eq!(
            in3,
            vec![(NodeId(1), Weight::new(2.0)), (NodeId(2), Weight::new(8.0))]
        );
        // Reverse direction flips edges.
        let rev3: Vec<_> = g.neighbors(NodeId(3), Direction::Reverse).collect();
        assert_eq!(rev3, in3);
    }

    #[test]
    fn degrees() {
        let g = diamond();
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert_eq!(g.in_degree(NodeId(0)), 0);
        assert_eq!(g.in_degree(NodeId(3)), 2);
        assert_eq!(g.out_degree(NodeId(3)), 0);
    }

    #[test]
    fn edge_lookup() {
        let g = diamond();
        assert_eq!(g.edge_weight(NodeId(0), NodeId(1)), Some(Weight::new(1.0)));
        assert_eq!(g.edge_weight(NodeId(1), NodeId(0)), None);
        assert!(g.has_edge(NodeId(2), NodeId(3)));
        assert!(!g.has_edge(NodeId(3), NodeId(2)));
    }

    #[test]
    fn parallel_edges_keep_min_weight_lookup() {
        let g = graph_from_edges(2, &[(0, 1, 5.0), (0, 1, 3.0)]);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.edge_weight(NodeId(0), NodeId(1)), Some(Weight::new(3.0)));
    }

    #[test]
    fn bidirected_edges() {
        let mut b = GraphBuilder::new(2);
        b.add_bidirected_edge(NodeId(0), NodeId(1), Weight::new(1.5));
        let g = b.build();
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(1), NodeId(0)));
    }

    #[test]
    fn edges_iterator_roundtrip() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        assert!(edges.contains(&(NodeId(0), NodeId(2), Weight::new(4.0))));
    }

    #[test]
    fn induce_subgraph() {
        let g = diamond();
        // Take nodes {0, 1, 3}: edges 0->1 and 1->3 survive, 0->2->3 dropped.
        let ind = g.induce(&[NodeId(3), NodeId(0), NodeId(1)]);
        assert_eq!(ind.graph.node_count(), 3);
        assert_eq!(ind.graph.edge_count(), 2);
        assert_eq!(ind.to_original(NodeId(0)), NodeId(0));
        assert_eq!(ind.to_original(NodeId(2)), NodeId(3));
        assert_eq!(ind.to_local(NodeId(3)), Some(NodeId(2)));
        assert_eq!(ind.to_local(NodeId(2)), None);
        // Local edge 0->1 has original weight.
        assert_eq!(
            ind.graph.edge_weight(NodeId(0), NodeId(1)),
            Some(Weight::new(1.0))
        );
    }

    #[test]
    fn induce_dedups_input() {
        let g = diamond();
        let ind = g.induce(&[NodeId(1), NodeId(1), NodeId(0)]);
        assert_eq!(ind.graph.node_count(), 2);
    }

    /// The edges of `g` with both endpoints in `keep`, as sorted
    /// `(u, v, weight)` triples in original ids.
    fn induced_edges(g: &Graph, keep: &[NodeId]) -> Vec<(NodeId, NodeId, Weight)> {
        let mut edges: Vec<_> = g
            .edges()
            .filter(|(u, v, _)| keep.contains(u) && keep.contains(v))
            .collect();
        edges.sort_unstable();
        edges
    }

    /// `induce` against the definition on seeded multigraphs: unsorted and
    /// duplicated input, parallel edges (equal weights included) kept with
    /// multiplicity, ascending `original_ids`, and a graph that validates.
    #[test]
    fn induce_matches_the_edge_filter_on_seeded_multigraphs() {
        crate::SplitMix64::for_each_case(48, |rng| {
            let n = 1 + rng.index(12);
            let mut b = GraphBuilder::new(n);
            for _ in 0..rng.index(4 * n) {
                let (u, v) = (rng.index(n), rng.index(n));
                let w = Weight::from(index_to_u32(rng.index(3)));
                b.add_edge(NodeId(index_to_u32(u)), NodeId(index_to_u32(v)), w);
                if rng.index(4) == 0 {
                    b.add_edge(NodeId(index_to_u32(u)), NodeId(index_to_u32(v)), w);
                }
            }
            let g = b.build();
            let picks: Vec<NodeId> = (0..rng.index(2 * n))
                .map(|_| NodeId(index_to_u32(rng.index(n))))
                .collect();
            let ind = g.induce(&picks);
            assert!(ind.original_ids.windows(2).all(|w| w[0] < w[1]));
            assert!(picks.iter().all(|&p| ind.to_local(p).is_some()));
            assert_eq!(ind.graph.node_count(), ind.original_ids.len());
            ind.graph.validate().unwrap();
            let mut lifted: Vec<_> = ind
                .graph
                .edges()
                .map(|(u, v, w)| (ind.to_original(u), ind.to_original(v), w))
                .collect();
            lifted.sort_unstable();
            assert_eq!(lifted, induced_edges(&g, &ind.original_ids));
        });
    }

    #[test]
    fn csr_induce_copies_rows_under_a_monotone_relabel() {
        // Row 0 holds a parallel pair to 2 and an edge to the dropped node 1.
        let g = graph_from_edges(
            4,
            &[
                (0, 2, 1.0),
                (0, 2, 1.0),
                (0, 1, 5.0),
                (2, 3, 2.0),
                (3, 0, 0.0),
            ],
        );
        let keep = [NodeId(0), NodeId(2), NodeId(3)];
        let local = [Some(NodeId(0)), None, Some(NodeId(1)), Some(NodeId(2))];
        let rows = g
            .rows(Direction::Forward)
            .induce(&keep, |v| local[v.index()]);
        assert_eq!(rows.offsets(), &[0, 2, 3, 4]);
        assert_eq!(
            rows.targets(),
            &[NodeId(1), NodeId(1), NodeId(2), NodeId(0)]
        );
        assert_eq!(rows.weights()[3], Weight::ZERO);
        assert_eq!(rows.node_count(), 3);
        assert_eq!(rows.edge_count(), 4);
        // An empty selection is a valid zero-row half.
        let none = g.rows(Direction::Forward).induce(&[], |_| None);
        assert_eq!(none.offsets(), &[0]);
        assert_eq!(Graph::from_rows(none).node_count(), 0);
    }

    #[test]
    fn transpose_is_the_reverse_half_and_an_involution() {
        let g = graph_from_edges(
            4,
            &[
                (0, 1, 2.0),
                (0, 1, 1.0),
                (2, 1, 1.0),
                (3, 3, 0.5),
                (1, 0, 4.0),
            ],
        );
        let (fwd, rev) = (g.rows(Direction::Forward), g.rows(Direction::Reverse));
        let t = fwd.transpose();
        assert_eq!(t.offsets(), rev.offsets());
        assert_eq!(t.targets(), rev.targets());
        assert_eq!(t.weights(), rev.weights());
        // Row 1 of the transpose: sources 0 (twice, by weight) then 2.
        let row1: Vec<_> = t.neighbors(NodeId(1)).collect();
        assert_eq!(
            row1,
            vec![
                (NodeId(0), Weight::new(1.0)),
                (NodeId(0), Weight::new(2.0)),
                (NodeId(2), Weight::new(1.0)),
            ]
        );
        let back = t.transpose();
        assert_eq!(back.offsets(), fwd.offsets());
        assert_eq!(back.targets(), fwd.targets());
        assert_eq!(back.weights(), fwd.weights());
    }

    #[test]
    fn from_parts_rejects_what_a_sweep_would_index_out_of() {
        let w = |x: f64| Weight::new(x);
        let ok = Csr::from_parts(
            vec![0, 1, 2],
            vec![NodeId(1), NodeId(0)],
            vec![w(1.0), w(0.0)],
        )
        .unwrap();
        assert_eq!(ok.node_count(), 2);
        assert_eq!(ok.min_positive_weight(), Some(w(1.0)));
        assert_eq!(ok.min_weight(), Some(w(0.0)));
        assert_eq!(Csr::default().min_weight(), None);
        let bad = [
            // No offsets at all; offsets not starting at 0; decreasing;
            // not closing on the target count.
            Csr::from_parts(vec![], vec![], vec![]),
            Csr::from_parts(vec![1, 1], vec![NodeId(0)], vec![w(1.0)]),
            Csr::from_parts(vec![0, 2, 1], vec![NodeId(0)], vec![w(1.0)]),
            Csr::from_parts(vec![0, 1, 1], vec![NodeId(0), NodeId(1)], vec![w(1.0); 2]),
            // Target out of range, unsorted row, weight count mismatch,
            // infinite weight.
            Csr::from_parts(vec![0, 1], vec![NodeId(1)], vec![w(1.0)]),
            Csr::from_parts(vec![0, 2, 2], vec![NodeId(1), NodeId(0)], vec![w(1.0); 2]),
            Csr::from_parts(vec![0, 1], vec![NodeId(0)], vec![]),
            Csr::from_parts(vec![0, 1], vec![NodeId(0)], vec![Weight::INFINITY]),
        ];
        for (i, r) in bad.into_iter().enumerate() {
            assert!(r.is_err(), "malformed half {i} was accepted");
        }
    }

    #[test]
    fn add_node_grows() {
        let mut b = GraphBuilder::new(0);
        let a = b.add_node();
        let c = b.add_node();
        b.add_edge(a, c, Weight::new(1.0));
        let g = b.build();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut b = GraphBuilder::new(1);
        b.add_edge(NodeId(0), NodeId(1), Weight::ZERO);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.nodes().count(), 0);
    }

    #[test]
    fn byte_size_positive() {
        assert!(diamond().byte_size() > 0);
    }

    #[test]
    fn node_weights_fold_into_edges() {
        // 0 -1-> 1 -1-> 2 with node weights [5, 10, 20]:
        // dist(0, 2) = (1 + 10) + (1 + 20) = 32; the start's weight is free.
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), Weight::new(1.0));
        b.add_edge(NodeId(1), NodeId(2), Weight::new(1.0));
        let g =
            b.build_with_node_weights(&[Weight::new(5.0), Weight::new(10.0), Weight::new(20.0)]);
        assert_eq!(g.edge_weight(NodeId(0), NodeId(1)), Some(Weight::new(11.0)));
        let d = crate::dijkstra::shortest_distances(&g, Direction::Forward, NodeId(0));
        assert_eq!(d[2], Weight::new(32.0));
    }

    #[test]
    #[should_panic(expected = "one weight per node")]
    fn node_weights_length_checked() {
        let b = GraphBuilder::new(2);
        let _ = b.build_with_node_weights(&[Weight::ZERO]);
    }

    #[test]
    fn direction_flip() {
        assert_eq!(Direction::Forward.flip(), Direction::Reverse);
        assert_eq!(Direction::Reverse.flip(), Direction::Forward);
    }
}
