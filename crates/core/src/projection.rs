//! Indexing and graph projection (Sec. VI, Algorithm 6).
//!
//! The index is built for a maximum radius `R` and holds what Algorithm 6
//! consumes, not the edge tuples the paper's `invertedE` lists:
//!
//! * `invertedN`: keyword `w` → the nodes `V_w` containing `w`;
//! * per keyword, the *distance run* of `Neighbor(V_w, R)`: every node
//!   `u` within `R` of `V_w` with `dist(u, V_w)`, in the order the reverse
//!   sweep settled them (non-decreasing in distance);
//! * `U`, the sorted union of those neighbourhoods, and one forward copy
//!   of `G_D[U]` in `U`-local ids — what `invertedE` enumerates keyword by
//!   keyword, stored once.
//!
//! For an l-keyword query with `Rmax ≤ R`,
//! [`ProjectionIndex::try_project`] cuts each keyword's run at `Rmax`
//! (that prefix *is* `Neighbor(V_w, Rmax)`), intersects the prefixes to
//! get the candidate centers `V_c`, reads `dist(v, t)` of Algorithm 6's
//! `s`/`t` double sweep (lines 10–15) as the minimum over the prefixes,
//! and runs the one sweep whose answer is not stored — forward from `V_c`,
//! entering only nodes with a finite `dist(v, t)` or within
//! [`slack`](crate::get_community::slack) of `V_c` (the sink bound of
//! [`crate::get_community`], same argument, same constant) — to keep the
//! nodes on a qualifying center→keyword-node path. The
//! projected graph is `G_D` induced on those nodes. Every community of the
//! query lives entirely inside `Neighbor(V_i, Rmax) ⊆ Neighbor(V_i, R)`
//! for each `i`, so running any of the enumerators on the projected graph
//! returns exactly the communities of the full graph (DESIGN.md "Sec. VI"
//! has the bit-equality arguments; the projection property tests pin
//! them).

use crate::comm_k::comm_k_guarded;
use crate::error::{validate_radius, QueryError};
use crate::get_community::slack;
use crate::types::{Community, Core, CostFn, QuerySpec};
use comm_graph::weight::index_to_u32;
use comm_graph::{
    Csr, DijkstraEngine, Direction, EnginePool, Graph, InducedGraph, InterruptReason, NodeId,
    Outcome, Parallelism, PooledEngine, RunGuard, Weight,
};
use std::collections::HashMap;
use std::mem::size_of;
use std::sync::Arc;

mod cpix;

/// Run entries scanned between two guard consultations.
const SCAN_STRIDE: usize = 1024;

/// One keyword's share of the index, independent of which other keywords
/// it is queried with: `V_w` and the *distance run* of `Neighbor(V_w, R)`
/// in `G_D`'s own node ids. Graph, vocabulary and radius fix a run
/// completely, so it can be kept for as long as those three are — it is
/// the unit a serving layer caches, and what
/// [`ProjectionIndex::from_runs`] assembles an index from.
pub struct KeywordRun {
    /// The radius the sweep was bounded by, and `|V(G_D)|` of the graph it
    /// ran on: `from_runs` refuses to mix runs of different provenance.
    radius: Weight,
    node_count: usize,
    /// `V_w`: nodes containing the keyword (original ids, sorted).
    nodes: Arc<[NodeId]>,
    /// `Neighbor(V_w, R)` in settle order, as original ids…
    reach_ids: Vec<NodeId>,
    /// …and `dist(u, V_w)` of each, non-decreasing.
    reach_dist: Arc<[Weight]>,
}

impl KeywordRun {
    /// Sweeps one keyword: `V_w` (sorted, deduplicated) plus the settle
    /// stream of the reverse sweep bounded by `radius`. `guard` is
    /// consulted per settled node; a run has no useful partial form, so a
    /// trip returns the bare reason. This is the only place the
    /// projection sweeps `G_D`.
    pub fn sweep(
        graph: &Graph,
        engine: &mut DijkstraEngine,
        v_w: &[NodeId],
        radius: Weight,
        guard: &RunGuard,
    ) -> Result<KeywordRun, InterruptReason> {
        let mut nodes: Vec<NodeId> = v_w.to_vec();
        nodes.sort_unstable();
        nodes.dedup();
        let (mut reach_ids, mut reach_dist) = (Vec::new(), Vec::new());
        let seeds = nodes.iter().copied();
        engine.run_guarded(graph, Direction::Reverse, seeds, radius, guard, |s| {
            reach_ids.push(s.node);
            reach_dist.push(s.dist);
        })?;
        // A run outlives the query that swept it: hold no growth slack
        // (the two shared slices are exact-size copies already).
        reach_ids.shrink_to_fit();
        Ok(KeywordRun {
            radius,
            node_count: graph.node_count(),
            nodes: nodes.into(),
            reach_ids,
            reach_dist: reach_dist.into(),
        })
    }

    /// Logical bytes of the run: `V_w`, the ids and the distances.
    pub fn byte_size(&self) -> usize {
        entry_bytes(self.nodes.len(), self.reach_ids.len())
    }
}

/// Bytes of a keyword's `V_w` list plus a run of `reach` entries.
fn entry_bytes(nodes: usize, reach: usize) -> usize {
    (nodes + reach) * size_of::<NodeId>() + reach * size_of::<Weight>()
}

/// A keyword's inverted-index payload: its [`KeywordRun`] relabelled into
/// one index's `U`-local ids. `nodes` and `reach_dist` do not depend on
/// the relabel and are shared with the run they came from.
struct KeywordEntry {
    /// `V_w`: nodes containing the keyword (original ids, sorted).
    nodes: Arc<[NodeId]>,
    /// `Neighbor(V_w, R)` in settle order, as `U`-local ids…
    reach_ids: Vec<NodeId>,
    /// …and `dist(u, V_w)` of each, non-decreasing.
    reach_dist: Arc<[Weight]>,
}

impl KeywordEntry {
    fn byte_size(&self) -> usize {
        entry_bytes(self.nodes.len(), self.reach_ids.len())
    }
}

/// A set of node ids below `n` that ranks its members — the monotone
/// relabel of an induced subgraph: one bit per node of the universe and,
/// once [`seal`](Self::seal)ed, the number of members before each 64-bit
/// word. Selecting `|U|` of `G_D`'s `n` nodes this way touches
/// `n / 8 + n / 16` bytes — a cache-resident 75 KB at 400K nodes — where a
/// dense `u32` relabel table is 4 B per node of `G_D`, written at random
/// and then scanned (or its marks sorted) to be ranked.
struct RankedSet {
    bits: Vec<u64>,
    /// `before[w]`: members in words `0..w`. Empty until sealed.
    before: Vec<u32>,
}

impl RankedSet {
    /// Logical bytes of a set over `n` ids, for a guard's byte budget.
    fn bytes_for(n: usize) -> usize {
        n.div_ceil(64) * (size_of::<u64>() + size_of::<u32>())
    }

    fn new(n: usize) -> RankedSet {
        RankedSet {
            bits: vec![0; n.div_ceil(64)],
            before: Vec::new(),
        }
    }

    fn insert(&mut self, v: NodeId) {
        self.bits[v.index() / 64] |= 1 << (v.index() % 64);
    }

    /// Fixes the ranks and returns the members in ascending order; the
    /// relabel `v ↦ rank(v)` is therefore monotone.
    fn seal(&mut self) -> Vec<NodeId> {
        let mut members = Vec::new();
        self.before = Vec::with_capacity(self.bits.len());
        for (w, &word) in self.bits.iter().enumerate() {
            self.before.push(index_to_u32(members.len()));
            let mut rest = word;
            while rest != 0 {
                let v = w * 64 + rest.trailing_zeros() as usize;
                members.push(NodeId(index_to_u32(v)));
                rest &= rest - 1;
            }
        }
        members
    }

    /// How many members are smaller than `v`: the rank of `v`, if it is a
    /// member.
    fn below(&self, v: NodeId) -> NodeId {
        let (w, bit) = (v.index() / 64, 1u64 << (v.index() % 64));
        NodeId(self.before[w] + (self.bits[w] & (bit - 1)).count_ones())
    }

    /// The rank of `v` among the members, if it is one.
    fn rank(&self, v: NodeId) -> Option<NodeId> {
        let member = self.bits[v.index() / 64] & (1 << (v.index() % 64)) != 0;
        member.then(|| self.below(v))
    }
}

/// The inverted index of Sec. VI, plus the projection operation.
pub struct ProjectionIndex {
    radius: Weight,
    /// `|V(G_D)|`.
    node_count: usize,
    /// `U`: the union of every keyword's `Neighbor(V_w, R)`, sorted — the
    /// local-id → original-id map of `rows` and of the runs.
    nodes: Vec<NodeId>,
    /// Forward adjacency of `G_D[U]` in local ids.
    rows: Csr,
    entries: HashMap<String, KeywordEntry>,
}

/// A projected subgraph plus the query translated to local node ids.
pub struct ProjectedQuery {
    /// The projected graph `G_P ⊆ G_D` (renumbered) with the original-id
    /// mapping.
    pub projected: InducedGraph,
    /// The query's keyword node sets in *local* (projected) ids.
    pub spec: QuerySpec,
}

impl ProjectedQuery {
    /// Translates a community enumerated on the projected graph back into
    /// the original graph's node ids, so callers (and answer caches) never
    /// observe projection-local ids. The community's internal subgraph is
    /// structurally unchanged — only its id mapping is rewritten — and all
    /// sorted node lists stay sorted because the projection's local ids
    /// are assigned in ascending original-id order.
    pub fn lift(&self, c: Community) -> Community {
        let m = |v: NodeId| self.projected.to_original(v);
        Community {
            core: Core(c.core.0.iter().map(|&v| m(v)).collect()),
            cost: c.cost,
            centers: c.centers.iter().map(|&v| m(v)).collect(),
            knodes: c.knodes.iter().map(|&v| m(v)).collect(),
            path_nodes: c.path_nodes.iter().map(|&v| m(v)).collect(),
            subgraph: InducedGraph {
                graph: c.subgraph.graph,
                original_ids: c.subgraph.original_ids.iter().map(|&v| m(v)).collect(),
            },
        }
    }
}

/// Cache-aware top-k entry point: projects the query through a (possibly
/// cached) [`ProjectionIndex`], runs `COMM-k` on the projected graph under
/// `guard`, and lifts the answers back to original graph ids.
///
/// This is the single execution path behind the serving layer's cached and
/// uncached answers — both roads go through the same index → projection →
/// enumeration → lift pipeline, which is what makes the cached-vs-uncached
/// bit-identical contract structural rather than coincidental.
///
/// `guard` governs the whole query: projection and enumeration share its
/// deadline, budgets, and cancel flag. A trip during projection returns
/// `Err(QueryError::Interrupted)` (a partial projection would silently drop
/// communities); a trip during enumeration returns
/// `Ok(Outcome::Interrupted)` carrying the exact ranked prefix emitted so
/// far.
pub fn comm_k_on_index(
    index: &ProjectionIndex,
    keywords: &[&str],
    rmax: Weight,
    k: usize,
    cost: CostFn,
    guard: RunGuard,
) -> Result<Outcome<Vec<Community>>, QueryError> {
    let pq = index.try_project(keywords, rmax, &guard)?;
    let spec = pq.spec.clone().with_cost(cost);
    let out = comm_k_guarded(&pq.projected.graph, &spec, k, guard)?;
    Ok(out.map(|cs| cs.into_iter().map(|c| pq.lift(c)).collect()))
}

impl ProjectionIndex {
    /// Builds the index over `graph` for every `(keyword, nodes)` pair,
    /// supporting queries with `Rmax ≤ radius`: [`KeywordRun::sweep`] per
    /// keyword, then [`from_runs`](Self::from_runs).
    ///
    /// The sweeps are one task per keyword, fanned out across `par`'s
    /// workers, each borrowing a Dijkstra engine from `pool`
    /// ([`Parallelism::serial`] runs the same tasks inline on one worker).
    /// They are independent and assembly does not depend on their order,
    /// so the index is identical for every thread count.
    ///
    /// `guard` governs both halves. Index construction has no useful
    /// partial result, so a trip returns the bare reason.
    pub fn build_par_guarded<'a>(
        graph: &Graph,
        keywords: impl IntoIterator<Item = (&'a str, &'a [NodeId])>,
        radius: Weight,
        guard: &RunGuard,
        pool: &EnginePool,
        par: Parallelism,
    ) -> Result<ProjectionIndex, InterruptReason> {
        let n = graph.node_count();
        let tasks: Vec<_> = keywords
            .into_iter()
            .map(|(kw, v_w)| {
                move |engine: &mut PooledEngine<'_>| -> Result<_, InterruptReason> {
                    let run = KeywordRun::sweep(graph, engine, v_w, radius, guard)?;
                    Ok((kw.to_string(), Arc::new(run)))
                }
            })
            .collect();
        let swept = par.map_init(|| pool.acquire(n), tasks);
        let runs = swept.into_iter().collect::<Result<Vec<_>, _>>()?;
        ProjectionIndex::from_runs(graph, runs, radius, guard)
    }

    /// Assembles the index of a keyword set from its keywords' runs, all
    /// swept over `graph` at `radius`: marks `U`, relabels each run's ids
    /// into `U`-local ones and copies `U`'s forward rows out of `graph`.
    /// No sweep runs here. Keywords are lowercased; of two runs under one
    /// keyword the later wins. The result does not depend on the order of
    /// `runs`.
    ///
    /// Cost: the run entries, the out-edges of `U`, and `n / 64` words of
    /// a [`RankedSet`] — no per-node table over `G_D`, nothing sorted.
    /// `V_w` and the distances are shared with the runs, not copied.
    /// `guard` is consulted per 1024 run entries of the marking pass; the
    /// set, the relabelled runs and the copied rows are charged to its
    /// byte budget.
    ///
    /// # Panics
    /// If a run was swept over a graph of another size or at another
    /// radius — its ids or its reach would not be this index's.
    pub fn from_runs(
        graph: &Graph,
        runs: impl IntoIterator<Item = (String, Arc<KeywordRun>)>,
        radius: Weight,
        guard: &RunGuard,
    ) -> Result<ProjectionIndex, InterruptReason> {
        let n = graph.node_count();
        let mut by_keyword = HashMap::new();
        for (kw, run) in runs {
            assert!(
                run.node_count == n && run.radius == radius,
                "run of {kw:?} was swept over another graph or radius"
            );
            // xtask-allow: unbounded_alloc — one handle per keyword; each run was guard-governed
            by_keyword.insert(kw.to_lowercase(), run);
        }

        let run_bytes: usize = by_keyword.values().map(|r| r.byte_size()).sum();
        guard.check_bytes(run_bytes + RankedSet::bytes_for(n))?;
        let mut reached = RankedSet::new(n);
        for run in by_keyword.values() {
            for chunk in run.reach_ids.chunks(SCAN_STRIDE) {
                guard.check()?;
                for &u in chunk {
                    reached.insert(u);
                }
            }
        }
        let nodes = reached.seal();
        let entries = by_keyword
            .into_iter()
            .map(|(kw, run)| {
                // Every run id is a member, and the count is known up
                // front: the relabelled run is allocated at its exact size.
                let local = run.reach_ids.iter().map(|&u| reached.below(u));
                let entry = KeywordEntry {
                    nodes: Arc::clone(&run.nodes),
                    reach_ids: local.collect(),
                    reach_dist: Arc::clone(&run.reach_dist),
                };
                (kw, entry)
            })
            .collect();
        let rows = graph
            .rows(Direction::Forward)
            .induce(&nodes, |v| reached.rank(v));
        let index = ProjectionIndex {
            radius,
            node_count: n,
            nodes,
            rows,
            entries,
        };
        guard.check_bytes(index.byte_size() + RankedSet::bytes_for(n))?;
        Ok(index)
    }

    /// The maximum `Rmax` this index supports.
    pub fn radius(&self) -> Weight {
        self.radius
    }

    /// Number of indexed keywords.
    pub fn keyword_count(&self) -> usize {
        self.entries.len()
    }

    /// `|U|`: nodes within the index radius of at least one keyword.
    pub fn reach_node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Edges of `G_D[U]`, the one stored row copy.
    pub fn row_edge_count(&self) -> usize {
        self.rows.edge_count()
    }

    /// `invertedN` lookup: the nodes containing `keyword`.
    pub fn nodes_of(&self, keyword: &str) -> &[NodeId] {
        self.entries
            .get(&keyword.to_lowercase())
            .map(|e| &*e.nodes)
            .unwrap_or(&[])
    }

    /// The distance run of `keyword`: `(u, dist(u, V_w))` for every `u`
    /// within the index radius, in original ids and settle order.
    pub fn reach_of(&self, keyword: &str) -> Vec<(NodeId, Weight)> {
        let Some(e) = self.entries.get(&keyword.to_lowercase()) else {
            return Vec::new();
        };
        let ids = e.reach_ids.iter().map(|u| self.nodes[u.index()]);
        ids.zip(e.reach_dist.iter().copied()).collect()
    }

    /// Total logical bytes of the index (reported next to the raw dataset
    /// size, as in Sec. VII): keywords, `V_w` lists, distance runs, `U` and
    /// the row copy.
    pub fn byte_size(&self) -> usize {
        let entries = self.entries.iter().map(|(k, e)| k.len() + e.byte_size());
        entries.sum::<usize>() + self.nodes.len() * size_of::<NodeId>() + self.rows.byte_size()
    }

    /// `GraphProjection` (Algorithm 6): projects the subgraph relevant to
    /// an l-keyword query with radius `rmax ≤ self.radius()`.
    ///
    /// Every failure mode is a [`QueryError`]: no keywords, a keyword
    /// missing from the index, an `rmax` beyond the index radius `R` (the
    /// projection would be incomplete, silently dropping communities),
    /// and a guard trip mid-projection, for the same reason.
    pub fn try_project(
        &self,
        keywords: &[&str],
        rmax: Weight,
        guard: &RunGuard,
    ) -> Result<ProjectedQuery, QueryError> {
        if keywords.is_empty() {
            return Err(QueryError::NoKeywords);
        }
        validate_radius(rmax.get())?;
        if rmax > self.radius {
            return Err(QueryError::RadiusExceedsIndex {
                rmax: rmax.get(),
                index_radius: self.radius.get(),
            });
        }
        let mut entries: Vec<&KeywordEntry> = Vec::with_capacity(keywords.len());
        for kw in keywords {
            // xtask-allow: unbounded_alloc — bounded by keywords.len()
            entries.push(
                self.entries
                    .get(&kw.to_lowercase())
                    .ok_or_else(|| QueryError::UnknownKeyword((*kw).to_string()))?,
            );
        }

        let slack = slack(rmax);
        let sink_bounded = |to_sink: Weight, nd: Weight| to_sink.is_finite() || nd < slack;
        let mut kept = self.mark_keep(&entries, rmax, guard, sink_bounded)?;

        // Line 15: G_P = G_D[keep], copied out of the stored rows of
        // G_D[U] (keep ⊆ U, so the two induce the same edges).
        let keep = kept.seal();
        let rows = self.rows.induce(&keep, |v| kept.rank(v));
        let projected = InducedGraph {
            graph: Graph::from_rows(rows),
            original_ids: keep.iter().map(|u| self.nodes[u.index()]).collect(),
        };
        // Translate the query to local ids (keyword nodes that survived).
        let local_nodes = |e: &&KeywordEntry| {
            let nodes = e.nodes.iter();
            nodes.filter_map(|&v| projected.to_local(v)).collect()
        };
        let spec = QuerySpec::new(entries.iter().map(local_nodes).collect(), rmax);
        Ok(ProjectedQuery { projected, spec })
    }

    /// Lines 1–14 of Algorithm 6 over the query's `entries`: `keep`, as
    /// an unsealed set over `U`.
    ///
    /// `enter(dist(v, t), nd)` is the forward sweep's admission rule — may
    /// a relaxation reach `v` at tentative distance `nd`? `try_project`
    /// passes the sink-bounded rule; the unfiltered `|_, _| true` is the
    /// reference this module's tests compare it with.
    fn mark_keep(
        &self,
        entries: &[&KeywordEntry],
        rmax: Weight,
        guard: &RunGuard,
        enter: impl Fn(Weight, Weight) -> bool,
    ) -> Result<RankedSet, InterruptReason> {
        // Lines 1–9 without a sweep: the prefix of a run with dist ≤ rmax
        // is Neighbor(V_w, rmax). One scatter pass over the l prefixes
        // counts, per node of U, the keywords it reaches and keeps the
        // nearest — dist(v, t) of the double sweep.
        let nu = self.nodes.len();
        let scratch = nu * (size_of::<u32>() + size_of::<Weight>()) + RankedSet::bytes_for(nu);
        guard.check_bytes(scratch)?;
        // Dense scratch over U, O(|U|) per query, charged above.
        let mut count = vec![0u32; nu];
        let mut to_sink = vec![Weight::INFINITY; nu];
        for e in entries {
            let cut = e.reach_dist.partition_point(|&d| d <= rmax);
            let ids = e.reach_ids[..cut].chunks(SCAN_STRIDE);
            for (ids, dists) in ids.zip(e.reach_dist[..cut].chunks(SCAN_STRIDE)) {
                guard.check()?;
                for (u, &d) in ids.iter().zip(dists) {
                    count[u.index()] += 1;
                    to_sink[u.index()] = to_sink[u.index()].min(d);
                }
            }
        }
        // V_c = ⋂_i Neighbor(V_i, rmax).
        let centers = (0..nu).filter(|&u| count[u] as usize == entries.len());
        let centers: Vec<NodeId> = centers.map(|u| NodeId(index_to_u32(u))).collect();

        // Lines 10–14: keep v with dist(s, v) + dist(v, t) ≤ rmax, where s
        // feeds the centers. The keep test is never used to prune — the
        // float triangle inequality can fail by an ulp, so a kept node can
        // sit behind one that is not — only `enter` is.
        let mut keep = RankedSet::new(nu);
        if !centers.is_empty() {
            let mut engine = DijkstraEngine::new(nu);
            guard.check_bytes(scratch + engine.scratch_bytes())?;
            engine.run_rows_guarded(
                &self.rows,
                centers,
                rmax,
                guard,
                |v, nd| enter(to_sink[v.index()], nd),
                |s| {
                    if s.dist + to_sink[s.node.index()] <= rmax {
                        keep.insert(s.node);
                    }
                },
            )?;
        }
        Ok(keep)
    }

    /// Fraction of `G_D`'s nodes that survive projection for a query —
    /// the "projected graph size" statistic of Sec. VII.
    pub fn projection_ratio(&self, q: &ProjectedQuery) -> f64 {
        if self.node_count == 0 {
            0.0
        } else {
            q.projected.graph.node_count() as f64 / self.node_count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{collect_all, collect_top_k};
    use comm_datasets::paper_example::{fig4_graph, fig4_keyword_nodes, FIG4_RMAX};
    use std::collections::BTreeSet;

    pub(super) fn index(radius: f64) -> (Graph, ProjectionIndex) {
        let g = fig4_graph();
        let kn = fig4_keyword_nodes();
        let kws = [
            ("a", kn[0].as_slice()),
            ("b", kn[1].as_slice()),
            ("c", kn[2].as_slice()),
        ];
        let idx = build(&g, kws, radius, 1).unwrap();
        (g, idx)
    }

    fn build<'a>(
        g: &Graph,
        kws: impl IntoIterator<Item = (&'a str, &'a [NodeId])>,
        radius: f64,
        threads: usize,
    ) -> Result<ProjectionIndex, InterruptReason> {
        ProjectionIndex::build_par_guarded(
            g,
            kws,
            Weight::new(radius),
            &RunGuard::unlimited(),
            &EnginePool::new(),
            Parallelism::new(threads),
        )
    }

    fn project(idx: &ProjectionIndex, keywords: &[&str], rmax: f64) -> ProjectedQuery {
        idx.try_project(keywords, Weight::new(rmax), &RunGuard::unlimited())
            .unwrap()
    }

    fn cores_on(g: &Graph, spec: &QuerySpec) -> BTreeSet<Vec<u32>> {
        collect_all(g, spec)
            .into_iter()
            .map(|c| c.core.0.iter().map(|n| n.0).collect())
            .collect()
    }

    #[test]
    fn inverted_n_lookup() {
        let (_, idx) = index(8.0);
        assert_eq!(idx.nodes_of("a"), &[NodeId(4), NodeId(13)]);
        assert_eq!(idx.nodes_of("A"), &[NodeId(4), NodeId(13)]);
        assert!(idx.nodes_of("zzz").is_empty());
        assert_eq!(idx.keyword_count(), 3);
        assert!(idx.byte_size() > 0);
    }

    #[test]
    fn distance_runs_are_the_reverse_sweeps_settle_streams() {
        let (g, idx) = index(8.0);
        let mut engine = DijkstraEngine::new(g.node_count());
        for (kw, seeds) in ["a", "b", "c"].into_iter().zip(fig4_keyword_nodes()) {
            let mut stream = Vec::new();
            let seeds = seeds.iter().copied();
            engine.run(&g, Direction::Reverse, seeds, Weight::new(8.0), |s| {
                stream.push((s.node, s.dist));
            });
            assert_eq!(idx.reach_of(kw), stream, "run of {kw}");
        }
        assert!(idx.reach_of("zzz").is_empty());
        // The stored rows are G_D[U], edge for edge.
        let u = &idx.nodes;
        let induced = g.induce(u);
        assert_eq!(&induced.original_ids, u);
        let fwd = induced.graph.rows(Direction::Forward);
        assert_eq!(idx.rows.offsets(), fwd.offsets());
        assert_eq!(idx.rows.targets(), fwd.targets());
        assert_eq!(idx.rows.weights(), fwd.weights());
        assert_eq!(idx.reach_node_count(), u.len());
        assert_eq!(idx.row_edge_count(), induced.graph.edge_count());
    }

    #[test]
    fn projection_preserves_all_communities() {
        let (g, idx) = index(8.0);
        let full_spec = QuerySpec::new(fig4_keyword_nodes(), Weight::new(FIG4_RMAX));
        let full = cores_on(&g, &full_spec);
        let pq = project(&idx, &["a", "b", "c"], FIG4_RMAX);
        // Enumerate on the projected graph and translate back.
        let projected: BTreeSet<Vec<u32>> = collect_all(&pq.projected.graph, &pq.spec)
            .into_iter()
            .map(|c| {
                c.core
                    .0
                    .iter()
                    .map(|&n| pq.projected.to_original(n).0)
                    .collect()
            })
            .collect();
        assert_eq!(projected, full);
    }

    #[test]
    fn projection_preserves_topk_order() {
        let (g, idx) = index(8.0);
        let full_spec = QuerySpec::new(fig4_keyword_nodes(), Weight::new(FIG4_RMAX));
        let full: Vec<f64> = collect_top_k(&g, &full_spec, 5)
            .iter()
            .map(|c| c.cost.get())
            .collect();
        let pq = project(&idx, &["a", "b", "c"], FIG4_RMAX);
        let proj: Vec<f64> = collect_top_k(&pq.projected.graph, &pq.spec, 5)
            .iter()
            .map(|c| c.cost.get())
            .collect();
        assert_eq!(full, proj);
    }

    #[test]
    fn sink_bounded_keep_set_is_the_unfiltered_one() {
        // The boundary-weight rung, one level down: over multigraphs whose
        // path sums land within an ulp of `rmax`, `try_project` keeps the
        // nodes its own body marks under an unfiltered sweep.
        use comm_graph::{GraphBuilder, SplitMix64};
        const WEIGHTS: [f64; 5] = [0.0, 0.1, 0.2, 0.3, 0.4];
        let (mut kept, mut pruned) = (0, 0);
        SplitMix64::for_each_case(512, |rng| {
            let n = 4 + rng.index(9);
            let node = |rng: &mut SplitMix64| NodeId(index_to_u32(rng.index(n)));
            let mut b = GraphBuilder::new(n);
            for _ in 0..n + rng.index(n * 3) {
                let w = Weight::new(WEIGHTS[rng.index(WEIGHTS.len())]);
                b.add_edge(node(rng), node(rng), w);
            }
            let (u, v) = (node(rng), node(rng));
            b.add_edge(u, v, Weight::ZERO);
            b.add_edge(v, u, Weight::ZERO);
            let g = b.build();
            let sets: Vec<Vec<NodeId>> = (0..1 + rng.index(3))
                .map(|_| (0..1 + rng.index(2)).map(|_| node(rng)).collect())
                .collect();
            let names = ["a", "b", "c"];
            let kws = names.iter().zip(&sets).map(|(kw, v)| (*kw, v.as_slice()));
            let idx = build(&g, kws, 1.6, 1).unwrap();
            let entries: Vec<&KeywordEntry> = names[..sets.len()]
                .iter()
                .map(|kw| &idx.entries[*kw])
                .collect();
            // Tenths, and the three sums of tenths one ulp off a tenth.
            let rmax = match rng.index(16) {
                13 => 0.1 + 0.2,
                14 => (0.1 + 0.2) + 0.3,
                15 => (0.4 + 0.3) + 0.2,
                k => k as f64 / 10.0,
            };
            let rmax = Weight::new(rmax);
            let bounded = RunGuard::new();
            let pq = idx.try_project(&names[..sets.len()], rmax, &bounded);
            let open = RunGuard::new();
            let mut marks = idx.mark_keep(&entries, rmax, &open, |_, _| true).unwrap();
            let unfiltered = marks.seal().into_iter();
            let unfiltered: Vec<NodeId> = unfiltered.map(|u| idx.nodes[u.index()]).collect();
            let kept_here = pq.unwrap().projected.original_ids;
            assert_eq!(kept_here, unfiltered, "keep sets differ at rmax {rmax}");
            assert!(bounded.settled() <= open.settled());
            kept += kept_here.len();
            pruned += open.settled() - bounded.settled();
        });
        // The rung is not vacuous: nodes are kept, and the filter bites.
        assert!(kept >= 500 && pruned >= 50, "kept {kept}, pruned {pruned}");
    }

    #[test]
    fn projection_shrinks_graph() {
        let (g, idx) = index(8.0);
        // A 2-keyword query on {a, b} must not retain nodes only relevant
        // to c-paths.
        let pq = project(&idx, &["a", "b"], 6.0);
        assert!(pq.projected.graph.node_count() < g.node_count());
        assert!(idx.projection_ratio(&pq) < 1.0);
    }

    #[test]
    fn try_project_reports_structured_errors() {
        let (_, idx) = index(8.0);
        let g = RunGuard::unlimited();
        assert!(matches!(
            idx.try_project(&[], Weight::new(4.0), &g),
            Err(QueryError::NoKeywords)
        ));
        assert!(matches!(
            idx.try_project(&["a", "nope"], Weight::new(4.0), &g),
            Err(QueryError::UnknownKeyword(kw)) if kw == "nope"
        ));
        assert!(matches!(
            idx.try_project(&["a", "b"], Weight::new(9.0), &g),
            Err(QueryError::RadiusExceedsIndex { .. })
        ));
        // A guard trip surfaces as Interrupted, never as a partial graph.
        let tripping = RunGuard::new().with_settled_budget(1);
        assert!(matches!(
            idx.try_project(&["a", "b"], Weight::new(6.0), &tripping),
            Err(QueryError::Interrupted(
                InterruptReason::SettledBudgetExhausted
            ))
        ));
        assert!(idx.try_project(&["a", "b"], Weight::new(6.0), &g).is_ok());
    }

    #[test]
    fn lift_translates_every_id_back_to_original() {
        let (g, idx) = index(8.0);
        let full_spec = QuerySpec::new(fig4_keyword_nodes(), Weight::new(FIG4_RMAX));
        let full = collect_top_k(&g, &full_spec, 5);
        let pq = project(&idx, &["a", "b", "c"], FIG4_RMAX);
        let lifted: Vec<_> = collect_top_k(&pq.projected.graph, &pq.spec, 5)
            .into_iter()
            .map(|c| pq.lift(c))
            .collect();
        assert_eq!(lifted.len(), full.len());
        for (a, b) in lifted.iter().zip(&full) {
            assert_eq!(a.core, b.core);
            assert_eq!(a.cost, b.cost);
            assert_eq!(a.centers, b.centers);
            assert_eq!(a.knodes, b.knodes);
            assert_eq!(a.path_nodes, b.path_nodes);
            assert_eq!(a.subgraph.original_ids, b.subgraph.original_ids);
            assert_eq!(a.edge_count(), b.edge_count());
        }
    }

    #[test]
    fn comm_k_on_index_matches_full_graph_and_certifies() {
        let (g, idx) = index(8.0);
        let full_spec = QuerySpec::new(fig4_keyword_nodes(), Weight::new(FIG4_RMAX));
        let full = collect_top_k(&g, &full_spec, 5);
        let out = comm_k_on_index(
            &idx,
            &["a", "b", "c"],
            Weight::new(FIG4_RMAX),
            5,
            CostFn::SumDistances,
            RunGuard::unlimited(),
        )
        .unwrap();
        assert!(out.is_complete());
        let got = out.into_value();
        assert_eq!(got.len(), full.len());
        for (a, b) in got.iter().zip(&full) {
            assert_eq!(a.core, b.core);
            assert_eq!(a.cost, b.cost);
            // Lifted answers certify against the FULL graph's spec — the
            // certification path the serving layer's cache contract reuses.
            crate::verify::check_community(&g, &full_spec, a).unwrap();
        }
    }

    #[test]
    fn comm_k_on_index_interruption_is_an_exact_prefix() {
        let (g, idx) = index(8.0);
        let full_spec = QuerySpec::new(fig4_keyword_nodes(), Weight::new(FIG4_RMAX));
        let full = collect_top_k(&g, &full_spec, 5);
        // A candidate budget of 2 yields exactly the first 2 ranked answers.
        let out = comm_k_on_index(
            &idx,
            &["a", "b", "c"],
            Weight::new(FIG4_RMAX),
            5,
            CostFn::SumDistances,
            RunGuard::new().with_candidate_budget(2),
        )
        .unwrap();
        assert!(!out.is_complete());
        let prefix = out.into_value();
        assert_eq!(prefix.len(), 2);
        for (a, b) in prefix.iter().zip(&full) {
            assert_eq!(a.core, b.core);
            assert_eq!(a.cost, b.cost);
        }
        // A trip during the projection sweeps has no partial result at all.
        let err = comm_k_on_index(
            &idx,
            &["a", "b", "c"],
            Weight::new(FIG4_RMAX),
            5,
            CostFn::SumDistances,
            RunGuard::new().with_settled_budget(1),
        )
        .unwrap_err();
        assert!(matches!(err, QueryError::Interrupted(_)));
    }

    #[test]
    fn parallel_build_matches_serial() {
        let g = fig4_graph();
        let kn = fig4_keyword_nodes();
        let kws = [
            ("a", kn[0].as_slice()),
            ("b", kn[1].as_slice()),
            ("c", kn[2].as_slice()),
        ];
        let serial = build(&g, kws, 8.0, 1).unwrap();
        for threads in [2usize, 4] {
            let par = build(&g, kws, 8.0, threads).unwrap();
            assert_eq!(par.keyword_count(), serial.keyword_count());
            assert_eq!(par.radius(), serial.radius());
            assert_eq!(par.byte_size(), serial.byte_size());
            assert_eq!(par.encode(), serial.encode());
        }
    }

    #[test]
    fn runs_swept_one_at_a_time_assemble_the_one_shot_index() {
        let g = fig4_graph();
        let kn = fig4_keyword_nodes();
        let names = ["a", "b", "c"];
        let r = Weight::new(8.0);
        let guard = RunGuard::unlimited();
        let mut engine = DijkstraEngine::new(g.node_count());
        let mut sweep = |i: usize| {
            let run = KeywordRun::sweep(&g, &mut engine, &kn[i], r, &guard).unwrap();
            (names[i].to_uppercase(), Arc::new(run))
        };
        // Whole sets in every rotation, and — from the same handles, as a
        // run cache would serve them — a subset.
        let (c, a, b) = (sweep(2), sweep(0), sweep(1));
        let runs = [a, b, c];
        for picks in [vec![0, 1, 2], vec![1, 2, 0], vec![2, 1, 0], vec![2, 0]] {
            let handles = picks.iter().map(|&p| runs[p].clone());
            let assembled = ProjectionIndex::from_runs(&g, handles, r, &guard).unwrap();
            let kws: Vec<_> = picks
                .iter()
                .map(|&p| (names[p], kn[p].as_slice()))
                .collect();
            for threads in [1usize, 2, 4] {
                let built = build(&g, kws.iter().copied(), 8.0, threads).unwrap();
                assert_eq!(assembled.encode(), built.encode(), "{picks:?} x {threads}");
            }
            // V_w and the distances are the run's own arrays, not copies.
            for p in picks {
                let (kw, run) = &runs[p];
                let entry = &assembled.entries[&kw.to_lowercase()];
                assert!(Arc::ptr_eq(&entry.nodes, &run.nodes));
                assert!(Arc::ptr_eq(&entry.reach_dist, &run.reach_dist));
                assert_eq!(entry.byte_size(), run.byte_size());
            }
        }
    }

    #[test]
    fn assembly_is_guarded_and_sweeps_nothing() {
        let g = fig4_graph();
        let kn = fig4_keyword_nodes();
        let r = Weight::new(8.0);
        let mut engine = DijkstraEngine::new(g.node_count());
        let run = KeywordRun::sweep(&g, &mut engine, &kn[0], r, &RunGuard::unlimited()).unwrap();
        let run = Arc::new(run);
        let handles = || [("a".to_string(), Arc::clone(&run))];
        let counting = RunGuard::new();
        ProjectionIndex::from_runs(&g, handles(), r, &counting).unwrap();
        assert_eq!(counting.settled(), 0, "assembly must not sweep");
        let tripped =
            ProjectionIndex::from_runs(&g, handles(), r, &RunGuard::new().with_trip_after(0));
        assert!(tripped.is_err());
        let starved =
            ProjectionIndex::from_runs(&g, handles(), r, &RunGuard::new().with_byte_budget(8));
        assert_eq!(starved.err(), Some(InterruptReason::MemoryBudgetExhausted));
    }

    #[test]
    #[should_panic(expected = "another graph or radius")]
    fn assembly_refuses_a_run_of_another_radius() {
        let g = fig4_graph();
        let kn = fig4_keyword_nodes();
        let guard = RunGuard::unlimited();
        let mut engine = DijkstraEngine::new(g.node_count());
        let run = KeywordRun::sweep(&g, &mut engine, &kn[0], Weight::new(4.0), &guard).unwrap();
        let _ =
            ProjectionIndex::from_runs(&g, [("a".into(), Arc::new(run))], Weight::new(8.0), &guard);
    }

    #[test]
    fn parallel_build_respects_guard() {
        let g = fig4_graph();
        let kn = fig4_keyword_nodes();
        let kws = [("a", kn[0].as_slice()), ("b", kn[1].as_slice())];
        let pool = EnginePool::new();
        for threads in [1usize, 2] {
            let tripped = ProjectionIndex::build_par_guarded(
                &g,
                kws,
                Weight::new(8.0),
                &RunGuard::new().with_settled_budget(2),
                &pool,
                Parallelism::new(threads),
            );
            assert_eq!(tripped.err(), Some(InterruptReason::SettledBudgetExhausted));
        }
    }
}
