//! Indexing and graph projection (Sec. VI, Algorithm 6).
//!
//! The index consists of two inverted maps built for a maximum radius `R`:
//!
//! * `invertedN`: keyword `w` → the nodes `V_w` containing `w`;
//! * `invertedE`: keyword `w` → every edge `(u, v)` whose *both* endpoints
//!   can reach some node of `V_w` within `R` (i.e. both lie in
//!   `Neighbor(V_w, R)`).
//!
//! For an l-keyword query with `Rmax ≤ R`, [`ProjectionIndex::project`]
//! assembles the union of the keywords' inverted entries, intersects the
//! per-keyword neighbor sets to get candidate centers `V_c`, and keeps only
//! nodes on a qualifying center→keyword-node path (the `s`/`t`
//! double-sweep of Algorithm 6, lines 10–15). Every community of the query
//! lives entirely inside `Neighbor(V_i, Rmax) ⊆ Neighbor(V_i, R)` for each
//! `i`, so running any of the enumerators on the projected graph returns
//! exactly the communities of the full graph (tested by the projection
//! property tests).

use crate::comm_k::comm_k_guarded;
use crate::error::{validate_radius, QueryError};
use crate::types::{Community, Core, CostFn, QuerySpec};
use comm_graph::weight::index_to_u32;
use comm_graph::Outcome;
use comm_graph::{
    DijkstraEngine, Direction, EnginePool, Graph, GraphBuilder, InducedGraph, InterruptReason,
    NodeId, Parallelism, PooledEngine, RunGuard, Weight,
};
use std::collections::HashMap;

/// A keyword together with its inverted-index payload.
#[derive(Clone, Debug, Default)]
struct KeywordEntry {
    /// `V_w`: nodes containing the keyword (sorted).
    nodes: Vec<NodeId>,
    /// Edges `(u, v, w)` with both endpoints within `R` of `V_w`.
    edges: Vec<(NodeId, NodeId, Weight)>,
}

/// Builds the inverted entry of one keyword: `V_w` (sorted, deduplicated)
/// plus every edge whose endpoints both lie within `radius` of `V_w`.
/// `stamp`/`epoch` are the caller's reusable membership scratch.
fn keyword_entry(
    graph: &Graph,
    engine: &mut DijkstraEngine,
    stamp: &mut [u32],
    epoch: &mut u32,
    v_w: &[NodeId],
    radius: Weight,
    guard: &RunGuard,
) -> Result<KeywordEntry, InterruptReason> {
    let mut nodes: Vec<NodeId> = v_w.to_vec();
    nodes.sort_unstable();
    nodes.dedup();
    *epoch += 1;
    let e = *epoch;
    let mut reached: Vec<NodeId> = Vec::new();
    engine.run_guarded(
        graph,
        Direction::Reverse,
        nodes.iter().copied(),
        radius,
        guard,
        |s| {
            stamp[s.node.index()] = e;
            reached.push(s.node);
        },
    )?;
    let mut edges = Vec::new();
    for &u in &reached {
        for (v, w) in graph.out_neighbors(u) {
            if stamp[v.index()] == e {
                // xtask-allow: unbounded_alloc — bounded by edges of the guard-swept reached subgraph
                edges.push((u, v, w));
            }
        }
    }
    Ok(KeywordEntry { nodes, edges })
}

/// The two inverted indexes of Sec. VI, plus the projection operation.
pub struct ProjectionIndex {
    radius: Weight,
    entries: HashMap<String, KeywordEntry>,
    node_count: usize,
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
/// `guard` governs the whole query: projection sweeps and enumeration share
/// its deadline, budgets, and cancel flag. A trip during projection returns
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
    /// supporting queries with `Rmax ≤ radius`.
    ///
    /// Cost: one radius-bounded reverse multi-source Dijkstra per keyword
    /// plus one adjacency scan of the reached set — one task per keyword,
    /// fanned out across `par`'s workers, each borrowing a Dijkstra engine
    /// from `pool` plus its own stamp scratch ([`Parallelism::serial`]
    /// runs the same tasks inline on one worker). Per-keyword entries are
    /// independent, so the index is identical for every thread count.
    ///
    /// `guard` is consulted per settled node of the per-keyword sweeps.
    /// Index construction has no useful partial result, so a trip returns
    /// the bare reason.
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
                type Scratch<'p> = (PooledEngine<'p>, Vec<u32>, u32);
                move |(engine, stamp, epoch): &mut Scratch<'_>| -> Result<
                    (String, KeywordEntry),
                    InterruptReason,
                > {
                    let entry = keyword_entry(graph, engine, stamp, epoch, v_w, radius, guard)?;
                    Ok((kw.to_lowercase(), entry))
                }
            })
            .collect();
        let built = par.map_init(|| (pool.acquire(n), vec![0u32; n], 0u32), tasks);
        let mut entries = HashMap::new();
        for kv in built {
            let (kw, entry) = kv?;
            // xtask-allow: unbounded_alloc — one entry per keyword; each build was guard-governed
            entries.insert(kw, entry);
        }
        Ok(ProjectionIndex {
            radius,
            entries,
            node_count: n,
        })
    }

    /// The maximum `Rmax` this index supports.
    pub fn radius(&self) -> Weight {
        self.radius
    }

    /// Number of indexed keywords.
    pub fn keyword_count(&self) -> usize {
        self.entries.len()
    }

    /// `invertedN` lookup: the nodes containing `keyword`.
    pub fn nodes_of(&self, keyword: &str) -> &[NodeId] {
        self.entries
            .get(&keyword.to_lowercase())
            .map(|e| e.nodes.as_slice())
            .unwrap_or(&[])
    }

    /// `invertedE` lookup: the edges indexed under `keyword`.
    pub fn edges_of(&self, keyword: &str) -> &[(NodeId, NodeId, Weight)] {
        self.entries
            .get(&keyword.to_lowercase())
            .map(|e| e.edges.as_slice())
            .unwrap_or(&[])
    }

    /// Total logical bytes of the inverted indexes (reported next to the
    /// raw dataset size, as in Sec. VII).
    pub fn byte_size(&self) -> usize {
        self.entries
            .iter()
            .map(|(k, e)| {
                k.len()
                    + e.nodes.len() * std::mem::size_of::<NodeId>()
                    + e.edges.len() * std::mem::size_of::<(NodeId, NodeId, Weight)>()
            })
            .sum()
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
        // Assemble the union graph G'(V', E') of the keywords' entries
        // (lines 1–9). Dedup edges across keywords.
        let mut w_sets: Vec<&KeywordEntry> = Vec::with_capacity(keywords.len());
        for kw in keywords {
            // xtask-allow: unbounded_alloc — bounded by keywords.len()
            w_sets.push(
                self.entries
                    .get(&kw.to_lowercase())
                    .ok_or_else(|| QueryError::UnknownKeyword((*kw).to_string()))?,
            );
        }
        let mut union_edges: Vec<(NodeId, NodeId, Weight)> = Vec::new();
        for e in &w_sets {
            // xtask-allow: unbounded_alloc — bounded by the stored index entries' edge lists
            union_edges.extend_from_slice(&e.edges);
        }
        union_edges.sort_unstable_by_key(|a| (a.0, a.1, a.2));
        union_edges.dedup();
        // V' = all endpoints plus every keyword node.
        let mut v_union: Vec<NodeId> = union_edges
            .iter()
            .flat_map(|&(u, v, _)| [u, v])
            .chain(w_sets.iter().flat_map(|e| e.nodes.iter().copied()))
            .collect();
        v_union.sort_unstable();
        v_union.dedup();

        // Renumber into a scratch graph.
        let local = |orig: NodeId| -> NodeId {
            NodeId(index_to_u32(
                // xtask-allow: no_panics — union_edges endpoints are drawn from v_union by construction
                v_union.binary_search(&orig).expect("endpoint in V'"),
            ))
        };
        let mut b = GraphBuilder::new(v_union.len());
        for &(u, v, w) in &union_edges {
            b.add_edge(local(u), local(v), w);
        }
        let g_prime = b.build();
        let mut engine = DijkstraEngine::new(g_prime.node_count());

        // Candidate centers V_c = ⋂_i Neighbor(W_i, rmax) over G'.
        let np = g_prime.node_count();
        let mut count = vec![0usize; np];
        for e in &w_sets {
            let seeds: Vec<NodeId> = e.nodes.iter().map(|&v| local(v)).collect();
            engine.run_guarded(&g_prime, Direction::Reverse, seeds, rmax, guard, |s| {
                count[s.node.index()] += 1;
            })?;
        }
        let centers: Vec<NodeId> = (0..np)
            .filter(|&u| count[u] == w_sets.len())
            .map(|u| NodeId(index_to_u32(u)))
            .collect();

        // Double sweep (lines 10–14): keep v with dist(s,v) + dist(v,t) ≤ rmax,
        // where s feeds the centers and t drains all keyword nodes W'.
        let mut dist_s = vec![Weight::INFINITY; np];
        engine.run_guarded(
            &g_prime,
            Direction::Forward,
            centers.iter().copied(),
            rmax,
            guard,
            |s| {
                dist_s[s.node.index()] = s.dist;
            },
        )?;
        let mut all_kw_local: Vec<NodeId> = w_sets
            .iter()
            .flat_map(|e| e.nodes.iter().map(|&v| local(v)))
            .collect();
        all_kw_local.sort_unstable();
        all_kw_local.dedup();
        let mut keep: Vec<NodeId> = Vec::new();
        engine.run_guarded(
            &g_prime,
            Direction::Reverse,
            all_kw_local,
            rmax,
            guard,
            |s| {
                let u = s.node.index();
                if dist_s[u].is_finite() && dist_s[u] + s.dist <= rmax {
                    // Translate back to original ids for the final induction.
                    keep.push(v_union[u]);
                }
            },
        )?;
        keep.sort_unstable();

        // Final projected graph G_P over original ids (line 15-16); edges
        // come from the union graph restricted to kept nodes.
        let keep_local: Vec<NodeId> = keep.iter().map(|&v| local(v)).collect();
        let gp = {
            let set: std::collections::HashSet<NodeId> = keep_local.iter().copied().collect();
            let to_final: HashMap<NodeId, NodeId> = keep_local
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, NodeId(index_to_u32(i))))
                .collect();
            let mut b = GraphBuilder::new(keep.len());
            for &(u, v, w) in &union_edges {
                let (lu, lv) = (local(u), local(v));
                if set.contains(&lu) && set.contains(&lv) {
                    b.add_edge(to_final[&lu], to_final[&lv], w);
                }
            }
            b.build()
        };
        let projected = InducedGraph {
            graph: gp,
            original_ids: keep.clone(),
        };

        // Translate the query to local ids (keyword nodes that survived).
        let spec = QuerySpec::new(
            w_sets
                .iter()
                .map(|e| {
                    e.nodes
                        .iter()
                        .filter_map(|&v| projected.to_local(v))
                        .collect()
                })
                .collect(),
            rmax,
        );
        Ok(ProjectedQuery { projected, spec })
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

    /// Serializes the index to a compact little-endian blob, suitable for
    /// the *extra* section of a CGPH v2 container
    /// ([`comm_graph::container`]) so a warm start restores the built
    /// inverted indexes without re-running the per-keyword sweeps.
    ///
    /// Keywords are emitted in sorted order, so equal indexes encode to
    /// identical bytes regardless of `HashMap` iteration order.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&CPIX_MAGIC);
        out.extend_from_slice(&CPIX_VERSION.to_le_bytes());
        out.extend_from_slice(&self.radius.get().to_le_bytes());
        out.extend_from_slice(&(self.node_count as u64).to_le_bytes());
        let mut keys: Vec<&String> = self.entries.keys().collect();
        keys.sort_unstable();
        out.extend_from_slice(&(keys.len() as u64).to_le_bytes());
        for kw in keys {
            let entry = &self.entries[kw];
            out.extend_from_slice(&index_to_u32(kw.len()).to_le_bytes());
            out.extend_from_slice(kw.as_bytes());
            out.extend_from_slice(&(entry.nodes.len() as u64).to_le_bytes());
            for v in &entry.nodes {
                out.extend_from_slice(&v.0.to_le_bytes());
            }
            out.extend_from_slice(&(entry.edges.len() as u64).to_le_bytes());
            for (u, v, w) in &entry.edges {
                out.extend_from_slice(&u.0.to_le_bytes());
                out.extend_from_slice(&v.0.to_le_bytes());
                out.extend_from_slice(&w.get().to_le_bytes());
            }
        }
        out
    }

    /// Deserializes an index previously written by
    /// [`encode`](Self::encode), re-validating every invariant the query
    /// paths rely on: lowercase distinct keys, sorted-distinct in-range
    /// node lists, in-range edge endpoints, finite non-negative weights,
    /// and exact input consumption. Counts are claims, never trusted for
    /// allocation — every read is bounded by the actual remaining bytes
    /// first, with speculative preallocation capped.
    // xtask-allow: guard_coverage — loops are bounded by the length-checked blob, not graph size; callers charge the blob bytes to their RunGuard before decoding
    pub fn decode(bytes: &[u8]) -> std::io::Result<ProjectionIndex> {
        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
        let mut pos = 0usize;
        let need = |pos: usize, want: usize| -> std::io::Result<()> {
            if bytes.len() - pos < want {
                Err(bad("projection index blob truncated"))
            } else {
                Ok(())
            }
        };
        let take_u32 = |pos: &mut usize| -> std::io::Result<u32> {
            need(*pos, 4)?;
            let mut b = [0u8; 4];
            b.copy_from_slice(&bytes[*pos..*pos + 4]);
            *pos += 4;
            Ok(u32::from_le_bytes(b))
        };
        let take_u64 = |pos: &mut usize| -> std::io::Result<u64> {
            need(*pos, 8)?;
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[*pos..*pos + 8]);
            *pos += 8;
            Ok(u64::from_le_bytes(b))
        };
        let take_f64 =
            |pos: &mut usize| -> std::io::Result<f64> { Ok(f64::from_bits(take_u64(pos)?)) };
        need(pos, 4)?;
        if bytes[0..4] != CPIX_MAGIC {
            return Err(bad("not a projection index blob"));
        }
        pos += 4;
        if take_u32(&mut pos)? != CPIX_VERSION {
            return Err(bad("unsupported projection index version"));
        }
        let radius =
            Weight::try_new(take_f64(&mut pos)?).ok_or_else(|| bad("invalid index radius"))?;
        if !radius.is_finite() {
            return Err(bad("invalid index radius"));
        }
        let n64 = take_u64(&mut pos)?;
        if n64 > u64::from(u32::MAX) + 1 {
            return Err(bad("node count exceeds the u32 node-id space"));
        }
        let node_count =
            usize::try_from(n64).map_err(|_| bad("node count exceeds host address width"))?;
        let kw_count = take_u64(&mut pos)?;
        let prealloc = usize::try_from(kw_count).unwrap_or(usize::MAX);
        let mut entries = HashMap::with_capacity(prealloc.min(comm_graph::io::PREALLOC_CAP));
        for _ in 0..kw_count {
            let klen = take_u32(&mut pos)? as usize;
            need(pos, klen)?;
            let kw = std::str::from_utf8(&bytes[pos..pos + klen])
                .map_err(|_| bad("keyword is not UTF-8"))?
                .to_string();
            pos += klen;
            if kw != kw.to_lowercase() {
                return Err(bad("keyword is not lowercase"));
            }
            let nlen = take_u64(&mut pos)?;
            let nbytes = nlen
                .checked_mul(4)
                .and_then(|b| usize::try_from(b).ok())
                .ok_or_else(|| bad("keyword node count overflows"))?;
            need(pos, nbytes)?;
            let mut nodes = Vec::with_capacity(nbytes / 4);
            for _ in 0..nlen {
                let v = NodeId(take_u32(&mut pos)?);
                if v.index() >= node_count {
                    return Err(bad("keyword node out of range"));
                }
                if nodes.last().is_some_and(|&prev| prev >= v) {
                    return Err(bad("keyword node list not strictly increasing"));
                }
                nodes.push(v);
            }
            let elen = take_u64(&mut pos)?;
            let ebytes = elen
                .checked_mul(16)
                .and_then(|b| usize::try_from(b).ok())
                .ok_or_else(|| bad("keyword edge count overflows"))?;
            need(pos, ebytes)?;
            let mut edges = Vec::with_capacity(ebytes / 16);
            for _ in 0..elen {
                let u = NodeId(take_u32(&mut pos)?);
                let v = NodeId(take_u32(&mut pos)?);
                let w = Weight::try_new(take_f64(&mut pos)?)
                    .ok_or_else(|| bad("invalid edge weight"))?;
                if !w.is_finite() {
                    return Err(bad("invalid edge weight"));
                }
                if u.index() >= node_count || v.index() >= node_count {
                    return Err(bad("edge endpoint out of range"));
                }
                edges.push((u, v, w));
            }
            if entries.insert(kw, KeywordEntry { nodes, edges }).is_some() {
                return Err(bad("duplicate keyword entry"));
            }
        }
        if pos != bytes.len() {
            return Err(bad("trailing bytes after the projection index"));
        }
        Ok(ProjectionIndex {
            radius,
            entries,
            node_count,
        })
    }
}

/// Magic/version of the serialized [`ProjectionIndex`] blob.
const CPIX_MAGIC: [u8; 4] = *b"CPIX";
const CPIX_VERSION: u32 = 1;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{collect_all, collect_top_k};
    use comm_datasets::paper_example::{fig4_graph, fig4_keyword_nodes, FIG4_RMAX};
    use std::collections::BTreeSet;

    fn index(radius: f64) -> (Graph, ProjectionIndex) {
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
    fn inverted_e_endpoints_within_radius() {
        let (g, idx) = index(8.0);
        let mut engine = DijkstraEngine::new(g.node_count());
        let kn = fig4_keyword_nodes();
        // Verify the invertedE definition for keyword "b".
        let mut dist = vec![Weight::INFINITY; g.node_count()];
        engine.run(
            &g,
            Direction::Reverse,
            kn[1].iter().copied(),
            Weight::new(8.0),
            |s| {
                dist[s.node.index()] = s.dist;
            },
        );
        for &(u, v, _) in idx.edges_of("b") {
            assert!(dist[u.index()].is_finite(), "u={u} not within R of V_b");
            assert!(dist[v.index()].is_finite(), "v={v} not within R of V_b");
        }
        // And completeness: every qualifying edge is present.
        let expect: usize = g
            .edges()
            .filter(|&(u, v, _)| dist[u.index()].is_finite() && dist[v.index()].is_finite())
            .count();
        assert_eq!(idx.edges_of("b").len(), expect);
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
            for kw in ["a", "b", "c"] {
                assert_eq!(par.nodes_of(kw), serial.nodes_of(kw), "nodes of {kw}");
                assert_eq!(par.edges_of(kw), serial.edges_of(kw), "edges of {kw}");
            }
        }
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

    #[test]
    fn encode_decode_roundtrip_is_lossless_and_deterministic() {
        let (_, idx) = index(8.0);
        let blob = idx.encode();
        let back = ProjectionIndex::decode(&blob).unwrap();
        assert_eq!(back.radius(), idx.radius());
        assert_eq!(back.keyword_count(), idx.keyword_count());
        assert_eq!(back.byte_size(), idx.byte_size());
        assert_eq!(back.node_count, idx.node_count);
        for kw in ["a", "b", "c"] {
            assert_eq!(back.nodes_of(kw), idx.nodes_of(kw), "nodes of {kw}");
            assert_eq!(back.edges_of(kw), idx.edges_of(kw), "edges of {kw}");
        }
        // Deterministic bytes: re-encoding the decoded index is identical
        // (keywords are emitted sorted, not in HashMap order).
        assert_eq!(back.encode(), blob);
    }

    #[test]
    fn decoded_index_answers_queries_identically() {
        let (_, idx) = index(8.0);
        let back = ProjectionIndex::decode(&idx.encode()).unwrap();
        let want = comm_k_on_index(
            &idx,
            &["a", "b", "c"],
            Weight::new(FIG4_RMAX),
            5,
            CostFn::SumDistances,
            RunGuard::unlimited(),
        )
        .unwrap()
        .into_value();
        let got = comm_k_on_index(
            &back,
            &["a", "b", "c"],
            Weight::new(FIG4_RMAX),
            5,
            CostFn::SumDistances,
            RunGuard::unlimited(),
        )
        .unwrap()
        .into_value();
        assert_eq!(want.len(), got.len());
        for (a, b) in want.iter().zip(&got) {
            assert_eq!(a.core, b.core);
            assert_eq!(a.cost, b.cost);
        }
    }

    #[test]
    fn decode_truncation_corpus_every_prefix_is_a_clean_error() {
        let (_, idx) = index(8.0);
        let blob = idx.encode();
        for cut in 0..blob.len() {
            assert!(
                ProjectionIndex::decode(&blob[..cut]).is_err(),
                "cut {cut}/{} parsed instead of erroring",
                blob.len()
            );
        }
        assert!(ProjectionIndex::decode(&blob).is_ok());
    }

    #[test]
    fn decode_rejects_contract_violations() {
        let (_, idx) = index(8.0);
        let blob = idx.encode();
        // Trailing garbage.
        let mut b = blob.clone();
        b.push(0);
        assert!(ProjectionIndex::decode(&b).is_err());
        // Bad magic / version.
        let mut b = blob.clone();
        b[0] = b'X';
        assert!(ProjectionIndex::decode(&b).is_err());
        let mut b = blob.clone();
        b[4] = 99;
        assert!(ProjectionIndex::decode(&b).is_err());
        // NaN radius.
        let mut b = blob.clone();
        b[8..16].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(ProjectionIndex::decode(&b).is_err());
        // Uppercase keyword: first key is "a" at magic(4) + version(4) +
        // radius(8) + node_count(8) + kw_count(8) + klen(4) = offset 36.
        let mut b = blob.clone();
        assert_eq!(b[36], b'a');
        b[36] = b'A';
        assert!(ProjectionIndex::decode(&b).is_err());
        // Hostile node-count claim must be rejected before preallocation.
        let mut b = blob.clone();
        b[16..24].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        assert!(ProjectionIndex::decode(&b).is_err());
    }
}
