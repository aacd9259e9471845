//! The daemon's resident query engine: one graph, one keyword vocabulary,
//! and the three guarded caches, behind a single [`answer`] entry point.
//!
//! **Bit-identical contract.** Cached and uncached replies must match bit
//! for bit. This holds structurally rather than by re-verification on
//! every hit:
//!
//! * the uncached path is the deterministic
//!   [`comm_k_on_index`](comm_core::comm_k_on_index) pipeline
//!   (project → enumerate → lift), and
//! * the cached path replays the stored `Vec<Community>` of a previous
//!   **complete** run of that same pipeline — interrupted answers are
//!   never cached, so a cached value is always the full deterministic
//!   answer.
//!
//! **Guarded replay.** A cache hit still consults the request's
//! [`RunGuard`] once per returned community, so a tripped guard during a
//! cached-answer reply degrades to the same certified exact prefix an
//! uncached interrupted run would produce.
//!
//! **Two-level index lookup.** An answer miss asks the per-set index LRU;
//! a miss there asks the run cache once per keyword, sweeps only the
//! keywords it does not hold, and assembles the set's index from the
//! runs. Graph, vocabulary and index radius are fixed for the engine's
//! lifetime, so a run, once swept, is never stale: a new keyword *set*
//! costs sweeps only for the keywords no earlier request brought.
//!
//! **Guarded insertion.** Sweeps and assembly run under the request's
//! guard. A run is inserted once its own sweep completed and an index once
//! it is assembled; a trip surfaces as [`QueryError::Interrupted`] with
//! nothing half-built in any cache (runs that did complete stay: they are
//! whole, and the retry needs them).
//!
//! [`answer`]: QueryEngine::answer

use crate::cache::{AnswerKey, CachedAnswer, CachedIndex, CachedRun, IndexKey, Lru, Vocabulary};
use crate::protocol::CommunitySummary;
use comm_core::{comm_k_on_index, Community, CostFn, KeywordRun, ProjectionIndex, QueryError};
use comm_graph::weight::index_to_u32;
use comm_graph::{EnginePool, Graph, Outcome, Parallelism, PooledEngine, RunGuard, Weight};
use std::sync::{Arc, Mutex, MutexGuard};

/// Engine tunables.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// The radius every cached projection index is built for; requests
    /// with `rmax` beyond it are rejected (projection would be lossy).
    pub index_radius: f64,
    /// Capacity of the projection-index LRU.
    pub index_cache_cap: usize,
    /// Capacity of the exact-hit answer LRU.
    pub answer_cache_cap: usize,
    /// Byte cap of the keyword-run cache (summed
    /// [`KeywordRun::byte_size`]). A run is ≈ 80 KB per keyword on the
    /// 400K-node bibliographic benchmark graph, so the default holds
    /// several hundred keywords.
    pub run_cache_bytes: usize,
    /// Ranking cost function.
    pub cost: CostFn,
    /// Fan-out for an index-cache miss: the sweeps of the keywords the
    /// run cache does not hold, one task each, borrowing engines from the
    /// [`QueryEngine`]'s own [`EnginePool`]. Keywords already resident and
    /// index assembly are not fanned out.
    pub parallelism: Parallelism,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            index_radius: 8.0,
            index_cache_cap: 8,
            answer_cache_cap: 256,
            run_cache_bytes: 32 << 20,
            cost: CostFn::SumDistances,
            parallelism: Parallelism::serial(),
        }
    }
}

/// The resident engine shared by every connection handler.
pub struct QueryEngine {
    graph: Graph,
    vocab: Vocabulary,
    index_radius: Weight,
    cost: CostFn,
    parallelism: Parallelism,
    /// Dijkstra scratch for keyword sweeps, private to this engine.
    pool: EnginePool,
    indexes: Mutex<Lru<IndexKey, CachedIndex>>,
    /// Lowercased keyword → its run. Never held across a sweep, nor while
    /// taking another cache's lock.
    runs: Mutex<Lru<String, CachedRun>>,
    answers: Mutex<Lru<AnswerKey, CachedAnswer>>,
}

/// Recovers a cache lock from a poisoned mutex: the caches hold only
/// fully built `Arc`s (insertion happens after construction succeeds), so
/// the state is consistent even if an unwinding thread held the lock.
fn lock_cache<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl QueryEngine {
    /// Builds an engine over `graph` with the keyword → node-set
    /// vocabulary `vocab`.
    pub fn new(
        graph: Graph,
        vocab: Vocabulary,
        cfg: EngineConfig,
    ) -> Result<QueryEngine, QueryError> {
        let index_radius =
            Weight::try_new(cfg.index_radius).ok_or(QueryError::InvalidRadius(cfg.index_radius))?;
        Ok(QueryEngine {
            graph,
            vocab,
            index_radius,
            cost: cfg.cost,
            parallelism: cfg.parallelism,
            pool: EnginePool::new(),
            indexes: Mutex::new(Lru::new(cfg.index_cache_cap)),
            runs: Mutex::new(Lru::weighted(cfg.run_cache_bytes, |run| run.byte_size())),
            answers: Mutex::new(Lru::new(cfg.answer_cache_cap)),
        })
    }

    /// Builds an engine straight from a CGPH v2 container on disk: the
    /// CSR arrays are memory-mapped and served in place (zero-copy on
    /// unix — daemon startup is O(1) in the graph size) and the
    /// container's keyword map becomes the vocabulary. This is the warm
    /// path pair of [`QueryEngine::new`]: a container saved from a built
    /// graph produces a bit-identical engine without re-parsing edges.
    pub fn from_container(
        path: impl AsRef<std::path::Path>,
        cfg: EngineConfig,
    ) -> std::io::Result<QueryEngine> {
        let c = comm_graph::container::load_container(path)?;
        QueryEngine::new(c.graph, c.keyword_nodes, cfg)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))
    }

    /// The served graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The engine's own Dijkstra scratch pool: what keyword sweeps borrow
    /// from, the stats reply reports and the chaos hook poisons.
    pub fn pool(&self) -> &EnginePool {
        &self.pool
    }

    /// The maximum `Rmax` the engine accepts.
    pub fn index_radius(&self) -> Weight {
        self.index_radius
    }

    /// The node set of one vocabulary keyword (lowercased), if indexed.
    /// Exposed so callers can certify replies against the full graph.
    pub fn keyword_nodes(&self, keyword: &str) -> Option<&[comm_graph::NodeId]> {
        self.vocab.get(&keyword.to_lowercase()).map(Vec::as_slice)
    }

    /// `(index hits, index misses, answer hits, answer misses)`.
    pub fn cache_stats(&self) -> (u64, u64, u64, u64) {
        let (ih, im) = lock_cache(&self.indexes).stats();
        let (ah, am) = lock_cache(&self.answers).stats();
        (ih, im, ah, am)
    }

    /// `(cached indexes, cached answers)` — entry counts, for tests and
    /// the stats reply.
    pub fn cache_sizes(&self) -> (usize, usize) {
        (
            lock_cache(&self.indexes).len(),
            lock_cache(&self.answers).len(),
        )
    }

    /// `(hits, misses, cached runs, cached run bytes)` of the keyword-run
    /// cache. One index-cache miss makes one lookup per distinct keyword.
    pub fn run_cache_stats(&self) -> (u64, u64, usize, usize) {
        let runs = lock_cache(&self.runs);
        let (hits, misses) = runs.stats();
        (hits, misses, runs.len(), runs.weight())
    }

    /// Resolves the projection index for a keyword set: an index-cache
    /// hit, or an index assembled from the keywords' runs — each a
    /// run-cache hit or a guarded sweep — and inserted only on success.
    fn index_for(&self, keywords: &[String], guard: &RunGuard) -> Result<CachedIndex, QueryError> {
        let key = IndexKey::new(keywords, self.index_radius.get().to_bits());
        if let Some(idx) = lock_cache(&self.indexes).get(&key) {
            return Ok(idx);
        }
        // Resolve the vocabulary before sweeping: an unknown keyword is a
        // client error, not a reason to burn sweep budget.
        let mut v_ws: Vec<&[comm_graph::NodeId]> = Vec::with_capacity(key.keywords.len());
        for kw in &key.keywords {
            let nodes = self
                .vocab
                .get(kw)
                .ok_or_else(|| QueryError::UnknownKeyword(kw.clone()))?;
            // xtask-allow: unbounded_alloc — bounded by the validated request keyword count
            v_ws.push(nodes.as_slice());
        }
        let mut runs: Vec<Option<CachedRun>> = {
            let mut cache = lock_cache(&self.runs);
            key.keywords.iter().map(|kw| cache.get(kw)).collect()
        };
        // Sweep what is missing OUTSIDE every cache lock (sweeps are the
        // expensive part). There is no single-flight: two requests missing
        // one keyword may both sweep it and the later insert refreshes the
        // earlier — a concurrent duplicate build is wasted work, never
        // wrong. The sweeps borrow scratch from this engine's own pool, so
        // a poisoned pool is recovered by — and counted against — the
        // daemon that owns it.
        let (graph, radius) = (&self.graph, self.index_radius);
        let missing = (0..runs.len()).filter(|&i| runs[i].is_none());
        let tasks: Vec<_> = missing
            .map(|i| {
                let v_w = v_ws[i];
                move |engine: &mut PooledEngine<'_>| {
                    KeywordRun::sweep(graph, engine, v_w, radius, guard).map(|run| (i, run))
                }
            })
            .collect();
        let n = graph.node_count();
        let mut tripped = None;
        for swept in self.parallelism.map_init(|| self.pool.acquire(n), tasks) {
            match swept {
                Ok((i, run)) => {
                    let run: CachedRun = Arc::new(run);
                    // xtask-allow: unbounded_alloc — one insert per request keyword into a byte-capped LRU
                    lock_cache(&self.runs).insert(key.keywords[i].clone(), Arc::clone(&run));
                    runs[i] = Some(run);
                }
                Err(reason) => tripped = tripped.or(Some(reason)),
            }
        }
        if let Some(reason) = tripped {
            return Err(QueryError::Interrupted(reason));
        }
        let handles = key.keywords.iter().cloned().zip(runs.into_iter().flatten());
        let built = ProjectionIndex::from_runs(graph, handles, radius, guard)
            .map_err(QueryError::Interrupted)?;
        let idx: CachedIndex = Arc::new(built);
        lock_cache(&self.indexes).insert(key, Arc::clone(&idx));
        Ok(idx)
    }

    /// Answers a top-k community query under `guard`.
    ///
    /// * `Ok(Outcome::Complete)` — the full answer (served from cache or
    ///   computed and then cached);
    /// * `Ok(Outcome::Interrupted)` — a certified exact ranked prefix
    ///   (guard tripped during enumeration or cached replay);
    /// * `Err(QueryError::Interrupted)` — the guard tripped during
    ///   projection/index build, where no partial result exists;
    /// * other `Err`s — the request is invalid (unknown keyword, radius
    ///   beyond the index, …).
    pub fn answer(
        &self,
        keywords: &[String],
        rmax: f64,
        k: u32,
        guard: &RunGuard,
    ) -> Result<Outcome<Vec<Community>>, QueryError> {
        if keywords.is_empty() {
            return Err(QueryError::NoKeywords);
        }
        let rmax_w = Weight::try_new(rmax).ok_or(QueryError::InvalidRadius(rmax))?;
        if rmax_w > self.index_radius {
            return Err(QueryError::RadiusExceedsIndex {
                rmax,
                index_radius: self.index_radius.get(),
            });
        }
        let akey = AnswerKey::new(keywords, rmax, k);
        if let Some(cached) = lock_cache(&self.answers).get(&akey) {
            return Ok(replay(&cached, guard));
        }
        let index = self.index_for(keywords, guard)?;
        let kw_refs: Vec<&str> = akey.keywords.iter().map(String::as_str).collect();
        let out = comm_k_on_index(
            &index,
            &kw_refs,
            rmax_w,
            usize::try_from(k).unwrap_or(usize::MAX),
            self.cost,
            guard.clone(),
        )?;
        if let Outcome::Complete(communities) = &out {
            lock_cache(&self.answers).insert(akey, Arc::new(communities.clone()));
        }
        Ok(out)
    }
}

/// Replays a cached complete answer under `guard`: one candidate check
/// per community, so a trip yields the exact ranked prefix emitted so far
/// — the same degradation an uncached interrupted run produces.
fn replay(cached: &CachedAnswer, guard: &RunGuard) -> Outcome<Vec<Community>> {
    let mut out = Vec::with_capacity(cached.len());
    for c in cached.iter() {
        if let Err(reason) = guard.note_candidate() {
            return Outcome::Interrupted {
                reason,
                partial: out,
            };
        }
        out.push(c.clone());
    }
    Outcome::Complete(out)
}

/// Flattens a [`Community`] into its wire summary. Costs travel as raw
/// bits so cache replays stay bit-identical end to end.
pub fn summarize(c: &Community) -> CommunitySummary {
    CommunitySummary {
        core: c.core.0.iter().map(|n| n.0).collect(),
        cost_bits: c.cost.get().to_bits(),
        centers: c.centers.iter().map(|n| n.0).collect(),
        node_count: index_to_u32(c.node_count()),
        edge_count: index_to_u32(c.edge_count()),
    }
}
