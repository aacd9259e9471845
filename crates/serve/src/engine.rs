//! The daemon's resident query engine: one graph, one keyword vocabulary,
//! and the three guarded caches, behind a single [`answer`] entry point.
//!
//! **One entry per query, every `k` a prefix.** The answer cache is keyed
//! by `(keywords, Rmax)`. An entry holds the longest complete ranked
//! prefix computed for the key and the parked `COMM-k` that produced it
//! ([`ParkedTopK`]: the projected graph and the can-list, no neighbor
//! table). A request for `k ≤ len` — or any `k` once the enumeration is
//! exhausted — is a *slice*; one for `k > len` *resumes* the parked
//! can-list, paying only for the communities past `len` (the paper's
//! "+50 more", Fig. 12). With no entry the engine projects and resumes
//! from the empty frontier: one path for all three.
//!
//! **Read-ahead.** A resume records its `k` on the keyword set's cached
//! index ([`IndexEntry`]). Every later enumeration over that set — a first
//! answer at another `Rmax`, or a resume — goes on past its own `k` to the
//! deepest `k` recorded, on the same enumerator and under the request's
//! guard, and the entry keeps the longer prefix. A client that extended
//! one query's answers gets its next query's larger `k` as a slice, and
//! what a request costs no longer depends on the order its `k`s arrive
//! in. A trip in the read-ahead only drops the read-ahead: the request is
//! answered complete and its `k` communities are cached. The record lives
//! as long as the index entry.
//!
//! **Bit-identical contract.** Cached and uncached replies must match bit
//! for bit. This holds structurally rather than by re-verification on
//! every hit:
//!
//! * the uncached path is the deterministic project → enumerate → lift
//!   pipeline ([`comm_k_on_index`](comm_core::comm_k_on_index) is the same
//!   [`ParkedTopK`] resumed once from its empty frontier);
//! * a slice replays the stored prefix of a previous **complete** run,
//!   and a resume continues the very enumeration that run parked —
//!   interrupted runs never touch the cache, so an entry is always a
//!   complete deterministic prefix.
//!
//! **Guarded replay and resume.** Both consult the request's
//! [`RunGuard`] once per returned community — a resume replays the prefix
//! first — so a candidate budget cuts a cached reply where it cuts an
//! uncached one, and a trip degrades to the same certified exact prefix.
//! A resume runs on a clone of the parked state, taken outside every lock;
//! only a `Complete` run replaces the entry, and only with a longer one
//! (lengths are compared under the `answers` lock), so a trip leaves the
//! entry as it was and a concurrent extension never shortens it.
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

use crate::cache::{
    AnswerEntry, AnswerKey, CachedAnswer, CachedIndex, CachedRun, IndexEntry, IndexKey, Lru,
    Vocabulary,
};
use crate::protocol::CommunitySummary;
use comm_core::{Community, CostFn, KeywordRun, ParkedTopK, ProjectionIndex, QueryError};
use comm_graph::sync::Leaf;
use comm_graph::weight::index_to_u32;
use comm_graph::{EnginePool, Graph, Outcome, RunGuard, Weight};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Engine tunables.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// The radius every cached projection index is built for; requests
    /// with `rmax` beyond it are rejected (projection would be lossy).
    pub index_radius: f64,
    /// Capacity of the projection-index LRU.
    pub index_cache_cap: usize,
    /// Byte cap of the answer cache (summed
    /// [`AnswerEntry::byte_size`]: communities plus parked state). The
    /// default holds about what 256 answers of 150 communities weigh on
    /// the quarter-size bibliographic benchmark graph, so a stream of
    /// never-repeated keys occupies what it did when the cap counted
    /// entries, while the hot `(keywords, Rmax)` pairs of a workload — a
    /// dense-graph entry of 250 communities with its parked state is
    /// ≈ 1 MB — stay resident to be sliced and resumed.
    pub answer_cache_bytes: usize,
    /// Byte cap of the keyword-run cache (summed
    /// [`KeywordRun::byte_size`]). A run is ≈ 80 KB per keyword on the
    /// 400K-node bibliographic benchmark graph, so the default holds
    /// several hundred keywords.
    pub run_cache_bytes: usize,
    /// Ranking cost function.
    pub cost: CostFn,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            index_radius: 8.0,
            index_cache_cap: 8,
            answer_cache_bytes: 24 << 20,
            run_cache_bytes: 32 << 20,
            cost: CostFn::SumDistances,
        }
    }
}

/// The resident engine shared by every connection handler.
pub struct QueryEngine {
    graph: Graph,
    vocab: Vocabulary,
    index_radius: Weight,
    cost: CostFn,
    /// Dijkstra scratch for keyword sweeps, private to this engine.
    pool: EnginePool,
    /// The three caches are [`Leaf`] locks: none is held across a sweep,
    /// a checkout or another cache's lock. A poisoned cache is taken as
    /// it is — it holds only fully built `Arc`s (insertion happens after
    /// construction succeeds), so an unwinding thread cannot leave it
    /// half-written.
    indexes: Leaf<Lru<IndexKey, CachedIndex>>,
    /// Lowercased keyword → its run.
    runs: Leaf<Lru<String, CachedRun>>,
    answers: Leaf<Lru<AnswerKey, CachedAnswer>>,
    /// Answer lookups that found an entry too short and resumed it.
    resumes: AtomicU64,
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
            pool: EnginePool::new(),
            indexes: Leaf::new(Lru::new(cfg.index_cache_cap)),
            runs: Leaf::new(Lru::weighted(cfg.run_cache_bytes, |run| run.byte_size())),
            answers: Leaf::new(Lru::weighted(cfg.answer_cache_bytes, |e| e.byte_size())),
            resumes: AtomicU64::new(0),
        })
    }

    /// Builds an engine straight from a CGPH v3 container on disk: the
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

    /// `(index hits, index misses, answer hits, answer misses)`. An answer
    /// slice is a hit; a resume, like a lookup that found nothing, a miss.
    pub fn cache_stats(&self) -> (u64, u64, u64, u64) {
        let (ih, im) = self.indexes.lock().stats();
        let (ah, am) = self.answers.lock().stats();
        (ih, im, ah, am)
    }

    /// `(cached indexes, cached answers)` — entry counts, for tests and
    /// the stats reply.
    pub fn cache_sizes(&self) -> (usize, usize) {
        // One statement each: two temporaries of one tail expression
        // would hold both guards at once.
        let indexes = self.indexes.lock().len();
        (indexes, self.answers.lock().len())
    }

    /// `(resumes, cached answer bytes)`: how many answer misses found an
    /// entry and resumed its parked enumeration, and the answer cache's
    /// weight.
    pub fn answer_cache_stats(&self) -> (u64, usize) {
        let resumes = self.resumes.load(Ordering::Relaxed);
        (resumes, self.answers.lock().weight())
    }

    /// `(hits, misses, cached runs, cached run bytes)` of the keyword-run
    /// cache. One index-cache miss makes one lookup per distinct keyword.
    pub fn run_cache_stats(&self) -> (u64, u64, usize, usize) {
        let runs = self.runs.lock();
        let (hits, misses) = runs.stats();
        (hits, misses, runs.len(), runs.weight())
    }

    /// Resolves the projection index for a keyword set: an index-cache
    /// hit, or an index assembled from the keywords' runs — each a
    /// run-cache hit or a guarded sweep — and inserted only on success.
    fn index_for(&self, keywords: &[String], guard: &RunGuard) -> Result<CachedIndex, QueryError> {
        let key = IndexKey::new(keywords, self.index_radius);
        if let Some(idx) = self.indexes.lock().get(&key) {
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
            v_ws.push(nodes.as_slice());
        }
        let mut runs: Vec<Option<CachedRun>> = {
            let mut cache = self.runs.lock();
            key.keywords.iter().map(|kw| cache.get(kw)).collect()
        };
        // Sweep what is missing OUTSIDE every cache lock (sweeps are the
        // expensive part), one keyword after another on one engine, checked
        // out only if a keyword is missing. There is no single-flight: two
        // requests missing one keyword may both sweep it and the later
        // insert refreshes the earlier — a concurrent duplicate build is
        // wasted work, never wrong. The sweeps borrow scratch from this
        // engine's own pool, so a poisoned pool is recovered by — and
        // counted against — the daemon that owns it. A completed run is
        // cached at once: if a later sweep trips, the retry needs it.
        let (graph, radius) = (&self.graph, self.index_radius);
        let mut engine = None;
        for (i, run) in runs.iter_mut().enumerate() {
            if run.is_some() {
                continue;
            }
            let engine = engine.get_or_insert_with(|| self.pool.acquire(graph.node_count()));
            let swept = KeywordRun::sweep(graph, engine, v_ws[i], radius, guard)
                .map_err(QueryError::Interrupted)?;
            let swept: CachedRun = Arc::new(swept);
            self.runs
                .lock()
                .insert(key.keywords[i].clone(), Arc::clone(&swept));
            *run = Some(swept);
        }
        drop(engine);
        let handles = key.keywords.iter().cloned().zip(runs.into_iter().flatten());
        let built = ProjectionIndex::from_runs(graph, handles, radius, guard)
            .map_err(QueryError::Interrupted)?;
        let idx: CachedIndex = Arc::new(IndexEntry::new(built));
        self.indexes.lock().insert(key, Arc::clone(&idx));
        Ok(idx)
    }

    /// Records a resume to `k` on the keyword set's cached index, if it is
    /// still cached, and returns how far the resume should run.
    fn note_resume(&self, keywords: &[String], k: usize) -> usize {
        let key = IndexKey::new(keywords, self.index_radius);
        self.indexes
            .lock()
            .peek(&key)
            .map_or(k, |idx| idx.note_resume(k))
    }

    /// Answers a top-k community query under `guard`.
    ///
    /// * `Ok(Outcome::Complete)` — the full answer (a slice of the cached
    ///   prefix, or computed — resumed or from scratch — and then cached);
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
        let k = usize::try_from(k).unwrap_or(usize::MAX);
        let akey = AnswerKey::new(keywords, rmax_w);
        let found = {
            let mut answers = self.answers.lock();
            answers.get_if(&akey, |e| e.covers(k))
        };
        let (prefix, parked, depth): (&[Community], ParkedTopK, usize) = match &found {
            Some(entry) => match &entry.parked {
                Some(parked) if !entry.covers(k) => {
                    self.resumes.fetch_add(1, Ordering::Relaxed);
                    let depth = self.note_resume(keywords, k);
                    (&entry.prefix, parked.clone(), depth)
                }
                _ => return Ok(replay(&entry.prefix[..k.min(entry.prefix.len())], guard)),
            },
            None => {
                let index = self.index_for(keywords, guard)?;
                let kw_refs: Vec<&str> = akey.keywords.iter().map(String::as_str).collect();
                let fresh = ParkedTopK::project(&index.index, &kw_refs, rmax_w, self.cost, guard)?;
                (&[], fresh, index.depth())
            }
        };
        // The prefix goes through the guard first, so a candidate budget
        // counts every community, as it does on a run from scratch.
        let mut out = match replay(prefix, guard) {
            Outcome::Complete(out) => out,
            interrupted => return Ok(interrupted),
        };
        let ahead = depth.saturating_sub(k);
        let (more, parked) = parked.resume(k - prefix.len(), ahead, guard.clone())?;
        match more {
            Outcome::Complete(more) => {
                out.extend(more);
                let reply = out[..k.min(out.len())].to_vec();
                let entry = AnswerEntry {
                    prefix: out,
                    parked,
                };
                let mut answers = self.answers.lock();
                if answers.peek(&akey).is_none_or(|old| entry.extends(old)) {
                    answers.insert(akey, Arc::new(entry));
                }
                Ok(Outcome::Complete(reply))
            }
            Outcome::Interrupted { reason, partial } => {
                out.extend(partial);
                Ok(Outcome::Interrupted {
                    reason,
                    partial: out,
                })
            }
        }
    }
}

/// Replays a cached complete prefix under `guard`: one candidate check
/// per community, so a trip yields the exact ranked prefix emitted so far
/// — the same degradation an uncached interrupted run produces.
fn replay(prefix: &[Community], guard: &RunGuard) -> Outcome<Vec<Community>> {
    let mut out = Vec::with_capacity(prefix.len());
    for c in prefix {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::synthetic_engine;
    use comm_graph::InterruptReason;

    fn fingerprint(cs: &[Community]) -> Vec<String> {
        cs.iter()
            .map(|c| format!("{:?}@{}", c.core, c.cost))
            .collect()
    }

    /// The three paths of `answer`, tripped at every guard check: a first
    /// request computes, one past a cached prefix resumes it, one within
    /// it slices it. Each trip, on a fresh engine that cached the same
    /// prefix first, is a bare interrupt (before enumeration) or an exact
    /// prefix of the untripped reply, and an unguarded retry on that engine
    /// then answers in full: a trip leaves nothing half-built in a cache.
    #[test]
    fn every_answer_path_survives_every_trip_point() {
        let (words, k) = (["alpha".to_string(), "beta".to_string()], 6);
        let answer = |e: &QueryEngine, k, guard: &RunGuard| e.answer(&words, 4.0, k, guard);
        for (name, cached) in [("compute", 0), ("resume", 3), ("slice", 9)] {
            let warmed = || {
                let engine = synthetic_engine(8, EngineConfig::default()).unwrap();
                if cached > 0 {
                    assert!(answer(&engine, cached, &RunGuard::new())
                        .unwrap()
                        .is_complete());
                }
                engine
            };
            let counter = RunGuard::new();
            let full = answer(&warmed(), k, &counter).unwrap();
            assert!(full.is_complete(), "{name}: the unlimited run completes");
            let (full, checks) = (fingerprint(full.value()), counter.checks());
            assert!(
                full.len() == 6 && checks > 0,
                "{name}: {} answers, {checks} checks",
                full.len()
            );
            let stride = (checks / 500).max(1);
            for n in (0..=checks).filter(|n| *n < 64 || n % stride == 0 || *n + 4 > checks) {
                let engine = warmed();
                let at = format!("{name}: trip_after({n}) of {checks}");
                match answer(&engine, k, &RunGuard::new().with_trip_after(n)) {
                    Ok(Outcome::Complete(out)) => {
                        assert!(n == checks && fingerprint(&out) == full, "{at}")
                    }
                    Ok(Outcome::Interrupted { reason, partial }) => {
                        assert_eq!(reason, InterruptReason::Injected, "{at}");
                        assert_eq!(fingerprint(&partial), full[..partial.len()], "{at}");
                    }
                    Err(QueryError::Interrupted(reason)) => {
                        assert_eq!(reason, InterruptReason::Injected, "{at}")
                    }
                    Err(e) => panic!("{at} failed for a non-guard reason: {e}"),
                }
                let retry = answer(&engine, k, &RunGuard::new()).unwrap();
                assert_eq!(fingerprint(retry.value()), full, "{at}: the retry");
            }
        }
    }
}
