//! REPL session state: the loaded dataset, the engines that answer over
//! it, and the active query.
//!
//! The session is a [`QueryEngine`] client, as the daemon's connections
//! are: `query` asks for the first `k`, and `more n` for the first
//! `shown + n`, which the engine serves by resuming the enumeration its
//! answer cache parked — the paper's "+50 more" (Fig. 12). One engine at
//! the dataset's default radius answers every query up to that radius,
//! under either cost; a query beyond it gets an engine of its own radius
//! over the same graph and keyword map, kept until a query needs another.

use comm_core::trees::topk_trees;
use comm_core::{CommK, CostFn, Outcome, ProjectedQuery, QueryError, RunGuard};
use comm_datasets::cache::bundle_path;
use comm_datasets::stats::dataset_stats;
use comm_datasets::{generate_dblp, generate_imdb, DblpConfig, GeneratedDataset, ImdbConfig};
use comm_graph::{load_container, save_container, NodeId, Weight};
use comm_rdb::ColumnId;
use comm_serve::{EngineConfig, QueryEngine};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A loaded dataset and the engines that answer over its graph and
/// keyword map.
struct Loaded {
    name: String,
    /// The generated dataset, for tuple labels and statistics (its keyword
    /// map moved into the engine): `None` on a warm container mapped back
    /// from the cache directory, whose database is not persisted, so
    /// labels degrade to node ids.
    generated: Option<GeneratedDataset>,
    /// Answers every query up to the dataset's default radius.
    engine: QueryEngine,
    /// Answers queries at its own radius, above the default.
    wide: Option<QueryEngine>,
}

impl Loaded {
    /// The engine for a query at `rmax`: the default one up to its radius,
    /// else the wide one, built anew unless it has exactly that radius.
    fn engine_for(&mut self, rmax: f64) -> Result<&QueryEngine, String> {
        let Some(r) = Weight::try_new(rmax).filter(|&r| r > self.engine.index_radius()) else {
            return Ok(&self.engine);
        };
        let wide = match self.wide.take() {
            Some(wide) if wide.index_radius() == r => wide,
            _ => self.engine.sibling(config(rmax)).map_err(failed)?,
        };
        Ok(self.wide.insert(wide))
    }

    /// A human label for a graph node: the owning tuple when the database
    /// is resident, the bare node id on a warm container.
    fn describe(&self, node: NodeId) -> String {
        let Some(ds) = &self.generated else {
            return format!("node#{}", node.0);
        };
        let tref = ds.graph.tuple_of(node);
        let table = ds.db.table(tref.table);
        let name = &table.schema().name;
        match name.as_str() {
            "Author" | "Users" => format!("{name}({})", table.cell(tref.row, ColumnId(1))),
            "Paper" | "Movies" => format!("{name}(\"{}\")", table.cell(tref.row, ColumnId(1))),
            other => format!("{other}#{}", tref.row.0),
        }
    }
}

/// A loaded dataset plus the state of the current query.
pub struct Session {
    dataset: Option<Loaded>,
    current: Option<ActiveQuery>,
    /// Per-query wall-clock deadline (the `timeout` command).
    timeout: Option<Duration>,
    /// Cancel flag shared with the Ctrl-C handler: aborts the query that
    /// is currently running while keeping the session alive.
    cancel: Arc<AtomicBool>,
}

struct ActiveQuery {
    keywords: Vec<String>,
    rmax: f64,
    cost: CostFn,
    /// The graph the query enumerates, for `trees` and `dot`.
    projected: Arc<ProjectedQuery>,
    /// Communities printed so far.
    shown: usize,
}

impl Session {
    /// An empty session.
    pub fn new() -> Session {
        Session {
            dataset: None,
            current: None,
            timeout: None,
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Loads a dataset: from the `cache` directory when it holds a
    /// matching container (mmap, no generation, node-id labels), else by
    /// generating it (and priming the cache for next time); `None`
    /// disables the warm path. Returns a status line, or an error naming
    /// the valid datasets — an unknown name must never silently fall back
    /// to a default.
    pub fn load(
        &mut self,
        which: &str,
        scale: f64,
        cache: Option<&Path>,
    ) -> Result<String, String> {
        let rmax = match which {
            "dblp" => 6.0,
            "imdb" => 11.0,
            other => {
                return Err(format!(
                    "unknown dataset {other:?} — valid datasets: dblp, imdb"
                ))
            }
        };
        self.current = None;
        let key = format!("{which}-s{scale}-session");
        let warm = cache.and_then(|dir| load_container(bundle_path(dir, &key)).ok());
        let (line, graph, vocab, generated) = match warm {
            Some(c) => (
                format!(
                    "loaded {which} from warm cache: graph {} nodes / {} edges (default rmax {rmax}; tuple labels unavailable)",
                    c.graph.node_count(),
                    c.graph.edge_count(),
                ),
                c.graph,
                c.keyword_nodes,
                None,
            ),
            None => {
                let mut ds = match which {
                    "dblp" => generate_dblp(&DblpConfig::default().scaled(scale)),
                    _ => generate_imdb(&ImdbConfig::default().scaled(scale)),
                };
                if let Some(dir) = cache {
                    // Prime the warm cache best-effort: the session works
                    // the same whether or not the container reached disk.
                    if std::fs::create_dir_all(dir).is_ok() {
                        let path = bundle_path(dir, &key);
                        save_container(path, &ds.graph.graph, ds.graph.keywords(), None).ok();
                    }
                }
                let line = format!(
                    "loaded {}: {} tuples, graph {} nodes / {} edges (default rmax {})",
                    ds.name,
                    ds.db.tuple_count(),
                    ds.graph.graph.node_count(),
                    ds.graph.graph.edge_count(),
                    rmax
                );
                let vocab = std::mem::take(&mut ds.graph.keyword_nodes);
                (line, ds.graph.graph.clone(), vocab, Some(ds))
            }
        };
        self.dataset = Some(Loaded {
            name: which.to_owned(),
            generated,
            engine: QueryEngine::new(graph, vocab, config(rmax)).map_err(failed)?,
            wide: None,
        });
        Ok(line)
    }

    /// The cancel flag a Ctrl-C handler should flip to abort whatever
    /// query is currently running (the session itself stays usable).
    pub fn cancel_flag(&self) -> Arc<AtomicBool> {
        self.cancel.clone()
    }

    /// Sets (or clears, with `None`) the per-query deadline.
    pub fn set_timeout(&mut self, secs: Option<f64>) -> String {
        self.timeout = secs.map(Duration::from_secs_f64);
        match self.timeout {
            Some(t) => format!("queries now time out after {}s", t.as_secs_f64()),
            None => "query timeout disabled".to_owned(),
        }
    }

    /// A fresh guard for one command: the shared Ctrl-C flag (cleared
    /// first, so a cancel aimed at a *previous* query cannot abort this
    /// one) plus the session deadline, if any.
    fn guard(&self) -> RunGuard {
        self.cancel.store(false, Ordering::SeqCst);
        let mut g = RunGuard::new().with_cancel_flag(self.cancel.clone());
        if let Some(t) = self.timeout {
            g = g.with_deadline(t);
        }
        g
    }

    /// Runs a fresh query, printing the first `k` communities.
    pub fn query(
        &mut self,
        keywords: &[String],
        rmax: Option<f64>,
        k: usize,
        max_cost: bool,
    ) -> Result<String, String> {
        // One guard covers the whole query — sweeps, projection and
        // enumeration share the deadline and the Ctrl-C flag.
        let guard = self.guard();
        let ds = self
            .dataset
            .as_mut()
            .ok_or("no dataset — try 'load dblp'")?;
        let rmax = rmax.unwrap_or(ds.engine.index_radius().get());
        for kw in keywords {
            if ds.engine.keyword_nodes(kw).is_none() {
                return Err(format!(
                    "keyword {kw:?} matches nothing (benchmark keywords: see Tables III/V, e.g. 'database', 'star')"
                ));
            }
        }
        let cost = if max_cost {
            CostFn::MaxDistance
        } else {
            CostFn::SumDistances
        };
        // A query that fails from here on leaves none active: the engine
        // the last one ran on may be gone.
        self.current = None;
        let engine = ds.engine_for(rmax)?;
        // Projected once: the engine parks the projection, and the answer
        // resumes it.
        let projected = engine
            .project(keywords, rmax, cost, &guard)
            .map_err(failed)?;
        let (hits, misses, runs, bytes) = engine.run_cache_stats();
        let mut out = format!(
            "projected graph: {} nodes ({:.3}% of G_D); run cache: {runs} runs, {bytes} bytes (hits {hits}, misses {misses})\n",
            projected.projected.graph.node_count(),
            100.0 * projected.projected.graph.node_count() as f64 / engine.graph().node_count() as f64,
        );
        self.current = Some(ActiveQuery {
            keywords: keywords.to_vec(),
            rmax,
            cost,
            projected,
            shown: 0,
        });
        out.push_str(&self.more_with(k, guard)?);
        Ok(out)
    }

    /// Continues the active query with `n` more communities.
    pub fn more(&mut self, n: usize) -> Result<String, String> {
        let guard = self.guard();
        self.more_with(n, guard)
    }

    /// Asks the query's engine for the first `shown + n` communities and
    /// prints those past `shown`: a slice or a resume of its cached entry.
    fn more_with(&mut self, n: usize, guard: RunGuard) -> Result<String, String> {
        let ds = self.dataset.as_mut().ok_or("no dataset loaded")?;
        let q = self.current.as_mut().ok_or("no active query")?;
        let k = u32::try_from(q.shown.saturating_add(n)).unwrap_or(u32::MAX);
        let engine = ds.engine_for(q.rmax)?;
        let answer = engine.answer_ranked(&q.keywords, q.rmax, k, q.cost, &guard);
        let (communities, interrupted) = match answer.map_err(failed)? {
            Outcome::Complete(cs) => (cs, None),
            Outcome::Interrupted { reason, partial } => (partial, Some(reason)),
        };
        let mut out = String::new();
        let fresh = communities.get(q.shown..).unwrap_or_default();
        for c in fresh {
            q.shown += 1;
            let _ = writeln!(
                out,
                "#{} cost {:.2} — {} centers, {} nodes",
                q.shown,
                c.cost.get(),
                c.centers.len(),
                c.node_count()
            );
            for (kw, &node) in q.keywords.iter().zip(&c.core.0) {
                let _ = writeln!(out, "    {kw}: {}", ds.describe(node));
            }
        }
        if let Some(reason) = interrupted {
            let _ = writeln!(
                out,
                "(interrupted: {reason} — results so far shown; 'more' retries under a fresh deadline)"
            );
        } else if fresh.is_empty() {
            out.push_str("(enumeration exhausted — no more communities)\n");
        }
        Ok(out)
    }

    /// Shows the top-n connected-tree answers for the active query.
    pub fn trees(&self, n: usize) -> Result<String, String> {
        let ds = self.dataset.as_ref().ok_or("no dataset loaded")?;
        let pq = &self.current.as_ref().ok_or("no active query")?.projected;
        let trees = topk_trees(&pq.projected.graph, &pq.spec, n, &self.guard())
            .map_err(|r| format!("trees interrupted ({r})"))?;
        let mut out = format!(
            "top-{} connected trees (prior-art result shape):\n",
            trees.len()
        );
        for (i, t) in trees.iter().enumerate() {
            let root = pq.projected.to_original(t.root);
            let _ = writeln!(
                out,
                "T{} weight {:.2}, root {} — {} edges",
                i + 1,
                t.weight.get(),
                ds.describe(root),
                t.edges.len()
            );
        }
        Ok(out)
    }

    /// Exports community #`rank` (1-based, in ranking order) of the
    /// active query as GraphViz DOT; writes to `path` or returns the text.
    pub fn dot(&self, rank: usize, path: Option<&str>) -> Result<String, String> {
        let ds = self.dataset.as_ref().ok_or("no dataset loaded")?;
        let pq = &self.current.as_ref().ok_or("no active query")?.projected;
        let mut it = CommK::try_new(&pq.projected.graph, &pq.spec)
            .map_err(|e| e.to_string())?
            .with_guard(self.guard());
        let community = it.nth(rank - 1).ok_or_else(|| match it.interrupted() {
            Some(reason) => format!("interrupted: {reason}"),
            None => format!("the query has fewer than {rank} communities"),
        })?;
        let dot = comm_core::dot::community_to_dot(&community, |local| {
            ds.describe(pq.projected.to_original(local))
        });
        match path {
            Some(p) => {
                std::fs::write(p, &dot).map_err(|e| format!("cannot write {p}: {e}"))?;
                Ok(format!(
                    "wrote community #{rank} to {p} ({} bytes)",
                    dot.len()
                ))
            }
            None => Ok(dot),
        }
    }

    /// Dataset statistics. Tuple-level statistics need the relational
    /// database, so a warm container reports graph-level numbers only.
    pub fn stats(&self) -> Result<String, String> {
        let ds = self.dataset.as_ref().ok_or("no dataset loaded")?;
        match &ds.generated {
            Some(generated) => {
                let s = dataset_stats(generated, &[]);
                Ok(format!(
                    "{}: {} tuples, {} edges, density {:.2}, max degree {}, top-1% degree share {:.1}%",
                    s.name,
                    s.tuples,
                    s.edges,
                    s.density,
                    s.degrees.max,
                    100.0 * s.degrees.top1_share
                ))
            }
            None => Ok(format!(
                "{} (warm bundle): graph {} nodes / {} edges, {} keywords (tuple statistics need a generated dataset)",
                ds.name,
                ds.engine.graph().node_count(),
                ds.engine.graph().edge_count(),
                ds.engine.vocabulary().len()
            )),
        }
    }
}

/// The session's engine configuration: the defaults, at `index_radius`.
fn config(index_radius: f64) -> EngineConfig {
    EngineConfig {
        index_radius,
        ..EngineConfig::default()
    }
}

/// An engine error as the shell prints it.
fn failed(e: QueryError) -> String {
    match e {
        QueryError::Interrupted(r) => format!("query interrupted ({r})"),
        e => e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Session {
        /// Whether a dataset is loaded.
        pub fn has_dataset(&self) -> bool {
            self.dataset.is_some()
        }
    }

    fn loaded() -> Session {
        let mut s = Session::new();
        s.load("dblp", 0.3, None).unwrap();
        s
    }

    #[test]
    fn load_and_stats() {
        let mut s = Session::new();
        assert!(!s.has_dataset());
        assert!(s.stats().is_err());
        let line = s.load("imdb", 0.3, None).unwrap();
        assert!(line.contains("imdb"));
        assert!(s.stats().unwrap().contains("density"));
    }

    #[test]
    fn load_rejects_unknown_dataset() {
        let mut s = Session::new();
        let err = s.load("netflix", 1.0, None).unwrap_err();
        assert!(err.contains("valid datasets: dblp, imdb"), "{err}");
        assert!(!s.has_dataset(), "a failed load must not install a dataset");
    }

    #[test]
    fn zero_timeout_interrupts_query_but_session_survives() {
        let mut s = loaded();
        assert!(s.set_timeout(Some(0.0)).contains("time out"));
        let err = s.query(&["database".into()], None, 1, false).unwrap_err();
        assert!(err.contains("interrupted"), "{err}");
        assert!(s.set_timeout(None).contains("disabled"));
        assert!(s.query(&["database".into()], None, 1, false).is_ok());
    }

    #[test]
    fn stale_ctrl_c_does_not_cancel_next_query() {
        let mut s = loaded();
        // A Ctrl-C that arrives between commands must not poison the next
        // query: each guard clears the shared flag before running.
        s.cancel_flag().store(true, Ordering::SeqCst);
        let out = s.query(&["database".into()], None, 1, false).unwrap();
        assert!(out.contains("#1 cost"), "{out}");
        assert!(!s.cancel_flag().load(Ordering::SeqCst));
    }

    #[test]
    fn query_and_more_resume() {
        let mut s = loaded();
        let out = s
            .query(&["database".into(), "support".into()], None, 3, false)
            .unwrap();
        assert!(out.contains("projected graph"));
        assert!(out.contains("#1 cost"));
        // more continues the numbering.
        let more = s.more(2).unwrap();
        assert!(more.contains("#4") || more.contains("exhausted"), "{more}");
    }

    #[test]
    fn an_interrupted_more_keeps_the_parked_state_and_the_numbering() {
        let keywords = ["database".to_string(), "support".to_string()];
        let oneshot = loaded().query(&keywords, None, 5, false).unwrap();
        let mut s = loaded();
        let mut out = s.query(&keywords, None, 2, false).unwrap();
        // The two cached communities are replayed, two more pass, then a
        // trip.
        let budget = RunGuard::new().with_candidate_budget(4);
        let cut = s.more_with(3, budget).unwrap();
        assert!(cut.contains("#4 cost") && !cut.contains("#5"), "{cut}");
        assert!(cut.contains("interrupted"), "{cut}");
        assert_eq!(s.current.as_ref().unwrap().shown, 4);
        for line in cut.lines().filter(|l| !l.contains("interrupted")) {
            out.push_str(line);
            out.push('\n');
        }
        out.push_str(&s.more(1).unwrap());
        assert_eq!(out, oneshot);
        assert_eq!(s.current.as_ref().unwrap().shown, 5);
    }

    /// `more` resumes the engine's cached entry while the entry fits the
    /// answer cache. An entry heavier than the whole cache is not kept, so
    /// the `more` after it enumerates from rank 1 again, on the cached
    /// index, and prints what a resume would have printed.
    #[test]
    fn more_resumes_while_its_entry_fits_the_answer_cache() {
        let words = ["database".to_string(), "optimization".to_string()];
        let oneshot = loaded().query(&words, None, 7, false).unwrap();
        let weight_at_4 = {
            let mut s = loaded();
            s.query(&words, None, 4, false).unwrap();
            s.dataset.as_ref().unwrap().engine.answer_cache_stats().1
        };
        let mut s = loaded();
        let ds = s.dataset.as_mut().unwrap();
        let cfg = EngineConfig {
            index_radius: 6.0,
            answer_cache_bytes: weight_at_4,
            ..EngineConfig::default()
        };
        ds.engine = ds.engine.sibling(cfg).unwrap();
        // (resumes, index-cache hits, cached answers)
        let stats = |s: &Session| {
            let e = &s.dataset.as_ref().unwrap().engine;
            (
                e.answer_cache_stats().0,
                e.cache_stats().0,
                e.cache_sizes().1,
            )
        };
        let mut out = s.query(&words, None, 2, false).unwrap();
        assert_eq!(stats(&s), (1, 0, 1), "the answer resumed the projection");
        out.push_str(&s.more(2).unwrap());
        assert_eq!(stats(&s), (2, 0, 1), "the first four fit");
        out.push_str(&s.more(2).unwrap());
        assert_eq!(stats(&s), (3, 0, 0), "six do not");
        out.push_str(&s.more(1).unwrap());
        let (resumes, index_hits, _) = stats(&s);
        assert_eq!(
            (resumes, index_hits),
            (3, 1),
            "rank 1 again, on the cached index"
        );
        assert_eq!(out, oneshot);
    }

    #[test]
    fn queries_sweep_on_one_parked_engine() {
        let mut s = loaded();
        fn ds(s: &Session) -> &Loaded {
            s.dataset.as_ref().unwrap()
        }
        let runs = |s: &Session| {
            let (hits, misses, runs, _) = ds(s).engine.run_cache_stats();
            (hits, misses, runs)
        };
        let words = |w: &[&str]| -> Vec<String> { w.iter().map(|w| w.to_string()).collect() };
        assert_eq!(ds(&s).engine.pool().pooled_engines(), 0);
        let first = s.query(&words(&["database", "support"]), None, 3, false);
        let first = first.unwrap();
        s.query(&words(&["database", "optimization"]), None, 1, false)
            .unwrap();
        // `database` was swept once: the second query swept only
        // `optimization`.
        assert_eq!(runs(&s), (1, 3, 3));
        assert_eq!(ds(&s).engine.pool().pooled_engines(), 1);
        // The other cost ranks on the same engine, from the cached index.
        s.query(&words(&["database", "support"]), None, 2, true)
            .unwrap();
        assert_eq!(runs(&s), (1, 3, 3));
        let index_hits = |s: &Session| ds(s).engine.cache_stats().0;
        assert_eq!(index_hits(&s), 1);
        // A wider radius gets an engine of its own; the default one keeps
        // its radius and caches, and answers the first query as it did.
        s.query(&words(&["database"]), Some(7.0), 1, false).unwrap();
        let wide = ds(&s).wide.as_ref().map(QueryEngine::index_radius);
        assert_eq!(wide, Some(Weight::new(7.0)));
        let again = s.query(&words(&["database", "support"]), None, 3, false);
        let again = again.unwrap();
        assert!(first.lines().skip(1).eq(again.lines().skip(1)), "{again}");
        assert_eq!((runs(&s), index_hits(&s)), ((1, 3, 3), 1));
        assert_eq!(ds(&s).engine.index_radius(), Weight::new(6.0));
    }

    #[test]
    fn unknown_keyword_reported() {
        let mut s = loaded();
        let err = s.query(&["zzzznope".into()], None, 3, false).unwrap_err();
        assert!(err.contains("matches nothing"));
    }

    #[test]
    fn trees_for_active_query() {
        let mut s = loaded();
        s.query(&["database".into(), "optimization".into()], None, 2, false)
            .unwrap();
        let out = s.trees(4).unwrap();
        assert!(out.contains("connected trees"));
    }

    #[test]
    fn dot_export_of_active_query() {
        let mut s = loaded();
        s.query(&["database".into(), "support".into()], None, 1, false)
            .unwrap();
        let dot = s.dot(1, None).unwrap();
        assert!(dot.starts_with("digraph community {"));
        assert!(dot.contains("Paper("));
        assert!(s.dot(100_000, None).is_err());
    }

    #[test]
    fn max_cost_query_runs() {
        let mut s = loaded();
        let out = s
            .query(&["database".into(), "support".into()], Some(7.0), 2, true)
            .unwrap();
        assert!(out.contains("#1 cost"));
    }

    #[test]
    fn query_without_dataset_fails() {
        let mut s = Session::new();
        assert!(s.query(&["x".into()], None, 1, false).is_err());
        assert!(s.more(1).is_err());
        assert!(s.trees(1).is_err());
    }

    #[test]
    fn describe_resolves_tables() {
        let s = loaded();
        let ds = s.dataset.as_ref().unwrap();
        let node = ds.engine.keyword_nodes("database").unwrap()[0];
        let d = ds.describe(node);
        assert!(d.starts_with("Paper("), "{d}");
    }

    #[test]
    fn warm_cache_load_skips_generation_and_still_answers() {
        let dir = std::env::temp_dir().join(format!(
            "comm_cli_session_warm_{}_{}",
            std::process::id(),
            line!()
        ));
        std::fs::create_dir_all(&dir).unwrap();

        // First load generates and primes the cache (full tuple labels),
        // over whatever stale file sits under its key.
        std::fs::write(bundle_path(&dir, "dblp-s0.3-session"), b"junk").unwrap();
        let mut cold = Session::new();
        let line = cold.load("dblp", 0.3, Some(&dir)).unwrap();
        assert!(line.contains("tuples"), "{line}");
        let cold_out = cold.query(&["database".into()], None, 2, false).unwrap();
        assert!(cold_out.contains("Paper("), "{cold_out}");

        // Second session maps the container: no generation, node-id labels,
        // same community structure.
        let mut warm = Session::new();
        let line = warm.load("dblp", 0.3, Some(&dir)).unwrap();
        assert!(line.contains("warm cache"), "{line}");
        let warm_out = warm.query(&["database".into()], None, 2, false).unwrap();
        assert!(warm_out.contains("node#"), "{warm_out}");
        // The ranked costs are a generation-independent fingerprint: they
        // must agree between the generated and the mapped graph.
        let costs = |out: &str| -> Vec<String> {
            out.lines()
                .filter(|l| l.contains(" cost "))
                .map(str::to_owned)
                .collect()
        };
        assert_eq!(costs(&cold_out), costs(&warm_out));
        assert!(warm.stats().unwrap().contains("warm bundle"));

        // Unknown datasets still fail fast, cache or not.
        assert!(warm.load("netflix", 1.0, Some(&dir)).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
