//! REPL session state: the loaded dataset and the active query.
//!
//! The session owns the generated dataset and the current query's
//! projected graph. `more` continues the (deterministic) ranked
//! enumeration past the session's high-water mark; because enumeration on
//! a projected graph is milliseconds, the session re-enumerates the
//! prefix rather than holding a borrowing iterator across commands.

use comm_core::trees::topk_trees;
use comm_core::{CommK, CostFn, ProjectionIndex, QuerySpec, RunGuard};
use comm_datasets::cache::bundle_path;
use comm_datasets::stats::dataset_stats;
use comm_datasets::{generate_dblp, generate_imdb, DblpConfig, GeneratedDataset, ImdbConfig};
use comm_graph::{
    load_container, save_container, Container, EnginePool, NodeId, Parallelism, Weight,
};
use comm_rdb::ColumnId;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What the session serves queries from: a full generated dataset (graph
/// and relational database, so answers carry tuple labels), or a warm
/// container mapped back from the cache directory — the database is not
/// persisted, so labels degrade to node ids, but loading skips generation
/// entirely.
enum LoadedData {
    Full(GeneratedDataset),
    Warm { name: String, container: Container },
}

impl LoadedData {
    fn graph(&self) -> &comm_graph::Graph {
        match self {
            LoadedData::Full(ds) => &ds.graph.graph,
            LoadedData::Warm { container, .. } => &container.graph,
        }
    }

    fn keyword_nodes(&self, kw: &str) -> &[NodeId] {
        match self {
            LoadedData::Full(ds) => ds.graph.keyword_nodes(kw),
            LoadedData::Warm { container, .. } => container.keyword_nodes(kw),
        }
    }

    /// A human label for a graph node: the owning tuple when the database
    /// is resident, the bare node id on a warm container.
    fn describe(&self, node: NodeId) -> String {
        match self {
            LoadedData::Full(ds) => describe_static(ds, node),
            LoadedData::Warm { .. } => format!("node#{}", node.0),
        }
    }
}

/// A loaded dataset plus the state of the current query.
pub struct Session {
    dataset: Option<LoadedData>,
    default_rmax: f64,
    /// The current query's projected graph and spec (owned).
    current: Option<ActiveQuery>,
    /// Per-query wall-clock deadline (the `timeout` command).
    timeout: Option<Duration>,
    /// Cancel flag shared with the Ctrl-C handler: aborts the query that
    /// is currently running while keeping the session alive.
    cancel: Arc<AtomicBool>,
    /// Dijkstra scratch for the index sweeps, parked between queries: an
    /// `O(|V(G_D)|)` engine is built once per session, not once per
    /// `query`.
    pool: EnginePool,
}

struct ActiveQuery {
    keywords: Vec<String>,
    graph: comm_graph::Graph,
    original_ids: Vec<NodeId>,
    spec: QuerySpec,
    emitted: usize,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// An empty session.
    pub fn new() -> Session {
        Session {
            dataset: None,
            default_rmax: 6.0,
            current: None,
            timeout: None,
            cancel: Arc::new(AtomicBool::new(false)),
            pool: EnginePool::new(),
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
        let key = format!("{which}-s{scale}-session");
        if let Some(dir) = cache {
            if let Ok(container) = load_container(bundle_path(dir, &key)) {
                let line = format!(
                    "loaded {which} from warm cache: graph {} nodes / {} edges (default rmax {rmax}; tuple labels unavailable)",
                    container.graph.node_count(),
                    container.graph.edge_count(),
                );
                self.dataset = Some(LoadedData::Warm {
                    name: which.to_owned(),
                    container,
                });
                self.default_rmax = rmax;
                self.current = None;
                return Ok(line);
            }
        }
        let ds = match which {
            "dblp" => generate_dblp(&DblpConfig::default().scaled(scale)),
            _ => generate_imdb(&ImdbConfig::default().scaled(scale)),
        };
        if let Some(dir) = cache {
            // Prime the warm cache best-effort: the session works the same
            // whether or not the container reached disk.
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
        self.dataset = Some(LoadedData::Full(ds));
        self.default_rmax = rmax;
        self.current = None;
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
        let ds = self
            .dataset
            .as_ref()
            .ok_or("no dataset — try 'load dblp'")?;
        let rmax = rmax.unwrap_or(self.default_rmax);
        for kw in keywords {
            if ds.keyword_nodes(kw).is_empty() {
                return Err(format!(
                    "keyword {kw:?} matches nothing (benchmark keywords: see Tables III/V, e.g. 'database', 'star')"
                ));
            }
        }
        // Project the query subgraph (Sec. VI). One guard covers the whole
        // query — index build, projection, and enumeration share the
        // deadline and the Ctrl-C flag.
        let guard = self.guard();
        let entries: Vec<(&str, &[NodeId])> = keywords
            .iter()
            .map(|kw| (kw.as_str(), ds.keyword_nodes(kw)))
            .collect();
        let index = ProjectionIndex::build_par_guarded(
            ds.graph(),
            entries,
            Weight::new(rmax),
            &guard,
            &self.pool,
            Parallelism::serial(),
        )
        .map_err(|r| format!("query interrupted while indexing ({r})"))?;
        let refs: Vec<&str> = keywords.iter().map(String::as_str).collect();
        let pq = index
            .try_project(&refs, Weight::new(rmax), &guard)
            .map_err(|e| format!("projection failed: {e}"))?;
        let mut spec = QuerySpec::new(pq.spec.keyword_nodes.clone(), pq.spec.rmax);
        if max_cost {
            spec = spec.with_cost(CostFn::MaxDistance);
        }
        self.current = Some(ActiveQuery {
            keywords: keywords.to_vec(),
            graph: pq.projected.graph.clone(),
            original_ids: pq.projected.original_ids.clone(),
            spec,
            emitted: 0,
        });
        let mut out = format!(
            "projected graph: {} nodes ({:.3}% of G_D); index: |U| = {} nodes, {} row edges, {} bytes\n",
            pq.projected.graph.node_count(),
            100.0 * index.projection_ratio(&pq),
            index.reach_node_count(),
            index.row_edge_count(),
            index.byte_size()
        );
        out.push_str(&self.more_with(k, guard)?);
        Ok(out)
    }

    /// Streams `n` more communities of the active query.
    pub fn more(&mut self, n: usize) -> Result<String, String> {
        let guard = self.guard();
        self.more_with(n, guard)
    }

    fn more_with(&mut self, n: usize, guard: RunGuard) -> Result<String, String> {
        let ds = self.dataset.as_ref().ok_or("no dataset loaded")?;
        let q = self.current.as_mut().ok_or("no active query")?;
        // CommK is resumable but borrows the graph; to keep the session
        // simple we re-enumerate up to the high-water mark (communities are
        // deterministic), which is still fast on projected graphs.
        let mut it = CommK::try_new(&q.graph, &q.spec)
            .map_err(|e| e.to_string())?
            .with_guard(guard);
        let mut skipped = 0;
        while skipped < q.emitted && it.next().is_some() {
            skipped += 1;
        }
        let mut out = String::new();
        let mut got = 0;
        for c in it.by_ref().take(n) {
            got += 1;
            q.emitted += 1;
            let _ = writeln!(
                out,
                "#{} cost {:.2} — {} centers, {} nodes",
                q.emitted,
                c.cost.get(),
                c.centers.len(),
                c.node_count()
            );
            for (kw, &local) in q.keywords.iter().zip(&c.core.0) {
                let orig = q.original_ids[local.index()];
                let _ = writeln!(out, "    {kw}: {}", ds.describe(orig));
            }
        }
        if let Some(reason) = it.interrupted() {
            let _ = writeln!(
                out,
                "(interrupted: {reason} — results so far shown; 'more' retries under a fresh deadline)"
            );
        } else if got == 0 {
            out.push_str("(enumeration exhausted — no more communities)\n");
        }
        Ok(out)
    }

    /// Shows the top-n connected-tree answers for the active query.
    pub fn trees(&self, n: usize) -> Result<String, String> {
        let ds = self.dataset.as_ref().ok_or("no dataset loaded")?;
        let q = self.current.as_ref().ok_or("no active query")?;
        let trees = topk_trees(&q.graph, &q.spec, n);
        let mut out = format!(
            "top-{} connected trees (prior-art result shape):\n",
            trees.len()
        );
        for (i, t) in trees.iter().enumerate() {
            let root = q.original_ids[t.root.index()];
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
        let q = self.current.as_ref().ok_or("no active query")?;
        let mut it = CommK::try_new(&q.graph, &q.spec)
            .map_err(|e| e.to_string())?
            .with_guard(self.guard());
        let community = it.nth(rank - 1).ok_or_else(|| match it.interrupted() {
            Some(reason) => format!("interrupted: {reason}"),
            None => format!("the query has fewer than {rank} communities"),
        })?;
        let dot = comm_core::dot::community_to_dot(&community, |local| {
            ds.describe(q.original_ids[local.index()])
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
        match self.dataset.as_ref().ok_or("no dataset loaded")? {
            LoadedData::Full(ds) => {
                let s = dataset_stats(ds, &[]);
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
            LoadedData::Warm { name, container } => Ok(format!(
                "{} (warm bundle): graph {} nodes / {} edges, {} keywords (tuple statistics need a generated dataset)",
                name,
                container.graph.node_count(),
                container.graph.edge_count(),
                container.keyword_nodes.len()
            )),
        }
    }

    /// Whether a dataset is loaded (used by the unit tests).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn has_dataset(&self) -> bool {
        self.dataset.is_some()
    }
}

fn describe_static(ds: &GeneratedDataset, node: NodeId) -> String {
    let tref = ds.graph.tuple_of(node);
    let table = ds.db.table(tref.table);
    let name = &table.schema().name;
    match name.as_str() {
        "Author" | "Users" => format!("{name}({})", table.cell(tref.row, ColumnId(1))),
        "Paper" | "Movies" => format!("{name}(\"{}\")", table.cell(tref.row, ColumnId(1))),
        other => format!("{other}#{}", tref.row.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn queries_sweep_on_one_parked_engine() {
        let mut s = loaded();
        assert_eq!(s.pool.pooled_engines(), 0);
        s.query(&["database".into(), "support".into()], None, 1, false)
            .unwrap();
        s.query(&["database".into(), "optimization".into()], None, 1, false)
            .unwrap();
        assert_eq!(s.pool.pooled_engines(), 1);
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
        let node = ds.keyword_nodes("database")[0];
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
