//! Canonical benchmark datasets: generation + index build + projection.
//!
//! Given a cache directory (`repro`'s `main` passes the one
//! `COMM_BENCH_CACHE` names), the built projection index is persisted
//! there inside a CGPH v3 container (graph + keyword map + serialized
//! index) and reloaded on the next run — generation still happens (the
//! relational database itself is not cached) but the index build, the
//! dominant cost at paper scale, is skipped. [`Prepared::index_source`]
//! records which path ran.

use comm_core::{ProjectedQuery, ProjectionIndex, RunGuard};
use comm_datasets::cache::bundle_path;
use comm_datasets::workload::{
    query_keywords, KeywordGroup, ParameterGrid, DBLP_GRID, DBLP_KEYWORD_GROUPS, IMDB_GRID,
    IMDB_KEYWORD_GROUPS,
};
use comm_datasets::{generate_dblp, generate_imdb, DblpConfig, GeneratedDataset, ImdbConfig};
use comm_graph::{load_container, save_container, EnginePool, NodeId, Weight};
use std::path::Path;
use std::time::{Duration, Instant};

/// Where [`Prepared::index`] came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexSource {
    /// Built from scratch this run.
    Built,
    /// Decoded from a container in the cache directory.
    Cache,
}

/// A generated dataset with its projection index, ready for queries.
pub struct Prepared {
    /// `"imdb"` or `"dblp"`.
    pub name: &'static str,
    /// The generated database + graph.
    pub dataset: GeneratedDataset,
    /// The parameter grid (Table II / IV).
    pub grid: &'static ParameterGrid,
    /// The keyword buckets (Table III / V).
    pub groups: &'static [KeywordGroup],
    /// The inverted indexes of Sec. VI, built at the grid's maximum Rmax
    /// over every benchmark keyword.
    pub index: ProjectionIndex,
    /// Wall-clock time to build (or decode) the index.
    pub index_build: Duration,
    /// Wall-clock time to generate + materialize the dataset.
    pub generation: Duration,
    /// Whether the index was built fresh or served from the cache directory.
    pub index_source: IndexSource,
}

/// The scale knob: `quick` shrinks datasets so the full harness runs in
/// well under a minute (used by tests); `full` is the canonical scale used
/// for EXPERIMENTS.md; `paper` is the real datasets' size (DBLP: 4.1M
/// tuples — generation ≈ 1 min; used by `repro --paper`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Tiny datasets for smoke runs.
    Quick,
    /// The canonical benchmark scale.
    Full,
    /// The paper's full dataset scale.
    Paper,
}

/// The canonical IMDB-like configuration (see DESIGN.md's substitutions).
pub fn imdb_config(scale: Scale) -> ImdbConfig {
    match scale {
        Scale::Full => ImdbConfig::default(),
        Scale::Quick => {
            let mut c = ImdbConfig::default().scaled(0.4);
            c.avg_ratings_per_user = 25.0;
            c
        }
        // Tuple-relative KWF planting saturates movie titles at the full
        // MovieLens scale (see EXPERIMENTS.md), so paper-scale runs use
        // DBLP; this arm keeps the canonical IMDB if requested anyway.
        Scale::Paper => ImdbConfig::paper_scale(),
    }
}

/// The canonical DBLP-like configuration.
pub fn dblp_config(scale: Scale) -> DblpConfig {
    match scale {
        Scale::Full => {
            let mut c = DblpConfig::default().scaled(2.0);
            c.co_occurrence = 0.5;
            c
        }
        Scale::Quick => DblpConfig::default().scaled(0.3),
        Scale::Paper => DblpConfig::paper_scale(),
    }
}

impl Prepared {
    /// Generates the IMDB-like benchmark dataset and its index, reusing
    /// the index cached under `cache` when one matches (`None` disables
    /// caching).
    pub fn imdb(scale: Scale, cache: Option<&Path>) -> Prepared {
        let t0 = Instant::now();
        let dataset = generate_imdb(&imdb_config(scale));
        let generation = t0.elapsed();
        Prepared::finish(
            "imdb",
            scale,
            dataset,
            generation,
            &IMDB_GRID,
            IMDB_KEYWORD_GROUPS,
            cache,
        )
    }

    /// Generates the DBLP-like benchmark dataset and its index, reusing
    /// the index cached under `cache` when one matches (`None` disables
    /// caching).
    pub fn dblp(scale: Scale, cache: Option<&Path>) -> Prepared {
        let t0 = Instant::now();
        let dataset = generate_dblp(&dblp_config(scale));
        let generation = t0.elapsed();
        Prepared::finish(
            "dblp",
            scale,
            dataset,
            generation,
            &DBLP_GRID,
            DBLP_KEYWORD_GROUPS,
            cache,
        )
    }

    fn finish(
        name: &'static str,
        scale: Scale,
        dataset: GeneratedDataset,
        generation: Duration,
        grid: &'static ParameterGrid,
        groups: &'static [KeywordGroup],
        cache: Option<&Path>,
    ) -> Prepared {
        let rmax = Weight::new(*grid.rmax.last().expect("non-empty rmax grid"));
        let key = format!("{name}-{scale:?}-bench").to_lowercase();
        let t0 = Instant::now();
        if let Some(index) = cache.and_then(|dir| Self::cached_index(dir, &key, &dataset, rmax)) {
            return Prepared {
                name,
                dataset,
                grid,
                groups,
                index,
                index_build: t0.elapsed(),
                generation,
                index_source: IndexSource::Cache,
            };
        }
        let entries: Vec<(&str, &[NodeId])> = groups
            .iter()
            .flat_map(|g| {
                g.keywords
                    .iter()
                    .map(|&kw| (kw, dataset.graph.keyword_nodes(kw)))
            })
            .collect();
        let index = ProjectionIndex::build_guarded(
            &dataset.graph.graph,
            entries.iter().copied(),
            rmax,
            &RunGuard::unlimited(),
            &EnginePool::new(),
        )
        .expect("an unlimited guard never trips");
        let index_build = t0.elapsed();
        if let Some(dir) = cache {
            // Best-effort persistence: an unwritable cache directory
            // degrades to rebuild-next-time, never to a failed run.
            if std::fs::create_dir_all(dir).is_ok() {
                save_container(
                    bundle_path(dir, &key),
                    &dataset.graph.graph,
                    entries.iter().copied(),
                    Some(&index.encode()),
                )
                .ok();
            }
        }
        Prepared {
            name,
            dataset,
            grid,
            groups,
            index,
            index_build,
            generation,
            index_source: IndexSource::Built,
        }
    }

    /// Tries to decode a cached projection index for `key`, validating it
    /// against the freshly generated dataset. Any mismatch (different
    /// radius, different graph size, corrupt file) silently falls back to
    /// a rebuild, which overwrites the stale container.
    fn cached_index(
        dir: &Path,
        key: &str,
        dataset: &GeneratedDataset,
        rmax: Weight,
    ) -> Option<ProjectionIndex> {
        let cached = load_container(bundle_path(dir, key)).ok()?;
        if cached.graph.node_count() != dataset.graph.graph.node_count()
            || cached.graph.edge_count() != dataset.graph.graph.edge_count()
        {
            return None;
        }
        let index = ProjectionIndex::decode(cached.extra.as_deref()?).ok()?;
        (index.radius() == rmax).then_some(index)
    }

    /// The query keywords for a KWF bucket and keyword count.
    pub fn keywords(&self, kwf: f64, l: usize) -> Vec<&'static str> {
        query_keywords(self.groups, kwf, l)
    }

    /// Projects the query subgraph for a grid cell (Algorithm 6), exactly
    /// as Sec. VII does before running any algorithm.
    pub fn project(&self, kwf: f64, l: usize, rmax: f64) -> ProjectedQuery {
        let kws = self.keywords(kwf, l);
        self.index
            .try_project(&kws, Weight::new(rmax), &RunGuard::unlimited())
            .expect("benchmark keywords are always indexed within the grid's radius")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_imdb_prepares_and_projects() {
        let p = Prepared::imdb(Scale::Quick, None);
        assert!(p.dataset.graph.graph.node_count() > 1000);
        let (kwf, l, rmax, _) = p.grid.defaults;
        let pq = p.project(kwf, l, rmax);
        assert!(pq.projected.graph.node_count() > 0);
        assert!(pq.projected.graph.node_count() < p.dataset.graph.graph.node_count());
        assert_eq!(pq.spec.l(), l);
    }

    #[test]
    fn quick_dblp_prepares_and_projects() {
        let p = Prepared::dblp(Scale::Quick, None);
        let (kwf, l, rmax, _) = p.grid.defaults;
        let pq = p.project(kwf, l, rmax);
        assert!(pq.projected.graph.node_count() < p.dataset.graph.graph.node_count());
    }

    #[test]
    fn warm_cache_skips_the_index_build_and_projects_identically() {
        let dir = std::env::temp_dir().join(format!(
            "comm_bench_setup_warm_{}_{}",
            std::process::id(),
            line!()
        ));
        std::fs::create_dir_all(&dir).unwrap();

        let cold = Prepared::dblp(Scale::Quick, Some(&dir));
        assert_eq!(cold.index_source, IndexSource::Built);
        let warm = Prepared::dblp(Scale::Quick, Some(&dir));
        assert_eq!(warm.index_source, IndexSource::Cache);

        let (kwf, l, rmax, _) = cold.grid.defaults;
        let a = cold.project(kwf, l, rmax);
        let b = warm.project(kwf, l, rmax);
        assert_eq!(
            a.projected.graph.node_count(),
            b.projected.graph.node_count()
        );
        assert_eq!(
            a.projected.graph.edge_count(),
            b.projected.graph.edge_count()
        );
        assert_eq!(a.projected.original_ids, b.projected.original_ids);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_cache_entry_falls_back_to_a_rebuild() {
        let dir = std::env::temp_dir().join(format!(
            "comm_bench_setup_stale_{}_{}",
            std::process::id(),
            line!()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        // A corrupt file under the key the run will use must be repaired.
        let path = bundle_path(&dir, "dblp-quick-bench");
        std::fs::write(&path, b"junk").unwrap();
        let p = Prepared::dblp(Scale::Quick, Some(&dir));
        assert_eq!(p.index_source, IndexSource::Built);
        let again = Prepared::dblp(Scale::Quick, Some(&dir));
        assert_eq!(again.index_source, IndexSource::Cache);

        // So must a sound container whose index blob is from CPIX v1: the
        // decoder turns it away by version and the run rebuilds.
        let sound = load_container(&path).unwrap();
        let mut v1 = sound.extra.clone().unwrap();
        v1[4] = 1;
        let keywords = sound.keyword_nodes.iter();
        save_container(
            &path,
            &sound.graph,
            keywords.map(|(k, v)| (k.as_str(), v.as_slice())),
            Some(&v1),
        )
        .unwrap();
        let err = ProjectionIndex::decode(&v1).err().unwrap();
        assert!(err.to_string().contains("version"), "{err}");
        let p = Prepared::dblp(Scale::Quick, Some(&dir));
        assert_eq!(p.index_source, IndexSource::Built);
        let again = Prepared::dblp(Scale::Quick, Some(&dir));
        assert_eq!(again.index_source, IndexSource::Cache);
        std::fs::remove_dir_all(&dir).ok();
    }
}
