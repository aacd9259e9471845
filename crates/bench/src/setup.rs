//! Canonical benchmark datasets: generation + index build + projection.
//! Every run generates its dataset and builds its index, so
//! [`Prepared::index_build`] is always a build.

use comm_core::{ProjectedQuery, ProjectionIndex, RunGuard};
use comm_datasets::workload::{
    query_keywords, KeywordGroup, ParameterGrid, DBLP_GRID, DBLP_KEYWORD_GROUPS, IMDB_GRID,
    IMDB_KEYWORD_GROUPS,
};
use comm_datasets::{generate_dblp, generate_imdb, DblpConfig, GeneratedDataset, ImdbConfig};
use comm_graph::{EnginePool, Weight};
use std::time::{Duration, Instant};

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
    /// Wall-clock time to build the index.
    pub index_build: Duration,
    /// Wall-clock time to generate + materialize the dataset.
    pub generation: Duration,
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
    /// Generates the IMDB-like benchmark dataset and builds its index.
    pub fn imdb(scale: Scale) -> Prepared {
        let t0 = Instant::now();
        let dataset = generate_imdb(&imdb_config(scale));
        let generation = t0.elapsed();
        Prepared::finish("imdb", dataset, generation, &IMDB_GRID, IMDB_KEYWORD_GROUPS)
    }

    /// Generates the DBLP-like benchmark dataset and builds its index.
    pub fn dblp(scale: Scale) -> Prepared {
        let t0 = Instant::now();
        let dataset = generate_dblp(&dblp_config(scale));
        let generation = t0.elapsed();
        Prepared::finish("dblp", dataset, generation, &DBLP_GRID, DBLP_KEYWORD_GROUPS)
    }

    fn finish(
        name: &'static str,
        dataset: GeneratedDataset,
        generation: Duration,
        grid: &'static ParameterGrid,
        groups: &'static [KeywordGroup],
    ) -> Prepared {
        let rmax = Weight::new(*grid.rmax.last().expect("non-empty rmax grid"));
        let t0 = Instant::now();
        let entries = groups.iter().flat_map(|g| {
            g.keywords
                .iter()
                .map(|&kw| (kw, dataset.graph.keyword_nodes(kw)))
        });
        let index = ProjectionIndex::build_guarded(
            &dataset.graph.graph,
            entries,
            rmax,
            &RunGuard::unlimited(),
            &EnginePool::new(),
        )
        .expect("an unlimited guard never trips");
        let index_build = t0.elapsed();
        Prepared {
            name,
            dataset,
            grid,
            groups,
            index,
            index_build,
            generation,
        }
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
        let p = Prepared::imdb(Scale::Quick);
        assert!(p.dataset.graph.graph.node_count() > 1000);
        let (kwf, l, rmax, _) = p.grid.defaults;
        let pq = p.project(kwf, l, rmax);
        assert!(pq.projected.graph.node_count() > 0);
        assert!(pq.projected.graph.node_count() < p.dataset.graph.graph.node_count());
        assert_eq!(pq.spec.l(), l);
    }

    #[test]
    fn quick_dblp_prepares_and_projects() {
        let p = Prepared::dblp(Scale::Quick);
        let (kwf, l, rmax, _) = p.grid.defaults;
        let pq = p.project(kwf, l, rmax);
        assert!(pq.projected.graph.node_count() < p.dataset.graph.graph.node_count());
    }
}
