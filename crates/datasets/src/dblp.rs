//! Synthetic DBLP-like dataset.
//!
//! The paper evaluates on DBLP 2008: `Author(Aid, Name)`,
//! `Paper(Pid, Title, Other)`, `Write(Aid, Pid, Remark)`,
//! `Cite(Pid1, Pid2)` with 597K / 986K / 2,426K / 112K tuples — on average
//! 2.46 authors per paper, 4.06 papers per author, and ~0.11 citations per
//! paper. We cannot ship the DBLP dump, so this generator reproduces the
//! *shape* that drives the algorithms: the same 4-table schema, a
//! preferential-attachment author assignment (long-tailed per-author paper
//! counts), citations between random paper pairs at the same ratio, and
//! benchmark keywords planted at the exact KWFs of Table III. The default
//! scale targets ≈40K tuples so the whole Fig. 11 sweep runs on a laptop;
//! `scale` ramps it toward the paper's full size.

use crate::keywords::{filler_title, plant_keywords, PlantSpec};
use crate::sampling::WeightedSampler;
use crate::workload::{topical_plant_specs, DBLP_KEYWORD_GROUPS};
use comm_graph::SplitMix64;
use comm_rdb::{
    ColumnDef, ColumnType, Database, DatabaseGraph, EdgeMode, TableSchema, Value, WeightScheme,
};

/// Configuration for the DBLP-like generator.
#[derive(Clone, Debug)]
pub struct DblpConfig {
    /// Number of authors (paper full scale: 597K).
    pub authors: usize,
    /// Number of papers (paper full scale: 986K).
    pub papers: usize,
    /// Mean authors per paper (paper: 2.46).
    pub avg_authors_per_paper: f64,
    /// Citations as a fraction of papers (paper: 112K/986K ≈ 0.114).
    pub cite_ratio: f64,
    /// RNG seed — generation is fully deterministic per seed.
    pub seed: u64,
    /// Number of topic clusters (research sub-communities).
    pub topics: usize,
    /// Fraction of each topical keyword's plantings (and of co-author /
    /// citation choices) confined to the topic cluster.
    pub topic_bias: f64,
    /// Fraction of each topical keyword's plantings stacked onto titles
    /// already hosting a same-topic keyword (title co-occurrence).
    pub co_occurrence: f64,
    /// Keywords to plant (defaults to every Table III keyword, topical).
    pub plant: Vec<PlantSpec>,
}

impl Default for DblpConfig {
    fn default() -> DblpConfig {
        DblpConfig {
            authors: 6_000,
            papers: 10_000,
            avg_authors_per_paper: 2.46,
            cite_ratio: 0.114,
            seed: 0xDB1_2008,
            topics: 12,
            topic_bias: 0.85,
            co_occurrence: 0.4,
            plant: topical_plant_specs(DBLP_KEYWORD_GROUPS),
        }
    }
}

impl DblpConfig {
    /// Scales tuple counts by `factor` (≥ full paper size at ≈ 100).
    pub fn scaled(mut self, factor: f64) -> DblpConfig {
        self.authors = ((self.authors as f64) * factor).round() as usize;
        self.papers = ((self.papers as f64) * factor).round() as usize;
        self
    }

    /// The paper's full DBLP 2008 scale: 597K authors, 986K papers
    /// (≈ 4.1M tuples, ≈ 10.2M directed edges). Generates in ~20 s.
    pub fn paper_scale() -> DblpConfig {
        let mut c = DblpConfig {
            authors: 597_000,
            papers: 986_000,
            ..DblpConfig::default()
        };
        // More topics at full scale: a research field is not 12 clusters.
        c.topics = 120;
        c
    }
}

/// A generated dataset: the relational database and its database graph.
pub struct GeneratedDataset {
    /// Human-readable dataset name.
    pub name: &'static str,
    /// The relational database.
    pub db: Database,
    /// The materialized graph with the paper's `log2(1+N_in)` weights.
    pub graph: DatabaseGraph,
}

/// Generates the DBLP-like database and materializes its graph.
pub fn generate_dblp(config: &DblpConfig) -> GeneratedDataset {
    let mut rng = SplitMix64::new(config.seed);

    // Every author belongs to one research topic; papers inherit the first
    // author's topic, and co-authors / citations stay in-topic with
    // probability `topic_bias` — the community structure real
    // co-authorship graphs exhibit.
    let topics = config.topics.max(1);
    let author_topic: Vec<usize> = (0..config.authors).map(|a| a % topics).collect();

    // Write tuples: per paper, 1 + Poisson-ish extra authors, authors
    // chosen preferentially (O(log n) Fenwick sampling, so paper-full-scale
    // generation stays tractable) so per-author paper counts are
    // long-tailed.
    let mut author_sampler = WeightedSampler::new(config.authors);
    let mut writes: Vec<(usize, usize)> = Vec::new(); // (author, paper)
    let mut paper_topic: Vec<usize> = Vec::with_capacity(config.papers);
    let extra_mean = (config.avg_authors_per_paper - 1.0).max(0.0);
    for paper in 0..config.papers {
        let extra = sample_poisson(&mut rng, extra_mean);
        let count = (1 + extra).min(config.authors);
        let mut chosen: Vec<usize> = Vec::with_capacity(count);
        let first = author_sampler.sample(&mut rng);
        let topic = author_topic[first];
        chosen.push(first);
        author_sampler.add(first, 1);
        while chosen.len() < count {
            let want_in_topic = rng.unit_f64() < config.topic_bias;
            // Rejection-sample a preferential pick until the topic matches
            // (bounded: fall back to any author after a few tries).
            let mut a = author_sampler.sample(&mut rng);
            if want_in_topic {
                for _ in 0..4 * topics {
                    if author_topic[a] == topic {
                        break;
                    }
                    a = author_sampler.sample(&mut rng);
                }
            }
            if !chosen.contains(&a) {
                chosen.push(a);
                author_sampler.add(a, 1);
            }
        }
        paper_topic.push(topic);
        for a in chosen {
            writes.push((a, paper));
        }
    }

    // Citations: ordered paper pairs, no self-citations, in-topic with
    // probability `topic_bias`.
    let cite_count = ((config.papers as f64) * config.cite_ratio).round() as usize;
    let mut cites: Vec<(usize, usize)> = Vec::with_capacity(cite_count);
    while cites.len() < cite_count && config.papers > 1 {
        let a = rng.index(config.papers);
        let b = rng.index(config.papers);
        if a == b {
            continue;
        }
        if rng.unit_f64() < config.topic_bias && paper_topic[a] != paper_topic[b] {
            continue;
        }
        cites.push((a, b));
    }

    // Titles with planted keywords. KWF is relative to the total tuple
    // count, exactly as in Table II; topical keywords concentrate in their
    // cluster's papers.
    let total_tuples = config.authors + config.papers + writes.len() + cites.len();
    let mut titles: Vec<String> = (0..config.papers).map(|_| filler_title(&mut rng)).collect();
    plant_keywords(
        &mut titles,
        &paper_topic,
        config.topic_bias,
        config.co_occurrence,
        total_tuples,
        &config.plant,
        config.seed,
    );

    // Assemble the relational database.
    let mut db = Database::new();
    let author_t = db.create_table(
        TableSchema::new(
            "Author",
            vec![
                ColumnDef::new("Aid", ColumnType::Int),
                ColumnDef::full_text("Name"),
            ],
        )
        .with_primary_key("Aid"),
    );
    let paper_t = db.create_table(
        TableSchema::new(
            "Paper",
            vec![
                ColumnDef::new("Pid", ColumnType::Int),
                ColumnDef::full_text("Title"),
                ColumnDef::new("Other", ColumnType::Text),
            ],
        )
        .with_primary_key("Pid"),
    );
    let write_t = db.create_table(
        TableSchema::new(
            "Write",
            vec![
                ColumnDef::new("Aid", ColumnType::Int),
                ColumnDef::new("Pid", ColumnType::Int),
                ColumnDef::new("Remark", ColumnType::Text),
            ],
        )
        .with_foreign_key("Aid", author_t)
        .with_foreign_key("Pid", paper_t),
    );
    let cite_t = db.create_table(
        TableSchema::new(
            "Cite",
            vec![
                ColumnDef::new("Pid1", ColumnType::Int),
                ColumnDef::new("Pid2", ColumnType::Int),
            ],
        )
        .with_foreign_key("Pid1", paper_t)
        .with_foreign_key("Pid2", paper_t),
    );

    for a in 0..config.authors {
        #[expect(clippy::expect_used, reason = "the generator emits schema-valid rows")]
        db.insert(
            author_t,
            &[
                Value::Int(a as i64),
                Value::Text(format!("author{a} surname{}", a % 997)),
            ],
        )
        .expect("author insert");
    }
    for (p, title) in titles.into_iter().enumerate() {
        #[expect(clippy::expect_used, reason = "the generator emits schema-valid rows")]
        db.insert(
            paper_t,
            &[Value::Int(p as i64), Value::Text(title), Value::Null],
        )
        .expect("paper insert");
    }
    for &(a, p) in &writes {
        #[expect(clippy::expect_used, reason = "the generator emits schema-valid rows")]
        db.insert(
            write_t,
            &[Value::Int(a as i64), Value::Int(p as i64), Value::Null],
        )
        .expect("write insert");
    }
    for &(a, b) in &cites {
        #[expect(clippy::expect_used, reason = "the generator emits schema-valid rows")]
        db.insert(cite_t, &[Value::Int(a as i64), Value::Int(b as i64)])
            .expect("cite insert");
    }

    let graph = DatabaseGraph::materialize(&db, WeightScheme::LogInDegree, EdgeMode::BiDirected);
    GeneratedDataset {
        name: "dblp-synthetic",
        db,
        graph,
    }
}

/// Small-mean Poisson sampler (Knuth's method; mean ≤ ~10 in practice).
fn sample_poisson(rng: &mut SplitMix64, mean: f64) -> usize {
    if mean <= 0.0 {
        return 0;
    }
    let limit = (-mean).exp();
    let mut k = 0usize;
    let mut p = 1.0f64;
    loop {
        p *= rng.unit_f64();
        if p <= limit {
            return k;
        }
        k += 1;
        if k > 64 {
            return k; // numeric safety net
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comm_graph::Weight;
    use comm_rdb::TableId;

    fn small() -> DblpConfig {
        DblpConfig::default().scaled(0.1)
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate_dblp(&small());
        let b = generate_dblp(&small());
        assert_eq!(a.graph.graph.node_count(), b.graph.graph.node_count());
        assert_eq!(a.graph.graph.edge_count(), b.graph.graph.edge_count());
        assert_eq!(
            a.graph.keyword_nodes("database"),
            b.graph.keyword_nodes("database")
        );
    }

    #[test]
    fn tuple_and_edge_counts_consistent() {
        let d = generate_dblp(&small());
        assert_eq!(d.graph.graph.node_count(), d.db.tuple_count());
        // Bi-directed: every FK reference contributes exactly two edges.
        let writes = d.db.table(TableId(2)).len();
        let cites = d.db.table(TableId(3)).len();
        assert_eq!(d.graph.graph.edge_count(), 2 * (2 * writes + 2 * cites));
    }

    #[test]
    fn mean_authors_per_paper_close_to_target() {
        let d = generate_dblp(&DblpConfig::default().scaled(0.3));
        let papers = d.db.table(TableId(1)).len() as f64;
        let writes = d.db.table(TableId(2)).len() as f64;
        let mean = writes / papers;
        assert!(
            (mean - 2.46).abs() < 0.25,
            "authors/paper = {mean}, want ≈ 2.46"
        );
    }

    #[test]
    fn author_paper_counts_are_long_tailed() {
        let d = generate_dblp(&small());
        // Preferential attachment ⇒ max load far above the mean.
        let authors = d.db.table(TableId(0)).len();
        let mut load = vec![0usize; authors];
        let writes = d.db.table(TableId(2));
        for row in writes.rows() {
            let a = writes.cell(row, comm_rdb::ColumnId(0)).as_int().unwrap() as usize;
            load[a] += 1;
        }
        let max = *load.iter().max().unwrap();
        let mean = load.iter().sum::<usize>() as f64 / authors as f64;
        assert!(max as f64 > mean * 4.0, "max {max}, mean {mean}");
    }

    #[test]
    fn planted_kwf_is_exact() {
        let d = generate_dblp(&small());
        let total = d.db.tuple_count();
        for group in DBLP_KEYWORD_GROUPS {
            for kw in group.keywords {
                let nodes = d.graph.keyword_nodes(kw).len();
                let want = (group.kwf * total as f64).round() as usize;
                assert_eq!(nodes, want, "kwf of {kw}");
            }
        }
    }

    #[test]
    fn edge_weights_are_log_indegree() {
        let d = generate_dblp(&DblpConfig::default().scaled(0.02));
        for (_, v, w) in d.graph.graph.edges().take(500) {
            let expect = (1.0 + d.graph.graph.in_degree(v) as f64).log2();
            assert_eq!(w, Weight::new(expect));
        }
    }
}
