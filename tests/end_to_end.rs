//! Cross-crate integration tests: relational database → database graph →
//! projection index → community search, on both synthetic datasets.

use communities::datasets::workload::{query_keywords, DBLP_KEYWORD_GROUPS, IMDB_KEYWORD_GROUPS};
use communities::datasets::{generate_dblp, generate_imdb, DblpConfig, ImdbConfig};
use communities::graph::{EnginePool, Graph, NodeId, Parallelism, Weight};
use communities::search::{
    bu_all_guarded, bu_topk_guarded, td_all_guarded, td_topk_guarded, BaselineRun, CommAll, CommK,
    Community, Outcome, ProjectedQuery, ProjectionIndex, QueryError, QuerySpec, RunGuard,
};
use std::collections::BTreeSet;

fn collect_all(g: &Graph, spec: &QuerySpec) -> Vec<Community> {
    CommAll::try_new(g, spec).unwrap().collect()
}

fn unguarded(out: Result<Outcome<BaselineRun>, QueryError>) -> BaselineRun {
    out.unwrap().into_value()
}

/// Indexes `keywords` at `radius` and projects their query at `rmax`.
fn project(
    ds: &communities::datasets::GeneratedDataset,
    keywords: &[&str],
    radius: f64,
    rmax: f64,
) -> ProjectedQuery {
    let guard = RunGuard::unlimited();
    let entries = keywords.iter().map(|&kw| (kw, ds.graph.keyword_nodes(kw)));
    ProjectionIndex::build_par_guarded(
        &ds.graph.graph,
        entries,
        Weight::new(radius),
        &guard,
        &EnginePool::new(),
        Parallelism::serial(),
    )
    .unwrap()
    .try_project(keywords, Weight::new(rmax), &guard)
    .unwrap()
}

fn small_dblp() -> communities::datasets::GeneratedDataset {
    generate_dblp(&DblpConfig::default().scaled(0.4))
}

fn small_imdb() -> communities::datasets::GeneratedDataset {
    let mut c = ImdbConfig::default().scaled(0.5);
    c.avg_ratings_per_user = 30.0;
    generate_imdb(&c)
}

fn spec_for(
    ds: &communities::datasets::GeneratedDataset,
    keywords: &[&str],
    rmax: f64,
) -> QuerySpec {
    QuerySpec::new(
        keywords
            .iter()
            .map(|&kw| ds.graph.keyword_nodes(kw).to_vec())
            .collect(),
        Weight::new(rmax),
    )
}

#[test]
fn dblp_projection_equals_full_graph_query() {
    let ds = small_dblp();
    let keywords = query_keywords(DBLP_KEYWORD_GROUPS, 0.0009, 3);
    let pq = project(&ds, &keywords, 8.0, 6.0);

    let full_spec = spec_for(&ds, &keywords, 6.0);
    let full: BTreeSet<Vec<NodeId>> = collect_all(&ds.graph.graph, &full_spec)
        .into_iter()
        .map(|c| c.core.0)
        .collect();
    let projected: BTreeSet<Vec<NodeId>> = collect_all(&pq.projected.graph, &pq.spec)
        .into_iter()
        .map(|c| {
            c.core
                .0
                .iter()
                .map(|&n| pq.projected.to_original(n))
                .collect()
        })
        .collect();
    assert_eq!(full, projected);
}

#[test]
fn imdb_all_engines_agree_on_topk() {
    let ds = small_imdb();
    let keywords = query_keywords(IMDB_KEYWORD_GROUPS, 0.0009, 3);
    let spec = spec_for(&ds, &keywords, 10.0);
    let pq = project(&ds, &keywords, 10.0, 10.0);
    let g = &pq.projected.graph;

    let k = 40;
    let pd: Vec<Weight> = CommK::try_new(g, &pq.spec)
        .unwrap()
        .take(k)
        .map(|c| c.cost)
        .collect();
    let bu = unguarded(bu_topk_guarded(g, &pq.spec, k, None, RunGuard::unlimited()));
    let td = unguarded(td_topk_guarded(g, &pq.spec, k, None, RunGuard::unlimited()));
    assert!(!pd.is_empty(), "query should produce communities");
    assert_eq!(
        pd,
        bu.communities.iter().map(|c| c.cost).collect::<Vec<_>>()
    );
    assert_eq!(
        pd,
        td.communities.iter().map(|c| c.cost).collect::<Vec<_>>()
    );
    // Sanity: projection gives the same ranking as the full graph.
    let full: Vec<Weight> = CommK::try_new(&ds.graph.graph, &spec)
        .unwrap()
        .take(k)
        .map(|c| c.cost)
        .collect();
    assert_eq!(pd, full);
}

#[test]
fn imdb_all_enumerators_agree_on_core_sets() {
    let ds = small_imdb();
    let keywords = query_keywords(IMDB_KEYWORD_GROUPS, 0.0003, 2);
    let pq = project(&ds, &keywords, 9.0, 9.0);
    let g = &pq.projected.graph;

    let pd: BTreeSet<_> = collect_all(g, &pq.spec)
        .into_iter()
        .map(|c| c.core)
        .collect();
    let bu: BTreeSet<_> = unguarded(bu_all_guarded(g, &pq.spec, None, RunGuard::unlimited()))
        .communities
        .into_iter()
        .map(|c| c.core)
        .collect();
    let td: BTreeSet<_> = unguarded(td_all_guarded(g, &pq.spec, None, RunGuard::unlimited()))
        .communities
        .into_iter()
        .map(|c| c.core)
        .collect();
    assert_eq!(pd, bu);
    assert_eq!(pd, td);
}

#[test]
fn interactive_resume_equals_oneshot_on_generated_data() {
    let ds = small_dblp();
    let keywords = query_keywords(DBLP_KEYWORD_GROUPS, 0.0015, 3);
    let spec = spec_for(&ds, &keywords, 7.0);
    let oneshot: Vec<_> = CommK::try_new(&ds.graph.graph, &spec)
        .unwrap()
        .take(30)
        .map(|c| c.core)
        .collect();
    let mut it = CommK::try_new(&ds.graph.graph, &spec).unwrap();
    let mut paged: Vec<_> = it.by_ref().take(10).map(|c| c.core).collect();
    paged.extend(it.by_ref().take(10).map(|c| c.core));
    paged.extend(it.by_ref().take(10).map(|c| c.core));
    assert_eq!(paged, oneshot);
}

#[test]
fn communities_satisfy_definition_on_generated_data() {
    // Every emitted community must satisfy Definition 2.1 on the original
    // graph: centers reach every knode within Rmax; all keywords covered.
    let ds = small_imdb();
    let keywords = query_keywords(IMDB_KEYWORD_GROUPS, 0.0006, 3);
    let spec = spec_for(&ds, &keywords, 10.0);
    let g = &ds.graph.graph;
    let mut engine = communities::graph::DijkstraEngine::new(g.node_count());
    for c in CommK::try_new(g, &spec).unwrap().take(12) {
        // Knodes carry the right keywords.
        for (i, &knode) in c.core.0.iter().enumerate() {
            assert!(
                ds.graph.keyword_nodes(keywords[i]).contains(&knode),
                "knode {knode} lacks keyword {}",
                keywords[i]
            );
        }
        // Every center reaches every knode within Rmax.
        for &center in &c.centers {
            let dist = engine.distances(g, communities::graph::Direction::Forward, center);
            for &knode in &c.core.0 {
                assert!(
                    dist[knode.index()] <= spec.rmax,
                    "center {center} cannot reach {knode}"
                );
            }
        }
        // The community subgraph is induced: edge counts match.
        let members = c.nodes();
        let expect: usize = members
            .iter()
            .map(|&u| {
                g.out_neighbors(u)
                    .filter(|(v, _)| members.binary_search(v).is_ok())
                    .count()
            })
            .sum();
        assert_eq!(c.edge_count(), expect);
    }
}

#[test]
fn comm_all_iterator_stats() {
    let ds = small_dblp();
    let keywords = query_keywords(DBLP_KEYWORD_GROUPS, 0.0012, 2);
    let spec = spec_for(&ds, &keywords, 6.0);
    let mut it = CommAll::try_new(&ds.graph.graph, &spec).unwrap();
    let mut n = 0;
    while it.next().is_some() {
        n += 1;
        assert_eq!(it.emitted(), n);
        if n > 500 {
            break;
        }
    }
    assert!(it.peak_memory_bytes() > 0);
}
