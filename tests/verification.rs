//! End-to-end certification: the independent verifier in
//! `comm_core::verify` (a self-contained binary-heap Dijkstra sharing no
//! code with the optimized engines) must certify COMM-all / COMM-k output
//! on the paper's running example and on a sampled synthetic DBLP
//! workload, and COMM-k must rank as a prefix of COMM-all.

use communities::datasets::paper_example::{fig4_graph, fig4_keyword_nodes, FIG4_RMAX};
use communities::datasets::workload::{query_keywords, DBLP_KEYWORD_GROUPS};
use communities::datasets::{generate_dblp, DblpConfig};
use communities::graph::{Graph, Weight};
use communities::search::verify::{
    check_community, check_enumeration, check_ranking, check_topk_prefix,
};
use communities::search::{CommAll, CommK, Community, CostFn, QuerySpec};

fn collect_all(g: &Graph, spec: &QuerySpec) -> Vec<Community> {
    CommAll::try_new(g, spec).unwrap().collect()
}

fn collect_top_k(g: &Graph, spec: &QuerySpec, k: usize) -> Vec<Community> {
    CommK::try_new(g, spec).unwrap().take(k).collect()
}

#[test]
fn paper_example_enumeration_certifies() {
    let g = fig4_graph();
    let spec = QuerySpec::new(fig4_keyword_nodes(), Weight::new(FIG4_RMAX));
    let all = collect_all(&g, &spec);
    assert_eq!(all.len(), 5, "Table I lists five communities");
    check_enumeration(&g, &spec, &all).unwrap();
    // Table I rank 1: cost 7.
    let min = all.iter().map(|c| c.cost).min().unwrap();
    assert_eq!(min, Weight::new(7.0));
}

#[test]
fn paper_example_topk_is_a_prefix_of_comm_all() {
    let g = fig4_graph();
    let spec = QuerySpec::new(fig4_keyword_nodes(), Weight::new(FIG4_RMAX));
    let all = collect_all(&g, &spec);
    for k in 1..=all.len() {
        let topk = collect_top_k(&g, &spec, k);
        assert_eq!(topk.len(), k);
        check_enumeration(&g, &spec, &topk).unwrap();
        check_ranking(&topk).unwrap();
        check_topk_prefix(&topk, &all).unwrap();
    }
}

#[test]
fn paper_example_max_distance_certifies() {
    let g = fig4_graph();
    let spec =
        QuerySpec::new(fig4_keyword_nodes(), Weight::new(FIG4_RMAX)).with_cost(CostFn::MaxDistance);
    let all = collect_all(&g, &spec);
    assert!(!all.is_empty());
    check_enumeration(&g, &spec, &all).unwrap();
}

#[test]
fn dblp_sampled_workload_certifies() {
    let ds = generate_dblp(&DblpConfig::default().scaled(0.4));
    let keywords = query_keywords(DBLP_KEYWORD_GROUPS, 0.0009, 3);
    let spec = QuerySpec::new(
        keywords
            .iter()
            .map(|&kw| ds.graph.keyword_nodes(kw).to_vec())
            .collect(),
        Weight::new(6.0),
    );
    let g = &ds.graph.graph;
    let all = collect_all(g, &spec);
    assert!(!all.is_empty(), "workload should produce communities");

    // Certify a slice of the enumeration individually (log-in-degree
    // weights exercise the float-exact cost recomputation) …
    for c in all.iter().take(25) {
        check_community(g, &spec, c).unwrap();
    }
    // … plus core-distinctness over that slice.
    check_enumeration(g, &spec, &all[..all.len().min(25)]).unwrap();

    let k = all.len().min(10);
    let topk = collect_top_k(g, &spec, k);
    assert_eq!(topk.len(), k);
    check_ranking(&topk).unwrap();
    check_topk_prefix(&topk, &all).unwrap();
}
