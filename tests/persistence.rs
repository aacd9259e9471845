//! Persistence certification: graphs loaded from CGPH v3 containers by
//! `mmap` must be indistinguishable from their heap-built originals.
//!
//! Two guarantees:
//!
//! 1. **Bit-identical answers** — `COMM-all` / `COMM-k` over a mapped
//!    graph produce byte-for-byte the same communities (costs compared as
//!    raw `f64` bits) as over the heap graph they were saved from, on the
//!    paper's running example and on a sampled synthetic DBLP workload,
//!    and those answers still certify under the independent
//!    `comm_core::verify` checker.
//! 2. **Lossless round trip** — for arbitrary graphs, a saved container
//!    loads back with exactly the original edge triples (weights compared
//!    as bits).

use communities::datasets::paper_example::{fig4_graph, fig4_keyword_nodes, FIG4_RMAX};
use communities::datasets::workload::{query_keywords, DBLP_KEYWORD_GROUPS};
use communities::datasets::{generate_dblp, DblpConfig};
use communities::graph::container::{load_container, save_container};
use communities::graph::{graph_from_edges, Graph, NodeId, SplitMix64, Weight};
use communities::search::verify::{check_community, check_enumeration, check_ranking};
use communities::search::{CommAll, CommK, Community, QuerySpec};

fn collect_all(g: &Graph, spec: &QuerySpec) -> Vec<Community> {
    CommAll::try_new(g, spec).unwrap().collect()
}

fn collect_top_k(g: &Graph, spec: &QuerySpec, k: usize) -> Vec<Community> {
    CommK::try_new(g, spec).unwrap().take(k).collect()
}
use std::path::PathBuf;

/// A fresh scratch directory per call site (pid + line defeat collisions
/// between parallel test binaries and within one).
fn unique_dir(line: u32) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("comm_persist_{}_{line}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Everything observable about a community: core, cost, centers, path
/// nodes, member ids, and subgraph edge count.
type Fingerprint = (
    Vec<NodeId>,
    Weight,
    Vec<NodeId>,
    Vec<NodeId>,
    Vec<NodeId>,
    usize,
);

fn fingerprint(c: &Community) -> Fingerprint {
    (
        c.core.0.clone(),
        c.cost,
        c.centers.clone(),
        c.path_nodes.clone(),
        c.subgraph.original_ids.clone(),
        c.subgraph.graph.edge_count(),
    )
}

fn fingerprints(cs: &[Community]) -> Vec<Fingerprint> {
    cs.iter().map(fingerprint).collect()
}

/// Saves `graph` + keyword sets, loads the container back, and returns the
/// mapped graph after checking the keyword map round-tripped.
fn roundtrip(dir: &std::path::Path, graph: &Graph, keyword_nodes: &[Vec<NodeId>]) -> Graph {
    let named: Vec<(String, Vec<NodeId>)> = keyword_nodes
        .iter()
        .enumerate()
        .map(|(i, nodes)| {
            let mut nodes = nodes.clone();
            nodes.sort_unstable();
            nodes.dedup();
            (format!("kw{i}"), nodes)
        })
        .collect();
    let path = dir.join("graph.v3.cgph");
    save_container(
        &path,
        graph,
        named.iter().map(|(k, v)| (k.as_str(), v.as_slice())),
        None,
    )
    .expect("save container");
    let c = load_container(&path).expect("load container");
    #[cfg(unix)]
    assert!(c.graph.is_mapped(), "v3 load must mmap on unix");
    for (k, v) in &named {
        assert_eq!(c.keyword_nodes(k), v.as_slice(), "keyword map round-trip");
    }
    c.graph
}

#[test]
fn paper_example_answers_are_bit_identical_on_the_mapped_graph() {
    let dir = unique_dir(line!());
    let heap = fig4_graph();
    let mapped = roundtrip(&dir, &heap, &fig4_keyword_nodes());

    let spec = QuerySpec::new(fig4_keyword_nodes(), Weight::new(FIG4_RMAX));
    let all_heap = collect_all(&heap, &spec);
    let all_mapped = collect_all(&mapped, &spec);
    assert_eq!(all_heap.len(), 5, "Table I lists five communities");
    assert_eq!(fingerprints(&all_heap), fingerprints(&all_mapped));

    // The mapped graph's answers certify under the independent verifier —
    // checked against the mapped graph itself, which exercises every CSR
    // accessor over the mapped storage.
    check_enumeration(&mapped, &spec, &all_mapped).unwrap();

    for k in 1..=all_heap.len() {
        let topk_heap = collect_top_k(&heap, &spec, k);
        let topk_mapped = collect_top_k(&mapped, &spec, k);
        assert_eq!(fingerprints(&topk_heap), fingerprints(&topk_mapped));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sampled_dblp_answers_are_bit_identical_on_the_mapped_graph() {
    let dir = unique_dir(line!());
    let ds = generate_dblp(&DblpConfig::default().scaled(0.3));
    let keywords = query_keywords(DBLP_KEYWORD_GROUPS, 0.0009, 3);
    let keyword_nodes: Vec<Vec<NodeId>> = keywords
        .iter()
        .map(|&kw| ds.graph.keyword_nodes(kw).to_vec())
        .collect();

    // Persist with the real keyword vocabulary and resolve the query from
    // the *container's* map, so the keyword section is load-bearing.
    let path = dir.join("dblp.v3.cgph");
    save_container(&path, &ds.graph.graph, ds.graph.keywords(), None).expect("save container");
    let c = load_container(&path).expect("load container");
    let mapped_nodes: Vec<Vec<NodeId>> = keywords
        .iter()
        .map(|&kw| c.keyword_nodes(kw).to_vec())
        .collect();
    assert_eq!(keyword_nodes, mapped_nodes);

    let spec = QuerySpec::new(keyword_nodes, Weight::new(6.0));
    let k = 10;
    let topk_heap = collect_top_k(&ds.graph.graph, &spec, k);
    let topk_mapped = collect_top_k(&c.graph, &spec, k);
    assert!(!topk_heap.is_empty(), "workload should produce communities");
    assert_eq!(fingerprints(&topk_heap), fingerprints(&topk_mapped));

    // Certify the mapped answers independently (log-in-degree weights
    // exercise the float-exact cost recomputation over mapped storage).
    check_ranking(&topk_mapped).unwrap();
    for community in topk_mapped.iter().take(5) {
        check_community(&ds.graph.graph, &spec, community).unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Arbitrary small graphs: up to 23 nodes, up to 119 distinct directed
/// edges with finite positive weights across several orders of magnitude.
fn arb_graph(rng: &mut SplitMix64) -> Graph {
    let n = 1 + rng.index(23);
    let mut edges: Vec<(u32, u32, f64)> = (0..rng.index(120))
        .map(|_| {
            let (u, v) = (rng.index(n) as u32, rng.index(n) as u32);
            // Log-uniform over 1e-3..1e6.
            (u, v, 10f64.powf(rng.unit_f64() * 9.0 - 3.0))
        })
        .collect();
    edges.sort_by_key(|&(u, v, _)| (u, v));
    edges.dedup_by_key(|&mut (u, v, _)| (u, v));
    graph_from_edges(n, &edges)
}

/// The container round trip is lossless: a saved graph loads back with
/// exactly the original edge triples.
#[test]
fn container_roundtrip_preserves_every_edge_bit_for_bit() {
    let dir = unique_dir(line!());
    let path = dir.join("g.v3.cgph");
    SplitMix64::for_each_case(48, |rng| {
        let g = arb_graph(rng);
        save_container(&path, &g, std::iter::empty::<(&str, &[NodeId])>(), None).expect("save");
        let loaded = load_container(&path).expect("load").graph;
        assert_eq!(loaded.node_count(), g.node_count());
        assert_eq!(loaded.edge_count(), g.edge_count());
        let edges = |g: &Graph| g.edges().collect::<Vec<_>>();
        assert_eq!(edges(&g), edges(&loaded));
    });
    std::fs::remove_dir_all(&dir).ok();
}
