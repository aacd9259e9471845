//! Serial/parallel and kernel equivalence gate: the two paths that fan
//! work out inside or across queries — projection-index construction and
//! the batch driver — must produce **identical** results to the serial
//! path for every thread count, and both Dijkstra kernels must agree bit
//! for bit, on the paper's running example and on a sampled synthetic DBLP
//! workload.

use comm_bench::{BatchQuery, BatchRunner};
use communities::datasets::paper_example::{fig4_graph, fig4_keyword_nodes, FIG4_RMAX};
use communities::datasets::workload::{query_keywords, DBLP_KEYWORD_GROUPS};
use communities::datasets::{generate_dblp, DblpConfig};
use communities::graph::{DijkstraEngine, Direction, Kernel, NodeId, Weight};
use communities::search::{
    get_community_guarded, Community, EnginePool, KeywordRun, NeighborSets, Parallelism,
    ProjectionIndex, QuerySpec, RunGuard,
};
use std::sync::Arc;

/// Everything observable about a community, in one comparable value.
fn sig(c: &Community) -> (Vec<u32>, f64, Vec<u32>, Vec<u32>, Vec<u32>, usize) {
    let ids = |v: &[NodeId]| v.iter().map(|n| n.0).collect::<Vec<u32>>();
    (
        ids(&c.core.0),
        c.cost.get(),
        ids(&c.centers),
        ids(&c.path_nodes),
        ids(c.nodes()),
        c.edge_count(),
    )
}

fn small_dblp() -> communities::datasets::GeneratedDataset {
    generate_dblp(&DblpConfig::default().scaled(0.3))
}

fn dblp_spec(ds: &communities::datasets::GeneratedDataset, l: usize) -> QuerySpec {
    let keywords = query_keywords(DBLP_KEYWORD_GROUPS, 0.0009, l);
    QuerySpec::new(
        keywords
            .iter()
            .map(|&kw| ds.graph.keyword_nodes(kw).to_vec())
            .collect(),
        Weight::new(6.0),
    )
}

#[test]
fn dblp_projection_build_is_thread_count_invariant() {
    let ds = small_dblp();
    let g = &ds.graph.graph;
    let keywords = query_keywords(DBLP_KEYWORD_GROUPS, 0.0009, 4);
    let entries: Vec<(&str, &[NodeId])> = keywords
        .iter()
        .map(|&kw| (kw, ds.graph.keyword_nodes(kw)))
        .collect();
    let pool = EnginePool::new();
    let build = |threads: usize| {
        ProjectionIndex::build_par_guarded(
            g,
            entries.iter().copied(),
            Weight::new(8.0),
            &RunGuard::unlimited(),
            &pool,
            Parallelism::new(threads),
        )
        .expect("unlimited guard never trips")
    };
    // The encoding covers every field: U, the rows, V_w and the runs.
    let serial = build(1).encode();
    for threads in [2usize, 4] {
        assert!(build(threads).encode() == serial, "{threads} threads");
    }

    // The same index from runs swept one at a time, in another order, on
    // one engine, and handed to the assembly in a third.
    let radius = Weight::new(8.0);
    let guard = RunGuard::unlimited();
    let mut engine = DijkstraEngine::new(g.node_count());
    let mut runs: Vec<(String, Arc<KeywordRun>)> = Vec::new();
    for &(kw, v_w) in entries.iter().rev() {
        let run = KeywordRun::sweep(g, &mut engine, v_w, radius, &guard);
        runs.push((
            kw.to_string(),
            Arc::new(run.expect("unlimited guard never trips")),
        ));
    }
    runs.rotate_left(1);
    let assembled = ProjectionIndex::from_runs(g, runs, radius, &guard);
    let assembled = assembled.expect("unlimited guard never trips");
    assert!(assembled.encode() == serial, "assembled from single sweeps");
}

/// Both Dijkstra kernels settle the paper example's keyword sweeps in the
/// same order with the same distances, sources, and parents.
#[test]
fn paper_example_kernels_settle_identically() {
    let g = fig4_graph();
    let rmax = Weight::new(FIG4_RMAX);
    for seeds in fig4_keyword_nodes() {
        let collect = |kernel: Kernel| {
            let mut e = DijkstraEngine::with_kernel(g.node_count(), kernel);
            let mut out = Vec::new();
            e.run(&g, Direction::Reverse, seeds.iter().copied(), rmax, |s| {
                out.push((s.node, s.dist, s.source, s.parent));
            });
            out
        };
        let heap = collect(Kernel::Heap);
        assert!(!heap.is_empty());
        assert_eq!(heap, collect(Kernel::Bucket), "bucket kernel diverged");
    }
}

/// The three procedures both enumerators drive — `Neighbor()` (the `l`
/// initial fills and the per-core pins), `BestCore()` and `GetCommunity()`
/// — answer identically under the heap reference kernel and the default
/// bucket kernel, on the paper example and the sampled DBLP workload.
#[test]
fn enumeration_is_kernel_invariant() {
    let paper = fig4_graph();
    let paper_spec = QuerySpec::new(fig4_keyword_nodes(), Weight::new(FIG4_RMAX));
    let ds = small_dblp();
    let dspec = dblp_spec(&ds, 4);
    for (g, spec) in [(&paper, &paper_spec), (&ds.graph.graph, &dspec)] {
        let guard = RunGuard::unlimited();
        let run = |kernel: Kernel| {
            let mut engine = DijkstraEngine::with_kernel(g.node_count(), kernel);
            let mut ns = NeighborSets::new(spec.l(), g.node_count());
            for (i, seeds) in spec.keyword_nodes.iter().enumerate() {
                let seeds = seeds.iter().copied();
                ns.recompute_dim_guarded(g, &mut engine, i, seeds, spec.rmax, &guard)
                    .expect("unlimited guard never trips");
            }
            let best = ns.best_core_with(spec.cost).expect("the query has a core");
            // Pin every dimension to the best core, as `Next()` does.
            for i in 0..spec.l() {
                ns.recompute_dim_guarded(g, &mut engine, i, [best.core.get(i)], spec.rmax, &guard)
                    .expect("unlimited guard never trips");
            }
            let pinned = ns.best_core_with(spec.cost);
            let community =
                get_community_guarded(g, &mut engine, &best.core, spec.rmax, spec.cost, &guard)
                    .expect("unlimited guard never trips")
                    .expect("the best core has a center");
            (best, pinned, sig(&community))
        };
        assert_eq!(run(Kernel::Heap), run(Kernel::Bucket));
    }
}

#[test]
fn dblp_batch_runner_is_thread_count_invariant() {
    let ds = small_dblp();
    let g = &ds.graph.graph;
    let queries: Vec<BatchQuery> = [2usize, 3, 4]
        .iter()
        .map(|&l| {
            let kws = query_keywords(DBLP_KEYWORD_GROUPS, 0.0009, l);
            BatchQuery {
                label: kws.join("+"),
                keyword_nodes: kws
                    .iter()
                    .map(|kw| ds.graph.keyword_nodes(kw).to_vec())
                    .collect(),
                rmax: 6.0,
                k: 25,
            }
        })
        .collect();
    let serial = BatchRunner::new(Parallelism::serial()).run(g, &queries);
    assert_eq!(serial.completed, queries.len());
    for threads in [2usize, 4] {
        let par = BatchRunner::new(Parallelism::new(threads)).run(g, &queries);
        assert_eq!(par.queries, serial.queries);
        assert_eq!(par.completed, serial.completed);
        for (a, b) in serial.results.iter().zip(&par.results) {
            assert_eq!(a.label, b.label, "batch order must follow submission");
            assert_eq!(a.status, b.status, "query '{}' diverged", a.label);
        }
    }
}
