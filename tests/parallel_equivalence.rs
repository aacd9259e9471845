//! Serial/parallel equivalence gate: the two paths that fan work out
//! inside or across queries — projection-index construction and the batch
//! driver — must produce **identical** results to the serial path for
//! every thread count, on a sampled synthetic DBLP workload.

use comm_bench::{BatchQuery, BatchRunner};
use communities::datasets::workload::{query_keywords, DBLP_KEYWORD_GROUPS};
use communities::datasets::{generate_dblp, DblpConfig};
use communities::graph::{DijkstraEngine, NodeId, Weight};
use communities::search::{EnginePool, KeywordRun, Parallelism, ProjectionIndex, RunGuard};
use std::sync::Arc;

fn small_dblp() -> communities::datasets::GeneratedDataset {
    generate_dblp(&DblpConfig::default().scaled(0.3))
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
