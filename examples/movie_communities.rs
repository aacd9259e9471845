//! Multi-center communities on a dense rating graph (the paper's IMDB /
//! MovieLens scenario) — and a comparison of all three top-k engines.
//!
//! Dense bipartite graphs are where communities shine over connected
//! trees: the same keyword movies are connected through *many* raters, and
//! a community captures all of those centers at once while a tree shows
//! only one.
//!
//! ```bash
//! cargo run --release --example movie_communities
//! ```

use communities::datasets::{generate_imdb, ImdbConfig};
use communities::graph::{EnginePool, NodeId, Weight};
use communities::search::{
    bu_topk_guarded, td_topk_guarded, CommK, ProjectionIndex, QueryError, QuerySpec, RunGuard,
};
use std::time::Instant;

fn main() -> Result<(), QueryError> {
    let keywords = ["star", "death", "girl"];
    let rmax = 11.0;
    let k = 25;

    let ds = generate_imdb(&ImdbConfig::default());
    println!(
        "IMDB-like database: {} tuples → G_D with {} nodes / {} edges",
        ds.db.tuple_count(),
        ds.graph.graph.node_count(),
        ds.graph.graph.edge_count()
    );

    let entries: Vec<(&str, &[NodeId])> = keywords
        .iter()
        .map(|&kw| (kw, ds.graph.keyword_nodes(kw)))
        .collect();
    let guard = RunGuard::unlimited();
    let index = ProjectionIndex::build_guarded(
        &ds.graph.graph,
        entries,
        Weight::new(13.0),
        &guard,
        &EnginePool::new(),
    )?;
    let pq = index.try_project(&keywords, Weight::new(rmax), &guard)?;
    let g = &pq.projected.graph;
    println!(
        "projected graph for {keywords:?}: {} nodes / {} edges\n",
        g.node_count(),
        g.edge_count()
    );
    let spec = QuerySpec::new(pq.spec.keyword_nodes.clone(), pq.spec.rmax);

    // Multi-center structure: how many centers do the top communities have?
    let t0 = Instant::now();
    let top: Vec<_> = CommK::try_new(g, &spec)?.take(k).collect();
    let t_pd = t0.elapsed();
    let avg_centers: f64 =
        top.iter().map(|c| c.centers.len() as f64).sum::<f64>() / top.len().max(1) as f64;
    println!("top-{k} communities ({t_pd:?} with PDk):");
    println!(
        "  cost range: {:.2} … {:.2}",
        top.first().map(|c| c.cost.get()).unwrap_or(0.0),
        top.last().map(|c| c.cost.get()).unwrap_or(0.0)
    );
    println!("  average centers per community: {avg_centers:.1}");
    let max_c = top
        .iter()
        .max_by_key(|c| c.centers.len())
        .expect("non-empty");
    println!(
        "  widest community: {} centers, {} total nodes — a connected tree would show 1 path\n",
        max_c.centers.len(),
        max_c.node_count()
    );

    // The same top-k through the expanding baselines.
    let t0 = Instant::now();
    let bu = bu_topk_guarded(g, &spec, k, None, guard.clone())?.into_value();
    let t_bu = t0.elapsed();
    let t0 = Instant::now();
    let td = td_topk_guarded(g, &spec, k, None, guard.clone())?.into_value();
    let t_td = t0.elapsed();
    println!("engine comparison for the identical top-{k}:");
    println!("  PDk (polynomial delay): {t_pd:?}  — explores only what the ranking needs");
    println!(
        "  BUk (bottom-up):        {t_bu:?}  — {} candidate cores generated",
        bu.stats.candidates
    );
    println!(
        "  TDk (top-down):         {t_td:?}  — {} candidate cores generated",
        td.stats.candidates
    );
    let costs =
        |cs: &[communities::search::Community]| cs.iter().map(|c| c.cost).collect::<Vec<_>>();
    assert_eq!(costs(&top), costs(&bu.communities));
    assert_eq!(costs(&top), costs(&td.communities));
    println!("  all three agree on the ranking ✓");
    Ok(())
}
