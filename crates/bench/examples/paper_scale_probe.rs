//! End-to-end probe at the paper's full DBLP scale: index build time,
//! projection ratios, and query timings — directly comparable to Sec. VII.
use comm_core::{
    bu_all_guarded, bu_topk_guarded, td_all_guarded, td_topk_guarded, CommAll, CommK,
    ProjectionIndex, QueryError, RunGuard,
};
use comm_datasets::workload::{query_keywords, DBLP_GRID, DBLP_KEYWORD_GROUPS};
use comm_datasets::{generate_dblp, DblpConfig};
use comm_graph::{EnginePool, NodeId, Weight};
use std::time::Instant;

fn main() -> Result<(), QueryError> {
    let t0 = Instant::now();
    let ds = generate_dblp(&DblpConfig::paper_scale());
    println!(
        "[gen] n={} m={} in {:?}",
        ds.graph.graph.node_count(),
        ds.graph.graph.edge_count(),
        t0.elapsed()
    );
    let grid = &DBLP_GRID;
    let (dkwf, dl, drmax, k) = grid.defaults;
    // Index over all benchmark keywords (the paper indexes everything; we
    // index the workload vocabulary).
    let entries: Vec<(&str, &[NodeId])> = DBLP_KEYWORD_GROUPS
        .iter()
        .flat_map(|g| {
            g.keywords
                .iter()
                .map(|&kw| (kw, ds.graph.keyword_nodes(kw)))
        })
        .collect();
    let t0 = Instant::now();
    let guard = RunGuard::unlimited();
    let idx = ProjectionIndex::build_guarded(
        &ds.graph.graph,
        entries,
        Weight::new(*grid.rmax.last().unwrap()),
        &guard,
        &EnginePool::new(),
    )?;
    println!(
        "[index] built in {:?}, {:.1} MB",
        t0.elapsed(),
        idx.byte_size() as f64 / 1048576.0
    );
    // Projection ratios across the kwf grid (paper: max 1.2%, avg 0.4%).
    let mut ratios = vec![];
    for &kwf in grid.kwf {
        for &l in grid.l {
            let kws = query_keywords(DBLP_KEYWORD_GROUPS, kwf, l);
            let pq = idx.try_project(&kws, Weight::new(drmax), &guard)?;
            ratios.push(idx.projection_ratio(&pq));
        }
    }
    let max = ratios.iter().cloned().fold(0.0f64, f64::max);
    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    println!(
        "[proj] over {} cells: max {:.3}% avg {:.3}%",
        ratios.len(),
        100.0 * max,
        100.0 * avg
    );
    // Default cell head-to-head.
    let kws = query_keywords(DBLP_KEYWORD_GROUPS, dkwf, dl);
    let t0 = Instant::now();
    let pq = idx.try_project(&kws, Weight::new(drmax), &guard)?;
    println!(
        "[proj-default] n={} m={} in {:?}",
        pq.projected.graph.node_count(),
        pq.projected.graph.edge_count(),
        t0.elapsed()
    );
    let g = &pq.projected.graph;
    let cap = 2000;
    let t0 = Instant::now();
    let mut it = CommAll::try_new(g, &pq.spec)?;
    let mut n = 0;
    while n < cap && it.next().is_some() {
        n += 1;
    }
    println!(
        "[PDall] {} in {:?} mem {}",
        n,
        t0.elapsed(),
        it.peak_memory_bytes()
    );
    let t0 = Instant::now();
    let bu = bu_all_guarded(g, &pq.spec, Some(cap), guard.clone())?.into_value();
    println!(
        "[BUall] {} in {:?} cand {} mem {}",
        bu.communities.len(),
        t0.elapsed(),
        bu.stats.candidates,
        bu.stats.peak_bytes
    );
    let t0 = Instant::now();
    let td = td_all_guarded(g, &pq.spec, Some(cap), guard.clone())?.into_value();
    println!(
        "[TDall] {} in {:?} mem {}",
        td.communities.len(),
        t0.elapsed(),
        td.stats.peak_bytes
    );
    let t0 = Instant::now();
    let pd: Vec<_> = CommK::try_new(g, &pq.spec)?.take(k).collect();
    println!("[PDk] top-{} in {:?}", pd.len(), t0.elapsed());
    let t0 = Instant::now();
    let buk = bu_topk_guarded(g, &pq.spec, k, Some(20_000_000), guard.clone())?.into_value();
    println!(
        "[BUk] done={} cand={} in {:?}",
        buk.stats.completed,
        buk.stats.candidates,
        t0.elapsed()
    );
    let t0 = Instant::now();
    let tdk = td_topk_guarded(g, &pq.spec, k, Some(20_000_000), guard)?.into_value();
    println!("[TDk] done={} in {:?}", tdk.stats.completed, t0.elapsed());
    Ok(())
}
