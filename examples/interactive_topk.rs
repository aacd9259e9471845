//! Interactive top-k (the paper's Exp-3): a user browses communities page
//! by page, repeatedly asking for more — the polynomial-delay enumerator
//! resumes where it stopped, while the expanding baselines would recompute
//! the whole query for every enlargement of k.
//!
//! ```bash
//! cargo run --release --example interactive_topk
//! ```

use communities::datasets::{generate_imdb, ImdbConfig};
use communities::graph::{EnginePool, NodeId, Parallelism, Weight};
use communities::search::{
    bu_topk_guarded, CommK, ProjectionIndex, QueryError, QuerySpec, RunGuard,
};
use std::time::Instant;

fn main() -> Result<(), QueryError> {
    let keywords = ["night", "story", "king", "house"];
    let page = 50;
    let pages = 5;

    let ds = generate_imdb(&ImdbConfig::default());
    let entries: Vec<(&str, &[NodeId])> = keywords
        .iter()
        .map(|&kw| (kw, ds.graph.keyword_nodes(kw)))
        .collect();
    let guard = RunGuard::unlimited();
    let index = ProjectionIndex::build_par_guarded(
        &ds.graph.graph,
        entries,
        Weight::new(13.0),
        &guard,
        &EnginePool::new(),
        Parallelism::serial(),
    )?;
    let pq = index.try_project(&keywords, Weight::new(11.0), &guard)?;
    let g = &pq.projected.graph;
    let spec = QuerySpec::new(pq.spec.keyword_nodes.clone(), pq.spec.rmax);
    println!(
        "query {keywords:?} on projected graph ({} nodes)\n",
        g.node_count()
    );

    // One persistent enumerator serves every "next page" request.
    let mut enumerator = CommK::try_new(g, &spec)?;
    println!(
        "{:<8} {:<22} {:<24}",
        "page", "PDk (resume)", "BUk (recompute from scratch)"
    );
    for p in 1..=pages {
        let t0 = Instant::now();
        let got: Vec<_> = enumerator.by_ref().take(page).collect();
        let t_resume = t0.elapsed();
        if got.is_empty() {
            println!("{:<8} enumeration exhausted", p);
            break;
        }
        // What the baselines would have to do for the same page: rerun
        // with k = p * page and throw away the first (p-1) pages.
        let t0 = Instant::now();
        let bu = bu_topk_guarded(g, &spec, p * page, None, guard.clone())?.into_value();
        let t_rerun = t0.elapsed();
        println!(
            "{:<8} {:<22} {:<24}",
            format!("{}..{}", (p - 1) * page + 1, (p - 1) * page + got.len()),
            format!("{t_resume:?}"),
            format!("{t_rerun:?} ({} communities)", bu.communities.len()),
        );
        // The pages the user saw so far always match a one-shot top-(p·page).
        let last_cost = got.last().expect("non-empty page").cost;
        let bu_last = bu.communities.last().expect("non-empty").cost;
        assert!(last_cost <= bu_last || (last_cost.get() - bu_last.get()).abs() < 1e-9);
    }
    println!(
        "\ntotal communities browsed: {} (can-list holds {} candidates, {} peak memory)",
        enumerator.emitted(),
        enumerator.can_list_len(),
        enumerator.peak_memory_bytes(),
    );
    Ok(())
}
