//! Keyword community search over a bibliographic database — the paper's
//! motivating scenario (Sec. I): "how are the authors and papers matching
//! these keywords related, beyond a single connecting tree?"
//!
//! Builds a relational database with the DBLP schema (Author / Paper /
//! Write / Cite), materializes the database graph with the paper's
//! `log2(1 + N_in)` edge weights, builds the projection index, and runs an
//! l-keyword query, printing each community with its tuples resolved back
//! to names and titles.
//!
//! ```bash
//! cargo run --release --example coauthor_communities [keyword ...]
//! ```

use communities::datasets::{generate_dblp, DblpConfig};
use communities::graph::{EnginePool, Parallelism, Weight};
use communities::rdb::{ColumnId, TableId};
use communities::search::{CommK, ProjectionIndex, QueryError, QuerySpec, RunGuard};

fn main() -> Result<(), QueryError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let keywords: Vec<&str> = if args.is_empty() {
        vec!["database", "optimization", "support"]
    } else {
        args.iter().map(String::as_str).collect()
    };
    let rmax = 6.0;

    // 1. A bibliographic database (synthetic stand-in for DBLP 2008).
    let ds = generate_dblp(&DblpConfig::default());
    println!(
        "DBLP-like database: {} tuples → G_D with {} nodes / {} edges",
        ds.db.tuple_count(),
        ds.graph.graph.node_count(),
        ds.graph.graph.edge_count()
    );

    // 2. Resolve keywords to node sets via the full-text index.
    let keyword_nodes: Vec<_> = keywords
        .iter()
        .map(|kw| ds.graph.keyword_nodes(kw).to_vec())
        .collect();
    for (kw, nodes) in keywords.iter().zip(&keyword_nodes) {
        println!("  keyword {kw:?}: {} matching tuples", nodes.len());
        if nodes.is_empty() {
            println!("  (no matches — try Table III keywords like 'database', 'fuzzy')");
            return Ok(());
        }
    }

    // 3. Project the query subgraph (Sec. VI) and search on it.
    let entries: Vec<(&str, &[communities::graph::NodeId])> = keywords
        .iter()
        .map(|&kw| (kw, ds.graph.keyword_nodes(kw)))
        .collect();
    let guard = RunGuard::unlimited();
    let index = ProjectionIndex::build_par_guarded(
        &ds.graph.graph,
        entries,
        Weight::new(8.0),
        &guard,
        &EnginePool::new(),
        Parallelism::serial(),
    )?;
    let pq = index.try_project(&keywords, Weight::new(rmax), &guard)?;
    println!(
        "projected graph: {} nodes ({:.3}% of G_D)\n",
        pq.projected.graph.node_count(),
        100.0 * index.projection_ratio(&pq)
    );

    // 4. Top-5 communities, with tuples resolved to readable text.
    let spec = QuerySpec::new(pq.spec.keyword_nodes.clone(), pq.spec.rmax);
    let describe = |orig: communities::graph::NodeId| -> String {
        let tref = ds.graph.tuple_of(orig);
        let table = ds.db.table(tref.table);
        match table.schema().name.as_str() {
            "Author" => format!("Author({})", table.cell(tref.row, ColumnId(1))),
            "Paper" => format!("Paper(\"{}\")", table.cell(tref.row, ColumnId(1))),
            "Write" => "Write".to_owned(),
            _ => "Cite".to_owned(),
        }
    };
    let _ = TableId(0); // (typed ids are how rdb addresses tables)
    for (rank, c) in CommK::try_new(&pq.projected.graph, &spec)?
        .take(5)
        .enumerate()
    {
        println!("── community #{} (cost {:.2}) ──", rank + 1, c.cost.get());
        for (i, &local) in c.core.0.iter().enumerate() {
            println!(
                "  keyword {:?} ← {}",
                keywords[i],
                describe(pq.projected.to_original(local))
            );
        }
        let centers: Vec<String> = c
            .centers
            .iter()
            .map(|&v| describe(pq.projected.to_original(v)))
            .collect();
        println!("  {} centers: {}", c.centers.len(), centers.join(", "));
        println!(
            "  community subgraph: {} nodes / {} edges\n",
            c.node_count(),
            c.edge_count()
        );
    }
    Ok(())
}
