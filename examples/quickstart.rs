//! Quickstart: the paper's running example end-to-end.
//!
//! Builds the Fig. 4 database graph, runs the 3-keyword query {a, b, c}
//! with Rmax = 8, and prints all five communities in rank order — the
//! paper's Table I.
//!
//! ```bash
//! cargo run --example quickstart
//! ```

use communities::datasets::paper_example::{fig4_graph, fig4_keyword_nodes, FIG4_RMAX};
use communities::graph::Weight;
use communities::search::{CommK, QueryError, QuerySpec};

fn main() -> Result<(), QueryError> {
    let graph = fig4_graph();
    println!(
        "database graph G_D: {} nodes, {} edges",
        graph.node_count(),
        graph.edge_count()
    );

    // An l-keyword query is a set of node sets V_1..V_l plus a radius.
    let spec = QuerySpec::new(fig4_keyword_nodes(), Weight::new(FIG4_RMAX));
    println!("3-keyword query {{a, b, c}} with Rmax = {FIG4_RMAX}\n");

    println!(
        "{:<6} {:<18} {:<6} {:<14} {:<10}",
        "rank", "core [a,b,c]", "cost", "centers", "path nodes"
    );
    for (rank, community) in CommK::try_new(&graph, &spec)?.enumerate() {
        println!(
            "{:<6} {:<18} {:<6} {:<14} {:<10}",
            rank + 1,
            format!("{:?}", community.core),
            format!("{}", community.cost),
            format!("{:?}", community.centers),
            format!("{:?}", community.path_nodes),
        );
    }

    // A community is an induced subgraph; inspect the top one.
    let top = CommK::try_new(&graph, &spec)?
        .next()
        .expect("five communities exist");
    println!(
        "\ntop community: {} nodes, {} edges, knodes {:?}",
        top.node_count(),
        top.edge_count(),
        top.knodes
    );
    Ok(())
}
