//! The paper's introduction, from scratch: build the Kate/Smith
//! co-authorship database (Fig. 1) as a *relational database*, materialize
//! it into a database graph, and contrast what a 2-keyword query returns —
//! the five connected trees of Fig. 2 give fragments; the community of
//! Fig. 3 gives the whole picture at once.
//!
//! ```bash
//! cargo run --example kate_and_smith
//! ```

use communities::graph::Weight;
use communities::rdb::{
    ColumnDef, ColumnType, Database, DatabaseGraph, EdgeMode, TableSchema, Value, WeightScheme,
};
use communities::search::{CommAll, QueryError, QuerySpec};

fn main() -> Result<(), QueryError> {
    // Author(Aid, Name), Paper(Pid, Title), Write(Aid, Pid, Pos), Cite(Pid1, Pid2)
    let mut db = Database::new();
    let author = db.create_table(
        TableSchema::new(
            "Author",
            vec![
                ColumnDef::new("Aid", ColumnType::Int),
                ColumnDef::full_text("Name"),
            ],
        )
        .with_primary_key("Aid"),
    );
    let paper = db.create_table(
        TableSchema::new(
            "Paper",
            vec![
                ColumnDef::new("Pid", ColumnType::Int),
                ColumnDef::full_text("Title"),
            ],
        )
        .with_primary_key("Pid"),
    );
    let write = db.create_table(
        TableSchema::new(
            "Write",
            vec![
                ColumnDef::new("Aid", ColumnType::Int),
                ColumnDef::new("Pid", ColumnType::Int),
                ColumnDef::new("Pos", ColumnType::Int),
            ],
        )
        .with_foreign_key("Aid", author)
        .with_foreign_key("Pid", paper),
    );
    let cite = db.create_table(
        TableSchema::new(
            "Cite",
            vec![
                ColumnDef::new("Pid1", ColumnType::Int),
                ColumnDef::new("Pid2", ColumnType::Int),
            ],
        )
        .with_foreign_key("Pid1", paper)
        .with_foreign_key("Pid2", paper),
    );

    for (aid, name) in [(1, "John Smith"), (2, "Jim Smith"), (3, "Kate Green")] {
        db.insert(author, &[Value::Int(aid), Value::from(name)])
            .unwrap();
    }
    db.insert(paper, &[Value::Int(1), Value::from("paper1")])
        .unwrap();
    db.insert(paper, &[Value::Int(2), Value::from("paper2")])
        .unwrap();
    // Author order is recorded in Pos (1 = first author, …).
    for (aid, pid, pos) in [(1, 1, 1), (3, 1, 2), (3, 2, 1), (1, 2, 2), (2, 2, 3)] {
        db.insert(write, &[Value::Int(aid), Value::Int(pid), Value::Int(pos)])
            .unwrap();
    }
    db.insert(cite, &[Value::Int(1), Value::Int(2)]).unwrap();
    println!(
        "relational database: {} tables, {} tuples",
        db.table_count(),
        db.tuple_count()
    );

    // Materialize G_D. (The intro's hand-drawn figure collapses Write
    // tuples into weighted author↔paper edges; the materialized graph
    // keeps the Write tuples as nodes, which only lengthens paths.)
    let dg = DatabaseGraph::materialize(&db, WeightScheme::LogInDegree, EdgeMode::BiDirected);
    println!(
        "database graph: {} nodes, {} edges (bi-directed FK references)\n",
        dg.graph.node_count(),
        dg.graph.edge_count()
    );

    // The 2-keyword query {kate, smith}.
    let spec = QuerySpec::new(
        vec![
            dg.keyword_nodes("kate").to_vec(),
            dg.keyword_nodes("smith").to_vec(),
        ],
        Weight::new(8.0),
    );
    println!("2-keyword query {{kate, smith}}, Rmax = 8:\n");
    for c in CommAll::try_new(&dg.graph, &spec)? {
        let name_of = |n: communities::graph::NodeId| {
            let t = dg.tuple_of(n);
            let table = db.table(t.table);
            match table.schema().name.as_str() {
                "Author" | "Paper" => table.row(t.row)[1].to_string(),
                other => other.to_owned(),
            }
        };
        println!(
            "community (cost {:.2}): kate = {:?}, smith = {:?}",
            c.cost.get(),
            name_of(c.core.get(0)),
            name_of(c.core.get(1)),
        );
        println!(
            "  {} centers, {} path nodes, {} total nodes — the single community \
             subsumes every connecting tree between these two authors",
            c.centers.len(),
            c.path_nodes.len(),
            c.node_count()
        );
    }
    Ok(())
}
