//! A miniature relational database engine whose purpose is to materialize
//! the *database graph* `G_D` of the ICDE'09 paper "Querying Communities in
//! Relational Databases".
//!
//! The paper models a relational database as a weighted directed graph:
//! tuples are nodes, foreign-key references are (bi-directed) edges, and
//! each directed edge `(u, v)` weighs `log2(1 + N_in(v))`. This crate
//! provides:
//!
//! * typed schemas with primary keys and enforced foreign keys
//!   ([`TableSchema`], [`Database`]);
//! * compact row storage (tag-encoded byte rows in per-table arenas);
//! * a full-text index over designated text columns ([`FullTextIndex`]),
//!   which resolves an l-keyword query's keyword `k_i` to its node set `V_i`;
//! * graph materialization ([`DatabaseGraph::materialize`]) with the paper's
//!   weight function and provenance back to tuples.
//!
//! # Example
//! ```
//! use comm_rdb::{ColumnDef, ColumnType, Database, DatabaseGraph, EdgeMode,
//!                TableSchema, Value, WeightScheme};
//!
//! let mut db = Database::new();
//! let author = db.create_table(
//!     TableSchema::new("Author", vec![
//!         ColumnDef::new("Aid", ColumnType::Int),
//!         ColumnDef::full_text("Name"),
//!     ]).with_primary_key("Aid"),
//! );
//! let paper = db.create_table(
//!     TableSchema::new("Paper", vec![
//!         ColumnDef::new("Pid", ColumnType::Int),
//!         ColumnDef::full_text("Title"),
//!     ]).with_primary_key("Pid"),
//! );
//! let write = db.create_table(
//!     TableSchema::new("Write", vec![
//!         ColumnDef::new("Aid", ColumnType::Int),
//!         ColumnDef::new("Pid", ColumnType::Int),
//!     ]).with_foreign_key("Aid", author).with_foreign_key("Pid", paper),
//! );
//! db.insert(author, &[Value::Int(1), Value::from("Kate Green")]).unwrap();
//! db.insert(paper, &[Value::Int(1), Value::from("Community search")]).unwrap();
//! db.insert(write, &[Value::Int(1), Value::Int(1)]).unwrap();
//!
//! let dg = DatabaseGraph::materialize(&db, WeightScheme::LogInDegree, EdgeMode::BiDirected);
//! assert_eq!(dg.graph.node_count(), 3);
//! assert_eq!(dg.keyword_nodes("kate").len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No panics in library code (tests may): a site that keeps one says why
// in an `#[expect(clippy::…, reason = "…")]`, which turns stale by itself.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented
    )
)]

mod codec;
mod database;
mod error;
mod graphize;
mod schema;
mod table;
mod text;
mod value;

pub use database::{Database, TupleRef};
pub use error::RdbError;
pub use graphize::{DatabaseGraph, EdgeMode, WeightCertificationError, WeightScheme};
pub use schema::{ColumnDef, ColumnId, ForeignKey, TableId, TableSchema};
pub use table::{RowId, Table};
pub use text::{tokenize, FullTextIndex};
pub use value::{ColumnType, Value};
