//! Facade crate re-exporting the whole community-search stack:
//!
//! * [`graph`] — weighted digraph substrate (CSR, Dijkstra);
//! * [`rdb`] — mini relational engine and database-graph materialization;
//! * [`search`] — the paper's algorithms (`COMM-all`, `COMM-k`, baselines,
//!   projection index);
//! * [`datasets`] — paper examples and synthetic DBLP/IMDB generators;
//! * [`serve`] — the resident query daemon: wire protocol, admission
//!   control, guarded caches, resilient client, chaos harness.
//!
//! See the workspace README for a tour and `examples/` for runnable entry
//! points.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use comm_core as search;
pub use comm_datasets as datasets;
pub use comm_graph as graph;
pub use comm_rdb as rdb;
pub use comm_serve as serve;
