//! Weighted directed graph substrate for keyword community search.
//!
//! This crate provides the database-graph machinery the ICDE'09 paper
//! ("Querying Communities in Relational Databases") builds on:
//!
//! * [`Graph`]: CSR storage with both forward and reverse adjacency,
//!   modeling the database graph `G_D = (V, E)` whose nodes are tuples and
//!   whose edges are foreign-key references;
//! * [`Csr`]: one direction of that adjacency — what a sweep reads, what
//!   the projection index stores, and the row filter-copy
//!   ([`Csr::induce`]) behind [`Graph::induce`] and `GraphProjection`;
//! * [`Weight`]: fixed-point non-negative edge and path weights, exact
//!   under addition (the paper uses `w_e((u,v)) = log2(1 + N_in(v))`);
//! * [`DijkstraEngine`]: reusable radius-bounded multi-source Dijkstra, the
//!   workhorse behind `Neighbor()`, `GetCommunity()` and `GraphProjection`
//!   — one binary heap and one settle loop, which the two forward sweeps
//!   run under an admission predicate
//!   ([`DijkstraEngine::run_rows_guarded`]);
//! * [`RunGuard`]: cooperative execution governor (cancellation, deadlines,
//!   work/memory budgets) threaded through every sweep and enumeration;
//! * [`EnginePool`]: a free list of engine scratch states, one pool per
//!   query engine, passed by reference;
//! * [`InducedGraph`]: induced-subgraph extraction with id mapping;
//! * [`SplitMix64`]: the one seeded PRNG behind the dataset generators and
//!   the property loops in the test tree;
//! * [`mod@reference`]: brute-force oracles for tests.
//!
//! # Example
//! ```
//! use comm_graph::{graph_from_edges, DijkstraEngine, Direction, NodeId, Weight};
//!
//! let g = graph_from_edges(3, &[(0, 1, 1.0), (1, 2, 2.0)]);
//! // One engine per graph size: its scratch is reused by every sweep.
//! let mut engine = DijkstraEngine::new(g.node_count());
//! let d = engine.distances(&g, Direction::Forward, NodeId(0));
//! assert_eq!(d[2], Weight::new(3.0));
//! assert_eq!(engine.distances(&g, Direction::Reverse, NodeId(2))[0], Weight::new(3.0));
//! ```

// `deny`, not `forbid`: `storage.rs` is the single module allowed to opt
// back in (`#![allow(unsafe_code)]`) for the mmap FFI and the Pod slice
// reinterpret; `cargo xtask check` (row `unsafe_confined`) fails if any
// other file in the workspace opts back in.
#![deny(unsafe_code)]
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

pub mod container;
mod csr;
mod dijkstra;
pub mod guard;
pub mod io;
pub mod pool;
pub mod reference;
pub mod rng;
pub mod storage;
pub mod verify;
pub mod weight;

pub use container::{load_container, save_container, Container};
pub use csr::{graph_from_edges, Csr, Direction, Graph, GraphBuilder, InducedGraph, NodeId};
pub use dijkstra::{shortest_distances, DijkstraEngine, Settled};
pub use guard::{InterruptReason, Outcome, RunGuard};
pub use pool::{EnginePool, Parallelism, PooledEngine};
pub use rng::SplitMix64;
pub use verify::GraphInvariantError;
pub use weight::Weight;
