//! Keyword community search over database graphs — the core algorithms of
//! "Querying Communities in Relational Databases" (ICDE 2009).
//!
//! Given a weighted directed database graph `G_D` (see `comm-graph` /
//! `comm-rdb`), an l-keyword query resolved to node sets `V_1..V_l`, and a
//! radius `Rmax`, a **community** (Definition 2.1) is the induced subgraph
//! over *knodes* (one node per keyword, the community's **core**),
//! *cnodes* (centers reaching every knode within `Rmax`), and *pnodes*
//! (nodes on qualifying center→knode paths). This crate implements:
//!
//! * [`CommAll`] — Algorithm 1: polynomial-delay enumeration of all
//!   communities, complete and duplication-free
//!   (`O(l·(n log n + m))` delay, `O(l·n + m)` space);
//! * [`CommK`] — Algorithm 5: exact top-k enumeration in cost order via a
//!   can-list + min-heap, with `k` interactively extendable at run
//!   time (`O(l²·k + l·n + m)` space);
//! * [`get_community_guarded`] — Algorithm 4: materializing the unique
//!   community of a core;
//! * [`NeighborSets`] — Algorithms 2 & 3 (`Neighbor()` / `BestCore()`);
//! * [`naive`] — the exponential nested-loop oracle of Sec. III.
//!
//! # Execution control
//!
//! Every operation has exactly one entry point, and it is the fallible,
//! governed one: [`CommAll::try_new`] / [`CommK::try_new`] (and the
//! collecting [`comm_all_guarded`] / [`comm_k_guarded`]) validate the
//! [`QuerySpec`] up front, returning [`QueryError`] instead of panicking,
//! and run under a [`RunGuard`] — a cancel flag, deadline, and budget
//! governor threaded through every Dijkstra sweep
//! ([`RunGuard::unlimited`] when nothing should stop the run).
//! Interrupted runs return [`Outcome::Interrupted`] carrying the
//! communities emitted before the trip, always an exact prefix of the
//! unguarded enumeration. `COMM-all`, `COMM-k` and the naive
//! [`LawlerK`] share one enumeration shell, so validation, guard checks,
//! byte accounting and the exact-prefix rule are the same code for all
//! three.
//!
//! # One query, one thread
//!
//! A query is sequential. Each subspace depends on the previous one, and
//! every neighbor-table dimension is filled on the enumerator's own
//! engine, by [`NeighborSets::recompute_dim_guarded`], by a copy of a pin
//! it swept before or by a repair of what it swept. Index construction
//! ([`ProjectionIndex::build_guarded`]) sweeps its keywords one after
//! another, [`KeywordRun::sweep`] each, on one engine borrowed from the
//! caller's [`EnginePool`]. Concurrency is across queries: a serving
//! layer runs each on its own thread, sharing the pool and the guard
//! vocabulary ([`RunGuard`] clones share one trip flag).
//!
//! # Quickstart
//! ```
//! use comm_core::{CommK, QuerySpec};
//! use comm_datasets::paper_example::{fig4_graph, fig4_keyword_nodes, FIG4_RMAX};
//! use comm_graph::Weight;
//!
//! let graph = fig4_graph();
//! let spec = QuerySpec::new(fig4_keyword_nodes(), Weight::new(FIG4_RMAX));
//! let top3: Vec<_> = CommK::try_new(&graph, &spec)?.take(3).collect();
//! assert_eq!(top3[0].cost, Weight::new(7.0)); // Table I, rank 1
//! # Ok::<(), comm_core::QueryError>(())
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

pub mod baselines;
mod comm_all;
mod comm_k;
pub mod dot;
mod error;
mod get_community;
mod lawler;
pub mod naive;
mod neighbor;
mod projection;
mod shell;
pub mod trees;
mod types;
pub mod verify;

pub use baselines::{
    bu_all_guarded, bu_topk_guarded, td_all_guarded, td_topk_guarded, BaselineRun, BaselineStats,
};
pub use comm_all::{comm_all_guarded, CommAll};
pub use comm_k::{comm_k_guarded, CommK};
pub use error::QueryError;
pub use get_community::get_community_guarded;
pub use lawler::LawlerK;
pub use neighbor::{BestCore, NeighborSets, MAX_KEYWORDS};
pub use projection::{comm_k_on_index, KeywordRun, ProjectedQuery, ProjectionIndex};
pub use shell::Enumerator;
pub use types::{Community, Core, CostFn, QuerySpec};
pub use verify::{
    check_community, check_enumeration, check_ranking, check_topk_prefix, CertificationError,
};

// Re-export the guard and pool vocabulary so downstream users need only
// this crate.
pub use comm_graph::{EnginePool, InterruptReason, Outcome, PooledEngine, RunGuard};

/// Unguarded one-liners over the survivors and a seeded dense scenario,
/// for this crate's unit tests.
#[cfg(test)]
pub(crate) mod testing {
    use crate::{CommAll, CommK, Community, QuerySpec};
    use comm_graph::{Graph, GraphBuilder, NodeId, SplitMix64, Weight};
    use std::collections::BTreeSet;

    pub(crate) fn collect_all(g: &Graph, spec: &QuerySpec) -> Vec<Community> {
        CommAll::try_new(g, spec).unwrap().collect()
    }

    pub(crate) fn collect_top_k(g: &Graph, spec: &QuerySpec, k: usize) -> Vec<Community> {
        CommK::try_new(g, spec).unwrap().take(k).collect()
    }

    /// The fractional-weight scenario: a seeded dense graph whose weights
    /// are irrational, rounded to the unit. 80 nodes, four random partners
    /// each, every link bidirected and weighted `log2(1 + N_in(v))` like
    /// the benchmark's tuple graphs;
    /// three keyword sets of eight nodes, the first two sharing three (so
    /// some cores repeat a node); a radius under which 441 of the 512
    /// cores have a center.
    pub(crate) fn dense_scenario() -> (Graph, QuerySpec) {
        const N: usize = 80;
        let mut rng = SplitMix64::new(14);
        let mut links: BTreeSet<(u32, u32)> = BTreeSet::new();
        for u in 0..N as u32 {
            for _ in 0..4 {
                let v = rng.index(N) as u32;
                if u != v {
                    links.insert((u, v));
                    links.insert((v, u));
                }
            }
        }
        let mut in_degree = [0u32; N];
        for &(_, v) in &links {
            in_degree[v as usize] += 1;
        }
        let mut b = GraphBuilder::new(N);
        for &(u, v) in &links {
            let w = f64::from(1 + in_degree[v as usize]).log2();
            b.add_edge(NodeId(u), NodeId(v), Weight::new(w));
        }
        let mut ids: Vec<u32> = (0..N as u32).collect();
        rng.shuffle(&mut ids);
        let set = |r: std::ops::Range<usize>| ids[r].iter().map(|&u| NodeId(u)).collect();
        let keyword_nodes = vec![set(0..8), set(5..13), set(13..21)];
        (b.build(), QuerySpec::new(keyword_nodes, Weight::new(6.25)))
    }
}
