//! `comm-serve`: a resident community-query daemon over the engine.
//!
//! The paper's engine answers one query per call; this crate keeps the
//! expensive state — the graph, projection indexes, Dijkstra scratch —
//! hot behind a long-running TCP daemon and adds the robustness layer a
//! shared service needs:
//!
//! * **wire protocol** ([`protocol`]): length-prefixed binary frames,
//!   hand-rolled and strictly decoded — truncation is an error, never a
//!   partial parse;
//! * **admission control** ([`admission`]): a bounded wait queue plus a
//!   priority → `RunGuard` degradation ladder, so overload produces
//!   certified exact-prefix answers and explicit `Overloaded` sheds
//!   instead of unbounded queueing;
//! * **guarded caches** ([`cache`], [`engine`]): an exact-hit answer
//!   cache, an LRU of projection indexes per keyword set and a byte-capped
//!   cache of per-keyword distance runs under it, with a bit-identical
//!   cached-vs-uncached contract;
//! * **resilient client** ([`client`]): timeouts everywhere, bounded
//!   jittered retry, idempotent request ids the server deduplicates;
//! * **chaos harness** ([`chaos`], [`load`]): deterministic fault
//!   injection on the serving path plus an open-loop load generator that
//!   proves every request terminates in one of the declared states.
//!
//! The crate is std-only beyond the in-repo engine crates, so the daemon
//! and its chaos tests build with no registry access.

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

pub mod admission;
pub mod cache;
pub mod chaos;
pub mod client;
pub mod engine;
pub mod json;
pub mod load;
pub mod protocol;
pub mod server;
pub mod workload;

#[cfg(all(test, any(debug_assertions, feature = "verify")))]
mod leaf_rule;

pub use admission::{Admission, AdmissionConfig, AdmissionGate, Permit};
pub use cache::{AnswerKey, IndexKey, Lru};
pub use chaos::{ChaosConfig, ChaosState};
pub use client::{next_request_id, Client, ClientConfig, ClientError};
pub use engine::{summarize, EngineConfig, QueryEngine};
pub use load::{run_load, LatencySummary, LoadConfig, LoadReport};
pub use protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    CommunitySummary, Priority, ProtocolError, Request, Response, MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
};
pub use server::{counter, spawn, ServerConfig, ServerHandle};
pub use workload::{synthetic_engine, synthetic_mix, QueryMix, KEYWORDS};
