//! Dataset substrates for the community-search reproduction.
//!
//! * [`paper_example`]: the paper's running examples — the reconstructed
//!   Fig. 4 database graph with its Table I ground truth, and the Fig. 1
//!   co-authorship graph;
//! * [`dblp`] / [`imdb`]: seeded synthetic stand-ins for the DBLP 2008 and
//!   MovieLens-1M datasets of Sec. VII (the originals cannot be shipped),
//!   calibrated to the papers' schema and density statistics;
//! * [`keywords`]: exact-frequency keyword planting;
//! * [`workload`]: the parameter grids and keyword sets of Tables II–V.

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

pub mod cache;
pub mod dblp;
pub mod imdb;
pub mod keywords;
pub mod paper_example;
pub mod sampling;
pub mod stats;
pub mod workload;

pub use dblp::{generate_dblp, DblpConfig, GeneratedDataset};
pub use imdb::{generate_imdb, ImdbConfig};
