//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (Sec. VII), plus mechanism ablations. See the `repro` binary
//! for the command-line entry point.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod parallel;
pub mod setup;
pub mod table;

pub use parallel::{BatchQuery, BatchReport, BatchRunner};
pub use setup::{IndexSource, Prepared, Scale};
pub use table::Table;
