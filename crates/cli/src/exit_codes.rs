//! The process exit-code contract, shared by the non-interactive entry
//! points (`serve`, `client`).
//!
//! Scripts and CI lanes branch on these, so they are part of the public
//! interface — change them only with a changelog entry:
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | complete: every query ran to completion |
//! | 1    | runtime failure: I/O, transport exhausted, daemon died |
//! | 2    | usage: unknown flag, malformed value, missing argument |
//! | 3    | interrupted: a certified exact-prefix answer (deadline, |
//! |      | budget, or Ctrl-C) — partial results were produced |
//! | 4    | overloaded: the request was explicitly shed by admission |
//! |      | control and never executed — retry later |

/// Every query completed.
pub const OK: i32 = 0;
/// Runtime failure (I/O error, transport retries exhausted).
pub const RUNTIME: i32 = 1;
/// Bad command-line usage.
pub const USAGE: i32 = 2;
/// Interrupted: certified exact-prefix (partial) results.
pub const INTERRUPTED: i32 = 3;
/// Explicitly shed by admission control; nothing executed.
pub const OVERLOADED: i32 = 4;
