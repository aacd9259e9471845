//! The concurrency-discipline analyzers: whole-workspace structural rules
//! over every file's token tree ([`crate::ast`]):
//!
//! * [`lock_order`] — the lock-order graph: cycles ([`LOCK_ORDER`]) and
//!   guards held across pool checkout / wire I/O ([`LOCK_BLOCKING`]);
//! * [`alloc`] — collection growth inside guarded loops without a
//!   `RunGuard` byte-budget charge ([`UNBOUNDED_ALLOC`]);
//! * [`protocol`] — encode/decode symmetry for every wire-protocol
//!   variant and kind/status constant ([`PROTOCOL_SYMMETRY`]).
//!
//! Findings go through [`crate::rules::push`] (waivers, test-line
//! exemption), so `// xtask-allow: lock_order — reason` works the same way
//! as for the lint rules.

pub mod alloc;
pub mod lock_order;
pub mod protocol;

use crate::ast::Ast;
use crate::rules::Finding;
use crate::scan::SourceFile;
use std::path::PathBuf;

/// Rule id for lock-order cycles, canonical-order violations, and
/// re-acquisition of a held lock.
pub const LOCK_ORDER: &str = "lock_order";
/// Rule id for guards held across `EnginePool` checkout or wire I/O.
pub const LOCK_BLOCKING: &str = "lock_blocking";
/// Rule id for uncharged collection growth in guarded loops.
pub const UNBOUNDED_ALLOC: &str = "unbounded_alloc";
/// Rule id for asymmetric wire-protocol encode/decode arms.
pub const PROTOCOL_SYMMETRY: &str = "protocol_symmetry";

/// One parsed file: the lexical model plus its token tree.
pub struct FileModel {
    /// The masked-text model shared with the lint rules.
    pub source: SourceFile,
    /// The token tree built over the masked text.
    pub ast: Ast,
}

impl FileModel {
    /// Parses raw text into both models.
    pub fn parse(path: PathBuf, text: String) -> FileModel {
        let source = SourceFile::from_text(path, text);
        let ast = Ast::parse(&source);
        FileModel { source, ast }
    }
}

/// Runs every analyzer rule over the workspace model.
pub fn analyze(files: &[FileModel]) -> Vec<Finding> {
    let mut out = Vec::new();
    lock_order::check(files, &mut out);
    for fm in files {
        if alloc::in_scope(&fm.source.path) {
            alloc::check(fm, &mut out);
        }
        if protocol::in_scope(&fm.source.path) {
            protocol::check(fm, &mut out);
        }
    }
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}
