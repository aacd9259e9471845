//! The AST-grade analyzer: [`alloc`] — collection growth inside guarded
//! loops without a `RunGuard` byte-budget charge ([`UNBOUNDED_ALLOC`]),
//! over every library file's token tree ([`crate::ast`]).
//!
//! Findings go through [`crate::rules::push`] (waivers, test-line
//! exemption), so `// xtask-allow: unbounded_alloc — reason` works the
//! same way as for the lint rules.

pub mod alloc;

use crate::ast::Ast;
use crate::rules::Finding;
use crate::scan::SourceFile;
use std::path::PathBuf;

/// Rule id for uncharged collection growth in guarded loops.
pub const UNBOUNDED_ALLOC: &str = "unbounded_alloc";

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

/// Runs the analyzer over the workspace model.
pub fn analyze(files: &[FileModel]) -> Vec<Finding> {
    let mut out = Vec::new();
    for fm in files.iter().filter(|fm| alloc::in_scope(&fm.source.path)) {
        alloc::check(fm, &mut out);
    }
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}
