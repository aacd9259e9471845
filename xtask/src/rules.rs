//! The four repo-specific lint rules.
//!
//! Every rule reports findings with a stable rule id, a message, and a
//! suggestion. Findings on `#[cfg(test)]` lines are dropped; findings on
//! waived lines (see [`crate::scan::ALLOW_MARKER`]) are kept but flagged so
//! the driver can count them without failing the build.
//!
//! `guard_coverage` and `unsafe_confined` are AST queries over the token
//! tree ([`crate::ast`]): loops are resolved structurally (a `node_count()`
//! in straight-line code does not mark the function as looping).
//! `narrowing_cast` and `display_match` stay on the masked text, where
//! substring matching is exact.
//!
//! The panic-family ban is not here: the five library roots deny
//! `clippy::{unwrap_used, expect_used, panic, todo, unimplemented}` and each
//! kept site carries an `#[expect(.., reason = "..")]`, which the compiler
//! reports when it goes stale. `narrowing_cast` did not follow it to clippy
//! because `clippy::cast_possible_truncation` is a different check: it
//! reports 14 sites in those crates against this rule's 2, the other 12
//! being `f64 → usize` bucket/index math, where this rule polices only
//! integer narrowing of ids and offsets (and `x64 as usize`).

use crate::analyze::FileModel;
use crate::ast::TokKind;
use crate::scan::{ident_at, SourceFile};
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// File the finding is in.
    pub file: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// Stable rule id (`narrowing_cast`, `guard_coverage`, `display_match`,
    /// `unsafe_confined`).
    pub rule: &'static str,
    /// What was found.
    pub message: String,
    /// How to fix it.
    pub suggestion: String,
    /// True when an `xtask-allow` waiver covers the finding.
    pub waived: bool,
}

/// Rule id for the narrowing-cast ban.
pub const NARROWING_CAST: &str = "narrowing_cast";
/// Rule id for the node-loop `RunGuard` coverage requirement.
pub const GUARD_COVERAGE: &str = "guard_coverage";
/// Rule id for exhaustive `Display` impls on `*Error` enums.
pub const DISPLAY_MATCH: &str = "display_match";
/// Rule id for waiver comments that no longer suppress anything.
pub const STALE_WAIVER: &str = "stale_waiver";
/// Rule id for the unsafe-confinement requirement.
pub const UNSAFE_CONFINED: &str = "unsafe_confined";

/// Runs every applicable rule over one file. `guard_scope` enables the
/// guard-coverage rule (it applies to `crates/core` and `crates/serve`,
/// where ungoverned loops could run unbounded work).
pub fn check_file(fm: &FileModel, guard_scope: bool) -> Vec<Finding> {
    let mut out = Vec::new();
    narrowing_cast(&fm.source, &mut out);
    if guard_scope {
        guard_coverage(fm, &mut out);
    }
    display_match(&fm.source, &mut out);
    unsafe_confined(fm, &mut out);
    out.sort_by_key(|x| (x.line, x.rule));
    out
}

fn push(
    f: &SourceFile,
    out: &mut Vec<Finding>,
    rule: &'static str,
    line: usize,
    msg: String,
    suggestion: &str,
) {
    if f.is_test_line(line) {
        return;
    }
    out.push(Finding {
        file: f.path.clone(),
        line,
        rule,
        message: msg,
        suggestion: suggestion.to_string(),
        waived: f.is_waived(rule, line),
    });
}

/// `unsafe_confined`: the `unsafe` keyword is allowed only in
/// `crates/graph/src/storage.rs` (the mmap FFI and the Pod slice
/// reinterpret, both behind `#[allow(unsafe_code)]` with safety
/// comments). Every other library file must stay `unsafe`-free — the
/// crate roots say `#![forbid(unsafe_code)]`, but a file-level
/// `#![allow]` could reopen the door; this rule closes it. Matched as a
/// keyword token over masked text, so `unsafe_code` attribute idents,
/// comments, and strings can never fire.
fn unsafe_confined(fm: &FileModel, out: &mut Vec<Finding>) {
    const SUGGESTION: &str = "express the operation safely, or move it into \
         `crates/graph/src/storage.rs` with a `// SAFETY:` justification";
    if fm
        .source
        .path
        .ends_with(Path::new("crates/graph/src/storage.rs"))
    {
        return;
    }
    let ast = &fm.ast;
    for i in 0..ast.toks.len() {
        if ast.toks[i].kind == TokKind::Ident && ast.text(i) == "unsafe" {
            push(
                &fm.source,
                out,
                UNSAFE_CONFINED,
                ast.line(&fm.source, i),
                "`unsafe` outside the confined storage module".to_string(),
                SUGGESTION,
            );
        }
    }
}

const NARROW_TARGETS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// `narrowing_cast`: bans bare `as` casts to sub-64-bit integer types
/// (node-id/offset narrowing must go through the checked helpers in
/// `graph::weight`).
fn narrowing_cast(f: &SourceFile, out: &mut Vec<Finding>) {
    const SUGGESTION: &str = "use the checked conversions in `graph::weight` \
         (`index_to_u32`/`try_index_to_u32`) or `T::try_from(...)`";
    let mut search = 0;
    while let Some(rel) = f.masked[search..].find(" as ") {
        let pos = search + rel;
        search = pos + 4;
        let after = &f.masked[pos + 4..];
        let ty: String = after
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if ident_at(&f.masked, pos + 4 + ty.len()) {
            continue;
        }
        // `x64 as usize` truncates on 32-bit hosts: flag usize casts whose
        // source identifier names a 64-bit quantity (`n64`, `len_u64`, ...).
        let from_64 = ty == "usize" && preceding_ident(&f.masked, pos).contains("64");
        if !NARROW_TARGETS.contains(&ty.as_str()) && !from_64 {
            continue;
        }
        let line = f.line_of(pos);
        push(
            f,
            out,
            NARROWING_CAST,
            line,
            format!("bare narrowing cast `as {ty}`"),
            SUGGESTION,
        );
    }
}

/// The identifier directly before the ` as ` at `pos` (empty when the cast
/// source is a parenthesized expression).
fn preceding_ident(masked: &str, pos: usize) -> &str {
    let bytes = masked.as_bytes();
    let mut start = pos;
    while start > 0 && (bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_') {
        start -= 1;
    }
    &masked[start..pos]
}

/// `guard_coverage`: every `pub fn` in `crates/core` or `crates/serve`
/// whose body loops over graph nodes, pumps a request loop or fans work
/// out across threads must thread a `RunGuard` (or delegate to a
/// `_guarded` variant), so new algorithms and new serving paths cannot
/// bypass the execution governor. Parallel entry points are held to the
/// same bar as serial loops: a fan-out without a shared guard cannot be
/// cancelled mid-batch. So is any fn, private ones included, that loops
/// over the cells of a kept `Neighbor(V_i)` base or over a memoised pin's
/// settle stream: a copy or a cell repair fills a dimension like a sweep
/// does, without a settle loop to consult the guard for it.
fn guard_coverage(fm: &FileModel, out: &mut Vec<Finding>) {
    const SUGGESTION: &str = "accept `&RunGuard` (or delegate to a `*_guarded` variant) so the \
         execution governor can interrupt the loop";
    const LOOP_MARKS: [&str; 6] = [
        ".nodes()",
        "node_count()",
        "0..self.n",
        " 0..n",
        // Serving-path loops: an accept loop or a frame-pump without a
        // cancellable guard would hang shutdown forever.
        ".accept(",
        "read_frame(",
    ];
    const PAR_MARKS: [&str; 4] = ["thread::scope", ".spawn(", ".map_init(", "par.map("];
    // `Base::cells()` / `Base::cell(x)` and a `memoised` pin's settle
    // stream in `crates/core/src/neighbor.rs`.
    const FILL_MARKS: [&str; 3] = [".cells()", ".cell(", "memoised"];
    let ast = &fm.ast;
    for f in &ast.fns {
        let Some((open, close)) = f.body else {
            continue;
        };
        // Structural loop resolution: a mark only counts inside an actual
        // `for`/`while`/`loop` span (header included, so a frame-pump in a
        // `while let` condition is governed too). Straight-line calls to
        // `node_count()` no longer mark the function as looping.
        let looping = |marks: &[&str]| {
            ast.loops_in(open + 1, close).into_iter().any(|(lo, hi)| {
                let t = ast.span_text(lo, hi);
                marks.iter().any(|m| t.contains(m))
            })
        };
        let fills = looping(&FILL_MARKS);
        let loops = f.is_pub && looping(&LOOP_MARKS);
        let body = ast.span_text(open, close);
        let fans_out = f.is_pub && PAR_MARKS.iter().any(|m| body.contains(m));
        if !loops && !fans_out && !fills {
            continue;
        }
        // Guarded when any identifier in the signature or body names a
        // guard (`guard`, `RunGuard`, `scan_guarded`, `guard_cancel`, ...).
        let (sig_lo, _) = f.sig;
        let guarded = (sig_lo..=close).any(|i| {
            ast.ident(i)
                .is_some_and(|id| id.to_ascii_lowercase().contains("guard"))
        });
        if !guarded {
            let what = if fans_out {
                "fans work out across threads"
            } else if fills {
                "fills a neighbor-table dimension from its base"
            } else {
                "loops over graph nodes"
            };
            push(
                &fm.source,
                out,
                GUARD_COVERAGE,
                f.line,
                format!("`fn {}` {what} without a RunGuard", f.name),
                SUGGESTION,
            );
        }
    }
}

/// Byte offset of the `}` matching the `{` at `open` (or end of text).
fn matching_brace(masked: &str, open: usize) -> usize {
    let mut depth = 0usize;
    for (off, b) in masked.bytes().enumerate().skip(open) {
        if b == b'{' {
            depth += 1;
        } else if b == b'}' {
            depth -= 1;
            if depth == 0 {
                return off;
            }
        }
    }
    masked.len()
}

/// `display_match`: every variant of a `pub enum *Error` must be matched in
/// a `Display` impl in the same file (no stringly-typed error gaps).
fn display_match(f: &SourceFile, out: &mut Vec<Finding>) {
    const SUGGESTION: &str = "add a match arm for the variant to the enum's `Display` impl";
    let mut search = 0;
    while let Some(rel) = f.masked[search..].find("pub enum ") {
        let pos = search + rel;
        search = pos + "pub enum ".len();
        let name: String = f.masked[pos + "pub enum ".len()..]
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if !name.ends_with("Error") {
            continue;
        }
        let enum_line = f.line_of(pos);
        let Some(open_rel) = f.masked[pos..].find('{') else {
            continue;
        };
        let open = pos + open_rel;
        let close = matching_brace(&f.masked, open);
        let variants = enum_variants(f, open, close);

        let impl_body = find_display_impl(f, &name);
        match impl_body {
            None => push(
                f,
                out,
                DISPLAY_MATCH,
                enum_line,
                format!("`{name}` has no `Display` impl in this file"),
                "implement `std::fmt::Display` with one arm per variant",
            ),
            Some(body) => {
                for (vline, variant) in variants {
                    let qualified = format!("{name}::{variant}");
                    let selfed = format!("Self::{variant}");
                    if !body.contains(&qualified) && !body.contains(&selfed) {
                        push(
                            f,
                            out,
                            DISPLAY_MATCH,
                            vline,
                            format!("variant `{name}::{variant}` is not matched in `Display`"),
                            SUGGESTION,
                        );
                    }
                }
            }
        }
    }
}

/// Collects `(line, variant_name)` pairs from a rustfmt-formatted enum body.
fn enum_variants(f: &SourceFile, open: usize, close: usize) -> Vec<(usize, String)> {
    let mut variants = Vec::new();
    let first_line = f.line_of(open);
    let last_line = f.line_of(close);
    if first_line == last_line {
        // Single-line enum: `pub enum E { A, B }`.
        for part in f.masked[open + 1..close].split(',') {
            let ident: String = part
                .trim()
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if ident.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                variants.push((first_line, ident));
            }
        }
        return variants;
    }
    // Multi-line: a variant is a depth-1 line starting with an uppercase
    // identifier (field lines start lowercase, attribute lines with '#').
    let mut depth = 0usize;
    for line_no in first_line..=last_line {
        let text = f.masked_line(line_no);
        let trimmed = text.trim_start();
        if depth == 1 {
            let ident: String = trimmed
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if ident.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                variants.push((line_no, ident));
            }
        }
        for b in text.bytes() {
            match b {
                b'{' => depth += 1,
                b'}' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
    }
    variants
}

fn find_display_impl<'a>(f: &'a SourceFile, name: &str) -> Option<&'a str> {
    let needle = format!("Display for {name}");
    let pos = f.masked.find(&needle)?;
    let open = pos + f.masked[pos..].find('{')?;
    let close = matching_brace(&f.masked, open);
    Some(&f.masked[open..close])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn findings(src: &str, in_core: bool) -> Vec<Finding> {
        let fm = FileModel::parse(PathBuf::from("seed.rs"), src.to_string());
        check_file(&fm, in_core)
    }

    fn live(src: &str, in_core: bool) -> Vec<Finding> {
        findings(src, in_core)
            .into_iter()
            .filter(|x| !x.waived)
            .collect()
    }

    #[test]
    fn test_code_is_exempt() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn f(n: usize) -> u32 {\n        n as u32\n    }\n}\n";
        assert!(findings(src, false).is_empty());
    }

    #[test]
    fn waiver_suppresses_but_is_reported() {
        let src = "fn f(n: usize) -> u32 {\n    // xtask-allow: narrowing_cast — audited invariant\n    n as u32\n}\n";
        let all = findings(src, false);
        assert_eq!(all.len(), 1);
        assert!(all[0].waived);
    }

    #[test]
    fn seeded_narrowing_cast_fails() {
        let out = live("fn f(n: usize) -> u32 {\n    n as u32\n}\n", false);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, NARROWING_CAST);
        assert_eq!(out[0].line, 2);
    }

    #[test]
    fn widening_casts_are_fine() {
        let out = live(
            "fn f(n: u32) -> u64 {\n    let _ = n as usize;\n    n as u64\n}\n",
            false,
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn u64_to_usize_truncation_is_flagged() {
        let out = live("fn f(n64: u64) -> usize {\n    n64 as usize\n}\n", false);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, NARROWING_CAST);
        // Plain u32 -> usize widening stays clean.
        let ok = live("fn f(n: u32) -> usize {\n    n as usize\n}\n", false);
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn cast_in_string_is_ignored() {
        let out = live("fn f() -> &'static str {\n    \"x as u32\"\n}\n", false);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn seeded_unguarded_node_loop_fails() {
        let src = "pub fn scan(g: &Graph) -> usize {\n    let mut c = 0;\n    for u in g.nodes() {\n        c += u.index();\n    }\n    c\n}\n";
        let out = live(src, true);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, GUARD_COVERAGE);
        // The same source is clean outside crates/core.
        assert!(live(src, false).is_empty());
    }

    #[test]
    fn guarded_node_loop_passes() {
        let src = "pub fn scan(g: &Graph, guard: &RunGuard) -> usize {\n    let mut c = 0;\n    for u in g.nodes() {\n        guard.note_settled(1);\n        c += u.index();\n    }\n    c\n}\n";
        assert!(live(src, true).is_empty());
    }

    #[test]
    fn delegating_wrapper_passes() {
        let src = "pub fn scan(g: &Graph) -> usize {\n    for u in g.nodes() {\n        let _ = u;\n    }\n    scan_guarded(g, &RunGuard::noop())\n}\n";
        assert!(live(src, true).is_empty());
    }

    #[test]
    fn seeded_unguarded_fan_out_fails() {
        let src = "pub fn sweep(g: &Graph) -> Vec<u64> {\n    let tasks = make_tasks(g);\n    par.map(tasks)\n}\n";
        let out = live(src, true);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, GUARD_COVERAGE);
        assert!(out[0].message.contains("fans work out"));
        // Same source is clean outside crates/core.
        assert!(live(src, false).is_empty());
    }

    #[test]
    fn seeded_unguarded_scope_spawn_fails() {
        let src = "pub fn sweep(g: &Graph) {\n    std::thread::scope(|s| {\n        s.spawn(|| work(g));\n    });\n}\n";
        let out = live(src, true);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, GUARD_COVERAGE);
    }

    #[test]
    fn guarded_fan_out_passes() {
        let src = "pub fn sweep_guarded(g: &Graph, guard: &RunGuard) -> Vec<u64> {\n    let tasks = make_tasks(g, guard);\n    par.map(tasks)\n}\n";
        assert!(live(src, true).is_empty());
        let init = "pub fn build(g: &Graph, guard: &RunGuard) -> Vec<u64> {\n    par.map_init(|| scratch(), make_tasks(g, guard))\n}\n";
        assert!(live(init, true).is_empty());
    }

    #[test]
    fn seeded_unguarded_base_fill_fails_even_when_private() {
        let copy = "fn write_back(&mut self, base: &Base, xs: &[NodeId]) {\n    for &x in xs {\n        for &r in base.cell(x) {\n            self.copy_in(r);\n        }\n    }\n}\n";
        let out = live(copy, true);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, GUARD_COVERAGE);
        assert!(out[0].message.contains("fills a neighbor-table dimension"));
        let repair = "fn repair(&mut self, base: &Base) {\n    for cell in base.cells() {\n        self.copy(cell);\n    }\n}\n";
        assert_eq!(live(repair, true).len(), 1);
        // Clean outside the guard scope, and once the loop asks the guard.
        assert!(live(copy, false).is_empty());
        let asked = "fn repair(&mut self, base: &Base, guard: &RunGuard) -> Result<(), InterruptReason> {\n    for cell in base.cells() {\n        guard.check()?;\n        self.copy(cell);\n    }\n    Ok(())\n}\n";
        assert!(live(asked, true).is_empty());
        // Looking one cell up outside a loop is not a fill.
        let lookup = "fn owns(base: &Base, x: NodeId) -> usize {\n    base.cell(x).len()\n}\n";
        assert!(live(lookup, true).is_empty());
    }

    #[test]
    fn seeded_unguarded_pin_copy_fails() {
        let copy = "fn copy_pin(&mut self, memoised: &[Reached], i: usize) {\n    self.retract(i);\n    for &r in memoised {\n        self.copy_in(i, r);\n    }\n}\n";
        let out = live(copy, true);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, GUARD_COVERAGE);
        assert!(out[0].message.contains("fn copy_pin"));
        let asked = "fn copy_pin(&mut self, memoised: &[Reached], i: usize, guard: &RunGuard) -> Result<(), InterruptReason> {\n    self.retract(i);\n    guard.check()?;\n    for &r in memoised {\n        self.copy_in(i, r);\n    }\n    Ok(())\n}\n";
        assert!(live(asked, true).is_empty());
    }

    #[test]
    fn non_node_loop_passes() {
        let src = "pub fn sum(xs: &[u64]) -> u64 {\n    let mut t = 0;\n    for x in xs {\n        t += x;\n    }\n    t\n}\n";
        assert!(live(src, true).is_empty());
    }

    #[test]
    fn seeded_unguarded_accept_loop_fails() {
        let src = "pub fn serve(listener: &TcpListener) {\n    while running() {\n        let (s, _) = listener.accept().unwrap_or_continue();\n        handle(s);\n    }\n}\n";
        let out = live(src, true);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, GUARD_COVERAGE);
        // The same source is clean outside the guard scope.
        assert!(live(src, false).is_empty());
    }

    #[test]
    fn seeded_unguarded_frame_pump_fails() {
        let src = "pub fn pump(stream: &mut TcpStream) {\n    while let Ok(frame) = read_frame(stream) {\n        dispatch(frame);\n    }\n}\n";
        let out = live(src, true);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, GUARD_COVERAGE);
    }

    #[test]
    fn cancellable_request_loop_passes() {
        let src = "pub fn serve(listener: &TcpListener, guard_cancel: &AtomicBool) {\n    while !guard_cancel.load(Ordering::Relaxed) {\n        let _ = listener.accept();\n    }\n}\n";
        assert!(live(src, true).is_empty());
    }

    #[test]
    fn seeded_display_gap_fails() {
        let src = "pub enum DemoError {\n    Lost,\n    Found,\n}\nimpl std::fmt::Display for DemoError {\n    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {\n        match self {\n            DemoError::Lost => write!(f, \"lost\"),\n        }\n    }\n}\n";
        let out = live(src, false);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, DISPLAY_MATCH);
        assert!(out[0].message.contains("Found"));
    }

    #[test]
    fn exhaustive_display_passes() {
        let src = "pub enum DemoError {\n    Lost,\n    Found { name: String },\n}\nimpl std::fmt::Display for DemoError {\n    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {\n        match self {\n            DemoError::Lost => write!(f, \"lost\"),\n            DemoError::Found { name } => write!(f, \"found {name}\"),\n        }\n    }\n}\n";
        assert!(live(src, false).is_empty());
    }

    #[test]
    fn missing_display_impl_fails() {
        let out = live("pub enum GapError {\n    Oops,\n}\n", false);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, DISPLAY_MATCH);
        assert!(out[0].message.contains("no `Display` impl"));
    }

    fn findings_at(path: &str, src: &str) -> Vec<Finding> {
        let fm = FileModel::parse(PathBuf::from(path), src.to_string());
        check_file(&fm, false)
            .into_iter()
            .filter(|x| !x.waived)
            .collect()
    }

    #[test]
    fn seeded_unsafe_outside_storage_fails() {
        let src = "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        let out = findings_at("crates/core/src/x.rs", src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, UNSAFE_CONFINED);
        assert_eq!(out[0].line, 2);
    }

    #[test]
    fn unsafe_inside_storage_is_allowed() {
        let src = "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        assert!(findings_at("crates/graph/src/storage.rs", src).is_empty());
    }

    #[test]
    fn unsafe_code_attribute_ident_is_not_flagged() {
        let src = "#![forbid(unsafe_code)]\npub fn f() {}\n";
        assert!(findings_at("crates/core/src/lib.rs", src).is_empty());
    }

    #[test]
    fn unsafe_in_comment_or_string_is_not_flagged() {
        let src = "// unsafe is discussed here\npub fn f() -> &'static str {\n    \"unsafe\"\n}\n";
        assert!(findings_at("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn non_error_enums_are_ignored() {
        let out = live(
            "pub enum Direction {\n    Forward,\n    Reverse,\n}\n",
            false,
        );
        assert!(out.is_empty(), "{out:?}");
    }
}
