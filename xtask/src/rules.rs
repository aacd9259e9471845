//! The two lint rules that need the token tree, and the finding type
//! every rule, analyzer and gate row reports through.
//!
//! Every finding has a stable rule id, a message, and a suggestion.
//! [`push`] drops findings on `#[cfg(test)]` lines and flags waived ones
//! (see [`crate::scan::ALLOW_MARKER`]) so `check` can count them
//! without failing the build.
//!
//! `guard_coverage` and `display_match` are queries over the token tree
//! ([`crate::ast`]): loops are resolved structurally (a `node_count()` in
//! straight-line code does not mark the function as looping).
//!
//! The panic-family ban is not here: the five library roots deny
//! `clippy::{unwrap_used, expect_used, panic, todo, unimplemented}` and each
//! kept site carries an `#[expect(.., reason = "..")]`, which the compiler
//! reports when it goes stale. Nor is `unsafe`: four library roots forbid
//! `unsafe_code`, `graph` denies it, and the `unsafe_confined` gate row
//! keeps `allow(unsafe_code)` to `graph/src/storage.rs` and the CLI's
//! `main.rs`. `narrowing_cast` is a gate row too ([`crate::gates`]).

use crate::analyze::FileModel;
use crate::ast::TokKind;
use crate::scan::SourceFile;
use std::path::PathBuf;

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// File the finding is in.
    pub file: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// Stable rule id (a rule, an analyzer or a gate row).
    pub rule: &'static str,
    /// What was found.
    pub message: String,
    /// How to fix it.
    pub suggestion: String,
    /// True when an `xtask-allow` waiver covers the finding.
    pub waived: bool,
}

/// Rule id for the node-loop `RunGuard` coverage requirement.
pub const GUARD_COVERAGE: &str = "guard_coverage";
/// Rule id for exhaustive `Display` impls on `*Error` enums.
pub const DISPLAY_MATCH: &str = "display_match";
/// Rule id for waiver comments that no longer suppress anything.
pub const STALE_WAIVER: &str = "stale_waiver";

/// Runs every applicable rule over one file. `guard_scope` enables the
/// guard-coverage rule (it applies to `crates/core` and `crates/serve`,
/// where ungoverned loops could run unbounded work).
pub fn check_file(fm: &FileModel, guard_scope: bool) -> Vec<Finding> {
    let mut out = Vec::new();
    if guard_scope {
        guard_coverage(fm, &mut out);
    }
    display_match(fm, &mut out);
    out.sort_by_key(|x| (x.line, x.rule));
    out
}

impl Finding {
    /// A finding of `rule` at 1-based `line` of `f`, waived when an
    /// `xtask-allow` comment there names the rule.
    pub fn new(
        f: &SourceFile,
        rule: &'static str,
        line: usize,
        message: String,
        suggestion: &str,
    ) -> Finding {
        Finding {
            file: f.path.clone(),
            line,
            rule,
            message,
            suggestion: suggestion.to_string(),
            waived: f.is_waived(rule, line),
        }
    }
}

/// Records a finding unless `line` is `#[cfg(test)]` code.
pub fn push(
    f: &SourceFile,
    out: &mut Vec<Finding>,
    rule: &'static str,
    line: usize,
    message: String,
    suggestion: &str,
) {
    if !f.is_test_line(line) {
        out.push(Finding::new(f, rule, line, message, suggestion));
    }
}

/// `guard_coverage`: every `pub fn` in `crates/core` or `crates/serve`
/// whose body loops over graph nodes, pumps a request loop or fans work
/// out across threads must thread a `RunGuard` (or delegate to a
/// `_guarded` variant), so new algorithms and new serving paths cannot
/// bypass the execution governor. Parallel entry points are held to the
/// same bar as serial loops: a fan-out without a shared guard cannot be
/// cancelled mid-batch. So is any fn, private ones included, that loops
/// over the cells of a kept `Neighbor(V_i)` base or over a memoised pin's
/// settle stream, or calls `copy_cells(`, the one loop that copies a pin,
/// a cell or a memoised patch into a dimension: a copy or a cell repair
/// fills a dimension like a sweep does, without a settle loop to consult
/// the guard for it.
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
    const PAR_MARKS: [&str; 2] = ["thread::scope", ".spawn("];
    // `Base::cells()` / `Base::cell(x)` and a `memoised` pin's settle
    // stream in `crates/core/src/neighbor.rs`, looped over; and the copy
    // loop itself, which holds no guard: its callers consult one per call.
    const FILL_MARKS: [&str; 3] = [".cells()", ".cell(", "memoised"];
    const FILL_CALLS: [&str; 1] = ["copy_cells("];
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
        let body = ast.span_text(open, close);
        let fills = looping(&FILL_MARKS) || FILL_CALLS.iter().any(|m| body.contains(m));
        let loops = f.is_pub && looping(&LOOP_MARKS);
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

/// `display_match`: every variant of a `pub enum *Error` must be matched in
/// a `Display` impl in the same file (no stringly-typed error gaps). A new
/// error enum with no `Display` impl at all passes every compiler lint,
/// which is why this rule is not `clippy::wildcard_enum_match_arm`.
fn display_match(fm: &FileModel, out: &mut Vec<Finding>) {
    const SUGGESTION: &str = "add a match arm for the variant to the enum's `Display` impl";
    let (f, ast) = (&fm.source, &fm.ast);
    for e in &ast.enums {
        if !e.is_pub || !e.name.ends_with("Error") {
            continue;
        }
        // The impl body: the first block after `Display for Name`.
        let body = f
            .masked
            .find(&format!("Display for {}", e.name))
            .and_then(|at| {
                let open = (0..ast.toks.len())
                    .find(|&i| ast.toks[i].start > at && ast.toks[i].kind == TokKind::Open('{'))?;
                Some(ast.span_text(open, ast.partner[open]?))
            });
        let Some(body) = body else {
            let message = format!("`{}` has no `Display` impl in this file", e.name);
            push(
                f,
                out,
                DISPLAY_MATCH,
                e.line,
                message,
                "implement `std::fmt::Display` with one arm per variant",
            );
            continue;
        };
        for (line, variant) in &e.variants {
            if !body.contains(&format!("{}::{variant}", e.name))
                && !body.contains(&format!("Self::{variant}"))
            {
                let message = format!(
                    "variant `{}::{variant}` is not matched in `Display`",
                    e.name
                );
                push(f, out, DISPLAY_MATCH, *line, message, SUGGESTION);
            }
        }
    }
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
        let src = "#[cfg(test)]\nmod tests {\n    pub fn scan(g: &Graph) {\n        for u in g.nodes() {}\n    }\n}\n";
        assert!(findings(src, true).is_empty());
    }

    #[test]
    fn waiver_suppresses_but_is_reported() {
        let src = "// xtask-allow: display_match — audited\npub enum GapError {\n    Oops,\n}\n";
        let all = findings(src, false);
        assert_eq!(all.len(), 1);
        assert!(all[0].waived);
    }

    /// `(seeded violation, what its one finding says)`, checked in the
    /// guard scope (`crates/core`, `crates/serve`); every guard_coverage
    /// case is clean outside it.
    #[rustfmt::skip]
    const SEEDED: [(&str, &str); 11] = [
        ("pub fn scan(g: &Graph) -> usize {\n    let mut c = 0;\n    for u in g.nodes() {\n        c += u.index();\n    }\n    c\n}\n",
            "loops over graph nodes"),
        ("pub fn sweep(g: &Graph) -> u64 {\n    let h = std::thread::Builder::new().spawn(move || work(g));\n    h.join()\n}\n",
            "fans work out"),
        ("pub fn sweep(g: &Graph) {\n    std::thread::scope(|s| {\n        s.spawn(|| work(g));\n    });\n}\n", "fans work out"),
        // A fill is governed even when private.
        ("fn write_back(&mut self, base: &Base, xs: &[NodeId]) {\n    for &x in xs {\n        for &r in base.cell(x) {\n            self.copy_in(r);\n        }\n    }\n}\n",
            "fills a neighbor-table dimension"),
        ("fn repair(&mut self, base: &Base) {\n    for cell in base.cells() {\n        self.copy(cell);\n    }\n}\n", "fn repair"),
        ("fn copy_pin(&mut self, memoised: &[Reached], i: usize) {\n    self.retract(i);\n    for &r in memoised {\n        self.copy_in(i, r);\n    }\n}\n",
            "fn copy_pin"),
        ("fn copy_patch(&mut self, base: &Base, x: &[NodeId], i: usize) {\n    if let Some(patch) = base.patches.get(x) {\n        self.copy_cells(i, patch);\n    }\n}\n",
            "fn copy_patch"),
        ("pub fn serve(listener: &TcpListener) {\n    while running() {\n        let (s, _) = listener.accept().unwrap_or_continue();\n        handle(s);\n    }\n}\n",
            "fn serve"),
        ("pub fn pump(stream: &mut TcpStream) {\n    while let Ok(frame) = read_frame(stream) {\n        dispatch(frame);\n    }\n}\n", "fn pump"),
        ("pub enum DemoError {\n    Lost,\n    Found,\n}\nimpl std::fmt::Display for DemoError {\n    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {\n        match self {\n            DemoError::Lost => write!(f, \"lost\"),\n        }\n    }\n}\n",
            "variant `DemoError::Found` is not matched"),
        ("pub enum GapError {\n    Oops,\n}\n", "no `Display` impl"),
    ];

    /// Inputs every rule passes, in the guard scope.
    #[rustfmt::skip]
    const CLEAN: [&str; 13] = [
        "pub fn scan(g: &Graph, guard: &RunGuard) -> usize {\n    let mut c = 0;\n    for u in g.nodes() {\n        guard.note_settled(1);\n        c += u.index();\n    }\n    c\n}\n",
        // A delegating wrapper.
        "pub fn scan(g: &Graph) -> usize {\n    for u in g.nodes() {\n        let _ = u;\n    }\n    scan_guarded(g, &RunGuard::noop())\n}\n",
        "pub fn sweep_guarded(g: &Graph, guard: &RunGuard) {\n    std::thread::scope(|s| {\n        s.spawn(|| work(g, guard));\n    });\n}\n",
        "pub fn sweep(g: &Graph, cancel: RunGuard) -> u64 {\n    let h = std::thread::Builder::new().spawn(move || work(g, &cancel));\n    h.join()\n}\n",
        "fn repair(&mut self, base: &Base, guard: &RunGuard) -> Result<(), InterruptReason> {\n    for cell in base.cells() {\n        guard.check()?;\n        self.copy(cell);\n    }\n    Ok(())\n}\n",
        // Looking one cell up outside a loop is not a fill.
        "fn owns(base: &Base, x: NodeId) -> usize {\n    base.cell(x).len()\n}\n",
        "fn copy_pin(&mut self, memoised: &[Reached], i: usize, guard: &RunGuard) -> Result<(), InterruptReason> {\n    self.retract(i);\n    guard.check()?;\n    for &r in memoised {\n        self.copy_in(i, r);\n    }\n    Ok(())\n}\n",
        // The copy loop itself is not a caller: its callers hold the guard.
        "fn copy_cells(&mut self, i: usize, cells: &[Reached]) {\n    for r in cells {\n        self.write(i, r);\n    }\n}\n",
        "pub fn sum(xs: &[u64]) -> u64 {\n    let mut t = 0;\n    for x in xs {\n        t += x;\n    }\n    t\n}\n",
        "pub fn serve(listener: &TcpListener, guard_cancel: &AtomicBool) {\n    while !guard_cancel.load(Ordering::Relaxed) {\n        let _ = listener.accept();\n    }\n}\n",
        "pub enum DemoError {\n    Lost,\n    Found { name: String },\n}\nimpl std::fmt::Display for DemoError {\n    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {\n        match self {\n            DemoError::Lost => write!(f, \"lost\"),\n            DemoError::Found { name } => write!(f, \"found {name}\"),\n        }\n    }\n}\n",
        "pub(crate) enum GapError {\n    Oops,\n}\n",
        "pub enum Direction {\n    Forward,\n    Reverse,\n}\n",
    ];

    #[test]
    fn every_seeded_violation_fails() {
        for (src, says) in SEEDED {
            let out = live(src, true);
            assert!(
                out.len() == 1 && out[0].message.contains(says),
                "{src}: {out:?}"
            );
            let rule = if src.contains("enum") {
                DISPLAY_MATCH
            } else {
                GUARD_COVERAGE
            };
            assert_eq!(out[0].rule, rule);
            assert_eq!(live(src, false).is_empty(), rule == GUARD_COVERAGE);
        }
    }

    #[test]
    fn every_clean_input_passes() {
        for src in CLEAN {
            assert!(live(src, true).is_empty(), "{src}");
        }
    }
}
