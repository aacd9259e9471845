//! `cargo xtask check` — the repo's source checks, run in one pass:
//!
//! * the gate rows ([`gates`]), structural rules over `crates`, `src`,
//!   `examples`, `tests` and the CI workflow (`leaf_locks` among them:
//!   every lock is a `comm_graph::sync::Leaf`, whose nesting check runs
//!   in the tests, not here);
//! * two cross-file checks beside them: every `pub enum *Error` of the
//!   five library crates implements `std::error::Error` and matches its
//!   variants in `Display` without a wildcard (`error_enums`), and every
//!   test DESIGN.md names exists (`cited_tests`);
//! * the stale-waiver audit: an `xtask-allow` comment that no longer
//!   suppresses a finding of its rule is itself a finding (`stale_waiver`).
//!
//! What the compiler, clippy or a test already checks is not here: a
//! missing `Display` arm is a compile error, the byte budget is measured
//! against the real heap (`tests/heap_budget.rs`) and every guarded loop
//! is tripped at every check (`crates/core/tests/guard.rs`).
//!
//! It exits non-zero when any unwaived finding remains. Diagnostics are
//! `file:line: error[xtask::rule]: message`, then a `help:` line.
//!
//! The checks and the waiver convention are documented in DESIGN.md
//! ("Verification & static analysis" and "Concurrency discipline").

mod gates;
mod scan;

use scan::SourceFile;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Rule id for waiver comments that no longer suppress anything.
const STALE_WAIVER: &str = "stale_waiver";

/// One finding of a check.
#[derive(Debug, Clone)]
pub struct Finding {
    /// File the finding is in.
    pub file: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// Stable rule id (a gate row or a cross-file check).
    pub rule: &'static str,
    /// What was found.
    pub message: String,
    /// How to fix it.
    pub suggestion: String,
    /// True when an `xtask-allow` waiver covers the finding.
    pub waived: bool,
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["check"] {
        return check();
    }
    eprintln!("usage: cargo xtask check");
    if args.is_empty() || args == ["help"] {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn repo_root() -> PathBuf {
    // xtask lives at <repo>/xtask; the workspace root is its parent.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn check() -> ExitCode {
    let root = repo_root();
    let mut paths = Vec::new();
    for r in gates::ROWS
        .iter()
        .flat_map(|r| r.roots)
        .chain(&gates::LIBRARIES)
    {
        collect_files(&root.join(r), &mut paths);
    }
    paths.sort();
    paths.dedup();
    let mut files: Vec<SourceFile> = Vec::new();
    for path in paths {
        let text = match std::fs::read(&path) {
            Ok(bytes) => String::from_utf8_lossy(&bytes).into_owned(),
            Err(e) => {
                eprintln!("xtask: cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let path = path
            .strip_prefix(&root)
            .map(Path::to_path_buf)
            .unwrap_or(path);
        files.push(SourceFile::from_text(path, text));
    }

    let findings = run(&files);
    let (waived, live): (Vec<&Finding>, Vec<&Finding>) = findings.iter().partition(|f| f.waived);
    for f in &live {
        println!(
            "{}:{}: error[xtask::{}]: {}\n    help: {}",
            f.file.display(),
            f.line,
            f.rule,
            f.message,
            f.suggestion
        );
    }
    eprintln!(
        "xtask check: {} file(s), {} violation(s), {} waiver(s)",
        files.len(),
        live.len(),
        waived.len()
    );
    if live.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every finding over `files`, the stale-waiver audit's included.
fn run(files: &[SourceFile]) -> Vec<Finding> {
    let sources: Vec<&SourceFile> = files.iter().collect();
    let mut findings = gates::check(&sources);
    let stale = stale_waiver_findings(&sources, &findings);
    findings.extend(stale);
    findings
}

/// Flags every waiver comment that no finding (waived or not) credits.
fn stale_waiver_findings(files: &[&SourceFile], findings: &[Finding]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        for site in &f.waiver_sites {
            let credited = findings
                .iter()
                .any(|x| x.file == f.path && site.covers(x.rule, x.line));
            if !credited {
                out.push(Finding {
                    file: f.path.clone(),
                    line: site.line,
                    rule: STALE_WAIVER,
                    message: format!("stale waiver: `{}` no longer fires here", site.rule),
                    suggestion: "delete the waiver comment (or move it next to the line \
                                 that still needs it)"
                        .to_string(),
                    waived: false,
                });
            }
        }
    }
    out
}

/// `root` itself when it is a file, else every file below it.
fn collect_files(root: &Path, out: &mut Vec<PathBuf>) {
    if root.is_file() {
        out.push(root.to_path_buf());
        return;
    }
    let Ok(entries) = std::fs::read_dir(root) else {
        return;
    };
    for entry in entries.flatten() {
        collect_files(&entry.path(), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The unwaived rule ids reported in a one-file tree at `path` (not
    /// the rows' findings about the files that tree lacks).
    fn live(path: &str, text: &str) -> Vec<&'static str> {
        let file = SourceFile::from_text(PathBuf::from(path), text.to_string());
        run(std::slice::from_ref(&file))
            .into_iter()
            .filter(|f| !f.waived && f.file == file.path)
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn repo_root_contains_workspace_manifest() {
        assert!(repo_root().join("Cargo.toml").exists());
    }

    /// End-to-end self-test: one pass reports two seeded row violations
    /// and a seeded error-enum violation in the same file, and accepts the
    /// fixed file.
    #[test]
    fn check_fails_on_seeded_violations() {
        let seeded = "pub enum ScanError {\n    Lost,\n}\npub fn scan(n: usize) -> u32 {\n    \
                      let lock = std::sync::Mutex::new(0);\n    n as u32\n}\n";
        let path = "crates/core/src/x.rs";
        assert_eq!(
            live(path, seeded),
            ["narrowing_cast", "leaf_locks", "error_enums"]
        );

        let fixed = "pub enum ScanError {\n    Lost,\n}\nimpl std::error::Error for ScanError {}\n\
                     pub fn scan(n: usize) -> Option<u32> {\n    let lock = Leaf::new(0);\n    \
                     u32::try_from(n).ok()\n}\n";
        assert!(live(path, fixed).is_empty());
    }

    #[test]
    fn stale_waiver_flagged_and_credited() {
        // A waiver with nothing to suppress is stale; one that covers a
        // live violation is credited.
        let stale = "// xtask-allow: narrowing_cast — leftover\nfn ok() {}\n";
        assert_eq!(live("crates/core/src/a.rs", stale), [STALE_WAIVER]);

        let used = "// xtask-allow: narrowing_cast — audited\nlet i = n as u32;\n";
        assert!(live("crates/core/src/b.rs", used).is_empty());
    }

    /// DESIGN.md's table of checks names exactly the rule ids and row
    /// names `check` runs.
    #[test]
    fn design_md_lists_exactly_the_checks() {
        let design = std::fs::read_to_string(repo_root().join("DESIGN.md")).unwrap();
        let listed: BTreeSet<&str> = design
            .lines()
            .filter_map(|l| l.strip_prefix("| `xtask::")?.split('`').next())
            .collect();
        let mut run: BTreeSet<&str> = gates::ROWS.iter().map(|r| r.name).collect();
        run.extend([STALE_WAIVER, gates::ERROR_ENUMS, gates::CITED_TESTS]);
        assert_eq!(listed, run);
    }
}
