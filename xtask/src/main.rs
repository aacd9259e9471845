//! `cargo xtask check` — the repo's source checks, run in one pass:
//!
//! * the lint rules ([`rules`]: `guard_coverage`, `display_match`) and the
//!   concurrency-discipline analyzers ([`analyze`]: `lock_order`,
//!   `lock_blocking`, `unbounded_alloc`, `protocol_symmetry`) over the
//!   five library crates;
//! * the gate rows ([`gates`]), structural rules over `crates`, `src`,
//!   `examples`, `tests` and the CI workflow;
//! * the stale-waiver audit: an `xtask-allow` comment that no longer
//!   suppresses a finding of its rule is itself a finding (`stale_waiver`).
//!
//! It exits non-zero when any unwaived finding remains. Diagnostics are
//! `file:line: error[xtask::rule]: message`, then a `help:` line.
//!
//! The rules and the waiver convention are documented in DESIGN.md
//! ("Verification & static analysis" and "Concurrency discipline").

mod analyze;
mod ast;
mod gates;
mod rules;
mod scan;

use analyze::FileModel;
use rules::Finding;
use scan::SourceFile;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

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
    let mut models: Vec<FileModel> = Vec::new();
    let mut others: Vec<SourceFile> = Vec::new();
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
        let library = gates::LIBRARIES.iter().any(|l| path.starts_with(l));
        if library && path.extension().is_some_and(|e| e == "rs") {
            models.push(FileModel::parse(path, text));
        } else {
            others.push(SourceFile::from_text(path, text));
        }
    }

    let findings = run(&models, &others);
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
        models.len() + others.len(),
        live.len(),
        waived.len()
    );
    if live.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every finding over the library files (`models`) and the other files
/// the gate rows read, the stale-waiver audit's included.
fn run(models: &[FileModel], others: &[SourceFile]) -> Vec<Finding> {
    let mut findings: Vec<Finding> = Vec::new();
    for fm in models {
        findings.extend(rules::check_file(fm, guard_scope(&fm.source.path)));
    }
    findings.extend(analyze::analyze(models));
    let sources: Vec<&SourceFile> = models.iter().map(|m| &m.source).chain(others).collect();
    findings.extend(gates::check(&sources));
    let stale = stale_waiver_findings(&sources, &findings);
    findings.extend(stale);
    findings
}

/// guard_coverage applies where ungoverned loops could run unbounded work:
/// the enumeration algorithms (core) and the daemon's request loops (serve).
fn guard_scope(display: &Path) -> bool {
    display.components().any(|c| c.as_os_str() == "crates")
        && display
            .components()
            .any(|c| c.as_os_str() == "core" || c.as_os_str() == "serve")
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
                    rule: rules::STALE_WAIVER,
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

    /// The unwaived findings in `models` (not the rows' findings about
    /// the files a one-file tree lacks).
    fn live(models: &[FileModel]) -> Vec<&'static str> {
        run(models, &[])
            .into_iter()
            .filter(|f| !f.waived && models.iter().any(|m| m.source.path == f.file))
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn repo_root_contains_workspace_manifest() {
        assert!(repo_root().join("Cargo.toml").exists());
    }

    /// End-to-end self-test: one pass reports a seeded rule violation and
    /// a seeded row violation in the same file, and accepts the fixed file.
    #[test]
    fn check_fails_on_seeded_violations() {
        let seeded =
            "pub fn scan(g: &Graph) -> u32 {\n    for u in g.nodes() {}\n    n as u32\n}\n";
        let fm = FileModel::parse(PathBuf::from("crates/core/src/x.rs"), seeded.to_string());
        assert_eq!(live(&[fm]), ["guard_coverage", "narrowing_cast"]);

        let fixed = "pub fn scan(g: &Graph, guard: &RunGuard) -> Option<u32> {\n    for u in g.nodes() {}\n    u32::try_from(n).ok()\n}\n";
        let fm = FileModel::parse(PathBuf::from("crates/core/src/x.rs"), fixed.to_string());
        assert!(live(&[fm]).is_empty());
    }

    #[test]
    fn guard_scope_selects_core_and_serve() {
        assert!(guard_scope(Path::new("crates/core/src/comm_k.rs")));
        assert!(guard_scope(Path::new("crates/serve/src/server.rs")));
        assert!(!guard_scope(Path::new("crates/graph/src/csr.rs")));
    }

    #[test]
    fn stale_waiver_flagged_and_credited() {
        // A waiver with nothing to suppress is stale; one that covers a
        // live violation is credited.
        let stale = "// xtask-allow: display_match — leftover\nfn ok() {}\n";
        let fm = FileModel::parse(PathBuf::from("crates/x/src/a.rs"), stale.to_string());
        assert_eq!(live(&[fm]), [rules::STALE_WAIVER]);

        let used = "// xtask-allow: display_match — audited\npub enum GapError {\n    Oops,\n}\n";
        let fm = FileModel::parse(PathBuf::from("crates/x/src/b.rs"), used.to_string());
        assert!(live(&[fm]).is_empty());
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
        run.extend([
            rules::GUARD_COVERAGE,
            rules::DISPLAY_MATCH,
            rules::STALE_WAIVER,
            analyze::LOCK_ORDER,
            analyze::LOCK_BLOCKING,
            analyze::UNBOUNDED_ALLOC,
            analyze::PROTOCOL_SYMMETRY,
        ]);
        assert_eq!(listed, run);
    }
}
