//! `cargo xtask` — repo-specific verification driver.
//!
//! Subcommands:
//!
//! * `lint [--json] [--stale-waivers] [FILES...]` — run the four repo lint
//!   rules over the library crates (`graph`, `core`, `rdb`, `datasets`,
//!   `serve`). With `--stale-waivers`, every `xtask-allow`
//!   comment that no longer suppresses a finding (of any lint *or*
//!   analyzer rule) is itself a failure, so dead waivers cannot
//!   accumulate.
//! * `analyze [--json] [FILES...]` — run the concurrency-discipline
//!   analyzers: the whole-workspace lock-order graph (`lock_order`,
//!   `lock_blocking`), `unbounded_alloc`, and `protocol_symmetry`.
//!
//! Both exit non-zero when any unwaived finding remains. Diagnostics are
//! `file:line: error[xtask::rule]: message` (or JSON lines with `--json`).
//!
//! The rules and the waiver convention are documented in DESIGN.md
//! ("Verification & static analysis" and "Concurrency discipline").

mod analyze;
mod ast;
mod rules;
mod scan;

use analyze::FileModel;
use rules::Finding;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Library crates subject to the lint and analyzer rules — the same five
/// whose roots deny clippy's panic-family lints (cli/bench binaries are
/// exempt: they may panic at the top level by design).
const LINTED_CRATES: [&str; 5] = ["graph", "core", "rdb", "datasets", "serve"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run(Mode::Lint, &args[1..]),
        Some("analyze") => run(Mode::Analyze, &args[1..]),
        Some("help") | None => {
            print_usage();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown xtask command `{other}`");
            print_usage();
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    eprintln!("usage: cargo xtask lint [--json] [--stale-waivers] [FILES...]");
    eprintln!("       cargo xtask analyze [--json] [FILES...]");
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Lint,
    Analyze,
}

fn repo_root() -> PathBuf {
    // xtask lives at <repo>/xtask; the workspace root is its parent.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn run(mode: Mode, args: &[String]) -> ExitCode {
    let mut json = false;
    let mut stale_waivers = false;
    let mut explicit: Vec<PathBuf> = Vec::new();
    for a in args {
        match a.as_str() {
            "--json" => json = true,
            "--stale-waivers" if mode == Mode::Lint => stale_waivers = true,
            other if other.starts_with("--") => {
                eprintln!("unknown flag `{other}`");
                print_usage();
                return ExitCode::FAILURE;
            }
            other => explicit.push(PathBuf::from(other)),
        }
    }

    let root = repo_root();
    let files = if explicit.is_empty() {
        let mut files = Vec::new();
        for krate in LINTED_CRATES {
            collect_rs_files(&root.join("crates").join(krate).join("src"), &mut files);
        }
        files.sort();
        files
    } else {
        explicit
    };

    let mut models: Vec<FileModel> = Vec::new();
    for path in &files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("xtask: cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let display = path
            .strip_prefix(&root)
            .map(Path::to_path_buf)
            .unwrap_or_else(|_| path.clone());
        models.push(FileModel::parse(display, text));
    }

    let findings = match mode {
        Mode::Lint => {
            let mut findings: Vec<Finding> = Vec::new();
            for fm in &models {
                findings.extend(rules::check_file(fm, guard_scope(&fm.source.path)));
            }
            if stale_waivers {
                // Credit waivers against *every* rule family, then flag the
                // uncredited ones. Analyzer findings are only used for
                // crediting here — the analyze CI job reports them.
                let mut credit = findings.clone();
                credit.extend(analyze::analyze(&models));
                findings.extend(stale_waiver_findings(&models, &credit));
            }
            findings
        }
        Mode::Analyze => analyze::analyze(&models),
    };

    let (waived, live): (Vec<&Finding>, Vec<&Finding>) = findings.iter().partition(|f| f.waived);
    let label = match mode {
        Mode::Lint => "lint",
        Mode::Analyze => "analyze",
    };

    if json {
        for f in &live {
            println!("{}", to_json(f));
        }
    } else {
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
            "xtask {label}: {} file(s), {} violation(s), {} waiver(s)",
            models.len(),
            live.len(),
            waived.len()
        );
    }

    if live.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
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
/// A line waiver is credited by a finding of its rule on its own line or
/// the line below; a file waiver by any finding of its rule in the file.
fn stale_waiver_findings(models: &[FileModel], findings: &[Finding]) -> Vec<Finding> {
    let mut out = Vec::new();
    for fm in models {
        for site in &fm.source.waiver_sites {
            let credited = findings.iter().any(|f| {
                f.file == fm.source.path
                    && f.rule == site.rule
                    && (site.file_level || f.line == site.line || f.line == site.line + 1)
            });
            if !credited {
                out.push(Finding {
                    file: fm.source.path.clone(),
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

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn to_json(f: &Finding) -> String {
    format!(
        "{{\"file\":\"{}\",\"line\":{},\"rule\":\"xtask::{}\",\"message\":\"{}\",\"suggestion\":\"{}\"}}",
        json_escape(&f.file.display().to_string()),
        f.line,
        f.rule,
        json_escape(&f.message),
        json_escape(&f.suggestion)
    )
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn repo_root_contains_workspace_manifest() {
        assert!(repo_root().join("Cargo.toml").exists());
    }

    /// End-to-end self-test: the full pipeline flags a seeded violation in
    /// a scratch file and accepts the fixed version.
    #[test]
    fn lint_pipeline_fails_on_seeded_violation() {
        let seeded = "pub fn f(n: usize) -> u32 {\n    n as u32\n}\n";
        let fm = FileModel::parse(PathBuf::from("seeded.rs"), seeded.to_string());
        let live: Vec<_> = rules::check_file(&fm, false)
            .into_iter()
            .filter(|f| !f.waived)
            .collect();
        assert_eq!(live.len(), 1);

        let fixed = "pub fn f(n: usize) -> Option<u32> {\n    u32::try_from(n).ok()\n}\n";
        let fm = FileModel::parse(PathBuf::from("fixed.rs"), fixed.to_string());
        assert!(rules::check_file(&fm, false).is_empty());
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
        let stale = "// xtask-allow: narrowing_cast — leftover\nfn ok() {}\n";
        let fm = FileModel::parse(PathBuf::from("crates/x/src/a.rs"), stale.to_string());
        let findings = rules::check_file(&fm, false);
        let models = vec![fm];
        let stale_out = stale_waiver_findings(&models, &findings);
        assert_eq!(stale_out.len(), 1);
        assert_eq!(stale_out[0].rule, rules::STALE_WAIVER);

        let used = "fn f(n: usize) -> u32 {\n    // xtask-allow: narrowing_cast — audited\n    n as u32\n}\n";
        let fm = FileModel::parse(PathBuf::from("crates/x/src/b.rs"), used.to_string());
        let findings = rules::check_file(&fm, false);
        let models = vec![fm];
        assert!(stale_waiver_findings(&models, &findings).is_empty());
    }
}
