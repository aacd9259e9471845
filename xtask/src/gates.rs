//! The gate rows: structural rules over the source text, one table row
//! each.
//!
//! A row names its needles (alternatives, see [`occurs`]), the files it
//! reads (`roots`: every file below a directory), which text of those
//! files it reads ([`Text`]: raw text, comments included, unless it says
//! otherwise) and where a match may or must be ([`Place`]). Row findings
//! share the rules' waiver syntax and the stale-waiver audit.

use crate::rules::Finding;
use crate::scan::SourceFile;
use std::path::{Path, PathBuf};
use Place::*;
use Text::*;

const CODE: &[&str] = &["crates", "src", "examples", "tests"];

/// The five library crates' sources, which the lint rules and the
/// analyzers read too (the same five whose roots deny clippy's panic-family
/// lints; the cli and bench binaries may panic at the top level).
#[rustfmt::skip]
pub const LIBRARIES: [&str; 5] =
    ["crates/graph/src", "crates/core/src", "crates/rdb/src", "crates/datasets/src", "crates/serve/src"];
#[rustfmt::skip]
const ENUMERATORS: &[&str] =
    &["crates/core/src/shell.rs", "crates/core/src/comm_k.rs", "crates/core/src/comm_all.rs", "crates/core/src/lawler.rs"];

/// Which text of a file a row reads.
enum Text {
    /// Every line as written, except lines that start (after indentation)
    /// with one of these prefixes.
    Raw(&'static [&'static str]),
    /// Raw lines above the first column-0 `#[cfg(test)]`.
    AboveTests,
    /// Code only: comment and string interiors blanked, `#[cfg(test)]`
    /// items skipped, as the lint rules read it.
    Code,
}

/// Where a row's matches may or must be.
enum Place {
    /// Nowhere but in these files or below these directories.
    Only(&'static [&'static str]),
    /// In exactly these files, each of them.
    Exactly(&'static [&'static str]),
    /// On exactly this many lines of each root (a file).
    Lines(usize),
    /// Only inside this fn of this file.
    InFn(&'static str, &'static str),
}

/// One gate: `needles` below `roots`, read as `text`, kept to `place`.
pub struct Row {
    /// The rule id findings and waivers carry.
    pub name: &'static str,
    needles: &'static [&'static str],
    /// The files and directories the row reads.
    pub roots: &'static [&'static str],
    text: Text,
    place: Place,
    /// Why the gate exists and what to do instead.
    reason: &'static str,
}

/// The gates, in the order `cargo xtask check` reports them.
#[rustfmt::skip]
pub const ROWS: [Row; 16] = [
    Row { name: "benchmark_shims", roots: CODE, text: Raw(&[]),
        needles: &["EnginePool::global()", "Parallelism", "build_par_guarded", "recompute_all_guarded"],
        place: Only(&["crates/graph/src/pool.rs", "crates/graph/src/lib.rs", "crates/core/src/projection.rs",
                      "crates/core/src/neighbor.rs"]),
        reason: "these survive only for the frozen benchmark/: use an engine-owned or local EnginePool, \
                 ProjectionIndex::build_guarded, or NeighborSets::recompute_dim_guarded per dimension" },
    Row { name: "env_cache_dir", needles: &["cache_dir()"], roots: CODE, text: Raw(&[]),
        place: Only(&["crates/cli/src/main.rs", "crates/bench/src/bin/repro.rs", "crates/datasets/src/cache.rs"]),
        reason: "configuration travels as a value: take the cache directory as an Option<&Path>" },
    Row { name: "env_var", needles: &["env::var"], roots: CODE, text: Raw(&[]),
        place: Only(&["crates/datasets/src/cache.rs"]),
        reason: "read the environment in fn main, through comm_datasets::cache" },
    Row { name: "heap_projection", needles: &["BinaryHeap"],
        roots: &["crates/core/src/projection.rs", "crates/core/src/projection"], text: Raw(&[]), place: Only(&[]),
        reason: "the projection sweeps on DijkstraEngine" },
    Row { name: "heap_files", needles: &["BinaryHeap"], roots: &["crates", "src"], text: Raw(&[]),
        place: Exactly(&["crates/core/src/comm_k.rs", "crates/core/src/trees.rs", "crates/core/src/verify.rs",
                         "crates/graph/src/dijkstra.rs"]),
        reason: "no new file may start keeping a priority queue: sweep on DijkstraEngine" },
    Row { name: "kernel_names", needles: &["Kernel", "with_kernel", "BucketQueue", "BucketPlan"], roots: CODE,
        text: Raw(&[]), place: Only(&[]),
        reason: "DijkstraEngine has one queue and no knob: sweep on DijkstraEngine::new" },
    Row { name: "oracle_independent", needles: &["DijkstraEngine", "run_rows_guarded", "admit"],
        roots: &["crates/core/src/verify.rs"], text: Raw(&["///", "//!"]), place: Only(&[]),
        reason: "comm_core::verify certifies the engine: its docs may name it, its code may not call it or prune like it" },
    Row { name: "one_settle_loop", needles: &["fn sweep<", "fn sweep("], roots: &["crates/graph/src/dijkstra.rs"],
        text: Raw(&[]), place: Lines(1),
        reason: "DijkstraEngine keeps one settle loop for the admission predicate to live in" },
    Row { name: "one_fill", needles: &["run_guarded(", "run_rows"], roots: ENUMERATORS, text: Raw(&[]),
        place: Only(&[]),
        reason: "fill a dimension through NeighborSets (recompute_dim_guarded / refill_guarded)" },
    Row { name: "repin_from_scratch", needles: &["recompute_dim_guarded("], roots: ENUMERATORS, text: Raw(&["//"]),
        place: InFn("crates/core/src/shell.rs", "repin_dim"),
        reason: "pin through Shell::pin_dim (NeighborSets::pin_guarded); only the Lawler ablation sweeps from scratch" },
    Row { name: "one_keyword_sweep", needles: &["run_guarded("], roots: &["crates/core/src/projection.rs"],
        text: Raw(&[]), place: Lines(1),
        reason: "a keyword is swept in one place, KeywordRun::sweep" },
    Row { name: "exact_weight", needles: &["f64::EPSILON", "total_cmp", "fn slack", "\\bulp\\b", "\\bulps\\b"],
        roots: &["crates/graph/src", "crates/core/src"], text: AboveTests, place: Only(&[]),
        reason: "weights are fixed-point: compare them exactly" },
    Row { name: "unsafe_confined", needles: &["allow(unsafe_code", "expect(unsafe_code"], roots: CODE, text: Code,
        place: Only(&["crates/graph/src/storage.rs", "crates/cli/src/main.rs"]),
        reason: "the other crate roots forbid or deny unsafe_code: express the operation safely, or move it into \
                 crates/graph/src/storage.rs with a SAFETY comment" },
    Row { name: "narrowing_cast", roots: &LIBRARIES, text: Code, place: Only(&[]),
        needles: &[" as u8\\b", " as u16\\b", " as u32\\b", " as i8\\b", " as i16\\b", " as i32\\b", "64\\w* as usize\\b"],
        reason: "use the checked conversions in graph::weight (index_to_u32 / try_index_to_u32) or T::try_from(..)" },
    Row { name: "roadmap_refs", needles: &["ROADMAP item", "ROADMAP \\d", "\\bitem \\d"],
        roots: &["crates", "src", "examples", "tests", "DESIGN.md"], text: Raw(&[]), place: Only(&[]),
        reason: "re-anchors renumber ROADMAP items: cite a DESIGN.md section, a test name or the frozen benchmark/" },
    Row { name: "workflow_runs_lanes", needles: &["grep", "awk"], roots: &[".github/workflows/ci.yml"],
        text: Raw(&[]), place: Only(&[]),
        reason: "a source check lives in ci.sh or cargo xtask check; a job runs ./ci.sh LANE" },
];

/// Runs every row over `files` (paths repo-relative).
pub fn check(files: &[&SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for row in &ROWS {
        row.check(files, &mut out);
    }
    out
}

fn under(path: &Path, roots: &[&str]) -> bool {
    roots.iter().any(|r| path.starts_with(r))
}

impl Row {
    fn check(&self, files: &[&SourceFile], out: &mut Vec<Finding>) {
        // Where a match may be, inside which fn, and how many matching
        // lines each of those files must hold.
        let (allowed, in_fn, wanted) = match &self.place {
            Only(list) => (*list, None, None),
            Exactly(list) => (*list, None, Some((1, usize::MAX))),
            Lines(n) => (self.roots, None, Some((*n, *n))),
            InFn(file, name) => (std::slice::from_ref(file), Some(*name), None),
        };
        for &f in files.iter().filter(|f| under(&f.path, self.roots)) {
            for (line, needle) in self.hits(f) {
                if !under(&f.path, allowed)
                    || in_fn.is_some_and(|n| enclosing_fn(&f.text, line) != Some(n))
                {
                    let message = format!("`{needle}` may not appear here");
                    out.push(Finding::new(f, self.name, line, message, self.reason));
                }
            }
        }
        let Some((min, max)) = wanted else { return };
        for file in allowed {
            let found = files
                .iter()
                .find(|f| f.path == Path::new(file))
                .map_or(0, |f| self.hits(f).len());
            if found < min || found > max {
                let want = if min == max {
                    format!("{min}")
                } else {
                    format!("{min} or more")
                };
                out.push(Finding {
                    file: PathBuf::from(file),
                    line: 1,
                    rule: self.name,
                    message: format!(
                        "{found} lines hold `{}`, not {want}",
                        self.needles.join("` or `")
                    ),
                    suggestion: self.reason.to_string(),
                    waived: false,
                });
            }
        }
    }

    /// `(line, needle)` for every line of `f` the row reads that holds a
    /// needle.
    fn hits(&self, f: &SourceFile) -> Vec<(usize, &'static str)> {
        let text = if matches!(self.text, Code) {
            &f.masked
        } else {
            &f.text
        };
        let mut out = Vec::new();
        for (i, line) in text.lines().enumerate() {
            match self.text {
                Raw(skip) if skip.iter().any(|p| line.trim_start().starts_with(p)) => continue,
                AboveTests if line.starts_with("#[cfg(test)]") => break,
                Code if f.is_test_line(i + 1) => continue,
                _ => {}
            }
            if let Some(needle) = self.needles.iter().find(|n| occurs(line, n)) {
                out.push((i + 1, *needle));
            }
        }
        out
    }
}

/// The fn line `line` belongs to: the name in the last `fn`, `pub fn` or
/// `pub(crate) fn` header at or above it.
fn enclosing_fn(text: &str, line: usize) -> Option<&str> {
    fn header(l: &str) -> Option<&str> {
        let l = l.trim_start();
        let l = l
            .strip_prefix("pub(crate) ")
            .or_else(|| l.strip_prefix("pub "))
            .unwrap_or(l);
        l.strip_prefix("fn ")?
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .next()
    }
    text.lines().take(line).filter_map(header).last()
}

/// Whether `pat` occurs in `line`. A pattern is literal text, except that
/// `\b` matches a word boundary, `\d` one ASCII digit and `\w*` a run of
/// identifier characters (ASCII letters, digits and `_`): `\bulp\b` is
/// the word `ulp`, `item \d` an item number, and `64\w* as usize` an
/// identifier holding `64` cast to `usize`.
fn occurs(line: &str, pat: &str) -> bool {
    (0..=line.len()).any(|i| matches_at(line.as_bytes(), i, pat.as_bytes()))
}

fn matches_at(h: &[u8], i: usize, p: &[u8]) -> bool {
    let word = |k: usize| {
        h.get(k)
            .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
    };
    match p {
        [] => true,
        [b'\\', b'b', rest @ ..] => (i > 0 && word(i - 1)) != word(i) && matches_at(h, i, rest),
        [b'\\', b'd', rest @ ..] => h.get(i).is_some_and(u8::is_ascii_digit) && matches_at(h, i + 1, rest),
        [b'\\', b'w', b'*', rest @ ..] => (i..=h.len())
            .take_while(|&j| j == i || word(j - 1))
            .any(|j| matches_at(h, j, rest)),
        [c, rest @ ..] => h.get(i) == Some(c) && matches_at(h, i + 1, rest),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// `(row, path, seeded violation, clean input)`: appended at `path` to
    /// the tree [`fired`] builds, the first must fail the row and the
    /// second must pass every row.
    #[rustfmt::skip]
    const SAMPLES: [(&str, &str, &str, &str); 16] = [
        ("benchmark_shims", "crates/serve/src/engine.rs",
            "let index = ProjectionIndex::build_par_guarded(g, ks, r, guard, pool, Parallelism::serial())?;\n",
            "let index = ProjectionIndex::build_guarded(g, ks, r, guard, &EnginePool::new())?;\n"),
        ("env_cache_dir", "crates/core/src/lib.rs", "let dir = cache_dir();\n", "let dir: Option<&Path> = None;\n"),
        ("env_var", "tests/guard.rs", "let v = std::env::var(\"X\");\n", "let v = std::env::args();\n"),
        ("heap_projection", "crates/core/src/projection/cpix.rs",
            "use std::collections::BinaryHeap;\n", "use std::collections::BTreeMap;\n"),
        ("heap_files", "crates/core/src/get_community.rs",
            "use std::collections::BinaryHeap;\n", "use std::collections::HashMap;\n"),
        ("kernel_names", "examples/sweep.rs",
            "let e = DijkstraEngine::new(n).with_kernel(k);\n", "// the sweep kernel is a binary heap\n"),
        ("oracle_independent", "crates/core/src/verify.rs",
            "let admit = |_, _| true;\n", "/// Shares no code with `DijkstraEngine`.\n"),
        ("one_settle_loop", "crates/graph/src/dijkstra.rs", "fn sweep(&mut self) {}\n", "fn sweep_rows(&mut self) {}\n"),
        ("one_fill", "crates/core/src/lawler.rs",
            "engine.run_rows_guarded(rows, seeds, r, guard, admit, visit)?;\n", "sets.refill_guarded(i, base, guard)?;\n"),
        ("repin_from_scratch", "crates/core/src/shell.rs",
            "fn pin_dim(&mut self) {\n    self.sets.recompute_dim_guarded(i, g)?;\n}\n",
            "pub fn repin_dim(&mut self) {\n    self.sets.recompute_dim_guarded(i, g)?;\n}\n"),
        ("one_keyword_sweep", "crates/core/src/projection.rs",
            "engine.run_guarded(g, seeds, r, guard)?;\n", "engine.run_rows_guarded(rows, seeds, r, guard, admit, visit)?;\n"),
        ("exact_weight", "crates/graph/src/weight.rs", "let close = (a - b).abs() < 4.0 * f64::EPSILON;\n",
            "let ulpy = 1;\n#[cfg(test)]\nmod tests {\n    // within one ulp\n}\n"),
        ("unsafe_confined", "crates/graph/src/csr.rs",
            "#[allow(unsafe_code)]\nfn raw() {}\n", "// storage.rs opts back in with `#![allow(unsafe_code)]`\n"),
        ("narrowing_cast", "crates/core/src/shell.rs",
            "let i = n as u32;\n",
            "let i = n as u64;\nlet s = \"n as u32\";\nlet j = n as usize;\n#[cfg(test)]\nmod t {\n    const I: u32 = N as u32;\n}\n"),
        ("roadmap_refs", "DESIGN.md",
            "Persisting runs is ROADMAP item 3(ii).\n", "Persisting runs: see \"Keyword runs\" and the ROADMAP.\n"),
        ("workflow_runs_lanes", ".github/workflows/ci.yml",
            "      - run: grep -rn BinaryHeap crates\n", "      - run: ./ci.sh gates\n"),
    ];

    /// The unwaived rule ids the rows report over the smallest tree every
    /// row passes (each listed file holds its needle, each counted file its
    /// count), with `text` appended at `path`.
    fn fired(path: &str, text: &str) -> Vec<&'static str> {
        let mut files: BTreeMap<&str, String> = BTreeMap::new();
        for row in &ROWS {
            let (paths, n) = match row.place {
                Exactly(list) => (list, 1),
                Lines(n) => (row.roots, n),
                _ => continue,
            };
            for p in paths {
                let lines = format!("{}\n", row.needles[0]).repeat(n);
                files.entry(p).or_default().push_str(&lines);
            }
        }
        files.entry(path).or_default().push_str(text);
        let files: Vec<SourceFile> = files
            .into_iter()
            .map(|(p, t)| SourceFile::from_text(p.into(), t))
            .collect();
        let findings = check(&files.iter().collect::<Vec<_>>());
        findings
            .into_iter()
            .filter(|f| !f.waived)
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn every_row_has_one_sample() {
        let samples: Vec<&str> = SAMPLES.iter().map(|s| s.0).collect();
        assert_eq!(samples, ROWS.map(|r| r.name));
    }

    #[test]
    fn every_row_fails_its_seeded_violation() {
        for (row, path, seeded, _) in SAMPLES {
            assert!(
                fired(path, seeded).contains(&row),
                "{row}: {seeded:?} in {path}"
            );
        }
    }

    #[test]
    fn every_row_passes_its_clean_input() {
        assert!(fired("README.md", "").is_empty());
        for (row, path, _, clean) in SAMPLES {
            assert!(fired(path, clean).is_empty(), "{row}: {clean:?} in {path}");
        }
    }

    #[test]
    fn listed_and_counted_files_must_exist() {
        let rules = check(&[]).into_iter().map(|f| f.rule).collect::<Vec<_>>();
        assert_eq!(
            rules,
            [
                ["heap_files"; 4].as_slice(),
                &["one_settle_loop", "one_keyword_sweep"]
            ]
            .concat()
        );
    }

    #[test]
    fn a_waiver_names_a_row() {
        let waived = "// xtask-allow: narrowing_cast — discriminants fit u32\nlet i = d as u32;\n";
        assert!(fired("crates/core/src/shell.rs", waived).is_empty());
    }

    #[test]
    fn patterns_match_words_and_identifier_runs() {
        let (ulp, n64) = ("\\bulp\\b", "64\\w* as usize\\b");
        assert!(occurs("ulp", ulp) && occurs("one ulp.", ulp) && !occurs("ulps populp ulp_x", ulp));
        assert!(occurs("n64 as usize;", n64) && occurs("len_u64_total as usize", n64));
        assert!(occurs("see item 12(ii)", "\\bitem \\d") && !occurs("an item, 3 of them", "\\bitem \\d"));
        assert!(!occurs("subitem 1", "\\bitem \\d") && !occurs("item x", "item \\d"));
        assert!(!occurs("f(n64) as usize", n64) && !occurs("n64 as usize_t", n64));
    }

    #[test]
    fn the_enclosing_fn_is_the_last_header_above() {
        let text = "impl S {\n    pub(crate) fn repin_dim(&mut self) {\n        a();\n    }\n    fn pin_dim() {\n";
        assert_eq!(enclosing_fn(text, 1), None);
        assert_eq!(enclosing_fn(text, 3), Some("repin_dim"));
        assert_eq!(enclosing_fn(text, 5), Some("pin_dim"));
    }
}
