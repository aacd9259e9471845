//! `unbounded_alloc`: collection growth inside a guarded function's loops
//! must charge the `RunGuard` byte budget.
//!
//! A function that threads a `RunGuard` has opted into governed execution;
//! a loop inside it that grows a `Vec`/`HashMap`/`String` without calling
//! one of the guard's budget hooks (`check_bytes`, `note_settled`,
//! `note_candidate`, `check`) can still allocate without bound — exactly
//! the hole the governor exists to close. Charges compose both ways: an
//! inner loop that charges covers its growth even when the outer loop
//! does not, and a per-iteration charge in an outer loop bounds its inner
//! loops too (the Dijkstra settle/relax pattern).

use super::{FileModel, UNBOUNDED_ALLOC};
use crate::rules::push;
use std::path::Path;

/// Growth calls that extend a collection.
const GROWTH: [&str; 8] = [
    ".push(",
    ".insert(",
    ".extend(",
    ".extend_from_slice(",
    ".push_back(",
    ".push_str(",
    ".append(",
    ".resize(",
];

/// Budget hooks: any of these inside the loop counts as a charge.
/// A loop that mentions the guard at all (charging directly, or passing it
/// into a `*_guarded` callee that charges per unit of work) is governed —
/// its growth is interruptible, which is what the budget regime requires.
const CHARGE: [&str; 5] = [
    "check_bytes(",
    ".check(",
    "note_settled(",
    "note_candidate(",
    "charge(",
];

/// The rule applies where the guard regime applies: `crates/core` and
/// `crates/serve` library sources, plus the graph crate's persistence
/// modules (`container.rs`, `storage.rs`), whose guarded load paths
/// decode keyword maps and mapped sections under a byte budget.
pub fn in_scope(path: &Path) -> bool {
    let in_crates = path.components().any(|c| c.as_os_str() == "crates");
    let governed = path
        .components()
        .any(|c| c.as_os_str() == "core" || c.as_os_str() == "serve");
    let graph_persistence = path.components().any(|c| c.as_os_str() == "graph")
        && path
            .file_name()
            .is_some_and(|f| f == "container.rs" || f == "storage.rs");
    in_crates && (governed || graph_persistence)
}

/// Checks one file.
pub fn check(fm: &FileModel, out: &mut Vec<crate::rules::Finding>) {
    let ast = &fm.ast;
    for f in &ast.fns {
        let Some((open, close)) = f.body else {
            continue;
        };
        // Only functions that thread a guard are in scope; unguarded
        // loops are guard_coverage's domain.
        let guarded = f
            .params
            .iter()
            .any(|(n, t)| t.contains("RunGuard") || n.to_lowercase().contains("guard"));
        if !guarded {
            continue;
        }
        // A loop is covered when it — or any loop enclosing it — charges
        // the guard: a per-iteration charge in the outer loop bounds the
        // inner loop's growth too (the Dijkstra settle/relax pattern).
        let loops = ast.loops_in(open + 1, close);
        let charged: Vec<bool> = loops
            .iter()
            .map(|&(lo, hi)| {
                let text = ast.span_text(lo, hi);
                let governed = (lo..=hi).any(|i| {
                    ast.ident(i)
                        .is_some_and(|id| id.to_ascii_lowercase().contains("guard"))
                });
                governed || CHARGE.iter().any(|c| text.contains(c))
            })
            .collect();
        // Innermost loops first: a covered inner loop claims its growth
        // sites so the outer loop is not blamed for them.
        let mut order: Vec<usize> = (0..loops.len()).collect();
        order.sort_by_key(|&i| loops[i].1 - loops[i].0);
        let mut claimed: Vec<(usize, usize)> = Vec::new();
        for li in order {
            let (lo, hi) = loops[li];
            let text = ast.span_text(lo, hi);
            let covered = loops
                .iter()
                .zip(&charged)
                .any(|(&(lo2, hi2), &ch)| ch && lo2 <= lo && hi2 >= hi);
            let mut uncharged_growth = None;
            for needle in GROWTH {
                let mut from = 0;
                while let Some(rel) = text[from..].find(needle) {
                    let pos = from + rel;
                    from = pos + needle.len();
                    let abs = ast.toks[lo].start + pos;
                    if claimed.iter().any(|&(a, b)| abs >= a && abs < b) {
                        continue;
                    }
                    if !covered {
                        uncharged_growth.get_or_insert((abs, needle));
                    }
                }
            }
            let span = (ast.toks[lo].start, ast.toks[hi].end);
            claimed.push(span);
            if let Some((abs, needle)) = uncharged_growth {
                let line = fm.source.line_of(abs);
                let call = needle.trim_start_matches('.').trim_end_matches('(');
                push(
                    &fm.source,
                    out,
                    UNBOUNDED_ALLOC,
                    line,
                    format!(
                        "`{call}` grows a collection inside a guarded loop without \
                         charging the RunGuard budget"
                    ),
                    "call `guard.check_bytes(..)` / `note_settled` in the loop, or waive \
                     with the bound that makes the growth finite",
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Finding;
    use std::path::PathBuf;

    fn live(src: &str) -> Vec<Finding> {
        let fm = FileModel::parse(PathBuf::from("crates/core/src/x.rs"), src.to_string());
        let mut out = Vec::new();
        check(&fm, &mut out);
        out.into_iter().filter(|f| !f.waived).collect()
    }

    #[test]
    fn scope_covers_core_and_serve_sources() {
        assert!(in_scope(Path::new("crates/core/src/comm_k.rs")));
        assert!(in_scope(Path::new("crates/serve/src/server.rs")));
        assert!(!in_scope(Path::new("crates/graph/src/csr.rs")));
        assert!(!in_scope(Path::new("xtask/src/main.rs")));
    }

    #[test]
    fn scope_covers_the_graph_persistence_modules() {
        assert!(in_scope(Path::new("crates/graph/src/container.rs")));
        assert!(in_scope(Path::new("crates/graph/src/storage.rs")));
        assert!(!in_scope(Path::new("crates/graph/src/dijkstra.rs")));
        assert!(!in_scope(Path::new("crates/rdb/src/container.rs")));
    }

    #[test]
    fn seeded_uncharged_growth_fails() {
        let src = "\
pub fn collect(g: &Graph, guard: &RunGuard) -> Vec<u64> {
    let mut out = Vec::new();
    for u in g.nodes() {
        out.push(u.weight());
    }
    out
}
";
        let out = live(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, UNBOUNDED_ALLOC);
    }

    #[test]
    fn charged_growth_passes() {
        let src = "\
pub fn collect(g: &Graph, guard: &RunGuard) -> Result<Vec<u64>, QueryError> {
    let mut out = Vec::new();
    for u in g.nodes() {
        guard.check_bytes(out.len() * 8)?;
        out.push(u.weight());
    }
    Ok(out)
}
";
        assert!(live(src).is_empty());
    }

    #[test]
    fn guarded_callee_in_loop_counts_as_charge() {
        let src = "\
pub fn assemble(g: &Graph, cores: &[Core], guard: &RunGuard) -> Result<Vec<Community>, QueryError> {
    let mut out = Vec::new();
    for core in cores {
        out.push(get_community_guarded(g, core, guard)?);
    }
    Ok(out)
}
";
        assert!(live(src).is_empty());
    }

    #[test]
    fn unguarded_fn_is_out_of_scope() {
        let src = "\
fn helper(xs: &[u64]) -> Vec<u64> {
    let mut out = Vec::new();
    for x in xs {
        out.push(*x);
    }
    out
}
";
        assert!(live(src).is_empty());
    }

    #[test]
    fn charging_inner_loop_covers_outer() {
        let src = "\
pub fn nest(g: &Graph, guard: &RunGuard) -> Result<Vec<u64>, QueryError> {
    let mut out = Vec::new();
    for u in g.nodes() {
        for v in g.neighbors(u) {
            guard.note_settled(1)?;
            out.push(v.weight());
        }
    }
    Ok(out)
}
";
        assert!(live(src).is_empty());
    }

    #[test]
    fn charging_outer_loop_covers_inner() {
        // The Dijkstra shape: the settle charge is per outer iteration,
        // which bounds the relax pushes in the inner neighbor loop.
        let src = "\
pub fn sssp(g: &Graph, guard: &RunGuard) -> Result<Vec<u64>, QueryError> {
    let mut heap = BinaryHeap::new();
    while let Some(u) = heap.pop() {
        guard.note_settled(1)?;
        for v in g.neighbors(u) {
            heap.push(v);
        }
    }
    Ok(Vec::new())
}
";
        assert!(live(src).is_empty());
    }

    #[test]
    fn growth_without_loop_passes() {
        let src = "\
pub fn one(guard: &RunGuard) -> Vec<u64> {
    let mut out = Vec::new();
    out.push(1);
    out
}
";
        assert!(live(src).is_empty());
    }

    #[test]
    fn waiver_suppresses() {
        let src = "\
pub fn collect(g: &Graph, guard: &RunGuard) -> Vec<u64> {
    let mut out = Vec::new();
    for u in g.nodes() {
        // xtask-allow: unbounded_alloc — bounded by the 255-keyword cap
        out.push(u.weight());
    }
    out
}
";
        assert!(live(src).is_empty());
    }
}
