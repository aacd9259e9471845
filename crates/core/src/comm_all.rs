//! `COMM-all` (Algorithm 1): polynomial-delay enumeration of *all*
//! communities, complete and duplication-free.
//!
//! The enumerator is a depth-first Lawler-style traversal over the search
//! space `V_1 × … × V_l`. The global candidate sets `S_i` (line 3 of
//! Algorithm 1) encode the DFS state implicitly: when `Next()` fails to
//! find a core in the subspace at dimension `i` it resets `S_i ← V_i`
//! (line 19) and "pops" to dimension `i − 1`; when it succeeds the
//! accumulated removals carry over to the next call.
//!
//! Per emitted community the work is at most `l` pinned `Neighbor()` calls
//! — only the dimensions where the core differs from its predecessor, since
//! the shared prefix is still pinned, and only a seed's first pin sweeps:
//! later ones copy its memoised `Neighbor({c})` — at most `2l − 1` subspace
//! `Neighbor()` calls, `l` `BestCore()` scans, and one `GetCommunity()`
//! that reads the pinned table and runs a single forward sweep —
//! `O(l · (n log n + m))`, the paper's Theorem IV.1 — using `O(l·n + m)`
//! space. The subspace calls repair the `Neighbor(V_i)` the shell keeps
//! (see [`crate::shell`]): the at most `l` that exclude a node re-sweep
//! the excluded seeds' cells — unless that dimension was asked for that
//! exclusion set before, and then the patch the first re-sweep settled is
//! copied — and the `l − 1` that reset `S_i ← V_i` are copies, so the
//! sweep budget per answer is `l` first pins plus `l` first cell
//! re-sweeps.

use crate::error::QueryError;
use crate::neighbor::BestCore;
use crate::shell::{Enumerator, Frontier, Shell};
use crate::types::{Community, Core, QuerySpec};
use comm_graph::{Graph, InterruptReason, Outcome, RunGuard};

/// Polynomial-delay iterator over all communities of an l-keyword query.
///
/// ```
/// use comm_core::{CommAll, QuerySpec};
/// use comm_datasets::paper_example::{fig4_graph, fig4_keyword_nodes, FIG4_RMAX};
/// use comm_graph::Weight;
///
/// let graph = fig4_graph();
/// let spec = QuerySpec::new(fig4_keyword_nodes(), Weight::new(FIG4_RMAX));
/// let all: Vec<_> = CommAll::try_new(&graph, &spec)?.collect();
/// assert_eq!(all.len(), 5); // the paper's five communities (Fig. 5)
/// # Ok::<(), comm_core::QueryError>(())
/// ```
pub type CommAll<'g> = Enumerator<'g, Dfs>;

/// `COMM-all`'s frontier: the one core to emit next. The rest of the DFS
/// state is the shell's `S_i` sets, whose removals carry over from one
/// `Next()` to the following one.
#[derive(Default)]
pub struct Dfs {
    pending: Option<Core>,
}

impl Frontier for Dfs {
    fn seed(&mut self, best: BestCore) {
        self.pending = Some(best.core);
    }

    fn pop(&mut self) -> Option<Core> {
        self.pending.take()
    }

    /// The `Next()` procedure (lines 10–21). The preparation (lines
    /// 11–12, pinning every dimension to `current`) is the shell's: it
    /// pinned the table before materialising `current`.
    fn expand(&mut self, shell: &mut Shell<'_>, current: &Core) -> Result<(), InterruptReason> {
        // Search: subdivide from the last dimension down (lines 13–20).
        for i in (0..shell.l()).rev() {
            shell.exclude(i, current.get(i));
            shell.recompute_from_s(i)?;
            if let Some(best) = shell.best_core() {
                self.pending = Some(best.core);
                return Ok(());
            }
            shell.reset(i);
            shell.recompute_from_s(i)?;
        }
        Ok(())
    }

    fn byte_size(&self) -> usize {
        0
    }
}

/// All communities of `spec` on `graph`, validated and run under `guard`.
///
/// An interrupted run returns `Outcome::Interrupted` carrying the
/// communities emitted before the trip — always an exact prefix of the
/// unguarded enumeration order.
pub fn comm_all_guarded(
    graph: &Graph,
    spec: &QuerySpec,
    guard: RunGuard,
) -> Result<Outcome<Vec<Community>>, QueryError> {
    Ok(CommAll::try_new(graph, spec)?
        .with_guard(guard)
        .drain(usize::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::collect_all;
    use comm_datasets::paper_example::{
        fig1_graph, fig1_keyword_nodes, fig4_graph, fig4_keyword_nodes, fig4_table1, FIG4_RMAX,
    };
    use comm_graph::{NodeId, Weight};
    use std::collections::BTreeSet as Set;

    fn fig4_spec(rmax: f64) -> QuerySpec {
        QuerySpec::new(fig4_keyword_nodes(), Weight::new(rmax))
    }

    #[test]
    fn finds_exactly_the_five_paper_communities() {
        let g = fig4_graph();
        let all = collect_all(&g, &fig4_spec(FIG4_RMAX));
        assert_eq!(all.len(), 5);
        let got: Set<Vec<u32>> = all
            .iter()
            .map(|c| c.core.0.iter().map(|n| n.0).collect())
            .collect();
        let expect: Set<Vec<u32>> = fig4_table1()
            .into_iter()
            .map(|(_, core, _, _)| core.to_vec())
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn first_community_is_the_best_one() {
        // Algorithm 1 finds the *best* core first (line 5), then walks DFS.
        let g = fig4_graph();
        let first = CommAll::try_new(&g, &fig4_spec(FIG4_RMAX))
            .unwrap()
            .next()
            .unwrap();
        assert_eq!(first.core, Core(vec![NodeId(4), NodeId(8), NodeId(6)]));
        assert_eq!(first.cost, Weight::new(7.0));
    }

    #[test]
    fn costs_and_centers_match_table1() {
        let g = fig4_graph();
        let all = collect_all(&g, &fig4_spec(FIG4_RMAX));
        for (_, core, cost, centers) in fig4_table1() {
            let c = all
                .iter()
                .find(|c| c.core.0.iter().map(|n| n.0).collect::<Vec<_>>() == core)
                .unwrap_or_else(|| panic!("missing core {core:?}"));
            assert_eq!(c.cost, Weight::new(cost));
            assert_eq!(c.centers.iter().map(|n| n.0).collect::<Vec<_>>(), centers);
        }
    }

    #[test]
    fn duplication_free() {
        let g = fig4_graph();
        let all = collect_all(&g, &fig4_spec(FIG4_RMAX));
        let mut seen = Set::new();
        for c in &all {
            assert!(seen.insert(c.core.clone()), "duplicate core {:?}", c.core);
        }
    }

    #[test]
    fn larger_radius_finds_superset() {
        let g = fig4_graph();
        let small: Set<Core> = collect_all(&g, &fig4_spec(6.0))
            .into_iter()
            .map(|c| c.core.clone())
            .collect();
        let large: Set<Core> = collect_all(&g, &fig4_spec(10.0))
            .into_iter()
            .map(|c| c.core.clone())
            .collect();
        assert!(small.is_subset(&large));
        assert!(small.len() < large.len() || small == large);
    }

    #[test]
    fn empty_keyword_set_yields_nothing() {
        let g = fig4_graph();
        let spec = QuerySpec::new(vec![vec![NodeId(4)], vec![]], Weight::new(8.0));
        assert_eq!(collect_all(&g, &spec).len(), 0);
    }

    #[test]
    fn single_keyword_query() {
        // l = 1: every keyword node is its own community core.
        let g = fig4_graph();
        let spec = QuerySpec::new(vec![vec![NodeId(4), NodeId(13)]], Weight::new(8.0));
        let all = collect_all(&g, &spec);
        let cores: Set<Vec<u32>> = all
            .iter()
            .map(|c| c.core.0.iter().map(|n| n.0).collect())
            .collect();
        assert_eq!(cores, Set::from([vec![4], vec![13]]));
    }

    #[test]
    fn two_keyword_fig1_query() {
        // Kate + Smith on Fig. 1 with radius 6: cores are
        // [Kate, JohnSmith] and [Kate, JimSmith].
        let g = fig1_graph();
        let spec = QuerySpec::new(fig1_keyword_nodes(), Weight::new(6.0));
        let all = collect_all(&g, &spec);
        assert_eq!(all.len(), 2);
        // The John Smith community is the multi-center one from Fig. 3:
        // both papers are centers.
        let john = all
            .iter()
            .find(|c| c.core.get(1) == NodeId(0))
            .expect("john smith community");
        assert!(john.centers.len() >= 2, "centers: {:?}", john.centers);
    }

    #[test]
    fn emitted_counter_and_memory() {
        let g = fig4_graph();
        let mut it = CommAll::try_new(&g, &fig4_spec(FIG4_RMAX)).unwrap();
        assert_eq!(it.emitted(), 0);
        while it.next().is_some() {}
        assert_eq!(it.emitted(), 5);
        assert!(it.peak_memory_bytes() > 0);
    }

    #[test]
    fn candidate_budget_emits_exact_prefix() {
        let g = fig4_graph();
        let spec = fig4_spec(FIG4_RMAX);
        let full = collect_all(&g, &spec);
        for k in 0..=full.len() {
            let guard = RunGuard::new().with_candidate_budget(k as u64);
            let out = comm_all_guarded(&g, &spec, guard).unwrap();
            if k < full.len() {
                assert_eq!(
                    out.reason(),
                    Some(InterruptReason::CandidateBudgetExhausted)
                );
            } else {
                assert!(out.is_complete());
            }
            let got = out.into_value();
            assert_eq!(got.len(), k.min(full.len()));
            for (a, b) in got.iter().zip(&full) {
                assert_eq!(a.core, b.core, "prefix order diverged at budget {k}");
            }
        }
    }

    #[test]
    fn bad_specs_are_rejected_before_any_work() {
        let g = fig4_graph();
        let bad = QuerySpec::new(vec![vec![NodeId(999)]], Weight::new(8.0));
        assert!(matches!(
            comm_all_guarded(&g, &bad, RunGuard::unlimited()),
            Err(QueryError::NodeOutOfRange { dim: 0, .. })
        ));
        assert!(matches!(
            CommAll::try_new(&g, &QuerySpec::new(Vec::new(), Weight::new(8.0))),
            Err(QueryError::NoKeywords)
        ));
    }

    #[test]
    fn zero_radius_query() {
        // Rmax = 0: a community needs a single node carrying all keywords.
        let g = fig4_graph();
        let spec = QuerySpec::new(
            vec![vec![NodeId(4), NodeId(6)], vec![NodeId(6)]],
            Weight::ZERO,
        );
        let all = collect_all(&g, &spec);
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].core, Core(vec![NodeId(6), NodeId(6)]));
        assert_eq!(all[0].cost, Weight::ZERO);
    }

    #[test]
    fn shared_prefixes_are_not_repinned() {
        // Consecutive cores agree below the dimension `i` the search
        // succeeded at, and those dimensions are still pinned: the next
        // community pins l − i dimensions, not l, and of those only a seed
        // never pinned before sweeps (the others are copies). The search
        // repairs the l − i dimensions it excludes a node from (l when it
        // fails, after the last community; resetting a dimension to `V_i`
        // is a copy), and of those only an exclusion set `(j, X)` never
        // repaired before re-sweeps (the others copy its patch). Replaying
        // the pins and the exclusion lists fixes the sweep count exactly.
        let g = fig4_graph();
        let mut it = CommAll::try_new(&g, &fig4_spec(FIG4_RMAX)).unwrap();
        let cores: Vec<Core> = it.by_ref().map(|c| c.core.clone()).collect();
        let l = 3;
        let mut pinned = Set::new();
        let mut first_pins =
            |core: &Core, from: usize| (from..l).filter(|&j| pinned.insert(core.get(j))).count();
        // `Dfs::expand` from dimension l − 1 down to `i`: exclude the
        // current core's node, repair, and reset every dimension the
        // search moves below.
        let mut excluded: Vec<Set<NodeId>> = vec![Set::new(); l];
        let mut repaired = Set::new();
        let mut search = |current: &Core, i: usize| {
            let resweeps = (i..l).rev().filter(|&j| {
                excluded[j].insert(current.get(j));
                let first = repaired.insert((j, excluded[j].clone()));
                if j > i {
                    excluded[j].clear();
                }
                first
            });
            let resweeps = resweeps.count();
            (resweeps, (l - i) - resweeps)
        };
        let mut expect = l + first_pins(&cores[0], 0); // the initial sweeps
        let (mut shared, mut copied, mut patched) = (0, 0, 0);
        for pair in cores.windows(2) {
            let i = (0..l).find(|&i| pair[0].get(i) != pair[1].get(i)).unwrap();
            let (resweeps, repeats) = search(&pair[0], i);
            let swept = first_pins(&pair[1], i);
            expect += swept + resweeps;
            shared += i;
            copied += (l - i) - swept;
            patched += repeats;
        }
        let (resweeps, repeats) = search(&cores[cores.len() - 1], 0);
        expect += resweeps;
        patched += repeats;
        assert!(shared > 0, "no consecutive fig. 4 cores share a prefix");
        assert!(copied > 0, "no fig. 4 pin is a copy");
        assert!(patched > 0, "no fig. 4 repair is a copy");
        assert_eq!(it.neighbor_sweeps(), expect);
    }
}
