//! The straightforward Lawler adaptation the paper improves on.
//!
//! Sec. III-A: applying Lawler's procedure [12] to community search "as
//! is" gives a top-k algorithm whose per-answer cost is `O(l · c(l))`,
//! where `c(l)` is the cost of finding the top-1 community — because each
//! of the `l` child subspaces of a deheaped candidate is solved *from
//! scratch* (all `l` neighbor sets recomputed per child, `O(l²)` sweeps
//! per answer). The paper's `COMM-k` reaches `O(c(l))` by sharing the
//! neighbor-set state across children: pin each dimension once, then patch
//! a single dimension per subspace (`O(l)` sweeps per answer: at most `l`
//! first pins and `l − pos` cell re-sweeps of the kept `Neighbor(V_i)`,
//! against `l·(l − pos)` whole sweeps here — [`FromScratch`] keeps no base
//! and memoises no pin, so every one of its refills and pins is a sweep
//! from scratch, which also makes it the oracle `COMM-k`'s repairs and
//! copies are compared with).
//!
//! [`LawlerK`] implements the naive variant with identical semantics to
//! [`CommK`](crate::CommK) — same partition, same tie-breaking, the exact
//! same output sequence — so the two enumerators isolate precisely the
//! sweep-sharing idea. The `ablation-lawler` benchmark table measures the
//! gap; `neighbor_sweeps()` counts it exactly.

use crate::comm_k::CanList;
use crate::neighbor::BestCore;
use crate::shell::{Enumerator, Frontier, Shell};
use crate::types::Core;
use comm_graph::InterruptReason;

/// Top-k community enumeration via the unimproved Lawler procedure: the
/// same output sequence as [`CommK`](crate::CommK) at `O(l²)` instead of
/// `O(l)` `Neighbor()` sweeps per answer.
pub type LawlerK<'g> = Enumerator<'g, FromScratch>;

/// [`LawlerK`]'s frontier: `COMM-k`'s can-list, every child subspace
/// solved from scratch.
#[derive(Default)]
pub struct FromScratch(CanList);

impl Frontier for FromScratch {
    const KEEPS_BASE: bool = false;

    fn seed(&mut self, best: BestCore) {
        self.0.seed(best);
    }

    fn pop(&mut self) -> Option<Core> {
        self.0.pop()
    }

    /// Solves each child subspace on its own: dimensions below the split
    /// pinned to the deheaped core by a fresh sweep (never the shell's
    /// "already pinned" shortcut — that sharing is what `COMM-k` adds),
    /// the rest recomputed from `S_j` — all `l` neighbor sets per child,
    /// then one `BestCore()` scan.
    fn expand(&mut self, shell: &mut Shell<'_>, g_core: &Core) -> Result<(), InterruptReason> {
        let (g_idx, g_pos) = self.0.restore_subspace(shell);
        for i in (g_pos..shell.l()).rev() {
            shell.exclude(i, g_core.get(i));
            for j in 0..shell.l() {
                if j < i {
                    shell.repin_dim(j, g_core.get(j))?;
                } else {
                    shell.recompute_from_s(j)?;
                }
            }
            if let Some(best) = shell.best_core() {
                self.0.enheap(best, i, Some(g_idx));
            }
            shell.readmit(i, g_core.get(i));
        }
        Ok(())
    }

    fn byte_size(&self) -> usize {
        self.0.byte_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::dense_scenario;
    use crate::{CommK, Community, CostFn, QuerySpec};
    use comm_datasets::paper_example::{fig4_graph, fig4_keyword_nodes, FIG4_RMAX};
    use comm_graph::{NodeId, RunGuard, Weight};

    fn fig4_spec() -> QuerySpec {
        QuerySpec::new(fig4_keyword_nodes(), Weight::new(FIG4_RMAX))
    }

    #[test]
    fn identical_output_to_comm_k() {
        // Same cores in the same order, and the same cost *bits*: on the
        // dense graph's fractional weights that holds only because both
        // read their costs off a history-free table.
        for (g, spec) in [(fig4_graph(), fig4_spec()), dense_scenario()] {
            let ours: Vec<(Core, u64)> = CommK::try_new(&g, &spec)
                .unwrap()
                .map(|c| (c.core, c.cost.get().to_bits()))
                .collect();
            let lawler: Vec<(Core, u64)> = LawlerK::try_new(&g, &spec)
                .unwrap()
                .map(|c| (c.core, c.cost.get().to_bits()))
                .collect();
            assert!(ours.len() >= 5);
            assert_eq!(ours, lawler);
        }
    }

    /// FNV-1a over `(core, cost bits, centers)` of every community, in
    /// emission order; a length word closes each variable-length field.
    fn sequence_digest(communities: impl Iterator<Item = Community>) -> (usize, u64) {
        fn mix(h: &mut u64, word: u64) {
            for byte in word.to_le_bytes() {
                *h = (*h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let mut h = 0xcbf2_9ce4_8422_2325;
        let mut count = 0;
        for c in communities {
            for nodes in [&c.core.0, &c.centers] {
                nodes.iter().for_each(|n| mix(&mut h, u64::from(n.0)));
                mix(&mut h, nodes.len() as u64);
            }
            mix(&mut h, c.cost.get().to_bits());
            count += 1;
        }
        (count, h)
    }

    #[test]
    fn golden_sequences_are_bit_identical() {
        // Cores, cost bits, centers and order of both full enumerations.
        // The constants were computed on the Fibonacci heap the can-list
        // used up to commit 3d41dc9; no priority queue may change them,
        // because the keys `(cost, can-list index)` are unique and totally
        // ordered.
        let golden = [(5, 0xf22f_8971_d4a0_24e0), (441, 0x8caa_042f_41de_bfcc)];
        for ((g, spec), expect) in [(fig4_graph(), fig4_spec()), dense_scenario()]
            .into_iter()
            .zip(golden)
        {
            let ours = sequence_digest(CommK::try_new(&g, &spec).unwrap());
            let lawler = sequence_digest(LawlerK::try_new(&g, &spec).unwrap());
            for (name, got) in [("COMM-k", ours), ("LawlerK", lawler)] {
                assert_eq!(got, expect, "{name}: ({}, {:#018x})", got.0, got.1);
            }
        }
    }

    #[test]
    fn sweep_counts_show_the_factor() {
        // PDk runs at most 3l − 1 sweeps per answer; the naive Lawler runs
        // ≈ l² — so the gap appears for l > 3. Build an l = 6 query by
        // doubling the three Fig. 4 keyword sets.
        let g = fig4_graph();
        let mut sets = fig4_keyword_nodes();
        sets.extend(fig4_keyword_nodes());
        let spec = QuerySpec::new(sets, Weight::new(FIG4_RMAX));
        let mut ours = CommK::try_new(&g, &spec).unwrap();
        let mut lawler = LawlerK::try_new(&g, &spec).unwrap();
        let a: Vec<Weight> = ours.by_ref().map(|c| c.cost).collect();
        let b: Vec<Weight> = lawler.by_ref().map(|c| c.cost).collect();
        assert_eq!(a, b, "same enumeration at l=6");
        assert!(!a.is_empty());
        assert!(
            lawler.neighbor_sweeps() as f64 > 1.5 * ours.neighbor_sweeps() as f64,
            "lawler {} vs ours {}",
            lawler.neighbor_sweeps(),
            ours.neighbor_sweeps()
        );
    }

    #[test]
    fn max_cost_agrees_too() {
        let g = fig4_graph();
        let spec = fig4_spec().with_cost(CostFn::MaxDistance);
        let ours: Vec<Weight> = CommK::try_new(&g, &spec).unwrap().map(|c| c.cost).collect();
        let lawler: Vec<Weight> = LawlerK::try_new(&g, &spec)
            .unwrap()
            .map(|c| c.cost)
            .collect();
        assert_eq!(ours, lawler);
    }

    #[test]
    fn guarded_prefix_matches_comm_k() {
        let g = fig4_graph();
        let spec = fig4_spec();
        let full: Vec<Core> = CommK::try_new(&g, &spec).unwrap().map(|c| c.core).collect();
        for b in 0..full.len() {
            let guard = RunGuard::new().with_candidate_budget(b as u64);
            let mut it = LawlerK::try_new(&g, &spec).unwrap().with_guard(guard);
            let got: Vec<Core> = it.by_ref().map(|c| c.core).collect();
            assert_eq!(got, full[..b], "budget {b}");
            assert_eq!(
                it.interrupted(),
                Some(InterruptReason::CandidateBudgetExhausted)
            );
        }
    }

    #[test]
    fn empty_query_is_empty() {
        let g = fig4_graph();
        let spec = QuerySpec::new(vec![vec![], vec![NodeId(4)]], Weight::new(8.0));
        assert_eq!(LawlerK::try_new(&g, &spec).unwrap().count(), 0);
    }
}
