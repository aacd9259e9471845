//! `COMM-k` (Algorithm 5): polynomial-delay enumeration of communities in
//! non-decreasing cost order, with run-time-extendable `k`.
//!
//! The enumerator keeps a *can-list* of candidate tuples
//! `(C, cost, pos, prev)` and a min-heap ordering the live candidates by
//! cost. Each deheap emits one community and subdivides the deheaped
//! tuple's subspace into at most `l − pos + 1` child subspaces whose best
//! cores are enheaped (Lawler's procedure). Because candidates persist on
//! the can-list, enlarging `k` at run time costs nothing: just keep calling
//! [`CommK::next`].
//!
//! The sweep budget of one answer whose tuple was created at dimension
//! `pos`: one single-source sweep per seed of its core never pinned
//! before (at most `l`; a seed pinned before is copied from the shell's
//! memo), then `l − pos` re-sweeps of the *cells* a child takes out of
//! the `Neighbor(V_i)` the shell keeps (see [`crate::shell`]) — the nodes
//! whose nearest seed was excluded, a sixth of a neighbourhood on the
//! dense benchmark graph. Putting a dimension back is a copy: no restore
//! sweep exists.
//!
//! # Deviation from Algorithm 5
//!
//! The paper orders the candidates with a Fibonacci heap; this is
//! `std::collections::BinaryHeap`. The keys `(cost, can-list index)` are
//! unique and totally ordered, so every correct min-heap deheaps the same
//! sequence — the output is bit-identical — and the enumerator only ever
//! enheaps and deheaps (no decrease-key, no meld), at `O(log(l·k))` per
//! operation beside the `O(l·(n log n + m))` of the sweeps in one answer.
//!
//! # Paper erratum
//!
//! Algorithm 5's lines 20–23 reconstruct the deheaped tuple's subspace by
//! removing `h.C[h.pos]` for every chain ancestor `h`. Replaying the
//! paper's own running example shows this re-emits core `[v13, v8, v9]`
//! when expanding the tuple for `[v13, v8, v11]` (`pos = 3`, parent
//! `pos = 1`): the value that must leave `S_3` is the *parent's*
//! `C[3] = v9`, not the tuple's own `v11` (which line 25 removes anyway).
//! We therefore remove `h.prev.C[h.pos]` per chain entry — the exact
//! Lawler reconstruction — and the duplication-freeness property tests
//! cross-check the result against the naive enumerator.

use crate::error::QueryError;
use crate::neighbor::BestCore;
use crate::shell::{Enumerator, Frontier, Shell};
use crate::types::{Community, Core, QuerySpec};
use comm_graph::weight::index_to_u32;
use comm_graph::{Graph, InterruptReason, Outcome, RunGuard, Weight};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Ordered polynomial-delay enumerator with interactive `k`.
///
/// ```
/// use comm_core::{CommK, QuerySpec};
/// use comm_datasets::paper_example::{fig4_graph, fig4_keyword_nodes, FIG4_RMAX};
/// use comm_graph::Weight;
///
/// let graph = fig4_graph();
/// let spec = QuerySpec::new(fig4_keyword_nodes(), Weight::new(FIG4_RMAX));
/// let mut topk = CommK::try_new(&graph, &spec)?;
/// let top2: Vec<_> = topk.by_ref().take(2).collect();
/// assert_eq!(top2[0].cost, Weight::new(7.0));
/// assert_eq!(top2[1].cost, Weight::new(10.0));
/// // The user enlarges k at run time: enumeration simply continues.
/// let next = topk.next().unwrap();
/// assert_eq!(next.cost, Weight::new(11.0));
/// # Ok::<(), comm_core::QueryError>(())
/// ```
pub type CommK<'g> = Enumerator<'g, CanList>;

/// One entry of the can-list: the paper's can-tuple `(C, cost, pos, prev)`
/// (the cost lives in the heap key).
#[derive(Clone, Debug)]
struct CanTuple {
    core: Core,
    /// The subdivision dimension: this tuple's core agrees with its
    /// parent's on every dimension `< pos` and differs at `pos`.
    pos: usize,
    /// Index of the parent can-tuple on the can-list.
    prev: Option<u32>,
}

/// `COMM-k`'s frontier: the can-list plus the min-heap ordering its live
/// candidates. [`LawlerK`](crate::LawlerK) keeps the same structure
/// and differs only in how it solves each child subspace.
#[derive(Default)]
pub struct CanList {
    tuples: Vec<CanTuple>,
    /// Min-heap over `(cost, can-list index)`; the index doubles as a
    /// deterministic tiebreaker (insertion order).
    heap: BinaryHeap<Reverse<(Weight, u32)>>,
    /// The tuple most recently deheaped — the one `expand` subdivides.
    deheaped: u32,
}

impl CanList {
    pub(crate) fn enheap(&mut self, best: BestCore, pos: usize, prev: Option<u32>) {
        let idx = index_to_u32(self.tuples.len());
        self.tuples.push(CanTuple {
            core: best.core,
            pos,
            prev,
        });
        self.heap.push(Reverse((best.cost, idx)));
    }

    /// Rebuilds the deheaped tuple's subspace in the shell's `S_i` sets
    /// and returns the tuple's index and position. The chain walk (lines
    /// 19–23, corrected — see the module docs) removes, at each
    /// ancestor's position, the value the ancestor's *parent* excluded
    /// when creating it.
    pub(crate) fn restore_subspace(&self, shell: &mut Shell<'_>) -> (u32, usize) {
        for i in 0..shell.l() {
            shell.reset(i);
        }
        let mut h = self.deheaped;
        loop {
            let t = &self.tuples[h as usize];
            let Some(p) = t.prev else { break };
            shell.exclude(t.pos, self.tuples[p as usize].core.get(t.pos));
            h = p;
        }
        (self.deheaped, self.tuples[self.deheaped as usize].pos)
    }
}

impl Frontier for CanList {
    /// Lines 1–6: the best core of the full space opens the can-list.
    fn seed(&mut self, best: BestCore) {
        self.enheap(best, 0, None);
    }

    fn pop(&mut self) -> Option<Core> {
        let Reverse((_, idx)) = self.heap.pop()?;
        self.deheaped = idx;
        Some(self.tuples[idx as usize].core.clone())
    }

    /// The `Next()` procedure (lines 15–31): subdivide the deheaped
    /// tuple's subspace and enheap the best core of each non-empty part.
    /// The shell pinned every dimension to `g_core` before materialising
    /// it (lines 16–18); each child then patches a single dimension and
    /// puts it back — except the last child, whose dimension the next
    /// `next()` re-pins anyway. Both refills repair the `Neighbor(V_i)`
    /// the shell keeps: the patch re-sweeps the excluded seeds' cells,
    /// putting back is a copy. At most `l` pin sweeps (first pins only)
    /// plus `l − pos` cell re-sweeps: `O(l)` sweeps per answer.
    fn expand(&mut self, shell: &mut Shell<'_>, g_core: &Core) -> Result<(), InterruptReason> {
        // Preparation (lines 19–23).
        let (g_idx, g_pos) = self.restore_subspace(shell);
        // Subdivision (lines 24–31), from dimension l−1 down to g.pos.
        for i in (g_pos..shell.l()).rev() {
            shell.exclude(i, g_core.get(i));
            shell.recompute_from_s(i)?;
            if let Some(best) = shell.best_core() {
                self.enheap(best, i, Some(g_idx));
            }
            shell.readmit(i, g_core.get(i));
            if i > g_pos {
                // Every chain ancestor has `pos ≤ g_pos`, so nothing else
                // was ever excluded up here: `S_i` is `V_i` again.
                debug_assert!(shell.excluded(i).is_empty());
                shell.recompute_from_s(i)?;
            }
        }
        Ok(())
    }

    fn byte_size(&self) -> usize {
        let cores: usize = self.tuples.iter().map(|t| t.core.byte_size()).sum();
        self.tuples.capacity() * std::mem::size_of::<CanTuple>()
            + cores
            + self.heap.capacity() * std::mem::size_of::<Reverse<(Weight, u32)>>()
    }
}

impl CommK<'_> {
    /// Size of the can-list (bounded by `l · k`, Theorem V.1).
    pub fn can_list_len(&self) -> usize {
        self.frontier.tuples.len()
    }
}

/// The top-`k` communities of `spec` on `graph` in rank order, validated
/// and run under `guard`.
///
/// An interrupted run returns `Outcome::Interrupted` carrying the ranked
/// prefix emitted before the trip. Pair with
/// [`RunGuard::with_candidate_budget`] for an exact top-k cut.
pub fn comm_k_guarded(
    graph: &Graph,
    spec: &QuerySpec,
    k: usize,
    guard: RunGuard,
) -> Result<Outcome<Vec<Community>>, QueryError> {
    Ok(CommK::try_new(graph, spec)?
        .with_guard(guard)
        .into_outcome(k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_all_cores;
    use crate::testing::{collect_top_k, dense_scenario};
    use crate::verify::{check_community, check_ranking};
    use crate::CostFn;
    use comm_datasets::paper_example::{fig4_graph, fig4_keyword_nodes, fig4_table1, FIG4_RMAX};

    use comm_graph::{GraphBuilder, NodeId};

    fn fig4_spec(rmax: f64) -> QuerySpec {
        QuerySpec::new(fig4_keyword_nodes(), Weight::new(rmax))
    }

    #[test]
    fn table1_ranking_in_order() {
        // The paper's Table I, in rank order 1..5 with costs 7,10,11,14,15.
        let g = fig4_graph();
        let top = collect_top_k(&g, &fig4_spec(FIG4_RMAX), 10);
        assert_eq!(top.len(), 5);
        for (rank, core, cost, centers) in fig4_table1() {
            let c = &top[rank - 1];
            assert_eq!(
                c.core.0.iter().map(|n| n.0).collect::<Vec<_>>(),
                core.to_vec(),
                "rank {rank}"
            );
            assert_eq!(c.cost, Weight::new(cost), "rank {rank}");
            assert_eq!(
                c.centers.iter().map(|n| n.0).collect::<Vec<_>>(),
                centers,
                "rank {rank}"
            );
        }
    }

    #[test]
    fn no_duplicates_beyond_k() {
        let g = fig4_graph();
        let all: Vec<_> = CommK::try_new(&g, &fig4_spec(FIG4_RMAX)).unwrap().collect();
        assert_eq!(all.len(), 5, "exhaustive CommK must terminate at 5");
        let mut cores: Vec<_> = all.iter().map(|c| c.core.clone()).collect();
        cores.sort();
        cores.dedup();
        assert_eq!(cores.len(), 5);
    }

    #[test]
    fn order_is_nondecreasing() {
        let g = fig4_graph();
        let mut last = Weight::ZERO;
        for c in CommK::try_new(&g, &fig4_spec(FIG4_RMAX)).unwrap() {
            assert!(c.cost >= last);
            last = c.cost;
        }
    }

    #[test]
    fn interactive_k_extension_matches_oneshot() {
        let g = fig4_graph();
        let spec = fig4_spec(FIG4_RMAX);
        // Take 2, then 2 more — must equal taking 4 at once.
        let mut it = CommK::try_new(&g, &spec).unwrap();
        let mut resumed: Vec<Core> = it.by_ref().take(2).map(|c| c.core).collect();
        resumed.extend(it.by_ref().take(2).map(|c| c.core));
        let oneshot: Vec<Core> = collect_top_k(&g, &spec, 4)
            .into_iter()
            .map(|c| c.core)
            .collect();
        assert_eq!(resumed, oneshot);
    }

    #[test]
    fn matches_naive_on_fig4_all_radii() {
        let g = fig4_graph();
        for rmax in [4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 12.0] {
            let spec = fig4_spec(rmax);
            let expect = naive_all_cores(&g, &spec);
            let got: Vec<(Core, Weight)> = CommK::try_new(&g, &spec)
                .unwrap()
                .map(|c| (c.core, c.cost))
                .collect();
            // Same multiset of cores…
            let mut a: Vec<_> = got.iter().map(|(c, _)| c.clone()).collect();
            a.sort();
            let mut b: Vec<_> = expect.iter().map(|(c, _)| c.clone()).collect();
            b.sort();
            assert_eq!(a, b, "core sets differ at rmax={rmax}");
            // …same cost sequence in rank order.
            let costs_got: Vec<Weight> = got.iter().map(|&(_, w)| w).collect();
            let costs_expect: Vec<Weight> = expect.iter().map(|&(_, w)| w).collect();
            assert_eq!(costs_got, costs_expect, "cost order differs at rmax={rmax}");
        }
    }

    #[test]
    fn can_list_bounded_by_l_times_k() {
        let g = fig4_graph();
        let mut it = CommK::try_new(&g, &fig4_spec(FIG4_RMAX)).unwrap();
        let mut emitted = 0;
        while it.next().is_some() {
            emitted += 1;
            assert!(
                it.can_list_len() <= 3 * emitted + 1,
                "can-list {} exceeds l·k bound at k={emitted}",
                it.can_list_len()
            );
        }
        // The frontier is charged for what it allocated: the can-list's
        // 40-byte tuple slots, spare capacity included, each tuple's core
        // nodes, and the heap's 16-byte `(cost, index)` slots.
        let f = &it.frontier;
        let cores: usize = f.tuples.iter().map(|t| t.core.byte_size()).sum();
        assert!(f.heap.capacity() > 0 && f.tuples.capacity() > f.tuples.len());
        assert_eq!(std::mem::size_of::<CanTuple>(), 40);
        let expect = f.tuples.capacity() * 40 + cores + f.heap.capacity() * 16;
        assert_eq!(f.byte_size(), expect);
        assert!(it.peak_memory_bytes() > f.byte_size());
    }

    #[test]
    fn single_keyword_ranked() {
        // l = 1: cores rank by distance-0 (each keyword node is a center
        // of itself), so all costs are 0.
        let g = fig4_graph();
        let spec = QuerySpec::new(vec![vec![NodeId(4), NodeId(13)]], Weight::new(8.0));
        let all: Vec<_> = CommK::try_new(&g, &spec).unwrap().collect();
        assert!(all.iter().all(|c| c.cost == Weight::ZERO));
        let order: Vec<Core> = all.into_iter().map(|c| c.core).collect();
        assert_eq!(order, [Core(vec![NodeId(4)]), Core(vec![NodeId(13)])]);
    }

    #[test]
    fn equal_costs_leave_in_insertion_order() {
        // A star: node 0 reaches the four keyword nodes at distance 1, so
        // it is the only center and all four cores cost 2. After the first
        // emission the `pos = 1` child (same first node) and the `pos = 0`
        // child sit in the heap together at equal cost; the can-list
        // index breaks the tie, so the child enheaped first leaves first.
        let mut b = GraphBuilder::new(5);
        for v in 1..5 {
            b.add_edge(NodeId(0), NodeId(v), Weight::new(1.0));
        }
        let g = b.build();
        let sets = vec![vec![NodeId(1), NodeId(2)], vec![NodeId(3), NodeId(4)]];
        let spec = QuerySpec::new(sets, Weight::new(1.0));
        let all: Vec<_> = CommK::try_new(&g, &spec).unwrap().collect();
        assert!(all.iter().all(|c| c.cost == Weight::new(2.0)));
        let order: Vec<Vec<u32>> = all
            .iter()
            .map(|c| c.core.0.iter().map(|n| n.0).collect())
            .collect();
        assert_eq!(order, [[1, 3], [1, 4], [2, 3], [2, 4]]);
    }

    #[test]
    fn candidate_budget_yields_ranked_prefix() {
        let g = fig4_graph();
        let spec = fig4_spec(FIG4_RMAX);
        let full: Vec<Core> = CommK::try_new(&g, &spec).unwrap().map(|c| c.core).collect();
        for b in 0..full.len() {
            let guard = RunGuard::new().with_candidate_budget(b as u64);
            let out = comm_k_guarded(&g, &spec, 10, guard).unwrap();
            assert_eq!(
                out.reason(),
                Some(InterruptReason::CandidateBudgetExhausted)
            );
            let got: Vec<Core> = out.into_value().into_iter().map(|c| c.core).collect();
            assert_eq!(got, full[..b], "budget {b}");
        }
    }

    #[test]
    fn bad_specs_are_rejected_before_any_work() {
        let g = fig4_graph();
        let bad = QuerySpec::new(vec![vec![NodeId(4), NodeId(500)]], Weight::new(8.0));
        assert!(matches!(
            comm_k_guarded(&g, &bad, 3, RunGuard::unlimited()),
            Err(QueryError::NodeOutOfRange { dim: 0, .. })
        ));
        let top = comm_k_guarded(&g, &fig4_spec(FIG4_RMAX), 2, RunGuard::unlimited())
            .unwrap()
            .into_value();
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].cost, Weight::new(7.0));
    }

    #[test]
    fn empty_result_when_no_center_exists() {
        let g = fig4_graph();
        let spec = QuerySpec::new(vec![vec![NodeId(4)], vec![NodeId(13)]], Weight::new(1.0));
        assert_eq!(CommK::try_new(&g, &spec).unwrap().count(), 0);
    }

    #[test]
    fn ranking_is_strict_on_the_dense_graph() {
        // No ulp slack: the emitted cost is the heap key that ordered it.
        let (g, base) = dense_scenario();
        for cost in [CostFn::SumDistances, CostFn::MaxDistance] {
            let spec = base.clone().with_cost(cost);
            let top = comm_k_guarded(&g, &spec, 250, RunGuard::unlimited())
                .unwrap()
                .into_value();
            assert_eq!(top.len(), 250);
            check_ranking(&top).unwrap();
            // A node carrying two of the keywords is read once per
            // keyword, in dimension order — `d + d`, not `d × 2` — by the
            // engine and by the certifier alike.
            let repeated: Vec<&Community> = top
                .iter()
                .filter(|c| c.knodes.len() < c.core.len())
                .collect();
            assert!(
                !repeated.is_empty(),
                "no core repeats a node under {cost:?}"
            );
            for c in repeated {
                check_community(&g, &spec, c).unwrap();
            }
        }
    }

    #[test]
    fn sweeps_per_community_stay_within_the_budget() {
        // At most one pin sweep per seed never pinned before — a pin of a
        // seed pinned before is a copy — plus l − pos cell re-sweeps per
        // `next()` (putting a dimension back is a copy, no restore sweep
        // exists), on top of the l initial sweeps of the first one.
        let (dense, dense_spec) = dense_scenario();
        for (g, spec) in [(fig4_graph(), fig4_spec(FIG4_RMAX)), (dense, dense_spec)] {
            let l = spec.l();
            let mut it = CommK::try_new(&g, &spec).unwrap();
            let mut pinned = std::collections::HashSet::new();
            let (mut before, mut copied) = (0, 0);
            while let Some(c) = it.next() {
                let pos = it.frontier.tuples[it.frontier.deheaped as usize].pos;
                let initial = if it.emitted() == 1 { l } else { 0 };
                let first_pins = c.core.0.iter().filter(|&&v| pinned.insert(v)).count();
                let grown = it.neighbor_sweeps() - before;
                let budget = first_pins + (l - pos);
                assert!(
                    grown <= initial + budget,
                    "community {} (pos {pos}) ran {grown} sweeps",
                    it.emitted()
                );
                copied += usize::from(first_pins < l);
                before = it.neighbor_sweeps();
            }
            assert!(it.emitted() >= 5 && copied > 0);
        }
    }
}
