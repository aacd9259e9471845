//! The expanding baselines of Sec. III: bottom-up (`BUall`/`BUk`) and
//! top-down (`TDall`/`TDk`).
//!
//! Both are *incremental polynomial time* enumerators, not polynomial
//! delay: to stay duplication-free they keep a pool of already-output
//! cores and check every candidate against it, and for top-k they must
//! collect (and rank) candidate cores before emitting — which is also why
//! they cannot resume when the user enlarges `k` (Exp-3).
//!
//! * **Bottom-up** expands from every keyword node `v ∈ V_i` backwards
//!   within `Rmax`; each reached node `u` accumulates `u.V_i`, the set of
//!   keyword-`i` nodes it can reach. Every node with all `u.V_i` non-empty
//!   is a center whose cross-product `u.V_1 × … × u.V_l` yields candidate
//!   cores. The per-node sets are kept alive for the whole run — the
//!   memory cost Fig. 9 highlights.
//! * **Top-down** expands forward from every node `u ∈ V(G_D)` within
//!   `Rmax`, collecting the keyword nodes it reaches; the per-center state
//!   is transient (freed after `u` is processed), so it uses less memory
//!   than bottom-up, at the same asymptotic time.

use crate::error::QueryError;
use crate::get_community::get_community_in;
use crate::neighbor::NeighborSets;
use crate::types::{Community, Core, CostFn, QuerySpec};
use comm_graph::{
    DijkstraEngine, Direction, Graph, InterruptReason, NodeId, Outcome, RunGuard, Weight,
};
use std::collections::{HashMap, HashSet};

/// Per-center reach lists: `sets[i]` holds the `(keyword_node, dist)`
/// pairs of dimension `i` reachable within `Rmax`.
type ReachSets = Vec<Vec<(NodeId, Weight)>>;

/// Bookkeeping reported by a baseline run.
#[derive(Clone, Copy, Debug, Default)]
pub struct BaselineStats {
    /// Communities emitted.
    pub communities: usize,
    /// Candidate cores generated across all centers (before deduplication).
    pub candidates: usize,
    /// Candidates rejected by the duplication pool.
    pub duplicates: usize,
    /// Peak logical bytes of expansion state + pools + result buffers.
    pub peak_bytes: usize,
    /// Whether the run finished (false: hit its community limit, its
    /// candidate budget, or a guard trip).
    pub completed: bool,
    /// Why the guard cut the run short, if it did.
    pub interrupted: Option<InterruptReason>,
}

/// The result of a baseline run.
pub struct BaselineRun {
    /// The communities found (for the top-k variants, in rank order).
    pub communities: Vec<Community>,
    /// Run statistics.
    pub stats: BaselineStats,
}

const PAIR_BYTES: usize = std::mem::size_of::<(NodeId, Weight)>();

/// Enumerates the cross product of the per-dimension reach lists at one
/// center, offering each core with the center's total distance to `emit`.
/// `emit` returns `Ok(false)` to stop early (limits and budgets) or the
/// guard's reason; the function reports whether enumeration ran to
/// completion.
fn cross_product(
    sets: &ReachSets,
    cost_fn: CostFn,
    mut emit: impl FnMut(Core, Weight) -> Result<bool, InterruptReason>,
) -> Result<bool, InterruptReason> {
    let l = sets.len();
    debug_assert!(sets.iter().all(|s| !s.is_empty()));
    let mut idx = vec![0usize; l];
    let mut dists = vec![Weight::ZERO; l];
    'outer: loop {
        let mut core = Vec::with_capacity(l);
        for i in 0..l {
            let (v, d) = sets[i][idx[i]];
            core.push(v);
            dists[i] = d;
        }
        if !emit(Core(core), cost_fn.combine(dists.iter().copied()))? {
            return Ok(false);
        }
        for i in (0..l).rev() {
            idx[i] += 1;
            if idx[i] < sets[i].len() {
                continue 'outer;
            }
            idx[i] = 0;
            if i == 0 {
                break 'outer;
            }
        }
    }
    Ok(true)
}

/// Runs the bottom-up expansion, building `u.V_i` for every node.
/// Returns `(per_node_sets, bytes_held)`.
fn bottom_up_expand(
    graph: &Graph,
    spec: &QuerySpec,
    engine: &mut DijkstraEngine,
    guard: &RunGuard,
) -> Result<(Vec<ReachSets>, usize), InterruptReason> {
    let n = graph.node_count();
    let l = spec.l();
    let mut sets: Vec<ReachSets> = vec![vec![Vec::new(); l]; n];
    let mut entries = 0usize;
    for (i, v_i) in spec.keyword_nodes.iter().enumerate() {
        for &v in v_i {
            engine.run_guarded(graph, Direction::Reverse, [v], spec.rmax, guard, |s| {
                sets[s.node.index()][i].push((v, s.dist));
                entries += 1;
            })?;
            guard.check_bytes(entries * PAIR_BYTES)?;
        }
    }
    Ok((sets, entries * PAIR_BYTES))
}

/// Per-center forward expansion used by the top-down variants: collects
/// the keyword nodes reachable from `u` within `Rmax`, per dimension.
/// Returns `None` (cheaply) if some dimension stays empty.
fn top_down_reach(
    graph: &Graph,
    spec: &QuerySpec,
    engine: &mut DijkstraEngine,
    membership: &HashMap<NodeId, Vec<u8>>,
    u: NodeId,
    guard: &RunGuard,
) -> Result<Option<ReachSets>, InterruptReason> {
    let l = spec.l();
    let mut sets: ReachSets = vec![Vec::new(); l];
    engine.run_guarded(graph, Direction::Forward, [u], spec.rmax, guard, |s| {
        if let Some(dims) = membership.get(&s.node) {
            for &i in dims {
                // xtask-allow: unbounded_alloc — run_guarded charges per settled node; l sets
                sets[i as usize].push((s.node, s.dist));
            }
        }
    })?;
    Ok(sets.iter().all(|s| !s.is_empty()).then_some(sets))
}

fn keyword_membership(spec: &QuerySpec) -> HashMap<NodeId, Vec<u8>> {
    let mut m: HashMap<NodeId, Vec<u8>> = HashMap::new();
    for (i, v_i) in spec.keyword_nodes.iter().enumerate() {
        for &v in v_i {
            // xtask-allow: narrowing_cast — keyword positions are bounded by l, a handful per query
            m.entry(v).or_default().push(i as u8);
        }
    }
    m
}

/// How a baseline finds each center's reach sets.
#[derive(Clone, Copy)]
enum Expander {
    /// One reverse sweep per keyword node into a per-node table that stays
    /// alive for the whole run.
    BottomUp,
    /// One forward sweep per graph node; the per-center sets are dropped
    /// after each center — the memory advantage of top-down over
    /// bottom-up the paper points out for Fig. 9(b).
    TopDown,
}

/// Streams every candidate core of every center to `offer` until it
/// declines (`Ok(false)`) or the guard trips. Returns the peak bytes of
/// expansion state and how the stream ended: `Ok(true)` exhausted,
/// `Ok(false)` declined, `Err` tripped.
fn expand(
    expander: Expander,
    graph: &Graph,
    spec: &QuerySpec,
    engine: &mut DijkstraEngine,
    guard: &RunGuard,
    mut offer: impl FnMut(&mut DijkstraEngine, Core, Weight) -> Result<bool, InterruptReason>,
) -> (usize, Result<bool, InterruptReason>) {
    let mut bytes = 0usize;
    let mut stream = || -> Result<bool, InterruptReason> {
        if spec.has_empty_keyword() {
            return Ok(true);
        }
        match expander {
            Expander::BottomUp => {
                let (sets, held) = bottom_up_expand(graph, spec, engine, guard)?;
                bytes = held;
                for per_center in &sets {
                    if per_center.iter().any(Vec::is_empty) {
                        continue;
                    }
                    if !cross_product(per_center, spec.cost, |c, w| offer(engine, c, w))? {
                        return Ok(false);
                    }
                }
            }
            Expander::TopDown => {
                let membership = keyword_membership(spec);
                for u in graph.nodes() {
                    let Some(sets) = top_down_reach(graph, spec, engine, &membership, u, guard)?
                    else {
                        continue;
                    };
                    bytes = bytes.max(sets.iter().map(|s| s.len() * PAIR_BYTES).sum());
                    if !cross_product(&sets, spec.cost, |c, w| offer(engine, c, w))? {
                        return Ok(false);
                    }
                }
            }
        }
        Ok(true)
    };
    let ended = stream();
    (bytes, ended)
}

/// `GetCommunity()` of a candidate core, over the run's one reusable
/// neighbor table.
#[expect(
    clippy::expect_used,
    reason = "every candidate core comes from a center's reach sets"
)]
fn materialize(
    graph: &Graph,
    spec: &QuerySpec,
    engine: &mut DijkstraEngine,
    table: &mut NeighborSets,
    core: &Core,
    guard: &RunGuard,
) -> Result<Community, InterruptReason> {
    Ok(
        get_community_in(graph, engine, table, core, spec.rmax, spec.cost, guard)?
            .expect("the expanding center certifies the core"),
    )
}

/// Wraps a finished run in the `Outcome` the entry points return.
fn wrap_run(run: BaselineRun) -> Outcome<BaselineRun> {
    match run.stats.interrupted {
        None => Outcome::Complete(run),
        Some(reason) => Outcome::Interrupted {
            reason,
            partial: run,
        },
    }
}

/// The `all` sink: a pool of already-output cores keeps the stream
/// duplication-free, and every new core is materialized at once.
fn enumerate_all(
    expander: Expander,
    graph: &Graph,
    spec: &QuerySpec,
    limit: Option<usize>,
    guard: &RunGuard,
) -> Result<Outcome<BaselineRun>, QueryError> {
    spec.validate_for(graph)?;
    let mut engine = DijkstraEngine::new(graph.node_count());
    let mut table = NeighborSets::try_new(spec.l(), graph.node_count())?;
    let mut stats = BaselineStats::default();
    let mut pool: HashSet<Core> = HashSet::new();
    let mut communities = Vec::new();
    let (bytes, ended) = expand(
        expander,
        graph,
        spec,
        &mut engine,
        guard,
        |engine, core, _| {
            stats.candidates += 1;
            guard.note_candidate()?;
            if pool.insert(core.clone()) {
                communities.push(materialize(graph, spec, engine, &mut table, &core, guard)?);
            } else {
                stats.duplicates += 1;
            }
            Ok(limit.is_none_or(|cap| communities.len() < cap))
        },
    );
    stats.completed = ended == Ok(true);
    stats.interrupted = ended.err();
    stats.communities = communities.len();
    stats.peak_bytes = bytes + pool.len() * (spec.l() * 4 + 32);
    Ok(wrap_run(BaselineRun { communities, stats }))
}

/// The `top-k` sink: collects every candidate core with its minimum
/// center cost, ranks, and materializes the top `k`.
fn rank_topk(
    expander: Expander,
    graph: &Graph,
    spec: &QuerySpec,
    k: usize,
    candidate_budget: Option<usize>,
    guard: &RunGuard,
) -> Result<Outcome<BaselineRun>, QueryError> {
    spec.validate_for(graph)?;
    let mut engine = DijkstraEngine::new(graph.node_count());
    let mut stats = BaselineStats::default();
    let mut best_cost: HashMap<Core, Weight> = HashMap::new();
    let (bytes, ended) = if k == 0 {
        (0, Ok(true))
    } else {
        expand(
            expander,
            graph,
            spec,
            &mut engine,
            guard,
            |_, core, cost| {
                stats.candidates += 1;
                guard.note_candidate()?;
                best_cost
                    .entry(core)
                    .and_modify(|c| {
                        stats.duplicates += 1;
                        if cost < *c {
                            *c = cost;
                        }
                    })
                    .or_insert(cost);
                Ok(candidate_budget.is_none_or(|b| stats.candidates < b))
            },
        )
    };
    stats.completed = ended == Ok(true);
    stats.interrupted = ended.err();
    stats.peak_bytes = bytes + best_cost.len() * (spec.l() * 4 + 8 + 32);
    let mut communities: Vec<Community> = Vec::new();
    // An aborted ranking would be wrong; it reports the abort instead.
    if stats.completed {
        let mut ranked: Vec<(Core, Weight)> = best_cost.into_iter().collect();
        ranked.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        ranked.truncate(k);
        let mut table = NeighborSets::try_new(spec.l(), graph.node_count())?;
        for (core, _) in ranked {
            match materialize(graph, spec, &mut engine, &mut table, &core, guard) {
                Ok(c) => communities.push(c),
                Err(reason) => {
                    stats.completed = false;
                    stats.interrupted = Some(reason);
                    break;
                }
            }
        }
    }
    stats.communities = communities.len();
    Ok(wrap_run(BaselineRun { communities, stats }))
}

/// `BUall`: bottom-up enumeration of all communities, validated and run
/// under `guard`. An interrupted run carries the communities materialized
/// before the trip.
///
/// `limit` optionally caps the number of communities materialized.
pub fn bu_all_guarded(
    graph: &Graph,
    spec: &QuerySpec,
    limit: Option<usize>,
    guard: RunGuard,
) -> Result<Outcome<BaselineRun>, QueryError> {
    enumerate_all(Expander::BottomUp, graph, spec, limit, &guard)
}

/// `TDall`: top-down enumeration of all communities; see
/// [`bu_all_guarded`] for `limit` and the interrupted-run contract.
pub fn td_all_guarded(
    graph: &Graph,
    spec: &QuerySpec,
    limit: Option<usize>,
    guard: RunGuard,
) -> Result<Outcome<BaselineRun>, QueryError> {
    enumerate_all(Expander::TopDown, graph, spec, limit, &guard)
}

/// `BUk`: bottom-up top-k, validated and run under `guard`. Cannot
/// resume — a larger `k` requires a full re-run (Exp-3). An aborted
/// ranking would be wrong, so an interrupted run carries no communities —
/// only the stats accumulated up to the trip.
///
/// `candidate_budget` aborts the run (with `stats.completed = false` and no
/// communities) once that many candidate cores have been generated; the
/// benchmark harness uses it to keep combinatorially explosive cells from
/// exhausting memory. `None` never aborts.
pub fn bu_topk_guarded(
    graph: &Graph,
    spec: &QuerySpec,
    k: usize,
    candidate_budget: Option<usize>,
    guard: RunGuard,
) -> Result<Outcome<BaselineRun>, QueryError> {
    rank_topk(Expander::BottomUp, graph, spec, k, candidate_budget, &guard)
}

/// `TDk`: top-down top-k (rank at the end; no resume); see
/// [`bu_topk_guarded`] for `candidate_budget` and the interrupted-run
/// contract.
pub fn td_topk_guarded(
    graph: &Graph,
    spec: &QuerySpec,
    k: usize,
    candidate_budget: Option<usize>,
    guard: RunGuard,
) -> Result<Outcome<BaselineRun>, QueryError> {
    rank_topk(Expander::TopDown, graph, spec, k, candidate_budget, &guard)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::collect_all;
    use comm_datasets::paper_example::{fig4_graph, fig4_keyword_nodes, fig4_table1, FIG4_RMAX};
    use std::collections::BTreeSet;

    fn fig4_spec() -> QuerySpec {
        QuerySpec::new(fig4_keyword_nodes(), Weight::new(FIG4_RMAX))
    }

    fn unguarded(out: Result<Outcome<BaselineRun>, QueryError>) -> BaselineRun {
        out.unwrap().into_value()
    }

    fn run_bu_all(g: &Graph, spec: &QuerySpec, limit: Option<usize>) -> BaselineRun {
        unguarded(bu_all_guarded(g, spec, limit, RunGuard::unlimited()))
    }

    fn run_td_all(g: &Graph, spec: &QuerySpec, limit: Option<usize>) -> BaselineRun {
        unguarded(td_all_guarded(g, spec, limit, RunGuard::unlimited()))
    }

    fn run_bu_topk(g: &Graph, spec: &QuerySpec, k: usize, budget: Option<usize>) -> BaselineRun {
        unguarded(bu_topk_guarded(g, spec, k, budget, RunGuard::unlimited()))
    }

    fn run_td_topk(g: &Graph, spec: &QuerySpec, k: usize, budget: Option<usize>) -> BaselineRun {
        unguarded(td_topk_guarded(g, spec, k, budget, RunGuard::unlimited()))
    }

    fn core_set(cs: &[Community]) -> BTreeSet<Core> {
        cs.iter().map(|c| c.core.clone()).collect()
    }

    #[test]
    fn bu_all_matches_pd_all() {
        let g = fig4_graph();
        let spec = fig4_spec();
        let pd = collect_all(&g, &spec);
        let bu = run_bu_all(&g, &spec, None);
        assert_eq!(core_set(&pd), core_set(&bu.communities));
        assert_eq!(bu.stats.communities, 5);
        assert!(bu.stats.peak_bytes > 0);
    }

    #[test]
    fn td_all_matches_pd_all() {
        let g = fig4_graph();
        let spec = fig4_spec();
        let pd = collect_all(&g, &spec);
        let td = run_td_all(&g, &spec, None);
        assert_eq!(core_set(&pd), core_set(&td.communities));
    }

    #[test]
    fn bu_duplicates_are_counted() {
        // R3 and R5 have two centers each, so their cores are generated at
        // least twice across centers → duplicates > 0.
        let g = fig4_graph();
        let run = run_bu_all(&g, &fig4_spec(), None);
        assert!(run.stats.duplicates >= 2, "{:?}", run.stats);
        assert_eq!(
            run.stats.candidates,
            run.stats.communities + run.stats.duplicates
        );
    }

    #[test]
    fn bu_topk_matches_table1_order() {
        let g = fig4_graph();
        let run = run_bu_topk(&g, &fig4_spec(), 3, None);
        let expect: Vec<Vec<u32>> = fig4_table1()
            .into_iter()
            .take(3)
            .map(|(_, core, _, _)| core.to_vec())
            .collect();
        let got: Vec<Vec<u32>> = run
            .communities
            .iter()
            .map(|c| c.core.0.iter().map(|n| n.0).collect())
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn td_topk_matches_table1_order() {
        let g = fig4_graph();
        let run = run_td_topk(&g, &fig4_spec(), 5, None);
        let costs: Vec<f64> = run.communities.iter().map(|c| c.cost.get()).collect();
        assert_eq!(costs, vec![7.0, 10.0, 11.0, 14.0, 15.0]);
    }

    #[test]
    fn limit_caps_materialization() {
        let g = fig4_graph();
        let run = run_bu_all(&g, &fig4_spec(), Some(2));
        assert_eq!(run.communities.len(), 2);
        // Early exit: enumeration stops once the cap is hit.
        assert!(run.stats.candidates <= 5);
        let td = run_td_all(&g, &fig4_spec(), Some(2));
        assert_eq!(td.communities.len(), 2);
    }

    #[test]
    fn empty_keyword_short_circuits() {
        let g = fig4_graph();
        let spec = QuerySpec::new(vec![vec![NodeId(4)], vec![]], Weight::new(8.0));
        assert!(run_bu_all(&g, &spec, None).communities.is_empty());
        assert!(run_td_all(&g, &spec, None).communities.is_empty());
        assert!(run_bu_topk(&g, &spec, 3, None).communities.is_empty());
        assert!(run_td_topk(&g, &spec, 3, None).communities.is_empty());
    }

    #[test]
    fn k_zero_returns_nothing() {
        let g = fig4_graph();
        assert!(run_bu_topk(&g, &fig4_spec(), 0, None)
            .communities
            .is_empty());
        assert!(run_td_topk(&g, &fig4_spec(), 0, None)
            .communities
            .is_empty());
    }

    #[test]
    fn candidate_budget_aborts_cleanly() {
        let g = fig4_graph();
        let run = run_bu_topk(&g, &fig4_spec(), 5, Some(2));
        assert!(!run.stats.completed);
        assert!(run.communities.is_empty());
        assert!(run.stats.candidates >= 2);
        let run = run_td_topk(&g, &fig4_spec(), 5, Some(2));
        assert!(!run.stats.completed);
        // And a generous budget completes normally.
        let ok = run_bu_topk(&g, &fig4_spec(), 5, Some(1_000_000));
        assert!(ok.stats.completed);
        assert_eq!(ok.communities.len(), 5);
    }

    #[test]
    fn guarded_baselines_interrupt_cleanly() {
        let g = fig4_graph();
        let spec = fig4_spec();
        // A zero settled budget trips inside the very first expansion.
        for out in [
            bu_all_guarded(&g, &spec, None, RunGuard::new().with_settled_budget(0)).unwrap(),
            td_all_guarded(&g, &spec, None, RunGuard::new().with_settled_budget(0)).unwrap(),
            bu_topk_guarded(&g, &spec, 3, None, RunGuard::new().with_settled_budget(0)).unwrap(),
            td_topk_guarded(&g, &spec, 3, None, RunGuard::new().with_settled_budget(0)).unwrap(),
        ] {
            assert_eq!(out.reason(), Some(InterruptReason::SettledBudgetExhausted));
            let run = out.into_value();
            assert!(run.communities.is_empty());
            assert!(!run.stats.completed);
        }
        // Unlimited guards leave the results untouched.
        let full = run_bu_all(&g, &spec, None);
        let guarded = bu_all_guarded(&g, &spec, None, RunGuard::new()).unwrap();
        assert!(guarded.is_complete());
        assert_eq!(
            core_set(&full.communities),
            core_set(&guarded.into_value().communities)
        );
    }

    #[test]
    fn guarded_baselines_reject_bad_specs() {
        let g = fig4_graph();
        let bad = QuerySpec::new(vec![vec![NodeId(9999)]], Weight::new(8.0));
        assert!(matches!(
            bu_all_guarded(&g, &bad, None, RunGuard::new()),
            Err(QueryError::NodeOutOfRange { .. })
        ));
        assert!(matches!(
            td_topk_guarded(&g, &bad, 3, None, RunGuard::new()),
            Err(QueryError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn td_memory_leaner_than_bu_on_fig4() {
        // The paper's Fig. 9(b) observation: BU keeps every node's keyword
        // sets alive, TD frees them per center.
        let g = fig4_graph();
        let bu = run_bu_all(&g, &fig4_spec(), None);
        let td = run_td_all(&g, &fig4_spec(), None);
        assert!(
            td.stats.peak_bytes <= bu.stats.peak_bytes,
            "TD {} should not exceed BU {}",
            td.stats.peak_bytes,
            bu.stats.peak_bytes
        );
    }
}
