//! The enumeration shell shared by `COMM-all`, `COMM-k` and the naive
//! Lawler variant.
//!
//! The paper presents Algorithms 1 and 5 as two drivers over the same
//! three procedures — `Neighbor()`, `BestCore()`, `GetCommunity()`. The
//! [`Shell`] owns everything those drivers have in common: the query, the
//! candidate sets `S_i`, the neighbor table, the Dijkstra engine and the
//! [`RunGuard`]. [`Enumerator`] is the one `next()` skeleton — govern,
//! pin, materialise, advance, track bytes, emit — and a [`Frontier`]
//! supplies what differs: which core is emitted next and how its subspace
//! is subdivided afterwards.
//!
//! Every `next()` pins the neighbor table to the popped core *first*. The
//! pinned table is both `GetCommunity()`'s input (centers, cost and sink
//! distances are read from it, see [`crate::get_community`]) and the
//! state `Frontier::expand` subdivides from, so a core's `l` pins run
//! once per community — fewer when a dimension is already pinned to the
//! same node, which the shell remembers.
//!
//! The per-answer sweep budget: `start()` sweeps each `Neighbor(V_i)`
//! once and keeps it, and only a seed's *first* pin sweeps — later pins of
//! it, in any dimension, are copies of its memoised `Neighbor({c})`
//! (`NeighborSets::pin_guarded`). After that a community costs one
//! single-source sweep per seed of its core never pinned before, plus one
//! *cell* re-sweep per dimension its `expand` excludes a node from —
//! [`Shell::recompute_from_s`] refills from the kept `Neighbor(V_i)`
//! (`NeighborSets::refill_guarded`), so putting a dimension back to
//! `S_i = V_i` sweeps nothing. A dimension is never filled here: all three
//! fills live in `neighbor.rs`.

use crate::error::QueryError;
use crate::get_community::community_of_pinned;
use crate::neighbor::{BestCore, NeighborSets};
use crate::types::{Community, Core, CostFn, QuerySpec};
use comm_graph::{DijkstraEngine, Graph, InterruptReason, NodeId, Outcome, RunGuard, Weight};

/// The search-space bookkeeping of one enumerator: the cores still to be
/// emitted and the subdivision that finds their successors.
pub trait Frontier: Default {
    /// Whether `expand` refills through [`Shell::recompute_from_s`] often
    /// enough to be worth keeping each `Neighbor(V_i)` resident for, and
    /// every pin swept. The from-scratch ablation says no, and every
    /// refill and every pin of it is a sweep.
    const KEEPS_BASE: bool = true;

    /// Receives the best core of the whole space `V_1 × … × V_l`.
    fn seed(&mut self, best: BestCore);

    /// Removes and returns the next core to emit.
    fn pop(&mut self) -> Option<Core>;

    /// Subdivides the subspace of the core just popped and records the
    /// best core of each non-empty part. On entry every dimension of the
    /// shell's neighbor table is pinned to `popped`.
    fn expand(&mut self, shell: &mut Shell<'_>, popped: &Core) -> Result<(), InterruptReason>;

    /// Logical bytes held, charged to the guard's byte budget.
    fn byte_size(&self) -> usize;
}

/// Query state and `Neighbor()` machinery common to every enumerator.
pub struct Shell<'g> {
    graph: &'g Graph,
    rmax: Weight,
    cost_fn: CostFn,
    /// `V_i`, immutable (sorted, deduplicated).
    v_sets: Vec<Vec<NodeId>>,
    /// `V_i − S_i`, sorted: the currently admissible subset `S_i` is `V_i`
    /// minus this exclusion list.
    excluded: Vec<Vec<NodeId>>,
    /// The node dimension `i`'s neighbor set is currently pinned to, if
    /// its last sweep was a completed single-source pin.
    pinned: Vec<Option<NodeId>>,
    ns: NeighborSets,
    engine: DijkstraEngine,
    guard: RunGuard,
    emitted: usize,
    peak_bytes: usize,
    started: bool,
    /// Set once the guard trips; the iterator then yields `None` forever.
    interrupted: Option<InterruptReason>,
}

impl Shell<'_> {
    /// The number of keywords `l`.
    pub(crate) fn l(&self) -> usize {
        self.v_sets.len()
    }

    /// `BestCore()` over the current neighbor sets.
    pub(crate) fn best_core(&self) -> Option<BestCore> {
        self.ns.best_core_with(self.cost_fn)
    }

    /// Pins dimension `i`'s neighbor set to the single node `v` — nothing
    /// to do if it already is, a copy if `v` was pinned before and pins
    /// are memoised ([`NeighborSets::pin_guarded`]), a sweep otherwise.
    fn pin_dim(&mut self, i: usize, v: NodeId) -> Result<(), InterruptReason> {
        if self.pinned[i] == Some(v) {
            return Ok(());
        }
        self.pinned[i] = None;
        let (graph, rmax) = (self.graph, self.rmax);
        self.ns
            .pin_guarded(graph, &mut self.engine, i, v, rmax, &self.guard)?;
        #[cfg(test)]
        self.ns.assert_dim_is_sweep_of(graph, i, [v], rmax);
        self.pinned[i] = Some(v);
        Ok(())
    }

    /// Pins dimension `i` to `v` by a fresh sweep whatever it holds — the
    /// from-scratch step of the naive Lawler ablation, never the memo.
    pub(crate) fn repin_dim(&mut self, i: usize, v: NodeId) -> Result<(), InterruptReason> {
        self.pinned[i] = None;
        self.ns.recompute_dim_guarded(
            self.graph,
            &mut self.engine,
            i,
            [v],
            self.rmax,
            &self.guard,
        )?;
        self.pinned[i] = Some(v);
        Ok(())
    }

    /// Pins every dimension to `core`'s node.
    fn pin(&mut self, core: &Core) -> Result<(), InterruptReason> {
        (0..self.l()).try_for_each(|i| self.pin_dim(i, core.get(i)))
    }

    /// Recomputes dimension `i` as `Neighbor(S_i, Rmax)`: repaired from
    /// the kept `Neighbor(V_i)` when `start()` kept one, swept otherwise
    /// (`V_i` is sorted, so the seeds reach the sweep in the order the
    /// deterministic nearest-source tie-break needs).
    pub(crate) fn recompute_from_s(&mut self, i: usize) -> Result<(), InterruptReason> {
        self.pinned[i] = None;
        let refilled = self.ns.refill_guarded(
            self.graph,
            &mut self.engine,
            i,
            &self.v_sets[i],
            &self.excluded[i],
            self.rmax,
            &self.guard,
        );
        #[cfg(test)]
        if refilled.is_ok() {
            self.assert_certified(i);
        }
        refilled
    }

    /// The certification rung, run after every refill of every unit test
    /// (and, in `pin_dim`, after every pin, for `{v}`): dimension `i` is
    /// bit-equal, in `dist`, `src` and members, to a sweep of `S_i` from
    /// scratch on a table and an engine of its own (the heap kernel: the
    /// reference one, and the cheap one to construct).
    #[cfg(test)]
    fn assert_certified(&self, i: usize) {
        let excluded = &self.excluded[i];
        let s_i = self.v_sets[i].iter().copied();
        let seeds = s_i.filter(|v| excluded.binary_search(v).is_err());
        self.ns
            .assert_dim_is_sweep_of(self.graph, i, seeds, self.rmax);
    }

    /// `S_i ← S_i − {v}`.
    pub(crate) fn exclude(&mut self, i: usize, v: NodeId) {
        if let Err(at) = self.excluded[i].binary_search(&v) {
            self.excluded[i].insert(at, v);
        }
    }

    /// `S_i ← S_i ∪ {v}`.
    pub(crate) fn readmit(&mut self, i: usize, v: NodeId) {
        if let Ok(at) = self.excluded[i].binary_search(&v) {
            self.excluded[i].remove(at);
        }
    }

    /// `V_i − S_i`, sorted.
    pub(crate) fn excluded(&self, i: usize) -> &[NodeId] {
        &self.excluded[i]
    }

    /// `S_i ← V_i`.
    pub(crate) fn reset(&mut self, i: usize) {
        self.excluded[i].clear();
    }

    /// `GetCommunity()` of `core`, read off the table pinned to it.
    #[expect(
        clippy::expect_used,
        reason = "BestCore only returns cores certified by a center"
    )]
    fn materialise(&mut self, core: &Core) -> Result<Community, InterruptReason> {
        let community = community_of_pinned(
            self.graph,
            &mut self.engine,
            &self.ns,
            core,
            self.rmax,
            self.cost_fn,
            &self.guard,
        )?;
        Ok(community.expect("a core returned by BestCore always has a center"))
    }

    /// Records the bytes held by the neighbor table (member lists
    /// included), the `V_i` sets with their exclusion lists and the
    /// frontier, and charges them to the guard.
    fn track_memory(&mut self, frontier_bytes: usize) -> Result<(), InterruptReason> {
        let candidates: usize = self.v_sets.iter().chain(&self.excluded).map(Vec::len).sum();
        let bytes = self.ns.byte_size()
            + frontier_bytes
            + candidates * std::mem::size_of::<NodeId>()
            + self.pinned.len() * std::mem::size_of::<Option<NodeId>>();
        self.peak_bytes = self.peak_bytes.max(bytes);
        self.guard.check_bytes(bytes)
    }
}

/// A polynomial-delay community iterator: the shared enumeration shell
/// driven by one frontier `F`. Named through its three aliases —
/// [`CommAll`](crate::CommAll), [`CommK`](crate::CommK) and
/// [`LawlerK`](crate::LawlerK) — which differ only in `F`.
pub struct Enumerator<'g, F> {
    shell: Shell<'g>,
    pub(crate) frontier: F,
}

impl<'g, F: Frontier> Enumerator<'g, F> {
    /// Validates `spec` against `graph` and prepares the enumeration; no
    /// sweep runs until the first `next()`.
    pub fn try_new(graph: &'g Graph, spec: &QuerySpec) -> Result<Self, QueryError> {
        spec.validate_for(graph)?;
        // `QuerySpec`'s fields are public: re-establish sorted, distinct
        // `V_i` rather than trust the caller.
        let mut v_sets = spec.keyword_nodes.clone();
        for set in &mut v_sets {
            set.sort_unstable();
            set.dedup();
        }
        Ok(Enumerator {
            shell: Shell {
                graph,
                rmax: spec.rmax,
                cost_fn: spec.cost,
                excluded: vec![Vec::new(); v_sets.len()],
                pinned: vec![None; v_sets.len()],
                v_sets,
                ns: NeighborSets::try_new(spec.l(), graph.node_count())?,
                engine: DijkstraEngine::new(graph.node_count()),
                guard: RunGuard::unlimited(),
                emitted: 0,
                peak_bytes: 0,
                started: false,
                interrupted: None,
            },
            frontier: F::default(),
        })
    }

    /// Attaches an execution governor. The guard is consulted per settled
    /// Dijkstra node, per emitted community, and on memory high-water
    /// marks; when it trips the iterator stops (yielding an exact prefix
    /// of the unguarded enumeration) and [`interrupted`](Self::interrupted)
    /// reports why.
    pub fn with_guard(mut self, guard: RunGuard) -> Self {
        self.shell.guard = guard;
        self
    }

    /// Why enumeration stopped early, if the guard tripped.
    pub fn interrupted(&self) -> Option<InterruptReason> {
        self.shell.interrupted
    }

    /// Number of communities emitted so far.
    pub fn emitted(&self) -> usize {
        self.shell.emitted
    }

    /// Peak logical bytes held by algorithm-owned structures: the
    /// `O(l·n)` neighbor table with its member lists, the `V_i` sets with
    /// their exclusion lists, and the frontier.
    pub fn peak_memory_bytes(&self) -> usize {
        self.shell.peak_bytes
    }

    /// Total `Neighbor()` sweeps run so far — the paper's per-answer cost
    /// unit: `O(l)` per community for `COMM-all` and `COMM-k`, `O(l²)`
    /// for the naive Lawler variant. `GetCommunity()`'s forward sweep from
    /// the centers is not a `Neighbor()` call and is not counted.
    pub fn neighbor_sweeps(&self) -> usize {
        self.shell.ns.sweeps()
    }

    /// Drains up to `k` communities into the `Outcome` the `*_guarded`
    /// entry points return: an interrupted run carries the exact prefix
    /// emitted before the trip.
    pub(crate) fn into_outcome(mut self, k: usize) -> Outcome<Vec<Community>> {
        let out: Vec<Community> = self.by_ref().take(k).collect();
        match self.interrupted() {
            None => Outcome::Complete(out),
            Some(reason) => Outcome::Interrupted {
                reason,
                partial: out,
            },
        }
    }

    /// The `l` initial `Neighbor(V_i, Rmax)` sweeps and the first
    /// `BestCore()` (lines 1–5 of Algorithm 1, 1–6 of Algorithm 5). Each
    /// swept `Neighbor(V_i)` is kept for `expand`'s refills to repair.
    fn start(&mut self) -> Result<(), InterruptReason> {
        let shell = &mut self.shell;
        shell.started = true;
        for i in 0..shell.l() {
            shell.recompute_from_s(i)?;
            if F::KEEPS_BASE {
                shell.ns.keep_base(shell.graph, i, shell.rmax);
            }
        }
        if let Some(best) = shell.best_core() {
            self.frontier.seed(best);
        }
        shell.track_memory(self.frontier.byte_size())
    }

    /// One emission: pop, govern, pin, materialise, subdivide.
    fn step(&mut self) -> Result<Option<Community>, InterruptReason> {
        if !self.shell.started {
            self.start()?;
        }
        let Some(core) = self.frontier.pop() else {
            return Ok(None);
        };
        // Candidate budget k ⇒ exactly k communities emitted.
        self.shell.guard.note_candidate()?;
        let shell = &mut self.shell;
        // A trip while pinning or materialising ends the output before
        // this community.
        shell.pin(&core)?;
        let community = shell.materialise(&core)?;
        // A trip while subdividing still emits the community already
        // materialized: output stays an exact prefix.
        shell.interrupted = self
            .frontier
            .expand(shell, &core)
            .and_then(|()| shell.track_memory(self.frontier.byte_size()))
            .err();
        shell.emitted += 1;
        Ok(Some(community))
    }
}

impl<F: Frontier> Iterator for Enumerator<'_, F> {
    type Item = Community;

    fn next(&mut self) -> Option<Community> {
        if self.shell.interrupted.is_some() {
            return None;
        }
        self.step().unwrap_or_else(|reason| {
            self.shell.interrupted = Some(reason);
            None
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm_all::Dfs;
    use crate::comm_k::CanList;
    use crate::lawler::FromScratch;
    use crate::testing::dense_scenario;
    use comm_graph::weight::index_to_u32;
    use comm_graph::{GraphBuilder, SplitMix64};

    /// Drains an enumerator, checking after every `next()` that the live
    /// table's counts and member lists describe its own `dist` exactly —
    /// and, inside every `recompute_from_s` and every pin, that the
    /// dimension filled is bit-equal to a sweep of its seeds
    /// (`assert_certified`). Returns the cores and cost bits emitted and
    /// the sweeps that took.
    fn certified_run<F: Frontier>(mut it: Enumerator<'_, F>) -> (Vec<(Core, u64)>, usize) {
        let mut emitted = Vec::new();
        while let Some(c) = it.next() {
            it.shell.ns.assert_history_free();
            emitted.push((c.core, c.cost.get().to_bits()));
        }
        (emitted, it.neighbor_sweeps())
    }

    fn drift_free_run<F: Frontier>() -> usize {
        let (g, spec) = dense_scenario();
        certified_run(Enumerator::<F>::try_new(&g, &spec).unwrap())
            .0
            .len()
    }

    #[test]
    fn totals_do_not_drift_over_long_enumerations() {
        // ROADMAP item 1's drift rung: hundreds of pins, exclusions and
        // restores over fractional weights, on all three frontiers —
        // counts exact, member lists exact and `sum()` bit-equal to its
        // dimension-order fold after every `next()`.
        assert!(drift_free_run::<CanList>() >= 300);
        assert!(drift_free_run::<Dfs>() >= 300);
        assert!(drift_free_run::<FromScratch>() >= 300);
    }

    /// `start()` is Algorithm 1 lines 1–5: one `Neighbor(V_i, Rmax)` per
    /// dimension through the one fill path, and nothing else.
    fn start_is_l_unpinned_sweeps<F: Frontier>() {
        let (g, spec) = dense_scenario();
        let mut it = Enumerator::<F>::try_new(&g, &spec).unwrap();
        it.start().unwrap();
        assert_eq!(it.neighbor_sweeps(), spec.l());
        assert!(it.shell.pinned.iter().all(Option::is_none));
        it.shell.ns.assert_history_free();
    }

    #[test]
    fn start_runs_exactly_l_sweeps_and_pins_nothing() {
        start_is_l_unpinned_sweeps::<CanList>();
        start_is_l_unpinned_sweeps::<Dfs>();
        start_is_l_unpinned_sweeps::<FromScratch>();
    }

    #[test]
    fn neighbor_sweeps_do_not_depend_on_the_forward_sweep() {
        // `GetCommunity()`'s forward sweep is no `Neighbor()` call, and
        // bounding it changes no community, so no refill moves: the
        // totals below were counted with the sweep unbounded.
        fn drained<F: Frontier>() -> (usize, usize) {
            let (g, spec) = dense_scenario();
            let mut it = Enumerator::<F>::try_new(&g, &spec).unwrap();
            it.by_ref().for_each(drop);
            (it.emitted(), it.neighbor_sweeps())
        }
        // COMM-k and COMM-all count first pins and cell re-sweeps only —
        // putting a dimension back to `V_i` is a copy (1760 and 1102 when
        // it was a sweep), and so is a pin of a seed pinned before (1688
        // and 1029 when it was a sweep). That leaves the two equal: both
        // pin the same seeds and try each child subspace of one Lawler
        // partition once. The ablation sweeps everything, as it always did.
        assert_eq!(drained::<CanList>(), (441, 537));
        assert_eq!(drained::<Dfs>(), (441, 537));
        assert_eq!(drained::<FromScratch>(), (441, 2714));
    }

    #[test]
    fn pinning_a_pinned_dimension_runs_no_sweep() {
        let (g, spec) = dense_scenario();
        let mut it = Enumerator::<CanList>::try_new(&g, &spec).unwrap();
        let first = it.next().unwrap();
        let shell = &mut it.shell;
        let v = first.core.get(0);
        shell.repin_dim(0, v).unwrap();
        let swept = shell.ns.sweeps();
        shell.pin_dim(0, v).unwrap();
        assert_eq!(shell.ns.sweeps(), swept, "already pinned to {v}");
        // Any other fill of the dimension forgets the pin — here a copy
        // of the kept `Neighbor(V_0)` — and `v`, pinned by `next()`
        // already, comes back from the memo: no sweep either way.
        assert!(shell.excluded[0].is_empty());
        shell.recompute_from_s(0).unwrap();
        assert_eq!(shell.ns.sweeps(), swept, "S_0 = V_0 is a copy");
        shell.pin_dim(0, v).unwrap();
        assert_eq!(shell.ns.sweeps(), swept, "{v} was pinned before");
        // A seed's first pin is its one sweep, in any dimension.
        let w = *shell.v_sets[0].iter().rev().find(|&&w| w != v).unwrap();
        shell.pin_dim(0, w).unwrap();
        assert_eq!(shell.ns.sweeps(), swept + 1, "first pin of {w}");
        shell.pin_dim(0, v).unwrap();
        shell.pin_dim(0, w).unwrap();
        assert_eq!(shell.ns.sweeps(), swept + 1);
        // Taking a seed away re-sweeps its cell, once; putting it back
        // writes the cell back.
        shell.exclude(0, v);
        shell.recompute_from_s(0).unwrap();
        assert_eq!(shell.ns.sweeps(), swept + 2);
        shell.readmit(0, v);
        shell.recompute_from_s(0).unwrap();
        assert_eq!(shell.ns.sweeps(), swept + 2);
        // The from-scratch ablation never takes either shortcut.
        shell.repin_dim(0, v).unwrap();
        assert_eq!(shell.ns.sweeps(), swept + 3);
    }

    /// A small random query: `weights` drawn per edge, one to three
    /// keyword sets of one to four nodes, a radius of a few edges — half a
    /// step off the lattice the path sums live on, so that no sum lands
    /// within an ulp of it (ROADMAP item 1's hazard is not this test's).
    fn random_query(rng: &mut SplitMix64, weights: &[f64]) -> (Graph, QuerySpec) {
        let n = 4 + rng.index(12);
        let mut b = GraphBuilder::new(n);
        let node = |rng: &mut SplitMix64| NodeId(index_to_u32(rng.index(n)));
        for _ in 0..n + rng.index(3 * n) {
            let w = Weight::new(weights[rng.index(weights.len())]);
            b.add_edge(node(rng), node(rng), w);
        }
        let sets = (0..1 + rng.index(3))
            .map(|_| (0..1 + rng.index(4)).map(|_| node(rng)).collect())
            .collect();
        let rmax = Weight::new(0.25 + 0.1 * rng.index(8) as f64);
        (b.build(), QuerySpec::new(sets, rmax))
    }

    /// One frontier over `cases` random queries, each enumerated twice
    /// under the certification rung: as built, and with the kept bases
    /// dropped after `start()` so that every refill is a sweep. Returns
    /// the sweeps both ways, and how many runs kept a base.
    fn repaired_against_swept<F: Frontier>(cases: u64, weights: &[f64]) -> (usize, usize, usize) {
        let (mut repaired, mut swept, mut kept) = (0, 0, 0);
        SplitMix64::for_each_case(cases, |rng| {
            let (g, spec) = random_query(rng, weights);
            let as_built = Enumerator::<F>::try_new(&g, &spec).unwrap();
            let mut all_sweeps = Enumerator::<F>::try_new(&g, &spec).unwrap();
            all_sweeps.start().unwrap();
            kept += usize::from(all_sweeps.shell.ns.keeps_base(0));
            all_sweeps.shell.ns.forget_bases();
            let (ours, ours_sweeps) = certified_run(as_built);
            let (theirs, their_sweeps) = certified_run(all_sweeps);
            assert_eq!(ours, theirs);
            assert!(ours_sweeps <= their_sweeps);
            repaired += ours_sweeps;
            swept += their_sweeps;
        });
        (repaired, swept, kept)
    }

    #[test]
    fn repairs_certify_on_tie_heavy_graphs() {
        // Few distinct positive weights: equal distances, and so contested
        // `src` labels, everywhere; every relaxation makes progress, so a
        // base is kept and restores stop being sweeps. 5 000 graphs, each
        // enumerated four times, every refill certified as it happens.
        let tie_heavy = [0.1, 0.2, 0.3, 0.5];
        let (repaired, swept, kept) = repaired_against_swept::<CanList>(5_000, &tie_heavy);
        assert_eq!(kept, 5_000);
        assert!(repaired < swept * 9 / 10, "COMM-k {repaired} vs {swept}");
        let (repaired, swept, kept) = repaired_against_swept::<Dfs>(5_000, &tie_heavy);
        assert_eq!(kept, 5_000);
        assert!(repaired < swept * 9 / 10, "COMM-all {repaired} vs {swept}");
        // The ablation keeps nothing and sweeps the same either way.
        let (repaired, swept, kept) = repaired_against_swept::<FromScratch>(200, &tie_heavy);
        assert_eq!((repaired, kept), (swept, 0));
    }

    #[test]
    fn edges_that_make_no_progress_take_the_fallback() {
        // The same family with zero weights mixed in, then with weights an
        // addition absorbs (`0.1 + 1e-18 == 0.1`): the pop order is no
        // longer global, a repair would not equal a sweep, and none is
        // attempted — whenever such an edge was drawn no base is kept and
        // the sweep counts are those of sweeping everything.
        for (cases, stalling) in [(5_000, 0.0), (100, 1e-18)] {
            let weights = [stalling, 0.1, 0.2, 0.3, 0.5];
            let (mut fallbacks, mut repairs) = (0, 0);
            SplitMix64::for_each_case(cases, |rng| {
                let (g, spec) = random_query(rng, &weights);
                let stalls = g.edges().any(|(_, _, w)| w < Weight::new(0.1));
                assert_eq!(
                    started::<CanList>(&g, &spec).shell.ns.keeps_base(0),
                    !stalls
                );
                assert_eq!(started::<Dfs>(&g, &spec).shell.ns.keeps_base(0), !stalls);
                fallbacks += usize::from(stalls);
                repairs += usize::from(!stalls);
                certified_run(Enumerator::<CanList>::try_new(&g, &spec).unwrap());
                certified_run(Enumerator::<Dfs>::try_new(&g, &spec).unwrap());
            });
            assert!(fallbacks >= cases as usize * 4 / 5 && repairs > 0);
        }
        let (repaired, swept, kept) = repaired_against_swept::<CanList>(200, &[0.0, 0.2]);
        assert_eq!(repaired, swept);
        assert!(kept < 10, "{kept} of 200 graphs drew no zero-weight edge");
    }

    fn started<'g, F: Frontier>(g: &'g Graph, spec: &QuerySpec) -> Enumerator<'g, F> {
        let mut it = Enumerator::<F>::try_new(g, spec).unwrap();
        it.start().unwrap();
        it
    }

    #[test]
    fn the_progress_gate_is_what_keeps_the_gadget_right() {
        // DESIGN.md "Repairing `Neighbor()`": five nodes, one zero-weight
        // edge, V = {0, 2, 4}. Emitting core [0] excludes 0; a sweep of
        // {2, 4} pops (0,2), (0,4), (0,1) and gives node 3 to seed 2, a
        // repair would queue node 1 from the start and give it to seed 4.
        // The gate declines the base, so the refill is that sweep — with
        // the gate removed `assert_certified` fails here, on `src`.
        let mut b = GraphBuilder::new(5);
        for (u, v, w) in [(1, 4, 0.0), (3, 0, 0.1), (3, 1, 0.2), (3, 2, 0.2)] {
            b.add_edge(NodeId(u), NodeId(v), Weight::new(w));
        }
        let g = b.build();
        let v = vec![NodeId(0), NodeId(2), NodeId(4)];
        let spec = QuerySpec::new(vec![v], Weight::new(0.3));
        let mut it = Enumerator::<CanList>::try_new(&g, &spec).unwrap();
        assert_eq!(it.next().unwrap().core, Core(vec![NodeId(0)]));
        assert_eq!(it.shell.ns.src(0, NodeId(3)), Some(NodeId(2)));
        assert!(!it.shell.ns.keeps_base(0));
        certified_run(Enumerator::<Dfs>::try_new(&g, &spec).unwrap());
        // Make the edge progress and the repair is taken, and right.
        let mut b = GraphBuilder::new(5);
        for (u, v, w) in [(1, 4, 0.05), (3, 0, 0.1), (3, 1, 0.2), (3, 2, 0.2)] {
            b.add_edge(NodeId(u), NodeId(v), Weight::new(w));
        }
        let g = b.build();
        assert!(started::<CanList>(&g, &spec).shell.ns.keeps_base(0));
        certified_run(Enumerator::<CanList>::try_new(&g, &spec).unwrap());
        certified_run(Enumerator::<Dfs>::try_new(&g, &spec).unwrap());
    }

    #[test]
    fn fig4_and_the_dense_graph_certify_on_every_frontier() {
        use comm_datasets::paper_example::{fig4_graph, fig4_keyword_nodes, FIG4_RMAX};
        let fig4 = QuerySpec::new(fig4_keyword_nodes(), Weight::new(FIG4_RMAX));
        for (g, spec) in [(fig4_graph(), fig4), dense_scenario()] {
            let (k, k_sweeps) = certified_run(Enumerator::<CanList>::try_new(&g, &spec).unwrap());
            let (all, _) = certified_run(Enumerator::<Dfs>::try_new(&g, &spec).unwrap());
            let (naive, naive_sweeps) =
                certified_run(Enumerator::<FromScratch>::try_new(&g, &spec).unwrap());
            assert_eq!(k, naive);
            assert_eq!(k.len(), all.len());
            assert!(k_sweeps < naive_sweeps);
            assert!(started::<Dfs>(&g, &spec).shell.ns.keeps_base(0));
            assert!(!started::<FromScratch>(&g, &spec).shell.ns.keeps_base(0));
        }
    }

    #[test]
    fn exclusion_lists_keep_seed_order_sorted() {
        let (g, spec) = dense_scenario();
        let mut it = Enumerator::<Dfs>::try_new(&g, &spec).unwrap();
        let shell = &mut it.shell;
        let v = shell.v_sets[0].clone();
        for &x in [v[5], v[1], v[5], v[3]].iter() {
            shell.exclude(0, x);
        }
        assert_eq!(shell.excluded[0], vec![v[1], v[3], v[5]]);
        shell.readmit(0, v[3]);
        shell.readmit(0, v[3]);
        assert_eq!(shell.excluded[0], vec![v[1], v[5]]);
        // Dimension 0 is swept from exactly V_0 − {v1, v5}.
        shell.recompute_from_s(0).unwrap();
        for (k, &x) in v.iter().enumerate() {
            let admitted = k != 1 && k != 5;
            assert_eq!(shell.ns.src(0, x) == Some(x), admitted, "seed {x}");
        }
        shell.reset(0);
        assert!(shell.excluded[0].is_empty());
    }
}
