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
//! state `Frontier::expand` subdivides from, so the `l` single-source
//! sweeps of a core run once per community — fewer when a dimension is
//! already pinned to the same node, which the shell remembers.

use crate::error::QueryError;
use crate::get_community::community_of_pinned;
use crate::neighbor::{BestCore, NeighborSets};
use crate::types::{Community, Core, CostFn, QuerySpec};
use comm_graph::{DijkstraEngine, Graph, InterruptReason, NodeId, Outcome, RunGuard, Weight};

/// The search-space bookkeeping of one enumerator: the cores still to be
/// emitted and the subdivision that finds their successors.
pub trait Frontier: Default {
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

    /// Pins dimension `i`'s neighbor set to the single node `v` — no sweep
    /// if it already is.
    fn pin_dim(&mut self, i: usize, v: NodeId) -> Result<(), InterruptReason> {
        if self.pinned[i] == Some(v) {
            return Ok(());
        }
        self.repin_dim(i, v)
    }

    /// Pins dimension `i` to `v` by a fresh sweep whatever it holds — the
    /// from-scratch step of the naive Lawler ablation.
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

    /// Recomputes dimension `i` as `Neighbor(S_i, Rmax)`. `V_i` is sorted,
    /// so the seeds reach the sweep in the order the deterministic
    /// nearest-source tie-break needs.
    pub(crate) fn recompute_from_s(&mut self, i: usize) -> Result<(), InterruptReason> {
        self.pinned[i] = None;
        let excluded = &self.excluded[i];
        let seeds = self.v_sets[i]
            .iter()
            .copied()
            .filter(|v| excluded.binary_search(v).is_err());
        self.ns.recompute_dim_guarded(
            self.graph,
            &mut self.engine,
            i,
            seeds,
            self.rmax,
            &self.guard,
        )
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
    /// `BestCore()` (lines 1–5 of Algorithm 1, 1–6 of Algorithm 5).
    fn start(&mut self) -> Result<(), InterruptReason> {
        let shell = &mut self.shell;
        shell.started = true;
        (0..shell.l()).try_for_each(|i| shell.recompute_from_s(i))?;
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

    /// Drains an enumerator over the dense scenario, checking after every
    /// `next()` that the live table is bit-equal to a from-scratch rebuild
    /// of its own `dist`. Returns how many communities that covered.
    fn drift_free_run<F: Frontier>() -> usize {
        let (g, spec) = dense_scenario();
        let mut it = Enumerator::<F>::try_new(&g, &spec).unwrap();
        while it.next().is_some() {
            it.shell.ns.assert_history_free();
        }
        it.emitted()
    }

    #[test]
    fn totals_do_not_drift_over_long_enumerations() {
        // ROADMAP item 1's drift rung: hundreds of pins, exclusions and
        // restores over fractional weights, on all three frontiers.
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
        assert_eq!(drained::<CanList>(), (441, 1760));
        assert_eq!(drained::<Dfs>(), (441, 1102));
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
        // Any other sweep of the dimension forgets the pin.
        shell.recompute_from_s(0).unwrap();
        shell.pin_dim(0, v).unwrap();
        assert_eq!(shell.ns.sweeps(), swept + 2);
        // The from-scratch ablation never takes the shortcut.
        shell.repin_dim(0, v).unwrap();
        assert_eq!(shell.ns.sweeps(), swept + 3);
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
