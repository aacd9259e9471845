//! The enumeration shell shared by `COMM-all`, `COMM-k` and the naive
//! Lawler variant.
//!
//! The paper presents Algorithms 1 and 5 as two drivers over the same
//! three procedures — `Neighbor()`, `BestCore()`, `GetCommunity()`. The
//! [`Shell`] owns everything those drivers have in common: the query, the
//! candidate sets `S_i`, the neighbor table, the Dijkstra engine and the
//! [`RunGuard`]. [`Enumerator`] is the one `next()` skeleton — govern,
//! materialise, advance, track bytes, emit — and a [`Frontier`] supplies
//! what differs: which core is emitted next and how its subspace is
//! subdivided afterwards.

use crate::error::QueryError;
use crate::get_community::get_community_guarded;
use crate::neighbor::{BestCore, NeighborSets};
use crate::types::{Community, Core, CostFn, QuerySpec};
use comm_graph::{
    DijkstraEngine, EnginePool, Graph, InterruptReason, NodeId, Outcome, Parallelism, RunGuard,
    Weight,
};
use std::collections::BTreeSet;

/// The search-space bookkeeping of one enumerator: the cores still to be
/// emitted and the subdivision that finds their successors.
pub trait Frontier: Default {
    /// Receives the best core of the whole space `V_1 × … × V_l`.
    fn seed(&mut self, best: BestCore);

    /// Removes and returns the next core to emit.
    fn pop(&mut self) -> Option<Core>;

    /// Subdivides the subspace of the core just popped and records the
    /// best core of each non-empty part.
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
    /// `S_i`: the currently admissible subset of `V_i`.
    s_sets: Vec<BTreeSet<NodeId>>,
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

    /// Pins dimension `i`'s neighbor set to the single node `v`.
    pub(crate) fn pin_dim(&mut self, i: usize, v: NodeId) -> Result<(), InterruptReason> {
        self.ns
            .recompute_dim_guarded(self.graph, &mut self.engine, i, [v], self.rmax, &self.guard)
    }

    /// Pins every dimension to `core`'s node.
    pub(crate) fn pin(&mut self, core: &Core) -> Result<(), InterruptReason> {
        (0..self.l()).try_for_each(|i| self.pin_dim(i, core.get(i)))
    }

    /// Recomputes dimension `i` as `Neighbor(S_i, Rmax)`.
    pub(crate) fn recompute_from_s(&mut self, i: usize) -> Result<(), InterruptReason> {
        let seeds: Vec<NodeId> = self.s_sets[i].iter().copied().collect();
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
        self.s_sets[i].remove(&v);
    }

    /// `S_i ← S_i ∪ {v}`.
    pub(crate) fn readmit(&mut self, i: usize, v: NodeId) {
        self.s_sets[i].insert(v);
    }

    /// `S_i ← V_i`.
    pub(crate) fn reset(&mut self, i: usize) {
        self.s_sets[i] = self.v_sets[i].iter().copied().collect();
    }

    /// Records the bytes held by the neighbor table, the `S_i` sets and
    /// the frontier, and charges them to the guard.
    fn track_memory(&mut self, frontier_bytes: usize) -> Result<(), InterruptReason> {
        let s_bytes: usize = self
            .s_sets
            .iter()
            .map(|s| s.len() * std::mem::size_of::<NodeId>() * 2)
            .sum();
        let bytes = self.ns.byte_size() + frontier_bytes + s_bytes;
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
        let s_sets: Vec<BTreeSet<NodeId>> = spec
            .keyword_nodes
            .iter()
            .map(|v| v.iter().copied().collect())
            .collect();
        Ok(Enumerator {
            shell: Shell {
                graph,
                rmax: spec.rmax,
                cost_fn: spec.cost,
                v_sets: s_sets.iter().map(|s| s.iter().copied().collect()).collect(),
                s_sets,
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
    /// `O(l·n)` neighbor table, the `S_i` sets and the frontier.
    pub fn peak_memory_bytes(&self) -> usize {
        self.shell.peak_bytes
    }

    /// Total `Neighbor()` sweeps run so far — the paper's per-answer cost
    /// unit: `O(l)` per community for `COMM-all` and `COMM-k`, `O(l²)`
    /// for the naive Lawler variant.
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
        shell.ns.recompute_all_guarded(
            shell.graph,
            EnginePool::global(),
            &shell.v_sets,
            shell.rmax,
            &shell.guard,
            Parallelism::serial(),
        )?;
        if let Some(best) = shell.best_core() {
            self.frontier.seed(best);
        }
        shell.track_memory(self.frontier.byte_size())
    }

    /// One emission: pop, govern, materialise, subdivide.
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
        let community = get_community_guarded(
            shell.graph,
            &mut shell.engine,
            &core,
            shell.rmax,
            shell.cost_fn,
            &shell.guard,
        )?
        // xtask-allow: no_panics — BestCore only returns cores certified by a center
        .expect("a core returned by BestCore always has a center");
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
