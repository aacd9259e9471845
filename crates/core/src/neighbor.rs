//! `Neighbor()` (Algorithm 2) and `BestCore()` (Algorithm 3).
//!
//! [`NeighborSets`] keeps, for each node `u` and each keyword dimension `i`,
//! the nearest currently-admissible node containing `k_i` (`src(N_i, u)`)
//! and its distance (`min(N_i, u)`), plus the per-node keyword counter the
//! paper describes for `BestCore`'s scan.
//!
//! Nothing derived from `dist` is stored but `count[u]`, the number of
//! dimensions holding `u`, an integer kept exactly: +1 when a dimension
//! gains `u`, −1 when it loses it. A center's total `Σ_i min(N_i, u)` is
//! summed from `dist` where it is read ([`sum`](NeighborSets::sum),
//! `center_cost`), so no total can remember a refill history.
//! Emptying a dimension walks its member list (the nodes it holds) and
//! clears exactly those; every fill is `O(nodes written)`.
//!
//! A dimension is filled in one of three ways, all in this file.
//! [`recompute_dim_guarded`](NeighborSets::recompute_dim_guarded) sweeps
//! its seeds from scratch: the initial `Neighbor(V_i)`, a seed's first
//! pin, the naive Lawler ablation — and the oracle the others are tested
//! against. `pin_guarded` copies `Neighbor({c})` from a memo of its settle
//! stream once `c` has been swept. `refill_guarded` answers
//! `Neighbor(V_i − X)` from a *base* — `Neighbor(V_i)` kept as a sparse
//! snapshot grouped by `src` — by copying every node whose `src ∉ X` and
//! re-sweeping only the cells of `X`, from one boundary seed per cell
//! node, the first time that `X` is asked of the base; every later time
//! the base's patch memo holds what that re-sweep settled, and it is
//! copied too. With `X = ∅` nothing is swept at all. Every copy goes
//! through one loop, `copy_cells`. DESIGN.md "Repairing `Neighbor()`" has
//! the lemma that makes the copy bit-equal to a sweep, the hypothesis
//! `keep_base` asks the graph for, and the bounds on both memos.

use crate::error::QueryError;
use crate::types::{Core, CostFn};
use comm_graph::{
    DijkstraEngine, Direction, EnginePool, Graph, InterruptReason, NodeId, Parallelism, RunGuard,
    Weight,
};
use std::borrow::Borrow;
use std::cell::Cell;
use std::collections::HashMap;
use std::hash::Hash;

const NO_SRC: u32 = u32::MAX;

/// Maximum keyword dimensions per query: the per-node dimension counters
/// are `u8`, so `l` must fit in one byte.
pub const MAX_KEYWORDS: usize = u8::MAX as usize;

/// The best core found by a `BestCore()` scan.
#[derive(Clone, Debug, PartialEq)]
pub struct BestCore {
    /// The core `C = [c_1..c_l]`.
    pub core: Core,
    /// Its cost: the center's total shortest-path weight to all `c_i`.
    pub cost: Weight,
    /// The center realizing that cost.
    pub center: NodeId,
}

/// One node of a kept `Neighbor(V_i)`, of a memoised pin or of a memoised
/// patch: 16 bytes.
#[derive(Clone, Copy)]
struct Reached {
    src: u32,
    node: u32,
    dist: Weight,
}

/// `Neighbor(V_i)` as the enumerator's `start()` swept it, kept so later
/// refills of dimension `i` copy and repair instead of sweeping.
struct Base {
    /// Every node the sweep reached, grouped by `src` (ascending).
    reached: Vec<Reached>,
    /// `Some(X)`, sorted, while the live dimension holds exactly
    /// `Neighbor(V_i − X)` as derived from `reached` — it then differs
    /// from the base on the cells of `X` only. `None` when it holds
    /// anything else: a pin, a from-scratch sweep, a tripped fill.
    live: Option<Vec<NodeId>>,
    /// The patch memo: for each `X ≠ ∅` whose cells a completed repair
    /// re-swept, the nodes that re-sweep settled into the table, in settle
    /// order — a function of `reached`, `X` and `rmax` alone, since a
    /// repair retracts first and copies the same retained cells. At most
    /// one entry per distinct `X`, each no larger than `X`'s cells.
    patches: Memo<Box<[NodeId]>>,
}

/// Settle streams memoised by key, with the bytes they hold counted as
/// they are added: the hash table's slots at its capacity, each key's
/// heap-held ids and 16 bytes per memoised node. Entries are never
/// replaced or removed; the memo is dropped whole.
struct Memo<K> {
    map: HashMap<K, Box<[Reached]>>,
    bytes: usize,
}

impl<K: Hash + Eq> Memo<K> {
    fn new() -> Self {
        Memo {
            map: HashMap::new(),
            bytes: 0,
        }
    }

    fn get<Q: Hash + Eq + ?Sized>(&self, key: &Q) -> Option<&[Reached]>
    where
        K: Borrow<Q>,
    {
        self.map.get(key).map(|nodes| &**nodes)
    }

    /// Memoises `nodes` under a key not memoised yet, whose heap part
    /// holds `key_ids` ids.
    fn insert(&mut self, key: K, key_ids: usize, nodes: Box<[Reached]>) {
        let slots = self.map.capacity();
        self.bytes +=
            key_ids * std::mem::size_of::<NodeId>() + nodes.len() * std::mem::size_of::<Reached>();
        let replaced = self.map.insert(key, nodes);
        debug_assert!(replaced.is_none(), "a memo entry is written once");
        let grown = self.map.capacity() - slots;
        self.bytes += grown * std::mem::size_of::<(K, Box<[Reached]>)>();
    }
}

impl Base {
    /// The cells: one slice of `reached` per seed that owns a node.
    fn cells(&self) -> impl Iterator<Item = &[Reached]> {
        self.reached.chunk_by(|a, b| a.src == b.src)
    }

    /// The cell of seed `x`: the nodes whose nearest seed it is.
    fn cell(&self, x: NodeId) -> &[Reached] {
        let lo = self.reached.partition_point(|r| r.src < x.0);
        let len = self.reached[lo..].partition_point(|r| r.src == x.0);
        &self.reached[lo..lo + len]
    }
}

/// Per-dimension neighbor sets, with exact `count` bookkeeping and sums
/// folded where they are read.
pub struct NeighborSets {
    l: usize,
    n: usize,
    /// Dimension-major `dist[i * n + u]`: `min(N_i, u)` or `INFINITY`.
    dist: Vec<Weight>,
    /// Dimension-major nearest keyword node `src(N_i, u)`, `NO_SRC` if none.
    src: Vec<u32>,
    /// Per-node number of finite dimensions; `count[u] == l` ⇔ `u ∈ ⋂ N_i`.
    count: Vec<u8>,
    /// `members[i]`: the nodes of `N_i`, in no particular order — exactly
    /// the `u` with a finite `dist[i * n + u]`. At most `n` ids per
    /// dimension.
    members: Vec<Vec<u32>>,
    /// `base[i]`: the kept `Neighbor(V_i)`, if [`keep_base`](Self::keep_base)
    /// took one.
    base: Vec<Option<Base>>,
    /// The pin memo, once [`keep_base`](Self::keep_base) has switched it
    /// on: `Neighbor({c})` for every seed `c` swept so far, as its settle
    /// stream (a single-source sweep gives every node `src = c`).
    pins: Option<Memo<u32>>,
    /// How many `Neighbor()` sweeps have run — the unit the paper's
    /// `O(c(l))` vs `O(l·c(l))` comparison counts. A refill or a pin that
    /// copies and settles nothing is not one.
    sweeps: usize,
}

impl NeighborSets {
    /// Creates empty neighbor sets for `l` keywords over `n` nodes.
    ///
    /// # Panics
    /// If `l` is zero or exceeds [`MAX_KEYWORDS`] — a caller bug by this
    /// function's contract. [`try_new`](Self::try_new) is the fallible
    /// path the enumerators use.
    #[expect(
        clippy::expect_used,
        reason = "documented caller contract; try_new is fallible"
    )]
    pub fn new(l: usize, n: usize) -> NeighborSets {
        Self::try_new(l, n).expect("need 1 ≤ l ≤ 255 keywords")
    }

    /// Like [`new`](Self::new), reporting an out-of-range keyword count as
    /// a [`QueryError`] instead of panicking.
    pub fn try_new(l: usize, n: usize) -> Result<NeighborSets, QueryError> {
        if l == 0 {
            return Err(QueryError::NoKeywords);
        }
        if l > MAX_KEYWORDS {
            return Err(QueryError::TooManyKeywords {
                l,
                max: MAX_KEYWORDS,
            });
        }
        Ok(NeighborSets {
            l,
            n,
            dist: vec![Weight::INFINITY; l * n],
            src: vec![NO_SRC; l * n],
            count: vec![0; n],
            members: vec![Vec::new(); l],
            base: (0..l).map(|_| None).collect(),
            pins: None,
            sweeps: 0,
        })
    }

    /// Total `Neighbor()` sweeps run so far.
    pub fn sweeps(&self) -> usize {
        self.sweeps
    }

    /// Number of keyword dimensions.
    pub fn l(&self) -> usize {
        self.l
    }

    /// `min(N_i, u)`, if `u ∈ N_i`.
    pub fn dist(&self, i: usize, u: NodeId) -> Option<Weight> {
        let d = self.dist[i * self.n + u.index()];
        d.is_finite().then_some(d)
    }

    /// `src(N_i, u)`: the nearest admissible node containing `k_i`.
    pub fn src(&self, i: usize, u: NodeId) -> Option<NodeId> {
        let s = self.src[i * self.n + u.index()];
        (s != NO_SRC).then_some(NodeId(s))
    }

    /// `u.sum`: the accumulated distance `Σ_i min(N_i, u)` over the
    /// dimensions where `u ∈ N_i` (the `BestCore()` accumulator).
    pub fn sum(&self, u: NodeId) -> Weight {
        let column = (0..self.l).map(|i| self.dist[i * self.n + u.index()]);
        column.filter(|d| d.is_finite()).sum()
    }

    /// `u.count`: in how many neighbor sets `u` appears (`u` is a center
    /// candidate iff `count == l`).
    pub fn count(&self, u: NodeId) -> usize {
        usize::from(self.count[u.index()])
    }

    /// Empties dimension `i`: the nodes it holds go back to unreached and
    /// leave its count; the member list keeps its allocation. A dimension
    /// emptied is no longer taken for a table repaired from its base.
    fn retract(&mut self, i: usize) {
        if let Some(base) = &mut self.base[i] {
            base.live = None;
        }
        let dim = i * self.n..(i + 1) * self.n;
        let (dist, src) = (&mut self.dist[dim.clone()], &mut self.src[dim]);
        let members = &mut self.members[i];
        for &u in members.iter() {
            dist[u as usize] = Weight::INFINITY;
            src[u as usize] = NO_SRC;
            self.count[u as usize] -= 1;
        }
        members.clear();
    }

    /// Writes `cells` into dimension `i`, in order; a node the dimension
    /// did not hold joins its member list and its count. The one copy
    /// loop: a memoised pin, a base's cells and a memoised patch all come
    /// in through it, and each caller consults the guard per call.
    fn copy_cells(&mut self, i: usize, cells: &[Reached]) {
        let dim = i * self.n..(i + 1) * self.n;
        let (dist, src) = (&mut self.dist[dim.clone()], &mut self.src[dim]);
        let members = &mut self.members[i];
        for r in cells {
            let at = r.node as usize;
            if !dist[at].is_finite() {
                members.push(r.node);
                self.count[at] += 1;
            }
            dist[at] = r.dist;
            src[at] = r.src;
        }
    }

    /// The nodes of dimension `i` listed in `nodes`, as it holds them.
    fn held(&self, i: usize, nodes: &[u32]) -> Box<[Reached]> {
        let (dist, src) = (&self.dist[i * self.n..], &self.src[i * self.n..]);
        let reached = |&node: &u32| Reached {
            src: src[node as usize],
            node,
            dist: dist[node as usize],
        };
        nodes.iter().map(reached).collect()
    }

    /// Recomputes dimension `i` as `Neighbor(G_D, seeds, rmax)`:
    /// a multi-source Dijkstra over the *reverse* graph (the virtual-sink
    /// construction of Algorithm 2), truncated at `rmax` and consulting
    /// `guard` per settled node.
    ///
    /// Only the nodes dimension `i` held and the nodes the new sweep
    /// settles are touched, so the cost is `O(settled)` and the result does
    /// not depend on what the dimension held before.
    ///
    /// Seeds must be sorted for deterministic nearest-source tie-breaking.
    /// On interruption dimension `i` holds the settled prefix of the new
    /// sweep (counts and member list consistent with it) — callers must
    /// abandon the whole enumeration (which every guarded enumerator
    /// does), not keep scanning for cores.
    pub fn recompute_dim_guarded(
        &mut self,
        graph: &Graph,
        engine: &mut DijkstraEngine,
        i: usize,
        seeds: impl IntoIterator<Item = NodeId>,
        rmax: Weight,
        guard: &RunGuard,
    ) -> Result<(), InterruptReason> {
        debug_assert!(i < self.l);
        self.sweeps += 1;
        let n = self.n;
        self.retract(i);
        let mut members = std::mem::take(&mut self.members[i]);
        // Refill from the truncated reverse Dijkstra.
        let dist = &mut self.dist[i * n..(i + 1) * n];
        let src = &mut self.src[i * n..(i + 1) * n];
        let count = &mut self.count;
        let swept = engine.run_guarded(graph, Direction::Reverse, seeds, rmax, guard, |s| {
            dist[s.node.index()] = s.dist;
            src[s.node.index()] = s.source.0;
            count[s.node.index()] += 1;
            // ≤ n pushes per dimension: a sweep settles each node once.
            members.push(s.node.0);
        });
        self.members[i] = members;
        swept.map(|_| ())
    }

    /// Pins dimension `i` to `Neighbor({c}, rmax)` — bit-equal, member
    /// order included, to [`recompute_dim_guarded`](Self::recompute_dim_guarded)
    /// of `[c]`, which is what it runs the first time `c` is pinned, or
    /// every time while pins are not memoised. Once swept, the settle
    /// stream is kept (16 bytes per node, charged by
    /// [`byte_size`](Self::byte_size)) and every later pin of `c`, in any
    /// dimension, is a copy of it: the guard is consulted once per copy.
    /// `rmax` must be the one every pin of this table is swept at.
    pub(crate) fn pin_guarded(
        &mut self,
        graph: &Graph,
        engine: &mut DijkstraEngine,
        i: usize,
        c: NodeId,
        rmax: Weight,
        guard: &RunGuard,
    ) -> Result<(), InterruptReason> {
        let Some(mut pins) = self.pins.take() else {
            return self.recompute_dim_guarded(graph, engine, i, [c], rmax, guard);
        };
        let pinned = if let Some(memoised) = pins.get(&c.0) {
            self.copy_pin(memoised, i, guard)
        } else {
            let swept = self.recompute_dim_guarded(graph, engine, i, [c], rmax, guard);
            if swept.is_ok() {
                pins.insert(c.0, 0, self.held(i, &self.members[i]));
            }
            swept
        };
        self.pins = Some(pins);
        pinned
    }

    /// Dimension `i` ← a memoised `Neighbor({c})`.
    fn copy_pin(
        &mut self,
        memoised: &[Reached],
        i: usize,
        guard: &RunGuard,
    ) -> Result<(), InterruptReason> {
        self.retract(i);
        guard.check()?;
        self.copy_cells(i, memoised);
        Ok(())
    }

    /// Keeps what dimension `i` holds — `Neighbor(V_i, rmax)`, just swept —
    /// as the base [`refill_guarded`](Self::refill_guarded) copies and
    /// repairs from: 16 bytes per reached node, charged by
    /// [`byte_size`](Self::byte_size), with an empty patch memo that its
    /// repairs fill. From the first call on, pins are
    /// memoised too ([`pin_guarded`](Self::pin_guarded)), whatever the
    /// graph: a single-source sweep is a function of its seed.
    ///
    /// Keeps no base, so that every refill stays a sweep, unless each
    /// relaxation of such a sweep makes progress: the swept rows hold no
    /// zero-weight edge. Only then is `src` a function of the seed set
    /// that survives taking seeds away (DESIGN.md "Repairing
    /// `Neighbor()`" has the five-node graph on which it is not). The
    /// paper's weights are `log2(1 + N_in) ≥ 1`.
    pub(crate) fn keep_base(&mut self, graph: &Graph, i: usize) {
        self.pins.get_or_insert_with(Memo::new);
        let swept_rows = graph.rows(Direction::Reverse);
        if swept_rows.min_weight() == Some(Weight::ZERO) {
            return;
        }
        let mut reached = self.held(i, &self.members[i]).into_vec();
        reached.sort_unstable_by_key(|r| (r.src, r.node));
        self.base[i] = Some(Base {
            reached,
            live: Some(Vec::new()),
            patches: Memo::new(),
        });
    }

    /// Recomputes dimension `i` as `Neighbor(V_i − X, rmax)`, `v_set` being
    /// `V_i` and `excluded` being `X ⊆ V_i`, both sorted — bit-equal in
    /// `dist` and `src` to [`recompute_dim_guarded`](Self::recompute_dim_guarded)
    /// of those seeds, which is what it runs when no base was kept.
    ///
    /// With a base, every node whose `src` in `Neighbor(V_i)` is not in
    /// `X` is copied, and only the cells of `X` are re-swept, from the
    /// labels of the copied nodes they have an edge to — the first time
    /// `X` is asked of this base; after that what the re-sweep settled is
    /// copied from the base's patch memo. `X = ∅` sweeps nothing, and when
    /// the dimension still holds a table repaired from this base only the
    /// cells that differ are written back. The guard is consulted per cell
    /// copied, per patch copied and per node settled; on interruption the
    /// dimension holds a consistent partial table, as after an interrupted
    /// sweep, and is no longer taken for a repaired one.
    #[expect(
        clippy::too_many_arguments,
        reason = "recompute_dim_guarded's arguments, the seeds as V_i and X"
    )]
    pub(crate) fn refill_guarded(
        &mut self,
        graph: &Graph,
        engine: &mut DijkstraEngine,
        i: usize,
        v_set: &[NodeId],
        excluded: &[NodeId],
        rmax: Weight,
        guard: &RunGuard,
    ) -> Result<(), InterruptReason> {
        let Some(mut base) = self.base[i].take() else {
            let admitted = |v: &NodeId| excluded.binary_search(v).is_err();
            let seeds = v_set.iter().copied().filter(admitted);
            return self.recompute_dim_guarded(graph, engine, i, seeds, rmax, guard);
        };
        // `live` stays `None` after a trip.
        let filled = match base.live.take() {
            Some(repaired) if excluded.is_empty() => self.write_back(&base, &repaired, i, guard),
            _ => self.repair(graph, engine, &mut base, excluded, i, rmax, guard),
        };
        base.live = filled.is_ok().then(|| excluded.to_vec());
        self.base[i] = Some(base);
        filled
    }

    /// `Neighbor(V_i)` over a dimension holding `Neighbor(V_i − repaired)`:
    /// the two differ on the cells of `repaired` only, which are copied
    /// back.
    fn write_back(
        &mut self,
        base: &Base,
        repaired: &[NodeId],
        i: usize,
        guard: &RunGuard,
    ) -> Result<(), InterruptReason> {
        for &x in repaired {
            guard.check()?;
            self.copy_cells(i, base.cell(x));
        }
        Ok(())
    }

    /// `Neighbor(V_i − excluded)` over a dimension holding anything: the
    /// base's other cells copied, the excluded ones re-swept — or, when a
    /// completed repair already re-swept them, their memoised patch
    /// copied. Every node written joins the member list and its count as
    /// it is written, whether or not the guard lets the fill finish.
    #[expect(
        clippy::too_many_arguments,
        reason = "private: refill_guarded's arguments with the base resolved"
    )]
    fn repair(
        &mut self,
        graph: &Graph,
        engine: &mut DijkstraEngine,
        base: &mut Base,
        excluded: &[NodeId],
        i: usize,
        rmax: Weight,
        guard: &RunGuard,
    ) -> Result<(), InterruptReason> {
        let n = self.n;
        self.retract(i);
        for cell in base.cells() {
            if excluded.binary_search(&NodeId(cell[0].src)).is_ok() {
                continue;
            }
            guard.check()?;
            self.copy_cells(i, cell);
        }
        if excluded.is_empty() {
            return Ok(());
        }
        if let Some(patch) = base.patches.get(excluded) {
            guard.check()?;
            self.copy_cells(i, patch);
            return Ok(());
        }
        let patched_from = self.members[i].len();
        // Re-sweep the excluded cells. A cell node's predecessors are
        // other cell nodes and the copied nodes it has an edge to. Of the
        // copied ones only the best offer, the least `(dist(p) + w,
        // dist(p), p)`, can decide its label (DESIGN.md: the others are
        // dominated), so that `p` alone enters the queue for it, at the
        // label it holds and so at its true `(dist, id)` key.
        self.sweeps += 1;
        let mut members = std::mem::take(&mut self.members[i]);
        let dist = Cell::from_mut(&mut self.dist[i * n..(i + 1) * n]).as_slice_of_cells();
        let src = Cell::from_mut(&mut self.src[i * n..(i + 1) * n]).as_slice_of_cells();
        let count = &mut self.count;
        let out_edges = graph.rows(Direction::Forward);
        let cell_nodes = excluded.iter().flat_map(|&x| base.cell(x));
        let boundary = cell_nodes.filter_map(|r| {
            let offers = out_edges.neighbors(NodeId(r.node)).filter_map(|(p, w)| {
                let d = dist[p.index()].get();
                d.is_finite().then(|| (d + w, d, p))
            });
            let (nd, d, p) = offers.min()?;
            (nd <= rmax).then(|| (p, d, NodeId(src[p.index()].get())))
        });
        let swept = engine.run_rows_labelled_guarded(
            graph.rows(Direction::Reverse),
            boundary,
            rmax,
            guard,
            // Only into what the dimension does not hold: copied nodes
            // keep their bits, whatever a cell node offers them.
            |v, _| !dist[v.index()].get().is_finite(),
            |s| {
                let at = s.node.index();
                // A boundary seed settling: it is in the table already.
                if !dist[at].get().is_finite() {
                    dist[at].set(s.dist);
                    src[at].set(s.source.0);
                    count[at] += 1;
                    members.push(s.node.0);
                }
            },
        );
        self.members[i] = members;
        swept?;
        // One entry per distinct `X`, charged by `byte_size`.
        let patch = self.held(i, &self.members[i][patched_from..]);
        base.patches.insert(excluded.into(), excluded.len(), patch);
        Ok(())
    }

    /// Benchmark-facing shim, kept only because the frozen `benchmark/`
    /// names it: one engine from `pool`, then
    /// [`recompute_dim_guarded`](Self::recompute_dim_guarded) per
    /// dimension, in order — the loop every enumerator starts with. `par`
    /// is ignored. `seeds.len()` must equal `l`.
    #[doc(hidden)]
    pub fn recompute_all_guarded(
        &mut self,
        graph: &Graph,
        pool: &EnginePool,
        seeds: &[Vec<NodeId>],
        rmax: Weight,
        guard: &RunGuard,
        _par: Parallelism,
    ) -> Result<(), InterruptReason> {
        debug_assert_eq!(seeds.len(), self.l);
        let mut engine = pool.acquire(self.n);
        seeds.iter().enumerate().try_for_each(|(i, dim_seeds)| {
            let dim_seeds = dim_seeds.iter().copied();
            self.recompute_dim_guarded(graph, &mut engine, i, dim_seeds, rmax, guard)
        })
    }

    /// The cost of centering the current `⋂ N_i` at `u` under `cost_fn`:
    /// `u`'s per-dimension distances aggregated by [`CostFn::combine`].
    /// Meaningful only where `count(u) == l`.
    pub(crate) fn center_cost(&self, u: NodeId, cost_fn: CostFn) -> Weight {
        cost_fn.combine((0..self.l).map(|i| self.dist[i * self.n + u.index()]))
    }

    /// `min_i min(N_i, u)`: `u`'s distance to the nearest seed of any
    /// dimension (`INFINITY` if `u` is in no neighbor set).
    pub(crate) fn nearest(&self, u: NodeId) -> Weight {
        let column = (0..self.l).map(|i| self.dist[i * self.n + u.index()]);
        column.min().unwrap_or(Weight::INFINITY)
    }

    /// `BestCore()` (Algorithm 3): scans `⋂ N_i` once and returns the
    /// minimum-cost core under `cost_fn`. `⋂ N_i` is read off the smallest
    /// neighbor set's member list, as [`intersection`](Self::intersection)
    /// reads it, so a scan is `O(min_i |N_i|)`, not `O(n)`. A center's cost
    /// aggregates its `l` per-dimension distances — under the paper's sum
    /// cost its total distance `Σ_i min(N_i, u)` —
    /// `O(l)` per intersection node, within the per-answer budget of
    /// Theorem IV.1. Member
    /// lists are in no particular order, so the tie-break is spelled out:
    /// the winner is the minimum of `(cost, center id)`.
    pub fn best_core_with(&self, cost_fn: CostFn) -> Option<BestCore> {
        let priced = self.centers().map(|u| (self.center_cost(u, cost_fn), u));
        let (cost, center) = priced.min()?;
        let u = center.index();
        let core = Core(
            (0..self.l)
                .map(|i| {
                    let s = self.src[i * self.n + u];
                    debug_assert_ne!(s, NO_SRC);
                    NodeId(s)
                })
                .collect(),
        );
        Some(BestCore { core, cost, center })
    }

    /// All nodes currently in `⋂ N_i` — the potential centers — sorted by
    /// id. Read off the smallest neighbor set's member list, so the cost
    /// is `O(min_i |N_i|)` plus the sort, not `O(n)`.
    pub fn intersection(&self) -> Vec<NodeId> {
        let mut centers: Vec<NodeId> = self.centers().collect();
        centers.sort_unstable();
        centers
    }

    /// `⋂ N_i` in the order of the smallest neighbor set's member list,
    /// which it is filtered from.
    fn centers(&self) -> impl Iterator<Item = NodeId> + '_ {
        let smallest = self.members.iter().min_by_key(|m| m.len());
        let ids = smallest.into_iter().flatten();
        ids.filter(|&&u| usize::from(self.count[u as usize]) == self.l)
            .map(|&u| NodeId(u))
    }

    /// Logical bytes held — the paper's `O(l·n)` table, the counters, the
    /// member lists (at most `n` ids per dimension; charged at their
    /// allocated capacity), the kept bases (16 bytes per node
    /// `Neighbor(V_i)` reached, no second dense table), and the pin memo
    /// and the bases' patch memos (see [`Memo`]). `O(l)`: the memos keep
    /// their own count.
    pub fn byte_size(&self) -> usize {
        let member_ids: usize = self.members.iter().map(Vec::capacity).sum();
        let bases = self.base.iter().flatten();
        let kept: usize = bases.clone().map(|b| b.reached.len()).sum();
        let patches: usize = bases.map(|b| b.patches.bytes).sum();
        let pins = self.pins.as_ref().map_or(0, |pins| pins.bytes);
        self.dist.len() * std::mem::size_of::<Weight>()
            + (self.src.len() + member_ids) * std::mem::size_of::<u32>()
            + self.count.len()
            + kept * std::mem::size_of::<Reached>()
            + patches
            + pins
    }
}

#[cfg(test)]
use comm_graph::weight::index_to_u32;

#[cfg(test)]
impl NeighborSets {
    /// `BestCore()` as a scan of all `n` table slots in id order, the
    /// first minimum winning: what the member-list scan must equal.
    pub(crate) fn best_core_by_table_scan(&self, cost_fn: CostFn) -> Option<BestCore> {
        let mut best: Option<(Weight, NodeId)> = None;
        for u in (0..index_to_u32(self.n)).map(NodeId) {
            if self.count(u) == self.l {
                let cost = self.center_cost(u, cost_fn);
                if best.is_none_or(|(b, _)| cost < b) {
                    best = Some((cost, u));
                }
            }
        }
        let (cost, center) = best?;
        let core = Core((0..self.l).filter_map(|i| self.src(i, center)).collect());
        Some(BestCore { core, cost, center })
    }

    /// The nodes of `N_i`, sorted by id.
    pub(crate) fn neighbor_set(&self, i: usize) -> Vec<NodeId> {
        let mut set: Vec<NodeId> = self.members[i].iter().map(|&u| NodeId(u)).collect();
        set.sort_unstable();
        set
    }

    /// Whether dimension `i` refills from a kept `Neighbor(V_i)`.
    pub(crate) fn keeps_base(&self, i: usize) -> bool {
        self.base[i].is_some()
    }

    /// The `X` for which dimension `i` is taken to hold `Neighbor(V_i − X)`
    /// as repaired from its base, if it is taken to hold one at all.
    pub(crate) fn repaired_from(&self, i: usize) -> Option<&[NodeId]> {
        self.base[i].as_ref()?.live.as_deref()
    }

    /// Drops every kept base, and its patch memo with it: from here on
    /// every refill is a sweep.
    pub(crate) fn forget_bases(&mut self) {
        self.base.fill_with(|| None);
    }

    /// Asserts dimension `i` holds, bit for bit in `dist` and in `src`,
    /// what the only dimension of `swept` holds.
    pub(crate) fn assert_dim_bit_equal(&self, i: usize, swept: &NeighborSets) {
        let dim = i * self.n..(i + 1) * self.n;
        assert_eq!(self.dist[dim.clone()], swept.dist, "dist, dim {i}");
        assert_eq!(self.src[dim], swept.src, "src, dim {i}");
        assert_eq!(
            self.neighbor_set(i),
            swept.neighbor_set(0),
            "members, dim {i}"
        );
    }

    /// Asserts dimension `i` is bit-equal, in `dist`, `src` and members,
    /// to a from-scratch sweep of `seeds` on a table and an engine of its
    /// own.
    pub(crate) fn assert_dim_is_sweep_of(
        &self,
        graph: &Graph,
        i: usize,
        seeds: impl IntoIterator<Item = NodeId>,
        rmax: Weight,
    ) {
        let n = graph.node_count();
        let mut swept = NeighborSets::new(1, n);
        let mut engine = DijkstraEngine::new(n);
        let unlimited = RunGuard::unlimited();
        swept
            .recompute_dim_guarded(graph, &mut engine, 0, seeds, rmax, &unlimited)
            .unwrap();
        self.assert_dim_bit_equal(i, &swept);
    }

    /// Asserts the bookkeeping describes `dist` exactly: `count` is the
    /// number of finite dimensions at every node, [`sum`](Self::sum) is
    /// their sum, and each member list is
    /// exactly the finite entries of its dimension.
    pub(crate) fn assert_history_free(&self) {
        for u in (0..index_to_u32(self.n)).map(NodeId) {
            let finite: Vec<Weight> = (0..self.l).filter_map(|i| self.dist(i, u)).collect();
            assert_eq!(self.count(u), finite.len(), "count at {u}");
            let folded = CostFn::SumDistances.combine(finite);
            assert_eq!(self.sum(u), folded, "sum at {u}");
        }
        for i in 0..self.l {
            let finite: Vec<NodeId> = (0..index_to_u32(self.n))
                .map(NodeId)
                .filter(|u| self.dist(i, *u).is_some())
                .collect();
            assert_eq!(self.neighbor_set(i), finite, "member list of dim {i}");
            assert!(finite.iter().all(|u| self.src(i, *u).is_some()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comm_datasets::paper_example::{fig4_graph, fig4_keyword_nodes};

    fn fig4() -> Graph {
        fig4_graph()
    }

    fn v_sets() -> Vec<Vec<NodeId>> {
        fig4_keyword_nodes()
    }

    impl NeighborSets {
        fn refill(
            &mut self,
            g: &Graph,
            eng: &mut DijkstraEngine,
            i: usize,
            seeds: impl IntoIterator<Item = NodeId>,
            rmax: Weight,
        ) {
            self.recompute_dim_guarded(g, eng, i, seeds, rmax, &RunGuard::unlimited())
                .unwrap();
        }
    }

    fn build(rmax: f64) -> (Graph, NeighborSets, DijkstraEngine) {
        let g = fig4();
        let mut eng = DijkstraEngine::new(g.node_count());
        let mut ns = NeighborSets::new(3, g.node_count());
        for (i, set) in v_sets().into_iter().enumerate() {
            ns.refill(&g, &mut eng, i, set, Weight::new(rmax));
        }
        (g, ns, eng)
    }

    #[test]
    fn neighbor_sets_match_paper_walkthrough() {
        // Sec. IV: with Rmax = 8,
        // N1 = {1,4,5,7,8,9,11,12,13}, N2 = {1,2,4,5,7,8,9,10,11,12},
        // N3 = {1,2,3,4,5,6,7,9,11,12}.
        let (_, ns, _) = build(8.0);
        let ids = |v: Vec<NodeId>| v.into_iter().map(|n| n.0).collect::<Vec<_>>();
        assert_eq!(ids(ns.neighbor_set(0)), vec![1, 4, 5, 7, 8, 9, 11, 12, 13]);
        assert_eq!(
            ids(ns.neighbor_set(1)),
            vec![1, 2, 4, 5, 7, 8, 9, 10, 11, 12]
        );
        assert_eq!(
            ids(ns.neighbor_set(2)),
            vec![1, 2, 3, 4, 5, 6, 7, 9, 11, 12]
        );
        // Intersection from the walkthrough: {1,4,5,7,9,11,12}.
        assert_eq!(ids(ns.intersection()), vec![1, 4, 5, 7, 9, 11, 12]);
    }

    #[test]
    fn first_best_core_is_r3() {
        // Sec. IV: "BestCore() identifies a core C = [v4, v8, v6] centered
        // at v7 with a cost of 7".
        let (_, ns, _) = build(8.0);
        let best = ns.best_core_with(CostFn::SumDistances).unwrap();
        assert_eq!(best.core, Core(vec![NodeId(4), NodeId(8), NodeId(6)]));
        assert_eq!(best.cost, Weight::new(7.0));
        assert_eq!(best.center, NodeId(7));
    }

    #[test]
    fn restricting_dim_changes_best_core() {
        // Sec. IV walkthrough: pin dims 1,2 to {v4},{v8}, restrict dim 3 to
        // V3 − {v6} = {v3, v9, v11}: intersection is empty → no core.
        let (g, mut ns, mut eng) = build(8.0);
        let r = Weight::new(8.0);
        ns.refill(&g, &mut eng, 0, [NodeId(4)], r);
        ns.refill(&g, &mut eng, 1, [NodeId(8)], r);
        ns.refill(&g, &mut eng, 2, vec![NodeId(3), NodeId(9), NodeId(11)], r);
        assert_eq!(ns.best_core_with(CostFn::SumDistances), None);
        // Then S2 = {v2}, dim 3 back to full V3: core [v4, v2, v3].
        ns.refill(&g, &mut eng, 2, v_sets()[2].clone(), r);
        ns.refill(&g, &mut eng, 1, [NodeId(2)], r);
        let best = ns.best_core_with(CostFn::SumDistances).unwrap();
        assert_eq!(best.core, Core(vec![NodeId(4), NodeId(2), NodeId(3)]));
        assert_eq!(best.cost, Weight::new(14.0));
        assert_eq!(best.center, NodeId(1));
    }

    #[test]
    fn sums_and_counts_survive_recompute_cycles() {
        // Whatever a dimension held before, a refill lands on the table a
        // fresh build of the same seeds gives — bit for bit.
        let (g, mut ns, mut eng) = build(8.0);
        let r = Weight::new(8.0);
        for _ in 0..5 {
            ns.refill(&g, &mut eng, 1, [NodeId(2)], r);
            ns.refill(&g, &mut eng, 0, [NodeId(13)], r);
            ns.refill(&g, &mut eng, 2, vec![NodeId(3), NodeId(9)], r);
            ns.assert_history_free();
            for (i, set) in v_sets().into_iter().enumerate() {
                ns.refill(&g, &mut eng, i, set, r);
            }
        }
        ns.assert_history_free();
        let (_, fresh, _) = build(8.0);
        assert_eq!(ns.dist, fresh.dist);
        assert_eq!(ns.src, fresh.src);
        assert_eq!(ns.count, fresh.count);
        assert_eq!(
            ns.best_core_with(CostFn::SumDistances),
            fresh.best_core_with(CostFn::SumDistances)
        );
    }

    #[test]
    fn best_core_scans_the_smallest_member_list_like_the_whole_table() {
        // Random refill histories over Fig. 4 (the cycle test's moves,
        // drawn at random) and over small graphs whose few distinct
        // weights make equal-cost centers common: the member-list scan
        // answers what the 0..n scan answers, field for field.
        use comm_graph::{GraphBuilder, SplitMix64};
        let (mut cores, mut ties) = (0, 0);
        SplitMix64::for_each_case(300, |rng| {
            let (g, rmax) = if rng.index(3) == 0 {
                (fig4(), 8.0)
            } else {
                let n = 3 + rng.index(10);
                let mut b = GraphBuilder::new(n);
                for _ in 0..n + rng.index(3 * n) {
                    let (u, v) = (rng.index(n), rng.index(n));
                    let w = Weight::new(rng.index(3) as f64);
                    b.add_edge(NodeId(index_to_u32(u)), NodeId(index_to_u32(v)), w);
                }
                (b.build(), 1.0 + rng.index(4) as f64)
            };
            let n = g.node_count();
            let l = 1 + rng.index(3);
            let mut ns = NeighborSets::new(l, n);
            let mut eng = DijkstraEngine::new(n);
            for step in 0..l + rng.index(6) {
                // Every dimension once, then random ones again.
                let i = if step < l { step } else { rng.index(l) };
                let seeds: Vec<NodeId> = (0..rng.index(4))
                    .map(|_| NodeId(index_to_u32(rng.index(n))))
                    .collect();
                ns.refill(&g, &mut eng, i, seeds, Weight::new(rmax));
                for cost_fn in [CostFn::SumDistances, CostFn::MaxDistance] {
                    let got = ns.best_core_with(cost_fn);
                    assert_eq!(got, ns.best_core_by_table_scan(cost_fn), "{cost_fn:?}");
                    if let Some(best) = got {
                        cores += 1;
                        let centers = ns.intersection().into_iter();
                        let rivals = centers.filter(|&u| ns.center_cost(u, cost_fn) == best.cost);
                        ties += usize::from(rivals.count() > 1);
                    }
                }
            }
        });
        assert!(cores >= 300 && ties >= 50, "cores {cores}, ties {ties}");
    }

    #[test]
    fn empty_seed_dimension_blocks_all_cores() {
        let (g, mut ns, mut eng) = build(8.0);
        ns.refill(&g, &mut eng, 0, std::iter::empty(), Weight::new(8.0));
        assert_eq!(ns.best_core_with(CostFn::SumDistances), None);
        assert!(ns.intersection().is_empty());
    }

    #[test]
    fn src_and_dist_accessors() {
        let (_, ns, _) = build(8.0);
        // v7 reaches keyword-b node v8 at distance 3.
        assert_eq!(ns.dist(1, NodeId(7)), Some(Weight::new(3.0)));
        assert_eq!(ns.src(1, NodeId(7)), Some(NodeId(8)));
        // v3 cannot reach any a-node within 8.
        assert_eq!(ns.dist(0, NodeId(3)), None);
        assert_eq!(ns.src(0, NodeId(3)), None);
    }

    #[test]
    fn byte_size_scales_with_l_n() {
        let a = NeighborSets::new(2, 100).byte_size();
        let b = NeighborSets::new(4, 100).byte_size();
        assert!(b > a);
    }

    #[test]
    fn byte_size_charges_the_member_lists() {
        let g = fig4();
        let n = g.node_count();
        // The dense table (8 + 4 bytes per slot) and one count byte per
        // node: no per-node total is stored.
        let fresh = NeighborSets::new(3, n).byte_size();
        assert_eq!(fresh, 3 * n * 12 + n);
        let (_, mut ns, mut eng) = build(8.0);
        let settled: usize = (0..3).map(|i| ns.neighbor_set(i).len()).sum();
        let swept = ns.byte_size();
        assert!(swept >= fresh + settled * std::mem::size_of::<u32>());
        // A kept base is 16 bytes per node its sweep reached.
        for i in 0..3 {
            ns.keep_base(&g, i);
        }
        let kept = ns.byte_size();
        assert_eq!(kept, swept + settled * 16);
        // So is a memoised pin, once, whichever dimensions it lands in,
        // plus its map's slots: a `(u32, Box<[Reached]>)` each, 24 bytes,
        // at the map's capacity.
        let (r, unlimited) = (Weight::new(8.0), RunGuard::unlimited());
        for i in [0, 1, 0] {
            ns.pin_guarded(&g, &mut eng, i, NodeId(4), r, &unlimited)
                .unwrap();
        }
        let pin_slots = ns.pins.as_ref().unwrap().map.capacity() * 24;
        let pinned = kept + pin_slots + ns.neighbor_set(0).len() * 16;
        assert_eq!(ns.byte_size(), pinned);
        // A memoised patch: 16 bytes per node its re-sweep settled, 4 per
        // id of its key `X`, and a `(Box<[NodeId]>, Box<[Reached]>)` slot
        // of 32 bytes at its base's map capacity. A repair shrinks the
        // dimension, so its member list keeps its capacity.
        let v = &v_sets()[2];
        let x = [v[1], v[2]];
        ns.refill_guarded(&g, &mut eng, 2, v, &x, r, &unlimited)
            .unwrap();
        let patches = &ns.base[2].as_ref().unwrap().patches.map;
        let patch = patches[&x[..]].len() * 16 + x.len() * 4;
        assert_eq!(ns.byte_size(), pinned + patches.capacity() * 32 + patch);
    }

    /// [`build`] with every `Neighbor(V_i)` kept as a base.
    fn build_kept(rmax: f64) -> (Graph, NeighborSets, DijkstraEngine) {
        let (g, mut ns, eng) = build(rmax);
        for i in 0..3 {
            ns.keep_base(&g, i);
            assert_eq!(ns.repaired_from(i), Some(&[][..]));
        }
        (g, ns, eng)
    }

    /// Asserts dimension `i` is bit-equal to a from-scratch sweep of
    /// `v − excluded` on a table and an engine of its own.
    fn assert_is_sweep_of(
        ns: &NeighborSets,
        g: &Graph,
        i: usize,
        (v, excluded): (&[NodeId], &[NodeId]),
        rmax: Weight,
    ) {
        let seeds = v.iter().copied().filter(|v| !excluded.contains(v));
        ns.assert_dim_is_sweep_of(g, i, seeds, rmax);
    }

    #[test]
    fn refills_from_a_base_equal_sweeps_through_any_history() {
        // Random walks over Fig. 4: pins, from-scratch sweeps and refills
        // with random exclusion sets, in any order — so a repair also
        // lands on a pin, on a repaired table (written back when `X = ∅`,
        // retracted otherwise) and on a table that is none of those.
        use comm_graph::SplitMix64;
        let r = Weight::new(8.0);
        let unlimited = RunGuard::unlimited();
        let (mut copies, mut repairs, mut patched) = (0, 0, 0);
        SplitMix64::for_each_case(200, |rng| {
            let (g, mut ns, mut eng) = build_kept(8.0);
            let mut swept = std::collections::HashSet::new();
            for _ in 0..12 {
                let i = rng.index(3);
                let v = &v_sets()[i];
                if rng.index(4) == 0 {
                    ns.refill(&g, &mut eng, i, [v[rng.index(v.len())]], r);
                    assert_eq!(ns.repaired_from(i), None);
                    continue;
                }
                let excluded: Vec<NodeId> =
                    v.iter().copied().filter(|_| rng.index(3) == 0).collect();
                let before = ns.sweeps();
                ns.refill_guarded(&g, &mut eng, i, v, &excluded, r, &unlimited)
                    .unwrap();
                // Only the first repair of each `(i, X ≠ ∅)` sweeps.
                let first = !excluded.is_empty() && swept.insert((i, excluded.clone()));
                assert_eq!(ns.sweeps() - before, usize::from(first));
                assert_eq!(ns.repaired_from(i), Some(&excluded[..]));
                assert_is_sweep_of(&ns, &g, i, (v, &excluded), r);
                ns.assert_history_free();
                copies += usize::from(excluded.is_empty());
                repairs += usize::from(first);
                patched += usize::from(!excluded.is_empty() && !first);
            }
        });
        assert!(
            copies >= 300 && repairs >= 300 && patched >= 150,
            "{copies} / {repairs} / {patched}"
        );
    }

    #[test]
    fn without_a_base_a_refill_is_the_sweep() {
        let (g, mut ns, mut eng) = build(8.0);
        let v = &v_sets()[2];
        let before = ns.sweeps();
        ns.refill_guarded(
            &g,
            &mut eng,
            2,
            v,
            &[],
            Weight::new(8.0),
            &RunGuard::unlimited(),
        )
        .unwrap();
        assert_eq!(ns.sweeps(), before + 1);
        assert!(!ns.keeps_base(2));
        ns.keep_base(&g, 2);
        assert!(ns.keeps_base(2));
        // A zero-weight edge stalls a sweep's progress: no base is kept.
        let stalling = comm_graph::graph_from_edges(2, &[(0, 1, 0.0)]);
        let mut ns = NeighborSets::new(1, 2);
        ns.keep_base(&stalling, 0);
        assert!(!ns.keeps_base(0));
    }

    #[test]
    fn a_cell_node_is_seeded_from_its_best_offer() {
        // Seeds {a = 3, b = 4, x = 0}; exclude x. Cell node r = 5 is
        // offered 4 by three predecessors: boundary p2 = 1 (dist 3, src b)
        // first in its row, cell node q = 2 (re-swept to dist 2 via b)
        // and boundary p1 = 6 (dist 1, src a). A sweep pops p1 first, so
        // `src(r) = a`. Seeding the least `(nd, p, dist)` or the first
        // offer in row order queues p2 instead of p1, and then q's equal
        // offer lands first: `src(r) = b`.
        let mut b = comm_graph::GraphBuilder::new(7);
        let edges = [
            (6, 3, 1.0),
            (1, 4, 3.0),
            (2, 4, 2.0),
            (2, 0, 1.0),
            (5, 0, 1.0),
            (5, 1, 1.0),
            (5, 2, 2.0),
            (5, 6, 3.0),
        ];
        for (u, v, w) in edges {
            b.add_edge(NodeId(u), NodeId(v), Weight::new(w));
        }
        let g = b.build();
        let (v, x, r) = (
            [NodeId(0), NodeId(3), NodeId(4)],
            [NodeId(0)],
            Weight::new(10.0),
        );
        let mut ns = NeighborSets::new(1, g.node_count());
        let mut eng = DijkstraEngine::new(g.node_count());
        ns.refill(&g, &mut eng, 0, v, r);
        ns.keep_base(&g, 0);
        assert_eq!(ns.src(0, NodeId(5)), Some(NodeId(0)));
        ns.refill_guarded(&g, &mut eng, 0, &v, &x, r, &RunGuard::unlimited())
            .unwrap();
        assert_eq!(ns.repaired_from(0), Some(&x[..]));
        assert_eq!(ns.dist(0, NodeId(5)), Some(Weight::new(4.0)));
        assert_eq!(ns.src(0, NodeId(5)), Some(NodeId(3)));
        assert_is_sweep_of(&ns, &g, 0, (&v, &x), r);
    }

    #[test]
    fn a_seed_is_swept_once_then_its_pins_are_copies() {
        // Random pins over Fig. 4's nodes, in random dimensions, between
        // random refills: with the memo on, exactly the first pin of each
        // node sweeps, and every pin is bit-equal to a sweep of that node.
        use comm_graph::SplitMix64;
        let r = Weight::new(8.0);
        let unlimited = RunGuard::unlimited();
        let mut copies = 0;
        SplitMix64::for_each_case(100, |rng| {
            let (g, mut ns, mut eng) = build_kept(8.0);
            let mut swept = std::collections::HashSet::new();
            for _ in 0..20 {
                let i = rng.index(3);
                if rng.index(3) == 0 {
                    let v = &v_sets()[i];
                    let x: Vec<NodeId> = v.iter().copied().filter(|_| rng.index(2) == 0).collect();
                    ns.refill_guarded(&g, &mut eng, i, v, &x, r, &unlimited)
                        .unwrap();
                    continue;
                }
                let c = NodeId(index_to_u32(rng.index(g.node_count())));
                let before = ns.sweeps();
                ns.pin_guarded(&g, &mut eng, i, c, r, &unlimited).unwrap();
                let first = swept.insert(c);
                assert_eq!(ns.sweeps() - before, usize::from(first), "pin of {c}");
                assert_eq!(ns.repaired_from(i), None);
                ns.assert_dim_is_sweep_of(&g, i, [c], r);
                ns.assert_history_free();
                copies += usize::from(!first);
            }
        });
        assert!(copies >= 400, "{copies} pins copied");
        // A copy the guard stops leaves an empty, consistent dimension; a
        // sweep it stops is not memoised, so the next pin sweeps again.
        let (g, mut ns, mut eng) = build_kept(8.0);
        ns.pin_guarded(&g, &mut eng, 0, NodeId(4), r, &unlimited)
            .unwrap();
        let tripping = || RunGuard::new().with_trip_after(0);
        ns.pin_guarded(&g, &mut eng, 1, NodeId(4), r, &tripping())
            .unwrap_err();
        ns.assert_history_free();
        assert!(ns.neighbor_set(1).is_empty());
        ns.pin_guarded(&g, &mut eng, 1, NodeId(8), r, &tripping())
            .unwrap_err();
        let before = ns.sweeps();
        ns.pin_guarded(&g, &mut eng, 1, NodeId(8), r, &unlimited)
            .unwrap();
        assert_eq!(ns.sweeps(), before + 1);
        ns.assert_dim_is_sweep_of(&g, 1, [NodeId(8)], r);
        // Without the memo (no base was ever kept) every pin is a sweep.
        let (g, mut ns, mut eng) = build(8.0);
        for _ in 0..2 {
            let before = ns.sweeps();
            ns.pin_guarded(&g, &mut eng, 0, NodeId(4), r, &unlimited)
                .unwrap();
            assert_eq!(ns.sweeps(), before + 1);
        }
    }

    #[test]
    fn interrupted_refills_leave_a_consistent_table() {
        // Every trip point of the `l`-dimension fill and of a
        // single-dimension refill, both over a populated table: totals and
        // member lists must still describe exactly what `dist` holds.
        let g = fig4();
        let pool = EnginePool::new();
        let seeds = v_sets();
        let r = Weight::new(8.0);
        let counter = RunGuard::new();
        NeighborSets::new(3, g.node_count())
            .recompute_all_guarded(&g, &pool, &seeds, r, &counter, Parallelism::serial())
            .unwrap();
        for trip in 0..counter.checks() {
            let tripping = || RunGuard::new().with_trip_after(trip);
            let (_, mut ns, mut eng) = build(8.0);
            ns.recompute_all_guarded(&g, &pool, &seeds, r, &tripping(), Parallelism::serial())
                .unwrap_err();
            ns.assert_history_free();
            // A short pin may finish before the trip point; either way.
            let _ = ns.recompute_dim_guarded(&g, &mut eng, 1, [NodeId(8)], r, &tripping());
            ns.assert_history_free();
        }
    }

    #[test]
    fn interrupted_repairs_leave_a_consistent_table() {
        // The same contract for every trip point of a refill from the
        // base — inside the copy of the retained cells, inside the cell
        // re-sweep (boundary seeds are settled nodes like any other),
        // inside a write-back, at a patch copy: counts and member list
        // describe what `dist` holds, and the dimension is no longer taken
        // for a repaired table, so the next refill rebuilds it whole and
        // right.
        let (g, spec) = crate::testing::dense_scenario();
        let (l, r) = (spec.l(), spec.rmax);
        let unlimited = RunGuard::unlimited();
        let v_sets: Vec<Vec<NodeId>> = spec.keyword_nodes.iter().map(|v| sorted(v)).collect();
        let swept_and_kept = || {
            let mut ns = NeighborSets::new(l, g.node_count());
            let mut eng = DijkstraEngine::new(g.node_count());
            for (i, v) in v_sets.iter().enumerate() {
                ns.refill(&g, &mut eng, i, v.iter().copied(), r);
                ns.keep_base(&g, i);
            }
            (ns, eng)
        };
        let (mut in_sweeps, mut in_patches) = (0, 0);
        for (i, v) in v_sets.iter().enumerate() {
            // What the dimension was filled with — pins and repairs, in
            // order — and the refill. A repair primed before it memoises
            // its `X`, so the refill of the last two copies a patch.
            let moves = [
                (vec![Err(v[0])], vec![v[0]]),
                (vec![Err(v[1])], vec![]),
                (vec![Ok(vec![v[2], v[5]])], vec![]),
                (vec![Ok(vec![v[2], v[5]])], vec![v[3]]),
                (vec![Err(v[4])], vec![v[1], v[4], v[6]]),
                (vec![Ok(vec![v[3]]), Err(v[0])], vec![v[3]]),
                (vec![Ok(vec![v[1], v[6]])], vec![v[1], v[6]]),
            ];
            for (fills, excluded) in moves {
                let memoised = fills.contains(&Ok(excluded.clone()));
                let primed = || {
                    let (mut ns, mut eng) = swept_and_kept();
                    for fill in &fills {
                        match fill {
                            Err(pin) => ns.refill(&g, &mut eng, i, [*pin], r),
                            Ok(x) => ns
                                .refill_guarded(&g, &mut eng, i, v, x, r, &unlimited)
                                .unwrap(),
                        }
                    }
                    (ns, eng)
                };
                let (mut ns, mut eng) = primed();
                let counter = RunGuard::new();
                let before = ns.sweeps();
                ns.refill_guarded(&g, &mut eng, i, v, &excluded, r, &counter)
                    .unwrap();
                assert!(counter.checks() > 0);
                // A memoised patch is one copy: no node settles.
                assert_eq!(memoised, ns.sweeps() == before && !excluded.is_empty());
                assert_eq!(memoised, counter.settled() == 0 && !excluded.is_empty());
                in_patches += usize::from(memoised);
                // The re-sweep runs last and consults the guard once per
                // node it settles, so each of those is one trip point
                // inside it (the engine is already sized: no byte check).
                in_sweeps += counter.settled();
                for trip in 0..counter.checks() {
                    let (mut ns, mut eng) = primed();
                    let tripping = RunGuard::new().with_trip_after(trip);
                    ns.refill_guarded(&g, &mut eng, i, v, &excluded, r, &tripping)
                        .unwrap_err();
                    ns.assert_history_free();
                    assert_eq!(ns.repaired_from(i), None, "trip {trip}");
                    ns.refill_guarded(&g, &mut eng, i, v, &excluded, r, &unlimited)
                        .unwrap();
                    assert_is_sweep_of(&ns, &g, i, (v, &excluded), r);
                    ns.assert_history_free();
                }
            }
        }
        assert!(
            in_sweeps >= 100,
            "{in_sweeps} trip points inside cell re-sweeps"
        );
        assert_eq!(in_patches, 2 * v_sets.len());
    }

    #[test]
    fn a_repair_is_swept_once_per_exclusion_set_then_copied() {
        // The dense scenario's `V_1` in two dimensions, each with its own
        // base (on Fig. 4 no cell is ever re-reached: every patch is empty).
        let (g, spec) = crate::testing::dense_scenario();
        let (v, r) = (&sorted(&spec.keyword_nodes[0]), spec.rmax);
        let unlimited = RunGuard::unlimited();
        let mut eng = DijkstraEngine::new(g.node_count());
        let mut ns = NeighborSets::new(2, g.node_count());
        for i in 0..2 {
            ns.refill(&g, &mut eng, i, v.iter().copied(), r);
            ns.keep_base(&g, i);
        }
        let mut repair = |ns: &mut NeighborSets, i: usize, x: &[NodeId], guard: &RunGuard| {
            let before = ns.sweeps();
            let filled = ns.refill_guarded(&g, &mut eng, i, v, x, r, guard);
            (filled, ns.sweeps() - before)
        };
        let patches =
            |ns: &NeighborSets, i: usize| ns.base[i].as_ref().unwrap().patches.map.clone();
        // The first repair of `(0, X)` is one sweep, and memoises what it
        // settled at 16 bytes a node, 4 per id of `X` and a 32-byte slot.
        let x = vec![v[1], v[3]];
        let bytes = ns.byte_size();
        assert_eq!(repair(&mut ns, 0, &x, &unlimited), (Ok(()), 1));
        let patch = patches(&ns, 0)[&x[..]].len();
        assert!(patch > 0);
        let slots = patches(&ns, 0).capacity() * 32;
        assert_eq!(ns.byte_size(), bytes + slots + x.len() * 4 + patch * 16);
        // A repeat, over a table holding anything, sweeps nothing and is
        // bit-equal to the first, member order included.
        let swept = (ns.dist.clone(), ns.src.clone(), ns.members[0].clone());
        for other in [vec![], vec![v[0]], x.clone()] {
            repair(&mut ns, 0, &other, &unlimited).0.unwrap();
            assert_eq!(repair(&mut ns, 0, &x, &unlimited), (Ok(()), 0));
            assert_is_sweep_of(&ns, &g, 0, (v, &x), r);
            ns.assert_history_free();
            let copied = (ns.dist.clone(), ns.src.clone(), ns.members[0].clone());
            assert!(copied == swept, "after {other:?}");
        }
        // The same `X` in another dimension is another entry: one sweep.
        assert_eq!(repair(&mut ns, 1, &x, &unlimited), (Ok(()), 1));
        assert_eq!(repair(&mut ns, 1, &x, &unlimited), (Ok(()), 0));
        assert_eq!(ns.neighbor_set(0), ns.neighbor_set(1));
        assert_eq!((patches(&ns, 0).len(), patches(&ns, 1).len()), (2, 1));
        // A re-sweep the guard stops is not memoised: the next repair of
        // that `X` sweeps again. A settled budget of 0 lets every cell
        // copy through and trips at the re-sweep's first settle.
        let y = vec![v[2]];
        let tripping = RunGuard::new().with_settled_budget(0);
        let (tripped, sweeps) = repair(&mut ns, 1, &y, &tripping);
        assert_eq!(tripped, Err(InterruptReason::SettledBudgetExhausted));
        assert_eq!(sweeps, 1);
        ns.assert_history_free();
        assert_eq!(ns.repaired_from(1), None);
        assert!(!patches(&ns, 1).contains_key(&y[..]));
        assert_eq!(repair(&mut ns, 1, &y, &unlimited), (Ok(()), 1));
        assert_is_sweep_of(&ns, &g, 1, (v, &y), r);
        // A trip at a patch copy — the last check of a repeat — leaves a
        // consistent table that is not taken for a repaired one.
        let counter = RunGuard::new();
        assert_eq!(repair(&mut ns, 0, &x, &counter), (Ok(()), 0));
        let tripping = RunGuard::new().with_trip_after(counter.checks() - 1);
        let (tripped, sweeps) = repair(&mut ns, 0, &x, &tripping);
        assert_eq!((tripped, sweeps), (Err(InterruptReason::Injected), 0));
        ns.assert_history_free();
        assert_eq!(ns.repaired_from(0), None);
        assert_eq!(repair(&mut ns, 0, &x, &unlimited), (Ok(()), 0));
        assert_is_sweep_of(&ns, &g, 0, (v, &x), r);
        // A repeat that excludes every cell copies its patch alone, and
        // consults the guard for it all the same.
        assert_eq!(repair(&mut ns, 0, v, &unlimited), (Ok(()), 1));
        let tripping = RunGuard::new().with_trip_after(0);
        let tripped = repair(&mut ns, 0, v, &tripping);
        assert_eq!(tripped, (Err(InterruptReason::Injected), 0));
    }

    fn sorted(set: &[NodeId]) -> Vec<NodeId> {
        let mut set = set.to_vec();
        set.sort_unstable();
        set
    }

    #[test]
    fn try_new_rejects_bad_keyword_counts() {
        assert!(matches!(
            NeighborSets::try_new(0, 10),
            Err(QueryError::NoKeywords)
        ));
        assert!(matches!(
            NeighborSets::try_new(MAX_KEYWORDS + 1, 10),
            Err(QueryError::TooManyKeywords { l, max })
                if l == MAX_KEYWORDS + 1 && max == MAX_KEYWORDS
        ));
        assert!(NeighborSets::try_new(MAX_KEYWORDS, 10).is_ok());
    }

    #[test]
    fn recompute_all_matches_serial_dim_loop_bitwise() {
        // Pins the benchmark-facing shim to the one real fill path.
        let g = fig4();
        let pool = EnginePool::new();
        let r = Weight::new(8.0);
        let seeds = v_sets();
        let (_, dim_loop, _) = build(8.0);
        let mut shim = NeighborSets::new(3, g.node_count());
        let unlimited = RunGuard::unlimited();
        shim.recompute_all_guarded(&g, &pool, &seeds, r, &unlimited, Parallelism::serial())
            .unwrap();
        assert_eq!(shim.dist, dim_loop.dist, "dist");
        assert_eq!(shim.src, dim_loop.src, "src");
        assert_eq!(shim.count, dim_loop.count, "count");
        assert_eq!(shim.sweeps(), dim_loop.sweeps());
        assert_eq!(
            shim.best_core_with(CostFn::SumDistances),
            dim_loop.best_core_with(CostFn::SumDistances)
        );
        // One engine served every dimension and is parked again.
        assert_eq!(pool.pooled_engines(), 1);
    }

    #[test]
    fn recompute_all_respects_guard() {
        let g = fig4();
        let mut ns = NeighborSets::new(3, g.node_count());
        let tripping = RunGuard::new().with_settled_budget(2);
        let err = ns
            .recompute_all_guarded(
                &g,
                &EnginePool::new(),
                &v_sets(),
                Weight::new(8.0),
                &tripping,
                Parallelism::serial(),
            )
            .unwrap_err();
        assert_eq!(err, InterruptReason::SettledBudgetExhausted);
    }
}
