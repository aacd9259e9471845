//! The byte budget against the real heap.
//!
//! This binary's global allocator counts, per thread, the bytes live on
//! the heap and their high-water mark. Every guarded entry point runs over
//! a seeded corpus of random digraphs (a few hundred to 8 000 nodes, 4n
//! edges weighted `log2(1 + N_in)` like the tuple graphs, three keyword
//! sets of eight nodes, `Rmax = 8`), unbudgeted and under random
//! `RunGuard::with_byte_budget(B)`, and two properties must hold:
//!
//! * **(a) a budget bounds the heap.** A run that completes under `B`
//!   held at most `C·(B + S) + K` bytes more than it started with;
//! * **(b) a charge is what is held.** An enumerator that reports its
//!   charged peak (`peak_memory_bytes()`, `BaselineStats::peak_bytes`)
//!   held at most `C·(charge + S) + K` bytes, on every run: complete or
//!   interrupted, budgeted or not.
//!
//! `S` is the Dijkstra engine's scratch for the graph,
//! `DijkstraEngine::new(n).scratch_bytes()`: the one structure no
//! enumerator charges (a sweep charges it on its own, on growth).
//!
//! `C` and `K` are measured. On the first 24 seeds of this corpus (a
//! release build) real peak over `charge + S` is at most 1.15 for COMM-all
//! and COMM-k, 1.24 for LawlerK and 1.43 for BUall; what a community, a
//! `Vec` doubled past its length and a hash map's spare buckets hold is not
//! charged, and it weighs most in a small run. The largest overshoot of
//! `1.5·(charge or B + S)` is 43 KB, by a first `QueryEngine::answer` on a
//! few hundred nodes (its caches keep the runs, the index and the answer
//! entry), then 6 KB by TD top-k. So `C = 1.5` and `K = 64 KiB`; and a
//! structure of `O(n)` bytes left uncharged still fails from a few thousand
//! nodes on: the `O(l·n)` neighbor table a baseline keeps for
//! `GetCommunity()` is 300 KB at n = 8 000.

#![deny(unsafe_code)]

use communities::graph::{
    DijkstraEngine, EnginePool, Graph, GraphBuilder, NodeId, SplitMix64, Weight,
};
use communities::search::trees::topk_trees;
use communities::search::{
    bu_all_guarded, bu_topk_guarded, td_all_guarded, td_topk_guarded, BaselineRun, CommAll, CommK,
    Community, KeywordRun, LawlerK, Outcome, ProjectionIndex, QueryError, QuerySpec, RunGuard,
};
use communities::serve::{synthetic_engine, EngineConfig, QueryEngine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::mem::size_of;
use std::sync::mpsc;

thread_local! {
    /// Bytes this thread allocated minus bytes it freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The high-water mark of `LIVE` since the last [`measure`].
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    // `try_with`: a thread being torn down still frees memory.
    let _ = LIVE.try_with(|live| {
        let now = live.get().wrapping_add(delta);
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

/// [`System`], counting into the calling thread's [`LIVE`] and [`PEAK`].
struct Counting;

#[allow(unsafe_code)]
// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping around the calls
// touches only const-initialised thread-locals of `Cell`s, which neither
// allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        note(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            note(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

/// Runs `f` and returns its value and the most bytes this thread held
/// during it beyond what it held when `f` started.
fn measure<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(start));
    let out = f();
    let peak = PEAK.with(Cell::get);
    (out, usize::try_from(peak - start).unwrap_or(0))
}

/// `C = C_NUM / C_DEN` and `K` of the bound `C·(bytes + S) + K`.
const C_NUM: usize = 3;
const C_DEN: usize = 2;
const K: usize = 64 << 10;
const RMAX: f64 = 8.0;
const KEYWORDS: [&str; 3] = ["a", "b", "c"];

/// `C·(bytes + scratch) + K`.
fn bound(bytes: usize, scratch: usize) -> usize {
    (bytes + scratch) * C_NUM / C_DEN + K
}

/// A random digraph of `n` nodes and `4n` distinct edges, each weighted
/// `log2(1 + N_in(v))`, and three keyword sets of eight nodes.
fn corpus_case(rng: &mut SplitMix64, n: usize) -> (Graph, QuerySpec) {
    let mut links: BTreeSet<(usize, usize)> = BTreeSet::new();
    while links.len() < 4 * n {
        let (u, v) = (rng.index(n), rng.index(n));
        if u != v {
            links.insert((u, v));
        }
    }
    let mut in_degree = vec![0u32; n];
    for &(_, v) in &links {
        in_degree[v] += 1;
    }
    let id = |u: usize| NodeId(u32::try_from(u).unwrap());
    let mut b = GraphBuilder::new(n);
    for &(u, v) in &links {
        let w = f64::from(1 + in_degree[v]).log2();
        b.add_edge(id(u), id(v), Weight::new(w));
    }
    let sets = (0..3)
        .map(|_| (0..8).map(|_| id(rng.index(n))).collect())
        .collect();
    (b.build(), QuerySpec::new(sets, Weight::new(RMAX)))
}

/// What one guarded run reports: whether it completed, the peak bytes it
/// charged (the enumerators only) and the most bytes it held.
struct Run(bool, Option<usize>, usize);

#[rustfmt::skip]
const ENTRY_POINTS: [&str; 13] = [
    "comm_all", "comm_k", "lawler_k", "bu_all", "td_all", "bu_topk", "td_topk", "topk_trees",
    "build_guarded", "try_project", "answer", "answer_resume", "answer_slice",
];

/// `spec`'s keyword sets, named by [`KEYWORDS`].
fn keywords<'s>(spec: &'s QuerySpec) -> impl Iterator<Item = (&'s str, &'s [NodeId])> {
    let named = KEYWORDS.into_iter().zip(&spec.keyword_nodes);
    named.map(|(w, nodes)| -> (&'s str, &'s [NodeId]) { (w, nodes) })
}

/// Runs entry point `name` over `g` and `spec` under `guard`. The
/// enumerators stop after `limit` communities, the top-k ones rank
/// `limit`; the serving path computes `limit`, resumes a cached `limit`
/// to `2·limit` and slices a cached `2·limit` to `limit`.
fn run(g: &Graph, spec: &QuerySpec, limit: usize, name: &str, guard: RunGuard) -> Run {
    macro_rules! pd {
        ($ty:ident) => {{
            let (it, held) = measure(|| {
                let mut it = $ty::try_new(g, spec).unwrap().with_guard(guard);
                it.by_ref().take(limit).for_each(drop);
                it
            });
            Run(
                it.interrupted().is_none(),
                Some(it.peak_memory_bytes()),
                held,
            )
        }};
    }
    let baseline = |(out, held): (Result<Outcome<BaselineRun>, _>, usize)| {
        let out = out.unwrap();
        Run(out.is_complete(), Some(out.value().stats.peak_bytes), held)
    };
    let bare = |(complete, held)| Run(complete, None, held);
    // A trip is the one error a run of a valid query may return.
    let trip = |e: QueryError| assert!(matches!(e, QueryError::Interrupted(_)), "{e}");
    let build = |guard: &RunGuard| {
        ProjectionIndex::build_guarded(g, keywords(spec), spec.rmax, guard, &EnginePool::new())
    };
    match name {
        "comm_all" => pd!(CommAll),
        "comm_k" => pd!(CommK),
        "lawler_k" => pd!(LawlerK),
        "bu_all" => baseline(measure(|| bu_all_guarded(g, spec, Some(limit), guard))),
        "td_all" => baseline(measure(|| td_all_guarded(g, spec, Some(limit), guard))),
        "bu_topk" => baseline(measure(|| bu_topk_guarded(g, spec, limit, None, guard))),
        "td_topk" => baseline(measure(|| td_topk_guarded(g, spec, limit, None, guard))),
        "topk_trees" => bare(measure(|| topk_trees(g, spec, limit, &guard).is_ok())),
        "build_guarded" => bare(measure(|| build(&guard).is_ok())),
        "try_project" => {
            let index = build(&RunGuard::new()).unwrap();
            let project = || {
                index
                    .try_project(&KEYWORDS, spec.rmax, &guard)
                    .map_err(trip)
            };
            bare(measure(|| project().is_ok()))
        }
        _ => {
            let (cached, k) = match name {
                "answer_resume" => (limit, 2 * limit),
                "answer_slice" => (2 * limit, limit),
                _ => (0, limit),
            };
            let vocab = keywords(spec)
                .map(|(w, v)| (w.to_string(), v.to_vec()))
                .collect();
            let engine = QueryEngine::new(g.clone(), vocab, EngineConfig::default()).unwrap();
            let words = KEYWORDS.map(String::from);
            let answer = |k: usize, guard: &RunGuard| {
                let out = engine.answer(&words, RMAX, k as u32, guard).map_err(trip);
                out.is_ok_and(|out| out.is_complete())
            };
            assert!(cached == 0 || answer(cached, &RunGuard::new()));
            bare(measure(|| answer(k, &guard)))
        }
    }
}

/// Properties (a) and (b) of the module docs over the seeded corpus: each
/// entry point runs unbudgeted, then under three budgets drawn from
/// `[0, 2·P]`, `P` its charged peak unbudgeted (what it held, for the
/// entry points that report no charge).
#[test]
fn budgets_and_charges_bound_the_real_heap() {
    SplitMix64::for_each_case(6, |rng| {
        let n = 300 + rng.index(7_700);
        let (g, spec) = corpus_case(rng, n);
        let limit = 1 + rng.index(4);
        let scratch = DijkstraEngine::new(n).scratch_bytes();
        for name in ENTRY_POINTS {
            let free = run(&g, &spec, limit, name, RunGuard::new());
            assert!(free.0, "{name}: the unbudgeted run must complete");
            let peak = free.1.unwrap_or(free.2);
            let mut runs = vec![(None, free)];
            for _ in 0..3 {
                let b = rng.index(2 * peak + 1);
                let guard = RunGuard::new().with_byte_budget(b);
                runs.push((Some(b), run(&g, &spec, limit, name, guard)));
            }
            for (budget, Run(complete, charged, held)) in runs {
                let at =
                    format!("{name} at n = {n}, limit {limit}, budget {budget:?}, S {scratch} B");
                if let Some(c) = charged {
                    assert!(
                        held <= bound(c, scratch),
                        "{at}: held {held} B, charged {c} B"
                    );
                }
                if let (Some(b), true) = (budget, complete) {
                    assert!(held <= bound(b, scratch), "{at}: held {held} B, completing");
                }
            }
        }
    });
}

/// Property (a) for a tripped index build too: `build_guarded` charges
/// each growth of a keyword's run, with the runs already swept, before it
/// allocates it, so a build the budget stops held no more than the budget
/// allows either. Twelve keywords, so that the runs together outweigh the
/// engine's scratch `S`.
#[test]
fn a_tripped_index_build_holds_what_its_budget_allows() {
    SplitMix64::for_each_case(6, |rng| {
        let n = 300 + rng.index(7_700);
        let (g, _) = corpus_case(rng, n);
        let id = |rng: &mut SplitMix64| NodeId(u32::try_from(rng.index(n)).unwrap());
        let sets: Vec<(String, Vec<NodeId>)> = (0..12)
            .map(|i| (format!("w{i}"), (0..8).map(|_| id(rng)).collect()))
            .collect();
        let keywords = || sets.iter().map(|(w, v)| (w.as_str(), v.as_slice()));
        let build = |guard: RunGuard| {
            let pool = EnginePool::new();
            ProjectionIndex::build_guarded(&g, keywords(), Weight::new(RMAX), &guard, &pool).is_ok()
        };
        let scratch = DijkstraEngine::new(n).scratch_bytes();
        let (_, peak) = measure(|| build(RunGuard::new()));
        for _ in 0..6 {
            let b = rng.index(peak + 1);
            let (complete, held) = measure(|| build(RunGuard::new().with_byte_budget(b)));
            assert!(
                held <= bound(b, scratch),
                "build_guarded at n = {n}, budget {b} B, complete {complete}, \
                 S {scratch} B: held {held} B"
            );
        }
    });
}

/// A keyword's run is charged before each growth, so a sweep its budget
/// stops held about that budget of run, not the whole run. The engine
/// sweeps once unbudgeted first: its scratch and heap are warm, and only
/// the run's own bytes are measured.
#[test]
fn a_tripped_sweep_holds_its_budget_not_its_run() {
    SplitMix64::for_each_case(3, |rng| {
        let n = 4_000 + rng.index(4_000);
        let (g, spec) = corpus_case(rng, n);
        // All 24 keyword nodes at twice the radius: a run of most of the graph.
        let v_w: Vec<NodeId> = spec.keyword_nodes.concat();
        let (v_w, r) = (&v_w, Weight::new(2.0 * RMAX));
        let mut engine = DijkstraEngine::new(n);
        let mut sweep = |guard| KeywordRun::sweep(&g, &mut engine, v_w, r, &guard);
        let whole = sweep(RunGuard::new()).unwrap().byte_size();
        let b = whole / 4;
        let (out, held) = measure(|| sweep(RunGuard::new().with_byte_budget(b)).is_ok());
        assert!(
            !out && b > 4096,
            "n = {n}: a {whole} B run under a {b} B budget"
        );
        assert!(
            held <= 2 * b + 4096,
            "n = {n}: held {held} B of a {whole} B run under a {b} B budget"
        );
    });
}

/// A slice of a warm answer entry shares the entry's communities: it
/// allocates the reply's handles, `k · size_of::<Community>()` bytes, and
/// a small constant for the keys, whatever the communities weigh.
#[test]
fn a_slice_copies_handles_not_communities() {
    let engine = synthetic_engine(16, EngineConfig::default()).unwrap();
    let words = ["alpha", "beta"].map(String::from);
    let answer = |k: u32| engine.answer(&words, 5.0, k, &RunGuard::new()).unwrap();
    let warm = answer(250);
    assert_eq!(warm.value().len(), 250, "the entry holds 250 communities");
    let weight: usize = warm.value().iter().map(Community::byte_size).sum();
    for k in [50, 250] {
        let (out, held) = measure(|| answer(k));
        assert!(out.is_complete() && out.value().len() == k as usize);
        let handles = k as usize * size_of::<Community>();
        assert!(
            held <= handles + 4096,
            "a slice to k = {k} held {held} B: {handles} B of handles, {weight} B of communities"
        );
    }
}

/// The counters are per thread: what a sibling thread allocates, holds
/// and frees while this one is measured does not move this one's peak.
#[test]
fn a_sibling_threads_allocations_do_not_move_this_threads_counter() {
    let (started, wait) = mpsc::channel();
    let (release, go) = mpsc::channel::<()>();
    let ((), held) = measure(|| {
        let sibling = std::thread::spawn(move || {
            let big = vec![1u8; 8 << 20];
            started.send(()).unwrap();
            go.recv().unwrap();
            drop(big);
        });
        wait.recv().unwrap();
        release.send(()).unwrap();
        sibling.join().unwrap();
    });
    assert!(
        held < 1 << 20,
        "a sibling's 8 MiB moved this peak by {held} B"
    );
    let (_, own) = measure(|| vec![1u8; 8 << 20]);
    assert!(own >= 8 << 20, "this thread's own 8 MiB counted {own} B");
}
