//! Property tests: the polynomial-delay enumerators must agree with the
//! exponential naive oracle on random graphs — completeness,
//! duplication-freeness, cost correctness, rank order, and resumability.
//! Each property runs over [`CASES`] seeded random scenarios.

use comm_core::naive::{naive_all_cores, naive_community_nodes};
use comm_core::verify::{check_community, check_enumeration, check_ranking};
use comm_core::{
    bu_all_guarded, bu_topk_guarded, comm_all_guarded, comm_k_guarded, get_community_guarded,
    td_all_guarded, td_topk_guarded, BaselineRun, CommAll, CommK, Community, Core, CostFn,
    EnginePool, InterruptReason, LawlerK, Outcome, ProjectionIndex, QueryError, QuerySpec,
    RunGuard,
};
use comm_graph::{DijkstraEngine, Direction, Graph, GraphBuilder, NodeId, SplitMix64, Weight};

const CASES: u64 = 96;

/// A draw from `0..n` as a `u32` (every bound here is tiny).
fn below(rng: &mut SplitMix64, n: usize) -> u32 {
    rng.index(n) as u32
}

/// A random sparse weighted digraph plus keyword sets and a radius: 4–17
/// nodes, up to `3n` edges of weight `1..6`, 1–3 keyword sets of 1–3 nodes
/// each, radius `2..14`.
fn scenario(rng: &mut SplitMix64) -> (Graph, QuerySpec) {
    let n = 4 + rng.index(14);
    let l = 1 + rng.index(3);
    let mut b = GraphBuilder::new(n);
    for _ in 0..rng.index(n * 3) {
        let (u, v, w) = (below(rng, n), below(rng, n), 1 + below(rng, 5));
        b.add_edge(NodeId(u), NodeId(v), Weight::from(w));
    }
    let keyword_nodes = (0..l)
        .map(|_| {
            (0..1 + rng.index(3))
                .map(|_| NodeId(below(rng, n)))
                .collect()
        })
        .collect();
    let rmax = Weight::from(2 + below(rng, 12));
    (b.build(), QuerySpec::new(keyword_nodes, rmax))
}

/// Runs `body` on [`CASES`] scenarios; extra per-case parameters are drawn
/// from the same stream inside `body`.
fn for_each_scenario(mut body: impl FnMut(&mut SplitMix64, Graph, QuerySpec)) {
    SplitMix64::for_each_case(CASES, |rng| {
        let (g, spec) = scenario(rng);
        body(rng, g, spec);
    });
}

fn collect_all(g: &Graph, spec: &QuerySpec) -> Vec<Community> {
    CommAll::try_new(g, spec).unwrap().collect()
}

fn unguarded(out: Result<Outcome<BaselineRun>, QueryError>) -> BaselineRun {
    out.unwrap().into_value()
}

fn sorted_cores(cores: impl IntoIterator<Item = Core>) -> Vec<Core> {
    let mut v: Vec<Core> = cores.into_iter().collect();
    v.sort();
    v
}

/// Structural invariants every emitted community must satisfy, on complete
/// *and* partial (guard-interrupted) output: at least one center, strictly
/// sorted role lists, and the core contained in the knodes.
fn check_partial_invariants(communities: &[Community]) {
    for c in communities {
        assert!(!c.centers.is_empty(), "community without a center");
        assert!(
            c.centers.windows(2).all(|w| w[0] < w[1]),
            "centers unsorted"
        );
        assert!(c.knodes.windows(2).all(|w| w[0] < w[1]), "knodes unsorted");
        assert!(
            c.path_nodes.windows(2).all(|w| w[0] < w[1]),
            "path nodes unsorted"
        );
        for n in &c.core.0 {
            assert!(c.knodes.contains(n), "core node missing from knodes");
        }
    }
}

/// COMM-all is complete and duplication-free: its core set equals the
/// naive oracle's exactly.
#[test]
fn comm_all_equals_naive() {
    for_each_scenario(|_rng, g, spec| {
        let expect = sorted_cores(naive_all_cores(&g, &spec).into_iter().map(|(c, _)| c));
        let got_list: Vec<Core> = collect_all(&g, &spec)
            .into_iter()
            .map(|c| c.core.clone())
            .collect();
        let deduped = {
            let mut v = got_list.clone();
            v.sort();
            let before = v.len();
            v.dedup();
            assert_eq!(before, v.len(), "COMM-all emitted a duplicate core");
            v
        };
        assert_eq!(deduped, expect);
    });
}

/// COMM-k emits the same core set, in non-decreasing true-cost order,
/// with per-community costs matching the oracle.
#[test]
fn comm_k_equals_naive_in_rank_order() {
    for_each_scenario(|_rng, g, spec| {
        let expect = naive_all_cores(&g, &spec);
        let got: Vec<(Core, Weight)> = CommK::try_new(&g, &spec)
            .unwrap()
            .map(|c| (c.core.clone(), c.cost))
            .collect();
        assert_eq!(got.len(), expect.len());
        // Cost sequence identical (ties may order differently, so compare
        // the cost vectors and the core sets separately).
        let costs_got: Vec<Weight> = got.iter().map(|&(_, w)| w).collect();
        let costs_expect: Vec<Weight> = expect.iter().map(|&(_, w)| w).collect();
        assert_eq!(costs_got, costs_expect);
        let a = sorted_cores(got.into_iter().map(|(c, _)| c));
        let b = sorted_cores(expect.into_iter().map(|(c, _)| c));
        assert_eq!(a, b);
    });
}

/// Stopping and resuming CommK at an arbitrary point changes nothing.
#[test]
fn comm_k_resume_invariance() {
    for_each_scenario(|rng, g, spec| {
        let split = rng.index(6);
        let oneshot: Vec<Core> = CommK::try_new(&g, &spec)
            .unwrap()
            .map(|c| c.core.clone())
            .collect();
        let mut it = CommK::try_new(&g, &spec).unwrap();
        let mut resumed: Vec<Core> = it.by_ref().take(split).map(|c| c.core.clone()).collect();
        resumed.extend(it.map(|c| c.core.clone()));
        assert_eq!(resumed, oneshot);
    });
}

/// GetCommunity's role assignment matches the brute-force definition.
#[test]
fn get_community_matches_definition() {
    for_each_scenario(|_rng, g, spec| {
        let mut engine = DijkstraEngine::new(g.node_count());
        for (core, cost) in naive_all_cores(&g, &spec).into_iter().take(8) {
            let c = get_community_guarded(
                &g,
                &mut engine,
                &core,
                spec.rmax,
                CostFn::SumDistances,
                &RunGuard::unlimited(),
            )
            .unwrap()
            .expect("oracle core has a center");
            assert_eq!(c.cost, cost, "cost mismatch for {:?}", &c.core);
            let (centers, members) = naive_community_nodes(&g, &core, spec.rmax);
            assert_eq!(&c.centers, &centers);
            assert_eq!(c.nodes(), &members[..]);
            // Role partition: knodes ∪ centers ∪ pnodes = members.
            let mut roles: Vec<NodeId> = c
                .knodes
                .iter()
                .chain(&c.centers)
                .chain(&c.path_nodes)
                .copied()
                .collect();
            roles.sort_unstable();
            roles.dedup();
            assert_eq!(roles, members);
        }
    });
}

/// Both expanding baselines agree with the oracle on the core set.
#[test]
fn baselines_equal_naive() {
    for_each_scenario(|_rng, g, spec| {
        let expect = sorted_cores(naive_all_cores(&g, &spec).into_iter().map(|(c, _)| c));
        let bu = sorted_cores(
            unguarded(bu_all_guarded(&g, &spec, None, RunGuard::unlimited()))
                .communities
                .into_iter()
                .map(|c| c.core.clone()),
        );
        let td = sorted_cores(
            unguarded(td_all_guarded(&g, &spec, None, RunGuard::unlimited()))
                .communities
                .into_iter()
                .map(|c| c.core.clone()),
        );
        assert_eq!(&bu, &expect, "bottom-up disagrees with oracle");
        assert_eq!(&td, &expect, "top-down disagrees with oracle");
    });
}

/// The baselines' top-k cost sequences match the polynomial-delay one.
#[test]
fn baseline_topk_order_matches_pdk() {
    for_each_scenario(|rng, g, spec| {
        let k = 1 + rng.index(7);
        let pd: Vec<Weight> = CommK::try_new(&g, &spec)
            .unwrap()
            .take(k)
            .map(|c| c.cost)
            .collect();
        let bu: Vec<Weight> = unguarded(bu_topk_guarded(&g, &spec, k, None, RunGuard::unlimited()))
            .communities
            .iter()
            .map(|c| c.cost)
            .collect();
        let td: Vec<Weight> = unguarded(td_topk_guarded(&g, &spec, k, None, RunGuard::unlimited()))
            .communities
            .iter()
            .map(|c| c.cost)
            .collect();
        assert_eq!(&bu, &pd);
        assert_eq!(&td, &pd);
    });
}

/// The naive Lawler procedure produces the exact same enumeration as
/// COMM-k (it only lacks the sweep sharing).
#[test]
fn lawler_equals_comm_k() {
    for_each_scenario(|_rng, g, spec| {
        let ours: Vec<(Core, Weight)> = CommK::try_new(&g, &spec)
            .unwrap()
            .map(|c| (c.core.clone(), c.cost))
            .collect();
        let lawler: Vec<(Core, Weight)> = LawlerK::try_new(&g, &spec)
            .unwrap()
            .map(|c| (c.core.clone(), c.cost))
            .collect();
        assert_eq!(ours, lawler);
    });
}

/// The MaxDistance cost function: same result set, correct ordering,
/// across enumerators and the oracle.
#[test]
fn max_distance_cost_agrees_with_oracle() {
    for_each_scenario(|_rng, g, spec| {
        let spec = spec.with_cost(CostFn::MaxDistance);
        let expect = naive_all_cores(&g, &spec);
        let got: Vec<(Core, Weight)> = CommK::try_new(&g, &spec)
            .unwrap()
            .map(|c| (c.core.clone(), c.cost))
            .collect();
        assert_eq!(got.len(), expect.len());
        let costs_got: Vec<Weight> = got.iter().map(|&(_, w)| w).collect();
        let costs_expect: Vec<Weight> = expect.iter().map(|&(_, w)| w).collect();
        assert_eq!(costs_got, costs_expect);
        assert_eq!(
            sorted_cores(got.into_iter().map(|(c, _)| c)),
            sorted_cores(expect.into_iter().map(|(c, _)| c))
        );
        // Baselines under the same cost function agree too.
        let k = 6;
        let pd: Vec<Weight> = CommK::try_new(&g, &spec)
            .unwrap()
            .take(k)
            .map(|c| c.cost)
            .collect();
        let bu: Vec<Weight> = unguarded(bu_topk_guarded(&g, &spec, k, None, RunGuard::unlimited()))
            .communities
            .iter()
            .map(|c| c.cost)
            .collect();
        assert_eq!(bu, pd);
    });
}

/// The boundary-weight rung: the sink-bounded forward sweep of
/// `GetCommunity()` on graphs built to break it. Multigraphs over weights
/// `{0, 0.1, 0.2, 0.3, 0.4}` with parallel edges and a zero-weight cycle,
/// under radii that are tenths or sums of tenths as one `f64` fold order
/// realises them — which `Weight::new` rounds back to the tenth — so path
/// sums land on `Rmax` exactly. Every community of
/// COMM-all and COMM-k certifies against the unpruned oracle sweep of
/// `comm_core::verify`, and a fresh engine's `GetCommunity()` rebuilds
/// each one's members.
#[test]
fn boundary_weight_communities_certify() {
    const WEIGHTS: [f64; 5] = [0.0, 0.1, 0.2, 0.3, 0.4];
    const REALISED: [f64; 3] = [
        0.1 + 0.2,         // 0.30000000000000004
        (0.1 + 0.2) + 0.3, // 0.6000000000000001
        (0.4 + 0.3) + 0.2, // 0.8999999999999999
    ];
    const { assert!(REALISED[0] > 0.3 && REALISED[1] > 0.6 && REALISED[2] < 0.9) };
    for (realised, tenth) in REALISED.into_iter().zip([0.3, 0.6, 0.9]) {
        assert_eq!(Weight::new(realised), Weight::new(tenth));
    }
    let mut certified = 0;
    SplitMix64::for_each_case(4 * CASES, |rng| {
        let n = 4 + rng.index(9);
        let mut b = GraphBuilder::new(n);
        for _ in 0..n + rng.index(n * 3) {
            let (u, v) = (NodeId(below(rng, n)), NodeId(below(rng, n)));
            b.add_edge(u, v, Weight::new(WEIGHTS[rng.index(WEIGHTS.len())]));
            if rng.index(4) == 0 {
                b.add_edge(u, v, Weight::new(WEIGHTS[rng.index(WEIGHTS.len())]));
            }
        }
        let (u, v) = (NodeId(below(rng, n)), NodeId(below(rng, n)));
        b.add_edge(u, v, Weight::ZERO);
        b.add_edge(v, u, Weight::ZERO);
        let g = b.build();
        let keyword_nodes = (0..1 + rng.index(3))
            .map(|_| {
                (0..1 + rng.index(3))
                    .map(|_| NodeId(below(rng, n)))
                    .collect()
            })
            .collect();
        let rmax = match rng.index(16) {
            k @ 0..=12 => k as f64 / 10.0,
            k => REALISED[k - 13],
        };
        let spec = QuerySpec::new(keyword_nodes, Weight::new(rmax));

        let all = collect_all(&g, &spec);
        check_enumeration(&g, &spec, &all).unwrap();
        let ranked: Vec<Community> = CommK::try_new(&g, &spec).unwrap().collect();
        check_enumeration(&g, &spec, &ranked).unwrap();
        check_ranking(&ranked).unwrap();
        assert_eq!(ranked.len(), all.len());
        let mut heap = DijkstraEngine::new(n);
        let guard = RunGuard::unlimited();
        for c in &all {
            let on_heap =
                get_community_guarded(&g, &mut heap, &c.core, spec.rmax, spec.cost, &guard)
                    .unwrap()
                    .expect("an emitted core has a center");
            check_community(&g, &spec, &on_heap).unwrap();
            assert_eq!(on_heap.nodes(), c.nodes());
        }
        certified += all.len();
    });
    assert!(certified >= 1000, "only {certified} communities certified");
}

/// The projection rung (Sec. VI), over graphs with zero-weight edges and
/// fractional weights, a node carrying two keywords, `rmax == R` and
/// `rmax < R`, and queries over a prefix of a larger index:
/// (i) `G_P` is `G_D` induced on the kept nodes, edge for edge;
/// (ii) COMM-all on `G_P`, lifted, is COMM-all on `G_D` — same cores in
/// the same order with the same costs and members — certifies against `G_D` and
/// agrees with the naive oracle;
/// (iii) every stored run is a fresh reverse sweep's settle stream;
/// (iv) the kept set grows with `rmax`;
/// (v) a query with no candidate center projects to nothing, sweep-free.
#[test]
fn projection_preserves_results() {
    const WEIGHTS: [f64; 6] = [0.0, 0.1, 0.3, 0.7, 1.1, 2.5];
    SplitMix64::for_each_case(CASES, |rng| {
        let n = 4 + rng.index(14);
        let mut b = GraphBuilder::new(n);
        for _ in 0..rng.index(n * 3) {
            let w = Weight::new(WEIGHTS[rng.index(WEIGHTS.len())]);
            b.add_edge(NodeId(below(rng, n)), NodeId(below(rng, n)), w);
        }
        let g = b.build();
        let mut sets: Vec<Vec<NodeId>> = (0..2 + rng.index(3))
            .map(|_| {
                (0..1 + rng.index(3))
                    .map(|_| NodeId(below(rng, n)))
                    .collect()
            })
            .collect();
        let shared = sets[0][0];
        sets[1].push(shared);
        let rmax = Weight::new(0.5 * f64::from(below(rng, 9)));
        let radius = rmax + Weight::new(0.5 * f64::from(below(rng, 3)));
        let names: Vec<String> = (0..sets.len()).map(|i| format!("kw{i}")).collect();
        let idx = ProjectionIndex::build_guarded(
            &g,
            names.iter().zip(&sets).map(|(n, v)| (n.as_str(), &v[..])),
            radius,
            &RunGuard::unlimited(),
            &EnginePool::new(),
        )
        .unwrap();

        let mut engine = DijkstraEngine::new(n);
        for (name, set) in names.iter().zip(&sets) {
            let mut stream = Vec::new();
            let seeds = set.iter().copied();
            engine.run(&g, Direction::Reverse, seeds, radius, |s| {
                stream.push((s.node, s.dist));
            });
            assert_eq!(idx.reach_of(name), stream, "run of {name}");
            assert!(stream.windows(2).all(|w| w[0].1 <= w[1].1));
        }

        let l = 1 + rng.index(sets.len());
        let query: Vec<&str> = names[..l].iter().map(String::as_str).collect();
        let spec = QuerySpec::new(sets[..l].to_vec(), rmax);
        let guard = RunGuard::new();
        let pq = idx.try_project(&query, rmax, &guard).unwrap();

        let induced = g.induce(&pq.projected.original_ids);
        assert_eq!(induced.original_ids, pq.projected.original_ids);
        let edges = |g: &Graph| g.edges().collect::<Vec<_>>();
        assert_eq!(edges(&pq.projected.graph), edges(&induced.graph));

        let full = collect_all(&g, &spec);
        let lifted: Vec<Community> = collect_all(&pq.projected.graph, &pq.spec)
            .into_iter()
            .map(|c| pq.lift(c))
            .collect();
        let ranked = |cs: &[Community]| -> Vec<(Core, Weight)> {
            cs.iter().map(|c| (c.core.clone(), c.cost)).collect()
        };
        let members = |cs: &[Community]| -> Vec<Vec<NodeId>> {
            cs.iter().map(|c| c.nodes().to_vec()).collect()
        };
        assert_eq!(ranked(&lifted), ranked(&full));
        assert_eq!(members(&lifted), members(&full));
        check_enumeration(&g, &spec, &lifted).unwrap();
        let mut sorted = ranked(&lifted);
        sorted.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        assert_eq!(sorted, naive_all_cores(&g, &spec));

        if full.is_empty() {
            assert_eq!(pq.projected.graph.node_count(), 0);
            assert_eq!(guard.settled(), 0, "an empty V_c must not sweep");
        }
        let tighter = Weight::new(rmax.get() * rng.unit_f64());
        let small = idx
            .try_project(&query, tighter, &RunGuard::unlimited())
            .unwrap();
        let kept = &pq.projected.original_ids;
        assert!(
            small
                .projected
                .original_ids
                .iter()
                .all(|v| kept.contains(v)),
            "keep({tighter}) is not inside keep({rmax})"
        );
    });
}

/// A guarded COMM-all tripped at any fault-injection point emits an
/// exact prefix of the unguarded enumeration, and every partial
/// community still satisfies the structural invariants.
#[test]
fn guarded_comm_all_is_prefix_of_unguarded() {
    for_each_scenario(|rng, g, spec| {
        let trip = rng.below(600);
        let full: Vec<(Core, Weight)> = collect_all(&g, &spec)
            .into_iter()
            .map(|c| (c.core.clone(), c.cost))
            .collect();
        let out = comm_all_guarded(&g, &spec, RunGuard::new().with_trip_after(trip)).unwrap();
        let (partial, interrupted) = match out {
            Outcome::Complete(v) => (v, false),
            Outcome::Interrupted { reason, partial } => {
                assert_eq!(reason, InterruptReason::Injected);
                (partial, true)
            }
        };
        assert!(partial.len() <= full.len());
        for (got, want) in partial.iter().zip(&full) {
            assert_eq!(&got.core, &want.0, "guarded output diverged from prefix");
            assert_eq!(got.cost, want.1);
        }
        if !interrupted {
            assert_eq!(partial.len(), full.len(), "untripped run must be complete");
        }
        check_partial_invariants(&partial);
    });
}

/// Same prefix guarantee for COMM-k, plus rank order: costs on the
/// partial output are non-decreasing.
#[test]
fn guarded_comm_k_is_ranked_prefix_of_unguarded() {
    for_each_scenario(|rng, g, spec| {
        let trip = rng.below(600);
        let full: Vec<(Core, Weight)> = CommK::try_new(&g, &spec)
            .unwrap()
            .map(|c| (c.core.clone(), c.cost))
            .collect();
        let out =
            comm_k_guarded(&g, &spec, usize::MAX, RunGuard::new().with_trip_after(trip)).unwrap();
        let partial = out.into_value();
        assert!(partial.len() <= full.len());
        for (got, want) in partial.iter().zip(&full) {
            assert_eq!(&got.core, &want.0, "guarded output diverged from prefix");
            assert_eq!(got.cost, want.1);
        }
        for w in partial.windows(2) {
            assert!(w[0].cost <= w[1].cost, "partial ranking out of order");
        }
        check_partial_invariants(&partial);
    });
}

/// Monotonicity: growing the radius can only add communities.
#[test]
fn radius_monotonicity() {
    for_each_scenario(|_rng, g, spec| {
        let small = sorted_cores(naive_all_cores(&g, &spec).into_iter().map(|(c, _)| c));
        let mut bigger = spec.clone();
        bigger.rmax = spec.rmax + Weight::from(3u32);
        let large = sorted_cores(collect_all(&g, &bigger).into_iter().map(|c| c.core.clone()));
        for c in &small {
            assert!(
                large.binary_search(c).is_ok(),
                "lost {c:?} when radius grew"
            );
        }
    });
}

/// Tripping one shared cancel flag interrupts every in-flight query of
/// a concurrent batch: each returns `Outcome::Interrupted` with the
/// cancellation reason and a valid (possibly empty) prefix.
#[test]
fn shared_guard_trip_interrupts_every_inflight_query() {
    for_each_scenario(|rng, g, spec| {
        let batch = 2 + rng.index(4);
        let flag = RunGuard::new().cancel_flag();
        flag.store(true, std::sync::atomic::Ordering::SeqCst);
        let outs: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..batch)
                .map(|_| {
                    let guard = RunGuard::new().with_cancel_flag(std::sync::Arc::clone(&flag));
                    let (g, spec) = (&g, &spec);
                    s.spawn(move || comm_k_guarded(g, spec, usize::MAX, guard))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for out in outs {
            match out.unwrap() {
                Outcome::Interrupted { reason, partial } => {
                    assert_eq!(reason, InterruptReason::Cancelled);
                    check_partial_invariants(&partial);
                }
                Outcome::Complete(_) => panic!("tripped guard ran to completion"),
            }
        }
    });
}
