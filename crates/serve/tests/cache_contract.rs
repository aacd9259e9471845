//! The caching contracts, gated by the `comm_core::verify` certification
//! path:
//!
//! 1. cached and uncached answers are **bit-identical** — as structures
//!    and as encoded wire bytes;
//! 2. a tripped guard during a cached-answer reply still returns an exact
//!    prefix;
//! 3. a trip during index build never leaves a half-built
//!    `ProjectionIndex` or a half-swept `KeywordRun` in a cache;
//! 4. an index assembled from cached keyword runs answers bit for bit
//!    what a fresh engine answers, whatever the run cache held, evicted
//!    or refused;
//! 5. so does one engine shared by concurrent queries, which find runs,
//!    indexes and answers while other threads fill them;
//! 6. one answer entry serves every `k` of a `(keywords, Rmax)`: a smaller
//!    `k` is a slice, a larger one resumes the parked enumeration to the
//!    bytes a fresh engine sends, and neither a tripped resume nor a
//!    concurrent one ever shortens the entry.

use comm_core::{
    check_community, check_ranking, check_topk_prefix, Community, KeywordRun, QueryError, QuerySpec,
};
use comm_graph::{DijkstraEngine, Outcome, RunGuard, Weight};
use comm_serve::{encode_response, summarize, EngineConfig, QueryEngine, Response};

fn engine() -> QueryEngine {
    comm_serve::synthetic_engine(8, EngineConfig::default()).expect("synthetic engine builds")
}

fn kws(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| s.to_string()).collect()
}

/// The full-graph spec equivalent to a request, for certification.
fn spec_for(engine: &QueryEngine, keywords: &[String], rmax: f64) -> QuerySpec {
    let sets = keywords
        .iter()
        .map(|kw| engine.keyword_nodes(kw).expect("workload keyword").to_vec())
        .collect();
    QuerySpec::new(sets, Weight::new(rmax))
}

#[test]
fn cached_and_uncached_answers_are_bit_identical_and_certified() {
    let engine = engine();
    let keywords = kws(&["alpha", "beta"]);
    let (rmax, k) = (4.0, 5);

    let uncached = engine
        .answer(&keywords, rmax, k, &RunGuard::unlimited())
        .expect("fresh query succeeds");
    assert!(uncached.is_complete());
    let (_, im0, _, am0) = engine.cache_stats();
    assert!(im0 >= 1 && am0 >= 1, "first run must miss both caches");

    let cached = engine
        .answer(&keywords, rmax, k, &RunGuard::unlimited())
        .expect("cached query succeeds");
    assert!(cached.is_complete());
    let (_, _, ah, _) = engine.cache_stats();
    assert_eq!(ah, 1, "second run must hit the answer cache");

    let a = uncached.value();
    let b = cached.value();
    assert!(!a.is_empty(), "workload must produce communities");
    assert_eq!(a.len(), b.len());

    let spec = spec_for(&engine, &keywords, rmax);
    for (x, y) in a.iter().zip(b.iter()) {
        // Structure: every field.
        assert_eq!(x.core, y.core);
        assert_eq!(x.cost, y.cost);
        assert_eq!(x.centers, y.centers);
        assert_eq!(x.knodes, y.knodes);
        assert_eq!(x.path_nodes, y.path_nodes);
        assert_eq!(x.subgraph.original_ids, y.subgraph.original_ids);
        assert_eq!(x.edge_count(), y.edge_count());
        // Certification: both replies are real communities of the FULL
        // graph under the request's spec (the verify gate the issue
        // requires), not merely equal to each other.
        check_community(engine.graph(), &spec, x).expect("uncached answer certifies");
        check_community(engine.graph(), &spec, y).expect("cached answer certifies");
    }
    check_ranking(a).expect("uncached ranking monotone");
    check_ranking(b).expect("cached ranking monotone");

    // Wire level: the encoded reply bytes are identical too.
    let frame = |cs: &Vec<comm_core::Community>| {
        encode_response(&Response::Complete {
            id: 42,
            communities: cs.iter().map(summarize).collect(),
        })
        .expect("encodes")
    };
    assert_eq!(frame(a), frame(b), "wire bytes must be bit-identical");
}

#[test]
fn guard_trip_during_cached_reply_returns_exact_prefix() {
    let engine = engine();
    let keywords = kws(&["alpha", "beta"]);
    let (rmax, k) = (4.0, 5);

    let full = engine
        .answer(&keywords, rmax, k, &RunGuard::unlimited())
        .expect("warm-up succeeds")
        .into_value();
    assert!(full.len() >= 2, "need at least 2 answers to cut a prefix");

    // A candidate budget of 1 on the cache-hit path: exactly the first
    // ranked community comes back, flagged interrupted.
    let out = engine
        .answer(
            &keywords,
            rmax,
            k,
            &RunGuard::new().with_candidate_budget(1),
        )
        .expect("cached replay under guard succeeds");
    let (_, _, ah, _) = engine.cache_stats();
    assert!(ah >= 1, "replay must come from the answer cache");
    match out {
        Outcome::Interrupted { partial, .. } => {
            assert_eq!(partial.len(), 1);
            assert_eq!(partial[0].core, full[0].core);
            assert_eq!(partial[0].cost, full[0].cost);
            check_topk_prefix(&partial, &full).expect("prefix certifies against full answer");
        }
        Outcome::Complete(_) => panic!("budget of 1 must interrupt the replay"),
    }

    // An immediately-tripping guard degrades to the empty exact prefix —
    // still a reply, never a hang or an error.
    let out = engine
        .answer(
            &keywords,
            rmax,
            k,
            &RunGuard::new().with_candidate_budget(0),
        )
        .expect("zero-budget replay still answers");
    match out {
        Outcome::Interrupted { partial, .. } => assert!(partial.is_empty()),
        Outcome::Complete(_) => panic!("zero budget cannot complete"),
    }
}

#[test]
fn radii_that_round_to_one_weight_share_an_answer() {
    // Two wire radii one `Weight` apart by less than half a unit are one
    // query: the second is an answer-cache hit, byte for byte the first.
    let engine = engine();
    let keywords = kws(&["alpha", "beta"]);
    let (rmax, nudged): (f64, f64) = (4.0, 4.0 + 1e-12);
    assert_ne!(rmax.to_bits(), nudged.to_bits());
    assert_eq!(Weight::new(rmax), Weight::new(nudged));
    let first = engine.answer(&keywords, rmax, 5, &RunGuard::unlimited());
    let second = engine.answer(&keywords, nudged, 5, &RunGuard::unlimited());
    let (first, second) = (first.unwrap().into_value(), second.unwrap().into_value());
    assert_eq!(engine.cache_stats().2, 1, "the nudged radius hits");
    assert_eq!(wire(&first), wire(&second));
    // A benchmark-style sweep of radii `5.0 + 0.0005·i` stays 4 000 keys.
    let keys: std::collections::HashSet<Weight> = (0..4000)
        .map(|i| Weight::new(5.0 + 0.0005 * f64::from(i)))
        .collect();
    assert_eq!(keys.len(), 4000);
}

#[test]
fn trip_during_index_build_leaves_cache_empty() {
    let engine = engine();
    let keywords = kws(&["alpha", "beta"]);

    // Trip after very few guard checks: the projection-index build (one
    // guarded sweep per keyword) cannot finish.
    let err = engine
        .answer(&keywords, 4.0, 5, &RunGuard::new().with_trip_after(3))
        .expect_err("build must trip");
    assert!(matches!(err, QueryError::Interrupted(_)), "got {err:?}");
    let (indexes, answers) = engine.cache_sizes();
    assert_eq!(indexes, 0, "a half-built index must never be cached");
    assert_eq!(answers, 0, "no answer can exist either");

    // The engine is undamaged: the same query under no limits succeeds
    // and populates both caches.
    let out = engine
        .answer(&keywords, 4.0, 5, &RunGuard::unlimited())
        .expect("clean run succeeds after the tripped build");
    assert!(out.is_complete());
    let (indexes, answers) = engine.cache_sizes();
    assert_eq!((indexes, answers), (1, 1));
}

#[test]
fn interrupted_enumeration_is_never_cached() {
    let engine = engine();
    let keywords = kws(&["alpha", "beta"]);

    // Enough budget to build the index and emit one answer, then trip.
    let out = engine
        .answer(&keywords, 4.0, 5, &RunGuard::new().with_candidate_budget(1))
        .expect("guarded run answers");
    assert!(!out.is_complete());
    let (indexes, answers) = engine.cache_sizes();
    assert_eq!(indexes, 1, "the fully built index is cached");
    assert_eq!(answers, 0, "a partial answer must never be cached");

    // The next unlimited run recomputes and returns the full answer, of
    // which the earlier partial was an exact prefix.
    let full = engine
        .answer(&keywords, 4.0, 5, &RunGuard::unlimited())
        .expect("full run succeeds")
        .into_value();
    let partial = out.into_value();
    check_topk_prefix(&partial, &full).expect("partial is an exact prefix");
}

#[test]
fn unknown_keyword_and_oversized_radius_are_clean_errors() {
    let engine = engine();
    let err = engine
        .answer(&kws(&["alpha", "zzz"]), 4.0, 5, &RunGuard::unlimited())
        .expect_err("unknown keyword rejected");
    assert!(matches!(err, QueryError::UnknownKeyword(ref kw) if kw == "zzz"));

    let err = engine
        .answer(&kws(&["alpha"]), 1e9, 5, &RunGuard::unlimited())
        .expect_err("radius beyond the index rejected");
    assert!(matches!(err, QueryError::RadiusExceedsIndex { .. }));

    let (indexes, answers) = engine.cache_sizes();
    assert_eq!(
        (indexes, answers),
        (0, 0),
        "rejections must not pollute caches"
    );
}

/// The reply bytes a complete answer travels as.
fn wire(communities: &[Community]) -> Vec<u8> {
    encode_response(&Response::Complete {
        id: 42,
        communities: communities.iter().map(summarize).collect(),
    })
    .expect("encodes")
}

/// `keywords` asked of an engine nobody has asked anything before: the
/// reply bytes and the nodes the whole query settled.
fn fresh_answer(cfg: &EngineConfig, keywords: &[String], rmax: f64, k: u32) -> (Vec<u8>, u64) {
    let engine = comm_serve::synthetic_engine(8, cfg.clone()).expect("synthetic engine builds");
    let guard = RunGuard::new();
    let out = engine.answer(keywords, rmax, k, &guard).expect("answers");
    assert!(out.is_complete());
    (wire(out.value()), guard.settled())
}

/// One keyword's run, swept outside any engine: `(settled nodes, bytes)`.
fn run_of(engine: &QueryEngine, keyword: &str) -> (u64, usize) {
    let guard = RunGuard::new();
    let graph = engine.graph();
    let v_w = engine.keyword_nodes(keyword).expect("workload keyword");
    let mut scratch = DijkstraEngine::new(graph.node_count());
    let run = KeywordRun::sweep(graph, &mut scratch, v_w, engine.index_radius(), &guard)
        .expect("unlimited guard never trips");
    (guard.settled(), run.byte_size())
}

#[test]
fn overlapping_sets_on_a_warm_run_cache_answer_like_fresh_engines() {
    let cfg = EngineConfig::default();
    let warm = comm_serve::synthetic_engine(8, cfg.clone()).expect("synthetic engine builds");
    let sets = [
        kws(&["alpha", "beta"]),
        kws(&["beta", "gamma"]),
        kws(&["alpha", "gamma"]),
        kws(&["gamma", "alpha", "beta"]),
    ];
    for (i, set) in sets.iter().enumerate() {
        let guard = RunGuard::new();
        let out = warm.answer(set, 4.0, 5, &guard).expect("answers");
        assert!(out.is_complete());
        assert!(!out.value().is_empty(), "{set:?} must have communities");
        let (fresh_bytes, fresh_settled) = fresh_answer(&cfg, set, 4.0, 5);
        assert_eq!(wire(out.value()), fresh_bytes, "{set:?}");
        if i == 0 {
            assert_eq!(
                guard.settled(),
                fresh_settled,
                "a cold run cache saves nothing"
            );
        } else {
            assert!(
                guard.settled() < fresh_settled,
                "{set:?}: {} settled warm, {fresh_settled} fresh",
                guard.settled()
            );
        }
    }
    // Four distinct sets, three distinct keywords: every set missed the
    // index cache, and only first sightings missed the run cache.
    assert_eq!(warm.cache_sizes().0, 4);
    assert_eq!(warm.cache_stats().1, 4);
    let (hits, misses, entries, bytes) = warm.run_cache_stats();
    assert_eq!((hits, misses, entries), (6, 3, 3));
    let sizes = ["alpha", "beta", "gamma"].map(|kw| run_of(&warm, kw).1);
    assert_eq!(bytes, sizes.iter().sum::<usize>());
}

#[test]
fn trip_in_the_second_sweep_keeps_the_first_run_and_nothing_else() {
    let engine = engine();
    let keywords = kws(&["beta", "alpha"]);
    // Keywords are swept in sorted order: enough budget for all of
    // alpha's sweep and one node of beta's.
    let (alpha_settled, alpha_bytes) = run_of(&engine, "alpha");
    let tight = RunGuard::new().with_settled_budget(alpha_settled + 1);
    let err = engine
        .answer(&keywords, 4.0, 5, &tight)
        .expect_err("beta's sweep must trip");
    assert!(matches!(err, QueryError::Interrupted(_)), "got {err:?}");
    assert_eq!(engine.cache_sizes(), (0, 0));
    assert_eq!(engine.run_cache_stats(), (0, 2, 1, alpha_bytes));

    // The retry finds alpha, sweeps beta, and answers what an engine that
    // never tripped answers.
    let guard = RunGuard::new();
    let out = engine.answer(&keywords, 4.0, 5, &guard).expect("answers");
    assert!(out.is_complete());
    let (fresh_bytes, fresh_settled) = fresh_answer(&EngineConfig::default(), &keywords, 4.0, 5);
    assert_eq!(wire(out.value()), fresh_bytes);
    assert_eq!(guard.settled() + alpha_settled, fresh_settled);
    let (hits, misses, entries, _) = engine.run_cache_stats();
    assert_eq!((hits, misses, entries), (1, 3, 2));
    assert_eq!(engine.cache_sizes(), (1, 1));
}

#[test]
fn a_run_cache_too_small_for_two_runs_holds_one_and_changes_no_answer() {
    let probe = engine();
    let sizes = ["alpha", "beta", "gamma"].map(|kw| run_of(&probe, kw).1);
    let (largest, smallest) = (
        sizes[0].max(sizes[1]).max(sizes[2]),
        sizes[0].min(sizes[1]).min(sizes[2]),
    );
    assert!(largest < 2 * smallest, "any run fits, no two do");
    let roomy = EngineConfig::default();
    for cap in [largest, 1] {
        let cfg = EngineConfig {
            run_cache_bytes: cap,
            ..EngineConfig::default()
        };
        let small = comm_serve::synthetic_engine(8, cfg).expect("synthetic engine builds");
        let resident = usize::from(cap > 1);
        for (set, k) in [
            (kws(&["alpha", "beta"]), 5),
            (kws(&["beta", "gamma"]), 5),
            (kws(&["alpha", "gamma"]), 5),
            // An index hit: the index outlived the runs it was built from.
            // (Reordered: the same order would be a slice of the first
            // answer and never reach the index cache.)
            (kws(&["beta", "alpha"]), 4),
        ] {
            let out = small
                .answer(&set, 4.0, k, &RunGuard::unlimited())
                .expect("answers");
            assert_eq!(wire(out.value()), fresh_answer(&roomy, &set, 4.0, k).0);
            let (_, _, entries, bytes) = small.run_cache_stats();
            assert_eq!(entries, resident, "cap {cap} after {set:?}");
            assert!(bytes <= cap);
        }
        assert_eq!(
            small.cache_stats().0,
            1,
            "the last query hit the index cache"
        );
    }
}

#[test]
fn concurrent_queries_on_one_engine_answer_like_fresh_engines() {
    let cfg = EngineConfig::default();
    // Overlapping sets at three (Rmax, k) pairs: every keyword is shared
    // by two sets or more, and one set is asked at two k.
    let queries: Vec<(Vec<String>, f64, u32)> = [
        (&["alpha", "beta"][..], 4.0, 5),
        (&["beta", "gamma"], 4.0, 5),
        (&["alpha", "gamma", "delta"], 4.0, 8),
        (&["gamma", "alpha"], 3.0, 5),
        (&["beta", "alpha"], 4.0, 3),
        (&["delta", "beta"], 4.0, 5),
    ]
    .into_iter()
    .map(|(set, rmax, k)| (kws(set), rmax, k))
    .collect();
    let expected: Vec<Vec<u8>> = queries
        .iter()
        .map(|(set, rmax, k)| fresh_answer(&cfg, set, *rmax, *k).0)
        .collect();
    let shared = comm_serve::synthetic_engine(8, cfg).expect("synthetic engine builds");
    std::thread::scope(|s| {
        for t in 0..4 {
            let (shared, queries, expected) = (&shared, &queries, &expected);
            s.spawn(move || {
                // Each thread walks the list from its own offset, three
                // times: first sightings race, later ones hit.
                for step in 0..3 * queries.len() {
                    let q = (step + 2 * t) % queries.len();
                    let (set, rmax, k) = &queries[q];
                    let out = shared
                        .answer(set, *rmax, *k, &RunGuard::unlimited())
                        .expect("answers");
                    assert!(out.is_complete());
                    let got = wire(out.value());
                    assert!(got == expected[q], "thread {t}: {set:?} at {rmax}, k={k}");
                }
            });
        }
    });
    let (_, _, runs, _) = shared.run_cache_stats();
    assert_eq!(runs, 4, "one run per keyword");
    assert_eq!(shared.cache_sizes(), (5, 6), "five sets, six answers");
}

/// `(answer hits, answer misses, resumes)` of `engine` so far.
fn answer_counts(engine: &QueryEngine) -> (u64, u64, u64) {
    let (_, _, hits, misses) = engine.cache_stats();
    (hits, misses, engine.answer_cache_stats().0)
}

#[test]
fn a_smaller_k_after_a_larger_one_is_a_slice() {
    let engine = engine();
    let keywords = kws(&["alpha", "beta"]);
    let top8 = engine
        .answer(&keywords, 4.0, 8, &RunGuard::unlimited())
        .unwrap();
    assert_eq!(top8.value().len(), 8);
    let bytes = engine.answer_cache_stats().1;
    for k in [0, 3, 8] {
        let guard = RunGuard::new();
        let out = engine.answer(&keywords, 4.0, k, &guard).unwrap();
        assert_eq!(wire(out.value()), wire(&top8.value()[..k as usize]));
        assert_eq!(
            wire(out.value()),
            fresh_answer(&EngineConfig::default(), &keywords, 4.0, k).0
        );
        assert_eq!(guard.settled(), 0, "a slice sweeps nothing");
    }
    assert_eq!(answer_counts(&engine), (3, 1, 0));
    assert_eq!(engine.cache_sizes().1, 1, "one entry for every k");
    assert_eq!(engine.answer_cache_stats().1, bytes);
}

#[test]
fn a_larger_k_after_a_smaller_one_resumes_to_the_fresh_bytes() {
    let cfg = EngineConfig::default();
    let engine = engine();
    let keywords = kws(&["alpha", "beta"]);
    let mut served = 0;
    for k in [2, 5, 8] {
        let guard = RunGuard::new();
        let out = engine.answer(&keywords, 4.0, k, &guard).unwrap();
        assert!(out.is_complete());
        let (fresh_bytes, fresh_settled) = fresh_answer(&cfg, &keywords, 4.0, k);
        assert_eq!(wire(out.value()), fresh_bytes, "k = {k}");
        if served > 0 {
            assert!(
                guard.settled() < fresh_settled,
                "k = {k} resumed, not recomputed"
            );
        }
        served = k;
    }
    assert_eq!(answer_counts(&engine), (0, 3, 2));
    // Every reply certifies on the full graph.
    let top8 = engine
        .answer(&keywords, 4.0, 8, &RunGuard::unlimited())
        .unwrap();
    let spec = spec_for(&engine, &keywords, 4.0);
    for c in top8.value() {
        check_community(engine.graph(), &spec, c).expect("resumed answer certifies");
    }
    check_ranking(top8.value()).expect("ranked");
}

#[test]
fn a_tripped_resume_replies_with_the_exact_prefix_and_leaves_the_entry() {
    let keywords = kws(&["alpha", "beta"]);
    let full = engine().answer(&keywords, 4.0, 8, &RunGuard::unlimited());
    let full = full.unwrap().into_value();
    let engine = engine();
    engine
        .answer(&keywords, 4.0, 3, &RunGuard::unlimited())
        .unwrap();
    let bytes = engine.answer_cache_stats().1;
    // The guard checks a slice of the three makes: a trip after two more
    // lands in the resume, past the prefix.
    let slice = RunGuard::new();
    engine.answer(&keywords, 4.0, 3, &slice).unwrap();
    // A candidate budget cuts inside the replayed prefix and inside the
    // resumed tail, where a run from scratch would cut.
    for (guard, cut) in [
        (RunGuard::new().with_candidate_budget(2), 2),
        (RunGuard::new().with_candidate_budget(5), 5),
        (RunGuard::new().with_trip_after(slice.checks() + 2), 3),
        (RunGuard::new().with_settled_budget(1), 3),
    ] {
        match engine.answer(&keywords, 4.0, 8, &guard).unwrap() {
            Outcome::Interrupted { partial, .. } => {
                assert_eq!(wire(&partial), wire(&full[..cut]), "cut at {cut}");
            }
            Outcome::Complete(_) => panic!("the guard must trip"),
        }
        assert_eq!(
            engine.answer_cache_stats().1,
            bytes,
            "the entry is unchanged"
        );
    }
    // Still three long: k = 3 is a slice, k = 4 a resume.
    let before = answer_counts(&engine);
    engine
        .answer(&keywords, 4.0, 3, &RunGuard::unlimited())
        .unwrap();
    let out = engine
        .answer(&keywords, 4.0, 4, &RunGuard::unlimited())
        .unwrap();
    assert_eq!(wire(out.value()), wire(&full[..4]));
    let after = answer_counts(&engine);
    assert_eq!(
        (after.0 - before.0, after.1 - before.1, after.2 - before.2),
        (1, 1, 1)
    );
}

#[test]
fn concurrent_extensions_of_one_entry_never_shorten_it() {
    let cfg = EngineConfig::default();
    let keywords = kws(&["alpha", "beta"]);
    let ks = [2u32, 4, 6, 8];
    let expected: Vec<Vec<u8>> = ks
        .iter()
        .map(|&k| fresh_answer(&cfg, &keywords, 4.0, k).0)
        .collect();
    for round in 0..4 {
        let shared = comm_serve::synthetic_engine(8, cfg.clone()).unwrap();
        std::thread::scope(|s| {
            for t in 0..4 {
                let (shared, keywords, expected) = (&shared, &keywords, &expected);
                s.spawn(move || {
                    // Each thread asks every k, from its own offset; the
                    // one entry only ever grows.
                    let mut seen = 0;
                    for step in 0..ks.len() {
                        let i = (step + t + round) % ks.len();
                        let out = shared.answer(keywords, 4.0, ks[i], &RunGuard::unlimited());
                        assert!(
                            wire(out.unwrap().value()) == expected[i],
                            "thread {t}, k = {}",
                            ks[i]
                        );
                        let bytes = shared.answer_cache_stats().1;
                        assert!(bytes >= seen, "thread {t}: the entry shrank");
                        seen = bytes;
                    }
                });
            }
        });
        // The entry holds the longest prefix any thread completed.
        let before = answer_counts(&shared);
        shared
            .answer(&keywords, 4.0, 8, &RunGuard::unlimited())
            .unwrap();
        let after = answer_counts(&shared);
        assert_eq!(
            after.0,
            before.0 + 1,
            "k = 8 is a slice after round {round}"
        );
        assert_eq!(shared.cache_sizes().1, 1);
    }
}

#[test]
fn k_zero_then_k_five_resumes_an_unstarted_entry() {
    let engine = engine();
    let keywords = kws(&["alpha", "beta"]);
    let guard = RunGuard::new();
    let none = engine.answer(&keywords, 4.0, 0, &guard).unwrap();
    assert!(none.is_complete() && none.value().is_empty());
    assert_eq!(engine.cache_sizes().1, 1, "the projection is parked");
    let out = engine
        .answer(&keywords, 4.0, 5, &RunGuard::unlimited())
        .unwrap();
    assert_eq!(
        wire(out.value()),
        fresh_answer(&EngineConfig::default(), &keywords, 4.0, 5).0
    );
    assert_eq!(answer_counts(&engine), (0, 2, 1));
}

#[test]
fn a_keyword_set_resumed_before_reads_ahead_at_a_new_radius() {
    let cfg = EngineConfig::default();
    let engine = engine();
    let keywords = kws(&["alpha", "beta"]);
    let delta = |before: (u64, u64, u64), after: (u64, u64, u64)| {
        (after.0 - before.0, after.1 - before.1, after.2 - before.2)
    };
    for k in [2, 6] {
        engine
            .answer(&keywords, 4.0, k, &RunGuard::unlimited())
            .unwrap();
    }
    // The set was resumed to 6: a first answer at another radius runs on
    // to 6 and parks there, so k = 6 is then a slice.
    let out = engine.answer(&keywords, 4.5, 2, &RunGuard::new()).unwrap();
    assert_eq!(wire(out.value()), fresh_answer(&cfg, &keywords, 4.5, 2).0);
    let before = answer_counts(&engine);
    let guard = RunGuard::new();
    let out = engine.answer(&keywords, 4.5, 6, &guard).unwrap();
    assert_eq!(wire(out.value()), fresh_answer(&cfg, &keywords, 4.5, 6).0);
    assert_eq!(guard.settled(), 0, "a slice sweeps nothing");
    assert_eq!(delta(before, answer_counts(&engine)), (1, 0, 0));
    // A trip in the read-ahead still replies complete and caches the
    // first k: k = 2 is then a slice and k = 3 a resume.
    let budget = RunGuard::new().with_candidate_budget(3);
    let out = engine.answer(&keywords, 5.0, 2, &budget).unwrap();
    assert!(out.is_complete());
    assert_eq!(wire(out.value()), fresh_answer(&cfg, &keywords, 5.0, 2).0);
    let before = answer_counts(&engine);
    engine
        .answer(&keywords, 5.0, 2, &RunGuard::unlimited())
        .unwrap();
    let out = engine
        .answer(&keywords, 5.0, 3, &RunGuard::unlimited())
        .unwrap();
    assert_eq!(wire(out.value()), fresh_answer(&cfg, &keywords, 5.0, 3).0);
    assert_eq!(delta(before, answer_counts(&engine)), (1, 1, 1));
}
