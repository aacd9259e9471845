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
//!    or refused.

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
        // Structure: every field, with costs compared as raw bits.
        assert_eq!(x.core, y.core);
        assert_eq!(x.cost.get().to_bits(), y.cost.get().to_bits());
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
            assert_eq!(
                partial[0].cost.get().to_bits(),
                full[0].cost.get().to_bits()
            );
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
            (kws(&["alpha", "beta"]), 4),
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
