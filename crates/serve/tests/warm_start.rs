//! Warm-start contract: an engine loaded from a CGPH v3 container must be
//! indistinguishable — bit for bit — from the engine whose state was saved.

use comm_graph::container::save_container;
use comm_graph::{NodeId, RunGuard};
use comm_serve::{summarize, synthetic_engine, EngineConfig, QueryEngine, KEYWORDS};

fn unique_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "comm_serve_warm_{tag}_{}_{}",
        std::process::id(),
        line!()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn container_backed_engine_matches_the_built_engine_bit_for_bit() {
    let built = synthetic_engine(12, EngineConfig::default()).unwrap();
    let keywords: Vec<(&str, &[NodeId])> = KEYWORDS
        .iter()
        .map(|&kw| (kw, built.keyword_nodes(kw).unwrap()))
        .collect();
    let dir = unique_dir("bitident");
    let path = dir.join("torus.cgph");
    save_container(&path, built.graph(), keywords, None).unwrap();

    let warm = QueryEngine::from_container(&path, EngineConfig::default()).unwrap();
    assert_eq!(warm.graph().node_count(), built.graph().node_count());
    assert_eq!(warm.graph().edge_count(), built.graph().edge_count());
    #[cfg(unix)]
    assert!(
        warm.graph().is_mapped(),
        "the warm engine must serve the mapped CSR arrays in place"
    );

    let guard = RunGuard::unlimited();
    for (kws, rmax, k) in [
        (vec!["alpha", "beta"], 4.0, 5u32),
        (vec!["gamma", "delta"], 6.0, 3),
        (vec!["alpha", "gamma", "delta"], 6.0, 8),
    ] {
        let kws: Vec<String> = kws.into_iter().map(str::to_owned).collect();
        let a = built.answer(&kws, rmax, k, &guard).unwrap();
        let b = warm.answer(&kws, rmax, k, &guard).unwrap();
        assert!(a.is_complete() && b.is_complete());
        let a: Vec<_> = a.value().iter().map(summarize).collect();
        let b: Vec<_> = b.value().iter().map(summarize).collect();
        assert_eq!(a, b, "mapped and heap answers diverged for {kws:?}");
        assert!(!a.is_empty(), "the torus has communities for {kws:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn from_container_reports_missing_and_corrupt_files_cleanly() {
    let dir = unique_dir("errors");
    let missing = dir.join("nope.cgph");
    assert!(QueryEngine::from_container(&missing, EngineConfig::default()).is_err());
    let corrupt = dir.join("bad.cgph");
    std::fs::write(&corrupt, b"CGPH but not really").unwrap();
    assert!(QueryEngine::from_container(&corrupt, EngineConfig::default()).is_err());
    std::fs::remove_dir_all(&dir).ok();
}
