//! `run --smoke`: one short round of every workload plus its traced
//! round, end to end through the real binary.

use std::process::Command;
use std::time::{Duration, Instant};

#[test]
fn smoke_run_verifies_and_prints_every_metric() {
    // Rounds write under `benchmark/out` of the working directory.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let start = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_comm-benchmark"))
        .args([
            "run",
            "--smoke",
            "--out",
            "benchmark/out/smoke-results.json",
        ])
        .current_dir(root)
        .output()
        .expect("start the benchmark");
    let took = start.elapsed();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for name in [
        "bib_cold_topk",
        "ratings_warm_topk",
        "ratings_all_delay",
        "serve_mixed",
        "query_ms_p50",
        "query_ms_p90",
        "queries_per_s",
        "peak_rss_mb",
        "setup_s",
        "delay_ms_p50",
        "core.projection.build_ms",
        "serve.wire.ping_ms",
        "trace.coverage",
    ] {
        assert!(stdout.contains(name), "{name} is not in the report");
    }
    assert!(!stdout.contains("NaN"));
    // The time limit is for the optimised build CI would run.
    if !cfg!(debug_assertions) {
        assert!(took < Duration::from_secs(15), "smoke run took {took:?}");
    }
}
