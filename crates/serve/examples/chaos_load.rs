//! Chaos classification lane: spins up the daemon on a loopback port,
//! drives it with the open-loop load generator under fault injection,
//! prints the latency/outcome breakdown as JSON (and writes it to
//! `OUT.json` when given), and exits non-zero unless every request
//! reached a declared terminal state.
//!
//! ```text
//! cargo run --release -p comm-serve --example chaos_load [OUT.json]
//! ```

use comm_serve::{
    counter, json, run_load, spawn, AdmissionConfig, ChaosConfig, ClientConfig, EngineConfig,
    LoadConfig, QueryEngine, ServerConfig,
};
use std::sync::Arc;
use std::time::Duration;

fn engine() -> Arc<QueryEngine> {
    // 16×16 torus: heavy enough that deadlines and budgets bite, small
    // enough that the run stays in seconds on one CPU.
    let built = comm_serve::synthetic_engine(16, EngineConfig::default());
    match built {
        Ok(e) => Arc::new(e),
        Err(e) => panic!("synthetic engine failed to build: {e}"),
    }
}

fn main() {
    let out_path = std::env::args().nth(1);

    let handle = match spawn(
        engine(),
        ServerConfig {
            admission: AdmissionConfig {
                max_inflight: 1,
                max_queue: 1,
                queue_wait: Duration::from_millis(5),
                base_deadline: Duration::from_millis(500),
                base_settled_budget: 500_000,
                retry_after: Duration::from_millis(5),
            },
            io_timeout: Duration::from_millis(250),
            chaos: ChaosConfig {
                trip_queries_after: Some(20_000),
                disconnect_every: Some(9),
                delay_every: Some((13, Duration::from_millis(10))),
                poison_pool_every: Some(17),
            },
            ..ServerConfig::default()
        },
    ) {
        Ok(h) => h,
        Err(e) => panic!("daemon failed to bind: {e}"),
    };

    let report = run_load(
        handle.addr(),
        &LoadConfig {
            connections: 8,
            requests: 400,
            interarrival: Duration::from_micros(500),
            mix: comm_serve::synthetic_mix(6.0),
            client: ClientConfig {
                max_retries: 3,
                base_backoff: Duration::from_millis(2),
                max_backoff: Duration::from_millis(50),
                ..ClientConfig::default()
            },
            slow_client_every: Some(50),
            slow_client_stall: Duration::from_millis(400),
        },
    );

    let counters = handle.counters();
    handle.shutdown();

    // Both sides of the run in one document.
    let picks = [
        "requests",
        "completed",
        "degraded",
        "rejected",
        "admitted",
        "shed",
        "protocol_errors",
        "dedupe_replays",
        "index_cache_hits",
        "index_cache_misses",
        "answer_cache_hits",
        "answer_cache_misses",
        "run_cache_hits",
        "run_cache_misses",
        "chaos_disconnects",
        "chaos_delays",
        "chaos_poisons",
        "pool_poison_recoveries",
    ];
    let server = json::object(
        picks
            .iter()
            .map(|name| (name, counter(&counters, name).to_string())),
    );
    let doc = json::object([("load", report.to_json()), ("server", server)]);

    println!("{doc}");
    let healthy = report.fully_classified() && report.protocol_errors == 0;
    if let Some(path) = &out_path {
        if let Err(e) = std::fs::write(path, doc + "\n") {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
    eprintln!(
        "{} sent, {} complete, {} degraded, {} overloaded",
        report.sent, report.complete, report.degraded, report.overloaded
    );
    if !healthy {
        eprintln!("run was NOT fully classified or had protocol errors");
        std::process::exit(1);
    }
}
