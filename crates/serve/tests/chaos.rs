//! End-to-end chaos harness: a real daemon on a loopback socket, driven
//! by the open-loop load generator with fault injection armed.
//!
//! The acceptance bar: under injected overload, guard trips, slow
//! clients, mid-request disconnects, and engine-pool poisoning, **every**
//! request terminates with `Complete`, a certified `Interrupted` exact
//! prefix, or an explicit `Overloaded` — no hangs, no panics, no silent
//! drops.

use comm_serve::{
    counter, run_load, spawn, AdmissionConfig, ChaosConfig, Client, ClientConfig, EngineConfig,
    LoadConfig, Priority, QueryEngine, QueryMix, Request, Response, ServerConfig, ServerHandle,
};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

fn small_engine() -> Arc<QueryEngine> {
    Arc::new(
        comm_serve::synthetic_engine(
            8,
            EngineConfig {
                parallelism: comm_graph::Parallelism::new(2),
                ..EngineConfig::default()
            },
        )
        .expect("synthetic engine builds"),
    )
}

fn fast_client() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_millis(500),
        read_timeout: Duration::from_secs(3),
        write_timeout: Duration::from_secs(1),
        max_retries: 4,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(100),
    }
}

fn start(admission: AdmissionConfig, chaos: ChaosConfig) -> (ServerHandle, SocketAddr) {
    start_on(small_engine(), admission, chaos)
}

fn start_on(
    engine: Arc<QueryEngine>,
    admission: AdmissionConfig,
    chaos: ChaosConfig,
) -> (ServerHandle, SocketAddr) {
    let handle = spawn(
        engine,
        ServerConfig {
            admission,
            io_timeout: Duration::from_millis(200),
            chaos,
            ..ServerConfig::default()
        },
    )
    .expect("daemon binds");
    let addr = handle.addr();
    (handle, addr)
}

#[test]
fn plain_round_trip_ping_query_stats() {
    let (handle, addr) = start(AdmissionConfig::default(), ChaosConfig::default());
    let mut client = Client::new(addr, fast_client());

    match client.ping().expect("ping") {
        Response::Pong { .. } => {}
        other => panic!("expected pong, got {other:?}"),
    }
    match client
        .query(&["alpha", "beta"], 4.0, 5, Priority::Normal)
        .expect("query")
    {
        Response::Complete { communities, .. } => {
            assert!(!communities.is_empty(), "workload has answers")
        }
        other => panic!("expected complete, got {other:?}"),
    }
    // Same query again: served from the answer cache, still complete.
    match client
        .query(&["alpha", "beta"], 4.0, 5, Priority::Normal)
        .expect("cached query")
    {
        Response::Complete { .. } => {}
        other => panic!("expected complete, got {other:?}"),
    }
    let stats = client.stats_snapshot().expect("stats");
    assert_eq!(counter(&stats, "completed"), 2);
    assert!(counter(&stats, "answer_cache_hits") >= 1);
    // One index build: both keywords missed the run cache and now sit in it.
    assert_eq!(counter(&stats, "run_cache_hits"), 0);
    assert_eq!(counter(&stats, "run_cache_misses"), 2);
    assert_eq!(counter(&stats, "run_cache_entries"), 2);
    assert!(counter(&stats, "run_cache_bytes") > 0);
    handle.shutdown();
}

#[test]
fn unknown_keyword_gets_an_error_reply_not_a_hang() {
    let (handle, addr) = start(AdmissionConfig::default(), ChaosConfig::default());
    let mut client = Client::new(addr, fast_client());
    match client
        .query(&["alpha", "no-such-keyword"], 4.0, 5, Priority::Normal)
        .expect("reply arrives")
    {
        Response::Error { message, .. } => assert!(message.contains("no-such-keyword")),
        other => panic!("expected error reply, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn identical_request_ids_replay_bit_identical_replies() {
    let (handle, addr) = start(AdmissionConfig::default(), ChaosConfig::default());
    let mut client = Client::new(addr, fast_client());

    let req = Request::Query {
        id: 777,
        priority: Priority::Normal,
        keywords: vec!["alpha".into(), "beta".into()],
        rmax: 4.0,
        k: 5,
    };
    let first = client.call(&req).expect("first send");
    let second = client.call(&req).expect("idempotent resend");
    assert_eq!(first, second, "retries must replay, not re-execute");

    let stats = client.stats_snapshot().expect("stats");
    assert_eq!(counter(&stats, "dedupe_replays"), 1);
    assert_eq!(counter(&stats, "completed"), 1, "executed exactly once");
    handle.shutdown();
}

#[test]
fn overload_sheds_with_explicit_replies_and_nothing_hangs() {
    // One in-flight slot, no queueing: concurrent load must shed.
    let (handle, addr) = start(
        AdmissionConfig {
            max_inflight: 1,
            max_queue: 0,
            queue_wait: Duration::ZERO,
            base_deadline: Duration::from_millis(500),
            base_settled_budget: 200_000,
            retry_after: Duration::from_millis(20),
        },
        ChaosConfig::default(),
    );
    // Every request gets a unique rmax so the answer cache never hits:
    // each query genuinely occupies the single execution slot, which makes
    // the contention (and therefore the sheds) deterministic rather than a
    // race against sub-millisecond cache replies.
    let mix: Vec<QueryMix> = (0..60)
        .map(|i| QueryMix {
            keywords: vec!["alpha".into(), "beta".into()],
            rmax: 4.0 + f64::from(i) * 0.001,
            k: 10,
            priority: Priority::Normal,
        })
        .collect();
    let report = run_load(
        addr,
        &LoadConfig {
            connections: 6,
            requests: 60,
            interarrival: Duration::from_micros(200),
            mix,
            client: ClientConfig {
                // No retries: every shed surfaces as an Overloaded outcome
                // instead of being retried away.
                max_retries: 0,
                ..fast_client()
            },
            slow_client_every: None,
            slow_client_stall: Duration::ZERO,
        },
    );
    assert!(
        report.fully_classified(),
        "unclassified requests: {report:?}"
    );
    assert_eq!(report.protocol_errors, 0, "{report:?}");
    assert_eq!(report.transport_failures, 0, "{report:?}");
    assert!(
        report.overloaded > 0,
        "load must exceed one slot: {report:?}"
    );
    assert!(
        report.complete > 0,
        "some requests must still succeed: {report:?}"
    );

    // The server counted every shed as an explicit Overloaded reply.
    let mut client = Client::new(addr, fast_client());
    let stats = client.stats_snapshot().expect("stats");
    assert!(counter(&stats, "shed") > 0);
    handle.shutdown();
}

#[test]
fn chaos_guard_trips_degrade_to_certified_prefixes() {
    // Every query's guard trips after 200 checks: most answers degrade,
    // but every request still terminates with a classified reply.
    let (handle, addr) = start(
        AdmissionConfig::default(),
        ChaosConfig {
            trip_queries_after: Some(200),
            ..ChaosConfig::default()
        },
    );
    let report = run_load(
        addr,
        &LoadConfig {
            connections: 3,
            requests: 30,
            interarrival: Duration::from_millis(1),
            mix: comm_serve::synthetic_mix(4.0),
            client: fast_client(),
            slow_client_every: None,
            slow_client_stall: Duration::ZERO,
        },
    );
    assert!(report.fully_classified(), "{report:?}");
    assert_eq!(report.protocol_errors, 0, "{report:?}");
    assert!(
        report.degraded > 0,
        "trip-after must degrade answers: {report:?}"
    );
    handle.shutdown();
}

#[test]
fn chaos_disconnects_are_recovered_by_idempotent_retry() {
    // Every 3rd query reply is dropped mid-request. The client's retry
    // must recover each one via dedupe replay — zero lost requests.
    let (handle, addr) = start(
        AdmissionConfig::default(),
        ChaosConfig {
            disconnect_every: Some(3),
            ..ChaosConfig::default()
        },
    );
    let report = run_load(
        addr,
        &LoadConfig {
            connections: 2,
            requests: 20,
            interarrival: Duration::from_millis(1),
            mix: comm_serve::synthetic_mix(4.0),
            client: fast_client(),
            slow_client_every: None,
            slow_client_stall: Duration::ZERO,
        },
    );
    assert!(report.fully_classified(), "{report:?}");
    assert_eq!(report.protocol_errors, 0, "{report:?}");
    assert_eq!(
        report.transport_failures, 0,
        "every dropped reply must be recovered by retry: {report:?}"
    );
    assert_eq!(report.complete + report.degraded, report.sent, "{report:?}");

    let mut client = Client::new(addr, fast_client());
    let stats = client.stats_snapshot().expect("stats");
    assert!(counter(&stats, "chaos_disconnects") > 0);
    assert!(counter(&stats, "dedupe_replays") > 0, "retries must replay");
    handle.shutdown();
}

#[test]
fn slow_clients_are_disconnected_not_serviced_forever() {
    let (handle, addr) = start(AdmissionConfig::default(), ChaosConfig::default());
    let report = run_load(
        addr,
        &LoadConfig {
            connections: 2,
            requests: 12,
            interarrival: Duration::from_millis(1),
            mix: comm_serve::synthetic_mix(4.0),
            client: fast_client(),
            slow_client_every: Some(4), // requests 4, 8, 12 stall mid-frame
            slow_client_stall: Duration::from_millis(450),
        },
    );
    assert!(report.slow_clients >= 3, "{report:?}");
    assert_eq!(
        report.slow_clients, report.slow_clients_disconnected,
        "the server must hang up on every mid-frame stall: {report:?}"
    );
    assert!(report.fully_classified(), "{report:?}");
    // Normal traffic interleaved with the stalls is unaffected.
    assert_eq!(report.complete + report.degraded, report.sent, "{report:?}");

    // Server side: each stall is a slow-client disconnect, not a
    // protocol error.
    let mut client = Client::new(addr, fast_client());
    let stats = client.stats_snapshot().expect("stats");
    assert_eq!(counter(&stats, "protocol_errors"), 0);
    assert_eq!(
        counter(&stats, "slow_client_disconnects"),
        report.slow_clients
    );
    handle.shutdown();
}

/// 20 requests over 2 connections against a daemon that poisons its
/// engine pool before every 5th query.
fn poisoned_load(addr: SocketAddr) {
    let report = run_load(
        addr,
        &LoadConfig {
            connections: 2,
            requests: 20,
            interarrival: Duration::from_millis(1),
            mix: comm_serve::synthetic_mix(4.0),
            client: fast_client(),
            slow_client_every: None,
            slow_client_stall: Duration::ZERO,
        },
    );
    assert!(report.fully_classified(), "{report:?}");
    assert_eq!(report.protocol_errors, 0, "{report:?}");
    assert_eq!(report.transport_failures, 0, "{report:?}");
    assert_eq!(report.complete + report.degraded, report.sent, "{report:?}");
}

fn poisoning() -> ChaosConfig {
    ChaosConfig {
        poison_pool_every: Some(5),
        ..ChaosConfig::default()
    }
}

#[test]
fn poisoned_engine_pool_recovers_and_serving_continues() {
    let (handle, addr) = start(AdmissionConfig::default(), poisoning());
    poisoned_load(addr);

    // The pool is the daemon's own, so its counters are exact: every
    // recovery answers a poison injected here, and the snapshot's own look
    // at the pool recovers whatever the last query left poisoned.
    let mut client = Client::new(addr, fast_client());
    let stats = client.stats_snapshot().expect("stats");
    let poisons = counter(&stats, "chaos_poisons");
    let recoveries = counter(&stats, "pool_poison_recoveries");
    assert!(poisons > 0, "poison was injected");
    assert!(
        (1..=poisons).contains(&recoveries),
        "{recoveries} recoveries for {poisons} poisons"
    );
    handle.shutdown();
}

#[test]
fn a_poisoned_daemon_leaves_its_neighbour_in_the_process_alone() {
    // Two daemons in one process, one of them poisoning its pool: the
    // chaos-free one never recovers its pool and answers as certified.
    let (chaotic, chaotic_addr) = start(AdmissionConfig::default(), poisoning());
    let engine = small_engine();
    let (calm, calm_addr) = start_on(
        Arc::clone(&engine),
        AdmissionConfig::default(),
        ChaosConfig::default(),
    );
    let mut client = Client::new(calm_addr, fast_client());
    let keywords = ["alpha", "gamma", "delta"];
    let (rmax, k) = (4.0, 20);
    // An index build on the calm daemon on either side of the poisoning.
    let before = client.query(&["beta", "gamma"], rmax, 10, Priority::Normal);
    assert!(
        matches!(before, Ok(Response::Complete { .. })),
        "{before:?}"
    );
    poisoned_load(chaotic_addr);
    let reply = client.query(&keywords, rmax, k, Priority::Normal);

    // The wire answer is the summary of communities that certify against
    // the full graph.
    let sets = keywords
        .iter()
        .map(|kw| engine.keyword_nodes(kw).expect("workload keyword").to_vec())
        .collect();
    let spec = comm_core::QuerySpec::new(sets, comm_graph::Weight::new(rmax));
    let keywords: Vec<String> = keywords.iter().map(|s| s.to_string()).collect();
    let expected = engine
        .answer(&keywords, rmax, k, &comm_graph::RunGuard::unlimited())
        .expect("query succeeds")
        .into_value();
    assert!(!expected.is_empty(), "workload has answers");
    for c in &expected {
        comm_core::check_community(engine.graph(), &spec, c).expect("answer certifies");
    }
    comm_core::check_ranking(&expected).expect("ranking monotone");
    match reply.expect("query") {
        Response::Complete { communities, .. } => {
            let summaries: Vec<_> = expected.iter().map(comm_serve::summarize).collect();
            assert_eq!(communities, summaries);
        }
        other => panic!("expected complete, got {other:?}"),
    }

    let calm_stats = client.stats_snapshot().expect("stats");
    assert_eq!(counter(&calm_stats, "pool_poison_recoveries"), 0);
    assert_eq!(counter(&calm_stats, "chaos_poisons"), 0);
    let chaotic_stats = Client::new(chaotic_addr, fast_client())
        .stats_snapshot()
        .expect("stats");
    assert!(counter(&chaotic_stats, "pool_poison_recoveries") >= 1);
    chaotic.shutdown();
    calm.shutdown();
}

#[test]
fn everything_at_once_no_request_is_lost() {
    // The full gauntlet: tight admission, guard trips, disconnects,
    // delayed replies, pool poisoning, and interleaved slow clients.
    let (handle, addr) = start(
        AdmissionConfig {
            max_inflight: 2,
            max_queue: 2,
            queue_wait: Duration::from_millis(30),
            base_deadline: Duration::from_millis(300),
            base_settled_budget: 100_000,
            retry_after: Duration::from_millis(10),
        },
        ChaosConfig {
            trip_queries_after: Some(500),
            disconnect_every: Some(7),
            delay_every: Some((5, Duration::from_millis(20))),
            poison_pool_every: Some(11),
        },
    );
    let report = run_load(
        addr,
        &LoadConfig {
            connections: 6,
            requests: 60,
            interarrival: Duration::from_micros(500),
            mix: comm_serve::synthetic_mix(4.0),
            client: ClientConfig {
                max_retries: 6,
                ..fast_client()
            },
            slow_client_every: Some(10),
            slow_client_stall: Duration::from_millis(300),
        },
    );
    assert!(report.fully_classified(), "{report:?}");
    assert_eq!(report.protocol_errors, 0, "{report:?}");
    assert_eq!(
        report.complete + report.degraded + report.overloaded,
        report.sent,
        "every request must land in a declared terminal state: {report:?}"
    );
    assert_eq!(
        report.slow_clients, report.slow_clients_disconnected,
        "{report:?}"
    );

    let mut client = Client::new(addr, fast_client());
    let stats = client.stats_snapshot().expect("stats");
    assert_eq!(counter(&stats, "protocol_errors"), 0);
    handle.shutdown();
}

#[test]
fn shutdown_request_stops_the_daemon() {
    let (handle, addr) = start(AdmissionConfig::default(), ChaosConfig::default());
    let mut client = Client::new(addr, fast_client());
    match client.shutdown_server().expect("shutdown acknowledged") {
        Response::ShuttingDown { .. } => {}
        other => panic!("expected shutdown ack, got {other:?}"),
    }
    handle.shutdown(); // joins promptly: the accept loop saw the flag
                       // New connections are refused (or reset) once the daemon is down.
    let mut late = Client::new(
        addr,
        ClientConfig {
            max_retries: 0,
            ..fast_client()
        },
    );
    assert!(late.ping().is_err(), "daemon must be gone");
}
