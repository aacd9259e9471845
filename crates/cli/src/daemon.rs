//! `comm-explore serve` / `comm-explore client` — front ends for the
//! resident community-query daemon (`comm-serve`).
//!
//! `serve` binds the daemon on a synthetic torus graph and runs until
//! Ctrl-C or a remote `shutdown` request; `client` speaks the
//! length-prefixed protocol with the resilient retrying client and maps
//! every terminal reply onto the documented [exit-code
//! contract](crate::exit_codes).

use crate::exit_codes;
use comm_serve::{
    counter, spawn, AdmissionConfig, ChaosConfig, Client, ClientConfig, ClientError, EngineConfig,
    Priority, Response, ServerConfig,
};
use std::io::Write;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Usage text for `comm-explore serve --help`.
pub const SERVE_HELP: &str = "\
usage: comm-explore serve [options]

Runs the resident community-query daemon on a synthetic torus graph, or
— with --graph — on a saved CGPH v3 container, memory-mapped so startup
does no edge parsing however large the graph is.
Prints `listening on ADDR` once the socket is bound (bind port 0 and
parse that line to discover the ephemeral port), then serves until
Ctrl-C or a client `shutdown` request — both drain in-flight queries
through their RunGuards before exiting.

options:
  --addr HOST:PORT      bind address (default 127.0.0.1:7654)
  --graph PATH          serve a saved CGPH container (its keyword map
                        becomes the vocabulary; --side is ignored)
  --side N              torus side; the graph has N*N nodes (default 16)
  --max-inflight N      queries executing concurrently (default 2)
  --max-queue N         admission queue depth beyond that (default 8)
  --deadline-ms MS      normal-priority deadline (default 2000)
  --budget N            normal-priority settled-node budget (default 5000000)
  --io-timeout-ms MS    per-socket read/write timeout (default 2000)
  --chaos-trip N        fault injection: trip guards after N queries
  --chaos-disconnect N  fault injection: drop every Nth reply mid-frame
  --chaos-delay N:MS    fault injection: stall every Nth reply by MS
  --chaos-poison N      fault injection: poison the pool every Nth query
  --help                this text

exit codes: 0 clean shutdown, 1 bind/runtime failure, 2 usage";

/// Usage text for `comm-explore client --help`.
pub const CLIENT_HELP: &str = "\
usage: comm-explore client [options] <command>

commands:
  query KW [KW...]      run a top-k community query over the keywords
  ping                  liveness probe
  stats                 print the server counter snapshot
  shutdown              ask the daemon to exit

options:
  --addr HOST:PORT      server address (default 127.0.0.1:7654)
  --rmax R              radius bound Rmax (default 4)
  --k N                 top-k communities (default 5)
  --priority P          low | normal | high (default normal)
  --retries N           retries after the first attempt (default 4)
  --timeout-ms MS       reply read timeout (default 5000)
  --help                this text

exit codes: 0 complete, 1 transport/server failure, 2 usage,
            3 interrupted (certified exact-prefix answer printed),
            4 overloaded (explicitly shed, nothing executed)";

struct ServeOptions {
    addr: String,
    graph: Option<String>,
    side: usize,
    max_inflight: usize,
    max_queue: usize,
    deadline_ms: u64,
    budget: u64,
    io_timeout_ms: u64,
    chaos: ChaosConfig,
}

fn parse_serve(args: &[String]) -> Result<Option<ServeOptions>, String> {
    let mut opts = ServeOptions {
        addr: "127.0.0.1:7654".to_owned(),
        graph: None,
        side: 16,
        max_inflight: 2,
        max_queue: 8,
        deadline_ms: 2_000,
        budget: 5_000_000,
        io_timeout_ms: 2_000,
        chaos: ChaosConfig::default(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--addr" => opts.addr = value("--addr")?,
            "--graph" => opts.graph = Some(value("--graph")?),
            "--side" => opts.side = parse_num(&value("--side")?, "--side")?,
            "--max-inflight" => {
                opts.max_inflight = parse_num(&value("--max-inflight")?, "--max-inflight")?;
            }
            "--max-queue" => opts.max_queue = parse_num(&value("--max-queue")?, "--max-queue")?,
            "--deadline-ms" => {
                opts.deadline_ms = parse_num(&value("--deadline-ms")?, "--deadline-ms")? as u64;
            }
            "--budget" => opts.budget = parse_num(&value("--budget")?, "--budget")? as u64,
            "--io-timeout-ms" => {
                opts.io_timeout_ms =
                    parse_num(&value("--io-timeout-ms")?, "--io-timeout-ms")? as u64;
            }
            "--chaos-trip" => {
                opts.chaos.trip_queries_after =
                    Some(parse_num(&value("--chaos-trip")?, "--chaos-trip")? as u64);
            }
            "--chaos-disconnect" => {
                opts.chaos.disconnect_every =
                    Some(parse_num(&value("--chaos-disconnect")?, "--chaos-disconnect")? as u64);
            }
            "--chaos-delay" => {
                opts.chaos.delay_every = Some(parse_delay(&value("--chaos-delay")?)?);
            }
            "--chaos-poison" => {
                opts.chaos.poison_pool_every =
                    Some(parse_num(&value("--chaos-poison")?, "--chaos-poison")? as u64);
            }
            other => return Err(format!("unknown option '{other}' (try --help)")),
        }
    }
    if opts.side < 2 {
        return Err("--side must be at least 2".to_owned());
    }
    Ok(Some(opts))
}

/// Parses the `N:MS` form of `--chaos-delay`.
fn parse_delay(s: &str) -> Result<(u64, Duration), String> {
    let (every, ms) = s
        .split_once(':')
        .ok_or_else(|| format!("--chaos-delay: '{s}' is not N:MS"))?;
    Ok((
        parse_num(every, "--chaos-delay")? as u64,
        Duration::from_millis(parse_num(ms, "--chaos-delay")? as u64),
    ))
}

fn parse_num(s: &str, name: &str) -> Result<usize, String> {
    s.parse()
        .map_err(|_| format!("{name}: '{s}' is not a number"))
}

/// Entry point for the `serve` subcommand. Returns the process exit code.
pub fn run_serve(args: &[String], cancel: Arc<AtomicBool>) -> i32 {
    let opts = match parse_serve(args) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            println!("{SERVE_HELP}");
            return exit_codes::OK;
        }
        Err(e) => {
            eprintln!("error: {e}");
            return exit_codes::USAGE;
        }
    };

    let cfg = EngineConfig::default();
    let engine = match &opts.graph {
        Some(path) => match comm_serve::QueryEngine::from_container(path, cfg) {
            Ok(e) => Arc::new(e),
            Err(e) => {
                eprintln!("error: cannot load container '{path}': {e}");
                return exit_codes::RUNTIME;
            }
        },
        None => match comm_serve::synthetic_engine(opts.side, cfg) {
            Ok(e) => Arc::new(e),
            Err(e) => {
                eprintln!("error: engine failed to build: {e}");
                return exit_codes::RUNTIME;
            }
        },
    };
    match &opts.graph {
        Some(path) => eprintln!(
            "container {path} — n={} m={} (mapped: {})",
            engine.graph().node_count(),
            engine.graph().edge_count(),
            engine.graph().is_mapped(),
        ),
        None => eprintln!(
            "synthetic torus {}x{} — n={} m={}",
            opts.side,
            opts.side,
            engine.graph().node_count(),
            engine.graph().edge_count()
        ),
    }

    let handle = match spawn(
        engine,
        ServerConfig {
            addr: opts.addr,
            admission: AdmissionConfig {
                max_inflight: opts.max_inflight,
                max_queue: opts.max_queue,
                base_deadline: Duration::from_millis(opts.deadline_ms),
                base_settled_budget: opts.budget,
                ..AdmissionConfig::default()
            },
            io_timeout: Duration::from_millis(opts.io_timeout_ms),
            chaos: opts.chaos,
            ..ServerConfig::default()
        },
    ) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: bind failed: {e}");
            return exit_codes::RUNTIME;
        }
    };

    // Scripts (the CI smoke lane, the chaos harness) bind port 0 and parse
    // this line, so its shape is part of the CLI contract.
    println!("listening on {}", handle.addr());
    std::io::stdout().flush().ok();

    while !cancel.load(Ordering::SeqCst) && !handle.is_stopping() {
        std::thread::sleep(Duration::from_millis(50));
    }

    let counters = handle.counters();
    handle.shutdown();
    eprintln!(
        "served {} requests: {} completed, {} degraded, {} shed, {} protocol errors",
        counter(&counters, "requests"),
        counter(&counters, "completed"),
        counter(&counters, "degraded"),
        counter(&counters, "shed"),
        counter(&counters, "protocol_errors"),
    );
    exit_codes::OK
}

enum ClientCommand {
    Query(Vec<String>),
    Ping,
    Stats,
    Shutdown,
}

struct ClientOptions {
    addr: String,
    rmax: f64,
    k: u32,
    priority: Priority,
    retries: u32,
    timeout_ms: u64,
    command: ClientCommand,
}

fn parse_client(args: &[String]) -> Result<Option<ClientOptions>, String> {
    let mut addr = "127.0.0.1:7654".to_owned();
    let mut rmax = 4.0f64;
    let mut k = 5u32;
    let mut priority = Priority::Normal;
    let mut retries = 4u32;
    let mut timeout_ms = 5_000u64;
    let mut words: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--addr" => addr = value("--addr")?,
            "--rmax" => {
                let v = value("--rmax")?;
                rmax = v
                    .parse()
                    .map_err(|_| format!("--rmax: '{v}' is not a number"))?;
            }
            "--k" => k = parse_num(&value("--k")?, "--k")? as u32,
            "--priority" => {
                priority = match value("--priority")?.as_str() {
                    "low" => Priority::Low,
                    "normal" => Priority::Normal,
                    "high" => Priority::High,
                    other => return Err(format!("--priority: '{other}' is not low|normal|high")),
                };
            }
            "--retries" => retries = parse_num(&value("--retries")?, "--retries")? as u32,
            "--timeout-ms" => {
                timeout_ms = parse_num(&value("--timeout-ms")?, "--timeout-ms")? as u64;
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown option '{flag}' (try --help)"));
            }
            word => words.push(word.to_owned()),
        }
    }
    let Some((head, rest)) = words.split_first() else {
        return Err("missing command (query|ping|stats|shutdown; try --help)".to_owned());
    };
    let command = match head.as_str() {
        "query" => {
            if rest.is_empty() {
                return Err("query needs at least one keyword".to_owned());
            }
            ClientCommand::Query(rest.to_vec())
        }
        "ping" => ClientCommand::Ping,
        "stats" => ClientCommand::Stats,
        "shutdown" => ClientCommand::Shutdown,
        other => return Err(format!("unknown command '{other}' (try --help)")),
    };
    if !rest.is_empty() && !matches!(command, ClientCommand::Query(_)) {
        return Err(format!("{head} takes no arguments"));
    }
    Ok(Some(ClientOptions {
        addr,
        rmax,
        k,
        priority,
        retries,
        timeout_ms,
        command,
    }))
}

fn resolve(addr: &str) -> Result<SocketAddr, String> {
    addr.to_socket_addrs()
        .map_err(|e| format!("--addr: cannot resolve '{addr}': {e}"))?
        .next()
        .ok_or_else(|| format!("--addr: '{addr}' resolved to nothing"))
}

/// Entry point for the `client` subcommand. Returns the process exit code.
pub fn run_client(args: &[String]) -> i32 {
    let opts = match parse_client(args) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            println!("{CLIENT_HELP}");
            return exit_codes::OK;
        }
        Err(e) => {
            eprintln!("error: {e}");
            return exit_codes::USAGE;
        }
    };
    let addr = match resolve(&opts.addr) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return exit_codes::USAGE;
        }
    };
    let mut client = Client::new(
        addr,
        ClientConfig {
            read_timeout: Duration::from_millis(opts.timeout_ms),
            max_retries: opts.retries,
            ..ClientConfig::default()
        },
    );
    match opts.command {
        ClientCommand::Ping => reply_code(client.ping()),
        ClientCommand::Shutdown => reply_code(client.shutdown_server()),
        ClientCommand::Stats => match client.stats_snapshot() {
            Ok(counters) => {
                for (name, value) in counters {
                    println!("{name:28} {value}");
                }
                exit_codes::OK
            }
            Err(e) => client_error_code(&e),
        },
        ClientCommand::Query(keywords) => {
            let refs: Vec<&str> = keywords.iter().map(String::as_str).collect();
            reply_code(client.query(&refs, opts.rmax, opts.k, opts.priority))
        }
    }
}

/// Maps a terminal reply onto the [`exit_codes`] contract, printing the
/// answer (or the certified prefix) as it goes.
fn reply_code(result: Result<Response, ClientError>) -> i32 {
    let reply = match result {
        Ok(r) => r,
        Err(e) => return client_error_code(&e),
    };
    match reply {
        Response::Complete { communities, .. } => {
            print_communities(&communities);
            exit_codes::OK
        }
        Response::Interrupted {
            reason,
            communities,
            ..
        } => {
            println!("interrupted ({reason}); certified exact prefix:");
            print_communities(&communities);
            exit_codes::INTERRUPTED
        }
        Response::Overloaded { retry_after_ms, .. } => {
            eprintln!("overloaded: shed by admission control (retry after {retry_after_ms} ms)");
            exit_codes::OVERLOADED
        }
        Response::Error { message, .. } => {
            eprintln!("server rejected the request: {message}");
            exit_codes::RUNTIME
        }
        Response::Pong { .. } => {
            println!("pong");
            exit_codes::OK
        }
        Response::ShuttingDown { .. } => {
            println!("daemon acknowledged shutdown");
            exit_codes::OK
        }
        Response::Stats { counters, .. } => {
            for (name, value) in counters {
                println!("{name:28} {value}");
            }
            exit_codes::OK
        }
    }
}

fn client_error_code(e: &ClientError) -> i32 {
    eprintln!("error: {e}");
    match e {
        ClientError::Overloaded { .. } => exit_codes::OVERLOADED,
        _ => exit_codes::RUNTIME,
    }
}

fn print_communities(communities: &[comm_serve::CommunitySummary]) {
    if communities.is_empty() {
        println!("(no communities)");
        return;
    }
    for (rank, c) in communities.iter().enumerate() {
        println!(
            "#{:<3} cost {:<12.4} core {:?}  {} nodes, {} edges, {} centers",
            rank + 1,
            f64::from_bits(c.cost_bits),
            c.core,
            c.node_count,
            c.edge_count,
            c.centers.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| (*x).to_owned()).collect()
    }

    #[test]
    fn serve_defaults_and_overrides() {
        let o = parse_serve(&[]).unwrap().unwrap();
        assert_eq!(o.addr, "127.0.0.1:7654");
        assert_eq!(o.side, 16);
        assert!(o.graph.is_none());
        assert_eq!(o.max_inflight, 2);
        assert!(o.chaos.trip_queries_after.is_none());
        let o = parse_serve(&s(&[
            "--addr",
            "127.0.0.1:0",
            "--side",
            "8",
            "--max-inflight",
            "1",
            "--max-queue",
            "0",
            "--chaos-trip",
            "10",
            "--chaos-delay",
            "5:20",
            "--graph",
            "/tmp/bundle.cgph",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(o.addr, "127.0.0.1:0");
        assert_eq!(o.side, 8);
        assert_eq!(o.graph.as_deref(), Some("/tmp/bundle.cgph"));
        assert_eq!(o.max_inflight, 1);
        assert_eq!(o.max_queue, 0);
        assert_eq!(o.chaos.trip_queries_after, Some(10));
        assert_eq!(o.chaos.delay_every, Some((5, Duration::from_millis(20))));
    }

    #[test]
    fn serve_help_and_errors() {
        assert!(parse_serve(&s(&["--help"])).unwrap().is_none());
        assert!(parse_serve(&s(&["--bogus"])).is_err());
        assert!(parse_serve(&s(&["--side", "1"])).is_err());
        assert!(parse_serve(&s(&["--chaos-delay", "5"])).is_err());
    }

    #[test]
    fn client_commands_parse() {
        let o = parse_client(&s(&["ping"])).unwrap().unwrap();
        assert!(matches!(o.command, ClientCommand::Ping));
        let o = parse_client(&s(&[
            "--addr",
            "127.0.0.1:9999",
            "--rmax",
            "6.5",
            "--k",
            "3",
            "--priority",
            "high",
            "query",
            "database",
            "optimization",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(o.addr, "127.0.0.1:9999");
        assert_eq!(o.rmax, 6.5);
        assert_eq!(o.k, 3);
        assert_eq!(o.priority, Priority::High);
        match o.command {
            ClientCommand::Query(kws) => assert_eq!(kws, s(&["database", "optimization"])),
            _ => panic!("expected a query command"),
        }
    }

    #[test]
    fn client_usage_errors() {
        assert!(parse_client(&s(&["--help"])).unwrap().is_none());
        assert!(parse_client(&[]).is_err());
        assert!(parse_client(&s(&["query"])).is_err());
        assert!(parse_client(&s(&["ping", "extra"])).is_err());
        assert!(parse_client(&s(&["--priority", "urgent", "ping"])).is_err());
    }

    #[test]
    fn resolve_rejects_garbage() {
        assert!(resolve("not an address").is_err());
        assert!(resolve("127.0.0.1:7654").is_ok());
    }
}
