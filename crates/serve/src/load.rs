//! The open-loop load generator and its report.
//!
//! *Open loop* means arrivals follow a fixed schedule (one request every
//! `interarrival`, round-robin over the worker connections) regardless of
//! how fast the server responds — so when the server slows down, pressure
//! builds instead of the generator politely backing off, which is exactly
//! the regime admission control exists for.
//!
//! Each worker drives a resilient [`Client`] and classifies every logical
//! request into one terminal state: `complete`, `degraded` (certified
//! exact-prefix `Interrupted`), `overloaded` (explicitly shed), `error`
//! (request rejected), or `transport_failures` (connection lost after all
//! retries). The report records the breakdown plus latency percentiles
//! and renders itself as JSON through [`crate::json`].

use crate::client::{Client, ClientConfig, ClientError};
use crate::json;
use crate::protocol::Response;
use crate::workload::QueryMix;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Load-generator settings.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Concurrent worker connections.
    pub connections: usize,
    /// Total logical requests to send.
    pub requests: usize,
    /// Open-loop arrival spacing (global, not per worker).
    pub interarrival: Duration,
    /// The query mix, applied round-robin.
    pub mix: Vec<QueryMix>,
    /// Per-connection client settings (timeouts, retry budget).
    pub client: ClientConfig,
    /// Every Nth request, send a *slow client* instead: open a fresh
    /// connection, write half a frame header, stall past the server's io
    /// timeout, and confirm the server hangs up. Counted separately.
    pub slow_client_every: Option<u64>,
    /// How long a slow client stalls before expecting the hang-up.
    pub slow_client_stall: Duration,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            connections: 4,
            requests: 100,
            interarrival: Duration::from_millis(5),
            mix: Vec::new(),
            client: ClientConfig::default(),
            slow_client_every: None,
            slow_client_stall: Duration::from_millis(300),
        }
    }
}

/// Aggregated outcome of a load run.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Logical requests sent (excluding injected slow clients).
    pub sent: u64,
    /// `Complete` replies.
    pub complete: u64,
    /// `Interrupted` replies (certified exact-prefix degradation).
    pub degraded: u64,
    /// Requests whose every attempt was explicitly shed.
    pub overloaded: u64,
    /// `Error` replies (invalid requests).
    pub errors: u64,
    /// Requests lost to transport failures after all retries.
    pub transport_failures: u64,
    /// Replies that failed to decode (must be zero in a healthy run).
    pub protocol_errors: u64,
    /// Injected slow-client probes.
    pub slow_clients: u64,
    /// Slow-client probes the server correctly disconnected.
    pub slow_clients_disconnected: u64,
    /// Total wire attempts across all clients (retries included).
    pub attempts: u64,
    /// Latency percentiles over successful classifications, milliseconds.
    pub latency_ms: LatencySummary,
    /// Wall-clock duration of the run, milliseconds.
    pub wall_ms: u64,
}

/// Latency percentiles in milliseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencySummary {
    /// Mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl LatencySummary {
    /// Summarizes a set of latencies (unsorted, in milliseconds).
    pub fn from_latencies(mut ms: Vec<f64>) -> LatencySummary {
        if ms.is_empty() {
            return LatencySummary::default();
        }
        ms.sort_by(f64::total_cmp);
        let last = ms.len() - 1;
        // Rank `round((n − 1)·q)`: the workspace's one percentile rule.
        let pick = |q: f64| ms[((last as f64 * q).round() as usize).min(last)];
        LatencySummary {
            mean: ms.iter().sum::<f64>() / ms.len() as f64,
            p50: pick(0.50),
            p90: pick(0.90),
            p99: pick(0.99),
            max: ms[last],
        }
    }

    /// Renders the summary as a JSON object.
    pub fn to_json(&self) -> String {
        json::object([
            ("mean", json::number(self.mean)),
            ("p50", json::number(self.p50)),
            ("p90", json::number(self.p90)),
            ("p99", json::number(self.p99)),
            ("max", json::number(self.max)),
        ])
    }
}

/// Renders the host provenance block every report carries: timings are
/// meaningless without the CPU count they ran under.
fn machine_json() -> String {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    json::object([
        ("os", json::string(std::env::consts::OS)),
        ("arch", json::string(std::env::consts::ARCH)),
        ("cpus", cpus.to_string()),
    ])
}

impl LoadReport {
    /// Renders the report as a JSON object (stable key order).
    pub fn to_json(&self) -> String {
        json::object([
            ("machine", machine_json()),
            ("sent", self.sent.to_string()),
            ("complete", self.complete.to_string()),
            ("degraded", self.degraded.to_string()),
            ("overloaded", self.overloaded.to_string()),
            ("errors", self.errors.to_string()),
            ("transport_failures", self.transport_failures.to_string()),
            ("protocol_errors", self.protocol_errors.to_string()),
            ("slow_clients", self.slow_clients.to_string()),
            (
                "slow_clients_disconnected",
                self.slow_clients_disconnected.to_string(),
            ),
            ("attempts", self.attempts.to_string()),
            ("wall_ms", self.wall_ms.to_string()),
            ("latency_ms", self.latency_ms.to_json()),
        ])
    }

    /// Every logical request reached a terminal state: nothing hung,
    /// nothing was silently dropped. (Transport failures are terminal for
    /// the client but indicate lost replies, so they are reported — the
    /// chaos tests bound them separately.)
    pub fn fully_classified(&self) -> bool {
        self.sent
            == self.complete
                + self.degraded
                + self.overloaded
                + self.errors
                + self.transport_failures
                + self.protocol_errors
    }
}

/// Shared tallies the workers fold into.
#[derive(Default)]
struct Tally {
    complete: AtomicU64,
    degraded: AtomicU64,
    overloaded: AtomicU64,
    errors: AtomicU64,
    transport_failures: AtomicU64,
    protocol_errors: AtomicU64,
    slow_clients: AtomicU64,
    slow_disconnected: AtomicU64,
    attempts: AtomicU64,
}

/// Runs the open-loop generator against `addr` and aggregates the report.
///
/// Workers share a global arrival schedule: request `i` is released at
/// `start + i × interarrival`; a worker that falls behind fires
/// immediately (open loop: lateness accumulates pressure on the server,
/// not gaps in the schedule).
// xtask-allow: guard_coverage — client-side driver; execution is governed by the server's RunGuards
pub fn run_load(addr: SocketAddr, cfg: &LoadConfig) -> LoadReport {
    if cfg.mix.is_empty() || cfg.requests == 0 || cfg.connections == 0 {
        return LoadReport::default();
    }
    let tally = Tally::default();
    let latencies: Mutex<Vec<f64>> = Mutex::new(Vec::with_capacity(cfg.requests));
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..cfg.connections {
            scope.spawn(|| {
                let mut client = Client::new(addr, cfg.client.clone());
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= cfg.requests {
                        break;
                    }
                    // Open-loop release time for request i.
                    let due = cfg
                        .interarrival
                        .saturating_mul(u32::try_from(i).unwrap_or(u32::MAX));
                    let elapsed = start.elapsed();
                    if due > elapsed {
                        std::thread::sleep(due - elapsed);
                    }
                    let seq = u64::try_from(i).unwrap_or(u64::MAX) + 1;
                    if cfg.slow_client_every.is_some_and(|n| n > 0 && seq % n == 0) {
                        tally.slow_clients.fetch_add(1, Ordering::Relaxed);
                        if slow_client_probe(addr, cfg) {
                            tally.slow_disconnected.fetch_add(1, Ordering::Relaxed);
                        }
                        continue;
                    }
                    let q = &cfg.mix[i % cfg.mix.len()];
                    let kw: Vec<&str> = q.keywords.iter().map(String::as_str).collect();
                    let t0 = Instant::now();
                    let outcome = client.query(&kw, q.rmax, q.k, q.priority);
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    match outcome {
                        Ok(Response::Complete { .. }) => {
                            tally.complete.fetch_add(1, Ordering::Relaxed);
                            if let Ok(mut l) = latencies.lock() {
                                l.push(ms);
                            }
                        }
                        Ok(Response::Interrupted { .. }) => {
                            tally.degraded.fetch_add(1, Ordering::Relaxed);
                            if let Ok(mut l) = latencies.lock() {
                                l.push(ms);
                            }
                        }
                        Ok(Response::Error { .. }) => {
                            tally.errors.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(_) => {
                            // Pong/Stats/ShuttingDown in reply to a query:
                            // a protocol violation.
                            tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ClientError::Overloaded { .. }) => {
                            tally.overloaded.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ClientError::Io(_)) => {
                            tally.transport_failures.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ClientError::Protocol(_) | ClientError::IdMismatch { .. }) => {
                            tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                let (attempts, _) = client.stats();
                tally.attempts.fetch_add(attempts, Ordering::Relaxed);
            });
        }
    });
    let wall = start.elapsed();
    let lat = latencies.into_inner().unwrap_or_else(|p| p.into_inner());
    let slow = tally.slow_clients.load(Ordering::Relaxed);
    LoadReport {
        sent: u64::try_from(cfg.requests).unwrap_or(u64::MAX) - slow,
        complete: tally.complete.load(Ordering::Relaxed),
        degraded: tally.degraded.load(Ordering::Relaxed),
        overloaded: tally.overloaded.load(Ordering::Relaxed),
        errors: tally.errors.load(Ordering::Relaxed),
        transport_failures: tally.transport_failures.load(Ordering::Relaxed),
        protocol_errors: tally.protocol_errors.load(Ordering::Relaxed),
        slow_clients: slow,
        slow_clients_disconnected: tally.slow_disconnected.load(Ordering::Relaxed),
        attempts: tally.attempts.load(Ordering::Relaxed),
        latency_ms: LatencySummary::from_latencies(lat),
        wall_ms: u64::try_from(wall.as_millis()).unwrap_or(u64::MAX),
    }
}

/// Opens a connection, writes half a frame header, stalls, and reports
/// whether the server hung up (true = the slow-client defense worked).
fn slow_client_probe(addr: SocketAddr, cfg: &LoadConfig) -> bool {
    use std::io::{Read, Write};
    let Ok(mut stream) = std::net::TcpStream::connect_timeout(&addr, cfg.client.connect_timeout)
    else {
        return false;
    };
    let _ = stream.set_read_timeout(Some(cfg.slow_client_stall.saturating_mul(4)));
    // Two bytes of a four-byte length prefix, then silence.
    if stream.write_all(&[0x02, 0x00]).is_err() {
        return true; // already hung up
    }
    std::thread::sleep(cfg.slow_client_stall);
    // A healthy server has closed the socket by now: read yields EOF (0)
    // or a reset error, never data.
    let mut buf = [0u8; 1];
    match stream.read(&mut buf) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) => !matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_percentiles() {
        let s = LatencySummary::from_latencies((1..=100).map(f64::from).collect());
        assert!((s.p50 - 50.0).abs() <= 1.0, "p50 = {}", s.p50);
        assert!((s.p90 - 90.0).abs() <= 1.0, "p90 = {}", s.p90);
        assert!((s.p99 - 99.0).abs() <= 1.0, "p99 = {}", s.p99);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_latencies_are_zero() {
        let s = LatencySummary::from_latencies(Vec::new());
        assert_eq!(s.max, 0.0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn report_json_is_well_formed_and_complete() {
        let mut r = LoadReport {
            sent: 10,
            complete: 6,
            degraded: 2,
            overloaded: 2,
            ..LoadReport::default()
        };
        r.latency_ms = LatencySummary {
            mean: 1.5,
            p50: 1.0,
            p90: 2.0,
            p99: 3.0,
            max: 3.5,
        };
        let json = r.to_json();
        for key in [
            "\"machine\"",
            "\"cpus\":",
            "\"sent\": 10",
            "\"complete\": 6",
            "\"degraded\": 2",
            "\"overloaded\": 2",
            "\"latency_ms\"",
            "\"p99\": 3.000",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(r.fully_classified());
        r.complete = 5;
        assert!(!r.fully_classified());
    }
}
