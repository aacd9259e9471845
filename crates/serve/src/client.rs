//! The resilient client: connect/read/write timeouts, bounded retry with
//! jittered exponential backoff, and idempotent request ids.
//!
//! Retry correctness leans on the server's idempotency table: every
//! attempt of one logical request reuses the same id, so a retry after a
//! mid-request disconnect *replays* the recorded reply instead of
//! re-executing the query. `Overloaded` replies are retryable (the server
//! explicitly did not execute); backoff honors the server's retry-after
//! hint when it is longer than the local schedule.
//!
//! Jitter comes from the workspace's [`SplitMix64`] — deterministic per
//! seed — applied as "equal jitter": each delay is
//! `base/2 + uniform(0, base/2)`, which de-synchronizes retry herds
//! without ever collapsing the delay to zero.

use crate::protocol::{
    decode_response, encode_request, read_frame, write_frame, Priority, ProtocolError, Request,
    Response,
};
use comm_graph::SplitMix64;
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// Client tunables.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Socket read timeout (a reply slower than this is a failed attempt).
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Retries after the first attempt (`0` = fail fast).
    pub max_retries: u32,
    /// First backoff delay; doubles per retry (before jitter).
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(1),
            max_retries: 4,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
        }
    }
}

/// Why a request ultimately failed after retries.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure on the final attempt.
    Io(io::Error),
    /// The server sent bytes this client cannot decode.
    Protocol(ProtocolError),
    /// Every attempt was shed; the last `Overloaded` hint is attached.
    Overloaded {
        /// Attempts made (including the first).
        attempts: u32,
        /// The server's last retry-after hint.
        retry_after_ms: u32,
    },
    /// The reply echoed a different request id than the one sent.
    IdMismatch {
        /// The id sent.
        sent: u64,
        /// The id echoed.
        got: u64,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport failed after retries: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Overloaded {
                attempts,
                retry_after_ms,
            } => write!(
                f,
                "server overloaded after {attempts} attempts (retry after {retry_after_ms} ms)"
            ),
            ClientError::IdMismatch { sent, got } => {
                write!(f, "response id {got} does not match request id {sent}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> ClientError {
        match e {
            ProtocolError::Io(io) => ClientError::Io(io),
            other => ClientError::Protocol(other),
        }
    }
}

/// Process-wide request-id source: ids must be unique per logical request
/// (they key the server's idempotency table) but stable across retries.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Per-process base the counter is offset by. Without this, every
/// short-lived client process would count up from 1 and collide in the
/// server's idempotency table — a `query` from one CLI invocation would
/// *replay another invocation's recorded reply* instead of executing.
static ID_BASE: OnceLock<u64> = OnceLock::new();

/// Allocates a fresh request id: a per-process entropy base (wall clock ⊕
/// pid, scrambled through [`SplitMix64`] so consecutive process starts land
/// in distant ranges of the 64-bit space) plus a process-local counter.
pub fn next_request_id() -> u64 {
    let base = *ID_BASE.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::SystemTime::UNIX_EPOCH)
            .map_or(0, |d| {
                u64::try_from(d.as_nanos() & u128::from(u64::MAX)).unwrap_or(0)
            });
        SplitMix64::new(nanos ^ (u64::from(std::process::id()) << 32)).next_u64()
    });
    base.wrapping_add(NEXT_ID.fetch_add(1, Ordering::Relaxed))
}

/// A connection-caching client for one server address.
pub struct Client {
    addr: SocketAddr,
    cfg: ClientConfig,
    conn: Option<TcpStream>,
    rng: SplitMix64,
    /// Attempts made across all calls (telemetry for the load generator).
    attempts: u64,
    /// Reconnects performed across all calls.
    reconnects: u64,
}

impl Client {
    /// Builds a client (no connection is made until the first call).
    pub fn new(addr: SocketAddr, cfg: ClientConfig) -> Client {
        // Seed the jitter stream from the address and a fresh id so
        // concurrent clients de-synchronize.
        let seed = (u64::from(addr.port()) << 32) ^ next_request_id();
        Client {
            addr,
            cfg,
            conn: None,
            rng: SplitMix64::new(seed),
            attempts: 0,
            reconnects: 0,
        }
    }

    /// `(attempts, reconnects)` across the client's lifetime.
    pub fn stats(&self) -> (u64, u64) {
        (self.attempts, self.reconnects)
    }

    /// Equal-jitter backoff for `attempt` (0-based): half deterministic,
    /// half uniform, capped at `max_backoff`, never below `floor`.
    fn backoff(&mut self, attempt: u32, floor: Duration) -> Duration {
        let base = self
            .cfg
            .base_backoff
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.cfg.max_backoff);
        let half = base / 2;
        let jitter_nanos = if half.is_zero() {
            0
        } else {
            self.rng
                .below(u64::try_from(half.as_nanos().max(1)).unwrap_or(u64::MAX))
        };
        (half + Duration::from_nanos(jitter_nanos)).max(floor)
    }

    #[expect(clippy::expect_used, reason = "just populated above when None")]
    fn connect(&mut self) -> io::Result<&mut TcpStream> {
        if self.conn.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.cfg.connect_timeout)?;
            stream.set_read_timeout(Some(self.cfg.read_timeout))?;
            stream.set_write_timeout(Some(self.cfg.write_timeout))?;
            stream.set_nodelay(true)?;
            self.reconnects += 1;
            self.conn = Some(stream);
        }
        Ok(self.conn.as_mut().expect("connection populated"))
    }

    /// One wire round trip (no retry).
    fn attempt(&mut self, frame: &[u8]) -> Result<Response, ClientError> {
        self.attempts += 1;
        let stream = self.connect().map_err(ClientError::Io)?;
        let result: Result<Response, ProtocolError> = (|| {
            write_frame(stream, frame)?;
            let payload = read_frame(stream)?;
            decode_response(&payload)
        })();
        match result {
            Ok(resp) => Ok(resp),
            Err(e) => {
                // Any wire failure invalidates the cached connection.
                self.conn = None;
                Err(e.into())
            }
        }
    }

    /// Sends `req`, retrying transport failures and `Overloaded` replies
    /// with jittered exponential backoff. All attempts reuse the request's
    /// id, so the server never double-executes.
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        let frame = encode_request(req).map_err(ClientError::from)?;
        let sent_id = req.id();
        let mut last_overload_hint = 0u32;
        let mut overloaded_attempts = 0u32;
        for attempt in 0..=self.cfg.max_retries {
            match self.attempt(&frame) {
                Ok(Response::Overloaded { id, retry_after_ms }) => {
                    if id != sent_id {
                        return Err(ClientError::IdMismatch {
                            sent: sent_id,
                            got: id,
                        });
                    }
                    last_overload_hint = retry_after_ms;
                    overloaded_attempts = attempt + 1;
                    if attempt == self.cfg.max_retries {
                        break;
                    }
                    // Honor the server's hint when it exceeds our schedule.
                    let floor = Duration::from_millis(u64::from(retry_after_ms));
                    let delay = self.backoff(attempt, floor);
                    std::thread::sleep(delay);
                }
                Ok(resp) => {
                    if resp.id() != sent_id {
                        return Err(ClientError::IdMismatch {
                            sent: sent_id,
                            got: resp.id(),
                        });
                    }
                    return Ok(resp);
                }
                Err(ClientError::Io(e)) => {
                    if attempt == self.cfg.max_retries {
                        return Err(ClientError::Io(e));
                    }
                    let delay = self.backoff(attempt, Duration::ZERO);
                    std::thread::sleep(delay);
                }
                Err(other) => return Err(other), // protocol errors are not retryable
            }
        }
        Err(ClientError::Overloaded {
            attempts: overloaded_attempts,
            retry_after_ms: last_overload_hint,
        })
    }

    /// Convenience: a top-k community query with a fresh request id.
    pub fn query(
        &mut self,
        keywords: &[&str],
        rmax: f64,
        k: u32,
        priority: Priority,
    ) -> Result<Response, ClientError> {
        let req = Request::Query {
            id: next_request_id(),
            priority,
            keywords: keywords.iter().map(|s| s.to_string()).collect(),
            rmax,
            k,
        };
        self.call(&req)
    }

    /// Convenience: liveness probe.
    pub fn ping(&mut self) -> Result<Response, ClientError> {
        self.call(&Request::Ping {
            id: next_request_id(),
        })
    }

    /// Convenience: counter snapshot.
    pub fn stats_snapshot(&mut self) -> Result<Vec<(String, u64)>, ClientError> {
        match self.call(&Request::Stats {
            id: next_request_id(),
        })? {
            Response::Stats { counters, .. } => Ok(counters),
            other => Err(ClientError::Protocol(ProtocolError::BadKind(match other {
                Response::Complete { .. } => 0,
                Response::Interrupted { .. } => 1,
                Response::Overloaded { .. } => 2,
                Response::Error { .. } => 3,
                Response::Pong { .. } => 4,
                Response::Stats { .. } => 5,
                Response::ShuttingDown { .. } => 6,
            }))),
        }
    }

    /// Convenience: ask the daemon to shut down.
    pub fn shutdown_server(&mut self) -> Result<Response, ClientError> {
        self.call(&Request::Shutdown {
            id: next_request_id(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client() -> Client {
        Client::new(
            SocketAddr::from(([127, 0, 0, 1], 1)),
            ClientConfig::default(),
        )
    }

    #[test]
    fn request_ids_are_unique_within_the_process() {
        let a = next_request_id();
        let b = next_request_id();
        assert_ne!(a, b);
        assert_eq!(b.wrapping_sub(a), 1, "ids count up from a per-process base");
    }

    #[test]
    fn backoff_grows_stays_bounded_and_jitters() {
        let mut c = client();
        let mut prev_base = Duration::ZERO;
        for attempt in 0..10 {
            let d = c.backoff(attempt, Duration::ZERO);
            assert!(d <= c.cfg.max_backoff, "attempt {attempt}: {d:?} over cap");
            // Equal jitter keeps at least half the exponential base.
            let base = c
                .cfg
                .base_backoff
                .saturating_mul(1u32 << attempt.min(16))
                .min(c.cfg.max_backoff);
            assert!(d >= base / 2, "attempt {attempt}: {d:?} under half-base");
            assert!(base >= prev_base, "base must be monotone");
            prev_base = base;
        }
    }

    #[test]
    fn backoff_honors_server_floor() {
        let mut c = client();
        let floor = Duration::from_millis(400);
        for attempt in 0..3 {
            assert!(c.backoff(attempt, floor) >= floor);
        }
    }

    #[test]
    fn jitter_streams_differ_between_clients() {
        let mut a = client();
        let mut b = client();
        let da: Vec<Duration> = (0..4).map(|i| a.backoff(i, Duration::ZERO)).collect();
        let db: Vec<Duration> = (0..4).map(|i| b.backoff(i, Duration::ZERO)).collect();
        assert_ne!(da, db, "two clients should not retry in lockstep");
    }

    #[test]
    fn connect_to_dead_port_fails_fast() {
        let mut c = Client::new(
            SocketAddr::from(([127, 0, 0, 1], 1)), // reserved, nothing listens
            ClientConfig {
                max_retries: 1,
                base_backoff: Duration::from_millis(1),
                connect_timeout: Duration::from_millis(100),
                ..ClientConfig::default()
            },
        );
        match c.ping() {
            Err(ClientError::Io(_)) => {}
            other => panic!("expected transport failure, got {other:?}"),
        }
        let (attempts, _) = c.stats();
        assert_eq!(attempts, 2, "one retry after the first attempt");
    }
}
