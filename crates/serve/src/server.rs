//! The daemon: accept loop, per-connection request loop, idempotent reply
//! replay, and the degradation ladder in action.
//!
//! Every request terminates in exactly one of four ways — the chaos
//! harness asserts there is no fifth:
//!
//! 1. `Complete` — the full answer;
//! 2. `Interrupted` — a certified exact-prefix answer (guard tripped:
//!    deadline, budget, shutdown, or injected fault);
//! 3. `Overloaded` — admission control shed the request *without
//!    executing it*, with a retry-after hint;
//! 4. `Error` — the request was invalid (unknown keyword, bad radius,
//!    malformed frame).
//!
//! **Idempotent replay.** Query replies are recorded by request id before
//! they are sent. A retry of an already-executed id replays the recorded
//! bytes — bit-identical — instead of re-executing; a retry of a *shed* id
//! re-attempts admission (shed requests never executed, so there is
//! nothing to replay). This makes client retries safe even when the
//! connection dies between execution and reply.

use crate::admission::{Admission, AdmissionConfig, AdmissionGate};
use crate::chaos::{ChaosConfig, ChaosState};
use crate::engine::{summarize, QueryEngine};
use crate::protocol::{
    decode_request, encode_response, write_frame, Priority, ProtocolError, Request, Response,
    MAX_FRAME_BYTES,
};
use comm_core::QueryError;
use comm_graph::Outcome;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon tunables.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (exposed via
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Admission gate + degradation ladder settings.
    pub admission: AdmissionConfig,
    /// Per-connection read/write timeout. A peer that stalls mid-frame
    /// longer than this is disconnected (slow-client defense).
    pub io_timeout: Duration,
    /// Completed replies remembered for idempotent replay.
    pub dedupe_capacity: usize,
    /// Fault-injection schedule (off by default).
    pub chaos: ChaosConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            admission: AdmissionConfig::default(),
            io_timeout: Duration::from_secs(2),
            dedupe_capacity: 1024,
            chaos: ChaosConfig::default(),
        }
    }
}

/// Request-outcome counters (everything else is derived from the gate,
/// caches, chaos state, and engine pool at snapshot time).
#[derive(Debug, Default)]
struct Counters {
    connections: AtomicU64,
    requests: AtomicU64,
    completed: AtomicU64,
    degraded: AtomicU64,
    rejected: AtomicU64,
    protocol_errors: AtomicU64,
    dedupe_replays: AtomicU64,
    /// Connections dropped for stalling mid-frame (slow-client defense).
    slow_disconnects: AtomicU64,
}

/// What a recorded request id maps to.
enum DedupeEntry {
    /// Executing now; retries wait for the recorded reply.
    Pending,
    /// Reply bytes as sent (or as they would have been sent, if chaos
    /// dropped the connection first).
    Done(Arc<Vec<u8>>),
}

#[derive(Default)]
struct DedupeState {
    entries: HashMap<u64, DedupeEntry>,
    /// Completion order of `Done` ids, for bounded eviction.
    done_order: VecDeque<u64>,
}

/// The idempotency table: request id → recorded reply.
struct DedupeMap {
    state: Mutex<DedupeState>,
    completed: Condvar,
    capacity: usize,
}

/// How a query request should proceed after consulting the table.
enum Begin {
    /// First sighting: execute, then `complete` or `abort`.
    Execute,
    /// Already executed: replay these bytes verbatim.
    Replay(Arc<Vec<u8>>),
}

impl DedupeMap {
    fn new(capacity: usize) -> DedupeMap {
        DedupeMap {
            state: Mutex::new(DedupeState::default()),
            completed: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, DedupeState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Claims `id` for execution, or returns the recorded reply. A
    /// concurrent in-flight execution of the same id is awaited (bounded);
    /// if it neither completes nor aborts in time, the caller re-executes
    /// — safe because the engine is deterministic and side-effect free.
    fn begin(&self, id: u64, wait_cap: Duration) -> Begin {
        let deadline = Instant::now() + wait_cap;
        let mut st = self.lock();
        loop {
            match st.entries.get(&id) {
                None => {
                    st.entries.insert(id, DedupeEntry::Pending);
                    return Begin::Execute;
                }
                Some(DedupeEntry::Done(bytes)) => return Begin::Replay(Arc::clone(bytes)),
                Some(DedupeEntry::Pending) => {
                    // Completions of *other* ids wake this wait too, so
                    // the cap is a deadline, not a count of wake-ups.
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Begin::Execute;
                    }
                    st = match self.completed.wait_timeout(st, left) {
                        Ok((g, _)) => g,
                        Err(poisoned) => poisoned.into_inner().0,
                    };
                }
            }
        }
    }

    /// Records the reply for `id` and evicts the oldest recorded replies
    /// beyond capacity.
    fn complete(&self, id: u64, bytes: Arc<Vec<u8>>) {
        let mut st = self.lock();
        st.entries.insert(id, DedupeEntry::Done(bytes));
        st.done_order.push_back(id);
        while st.done_order.len() > self.capacity {
            if let Some(old) = st.done_order.pop_front() {
                // Only evict if it still maps to Done (it may have been
                // re-recorded and thus appear later in the order too).
                if let Some(DedupeEntry::Done(_)) = st.entries.get(&old) {
                    if !st.done_order.contains(&old) {
                        st.entries.remove(&old);
                    }
                }
            }
        }
        drop(st);
        self.completed.notify_all();
    }

    /// Forgets a claimed-but-not-executed id (shed path), so a retry
    /// re-attempts admission instead of replaying `Overloaded` forever.
    fn abort(&self, id: u64) {
        let mut st = self.lock();
        if let Some(DedupeEntry::Pending) = st.entries.get(&id) {
            st.entries.remove(&id);
        }
        drop(st);
        self.completed.notify_all();
    }
}

/// Everything the connection handlers share.
struct Shared {
    engine: Arc<QueryEngine>,
    gate: AdmissionGate,
    dedupe: DedupeMap,
    chaos: ChaosState,
    counters: Counters,
    guard_cancel: Arc<AtomicBool>,
    io_timeout: Duration,
}

/// A running daemon. Dropping the handle does **not** stop it; call
/// [`shutdown`](ServerHandle::shutdown).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of every server counter, as `(name, value)` pairs — the
    /// same payload a `Stats` request returns.
    pub fn counters(&self) -> Vec<(String, u64)> {
        snapshot(&self.shared)
    }

    /// Whether the daemon has been told to stop — locally via
    /// [`shutdown`](ServerHandle::shutdown) or by a remote
    /// [`Request::Shutdown`](crate::protocol::Request::Shutdown). The accept
    /// loop exits shortly after this flips; a supervising process can poll
    /// it instead of probing the socket.
    pub fn is_stopping(&self) -> bool {
        self.shared.guard_cancel.load(Ordering::Relaxed)
    }

    /// Requests shutdown (cancels in-flight guards, stops accepting) and
    /// joins the accept loop and every connection handler.
    pub fn shutdown(mut self) {
        self.shared.guard_cancel.store(true, Ordering::Relaxed);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

/// Spawns the daemon. `guard_cancel` semantics: one shared flag cancels
/// the accept loop, every per-connection read loop, and — through the
/// admission gate — every in-flight query's `RunGuard`.
pub fn spawn(engine: Arc<QueryEngine>, cfg: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let guard_cancel = Arc::new(AtomicBool::new(false));
    let shared = Arc::new(Shared {
        engine,
        gate: AdmissionGate::new(cfg.admission, Arc::clone(&guard_cancel)),
        dedupe: DedupeMap::new(cfg.dedupe_capacity),
        chaos: ChaosState::new(cfg.chaos),
        counters: Counters::default(),
        guard_cancel,
        io_timeout: cfg.io_timeout,
    });
    let shared2 = Arc::clone(&shared);
    let acceptor = std::thread::Builder::new()
        .name("comm-serve-accept".to_string())
        .spawn(move || accept_loop(listener, shared2))?;
    Ok(ServerHandle {
        addr,
        shared,
        acceptor: Some(acceptor),
    })
}

/// Polling accept loop: non-blocking accepts so the shared cancel flag is
/// honored within one poll interval even with no inbound traffic.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !shared.guard_cancel.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.counters.connections.fetch_add(1, Ordering::Relaxed);
                let shared2 = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name("comm-serve-conn".to_string())
                    .spawn(move || handle_connection(stream, &shared2));
                match spawned {
                    Ok(h) => handlers.push(h),
                    Err(_) => {
                        // Thread exhaustion: shed by dropping the
                        // connection; the client's retry backs off.
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
        handlers.retain(|h| !h.is_finished());
    }
    for h in handlers {
        let _ = h.join();
    }
}

/// Reads one request frame, polling the shared cancel flag while the
/// connection is idle. `Ok(None)` means clean end (EOF between frames or
/// shutdown). A stall *mid-frame* longer than the io timeout is an error:
/// that is the slow-client defense.
fn read_request_frame(
    stream: &mut TcpStream,
    shared: &Shared,
) -> Result<Option<Vec<u8>>, ProtocolError> {
    let mut header = [0u8; 4];
    let mut filled = 0usize;
    while filled < header.len() {
        if shared.guard_cancel.load(Ordering::Relaxed) && filled == 0 {
            return Ok(None);
        }
        match stream.read(&mut header[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(None); // clean EOF between frames
                }
                return Err(ProtocolError::Io(io::ErrorKind::UnexpectedEof.into()));
            }
            Ok(n) => filled += n,
            Err(e)
                if filled == 0
                    && matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
            {
                // Idle between frames: keep polling for shutdown.
                continue;
            }
            Err(e) => return Err(ProtocolError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(header);
    if len > MAX_FRAME_BYTES {
        return Err(ProtocolError::FrameTooLarge(len));
    }
    let len = usize::try_from(len).map_err(|_| ProtocolError::FrameTooLarge(u32::MAX))?;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// The per-connection request loop.
fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(shared.io_timeout));
    let _ = stream.set_write_timeout(Some(shared.io_timeout));
    let _ = stream.set_nodelay(true);
    loop {
        let payload = match read_request_frame(&mut stream, shared) {
            Ok(Some(p)) => p,
            Ok(None) => return,
            Err(ProtocolError::Io(e))
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // Mid-frame stall past the io timeout: the slow-client
                // defense, not a malformed frame.
                shared
                    .counters
                    .slow_disconnects
                    .fetch_add(1, Ordering::Relaxed);
                return;
            }
            Err(_) => {
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        let request = match decode_request(&payload) {
            Ok(r) => r,
            Err(_) => {
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                // The stream is still framed correctly (the frame parsed,
                // its payload didn't), so reply and keep the connection.
                let resp = Response::Error {
                    id: 0,
                    message: "malformed request payload".to_string(),
                };
                if send(&mut stream, &resp).is_err() {
                    return;
                }
                continue;
            }
        };
        shared.counters.requests.fetch_add(1, Ordering::Relaxed);
        match request {
            Request::Ping { id } => {
                if send(&mut stream, &Response::Pong { id }).is_err() {
                    return;
                }
            }
            Request::Stats { id } => {
                let resp = Response::Stats {
                    id,
                    counters: snapshot(shared),
                };
                if send(&mut stream, &resp).is_err() {
                    return;
                }
            }
            Request::Shutdown { id } => {
                let _ = send(&mut stream, &Response::ShuttingDown { id });
                shared.guard_cancel.store(true, Ordering::Relaxed);
                return;
            }
            Request::Query {
                id,
                priority,
                keywords,
                rmax,
                k,
            } => {
                if !handle_query(&mut stream, shared, id, priority, &keywords, rmax, k) {
                    return;
                }
            }
        }
    }
}

/// Executes (or replays) one query. Returns `false` when the connection
/// should close (send failure or injected disconnect).
#[allow(clippy::too_many_arguments)]
fn handle_query(
    stream: &mut impl Write,
    shared: &Shared,
    id: u64,
    priority: Priority,
    keywords: &[String],
    rmax: f64,
    k: u32,
) -> bool {
    // Idempotency first: a retry of an executed id replays the recorded
    // bytes without touching admission control or the engine.
    let plan = match shared.dedupe.begin(id, shared.io_timeout) {
        Begin::Replay(bytes) => {
            shared
                .counters
                .dedupe_replays
                .fetch_add(1, Ordering::Relaxed);
            return write_frame(stream, &bytes).is_ok();
        }
        Begin::Execute => shared.chaos.plan_query(),
    };
    if plan.poison_pool {
        shared.engine.pool().poison_for_chaos();
    }
    let response = match shared.gate.admit() {
        Admission::Shed { retry_after } => {
            // Shed without executing: forget the claim so a retry
            // re-attempts admission rather than replaying `Overloaded`.
            shared.dedupe.abort(id);
            let retry_after_ms = u32::try_from(retry_after.as_millis().min(u128::from(u32::MAX)))
                .unwrap_or(u32::MAX);
            let resp = Response::Overloaded { id, retry_after_ms };
            return send_with_chaos(
                stream,
                shared,
                &resp,
                plan.delay_reply,
                plan.drop_reply,
                None,
            );
        }
        Admission::Admitted(permit) => {
            let mut guard = shared.gate.guard_for(priority);
            if let Some(n) = plan.trip_after {
                guard = guard.with_trip_after(n);
            }
            let result = shared.engine.answer(keywords, rmax, k, &guard);
            drop(permit);
            match result {
                Ok(Outcome::Complete(communities)) => {
                    shared.counters.completed.fetch_add(1, Ordering::Relaxed);
                    Response::Complete {
                        id,
                        communities: communities.iter().map(summarize).collect(),
                    }
                }
                Ok(Outcome::Interrupted { reason, partial }) => {
                    shared.counters.degraded.fetch_add(1, Ordering::Relaxed);
                    Response::Interrupted {
                        id,
                        reason: reason.to_string(),
                        communities: partial.iter().map(summarize).collect(),
                    }
                }
                Err(QueryError::Interrupted(reason)) => {
                    // Tripped during projection/index build: no partial
                    // result exists; the certified exact prefix is empty.
                    shared.counters.degraded.fetch_add(1, Ordering::Relaxed);
                    Response::Interrupted {
                        id,
                        reason: reason.to_string(),
                        communities: Vec::new(),
                    }
                }
                Err(e) => {
                    shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
                    Response::Error {
                        id,
                        message: e.to_string(),
                    }
                }
            }
        }
    };
    send_with_chaos(
        stream,
        shared,
        &response,
        plan.delay_reply,
        plan.drop_reply,
        Some(id),
    )
}

/// Encodes a reply for the wire. One that would not fit a frame (`k` is
/// an uncapped `u32`) becomes an `Error` naming the cap, and an `Error`
/// whose message outgrows its `u16` length prefix (it quotes a request
/// keyword, which may fill the request's own `u16` string) is cut to fit:
/// the client gets an answer instead of a dropped connection, and what
/// the dedupe table records for its retries is something `write_frame`
/// can send.
fn encode_reply(resp: &Response) -> Result<Vec<u8>, ProtocolError> {
    let bytes = match (encode_response(resp), resp) {
        (Err(ProtocolError::FieldTooLong(_)), Response::Error { id, message }) => {
            let cut = message.floor_char_boundary(usize::from(u16::MAX));
            return encode_response(&Response::Error {
                id: *id,
                message: message[..cut].to_string(),
            });
        }
        (encoded, _) => encoded?,
    };
    if u32::try_from(bytes.len()).is_ok_and(|len| len <= MAX_FRAME_BYTES) {
        return Ok(bytes);
    }
    encode_response(&Response::Error {
        id: resp.id(),
        message: format!(
            "reply exceeds the 16 MiB frame cap ({} bytes encoded); ask for a smaller k",
            bytes.len()
        ),
    })
}

/// Encodes and sends a reply, applying injected delay/disconnect. When
/// `record_id` is set, the bytes are recorded for idempotent replay
/// *before* any injected disconnect — that ordering is what makes a
/// mid-request disconnect recoverable by retry. A reply that cannot be
/// encoded at all gives the claim on its id back, so a retry executes
/// instead of waiting on an execution that will never complete.
fn send_with_chaos(
    stream: &mut impl Write,
    shared: &Shared,
    resp: &Response,
    delay: Option<Duration>,
    drop_reply: bool,
    record_id: Option<u64>,
) -> bool {
    let bytes = match encode_reply(resp) {
        Ok(b) => Arc::new(b),
        Err(_) => {
            shared
                .counters
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            if let Some(id) = record_id {
                shared.dedupe.abort(id);
            }
            return false;
        }
    };
    if let Some(id) = record_id {
        shared.dedupe.complete(id, Arc::clone(&bytes));
    }
    if let Some(d) = delay {
        std::thread::sleep(d);
    }
    if drop_reply {
        // Injected mid-request disconnect: the reply is recorded but
        // never sent; the client's retry replays it.
        return false;
    }
    write_frame(stream, &bytes).is_ok()
}

fn send(stream: &mut TcpStream, resp: &Response) -> Result<(), ProtocolError> {
    let bytes = encode_response(resp)?;
    write_frame(stream, &bytes)
}

/// Assembles the full counter snapshot. Touching the pool here also
/// lazily recovers it if a chaos panic poisoned it since the last look.
fn snapshot(shared: &Shared) -> Vec<(String, u64)> {
    let c = &shared.counters;
    let (admitted, shed) = shared.gate.stats();
    let (ih, im, ah, am) = shared.engine.cache_stats();
    let (index_entries, answer_entries) = shared.engine.cache_sizes();
    let (rh, rm, run_entries, run_bytes) = shared.engine.run_cache_stats();
    let (chaos_disc, chaos_delay, chaos_poison) = shared.chaos.stats();
    let pool = shared.engine.pool();
    let pooled = pool.pooled_engines();
    let mut out = vec![
        (
            "connections".to_string(),
            c.connections.load(Ordering::Relaxed),
        ),
        ("requests".to_string(), c.requests.load(Ordering::Relaxed)),
        ("completed".to_string(), c.completed.load(Ordering::Relaxed)),
        ("degraded".to_string(), c.degraded.load(Ordering::Relaxed)),
        ("rejected".to_string(), c.rejected.load(Ordering::Relaxed)),
        (
            "protocol_errors".to_string(),
            c.protocol_errors.load(Ordering::Relaxed),
        ),
        (
            "dedupe_replays".to_string(),
            c.dedupe_replays.load(Ordering::Relaxed),
        ),
        (
            "slow_client_disconnects".to_string(),
            c.slow_disconnects.load(Ordering::Relaxed),
        ),
        ("admitted".to_string(), admitted),
        ("shed".to_string(), shed),
        ("index_cache_hits".to_string(), ih),
        ("index_cache_misses".to_string(), im),
        ("answer_cache_hits".to_string(), ah),
        ("answer_cache_misses".to_string(), am),
        ("run_cache_hits".to_string(), rh),
        ("run_cache_misses".to_string(), rm),
        ("chaos_disconnects".to_string(), chaos_disc),
        ("chaos_delays".to_string(), chaos_delay),
        ("chaos_poisons".to_string(), chaos_poison),
    ];
    for (name, value) in [
        ("index_cache_entries", index_entries),
        ("answer_cache_entries", answer_entries),
        ("run_cache_entries", run_entries),
        ("run_cache_bytes", run_bytes),
        ("pooled_engines", pooled),
    ] {
        out.push((name.to_string(), u64::try_from(value).unwrap_or(u64::MAX)));
    }
    out.push((
        "pool_poison_recoveries".to_string(),
        u64::try_from(pool.poison_recoveries()).unwrap_or(u64::MAX),
    ));
    out
}

/// Looks up one counter in a snapshot (helper for tests and the CLI).
pub fn counter(counters: &[(String, u64)], name: &str) -> u64 {
    counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{decode_response, CommunitySummary};

    fn shared_over_a_small_engine() -> Shared {
        let engine = crate::synthetic_engine(4, crate::EngineConfig::default()).unwrap();
        let cfg = ServerConfig::default();
        let guard_cancel = Arc::new(AtomicBool::new(false));
        Shared {
            engine: Arc::new(engine),
            gate: AdmissionGate::new(cfg.admission, Arc::clone(&guard_cancel)),
            dedupe: DedupeMap::new(cfg.dedupe_capacity),
            chaos: ChaosState::new(cfg.chaos),
            counters: Counters::default(),
            guard_cancel,
            io_timeout: cfg.io_timeout,
        }
    }

    #[test]
    fn oversized_reply_is_recorded_and_sent_as_an_error() {
        // ~4.2 M centres encode past the 16 MiB frame cap.
        let huge = Response::Complete {
            id: 7,
            communities: vec![CommunitySummary {
                core: vec![0],
                cost_bits: 0,
                centers: vec![0; 4_200_000],
                node_count: 1,
                edge_count: 0,
            }],
        };
        let shared = shared_over_a_small_engine();
        assert!(matches!(
            shared.dedupe.begin(7, Duration::ZERO),
            Begin::Execute
        ));
        let mut wire = Vec::new();
        assert!(send_with_chaos(
            &mut wire,
            &shared,
            &huge,
            None,
            false,
            Some(7)
        ));
        let Begin::Replay(recorded) = shared.dedupe.begin(7, Duration::ZERO) else {
            panic!("the reply must be recorded for replay");
        };
        // What a retry replays is what was sent: a frame holding an Error.
        assert_eq!(wire[4..], recorded[..]);
        match decode_response(&recorded).unwrap() {
            Response::Error { id: 7, message } => {
                assert!(message.contains("16 MiB frame cap"), "{message}");
            }
            other => panic!("expected an Error reply, got {other:?}"),
        }
    }

    #[test]
    fn error_reply_quoting_an_oversized_keyword_is_cut_to_fit_and_recorded() {
        // 65 530 bytes fit the request's u16 string; quoted inside
        // `keyword "…" is not indexed` they no longer fit the reply's. The
        // 3-byte characters put the cut in the middle of one.
        let keyword = format!("ab{}cd", "€".repeat(21_842));
        assert_eq!(keyword.len(), 65_530);
        let shared = shared_over_a_small_engine();
        let mut wire = Vec::new();
        let keep_open = handle_query(&mut wire, &shared, 9, Priority::Normal, &[keyword], 4.0, 1);
        assert!(keep_open, "the connection survives a rejected query");
        assert_eq!(shared.counters.protocol_errors.load(Ordering::Relaxed), 0);
        match decode_response(&wire[4..]).unwrap() {
            Response::Error { id: 9, message } => {
                assert!(message.starts_with("keyword \"ab€"), "{}", &message[..16]);
                assert!(
                    (65_533..=65_535).contains(&message.len()),
                    "{}",
                    message.len()
                );
            }
            other => panic!("expected an Error reply, got {other:?}"),
        }
        // The id is settled, not left `Pending`: a retry replays what was sent.
        let Begin::Replay(recorded) = shared.dedupe.begin(9, Duration::ZERO) else {
            panic!("the reply must be recorded for replay");
        };
        assert_eq!(wire[4..], recorded[..]);

        // A reply with no encodable fallback gives its claim back instead.
        let unencodable = Response::Interrupted {
            id: 10,
            reason: "r".repeat(70_000),
            communities: Vec::new(),
        };
        assert!(matches!(
            shared.dedupe.begin(10, Duration::ZERO),
            Begin::Execute
        ));
        let sent = send_with_chaos(&mut wire, &shared, &unencodable, None, false, Some(10));
        assert!(!sent);
        assert_eq!(shared.counters.protocol_errors.load(Ordering::Relaxed), 1);
        assert!(!shared.dedupe.lock().entries.contains_key(&10));
    }

    #[test]
    fn dedupe_wait_is_bounded_by_time_not_by_unrelated_completions() {
        let map = DedupeMap::new(64);
        let reply = Arc::new(vec![1u8, 2, 3]);
        assert!(matches!(map.begin(1, Duration::ZERO), Begin::Execute));
        let cap = Duration::from_millis(300);
        let long = Duration::from_secs(30);
        let stop = AtomicBool::new(false);
        let completions = AtomicU64::new(0);
        let (timed_out, released) = std::thread::scope(|s| {
            // Other requests completing back to back: every one notifies
            // the condvar a retry of id 1 waits on.
            s.spawn(|| {
                let mut other = 2;
                while !stop.load(Ordering::SeqCst) {
                    assert!(matches!(map.begin(other, Duration::ZERO), Begin::Execute));
                    map.complete(other, Arc::clone(&reply));
                    completions.fetch_add(1, Ordering::SeqCst);
                    other += 1;
                    std::thread::yield_now();
                }
            });
            // A retry outwaits them: it re-executes only after `cap`.
            let start = Instant::now();
            let first = map.begin(1, cap);
            let timed_out = (first, start.elapsed(), completions.load(Ordering::SeqCst));
            // Quiet again, or 64 more completions could evict id 1's reply
            // before the next retry looks.
            stop.store(true, Ordering::SeqCst);
            // The id's own completion releases a waiting retry at once.
            let waiter = s.spawn(|| {
                let start = Instant::now();
                (map.begin(1, long), start.elapsed())
            });
            map.complete(1, Arc::clone(&reply));
            let released = waiter.join().expect("the waiting retry panicked");
            (timed_out, released)
        });
        let (first, waited, unrelated) = timed_out;
        assert!(matches!(first, Begin::Execute));
        assert!(
            waited >= cap,
            "gave up after {waited:?} and {unrelated} unrelated completions"
        );
        assert!(unrelated >= 200, "only {unrelated} unrelated completions");
        let (second, waited) = released;
        assert!(matches!(second, Begin::Replay(bytes) if bytes == reply));
        assert!(waited < long, "waited {waited:?} for a recorded reply");
    }
}
