//! The length-prefixed binary wire protocol.
//!
//! Every message is one *frame*: a little-endian `u32` payload length
//! followed by exactly that many payload bytes. Frames are capped at
//! [`MAX_FRAME_BYTES`] so a corrupt or hostile length prefix cannot make
//! the peer allocate unbounded memory. Inside the payload, all integers
//! are little-endian, strings are `u16` length + UTF-8 bytes, and costs
//! travel as raw `f64` bit patterns (`f64::to_bits`) so the cached-answer
//! contract — *bit-identical* replies for identical queries — survives
//! serialization.
//!
//! Request payload layout:
//!
//! ```text
//! u8 version | u8 kind | u64 request-id | kind-specific body
//! Query body: u8 priority | u16 #keywords | (u16 len, bytes)* | u64 rmax-bits | u32 k
//! ```
//!
//! Response payload layout:
//!
//! ```text
//! u8 version | u8 status | u64 request-id (echo) | status-specific body
//! ```
//!
//! Decoding is strict: unknown versions/kinds, truncated bodies, and
//! trailing garbage are all [`ProtocolError`]s, never partial parses — the
//! same contract the graph loader's truncated-frame corpus enforces.

use std::fmt;
use std::io::{self, Read, Write};

/// Wire protocol version.
pub const PROTOCOL_VERSION: u8 = 1;

/// Hard cap on a frame payload (16 MiB).
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// Request priority: maps server-side to RunGuard deadlines and budgets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Best-effort: half the normal deadline and budgets.
    Low,
    /// The default service level.
    Normal,
    /// Latency-tolerant but answer-critical: double deadline/budgets.
    High,
}

impl Priority {
    fn code(self) -> u8 {
        match self {
            Priority::Low => 0,
            Priority::Normal => 1,
            Priority::High => 2,
        }
    }

    fn from_code(b: u8) -> Result<Priority, ProtocolError> {
        match b {
            0 => Ok(Priority::Low),
            1 => Ok(Priority::Normal),
            2 => Ok(Priority::High),
            _ => Err(ProtocolError::BadPriority(b)),
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        })
    }
}

/// A client → server message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Run (or replay from cache) a top-k community query.
    Query {
        /// Idempotency key: retries reuse the id, the server replays the
        /// recorded reply instead of re-executing.
        id: u64,
        /// Service level, mapped to RunGuard limits by admission control.
        priority: Priority,
        /// Query keywords (resolved to node sets server-side).
        keywords: Vec<String>,
        /// The radius bound `Rmax`.
        rmax: f64,
        /// How many top-ranked communities to return.
        k: u32,
    },
    /// Liveness probe.
    Ping {
        /// Echoed back in the `Pong`.
        id: u64,
    },
    /// Snapshot the server counters.
    Stats {
        /// Echoed back in the reply.
        id: u64,
    },
    /// Ask the daemon to stop accepting connections and exit.
    Shutdown {
        /// Echoed back in the reply.
        id: u64,
    },
}

impl Request {
    /// The request id (every request carries one).
    pub fn id(&self) -> u64 {
        match self {
            Request::Query { id, .. }
            | Request::Ping { id }
            | Request::Stats { id }
            | Request::Shutdown { id } => *id,
        }
    }
}

/// One community in a reply: the core, its cost (raw bits), and the
/// member breakdown. Node ids refer to the server's graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommunitySummary {
    /// The core `C = [c_1, …, c_l]`.
    pub core: Vec<u32>,
    /// `cost(R)` as raw `f64` bits — bit-identical across cache replays.
    pub cost_bits: u64,
    /// The community's centers.
    pub centers: Vec<u32>,
    /// Total nodes in the community subgraph.
    pub node_count: u32,
    /// Total edges in the community subgraph.
    pub edge_count: u32,
}

/// A server → client message. The `id` always echoes the request.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The full top-k answer.
    Complete {
        /// Echo of the request id.
        id: u64,
        /// The ranked communities.
        communities: Vec<CommunitySummary>,
    },
    /// The guard tripped; `communities` is a certified exact prefix of the
    /// complete answer (possibly empty when the trip hit the projection).
    Interrupted {
        /// Echo of the request id.
        id: u64,
        /// Why the run was cut short (display form of `InterruptReason`).
        reason: String,
        /// The exact ranked prefix produced before the trip.
        communities: Vec<CommunitySummary>,
    },
    /// Admission control shed the request without executing it.
    Overloaded {
        /// Echo of the request id.
        id: u64,
        /// Suggested client back-off before retrying.
        retry_after_ms: u32,
    },
    /// The request was rejected (bad keywords, bad radius, …).
    Error {
        /// Echo of the request id.
        id: u64,
        /// Human-readable rejection reason.
        message: String,
    },
    /// Reply to [`Request::Ping`].
    Pong {
        /// Echo of the request id.
        id: u64,
    },
    /// Reply to [`Request::Stats`]: named counter snapshot.
    Stats {
        /// Echo of the request id.
        id: u64,
        /// `(counter name, value)` pairs.
        counters: Vec<(String, u64)>,
    },
    /// Reply to [`Request::Shutdown`].
    ShuttingDown {
        /// Echo of the request id.
        id: u64,
    },
}

impl Response {
    /// The echoed request id.
    pub fn id(&self) -> u64 {
        match self {
            Response::Complete { id, .. }
            | Response::Interrupted { id, .. }
            | Response::Overloaded { id, .. }
            | Response::Error { id, .. }
            | Response::Pong { id }
            | Response::Stats { id, .. }
            | Response::ShuttingDown { id } => *id,
        }
    }
}

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum ProtocolError {
    /// The underlying transport failed (includes timeouts and EOF).
    Io(io::Error),
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    FrameTooLarge(u32),
    /// The payload declared a protocol version this build does not speak.
    BadVersion(u8),
    /// Unknown request/response discriminant.
    BadKind(u8),
    /// Unknown priority byte.
    BadPriority(u8),
    /// The payload ended before the declared structure did.
    Truncated,
    /// The payload has bytes left over after the declared structure.
    TrailingBytes(usize),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A variable-length field exceeds its length-prefix type.
    FieldTooLong(usize),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "transport error: {e}"),
            ProtocolError::FrameTooLarge(n) => {
                write!(
                    f,
                    "frame of {n} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
                )
            }
            ProtocolError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtocolError::BadKind(k) => write!(f, "unknown message kind {k}"),
            ProtocolError::BadPriority(p) => write!(f, "unknown priority {p}"),
            ProtocolError::Truncated => write!(f, "payload truncated mid-structure"),
            ProtocolError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            ProtocolError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            ProtocolError::FieldTooLong(n) => {
                write!(f, "field of {n} elements exceeds its length prefix")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> ProtocolError {
        ProtocolError::Io(e)
    }
}

impl ProtocolError {
    /// Whether this error came from the transport (retryable) rather than
    /// from malformed bytes (not retryable).
    pub fn is_transport(&self) -> bool {
        matches!(self, ProtocolError::Io(_))
    }
}

// ---- primitive encoding ------------------------------------------------

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) -> Result<(), ProtocolError> {
    let len = u16::try_from(s.len()).map_err(|_| ProtocolError::FieldTooLong(s.len()))?;
    put_u16(buf, len);
    buf.extend_from_slice(s.as_bytes());
    Ok(())
}

fn put_u32_slice(buf: &mut Vec<u8>, xs: &[u32]) -> Result<(), ProtocolError> {
    let len = u32::try_from(xs.len()).map_err(|_| ProtocolError::FieldTooLong(xs.len()))?;
    put_u32(buf, len);
    for &x in xs {
        put_u32(buf, x);
    }
    Ok(())
}

// ---- primitive decoding ------------------------------------------------

/// A strict, bounds-checked reader over one frame payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let end = self.pos.checked_add(n).ok_or(ProtocolError::Truncated)?;
        if end > self.buf.len() {
            return Err(ProtocolError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    #[expect(clippy::expect_used, reason = "take(2) returned exactly 2 bytes")]
    fn u16(&mut self) -> Result<u16, ProtocolError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes(b.try_into().expect("2 bytes")))
    }

    #[expect(clippy::expect_used, reason = "take(4) returned exactly 4 bytes")]
    fn u32(&mut self) -> Result<u32, ProtocolError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    #[expect(clippy::expect_used, reason = "take(8) returned exactly 8 bytes")]
    fn u64(&mut self) -> Result<u64, ProtocolError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn string(&mut self) -> Result<String, ProtocolError> {
        let len = usize::from(self.u16()?);
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::BadUtf8)
    }

    fn u32_vec(&mut self) -> Result<Vec<u32>, ProtocolError> {
        let len = self.u32()?;
        // Pre-check against the remaining payload before allocating, so a
        // hostile length cannot force an oversized reservation.
        let len = usize::try_from(len).map_err(|_| ProtocolError::Truncated)?;
        if len.saturating_mul(4) > self.buf.len() - self.pos {
            return Err(ProtocolError::Truncated);
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.u32()?);
        }
        Ok(out)
    }

    fn finish(self) -> Result<(), ProtocolError> {
        if self.pos != self.buf.len() {
            return Err(ProtocolError::TrailingBytes(self.buf.len() - self.pos));
        }
        Ok(())
    }
}

// ---- framing -----------------------------------------------------------

/// Writes one frame (length prefix + payload) and flushes.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ProtocolError> {
    let len =
        u32::try_from(payload.len()).map_err(|_| ProtocolError::FieldTooLong(payload.len()))?;
    if len > MAX_FRAME_BYTES {
        return Err(ProtocolError::FrameTooLarge(len));
    }
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame payload, enforcing the [`MAX_FRAME_BYTES`] cap before
/// allocating.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, ProtocolError> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_BYTES {
        return Err(ProtocolError::FrameTooLarge(len));
    }
    let len = usize::try_from(len).map_err(|_| ProtocolError::FrameTooLarge(u32::MAX))?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

// ---- request encode/decode ---------------------------------------------

const KIND_QUERY: u8 = 1;
const KIND_PING: u8 = 2;
const KIND_STATS: u8 = 3;
const KIND_SHUTDOWN: u8 = 4;

/// Encodes a request into a frame payload.
pub fn encode_request(req: &Request) -> Result<Vec<u8>, ProtocolError> {
    let mut buf = Vec::with_capacity(64);
    buf.push(PROTOCOL_VERSION);
    match req {
        Request::Query {
            id,
            priority,
            keywords,
            rmax,
            k,
        } => {
            buf.push(KIND_QUERY);
            put_u64(&mut buf, *id);
            buf.push(priority.code());
            let count = u16::try_from(keywords.len())
                .map_err(|_| ProtocolError::FieldTooLong(keywords.len()))?;
            put_u16(&mut buf, count);
            for kw in keywords {
                put_str(&mut buf, kw)?;
            }
            put_u64(&mut buf, rmax.to_bits());
            put_u32(&mut buf, *k);
        }
        Request::Ping { id } => {
            buf.push(KIND_PING);
            put_u64(&mut buf, *id);
        }
        Request::Stats { id } => {
            buf.push(KIND_STATS);
            put_u64(&mut buf, *id);
        }
        Request::Shutdown { id } => {
            buf.push(KIND_SHUTDOWN);
            put_u64(&mut buf, *id);
        }
    }
    Ok(buf)
}

/// Decodes a request frame payload (strict: trailing bytes are an error).
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtocolError> {
    let mut c = Cursor::new(payload);
    let version = c.u8()?;
    if version != PROTOCOL_VERSION {
        return Err(ProtocolError::BadVersion(version));
    }
    let kind = c.u8()?;
    let id = c.u64()?;
    let req = match kind {
        KIND_QUERY => {
            let priority = Priority::from_code(c.u8()?)?;
            let count = usize::from(c.u16()?);
            let mut keywords = Vec::with_capacity(count.min(64));
            for _ in 0..count {
                keywords.push(c.string()?);
            }
            let rmax = f64::from_bits(c.u64()?);
            let k = c.u32()?;
            Request::Query {
                id,
                priority,
                keywords,
                rmax,
                k,
            }
        }
        KIND_PING => Request::Ping { id },
        KIND_STATS => Request::Stats { id },
        KIND_SHUTDOWN => Request::Shutdown { id },
        other => return Err(ProtocolError::BadKind(other)),
    };
    c.finish()?;
    Ok(req)
}

// ---- response encode/decode --------------------------------------------

const STATUS_COMPLETE: u8 = 0;
const STATUS_INTERRUPTED: u8 = 1;
const STATUS_OVERLOADED: u8 = 2;
const STATUS_ERROR: u8 = 3;
const STATUS_PONG: u8 = 4;
const STATUS_STATS: u8 = 5;
const STATUS_SHUTTING_DOWN: u8 = 6;

fn put_communities(buf: &mut Vec<u8>, cs: &[CommunitySummary]) -> Result<(), ProtocolError> {
    let count = u32::try_from(cs.len()).map_err(|_| ProtocolError::FieldTooLong(cs.len()))?;
    put_u32(buf, count);
    for c in cs {
        put_u32_slice(buf, &c.core)?;
        put_u64(buf, c.cost_bits);
        put_u32_slice(buf, &c.centers)?;
        put_u32(buf, c.node_count);
        put_u32(buf, c.edge_count);
    }
    Ok(())
}

fn take_communities(c: &mut Cursor<'_>) -> Result<Vec<CommunitySummary>, ProtocolError> {
    let count = c.u32()?;
    let count = usize::try_from(count).map_err(|_| ProtocolError::Truncated)?;
    let mut out = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        out.push(CommunitySummary {
            core: c.u32_vec()?,
            cost_bits: c.u64()?,
            centers: c.u32_vec()?,
            node_count: c.u32()?,
            edge_count: c.u32()?,
        });
    }
    Ok(out)
}

/// Encodes a response into a frame payload.
pub fn encode_response(resp: &Response) -> Result<Vec<u8>, ProtocolError> {
    let mut buf = Vec::with_capacity(64);
    buf.push(PROTOCOL_VERSION);
    match resp {
        Response::Complete { id, communities } => {
            buf.push(STATUS_COMPLETE);
            put_u64(&mut buf, *id);
            put_communities(&mut buf, communities)?;
        }
        Response::Interrupted {
            id,
            reason,
            communities,
        } => {
            buf.push(STATUS_INTERRUPTED);
            put_u64(&mut buf, *id);
            put_str(&mut buf, reason)?;
            put_communities(&mut buf, communities)?;
        }
        Response::Overloaded { id, retry_after_ms } => {
            buf.push(STATUS_OVERLOADED);
            put_u64(&mut buf, *id);
            put_u32(&mut buf, *retry_after_ms);
        }
        Response::Error { id, message } => {
            buf.push(STATUS_ERROR);
            put_u64(&mut buf, *id);
            put_str(&mut buf, message)?;
        }
        Response::Pong { id } => {
            buf.push(STATUS_PONG);
            put_u64(&mut buf, *id);
        }
        Response::Stats { id, counters } => {
            buf.push(STATUS_STATS);
            put_u64(&mut buf, *id);
            let count = u32::try_from(counters.len())
                .map_err(|_| ProtocolError::FieldTooLong(counters.len()))?;
            put_u32(&mut buf, count);
            for (name, value) in counters {
                put_str(&mut buf, name)?;
                put_u64(&mut buf, *value);
            }
        }
        Response::ShuttingDown { id } => {
            buf.push(STATUS_SHUTTING_DOWN);
            put_u64(&mut buf, *id);
        }
    }
    Ok(buf)
}

/// Decodes a response frame payload (strict: trailing bytes are an error).
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtocolError> {
    let mut c = Cursor::new(payload);
    let version = c.u8()?;
    if version != PROTOCOL_VERSION {
        return Err(ProtocolError::BadVersion(version));
    }
    let status = c.u8()?;
    let id = c.u64()?;
    let resp = match status {
        STATUS_COMPLETE => Response::Complete {
            id,
            communities: take_communities(&mut c)?,
        },
        STATUS_INTERRUPTED => {
            let reason = c.string()?;
            Response::Interrupted {
                id,
                reason,
                communities: take_communities(&mut c)?,
            }
        }
        STATUS_OVERLOADED => Response::Overloaded {
            id,
            retry_after_ms: c.u32()?,
        },
        STATUS_ERROR => Response::Error {
            id,
            message: c.string()?,
        },
        STATUS_PONG => Response::Pong { id },
        STATUS_STATS => {
            let count = c.u32()?;
            let count = usize::try_from(count).map_err(|_| ProtocolError::Truncated)?;
            let mut counters = Vec::with_capacity(count.min(256));
            for _ in 0..count {
                let name = c.string()?;
                let value = c.u64()?;
                counters.push((name, value));
            }
            Response::Stats { id, counters }
        }
        STATUS_SHUTTING_DOWN => Response::ShuttingDown { id },
        other => return Err(ProtocolError::BadKind(other)),
    };
    c.finish()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let payload = encode_request(&req).unwrap();
        assert_eq!(decode_request(&payload).unwrap(), req);
    }

    fn roundtrip_response(resp: Response) {
        let payload = encode_response(&resp).unwrap();
        assert_eq!(decode_response(&payload).unwrap(), resp);
    }

    fn sample_communities() -> Vec<CommunitySummary> {
        vec![
            CommunitySummary {
                core: vec![4, 13, 2],
                cost_bits: 7.5f64.to_bits(),
                centers: vec![1, 2],
                node_count: 9,
                edge_count: 14,
            },
            CommunitySummary {
                core: vec![0, 0, 0],
                cost_bits: f64::INFINITY.to_bits(),
                centers: vec![],
                node_count: 1,
                edge_count: 0,
            },
        ]
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(Request::Query {
            id: u64::MAX,
            priority: Priority::High,
            keywords: vec!["alice".into(), "böb".into(), "".into()],
            rmax: 7.25,
            k: 10,
        });
        roundtrip_request(Request::Ping { id: 0 });
        roundtrip_request(Request::Stats { id: 1 });
        roundtrip_request(Request::Shutdown { id: 2 });
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_response(Response::Complete {
            id: 9,
            communities: sample_communities(),
        });
        roundtrip_response(Response::Interrupted {
            id: 10,
            reason: "deadline exceeded".into(),
            communities: sample_communities(),
        });
        roundtrip_response(Response::Overloaded {
            id: 11,
            retry_after_ms: 250,
        });
        roundtrip_response(Response::Error {
            id: 12,
            message: "unknown keyword \"zzz\"".into(),
        });
        roundtrip_response(Response::Pong { id: 13 });
        roundtrip_response(Response::Stats {
            id: 14,
            counters: vec![("requests".into(), 42), ("shed".into(), 7)],
        });
        roundtrip_response(Response::ShuttingDown { id: 15 });
    }

    #[test]
    fn rmax_bits_survive_roundtrip_exactly() {
        for rmax in [0.0, -0.0, 0.1, 1e300, f64::MIN_POSITIVE] {
            let req = Request::Query {
                id: 1,
                priority: Priority::Normal,
                keywords: vec!["a".into()],
                rmax,
                k: 1,
            };
            let payload = encode_request(&req).unwrap();
            match decode_request(&payload).unwrap() {
                Request::Query { rmax: got, .. } => {
                    assert_eq!(got.to_bits(), rmax.to_bits());
                }
                other => panic!("wrong kind: {other:?}"),
            }
        }
    }

    #[test]
    fn every_truncation_of_a_request_is_a_clean_error() {
        let payload = encode_request(&Request::Query {
            id: 77,
            priority: Priority::Low,
            keywords: vec!["alpha".into(), "beta".into()],
            rmax: 3.5,
            k: 4,
        })
        .unwrap();
        for cut in 0..payload.len() {
            let err =
                decode_request(&payload[..cut]).expect_err("truncated payload must not decode");
            assert!(
                matches!(err, ProtocolError::Truncated | ProtocolError::BadKind(_)),
                "cut at {cut}: unexpected error {err}"
            );
        }
    }

    #[test]
    fn every_truncation_of_a_response_is_a_clean_error() {
        let payload = encode_response(&Response::Interrupted {
            id: 3,
            reason: "settled-node budget exhausted".into(),
            communities: sample_communities(),
        })
        .unwrap();
        for cut in 0..payload.len() {
            assert!(
                decode_response(&payload[..cut]).is_err(),
                "cut at {cut} decoded"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = encode_request(&Request::Ping { id: 5 }).unwrap();
        payload.push(0);
        assert!(matches!(
            decode_request(&payload),
            Err(ProtocolError::TrailingBytes(1))
        ));
    }

    #[test]
    fn bad_version_kind_priority_are_rejected() {
        let mut payload = encode_request(&Request::Ping { id: 5 }).unwrap();
        payload[0] = 99;
        assert!(matches!(
            decode_request(&payload),
            Err(ProtocolError::BadVersion(99))
        ));
        let mut payload = encode_request(&Request::Ping { id: 5 }).unwrap();
        payload[1] = 200;
        assert!(matches!(
            decode_request(&payload),
            Err(ProtocolError::BadKind(200))
        ));
        let mut payload = encode_request(&Request::Query {
            id: 5,
            priority: Priority::Normal,
            keywords: vec![],
            rmax: 1.0,
            k: 1,
        })
        .unwrap();
        payload[10] = 9; // the priority byte follows version/kind/id
        assert!(matches!(
            decode_request(&payload),
            Err(ProtocolError::BadPriority(9))
        ));
    }

    #[test]
    fn hostile_length_prefix_does_not_overallocate() {
        // A u32-vec claiming 1 billion elements inside a 30-byte payload
        // must fail before reserving gigabytes.
        let mut buf = vec![PROTOCOL_VERSION, STATUS_COMPLETE];
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes()); // one community
        buf.extend_from_slice(&1_000_000_000u32.to_le_bytes()); // core len
        assert!(decode_response(&buf).is_err());
    }

    #[test]
    fn frame_io_roundtrips_and_caps() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        let mut reader = &wire[..];
        assert_eq!(read_frame(&mut reader).unwrap(), b"hello");

        // An oversized length prefix is rejected before allocation.
        let huge = (MAX_FRAME_BYTES + 1).to_le_bytes();
        let mut reader = &huge[..];
        assert!(matches!(
            read_frame(&mut reader),
            Err(ProtocolError::FrameTooLarge(_))
        ));

        // A truncated frame body is a clean transport error.
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        wire.truncate(wire.len() - 2);
        let mut reader = &wire[..];
        assert!(matches!(read_frame(&mut reader), Err(ProtocolError::Io(_))));
    }
}
