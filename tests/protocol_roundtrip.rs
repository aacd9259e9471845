//! Property tests for the comm-serve wire protocol.
//!
//! Two guarantees the hand-written codecs must uphold:
//!
//! 1. **Roundtrip fidelity** — encode → decode → encode is bit-identical
//!    for every representable message, including `rmax = NaN` and other
//!    special floats (which is why the property compares re-encoded bytes
//!    rather than structural equality: `NaN != NaN`).
//! 2. **Hostile-input safety** — truncated and corrupted payloads are
//!    rejected with a `ProtocolError`, never a panic, and the framing
//!    layer refuses oversized length prefixes before allocating.

use communities::graph::SplitMix64;
use communities::serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    CommunitySummary, Priority, Request, Response, MAX_FRAME_BYTES,
};

/// Cases per property, each on its own seeded stream.
const CASES: u64 = 256;

fn arb_u32(rng: &mut SplitMix64) -> u32 {
    (rng.next_u64() >> 32) as u32
}

/// Up to `max_chars` characters: ASCII, Latin-1, CJK and astral-plane
/// scalars (1- to 4-byte UTF-8), control characters included.
fn arb_string(rng: &mut SplitMix64, max_chars: usize) -> String {
    let classes = [
        '\0'..='\x7f',
        '\u{a0}'..='\u{ff}',
        '\u{4e00}'..='\u{9fff}',
        '\u{1f300}'..='\u{1f5ff}',
    ];
    rng.string(&classes, max_chars)
}

fn arb_vec<T>(
    rng: &mut SplitMix64,
    max_len: usize,
    mut item: impl FnMut(&mut SplitMix64) -> T,
) -> Vec<T> {
    (0..rng.index(max_len + 1)).map(|_| item(rng)).collect()
}

/// Any 64-bit pattern read as an `f64`, with the special classes (NaN
/// payloads, infinities, signed zero, subnormals) drawn one time in four
/// — uniform bits alone would almost never land on them.
fn arb_f64_bits(rng: &mut SplitMix64) -> f64 {
    const SPECIAL: [u64; 7] = [
        0x7ff8_0000_0000_0000, // quiet NaN
        0x7ff0_0000_dead_beef, // signalling NaN with a payload
        0x7ff0_0000_0000_0000, // +inf
        0xfff0_0000_0000_0000, // -inf
        0x8000_0000_0000_0000, // -0.0
        0x0000_0000_0000_0001, // smallest subnormal
        0x000f_ffff_ffff_ffff, // largest subnormal
    ];
    f64::from_bits(if rng.index(4) == 0 {
        SPECIAL[rng.index(SPECIAL.len())]
    } else {
        rng.next_u64()
    })
}

fn arb_request(rng: &mut SplitMix64) -> Request {
    let id = rng.next_u64();
    match rng.index(4) {
        0 => Request::Query {
            id,
            priority: [Priority::Low, Priority::Normal, Priority::High][rng.index(3)],
            keywords: arb_vec(rng, 5, |r| arb_string(r, 24)),
            rmax: arb_f64_bits(rng),
            k: arb_u32(rng),
        },
        1 => Request::Ping { id },
        2 => Request::Stats { id },
        _ => Request::Shutdown { id },
    }
}

fn arb_summary(rng: &mut SplitMix64) -> CommunitySummary {
    CommunitySummary {
        core: arb_vec(rng, 4, arb_u32),
        cost_bits: rng.next_u64(),
        centers: arb_vec(rng, 4, arb_u32),
        node_count: arb_u32(rng),
        edge_count: arb_u32(rng),
    }
}

fn arb_response(rng: &mut SplitMix64) -> Response {
    let id = rng.next_u64();
    match rng.index(7) {
        0 => Response::Complete {
            id,
            communities: arb_vec(rng, 3, arb_summary),
        },
        1 => Response::Interrupted {
            id,
            reason: arb_string(rng, 32),
            communities: arb_vec(rng, 3, arb_summary),
        },
        2 => Response::Overloaded {
            id,
            retry_after_ms: arb_u32(rng),
        },
        3 => Response::Error {
            id,
            message: arb_string(rng, 32),
        },
        4 => Response::Pong { id },
        5 => Response::Stats {
            id,
            counters: arb_vec(rng, 5, |r| (arb_string(r, 16), r.next_u64())),
        },
        _ => Response::ShuttingDown { id },
    }
}

#[test]
fn request_roundtrip_is_bit_identical() {
    SplitMix64::for_each_case(CASES, |rng| {
        let bytes = encode_request(&arb_request(rng)).expect("encode");
        let back = decode_request(&bytes).expect("decode");
        let again = encode_request(&back).expect("re-encode");
        assert_eq!(bytes, again);
    });
}

#[test]
fn response_roundtrip_is_bit_identical() {
    SplitMix64::for_each_case(CASES, |rng| {
        let bytes = encode_response(&arb_response(rng)).expect("encode");
        let back = decode_response(&bytes).expect("decode");
        let again = encode_response(&back).expect("re-encode");
        assert_eq!(bytes, again);
    });
}

/// Every field is fixed-size or length-prefixed, so a payload can never
/// decode from fewer bytes than it was encoded to: all proper prefixes
/// must be rejected — and none may panic.
#[test]
fn truncated_request_is_rejected() {
    SplitMix64::for_each_case(CASES, |rng| {
        let bytes = encode_request(&arb_request(rng)).expect("encode");
        let cut = rng.index(bytes.len());
        assert!(decode_request(&bytes[..cut]).is_err());
    });
}

#[test]
fn truncated_response_is_rejected() {
    SplitMix64::for_each_case(CASES, |rng| {
        let bytes = encode_response(&arb_response(rng)).expect("encode");
        let cut = rng.index(bytes.len());
        assert!(decode_response(&bytes[..cut]).is_err());
    });
}

/// XORs a non-zero mask into one byte of `bytes`.
fn flip_one_byte(rng: &mut SplitMix64, bytes: &mut [u8]) {
    let at = rng.index(bytes.len());
    bytes[at] ^= 1 + rng.index(255) as u8;
}

/// A single flipped byte must never cause a panic: either the decoder
/// rejects it, or it decodes to some other message that re-encodes
/// cleanly (a flip inside string content is still a valid message).
#[test]
fn corrupted_request_never_panics() {
    SplitMix64::for_each_case(CASES, |rng| {
        let mut bytes = encode_request(&arb_request(rng)).expect("encode");
        flip_one_byte(rng, &mut bytes);
        if let Ok(back) = decode_request(&bytes) {
            encode_request(&back).expect("decoded message re-encodes");
        }
    });
}

#[test]
fn corrupted_response_never_panics() {
    SplitMix64::for_each_case(CASES, |rng| {
        let mut bytes = encode_response(&arb_response(rng)).expect("encode");
        flip_one_byte(rng, &mut bytes);
        if let Ok(back) = decode_response(&bytes) {
            encode_response(&back).expect("decoded message re-encodes");
        }
    });
}

#[test]
fn frame_roundtrip() {
    SplitMix64::for_each_case(CASES, |rng| {
        let payload = arb_vec(rng, 511, |r| (r.next_u64() >> 56) as u8);
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).expect("write");
        let back = read_frame(&mut wire.as_slice()).expect("read");
        assert_eq!(payload, back);
    });
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocating() {
    // A hostile peer claims a frame just over the cap; read_frame must
    // refuse without trying to allocate the claimed buffer.
    let wire = (MAX_FRAME_BYTES + 1).to_le_bytes();
    assert!(read_frame(&mut wire.as_slice()).is_err());

    let wire = u32::MAX.to_le_bytes();
    assert!(read_frame(&mut wire.as_slice()).is_err());
}

#[test]
fn empty_and_garbage_payloads_are_rejected() {
    assert!(decode_request(&[]).is_err());
    assert!(decode_response(&[]).is_err());
    // Wrong version byte.
    assert!(decode_request(&[0x7f, 1, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
    // Unknown kind under the right version.
    assert!(decode_request(&[1, 0xee, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
}
