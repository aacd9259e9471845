//! `protocol_symmetry`: every wire-protocol variant and kind/status
//! constant must appear on both sides of the codec.
//!
//! The serve wire format is hand-rolled (length-prefixed frames, explicit
//! field order), so nothing but discipline keeps `encode_request` and
//! `decode_request` in sync. This rule makes the discipline checkable:
//!
//! * every `Request` variant must be matched in `encode_request` AND
//!   constructed in `decode_request` (same for `Response` with
//!   `encode_response`/`decode_response`);
//! * every `KIND_*` constant must be referenced by both request codecs,
//!   and every `STATUS_*` constant by both response codecs — a kind that
//!   is encoded but never decoded is a silent protocol fork.

use super::{FileModel, PROTOCOL_SYMMETRY};
use crate::rules::push;
use std::path::Path;

/// The codec pairs the rule enforces.
const PAIRS: [(&str, &str, &str, &str); 2] = [
    ("Request", "encode_request", "decode_request", "KIND_"),
    ("Response", "encode_response", "decode_response", "STATUS_"),
];

/// The rule applies to the serve wire-protocol module only.
pub fn in_scope(path: &Path) -> bool {
    path.components().any(|c| c.as_os_str() == "serve")
        && path.file_name().is_some_and(|f| f == "protocol.rs")
}

/// Checks one file (the protocol module).
pub fn check(fm: &FileModel, out: &mut Vec<crate::rules::Finding>) {
    let ast = &fm.ast;
    for (enum_name, enc_name, dec_name, const_prefix) in PAIRS {
        let Some(en) = ast.enums.iter().find(|e| e.name == enum_name) else {
            continue;
        };
        let body_of = |fn_name: &str| -> Option<String> {
            let f = ast.fns.iter().find(|f| f.name == fn_name)?;
            let (open, close) = f.body?;
            Some(ast.span_text(open, close).to_string())
        };
        let (enc, dec) = (body_of(enc_name), body_of(dec_name));
        for (side, name) in [(&enc, enc_name), (&dec, dec_name)] {
            if side.is_none() {
                push(
                    &fm.source,
                    out,
                    PROTOCOL_SYMMETRY,
                    en.line,
                    format!("`{enum_name}` has no `{name}` codec in this module"),
                    "add the missing codec function (one arm per variant)",
                );
            }
        }
        let (Some(enc), Some(dec)) = (enc, dec) else {
            continue;
        };
        for (vline, variant) in &en.variants {
            let qualified = format!("{enum_name}::{variant}");
            let selfed = format!("Self::{variant}");
            for (body, fn_name, verb) in [(&enc, enc_name, "encode"), (&dec, dec_name, "decode")] {
                if !contains_path(body, &qualified) && !contains_path(body, &selfed) {
                    push(
                        &fm.source,
                        out,
                        PROTOCOL_SYMMETRY,
                        *vline,
                        format!("variant `{qualified}` has no {verb} arm in `{fn_name}`"),
                        "add the matching arm so every variant roundtrips",
                    );
                }
            }
        }
        // Kind/status constants must be referenced by both codecs.
        for i in 0..ast.toks.len() {
            if ast.ident(i) != Some("const") {
                continue;
            }
            let Some(name) = ast.ident(i + 1) else {
                continue;
            };
            if !name.starts_with(const_prefix) {
                continue;
            }
            let line = ast.line(&fm.source, i);
            for (body, fn_name) in [(&enc, enc_name), (&dec, dec_name)] {
                if !contains_path(body, name) {
                    push(
                        &fm.source,
                        out,
                        PROTOCOL_SYMMETRY,
                        line,
                        format!(
                            "`{name}` is not referenced in `{fn_name}` — wire tags \
                                 must be handled symmetrically"
                        ),
                        "reference the constant from both the encoder and the decoder",
                    );
                }
            }
        }
    }
}

/// Substring match at identifier boundaries (`KIND_PING` must not match
/// inside `KIND_PING_V2`).
fn contains_path(haystack: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(rel) = haystack[from..].find(needle) {
        let pos = from + rel;
        from = pos + needle.len();
        let before_ok = pos == 0 || {
            let b = haystack.as_bytes()[pos - 1];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        let after = haystack.as_bytes().get(pos + needle.len());
        let after_ok = !after.is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_');
        if before_ok && after_ok {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Finding;
    use std::path::PathBuf;

    fn live(src: &str) -> Vec<Finding> {
        let fm = FileModel::parse(
            PathBuf::from("crates/serve/src/protocol.rs"),
            src.to_string(),
        );
        let mut out = Vec::new();
        check(&fm, &mut out);
        out.into_iter().filter(|f| !f.waived).collect()
    }

    const SYMMETRIC: &str = "\
const KIND_QUERY: u8 = 1;
const KIND_PING: u8 = 2;
pub enum Request {
    Query { id: u64 },
    Ping { id: u64 },
}
pub fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::Query { id } => tag(KIND_QUERY, id),
        Request::Ping { id } => tag(KIND_PING, id),
    }
}
pub fn decode_request(payload: &[u8]) -> Request {
    match payload[0] {
        KIND_QUERY => Request::Query { id: take(payload) },
        KIND_PING => Request::Ping { id: take(payload) },
        _ => reject(payload),
    }
}
";

    #[test]
    fn symmetric_codec_passes() {
        assert!(live(SYMMETRIC).is_empty(), "{:?}", live(SYMMETRIC));
    }

    #[test]
    fn seeded_missing_decode_arm_fails() {
        let src = SYMMETRIC.replace(
            "        KIND_PING => Request::Ping { id: take(payload) },\n",
            "",
        );
        let out = live(&src);
        assert!(
            out.iter().any(|f| f.rule == PROTOCOL_SYMMETRY
                && f.message.contains("Request::Ping")
                && f.message.contains("decode")),
            "{out:?}"
        );
        // The orphaned KIND_PING is reported too.
        assert!(
            out.iter()
                .any(|f| f.message.contains("KIND_PING") && f.message.contains("decode_request")),
            "{out:?}"
        );
    }

    #[test]
    fn seeded_missing_encode_arm_fails() {
        let src = SYMMETRIC.replace(
            "        Request::Query { id } => tag(KIND_QUERY, id),\n",
            "",
        );
        let out = live(&src);
        assert!(
            out.iter().any(|f| f.rule == PROTOCOL_SYMMETRY
                && f.message.contains("Request::Query")
                && f.message.contains("encode")),
            "{out:?}"
        );
    }

    #[test]
    fn missing_codec_fn_fails() {
        let src = "\
pub enum Request {
    Ping { id: u64 },
}
pub fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::Ping { id } => ping(id),
    }
}
";
        let out = live(src);
        assert!(
            out.iter()
                .any(|f| f.message.contains("no `decode_request`")),
            "{out:?}"
        );
    }

    #[test]
    fn prefix_constants_do_not_false_match() {
        let src = SYMMETRIC.replace(
            "const KIND_PING: u8 = 2;\n",
            "const KIND_PING: u8 = 2;\nconst KIND_PIN: u8 = 9;\n",
        );
        let out = live(&src);
        // KIND_PIN is unreferenced on both sides → two findings for it,
        // and none for KIND_PING.
        assert!(
            out.iter().all(|f| !f.message.contains("`KIND_PING`")),
            "{out:?}"
        );
        assert_eq!(
            out.iter()
                .filter(|f| f.message.contains("`KIND_PIN`"))
                .count(),
            2,
            "{out:?}"
        );
    }

    #[test]
    fn out_of_scope_paths() {
        assert!(in_scope(Path::new("crates/serve/src/protocol.rs")));
        assert!(!in_scope(Path::new("crates/serve/src/server.rs")));
        assert!(!in_scope(Path::new("crates/graph/src/protocol.rs")));
    }
}
