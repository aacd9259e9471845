//! Row encoding.
//!
//! Tuples are stored as compact byte rows (tag + payload per cell) in a
//! per-table arena, rather than as `Vec<Value>` — at DBLP scale (millions of
//! tuples) the pointer-per-cell representation would dominate memory.
//!
//! Encoding validates before writing (no partial rows on error), and
//! decoding is fully checked: a corrupted arena slice yields
//! [`RdbError::CorruptRow`] instead of a panic or an out-of-bounds slice.

use crate::error::RdbError;
use crate::value::Value;

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_TEXT: u8 = 2;
const TAG_FLOAT: u8 = 3;

/// Encodes one tuple into `buf`.
///
/// Fails with [`RdbError::OversizedText`] — before writing anything — when a
/// text cell exceeds the `u32` length prefix.
pub fn encode_row(values: &[Value], buf: &mut Vec<u8>) -> Result<(), RdbError> {
    for v in values {
        if let Value::Text(s) = v {
            if u32::try_from(s.len()).is_err() {
                return Err(RdbError::OversizedText { len: s.len() });
            }
        }
    }
    for v in values {
        match v {
            Value::Null => buf.push(TAG_NULL),
            Value::Int(i) => {
                buf.push(TAG_INT);
                buf.extend_from_slice(&i.to_le_bytes());
            }
            Value::Text(s) => {
                buf.push(TAG_TEXT);
                // Validated above; `as`-free thanks to the pre-scan.
                let len = u32::try_from(s.len()).unwrap_or_default();
                buf.extend_from_slice(&len.to_le_bytes());
                buf.extend_from_slice(s.as_bytes());
            }
            Value::Float(x) => {
                buf.push(TAG_FLOAT);
                buf.extend_from_slice(&x.to_le_bytes());
            }
        }
    }
    Ok(())
}

/// Decodes a full row of `arity` cells from an arena slice.
pub fn decode_row(mut bytes: &[u8], arity: usize) -> Result<Vec<Value>, RdbError> {
    let mut out = Vec::with_capacity(arity);
    for _ in 0..arity {
        out.push(decode_value(&mut bytes)?);
    }
    if !bytes.is_empty() {
        return Err(corrupt("trailing bytes after row decode"));
    }
    Ok(out)
}

/// Decodes only the cell at `column`, skipping the others cheaply.
pub fn decode_cell(mut bytes: &[u8], column: usize) -> Result<Value, RdbError> {
    for _ in 0..column {
        skip_value(&mut bytes)?;
    }
    decode_value(&mut bytes)
}

fn corrupt(detail: &str) -> RdbError {
    RdbError::CorruptRow {
        detail: detail.to_owned(),
    }
}

fn take_u8(bytes: &mut &[u8]) -> Result<u8, RdbError> {
    let (&first, rest) = bytes
        .split_first()
        .ok_or_else(|| corrupt("row truncated at cell tag"))?;
    *bytes = rest;
    Ok(first)
}

fn take<'a>(bytes: &mut &'a [u8], n: usize, what: &str) -> Result<&'a [u8], RdbError> {
    if bytes.len() < n {
        return Err(corrupt(what));
    }
    let (head, rest) = bytes.split_at(n);
    *bytes = rest;
    Ok(head)
}

fn take_array<const N: usize>(bytes: &mut &[u8], what: &str) -> Result<[u8; N], RdbError> {
    let head = take(bytes, N, what)?;
    let mut arr = [0u8; N];
    arr.copy_from_slice(head);
    Ok(arr)
}

fn decode_value(bytes: &mut &[u8]) -> Result<Value, RdbError> {
    match take_u8(bytes)? {
        TAG_NULL => Ok(Value::Null),
        TAG_INT => Ok(Value::Int(i64::from_le_bytes(take_array(
            bytes,
            "row truncated inside Int cell",
        )?))),
        TAG_TEXT => {
            let len32 = u32::from_le_bytes(take_array(bytes, "row truncated at Text length")?);
            let len = usize::try_from(len32)
                .map_err(|_| corrupt("text length exceeds host address width"))?;
            let raw = take(bytes, len, "row truncated inside Text cell")?;
            let text =
                std::str::from_utf8(raw).map_err(|_| corrupt("text cell is not valid UTF-8"))?;
            Ok(Value::Text(text.to_owned()))
        }
        TAG_FLOAT => Ok(Value::Float(f64::from_le_bytes(take_array(
            bytes,
            "row truncated inside Float cell",
        )?))),
        _ => Err(corrupt("unknown cell tag")),
    }
}

fn skip_value(bytes: &mut &[u8]) -> Result<(), RdbError> {
    match take_u8(bytes)? {
        TAG_NULL => Ok(()),
        TAG_INT => take(bytes, 8, "row truncated inside Int cell").map(|_| ()),
        TAG_TEXT => {
            let len32 = u32::from_le_bytes(take_array(bytes, "row truncated at Text length")?);
            let len = usize::try_from(len32)
                .map_err(|_| corrupt("text length exceeds host address width"))?;
            take(bytes, len, "row truncated inside Text cell").map(|_| ())
        }
        TAG_FLOAT => take(bytes, 8, "row truncated inside Float cell").map(|_| ()),
        _ => Err(corrupt("unknown cell tag")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(vals: Vec<Value>) {
        let mut buf = Vec::new();
        encode_row(&vals, &mut buf).unwrap();
        let decoded = decode_row(&buf, vals.len()).unwrap();
        assert_eq!(decoded, vals);
    }

    #[test]
    fn roundtrip_all_types() {
        roundtrip(vec![
            Value::Int(42),
            Value::Text("community search".into()),
            Value::Null,
            Value::Float(2.5),
        ]);
    }

    #[test]
    fn roundtrip_empty_text() {
        roundtrip(vec![Value::Text(String::new())]);
    }

    #[test]
    fn roundtrip_negative_int() {
        roundtrip(vec![Value::Int(-7)]);
    }

    #[test]
    fn decode_single_cell() {
        let vals = vec![Value::Int(1), Value::Text("skip me".into()), Value::Int(99)];
        let mut buf = Vec::new();
        encode_row(&vals, &mut buf).unwrap();
        assert_eq!(decode_cell(&buf, 0).unwrap(), Value::Int(1));
        assert_eq!(decode_cell(&buf, 1).unwrap(), Value::Text("skip me".into()));
        assert_eq!(decode_cell(&buf, 2).unwrap(), Value::Int(99));
    }

    #[test]
    fn unicode_text() {
        roundtrip(vec![Value::Text("数据库 communauté".into())]);
    }

    #[test]
    fn unknown_tag_is_an_error_not_a_panic() {
        let err = decode_row(&[9u8], 1).unwrap_err();
        assert!(matches!(err, RdbError::CorruptRow { .. }));
        assert!(err.to_string().contains("unknown cell tag"));
        let err = decode_cell(&[9u8, TAG_INT], 1).unwrap_err();
        assert!(matches!(err, RdbError::CorruptRow { .. }));
    }

    #[test]
    fn truncated_cells_are_errors() {
        // Int tag with only 3 payload bytes.
        assert!(decode_row(&[TAG_INT, 1, 2, 3], 1).is_err());
        // Text claiming 10 bytes but carrying 2.
        let mut buf = vec![TAG_TEXT];
        buf.extend_from_slice(&10u32.to_le_bytes());
        buf.extend_from_slice(b"ab");
        assert!(decode_row(&buf, 1).is_err());
        // Empty slice.
        assert!(decode_row(&[], 1).is_err());
        // Skipping over a truncated cell fails too.
        assert!(decode_cell(&[TAG_FLOAT, 0], 1).is_err());
    }

    #[test]
    fn invalid_utf8_is_an_error() {
        let mut buf = vec![TAG_TEXT];
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&[0xff, 0xfe]);
        let err = decode_row(&buf, 1).unwrap_err();
        assert!(err.to_string().contains("UTF-8"));
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut buf = Vec::new();
        encode_row(&[Value::Int(1)], &mut buf).unwrap();
        buf.push(0);
        assert!(decode_row(&buf, 1).is_err());
    }
}
