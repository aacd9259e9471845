//! The workspace's one hand-written JSON writer (the crates are std-only).
//!
//! Values are rendered bottom-up as `String`s: leaves through [`string`]
//! and [`number`] (integers through `to_string`), containers through
//! [`object`] and [`array`], which take already-rendered values and lay
//! them out one per line. Used by [`LoadReport`](crate::LoadReport) here
//! and by `comm-bench`'s `Table` and `BatchReport`.

use std::fmt::Write as _;

/// A JSON string literal: quoted, with quotes, backslashes and control
/// characters escaped.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with three decimals; non-finite values become `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

/// Lays `lines` out between `open` and `close`, one per line, indenting
/// nested containers along. Raw newlines only ever come from this layout
/// ([`string`] escapes them), so re-indenting by replacement is exact.
fn block(open: char, close: char, lines: Vec<String>) -> String {
    if lines.is_empty() {
        return format!("{open}{close}");
    }
    let body: Vec<String> = lines
        .iter()
        .map(|l| format!("  {}", l.replace('\n', "\n  ")))
        .collect();
    format!("{open}\n{}\n{close}", body.join(",\n"))
}

/// A JSON object from `(key, rendered value)` pairs, in the given order.
pub fn object<K: AsRef<str>>(fields: impl IntoIterator<Item = (K, String)>) -> String {
    let lines = fields
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", string(k.as_ref())))
        .collect();
    block('{', '}', lines)
}

/// A JSON array from rendered values.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    block('[', ']', items.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(string("a\"b\\c\nd\te"), "\"a\\\"b\\\\c\\nd\\te\"");
        assert_eq!(string("\u{1}µ"), "\"\\u0001µ\"");
    }

    #[test]
    fn numbers_are_fixed_point_or_null() {
        assert_eq!(number(1.5), "1.500");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn containers_nest_with_indentation() {
        let inner = object([("k", number(2.0)), ("s", string("x\ny"))]);
        let doc = object([
            ("empty", array(Vec::new())),
            ("list", array(vec![inner, "7".to_string()])),
        ]);
        assert_eq!(
            doc,
            "{\n  \"empty\": [],\n  \"list\": [\n    {\n      \"k\": 2.000,\n      \
             \"s\": \"x\\ny\"\n    },\n    7\n  ]\n}"
        );
    }
}
