//! A minimal Rust source model for the lint rules.
//!
//! This is deliberately not a full parser. Rules only need three facts about
//! a source file besides its text, all computable with a small hand-rolled
//! lexer:
//!
//! 1. a *masked* view of the text where comment and string-literal interiors
//!    are blanked out (so ` as u32` inside a doc comment never matches);
//! 2. which lines belong to `#[cfg(test)]` items (rules skip test code);
//! 3. which lines carry `xtask-allow` waiver comments.
//!
//! The masked view preserves byte offsets and line boundaries exactly, so
//! rule matches report real source positions.

use std::path::PathBuf;

/// Waiver comment marker: `// xtask-allow: rule_id — reason`.
///
/// A waiver suppresses findings of the named rule(s) on its own line and on
/// the line directly below it (so it can sit above the offending statement).
pub const ALLOW_MARKER: &str = "xtask-allow:";

/// File-wide waiver marker: `// xtask-allow-file: rule_id — reason`.
pub const ALLOW_FILE_MARKER: &str = "xtask-allow-file:";

/// One source file plus the derived views the rules consume.
pub struct SourceFile {
    /// Path as reported in diagnostics (repo-relative).
    pub path: PathBuf,
    /// The text as written.
    pub text: String,
    /// Text with comment and string interiors replaced by spaces.
    pub masked: String,
    /// Byte offset of the start of each line (first entry is 0).
    pub line_starts: Vec<usize>,
    /// `test_lines[i]` is true when 1-based line `i + 1` is inside a
    /// `#[cfg(test)]` item.
    pub test_lines: Vec<bool>,
    /// Every waiver comment occurrence.
    pub waiver_sites: Vec<WaiverSite>,
}

/// One `xtask-allow` comment occurrence (one per rule it names).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaiverSite {
    /// 1-based line of the waiver comment.
    pub line: usize,
    /// The rule id it waives.
    pub rule: String,
    /// True for `xtask-allow-file` (whole-file) waivers.
    pub file_level: bool,
}

impl SourceFile {
    /// Builds the source model from raw text.
    pub fn from_text(path: PathBuf, text: String) -> SourceFile {
        let masked = mask(&text);
        let line_starts = line_starts(&text);
        let test_lines = test_lines(&masked, &line_starts);
        let waiver_sites = collect_waivers(&text, &line_starts);
        SourceFile {
            path,
            text,
            masked,
            line_starts,
            test_lines,
            waiver_sites,
        }
    }

    /// 1-based line number of a byte offset.
    pub fn line_of(&self, offset: usize) -> usize {
        match self.line_starts.binary_search(&offset) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    /// Whether 1-based `line` is inside `#[cfg(test)]` code.
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test_lines.get(line - 1).copied().unwrap_or(false)
    }

    /// Whether a finding of `rule` at 1-based `line` is waived.
    pub fn is_waived(&self, rule: &str, line: usize) -> bool {
        self.waiver_sites.iter().any(|w| w.covers(rule, line))
    }
}

impl WaiverSite {
    /// Whether this waiver covers a finding of `rule` at 1-based `line`:
    /// a line waiver covers its own line and the next, a file waiver all.
    pub fn covers(&self, rule: &str, line: usize) -> bool {
        self.rule == rule && (self.file_level || line == self.line || line == self.line + 1)
    }
}

fn line_starts(text: &str) -> Vec<usize> {
    let mut starts = vec![0];
    for (i, b) in text.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

/// Replaces comment bodies and string/char-literal interiors with spaces,
/// preserving newlines and byte offsets.
fn mask(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = bytes.to_vec();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    out[i] = b' ';
                    i += 1;
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                let mut depth = 0usize;
                while i < bytes.len() {
                    if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                        depth += 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                    } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                        depth -= 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        if bytes[i] != b'\n' {
                            out[i] = b' ';
                        }
                        i += 1;
                    }
                }
            }
            b'"' => i = mask_string(bytes, &mut out, i),
            b'r' | b'b' if starts_raw_string(bytes, i) => {
                i = mask_raw_string(bytes, &mut out, i);
            }
            b'b' if i + 1 < bytes.len() && bytes[i + 1] == b'"' => {
                i = mask_string(bytes, &mut out, i + 1);
            }
            b'\'' => i = mask_char_or_lifetime(bytes, &mut out, i),
            _ => i += 1,
        }
    }
    // Offsets are byte-exact; masking only writes ASCII spaces over
    // non-newline bytes, so the result is still valid UTF-8 only if we never
    // split a multi-byte char. Comment/string interiors may hold multi-byte
    // chars; blanking each byte keeps the length and replaces the whole char.
    String::from_utf8(out).unwrap_or_else(|e| {
        // Unreachable in practice: every masked byte becomes ' '.
        panic!("masking produced invalid UTF-8: {e}")
    })
}

fn starts_raw_string(bytes: &[u8], i: usize) -> bool {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if j >= bytes.len() || bytes[j] != b'r' {
        return false;
    }
    j += 1;
    while j < bytes.len() && bytes[j] == b'#' {
        j += 1;
    }
    j < bytes.len() && bytes[j] == b'"'
}

fn mask_raw_string(bytes: &[u8], out: &mut [u8], start: usize) -> usize {
    let mut i = start;
    if bytes[i] == b'b' {
        i += 1;
    }
    i += 1; // 'r'
    let mut hashes = 0;
    while i < bytes.len() && bytes[i] == b'#' {
        hashes += 1;
        i += 1;
    }
    i += 1; // opening quote
    while i < bytes.len() {
        if bytes[i] == b'"' {
            let mut k = 0;
            while k < hashes && i + 1 + k < bytes.len() && bytes[i + 1 + k] == b'#' {
                k += 1;
            }
            if k == hashes {
                return i + 1 + hashes;
            }
        }
        if bytes[i] != b'\n' {
            out[i] = b' ';
        }
        i += 1;
    }
    i
}

fn mask_string(bytes: &[u8], out: &mut [u8], quote: usize) -> usize {
    let mut i = quote + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => {
                out[i] = b' ';
                if i + 1 < bytes.len() && bytes[i + 1] != b'\n' {
                    out[i + 1] = b' ';
                }
                i += 2;
            }
            b'"' => return i + 1,
            b'\n' => i += 1,
            _ => {
                out[i] = b' ';
                i += 1;
            }
        }
    }
    i
}

/// Distinguishes `'a'` / `'\n'` char literals from `'a` lifetimes.
fn mask_char_or_lifetime(bytes: &[u8], out: &mut [u8], quote: usize) -> usize {
    let i = quote + 1;
    if i >= bytes.len() {
        return i;
    }
    if bytes[i] == b'\\' {
        // Escape: mask until the closing quote.
        let mut j = i;
        while j < bytes.len() && bytes[j] != b'\'' {
            out[j] = b' ';
            j += 1;
        }
        return j + 1;
    }
    // `'x'` (possibly multi-byte x): find a closing quote within 5 bytes.
    let limit = (i + 5).min(bytes.len());
    let mut j = i;
    while j < limit && bytes[j] != b'\'' {
        j += 1;
    }
    if j < limit && bytes[j] == b'\'' && j > i {
        for b in out.iter_mut().take(j).skip(i) {
            *b = b' ';
        }
        return j + 1;
    }
    // Lifetime: leave as-is.
    i
}

/// Marks the line span of every `#[cfg(test)]` item (typically `mod tests`).
fn test_lines(masked: &str, line_starts: &[usize]) -> Vec<bool> {
    let mut flags = vec![false; line_starts.len()];
    let bytes = masked.as_bytes();
    let mut search = 0;
    while let Some(rel) = masked[search..].find("#[cfg(test)]") {
        let attr_at = search + rel;
        search = attr_at + 1;
        // Find the item's opening brace after the attribute.
        let Some(open_rel) = masked[attr_at..].find('{') else {
            break;
        };
        let open = attr_at + open_rel;
        let mut depth = 0usize;
        let mut close = masked.len();
        for (off, &b) in bytes.iter().enumerate().skip(open) {
            if b == b'{' {
                depth += 1;
            } else if b == b'}' {
                depth -= 1;
                if depth == 0 {
                    close = off;
                    break;
                }
            }
        }
        let first = match line_starts.binary_search(&attr_at) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let last = match line_starts.binary_search(&close) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        for f in flags.iter_mut().take(last + 1).skip(first) {
            *f = true;
        }
    }
    flags
}

fn collect_waivers(text: &str, line_starts: &[usize]) -> Vec<WaiverSite> {
    let mut sites = Vec::new();
    for (idx, start) in line_starts.iter().enumerate() {
        let end = line_starts.get(idx + 1).copied().unwrap_or(text.len());
        let line = &text[*start..end];
        let (rest, file_level) = match line.find(ALLOW_FILE_MARKER) {
            Some(pos) => (&line[pos + ALLOW_FILE_MARKER.len()..], true),
            None => match line.find(ALLOW_MARKER) {
                Some(pos) => (&line[pos + ALLOW_MARKER.len()..], false),
                None => continue,
            },
        };
        for rule in parse_rule_list(rest) {
            sites.push(WaiverSite {
                line: idx + 1,
                rule,
                file_level,
            });
        }
    }
    sites
}

/// Parses `rule_a, rule_b — free-form reason` into the rule ids.
fn parse_rule_list(rest: &str) -> Vec<String> {
    let rest = rest
        .split(['—', ';'])
        .next()
        .unwrap_or("")
        .split(" - ")
        .next()
        .unwrap_or("");
    rest.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'))
        .map(str::to_string)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn file(text: &str) -> SourceFile {
        SourceFile::from_text(PathBuf::from("test.rs"), text.to_string())
    }

    #[test]
    fn masks_comments_and_strings() {
        let src = "let x = \"panic!\"; // panic!\nlet y = 1;\n";
        let f = file(src);
        assert!(!f.masked.contains("panic!"));
        assert!(f.masked.contains("let y = 1;"));
        assert_eq!(f.masked.len(), src.len());
    }

    #[test]
    fn masks_raw_strings_and_chars() {
        let f = file("let s = r#\"unwrap()\"#; let c = 'u'; let l: &'static str = \"\";");
        assert!(!f.masked.contains("unwrap"));
        assert!(f.masked.contains("'static"));
    }

    #[test]
    fn masks_block_comments_nested() {
        let f = file("/* outer /* panic! */ still */ let z = 2;");
        assert!(!f.masked.contains("panic!"));
        assert!(f.masked.contains("let z = 2;"));
    }

    #[test]
    fn detects_cfg_test_span() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let f = file(src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(2));
        assert!(f.is_test_line(4));
        assert!(f.is_test_line(5));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn waiver_applies_to_own_and_next_line() {
        let src = "// xtask-allow: narrowing_cast — audited\nlet x = y as u32;\nlet z = 0;\n";
        let f = file(src);
        assert!(f.is_waived("narrowing_cast", 1));
        assert!(f.is_waived("narrowing_cast", 2));
        assert!(!f.is_waived("narrowing_cast", 3));
        assert!(!f.is_waived("guard_coverage", 2));
    }

    #[test]
    fn file_waiver_applies_everywhere() {
        let src = "// xtask-allow-file: guard_coverage — enumeration driver\nfn f() {}\n";
        let f = file(src);
        assert!(f.is_waived("guard_coverage", 2));
        assert!(!f.is_waived("narrowing_cast", 2));
    }

    #[test]
    fn waiver_parses_multiple_rules() {
        let f = file("// xtask-allow: unbounded_alloc, narrowing_cast — both fine\nlet x = 1;\n");
        assert!(f.is_waived("unbounded_alloc", 2));
        assert!(f.is_waived("narrowing_cast", 2));
    }

    #[test]
    fn line_of_maps_offsets() {
        let f = file("a\nbb\nccc\n");
        assert_eq!(f.line_of(0), 1);
        assert_eq!(f.line_of(2), 2);
        assert_eq!(f.line_of(5), 3);
    }
}
