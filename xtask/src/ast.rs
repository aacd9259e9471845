//! A token-tree layer over [`SourceFile`]'s masked text.
//!
//! The lint rules started as substring scans; the analyzer needs structure:
//! which tokens form a function body, where loops begin and end, what the
//! receiver of a method call is. This module tokenizes the masked text
//! (comments and string interiors are already blanked, so every token is
//! real code) and extracts just enough shape — functions with their impl
//! context, struct fields with type text, enums with variants, bracket
//! matching — for the rules to query structurally instead of textually.
//!
//! It is still deliberately not a full parser: no expressions, no types, no
//! name resolution beyond what the analyzer layers on top. Offsets are
//! byte-exact against the original source, so findings report real lines.

use crate::scan::SourceFile;

/// Token classification. Brackets are split out so they can be matched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Numeric literal (including suffixed/hex forms).
    Num,
    /// Any other single character.
    Punct(char),
    /// `(`, `[`, or `{`.
    Open(char),
    /// `)`, `]`, or `}`.
    Close(char),
}

/// One token: byte span in the masked text plus its kind.
#[derive(Debug, Clone, Copy)]
pub struct Tok {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
    /// Classification.
    pub kind: TokKind,
}

/// A function item: signature facts plus token ranges for later queries.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Whether the item is `pub` (any visibility qualifier counts).
    pub is_pub: bool,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token range `[sig_start, body_open)` covering qualifiers + signature.
    pub sig: (usize, usize),
    /// Parameters as `(name, type text)`; `self` params use the name `self`.
    pub params: Vec<(String, String)>,
    /// Return type text (empty for `()`).
    pub ret: String,
    /// Token indices of the body `{` and its matching `}` (None for trait
    /// signatures without bodies).
    pub body: Option<(usize, usize)>,
    /// Name of the enclosing `impl` type, when the fn is inside one.
    pub impl_ty: Option<String>,
}

/// One named struct field.
#[derive(Debug, Clone)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Type text as written (masked source slice).
    pub ty: String,
}

/// A struct item with its named fields (tuple/unit structs have none).
#[derive(Debug, Clone)]
pub struct StructItem {
    /// Struct name.
    pub name: String,
    /// Named fields.
    pub fields: Vec<Field>,
}

/// An enum item with its variant names.
#[derive(Debug, Clone)]
pub struct EnumItem {
    /// Enum name.
    pub name: String,
    /// Whether the item is `pub` (a bare `pub`, not `pub(crate)`).
    pub is_pub: bool,
    /// 1-based line of the `enum` keyword.
    pub line: usize,
    /// `(line, variant_name)` pairs.
    pub variants: Vec<(usize, String)>,
}

/// The token span of an `impl` block and the type it implements for.
#[derive(Debug, Clone)]
pub struct ImplSpan {
    /// Token index of the body `{`.
    pub open: usize,
    /// Token index of the matching `}`.
    pub close: usize,
    /// The implemented-for type name (`Foo` in `impl Trait for Foo`).
    pub ty: String,
}

/// A call site: an identifier directly followed by `(`.
#[derive(Debug, Clone)]
pub struct Call {
    /// Token index of the callee identifier.
    pub tok: usize,
    /// Callee name.
    pub name: String,
    /// True when the call is a method call (`recv.name(...)`).
    pub is_method: bool,
}

/// The parsed token tree plus extracted items for one file.
pub struct Ast {
    /// The masked source text (byte offsets match the [`SourceFile`]).
    pub src: String,
    /// Tokens in source order.
    pub toks: Vec<Tok>,
    /// For bracket tokens, the index of the matching partner (`None` for
    /// unmatched or non-bracket tokens).
    pub partner: Vec<Option<usize>>,
    /// Function items (all visibilities, including nested in impls).
    pub fns: Vec<FnItem>,
    /// Struct items with named fields.
    pub structs: Vec<StructItem>,
    /// Enum items.
    pub enums: Vec<EnumItem>,
    /// Impl-block spans (for impl-context lookup).
    pub impls: Vec<ImplSpan>,
}

const KEYWORDS: [&str; 24] = [
    "if", "else", "while", "for", "loop", "match", "return", "in", "as", "move", "fn", "impl",
    "let", "pub", "use", "mod", "where", "unsafe", "async", "dyn", "ref", "mut", "break",
    "continue",
];

impl Ast {
    /// Tokenizes and extracts items from a source file's masked text.
    pub fn parse(sf: &SourceFile) -> Ast {
        let src = sf.masked.clone();
        let toks = tokenize(&src);
        let partner = match_brackets(&toks);
        let mut ast = Ast {
            src,
            toks,
            partner,
            fns: Vec::new(),
            structs: Vec::new(),
            enums: Vec::new(),
            impls: Vec::new(),
        };
        ast.extract(sf);
        ast
    }

    /// The text of token `i`.
    pub fn text(&self, i: usize) -> &str {
        let t = &self.toks[i];
        &self.src[t.start..t.end]
    }

    /// The identifier text of token `i`, when it is an identifier.
    pub fn ident(&self, i: usize) -> Option<&str> {
        (self.toks.get(i)?.kind == TokKind::Ident).then(|| self.text(i))
    }

    /// Whether token `i` is the punct `c`.
    pub fn is_punct(&self, i: usize, c: char) -> bool {
        self.toks
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Punct(c))
    }

    /// Whether tokens `i` and `i + 1` are byte-adjacent (no whitespace).
    fn adjacent(&self, i: usize) -> bool {
        i + 1 < self.toks.len() && self.toks[i].end == self.toks[i + 1].start
    }

    /// Whether tokens `i - 1, i` form a `::` path separator.
    fn path_sep_before(&self, i: usize) -> bool {
        i >= 2
            && self.is_punct(i - 1, ':')
            && self.is_punct(i - 2, ':')
            && self.toks[i - 2].end == self.toks[i - 1].start
    }

    /// The masked-source slice spanned by tokens `[lo, hi]` inclusive.
    pub fn span_text(&self, lo: usize, hi: usize) -> &str {
        if lo >= self.toks.len() || hi >= self.toks.len() || lo > hi {
            return "";
        }
        &self.src[self.toks[lo].start..self.toks[hi].end]
    }

    /// 1-based line of token `i`.
    pub fn line(&self, sf: &SourceFile, i: usize) -> usize {
        sf.line_of(self.toks[i].start)
    }

    /// Call sites within the token range `[lo, hi)`.
    pub fn calls_in(&self, lo: usize, hi: usize) -> Vec<Call> {
        let mut out = Vec::new();
        for i in lo..hi.min(self.toks.len().saturating_sub(1)) {
            let Some(name) = self.ident(i) else { continue };
            if KEYWORDS.contains(&name) {
                continue;
            }
            // `name!(...)` macros tokenize as Ident, `!`, `(` — the bang
            // between name and paren already excludes them here.
            if self.toks[i + 1].kind != TokKind::Open('(') {
                continue;
            }
            out.push(Call {
                tok: i,
                name: name.to_string(),
                is_method: i > 0 && self.is_punct(i - 1, '.'),
            });
        }
        out
    }

    /// The dotted/path receiver chain of a method call, outermost first:
    /// `self.classes[c].lock()` yields `["self", "classes"]` (the method
    /// name itself is excluded); `EnginePool::global().acquire(n)` yields
    /// `["EnginePool", "global"]`. Unresolvable elements stop the walk.
    pub fn receiver_chain(&self, call_tok: usize) -> Vec<String> {
        let mut chain: Vec<String> = Vec::new();
        let mut j = call_tok; // token just after the separator under scan
        loop {
            if j == 0 {
                break;
            }
            // Identify the separator directly before token j.
            let sep = j - 1;
            let elem_end = if self.is_punct(sep, '.') {
                if sep == 0 {
                    break;
                }
                sep - 1
            } else if sep >= 1
                && self.is_punct(sep, ':')
                && self.is_punct(sep - 1, ':')
                && self.toks[sep - 1].end == self.toks[sep].start
            {
                if sep == 1 {
                    break;
                }
                sep - 2
            } else {
                break;
            };
            // Skip over trailing groups: `foo(...)`, `xs[i]`.
            let mut e = elem_end;
            while let TokKind::Close(_) = self.toks[e].kind {
                let open = self.partner[e].unwrap_or(0);
                if open == 0 {
                    chain.reverse();
                    return chain;
                }
                e = open - 1;
            }
            match self.toks[e].kind {
                TokKind::Ident | TokKind::Num => {
                    chain.push(self.text(e).to_string());
                    j = e;
                }
                _ => break,
            }
        }
        chain.reverse();
        chain
    }

    /// Loop spans (`for`/`while`/`loop`) within `[lo, hi)` as
    /// `(keyword_tok, close_brace_tok)` pairs, including the loop header.
    pub fn loops_in(&self, lo: usize, hi: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let hi = hi.min(self.toks.len());
        for i in lo..hi {
            let Some(kw) = self.ident(i) else { continue };
            if kw != "for" && kw != "while" && kw != "loop" {
                continue;
            }
            // `for<'a>` higher-ranked bounds are types, not loops.
            if kw == "for" && self.is_punct(i + 1, '<') {
                continue;
            }
            // Find the loop body `{` at group level 0 from the keyword.
            let mut j = i + 1;
            let mut open = None;
            while j < hi {
                match self.toks[j].kind {
                    TokKind::Open('{') => {
                        open = Some(j);
                        break;
                    }
                    TokKind::Open(_) => {
                        let Some(p) = self.partner[j] else { break };
                        j = p + 1;
                    }
                    TokKind::Punct(';') | TokKind::Close(_) => break,
                    _ => j += 1,
                }
            }
            if let Some(open) = open {
                if let Some(close) = self.partner[open] {
                    out.push((i, close));
                }
            }
        }
        out
    }

    /// The innermost enclosing impl type for token index `i`.
    pub fn impl_ty_at(&self, i: usize) -> Option<&str> {
        self.impls
            .iter()
            .filter(|s| s.open < i && i < s.close)
            .min_by_key(|s| s.close - s.open)
            .map(|s| s.ty.as_str())
    }

    /// Skips a `<...>` generic group starting at the `<` token `i`; returns
    /// the index just past the closing `>`. Arrow `->` greater-thans do not
    /// close the group.
    fn skip_angles(&self, i: usize) -> usize {
        let mut depth = 0i32;
        let mut j = i;
        while j < self.toks.len() {
            match self.toks[j].kind {
                TokKind::Punct('<') => depth += 1,
                TokKind::Punct('>') => {
                    let is_arrow = j > 0 && self.is_punct(j - 1, '-') && self.adjacent(j - 1);
                    if !is_arrow {
                        depth -= 1;
                        if depth == 0 {
                            return j + 1;
                        }
                    }
                }
                TokKind::Open(_) => {
                    let Some(p) = self.partner[j] else {
                        return j + 1;
                    };
                    j = p;
                }
                TokKind::Punct(';') => return j,
                _ => {}
            }
            j += 1;
        }
        j
    }

    fn extract(&mut self, sf: &SourceFile) {
        let mut i = 0;
        while i < self.toks.len() {
            match self.ident(i) {
                Some("impl") => {
                    if let Some(span) = self.parse_impl(i) {
                        // Walk into the body so nested fns are found too.
                        i = span.open + 1;
                        self.impls.push(span);
                        continue;
                    }
                }
                Some("fn") => {
                    if let Some(f) = self.parse_fn(sf, i) {
                        let next = f.body.map(|(open, _)| open + 1).unwrap_or(f.sig.1);
                        self.fns.push(f);
                        i = next;
                        continue;
                    }
                }
                Some("struct") => {
                    if let Some((s, next)) = self.parse_struct(i) {
                        self.structs.push(s);
                        i = next;
                        continue;
                    }
                }
                Some("enum") => {
                    if let Some((e, next)) = self.parse_enum(sf, i) {
                        self.enums.push(e);
                        i = next;
                        continue;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }

    /// Parses an impl header at the `impl` keyword; returns its span.
    fn parse_impl(&self, i: usize) -> Option<ImplSpan> {
        let mut j = i + 1;
        if self.is_punct(j, '<') {
            j = self.skip_angles(j);
        }
        let mut ty: Option<String> = None;
        while j < self.toks.len() {
            match self.toks[j].kind {
                TokKind::Open('{') => {
                    return Some(ImplSpan {
                        close: self.partner[j]?,
                        open: j,
                        ty: ty.unwrap_or_default(),
                    });
                }
                TokKind::Punct(';') => return None,
                TokKind::Punct('<') => {
                    j = self.skip_angles(j);
                    continue;
                }
                TokKind::Open(_) => {
                    j = self.partner[j]? + 1;
                    continue;
                }
                TokKind::Ident => {
                    let w = self.text(j);
                    if w == "for" {
                        ty = None; // the implemented-for type follows
                    } else if w == "where" {
                        // Type already seen; scan on for the brace.
                    } else if ty.is_none()
                        && !matches!(w, "dyn" | "mut" | "const" | "unsafe" | "async")
                        && !self.path_sep_before(j)
                    {
                        // First path segment: prefer the last segment of a
                        // `a::b::Ty` path, so peek ahead through `::`.
                        let mut last = j;
                        let mut k = j;
                        while k + 2 < self.toks.len()
                            && self.is_punct(k + 1, ':')
                            && self.is_punct(k + 2, ':')
                            && self.toks[k + 1].end == self.toks[k + 2].start
                            && self.toks.get(k + 3).map(|t| t.kind) == Some(TokKind::Ident)
                        {
                            last = k + 3;
                            k = k + 3;
                        }
                        ty = Some(self.text(last).to_string());
                        j = k + 1;
                        continue;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        None
    }

    /// Parses a fn item at the `fn` keyword.
    fn parse_fn(&self, sf: &SourceFile, i: usize) -> Option<FnItem> {
        let name = self.ident(i + 1)?.to_string();
        // Back-scan qualifiers (`pub(crate) const async unsafe fn ...`).
        let mut sig_start = i;
        let mut is_pub = false;
        let mut b = i;
        while b > 0 {
            let prev = b - 1;
            match self.toks[prev].kind {
                TokKind::Ident => match self.text(prev) {
                    "pub" => {
                        is_pub = true;
                        sig_start = prev;
                        b = prev;
                    }
                    "const" | "async" | "unsafe" | "extern" | "crate" | "super" | "in" => {
                        sig_start = prev;
                        b = prev;
                    }
                    _ => break,
                },
                TokKind::Close(')') => {
                    // `pub(crate)` — jump over the group.
                    let open = self.partner[prev].unwrap_or(0);
                    if open == 0 {
                        break;
                    }
                    sig_start = open;
                    b = open;
                }
                _ => break,
            }
        }
        // Generic params after the name.
        let mut j = i + 2;
        if self.is_punct(j, '<') {
            j = self.skip_angles(j);
        }
        if self.toks.get(j).map(|t| t.kind) != Some(TokKind::Open('(')) {
            return None;
        }
        let params_open = j;
        let params_close = self.partner[j]?;
        let params = self.parse_params(params_open, params_close);
        // Find the body `{` (or `;` for trait signatures), arrow-aware.
        let mut k = params_close + 1;
        let mut arrow_at: Option<usize> = None;
        let mut body = None;
        while k < self.toks.len() {
            match self.toks[k].kind {
                TokKind::Open('{') => {
                    body = Some((k, self.partner[k]?));
                    break;
                }
                TokKind::Punct(';') | TokKind::Close(_) => break,
                TokKind::Punct('<') => {
                    k = self.skip_angles(k);
                    continue;
                }
                TokKind::Open(_) => {
                    k = self.partner[k]? + 1;
                    continue;
                }
                TokKind::Punct('>') if arrow_at.is_none() && k > 0 && self.is_punct(k - 1, '-') => {
                    arrow_at = Some(k + 1);
                    k += 1;
                    continue;
                }
                _ => {
                    k += 1;
                    continue;
                }
            }
        }
        let sig_end = body.map(|(open, _)| open).unwrap_or(k);
        let ret = match arrow_at {
            Some(a) if a < sig_end => {
                let mut end = sig_end;
                // Trim a trailing `where` clause out of the return text.
                for w in a..sig_end {
                    if self.ident(w) == Some("where") {
                        end = w;
                        break;
                    }
                }
                self.span_text(a, end.saturating_sub(1)).trim().to_string()
            }
            _ => String::new(),
        };
        Some(FnItem {
            line: self.line(sf, i),
            name,
            is_pub,
            sig: (sig_start, sig_end),
            params,
            ret,
            body,
            // Enclosing impls are pushed before their bodies are walked.
            impl_ty: self.impl_ty_at(i).map(str::to_string),
        })
    }

    /// Splits the param group into `(name, type text)` pairs.
    fn parse_params(&self, open: usize, close: usize) -> Vec<(String, String)> {
        let mut out = Vec::new();
        let mut seg_start = open + 1;
        let mut angle = 0i32;
        let mut m = open + 1;
        while m <= close {
            let end_here = m == close || (angle == 0 && self.toks[m].kind == TokKind::Punct(','));
            if end_here {
                if seg_start < m {
                    if let Some(p) = self.parse_param(seg_start, m) {
                        out.push(p);
                    }
                }
                seg_start = m + 1;
                m += 1;
                continue;
            }
            match self.toks[m].kind {
                TokKind::Open(_) => {
                    let Some(p) = self.partner[m].filter(|&p| p <= close) else {
                        break;
                    };
                    m = p + 1;
                }
                TokKind::Punct('<') => {
                    angle += 1;
                    m += 1;
                }
                TokKind::Punct('>') => {
                    let is_arrow = m > 0 && self.is_punct(m - 1, '-') && self.adjacent(m - 1);
                    if !is_arrow {
                        angle -= 1;
                    }
                    m += 1;
                }
                _ => m += 1,
            }
        }
        out
    }

    /// One param segment `[lo, hi)`: `name: Type`, `&mut self`, etc.
    fn parse_param(&self, lo: usize, hi: usize) -> Option<(String, String)> {
        // Find the first single `:` (not `::`) at this level.
        let mut colon = None;
        let mut m = lo;
        while m < hi {
            match self.toks[m].kind {
                TokKind::Open(_) => {
                    let Some(p) = self.partner[m].filter(|&p| p < hi) else {
                        break;
                    };
                    m = p + 1;
                    continue;
                }
                TokKind::Punct(':') => {
                    let doubled = (m + 1 < hi && self.is_punct(m + 1, ':') && self.adjacent(m))
                        || (m > lo && self.is_punct(m - 1, ':') && self.adjacent(m - 1));
                    if !doubled {
                        colon = Some(m);
                        break;
                    }
                }
                _ => {}
            }
            m += 1;
        }
        match colon {
            Some(c) => {
                // Name: last ident before the colon (skips `mut`, `ref`).
                let mut name = None;
                for k in (lo..c).rev() {
                    if let Some(id) = self.ident(k) {
                        if id != "mut" && id != "ref" {
                            name = Some(id.to_string());
                            break;
                        }
                    }
                }
                let ty = if c + 1 < hi {
                    self.span_text(c + 1, hi - 1).trim().to_string()
                } else {
                    String::new()
                };
                Some((name?, ty))
            }
            None => {
                // `self`, `&self`, `&mut self`, `&'a self`.
                for k in lo..hi {
                    if self.ident(k) == Some("self") {
                        let ty = self.span_text(lo, hi - 1).trim().to_string();
                        return Some(("self".to_string(), ty));
                    }
                }
                None
            }
        }
    }

    /// Parses a struct at the `struct` keyword; returns item + resume index.
    fn parse_struct(&self, i: usize) -> Option<(StructItem, usize)> {
        let name = self.ident(i + 1)?.to_string();
        let mut j = i + 2;
        if self.is_punct(j, '<') {
            j = self.skip_angles(j);
        }
        // Scan (over where clauses) for the field block, tuple, or unit.
        let mut open = None;
        while j < self.toks.len() {
            match self.toks[j].kind {
                TokKind::Open('{') => {
                    open = Some(j);
                    break;
                }
                TokKind::Open('(') => {
                    // Tuple struct: no named fields.
                    let next = self.partner[j].unwrap_or(j) + 1;
                    return Some((
                        StructItem {
                            name,
                            fields: Vec::new(),
                        },
                        next,
                    ));
                }
                TokKind::Punct(';') | TokKind::Close(_) => {
                    return Some((
                        StructItem {
                            name,
                            fields: Vec::new(),
                        },
                        j + 1,
                    ));
                }
                TokKind::Punct('<') => {
                    j = self.skip_angles(j);
                    continue;
                }
                _ => j += 1,
            }
        }
        let open = open?;
        let close = self.partner[open]?;
        let mut fields = Vec::new();
        let mut k = open + 1;
        while k < close {
            match self.toks[k].kind {
                TokKind::Punct('#')
                    if self.toks.get(k + 1).map(|t| t.kind) == Some(TokKind::Open('[')) =>
                {
                    let Some(p) = self.partner[k + 1] else { break };
                    k = p + 1;
                }
                TokKind::Ident if self.text(k) == "pub" => {
                    k += 1;
                    if self.toks.get(k).map(|t| t.kind) == Some(TokKind::Open('(')) {
                        let Some(p) = self.partner[k] else { break };
                        k = p + 1;
                    }
                }
                TokKind::Ident if self.is_punct(k + 1, ':') => {
                    let fname = self.text(k).to_string();
                    // Type runs to the level-0 comma or the block close.
                    let mut m = k + 2;
                    let mut angle = 0i32;
                    while m < close {
                        match self.toks[m].kind {
                            TokKind::Open(_) => {
                                let Some(p) = self.partner[m].filter(|&p| p <= close) else {
                                    break;
                                };
                                m = p + 1;
                                continue;
                            }
                            TokKind::Punct('<') => angle += 1,
                            TokKind::Punct('>') => angle -= 1,
                            TokKind::Punct(',') if angle == 0 => break,
                            _ => {}
                        }
                        m += 1;
                    }
                    let ty = if k + 2 < m {
                        self.span_text(k + 2, m - 1).trim().to_string()
                    } else {
                        String::new()
                    };
                    fields.push(Field { name: fname, ty });
                    k = m + 1;
                }
                _ => k += 1,
            }
        }
        Some((StructItem { name, fields }, close + 1))
    }

    /// Parses an enum at the `enum` keyword; returns item + resume index.
    fn parse_enum(&self, sf: &SourceFile, i: usize) -> Option<(EnumItem, usize)> {
        let name = self.ident(i + 1)?.to_string();
        let line = self.line(sf, i);
        let mut j = i + 2;
        if self.is_punct(j, '<') {
            j = self.skip_angles(j);
        }
        while j < self.toks.len() && self.toks[j].kind != TokKind::Open('{') {
            if let TokKind::Punct(';') | TokKind::Close(_) = self.toks[j].kind {
                return None;
            }
            j += 1;
        }
        let open = j;
        let close = (*self.partner.get(open)?)?;
        let mut variants = Vec::new();
        let mut k = open + 1;
        while k < close {
            match self.toks[k].kind {
                TokKind::Punct('#')
                    if self.toks.get(k + 1).map(|t| t.kind) == Some(TokKind::Open('[')) =>
                {
                    let Some(p) = self.partner[k + 1] else { break };
                    k = p + 1;
                }
                TokKind::Ident => {
                    let vname = self.text(k).to_string();
                    if vname.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                        variants.push((self.line(sf, k), vname));
                    }
                    // Skip payload and discriminant to the level-0 comma.
                    let mut m = k + 1;
                    while m < close {
                        match self.toks[m].kind {
                            TokKind::Open(_) => {
                                let Some(p) = self.partner[m].filter(|&p| p <= close) else {
                                    break;
                                };
                                m = p + 1;
                                continue;
                            }
                            TokKind::Punct(',') => break,
                            _ => m += 1,
                        }
                    }
                    k = m + 1;
                }
                _ => k += 1,
            }
        }
        Some((
            EnumItem {
                name,
                is_pub: i > 0 && self.ident(i - 1) == Some("pub"),
                line,
                variants,
            },
            close + 1,
        ))
    }
}

fn tokenize(src: &str) -> Vec<Tok> {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        if b.is_ascii_alphabetic() || b == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            toks.push(Tok {
                start,
                end: i,
                kind: TokKind::Ident,
            });
            continue;
        }
        if b.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            toks.push(Tok {
                start,
                end: i,
                kind: TokKind::Num,
            });
            continue;
        }
        let kind = match b {
            b'(' | b'[' | b'{' => TokKind::Open(b as char),
            b')' | b']' | b'}' => TokKind::Close(b as char),
            _ if b.is_ascii() => TokKind::Punct(b as char),
            _ => {
                // Multi-byte char (only possible outside masked regions in
                // identifiers we don't care about); skip its bytes.
                let ch_len = src[i..].chars().next().map(char::len_utf8).unwrap_or(1);
                i += ch_len;
                continue;
            }
        };
        toks.push(Tok {
            start: i,
            end: i + 1,
            kind,
        });
        i += 1;
    }
    toks
}

fn match_brackets(toks: &[Tok]) -> Vec<Option<usize>> {
    let mut partner = vec![None; toks.len()];
    let mut stack: Vec<(char, usize)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            TokKind::Open(c) => stack.push((c, i)),
            TokKind::Close(c) => {
                let want = match c {
                    ')' => '(',
                    ']' => '[',
                    _ => '{',
                };
                if let Some(pos) = stack.iter().rposition(|&(o, _)| o == want) {
                    let (_, open) = stack.remove(pos);
                    partner[open] = Some(i);
                    partner[i] = Some(open);
                }
            }
            _ => {}
        }
    }
    partner
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn ast(src: &str) -> Ast {
        let sf = SourceFile::from_text(PathBuf::from("t.rs"), src.to_string());
        Ast::parse(&sf)
    }

    #[test]
    fn extracts_fn_with_impl_context() {
        let a = ast(
            "impl Gate {\n    pub fn admit(&self, n: usize) -> bool {\n        true\n    }\n}\n",
        );
        assert_eq!(a.fns.len(), 1);
        let f = &a.fns[0];
        assert_eq!(f.name, "admit");
        assert!(f.is_pub);
        assert_eq!(f.impl_ty.as_deref(), Some("Gate"));
        assert_eq!(f.ret, "bool");
        assert_eq!(f.params[0].0, "self");
        assert_eq!(f.params[1], ("n".to_string(), "usize".to_string()));
    }

    #[test]
    fn trait_impl_for_resolves_type() {
        let a = ast("impl std::fmt::Display for DemoError {\n    fn fmt(&self) {}\n}\n");
        assert_eq!(a.impls.len(), 1);
        assert_eq!(a.impls[0].ty, "DemoError");
        assert_eq!(a.fns[0].impl_ty.as_deref(), Some("DemoError"));
    }

    #[test]
    fn generic_impl_resolves_type() {
        let a = ast(
            "impl<K: Eq, V> Lru<K, V> {\n    fn get(&mut self, k: &K) -> Option<&V> { None }\n}\n",
        );
        assert_eq!(a.impls[0].ty, "Lru");
        assert_eq!(a.fns[0].ret, "Option<&V>");
    }

    #[test]
    fn struct_fields_capture_lock_types() {
        let a = ast("pub struct Gate {\n    cfg: Config,\n    state: Mutex<GateState>,\n    freed: Condvar,\n}\n");
        assert_eq!(a.structs.len(), 1);
        let s = &a.structs[0];
        assert_eq!(s.name, "Gate");
        assert_eq!(s.fields.len(), 3);
        assert_eq!(s.fields[1].name, "state");
        assert!(s.fields[1].ty.contains("Mutex<"));
    }

    #[test]
    fn boxed_slice_of_mutexes_is_a_lock_field() {
        let a = ast("struct Pool {\n    classes: Box<[Mutex<Vec<Engine>>]>,\n}\n");
        assert!(a.structs[0].fields[0].ty.contains("Mutex<"));
    }

    #[test]
    fn enum_variants_extracted() {
        let a = ast(
            "pub enum Response {\n    Complete { id: u64 },\n    Pong,\n    Error(String),\n}\n",
        );
        let e = &a.enums[0];
        assert_eq!(e.name, "Response");
        let names: Vec<&str> = e.variants.iter().map(|(_, v)| v.as_str()).collect();
        assert_eq!(names, ["Complete", "Pong", "Error"]);
    }

    #[test]
    fn receiver_chain_walks_fields_and_indexing() {
        let a = ast("fn f(&self) { let g = self.classes[class].lock(); }\n");
        let calls = a.calls_in(0, a.toks.len());
        let lock = calls.iter().find(|c| c.name == "lock").unwrap();
        assert!(lock.is_method);
        assert_eq!(a.receiver_chain(lock.tok), ["self", "classes"]);
    }

    #[test]
    fn receiver_chain_walks_paths_and_calls() {
        let a = ast("fn f() { EnginePool::global().acquire(n); }\n");
        let calls = a.calls_in(0, a.toks.len());
        let acq = calls.iter().find(|c| c.name == "acquire").unwrap();
        let chain = a.receiver_chain(acq.tok);
        assert!(chain.contains(&"EnginePool".to_string()), "{chain:?}");
        assert!(chain.contains(&"global".to_string()), "{chain:?}");
    }

    #[test]
    fn loops_span_header_and_body() {
        let a = ast(
            "fn f(g: &G) {\n    for u in g.nodes() {\n        work(u);\n    }\n    done();\n}\n",
        );
        let f = &a.fns[0];
        let (lo, hi) = f.body.unwrap();
        let loops = a.loops_in(lo, hi);
        assert_eq!(loops.len(), 1);
        let text = a.span_text(loops[0].0, loops[0].1);
        assert!(text.contains(".nodes()"));
        assert!(text.contains("work"));
        assert!(!text.contains("done"));
    }

    #[test]
    fn while_let_loop_found() {
        let a = ast("fn f(s: &mut S) { while let Ok(x) = read_frame(s) { go(x); } }\n");
        let loops = a.loops_in(0, a.toks.len());
        assert_eq!(loops.len(), 1);
        assert!(a.span_text(loops[0].0, loops[0].1).contains("read_frame"));
    }

    #[test]
    fn trait_signature_has_no_body() {
        let a = ast("trait T {\n    fn required(&self) -> usize;\n}\n");
        assert_eq!(a.fns.len(), 1);
        assert!(a.fns[0].body.is_none());
    }

    #[test]
    fn fn_pointer_type_is_not_an_item() {
        let a = ast("fn f(cb: fn(u32) -> u32) -> u32 { cb(1) }\n");
        assert_eq!(a.fns.len(), 1);
        assert_eq!(a.fns[0].name, "f");
    }

    #[test]
    fn pub_crate_visibility_detected() {
        let a = ast("pub(crate) fn helper() {}\n");
        assert!(a.fns[0].is_pub);
    }

    #[test]
    fn where_clause_and_generic_fn_parse() {
        let a = ast(
            "pub fn run<F, T>(tasks: Vec<F>) -> Vec<T>\nwhere\n    F: FnOnce() -> T + Send,\n{\n    Vec::new()\n}\n",
        );
        let f = &a.fns[0];
        assert_eq!(f.name, "run");
        assert!(f.body.is_some());
        assert_eq!(f.params[0].0, "tasks");
        assert!(f.ret.starts_with("Vec<T>"));
    }

    #[test]
    fn calls_exclude_keywords_and_macros() {
        let a = ast("fn f() { if (x) { go(); } assert!(y); }\n");
        let names: Vec<String> = a
            .calls_in(0, a.toks.len())
            .iter()
            .map(|c| c.name.clone())
            .collect();
        assert!(names.contains(&"go".to_string()));
        assert!(!names.contains(&"if".to_string()));
    }
}
