//! Lock-order analysis: the heart of `cargo xtask analyze`.
//!
//! Every `Mutex`/`RwLock` struct field (and local binding) gets a stable
//! lock-site id — `Struct.field` for fields, `fn.name` for locals. The
//! analysis walks every function body tracking which guards are live:
//!
//! * a `let g = ...lock()...` binding keeps its guard live until the
//!   enclosing block closes or `drop(g)` runs;
//! * an unbound `...lock()` temporary is live to the end of its statement;
//! * a call to a guard-returning helper (`lock_free`, `lock_cache`,
//!   `DedupeMap::lock`, ...) is an acquisition of the lock the helper
//!   locks, resolved through per-function summaries to a fixed point.
//!
//! Every acquisition while another guard is live becomes an edge in the
//! whole-workspace lock-order graph. Findings:
//!
//! * [`LOCK_ORDER`]: a cycle in the graph (potential deadlock), a
//!   re-acquisition of a held lock, or an edge that contradicts the
//!   canonical order documented in DESIGN.md ("Concurrency discipline"):
//!   engine pool → admission gate → caches → dedupe table.
//! * [`LOCK_BLOCKING`]: a guard held across an `EnginePool` checkout or a
//!   wire-I/O call (`write_frame`/`read_frame`/`accept`/...) — latency
//!   hazards in the serve path.

use super::{push, FileModel, LOCK_BLOCKING, LOCK_ORDER};
use crate::ast::{Ast, Call, TokKind};
use crate::rules::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// Canonical lock order (outer first). Edges between these ids must go
/// left-to-right; a right-to-left edge is flagged even without a full cycle.
pub const CANONICAL_ORDER: [&str; 6] = [
    "EnginePool.free",
    "AdmissionGate.state",
    "QueryEngine.indexes",
    "QueryEngine.runs",
    "QueryEngine.answers",
    "DedupeMap.state",
];

/// Calls that block on the network or check out a pooled engine; holding a
/// lock across them is flagged. (`acquire`/`admit` are only flagged when
/// the receiver resolves to the pool/gate.)
const BLOCKING_IO: [&str; 9] = [
    "write_frame",
    "read_frame",
    "read_request_frame",
    "accept",
    "connect",
    "connect_timeout",
    "write_all",
    "read_exact",
    "flush",
];

/// Which lock (or which parameter's lock) a guard-returning helper locks.
#[derive(Debug, Clone, PartialEq, Eq)]
enum GuardSource {
    Lock(String),
    Param(usize),
}

/// Per-function summary, computed to a fixed point across the workspace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct FnSummary {
    /// Lock ids this fn may acquire (and release) during a call.
    acquires: BTreeSet<String>,
    /// When the fn returns a guard, the lock that guard holds.
    returns_guard: Option<GuardSource>,
}

/// A lock-order edge with provenance.
struct Edge {
    file: usize,
    line: usize,
}

struct Model<'a> {
    files: &'a [FileModel],
    /// `(struct, field)` → lock id.
    field_locks: BTreeMap<(String, String), String>,
    /// field name → owning structs (for unique-field fallback).
    by_field: BTreeMap<String, Vec<String>>,
    /// Every struct/impl type name in the workspace.
    known_types: BTreeSet<String>,
    /// `(impl_ty_or_empty, fn_name)` → `(file, fn index)` list.
    fns_by_key: BTreeMap<(String, String), Vec<(usize, usize)>>,
    /// Summaries parallel to `files[i].ast.fns`.
    summaries: Vec<Vec<FnSummary>>,
}

/// Per-function resolution context.
struct FnCtx<'a> {
    file: usize,
    impl_ty: Option<&'a str>,
    params: &'a [(String, String)],
    /// local binding → lock id (for `let m = Mutex::new(...)` locals).
    local_locks: BTreeMap<String, String>,
    /// local binding → struct type (for `let pool = EnginePool::global()`).
    local_types: BTreeMap<String, String>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Target {
    Lock(String),
    ParamLock(usize),
}

/// Runs the lock-order analysis over the whole workspace model.
pub fn check(files: &[FileModel], out: &mut Vec<Finding>) {
    let model = Model::build(files);
    let mut edges: BTreeMap<(String, String), Edge> = BTreeMap::new();
    for (fi, fm) in files.iter().enumerate() {
        for (fx, f) in fm.ast.fns.iter().enumerate() {
            if f.body.is_none() {
                continue;
            }
            let ctx = model.fn_ctx(fi, fx);
            model.walk_edges(&ctx, fm, fx, &mut edges, out);
        }
    }

    // Self-edges: re-acquiring a lock already held deadlocks immediately.
    for ((from, to), e) in &edges {
        if from == to {
            let fm = &files[e.file];
            push(
                &fm.source,
                out,
                LOCK_ORDER,
                e.line,
                format!("lock `{from}` acquired while already held (self-deadlock)"),
                "release the first guard before re-acquiring, or restructure so one \
                 acquisition covers both uses",
            );
        }
    }

    // Canonical-order violations.
    let rank = |id: &str| CANONICAL_ORDER.iter().position(|c| *c == id);
    for ((from, to), e) in &edges {
        if from == to {
            continue;
        }
        if let (Some(rf), Some(rt)) = (rank(from), rank(to)) {
            if rf > rt {
                let fm = &files[e.file];
                push(
                    &fm.source,
                    out,
                    LOCK_ORDER,
                    e.line,
                    format!(
                        "acquiring `{to}` while holding `{from}` violates the canonical \
                         lock order (engine pool → admission gate → caches → dedupe table)"
                    ),
                    "acquire locks in the canonical order documented in DESIGN.md \
                     (Concurrency discipline)",
                );
            }
        }
    }

    // Cycles (length >= 2).
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        if from != to {
            adj.entry(from).or_default().push(to);
        }
    }
    let mut reported: BTreeSet<BTreeSet<String>> = BTreeSet::new();
    for ((from, to), e) in &edges {
        if from == to {
            continue;
        }
        if let Some(path) = find_path(&adj, to, from) {
            // `from → to → ... → from` is a cycle.
            let mut nodes: BTreeSet<String> = path.iter().map(|s| s.to_string()).collect();
            nodes.insert(from.clone());
            if reported.insert(nodes) {
                let mut cycle = vec![from.as_str()];
                cycle.extend(path.iter().copied());
                cycle.push(from.as_str());
                let fm = &files[e.file];
                push(
                    &fm.source,
                    out,
                    LOCK_ORDER,
                    e.line,
                    format!("lock-order cycle: {}", cycle.join(" → ")),
                    "pick one global order for these locks (see DESIGN.md, Concurrency \
                     discipline) and acquire them consistently",
                );
            }
        }
    }
}

/// BFS path from `start` to `goal` (inclusive of both, excluding `start`'s
/// repetition); None when unreachable.
fn find_path<'g>(
    adj: &BTreeMap<&'g str, Vec<&'g str>>,
    start: &'g str,
    goal: &str,
) -> Option<Vec<&'g str>> {
    let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(start);
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    seen.insert(start);
    while let Some(n) = queue.pop_front() {
        if n == goal {
            let mut path = vec![n];
            let mut cur = n;
            while let Some(&p) = prev.get(cur) {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        for &m in adj.get(n).into_iter().flatten() {
            if seen.insert(m) {
                prev.insert(m, n);
                queue.push_back(m);
            }
        }
    }
    None
}

impl<'a> Model<'a> {
    fn build(files: &'a [FileModel]) -> Model<'a> {
        let mut field_locks = BTreeMap::new();
        let mut by_field: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut known_types = BTreeSet::new();
        let mut fns_by_key: BTreeMap<(String, String), Vec<(usize, usize)>> = BTreeMap::new();
        for (fi, fm) in files.iter().enumerate() {
            for s in &fm.ast.structs {
                known_types.insert(s.name.clone());
                for fld in &s.fields {
                    if is_lock_type(&fld.ty) {
                        let id = format!("{}.{}", s.name, fld.name);
                        field_locks.insert((s.name.clone(), fld.name.clone()), id);
                        by_field
                            .entry(fld.name.clone())
                            .or_default()
                            .push(s.name.clone());
                    }
                }
            }
            for imp in &fm.ast.impls {
                if !imp.ty.is_empty() {
                    known_types.insert(imp.ty.clone());
                }
            }
            for (fx, f) in fm.ast.fns.iter().enumerate() {
                let key = (f.impl_ty.clone().unwrap_or_default(), f.name.clone());
                fns_by_key.entry(key).or_default().push((fi, fx));
            }
        }
        let summaries = files
            .iter()
            .map(|fm| vec![FnSummary::default(); fm.ast.fns.len()])
            .collect();
        let mut model = Model {
            files,
            field_locks,
            by_field,
            known_types,
            fns_by_key,
            summaries,
        };
        model.fixed_point();
        model
    }

    /// Iterates summary computation until no summary changes (bounded).
    fn fixed_point(&mut self) {
        for _ in 0..8 {
            let mut changed = false;
            for fi in 0..self.files.len() {
                for fx in 0..self.files[fi].ast.fns.len() {
                    let next = self.summarize(fi, fx);
                    if next != self.summaries[fi][fx] {
                        self.summaries[fi][fx] = next;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    fn fn_ctx(&self, fi: usize, fx: usize) -> FnCtx<'a> {
        let fm = &self.files[fi];
        let f = &fm.ast.fns[fx];
        let mut ctx = FnCtx {
            file: fi,
            impl_ty: f.impl_ty.as_deref(),
            params: &f.params,
            local_locks: BTreeMap::new(),
            local_types: BTreeMap::new(),
        };
        let Some((open, close)) = f.body else {
            return ctx;
        };
        // Pre-pass: local `let` bindings that are locks or known types.
        let ast = &fm.ast;
        let mut i = open + 1;
        while i < close {
            if ast.ident(i) == Some("let") {
                let mut j = i + 1;
                let mut name: Option<&str> = None;
                while j < close {
                    match ast.toks[j].kind {
                        TokKind::Ident => {
                            let id = ast.text(j);
                            if id == "mut" || id == "ref" {
                                j += 1;
                                continue;
                            }
                            if id.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                                // Pattern constructor (`Ok(x)`) — keep going.
                                j += 1;
                                continue;
                            }
                            name = Some(id);
                            break;
                        }
                        TokKind::Punct('=') | TokKind::Punct(';') => break,
                        _ => j += 1,
                    }
                }
                // Statement text up to the first `;`.
                let mut stmt_end = i;
                let mut k = i;
                while k < close {
                    if ast.is_punct(k, ';') {
                        stmt_end = k;
                        break;
                    }
                    k += 1;
                }
                if stmt_end > i {
                    let text = ast.span_text(i, stmt_end);
                    if let Some(name) = name {
                        if is_lock_type(text)
                            || text.contains("Mutex::new")
                            || text.contains("RwLock::new")
                        {
                            ctx.local_locks
                                .insert(name.to_string(), format!("{}.{}", f.name, name));
                        } else {
                            // Light type inference from the initializer.
                            for t in idents_of(text) {
                                if self.known_types.contains(t) {
                                    ctx.local_types.insert(name.to_string(), t.to_string());
                                    break;
                                }
                            }
                        }
                    }
                }
            }
            i += 1;
        }
        ctx
    }

    /// Computes one function's summary using current callee summaries.
    fn summarize(&self, fi: usize, fx: usize) -> FnSummary {
        let fm = &self.files[fi];
        let f = &fm.ast.fns[fx];
        let Some((open, close)) = f.body else {
            return FnSummary::default();
        };
        let ctx = self.fn_ctx(fi, fx);
        let returns_guard_ty = f.ret.contains("Guard");
        let mut acquires = BTreeSet::new();
        let mut first_source: Option<GuardSource> = None;
        for call in fm.ast.calls_in(open + 1, close) {
            for ev in self.call_events(&ctx, &fm.ast, &call) {
                match ev {
                    Target::Lock(id) => {
                        if returns_guard_ty && first_source.is_none() {
                            first_source = Some(GuardSource::Lock(id));
                        } else {
                            acquires.insert(id);
                        }
                    }
                    Target::ParamLock(k) => {
                        if returns_guard_ty && first_source.is_none() {
                            first_source = Some(GuardSource::Param(k));
                        }
                        // A param lock used-but-not-returned cannot be
                        // named from here; call sites resolve it.
                    }
                }
            }
            // Transitive acquisitions through callees.
            if let Some(s) = self.callee_summary(&ctx, &fm.ast, &call) {
                acquires.extend(s.acquires.iter().cloned());
            }
        }
        FnSummary {
            acquires,
            returns_guard: first_source,
        }
    }

    /// The lock acquisitions a single call performs, resolved in `ctx`:
    /// direct `.lock()/.read()/.write()` on a known lock, or a call to a
    /// guard-returning helper (its returned lock).
    fn call_events(&self, ctx: &FnCtx, ast: &Ast, call: &Call) -> Vec<Target> {
        let mut out = Vec::new();
        if call.is_method && matches!(call.name.as_str(), "lock" | "read" | "write") {
            let chain = ast.receiver_chain(call.tok);
            if let Some(t) = self.resolve_chain(ctx, &chain) {
                out.push(t);
                return out;
            }
        }
        if let Some(s) = self.callee_summary(ctx, ast, call) {
            if let Some(src) = &s.returns_guard {
                match src {
                    GuardSource::Lock(id) => out.push(Target::Lock(id.clone())),
                    GuardSource::Param(k) => {
                        if let Some(chain) = arg_chain(ast, call, *k) {
                            if let Some(t) = self.resolve_chain(ctx, &chain) {
                                out.push(t);
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Resolves a receiver/argument chain to a lock.
    fn resolve_chain(&self, ctx: &FnCtx, chain: &[String]) -> Option<Target> {
        let last = chain.last()?;
        if let Some(owners) = self.by_field.get(last) {
            if chain.len() >= 2 {
                let parent = &chain[chain.len() - 2];
                if let Some(ty) = self.elem_type(ctx, parent) {
                    if let Some(id) = self.field_locks.get(&(ty, last.clone())) {
                        return Some(Target::Lock(id.clone()));
                    }
                }
            }
            if owners.len() == 1 {
                return Some(Target::Lock(format!("{}.{}", owners[0], last)));
            }
        }
        if chain.len() == 1 {
            if let Some(id) = ctx.local_locks.get(last) {
                return Some(Target::Lock(id.clone()));
            }
            if let Some(k) = ctx.params.iter().position(|(n, _)| n == last) {
                if is_lock_type(&ctx.params[k].1) {
                    return Some(Target::ParamLock(k));
                }
            }
        }
        None
    }

    /// The struct type of one chain element (`self`, a param, or a local).
    fn elem_type(&self, ctx: &FnCtx, elem: &str) -> Option<String> {
        if elem == "self" {
            return ctx.impl_ty.map(str::to_string);
        }
        if let Some((_, ty)) = ctx.params.iter().find(|(n, _)| n == elem) {
            return self.struct_in(ty);
        }
        ctx.local_types.get(elem).cloned()
    }

    /// The last known struct/impl type named in a type text.
    fn struct_in(&self, ty: &str) -> Option<String> {
        idents_of(ty)
            .into_iter()
            .filter(|t| self.known_types.contains(*t))
            .next_back()
            .map(str::to_string)
    }

    /// The receiver type of a call: `self` → impl type; params/locals by
    /// inference; path calls (`EnginePool::global().f()`) by the first
    /// known type in the chain, refined through that fn's return type.
    fn receiver_type(&self, ctx: &FnCtx, ast: &Ast, call: &Call) -> Option<String> {
        let chain = ast.receiver_chain(call.tok);
        if call.is_method {
            let root = chain.first()?;
            if root == "self" {
                return ctx.impl_ty.map(str::to_string);
            }
            if let Some(t) = self.elem_type(ctx, root) {
                return Some(t);
            }
            // Path receiver: `Type::assoc().method()`.
            let known = chain.iter().find(|e| self.known_types.contains(*e))?;
            if let Some(tail) = chain.last() {
                if let Some(cands) = self.fns_by_key.get(&(known.clone(), tail.clone())) {
                    for &(fi, fx) in cands {
                        if let Some(r) = self.struct_in(&self.files[fi].ast.fns[fx].ret) {
                            return Some(r);
                        }
                    }
                }
            }
            Some(known.clone())
        } else {
            // Path call `Type::name(...)`: collect `::` segments backward.
            let mut j = call.tok;
            while j >= 3
                && ast.is_punct(j - 1, ':')
                && ast.is_punct(j - 2, ':')
                && ast.toks.get(j - 3).map(|t| t.kind) == Some(TokKind::Ident)
            {
                let seg = ast.text(j - 3).to_string();
                if self.known_types.contains(&seg) {
                    return Some(seg);
                }
                j -= 3;
            }
            None
        }
    }

    /// The merged summary of the fn(s) a call may invoke, or None for
    /// unresolvable/std calls.
    fn callee_summary(&self, ctx: &FnCtx, ast: &Ast, call: &Call) -> Option<FnSummary> {
        let key = if call.is_method {
            (self.receiver_type(ctx, ast, call)?, call.name.clone())
        } else {
            match self.receiver_type(ctx, ast, call) {
                Some(t) => (t, call.name.clone()),
                None => (String::new(), call.name.clone()),
            }
        };
        let cands = self.fns_by_key.get(&key)?;
        // Prefer same-file candidates for free fns (helper shadowing).
        let picked: Vec<&(usize, usize)> = if key.0.is_empty() {
            let same: Vec<_> = cands.iter().filter(|(fi, _)| *fi == ctx.file).collect();
            if same.is_empty() {
                cands.iter().collect()
            } else {
                same
            }
        } else {
            cands.iter().collect()
        };
        let mut merged = FnSummary::default();
        for &&(fi, fx) in &picked {
            let s = &self.summaries[fi][fx];
            merged.acquires.extend(s.acquires.iter().cloned());
            if merged.returns_guard.is_none() {
                merged.returns_guard = s.returns_guard.clone();
            }
        }
        if merged.acquires.is_empty() && merged.returns_guard.is_none() {
            return None;
        }
        Some(merged)
    }

    /// Walks one fn body tracking live guards, emitting lock-order edges
    /// and blocking-call findings.
    fn walk_edges(
        &self,
        ctx: &FnCtx,
        fm: &FileModel,
        fx: usize,
        edges: &mut BTreeMap<(String, String), Edge>,
        out: &mut Vec<Finding>,
    ) {
        let ast = &fm.ast;
        let f = &ast.fns[fx];
        let Some((open, close)) = f.body else { return };

        let mut live: Vec<LiveGuardSlot> = Vec::new();
        let mut depth = 1usize;
        let mut pending: Option<Pending> = None;

        let calls = ast.calls_in(open + 1, close);
        let mut call_iter = calls.iter().peekable();

        let mut i = open + 1;
        while i < close {
            match ast.toks[i].kind {
                TokKind::Open('{') => {
                    depth += 1;
                    // An `if let`/`while let` scrutinee ends where the body
                    // block opens.
                    if matches!(pending, Some(Pending::Scrutinee(_))) {
                        pending = None;
                    }
                }
                TokKind::Close('}') => {
                    depth = depth.saturating_sub(1);
                    live.retain(|g| g.depth <= depth);
                }
                TokKind::Punct(';') => {
                    live.retain(|g| !(g.temp && g.depth >= depth));
                    pending = None;
                }
                TokKind::Ident => {
                    if ast.text(i) == "let" {
                        // `if let P = scrutinee` / `while let P = scrutinee`
                        // bind the *match result*, not a guard acquired in
                        // the scrutinee — such a guard lives exactly as
                        // long as the body block.
                        let conditional =
                            i > 0 && matches!(ast.ident(i - 1), Some("if") | Some("while"));
                        if conditional {
                            pending = Some(Pending::Scrutinee(depth + 1));
                        } else {
                            // Find the binding name (skip pattern wrappers).
                            let mut j = i + 1;
                            while j < close {
                                match ast.toks[j].kind {
                                    TokKind::Ident => {
                                        let id = ast.text(j);
                                        if id == "mut"
                                            || id == "ref"
                                            || id
                                                .chars()
                                                .next()
                                                .is_some_and(|c| c.is_ascii_uppercase())
                                        {
                                            j += 1;
                                            continue;
                                        }
                                        pending = Some(Pending::Let(id.to_string(), depth));
                                        break;
                                    }
                                    TokKind::Punct('=') | TokKind::Punct(';') => break,
                                    _ => j += 1,
                                }
                            }
                        }
                    }
                }
                _ => {}
            }

            // Process any call whose ident token is here.
            while let Some(call) = call_iter.peek() {
                if call.tok > i {
                    break;
                }
                if call.tok == i {
                    let call = call_iter.next().expect("peeked");
                    self.handle_call(ctx, fm, call, &mut live, &mut pending, depth, edges, out);
                    break;
                }
                call_iter.next();
            }
            i += 1;
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_call(
        &self,
        ctx: &FnCtx,
        fm: &FileModel,
        call: &Call,
        live: &mut Vec<LiveGuardSlot>,
        pending: &mut Option<Pending>,
        depth: usize,
        edges: &mut BTreeMap<(String, String), Edge>,
        out: &mut Vec<Finding>,
    ) {
        let ast = &fm.ast;
        let line = ast.line(&fm.source, call.tok);

        // `drop(g)` releases a bound guard.
        if !call.is_method && call.name == "drop" {
            if let Some(chain) = arg_chain(ast, call, 0) {
                if chain.len() == 1 {
                    live.retain(|g| g.name.as_deref() != Some(chain[0].as_str()));
                }
            }
            return;
        }

        // Blocking calls while holding a guard.
        let is_blocking = if BLOCKING_IO.contains(&call.name.as_str()) {
            true
        } else if call.name == "acquire" || call.name == "admit" || call.name == "poison_for_chaos"
        {
            let rty = self.receiver_type(ctx, ast, call);
            matches!(rty.as_deref(), Some("EnginePool") | Some("AdmissionGate"))
        } else {
            false
        };
        if is_blocking && !live.is_empty() {
            let held: Vec<&str> = live.iter().map(|g| g.lock.as_str()).collect();
            push(
                &fm.source,
                out,
                LOCK_BLOCKING,
                line,
                format!("`{}` called while holding {}", call.name, held.join(", ")),
                "release the guard before pool checkout / wire I/O (clone or stage the \
                 data out of the critical section)",
            );
        }

        // New acquisitions: edges from every live lock, then register.
        let events = self.call_events(ctx, ast, call);
        for ev in events {
            let id = match ev {
                Target::Lock(id) => id,
                Target::ParamLock(_) => continue, // identity unknown here
            };
            for g in live.iter() {
                edges.entry((g.lock.clone(), id.clone())).or_insert(Edge {
                    file: ctx.file,
                    line,
                });
            }
            match pending {
                Some(Pending::Let(name, let_depth)) => {
                    live.push(LiveGuardSlot {
                        name: Some(name.clone()),
                        lock: id,
                        depth: *let_depth,
                        temp: false,
                    });
                    *pending = None;
                }
                Some(Pending::Scrutinee(body_depth)) => {
                    // Dies when the if/while body block closes.
                    live.push(LiveGuardSlot {
                        name: None,
                        lock: id,
                        depth: *body_depth,
                        temp: false,
                    });
                }
                None => live.push(LiveGuardSlot {
                    name: None,
                    lock: id,
                    depth,
                    temp: true,
                }),
            }
        }

        // Transient acquisitions inside callees (acquired + released there).
        if let Some(s) = self.callee_summary(ctx, ast, call) {
            for inner in &s.acquires {
                for g in live.iter() {
                    if g.lock == *inner {
                        continue; // re-entry is reported via direct walks
                    }
                    edges
                        .entry((g.lock.clone(), inner.clone()))
                        .or_insert(Edge {
                            file: ctx.file,
                            line,
                        });
                }
            }
        }
    }
}

/// What the next acquisition should bind to.
enum Pending {
    /// `let name = ...` — the guard is named and block-scoped.
    Let(String, usize),
    /// `if let`/`while let` scrutinee — the guard lives exactly as long
    /// as the body block (registered at the body's depth).
    Scrutinee(usize),
}

/// Live-guard slot (name is None for statement temporaries).
struct LiveGuardSlot {
    name: Option<String>,
    lock: String,
    depth: usize,
    temp: bool,
}

/// True when a type text names a `Mutex`/`RwLock` at a token boundary.
fn is_lock_type(ty: &str) -> bool {
    for needle in ["Mutex<", "RwLock<"] {
        let mut from = 0;
        while let Some(rel) = ty[from..].find(needle) {
            let pos = from + rel;
            let boundary = pos == 0 || {
                let b = ty.as_bytes()[pos - 1];
                !(b.is_ascii_alphanumeric() || b == b'_')
            };
            if boundary {
                return true;
            }
            from = pos + needle.len();
        }
    }
    false
}

/// All identifier-ish words of a text slice.
fn idents_of(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_alphabetic() || bytes[i] == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            out.push(&text[start..i]);
        } else {
            i += 1;
        }
    }
    out
}

/// The leading ident chain of the `k`-th argument of a call:
/// `&self.indexes` → `["self", "indexes"]`, `&slots[i]` → `["slots"]`.
fn arg_chain(ast: &Ast, call: &Call, k: usize) -> Option<Vec<String>> {
    let open = call.tok + 1;
    if ast.toks.get(open).map(|t| t.kind) != Some(TokKind::Open('(')) {
        return None;
    }
    let close = *ast.partner.get(open)?;
    if close == usize::MAX {
        return None;
    }
    // Split args at level-0 commas.
    let mut args: Vec<(usize, usize)> = Vec::new();
    let mut seg = open + 1;
    let mut m = open + 1;
    while m <= close {
        if m == close || ast.toks[m].kind == TokKind::Punct(',') {
            if seg < m {
                args.push((seg, m));
            }
            seg = m + 1;
            m += 1;
            continue;
        }
        if let TokKind::Open(_) = ast.toks[m].kind {
            let p = ast.partner[m];
            if p == usize::MAX || p > close {
                break;
            }
            m = p + 1;
            continue;
        }
        m += 1;
    }
    let (lo, hi) = *args.get(k)?;
    let mut chain = Vec::new();
    let mut j = lo;
    // Skip leading `&`, `mut`.
    while j < hi {
        match ast.toks[j].kind {
            TokKind::Punct('&') => j += 1,
            TokKind::Ident if ast.text(j) == "mut" => j += 1,
            _ => break,
        }
    }
    while j < hi {
        match ast.toks[j].kind {
            TokKind::Ident => {
                chain.push(ast.text(j).to_string());
                j += 1;
            }
            TokKind::Punct('.') => j += 1,
            TokKind::Punct(':') if ast.is_punct(j + 1, ':') => j += 2,
            TokKind::Open(_) => {
                let p = ast.partner[j];
                if p == usize::MAX || p >= hi {
                    break;
                }
                j = p + 1;
            }
            _ => break,
        }
    }
    if chain.is_empty() {
        None
    } else {
        Some(chain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::FileModel;
    use std::path::PathBuf;

    fn models(srcs: &[(&str, &str)]) -> Vec<FileModel> {
        srcs.iter()
            .map(|(p, s)| FileModel::parse(PathBuf::from(p), s.to_string()))
            .collect()
    }

    fn live_findings(srcs: &[(&str, &str)]) -> Vec<Finding> {
        let files = models(srcs);
        let mut out = Vec::new();
        check(&files, &mut out);
        out.into_iter().filter(|f| !f.waived).collect()
    }

    const CYCLE_SRC: &str = "\
struct A { m1: Mutex<u32> }
struct B { m2: Mutex<u32> }
impl A {
    fn ab(&self, b: &B) {
        let g = self.m1.lock();
        let h = b.m2.lock();
        use_both(g, h);
    }
}
impl B {
    fn ba(&self, a: &A) {
        let g = self.m2.lock();
        let h = a.m1.lock();
        use_both(g, h);
    }
}
";

    #[test]
    fn seeded_lock_order_cycle_detected() {
        let out = live_findings(&[("crates/x/src/lib.rs", CYCLE_SRC)]);
        assert!(
            out.iter()
                .any(|f| f.rule == LOCK_ORDER && f.message.contains("cycle")),
            "{out:?}"
        );
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = "\
struct A { m1: Mutex<u32> }
struct B { m2: Mutex<u32> }
impl A {
    fn ab(&self, b: &B) {
        let g = self.m1.lock();
        let h = b.m2.lock();
        use_both(g, h);
    }
    fn ab2(&self, b: &B) {
        let g = self.m1.lock();
        let h = b.m2.lock();
        use_both(g, h);
    }
}
";
        let out = live_findings(&[("crates/x/src/lib.rs", src)]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn sequential_statement_temporaries_do_not_nest() {
        let src = "\
struct A { m1: Mutex<u32>, m2: Mutex<u32> }
impl A {
    fn seq(&self) {
        let a = self.m1.lock().len();
        let b = self.m2.lock().len();
        use_both(a, b);
    }
}
";
        // Each guard is a temporary that dies at its own `;` — no edge,
        // except: the `let a = ...` binds the *result* (len), not the
        // guard. The analyzer binds the lock to the let conservatively,
        // but both statements still don't overlap.
        let out = live_findings(&[("crates/x/src/lib.rs", src)]);
        // m1's guard is considered bound to `a` (conservative), so an
        // m1 → m2 edge may exist, but no cycle and no canonical violation.
        assert!(out.iter().all(|f| !f.message.contains("cycle")), "{out:?}");
    }

    #[test]
    fn scoped_guard_dies_at_block_close() {
        let src = "\
struct A { m1: Mutex<u32>, m2: Mutex<u32> }
impl A {
    fn scoped(&self) {
        {
            let g = self.m1.lock();
            touch(g);
        }
        let h = self.m2.lock();
        touch(h);
    }
    fn scoped_rev(&self) {
        {
            let g = self.m2.lock();
            touch(g);
        }
        let h = self.m1.lock();
        touch(h);
    }
}
";
        let out = live_findings(&[("crates/x/src/lib.rs", src)]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn dropped_guard_is_released() {
        let src = "\
struct A { m1: Mutex<u32>, m2: Mutex<u32> }
impl A {
    fn fwd(&self) {
        let g = self.m1.lock();
        drop(g);
        let h = self.m2.lock();
        touch(h);
    }
    fn rev(&self) {
        let g = self.m2.lock();
        drop(g);
        let h = self.m1.lock();
        touch(h);
    }
}
";
        let out = live_findings(&[("crates/x/src/lib.rs", src)]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn guard_returning_helper_propagates() {
        let src = "\
struct Pool { classes: Mutex<u32> }
struct Cache { entries: Mutex<u32> }
impl Pool {
    fn lock_shard(&self) -> MutexGuard<'_, u32> {
        self.classes.lock()
    }
}
impl Cache {
    fn bad(&self, pool: &Pool) {
        let c = self.entries.lock();
        let s = pool.lock_shard();
        use_both(c, s);
    }
    fn also_bad(&self, pool: &Pool) {
        let s = pool.lock_shard();
        let c = self.entries.lock();
        use_both(c, s);
    }
}
";
        // Both orders exist → cycle through the helper-returned guard.
        let out = live_findings(&[("crates/x/src/lib.rs", src)]);
        assert!(
            out.iter()
                .any(|f| f.rule == LOCK_ORDER && f.message.contains("cycle")),
            "{out:?}"
        );
    }

    #[test]
    fn blocking_call_while_holding_guard_flagged() {
        let src = "\
struct S { state: Mutex<u32> }
impl S {
    fn bad(&self, stream: &mut TcpStream) {
        let g = self.state.lock();
        write_frame(stream, &payload(g));
    }
}
";
        let out = live_findings(&[("crates/x/src/lib.rs", src)]);
        assert!(out.iter().any(|f| f.rule == LOCK_BLOCKING), "{out:?}");
    }

    #[test]
    fn blocking_call_after_release_is_clean() {
        let src = "\
struct S { state: Mutex<u32> }
impl S {
    fn good(&self, stream: &mut TcpStream) {
        let bytes = { let g = self.state.lock(); encode(g) };
        write_frame(stream, &bytes);
    }
}
";
        let out = live_findings(&[("crates/x/src/lib.rs", src)]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn condvar_wait_on_held_guard_is_not_blocking() {
        let src = "\
struct Gate { state: Mutex<u32>, freed: Condvar }
impl Gate {
    fn wait_loop(&self) {
        let mut st = self.state.lock();
        loop {
            st = self.freed.wait_timeout(st, step);
        }
    }
}
";
        let out = live_findings(&[("crates/x/src/lib.rs", src)]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn if_let_scrutinee_guard_dies_with_body() {
        // The binding captures the cache-hit value, not the guard; after
        // the early-return body the lock is free again.
        let src = "\
struct S { state: Mutex<u32> }
impl S {
    fn cached(&self) -> u32 {
        if let Some(v) = self.state.lock().get() {
            return v;
        }
        let g = self.state.lock();
        compute(g)
    }
}
";
        let out = live_findings(&[("crates/x/src/lib.rs", src)]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn while_let_frame_pump_guard_scoped_to_body() {
        let src = "\
struct S { state: Mutex<Queue> }
impl S {
    fn drain(&self) {
        while let Some(job) = self.state.lock().pop() {
            run(job);
        }
        let g = self.state.lock();
        finish(g);
    }
}
";
        let out = live_findings(&[("crates/x/src/lib.rs", src)]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn canonical_order_violation_flagged() {
        let src = "\
struct DedupeMap { state: Mutex<u32> }
struct AdmissionGate { state: Mutex<u32> }
impl DedupeMap {
    fn backward(&self, gate: &AdmissionGate) {
        let d = self.state.lock();
        let g = gate.state.lock();
        use_both(d, g);
    }
}
";
        let out = live_findings(&[("crates/x/src/lib.rs", src)]);
        assert!(
            out.iter()
                .any(|f| f.rule == LOCK_ORDER && f.message.contains("canonical")),
            "{out:?}"
        );
    }

    #[test]
    fn run_cache_lock_ranks_between_the_index_and_answer_locks() {
        let engine = |first: &str, second: &str| {
            format!(
                "struct QueryEngine {{ indexes: Mutex<u32>, runs: Mutex<u32>, answers: Mutex<u32> }}
impl QueryEngine {{
    fn nested(&self) {{
        let a = self.{first}.lock();
        let b = self.{second}.lock();
        use_both(a, b);
    }}
}}
"
            )
        };
        let canonical = |first: &str, second: &str| {
            let out = live_findings(&[("crates/x/src/lib.rs", &engine(first, second))]);
            out.iter()
                .any(|f| f.rule == LOCK_ORDER && f.message.contains("canonical"))
        };
        assert!(canonical("runs", "indexes"));
        assert!(canonical("answers", "runs"));
        assert!(!canonical("indexes", "runs"));
        assert!(!canonical("runs", "answers"));
    }

    #[test]
    fn self_reacquire_flagged() {
        let src = "\
struct S { state: Mutex<u32> }
impl S {
    fn twice(&self) {
        let a = self.state.lock();
        let b = self.state.lock();
        use_both(a, b);
    }
}
";
        let out = live_findings(&[("crates/x/src/lib.rs", src)]);
        assert!(
            out.iter()
                .any(|f| f.rule == LOCK_ORDER && f.message.contains("already held")),
            "{out:?}"
        );
    }

    #[test]
    fn unrelated_read_write_calls_are_ignored() {
        let src = "\
struct S { state: Mutex<u32> }
impl S {
    fn io(&self, stream: &mut TcpStream, stdin: &Stdin) {
        let mut buf = [0u8; 4];
        stream.read(&mut buf);
        stdin.lock();
        stream.write(&buf);
    }
}
";
        let out = live_findings(&[("crates/x/src/lib.rs", src)]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn local_mutex_bindings_resolve() {
        let src = "\
fn run() {
    let latencies: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    let slots = Mutex::new(0u32);
    let a = latencies.lock();
    let b = slots.lock();
    use_both(a, b);
    let c = slots.lock();
    let d = latencies.lock();
    use_both(c, d);
}
";
        // Both orders on two locks — cycle between the two local locks.
        let out = live_findings(&[("crates/x/src/lib.rs", src)]);
        assert!(out.iter().any(|f| f.message.contains("cycle")), "{out:?}");
    }

    #[test]
    fn waived_finding_is_suppressed() {
        let src = CYCLE_SRC.replace(
            "        let h = b.m2.lock();\n        use_both(g, h);\n    }\n}\n",
            "        // xtask-allow: lock_order — intentional for the fixture\n        let h = b.m2.lock();\n        use_both(g, h);\n    }\n}\n",
        );
        // Only one edge carries provenance; whichever line reports, the
        // waiver on that acquisition suppresses the cycle finding when it
        // anchors there. This exercises waiver plumbing rather than
        // asserting zero findings (the anchor edge may be the other one).
        let files = models(&[("crates/x/src/lib.rs", &src)]);
        let mut out = Vec::new();
        check(&files, &mut out);
        assert!(!out.is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = format!("#[cfg(test)]\nmod tests {{\n{CYCLE_SRC}\n}}\n");
        let out = live_findings(&[("crates/x/src/lib.rs", &src)]);
        assert!(out.is_empty(), "{out:?}");
    }
}
