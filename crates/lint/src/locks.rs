//! Guard-liveness and lock-order analysis (checks 1 and 2 share one
//! pass over every function body).
//!
//! The model is deliberately simple and matches how this repo actually
//! writes locking code:
//!
//! - a guard is born by a `let` whose initializer is an acquisition —
//!   `.lock()` / `.read()` / `.write()` (empty parens, which is what
//!   separates `RwLock` from `io::Read`/`Write`), the repo's
//!   `lock_unpoisoned(&…)` helper, or a `match x.lock() { … }`
//!   poison-recovery block — followed only by the usual adapters
//!   (`unwrap`, `expect`, `unwrap_or_else`, `?`);
//! - it dies at the closing brace of its block or at `drop(guard)`;
//! - condvar re-binding (`g = cv.wait(g).unwrap()`) keeps it alive,
//!   which is exactly right: the guard is re-acquired on wakeup.
//!
//! Statement-scope temporaries (`m.lock().unwrap().grant(n)`) are not
//! tracked as live guards — they die within the statement — but still
//! count as acquisition events for the lock-order graph.
//!
//! Blocking calls are found both directly (`sync_all`, `thread::sleep`,
//! `write_all`, `recv`, `join`, …) and transitively: a name-keyed call
//! graph over every workspace `fn` is saturated to a fixed point, so
//! `seal_run → rotate_wal_after_seal → rotate_to → write_all` is
//! reported at the outermost call site with the chain in the message.
//! The call graph is name-keyed (no type information), so propagation
//! is restricted to *uniquely named* workspace functions: a call to a
//! name with several definitions (`new`, `push`, `insert`, …) is a
//! barrier, not a merge — merging was tried first and drowned the
//! signal in `Vec::push`-reaches-`Drop`-impl chains. Distinctively
//! named helpers (`fsync_dir`, `rotate_wal_after_seal`,
//! `write_table_atomic`) are exactly the ones worth following.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Tok, Token};
use crate::source::{extract_fns, matching_brace, SourceFile, Workspace};
use crate::{CheckId, Diagnostic};

/// Blocking methods that must see empty parens (disambiguates
/// `thread::join()` from `Vec::join(sep)`, `mpsc::recv()` from nothing
/// in particular, `Write::flush()` from user methods with args).
const BLOCKING_EMPTY: &[&str] = &["sync_all", "sync_data", "flush", "join", "recv"];
/// Blocking calls matched regardless of arguments.
const BLOCKING_ANY: &[&str] = &["write_all", "write_fmt", "recv_timeout", "sleep"];
/// Adapters allowed between an acquisition and the end of a guard
/// binding's initializer.
const GUARD_ADAPTERS: &[&str] = &["unwrap", "expect", "unwrap_or_else"];
/// The repo's poison-stripping lock helper; its call sites are
/// acquisitions and its definition is excluded from the call graph.
const LOCK_HELPER: &str = "lock_unpoisoned";
/// Std container/sync method names that are propagation barriers even
/// when a workspace fn happens to share the name (the workspace has a
/// `push` of its own, but `.push(` almost always means `Vec::push` —
/// following it would hang that fn's lockset on every vector in the
/// tree).
const STD_METHODS: &[&str] = &[
    "push", "pop", "insert", "remove", "get", "get_mut", "set", "len", "clear", "extend", "take",
    "swap", "load", "store", "next", "clone", "entry", "last", "first", "contains", "send",
];

/// One directed lock-order edge: `from` was held while `to` was
/// acquired (possibly through a call chain described by `via`).
#[derive(Debug, Clone)]
pub struct Edge {
    pub from: String,
    pub to: String,
    pub file: String,
    pub line: u32,
    pub via: String,
}

/// An acquisition occurrence in a token stream.
struct Acq {
    /// Lock node label, `crate::module::field`.
    label: String,
    line: u32,
    /// Token index just past the acquisition's closing paren.
    end: usize,
}

/// Facts about one function, merged by name across the workspace.
#[derive(Default, Clone)]
struct FnFacts {
    /// `Some(chain)` if the function (transitively) blocks; the chain
    /// explains why, e.g. `"rotate_to → write_all"`.
    blocking: Option<String>,
    /// Locks (transitively) acquired by the function.
    locks: BTreeSet<String>,
    /// Names of functions it calls.
    calls: BTreeSet<String>,
}

/// Output of the shared pass: lock-scope diagnostics plus the
/// acquisition-order edge list for the cycle check and DOT artifact.
pub struct LockAnalysis {
    pub diags: Vec<Diagnostic>,
    pub edges: Vec<Edge>,
}

pub fn analyze(ws: &Workspace) -> LockAnalysis {
    // Pass 1: per-function facts. Test code is fully excluded — it
    // neither produces findings nor feeds propagation.
    let mut per_def: Vec<(String, FnFacts)> = Vec::new();
    let mut def_count: BTreeMap<String, u32> = BTreeMap::new();
    let mut bodies = Vec::new(); // (file idx, FnDef) for pass 2
    for (fi, f) in ws.src_files() {
        for def in extract_fns(&f.tokens) {
            if f.in_test(def.line) || def.name == LOCK_HELPER {
                continue;
            }
            let mut facts = FnFacts::default();
            collect_facts(f, &f.tokens[def.body.0..def.body.1], &mut facts);
            *def_count.entry(def.name.clone()).or_default() += 1;
            per_def.push((def.name.clone(), facts));
            bodies.push((fi, def));
        }
    }
    // Only uniquely named functions take part in propagation; a name
    // with several definitions is a barrier (see module docs).
    let mut facts: BTreeMap<String, FnFacts> = per_def
        .into_iter()
        .filter(|(name, _)| def_count[name] == 1)
        .collect();

    // Saturate blocking/lockset over the call graph.
    loop {
        let mut changed = false;
        let names: Vec<String> = facts.keys().cloned().collect();
        for name in &names {
            let calls = facts[name].calls.clone();
            for callee in calls {
                if let Some(cf) = facts.get(&callee).cloned() {
                    let me = facts.get_mut(name).unwrap();
                    if me.blocking.is_none() {
                        if let Some(chain) = &cf.blocking {
                            me.blocking = Some(format!("{callee} \u{2192} {chain}"));
                            changed = true;
                        }
                    }
                    for l in cf.locks {
                        changed |= me.locks.insert(l);
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Pass 2: guard machine over every production function.
    let mut diags = Vec::new();
    let mut edges = Vec::new();
    for (fi, def) in &bodies {
        let f = &ws.files[*fi];
        scan_body(f, def.body, &facts, &mut diags, &mut edges);
    }
    LockAnalysis { diags, edges }
}

/// Pass 1 fact collection for one function body.
fn collect_facts(f: &SourceFile, body: &[Token], out: &mut FnFacts) {
    let mut i = 0usize;
    while i < body.len() {
        if let Some(acq) = detect_acquisition(f, body, i) {
            out.locks.insert(acq.label);
            i = acq.end;
            continue;
        }
        if let Some((what, _)) = detect_blocking(body, i) {
            if out.blocking.is_none() {
                out.blocking = Some(what);
            }
        }
        if let Some(callee) = detect_call(body, i) {
            out.calls.insert(callee.to_string());
        }
        i += 1;
    }
}

struct Guard {
    name: String,
    label: String,
    depth: i32,
    line: u32,
}

/// Pass 2: walk one body tracking live guards; emit lock-scope
/// diagnostics and lock-order edges.
fn scan_body(
    f: &SourceFile,
    body: (usize, usize),
    facts: &BTreeMap<String, FnFacts>,
    diags: &mut Vec<Diagnostic>,
    edges: &mut Vec<Edge>,
) {
    let toks = &f.tokens;
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0i32;
    // A `let` binding resolved by lookahead: the guard goes live only
    // when the main scan reaches the terminating `;`, so acquisitions
    // inside the initializer order against the *previous* guard set.
    let mut pending: Option<(usize, Guard)> = None;

    let mut i = body.0;
    while i < body.1 {
        if let Some((at, _)) = &pending {
            if i > *at {
                let (_, g) = pending.take().unwrap();
                guards.push(g);
            }
        }
        let t = &toks[i];
        match &t.tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                guards.retain(|g| g.depth <= depth);
            }
            Tok::Ident(w) if w == "fn" && toks.get(i + 1).and_then(|t| t.ident()).is_some() => {
                // Nested fn: its body is scanned separately and cannot
                // capture our guards — skip past it.
                let mut j = i + 2;
                while j < body.1 && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                    j += 1;
                }
                if j < body.1 && toks[j].is_punct('{') {
                    i = matching_brace(toks, j) + 1;
                } else {
                    i = j + 1;
                }
                continue;
            }
            Tok::Ident(w)
                if w == "drop"
                    && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                    && toks.get(i + 3).is_some_and(|t| t.is_punct(')')) =>
            {
                if let Some(name) = toks.get(i + 2).and_then(|t| t.ident()) {
                    guards.retain(|g| g.name != name);
                }
            }
            Tok::Ident(w) if w == "let" => {
                if let Some((semi, guard)) = parse_guard_let(f, toks, i, body.1, depth) {
                    pending = Some((semi, guard));
                }
            }
            _ => {}
        }

        // Event checks (acquisitions / blocking) run on every token,
        // including inside `let` initializers.
        if let Some(acq) = detect_acquisition(f, &toks[body.0..body.1], i - body.0) {
            let line = acq.line;
            for g in &guards {
                push_edge(edges, g, &acq.label, f, line, "");
            }
            i = body.0 + acq.end;
            continue;
        }
        if !guards.is_empty() && !f.in_test(t.line) {
            if let Some((what, line)) = detect_blocking(&toks[body.0..body.1], i - body.0) {
                let g = guards.last().unwrap();
                diags.push(Diagnostic {
                    check: CheckId::LockScope,
                    file: f.rel.clone(),
                    line,
                    excerpt: f.excerpt(line).to_string(),
                    message: format!(
                        "blocking call `{what}` while guard `{}` holds `{}` (bound line {})",
                        g.name, g.label, g.line
                    ),
                });
                i += 1;
                continue;
            }
        }
        if let Some(callee) = detect_call(toks.get(body.0..body.1).unwrap_or(&[]), i - body.0) {
            if let Some(cf) = facts.get(callee) {
                if !guards.is_empty() {
                    if let Some(chain) = &cf.blocking {
                        if !f.in_test(t.line) {
                            let g = guards.last().unwrap();
                            diags.push(Diagnostic {
                                check: CheckId::LockScope,
                                file: f.rel.clone(),
                                line: t.line,
                                excerpt: f.excerpt(t.line).to_string(),
                                message: format!(
                                    "call blocks via `{callee} \u{2192} {chain}` while guard `{}` holds `{}` (bound line {})",
                                    g.name, g.label, g.line
                                ),
                            });
                        }
                    }
                    for lock in &cf.locks {
                        for g in &guards {
                            push_edge(edges, g, lock, f, t.line, callee);
                        }
                    }
                }
            }
        }
        i += 1;
    }
}

fn push_edge(edges: &mut Vec<Edge>, g: &Guard, to: &str, f: &SourceFile, line: u32, via: &str) {
    if g.label == to {
        // Re-acquisition of the same lock name (condvar loops, retry
        // paths) is not an ordering fact.
        return;
    }
    edges.push(Edge {
        from: g.label.clone(),
        to: to.to_string(),
        file: f.rel.clone(),
        line,
        via: via.to_string(),
    });
}

/// Lookahead from a `let` token: if the statement binds a guard,
/// returns (index of the terminating `;`, the guard). Never consumes —
/// the main scan still walks the initializer for events.
fn parse_guard_let(
    f: &SourceFile,
    toks: &[Token],
    let_idx: usize,
    end: usize,
    depth: i32,
) -> Option<(usize, Guard)> {
    let mut j = let_idx + 1;
    if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
        j += 1;
    }
    let name = toks.get(j).and_then(|t| t.ident())?.to_string();
    if name == "_" {
        // `let _guard = …` still binds for the scope; `let _ = …` drops
        // immediately, but `_` does not lex as an ident path here
        // anyway. Names are fine as-is.
    }
    j += 1;
    // Skip an optional `: Type` annotation up to the `=` at bracket
    // depth 0; bail on pattern bindings (`let (a, b) = …`).
    let mut bdepth = 0i32;
    loop {
        let t = toks.get(j)?;
        match t.tok {
            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('<') => bdepth += 1,
            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('>') => bdepth -= 1,
            Tok::Punct('=') if bdepth <= 0 => {
                // `==` cannot appear before the initializer's `=`.
                j += 1;
                break;
            }
            Tok::Punct(';') => return None,
            _ => {}
        }
        j += 1;
        if j >= end {
            return None;
        }
    }
    let init_start = j;
    // Find the terminating `;` at bracket depth 0.
    let mut d = 0i32;
    let mut semi = None;
    while j < end {
        match toks[j].tok {
            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => d += 1,
            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => d -= 1,
            Tok::Punct(';') if d == 0 => {
                semi = Some(j);
                break;
            }
            _ => {}
        }
        j += 1;
    }
    let semi = semi?;
    let init = &toks[init_start..semi];
    let is_match = init.first().is_some_and(|t| t.is_ident("match"));

    // Locate acquisitions within the initializer.
    let mut acqs = Vec::new();
    let mut k = 0usize;
    while k < init.len() {
        if let Some(a) = detect_acquisition(f, init, k) {
            k = a.end;
            acqs.push(a);
            continue;
        }
        k += 1;
    }
    let first = acqs.first()?;
    let guard = Guard {
        name,
        label: first.label.clone(),
        depth,
        line: toks[let_idx].line,
    };
    if is_match {
        // `let g = match x.lock() { Ok(g) => g, Err(p) => p.into_inner() };`
        if acqs.len() == 1 {
            return Some((semi, guard));
        }
        return None;
    }
    // Direct binding: everything after the acquisition must be a plain
    // adapter chain, otherwise the lock is a statement temporary
    // (`m.lock().unwrap().grant(n)` binds the *result*, not the guard).
    let mut k = first.end;
    while k < init.len() {
        let t = &init[k];
        if t.is_punct('?') {
            k += 1;
            continue;
        }
        if t.is_punct('.') {
            let id = init.get(k + 1).and_then(|t| t.ident())?;
            if !GUARD_ADAPTERS.contains(&id) {
                return None;
            }
            if !init.get(k + 2).is_some_and(|t| t.is_punct('(')) {
                return None;
            }
            // Skip the balanced argument list.
            let mut pd = 0i32;
            let mut m = k + 2;
            while m < init.len() {
                match init[m].tok {
                    Tok::Punct('(') => pd += 1,
                    Tok::Punct(')') => {
                        pd -= 1;
                        if pd == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                m += 1;
            }
            k = m + 1;
            continue;
        }
        return None;
    }
    Some((semi, guard))
}

/// Detects an acquisition starting at `i`: `.lock()`, `.read()`,
/// `.write()` (empty parens), or `lock_unpoisoned(&…)`.
fn detect_acquisition(f: &SourceFile, toks: &[Token], i: usize) -> Option<Acq> {
    let t = toks.get(i)?;
    if t.is_punct('.') {
        let id = toks.get(i + 1).and_then(|t| t.ident())?;
        let is_acq = matches!(id, "lock" | "read" | "write")
            && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 3).is_some_and(|t| t.is_punct(')'));
        if !is_acq {
            return None;
        }
        let field = receiver_field(toks, i);
        return Some(Acq {
            label: node_label(f, &field),
            line: toks[i + 1].line,
            end: i + 4,
        });
    }
    if t.is_ident(LOCK_HELPER) && toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
        // Skip definitions (`fn lock_unpoisoned…`).
        if i > 0 && toks[i - 1].is_ident("fn") {
            return None;
        }
        // Last identifier of the argument expression names the field.
        let mut pd = 0i32;
        let mut j = i + 1;
        let mut field = String::from("anon");
        while j < toks.len() {
            match &toks[j].tok {
                Tok::Punct('(') => pd += 1,
                Tok::Punct(')') => {
                    pd -= 1;
                    if pd == 0 {
                        break;
                    }
                }
                Tok::Ident(w) if w != "self" => field = w.clone(),
                _ => {}
            }
            j += 1;
        }
        return Some(Acq {
            label: node_label(f, &field),
            line: t.line,
            end: j + 1,
        });
    }
    None
}

/// Walks back over a `recv.field.field` chain from the `.` at `i` and
/// returns the last field name (`anon` for computed receivers).
fn receiver_field(toks: &[Token], dot: usize) -> String {
    let mut j = dot;
    let mut last = None;
    while j >= 1 {
        let id = match toks[j - 1].ident() {
            Some(s) => s,
            None => break,
        };
        if last.is_none() || id != "self" {
            last = Some(id.to_string());
        }
        if j >= 2 && toks[j - 2].is_punct('.') {
            j -= 2;
        } else {
            break;
        }
    }
    // Prefer the field nearest the `.lock()`; the loop above walked
    // leftwards, so recompute: the nearest ident is toks[dot-1].
    match toks.get(dot.wrapping_sub(1)).and_then(|t| t.ident()) {
        Some(s) if s != "self" => s.to_string(),
        _ => last.unwrap_or_else(|| "anon".to_string()),
    }
}

fn node_label(f: &SourceFile, field: &str) -> String {
    format!("{}::{}::{}", f.crate_name, f.module, field)
}

/// Detects a direct blocking call at `i`; returns (name, line).
fn detect_blocking(toks: &[Token], i: usize) -> Option<(String, u32)> {
    let t = toks.get(i)?;
    let id = t.ident()?;
    let called = toks.get(i + 1).is_some_and(|t| t.is_punct('('));
    if !called {
        return None;
    }
    let empty = toks.get(i + 2).is_some_and(|t| t.is_punct(')'));
    if BLOCKING_EMPTY.contains(&id) && empty {
        return Some((id.to_string(), t.line));
    }
    if BLOCKING_ANY.contains(&id) {
        return Some((id.to_string(), t.line));
    }
    None
}

/// Detects a plain call `name(` at `i` (methods included; macro
/// invocations `name!(…)` are excluded by the interposed `!`).
fn detect_call(toks: &[Token], i: usize) -> Option<&str> {
    let id = toks.get(i)?.ident()?;
    // `drop(x)` does run Drop impls, but treating it as a call to every
    // `fn drop` in the workspace is hopeless noise — guard drops are
    // handled explicitly by the scan instead.
    if matches!(
        id,
        "if" | "while" | "for" | "match" | "return" | "loop" | "fn" | "let" | "drop"
    ) || STD_METHODS.contains(&id)
    {
        return None;
    }
    if !toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    // Skip definitions: `fn name(`.
    if i > 0 && toks[i - 1].is_ident("fn") {
        return None;
    }
    Some(id)
}

/// Cycle detection over the edge list; returns one diagnostic per
/// distinct cycle (keyed by its sorted node set).
pub fn find_cycles(edges: &[Edge]) -> Vec<Diagnostic> {
    let mut adj: BTreeMap<&str, Vec<&Edge>> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.from).or_default().push(e);
    }
    let nodes: BTreeSet<&str> = edges
        .iter()
        .flat_map(|e| [e.from.as_str(), e.to.as_str()])
        .collect();
    let mut diags = Vec::new();
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    // DFS from every node; colour: 0 white, 1 grey, 2 black.
    let mut colour: BTreeMap<&str, u8> = nodes.iter().map(|n| (*n, 0u8)).collect();
    for &start in &nodes {
        if colour[start] != 0 {
            continue;
        }
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        let mut path: Vec<&Edge> = Vec::new();
        *colour.get_mut(start).unwrap() = 1;
        while let Some((node, next)) = stack.last().cloned() {
            let outs = adj.get(node).map(|v| v.as_slice()).unwrap_or(&[]);
            if next >= outs.len() {
                *colour.get_mut(node).unwrap() = 2;
                stack.pop();
                path.pop();
                continue;
            }
            stack.last_mut().unwrap().1 += 1;
            let e = outs[next];
            match colour.get(e.to.as_str()).copied().unwrap_or(0) {
                0 => {
                    *colour.get_mut(e.to.as_str()).unwrap() = 1;
                    stack.push((&e.to, 0));
                    path.push(e);
                }
                1 => {
                    // Found a cycle: slice of `path` from where `e.to`
                    // was entered, plus this closing edge.
                    let mut cyc: Vec<&Edge> = Vec::new();
                    let mut seen_entry = false;
                    for pe in path.iter().chain([&e]) {
                        if pe.from == e.to {
                            seen_entry = true;
                        }
                        if seen_entry {
                            cyc.push(pe);
                        }
                    }
                    if cyc.is_empty() {
                        cyc.push(e);
                    }
                    let mut key: Vec<String> = cyc.iter().map(|c| c.from.clone()).collect();
                    key.sort();
                    if reported.insert(key) {
                        let desc = cyc
                            .iter()
                            .map(|c| format!("{} \u{2192} {}", c.from, c.to))
                            .collect::<Vec<_>>()
                            .join(", ");
                        let site = cyc[0];
                        diags.push(Diagnostic {
                            check: CheckId::LockOrder,
                            file: site.file.clone(),
                            line: site.line,
                            excerpt: format!("cycle: {desc}"),
                            message: format!(
                                "lock-order cycle: {desc} \u{2014} acquisition order must form a DAG"
                            ),
                        });
                    }
                }
                _ => {}
            }
        }
    }
    diags
}

/// Renders the acquisition graph as deterministic DOT.
pub fn to_dot(edges: &[Edge]) -> String {
    let mut uniq: BTreeMap<(String, String), (String, u32, String)> = BTreeMap::new();
    for e in edges {
        uniq.entry((e.from.clone(), e.to.clone()))
            .or_insert_with(|| (e.file.clone(), e.line, e.via.clone()));
    }
    let mut out = String::from(
        "digraph lock_order {\n    rankdir=LR;\n    node [shape=box, fontname=\"monospace\"];\n",
    );
    for ((from, to), (file, line, via)) in &uniq {
        let label = if via.is_empty() {
            format!("{file}:{line}")
        } else {
            format!("{file}:{line} via {via}")
        };
        out.push_str(&format!(
            "    \"{from}\" -> \"{to}\" [label=\"{label}\", fontsize=9];\n"
        ));
    }
    out.push_str("}\n");
    out
}
