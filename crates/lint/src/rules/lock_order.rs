//! lock-order: builds the "acquired-while-holding" graph over the
//! Mutex/RwLock declarations in the concurrency crates (stream,
//! fleet, compat/rayon) and fails on cycles — the classic static
//! deadlock-potential check.
//!
//! The analysis is deliberately conservative and purely textual:
//!
//! * a lock is any `name: ...Mutex/RwLock...` field/static/param
//!   declaration or `let name = Mutex::new(...)` binding, qualified
//!   by crate so same-named locks in different crates stay distinct;
//! * an acquisition is `name.lock()` / `name.read()` / `name.write()`
//!   (empty argument list) where `name` is a declared lock — plain
//!   `io::Read::read(buf)` calls never match;
//! * a `let`-bound guard is considered held until `drop(binding)` or
//!   the end of the function (inner-scope ends are ignored: that can
//!   add edges, never remove them); an expression-statement guard is
//!   held to the end of its statement;
//! * closures are analysed inline as part of the enclosing function
//!   (again: may add edges, never drops one).
//!
//! Over-approximate edges are fine — only *cycles* fail the build.

use std::collections::HashMap;

use crate::config::Config;
use crate::findings::Finding;
use crate::lexer::Token;
use crate::source::{match_brace, SourceFile};

const RULE: &str = "lock-order";

/// One `B acquired while holding A` observation.
struct Edge {
    file: String,
    line: u32,
    func: String,
}

pub fn check(files: &[SourceFile], cfg: &Config, out: &mut Vec<Finding>) {
    let in_scope: Vec<&SourceFile> = files
        .iter()
        .filter(|f| cfg.lock_order_scope(&f.rel_path))
        .collect();
    if in_scope.is_empty() {
        return;
    }

    // Pass 1: declared locks, per crate.
    let mut locks_by_crate: HashMap<String, Vec<String>> = HashMap::new();
    for f in &in_scope {
        let key = lock_crate_key(&f.rel_path);
        let names = locks_by_crate.entry(key).or_default();
        collect_lock_decls(&f.tokens, names);
    }

    // Pass 2: acquisition edges.
    let mut edges: HashMap<(String, String), Edge> = HashMap::new();
    for f in &in_scope {
        let key = lock_crate_key(&f.rel_path);
        let Some(names) = locks_by_crate.get(&key) else {
            continue;
        };
        collect_edges(f, &key, names, &mut edges);
    }

    // Cycle detection over the lock graph.
    let mut nodes: Vec<&String> = edges.keys().flat_map(|(a, b)| [a, b]).collect();
    nodes.sort();
    nodes.dedup();
    let index: HashMap<&String, usize> = nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let mut adj = vec![Vec::new(); nodes.len()];
    for (a, b) in edges.keys() {
        adj[index[a]].push(index[b]);
    }
    let scc_of = tarjan_scc(&adj);
    let mut scc_size = HashMap::new();
    for &s in &scc_of {
        *scc_size.entry(s).or_insert(0usize) += 1;
    }

    for ((a, b), e) in &edges {
        let (ia, ib) = (index[a], index[b]);
        if scc_of[ia] != scc_of[ib] || scc_size[&scc_of[ia]] < 2 {
            continue;
        }
        let mut cycle: Vec<&str> = nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| scc_of[*i] == scc_of[ia])
            .map(|(_, n)| n.as_str())
            .collect();
        cycle.sort_unstable();
        out.push(Finding::new(
            &e.file,
            e.line,
            RULE,
            format!(
                "in `{}`: `{b}` acquired while holding `{a}` — lock-order cycle among {{{}}} (deadlock potential)",
                e.func,
                cycle.join(", ")
            ),
        ));
    }
}

/// Crate qualifier for lock names: path up to `/src/`, or the file
/// itself for loose fixture files.
fn lock_crate_key(rel: &str) -> String {
    match rel.find("/src/") {
        Some(i) => rel[..i].to_owned(),
        None => rel.to_owned(),
    }
}

fn ident(tokens: &[Token], i: usize) -> Option<&str> {
    match tokens.get(i).map(|t| &t.kind) {
        Some(crate::lexer::TokKind::Ident(s)) => Some(s),
        _ => None,
    }
}

fn punct(tokens: &[Token], i: usize, c: char) -> bool {
    matches!(tokens.get(i).map(|t| &t.kind), Some(crate::lexer::TokKind::Punct(p)) if *p == c)
}

/// Finds `name: ...Mutex/RwLock...` declarations and
/// `let name = ...Mutex::new...` bindings.
fn collect_lock_decls(tokens: &[Token], names: &mut Vec<String>) {
    const DECL_BUDGET: usize = 32;
    let mut i = 0;
    while i < tokens.len() {
        // `name : <type containing Mutex/RwLock>` — field, static or
        // parameter. A single `:` only (`::` is a path).
        if let Some(name) = ident(tokens, i) {
            let prev_colon = i > 0 && punct(tokens, i - 1, ':');
            if punct(tokens, i + 1, ':') && !punct(tokens, i + 2, ':') && !prev_colon {
                let mut j = i + 2;
                let end = (i + 2 + DECL_BUDGET).min(tokens.len());
                while j < end {
                    if punct(tokens, j, ',')
                        || punct(tokens, j, ';')
                        || punct(tokens, j, '=')
                        || punct(tokens, j, '{')
                        || punct(tokens, j, '}')
                    {
                        break;
                    }
                    if matches!(ident(tokens, j), Some("Mutex" | "RwLock")) {
                        push_unique(names, name);
                        break;
                    }
                    j += 1;
                }
            }
            // `let [mut] name = ... Mutex::new(...)`.
            if name == "let" {
                let mut b = i + 1;
                if ident(tokens, b) == Some("mut") {
                    b += 1;
                }
                if let Some(binding) = ident(tokens, b) {
                    let mut j = b + 1;
                    let end = (b + 1 + DECL_BUDGET).min(tokens.len());
                    while j < end && !punct(tokens, j, ';') {
                        if matches!(ident(tokens, j), Some("Mutex" | "RwLock"))
                            && punct(tokens, j + 1, ':')
                            && punct(tokens, j + 2, ':')
                            && ident(tokens, j + 3) == Some("new")
                        {
                            push_unique(names, binding);
                            break;
                        }
                        j += 1;
                    }
                }
            }
        }
        i += 1;
    }
}

fn push_unique(names: &mut Vec<String>, name: &str) {
    if !names.iter().any(|n| n == name) {
        names.push(name.to_owned());
    }
}

/// Function spans `(name, body_open, body_close)` in token indices.
fn fn_spans(tokens: &[Token]) -> Vec<(String, usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if ident(tokens, i) == Some("fn") {
            if let Some(name) = ident(tokens, i + 1) {
                // First `{` or `;` after the signature decides whether
                // there is a body (trait methods may have none).
                let mut j = i + 2;
                while j < tokens.len() && !punct(tokens, j, '{') && !punct(tokens, j, ';') {
                    j += 1;
                }
                if punct(tokens, j, '{') {
                    spans.push((name.to_owned(), j, match_brace(tokens, j)));
                }
            }
        }
        i += 1;
    }
    spans
}

/// Walks each function body tracking held guards and records
/// acquired-while-holding edges.
fn collect_edges(
    f: &SourceFile,
    crate_key: &str,
    lock_names: &[String],
    edges: &mut HashMap<(String, String), Edge>,
) {
    let tokens = &f.tokens;
    let spans = fn_spans(tokens);
    for (si, (func, open, close)) in spans.iter().enumerate() {
        // Token ranges of functions nested inside this one — analysed
        // on their own iteration, skipped here.
        let nested: Vec<(usize, usize)> = spans
            .iter()
            .enumerate()
            .filter(|(sj, (_, o, c))| *sj != si && *o > *open && *c < *close)
            .map(|(_, (_, o, c))| (*o, *c))
            .collect();

        // (lock, binding): binding is Some for `let`-bound guards.
        let mut held: Vec<(String, Option<String>)> = Vec::new();
        let mut stmt_temps: Vec<String> = Vec::new();
        let mut stmt_is_let = false;
        let mut stmt_binding: Option<String> = None;
        let mut at_stmt_start = true;

        let mut i = *open + 1;
        while i < *close {
            if let Some(&(_, nc)) = nested.iter().find(|(no, _)| *no == i) {
                i = nc + 1;
                continue;
            }
            if punct(tokens, i, ';') || punct(tokens, i, '{') || punct(tokens, i, '}') {
                stmt_temps.clear();
                stmt_is_let = false;
                stmt_binding = None;
                at_stmt_start = true;
                i += 1;
                continue;
            }
            if at_stmt_start {
                at_stmt_start = false;
                if ident(tokens, i) == Some("let") {
                    stmt_is_let = true;
                    let mut b = i + 1;
                    if ident(tokens, b) == Some("mut") {
                        b += 1;
                    }
                    stmt_binding = ident(tokens, b).map(str::to_owned);
                }
            }
            // `drop(binding)` releases that guard.
            if ident(tokens, i) == Some("drop") && punct(tokens, i + 1, '(') {
                if let Some(arg) = ident(tokens, i + 2) {
                    if punct(tokens, i + 3, ')') {
                        held.retain(|(_, b)| b.as_deref() != Some(arg));
                    }
                }
            }
            // `name.lock()` / `name.read()` / `name.write()`.
            if let Some(lock) = acquisition(tokens, i, lock_names) {
                let qualified = format!("{crate_key}::{lock}");
                let line = tokens[i].line;
                if !f.is_test_line(line) {
                    let holders = held
                        .iter()
                        .map(|(h, _)| h.as_str())
                        .chain(stmt_temps.iter().map(String::as_str));
                    for h in holders {
                        if h != qualified {
                            edges
                                .entry((h.to_owned(), qualified.clone()))
                                .or_insert_with(|| Edge {
                                    file: f.rel_path.clone(),
                                    line,
                                    func: func.clone(),
                                });
                        }
                    }
                    if stmt_is_let {
                        held.push((qualified, stmt_binding.clone()));
                    } else {
                        stmt_temps.push(qualified);
                    }
                }
            }
            i += 1;
        }
    }
}

/// Matches `recv . lock ( )` (or `read`/`write`) with the receiver
/// at token `i`, returning the receiver name when it is a declared
/// lock. The empty argument list plus the declared-name requirement
/// keep `io::Read::read(buf)`-style calls from matching.
fn acquisition<'t>(tokens: &'t [Token], i: usize, lock_names: &[String]) -> Option<&'t str> {
    let recv = ident(tokens, i)?;
    if !punct(tokens, i + 1, '.') {
        return None;
    }
    let method = ident(tokens, i + 2)?;
    if !matches!(method, "lock" | "read" | "write") {
        return None;
    }
    if !(punct(tokens, i + 3, '(') && punct(tokens, i + 4, ')')) {
        return None;
    }
    lock_names.iter().any(|n| n == recv).then_some(recv)
}

/// Iterative Tarjan strongly-connected components; returns the SCC
/// id of each node.
fn tarjan_scc(adj: &[Vec<usize>]) -> Vec<usize> {
    let n = adj.len();
    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut scc = vec![UNSET; n];
    let mut stack = Vec::new();
    let mut next_index = 0usize;
    let mut next_scc = 0usize;

    // Explicit call stack: (node, next child position).
    let mut call: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if index[start] != UNSET {
            continue;
        }
        call.push((start, 0));
        index[start] = next_index;
        lowlink[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;
        while let Some(&mut (v, ref mut child)) = call.last_mut() {
            if *child < adj[v].len() {
                let w = adj[v][*child];
                *child += 1;
                if index[w] == UNSET {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        scc[w] = next_scc;
                        if w == v {
                            break;
                        }
                    }
                    next_scc += 1;
                }
            }
        }
    }
    scc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let parsed: Vec<SourceFile> = files
            .iter()
            .map(|(rel, src)| SourceFile::parse(rel, src))
            .collect();
        let mut out = Vec::new();
        check(
            &parsed,
            &Config {
                fixtures_mode: true,
            },
            &mut out,
        );
        out
    }

    #[test]
    fn opposite_order_in_two_fns_is_a_cycle() {
        let src = "struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
                   fn one(s: &S) {\n    let ga = s.a.lock();\n    let gb = s.b.lock();\n}\n\
                   fn two(s: &S) {\n    let gb = s.b.lock();\n    let ga = s.a.lock();\n}\n";
        let out = run(&[("lock_cycle.rs", src)]);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|f| f.rule == "lock-order"));
        assert!(out[0].message.contains("deadlock potential"));
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = "struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
                   fn one(s: &S) {\n    let ga = s.a.lock();\n    let gb = s.b.lock();\n}\n\
                   fn two(s: &S) {\n    let ga = s.a.lock();\n    s.b.lock().unwrap();\n}\n";
        assert!(run(&[("lock_ok.rs", src)]).is_empty());
    }

    #[test]
    fn drop_releases_the_guard() {
        let src = "struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
                   fn one(s: &S) {\n    let ga = s.a.lock();\n    drop(ga);\n    let gb = s.b.lock();\n}\n\
                   fn two(s: &S) {\n    let gb = s.b.lock();\n    drop(gb);\n    let ga = s.a.lock();\n}\n";
        assert!(run(&[("lock_drop.rs", src)]).is_empty());
    }

    #[test]
    fn io_read_write_calls_do_not_match() {
        let src = "struct S { a: Mutex<u8> }\n\
                   fn one(s: &S, f: &mut File, buf: &mut [u8]) {\n    let ga = s.a.lock();\n    f.read(buf);\n    f.write(buf);\n}\n";
        assert!(run(&[("lock_io.rs", src)]).is_empty());
    }

    #[test]
    fn rwlock_read_write_count_as_acquisitions() {
        let src = "struct S { a: RwLock<u8>, b: Mutex<u8> }\n\
                   fn one(s: &S) {\n    let ga = s.a.read();\n    let gb = s.b.lock();\n}\n\
                   fn two(s: &S) {\n    let gb = s.b.lock();\n    let ga = s.a.write();\n}\n";
        let out = run(&[("lock_rw.rs", src)]);
        assert_eq!(out.len(), 2, "{out:?}");
    }

    #[test]
    fn same_names_in_different_crates_stay_distinct() {
        let a = "struct S { a: Mutex<u8>, b: Mutex<u8> }\nfn one(s: &S) {\n    let ga = s.a.lock();\n    let gb = s.b.lock();\n}\n";
        let b = "struct S { a: Mutex<u8>, b: Mutex<u8> }\nfn two(s: &S) {\n    let gb = s.b.lock();\n    let ga = s.a.lock();\n}\n";
        assert!(run(&[("lock_x.rs", a), ("lock_y.rs", b)]).is_empty());
    }
}
