//! Item-level parser: function items with signatures and the call
//! expressions inside their bodies.
//!
//! This is deliberately **not** a Rust grammar. The interprocedural passes
//! ([`crate::callgraph`], [`crate::taint`]) need exactly three things from
//! each file — which functions exist (name, visibility, parameters,
//! `ct-fn` / `secret(..)` markers), where their bodies are, and which
//! calls each body makes with which argument spans — and a token-walking
//! extractor over [`SourceFile`] recovers all of that without `syn`.
//!
//! Known, documented approximations:
//!
//! - Turbofish calls (`collect::<Vec<_>>()`) are not recorded as calls.
//! - Closures are not items; their bodies (and calls) belong to the
//!   enclosing `fn`, and closure parameters may shadow outer names.
//! - Narrowing `as`-casts (`as u8/u16/u32/i8/i16/i32`) are recorded as
//!   [`CastSite`]s with the source-expression token range for the
//!   width pass ([`crate::width`]); widening casts are not recorded.
//! - Calls inside `debug_assert*!` are dropped: the macro is compiled out
//!   of release builds, so it can neither panic in production nor leak
//!   timing. Casts inside `debug_assert*!` are dropped for the same
//!   reason.

use crate::lexer::{TokKind, Token};
use crate::scan::{group_open, path_start};
use crate::source::{match_brace, Markers, SourceFile};

/// Rust keywords that can directly precede `(` without being a call.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "match", "for", "loop", "return", "break", "continue", "in", "as",
    "let", "mut", "ref", "move", "fn", "impl", "dyn", "where", "unsafe", "pub", "use", "mod",
    "struct", "enum", "trait", "const", "static", "type", "crate", "super", "self", "Self",
];

/// Integer types a cast *to* which is potentially lossy on the 64-bit
/// targets this workspace runs on. The width lattice is
/// `u8 < u16 < u32 < u64 ≈ usize < u128` (signed alike): casts to
/// `usize`/`u64`/`u128`/`i64`/`isize` and to floats are
/// widening-or-same and never recorded.
pub const NARROW_TARGETS: &[&str] = &["i16", "i32", "i8", "u16", "u32", "u8"];

/// One narrowing `as`-cast inside a function body.
#[derive(Debug, Clone)]
pub struct CastSite {
    /// 1-based line of the `as` keyword.
    pub line: u32,
    /// Token index of the `as` keyword.
    pub as_idx: usize,
    /// Target type, e.g. `u32`.
    pub target: String,
    /// Token index where the cast's source expression starts (the source
    /// range is `[src_start, as_idx)`).
    pub src_start: usize,
}

/// One call expression inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name: the identifier directly before the argument list
    /// (the last path segment for `a::b::f(..)`).
    pub callee: String,
    /// 1-based line of the callee identifier.
    pub line: u32,
    /// Token index of the callee identifier.
    pub name_idx: usize,
    /// `recv.callee(..)` (a method call) vs `callee(..)` / `path::callee(..)`.
    pub is_method: bool,
    /// A `std::..` / `core::..` / `alloc::..` path call: never first-party.
    pub in_std: bool,
    /// Token range `[start, end)` of the receiver chain, for method calls.
    pub recv: Option<(usize, usize)>,
    /// Token ranges `[start, end)` of each argument (top-level commas).
    pub args: Vec<(usize, usize)>,
}

/// A function item with everything the graph passes need.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Unrestricted `pub` (`pub(crate)` and friends do not count).
    pub is_pub: bool,
    /// First parameter is `self` (an inherent/trait method).
    pub is_method: bool,
    /// Lives inside a `#[cfg(test)]` / `#[test]` region.
    pub in_test: bool,
    /// Parameter names in order (`self` included when present).
    pub params: Vec<String>,
    /// What the `flcheck:` directives above the fn declare about it.
    pub marks: Markers,
    /// Token index range `[body_start, body_end)` of the body (inside the
    /// braces).
    pub body_start: usize,
    /// End of the body range (one past the closing brace).
    pub body_end: usize,
    /// Body sub-ranges that belong to *nested* `fn` items (skipped when
    /// scanning this fn's own statements).
    pub nested: Vec<(usize, usize)>,
    /// Calls made by this fn's own statements (nested fns excluded,
    /// `debug_assert*!` spans excluded).
    pub calls: Vec<CallSite>,
    /// Narrowing `as`-casts in this fn's own statements
    /// (`debug_assert*!` spans excluded).
    pub casts: Vec<CastSite>,
}

/// A file after item-level parsing.
#[derive(Debug)]
pub struct ParsedFile {
    /// The underlying lexed/analyzed source.
    pub src: SourceFile,
    /// Every `fn` item, in source order.
    pub fns: Vec<FnItem>,
}

impl ParsedFile {
    /// Parses one file (lex + directives + item extraction).
    pub fn parse(rel_path: &str, text: &str) -> ParsedFile {
        let src = SourceFile::parse(rel_path, text);
        let mut fns = Vec::new();
        for (idx, span) in src.fns.iter().enumerate() {
            let nested: Vec<(usize, usize)> = src
                .fns
                .iter()
                .enumerate()
                .filter(|(j, g)| {
                    *j != idx && g.body_start >= span.body_start && g.body_end <= span.body_end
                })
                .map(|(_, g)| (g.body_start, g.body_end))
                .collect();
            let (params, is_method) = parse_params(&src.tokens, span.line, span.body_start);
            fns.push(FnItem {
                name: span.name.clone(),
                line: span.line,
                is_pub: is_public(&src.tokens, span.line, span.body_start),
                is_method,
                in_test: src.in_test_region(span.body_start),
                params,
                marks: span.marks.clone(),
                body_start: span.body_start,
                body_end: span.body_end,
                nested,
                calls: Vec::new(),
                casts: Vec::new(),
            });
        }
        for f in &mut fns {
            f.calls = collect_calls(&src.tokens, f.body_start, f.body_end, &f.nested);
            f.casts = collect_casts(&src.tokens, f.body_start, f.body_end, &f.nested);
        }
        ParsedFile { src, fns }
    }
}

/// Locates the `fn` keyword token for the fn whose body starts at
/// `body_start`, then decides visibility: a bare `pub` immediately before
/// it (skipping `const` / `unsafe` / `async` / `extern "..."`).
fn is_public(toks: &[Token], fn_line: u32, body_start: usize) -> bool {
    // Find the `fn` keyword: last `fn` ident before the body on the fn line.
    let mut fn_idx = None;
    for (i, t) in toks[..body_start].iter().enumerate().rev() {
        if t.is_ident("fn") && t.line == fn_line {
            fn_idx = Some(i);
            break;
        }
    }
    let Some(mut k) = fn_idx else { return false };
    while k > 0 {
        let prev = &toks[k - 1];
        match prev.kind {
            TokKind::Ident if matches!(prev.text.as_str(), "const" | "unsafe" | "async") => k -= 1,
            TokKind::Lit => k -= 1, // the ABI string of `extern "C"`
            TokKind::Ident if prev.text == "extern" => k -= 1,
            TokKind::Close if prev.text == ")" => {
                // `pub(crate)` / `pub(super)`: restricted, not public.
                return false;
            }
            TokKind::Ident if prev.text == "pub" => return true,
            _ => return false,
        }
    }
    false
}

/// Parses the parameter list of the fn whose body starts at `body_start`:
/// finds the signature's `(` by scanning forward from the `fn` keyword
/// over the generic list, then takes the first binding-position identifier
/// of each top-level comma group.
fn parse_params(toks: &[Token], fn_line: u32, body_start: usize) -> (Vec<String>, bool) {
    // Locate the `fn` keyword (same back-scan as `is_public`), then walk
    // forward: the parameter list is the first `(` outside the generic
    // angle brackets — a back-scan from the body brace would stop at a
    // parenthesized return type like `-> (u64, u64)` instead.
    let mut fn_idx = None;
    for (i, t) in toks[..body_start.min(toks.len())].iter().enumerate().rev() {
        if t.is_ident("fn") && t.line == fn_line {
            fn_idx = Some(i);
            break;
        }
    }
    let Some(fi) = fn_idx else {
        return (Vec::new(), false);
    };
    let mut angle = 0i32;
    let mut open = None;
    for (i, t) in toks.iter().enumerate().take(body_start).skip(fi + 1) {
        match t.kind {
            TokKind::Op if t.text == "<" || t.text == "<=" => angle += 1,
            TokKind::Op if t.text == "<<" => angle += 2,
            TokKind::Op if t.text == ">" || t.text == ">=" => angle -= 1,
            TokKind::Op if t.text == ">>" => angle -= 2,
            TokKind::Open if t.text == "(" && angle <= 0 => {
                open = Some(i);
                break;
            }
            _ => {}
        }
    }
    let Some(open) = open else {
        return (Vec::new(), false);
    };
    let end = match_brace(toks, open); // one past `)`
    let inner = &toks[open + 1..end.saturating_sub(1)];
    let mut params = Vec::new();
    let mut depth = 0i32;
    let mut group_start = 0usize;
    let flush = |range: &[Token], params: &mut Vec<String>| {
        for t in range {
            if t.kind == TokKind::Ident {
                if matches!(t.text.as_str(), "mut" | "ref") {
                    continue;
                }
                // Uppercase identifiers are enum/struct patterns, not names.
                if t.text.chars().next().is_some_and(|c| c.is_uppercase()) {
                    continue;
                }
                params.push(t.text.clone());
                return;
            }
        }
    };
    for (i, t) in inner.iter().enumerate() {
        match t.kind {
            TokKind::Open => depth += 1,
            TokKind::Close => depth -= 1,
            TokKind::Op if t.text == "," && depth == 0 => {
                flush(&inner[group_start..i], &mut params);
                group_start = i + 1;
            }
            _ => {}
        }
    }
    if group_start < inner.len() {
        flush(&inner[group_start..], &mut params);
    }
    let is_method = params.first().is_some_and(|p| p == "self");
    (params, is_method)
}

/// Collects call sites in `[start, end)`, skipping nested-fn ranges and
/// `debug_assert*!` spans.
fn collect_calls(
    toks: &[Token],
    start: usize,
    end: usize,
    nested: &[(usize, usize)],
) -> Vec<CallSite> {
    let mut calls = Vec::new();
    let mut i = start;
    while i < end.min(toks.len()) {
        if let Some(&(_, nend)) = nested.iter().find(|&&(ns, ne)| i >= ns && i < ne) {
            i = nend;
            continue;
        }
        if let Some(skip) = crate::rules::debug_assert_span(toks, i) {
            i = skip;
            continue;
        }
        let t = &toks[i];
        let is_call = t.kind == TokKind::Ident
            && !KEYWORDS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
            && !(i > 0 && toks[i - 1].is_ident("fn"));
        if !is_call {
            i += 1;
            continue;
        }
        // `name!(..)` is a macro, not a call — but its arguments are still
        // scanned (the walk continues into the group).
        let close = match_brace(toks, i + 1);
        let is_method = i > 0 && toks[i - 1].is_op(".");
        let recv = if is_method {
            receiver_range(toks, i).map(|s| (s, i - 1))
        } else {
            None
        };
        calls.push(CallSite {
            callee: t.text.clone(),
            line: t.line,
            name_idx: i,
            is_method,
            in_std: !is_method && is_std_path(toks, i),
            recv,
            args: split_args(toks, i + 2, close.saturating_sub(1)),
        });
        i += 1; // keep scanning inside the argument list for nested calls
    }
    calls
}

/// True when the path ending at `name_idx` (`a::b::name`) is rooted at
/// `std`, `core` or `alloc`.
fn is_std_path(toks: &[Token], name_idx: usize) -> bool {
    let k = path_start(toks, name_idx);
    k < name_idx && matches!(toks[k].text.as_str(), "std" | "core" | "alloc")
}

/// Splits `[start, end)` (the inside of an argument list) on top-level
/// commas, returning non-empty ranges.
fn split_args(toks: &[Token], start: usize, end: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut arg_start = start;
    for i in start..end.min(toks.len()) {
        match toks[i].kind {
            TokKind::Open => depth += 1,
            TokKind::Close => depth -= 1,
            TokKind::Op if toks[i].text == "," && depth == 0 => {
                if i > arg_start {
                    out.push((arg_start, i));
                }
                arg_start = i + 1;
            }
            _ => {}
        }
    }
    if end > arg_start {
        out.push((arg_start, end));
    }
    out
}

/// Walks back from the `.` before a method name over the receiver chain
/// (`a.b(x).c[i].norm()` → index of `a`), returning the chain's start
/// index.
fn receiver_range(toks: &[Token], method_idx: usize) -> Option<usize> {
    let mut k = method_idx.checked_sub(2)?; // token before the `.`
    let mut start;
    loop {
        match toks[k].kind {
            TokKind::Close => {
                // Jump back over the balanced group (`(..)` / `[..]`).
                k = group_open(toks, k)?;
                start = k;
            }
            TokKind::Ident | TokKind::Num | TokKind::Lit => start = k,
            TokKind::Op if toks[k].text == "?" => {
                // `foo()?.bar()`: the `?` is postfix, keep walking left.
                k = k.checked_sub(1)?;
                continue;
            }
            _ => return None,
        }
        let Some(p) = k.checked_sub(1) else {
            return Some(start);
        };
        let prev = &toks[p];
        if prev.is_op(".") || prev.is_op("::") {
            // `recv.field` / `Path::item`: skip the separator and the
            // segment to its left is part of the chain.
            match p.checked_sub(1) {
                Some(pp) => k = pp,
                None => return Some(start),
            }
        } else if toks[k].kind == TokKind::Open
            && matches!(prev.kind, TokKind::Ident | TokKind::Close)
            && !KEYWORDS.contains(&prev.text.as_str())
        {
            // `name(..)` call or `base[..]` index: the base continues the
            // chain directly, no separator.
            k = p;
        } else {
            return Some(start);
        }
    }
}

/// Collects narrowing `as`-casts in `[start, end)` (nested-fn ranges and
/// `debug_assert*!` spans excluded), with the source-expression range.
fn collect_casts(
    toks: &[Token],
    start: usize,
    end: usize,
    nested: &[(usize, usize)],
) -> Vec<CastSite> {
    let mut out = Vec::new();
    let mut i = start;
    while i < end.min(toks.len()) {
        if let Some(&(_, nend)) = nested.iter().find(|&&(ns, ne)| i >= ns && i < ne) {
            i = nend;
            continue;
        }
        if let Some(skip) = crate::rules::debug_assert_span(toks, i) {
            i = skip;
            continue;
        }
        let t = &toks[i];
        let is_narrow_cast = t.is_ident("as")
            && toks.get(i + 1).is_some_and(|n| {
                n.kind == TokKind::Ident && NARROW_TARGETS.contains(&n.text.as_str())
            })
            && i > start; // `as` first in a body is `use .. as ..` debris
        if is_narrow_cast {
            out.push(CastSite {
                line: t.line,
                as_idx: i,
                target: toks[i + 1].text.clone(),
                src_start: cast_source_start(toks, i, start),
            });
            i += 2;
            continue;
        }
        i += 1;
    }
    out
}

/// Walks back from an `as` keyword over the cast's source expression
/// (identifiers, numbers, literals, `.`/`::`/`?` chains, balanced
/// groups, and chained `as` casts), returning its start index.
fn cast_source_start(toks: &[Token], as_idx: usize, lo: usize) -> usize {
    let mut start = as_idx;
    let mut j = as_idx;
    while j > lo {
        let t = &toks[j - 1];
        match t.kind {
            TokKind::Close => {
                // Jump back over the balanced group.
                match group_open(toks, j - 1) {
                    Some(k) if k >= lo => {
                        start = k;
                        j = k;
                    }
                    _ => return start,
                }
            }
            TokKind::Num | TokKind::Lit => {
                start = j - 1;
                j -= 1;
            }
            TokKind::Ident
                if !KEYWORDS.contains(&t.text.as_str()) || t.text == "as" || t.text == "self" =>
            {
                start = j - 1;
                j -= 1;
            }
            TokKind::Op if t.text == "." || t.text == "::" || t.text == "?" => {
                j -= 1;
            }
            _ => return start,
        }
    }
    start
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(src: &str) -> ParsedFile {
        ParsedFile::parse("crates/core/src/x.rs", src)
    }

    #[test]
    fn signatures_params_and_visibility() {
        let src = "\
pub fn free(a: u64, mut b: &[u8]) -> u64 { a }
pub(crate) fn scoped(x: u8) {}
impl T {
    pub fn method(&self, count: usize) -> u8 { 0 }
    fn helper<R: Rng + ?Sized>(rng: &mut R, bits: u32) {}
}
";
        let p = parsed(src);
        let names: Vec<(&str, bool, bool, Vec<&str>)> = p
            .fns
            .iter()
            .map(|f| {
                (
                    f.name.as_str(),
                    f.is_pub,
                    f.is_method,
                    f.params.iter().map(|s| s.as_str()).collect(),
                )
            })
            .collect();
        assert_eq!(
            names,
            vec![
                ("free", true, false, vec!["a", "b"]),
                ("scoped", false, false, vec!["x"]),
                ("method", true, true, vec!["self", "count"]),
                ("helper", false, false, vec!["rng", "bits"]),
            ]
        );
    }

    #[test]
    fn tuple_return_type_does_not_confuse_params() {
        let p = parsed("fn pair(lo: u64, hi: u64) -> (u64, u64) { (lo, hi) }");
        assert_eq!(p.fns[0].params, vec!["lo", "hi"]);
    }

    #[test]
    fn calls_free_path_method_and_macro() {
        let src = "\
fn f(v: &[u8]) {
    helper(v);
    crate::util::norm(v, 2);
    v.first();
    vec![1, 2];
    g(h(v));
}
";
        let p = parsed(src);
        let calls: Vec<(&str, bool)> = p.fns[0]
            .calls
            .iter()
            .map(|c| (c.callee.as_str(), c.is_method))
            .collect();
        // `vec!` is a macro (no `(`-follow on the bang pattern — `vec![`),
        // nested `h(v)` is its own call.
        assert_eq!(
            calls,
            vec![
                ("helper", false),
                ("norm", false),
                ("first", true),
                ("g", false),
                ("h", false),
            ]
        );
    }

    #[test]
    fn call_args_split_on_top_level_commas() {
        let p = parsed("fn f() { g(a, h(b, c), d + e); }");
        let g = &p.fns[0].calls[0];
        assert_eq!(g.callee, "g");
        assert_eq!(g.args.len(), 3);
        let arg_texts: Vec<String> = g
            .args
            .iter()
            .map(|&(s, e)| {
                p.src.tokens[s..e]
                    .iter()
                    .map(|t| t.text.clone())
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect();
        assert_eq!(arg_texts, vec!["a", "h ( b , c )", "d + e"]);
    }

    #[test]
    fn method_receiver_chain_is_recovered() {
        let p = parsed("fn f(x: &T) { x.inner().data[0].norm(); }");
        let norm = p.fns[0]
            .calls
            .iter()
            .find(|c| c.callee == "norm")
            .expect("norm");
        let (s, e) = norm.recv.expect("receiver");
        let text: Vec<&str> = p.src.tokens[s..e].iter().map(|t| t.text.as_str()).collect();
        assert_eq!(
            text,
            vec!["x", ".", "inner", "(", ")", ".", "data", "[", "0", "]"]
        );
    }

    #[test]
    fn nested_fn_calls_belong_to_the_nested_fn() {
        let src = "fn outer() { fn inner() { deep(); } inner(); }";
        let p = parsed(src);
        let outer = p.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = p.fns.iter().find(|f| f.name == "inner").unwrap();
        let outer_calls: Vec<&str> = outer.calls.iter().map(|c| c.callee.as_str()).collect();
        let inner_calls: Vec<&str> = inner.calls.iter().map(|c| c.callee.as_str()).collect();
        assert_eq!(outer_calls, vec!["inner"]);
        assert_eq!(inner_calls, vec!["deep"]);
    }

    #[test]
    fn debug_assert_calls_are_dropped() {
        let p = parsed("fn f(x: u64) { debug_assert!(x.leaky() == probe(x)); real(x); }");
        let calls: Vec<&str> = p.fns[0].calls.iter().map(|c| c.callee.as_str()).collect();
        assert_eq!(calls, vec!["real"]);
    }

    #[test]
    fn test_region_fns_are_flagged() {
        let src = "\
fn lib() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { lib(); }
}
";
        let p = parsed(src);
        assert!(!p.fns.iter().find(|f| f.name == "lib").unwrap().in_test);
        assert!(p.fns.iter().find(|f| f.name == "t").unwrap().in_test);
    }

    #[test]
    fn narrowing_casts_record_target_and_source_span() {
        let src = "\
fn f(n: usize, w: u64) -> u32 {
    let a = n as u32;
    let b = w as u64;
    helper(n) as u16;
    a
}
";
        let p = parsed(src);
        let casts = &p.fns[0].casts;
        assert_eq!(casts.len(), 2, "the widening `as u64` is not recorded");
        assert_eq!(casts[0].target, "u32");
        assert_eq!(casts[0].line, 2);
        assert_eq!(casts[1].target, "u16");
        assert_eq!(casts[1].line, 4);
        // The second cast's source spans the whole `helper(n)` call.
        let texts: Vec<&str> = p.src.tokens[casts[1].src_start..casts[1].as_idx]
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(texts, vec!["helper", "(", "n", ")"]);
    }

    #[test]
    fn debug_assert_and_nested_fn_casts_are_dropped() {
        let src = "\
fn outer(n: usize) -> u32 {
    debug_assert!(n as u32 > 0);
    fn inner(m: usize) -> u8 { m as u8 }
    n as u32
}
";
        let p = parsed(src);
        let outer = p.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = p.fns.iter().find(|f| f.name == "inner").unwrap();
        assert_eq!(
            outer.casts.len(),
            1,
            "debug_assert + nested-fn casts excluded"
        );
        assert_eq!(outer.casts[0].line, 4);
        assert_eq!(inner.casts.len(), 1);
        assert_eq!(inner.casts[0].target, "u8");
    }
}
