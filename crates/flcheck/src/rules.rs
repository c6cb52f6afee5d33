//! The three token-level rule families.
//!
//! - **ct-discipline** (`ct-branch`, `ct-return`, `ct-compare`,
//!   `ct-shortcircuit`): inside a function marked `// flcheck: ct-fn`,
//!   control flow and variable-time comparisons are forbidden — secrets
//!   may only flow into *data* (masks), never into branch predicates.
//!   `for` loops are permitted (iteration bounds are public lengths by the
//!   crate's convention), and anything inside `debug_assert*!` is ignored
//!   because it is compiled out of release builds. Bare `<` / `>` are not
//!   flagged (indistinguishable from generics without full parsing); the
//!   branch rule catches their only dangerous use.
//! - **panic-freedom** (`pf-assert`): forbids a release `assert!` in
//!   non-test code of the library crates. `debug_assert*!` is exempt for
//!   the same reason as above. The other panicking constructs (`unwrap`,
//!   `expect`, the `panic!` family, indexing) are clippy's: the root
//!   manifest's `[workspace.lints.clippy]` table denies them.
//! - **lock-discipline** (`lock-leaf`): every lock is a leaf. An
//!   acquisition is `.lock()`, a zero-argument `.read()` / `.write()`, or
//!   a call to a fn named `lock`. Its guard must be a temporary — never
//!   `let`-bound, stored, passed by value or returned (a fn named `lock`
//!   may return it: calls to it are acquisitions) — and its held region,
//!   the rest of the statement plus the body of an `if let` / `match` /
//!   `for` it scrutinizes, must contain no second acquisition, no blocking
//!   call (`park`, `sleep`, `recv*`, `wait*`, `join`, `yield_now`) and no
//!   call whose chain reaches either or a hot-path kernel (`mont_mul`,
//!   `mont_sqr`, `mod_pow*`, `encrypt*`). A thread then never holds two
//!   locks, never holds one across a wait, a steal or a kernel, and never
//!   lets a guard escape — no lock identity, held-set fixpoint, cycle
//!   search or declared order needed. Only the reach needs the call graph.

use crate::callgraph::{hop, CallGraph, NodeId};
use crate::lexer::{TokKind, Token};
use crate::parse::{CallSite, FnItem, ParsedFile};
use crate::report::Finding;
use crate::scan::{group_open, header_end, path_start, stmt_start};
use crate::source::{match_brace, SourceFile};
use std::collections::BTreeSet;

/// Runs the ct-discipline family over every `ct-fn` in the file.
pub fn check_ct(file: &SourceFile, out: &mut Vec<Finding>) {
    for f in file.fns.iter().filter(|f| f.marks.is_ct) {
        let toks = &file.tokens;
        let mut i = f.body_start;
        while i < f.body_end {
            if let Some(skip) = debug_assert_span(toks, i) {
                i = skip;
                continue;
            }
            let t = &toks[i];
            let mut emit = |rule: &str, msg: String| {
                if !file.is_allowed(rule, t.line) {
                    out.push(Finding::new(rule, &file.rel_path, t.line, msg));
                }
            };
            match t.kind {
                TokKind::Ident => match t.text.as_str() {
                    "if" | "while" | "match" => emit(
                        "ct-branch",
                        format!(
                            "`{}` in constant-time fn `{}`: control flow must not \
                             depend on secret data",
                            t.text, f.name
                        ),
                    ),
                    "return" => emit(
                        "ct-return",
                        format!(
                            "early `return` in constant-time fn `{}`: exit points \
                             must not depend on secret data",
                            f.name
                        ),
                    ),
                    "cmp" | "partial_cmp" | "eq" | "ne" | "min" | "max"
                        if is_method_call(toks, i) =>
                    {
                        emit(
                            "ct-compare",
                            format!(
                                "variable-time `.{}()` in constant-time fn `{}`: use \
                                 the masked helpers from mpint::ct",
                                t.text, f.name
                            ),
                        )
                    }
                    _ => {}
                },
                TokKind::Op => match t.text.as_str() {
                    "&&" | "||" => emit(
                        "ct-shortcircuit",
                        format!(
                            "short-circuit `{}` in constant-time fn `{}`: evaluates \
                             its right side conditionally; use `&`/`|` on masks",
                            t.text, f.name
                        ),
                    ),
                    "==" | "!=" | "<=" | ">=" => emit(
                        "ct-compare",
                        format!(
                            "variable-time comparison `{}` in constant-time fn `{}`: \
                             comparisons on secret limbs must go through mpint::ct",
                            t.text, f.name
                        ),
                    ),
                    _ => {}
                },
                _ => {}
            }
            i += 1;
        }
    }
}

/// Release-mode assertion macros (debug_assert* is exempt).
const ASSERT_MACROS: &[&str] = &["assert", "assert_eq", "assert_ne"];

/// Runs the panic-freedom family (`pf-assert`) over the non-test code of
/// a file.
pub fn check_panics(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &file.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        if file.in_test_region(i) {
            i += 1;
            continue;
        }
        if let Some(skip) = debug_assert_span(toks, i) {
            i = skip;
            continue;
        }
        let t = &toks[i];
        if t.kind == TokKind::Ident
            && ASSERT_MACROS.contains(&t.text.as_str())
            && is_macro_bang(toks, i)
            && !file.is_allowed("pf-assert", t.line)
        {
            out.push(Finding::new(
                "pf-assert",
                &file.rel_path,
                t.line,
                format!(
                    "`{}!` in library code: use debug_assert or a typed error \
                     (allow with a justification for documented preconditions)",
                    t.text
                ),
            ));
        }
        i += 1;
    }
}

/// Calls that block the current thread, matched by name whether or not
/// the callee resolves into first-party code (`std::thread::park` does
/// not).
fn is_blocking(name: &str) -> bool {
    matches!(name, "park" | "sleep" | "join" | "yield_now")
        || name.starts_with("recv")
        || name.starts_with("wait")
}

/// Hot-path kernel names. Estimate and counter fns share the kernels'
/// prefixes but only do arithmetic on counts, so the `_estimate` /
/// `_mac_count` / `_ops` suffixes are excluded.
fn is_hot(name: &str) -> bool {
    if name.ends_with("_estimate") || name.ends_with("_mac_count") || name.ends_with("_ops") {
        return false;
    }
    name == "mont_mul"
        || name == "mont_sqr"
        || name.starts_with("mont_mul_")
        || name.starts_with("mont_sqr_")
        || name.starts_with("mod_pow")
        || name.starts_with("encrypt")
}

/// Methods that hand a guard on unchanged: a std mutex's `lock()` wraps
/// it in a `LockResult`.
const PASS_THROUGH: &[&str] = &["unwrap", "expect", "unwrap_or_else"];

/// True when a call site takes a lock: `.lock()`, a zero-argument
/// `.read()` / `.write()`, or a call to a fn named `lock`.
fn is_acquisition(c: &CallSite) -> bool {
    if c.is_method {
        matches!(c.callee.as_str(), "lock" | "read" | "write") && c.args.is_empty()
    } else {
        c.callee == "lock"
    }
}

/// One lock acquisition inside a function body.
struct Acquisition {
    /// The lock, for messages: the receiver field (`stats` in
    /// `self.stats.lock()`) or the last identifier of `lock(&self.stats)`'s
    /// argument.
    name: String,
    line: u32,
    /// Token index of the `lock` / `read` / `write` identifier.
    idx: usize,
    /// Token index where the acquiring expression starts: its receiver
    /// chain or path.
    start: usize,
    /// Token index one past the guard-valued expression: the call's `)`
    /// plus any `?` or pass-through method.
    end: usize,
}

/// The acquisitions among a fn's call sites, in source order.
fn acquisitions(toks: &[Token], calls: &[CallSite]) -> Vec<Acquisition> {
    let last_ident = |(s, e): (usize, usize)| {
        toks[s..e]
            .iter()
            .rev()
            .find(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
    };
    let mut acqs = Vec::new();
    for c in calls.iter().filter(|c| is_acquisition(c)) {
        let i = c.name_idx;
        let (name, start) = match c.recv {
            Some((s, _)) => (receiver_name(toks, i), s),
            None => (
                c.args.first().copied().and_then(last_ident),
                path_start(toks, i),
            ),
        };
        let mut end = match_brace(toks, i + 1);
        loop {
            match toks.get(end) {
                Some(t) if t.is_op("?") => end += 1,
                Some(t)
                    if t.is_op(".")
                        && toks
                            .get(end + 1)
                            .is_some_and(|m| PASS_THROUGH.contains(&m.text.as_str()))
                        && toks.get(end + 2).is_some_and(|p| p.text == "(") =>
                {
                    end = match_brace(toks, end + 2);
                }
                _ => break,
            }
        }
        acqs.push(Acquisition {
            name: name.unwrap_or_else(|| "?".to_string()),
            line: c.line,
            idx: i,
            start,
            end,
        });
    }
    acqs
}

/// Names the lock of a method-style acquisition: the identifier left of
/// its final `.`, or of the bracket group there (`deques[i].lock()`).
fn receiver_name(toks: &[Token], method_idx: usize) -> Option<String> {
    // toks[method_idx - 1] is the `.`; the receiver ends at method_idx - 2.
    let mut k = method_idx.checked_sub(2)?;
    if toks[k].kind == TokKind::Close {
        k = group_open(toks, k)?.checked_sub(1)?;
    }
    (toks[k].kind == TokKind::Ident).then(|| toks[k].text.clone())
}

/// How the guard of `a` outlives its statement, if it does: `let`-bound,
/// returned, passed by value or stored.
fn escape(toks: &[Token], f: &FnItem, a: &Acquisition) -> Option<String> {
    let before = |i: usize| i.checked_sub(1).map(|k| &toks[k]);
    // `*m.lock()` reads through the guard; the guard stays in the statement.
    if before(a.start).is_some_and(|t| t.is_op("*") || t.is_op("!") || t.is_op("-")) {
        return None;
    }
    // `&m.lock()` / `&mut m.lock()` borrows it.
    let mut start = a.start;
    if before(start).is_some_and(|t| t.is_ident("mut"))
        && before(start - 1).is_some_and(|t| t.is_op("&"))
    {
        start -= 2;
    } else if before(start).is_some_and(|t| t.is_op("&")) {
        start -= 1;
    }
    // A method, field or index on the guard, or a block it scrutinizes,
    // uses it up inside the statement.
    let flows_out = toks.get(a.end).is_none_or(|t| {
        matches!(t.text.as_str(), ";" | "}" | "," | ")" | "]") || t.is_ident("else")
    });
    if !flows_out {
        return None;
    }
    let prev = before(start);
    if prev.is_some_and(|t| t.is_op("=")) && toks[stmt_start(toks, start)].is_ident("let") {
        // A borrowed temporary lives as long as the binding, too.
        return Some("is `let`-bound".to_string());
    }
    if start < a.start {
        return None; // a borrow dies with the statement
    }
    let limit = f.body_end.min(toks.len());
    let tail = a.end < limit && toks[a.end..limit - 1].iter().all(|t| t.text == "}");
    if prev.is_some_and(|t| t.is_ident("return")) || tail {
        // Every call to a fn named `lock` is itself an acquisition, so the
        // helper may hand its guard to the caller.
        return (f.name != "lock").then(|| "is returned".to_string());
    }
    if let Some(c) = f.calls.iter().find(|c| c.args.contains(&(start, a.end))) {
        return (c.callee != "drop").then(|| format!("is passed by value to `{}`", c.callee));
    }
    prev.filter(|t| t.is_op("=") || t.is_op(":"))
        .map(|_| "is stored".to_string())
}

/// Token index one past the region a temporary guard is held over: the
/// rest of its statement, through the body of an `if let` / `match` /
/// `for` it scrutinizes (Rust 2021 keeps the temporary alive there), but
/// not into the body of a plain `if` / `while`, whose condition drops its
/// temporaries before the body runs.
fn held_end(toks: &[Token], a: &Acquisition, fn_end: usize) -> usize {
    let limit = fn_end.min(toks.len());
    let mut s = stmt_start(toks, a.idx);
    if toks[s].is_ident("else") {
        s += 1;
    }
    if (toks[s].is_ident("if") || toks[s].is_ident("while"))
        && !toks.get(s + 1).is_some_and(|t| t.is_ident("let"))
    {
        return header_end(toks, s, limit);
    }
    // `floor` is the statement's own bracket depth: leaving the argument
    // list the acquisition sits in (`helper(*m.lock())`) climbs out to it,
    // and the temporary lives on to the statement's end.
    let (mut depth, mut floor) = (0i32, 0i32);
    for (i, t) in toks.iter().enumerate().take(limit).skip(a.idx) {
        match t.kind {
            TokKind::Op if t.text == ";" && depth == floor => return i,
            TokKind::Open => depth += 1,
            TokKind::Close => {
                depth -= 1;
                if depth < floor && t.text == "}" {
                    return i; // the enclosing block closed
                }
                floor = floor.min(depth);
                if depth == floor
                    && t.text == "}"
                    && !toks.get(i + 1).is_some_and(|t| t.is_ident("else"))
                {
                    return i + 1;
                }
            }
            _ => {}
        }
    }
    limit
}

/// The calls that run while the guard of `a` is held, by index into
/// `f.calls`: those in its held region, and those whose argument list it
/// sits in (outside any closure) — they run once their arguments are
/// evaluated.
fn held_calls(toks: &[Token], f: &FnItem, a: &Acquisition) -> Vec<usize> {
    let region = a.end..held_end(toks, a, f.body_end);
    let s = stmt_start(toks, a.idx);
    let encloses = |c: &CallSite| {
        (s..a.start).contains(&c.name_idx)
            && c.args.iter().any(|&(b, e)| {
                b <= a.start && a.end <= e && !matches!(toks[b].text.as_str(), "|" | "||" | "move")
            })
    };
    (0..f.calls.len())
        .filter(|&ci| region.contains(&f.calls[ci].name_idx) || encloses(&f.calls[ci]))
        .collect()
}

/// What makes `f` unfit to call under a lock, when it is: a hot-path
/// kernel, an acquisition or a blocking call of its own.
fn taints_a_hold(f: &FnItem) -> Option<String> {
    if f.in_test {
        None
    } else if is_hot(&f.name) {
        Some(format!("hot-path kernel `{}`", f.name))
    } else if f.calls.iter().any(is_acquisition) {
        Some(format!("an acquisition in `{}`", f.name))
    } else {
        let c = f.calls.iter().find(|c| is_blocking(&c.callee))?;
        Some(format!("blocking `{}` in `{}`", c.callee, f.name))
    }
}

/// Runs `lock-leaf` over every non-test fn: each acquisition's guard must
/// be a temporary, and its held region must contain no second
/// acquisition, no blocking call and no call whose chain reaches one of
/// those or a hot-path kernel.
pub fn check_lock_leaf(files: &[ParsedFile], graph: &CallGraph, out: &mut Vec<Finding>) {
    let taints = |n: NodeId| taints_a_hold(&files[n.0].fns[n.1]);
    let seeds: BTreeSet<NodeId> = files
        .iter()
        .enumerate()
        .flat_map(|(fi, pf)| (0..pf.fns.len()).map(move |gi| (fi, gi)))
        .filter(|&n| taints(n).is_some())
        .collect();
    let tainted = graph.backward_reach(&seeds, |_| false);
    // What running call `ci` of node `n` under a guard does wrong, if
    // anything, with the chain that shows it.
    let wrong_under_guard = |n: NodeId, ci: usize| {
        let c = &files[n.0].fns[n.1].calls[ci];
        if is_acquisition(c) {
            let what = format!("a second acquisition `{}`", c.callee);
            return Some((what, vec![hop(files, n)]));
        }
        if is_blocking(&c.callee) {
            return Some((format!("blocking `{}`", c.callee), vec![hop(files, n)]));
        }
        // A self-edge is a wrapper calling the method it is named after
        // (`fn len` over `.lock().len()`).
        let e = graph
            .out(n)
            .iter()
            .find(|e| e.call == ci && e.to != n && tainted.contains(&e.to))?;
        let path = graph.path_to(e.to, |m| taints(m).is_some())?;
        let end = taints(*path.last()?)?;
        let chain = std::iter::once(n).chain(path).map(|m| hop(files, m));
        Some((
            format!("`{}`, whose chain reaches {end}", c.callee),
            chain.collect(),
        ))
    };
    for (fi, pf) in files.iter().enumerate() {
        let toks = &pf.src.tokens;
        for (gi, f) in pf.fns.iter().enumerate().filter(|(_, f)| !f.in_test) {
            let n = (fi, gi);
            let mut emit = |line: u32, message: String, chain: Vec<String>| {
                if !pf.src.is_allowed("lock-leaf", line) {
                    let file = &pf.src.rel_path;
                    out.push(Finding::with_chain("lock-leaf", file, line, message, chain));
                }
            };
            for a in acquisitions(toks, &f.calls) {
                let guard = format!("guard of `{}` in `{}`", a.name, f.name);
                if let Some(how) = escape(toks, f, &a) {
                    let msg = format!("{guard} {how}: a guard must stay a temporary");
                    emit(a.line, msg, vec![hop(files, n)]);
                }
                for ci in held_calls(toks, f, &a) {
                    if let Some((what, chain)) = wrong_under_guard(n, ci) {
                        let msg = format!("{guard} is held across {what}");
                        emit(f.calls[ci].line, msg, chain);
                    }
                }
            }
        }
    }
}

/// `.name(` — an identifier preceded by `.` and followed by `(`.
fn is_method_call(toks: &[Token], i: usize) -> bool {
    i > 0 && toks[i - 1].is_op(".") && toks.get(i + 1).map(|t| t.text.as_str()) == Some("(")
}

/// `name!(` / `name![` / `name!{` — a macro invocation.
fn is_macro_bang(toks: &[Token], i: usize) -> bool {
    toks.get(i + 1).is_some_and(|t| t.is_op("!"))
        && toks.get(i + 2).is_some_and(|t| t.kind == TokKind::Open)
}

/// When `i` starts a `debug_assert*!(...)` invocation, returns the index
/// one past its closing delimiter.
pub(crate) fn debug_assert_span(toks: &[Token], i: usize) -> Option<usize> {
    let t = &toks[i];
    if t.kind == TokKind::Ident
        && t.text.starts_with("debug_assert")
        && toks.get(i + 1).is_some_and(|t| t.is_op("!"))
        && toks.get(i + 2).is_some_and(|t| t.kind == TokKind::Open)
    {
        Some(match_brace(toks, i + 2))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every rule of this module over one file.
    fn findings(src: &str) -> Vec<(String, u32)> {
        let file = SourceFile::parse("crates/mpint/src/x.rs", src);
        let mut out = Vec::new();
        check_ct(&file, &mut out);
        check_panics(&file, &mut out);
        out.extend(leaf(&[("crates/mpint/src/x.rs", src)]));
        out.into_iter().map(|f| (f.rule, f.line)).collect()
    }

    /// `lock-leaf` over a workspace of `(path, source)` files.
    fn leaf(files: &[(&str, &str)]) -> Vec<Finding> {
        let parsed: Vec<ParsedFile> = files.iter().map(|(p, s)| ParsedFile::parse(p, s)).collect();
        let graph = CallGraph::build(&parsed);
        let mut out = Vec::new();
        check_lock_leaf(&parsed, &graph, &mut out);
        out
    }

    /// `(line, message)` of each `lock-leaf` finding in one file.
    fn leaf_lines(src: &str) -> Vec<(u32, String)> {
        leaf(&[("crates/core/src/x.rs", src)])
            .into_iter()
            .map(|f| (f.line, f.message))
            .collect()
    }

    #[test]
    fn ct_rules_fire_only_in_marked_fns() {
        let src = "\
fn free(x: u64) -> u64 { if x == 0 { 1 } else { 0 } }
// flcheck: ct-fn
fn masked(x: u64) -> u64 {
    if x == 0 { return 1; }
    x
}
";
        let got = findings(src);
        assert!(got.contains(&("ct-branch".into(), 4)));
        assert!(got.contains(&("ct-compare".into(), 4)));
        assert!(got.contains(&("ct-return".into(), 4)));
        assert!(!got.iter().any(|(r, l)| r.starts_with("ct-") && *l == 1));
    }

    #[test]
    fn ct_ignores_debug_assert() {
        let src = "// flcheck: ct-fn\nfn m(x: u64) { debug_assert!(x == 0 && x <= 1); }\n";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn ct_flags_shortcircuit_and_cmp_method() {
        let src =
            "// flcheck: ct-fn\nfn m(a: u64, b: u64) -> bool { a.cmp(&b); a != 0 && b != 0 }\n";
        let got = findings(src);
        assert!(got.contains(&("ct-compare".into(), 2)));
        assert!(got.contains(&("ct-shortcircuit".into(), 2)));
    }

    #[test]
    fn pf_rules_and_test_exemption() {
        // Only the release assert is flcheck's; unwrap, expect, panic! and
        // indexing are clippy's and stay silent here.
        let src = "\
fn lib(v: Vec<u8>) -> u8 {
    let a = v.first().unwrap();
    let b = v.iter().next().expect(\"x\");
    if v.is_empty() { panic!(\"boom\"); }
    assert!(*a > 0);
    debug_assert!(*b > 0);
    v[0]
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { Some(1).unwrap(); assert_eq!(1, 1); }
}
";
        assert_eq!(findings(src), vec![("pf-assert".to_string(), 5)]);
    }

    #[test]
    fn allow_suppresses() {
        let src = "\
fn f(v: &[u8]) -> u8 {
    // flcheck: allow(pf-assert)
    assert_eq!(v.len(), 1);
    v.len() as u8
}
";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn ld_wait_fires_on_helper_style_lock_call() {
        // A `lock(&self.x)` call is an acquisition like `.lock()`: its
        // guard may not be bound, whatever follows.
        let src = "\
fn f(&self) {
    let g = lock(&self.state);
    let msg = self.rx.recv();
}
";
        assert_eq!(findings(src), vec![("lock-leaf".to_string(), 2)]);
    }

    #[test]
    fn chained_let_binds_the_result_not_the_guard() {
        // `let n = ...lock().len();` binds the length; the guard is a
        // temporary dead at the `;`, so the recv is fine.
        let src = "fn f(&self) { let n = self.state.lock().len(); self.rx.recv(); }";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn ld_wait_guard_across_recv() {
        let src = "\
fn f(&self) {
    self.state.lock().push(self.rx.recv());
}
fn ok(&self) {
    let msg = self.rx.recv();
    self.state.lock().push(msg);
}
";
        let got = leaf_lines(src);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].0, 2);
        assert!(
            got[0]
                .1
                .contains("guard of `state` in `f` is held across blocking `recv`"),
            "{}",
            got[0].1
        );
    }

    #[test]
    fn ld_transient_chained_guard_is_not_held() {
        let src = "fn f(&self) { self.stats.lock().bump(); self.rx.recv(); }";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn ld_read_with_args_is_not_a_lock() {
        // `rw.read()` is an acquisition; `file.read(buf)` is IO, so it is
        // no second acquisition inside the first one's statement.
        let src = "fn f(&self) { self.rw.read().get(self.file.read(buf)); self.rx.recv(); }";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn acquisition_shapes_name_their_lock() {
        let p = ParsedFile::parse(
            "crates/x/src/a.rs",
            "fn f(&self, m: &M) {\n    self.stats.lock().bump();\n    lock(&self.table).len();\n    \
             m.lock().len();\n    self.deques[0].lock().pop();\n    self.rw.write().push(0);\n    \
             self.file.read(buf);\n}\n",
        );
        let acqs = acquisitions(&p.src.tokens, &p.fns[0].calls);
        let got: Vec<(&str, u32)> = acqs.iter().map(|a| (a.name.as_str(), a.line)).collect();
        assert_eq!(
            got,
            vec![
                ("stats", 2),
                ("table", 3),
                ("m", 4),
                ("deques", 5),
                ("rw", 6)
            ]
        );
    }

    #[test]
    fn lock_fn_definition_is_not_an_acquisition() {
        // Only the body's `m.lock()` acquires — the `fn lock` item itself is
        // not a call — and the helper may return its guard: every call to
        // it is an acquisition of its own.
        let src = "\
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
impl P {
    fn count(&self) -> usize { lock(&self.x).len() }
}
";
        let p = ParsedFile::parse("crates/he/src/x.rs", src);
        assert_eq!(acquisitions(&p.src.tokens, &p.fns[0].calls).len(), 1);
        assert!(leaf_lines(src).is_empty(), "{:?}", leaf_lines(src));
    }

    #[test]
    fn bound_returned_passed_and_stored_guards_escape() {
        let src = "\
impl P {
    fn bound(&self) -> u32 {
        let g = self.m.lock();
        *g
    }
    fn returned(&self) -> MutexGuard<'_, u32> {
        self.m.lock()
    }
    fn passed(&self) {
        consume(self.m.lock());
    }
    fn stored(&self, w: &mut W) {
        w.guard = self.m.lock();
    }
    fn unwrapped(&self) {
        let g = self.std_m.lock().expect(\"poisoned\");
    }
}
";
        let got = leaf_lines(src);
        let want = [
            (3, "guard of `m` in `bound` is `let`-bound"),
            (7, "guard of `m` in `returned` is returned"),
            (
                10,
                "guard of `m` in `passed` is passed by value to `consume`",
            ),
            (13, "guard of `m` in `stored` is stored"),
            (16, "guard of `std_m` in `unwrapped` is `let`-bound"),
        ];
        assert_eq!(got.len(), want.len(), "{got:?}");
        for ((line, msg), (want_line, want_msg)) in got.iter().zip(want) {
            assert_eq!(*line, want_line, "{msg}");
            assert!(msg.starts_with(want_msg), "{msg}");
        }
    }

    #[test]
    fn a_temporary_guard_passed_whole_as_an_argument_escapes() {
        // The whole guard as any argument is a hand-off; a read through it
        // or a borrow of it stays in the statement.
        let src = "\
impl P {
    fn register(&self) {
        watch(self.m.lock());
    }
    fn second(&self) {
        pair(1, self.m.lock());
    }
    fn method(&self) {
        self.sink.push(self.m.lock());
    }
    fn read(&self) {
        watch(*self.m.lock());
        watch(&self.m.lock());
    }
}
";
        let got = leaf_lines(src);
        let want = [
            (
                3,
                "guard of `m` in `register` is passed by value to `watch`",
            ),
            (6, "guard of `m` in `second` is passed by value to `pair`"),
            (9, "guard of `m` in `method` is passed by value to `push`"),
        ];
        assert_eq!(got.len(), want.len(), "{got:?}");
        for ((line, msg), (want_line, want_msg)) in got.iter().zip(want) {
            assert_eq!(*line, want_line, "{msg}");
            assert!(msg.starts_with(want_msg), "{msg}");
        }
    }

    #[test]
    fn allow_suppresses_the_lock_leaf_finding() {
        let src = "\
impl P {
    fn allowed(&self) {
        // flcheck: allow(lock-leaf)
        let g = self.m.lock();
    }
    fn other_rule(&self) {
        // flcheck: allow(pf-assert)
        let g = self.m.lock();
    }
}
";
        let got: Vec<u32> = leaf_lines(src).iter().map(|(l, _)| *l).collect();
        assert_eq!(got, vec![8]);
    }

    #[test]
    fn derefs_and_borrows_keep_the_guard_in_its_statement() {
        let src = "\
impl P {
    fn read(&self) -> u32 {
        *self.m.lock()
    }
    fn copy(&self) -> u32 {
        let n = *self.m.lock();
        n
    }
    fn take(&self) -> u32 {
        std::mem::take(&mut self.m.lock())
    }
    fn write(&self) {
        *self.m.lock() = 3;
    }
}
";
        assert!(leaf_lines(src).is_empty(), "{:?}", leaf_lines(src));
    }

    #[test]
    fn drops_and_chains_keep_the_guard_in_its_statement() {
        let src = "\
impl P {
    fn release(&self) {
        drop(self.m.lock());
        self.m.lock();
    }
    fn count(&self) -> usize {
        let k = self.m.lock().len();
        k + self.m.lock().iter().count()
    }
}
";
        assert!(leaf_lines(src).is_empty(), "{:?}", leaf_lines(src));
    }

    #[test]
    fn two_acquisitions_in_one_statement_are_one_too_many() {
        // Each order of an inversion holds one lock while taking the other,
        // so both halves are reported at the first acquisition.
        let src = "\
impl C {
    fn ab(&self) -> usize {
        self.a.lock().len() + self.b.lock().len()
    }
    fn ba(&self) -> usize {
        self.b.lock().len() + self.a.lock().len()
    }
}
";
        let got = leaf_lines(src);
        let want = [
            (
                3,
                "guard of `a` in `ab` is held across a second acquisition",
            ),
            (
                6,
                "guard of `b` in `ba` is held across a second acquisition",
            ),
        ];
        assert_eq!(got.len(), want.len(), "{got:?}");
        for ((line, msg), (want_line, want_msg)) in got.iter().zip(want) {
            assert_eq!(*line, want_line, "{msg}");
            assert!(msg.contains(want_msg), "{msg}");
        }
    }

    #[test]
    fn guards_in_separate_statements_do_not_overlap() {
        let src = "\
impl C {
    fn apart(&self) {
        self.a.lock().bump();
        self.b.lock().bump();
    }
    fn back(&self) {
        self.b.lock().bump();
        self.a.lock().bump();
    }
}
";
        assert!(leaf_lines(src).is_empty(), "{:?}", leaf_lines(src));
    }

    #[test]
    fn join_recv_and_park_in_the_held_region_are_flagged() {
        let src = "\
impl W {
    fn joins(&self, h: Handle) {
        self.q.lock().push(h.join());
    }
    fn receives(&self) {
        self.q.lock().push(self.rx.recv_timeout(T));
    }
    fn parks(&self) -> usize {
        self.q.lock().len() + park_then(std::thread::park())
    }
}
";
        let got: Vec<u32> = leaf_lines(src).iter().map(|(l, _)| *l).collect();
        assert_eq!(got, vec![3, 6, 9]);
    }

    #[test]
    fn a_dirty_if_let_body_is_held_but_a_plain_if_body_is_not() {
        let src = "\
impl W {
    fn run(&self) {
        if let Some(t) = self.q.lock().pop_front() {
            std::thread::park();
        }
    }
    fn idle(&self) {
        if self.q.lock().is_empty() {
            std::thread::park();
        }
    }
    fn matched(&self) {
        match self.q.lock().pop_front() {
            Some(t) => t.wait(),
            None => {}
        }
    }
}
";
        let got: Vec<u32> = leaf_lines(src).iter().map(|(l, _)| *l).collect();
        assert_eq!(got, vec![4, 14]);
    }

    #[test]
    fn a_call_two_hops_from_another_acquisition_is_reported_with_its_chain() {
        let src = "\
impl C {
    fn outer(&self) {
        self.stats.lock().bump(self.helper());
    }
    fn helper(&self) -> u64 {
        inner()
    }
}
fn inner() -> u64 {
    *TABLE.lock()
}
";
        let got = leaf(&[("crates/core/src/c.rs", src)]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].line, 3);
        assert!(
            got[0].message.contains(
                "guard of `stats` in `outer` is held across `helper`, \
                 whose chain reaches an acquisition in `inner`"
            ),
            "{}",
            got[0].message
        );
        assert_eq!(
            got[0].chain,
            vec![
                "outer (crates/core/src/c.rs:2)",
                "helper (crates/core/src/c.rs:5)",
                "inner (crates/core/src/c.rs:9)",
            ]
        );
    }

    #[test]
    fn a_guard_in_an_argument_is_held_to_the_end_of_its_statement() {
        // The temporary outlives the argument list it sits in: `helper`
        // runs with the guard held. A struct literal does not end the
        // statement early either.
        let src = "\
impl C {
    fn hot(&self) -> u64 {
        helper(*self.stats.lock())
    }
    fn record(&self) {
        self.stats.lock().push(&Report { n: 1 }, helper(2));
    }
}
fn helper(x: u64) -> u64 {
    mont_mul(x, x)
}
fn mont_mul(a: u64, b: u64) -> u64 {
    a.wrapping_mul(b)
}
";
        let got: Vec<u32> = leaf_lines(src).iter().map(|(l, _)| *l).collect();
        assert_eq!(got, vec![3, 6]);
    }

    #[test]
    fn a_call_reaching_mont_mul_is_flagged_with_its_chain() {
        let src = "\
impl C {
    fn launch(&self) {
        self.stats.lock().record(run_kernel(3));
    }
}
fn run_kernel(x: u64) -> u64 {
    mont_mul(x, x)
}
fn mont_mul(a: u64, b: u64) -> u64 {
    a.wrapping_mul(b)
}
";
        let got = leaf(&[("crates/gpu-sim/src/c.rs", src)]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].line, 3);
        assert!(
            got[0]
                .message
                .ends_with("reaches hot-path kernel `mont_mul`"),
            "{}",
            got[0].message
        );
        assert_eq!(
            got[0].chain,
            vec![
                "launch (crates/gpu-sim/src/c.rs:2)",
                "run_kernel (crates/gpu-sim/src/c.rs:6)",
                "mont_mul (crates/gpu-sim/src/c.rs:9)",
            ]
        );
    }

    #[test]
    fn an_estimate_suffix_is_not_a_hot_path_kernel() {
        let src = "\
impl C {
    fn plan(&self) {
        self.stats.lock().add(encrypt_op_estimate());
    }
}
fn encrypt_op_estimate() -> u64 {
    17
}
";
        let got = leaf(&[("crates/gpu-sim/src/c.rs", src)]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn a_shim_call_resolves_within_its_shim() {
        // The rayon shim's `Option::take` under a slot lock must not
        // resolve to the HE pool's acquiring `take`; the same call from a
        // product crate does.
        let pool = "\
impl Pool {
    pub fn take(&self, i: u64) -> Option<u64> {
        lock(&self.indexed).remove(&i)
    }
}
";
        let shim = "fn get(&self) -> T {\n    self.slot.lock().take().expect(\"once\")\n}\n";
        let product = "fn f(&self, p: &Pool) {\n    self.s.lock().push(p.take(1));\n}\n";
        let got = leaf(&[
            ("crates/he/src/pool.rs", pool),
            ("crates/shims/rayon/src/iter.rs", shim),
            ("crates/fl/src/user.rs", product),
        ]);
        let at: Vec<(&str, u32)> = got.iter().map(|f| (f.file.as_str(), f.line)).collect();
        assert_eq!(at, vec![("crates/fl/src/user.rs", 2)], "{got:?}");
    }

    #[test]
    fn test_fns_are_exempt() {
        let src = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t(p: &super::P) {
        let g = p.m.lock();
        g.join();
    }
}
";
        assert!(leaf_lines(src).is_empty());
    }
}
