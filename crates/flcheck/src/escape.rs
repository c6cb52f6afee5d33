//! Guard-escape analysis (`guard-escape`) and the returned-guard map that
//! lets the lock graph follow guards across call boundaries.
//!
//! A held-set model over per-fn token ranges has a false-negative window: a
//! guard that *escapes* its binding scope — returned to the caller, stored
//! in a struct, or passed by value — stays locked after the acquiring fn's
//! ranges say it died, so the lock graph missed any cycle or hot-path hold
//! built on the escaped guard. This pass closes the window in two tiers:
//!
//! - **Returned guards are followed, not flagged.** An acquisition in
//!   return position (a `return` statement or the fn's tail expression),
//!   or a `let`-bound guard the fn later returns by name, is recorded in
//!   [`EscapeInfo::returned`]. A fixpoint extends the map through
//!   return-position *calls*, so `fn a() { b() }` returning `b()`'s guard
//!   is itself a returner. [`crate::lockgraph`] consumes the map and
//!   synthesizes a held range at every call site of a returner, with the
//!   usual guard-binding/transient liveness rules applied to the call
//!   expression in the caller.
//! - **Escapes the lock graph cannot follow are flagged `guard-escape`.**
//!   Storing a guard through a field assignment or a struct-literal
//!   field, or passing it by value to another fn (`drop` excepted),
//!   detaches its lifetime from any token range the analysis can model —
//!   so the site must be rewritten (pass `&Mutex`, return the guard, or
//!   scope it) or justified with `allow(guard-escape)`.
//!
//! Known limits (DESIGN "Static analysis"): rebinding (`let h = g;`),
//! guards smuggled inside constructed values (`Some(g)` is caught as
//! pass-by-value into `Some`, but `(g, x)` tuples are not), and
//! conditional tails (`match` arms) are followed only when the arm is a
//! plain block tail. Bare acquisitions on fn parameters stay exempt, as
//! in the held-set model: they alias a lock the caller already names.

use crate::callgraph::{hop, CallGraph, NodeId};
use crate::lexer::{TokKind, Token};
use crate::lockgraph::crate_of;
use crate::parse::{FnItem, ParsedFile};
use crate::report::Finding;
use crate::rules::{find_acquisitions, Acquisition};
use crate::scan::stmt_start;
use crate::source::match_brace;
use std::collections::{BTreeMap, BTreeSet};

/// Result of the escape pass, consumed by the lock graph.
#[derive(Debug, Default)]
pub struct EscapeInfo {
    /// Guards a fn hands to its caller: node -> set of
    /// `(crate-qualified lock name, unqualified label)` pairs.
    pub returned: BTreeMap<NodeId, BTreeSet<(String, String)>>,
}

/// Runs the guard-escape pass: pushes `guard-escape` findings and returns
/// the returned-guard map.
pub fn analyze(files: &[ParsedFile], graph: &CallGraph, out: &mut Vec<Finding>) -> EscapeInfo {
    let mut returned: BTreeMap<NodeId, BTreeSet<(String, String)>> = BTreeMap::new();

    for (fi, pf) in files.iter().enumerate() {
        let kr = crate_of(&pf.src.rel_path);
        let toks = &pf.src.tokens;
        for (gi, f) in pf.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            for a in find_acquisitions(&pf.src, f.body_start, f.body_end) {
                if f.nested.iter().any(|&(s, e)| a.idx >= s && a.idx < e) {
                    continue;
                }
                if a.bare && (a.name == "self" || f.params.iter().any(|p| *p == a.name)) {
                    continue; // aliases a lock the caller names
                }
                let close = match_brace(toks, a.idx + 1);
                match &a.guard_var {
                    Some(v) => {
                        if returns_var(toks, f.body_start, f.body_end, v) {
                            returned
                                .entry((fi, gi))
                                .or_default()
                                .insert((format!("{kr}::{}", a.name), a.name.clone()));
                        } else {
                            find_var_escapes(files, (fi, gi), &a, v, out);
                        }
                    }
                    None => {
                        // Chain continues (`m.lock().len()`): the guard is
                        // consumed inside the statement, never escapes.
                        if toks.get(close).is_some_and(|t| t.is_op(".")) {
                            continue;
                        }
                        // A prefix operator (`*self.m.lock()`, `&..`)
                        // produces a derived value — a deref copy or a
                        // borrow that dies with the statement — not the
                        // guard itself.
                        if expr_is_prefixed(toks, a.idx) {
                            continue;
                        }
                        if stmt_starts_with(toks, a.idx, "return")
                            || expr_is_tail(toks, close, f.body_end)
                        {
                            returned
                                .entry((fi, gi))
                                .or_default()
                                .insert((format!("{kr}::{}", a.name), a.name.clone()));
                        } else if let Some(callee) = whole_arg_callee(f, toks, a.idx, close) {
                            let msg = format!(
                                "temporary guard of lock `{}` passed by value to \
                                 `{callee}` in `{}`: the lock graph cannot follow it",
                                a.name, f.name
                            );
                            push(out, files, (fi, gi), a.line, msg);
                        }
                    }
                }
            }
        }
    }

    // Returned guards propagate through return-position calls: a fn whose
    // return value *is* a returner's call result hands the same guard up.
    loop {
        let mut changed = false;
        for (fi, pf) in files.iter().enumerate() {
            let toks = &pf.src.tokens;
            for (gi, f) in pf.fns.iter().enumerate() {
                if f.in_test {
                    continue;
                }
                for e in graph.out((fi, gi)) {
                    if e.to == (fi, gi) {
                        continue;
                    }
                    let Some(rets) = returned.get(&e.to) else {
                        continue;
                    };
                    if rets.is_empty() {
                        continue;
                    }
                    let cs = &f.calls[e.call];
                    let close = match_brace(toks, cs.name_idx + 1);
                    if toks
                        .get(close)
                        .is_some_and(|t| t.is_op(".") || t.is_op("?"))
                    {
                        continue; // chain continues: guard consumed here
                    }
                    if expr_is_prefixed(toks, cs.name_idx) {
                        continue; // `*b()` returns a deref copy, not the guard
                    }
                    if !(stmt_starts_with(toks, cs.name_idx, "return")
                        || expr_is_tail(toks, close, f.body_end))
                    {
                        continue;
                    }
                    let add = rets.clone();
                    let cur = returned.entry((fi, gi)).or_default();
                    let before = cur.len();
                    cur.extend(add);
                    changed |= cur.len() != before;
                }
            }
        }
        if !changed {
            break;
        }
    }

    EscapeInfo { returned }
}

/// Reports escapes of a `let`-bound guard `v` that detach it from its
/// binding scope: struct-literal fields, field assignments, and
/// pass-by-value call arguments.
fn find_var_escapes(
    files: &[ParsedFile],
    n: NodeId,
    a: &Acquisition,
    v: &str,
    out: &mut Vec<Finding>,
) {
    let pf = &files[n.0];
    let f = &pf.fns[n.1];
    let toks = &pf.src.tokens;
    let limit = f.body_end.min(toks.len());
    let mut seen: BTreeSet<(u32, &'static str)> = BTreeSet::new();

    for j in a.idx..limit {
        if f.nested.iter().any(|&(s, e)| j >= s && j < e) {
            continue;
        }
        if !toks[j].is_ident(v) {
            continue;
        }
        // `field: v` in a struct literal (`:` with a field name before it;
        // a `let x: T = ..` ascription is not a store).
        if j >= 2
            && toks[j - 1].is_op(":")
            && toks[j - 2].kind == TokKind::Ident
            && !stmt_starts_with(toks, j, "let")
        {
            if seen.insert((toks[j].line, "struct")) {
                let msg = format!(
                    "guard `{v}` (lock `{}`) stored in struct field `{}` in `{}`: \
                     the lock graph cannot follow it",
                    a.name,
                    toks[j - 2].text,
                    f.name
                );
                push(out, files, n, toks[j].line, msg);
            }
        } else if is_struct_shorthand(toks, j) {
            // `Name { .., v, .. }` — field-init shorthand stores `v` into a
            // field of the same name.
            if seen.insert((toks[j].line, "struct")) {
                let msg = format!(
                    "guard `{v}` (lock `{}`) stored in struct field `{v}` \
                     (init shorthand) in `{}`: the lock graph cannot follow it",
                    a.name, f.name
                );
                push(out, files, n, toks[j].line, msg);
            }
        } else if j >= 1 && toks[j - 1].is_op("=") && assign_target_has_field(toks, j - 1) {
            // `place.field = v` — assignment writing through a field.
            if seen.insert((toks[j].line, "assign")) {
                let msg = format!(
                    "guard `{v}` (lock `{}`) stored through a field assignment \
                     in `{}`: the lock graph cannot follow it",
                    a.name, f.name
                );
                push(out, files, n, toks[j].line, msg);
            }
        }
    }

    // Whole-argument pass-by-value: `v` alone as a call argument moves the
    // guard into the callee (`drop(v)` is the sanctioned early release).
    for c in &f.calls {
        if c.callee == "drop" || c.name_idx < a.idx {
            continue;
        }
        for &(s, e) in &c.args {
            if e - s == 1 && toks[s].is_ident(v) && seen.insert((toks[s].line, "arg")) {
                let msg = format!(
                    "guard `{v}` (lock `{}`) passed by value to `{}` in `{}`: \
                     the lock graph cannot follow it",
                    a.name, c.callee, f.name
                );
                push(out, files, n, toks[s].line, msg);
            }
        }
    }
}

/// Pushes one `guard-escape` finding (single-hop chain of the escaping
/// fn), honoring `allow(guard-escape)`.
fn push(out: &mut Vec<Finding>, files: &[ParsedFile], n: NodeId, line: u32, message: String) {
    let pf = &files[n.0];
    if pf.src.is_allowed("guard-escape", line) {
        return;
    }
    out.push(Finding::with_chain(
        "guard-escape",
        &pf.src.rel_path,
        line,
        message,
        vec![hop(files, n)],
    ));
}

/// True when the fn body returns variable `v` by name: a `return v;` /
/// `return v }` statement or `v` as the tail expression.
fn returns_var(toks: &[Token], body_start: usize, body_end: usize, v: &str) -> bool {
    let limit = body_end.min(toks.len());
    for i in body_start..limit.saturating_sub(1) {
        if toks[i].is_ident("return")
            && toks[i + 1].is_ident(v)
            && toks
                .get(i + 2)
                .is_some_and(|t| t.is_op(";") || t.text == "}")
        {
            return true;
        }
    }
    limit >= body_start + 2 && toks[limit - 2].is_ident(v)
}

/// True when the expression containing token `idx` starts with a prefix
/// operator (`*`, `&`, `!`, `-`): its value is derived from the guard —
/// a deref copy or a borrow — not the guard itself.
fn expr_is_prefixed(toks: &[Token], idx: usize) -> bool {
    let mut k = stmt_start(toks, idx);
    if toks.get(k).is_some_and(|t| t.is_ident("return")) {
        k += 1;
    }
    toks.get(k).is_some_and(|t| t.kind == TokKind::Op)
}

/// True when an expression ending at `close` (one past its last token) is
/// the fn's tail: only block-closing braces remain before the body's final
/// `}` at `body_end - 1`.
fn expr_is_tail(toks: &[Token], close: usize, body_end: usize) -> bool {
    let limit = body_end.min(toks.len());
    if close >= limit {
        return false;
    }
    toks[close..limit - 1].iter().all(|t| t.text == "}")
}

/// When the whole expression `[acq_idx..close)` is exactly one argument of
/// an enclosing call, returns that callee's name: the guard temporary is
/// moved into the call. An argument starting with a prefix operator
/// (`take(&mut m.lock())`) passes a borrow or derived value instead, and
/// the temporary still dies at the statement end.
fn whole_arg_callee<'a>(
    f: &'a FnItem,
    toks: &[Token],
    acq_idx: usize,
    close: usize,
) -> Option<&'a str> {
    for c in &f.calls {
        if c.name_idx >= acq_idx || c.callee == "drop" {
            continue;
        }
        for &(s, e) in &c.args {
            if s <= acq_idx && e == close && toks[s].kind != TokKind::Op {
                return Some(&c.callee);
            }
        }
    }
    None
}

/// True when the assignment `= v` whose `=` sits at `eq_idx` writes
/// through a field access (`place.field = v`) rather than binding or
/// re-assigning a plain local.
fn assign_target_has_field(toks: &[Token], eq_idx: usize) -> bool {
    let target = &toks[stmt_start(toks, eq_idx)..eq_idx];
    !target.iter().any(|t| t.is_ident("let")) && target.iter().any(|t| t.is_op("."))
}

/// True when token `j` is a field-init shorthand inside a struct literal:
/// `Name { .., v, .. }`. The variable must sit directly between literal
/// delimiters (`{`/`,` before, `,`/`}` after), and the enclosing brace
/// group must open right after a capitalized ident (the struct name) —
/// which is what separates a literal from a plain block or match body,
/// where a bare trailing `v` is a tail expression, not a store.
fn is_struct_shorthand(toks: &[Token], j: usize) -> bool {
    if j == 0 || j + 1 >= toks.len() {
        return false;
    }
    let before_ok = toks[j - 1].text == "{" || toks[j - 1].is_op(",");
    let after_ok = toks[j + 1].is_op(",") || toks[j + 1].text == "}";
    if !before_ok || !after_ok {
        return false;
    }
    // Walk left to the `{` opening the enclosing group.
    let mut depth = 0u32;
    let mut k = j;
    loop {
        if k == 0 {
            return false;
        }
        k -= 1;
        if toks[k].text == "}" {
            depth += 1;
        } else if toks[k].text == "{" {
            if depth == 0 {
                break;
            }
            depth -= 1;
        }
    }
    k >= 1
        && toks[k - 1].kind == TokKind::Ident
        && toks[k - 1]
            .text
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_uppercase())
}

/// True when the statement containing token `idx` starts with keyword
/// `kw` (tells a `let x: T = ..` ascription from a struct-literal field).
fn stmt_starts_with(toks: &[Token], idx: usize, kw: &str) -> bool {
    toks.get(stmt_start(toks, idx))
        .is_some_and(|t| t.is_ident(kw))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> (Vec<Finding>, EscapeInfo) {
        let parsed: Vec<ParsedFile> = files.iter().map(|(p, s)| ParsedFile::parse(p, s)).collect();
        let graph = CallGraph::build(&parsed);
        let mut out = Vec::new();
        let info = analyze(&parsed, &graph, &mut out);
        out.sort_by(|a, b| (a.line, &a.message).cmp(&(b.line, &b.message)));
        (out, info)
    }

    #[test]
    fn tail_and_return_guards_are_followed_not_flagged() {
        let src = "\
struct P { m: Mutex<u32> }
impl P {
    fn acquire(&self) -> MutexGuard<'_, u32> {
        self.m.lock()
    }
    fn acquire_explicit(&self) -> MutexGuard<'_, u32> {
        return self.m.lock();
    }
}
";
        let (out, info) = run(&[("crates/core/src/x.rs", src)]);
        assert!(out.is_empty(), "{out:?}");
        let rets: Vec<_> = info.returned.values().flatten().collect();
        assert_eq!(rets.len(), 2, "{rets:?}");
        assert!(
            rets.iter().all(|(q, l)| q == "core::m" && l == "m"),
            "{rets:?}"
        );
    }

    #[test]
    fn let_bound_guard_returned_by_name_is_followed() {
        let src = "\
struct P { m: Mutex<u32> }
impl P {
    fn acquire(&self) -> MutexGuard<'_, u32> {
        let g = self.m.lock();
        g
    }
}
";
        let (out, info) = run(&[("crates/core/src/x.rs", src)]);
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(info.returned.len(), 1, "{info:?}");
    }

    #[test]
    fn return_position_calls_propagate_the_guard_upward() {
        let src = "\
struct P { m: Mutex<u32> }
impl P {
    fn acquire(&self) -> MutexGuard<'_, u32> {
        self.m.lock()
    }
    fn acquire_via(&self) -> MutexGuard<'_, u32> {
        self.acquire()
    }
}
";
        let (out, info) = run(&[("crates/core/src/x.rs", src)]);
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(info.returned.len(), 2, "{info:?}");
        assert!(
            info.returned
                .values()
                .all(|s| s.contains(&("core::m".to_string(), "m".to_string()))),
            "{info:?}"
        );
    }

    #[test]
    fn stored_and_passed_guards_are_flagged() {
        let src = "\
struct P { m: Mutex<u32> }
struct S<'a> { g: MutexGuard<'a, u32> }
impl P {
    fn store(&self, s: &mut S<'_>) {
        let g = self.m.lock();
        s.held = g;
    }
    fn literal(&self) -> S<'_> {
        let g = self.m.lock();
        S { g: g }
    }
    fn pass(&self) {
        let g = self.m.lock();
        consume(g);
    }
}
fn consume(_g: MutexGuard<'_, u32>) {}
";
        let (out, _) = run(&[("crates/core/src/x.rs", src)]);
        let got: Vec<(u32, &str)> = out
            .iter()
            .map(|f| {
                (
                    f.line,
                    if f.message.contains("struct field") {
                        "struct"
                    } else if f.message.contains("field assignment") {
                        "assign"
                    } else {
                        "arg"
                    },
                )
            })
            .collect();
        assert_eq!(
            got,
            vec![(6, "assign"), (10, "struct"), (14, "arg")],
            "{out:?}"
        );
        assert!(out.iter().all(|f| f.rule == "guard-escape"));
        assert_eq!(out[2].chain, vec!["pass (crates/core/src/x.rs:12)"]);
    }

    #[test]
    fn field_init_shorthand_is_flagged_but_block_tail_is_not() {
        let src = "\
struct P { m: Mutex<u32> }
struct S<'a> { g: MutexGuard<'a, u32> }
impl P {
    fn shorthand(&self) -> S<'_> {
        let g = self.m.lock();
        S { g }
    }
    fn tail(&self) -> MutexGuard<'_, u32> {
        let g = self.m.lock();
        g
    }
}
";
        let (out, info) = run(&[("crates/core/src/x.rs", src)]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 6);
        assert!(
            out[0].message.contains("init shorthand"),
            "{}",
            out[0].message
        );
        // The bare block tail in `tail` is a return-by-name: followed via
        // EscapeInfo, never flagged.
        assert_eq!(info.returned.len(), 1, "{info:?}");
    }

    #[test]
    fn transient_guard_passed_whole_as_argument_is_flagged() {
        let src = "\
struct P { m: Mutex<u32> }
impl P {
    fn register(&self) {
        watch(self.m.lock());
    }
}
fn watch(_g: MutexGuard<'_, u32>) {}
";
        let (out, _) = run(&[("crates/core/src/x.rs", src)]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 4);
        assert!(
            out[0].message.contains("passed by value to `watch`"),
            "{}",
            out[0].message
        );
        assert_eq!(out[0].chain, vec!["register (crates/core/src/x.rs:3)"]);
    }

    #[test]
    fn drop_and_chain_consumption_are_not_escapes() {
        let src = "\
struct P { m: Mutex<Vec<u32>> }
impl P {
    fn fine(&self) -> usize {
        let g = self.m.lock();
        let n = g.len();
        drop(g);
        let k = self.m.lock().len();
        n + k
    }
}
";
        let (out, info) = run(&[("crates/core/src/x.rs", src)]);
        assert!(out.is_empty(), "{out:?}");
        assert!(info.returned.is_empty(), "{info:?}");
    }

    #[test]
    fn deref_and_borrow_of_the_guard_are_not_escapes() {
        let src = "\
struct P { m: Mutex<u32> }
impl P {
    fn read_copy(&self) -> u32 {
        *self.m.lock()
    }
    fn take_value(&self) -> u32 {
        std::mem::take(&mut self.m.lock())
    }
    fn read_explicit(&self) -> u32 {
        return *self.m.lock();
    }
}
";
        let (out, info) = run(&[("crates/core/src/x.rs", src)]);
        assert!(out.is_empty(), "{out:?}");
        assert!(info.returned.is_empty(), "{info:?}");
    }

    #[test]
    fn bare_param_acquisitions_stay_exempt() {
        let src = "\
fn lock_helper(m: &Mutex<u32>) -> MutexGuard<'_, u32> {
    m.lock()
}
";
        let (out, info) = run(&[("crates/core/src/x.rs", src)]);
        assert!(out.is_empty(), "{out:?}");
        assert!(info.returned.is_empty(), "{info:?}");
    }

    #[test]
    fn allow_suppresses_the_finding() {
        let src = "\
struct P { m: Mutex<u32> }
impl P {
    fn pass(&self) {
        let g = self.m.lock();
        // flcheck: allow(guard-escape) — handoff, released by consumer
        consume(g);
    }
}
fn consume(_g: MutexGuard<'_, u32>) {}
";
        let (out, _) = run(&[("crates/core/src/x.rs", src)]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn test_fns_are_exempt() {
        let src = "\
struct P { m: Mutex<u32> }
#[cfg(test)]
mod tests {
    #[test]
    fn t(p: &super::P) {
        consume(p.m.lock());
    }
}
fn consume(_g: MutexGuard<'_, u32>) {}
";
        let (out, info) = run(&[("crates/core/src/x.rs", src)]);
        assert!(out.is_empty(), "{out:?}");
        assert!(info.returned.is_empty(), "{info:?}");
    }
}
