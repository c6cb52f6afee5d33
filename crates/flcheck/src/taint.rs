//! Interprocedural secret-taint analysis.
//!
//! Seeds come from `// flcheck: secret(name, ..)` directives: the named
//! parameters/locals of the following fn hold key material (Paillier
//! λ/μ/p/q, RSA d/d_p/d_q, plaintexts, limb buffers in the ct ladders).
//! Taint propagates intraprocedurally through `let` bindings, plain and
//! compound assignments, and `for`-pattern bindings, and
//! interprocedurally along call edges into `ct-fn` callees (argument
//! position → parameter name). Reaching a non-ct sink raises `ct-taint`:
//!
//! - a branch condition (`if` / `while` / `match` header),
//! - a slice/array index expression,
//! - an explicit `return` of a tainted value,
//! - a `len()`-dependent loop bound over a tainted buffer,
//! - a call passing a tainted argument (or receiver) to a fn that is not
//!   marked `ct-fn` — including unresolvable, non-whitelisted names.
//!
//! Deliberate approximations, chosen to match how the `mpint`/`he`
//! kernels are written:
//!
//! - `x.len()` / `x.is_empty()` of a tainted buffer is treated as
//!   *public* (limb buffers have fixed padded widths) everywhere
//!   **except** as a loop bound, where the trip count is the canonical
//!   timing channel and an explicit `allow(ct-taint)` must document why
//!   the width is public.
//! - `for (i, x) in buf.iter().enumerate()` taints `x` but not the
//!   counter `i` — enumerate counters are public positions.
//! - Operator expressions (`&a * &b`) are not calls and are not sinks;
//!   the ct rules on the marked kernels cover them.
//! - Implicit tail returns are not sinks (every fn returning a secret
//!   would fire); explicit `return` statements are.

use crate::callgraph::{hop, CallGraph};
use crate::lexer::{TokKind, Token};
use crate::parse::{FnItem, ParsedFile};
use crate::report::Finding;
use crate::scan::{group_open, header_end, is_indexing, stmt_end};
use crate::source::match_brace;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Methods that neither branch on nor index by their inputs: calling them
/// on/with tainted values is timing-safe and raises no finding. Taint
/// still flows through their *results* via the ordinary `let`-RHS scan.
const METHOD_WHITELIST: &[&str] = &[
    "wrapping_add",
    "wrapping_sub",
    "wrapping_mul",
    "wrapping_neg",
    "wrapping_shl",
    "wrapping_shr",
    "overflowing_add",
    "overflowing_sub",
    "overflowing_mul",
    "rotate_left",
    "rotate_right",
    "count_ones",
    "to_le_bytes",
    "to_be_bytes",
    "clone",
    "copied",
    "cloned",
    "iter",
    "iter_mut",
    "into_iter",
    "chunks",
    "windows",
    "zip",
    "enumerate",
    "rev",
    "skip",
    "take",
    "map",
    "fold",
    "sum",
    "collect",
    "get",
    "get_mut",
    "first",
    "last",
    "unwrap_or",
    "unwrap_or_default",
    "len",
    "is_empty",
    "as_slice",
    "as_mut_slice",
    "to_vec",
    "swap",
    "min",
    "max",
    "saturating_add",
    "saturating_sub",
];

/// Whitelisted methods that *mutate their receiver*: a tainted argument
/// taints the receiver's root binding.
const MUTATOR_METHODS: &[&str] = &[
    "push",
    "extend_from_slice",
    "copy_from_slice",
    "fill",
    "resize",
    "insert",
    "truncate",
];

/// Free-call names that wrap or move values without data-dependent
/// timing: constructors and conversion shims.
const FREE_WHITELIST: &[&str] = &[
    "Some",
    "Ok",
    "Err",
    "Vec",
    "from",
    "into",
    "new",
    "black_box",
];

/// Per-node analysis state.
#[derive(Default, Clone)]
struct NodeState {
    /// Parameter/local names tainted at entry (callers' taint + own
    /// `secret(..)` names). Monotonically grows.
    entry: BTreeSet<String>,
    /// Provenance chain for findings inside this fn (empty for seeds).
    chain: Vec<String>,
}

/// Runs the interprocedural taint pass over the workspace.
pub fn check_taint(files: &[ParsedFile], graph: &CallGraph, out: &mut Vec<Finding>) {
    let mut states: BTreeMap<(usize, usize), NodeState> = BTreeMap::new();
    let mut work: VecDeque<(usize, usize)> = VecDeque::new();
    for (fi, pf) in files.iter().enumerate() {
        for (gi, f) in pf.fns.iter().enumerate() {
            if !f.marks.secrets.is_empty() {
                states.insert(
                    (fi, gi),
                    NodeState {
                        entry: f.marks.secrets.iter().cloned().collect(),
                        chain: Vec::new(),
                    },
                );
                work.push_back((fi, gi));
            }
        }
    }

    let mut findings: BTreeSet<(String, u32, String, Vec<String>)> = BTreeSet::new();
    let mut rounds = 0usize;
    while let Some(node) = work.pop_front() {
        // Monotone worklist over finite name sets: bounded, but guard
        // against surprises anyway.
        rounds += 1;
        if rounds > 10_000 {
            break;
        }
        let state = states.get(&node).cloned().unwrap_or_default();
        let props = analyze_fn(files, graph, node, &state, &mut findings);
        for (callee, params) in props {
            let chain_base = state.chain.clone();
            let st = states.entry(callee).or_default();
            let before = st.entry.len();
            st.entry.extend(params);
            if st.entry.len() > before {
                if st.chain.is_empty() {
                    let mut chain = chain_base;
                    if chain.is_empty() {
                        chain.push(hop(files, node));
                    }
                    chain.push(hop(files, callee));
                    st.chain = chain;
                }
                work.push_back(callee);
            }
        }
    }

    for (file, line, message, chain) in findings {
        out.push(Finding::with_chain("ct-taint", &file, line, message, chain));
    }
}

/// Analyzes one fn under the given entry taint: intraprocedural taint
/// fixpoint, then sink detection. Returns (callee, tainted params) for
/// interprocedural propagation.
#[allow(clippy::type_complexity)]
fn analyze_fn(
    files: &[ParsedFile],
    graph: &CallGraph,
    node: (usize, usize),
    state: &NodeState,
    findings: &mut BTreeSet<(String, u32, String, Vec<String>)>,
) -> Vec<((usize, usize), BTreeSet<String>)> {
    let pf = &files[node.0];
    let f = &pf.fns[node.1];
    let toks = &pf.src.tokens;
    let mut tainted: BTreeSet<String> = state.entry.clone();
    tainted.extend(f.marks.secrets.iter().cloned());

    // --- intraprocedural fixpoint over bindings -------------------------
    loop {
        let before = tainted.len();
        let mut i = f.body_start;
        while i < f.body_end.min(toks.len()) {
            if let Some(n) = skip_at(pf, f, i) {
                i = n;
                continue;
            }
            let t = &toks[i];
            if t.is_ident("let") {
                let (names, rhs) = let_binding(toks, i, f.body_end);
                if let Some((rs, re)) = rhs {
                    if range_has_taint(toks, rs, re, &tainted).is_some() {
                        tainted.extend(names);
                    }
                }
            } else if t.is_ident("for") {
                for_binding(toks, i, f.body_end, &mut tainted);
            } else if t.kind == TokKind::Op
                && matches!(
                    t.text.as_str(),
                    "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "^=" | "|=" | "&="
                )
                && !(t.text == "=" && i > 0 && toks[i - 1].is_ident("let"))
            {
                // `target = rhs;` / `target op= rhs;`
                if let Some(target) = assign_target(toks, i, f.body_start) {
                    let re = stmt_end(toks, i + 1, f.body_end);
                    if range_has_taint(toks, i + 1, re, &tainted).is_some() {
                        tainted.insert(target);
                    }
                }
            } else if t.kind == TokKind::Ident
                && MUTATOR_METHODS.contains(&t.text.as_str())
                && i > 0
                && toks[i - 1].is_op(".")
                && toks.get(i + 1).is_some_and(|n| n.text == "(")
            {
                // `buf.push(x)` with tainted x taints `buf`.
                let close = match_brace(toks, i + 1);
                if range_has_taint(toks, i + 2, close.saturating_sub(1), &tainted).is_some() {
                    if let Some(root) = i
                        .checked_sub(2)
                        .filter(|&k| toks[k].kind == TokKind::Ident)
                        .map(|k| toks[k].text.clone())
                    {
                        tainted.insert(root);
                    }
                }
            }
            i += 1;
        }
        if tainted.len() == before {
            break;
        }
    }

    // --- sink detection -------------------------------------------------
    let mut emit = |line: u32, message: String| {
        if pf.src.is_allowed("ct-taint", line) {
            return;
        }
        let chain = if state.chain.len() >= 2 {
            state.chain.clone()
        } else {
            Vec::new()
        };
        findings.insert((pf.src.rel_path.clone(), line, message, chain));
    };

    let mut props: Vec<((usize, usize), BTreeSet<String>)> = Vec::new();
    let mut i = f.body_start;
    while i < f.body_end.min(toks.len()) {
        if let Some(n) = skip_at(pf, f, i) {
            i = n;
            continue;
        }
        let t = &toks[i];
        // (a) branch conditions.
        if t.kind == TokKind::Ident && matches!(t.text.as_str(), "if" | "while" | "match") {
            let end = header_end(toks, i + 1, f.body_end);
            if let Some(name) = range_has_taint(toks, i + 1, end, &tainted) {
                emit(
                    t.line,
                    format!(
                        "secret-tainted `{name}` influences a `{}` condition in `{}`",
                        t.text, f.name
                    ),
                );
            }
            // (d) len-dependent bound in a `while` header.
            if t.is_ident("while") {
                if let Some(name) = len_of_tainted(toks, i + 1, end, &tainted) {
                    emit(
                        t.line,
                        format!(
                            "loop bound depends on `len()` of secret-tainted `{name}` in `{}`",
                            f.name
                        ),
                    );
                }
            }
        }
        // (d) len-dependent bound in a `for` header.
        if t.is_ident("for") {
            let end = header_end(toks, i + 1, f.body_end);
            if let Some(name) = len_of_tainted(toks, i + 1, end, &tainted) {
                emit(
                    t.line,
                    format!(
                        "loop bound depends on `len()` of secret-tainted `{name}` in `{}`",
                        f.name
                    ),
                );
            }
        }
        // (b) tainted index expressions.
        if t.kind == TokKind::Open && t.text == "[" && is_indexing(toks, i) {
            let close = match_brace(toks, i);
            if let Some(name) = range_has_taint(toks, i + 1, close.saturating_sub(1), &tainted) {
                emit(
                    t.line,
                    format!(
                        "secret-tainted `{name}` used as a slice index in `{}`",
                        f.name
                    ),
                );
            }
        }
        // (c) explicit return of a tainted value.
        if t.is_ident("return") {
            let end = stmt_end(toks, i + 1, f.body_end);
            if let Some(name) = range_has_taint(toks, i + 1, end, &tainted) {
                emit(
                    t.line,
                    format!(
                        "secret-tainted `{name}` leaves `{}` via early return",
                        f.name
                    ),
                );
            }
        }
        i += 1;
    }

    // (e) calls with tainted arguments / receivers.
    for (ci, call) in f.calls.iter().enumerate() {
        let mut tainted_args: Vec<usize> = Vec::new();
        for (ai, &(s, e)) in call.args.iter().enumerate() {
            if range_has_taint(toks, s, e, &tainted).is_some() {
                tainted_args.push(ai);
            }
        }
        let recv_tainted = call
            .recv
            .is_some_and(|(s, e)| range_has_taint(toks, s, e, &tainted).is_some());
        if tainted_args.is_empty() && !recv_tainted {
            continue;
        }
        if call.is_method && METHOD_WHITELIST.contains(&call.callee.as_str()) {
            continue;
        }
        if call.is_method && MUTATOR_METHODS.contains(&call.callee.as_str()) {
            continue; // handled as receiver taint above, not a sink
        }
        let cands: Vec<(usize, usize)> = graph
            .out(node)
            .iter()
            .filter(|e| e.call == ci)
            .map(|e| e.to)
            .collect();
        if cands.is_empty() {
            if !call.is_method && FREE_WHITELIST.contains(&call.callee.as_str()) {
                continue;
            }
            emit(
                call.line,
                format!(
                    "secret-tainted value passed to unresolved non-ct `{}` in `{}`",
                    call.callee, f.name
                ),
            );
            continue;
        }
        if cands.iter().all(|&(fi, gi)| files[fi].fns[gi].marks.is_ct) {
            // Propagate into the ct callee(s): argument position → param.
            for &(fi, gi) in &cands {
                let callee = &files[fi].fns[gi];
                let mut params: BTreeSet<String> = BTreeSet::new();
                let shift = usize::from(call.is_method && callee.is_method);
                if recv_tainted {
                    if let Some(p) = callee.params.first() {
                        params.insert(p.clone());
                    }
                }
                for &ai in &tainted_args {
                    if let Some(p) = callee.params.get(ai + shift) {
                        params.insert(p.clone());
                    }
                }
                if !params.is_empty() {
                    props.push(((fi, gi), params));
                }
            }
        } else {
            emit(
                call.line,
                format!(
                    "secret-tainted value passed to non-ct fn `{}` in `{}` (mark it `ct-fn` or allow with justification)",
                    call.callee, f.name
                ),
            );
        }
    }
    props
}

/// When `i` starts a skippable region (nested fn body or
/// `debug_assert*!`), returns the index just past it.
fn skip_at(pf: &ParsedFile, f: &FnItem, i: usize) -> Option<usize> {
    if let Some(&(_, ne)) = f.nested.iter().find(|&&(ns, ne)| i >= ns && i < ne) {
        return Some(ne);
    }
    crate::rules::debug_assert_span(&pf.src.tokens, i)
}

/// Scans `[s, e)` for an identifier in the tainted set, exempting
/// `x.len()` / `x.is_empty()` occurrences (widths are public).
fn range_has_taint<'a>(
    toks: &'a [Token],
    s: usize,
    e: usize,
    tainted: &BTreeSet<String>,
) -> Option<&'a str> {
    for i in s..e.min(toks.len()) {
        let t = &toks[i];
        if t.kind != TokKind::Ident || !tainted.contains(&t.text) {
            continue;
        }
        let is_len_probe = toks.get(i + 1).is_some_and(|n| n.is_op("."))
            && toks
                .get(i + 2)
                .is_some_and(|n| n.text == "len" || n.text == "is_empty")
            && toks.get(i + 3).is_some_and(|n| n.text == "(");
        if is_len_probe {
            continue;
        }
        return Some(&t.text);
    }
    None
}

/// Finds `tainted_ident . len (` inside a loop header.
fn len_of_tainted<'a>(
    toks: &'a [Token],
    s: usize,
    e: usize,
    tainted: &BTreeSet<String>,
) -> Option<&'a str> {
    for i in s..e.min(toks.len()) {
        let t = &toks[i];
        if t.kind == TokKind::Ident
            && tainted.contains(&t.text)
            && toks.get(i + 1).is_some_and(|n| n.is_op("."))
            && toks.get(i + 2).is_some_and(|n| n.text == "len")
            && toks.get(i + 3).is_some_and(|n| n.text == "(")
        {
            return Some(&t.text);
        }
    }
    None
}

/// Parses a `let` statement at `i` (the `let` token): binding names and
/// the RHS token range, if any.
fn let_binding(toks: &[Token], i: usize, limit: usize) -> (Vec<String>, Option<(usize, usize)>) {
    let mut names = Vec::new();
    let mut k = i + 1;
    let mut depth = 0i32;
    // Names come from the pattern: idents before the (depth-0) `:` or `=`.
    while k < limit.min(toks.len()) {
        let t = &toks[k];
        match t.kind {
            TokKind::Open => depth += 1,
            TokKind::Close => depth -= 1,
            TokKind::Op if depth == 0 && (t.text == ":" || t.text == "=" || t.text == ";") => break,
            TokKind::Ident
                if !matches!(t.text.as_str(), "mut" | "ref")
                    && !t.text.chars().next().is_some_and(|c| c.is_uppercase()) =>
            {
                names.push(t.text.clone());
            }
            _ => {}
        }
        k += 1;
    }
    // Skip a type annotation to the `=`.
    while k < limit.min(toks.len()) {
        let t = &toks[k];
        match t.kind {
            TokKind::Open => depth += 1,
            TokKind::Close => depth -= 1,
            TokKind::Op if depth == 0 && t.text == "=" => {
                let end = stmt_end(toks, k + 1, limit);
                return (names, Some((k + 1, end)));
            }
            TokKind::Op if depth == 0 && t.text == ";" => break,
            _ => {}
        }
        k += 1;
    }
    (names, None)
}

/// Taints `for`-pattern bindings when the iterated expression is tainted.
/// With `.enumerate()` in the chain, the first tuple binding (the
/// counter) stays public.
fn for_binding(toks: &[Token], i: usize, limit: usize, tainted: &mut BTreeSet<String>) {
    // Pattern = tokens between `for` and the (depth-0) `in`.
    let mut k = i + 1;
    let mut depth = 0i32;
    let mut pat: Vec<String> = Vec::new();
    while k < limit.min(toks.len()) {
        let t = &toks[k];
        match t.kind {
            TokKind::Open => depth += 1,
            TokKind::Close => depth -= 1,
            TokKind::Ident if depth == 0 && t.text == "in" => break,
            TokKind::Ident
                if !matches!(t.text.as_str(), "mut" | "ref")
                    && !t.text.chars().next().is_some_and(|c| c.is_uppercase()) =>
            {
                pat.push(t.text.clone());
            }
            _ => {}
        }
        k += 1;
    }
    let expr_start = k + 1;
    let expr_end = header_end(toks, expr_start, limit);
    if range_has_taint(toks, expr_start, expr_end, tainted).is_none() {
        return;
    }
    let has_enumerate = toks[expr_start..expr_end.min(toks.len())]
        .iter()
        .any(|t| t.is_ident("enumerate"));
    for (pi, name) in pat.iter().enumerate() {
        if has_enumerate && pi == 0 {
            continue; // the counter is a public position
        }
        tainted.insert(name.clone());
    }
}

/// Walks back from an assignment operator to the assigned root binding:
/// skips one trailing index group (`t[i] = ..` assigns into `t`) and
/// field chains (`s.acc = ..` taints `s`).
fn assign_target(toks: &[Token], op_idx: usize, body_start: usize) -> Option<String> {
    let mut k = op_idx.checked_sub(1)?;
    loop {
        if k < body_start {
            return None;
        }
        match toks[k].kind {
            // Skip the `[ .. ]` / `( .. )` group.
            TokKind::Close => k = group_open(toks, k)?.checked_sub(1)?,
            TokKind::Ident => {
                // Continue left over `a.b` / `a::b` chains to the root.
                match k.checked_sub(1) {
                    Some(p) if toks[p].is_op(".") || toks[p].is_op("::") => {
                        k = p.checked_sub(1)?;
                    }
                    _ => return Some(toks[k].text.clone()),
                }
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let parsed: Vec<ParsedFile> = files.iter().map(|(p, s)| ParsedFile::parse(p, s)).collect();
        let graph = CallGraph::build(&parsed);
        let mut out = Vec::new();
        check_taint(&parsed, &graph, &mut out);
        out.sort_by(|a, b| (&a.file, a.line, &a.message).cmp(&(&b.file, b.line, &b.message)));
        out
    }

    #[test]
    fn branch_index_return_and_len_sinks() {
        let src = "\
// flcheck: secret(key)
fn f(key: u64, table: &[u64], buf: &mut [u64]) -> u64 {
    if key == 0 {
        return key;
    }
    let x = table[key as usize];
    for i in 0..buf.len() {
        buf[i] = x;
    }
    x
}
";
        let out = run(&[("crates/core/src/t.rs", src)]);
        let pairs: Vec<(u32, &str)> = out.iter().map(|f| (f.line, f.rule.as_str())).collect();
        // line 3: `if key == 0` branch; line 4: early return of key;
        // line 6: `table[key as usize]` index; line 7: `buf` becomes
        // tainted through the `buf[i] = x` write, so its `len()` loop
        // bound needs an explicit allow.
        assert_eq!(
            pairs,
            vec![
                (3, "ct-taint"),
                (4, "ct-taint"),
                (6, "ct-taint"),
                (7, "ct-taint")
            ]
        );
    }

    #[test]
    fn len_loop_bound_of_tainted_buffer_fires() {
        let src = "\
// flcheck: secret(limbs)
fn g(limbs: &[u64]) -> u64 {
    let mut acc = 0u64;
    for i in 0..limbs.len() {
        acc = acc.wrapping_add(1);
    }
    acc
}
";
        let out = run(&[("crates/core/src/t.rs", src)]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 4);
        assert!(out[0].message.contains("len()"));
    }

    #[test]
    fn taint_flows_through_let_and_assignments() {
        let src = "\
// flcheck: secret(d)
fn f(d: u64) {
    let masked = d ^ 0xff;
    let mut acc = 0u64;
    acc += masked;
    if acc == 0 {}
}
";
        let out = run(&[("crates/core/src/t.rs", src)]);
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].line, 6,
            "taint reached `acc` through let + compound assign"
        );
    }

    #[test]
    fn call_to_non_ct_helper_is_a_sink_and_ct_callee_propagates() {
        let src = "\
// flcheck: secret(exp)
fn outer(exp: u64) {
    leaky(exp);
    safe(exp);
}
fn leaky(e: u64) {}
// flcheck: ct-fn
fn safe(e: u64) {
    if e == 0 {}
}
";
        let out = run(&[("crates/core/src/t.rs", src)]);
        let pairs: Vec<(u32, bool)> = out
            .iter()
            .map(|f| (f.line, f.message.contains("non-ct fn `leaky`")))
            .collect();
        // line 3: tainted call into non-ct `leaky`. The branch inside
        // `safe` (line 9) fires with an interprocedural chain.
        assert_eq!(pairs.len(), 2, "{out:?}");
        assert_eq!(pairs[0], (3, true));
        assert_eq!(out[1].line, 9);
        assert_eq!(
            out[1].chain,
            vec![
                "outer (crates/core/src/t.rs:2)",
                "safe (crates/core/src/t.rs:8)"
            ]
        );
    }

    #[test]
    fn enumerate_counter_stays_public() {
        let src = "\
// flcheck: secret(a)
fn f(a: &[u64], t: &mut [u64]) {
    for (j, &aj) in a.iter().enumerate() {
        t[j] = aj;
    }
}
";
        let out = run(&[("crates/core/src/t.rs", src)]);
        assert!(out.is_empty(), "counter j must stay public: {out:?}");
    }

    #[test]
    fn allows_suppress_taint_findings() {
        let src = "\
// flcheck: secret(m)
fn f(m: u64, n: u64) -> bool {
    // flcheck: allow(ct-taint) -- range check leaks only validity
    if m >= n {
        return true;
    }
    false
}
";
        let out = run(&[("crates/core/src/t.rs", src)]);
        // The early `return true` is not tainted (literal), and the
        // branch is allowed.
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn whitelisted_methods_and_constructors_are_silent() {
        let src = "\
// flcheck: secret(x)
fn f(x: u64) -> Option<u64> {
    let y = x.wrapping_mul(3);
    let v = Some(y);
    v
}
";
        let out = run(&[("crates/core/src/t.rs", src)]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn cross_file_propagation_carries_chains() {
        let a = "\
// flcheck: secret(lambda)
pub fn decrypt(lambda: u64) {
    kernel(lambda);
}
";
        let b = "\
// flcheck: ct-fn
pub fn kernel(e: u64) {
    let t = [0u64; 4];
    let x = t[e as usize];
}
";
        let out = run(&[("crates/he/src/a.rs", a), ("crates/mpint/src/b.rs", b)]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].file, "crates/mpint/src/b.rs");
        assert_eq!(out[0].line, 4);
        assert_eq!(
            out[0].chain,
            vec![
                "decrypt (crates/he/src/a.rs:2)",
                "kernel (crates/mpint/src/b.rs:2)"
            ]
        );
    }

    #[test]
    fn mutator_methods_taint_their_receiver() {
        let src = "\
// flcheck: secret(d)
fn f(d: u64) {
    let mut buf = Vec::new();
    buf.push(d);
    if buf[0] == 1 {}
}
";
        let out = run(&[("crates/core/src/t.rs", src)]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 5, "buf tainted via push: {out:?}");
    }
}
