//! The three rule families.
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
//! - **lock-discipline** (`ld-wait`): a `let`-bound guard must not stay
//!   live across a blocking `.recv()` / `.join()`. Lock identity is the
//!   receiver field name (`stats` in `self.stats.lock()`) or the last
//!   field of a `lock(&self.field)` helper call. Ordering violations are
//!   no longer a per-file rule: the whole-workspace cycle analysis in
//!   [`crate::lockgraph`] (`lock-cycle`) subsumes the old `ld-order`.

use crate::lexer::{TokKind, Token};
use crate::report::Finding;
use crate::scan::{group_open, let_name};
use crate::source::{match_brace, SourceFile};

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

/// One lock acquisition site inside a function.
#[derive(Debug)]
pub(crate) struct Acquisition {
    /// Lock name: the receiver field (`stats` in `self.stats.lock()`) or
    /// the last field of the argument for `lock(&self.stats)`.
    pub(crate) name: String,
    pub(crate) line: u32,
    /// Token index of the `lock`/`read`/`write` identifier.
    pub(crate) idx: usize,
    /// Variable the guard is bound to, when `let`-bound.
    pub(crate) guard_var: Option<String>,
    /// The naming identifier is *not* a field access (`m.lock()` on a
    /// local/parameter rather than `self.stats.lock()`). The lock graph
    /// skips bare acquisitions that name a parameter of the enclosing fn:
    /// they alias a lock the caller already names.
    pub(crate) bare: bool,
}

/// Runs the lock-discipline family (`ld-wait`) over a file.
pub fn check_locks(file: &SourceFile, out: &mut Vec<Finding>) {
    for f in &file.fns {
        for a in &find_acquisitions(file, f.body_start, f.body_end) {
            let Some(var) = &a.guard_var else { continue };
            if let Some((line, what)) = wait_while_guard_live(file, a, f.body_end) {
                if !file.is_allowed("ld-wait", line) {
                    out.push(Finding::new(
                        "ld-wait",
                        &file.rel_path,
                        line,
                        format!(
                            "guard `{var}` (lock `{}`) held across blocking \
                             `.{what}()` in `{}`: drop the guard first",
                            a.name, f.name
                        ),
                    ));
                }
            }
        }
    }
}

/// Collects lock acquisitions in a token range: method-style `.lock()` /
/// `.read()` / `.write()` with no arguments, and helper-style `lock(&expr)`
/// free calls (the Paillier pool's poison-stripping wrapper).
pub(crate) fn find_acquisitions(file: &SourceFile, start: usize, end: usize) -> Vec<Acquisition> {
    let toks = &file.tokens;
    let mut acqs = Vec::new();
    for i in start..end.min(toks.len()) {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        if matches!(t.text.as_str(), "lock" | "read" | "write") && is_method_call(toks, i) {
            // Zero-argument call only: `lock()`, not `read(buf)`.
            if toks.get(i + 2).map(|t| t.text.as_str()) != Some(")") {
                continue;
            }
            let Some((name, bare)) = receiver_name(toks, i) else {
                continue;
            };
            acqs.push(Acquisition {
                name,
                line: t.line,
                idx: i,
                guard_var: guard_binding(toks, i, match_brace(toks, i + 1)),
                bare,
            });
        } else if t.text == "lock"
            && !(i > 0 && (toks[i - 1].is_op(".") || toks[i - 1].is_ident("fn")))
            && toks.get(i + 1).map(|t| t.text.as_str()) == Some("(")
        {
            // `lock(&self.stats)`: name the lock by the last identifier of
            // the argument expression.
            let close = match_brace(toks, i + 1); // one past `)`
            let arg = &toks[i + 2..close.saturating_sub(1).max(i + 2)];
            let Some(pos) = arg.iter().rposition(|t| t.kind == TokKind::Ident) else {
                continue;
            };
            let name_idx = i + 2 + pos;
            let bare = !(name_idx > 0 && toks[name_idx - 1].is_op("."));
            acqs.push(Acquisition {
                name: toks[name_idx].text.clone(),
                line: t.line,
                idx: i,
                guard_var: guard_binding(toks, i, close),
                bare,
            });
        }
    }
    acqs
}

/// Walks back over `recv . field . method` chains to name the lock: the
/// identifier immediately left of the final `.`, plus whether that
/// identifier is bare (not itself a field access).
fn receiver_name(toks: &[Token], method_idx: usize) -> Option<(String, bool)> {
    // toks[method_idx - 1] is the `.`; the receiver ends at method_idx - 2.
    let mut k = method_idx.checked_sub(2)?;
    if toks[k].kind == TokKind::Close {
        // `foo(..).lock()` / `deques[i].lock()` — name by the identifier
        // before the balanced group.
        if !matches!(toks[k].text.as_str(), ")" | "]") {
            return None;
        }
        k = group_open(toks, k)?.checked_sub(1)?;
    }
    if toks[k].kind != TokKind::Ident {
        return None;
    }
    let bare = !(k > 0 && toks[k - 1].is_op("."));
    Some((toks[k].text.clone(), bare))
}

/// When the statement containing token `i` is `let [mut] NAME = ...` and
/// the lock call (whose argument list ends just before `after`) is the
/// *end* of the expression chain, returns NAME — i.e. the guard itself is
/// bound and outlives the statement. A continued chain
/// (`let n = m.lock().len();`) binds the chain's result instead; the guard
/// is a temporary that dies at the end of the statement.
pub(crate) fn guard_binding(toks: &[Token], i: usize, after: usize) -> Option<String> {
    if toks.get(after).is_some_and(|t| t.is_op(".")) {
        return None;
    }
    let_name(toks, i).map(str::to_string)
}

/// Scans forward from a guard's acquisition for a blocking call while the
/// guard is live (until its enclosing block closes or `drop(guard)`).
fn wait_while_guard_live(
    file: &SourceFile,
    acq: &Acquisition,
    fn_end: usize,
) -> Option<(u32, String)> {
    let toks = &file.tokens;
    let var = acq.guard_var.as_deref()?;
    let mut depth = 0i32;
    let mut i = acq.idx;
    while i < fn_end.min(toks.len()) {
        let t = &toks[i];
        match t.kind {
            TokKind::Open if t.text == "{" => depth += 1,
            TokKind::Close if t.text == "}" => {
                depth -= 1;
                if depth < 0 {
                    return None; // guard's block closed
                }
            }
            TokKind::Ident if t.text == "drop" => {
                // `drop(var)` releases the guard early.
                if toks.get(i + 1).map(|t| t.text.as_str()) == Some("(")
                    && toks.get(i + 2).is_some_and(|t| t.is_ident(var))
                    && toks.get(i + 3).map(|t| t.text.as_str()) == Some(")")
                {
                    return None;
                }
            }
            TokKind::Ident
                if matches!(t.text.as_str(), "recv" | "recv_timeout" | "join")
                    && is_method_call(toks, i) =>
            {
                return Some((t.line, t.text.clone()));
            }
            _ => {}
        }
        i += 1;
    }
    None
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

    fn findings(src: &str) -> Vec<(String, u32)> {
        let file = SourceFile::parse("crates/mpint/src/x.rs", src);
        let mut out = Vec::new();
        check_ct(&file, &mut out);
        check_panics(&file, &mut out);
        check_locks(&file, &mut out);
        out.into_iter().map(|f| (f.rule, f.line)).collect()
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
        let src = "\
fn f(&self) {
    let g = lock(&self.state);
    let msg = self.rx.recv();
}
";
        let got = findings(src);
        assert!(got.contains(&("ld-wait".into(), 3)), "{got:?}");
    }

    #[test]
    fn chained_let_binds_the_result_not_the_guard() {
        // `let n = ...lock().len();` binds the length; the guard is a
        // temporary dead at the `;`, so the recv is fine.
        let src = "fn f(&self) { let n = self.state.lock().len(); self.rx.recv(); }";
        assert!(findings(src).iter().all(|(r, _)| r != "ld-wait"));
    }

    #[test]
    fn acquisition_shapes_and_bareness() {
        let file = SourceFile::parse(
            "crates/x/src/a.rs",
            "fn f(&self, m: &M) {\n    let a = self.stats.lock();\n    let b = lock(&self.table);\n    let c = m.lock();\n    let d = self.deques[0].lock();\n}\n",
        );
        let acqs = find_acquisitions(&file, file.fns[0].body_start, file.fns[0].body_end);
        let got: Vec<(&str, bool)> = acqs.iter().map(|a| (a.name.as_str(), a.bare)).collect();
        assert_eq!(
            got,
            vec![
                ("stats", false),
                ("table", false),
                ("m", true),
                ("deques", false),
            ]
        );
    }

    #[test]
    fn lock_fn_definition_is_not_an_acquisition() {
        let file = SourceFile::parse(
            "crates/x/src/a.rs",
            "fn lock<T>(m: &Mutex<T>) -> Guard<'_, T> { m.lock() }\n",
        );
        let acqs = find_acquisitions(&file, 0, file.tokens.len());
        // Only the body's `m.lock()` — the `fn lock` item itself is not one.
        assert_eq!(acqs.len(), 1);
        assert!(acqs[0].bare);
    }

    #[test]
    fn ld_wait_guard_across_recv() {
        let src = "\
fn f(&self) {
    let g = self.state.lock();
    let msg = self.rx.recv();
}
fn ok(&self) {
    let g = self.state.lock();
    drop(g);
    let msg = self.rx.recv();
}
fn scoped(&self) {
    { let g = self.state.lock(); }
    let msg = self.rx.recv();
}
";
        let got = findings(src);
        let waits: Vec<_> = got.iter().filter(|(r, _)| r == "ld-wait").collect();
        assert_eq!(waits, vec![&("ld-wait".to_string(), 3)]);
    }

    #[test]
    fn ld_transient_chained_guard_is_not_held() {
        let src = "fn f(&self) { self.stats.lock().bump(); self.rx.recv(); }";
        assert!(findings(src).iter().all(|(r, _)| r != "ld-wait"));
    }

    #[test]
    fn ld_read_with_args_is_not_a_lock() {
        let src = "fn f(&self) { self.file.read(buf); self.rw.read(); self.rx.recv(); }";
        let got = findings(src);
        // `rw.read()` is a lock acquisition but transient; `file.read(buf)` is IO.
        assert!(got.iter().all(|(r, _)| r != "ld-wait"));
    }
}
