//! The two token-level rule families.
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

use crate::lexer::{TokKind, Token};
use crate::source::{match_brace, SourceFile};

/// Every rule id either family can emit, sorted. An allow naming
/// anything else suppresses nothing.
pub const RULES: &[&str] = &[
    "ct-branch",
    "ct-compare",
    "ct-return",
    "ct-shortcircuit",
    "pf-assert",
];

/// One rule violation. The fields are in sort order: findings order by
/// (file, line, rule, message).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id, one of [`RULES`].
    pub rule: String,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// Convenience constructor.
    pub fn new(rule: &str, file: &str, line: u32, message: impl Into<String>) -> Finding {
        Finding {
            file: file.to_string(),
            line,
            rule: rule.to_string(),
            message: message.into(),
        }
    }
}

/// Runs the ct-discipline family over every `ct-fn` in the file.
pub fn check_ct(file: &SourceFile, out: &mut Vec<Finding>) {
    for f in file.fns.iter().filter(|f| f.is_ct) {
        let toks = &file.tokens;
        let mut i = f.body_start;
        while let Some(t) = toks.get(i).filter(|_| i < f.body_end) {
            if let Some(skip) = debug_assert_span(toks, i) {
                i = skip;
                continue;
            }
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
    while let Some(t) = toks.get(i) {
        if file.in_test_region(i) {
            i += 1;
            continue;
        }
        if let Some(skip) = debug_assert_span(toks, i) {
            i = skip;
            continue;
        }
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

/// `.name(` — an identifier preceded by `.` and followed by `(`.
fn is_method_call(toks: &[Token], i: usize) -> bool {
    i.checked_sub(1)
        .and_then(|p| toks.get(p))
        .is_some_and(|t| t.is_op("."))
        && toks.get(i + 1).is_some_and(|t| t.text == "(")
}

/// `name!(` / `name![` / `name!{` — a macro invocation.
fn is_macro_bang(toks: &[Token], i: usize) -> bool {
    toks.get(i + 1).is_some_and(|t| t.is_op("!"))
        && toks.get(i + 2).is_some_and(|t| t.kind == TokKind::Open)
}

/// When `i` starts a `debug_assert*!(...)` invocation, returns the index
/// one past its closing delimiter.
pub(crate) fn debug_assert_span(toks: &[Token], i: usize) -> Option<usize> {
    let t = toks.get(i)?;
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
}
