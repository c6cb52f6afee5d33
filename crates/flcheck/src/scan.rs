//! Token-level statement scanning shared by the passes.
//!
//! None of the passes parse Rust; they recover just enough statement
//! structure from the bracket-balanced token stream — where a statement
//! starts and ends, where a block header ends, what a `let` binds, where
//! a bracket group opened, where a path starts. Those scans live here,
//! once, so every pass agrees on what a "statement" is.

use crate::lexer::{TokKind, Token};

/// Index of the first token of the statement containing `idx`: the scan
/// walks left to the nearest `;`, `{` or `}`.
pub(crate) fn stmt_start(toks: &[Token], idx: usize) -> usize {
    let mut k = idx;
    while k > 0 {
        let t = &toks[k - 1];
        if (t.kind == TokKind::Op && t.text == ";") || t.text == "{" || t.text == "}" {
            break;
        }
        k -= 1;
    }
    k
}

/// Index of the first segment of the path ending at `idx`: `a` in
/// `a::b::idx`, `idx` itself for a bare name.
pub(crate) fn path_start(toks: &[Token], idx: usize) -> usize {
    let mut k = idx;
    while k >= 2 && toks[k - 1].is_op("::") && toks[k - 2].kind == TokKind::Ident {
        k -= 2;
    }
    k
}

/// End of the statement starting at `s`: the first `;` at relative
/// bracket depth 0, or the bracket that closes the enclosing group (or
/// `limit`).
pub(crate) fn stmt_end(toks: &[Token], s: usize, limit: usize) -> usize {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().take(limit.min(toks.len())).skip(s) {
        match t.kind {
            TokKind::Open => depth += 1,
            TokKind::Close => {
                if depth == 0 {
                    return i;
                }
                depth -= 1;
            }
            TokKind::Op if t.text == ";" && depth == 0 => return i,
            _ => {}
        }
    }
    limit
}

/// End of an `if`/`while`/`match`/`for` header starting at `s`: the
/// first `{` at relative depth 0 (or `limit`).
pub(crate) fn header_end(toks: &[Token], s: usize, limit: usize) -> usize {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().take(limit.min(toks.len())).skip(s) {
        match t.kind {
            TokKind::Open if t.text == "{" && depth == 0 => return i,
            TokKind::Open => depth += 1,
            TokKind::Close => depth -= 1,
            _ => {}
        }
    }
    limit
}

/// The name bound by the statement containing `idx` when it has the
/// shape `let [mut] NAME ..`.
pub(crate) fn let_name(toks: &[Token], idx: usize) -> Option<&str> {
    let k = stmt_start(toks, idx);
    if !toks.get(k)?.is_ident("let") {
        return None;
    }
    let j = k + 1 + usize::from(toks.get(k + 1)?.is_ident("mut"));
    let name = toks.get(j)?;
    (name.kind == TokKind::Ident).then_some(name.text.as_str())
}

/// Keywords that may legally precede a `[` without it being an indexing
/// expression (array literals, returns of arrays, ...).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "return", "in", "if", "else", "match", "loop", "while", "for", "move", "break", "continue",
    "as", "let", "mut", "ref", "where", "unsafe", "dyn", "impl", "const", "static", "type", "fn",
    "use", "pub", "enum", "struct", "trait", "mod",
];

/// Is the `[` at index `i` an indexing expression? True when preceded by a
/// non-keyword identifier, a closing bracket, or `?` — i.e. an expression
/// that produces a value being indexed. `vec![..]` and attributes are not
/// indexing.
pub(crate) fn is_indexing(toks: &[Token], i: usize) -> bool {
    let Some(prev) = i.checked_sub(1).map(|k| &toks[k]) else {
        return false;
    };
    match prev.kind {
        TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
        TokKind::Close => prev.text == ")" || prev.text == "]",
        TokKind::Op => prev.text == "?",
        _ => false,
    }
}

/// Index of the `Open` token matching the `Close` token at `close_idx`
/// (the inverse of [`crate::source::match_brace`]); `None` when
/// unbalanced.
pub(crate) fn group_open(toks: &[Token], close_idx: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut k = close_idx;
    loop {
        match toks[k].kind {
            TokKind::Close => depth += 1,
            TokKind::Open => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
        k = k.checked_sub(1)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn toks(src: &str) -> Vec<Token> {
        lex(src).tokens
    }

    fn at(toks: &[Token], text: &str) -> usize {
        toks.iter().position(|t| t.text == text).expect(text)
    }

    #[test]
    fn statement_bounds_respect_bracket_depth() {
        let t = toks("{ a(); let mut g = f(x; y)[i]; tail }");
        let g = at(&t, "g");
        let start = stmt_start(&t, g);
        assert_eq!(t[start].text, "let");
        let end = stmt_end(&t, g, t.len());
        assert_eq!(t[end].text, ";");
        assert_eq!(t[end - 1].text, "]", "the `;` inside `f(..)` is nested");
        // A statement with no `;` ends at the enclosing group's close.
        let tail = at(&t, "tail");
        assert_eq!(t[stmt_end(&t, tail, t.len())].text, "}");
    }

    #[test]
    fn header_ends_at_the_body_brace_not_a_nested_one() {
        let t = toks("if f(|x| { x }) == y { body }");
        let end = header_end(&t, 1, t.len());
        assert_eq!(t[end + 1].text, "body");
    }

    #[test]
    fn let_name_sees_through_mut_and_rejects_patterns() {
        let t = toks("{ let a = 1; let mut b = 2; let (c, d) = e; f = 3; }");
        assert_eq!(let_name(&t, at(&t, "1")), Some("a"));
        assert_eq!(let_name(&t, at(&t, "2")), Some("b"));
        assert_eq!(let_name(&t, at(&t, "e")), None);
        assert_eq!(let_name(&t, at(&t, "3")), None);
    }

    #[test]
    fn indexing_skips_macros_attrs_and_literals() {
        let t = toks(
            "#[derive(Clone)] fn f() -> [u8; 2] { let v = vec![1, 2]; \
             let arr: [u8; 2] = [0; 2]; return [1, 2]; v[0] + f()[1] }",
        );
        let indexing: Vec<usize> = (0..t.len())
            .filter(|&i| t[i].text == "[" && is_indexing(&t, i))
            .collect();
        let prev: Vec<&str> = indexing.iter().map(|&i| t[i - 1].text.as_str()).collect();
        assert_eq!(prev, vec!["v", ")"], "only `v[0]` and `f()[1]` index");
    }

    #[test]
    fn group_open_inverts_match_brace() {
        let t = toks("a(b[c], (d))");
        let close = t.len() - 1;
        assert_eq!(group_open(&t, close), Some(1));
        assert_eq!(crate::source::match_brace(&t, 1), close + 1);
        assert_eq!(group_open(&toks("a)"), 1), None);
    }
}
