//! Token-level statement scanning shared by the passes.
//!
//! None of the passes parse Rust; they recover just enough statement
//! structure from the bracket-balanced token stream — where a statement
//! starts, where a block header ends, where a bracket group
//! opened, where a path starts. Those scans live here,
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
        // After the enclosing group's open, or the previous `;`.
        assert_eq!(t[stmt_start(&t, at(&t, "tail"))].text, "tail");
        assert_eq!(t[stmt_start(&t, at(&t, "a"))].text, "a");
    }

    #[test]
    fn header_ends_at_the_body_brace_not_a_nested_one() {
        let t = toks("if f(|x| { x }) == y { body }");
        let end = header_end(&t, 1, t.len());
        assert_eq!(t[end + 1].text, "body");
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
