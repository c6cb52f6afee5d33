//! Hand-rolled Rust lexer.
//!
//! flcheck carries **zero external dependencies** (the build environment
//! has no registry access), so instead of `syn` it tokenizes Rust source
//! directly. The lexer understands everything needed to walk real-world
//! code reliably: line/block comments (nested), string/char/byte/raw-string
//! literals, lifetimes vs char literals, numeric literals, multi-character
//! operators, and bracket kinds — each token tagged with its 1-based line.
//!
//! Comments are returned out-of-band (they carry `flcheck:` directives);
//! the token stream itself is comment-free so rules never trip on
//! violations quoted inside docs.

/// Token kinds relevant to the rule engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Numeric literal.
    Num,
    /// String / char / byte literal (contents not preserved).
    Lit,
    /// Lifetime such as `'a`.
    Lifetime,
    /// Operator or punctuation; multi-character operators are single
    /// tokens (`==`, `!=`, `<=`, `>=`, `&&`, `||`, `->`, `=>`, `::`,
    /// `..`, `..=`).
    Op,
    /// `(`, `[`, `{`.
    Open,
    /// `)`, `]`, `}`.
    Close,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Token {
    /// Kind tag.
    pub kind: TokKind,
    /// Source text (for `Lit`, a placeholder; contents are irrelevant).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
}

impl Token {
    /// True when this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True when this token is the operator/punctuation `s`.
    pub fn is_op(&self, s: &str) -> bool {
        self.kind == TokKind::Op && self.text == s
    }
}

/// A comment with its location (directives are parsed from these).
#[derive(Debug, Clone)]
pub struct Comment {
    /// Comment text without the `//` / `/*` markers.
    pub text: String,
    /// 1-based line on which the comment starts.
    pub line: u32,
}

/// Lexer output: code tokens plus out-of-band comments.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Comment-free token stream.
    pub tokens: Vec<Token>,
    /// All comments, in source order.
    pub comments: Vec<Comment>,
}

/// Multi-character operators, each one token; `..=` comes before `..`
/// so the longer one wins.
const OPS: &[&str] = &[
    "..=", "==", "!=", "<=", ">=", "&&", "||", "->", "=>", "::", "..", "+=", "-=", "*=", "/=",
    "%=", "^=", "|=", "&=", "<<", ">>",
];

/// Tokenizes `src`. Unterminated constructs consume to end-of-file rather
/// than erroring: an analyzer must degrade gracefully on torn input.
pub fn lex(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let at = |j: usize| bytes.get(j).copied();
    // Every cut falls on a char boundary; a torn one reads as "".
    let text = |a: usize, b: usize| src.get(a..b).unwrap_or_default().to_string();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;

    macro_rules! push_tok {
        ($kind:expr, $text:expr, $line:expr) => {
            out.tokens.push(Token {
                kind: $kind,
                text: $text,
                line: $line,
            })
        };
    }

    while let Some(b) = at(i) {
        let start_line = line;
        match b {
            b'\n' => {
                line += 1;
                i += 1;
            }
            _ if (b as char).is_whitespace() => i += 1,
            b'/' if at(i + 1) == Some(b'/') => {
                let begin = i + 2;
                i = bytes
                    .iter()
                    .skip(begin)
                    .position(|&b| b == b'\n')
                    .map_or(bytes.len(), |p| begin + p);
                out.comments.push(Comment {
                    text: text(begin, i),
                    line: start_line,
                });
            }
            b'/' if at(i + 1) == Some(b'*') => {
                let begin = i + 2;
                let mut depth = 1;
                i += 2;
                while depth > 0 {
                    match (at(i), at(i + 1)) {
                        (None, _) => break,
                        (Some(b'/'), Some(b'*')) => {
                            depth += 1;
                            i += 2;
                        }
                        (Some(b'*'), Some(b'/')) => {
                            depth -= 1;
                            i += 2;
                        }
                        (Some(b), _) => {
                            if b == b'\n' {
                                line += 1;
                            }
                            i += 1;
                        }
                    }
                }
                out.comments.push(Comment {
                    text: text(begin, i.saturating_sub(2).max(begin)),
                    line: start_line,
                });
            }
            b'"' => {
                i = skip_string(bytes, i, &mut line);
                push_tok!(TokKind::Lit, "\"..\"".to_string(), start_line);
            }
            b'r' | b'b' if is_raw_or_byte_string(bytes, i) => {
                i = skip_raw_or_byte_string(bytes, i, &mut line);
                push_tok!(TokKind::Lit, "\"..\"".to_string(), start_line);
            }
            b'\'' => {
                // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                if let Some(end) = char_literal_end(bytes, i) {
                    i = end;
                    push_tok!(TokKind::Lit, "'..'".to_string(), start_line);
                } else {
                    let j = ident_end(bytes, i + 1);
                    push_tok!(TokKind::Lifetime, text(i, j), start_line);
                    i = j;
                }
            }
            b'r' if at(i + 1) == Some(b'#')
                && at(i + 2).is_some_and(|b| is_ident_char(b) && !b.is_ascii_digit()) =>
            {
                // Raw identifier `r#fn`: one Ident token whose text keeps the
                // `r#` prefix, so `r#fn` never masquerades as the `fn` keyword.
                let begin = i;
                i = ident_end(bytes, i + 2);
                push_tok!(TokKind::Ident, text(begin, i), start_line);
            }
            _ if b.is_ascii_alphabetic() || b == b'_' => {
                let begin = i;
                i = ident_end(bytes, i);
                push_tok!(TokKind::Ident, text(begin, i), start_line);
            }
            _ if b.is_ascii_digit() => {
                let begin = i;
                // `1..8` must not swallow the range dots.
                while at(i).is_some_and(|b| is_ident_char(b) || b == b'.')
                    && !(at(i) == Some(b'.') && at(i + 1) == Some(b'.'))
                {
                    i += 1;
                }
                push_tok!(TokKind::Num, text(begin, i), start_line);
            }
            b'(' | b'[' | b'{' => {
                push_tok!(TokKind::Open, (b as char).to_string(), start_line);
                i += 1;
            }
            b')' | b']' | b'}' => {
                push_tok!(TokKind::Close, (b as char).to_string(), start_line);
                i += 1;
            }
            _ => {
                // An operator, or any other char, however many bytes it takes.
                let rest = src.get(i..).unwrap_or_default();
                let len = OPS
                    .iter()
                    .find(|op| rest.starts_with(**op))
                    .map_or(utf8_len(b), |op| op.len());
                push_tok!(TokKind::Op, text(i, i + len), start_line);
                i += len;
            }
        }
    }
    out
}

fn is_ident_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The index one past the identifier characters from `from` on.
fn ident_end(bytes: &[u8], from: usize) -> usize {
    bytes
        .iter()
        .skip(from)
        .position(|&b| !is_ident_char(b))
        .map_or(bytes.len(), |p| from + p)
}

/// Is `r"`, `r#"`, `br"`, `b"`, `b'`... a raw/byte string starting here?
fn is_raw_or_byte_string(bytes: &[u8], i: usize) -> bool {
    let at = |j: usize| bytes.get(j).copied();
    let mut j = i;
    if at(j) == Some(b'b') {
        j += 1;
    }
    if at(j) == Some(b'r') {
        j += 1;
        while at(j) == Some(b'#') {
            j += 1;
        }
    }
    j > i && (at(j) == Some(b'"') || (at(j) == Some(b'\'') && at(i) == Some(b'b')))
}

fn skip_string(bytes: &[u8], mut i: usize, line: &mut u32) -> usize {
    i += 1; // opening quote
    while let Some(&b) = bytes.get(i) {
        match b {
            b'\\' => {
                // An escaped newline (line continuation) still ends a line.
                if bytes.get(i + 1) == Some(&b'\n') {
                    *line += 1;
                }
                i += 2;
            }
            b'\n' => {
                *line += 1;
                i += 1;
            }
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

fn skip_raw_or_byte_string(bytes: &[u8], mut i: usize, line: &mut u32) -> usize {
    let at = |j: usize| bytes.get(j).copied();
    if at(i) == Some(b'b') {
        i += 1;
    }
    if at(i) == Some(b'\'') {
        // Byte char literal `b'x'`; an escape consumes the *next* byte too,
        // so `b'\''` does not stop at the escaped quote.
        i += 1;
        if at(i) == Some(b'\\') {
            i += 2;
        }
        while at(i).is_some_and(|b| b != b'\'') {
            i += 1;
        }
        return (i + 1).min(bytes.len());
    }
    let mut hashes = 0usize;
    if at(i) == Some(b'r') {
        i += 1;
        while at(i) == Some(b'#') {
            hashes += 1;
            i += 1;
        }
    }
    if at(i) == Some(b'"') {
        i += 1;
        // The string ends at the first `"` followed by all its hashes.
        while let Some(b) = at(i) {
            if b == b'\n' {
                *line += 1;
            }
            if b == b'"' && (1..=hashes).all(|k| at(i + k) == Some(b'#')) {
                return i + 1 + hashes;
            }
            i += 1;
        }
    }
    i
}

/// Returns the index one past a char literal starting at `i` (which holds
/// `'`), or `None` when this is a lifetime instead.
fn char_literal_end(bytes: &[u8], i: usize) -> Option<usize> {
    let first = *bytes.get(i + 1)?;
    if first == b'\\' {
        // escaped char: scan to closing quote
        let close = bytes.iter().skip(i + 3).position(|&b| b == b'\'')?;
        return Some(i + 3 + close + 1);
    }
    // `'x'` — one scalar then a quote. Multi-byte UTF-8 chars allowed.
    // `'a'` is a char literal; but `'a' ` in `x<'a>` can't occur since
    // lifetimes in angle brackets are not followed by `'`.
    let close = i + 1 + utf8_len(first);
    (bytes.get(close) == Some(&b'\'')).then_some(close + 1)
}

fn utf8_len(b: u8) -> usize {
    if b < 0x80 {
        1
    } else if b >> 5 == 0b110 {
        2
    } else if b >> 4 == 0b1110 {
        3
    } else {
        4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_are_out_of_band() {
        let l = lex("fn a() {} // trailing unwrap()\n/* block\nunwrap */ fn b() {}");
        assert_eq!(
            idents("fn a() {} // x\nfn b() {}"),
            vec!["fn", "a", "fn", "b"]
        );
        assert_eq!(l.comments.len(), 2);
        assert_eq!(l.comments[0].line, 1);
        assert_eq!(l.comments[1].line, 2);
        assert!(l.comments[0].text.contains("unwrap"));
    }

    #[test]
    fn strings_hide_their_contents() {
        let src = "let s = \"call .unwrap() now\"; let r = r\"also.unwrap()\"; \
                   let h = r#\"hash.unwrap()\"#; let b = b\"byte.unwrap()\";";
        let l = lex(src);
        assert!(!l.tokens.iter().any(|t| t.is_ident("unwrap")));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) { let c = 'x'; let nl = '\\n'; }");
        let lifetimes: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        let lits = l.tokens.iter().filter(|t| t.kind == TokKind::Lit).count();
        assert_eq!(lits, 2);
    }

    #[test]
    fn multichar_ops_are_single_tokens() {
        let l = lex("a == b && c <= d .. e ..= f");
        let ops: Vec<_> = l
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Op)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(ops, vec!["==", "&&", "<=", "..", "..="]);
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "let a = \"x\ny\";\nlet b = 1;";
        let l = lex(src);
        let b = l.tokens.iter().find(|t| t.is_ident("b")).expect("b");
        assert_eq!(b.line, 3);
    }

    #[test]
    fn numeric_literals_do_not_eat_range_dots() {
        let l = lex("for i in 0..8 {}");
        assert!(l.tokens.iter().any(|t| t.is_op("..")));
        assert!(l
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Num && t.text == "0"));
        assert!(l
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Num && t.text == "8"));
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* a /* b */ c */ fn f() {}");
        assert_eq!(idents("/* a /* b */ c */ fn f() {}"), vec!["fn", "f"]);
        assert_eq!(l.comments.len(), 1);
    }

    #[test]
    fn nested_block_comments_swallow_lock_syntax() {
        // Code inside a nested block comment must not leak tokens: a
        // phantom ident here would reach the rules as code that does not
        // exist.
        let src = "/* outer /* let g = self.deques.lock(); */ Mutex::new(0) */ fn f() {}";
        let l = lex(src);
        assert_eq!(idents(src), vec!["fn", "f"]);
        assert!(!l.tokens.iter().any(|t| t.is_ident("lock")));
        assert!(!l.tokens.iter().any(|t| t.is_ident("Mutex")));
        // The whole nested construct is one comment, closed at the outer
        // `*/` — not at the inner one.
        assert_eq!(l.comments.len(), 1);
        assert!(l.comments[0].text.contains("Mutex"));
    }

    #[test]
    fn raw_strings_swallow_lock_syntax() {
        // Raw strings (any hash depth) quoting code must not produce its
        // idents or call shapes.
        let src = "let a = r\"self.deques.lock()\"; \
                   let b = r#\"Mutex::new(lock(&x))\"#; \
                   let c = br##\"table.lock() /* \"# */\"##;";
        let l = lex(src);
        assert!(!l.tokens.iter().any(|t| t.is_ident("lock")));
        assert!(!l.tokens.iter().any(|t| t.is_ident("Mutex")));
        assert!(!l.tokens.iter().any(|t| t.is_ident("deques")));
        assert_eq!(
            idents(src),
            vec!["let", "a", "let", "b", "let", "c"],
            "raw-string contents must stay out of the ident stream"
        );
        // No comment is opened by the `/*` inside the raw string.
        assert!(l.comments.is_empty());
    }

    /// Full (kind, text) stream — the parser consumes exactly this.
    fn stream(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn token_stream_lifetimes_vs_char_literals() {
        use TokKind::*;
        // `'a` (lifetime), `'a'` (char), `'\''` (escaped char), `'_`
        // (anonymous lifetime), labeled loop `'outer:` — every quote form
        // the parser can meet in a signature or body.
        let got = stream("fn f<'a>(x: &'a u8) { let c = 'a'; let q = '\\''; 'outer: loop {} }");
        let want: Vec<(TokKind, &str)> = vec![
            (Ident, "fn"),
            (Ident, "f"),
            (Op, "<"),
            (Lifetime, "'a"),
            (Op, ">"),
            (Open, "("),
            (Ident, "x"),
            (Op, ":"),
            (Op, "&"),
            (Lifetime, "'a"),
            (Ident, "u8"),
            (Close, ")"),
            (Open, "{"),
            (Ident, "let"),
            (Ident, "c"),
            (Op, "="),
            (Lit, "'..'"),
            (Op, ";"),
            (Ident, "let"),
            (Ident, "q"),
            (Op, "="),
            (Lit, "'..'"),
            (Op, ";"),
            (Lifetime, "'outer"),
            (Op, ":"),
            (Ident, "loop"),
            (Open, "{"),
            (Close, "}"),
            (Close, "}"),
        ];
        let want: Vec<(TokKind, String)> = want.into_iter().map(|(k, t)| (k, t.into())).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn token_stream_nested_block_comments() {
        use TokKind::*;
        // Nesting must balance: an unwrap() two comment levels deep stays
        // out-of-band, and the token after the comment keeps its line.
        let src = "let a = 1; /* x /* y.unwrap() */ /* z */ w */ let b = 2;";
        let got = stream(src);
        let want: Vec<(TokKind, String)> = [
            (Ident, "let"),
            (Ident, "a"),
            (Op, "="),
            (Num, "1"),
            (Op, ";"),
            (Ident, "let"),
            (Ident, "b"),
            (Op, "="),
            (Num, "2"),
            (Op, ";"),
        ]
        .into_iter()
        .map(|(k, t)| (k, t.to_string()))
        .collect();
        assert_eq!(got, want);
        let l = lex(src);
        // One top-level comment: both inner `/* .. */` pairs nest inside it.
        assert_eq!(l.comments.len(), 1);
        assert!(l.comments[0].text.contains("unwrap"));
    }

    #[test]
    fn token_stream_raw_strings_with_hashes() {
        use TokKind::*;
        // `r##"..."#..."##` must not terminate at the single-hash quote,
        // and a raw byte string `br#".."#` is one literal.
        let src = "let s = r##\"quote \"# inside\"##; let b = br#\"x.unwrap()\"#; done();";
        let got = stream(src);
        let want: Vec<(TokKind, String)> = [
            (Ident, "let"),
            (Ident, "s"),
            (Op, "="),
            (Lit, "\"..\""),
            (Op, ";"),
            (Ident, "let"),
            (Ident, "b"),
            (Op, "="),
            (Lit, "\"..\""),
            (Op, ";"),
            (Ident, "done"),
            (Open, "("),
            (Close, ")"),
            (Op, ";"),
        ]
        .into_iter()
        .map(|(k, t)| (k, t.to_string()))
        .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn escaped_byte_char_does_not_leak_a_stray_quote() {
        // `b'\''` once left the closing quote behind, poisoning everything
        // after it into a bogus lifetime/char run.
        let got = stream("let q = b'\\''; next();");
        assert!(
            got.iter().any(|(k, t)| *k == TokKind::Ident && t == "next"),
            "{got:?}"
        );
        assert!(
            !got.iter().any(|(k, _)| *k == TokKind::Lifetime),
            "no stray lifetime: {got:?}"
        );
    }

    #[test]
    fn raw_identifiers_do_not_masquerade_as_keywords() {
        let got = stream("let r#fn = 1; call(r#match);");
        assert!(got.iter().any(|(k, t)| *k == TokKind::Ident && t == "r#fn"));
        assert!(
            !got.iter().any(|(k, t)| *k == TokKind::Ident && t == "fn"),
            "r#fn must not produce a bare `fn` token: {got:?}"
        );
    }

    #[test]
    fn escaped_newline_in_string_counts_lines() {
        let l = lex("let s = \"a\\\nb\";\nlet t = 1;");
        let t = l.tokens.iter().find(|t| t.is_ident("t")).expect("t");
        assert_eq!(t.line, 3);
    }

    #[test]
    fn a_multibyte_char_in_code_is_one_token() {
        // A three-byte char outside a comment or string was once cut at
        // two bytes, off its char boundary: a panic mid-scan.
        let got = stream("let a = b → c;");
        assert!(got.contains(&(TokKind::Op, "→".to_string())), "{got:?}");
        assert!(got.iter().any(|(k, t)| *k == TokKind::Ident && t == "c"));
    }
}
