//! Per-file source model: lexed tokens plus parsed `flcheck:` directives,
//! extracted function spans, and `#[cfg(test)]` / `#[test]` regions.
//!
//! Directive grammar (inside any `//` or `/* */` comment):
//!
//! ```text
//! flcheck: ct-fn                      mark the next `fn` as a constant-time region
//! flcheck: allow(rule-a, rule-b)      suppress rules on this line and the next
//! flcheck: allow-file(rule-a)         suppress a rule for the whole file
//! ```

use crate::lexer::{lex, Comment, TokKind, Token};
use std::collections::{BTreeMap, BTreeSet};

/// A function item found in the token stream.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index of the body's opening `{` (exclusive of the brace).
    pub body_start: usize,
    /// Token index of the matching `}` (exclusive).
    pub body_end: usize,
    /// Marked `ct-fn` by a directive above it: a constant-time region.
    pub is_ct: bool,
}

/// A fully analyzed source file, ready for the rules.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root (forward slashes).
    pub rel_path: String,
    /// Comment-free token stream.
    pub tokens: Vec<Token>,
    /// Per-line rule suppressions: line -> set of rule ids.
    pub allow_lines: BTreeMap<u32, BTreeSet<String>>,
    /// File-wide rule suppressions.
    pub allow_file: BTreeSet<String>,
    /// Extracted function spans (including `is_ct` marking).
    pub fns: Vec<FnSpan>,
    /// Token-index ranges `[start, end)` that belong to test code.
    pub test_regions: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Lexes and analyzes one file.
    pub fn parse(rel_path: &str, src: &str) -> SourceFile {
        let lexed = lex(src);
        let mut file = SourceFile {
            rel_path: rel_path.to_string(),
            tokens: lexed.tokens,
            allow_lines: BTreeMap::new(),
            allow_file: BTreeSet::new(),
            fns: Vec::new(),
            test_regions: Vec::new(),
        };
        let ct_marks = file.parse_directives(&lexed.comments);
        file.extract_fns(&ct_marks);
        file.extract_test_regions();
        file
    }

    /// True when `rule` is suppressed at `line` (by a line allow on the
    /// same or the preceding line, or by a file-wide allow).
    pub fn is_allowed(&self, rule: &str, line: u32) -> bool {
        if self.allow_file.contains(rule) {
            return true;
        }
        self.allow_lines
            .get(&line)
            .is_some_and(|rules| rules.contains(rule))
    }

    /// True when token index `idx` falls inside a test region.
    pub fn in_test_region(&self, idx: usize) -> bool {
        self.test_regions.iter().any(|&(s, e)| idx >= s && idx < e)
    }

    /// Parses all directives out of the comments; returns the lines the
    /// `ct-fn` markers sit on. Malformed directives drop silently.
    fn parse_directives(&mut self, comments: &[Comment]) -> Vec<u32> {
        let mut ct_marks = Vec::new();
        for c in comments {
            // Anchor at the start (after doc-comment markers) so prose that
            // merely *mentions* a directive does not register one.
            let anchored = c.text.trim_start_matches(['!', '/', ' ', '\t']);
            let Some(body) = anchored.strip_prefix("flcheck:") else {
                continue;
            };
            let body = body.trim();
            let call = |name: &str| strip_call(body, name);
            if body.starts_with("ct-fn") {
                ct_marks.push(c.line);
            } else if let Some(args) = call("allow-file") {
                self.allow_file
                    .extend(args.split(',').map(|r| r.trim().to_string()));
            } else if let Some(args) = call("allow") {
                // Applies to the comment's own line (trailing comment)
                // and the next line (standalone comment above code).
                for rule in args.split(',') {
                    for line in [c.line, c.line + 1] {
                        let rules = self.allow_lines.entry(line).or_default();
                        rules.insert(rule.trim().to_string());
                    }
                }
            }
        }
        ct_marks
    }

    /// Walks the token stream extracting `fn` items and their body spans.
    fn extract_fns(&mut self, ct_marks: &[u32]) {
        let toks = &self.tokens;
        let mut i = 0usize;
        while let Some(t) = toks.get(i) {
            if !t.is_ident("fn") {
                i += 1;
                continue;
            }
            // Name is the next identifier (skips nothing in practice).
            let Some((name_idx, name)) = toks
                .iter()
                .enumerate()
                .skip(i + 1)
                .find(|(_, t)| t.kind == TokKind::Ident)
            else {
                break;
            };
            match item_body(toks, name_idx + 1) {
                Ok(open) => {
                    self.fns.push(FnSpan {
                        name: name.text.clone(),
                        line: t.line,
                        body_start: open + 1,
                        body_end: match_brace(toks, open),
                        is_ct: false,
                    });
                    i = open + 1; // nested fns get their own entries
                }
                Err(stop) => i = stop.max(i + 1),
            }
        }
        // A `ct-fn` marker applies to the first fn that starts after it.
        for &line in ct_marks {
            if let Some(f) = self
                .fns
                .iter_mut()
                .filter(|f| f.line > line)
                .min_by_key(|f| f.line)
            {
                f.is_ct = true;
            }
        }
    }

    /// Finds `#[cfg(test)] mod .. { .. }` blocks and `#[test] fn` /
    /// `#[cfg(test)] fn` bodies.
    fn extract_test_regions(&mut self) {
        let toks = &self.tokens;
        let mut i = 0usize;
        while i < toks.len() {
            let Some(attr_end) = attribute_end(toks, i) else {
                i += 1;
                continue;
            };
            let inner: Vec<&str> = toks
                .get(i + 2..attr_end.saturating_sub(1))
                .unwrap_or_default()
                .iter()
                .map(|t| t.text.as_str())
                .collect();
            let is_test_attr = inner == ["test"]
                || (inner.len() >= 4
                    && inner.first() == Some(&"cfg")
                    && inner.contains(&"test")
                    && !inner.contains(&"not"));
            if !is_test_attr {
                i = attr_end;
                continue;
            }
            // Skip any further attributes between this one and the item.
            let mut k = attr_end;
            while let Some(end) = attribute_end(toks, k) {
                k = end;
            }
            // The item's body is a mod or fn body; a `;` first (e.g.
            // `#[cfg(test)] use ...;`) means no region.
            match item_body(toks, k) {
                Ok(open) => {
                    let close = match_brace(toks, open);
                    self.test_regions.push((i, close));
                    i = close;
                }
                Err(stop) => i = stop.max(attr_end),
            }
        }
    }
}

/// `strip_call("allow(a, b) trailing", "allow")` -> `Some("a, b")`.
fn strip_call<'a>(body: &'a str, name: &str) -> Option<&'a str> {
    let rest = body.strip_prefix(name)?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix('(')?;
    rest.split(')').next()
}

/// When token `i` opens an attribute `#[..]`, the index one past its `]`.
fn attribute_end(toks: &[Token], i: usize) -> Option<usize> {
    let opens = toks.get(i)?.is_op("#") && toks.get(i + 1)?.text == "[";
    opens.then(|| match_brace(toks, i + 1))
}

/// The index of the first `{` at zero paren/bracket depth from `from`
/// on: an item's body. `Err` carries where the search stopped instead,
/// at a `;` at zero depth (a trait method declaration or an extern item
/// has no body) or at the end of the stream.
fn item_body(toks: &[Token], from: usize) -> Result<usize, usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(from) {
        match t.kind {
            TokKind::Open if t.text != "{" => depth += 1,
            TokKind::Close if t.text != "}" => depth -= 1,
            TokKind::Open if depth == 0 => return Ok(j),
            TokKind::Op if t.text == ";" && depth == 0 => return Err(j),
            _ => {}
        }
    }
    Err(toks.len())
}

/// Given the index of an `Open` token, returns the index one past its
/// matching `Close` (or `tokens.len()` when unbalanced).
pub fn match_brace(tokens: &[Token], open_idx: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(open_idx) {
        match t.kind {
            TokKind::Open => depth += 1,
            TokKind::Close => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
    }
    tokens.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directives_parse() {
        let src = "\
// flcheck: allow-file(pf-assert)
// flcheck: allow-file(ct-return, ct-branch)
fn a() {
    assert!(x); // flcheck: allow(ct-compare)
}
// flcheck: ct-fn
fn b() {}
";
        let f = SourceFile::parse("x.rs", src);
        let whole: Vec<&str> = f.allow_file.iter().map(String::as_str).collect();
        assert_eq!(whole, ["ct-branch", "ct-return", "pf-assert"]);
        assert!(f.is_allowed("ct-compare", 4));
        assert!(!f.is_allowed("ct-compare", 3));
        let b = f.fns.iter().find(|f| f.name == "b").expect("fn b");
        assert!(b.is_ct);
        let a = f.fns.iter().find(|f| f.name == "a").expect("fn a");
        assert!(!a.is_ct);
    }

    #[test]
    fn allow_applies_to_next_line() {
        let src = "fn a() {\n    // flcheck: allow(ct-compare)\n    let x = 1 == 2;\n}\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(f.is_allowed("ct-compare", 3));
        assert!(!f.is_allowed("ct-compare", 4));
    }

    #[test]
    fn directives_inside_block_comments_do_not_register() {
        // A ct-fn directive quoted inside a (nested) block comment is
        // prose, not a marker: it must not mark the next fn.
        let src = "\
/* discussion: /* flcheck: ct-fn */ see the directive grammar */
fn f() {}
// flcheck: ct-fn
fn g() {}
";
        let f = SourceFile::parse("x.rs", src);
        assert!(!f.fns[0].is_ct);
        assert!(f.fns[1].is_ct);
    }

    #[test]
    fn ct_marker_skips_attributes() {
        let src = "// flcheck: ct-fn\n#[inline]\n#[must_use]\npub fn masked() -> u64 { 0 }\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(f.fns[0].is_ct);
    }

    #[test]
    fn fn_bodies_are_spanned() {
        let src = "fn outer(a: (u8, u8)) -> u8 { inner() } fn two() {}";
        let f = SourceFile::parse("x.rs", src);
        assert_eq!(f.fns.len(), 2);
        assert_eq!(f.fns[0].name, "outer");
        let body: Vec<_> = f.tokens[f.fns[0].body_start..f.fns[0].body_end - 1]
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(body, vec!["inner", "(", ")"]);
    }

    #[test]
    fn trait_method_declarations_have_no_body() {
        let src = "trait T { fn decl(&self) -> u8; fn with_default(&self) { body() } }";
        let f = SourceFile::parse("x.rs", src);
        let names: Vec<_> = f.fns.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["with_default"]);
    }

    #[test]
    fn cfg_test_mod_is_a_test_region() {
        let src = "\
fn lib_code() { x.unwrap(); }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { y.unwrap(); }
}
";
        let f = SourceFile::parse("x.rs", src);
        // One region: the outer mod subsumes the inner #[test] fn.
        assert_eq!(f.test_regions.len(), 1);
        let unwraps: Vec<usize> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("unwrap"))
            .map(|(i, _)| i)
            .collect();
        assert!(
            !f.in_test_region(unwraps[0]),
            "library unwrap is not in a test"
        );
        assert!(f.in_test_region(unwraps[1]), "test unwrap is in a region");
    }

    #[test]
    fn cfg_test_attr_with_following_attrs() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod tests { fn f() {} }\nfn real() {}";
        let f = SourceFile::parse("x.rs", src);
        assert_eq!(f.test_regions.len(), 1);
        let real_idx = f
            .tokens
            .iter()
            .position(|t| t.is_ident("real"))
            .expect("real");
        assert!(!f.in_test_region(real_idx));
    }

    #[test]
    fn cfg_test_use_has_no_region() {
        let src = "#[cfg(test)]\nuse std::fmt;\nfn f() {}";
        let f = SourceFile::parse("x.rs", src);
        assert!(f.test_regions.is_empty());
    }
}
