//! Per-file source model: lexed tokens plus parsed `flcheck:` directives,
//! extracted function spans, and `#[cfg(test)]` / `#[test]` regions.
//!
//! Directive grammar (inside any `//` or `/* */` comment):
//!
//! ```text
//! flcheck: ct-fn                      mark the next `fn` as a constant-time region
//! flcheck: secret(a, b)               mark params/locals of the next `fn` as secret
//! flcheck: allow(rule-a, rule-b)      suppress rules on this line and the next
//! flcheck: allow-file(rule-a)         suppress a rule for the whole file
//! flcheck: det-sink                   the next `fn` produces result bytes
//!                                     (report/ciphertext/bench content) that
//!                                     must be deterministic at any thread count
//! flcheck: det-absorb                 the next `fn` only *measures*
//!                                     nondeterminism (timings, pool width);
//!                                     its sources never reach result bytes
//! flcheck: nondet(description)        the next `fn` contains a nondeterminism
//!                                     source the token scan cannot see
//!                                     (e.g. behind FFI); repeatable
//! flcheck: widen-ok(a, b)             narrowing `as` casts in the next `fn`
//!                                     whose source expression mentions one of
//!                                     these identifiers are value-range safe
//!                                     (the named quantity provably fits)
//! flcheck: narrow(description)        the next `fn` performs intentional,
//!                                     justified narrowing (e.g. masked limb
//!                                     splitting); all its narrowing casts
//!                                     are sanctioned
//! ```

use crate::lexer::{lex, Comment, TokKind, Token};
use std::collections::{BTreeMap, BTreeSet};

/// Everything fn-attached directives can say about the next `fn` item.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Markers {
    /// `ct-fn`: a constant-time region.
    pub is_ct: bool,
    /// `secret(..)`: parameters or locals whose values are secret (taint
    /// sources).
    pub secrets: Vec<String>,
    /// `det-sink`: produces result bytes that must be deterministic at
    /// any thread count.
    pub is_det_sink: bool,
    /// `det-absorb`: measures nondeterminism without letting it reach
    /// result bytes.
    pub is_det_absorb: bool,
    /// `nondet(..)` descriptions: opaque nondeterminism sources the token
    /// scan cannot see.
    pub nondets: Vec<String>,
    /// `widen-ok(..)` identifiers: narrowing casts whose source
    /// expression mentions one are exempt (the quantity is known to fit).
    pub widen_ok: Vec<String>,
    /// `narrow(..)` descriptions: the fn performs intentional narrowing
    /// and all its narrowing casts are sanctioned.
    pub narrows: Vec<String>,
}

impl Markers {
    /// Accumulates another directive's facts onto the same fn.
    fn merge(&mut self, o: Markers) {
        self.is_ct |= o.is_ct;
        self.is_det_sink |= o.is_det_sink;
        self.is_det_absorb |= o.is_det_absorb;
        self.secrets.extend(o.secrets);
        self.nondets.extend(o.nondets);
        self.widen_ok.extend(o.widen_ok);
        self.narrows.extend(o.narrows);
    }
}

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
    /// What the `flcheck:` directives above the fn declare about it.
    pub marks: Markers,
}

/// A fully analyzed source file, ready for the rule passes.
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
        let markers = file.parse_directives(&lexed.comments);
        file.extract_fns(markers);
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

    /// Parses all directives out of the comments; returns the fn-attached
    /// ones with the lines they sit on. Malformed directives drop silently.
    fn parse_directives(&mut self, comments: &[Comment]) -> Vec<(u32, Markers)> {
        let mut markers = Vec::new();
        for c in comments {
            // Anchor at the start (after doc-comment markers) so prose that
            // merely *mentions* a directive does not register one.
            let anchored = c
                .text
                .trim_start_matches(|ch| matches!(ch, '!' | '/' | ' ' | '\t'));
            let Some(body) = anchored.strip_prefix("flcheck:") else {
                continue;
            };
            let body = body.trim();
            let call = |name: &str| strip_call(body, name);
            let names = |name: &str| call(name).map(split_names).unwrap_or_default();
            let described = |name: &str| {
                let desc = call(name).map(str::trim).filter(|d| !d.is_empty());
                Vec::from_iter(desc.map(str::to_string))
            };
            if let Some(args) = call("allow-file") {
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
            let m = Markers {
                is_ct: body.starts_with("ct-fn"),
                is_det_sink: body.starts_with("det-sink"),
                is_det_absorb: body.starts_with("det-absorb"),
                secrets: names("secret"),
                widen_ok: names("widen-ok"),
                nondets: described("nondet"),
                narrows: described("narrow"),
            };
            if m != Markers::default() {
                markers.push((c.line, m));
            }
        }
        markers
    }

    /// Walks the token stream extracting `fn` items and their body spans.
    fn extract_fns(&mut self, markers: Vec<(u32, Markers)>) {
        let toks = &self.tokens;
        let mut i = 0usize;
        while i < toks.len() {
            if !toks[i].is_ident("fn") {
                i += 1;
                continue;
            }
            let fn_line = toks[i].line;
            // Name is the next identifier (skips nothing in practice).
            let Some(name_idx) = toks[i + 1..]
                .iter()
                .position(|t| t.kind == TokKind::Ident)
                .map(|p| p + i + 1)
            else {
                break;
            };
            let name = toks[name_idx].text.clone();
            // Find the body's `{`: the first brace at zero paren/bracket
            // depth after the signature. A `;` first means a trait method
            // declaration or extern item — no body.
            let mut depth = 0i32;
            let mut j = name_idx + 1;
            let mut body = None;
            while j < toks.len() {
                let t = &toks[j];
                match t.kind {
                    TokKind::Open if t.text != "{" => depth += 1,
                    TokKind::Close if t.text != "}" => depth -= 1,
                    TokKind::Open if depth == 0 => {
                        body = Some(j);
                        break;
                    }
                    TokKind::Op if t.text == ";" && depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            let Some(body_start) = body else {
                i = j.max(i + 1);
                continue;
            };
            let body_end = match_brace(toks, body_start);
            self.fns.push(FnSpan {
                name,
                line: fn_line,
                body_start: body_start + 1,
                body_end,
                marks: Markers::default(),
            });
            i = body_start + 1; // nested fns get their own entries
        }
        // A fn marker applies to the first fn that starts after it.
        for (line, marks) in markers {
            if let Some(f) = self
                .fns
                .iter_mut()
                .filter(|f| f.line > line)
                .min_by_key(|f| f.line)
            {
                f.marks.merge(marks);
            }
        }
    }

    /// Finds `#[cfg(test)] mod .. { .. }` blocks and `#[test] fn` /
    /// `#[cfg(test)] fn` bodies.
    fn extract_test_regions(&mut self) {
        let toks = &self.tokens;
        let mut i = 0usize;
        while i + 2 < toks.len() {
            if !(toks[i].is_op("#") && toks[i + 1].text == "[") {
                i += 1;
                continue;
            }
            let attr_end = match_brace(toks, i + 1); // index past `]`
            let inner: Vec<&str> = toks[i + 2..attr_end.saturating_sub(1)]
                .iter()
                .map(|t| t.text.as_str())
                .collect();
            let is_test_attr = inner == ["test"]
                || (inner.len() >= 4
                    && inner[0] == "cfg"
                    && inner.contains(&"test")
                    && !inner.contains(&"not"));
            if !is_test_attr {
                i = attr_end;
                continue;
            }
            // Skip any further attributes between this one and the item.
            let mut k = attr_end;
            while k + 1 < toks.len() && toks[k].is_op("#") && toks[k + 1].text == "[" {
                k = match_brace(toks, k + 1);
            }
            // Find the item's opening `{` (mod body or fn body); a `;`
            // first (e.g. `#[cfg(test)] use ...;`) means no region.
            let mut depth = 0i32;
            let mut open = None;
            while k < toks.len() {
                let t = &toks[k];
                match t.kind {
                    TokKind::Open if t.text != "{" => depth += 1,
                    TokKind::Close if t.text != "}" => depth -= 1,
                    TokKind::Open if depth == 0 => {
                        open = Some(k);
                        break;
                    }
                    TokKind::Op if t.text == ";" && depth == 0 => break,
                    _ => {}
                }
                k += 1;
            }
            if let Some(open) = open {
                let close = match_brace(toks, open);
                self.test_regions.push((i, close));
                i = close;
            } else {
                i = k.max(attr_end);
            }
        }
    }
}

/// Splits a comma-separated directive argument list into non-empty names.
fn split_names(args: &str) -> Vec<String> {
    args.split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

/// `strip_call("allow(a, b) trailing", "allow")` -> `Some("a, b")`.
fn strip_call<'a>(body: &'a str, name: &str) -> Option<&'a str> {
    let rest = body.strip_prefix(name)?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix('(')?;
    rest.split(')').next()
}

/// Given the index of an `Open` token, returns the index one past its
/// matching `Close` (or `tokens.len()` when unbalanced).
pub fn match_brace(tokens: &[Token], open_idx: usize) -> usize {
    let mut depth = 0i32;
    for (off, t) in tokens[open_idx..].iter().enumerate() {
        match t.kind {
            TokKind::Open => depth += 1,
            TokKind::Close => {
                depth -= 1;
                if depth == 0 {
                    return open_idx + off + 1;
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
// flcheck: allow-file(lossy-narrow)
// flcheck: allow-file(ct-taint, nondet-in-result)
fn a() {
    assert!(x); // flcheck: allow(pf-assert)
}
// flcheck: ct-fn
fn b() {}
";
        let f = SourceFile::parse("x.rs", src);
        let whole: Vec<&str> = f.allow_file.iter().map(String::as_str).collect();
        assert_eq!(whole, ["ct-taint", "lossy-narrow", "nondet-in-result"]);
        assert!(f.is_allowed("pf-assert", 4));
        assert!(!f.is_allowed("pf-assert", 3));
        let b = f.fns.iter().find(|f| f.name == "b").expect("fn b");
        assert!(b.marks.is_ct);
        let a = f.fns.iter().find(|f| f.name == "a").expect("fn a");
        assert!(!a.marks.is_ct);
    }

    #[test]
    fn allow_applies_to_next_line() {
        let src = "fn a() {\n    // flcheck: allow(ct-compare)\n    let x = 1 == 2;\n}\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(f.is_allowed("ct-compare", 3));
        assert!(!f.is_allowed("ct-compare", 4));
    }

    #[test]
    fn secret_markers_attach_to_the_next_fn() {
        let src = "\
// flcheck: secret(exp)
// flcheck: secret(key , other)
pub fn ladder(base: u64, exp: u64) {}
fn plain(x: u64) {}
";
        let f = SourceFile::parse("x.rs", src);
        let ladder = f.fns.iter().find(|f| f.name == "ladder").expect("ladder");
        assert_eq!(ladder.marks.secrets, vec!["exp", "key", "other"]);
        assert!(!ladder.marks.is_ct, "secret() does not imply ct-fn");
        let plain = f.fns.iter().find(|f| f.name == "plain").expect("plain");
        assert!(plain.marks.secrets.is_empty());
    }

    #[test]
    fn determinism_markers_attach_to_the_next_fn() {
        let src = "\
// flcheck: det-sink
pub fn render_json() -> String { String::new() }
// flcheck: det-absorb
fn record_timing() {}
// flcheck: nondet(os entropy via getrandom)
// flcheck: nondet(cpu frequency scaling)
fn opaque_source() {}
fn unmarked() {}
";
        let f = SourceFile::parse("x.rs", src);
        let by_name = |n: &str| f.fns.iter().find(|f| f.name == n).expect(n);
        assert!(by_name("render_json").marks.is_det_sink);
        assert!(!by_name("render_json").marks.is_det_absorb);
        assert!(by_name("record_timing").marks.is_det_absorb);
        assert_eq!(
            by_name("opaque_source").marks.nondets,
            vec!["os entropy via getrandom", "cpu frequency scaling"]
        );
        let u = by_name("unmarked");
        assert!(!u.marks.is_det_sink && !u.marks.is_det_absorb && u.marks.nondets.is_empty());
    }

    #[test]
    fn width_markers_attach_to_the_next_fn() {
        let src = "\
// flcheck: widen-ok(slot_bits, r_bits)
pub fn pack() {}
// flcheck: narrow(masked limb split: low 32 bits extracted explicitly)
fn split_limb() {}
fn unmarked() {}
";
        let f = SourceFile::parse("x.rs", src);
        let by_name = |n: &str| f.fns.iter().find(|f| f.name == n).expect(n);
        assert_eq!(by_name("pack").marks.widen_ok, vec!["slot_bits", "r_bits"]);
        assert!(by_name("pack").marks.narrows.is_empty());
        assert_eq!(
            by_name("split_limb").marks.narrows,
            vec!["masked limb split: low 32 bits extracted explicitly"]
        );
        let u = by_name("unmarked");
        assert!(u.marks.widen_ok.is_empty() && u.marks.narrows.is_empty());
    }

    #[test]
    fn empty_nondet_directive_is_ignored() {
        let src = "// flcheck: nondet( )\nfn f() {}\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(f.fns[0].marks.nondets.is_empty());
    }

    #[test]
    fn directives_inside_block_comments_do_not_register() {
        // A secret(..) directive quoted inside a (nested) block comment is
        // prose, not a marker: it must not seed taint in the next fn.
        let src = "\
/* discussion: /* flcheck: secret(table) */ see the directive grammar */
fn f() {}
// flcheck: secret(stats)
fn g() {}
";
        let f = SourceFile::parse("x.rs", src);
        assert!(
            f.fns[0].marks.secrets.is_empty(),
            "{:?}",
            f.fns[0].marks.secrets
        );
        assert_eq!(f.fns[1].marks.secrets, vec!["stats".to_string()]);
    }

    #[test]
    fn ct_marker_skips_attributes() {
        let src = "// flcheck: ct-fn\n#[inline]\n#[must_use]\npub fn masked() -> u64 { 0 }\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(f.fns[0].marks.is_ct);
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
