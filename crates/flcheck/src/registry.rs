//! The rule registry: the one table every enumeration of rules derives
//! from — `flcheck --rules`, `--explain`, the JSON summary's per-rule
//! counts, `--rule` validation and the README all-rules table (checked
//! against this table by `tests/analysis_consistency.rs`).
//!
//! Adding a rule means adding one row here and emitting its id from
//! [`crate::check_file`]; nothing else lists rules by hand.

/// One rule: identity and documentation.
#[derive(Debug)]
pub struct Rule {
    /// Rule id, e.g. `pf-assert`.
    pub id: &'static str,
    /// Rule family, e.g. `panic-freedom`.
    pub family: &'static str,
    /// One-line summary (the README table cell).
    pub summary: &'static str,
    /// One-paragraph description for `--explain`.
    pub detail: &'static str,
    /// A minimal triggering example.
    pub example: &'static str,
}

/// Every rule the analyzer can emit, sorted by id.
pub const RULES: &[Rule] = &[
    Rule {
        id: "ct-branch",
        family: "ct-discipline",
        summary: "secret-dependent `if`/`match` inside a ct-fn",
        detail: "Inside a fn marked `// flcheck: ct-fn`, branching on a value \
                 derived from a secret leaks it through the timing/branch-predictor \
                 side channel: the two arms take different time and leave different \
                 microarchitectural traces. Constant-time code must replace the \
                 branch with masked selection (e.g. `ct_select`).",
        example: "// flcheck: ct-fn\nfn cmp(secret: u64) -> u64 {\n    if secret == 0 { 1 } else { 0 } // ct-branch + ct-compare\n}",
    },
    Rule {
        id: "ct-compare",
        family: "ct-discipline",
        summary: "variable-time comparison on secret data in a ct-fn",
        detail: "`==`, `!=`, `<`, `>`, `.min()`, `.max()` and friends on secret \
                 values compile to early-exit comparisons whose duration depends \
                 on the operands. Inside a ct-fn these must go through the \
                 constant-time primitives (`ct_eq`, `ct_lt`), which always scan \
                 every limb.",
        example: "// flcheck: ct-fn\nfn check(tag: &[u8], other: &[u8]) -> bool {\n    tag == other // ct-compare\n}",
    },
    Rule {
        id: "ct-return",
        family: "ct-discipline",
        summary: "early return inside a ct-fn",
        detail: "An early `return` inside a ct-fn makes execution time depend on \
                 which path ran — the classic padding-oracle shape. Constant-time \
                 fns compute both outcomes and select at the end.",
        example: "// flcheck: ct-fn\nfn reduce(x: u64, m: u64) -> u64 {\n    if x < m { return x; } // ct-return (after ct-branch)\n    x - m\n}",
    },
    Rule {
        id: "ct-shortcircuit",
        family: "ct-discipline",
        summary: "short-circuiting `&&`/`||` in a ct-fn",
        detail: "`&&` and `||` skip evaluating their right operand depending on \
                 the left, so the time taken reveals the left operand. In a ct-fn \
                 use the bitwise `&`/`|` forms on fully-evaluated masks instead.",
        example: "// flcheck: ct-fn\nfn both(a: bool, b: bool) -> bool {\n    a && b // ct-shortcircuit\n}",
    },
    Rule {
        id: "pf-assert",
        family: "panic-freedom",
        summary: "assert!/assert_eq! on a library path",
        detail: "Asserts abort the process mid-epoch in a long-running training \
                 job. Library crates must return `Result` instead; \
                 `debug_assert!` stays allowed (compiled out in release). clippy \
                 has no lint for a release assert; `unwrap`, `expect`, the \
                 `panic!` family and indexing are denied by the workspace's \
                 `[workspace.lints.clippy]` table instead.",
        example: "pub fn split(n: usize, k: usize) -> usize {\n    assert!(k > 0); // pf-assert\n    n / k\n}",
    },
];

/// Every rule id, in registry (sorted) order.
pub fn ids() -> impl Iterator<Item = &'static str> {
    RULES.iter().map(|r| r.id)
}

/// Looks up a rule by id.
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_sorted_and_unique() {
        let ids: Vec<&str> = ids().collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn every_row_is_documented() {
        for r in RULES {
            assert!(!r.family.is_empty(), "{}: family", r.id);
            assert!(
                !r.summary.is_empty() && r.summary.len() < 80,
                "{}: summary must fit a table cell",
                r.id
            );
            assert!(r.detail.len() > 100, "{}: detail is a paragraph", r.id);
            assert!(!r.example.is_empty(), "{}: example", r.id);
        }
    }

    #[test]
    fn lookup_finds_known_and_rejects_unknown() {
        assert_eq!(rule("pf-assert").unwrap().family, "panic-freedom");
        assert_eq!(rule("ct-return").unwrap().family, "ct-discipline");
        assert!(rule("no-such-rule").is_none());
    }
}
