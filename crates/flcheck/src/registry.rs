//! The rule registry: the one table every enumeration of rules derives
//! from — `flcheck --rules`, `--explain`, the JSON summary's per-rule
//! counts, `--rule` validation and the README all-rules table (checked
//! against this table by `tests/analysis_consistency.rs`).
//!
//! Adding a rule means adding one row here and emitting its id from a
//! pass in [`crate::PASSES`] (or from the per-file phase); nothing else
//! lists rules by hand.

/// One rule: identity, emitting pass and documentation.
#[derive(Debug)]
pub struct Rule {
    /// Rule id, e.g. `pf-assert`.
    pub id: &'static str,
    /// Rule family, e.g. `panic-freedom`.
    pub family: &'static str,
    /// The pass that emits it: a [`crate::PASSES`] name, or `per_file`
    /// for the lexer-level rules of [`crate::check_file`].
    pub pass: &'static str,
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
        pass: "per_file",
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
        pass: "per_file",
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
        pass: "per_file",
        summary: "early return inside a ct-fn",
        detail: "An early `return` inside a ct-fn makes execution time depend on \
                 which path ran — the classic padding-oracle shape. Constant-time \
                 fns compute both outcomes and select at the end.",
        example: "// flcheck: ct-fn\nfn reduce(x: u64, m: u64) -> u64 {\n    if x < m { return x; } // ct-return (after ct-branch)\n    x - m\n}",
    },
    Rule {
        id: "ct-shortcircuit",
        family: "ct-discipline",
        pass: "per_file",
        summary: "short-circuiting `&&`/`||` in a ct-fn",
        detail: "`&&` and `||` skip evaluating their right operand depending on \
                 the left, so the time taken reveals the left operand. In a ct-fn \
                 use the bitwise `&`/`|` forms on fully-evaluated masks instead.",
        example: "// flcheck: ct-fn\nfn both(a: bool, b: bool) -> bool {\n    a && b // ct-shortcircuit\n}",
    },
    Rule {
        id: "ct-taint",
        family: "ct-discipline",
        pass: "taint",
        summary: "secret value flowing into a variable-time operation",
        detail: "Interprocedural taint: values seeded by `// flcheck: secret(x)` \
                 are propagated through assignments, arithmetic, and resolved \
                 calls across the workspace call graph. Reaching a timing sink — \
                 a branch predicate, slice index, early-return condition, loop \
                 bound, or a call into a non-ct fn — fires with the full \
                 propagation chain.",
        example: "// flcheck: secret(key)\nfn seal(key: u64) -> u64 { whiten(key) }\nfn whiten(x: u64) -> u64 {\n    if x == 0 { return 1; } // ct-taint: `key` reached a branch via `whiten`\n    x\n}",
    },
    Rule {
        id: "lock-leaf",
        family: "lock-discipline",
        pass: "lock_leaf",
        summary: "guard not a temporary, or held across a lock, wait or kernel",
        detail: "Every lock is a leaf. An acquisition (`.lock()`, a zero-argument \
                 `.read()` / `.write()`, a call to a fn named `lock`) must yield a \
                 temporary guard: never `let`-bound, stored, passed by value or \
                 returned (a fn named `lock` may return it, since calls to it are \
                 acquisitions). Its held region — the rest of the statement, plus \
                 the body of an `if let` / `match` / `for` it scrutinizes — must not \
                 acquire again, block (`park`, `sleep`, `recv*`, `wait*`, `join`, \
                 `yield_now`) or call anything whose chain does either or reaches a \
                 hot-path kernel (`mont_mul`, `mont_sqr`, `mod_pow*`, `encrypt*`). \
                 A thread then never holds two locks, so no order can deadlock, and \
                 never stalls other threads behind a wait, a steal or a kernel.",
        example: "fn send(&self) {\n    let s = self.stats.lock(); // lock-leaf: guard is let-bound\n    self.stats.lock().bump(self.rx.recv()); // lock-leaf: blocking `recv`\n}",
    },
    Rule {
        id: "lossy-narrow",
        family: "width",
        pass: "width",
        summary: "narrowing cast reaching codec geometry, op-cost, or net accounting",
        detail: "An `as` cast down the width lattice (u8 < u16 < u32 < u64 ≈ \
                 usize < u128) silently truncates. On the scale-out paths — codec \
                 pack/unpack geometry, `*_estimate`/`*_ops`/`*_mac_count` \
                 accounting, `fl::net` byte counters — a truncated count corrupts \
                 results or charging with no panic, and only at large scale. \
                 Casts whose fn computes inside those sinks, or that flow as \
                 arguments into them, fire with the full path. Pure-literal \
                 sources are exempt; `widen-ok(name)` exempts value-range-safe \
                 identifiers; `narrow(reason)` sanctions a deliberately narrowing \
                 fn (e.g. masked limb splits).",
        example: "fn pack(values: &[u64], slots: usize) -> u32 {\n    (slots * values.len()) as u32 // lossy-narrow: geometry overflows at scale\n}",
    },
    Rule {
        id: "nondet-in-result",
        family: "determinism",
        pass: "detflow",
        summary: "nondeterminism source flowing into a result constructor",
        detail: "Hash-order iteration, wall-clock reads, thread identity, and \
                 declared `nondet(..)` sources are propagated over the call graph. \
                 Reaching a `det-sink` result constructor means reported numbers \
                 can differ run to run — the bit-identical-output invariant every \
                 bench gate relies on breaks. `det-absorb` marks fns that consume \
                 nondeterminism without letting it into results (e.g. stopwatches).",
        example: "fn summarize(m: &HashMap<u32, u64>) -> u64 {\n    m.values().sum() // nondet-in-result when this feeds a det-sink\n}",
    },
    Rule {
        id: "pf-assert",
        family: "panic-freedom",
        pass: "per_file",
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
    fn every_row_is_documented_and_names_a_real_pass() {
        for r in RULES {
            assert!(!r.family.is_empty(), "{}: family", r.id);
            assert!(
                !r.summary.is_empty() && r.summary.len() < 80,
                "{}: summary must fit a table cell",
                r.id
            );
            assert!(r.detail.len() > 100, "{}: detail is a paragraph", r.id);
            assert!(!r.example.is_empty(), "{}: example", r.id);
            assert!(
                r.pass == "per_file" || crate::PASSES.iter().any(|(name, _)| *name == r.pass),
                "{}: unknown pass `{}`",
                r.id,
                r.pass
            );
        }
        for (name, _) in crate::PASSES {
            assert!(
                RULES.iter().any(|r| r.pass == *name),
                "pass `{name}` emits no registered rule"
            );
        }
    }

    #[test]
    fn lookup_finds_known_and_rejects_unknown() {
        assert_eq!(rule("pf-assert").unwrap().family, "panic-freedom");
        assert_eq!(rule("lock-leaf").unwrap().pass, "lock_leaf");
        assert!(rule("no-such-rule").is_none());
    }
}
