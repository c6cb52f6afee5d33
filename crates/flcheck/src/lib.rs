//! flcheck — the two source checks neither rustc nor clippy can make,
//! as a library for the workspace's tests.
//!
//! The Montgomery/CIOS kernels in `mpint` and the Paillier/RSA paths in
//! `he` process secret plaintexts and private exponents, and every
//! library crate runs inside long training jobs that must not abort
//! mid-epoch. So a function marked `// flcheck: ct-fn` may not branch on,
//! return early on, short-circuit on or compare its data (ct-discipline),
//! and the library crates may not release-`assert!` (`pf-assert`); see
//! [`rules`]. Everything else — panic freedom, determinism, banned calls,
//! integer width, locks, key material — is rustc's or clippy's (DESIGN
//! §10). The lexer is hand-rolled: the crate has no dependencies.
//!
//! [`check_file`] runs both rule families over one file (lexer →
//! [`source`], which parses the directives, fn spans and test regions →
//! [`rules`]); [`run`] maps it over the workspace, one file after
//! another, and sorts the findings. The tier-1 test
//! `tests/analysis_consistency.rs::the_tree_has_no_flcheck_findings`
//! asserts that the tree has none. The walk skips `target`, this crate,
//! its fixtures and the dependency shims.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod rules;
pub mod source;

use rules::Finding;
use source::SourceFile;
use std::path::{Path, PathBuf};

/// Library crates subject to panic freedom: `pf-assert` here, and the
/// root manifest's clippy table, which each of them opts into with
/// `[lints] workspace = true` (as does flcheck itself, outside this
/// rule's scope). `bench` (a binary crate) and the dependency shims are
/// out of scope.
pub const PANIC_FREEDOM_CRATES: &[&str] = &["mpint", "he", "codec", "core", "fl", "gpu-sim"];

/// Path components that terminate the walk.
const SKIP_DIRS: &[&str] = &["target", ".git", "shims", "flcheck", "fixtures"];

/// True when `pf-assert` applies to this workspace-relative
/// path (non-test source of a library crate).
pub fn panic_rules_apply(rel_path: &str) -> bool {
    PANIC_FREEDOM_CRATES
        .iter()
        .any(|c| rel_path.starts_with(&format!("crates/{c}/src/")))
}

/// Analyzes one file's source text with every rule. `rel_path` selects
/// which apply (panic-freedom is scoped by crate; ct-discipline runs
/// wherever markers appear).
pub fn check_file(rel_path: &str, src: &str) -> Vec<Finding> {
    let file = SourceFile::parse(rel_path, src);
    let mut out = Vec::new();
    rules::check_ct(&file, &mut out);
    if panic_rules_apply(rel_path) {
        rules::check_panics(&file, &mut out);
    }
    out
}

/// Analyzes a whole workspace given as (workspace-relative path, source)
/// pairs: [`check_file`] over each file in turn, then the findings
/// sorted by (file, line, rule, message), whatever the input order.
pub fn check_workspace(inputs: &[(String, String)]) -> Vec<Finding> {
    let mut findings: Vec<Finding> = inputs
        .iter()
        .flat_map(|(rel, src)| check_file(rel, src))
        .collect();
    findings.sort();
    findings
}

/// Recursively collects the `.rs` files to analyze under `root`,
/// sorted.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !name.starts_with('.') && !SKIP_DIRS.contains(&name.as_ref()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Scans the workspace rooted at `root`: its sorted findings.
pub fn run(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut inputs = Vec::new();
    for path in collect_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&path)?;
        inputs.push((rel, src));
    }
    Ok(check_workspace(&inputs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_scope_is_path_based() {
        assert!(panic_rules_apply("crates/mpint/src/limb.rs"));
        assert!(panic_rules_apply("crates/gpu-sim/src/device.rs"));
        assert!(!panic_rules_apply("crates/bench/src/main.rs"));
        assert!(!panic_rules_apply("crates/shims/rand/src/lib.rs"));
        assert!(!panic_rules_apply("src/lib.rs"));
        assert!(!panic_rules_apply("crates/mpint/tests/props.rs"));
    }

    #[test]
    fn check_file_routes_rules_by_path() {
        let src = "fn f(v: &[u8]) -> u8 { assert!(v.len() > 1); assert_eq!(v[0], 1); v[1] }";
        let in_scope = check_file("crates/he/src/x.rs", src);
        assert_eq!(in_scope.len(), 2);
        let out_of_scope = check_file("crates/bench/src/x.rs", src);
        assert!(out_of_scope.is_empty());
    }

    #[test]
    fn sort_is_by_file_line_rule_message() {
        let mut findings = vec![
            Finding::new("z", "b.rs", 1, ""),
            Finding::new("a", "a.rs", 9, ""),
            Finding::new("b", "a.rs", 2, "first"),
            Finding::new("a", "a.rs", 2, "second"),
            Finding::new("a", "a.rs", 2, "first"),
        ];
        findings.sort();
        let order: Vec<_> = findings
            .iter()
            .map(|f| (f.file.as_str(), f.line, f.rule.as_str(), f.message.as_str()))
            .collect();
        assert_eq!(
            order,
            vec![
                ("a.rs", 2, "a", "first"),
                ("a.rs", 2, "a", "second"),
                ("a.rs", 2, "b", "first"),
                ("a.rs", 9, "a", ""),
                ("b.rs", 1, "z", "")
            ]
        );
    }

    #[test]
    fn product_crates_are_scanned_but_shims_are_not() {
        // Walk from the workspace root two levels up from this crate.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .unwrap()
            .to_path_buf();
        let files = collect_files(&root).unwrap();
        let rel: Vec<String> = files
            .iter()
            .map(|p| {
                p.strip_prefix(&root)
                    .unwrap()
                    .to_string_lossy()
                    .replace('\\', "/")
            })
            .collect();
        assert!(
            rel.iter().any(|p| p == "crates/fl/src/net.rs"),
            "net.rs must be in the walk: {rel:?}"
        );
        assert!(
            !rel.iter().any(|p| p.starts_with("crates/shims/")),
            "shims stay excluded"
        );
    }
}
